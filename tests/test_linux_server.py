"""Unit/integration tests for the Linux/Apache baseline model."""

import pytest

from repro.sim.clock import seconds_to_ticks
from repro.experiments.harness import Testbed


def test_linux_serves_requests(sim):
    bed = Testbed.linux()
    bed.add_clients(2, document="/doc-1k")
    result = bed.run(warmup_s=0.3, measure_s=0.8)
    assert result.client_completions > 0
    assert result.client_failures == 0
    assert bed.server.requests_served > 0


def test_linux_full_document_delivered(sim):
    bed = Testbed.linux()
    bed.add_clients(1, document="/doc-10k")
    bed.run(warmup_s=0.3, measure_s=0.8)
    client = bed.clients[0]
    assert set(client.response_sizes) == {10 * 1024 + 180}


def test_linux_404(sim):
    bed = Testbed.linux()
    bed.add_clients(1, document="/gone")
    bed.run(warmup_s=0.3, measure_s=0.5)
    assert bed.server.requests_404 > 0


def test_linux_plateau_below_scout(sim):
    linux = Testbed.linux()
    linux.add_clients(24, document="/doc-1")
    linux_rate = linux.run(warmup_s=0.4, measure_s=0.8).connections_per_second

    scout = Testbed.scout()
    scout.add_clients(24, document="/doc-1")
    scout_rate = scout.run(warmup_s=0.4, measure_s=0.8).connections_per_second
    assert scout_rate > 1.5 * linux_rate


def test_linux_pays_full_cost_for_every_syn(sim):
    """No early demux: flood SYNs consume kernel CPU on Linux."""
    bed = Testbed.linux()
    bed.add_syn_attacker(rate_per_second=500)
    bed.run(warmup_s=0.2, measure_s=1.0)
    server = bed.server
    assert server.syns_seen > 0
    # Every packet went through the full kernel path.
    assert server.packets_processed >= server.syns_seen
    assert server.busy_cycles >= server.syns_seen * server.costs.linux_syn_cost


def test_linux_kill_cost_is_the_table2_constant(sim):
    bed = Testbed.linux()
    assert bed.server.kill_process_cost() == bed.costs.linux_kill_process


def test_linux_work_serializes(sim):
    """The single CPU processes work items FIFO, one at a time."""
    bed = Testbed.linux()
    server = bed.server
    order = []
    server.work(1000, lambda: order.append(("a", bed.sim.now)))
    server.work(1000, lambda: order.append(("b", bed.sim.now)))
    bed.sim.run(until=seconds_to_ticks(0.01))
    (_, ta), (_, tb) = order
    assert tb - ta == 1000 * 2  # serialized: 1000 cycles apart


def test_half_open_count_matches_a_rescan_after_every_syn(sim):
    """The backlog count kept on state changes equals a full rescan."""
    from repro.net.packet import FLAG_ACK, FLAG_SYN

    bed = Testbed.linux()
    bed.add_clients(8, document="/doc-1")
    bed.add_syn_attacker(rate_per_second=1000)
    server = bed.server
    process = server._process
    counts = []

    def process_and_rescan(dgram, seg):
        process(dgram, seg)
        if seg.flags & FLAG_SYN and not seg.flags & FLAG_ACK:
            rescan = sum(1 for c in server._conns.values()
                         if c.engine.half_open)
            assert server.half_open == rescan
            counts.append(rescan)

    server._process = process_and_rescan
    bed.run(warmup_s=0.5, measure_s=0.5)
    assert len(counts) == server.syns_seen
    assert server.syns_dropped_backlog > 0
    assert max(counts) == server.LISTEN_BACKLOG
