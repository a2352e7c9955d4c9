"""Equivalence tests for the per-segment served path.

Each piece of per-path, per-module or per-kernel work that the served
path now computes once is checked against the formula it replaced:

* the neighbours and hop costs a path stores at assembly equal graph
  adjacency and ``Kernel.crossing_cost`` — with and without protection
  domains, and after a domain crash and recovery;
* a hop that crosses domains still goes through ``Path.cross`` (charged,
  counted, and checked against the allowed-crossings map);
* the TCP engine's in-place ``_transmit_window`` equals the allocate-and-
  merge composition it replaced;
* every prebuilt instruction equals its per-call cost formula;
* a chunk started directly from the CPU's dispatch loop still honours an
  owner's runtime limit.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.recovery import DomainRecovery
from repro.kernel.errors import PermissionError_
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.owner import Owner, OwnerType
from repro.kernel.threads import ThreadPool
from repro.modules.scsi import ScsiRead
from repro.modules.tcp import PURE_ACK_COST
from repro.modules.http import CGI_SPAWN_COST
from repro.net.packet import FLAG_ACK, FLAG_FIN, FLAG_SYN, TCPSegment
from repro.net.tcp import TCPActions, TCPEngine
from repro.server.webserver import ScoutWebServer
from repro.sim.clock import seconds_to_ticks
from repro.sim.costs import CostModel
from repro.sim.cpu import CPU, Cycles
from repro.sim.engine import Simulator
from tests.test_core_lifecycle import create_path, make_server
from tests.test_sim_cpu import TPC, FakeOwner


# ----------------------------------------------------------------------
# Hops fixed at pathCreate
# ----------------------------------------------------------------------
def assert_hops_fixed(server, path):
    """``path``'s stored neighbours and costs match the graph and kernel."""
    kernel, graph = server.kernel, server.graph
    stages = path.stages
    assert stages, f"{path.name} has no stages"
    for i, stage in enumerate(stages):
        prev = stages[i - 1] if i > 0 else None
        nxt = stages[i + 1] if i + 1 < len(stages) else None
        assert stage.backward_stage is prev
        assert stage.forward_stage is nxt
        pd = stage.module.pd
        if nxt is None:
            assert stage.forward_cost == 0
        else:
            assert graph.connected(stage.module.name, nxt.module.name)
            assert stage.forward_cost == kernel.crossing_cost(
                pd, nxt.module.pd)
        if prev is None:
            assert stage.backward_cost == 0
        else:
            assert stage.backward_cost == kernel.crossing_cost(
                pd, prev.module.pd)


def live_paths(server):
    return [p for p in server.path_manager.paths if not p.destroyed]


@pytest.mark.parametrize("pd", [False, True])
def test_stored_hops_equal_graph_and_crossing_cost(sim, pd):
    server = make_server(sim, pd=pd)
    create_path(sim, server)
    paths = live_paths(server)
    # The ARP path, the passive path and the active path.
    assert len(paths) >= 3
    for path in paths:
        assert_hops_fixed(server, path)
    costs = [s.forward_cost for p in paths for s in p.stages[:-1]]
    if pd:
        assert all(c == server.costs.pd_crossing for c in costs)
    else:
        assert not any(costs)


def test_stored_hops_hold_after_domain_crash_and_revive(sim):
    server = make_server(sim, pd=True)
    doomed = create_path(sim, server)
    server.kernel.destroy_domain(server.tcp.pd)
    assert doomed.destroyed
    DomainRecovery(server).revive()
    sim.run(until=sim.now + seconds_to_ticks(0.05))
    assert server.http.passive_paths  # the listener came back
    create_path(sim, server)
    for path in live_paths(server):
        assert_hops_fixed(server, path)


def _run_on_kernel_thread(sim, server, body):
    server.kernel.spawn_thread(server.kernel.kernel_owner, body())
    sim.run(until=sim.now + seconds_to_ticks(0.05))


def test_pd_call_charges_a_crossing_each_way(sim):
    server = make_server(sim, pd=True)
    path = create_path(sim, server)
    fs_stage = path.stage_of("fs")
    before, crossings = path.usage.cycles, path.crossings
    out = []

    def body():
        out.append((yield from fs_stage.call_forward(ScsiRead(1024))))

    _run_on_kernel_thread(sim, server, body)
    assert out == [True]
    assert path.crossings == crossings + 2
    # The disk work runs on the kernel thread; the path pays the traps.
    assert path.usage.cycles - before == 2 * server.costs.pd_crossing


def test_pd_send_charges_one_crossing(sim):
    server = make_server(sim, pd=True)
    path = create_path(sim, server)
    seen = []

    def eth_backward(stage, msg):
        seen.append((stage, msg))
        return True
        yield  # pragma: no cover

    server.eth.backward = eth_backward
    before, crossings = path.usage.cycles, path.crossings

    def body():
        yield from path.stage_of("ip").send_backward("frame")

    _run_on_kernel_thread(sim, server, body)
    assert seen == [(path.stages[0], "frame")]
    assert path.crossings == crossings + 1
    assert path.usage.cycles - before == server.costs.pd_crossing


def test_same_domain_hop_skips_path_cross(sim, monkeypatch):
    server = make_server(sim)
    path = create_path(sim, server)

    def no_cross(*_args):
        raise AssertionError("a free hop must not enter Path.cross")

    monkeypatch.setattr(type(path), "cross", no_cross)
    out = []

    def body():
        out.append((yield from path.stage_of("fs").call_forward(
            ScsiRead(1024))))

    _run_on_kernel_thread(sim, server, body)
    assert out == [True]
    assert path.crossings == 0


def test_crossing_missing_from_allowed_map_raises(sim):
    server = make_server(sim, pd=True)
    path = create_path(sim, server)
    fs_stage = path.stage_of("fs")
    del path.allowed_pd_crossings[(server.fs.pd.oid, server.scsi.pd.oid)]
    errors = []

    def body():
        try:
            yield from fs_stage.call_forward(ScsiRead(1024))
        except PermissionError_ as exc:
            errors.append(exc)

    _run_on_kernel_thread(sim, server, body)
    assert len(errors) == 1
    assert path.crossings == 0


def test_sever_drops_stored_neighbours(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    stages = list(path.stages)
    server.path_manager.path_kill(path)
    assert all(s.forward_stage is None and s.backward_stage is None
               for s in stages)


# ----------------------------------------------------------------------
# TCP: in-place transmit window vs. allocate-and-merge
# ----------------------------------------------------------------------
def _merge(into: TCPActions, other: TCPActions) -> None:
    """The allocate-and-merge rules the engine used to apply."""
    into.segments.extend(other.segments)
    into.deliveries.extend(other.deliveries)
    into.established = into.established or other.established
    into.fin_received = into.fin_received or other.fin_received
    into.closed = into.closed or other.closed
    into.aborted = into.aborted or other.aborted
    into.refused = into.refused or other.refused
    if other.set_rto is not None:
        into.set_rto = other.set_rto
        into.cancel_rto = False
    if other.cancel_rto:
        into.cancel_rto = True
        into.set_rto = None
    if other.set_delack is not None:
        into.set_delack = other.set_delack
        into.cancel_delack = False
    if other.cancel_delack:
        into.cancel_delack = True
        into.set_delack = None


class MergingEngine(TCPEngine):
    """Reference: transmit into fresh actions, then merge them in."""

    def _transmit_window(self, actions: TCPActions) -> None:
        fresh = TCPActions()
        super()._transmit_window(fresh)
        _merge(actions, fresh)


def _record(actions: TCPActions):
    segs = [(s.src_port, s.dst_port, s.seq, s.ack, s.flags, s.payload_len,
             s.app_data) for s in actions.segments]
    return (segs, list(actions.deliveries), actions.established,
            actions.fin_received, actions.closed, actions.aborted,
            actions.refused, actions.set_rto, actions.cancel_rto,
            actions.set_delack, actions.cancel_delack)


def _converse(cls, ops):
    """Drive a client/server engine pair through ``ops``; record every
    actions object the engines return."""
    kw = dict(delayed_ack_ticks=100)
    client, first = cls.active_open("10.1.0.1", 5000, "10.0.0.80", 80,
                                    **kw)
    log = [_record(first)]
    # Segments in flight to each engine: [to server, to client].
    wire = [list(first.segments), []]
    engines = [None, client]
    for op, side, arg in ops:
        engine = engines[side]
        if op == "deliver":
            queue = wire[side]
            if not queue:
                continue
            seg = queue.pop(arg % len(queue))
            if engine is None:
                if not seg.flags & FLAG_SYN:
                    continue
                engine, actions = cls.passive_open(
                    "10.0.0.80", 80, seg, "10.1.0.1", **kw)
                engines[side] = engine
            else:
                actions = engine.on_segment(seg)
        elif engine is None or engine.closed:
            continue
        elif op == "send":
            actions = engine.send(arg * 97, app_data=arg,
                                  fin=arg % 5 == 0)
        elif op == "close":
            actions = engine.close()
        elif op == "rto":
            actions = engine.on_rto()
        else:
            actions = engine.on_delack()
        wire[side ^ 1].extend(actions.segments)
        log.append(_record(actions))
    return log


_OPS = st.lists(st.tuples(
    st.sampled_from(["deliver", "deliver", "deliver", "send", "close",
                     "rto", "delack"]),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=40)), max_size=80)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_in_place_transmit_window_equals_allocate_and_merge(ops):
    assert _converse(TCPEngine, ops) == _converse(MergingEngine, ops)


def test_conversation_exercises_the_window():
    """The generator above reaches data, FIN and timer traffic, and the
    override rules: the server's reply to the client's data arms a
    delayed ACK and then cancels it by transmitting in the same call."""
    ops = ([("deliver", 0, 0), ("deliver", 1, 0), ("deliver", 0, 0),
            ("send", 0, 40), ("deliver", 1, 0), ("send", 1, 1),
            ("deliver", 0, 0)]
           + [(op, s, 0) for op in ("delack", "deliver") * 30
              for s in (1, 0)]
           + [("send", 1, 0), ("deliver", 0, 0), ("rto", 1, 0)])
    log = _converse(TCPEngine, ops)
    flags = [seg[4] for rec in log for seg in rec[0]]
    assert any(f & FLAG_FIN for f in flags)
    assert any(rec[1] for rec in log)                 # deliveries
    assert any(rec[7] is not None for rec in log)     # set_rto
    assert log[7][10] and log[7][9] is None           # cancel wins
    assert _converse(MergingEngine, ops) == log


# ----------------------------------------------------------------------
# Prebuilt instructions
# ----------------------------------------------------------------------
#: Non-default costs for every field a prebuilt instruction reads.
_FIELDS = ("eth_rx", "eth_tx", "ip_rx", "ip_tx", "tcp_rx_segment",
           "tcp_rx_ack", "tcp_handshake_step", "tcp_timeout_per_conn",
           "http_parse_request", "http_build_response", "fs_lookup",
           "fs_read_cached", "iobuf_alloc", "iobuf_cached_alloc",
           "thread_switch", "accounting_op")


def _odd_costs():
    base = CostModel.default()
    return dataclasses.replace(base, **{
        f: getattr(base, f) * 3 + 7 + i for i, f in enumerate(_FIELDS)})


@pytest.mark.parametrize("accounting", [True, False])
def test_prebuilt_cycles_equal_per_call_formula(accounting):
    costs = _odd_costs()
    server = ScoutWebServer(Simulator(), accounting=accounting,
                            costs=costs)
    acct = server.kernel.acct
    assert acct(1) == (costs.accounting_op if accounting else 0)
    c = costs
    expected = {
        (server.eth, "_rx_cycles"): c.eth_rx + acct(1),
        (server.eth, "_tx_cycles"): c.eth_tx + acct(1),
        (server.ip_mod, "_rx_cycles"): c.ip_rx + acct(1),
        (server.ip_mod, "_tx_cycles"): c.ip_tx + acct(1),
        (server.tcp, "_rx_data_cycles"): c.tcp_rx_segment + acct(1),
        (server.tcp, "_rx_handshake_cycles"):
            c.tcp_rx_segment + acct(1) + c.tcp_handshake_step,
        (server.tcp, "_rx_ack_cycles"): c.tcp_rx_ack + acct(1),
        (server.tcp, "_pure_ack_cycles"): PURE_ACK_COST + acct(1),
        (server.tcp, "_timeout_cycles"):
            c.tcp_timeout_per_conn + acct(1),
        (server.tcp, "_handshake_cycles"):
            c.tcp_handshake_step + acct(2),
        (server.http, "_parse_cycles"): c.http_parse_request + acct(1),
        (server.http, "_build_cycles"): c.http_build_response + acct(1),
        (server.http, "_cgi_spawn_cycles"): CGI_SPAWN_COST + acct(2),
        (server.fs, "_lookup_cycles"): c.fs_lookup + acct(1),
        (server.fs, "_read_cached_cycles"): c.fs_read_cached + acct(1),
        (server.fs, "_iobuf_alloc_cycles"): c.iobuf_alloc + acct(2),
        (server.fs, "_iobuf_cached_alloc_cycles"): c.iobuf_cached_alloc,
    }
    for (module, attr), n in expected.items():
        instr = getattr(module, attr)
        assert (instr.n, instr.owner) == (n, None), (module.name, attr)


@pytest.mark.parametrize("accounting", [True, False])
def test_cached_transmit_cycles_equal_per_call_formula(accounting):
    """A data segment's transmit instruction, cached per payload length,
    costs what the per-segment formula charged."""
    costs = dataclasses.replace(_odd_costs(), copy_per_byte_num=7,
                                copy_per_byte_den=3)
    sim = Simulator()
    server = ScoutWebServer(sim, accounting=accounting, costs=costs)
    server.boot()
    sim.run(until=seconds_to_ticks(0.05))
    path = create_path(sim, server)
    sent = []

    def ip_backward(stage, msg):
        sent.append(msg[1].payload_len)
        return True
        yield  # pragma: no cover

    server.ip_mod.backward = ip_backward
    lengths = [1460, 1, 1460, 733, 1]
    actions = TCPActions(segments=[
        TCPSegment(80, 5000, 0, 0, FLAG_ACK, payload_len=n)
        for n in lengths])
    charged = [instr.n
               for instr in server.tcp._apply(path.stage_of("tcp"), actions)
               if isinstance(instr, Cycles)]
    assert sent == lengths
    assert charged == [costs.tcp_tx_segment + costs.copy_cost(n)
                       + server.kernel.acct(1) for n in lengths]
    assert sorted(server.tcp._tx_cycles) == [1, 733, 1460]


@pytest.mark.parametrize("accounting", [True, False])
def test_pool_switch_cost_equals_per_call_formula(accounting):
    sim = Simulator()
    costs = _odd_costs()
    kernel = Kernel(sim, KernelConfig(accounting=accounting, costs=costs))
    owner = Owner(OwnerType.PATH, name="pool-owner")
    queue = kernel.create_queue(capacity=4)

    def handler(_item):
        return
        yield  # pragma: no cover

    ThreadPool(kernel, owner, queue, handler)
    sim.run()
    before = owner.usage.cycles
    for item in range(3):
        queue.put(item)
    sim.run()
    switch = costs.thread_switch + kernel.acct(1)
    assert owner.usage.cycles - before == 3 * switch


# ----------------------------------------------------------------------
# CPU: chunks started from the dispatch loop
# ----------------------------------------------------------------------
def _trap_cpu(sim):
    cpu = CPU(sim, TPC, idle_owner=FakeOwner("idle"))
    trapped = []

    def hook(thread):
        trapped.append((sim.now, thread.burst_cycles))
        cpu.kill_thread(thread)

    cpu.on_runaway = hook
    return cpu, trapped


def test_limit_set_between_chunks_stops_at_limit():
    sim = Simulator()
    cpu, trapped = _trap_cpu(sim)
    owner = FakeOwner("late-limit")

    def body():
        yield Cycles(500)          # unlimited: started in place
        owner.runtime_limit_cycles = 700
        yield Cycles(500)          # now limited: split at 700

    cpu.spawn(body(), owner)
    sim.run()
    assert trapped == [(700 * TPC, 700)]
    assert owner.cycles == 700


def test_limited_owner_stops_exactly_across_chunks():
    sim = Simulator()
    cpu, trapped = _trap_cpu(sim)
    owner = FakeOwner("limited", limit=1000)

    def body():
        yield Cycles(600)
        yield Cycles(600, owner=FakeOwner("other"))

    cpu.spawn(body(), owner)
    sim.run()
    assert trapped == [(1000 * TPC, 1000)]
    assert owner.cycles == 600
