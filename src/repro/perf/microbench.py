"""Targeted microbenchmarks for the simulator hot paths.

Two measurements, each isolating one layer the end-to-end benchmark
mixes together, reported as a ``microbench`` section of ``BENCH_sim.json``:

* **Demux dispatch** — repeated incremental demultiplexing of one spoofed
  SYN frame through the eth -> ip -> tcp module chain of a freshly booted
  server.  ``classify`` is side-effect free, so one frame can be
  classified arbitrarily often; this is the per-packet cost the paper's
  early-drop defense story rides on.
* **Allocation rate** — the synthetic event mix under :mod:`tracemalloc`,
  reporting bytes allocated per simulated event and the top allocation
  sites.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, Dict, List

from repro.sim.engine import Simulator


def _best_of(fn: Callable[[], float], reps: int) -> float:
    return min(fn() for _ in range(max(1, reps)))


# ----------------------------------------------------------------------
# Demux dispatch: the early-drop hot path
# ----------------------------------------------------------------------
def bench_demux(n_classifications: int = 30_000, reps: int = 3) -> Dict:
    """Classify one spoofed SYN frame repeatedly through a booted server."""
    from repro.experiments.harness import SERVER_IP, Testbed
    from repro.net.packet import (
        ETHERTYPE_IP, EthFrame, FLAG_SYN, IPDatagram, IPPROTO_TCP,
        TCPSegment)
    from repro.sim.clock import seconds_to_ticks

    bed = Testbed.escort(accounting=True, protection_domains=False)
    bed.server.boot()
    # Let the boot-time listen paths finish assembling.
    bed.sim.run(bed.sim.now + seconds_to_ticks(0.05))

    seg = TCPSegment(4321, 80, seq=0, ack=0, flags=FLAG_SYN)
    dgram = IPDatagram("10.9.0.5", SERVER_IP, IPPROTO_TCP, seg)
    frame = EthFrame(bed.server.nic.mac, bed.server.nic.mac,
                     ETHERTYPE_IP, dgram)
    demux = bed.server.demultiplexer
    eth = bed.server.eth
    first = demux.classify(eth, frame)

    def once() -> float:
        classify = demux.classify
        t0 = time.perf_counter()
        for _ in range(n_classifications):
            classify(eth, frame)
        return time.perf_counter() - t0

    wall = _best_of(once, reps)
    return {
        "classifications": n_classifications,
        "result_kind": first.kind,
        "modules_consulted": first.modules_consulted,
        "wall_s": round(wall, 4),
        "classifications_per_sec": round(n_classifications / wall),
    }


# ----------------------------------------------------------------------
# Allocation rate: tracemalloc over the synthetic event mix
# ----------------------------------------------------------------------
def bench_alloc_rate(n_rounds: int = 2_000, top: int = 5) -> Dict:
    """Bytes allocated per simulated event, plus the top allocation sites.

    Runs under :mod:`tracemalloc` (several times slower than native), so
    the wall-clock here is *not* comparable to the other benches — only
    the allocation counts matter.
    """
    from repro.perf.bench import _drive_event_mix

    tracemalloc.start()
    base_current, _ = tracemalloc.get_traced_memory()
    before = tracemalloc.take_snapshot()
    sim = Simulator()
    events = _drive_event_mix(sim, n_rounds)
    after = tracemalloc.take_snapshot()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    stats = after.compare_to(before, "lineno")
    sites: List[Dict] = []
    for stat in stats[:top]:
        frame = stat.traceback[0]
        sites.append({
            "site": f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}",
            "size_kib": round(stat.size_diff / 1024, 1),
            "count": stat.count_diff,
        })
    return {
        "events": events,
        "peak_kib": round((peak - base_current) / 1024, 1),
        "retained_kib": round((current - base_current) / 1024, 1),
        "bytes_per_event": round((peak - base_current) / max(1, events), 1),
        "top_sites": sites,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_microbench(quick: bool = False) -> Dict:
    """The full microbench section (see module docstring)."""
    scale = 5 if quick else 1
    return {
        "demux": bench_demux(
            n_classifications=30_000 // scale, reps=2 if quick else 3),
        "alloc_rate": bench_alloc_rate(n_rounds=2_000 // scale),
    }
