"""Per-layer metrics, derived from a traced run's spans and public state.

``PER_LAYER`` names every metric the traced run reports, with its unit
and which direction is better; ``BENCHMARK.json`` lists the same names.
Self times (``*.self_ms``) are span durations minus child spans; the
``kill_ms`` and ``milestone_ms`` figures include their children.
``kernel.kills`` counts forcible kills (the kernel's kill reports);
``kernel.reclaims`` counts every ``kill_owner`` call, graceful
``pathDestroy`` sweeps included.
Counts are calls seen by the wrappers or counters the program already
exposes (``events_processed``, ``seq``, ``demux_drops``, syncookies).
A ratio whose base is zero on a workload reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from tracer import Tracer, inclusive_ms, root_ms, self_times

_MODULES = ("eth", "ip", "tcp", "http", "fs", "scsi")

#: ``(name, unit, better)`` for every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("snapshot.milestone_ms", "ms", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.scheduled", "count", "lower"),
    ("sim.engine.cancelled_ratio", "ratio", "lower"),
    ("sim.engine.schedule_calls", "count", "lower"),
    ("sim.engine.schedule_ms", "ms", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("sim.cpu.self_ms", "ms", "lower"),
    ("sim.cpu.calls", "count", "lower"),
    ("kernel.self_ms", "ms", "lower"),
    ("kernel.kill_ms", "ms", "lower"),
    ("kernel.kills", "count", "lower"),
    ("kernel.reclaims", "count", "lower"),
    ("kernel.quota.self_ms", "ms", "lower"),
    ("core.demux.self_ms", "ms", "lower"),
    ("core.demux.calls", "count", "lower"),
    ("core.demux.drop_ratio", "ratio", "lower"),
    ("core.path.cross_ms", "ms", "lower"),
    ("core.path.cross_calls", "count", "lower"),
    ("core.lifecycle.create_ms", "ms", "lower"),
    ("core.lifecycle.creates", "count", "lower"),
) + tuple(
    (f"modules.{m}.{kind}", unit, "lower")
    for m in _MODULES for kind, unit in (("self_ms", "ms"), ("calls", "count"))
) + (
    ("net.link.self_ms", "ms", "lower"),
    ("net.link.frames", "count", "lower"),
    ("net.tcp.self_ms", "ms", "lower"),
    ("net.tcp.segments", "count", "lower"),
    ("net.tcp.rto_fires", "count", "lower"),
    ("net.addressing.self_ms", "ms", "lower"),
    ("net.addressing.contains_calls", "count", "lower"),
    ("net.fault.self_ms", "ms", "lower"),
    ("workload.clients.self_ms", "ms", "lower"),
    ("workload.syn_attacker.self_ms", "ms", "lower"),
    ("workload.syn_attacker.frames", "count", "lower"),
    ("defense.monitor.self_ms", "ms", "lower"),
    ("defense.ratelimit.calls", "count", "lower"),
    ("defense.ratelimit.admit_ratio", "ratio", "higher"),
    ("defense.syncookie_accept_ratio", "ratio", "higher"),
    ("cluster.dispatcher.self_ms", "ms", "lower"),
    ("cluster.dispatcher.calls", "count", "lower"),
    ("cluster.health.self_ms", "ms", "lower"),
    ("obs.self_ms", "ms", "lower"),
    ("obs.calls", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric except ``trace.overhead``, which needs
    an untraced run to compare with."""
    st = self_times(tracer)

    def spans_of(layer: str) -> Iterable[Dict]:
        return (v for k, v in st.items() if k.split("/", 1)[0] == layer)

    def self_ms(layer: str) -> float:
        return sum(v["self_ms"] for v in spans_of(layer))

    def calls(layer: str) -> int:
        return sum(v["calls"] for v in spans_of(layer))

    def one(span: str, key: str) -> float:
        return st.get(span, {}).get(key, 0)

    sim = run.bed.sim
    bed = run.bed
    servers = ([r.server for r in bed.replicas]
               if hasattr(bed, "replicas") else [bed.server])
    cancelled = sim.seq - sim.events_processed - len(sim.live_events())
    unattributed = (self_ms("snapshot.driver")
                    + self_ms("sim.engine.loop"))
    demux = "core.demux/Demultiplexer.classify"
    bucket = "defense.ratelimit/TokenBucket.allow"

    out = {
        "snapshot.milestone_ms": inclusive_ms(
            tracer, "snapshot.milestone/ReplayableRun.perform"),
        "sim.engine.events": sim.events_processed,
        "sim.engine.scheduled": sim.seq,
        "sim.engine.cancelled_ratio": _ratio(cancelled, sim.seq),
        "sim.engine.schedule_calls": calls("sim.engine"),
        "sim.engine.schedule_ms": self_ms("sim.engine"),
        "unattributed_ms": unattributed,
        "sim.cpu.self_ms": self_ms("sim.cpu"),
        "sim.cpu.calls": calls("sim.cpu"),
        "kernel.self_ms": self_ms("kernel"),
        "kernel.kill_ms": inclusive_ms(tracer, "kernel/Kernel.kill_owner"),
        "kernel.kills": sum(len(s.kernel.kill_reports) for s in servers),
        "kernel.reclaims": one("kernel/Kernel.kill_owner", "calls"),
        "kernel.quota.self_ms": self_ms("kernel.quota"),
        "core.demux.self_ms": self_ms("core.demux"),
        "core.demux.calls": calls("core.demux"),
        "core.demux.drop_ratio": _ratio(one(demux, "hits"),
                                        one(demux, "calls")),
        "core.path.cross_ms": self_ms("core.path"),
        "core.path.cross_calls": calls("core.path"),
        "core.lifecycle.create_ms": one(
            "core.lifecycle/PathManager.path_create", "self_ms"),
        "core.lifecycle.creates": one(
            "core.lifecycle/PathManager.path_create", "calls"),
    }
    for m in _MODULES:
        out[f"modules.{m}.self_ms"] = self_ms(f"modules.{m}")
        out[f"modules.{m}.calls"] = calls(f"modules.{m}")
    sent = sum(s.tcp.syncookies_sent for s in servers)
    accepted = sum(s.tcp.syncookies_accepted for s in servers)
    out.update({
        "net.link.self_ms": self_ms("net.link"),
        "net.link.frames": one("net.link/NIC.deliver", "calls"),
        "net.tcp.self_ms": self_ms("net.tcp"),
        "net.tcp.segments": one("net.tcp/TCPEngine.on_segment", "calls"),
        "net.tcp.rto_fires": one("net.tcp/TCPEngine.on_rto", "calls"),
        "net.addressing.self_ms": self_ms("net.addressing"),
        "net.addressing.contains_calls": calls("net.addressing"),
        "net.fault.self_ms": self_ms("net.fault"),
        "workload.clients.self_ms": self_ms("workload.clients"),
        "workload.syn_attacker.self_ms": self_ms("workload.syn_attacker"),
        "workload.syn_attacker.frames": calls("workload.syn_attacker"),
        "defense.monitor.self_ms": self_ms("defense.monitor"),
        "defense.ratelimit.calls": one(bucket, "calls"),
        "defense.ratelimit.admit_ratio": _ratio(one(bucket, "hits"),
                                                one(bucket, "calls")),
        "defense.syncookie_accept_ratio": _ratio(accepted, sent),
        "cluster.dispatcher.self_ms": self_ms("cluster.dispatcher"),
        "cluster.dispatcher.calls": calls("cluster.dispatcher"),
        "cluster.health.self_ms": self_ms("cluster.health"),
        "obs.self_ms": self_ms("obs"),
        "obs.calls": calls("obs"),
        "trace.coverage": 1.0 - _ratio(unattributed, root_ms(tracer)),
    })
    return out
