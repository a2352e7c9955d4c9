"""The four canonical benchmark workloads and their behaviour records.

Each workload is one replayable run built through the public run API
(:class:`~repro.snapshot.runs.ExperimentRun`, :class:`~repro.defense.run.
DefenseRun`, :class:`~repro.cluster.run.ClusterRun`) and driven by
:class:`~repro.snapshot.driver.RunDriver`.  The workload seed reseeds
every client RNG (request jitter, retry backoff) from ``(ip, seed)``,
exactly as the defense and cluster runs already do for their own seed.

A *behaviour record* is the simulated outcome of a run: completions,
outcome counts, goodput, SYN drops, kills, cycles by category, the
defense ladder and the cluster failover fields.  The simulator is
deterministic, so for one workload and seed the record is a constant;
the benchmark pins it and treats any difference as a failed run.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.snapshot.runs import ExperimentRun

#: Workload name -> why it is in the benchmark (mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "static_http": "16 closed-loop clients fetching a 10 KB page: the "
                   "per-segment served path (tcp, http, fs, link); no "
                   "attack or defense code runs",
    "syn_flood": "open-loop untrusted SYN flood, ~20 SYNs per served "
                 "request, all dropped at demux: the per-packet drop path "
                 "(eth, demux, link, addressing, attacker)",
    "defense_mixed": "adaptive defense against a trusted-subnet SYN ramp "
                     "plus 8 runaway CGIs with obs attached: kill, "
                     "throttle, syncookies, rate limiting, controller scans",
    "cluster_crash": "3 replicas behind the L4 dispatcher, one crashes and "
                     "restarts mid-window: the cluster and fault layers and "
                     "the most events per simulated second",
}


def make_run(workload: str, seed: int):
    """Return the (unbuilt) replayable run for ``workload`` and ``seed``."""
    if workload == "static_http":
        return SeededExperimentRun("accounting", seed=seed, clients=16,
                                   document="/doc-10k",
                                   warmup_s=0.3, measure_s=2.0)
    if workload == "syn_flood":
        return SeededExperimentRun("accounting", seed=seed, clients=8,
                                   document="/doc-1k", syn_rate=20000,
                                   untrusted_cap=8,
                                   warmup_s=0.3, measure_s=2.0)
    if workload == "defense_mixed":
        from repro.defense.run import DefenseRun
        return DefenseRun("mixed", adaptive=True, seed=seed)
    if workload == "cluster_crash":
        from repro.cluster.run import ClusterRun
        return ClusterRun("crash", replicas=3, adaptive=True, seed=seed)
    raise ValueError(f"unknown workload {workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")


class SeededExperimentRun(ExperimentRun):
    """An :class:`ExperimentRun` whose client RNGs derive from a seed."""

    def __init__(self, config: str, *, seed: int, **kwargs):
        super().__init__(config, **kwargs)
        self.seed = seed

    def build(self) -> None:
        super().build()
        for client in self.bed.clients:
            client.rng.seed(f"{client.ip}/{self.seed}")

    def extra_summary(self) -> Dict:
        return {**super().extra_summary(), "seed": self.seed}


def behaviour_record(run) -> Dict:
    """The run's simulated outcome, as plain JSON-able data."""
    bed = run.bed
    stats = bed.stats
    record = dataclasses.asdict(run.result())
    record.pop("qos_windows", None)
    record["outcomes"] = stats.outcome_summary("client")
    record["requests_total"] = stats.total("client")
    servers = ([r.server for r in bed.replicas]
               if hasattr(bed, "replicas") else [bed.server])
    record["kills"] = [len(s.kernel.kill_reports) for s in servers]
    record["demux_drops_total"] = [dict(sorted(s.tcp.demux_drops.items()))
                                   for s in servers]
    record["cpu_cycles"] = [{"busy": s.kernel.cpu.busy_cycles,
                             "idle": s.kernel.cpu.idle_cycles,
                             "interrupt": s.kernel.cpu.interrupt_cycles}
                            for s in servers]
    ledger = getattr(bed, "ledger", None)
    if ledger is not None and "cycles_by_category" not in record:
        record["cycles_by_category"] = ledger.by_category()
    return record
