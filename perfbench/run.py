"""Escort host-time benchmark: host seconds per simulated second.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload static_http --seed 1 \\
        --seconds 30 --trace 0

Runs the workload again and again for ``--seconds`` seconds, one run at
a time, each in a fresh interpreter (``perfbench/child.py``), and checks
each run's simulated behaviour against the record pinned for that seed in
``perfbench/reference.json``.  For a seed without a pinned record, the
runs are checked against each other.  A run that raises or whose record
differs is a failed run.

``--trace 0`` reports the end-to-end metrics (tracing off);
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of :mod:`layers`, including ``trace.overhead`` (traced
over untraced wall time) and ``trace.coverage``.  A traced run must leave
the behaviour record and the state digest unchanged, or it fails.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Per-run details and the host (platform, Python, nproc) go
to ``.perfbench/results/``.  Exit status is 0 only when every run was
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: Fewest untraced runs per invocation, however short ``--seconds`` is.
MIN_RUNS = 3

#: Extra interpreters per invocation that stop after ``boot``, so the
#: ``setup_s`` median rests on more samples than there are runs.
SETUP_SAMPLES = 5

#: A single run that takes longer than this is killed and counted failed.
RUN_TIMEOUT_S = 150

#: ``(name, unit)`` of every end-to-end metric, in print order.
END_TO_END = (
    ("host_s_per_sim_s", "s/s"),
    ("slice_ms.p50", "ms"),
    ("slice_ms.p95", "ms"),
    ("host_us_per_request", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def host_info() -> Dict:
    return {"platform": platform.platform(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def load_reference(workload: str, seed: int) -> Optional[Dict]:
    with open(REFERENCE) as fh:
        pinned = json.load(fh)["workloads"]
    return pinned.get(workload, {}).get(str(seed))


def spawn_run(workload: str, seed: int, *extra: str) -> Dict:
    """Run ``child.py`` once; returns its JSON, or ``{"error": ...}``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--scratch", str(SCRATCH), *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S}s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Judges each run's behaviour record against the pinned reference,
    or, for an unpinned seed, against the first run of the invocation."""

    def __init__(self, reference: Optional[Dict]):
        self.reference = reference
        self.expected = reference["record"] if reference else None
        self.notes: List[str] = []

    def judge(self, run: Dict) -> bool:
        if "error" in run:
            self.notes.append(f"run raised: {run['error']}")
            return False
        if self.expected is None:
            self.expected = run["record"]
        if run["record"] != self.expected:
            diff = sorted(k for k in set(run["record"]) | set(self.expected)
                          if run["record"].get(k) != self.expected.get(k))
            self.notes.append(f"behaviour differs in: {', '.join(diff)}")
            return False
        ref = self.reference
        if ref and (run["digest"], run["seq"]) != (ref["digest"], ref["seq"]):
            self.notes.append("diagnostic: state digest or sim.seq differs "
                              "from the pinned run (behaviour unchanged)")
        return True


def end_to_end(runs: List[Dict], setups: List[float]) -> Dict[str, float]:
    slices = [s for r in runs for s in r["slices_ms"]]
    return {
        "host_s_per_sim_s": statistics.median(
            r["timed_s"] / r["sim_s"] for r in runs),
        "slice_ms.p50": percentile(slices, 50),
        "slice_ms.p95": percentile(slices, 95),
        "host_us_per_request": statistics.median(
            r["timed_s"] * 1e6 / r["requests"] for r in runs),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
    }


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, float]:
    from layers import PER_LAYER

    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name, _unit, _better in PER_LAYER if name != "trace.overhead"}
    out["trace.overhead"] = (
        statistics.median(r["timed_s"] for r in traced)
        / statistics.median(r["timed_s"] for r in untraced))
    return out


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(
        description="Escort host-time benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    SCRATCH.mkdir(exist_ok=True)
    # Compile once up front so no timed run pays for bytecode compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)

    checker = Checker(load_reference(args.workload, args.seed))
    spans = SCRATCH / f"spans-{args.workload}.bin" if args.trace else None
    untraced: List[Dict] = []
    traced: List[Dict] = []
    setups: List[float] = []
    attempted = failed = 0
    deadline = time.monotonic() + args.seconds
    if spans is None:
        for _ in range(SETUP_SAMPLES):
            out = spawn_run(args.workload, args.seed, "--setup-only")
            attempted += 1
            if "error" in out:
                checker.notes.append(f"run raised: {out['error']}")
                failed += 1
            else:
                setups.append(out["setup_s"])
    # One traced run costs two untraced ones, so trace mode may stop after
    # a single untraced + traced pair.  Another round starts only while at
    # least half of it fits before the deadline.
    least = 1 if spans else MIN_RUNS
    rounds: List[float] = []
    while (len(rounds) < least or time.monotonic()
           + statistics.median(rounds) / 2 < deadline):
        began = time.monotonic()
        run = spawn_run(args.workload, args.seed)
        attempted += 1
        if not checker.judge(run):
            failed += 1
        elif spans is None:
            untraced.append(run)
        else:
            untraced.append(run)
            tr = spawn_run(args.workload, args.seed, "--trace", str(spans))
            attempted += 1
            if not checker.judge(tr):
                failed += 1
            elif tr["digest"] != run["digest"]:
                checker.notes.append("traced run changed the state digest")
                failed += 1
            else:
                traced.append(tr)
        rounds.append(time.monotonic() - began)

    correct = failed == 0 and bool(untraced) and (spans is None or traced)
    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    if correct and spans is None:
        metrics = end_to_end(untraced, setups)
        units = dict(END_TO_END)
    elif correct:
        from layers import PER_LAYER
        metrics = per_layer(traced, untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}

    host = host_info()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced runs on "
          f"{host['platform']}, Python {host['python']}, "
          f"nproc {host['nproc']}")
    ref = "pinned reference" if checker.reference else \
        "no pinned reference for this seed: runs checked against each other"
    print(f"  behaviour: {ref}; failed_run_share {failed}/{attempted}")
    for note in sorted(set(checker.notes)):
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    if untraced:
        spin = statistics.median(r["spin_s"] for r in untraced)
        cpu = statistics.median(r["cpu_timed_s"] / r["timed_s"]
                                for r in untraced)
        evs = statistics.median(r["events"] / r["timed_s"]
                                for r in untraced)
        print(f"  diagnostics: spin loop {spin * 1e3:.2f} ms, cpu/wall "
              f"{cpu:.3f}, {evs:,.0f} events/s, sim.seq "
              f"{untraced[0]['seq']}, digest {untraced[0]['digest'][:16]}")

    results = SCRATCH / "results"
    results.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host, "metrics": metrics,
              "setup_samples_s": setups,
              "notes": checker.notes, "runs": [
                  {k: v for k, v in r.items()
                   if k not in ("slices_ms", "record")}
                  for r in untraced + traced]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1))

    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
