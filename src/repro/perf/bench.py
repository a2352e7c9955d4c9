"""Paired A/B perf gate — ``python -m repro bench --ab REV``.

Checks ``REV`` and ``HEAD`` out as sibling detached git worktrees,
``<tmp>/a`` and ``<tmp>/b``, and runs each perfbench workload's
``perfbench/child.py --seed 2`` on both, :data:`PAIRS` times, alternating
which side runs first.  The two trees differ in one path letter only:
on a 2-vCPU host, byte-identical copies whose paths differed in length
by one character read ``static_http`` pair ratios of 0.92 to 1.22, while
equal-length copies read 0.999 and 1.012.

Per workload the report gives the median per-pair ratio of host seconds
per simulated second (HEAD over REV), the win count (ties count for
neither side), each side's median and quartiles, and the spin-loop and
cpu/wall diagnostics.  The gate fails when a child run fails or a
workload's median ratio is above :data:`MAX_RATIO`.  The same command
also runs :func:`bench_obs_overhead` in this process, on the checkout
that runs the command: obs-on must stay within :data:`OBS_BUDGET` of
obs-off in the median pair, with identical state digests in every
pair.  The report is written as ``escort-bench/2``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

SCHEMA = "escort-bench/2"

#: The perfbench workloads (mirrors ``BENCHMARK.json``).
WORKLOADS = ("static_http", "syn_flood", "defense_mixed", "cluster_crash")

#: The workload seed every run uses.
SEED = 2

#: Pairs per workload, and obs-off/obs-on pairs of the obs check.
PAIRS = 10

#: Largest median HEAD/REV ratio of host s per simulated s that passes.
MAX_RATIO = 1.15

#: Largest fraction the obs-on run may be slower than obs-off.
OBS_BUDGET = 0.05

#: Simulated seconds per turn of the interleaved obs pair.
SLICE_S = 0.01

#: A child run that takes longer than this counts as failed.
CHILD_TIMEOUT_S = 300

CHILD = Path("perfbench") / "child.py"


class BenchError(Exception):
    """The A/B cannot run at all (unknown revision, no benchmark)."""


# ----------------------------------------------------------------------
# The two trees
# ----------------------------------------------------------------------
def tree_paths(tmp: Path) -> Tuple[Path, Path]:
    """The REV and HEAD checkouts: equal-length siblings of ``tmp``."""
    return tmp / "a", tmp / "b"


def _git(*args: str) -> str:
    proc = subprocess.run(["git", *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


@contextlib.contextmanager
def worktrees(rev: str) -> Iterator[Tuple[Tuple[Path, Path], List[str]]]:
    """Yield the REV and HEAD worktrees and their commits; remove both."""
    commits = [_git("rev-parse", "--verify", f"{r}^{{commit}}")
               for r in (rev, "HEAD")]
    tmp = Path(tempfile.mkdtemp(prefix="escort-ab-"))
    trees = tree_paths(tmp)
    try:
        for tree, commit in zip(trees, commits):
            _git("worktree", "add", "--detach", "--quiet", str(tree), commit)
        yield trees, commits
    finally:
        for tree in trees:
            if tree.exists():
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(tree)], capture_output=True)
        subprocess.run(["git", "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Child runs
# ----------------------------------------------------------------------
def parse_child(returncode: int, stdout: str, stderr: str) -> Dict:
    """One child's result: its JSON line, or ``{"error": ...}``."""
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {returncode}: {tail[0]}"}
    return json.loads(stdout.strip().splitlines()[-1])


def spawn_child(tree: Path, workload: str) -> Dict:
    """Run ``<tree>/perfbench/child.py`` once on ``tree``'s own source."""
    scratch = tree / ".perfbench"
    scratch.mkdir(exist_ok=True)
    cmd = [sys.executable, str(tree / CHILD), "--workload", workload,
           "--seed", str(SEED), "--scratch", str(scratch),
           "--spawned-at", repr(time.monotonic())]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run(cmd, env=env, cwd=tree, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S}s"}
    return parse_child(proc.returncode, proc.stdout, proc.stderr)


def run_pairs(trees: Sequence[Path], workload: str,
              spawn: Callable[[Path, str], Dict] = spawn_child,
              pairs: int = PAIRS) -> List[Tuple[Dict, Dict]]:
    """``pairs`` (REV, HEAD) runs; REV goes first in even pairs."""
    out = []
    for i in range(pairs):
        runs: Dict[int, Dict] = {}
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side] = spawn(trees[side], workload)
        out.append((runs[0], runs[1]))
    return out


# ----------------------------------------------------------------------
# Summary and verdict
# ----------------------------------------------------------------------
def host_s_per_sim_s(run: Dict) -> float:
    """perfbench's headline metric for one child run."""
    return run["timed_s"] / run["sim_s"]


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def _side(runs: Sequence[Dict]) -> Dict:
    speeds = [host_s_per_sim_s(r) for r in runs]
    return {
        "median": statistics.median(speeds),
        "q1": _percentile(speeds, 25),
        "q3": _percentile(speeds, 75),
        "spin_ms": statistics.median(r["spin_s"] * 1e3 for r in runs),
        "cpu_wall": statistics.median(r["cpu_timed_s"] / r["timed_s"]
                                      for r in runs),
    }


def summarize(pairs: Sequence[Tuple[Dict, Dict]]) -> Dict:
    """Median HEAD/REV ratio, wins and per-side figures of one workload."""
    failed = [r["error"] for pair in pairs for r in pair if "error" in r]
    good = [(a, b) for a, b in pairs if "error" not in a and "error" not in b]
    out: Dict = {"pairs": len(good), "failed": failed}
    if good:
        ratios = [host_s_per_sim_s(b) / host_s_per_sim_s(a) for a, b in good]
        out.update(
            ratio=statistics.median(ratios),
            wins={"head": sum(r < 1 for r in ratios),
                  "rev": sum(r > 1 for r in ratios)},
            rev=_side([a for a, _ in good]),
            head=_side([b for _, b in good]))
    return out


def failures(report: Dict) -> List[str]:
    """Why the gate fails; empty when it passes."""
    out = []
    for name, w in report["workloads"].items():
        if w["failed"]:
            out.append(f"{name}: {len(w['failed'])} child run(s) failed, "
                       f"first: {w['failed'][0]}")
        elif w["ratio"] > MAX_RATIO:
            out.append(f"{name}: median HEAD/REV ratio {w['ratio']:.3f} "
                       f"exceeds {MAX_RATIO}")
    obs = report["obs"]
    if not obs["digests_identical"]:
        out.append("obs: obs-on digest diverged from obs-off; the "
                   "observer perturbed the run")
    if obs["overhead_frac"] > OBS_BUDGET:
        out.append(f"obs: overhead {obs['overhead_frac']:.1%} exceeds "
                   f"{OBS_BUDGET:.0%}")
    return out


def format_workload(name: str, w: Dict) -> str:
    """One line per workload: ratio, wins and each side's spread."""
    if "ratio" not in w:
        return f"  {name:14s} no pair completed ({len(w['failed'])} failed)"
    rev, head = w["rev"], w["head"]
    failed = f", {len(w['failed'])} failed" if w["failed"] else ""
    return (f"  {name:14s} ratio {w['ratio']:.3f}  wins head "
            f"{w['wins']['head']}/rev {w['wins']['rev']} of {w['pairs']}"
            f"{failed}  rev {rev['median']:.3f} [{rev['q1']:.3f}, "
            f"{rev['q3']:.3f}]  head {head['median']:.3f} "
            f"[{head['q1']:.3f}, {head['q3']:.3f}] s/s  spin "
            f"{rev['spin_ms']:.1f}/{head['spin_ms']:.1f} ms  cpu/wall "
            f"{rev['cpu_wall']:.3f}/{head['cpu_wall']:.3f}")


def run_ab(rev: str) -> Dict:
    """Run the A/B of ``rev`` against HEAD and the obs check; the report."""
    print(f"bench --ab {rev}: {PAIRS} alternating pairs per workload, "
          f"gate at ratio {MAX_RATIO}", flush=True)
    with worktrees(rev) as (trees, commits):
        for name, tree, commit in zip((rev, "HEAD"), trees, commits):
            if not (tree / CHILD).is_file():
                raise BenchError(f"{name} ({commit[:12]}) has no {CHILD}; "
                                 f"pick a revision that has the benchmark")
        for tree in trees:
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(tree / "src"), str(tree / "perfbench")],
                           check=True, stdout=subprocess.DEVNULL)
        workloads = {}
        for name in WORKLOADS:
            workloads[name] = summarize(run_pairs(trees, name))
            print(format_workload(name, workloads[name]), flush=True)
    obs = bench_obs_overhead()
    print(f"  obs overhead   {obs['overhead_frac']:+.1%} (median of "
          f"{obs['pairs']} pairs, budget {OBS_BUDGET:.0%}); digests "
          f"{'identical' if obs['digests_identical'] else 'DIVERGED'}")
    report = {
        "schema": SCHEMA,
        "host": {"platform": platform.platform(),
                 "python": platform.python_version(),
                 "nproc": len(os.sched_getaffinity(0))},
        "revs": {"rev": {"name": rev, "commit": commits[0]},
                 "head": {"name": "HEAD", "commit": commits[1]}},
        "seed": SEED,
        "max_ratio": MAX_RATIO,
        "workloads": workloads,
        "obs": obs,
    }
    report["passed"] = not failures(report)
    return report


# ----------------------------------------------------------------------
# Observability overhead
# ----------------------------------------------------------------------
def _obs_pair(obs_dir: str) -> Tuple[float, float, bool]:
    """One obs-off and one obs-on run of the defense_mixed spec.

    Both machines live in this process and advance in turn, one
    :data:`SLICE_S` slice of simulated time each, the first side
    alternating per slice; each keeps its own object-id counters, so each
    numbers its objects as if it ran alone.  Returns the host seconds of
    each side and whether their state digests match.
    """
    from repro.defense.run import DefenseRun
    from repro.obs import ObsSession
    from repro.sim.clock import seconds_to_ticks
    from repro.snapshot.driver import RunDriver
    from repro.snapshot.runs import id_counters, set_id_counters

    driver, ids, wall = {}, {}, {False: 0.0, True: 0.0}
    for obs in (False, True):
        driver[obs] = RunDriver(DefenseRun("mixed", adaptive=True, seed=SEED))
        ids[obs] = id_counters()
    session = ObsSession(obs_dir).attach(driver[True])
    order = [False, True]
    step = seconds_to_ticks(SLICE_S)
    end = driver[False].end_tick
    tick = 0
    while tick < end:
        tick = min(tick + step, end)
        for obs in order:
            set_id_counters(ids[obs])
            t0 = time.perf_counter()
            driver[obs].run_to(tick)
            wall[obs] += time.perf_counter() - t0
            ids[obs] = id_counters()
        order.reverse()
    t0 = time.perf_counter()
    session.finish()
    wall[True] += time.perf_counter() - t0
    digests = [driver[obs].run.digest() for obs in (False, True)]
    return wall[False], wall[True], digests[0] == digests[1]


def bench_obs_overhead(pairs: int = PAIRS) -> Dict:
    """Paired obs-off/obs-on runs of the defense_mixed spec, in process.

    The obs-on side attaches a full :class:`~repro.obs.session.ObsSession`
    with its flight-recorder sidecar, the worst case a user can switch on
    with ``--obs``.  The two runs of a pair advance in alternating 10 ms
    slices (:func:`_obs_pair`), so a change in host speed lands on both:
    on a 2-vCPU host, whole runs one after the other gave medians of 10
    pair ratios from 0.91 to 1.08.  Reports the median per-pair on/off
    ratio and whether every pair's two state digests matched (they must:
    the session is a pure observer).
    """
    walls = []
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as obs_dir:
        for _ in range(pairs):
            walls.append(_obs_pair(obs_dir))
    ratio = statistics.median(on / off for off, on, _ in walls)
    return {
        "pairs": pairs,
        "off_s": statistics.median(off for off, _, _ in walls),
        "on_s": statistics.median(on for _, on, _ in walls),
        "ratio": ratio,
        "overhead_frac": ratio - 1.0,
        "digests_identical": all(same for _, _, same in walls),
    }


# ----------------------------------------------------------------------
# Allocation profile
# ----------------------------------------------------------------------
def alloc_profile(clients: int = 4, syn_rate: int = 1000,
                  top: int = 12) -> Dict:
    """Profile allocation sites of one end-to-end run via tracemalloc.

    Backs ``python -m repro bench --alloc-profile``.  Runs several times
    slower than an untraced run (tracemalloc hooks every allocation), so
    it is an on-demand diagnostic, never part of the gate.
    """
    import tracemalloc

    from repro.snapshot.driver import RunDriver
    from repro.snapshot.runs import ExperimentRun, reset_ids

    reset_ids()
    run = ExperimentRun("accounting", clients=clients, syn_rate=syn_rate,
                        untrusted_cap=8, warmup_s=0.2, measure_s=0.3)
    driver = RunDriver(run)
    tracemalloc.start(10)
    before = tracemalloc.take_snapshot()
    driver.run_all()
    after = tracemalloc.take_snapshot()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    events = driver.sim.events_processed
    sites = []
    for stat in after.compare_to(before, "lineno")[:top]:
        frame = stat.traceback[0]
        sites.append({
            "site": f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}",
            "size_kib": round(stat.size_diff / 1024, 1),
            "count": stat.count_diff,
        })
    return {
        "events": events,
        "peak_kib": round(peak / 1024, 1),
        "retained_kib": round(current / 1024, 1),
        "bytes_per_event": round(peak / max(1, events), 1),
        "top_sites": sites,
    }


def format_alloc_profile(profile: Dict) -> str:
    """Human-readable allocation-site table."""
    lines = [f"alloc profile: {profile['events']:,} events, "
             f"peak {profile['peak_kib']:,.0f} KiB "
             f"({profile['bytes_per_event']:.0f} B/event), "
             f"retained {profile['retained_kib']:,.0f} KiB",
             f"  {'size':>10}  {'count':>9}  site"]
    for site in profile["top_sites"]:
        lines.append(f"  {site['size_kib']:>8,.1f}K  {site['count']:>9,}  "
                     f"{site['site']}")
    return "\n".join(lines)
