"""The paired A/B perf gate: pairing, summary, verdict, report schema.

These checks start no subprocess: child runs are canned
``perfbench/child.py`` JSON lines.  The obs-overhead pair runs in
process and is marked ``bench``.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest

from repro.perf import bench


def _line(timed_s: float, sim_s: float = 2.0) -> str:
    """A ``child.py`` output line with ``timed_s`` host seconds."""
    return json.dumps({"setup_s": 0.4, "timed_s": timed_s,
                       "cpu_timed_s": timed_s * 0.98, "sim_s": sim_s,
                       "slices_ms": [1.0], "requests": 100,
                       "peak_rss_mib": 25.0, "record": {},
                       "digest": "00", "seq": 1, "events": 1,
                       "spin_s": 0.03}) + "\n"


def _run(timed_s: float, sim_s: float = 2.0) -> dict:
    return bench.parse_child(0, "warming up\n" + _line(timed_s, sim_s), "")


def _pairs(*timings):
    """``(rev_timed_s, head_timed_s)`` tuples as parsed child pairs."""
    return [(_run(a), _run(b)) for a, b in timings]


def _report(workloads, overhead_frac=0.01, identical=True):
    return {"workloads": workloads,
            "obs": {"overhead_frac": overhead_frac,
                    "digests_identical": identical}}


def test_ratio_is_the_median_of_per_pair_ratios():
    # host s per sim s ratios HEAD/REV: 1.1, 0.8, 1.3 -> median 1.1
    summary = bench.summarize(_pairs((1.0, 1.1), (1.0, 0.8), (2.0, 2.6)))
    assert summary["ratio"] == pytest.approx(1.1)
    assert summary["pairs"] == 3 and summary["failed"] == []
    assert summary["rev"]["median"] == pytest.approx(0.5)
    assert summary["head"]["median"] == pytest.approx(0.55)
    assert summary["head"]["q1"] == pytest.approx(0.4)
    assert summary["head"]["q3"] == pytest.approx(1.3)
    assert summary["head"]["spin_ms"] == pytest.approx(30.0)
    assert summary["head"]["cpu_wall"] == pytest.approx(0.98)


def test_ratio_uses_each_sides_simulated_seconds():
    pair = (_run(1.0, sim_s=1.0), _run(1.0, sim_s=2.0))
    assert bench.summarize([pair])["ratio"] == pytest.approx(0.5)


def test_wins_count_ties_for_neither_side():
    summary = bench.summarize(_pairs((1.0, 0.9), (1.0, 0.8), (1.0, 1.0),
                                     (1.0, 1.2)))
    assert summary["wins"] == {"head": 2, "rev": 1}


def test_gate_passes_at_the_bound_and_fails_just_above():
    at = bench.summarize(_pairs((1.0, 1.15)))
    assert at["ratio"] == bench.MAX_RATIO
    assert bench.failures(_report({"static_http": at})) == []

    above = bench.summarize(_pairs((1.0, 1.1501)))
    reasons = bench.failures(_report({"static_http": above}))
    assert len(reasons) == 1 and "static_http" in reasons[0]


def test_gate_fails_on_obs_overhead_or_digest_drift():
    ok = {"syn_flood": bench.summarize(_pairs((1.0, 1.0)))}
    assert bench.failures(_report(ok, overhead_frac=bench.OBS_BUDGET)) == []
    assert bench.failures(_report(ok, overhead_frac=0.0501))
    assert bench.failures(_report(ok, identical=False))


def test_first_side_alternates_per_pair():
    trees = (Path("/t/a"), Path("/t/b"))
    calls = []

    def spawn(tree, workload):
        calls.append(tree.name)
        return _run(1.0)

    pairs = bench.run_pairs(trees, "syn_flood", spawn=spawn, pairs=4)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert len(pairs) == 4


def test_child_with_nonzero_exit_fails_the_verdict():
    crashed = bench.parse_child(
        1, "", "Traceback (most recent call last):\nKeyError: 'x'\n")
    assert crashed == {"error": "exit 1: KeyError: 'x'"}
    summary = bench.summarize([(_run(1.0), crashed), (_run(1.0), _run(1.0))])
    assert summary["pairs"] == 1
    reasons = bench.failures(_report({"cluster_crash": summary}))
    assert len(reasons) == 1 and "KeyError" in reasons[0]
    # A workload where every pair failed still yields a verdict.
    none = bench.summarize([(crashed, crashed)])
    assert "ratio" not in none
    assert bench.failures(_report({"cluster_crash": none}))
    assert "no pair completed" in bench.format_workload("cluster_crash",
                                                        none)


def test_worktree_paths_are_equal_length_siblings():
    a, b = bench.tree_paths(Path("/tmp/escort-ab-x1y2"))
    assert a.parent == b.parent
    assert len(str(a)) == len(str(b)) and a != b


def test_rev_without_the_benchmark_is_rejected(tmp_path, monkeypatch,
                                               capsys):
    from repro.__main__ import bench_main

    trees = bench.tree_paths(tmp_path)
    for tree in trees:
        tree.mkdir()
    (trees[1] / "perfbench").mkdir()
    (trees[1] / "perfbench" / "child.py").write_text("")

    @contextlib.contextmanager
    def fake_worktrees(rev):
        yield trees, ["1" * 40, "2" * 40]

    monkeypatch.setattr(bench, "worktrees", fake_worktrees)
    assert bench_main(["--ab", "old-rev", "-o", "-"]) == 2
    err = capsys.readouterr().err
    assert "old-rev" in err and "has no perfbench/child.py" in err


def test_committed_bench_report_matches_the_current_suite():
    """``BENCH_sim.json`` is an ``--ab`` report of every workload."""
    path = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
    report = json.loads(path.read_text())
    assert report["schema"] == bench.SCHEMA
    assert set(report) == {"schema", "host", "revs", "seed", "max_ratio",
                           "workloads", "obs", "passed"}
    assert set(report["revs"]) == {"rev", "head"}
    assert set(report["workloads"]) == set(bench.WORKLOADS)
    for w in report["workloads"].values():
        assert set(w) == {"pairs", "failed", "ratio", "wins", "rev", "head"}
        assert w["pairs"] == bench.PAIRS and w["failed"] == []
    assert report["obs"]["digests_identical"] is True
    assert report["passed"] == (bench.failures(report) == [])


@pytest.mark.obs
@pytest.mark.bench
def test_obs_overhead_bench_stays_within_budget():
    """The obs session is cheap and perturbs nothing."""
    result = bench.bench_obs_overhead(pairs=2)
    assert result["digests_identical"] is True
    assert result["off_s"] > 0 and result["on_s"] > 0
    # ~1-2% in practice; the bound is loose because two pairs on a shared
    # CI host are noisy.  The strict 5% budget is enforced over ten pairs
    # by `python -m repro bench --ab`.
    assert result["overhead_frac"] < 0.15
