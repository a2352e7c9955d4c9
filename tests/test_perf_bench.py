"""The benchmark suite: report schema, baseline guard, timing.

The wall-clock measurements themselves are marked ``bench`` (deselect with
``-m 'not bench'``); the schema and guard checks run in tier 1.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.bench import SCHEMA, format_report, run_bench
from repro.sim.engine import Simulator


def test_format_report_handles_sweepless_reports():
    report = {
        "schema": SCHEMA,
        "host": {"cpu_count": 4, "python": "3.12.0"},
        "event_loop": {"events": 120_000, "events_per_sec": 1_000_000},
        "end_to_end": {"wall_s": 1.5, "events": 100_000,
                       "events_per_sec": 66_667},
    }
    text = format_report(report)
    assert "event loop" in text
    assert "1,000,000 ev/s" in text
    assert "sweep" not in text


def _keys(node):
    """Every mapping key in ``node``, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


def test_committed_bench_report_matches_the_current_suite():
    """The committed report carries no fields of deleted measurements."""
    path = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
    report = json.loads(path.read_text())
    assert report["schema"] == SCHEMA
    stale = [key for key in _keys(report)
             if any(word in key for word in ("microbench", "legacy",
                                             "wheel"))]
    assert stale == []


@pytest.mark.bench
def test_quick_bench_emits_stable_schema(tmp_path):
    out = tmp_path / "BENCH_sim.json"
    report = run_bench(quick=True, output=str(out), skip_sweep=True)

    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(json.dumps(report))
    assert report["schema"] == SCHEMA
    assert report["quick"] is True

    ev = report["event_loop"]
    assert set(ev) == {"events", "wall_s", "events_per_sec"}
    assert ev["events"] > 0 and ev["wall_s"] > 0

    e2e = report["end_to_end"]
    assert e2e["events"] > 0 and e2e["wall_s"] > 0
    assert set(e2e) == {"clients", "syn_rate", "simulated_s", "wall_s",
                        "events", "events_per_sec", "queue_health"}
    health = e2e["queue_health"]
    # One fixed key set: a flooded run reports what an idle engine does.
    assert set(health) == set(Simulator().queue_health())
    assert health["events_processed"] == e2e["events"]
    assert health["scheduled"] == (health["events_processed"] +
                                   health["pending"] +
                                   health["cancelled_removed"])

    # The human summary renders without a sweep section.
    assert "end-to-end" in format_report(report)


@pytest.mark.bench
def test_quick_sweep_bench_verifies_cross_worker_identity():
    from repro.perf.bench import bench_sweep
    sweep = bench_sweep(worker_counts=(1, 2), quick=True)
    assert sweep["results_identical_across_worker_counts"] is True
    assert set(sweep["wall_s"]) == {"1", "2"}
    assert sweep["cells"] == 4


# ----------------------------------------------------------------------
# The --baseline guard: every way a baseline file can be wrong should
# produce an actionable message and exit code 2, never a traceback.
# ----------------------------------------------------------------------
GUARD_REPORT = {"event_loop": {"events_per_sec": 100.0},
                "end_to_end": {"events_per_sec": 50.0}}


def _guard(report, baseline_path, capsys, max_regression=0.3):
    from repro.__main__ import _bench_guard
    rc = _bench_guard(report, str(baseline_path), max_regression)
    return rc, capsys.readouterr()


def test_bench_guard_missing_baseline_says_how_to_create_one(
        tmp_path, capsys):
    rc, out = _guard(GUARD_REPORT, tmp_path / "absent.json", capsys)
    assert rc == 2
    assert "does not exist" in out.err
    assert "python -m repro bench -o" in out.err


def test_bench_guard_invalid_json_is_diagnosed_not_raised(
        tmp_path, capsys):
    path = tmp_path / "torn.json"
    path.write_text('{"event_loop": {"events_per_s')
    rc, out = _guard(GUARD_REPORT, path, capsys)
    assert rc == 2
    assert "not valid JSON" in out.err


def test_bench_guard_schema_skew_names_what_is_missing(tmp_path, capsys):
    path = tmp_path / "old-schema.json"
    path.write_text(json.dumps({"version": 1, "micro": {"alloc": 3}}))
    rc, out = _guard(GUARD_REPORT, path, capsys)
    assert rc == 2
    assert "event_loop" in out.err and "micro" in out.err
    assert "python -m repro bench -o" in out.err

    path.write_text(json.dumps([1, 2, 3]))  # not even a mapping
    rc, out = _guard(GUARD_REPORT, path, capsys)
    assert rc == 2 and "list" in out.err


def test_bench_guard_passes_and_fails_on_the_headline(tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(
        {"event_loop": {"events_per_sec": 90.0},
         "end_to_end": {"events_per_sec": 45.0}}))
    rc, out = _guard(GUARD_REPORT, path, capsys)
    assert rc == 0 and "OK" in out.out

    slow = {"event_loop": {"events_per_sec": 10.0},
            "end_to_end": {"events_per_sec": 45.0}}
    rc, out = _guard(slow, path, capsys)
    assert rc == 1 and "REGRESSION" in out.out


def test_bench_guard_skips_sections_this_run_did_not_measure(
        tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(
        {"event_loop": {"events_per_sec": 90.0},
         "end_to_end": {"events_per_sec": 45.0}}))
    rc, out = _guard({"event_loop": {"events_per_sec": 100.0}},
                     path, capsys)
    assert rc == 0
    assert "skipped that section" in out.out


@pytest.mark.obs
@pytest.mark.bench
def test_obs_overhead_bench_stays_within_budget():
    """The obs session is cheap and perturbs nothing."""
    from repro.perf.bench import bench_obs_overhead

    result = bench_obs_overhead(clients=4, reps=2, quick=True)
    assert result["digests_identical"] is True
    assert result["baseline_events_per_sec"] > 0
    assert result["obs_events_per_sec"] > 0
    # ~1% in practice; the bound is loose because single-process CI
    # timing is noisy — the strict 5% gate runs in the bench-gate job
    # via `python -m repro bench --obs-overhead --obs-budget 0.05`.
    assert 0.0 <= result["overhead_frac"] < 0.15
