"""Checkpoint round-trips: the tentpole's acceptance property.

Checkpoint at cycle T, restore into a fresh machine (and, once, a fresh
*process*), run both to T+N: traces and digests must match bit for bit.
Plus the file format contract — versioned header, atomic writes, loud
failures on corruption or version skew.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys

import pytest

from repro.chaos import ChaosRun
from repro.resilience.corpus import save_entry
from repro.snapshot import (CheckpointError, CheckpointFormatError,
                            CheckpointVersionError,
                            ExperimentRun, RestoreMismatchError, RunDriver,
                            load_checkpoint, save_checkpoint)
from repro.supervise.state import write_json_atomic

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def small_experiment() -> ExperimentRun:
    return ExperimentRun("accounting", clients=2, syn_rate=200,
                         untrusted_cap=16, warmup_s=0.1, measure_s=0.3)


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
def test_save_load_round_trip(tmp_path):
    path = str(tmp_path / "x.ckpt")
    payload = {"kind": "checkpoint", "b": [1, 2, {"c": "d"}], "a": 7}
    save_checkpoint(path, payload)
    assert load_checkpoint(path) == payload


def test_same_payload_writes_identical_bytes(tmp_path):
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    payload = {"kind": "checkpoint", "tick": 123}
    save_checkpoint(a, payload)
    save_checkpoint(b, payload)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_version_mismatch_is_a_clear_error(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {"kind": "checkpoint"})
    data = open(path, "rb").read()
    open(path, "wb").write(data.replace(b"ESCKPT 2\n", b"ESCKPT 99\n", 1))
    with pytest.raises(CheckpointVersionError,
                       match="version 99 is not supported"):
        load_checkpoint(path)


def test_not_a_checkpoint_file(tmp_path):
    path = str(tmp_path / "x.ckpt")
    open(path, "wb").write(b"definitely not a checkpoint\n")
    with pytest.raises(CheckpointFormatError, match="not a checkpoint"):
        load_checkpoint(path)


def test_truncated_trailer_is_rejected(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {"kind": "checkpoint"})
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-7])  # chop into the CRC trailer
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep_fraction", [0.25, 0.5, 0.9])
def test_chopped_file_is_rejected_at_any_cut(tmp_path, keep_fraction):
    # A run SIGKILLed mid-write must never leave a file load() accepts:
    # no proper byte prefix of a valid checkpoint is a valid checkpoint.
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {"kind": "checkpoint", "blob": list(range(200))})
    data = open(path, "rb").read()
    open(path, "wb").write(data[:int(len(data) * keep_fraction)])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_flipped_payload_byte_fails_the_crc(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {"kind": "checkpoint", "blob": list(range(200))})
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0xFF  # corrupt one byte inside the gzip body
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointFormatError, match="CRC mismatch"):
        load_checkpoint(path)


def test_save_leaves_no_temp_file(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {"kind": "checkpoint"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ckpt"]


# ----------------------------------------------------------------------
# Every durable writer goes through one tmp+fsync+rename+dir-fsync path
# ----------------------------------------------------------------------
def _write_checkpoint(directory, payload):
    path = os.path.join(directory, "run.ckpt")
    save_checkpoint(path, payload)
    return path


def _write_state_json(directory, payload):
    path = os.path.join(directory, "result.json")
    write_json_atomic(path, payload)
    return path


def _write_corpus_entry(directory, payload):
    return save_entry(directory, "entry", target="chaos", case=payload,
                      spec={}, expected={})


DURABLE_WRITERS = pytest.mark.parametrize(
    "write", [_write_checkpoint, _write_state_json, _write_corpus_entry],
    ids=["save_checkpoint", "write_json_atomic", "save_entry"])


@DURABLE_WRITERS
def test_unserializable_payload_leaves_previous_file_intact(write, tmp_path):
    directory = str(tmp_path)
    path = write(directory, {"generation": 1})
    before = open(path, "rb").read()
    with pytest.raises(TypeError):
        write(directory, {"generation": 2, "bad": object()})
    assert open(path, "rb").read() == before
    assert sorted(os.listdir(directory)) == [os.path.basename(path)]


@DURABLE_WRITERS
def test_writer_fsyncs_file_and_directory(write, tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    write(str(tmp_path), {"generation": 1})
    assert synced == [False, True]


# ----------------------------------------------------------------------
# Round-trip: checkpoint at T, restore, run both to the end
# ----------------------------------------------------------------------
def test_experiment_checkpoint_restore_round_trip(tmp_path):
    run = small_experiment()
    driver = RunDriver(run)
    result, written = driver.run_with_checkpoints(0.1, str(tmp_path), "exp")
    assert written, "no mid-run checkpoints were cut"

    for path in written:
        resumed, payload = RunDriver.resume(path)
        assert resumed.sim.now == payload["tick"]
        res2 = resumed.run_all()
        assert resumed.run.digest() == run.digest()
        assert res2.connections_per_second == result.connections_per_second
        assert res2.syn_dropped_at_demux == result.syn_dropped_at_demux


@pytest.mark.chaos
@pytest.mark.parametrize("name", ["lossy-syn-flood", "oom-cgi",
                                  "domain-crash"])
def test_chaos_checkpoint_restore_round_trip(name, tmp_path):
    run = ChaosRun(name, 2)
    report, written = RunDriver(run).run_with_checkpoints(
        0.5, str(tmp_path), name)
    assert written
    resumed, _ = RunDriver.resume(written[-1])
    report2 = resumed.run_all()
    assert resumed.run.digest() == run.digest()
    assert report2.faults_injected == report.faults_injected
    assert [str(a) for a in report2.watchdog_log] == \
        [str(a) for a in report.watchdog_log]
    assert report2.ok == report.ok


def test_restore_in_fresh_process(tmp_path):
    # The tentpole's headline: a checkpoint written here restores in a
    # brand-new interpreter and reaches the same final digest.
    run = small_experiment()
    driver = RunDriver(run)
    _, written = driver.run_with_checkpoints(0.15, str(tmp_path), "exp")
    final_digest = run.digest()

    script = (
        "from repro.snapshot import RunDriver\n"
        f"driver, payload = RunDriver.resume({written[0]!r})\n"
        "driver.run_all()\n"
        "print(driver.run.digest())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == final_digest


def test_tampered_digest_refuses_to_resume(tmp_path):
    run = small_experiment()
    driver = RunDriver(run)
    _, written = driver.run_with_checkpoints(0.15, str(tmp_path), "exp")
    payload = load_checkpoint(written[0])
    payload["digest"] = "0" * 64
    payload["summary"]["sim"]["events_processed"] += 1
    save_checkpoint(written[0], payload)
    with pytest.raises(RestoreMismatchError, match="does not match"):
        RunDriver.resume(written[0])


def test_resume_rejects_non_checkpoint_kind(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, {"kind": "recording"})
    with pytest.raises(CheckpointFormatError, match="not a checkpoint"):
        RunDriver.resume(path)


# ----------------------------------------------------------------------
# Figure-9 cell cache (satellite: figure runners survive crashes)
# ----------------------------------------------------------------------
def test_figure9_resumes_from_cell_cache(tmp_path, monkeypatch):
    from repro.experiments.figure9 import run_figure9

    kwargs = dict(client_counts=[2], configs=["accounting"],
                  document="/doc-1k", syn_rate=200, untrusted_cap=16,
                  warmup_s=0.1, measure_s=0.2,
                  checkpoint_dir=str(tmp_path))
    first = run_figure9(**kwargs)
    assert os.path.exists(tmp_path / "figure9-cells.ckpt")

    # Every cell is cached: a re-run must not execute a single machine.
    def boom(self):  # pragma: no cover - must not run
        raise AssertionError("cell re-executed despite cache")

    monkeypatch.setattr(RunDriver, "run_all", boom)
    second = run_figure9(**kwargs)
    assert second.series == first.series
    assert second.syn_stats == first.syn_stats


def test_figure9_version_skewed_cache_errors(tmp_path):
    from repro.experiments.figure9 import run_figure9

    path = tmp_path / "figure9-cells.ckpt"
    save_checkpoint(str(path), {"kind": "figure9-cells", "cells": {}})
    data = path.read_bytes()
    path.write_bytes(data.replace(b"ESCKPT 2\n", b"ESCKPT 99\n", 1))
    with pytest.raises(CheckpointVersionError):
        run_figure9(client_counts=[2], configs=["accounting"],
                    warmup_s=0.1, measure_s=0.2,
                    checkpoint_dir=str(tmp_path))
