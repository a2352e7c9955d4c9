"""The on-disk state of one supervised run, and SIGKILL-anywhere resume.

A supervised run owns one *state directory*; everything the parent and
the child exchange — and everything a resume needs — lives there as
crash-only files (atomic renames, fsync'd appends, self-verifying
formats)::

    state_dir/
      job.json       what to run (spec + options + per-attempt injection)
      run.ckpt       latest periodic checkpoint   (ESCKPT, atomic + CRC)
      run.journal    write-ahead milestone journal (ESCJRNL, fsync'd)
      result.json    final result, digest, fingerprint   (atomic)
      error.json     exception record when the run raised (atomic)
      attempt-N.log  child stdout/stderr per attempt

:func:`resume_driver` is the heart of the crash-only contract: given the
directory of a run killed at *any* instant, it rebuilds the machine from
the spec, restores through the last durable checkpoint (digest-verified
by :meth:`~repro.snapshot.driver.RunDriver.resume`), then fast-forwards
deterministic re-execution to the furthest journaled milestone and
refuses to continue unless that record's digest matches bit for bit.
Torn files — a checkpoint missing its CRC trailer, a journal line cut
mid-write — are normal crash residue and silently shorten the resume
horizon; *mismatching* digests mean code drift or nondeterminism and
raise loudly.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

from repro.snapshot.checkpoint import write_atomic

JOB_FILE = "job.json"
CKPT_FILE = "run.ckpt"
JOURNAL_FILE = "run.journal"
RESULT_FILE = "result.json"
ERROR_FILE = "error.json"

__all__ = ["RunState", "JournalMismatchError", "resume_driver",
           "write_json_atomic", "read_json"]


class JournalMismatchError(Exception):
    """Re-execution did not reproduce a journaled milestone digest."""


def write_json_atomic(path: str, payload: Dict) -> None:
    """Crash-only JSON write through :func:`write_atomic`."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    write_atomic(path, text.encode())


def read_json(path: str) -> Optional[Dict]:
    """Read a JSON file; None when absent or unreadable (crash residue)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class RunState:
    """Path arithmetic plus typed accessors for one state directory."""

    def __init__(self, directory: str):
        self.directory = directory

    # -- paths ----------------------------------------------------------
    @property
    def job_path(self) -> str:
        return os.path.join(self.directory, JOB_FILE)

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, CKPT_FILE)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, JOURNAL_FILE)

    @property
    def result_path(self) -> str:
        return os.path.join(self.directory, RESULT_FILE)

    @property
    def error_path(self) -> str:
        return os.path.join(self.directory, ERROR_FILE)

    def attempt_log_path(self, attempt: int) -> str:
        return os.path.join(self.directory, f"attempt-{attempt}.log")

    # -- typed accessors ------------------------------------------------
    def ensure(self) -> "RunState":
        os.makedirs(self.directory, exist_ok=True)
        return self

    def write_job(self, job: Dict) -> None:
        write_json_atomic(self.job_path, job)

    def read_job(self) -> Optional[Dict]:
        return read_json(self.job_path)

    def read_result(self) -> Optional[Dict]:
        return read_json(self.result_path)

    def read_error(self) -> Optional[Dict]:
        return read_json(self.error_path)

    def write_result(self, payload: Dict) -> None:
        write_json_atomic(self.result_path, payload)

    def write_error(self, payload: Dict) -> None:
        write_json_atomic(self.error_path, payload)

    def clear_outcome(self) -> None:
        """Drop result/error markers before a (re-)attempt."""
        for path in (self.result_path, self.error_path):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
def resume_driver(state: RunState, spec: Dict,
                  progress=None) -> Tuple["object", Dict]:
    """Rebuild a run killed at any point; returns ``(driver, info)``.

    ``info`` records how far the resume reached and through which
    mechanism: ``{"resumed_events": int, "resumed_milestones": int,
    "from_checkpoint": bool, "journal_records": int,
    "journal_torn_tail": bool}``.  With no usable checkpoint or journal
    the driver starts fresh at t=0 (``resumed_events == 0``).

    Raises :class:`JournalMismatchError` when deterministic re-execution
    fails to reproduce a journaled digest, and propagates
    :class:`~repro.snapshot.driver.RestoreMismatchError` for the same
    breach at the checkpoint layer — both mean the code or the spec
    handling changed under a live run, never a normal crash.
    """
    from repro.snapshot.checkpoint import CheckpointError
    from repro.snapshot.driver import RunDriver
    from repro.snapshot.journal import scan_journal
    from repro.snapshot.runs import run_from_spec

    scan = scan_journal(state.journal_path)
    if scan.spec is not None and scan.spec != spec:
        raise JournalMismatchError(
            f"{state.journal_path}: journal belongs to a different run "
            f"spec; refusing to graft histories")

    driver = None
    from_checkpoint = False
    if os.path.exists(state.checkpoint_path):
        try:
            driver, _payload = RunDriver.resume(state.checkpoint_path,
                                                progress=progress)
            from_checkpoint = True
        except CheckpointError:
            # Torn or half-written checkpoint: normal crash residue.
            # The journal (or a fresh build) covers for it.
            driver = None
    if driver is None:
        driver = RunDriver(run_from_spec(spec))

    last = scan.last
    if last is not None and (
            (last["events"], last["milestones_done"])
            > (driver.sim.events_processed, driver.milestones_done)):
        target_events = last["events"]
        target_ms = last["milestones_done"]
        if progress is not None:
            driver.sim.set_progress_hook(progress, every_events=1000)
        try:
            while (driver.sim.events_processed < target_events
                   or driver.milestones_done < target_ms):
                if driver.sim.events_processed > target_events:
                    break  # diverged; let the digest check report it
                if driver.step() is None:
                    break
            driver.sim.finish_until(last["tick"])
        finally:
            if progress is not None:
                driver.sim.clear_progress_hook()
        problems = []
        if driver.sim.events_processed != target_events:
            problems.append(f"events: journal {target_events} != "
                            f"replayed {driver.sim.events_processed}")
        if driver.sim.seq != last["seq"]:
            problems.append(f"seq: journal {last['seq']} != "
                            f"replayed {driver.sim.seq}")
        digest = driver.run.digest()
        if digest != last["digest"]:
            problems.append(f"digest: journal {last['digest'][:16]}... != "
                            f"replayed {digest[:16]}...")
        if problems:
            raise JournalMismatchError(
                f"{state.journal_path}: fast-forward to the last journaled "
                f"milestone (tick {last['tick']}) did not reproduce the "
                f"recorded state: " + "; ".join(problems))
    info = {
        "resumed_events": driver.sim.events_processed,
        "resumed_milestones": driver.milestones_done,
        "from_checkpoint": from_checkpoint,
        "journal_records": scan.records,
        "journal_torn_tail": scan.torn_tail,
    }
    return driver, info
