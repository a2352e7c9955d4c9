"""The banked regression corpus (format ``ESCORP-1``).

Every minimized reproducer the campaign banks becomes one JSON file in
``corpus/ESCORP-1/``::

    {"format": "ESCORP-1", "name": "...", "target": "chaos",
     "case": {...}, "spec": {...},
     "expected": {"failures": [...], "digest": "...", "events": N},
     "provenance": {...}}

``python -m repro resilience corpus`` (and the CI job) re-executes each
entry's spec and verifies it still fails with the **same fingerprint**
and reaches the **same final state digest** after the **same number of
events** — "replays exactly", not "still fails somehow".  A fingerprint
change means the banked bug mutated or was fixed without retiring the
entry; a digest/event drift means determinism broke, which is its own
regression.

Files are written with sorted keys and a trailing newline so the corpus
diffs cleanly under version control.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.snapshot.checkpoint import write_atomic

CORPUS_FORMAT = "ESCORP-1"


def default_corpus_dir(root: str = ".") -> str:
    """The conventional corpus location: ``<root>/corpus/<format>``."""
    return os.path.join(root, "corpus", CORPUS_FORMAT)


class CorpusFormatError(ValueError):
    """A corpus file is malformed or from an unknown format version."""


# ----------------------------------------------------------------------
def save_entry(corpus_dir: str, name: str, *, target: str, case: Dict,
               spec: Dict, expected: Dict,
               provenance: Optional[Dict] = None) -> str:
    """Write one corpus entry; returns its path."""
    os.makedirs(corpus_dir, exist_ok=True)
    payload = {"format": CORPUS_FORMAT, "name": name, "target": target,
               "case": case, "spec": spec, "expected": expected,
               "provenance": provenance or {}}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path = os.path.join(corpus_dir, f"{name}.json")
    write_atomic(path, text.encode())
    return path


def load_entries(corpus_dir: str) -> List[Dict]:
    """Load every entry in ``corpus_dir``, sorted by file name."""
    if not os.path.isdir(corpus_dir):
        return []
    entries = []
    for fname in sorted(os.listdir(corpus_dir)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, fname)
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise CorpusFormatError(f"{path}: not JSON: {exc}") from None
        if payload.get("format") != CORPUS_FORMAT:
            raise CorpusFormatError(
                f"{path}: format {payload.get('format')!r}, "
                f"expected {CORPUS_FORMAT!r}")
        for key in ("name", "target", "spec", "expected"):
            if key not in payload:
                raise CorpusFormatError(f"{path}: missing {key!r}")
        payload["_path"] = path
        entries.append(payload)
    return entries


# ----------------------------------------------------------------------
@dataclass
class ReplayOutcome:
    """One corpus entry's replay verdict."""

    name: str
    ok: bool
    problems: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return f"  OK   {self.name}"
        lines = [f"  FAIL {self.name}"] + [f"       {p}"
                                           for p in self.problems]
        return "\n".join(lines)


def replay_entry(entry: Dict) -> ReplayOutcome:
    """Re-execute one banked spec and compare against expectations."""
    from repro.resilience.oracle import evaluate_spec

    expected = entry["expected"]
    verdict = evaluate_spec(entry["spec"])
    problems = []
    if verdict["failures"] != expected["failures"]:
        problems.append(
            f"fingerprint mismatch: expected "
            f"{','.join(expected['failures']) or '(none)'}, got "
            f"{','.join(verdict['failures']) or '(none)'}")
    if expected.get("digest") and verdict["digest"] != expected["digest"]:
        problems.append(
            f"digest drift: expected {expected['digest'][:16]}..., got "
            f"{(verdict['digest'] or '(crash)')[:16]}...")
    if expected.get("events") and verdict["events"] != expected["events"]:
        problems.append(
            f"event-count drift: expected {expected['events']}, got "
            f"{verdict['events']}")
    return ReplayOutcome(entry["name"], not problems, problems)


def replay_corpus(corpus_dir: str,
                  log=None) -> List[ReplayOutcome]:
    """Replay every entry; returns outcomes in file order."""
    outcomes = []
    for entry in load_entries(corpus_dir):
        outcome = replay_entry(entry)
        if log is not None:
            log(outcome.describe())
        outcomes.append(outcome)
    return outcomes
