"""Domain-level snapshots and rollback (the watchdog's middle rung).

The chaos watchdog's only containment tool so far has been teardown:
destroy the wedged protection domain and every path crossing it.  Rollback
is gentler — :class:`DomainSnapshotter` periodically records *which kernel
objects a healthy domain owns* (paths, threads, events, semaphores, heap
allocations), and on a fault the watchdog can reclaim exactly the objects
created **after** the last good snapshot, preserving everything that
predates it.

Two rules keep this sound inside the accounting story:

* **Cycle counters never rewind.**  The paper's ledger is monotonic — the
  sum over owners must equal the wall clock — so rollback reclaims
  objects, not history.  The invariant checker stays green across a
  rollback precisely because no charge is ever un-charged.
* **A snapshot is only taken of a domain that looks healthy** (the
  watchdog skips domains consuming over half their cycle budget in the
  current window), so a wedged state is never captured as "good".  A
  domain whose wedge predates every snapshot yields an empty rollback,
  which the watchdog treats as failure and escalates to teardown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

__all__ = ["DomainSnapshot", "DomainSnapshotter", "RollbackReport"]


@dataclass
class DomainSnapshot:
    """Identity sets of the objects a domain owned at snapshot time."""

    domain: str
    tick: int
    paths: Set = field(default_factory=set)
    threads: Set = field(default_factory=set)
    events: Set = field(default_factory=set)
    semaphores: Set = field(default_factory=set)
    allocations: Set = field(default_factory=set)
    cycles: int = 0


@dataclass
class RollbackReport:
    """What one rollback reclaimed."""

    domain: str
    snapshot_tick: int
    rollback_tick: int
    paths_killed: List[str] = field(default_factory=list)
    threads_killed: int = 0
    events_cancelled: int = 0
    semaphores_destroyed: int = 0
    heap_allocs_freed: int = 0
    cycles_preserved: int = 0

    @property
    def reclaimed_anything(self) -> bool:
        return bool(self.paths_killed or self.threads_killed
                    or self.events_cancelled or self.semaphores_destroyed
                    or self.heap_allocs_freed)


class DomainSnapshotter:
    """Takes and applies per-domain object snapshots."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.snapshots: Dict[str, DomainSnapshot] = {}
        self.taken = 0
        self.rollbacks = 0
        self.reports: List[RollbackReport] = []

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------
    def snapshot_domain(self, pd) -> Optional[DomainSnapshot]:
        """Record what ``pd`` owns right now (None if it is dead)."""
        if pd.destroyed:
            self.snapshots.pop(pd.name, None)
            return None
        snap = DomainSnapshot(
            domain=pd.name,
            tick=self.kernel.sim.now,
            paths=set(pd.crossing_paths),
            threads=set(pd.thread_list),
            events=set(pd.event_list),
            semaphores=set(pd.semaphore_list),
            allocations=set(pd._allocations),
            cycles=pd.usage.cycles,
        )
        self.snapshots[pd.name] = snap
        self.taken += 1
        return snap

    def observe(self, skip=()) -> int:
        """Snapshot every live unprivileged domain not named in ``skip``.

        The watchdog calls this each scan with the currently-suspect
        domains in ``skip``, so only healthy-looking states are captured.
        Returns the number of snapshots taken.
        """
        count = 0
        for pd in sorted(self.kernel.domains, key=lambda d: d.name):
            if pd.privileged or pd.destroyed or pd.name in skip:
                continue
            if self.snapshot_domain(pd) is not None:
                count += 1
        return count

    def can_rollback(self, pd) -> bool:
        return not pd.destroyed and pd.name in self.snapshots

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def rollback(self, pd) -> Optional[RollbackReport]:
        """Reclaim everything ``pd`` gained since its last good snapshot.

        Kills post-snapshot paths, threads, events, semaphores, and
        domain-charged heap allocations — in that order, each set iterated
        in a deterministic sort — and leaves pre-snapshot state and all
        cycle accounting untouched.  Returns None when no snapshot exists.
        """
        snap = self.snapshots.get(pd.name)
        if snap is None or pd.destroyed:
            return None
        report = RollbackReport(domain=pd.name,
                                snapshot_tick=snap.tick,
                                rollback_tick=self.kernel.sim.now,
                                cycles_preserved=pd.usage.cycles)

        new_paths = sorted((p for p in pd.crossing_paths
                            if p not in snap.paths and not p.destroyed),
                           key=lambda p: p.name)
        for path in new_paths:
            self.kernel.kill_owner(path)
            report.paths_killed.append(path.name)

        new_threads = sorted((t for t in pd.thread_list
                              if t not in snap.threads and t.alive),
                             key=lambda t: t.name)
        for thread in new_threads:
            thread.kill()
            report.threads_killed += 1

        new_events = sorted((e for e in pd.event_list
                             if e not in snap.events and not e.cancelled),
                            key=lambda e: e.event_id)
        for event in new_events:
            event.cancel()
            report.events_cancelled += 1

        new_semas = sorted((s for s in pd.semaphore_list
                            if s not in snap.semaphores and not s.destroyed),
                           key=lambda s: s.sema_id)
        for sema in new_semas:
            sema.destroy()
            report.semaphores_destroyed += 1

        # Path-charged allocations went away with their paths above; what
        # remains to reclaim is post-snapshot memory charged to the domain
        # itself (the slow-leak case the oom scenario exercises).
        new_allocs = sorted((a for a in pd._allocations
                             if a not in snap.allocations
                             and a.charged_to is pd),
                            key=lambda a: a.alloc_id)
        for alloc in new_allocs:
            pd.heap_free(alloc)
            report.heap_allocs_freed += 1

        self.rollbacks += 1
        self.reports.append(report)
        # The applied snapshot stays valid: the domain is back at (a
        # superset-free version of) that state, and a second fault may
        # still roll back to it if the watchdog's per-domain limit allows.
        return report

    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """Digest-friendly view (object identities reduced to counts)."""
        return {
            "taken": self.taken,
            "rollbacks": self.rollbacks,
            "domains": {
                name: {"tick": snap.tick,
                       "paths": len(snap.paths),
                       "threads": len(snap.threads),
                       "events": len(snap.events),
                       "semaphores": len(snap.semaphores),
                       "allocations": len(snap.allocations)}
                for name, snap in sorted(self.snapshots.items())},
        }
