"""Common machinery for owner-based schedulers.

Each scheduler keeps, per owner, a FIFO of that owner's runnable threads,
and chooses *which owner* runs next by its own discipline.  Within an owner,
threads run round-robin.  The scheduler state stored on each owner
(``owner.sched``) is the third section of the paper's Owner structure.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.sim.cpu import SimThread
from repro.kernel.owner import Owner


class OwnerScheduler:
    """Base class: owner FIFO bookkeeping; subclasses pick the next owner."""

    def __init__(self) -> None:
        self._runnable: Dict[Owner, Deque[SimThread]] = {}

    # ------------------------------------------------------------------
    # Interface driven by the CPU
    # ------------------------------------------------------------------
    def enqueue(self, thread: SimThread) -> None:
        owner = thread.owner
        queue = self._runnable.get(owner)
        if queue is None:
            queue = deque()
            self._runnable[owner] = queue
            self.on_owner_active(owner)
        queue.append(thread)

    def dequeue(self, thread: SimThread) -> None:
        owner = thread.owner
        queue = self._runnable.get(owner)
        if queue is None:
            return
        try:
            queue.remove(thread)
        except ValueError:
            return
        if not queue:
            del self._runnable[owner]
            self.on_owner_idle(owner)

    def pick(self) -> Optional[SimThread]:
        while self._runnable:
            owner = self.pick_owner()
            if owner is None:
                return None
            queue = self._runnable[owner]
            thread = queue.popleft()
            if not queue:
                del self._runnable[owner]
                self.on_owner_idle(owner)
            if thread.alive:
                return thread
        return None

    def on_charge(self, thread: SimThread, cycles: int) -> None:
        """Subclasses override to advance virtual time."""

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def pick_owner(self) -> Optional[Owner]:
        raise NotImplementedError

    def on_owner_active(self, owner: Owner) -> None:
        """An owner gained its first runnable thread."""

    def on_owner_idle(self, owner: Owner) -> None:
        """An owner's last runnable thread was removed."""
