"""Path and Stage objects (paper Figures 2 and 6).

A :class:`Path` is an Owner (so everything it consumes is charged to it)
plus: the hash of allowed protection-domain crossings, the list of stages
contributed by each module, input/output queues, a thread pool, and a
reference count that delays ``pathDestroy`` (but never ``pathKill``).

A :class:`Stage` is the path-specific local state of one module.  Stages
communicate through the generator helpers here — ``send_forward`` /
``send_backward`` move a message one module along the path (toward the disk
end / toward the network end of the web-server chain), and ``call_forward``
makes a synchronous request/response call (the file-access interface).  All
three insert the protection-domain crossing cost when the adjacent stage's
module lives in a different domain, after checking the crossing is in the
path's allowed-crossings map — the simulation analogue of the memory-trap +
hash-lookup mechanism in section 3.2 of the paper.  Each stage's neighbours
and hop costs are fixed when the path is assembled, so a same-domain hop
goes straight to the neighbour's module.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.sim.cpu import Cycles
from repro.kernel.errors import InvalidOperationError, PermissionError_
from repro.kernel.owner import Owner, OwnerType

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.domain import ProtectionDomain
    from repro.kernel.kernel import Kernel
    from repro.kernel.queues import BoundedQueue
    from repro.kernel.threads import ThreadPool
    from repro.modules.base import Module

#: Direction constants for work items flowing along a path.
FORWARD = "forward"    # network end -> disk end (requests in)
BACKWARD = "backward"  # disk end -> network end (responses out)

#: Queue indices (the paper's ``Queues[4]``: source and sink at each end).
Q_NET_IN, Q_NET_OUT, Q_DISK_IN, Q_DISK_OUT = range(4)


class PathWork:
    """One unit of work enqueued on a path (a message plus where it enters)."""

    __slots__ = ("stage", "direction", "msg")

    def __init__(self, stage: "Stage", direction: str, msg: Any):
        self.stage = stage
        self.direction = direction
        self.msg = msg


class Stage:
    """Per-path local state of one module (paper section 2.2)."""

    def __init__(self, module: "Module", path: "Path"):
        self.module = module
        self.path = path
        self.index: int = -1  # assigned when the path is assembled
        #: Module-private per-path state.
        self.state: Dict[str, Any] = {}
        #: The adjacent stages toward the disk end and the network end
        #: (None at the path's ends) and the crossing cost of each hop.
        #: A path's module sequence is fixed at pathCreate, so
        #: ``PathManager._assemble`` computes these once.
        self.forward_stage: Optional["Stage"] = None
        self.backward_stage: Optional["Stage"] = None
        self.forward_cost = 0
        self.backward_cost = 0

    # ------------------------------------------------------------------
    # Inter-stage communication
    # ------------------------------------------------------------------
    def send_forward(self, msg: Any) -> Generator:
        """Deliver ``msg`` to the next stage toward the disk end.

        Returns the generator to ``yield from``: on a same-domain hop,
        the neighbour module's own ``forward``.
        """
        nxt = self.forward_stage
        if nxt is None:
            raise InvalidOperationError(
                f"{self.module.name} has no forward neighbour on "
                f"{self.path.name}")
        if self.forward_cost:
            return self._crossing_hop(nxt, FORWARD, msg)
        return nxt.module.forward(nxt, msg)

    def send_backward(self, msg: Any) -> Generator:
        """Deliver ``msg`` to the next stage toward the network end
        (returns the generator to ``yield from``, as ``send_forward``)."""
        nxt = self.backward_stage
        if nxt is None:
            raise InvalidOperationError(
                f"{self.module.name} has no backward neighbour on "
                f"{self.path.name}")
        if self.backward_cost:
            return self._crossing_hop(nxt, BACKWARD, msg)
        return nxt.module.backward(nxt, msg)

    def _crossing_hop(self, nxt: "Stage", direction: str,
                      msg: Any) -> Generator:
        """A hop into another domain: charge the crossing, then deliver."""
        yield from self.path.cross(self.module.pd, nxt.module.pd)
        module = nxt.module
        step = module.forward if direction == FORWARD else module.backward
        result = yield from step(nxt, msg)
        return result

    def call_forward(self, request: Any) -> Generator:
        """Synchronous request/response to the next stage (file access).

        Charges a crossing in each direction: the call traps into the
        target domain, the return traps back.
        """
        nxt = self.forward_stage
        if nxt is None:
            raise InvalidOperationError(
                f"{self.module.name} has no forward neighbour on "
                f"{self.path.name}")
        if self.forward_cost:
            yield from self.path.cross(self.module.pd, nxt.module.pd)
        result = yield from nxt.module.handle_call(nxt, request)
        if nxt.backward_cost:
            yield from self.path.cross(nxt.module.pd, self.module.pd)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.module.name}@{self.path.name}>"


class Path(Owner):
    """A path: the unit of I/O, scheduling, and accounting."""

    def __init__(self, kernel: "Kernel", name: str = ""):
        super().__init__(OwnerType.PATH, name=name)
        self.kernel = kernel
        self.stages: List[Stage] = []
        #: (from_pd_oid, to_pd_oid) -> True; the per-path crossing hash.
        self.allowed_pd_crossings: Dict[Tuple[int, int], bool] = {}
        self.queues: List[Optional["BoundedQueue"]] = [None, None, None, None]
        self.pool: Optional["ThreadPool"] = None
        self.ref_cnt = 0
        self.attributes = None  # set by PathManager
        #: Destructor functions registered by modules, run on pathDestroy
        #: only (never on pathKill): list of (domain, callable).
        self.destructors: List[Tuple["ProtectionDomain", Callable[["Path"], None]]] = []
        #: Statistics: crossings performed (Figure 8's Accounting_PD story).
        self.crossings = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def stage_of(self, module_name: str) -> Stage:
        """The stage contributed by ``module_name`` (KeyError if absent)."""
        for stage in self.stages:
            if stage.module.name == module_name:
                return stage
        raise KeyError(f"{self.name} has no stage for module {module_name}")

    def has_module(self, module_name: str) -> bool:
        """True if a stage of ``module_name`` is on this path."""
        return any(s.module.name == module_name for s in self.stages)

    def domains_crossed(self) -> Set["ProtectionDomain"]:
        """The set of protection domains this path's stages live in."""
        return {stage.module.pd for stage in self.stages}

    # ------------------------------------------------------------------
    # Protection-domain crossings
    # ------------------------------------------------------------------
    def allow_crossing(self, from_pd: "ProtectionDomain",
                       to_pd: "ProtectionDomain") -> None:
        """Record a legal crossing in the per-path hash (creation time)."""
        self.allowed_pd_crossings[(from_pd.oid, to_pd.oid)] = True

    def cross(self, from_pd: "ProtectionDomain",
              to_pd: "ProtectionDomain") -> Generator:
        """Generator helper charging one crossing (no-op same domain)."""
        cost = self.kernel.crossing_cost(from_pd, to_pd)
        if cost == 0:
            return
        if (from_pd.oid, to_pd.oid) not in self.allowed_pd_crossings:
            raise PermissionError_(
                f"{self.name}: crossing {from_pd.name} -> {to_pd.name} "
                f"not in the allowed-crossings map")
        self.crossings += 1
        yield Cycles(cost, owner=self)

    # ------------------------------------------------------------------
    # Reference counting (delays pathDestroy, not pathKill)
    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Take a reference; pathDestroy waits until all are released."""
        self.check_alive()
        self.ref_cnt += 1

    def release(self) -> None:
        """Drop a reference taken with :meth:`acquire`."""
        if self.ref_cnt <= 0:
            raise InvalidOperationError(f"{self.name}: release without acquire")
        self.ref_cnt -= 1

    # ------------------------------------------------------------------
    # Data entry
    # ------------------------------------------------------------------
    def enqueue(self, work: PathWork, queue_index: int = Q_NET_IN) -> bool:
        """Enqueue work (typically from demux) and wake the thread pool.

        Returns False if the queue overflowed (the packet is dropped).
        """
        queue = self.queues[queue_index]
        if queue is None or self.destroyed:
            return False
        return queue.put(work)

    def input_queue(self) -> "BoundedQueue":
        """The network-end input queue (where demux delivers work)."""
        queue = self.queues[Q_NET_IN]
        if queue is None:
            raise InvalidOperationError(f"{self.name} has no input queue")
        return queue

    # ------------------------------------------------------------------
    # Post-destruction cycle severing
    # ------------------------------------------------------------------
    def sever(self) -> None:
        """Break internal reference cycles once the path is destroyed.

        Called by ``kill_owner`` after every destroy callback and kill
        listener has run.  A dead path's stages, queues, pool, and
        destructor closures are unreachable from live code, but they form
        reference cycles (path <-> stage, pool -> thread -> exit-callback
        -> pool, destructor closures capturing the path) that refcounting
        alone cannot reclaim — a busy SYN-flood run destroys tens of
        thousands of paths and the resulting garbage islands turn into
        cyclic-GC pressure on the hot path.  Severing the back-references
        lets each island die by refcount the moment the last external
        handle drops.
        """
        for stage in self.stages:
            stage.state.clear()
            stage.path = None  # type: ignore[assignment]
            stage.forward_stage = stage.backward_stage = None
        self.stages = []
        self.destructors.clear()
        pool = self.pool
        if pool is not None:
            self.pool = None
            for thread in pool.threads:
                sim_thread = thread.sim_thread
                if sim_thread is not None and not sim_thread.alive:
                    sim_thread._exit_callbacks.clear()
                    sim_thread.escort = None
            pool.threads = []
        for queue in self.queues:
            if queue is not None:
                queue.closed = True
                queue._items.clear()
                queue._waiters.clear()
        self.queues = [None, None, None, None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mods = "-".join(s.module.name for s in self.stages)
        return f"<Path {self.name} [{mods}]>"
