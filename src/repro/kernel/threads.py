"""Escort threads (paper section 3.2).

Threads are owned by a path or a protection domain; their lifetime is bound
by their owner's, and they cannot migrate between owners.  A thread owned by
a path carries one stack per protection domain it can execute in plus a
kernel-resident stack, so crossing back into a domain it has visited before
reuses the stack (the ICMP echo example in the paper).

Threads cannot be preempted gracefully — they can only be preempted if they
are destroyed immediately afterwards, which removes their owner too.  The
``handoff`` operation is the sanctioned way to move an execution context to
another owner: it creates a *new* thread belonging to the target owner.
Threads waiting (joined) on a thread whose owner is destroyed are woken.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, TYPE_CHECKING

from repro.sim.cpu import YIELD, Block, Cycles, SimThread
from repro.kernel.errors import OwnerDestroyedError
from repro.kernel.owner import Owner, OwnerType
from repro.kernel.queues import BoundedQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

THREAD_KMEM = 512
STACK_KMEM = 4096  # one stack's kernel bookkeeping + wired pages


class EscortThread:
    """Kernel wrapper around a :class:`~repro.sim.cpu.SimThread`.

    Tracks ownership, per-domain stacks, and join support.  The underlying
    SimThread charges cycles to the owner and enforces the owner's runaway
    limit.
    """

    __slots__ = ("kernel", "owner", "stack_count", "_joiners", "sim_thread")

    def __init__(self, kernel: "Kernel", owner: Owner, body: Generator,
                 name: str = "", stack_domains: int = 1):
        owner.check_alive()
        self.kernel = kernel
        self.owner = owner
        #: Number of stacks: one per crossable domain plus the kernel stack
        #: for path threads; a single stack for domain threads.
        self.stack_count = max(1, stack_domains)
        if owner.type == OwnerType.PATH:
            self.stack_count += 1  # the kernel-resident crossing stack
        self._joiners: List[SimThread] = []
        self.sim_thread = SimThread(body, owner, name=name)
        self.sim_thread.on_exit(self._on_exit)

        owner.thread_list.add(self)
        owner.usage.kmem += THREAD_KMEM + STACK_KMEM * self.stack_count
        owner.usage.stacks += self.stack_count

    # -- waitable protocol (join) ----------------------------------------
    def add_waiter(self, thread: SimThread) -> None:
        if not self.alive:
            self.kernel.cpu.make_runnable(thread)
            return
        self._joiners.append(thread)

    @property
    def alive(self) -> bool:
        return self.sim_thread.alive

    @property
    def name(self) -> str:
        return self.sim_thread.name

    def join(self) -> Generator:
        """Thread-body helper: block until this thread exits or is killed."""
        while self.alive:
            yield Block(self)

    def _on_exit(self, _sim_thread: SimThread) -> None:
        owner = self.owner
        if self in owner.thread_list:
            owner.thread_list.discard(self)
            owner.usage.kmem -= THREAD_KMEM + STACK_KMEM * self.stack_count
            owner.usage.stacks -= self.stack_count
        joiners, self._joiners = self._joiners, []
        for t in joiners:
            if t.alive:
                self.kernel.cpu.make_runnable(t)

    def kill(self) -> None:
        """Destroy the thread immediately (see CPU.kill_thread)."""
        self.kernel.cpu.kill_thread(self.sim_thread)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EscortThread {self.name} owner={self.owner.name}>"


class ThreadPool:
    """A path's pool of worker threads.

    Each worker blocks on the path's input queue and runs the path handler
    over each item.  The pool is sized at path creation; the paper's Path
    struct carries exactly this (``ThreadPool t``).
    """

    def __init__(self, kernel: "Kernel", owner: Owner, queue: BoundedQueue,
                 handler: Callable[[object], Generator], size: int = 1,
                 stack_domains: int = 1, name: str = ""):
        if size <= 0:
            raise ValueError("pool size must be positive")
        self.kernel = kernel
        self.owner = owner
        self.queue = queue
        self.handler = handler
        self.name = name or f"{owner.name}-pool"
        self.threads: List[EscortThread] = []
        for i in range(size):
            body = self._worker()
            thread = kernel.spawn_thread(owner, body,
                                         name=f"{self.name}-{i}",
                                         stack_domains=stack_domains)
            self.threads.append(thread)

    def _worker(self) -> Generator:
        switch = Cycles(self.kernel.costs.thread_switch + self.kernel.acct(1))
        queue, handler = self.queue, self.handler
        while True:
            item = queue.get_nowait()
            if item is None:
                item = yield from queue.get()
                if item is None:
                    return  # queue closed: path going away
            yield switch
            yield from handler(item)
            # Well-behaved module code yields between work items: this is
            # what keeps a busy path's bursts far under the runaway limit
            # (only genuinely runaway code trips the 2 ms policy).
            yield YIELD

    def shutdown(self) -> None:
        """Close the queue; workers drain and exit."""
        self.queue.close()
