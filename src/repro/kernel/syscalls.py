"""The kernel system-call surface.

"Escort currently implements 52 system calls that provide access to the
following kernel objects: paths, IObuffers, threads, events, semaphores,
memory pages, devices, and the console" (paper section 3).  This module is
that surface: a facade over the kernel objects, with the ACL check (policy
enforcement level 1) applied at every entry point, and the calling
environment (owner + current protection domain) passed explicitly — the
paper's calling convention for multiply-instantiated modules.

Most module code in this reproduction calls the kernel objects directly
(the modules are trusted in-process code); the facade exists for the same
reason Escort's trap table existed — it is the *enforced* boundary, and the
tests drive it to verify the ACL really guards each object class.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.kernel.domain import ProtectionDomain
from repro.kernel.errors import InvalidOperationError
from repro.kernel.kernel import Kernel
from repro.kernel.owner import Owner


class SystemCalls:
    """The trap table: every kernel service, ACL-checked.

    Each method takes the *calling environment* — the owner on whose
    behalf the call is made and the protection domain the caller is
    executing in — as its first two arguments.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.calls_made: Dict[str, int] = {}
        self.console_log: List[str] = []
        #: Device registry for device_open/device_ops.
        self._devices: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _enter(self, op: str, owner: Optional[Owner],
               domain: Optional[ProtectionDomain]) -> None:
        self.kernel.acl.check(op, owner, domain)
        self.calls_made[op] = self.calls_made.get(op, 0) + 1

    # ------------------------------------------------------------------
    # Paths (3)
    # ------------------------------------------------------------------
    def path_create(self, owner, domain, path_manager, attrs,
                    start_module: str, **kwargs) -> Generator:
        self._enter("path_create", owner, domain)
        result = yield from path_manager.path_create(attrs, start_module,
                                                     **kwargs)
        return result

    def path_destroy(self, owner, domain, path_manager, path) -> Generator:
        self._enter("path_destroy", owner, domain)
        yield from path_manager.path_destroy(path)

    def path_kill(self, owner, domain, path_manager, path):
        self._enter("path_kill", owner, domain)
        return path_manager.path_kill(path)

    # ------------------------------------------------------------------
    # IOBuffers (5)
    # ------------------------------------------------------------------
    def iobuf_alloc(self, owner, domain, nbytes: int, buf_owner,
                    read_pds=()):
        self._enter("iobuf_alloc", owner, domain)
        return self.kernel.iobufs.alloc(nbytes, buf_owner, domain,
                                        read_pds=read_pds)

    def iobuf_lock(self, owner, domain, buf, lock_owner):
        self._enter("iobuf_lock", owner, domain)
        return self.kernel.iobufs.lock(buf, lock_owner)

    def iobuf_unlock(self, owner, domain, buf, lock_owner):
        self._enter("iobuf_unlock", owner, domain)
        self.kernel.iobufs.unlock(buf, lock_owner)

    def iobuf_associate(self, owner, domain, buf, second_owner,
                        read_pds=()):
        self._enter("iobuf_associate", owner, domain)
        return self.kernel.iobufs.associate(buf, second_owner, domain,
                                            read_pds=read_pds)

    def iobuf_query(self, owner, domain, buf) -> Tuple[int, int]:
        self._enter("iobuf_lock", owner, domain)  # read access suffices
        return buf.nbytes, buf.refcount

    # ------------------------------------------------------------------
    # Threads (4)
    # ------------------------------------------------------------------
    def thread_spawn(self, owner, domain, thread_owner, body,
                     name: str = "", stack_domains: int = 1):
        self._enter("thread_spawn", owner, domain)
        return self.kernel.spawn_thread(thread_owner, body, name=name,
                                        stack_domains=stack_domains)

    def thread_handoff(self, owner, domain, target_owner, body,
                       name: str = ""):
        """threadHandoff: a new thread belonging to the target owner —
        the sanctioned substitute for migrating a thread between owners."""
        self._enter("thread_handoff", owner, domain)
        return self.kernel.spawn_thread(target_owner, body,
                                        name=name or "handoff")

    def thread_stop(self, owner, domain, thread):
        self._enter("thread_stop", owner, domain)
        thread.kill()

    def thread_yield(self, owner, domain):
        self._enter("thread_yield", owner, domain)
        from repro.sim.cpu import YIELD
        return YIELD

    # ------------------------------------------------------------------
    # Events (2) and semaphores (2)
    # ------------------------------------------------------------------
    def event_create(self, owner, domain, event_owner, fn, delay_ticks,
                     periodic: bool = False, name: str = ""):
        self._enter("event_create", owner, domain)
        return self.kernel.create_event(event_owner, fn, delay_ticks,
                                        periodic=periodic, name=name)

    def event_cancel(self, owner, domain, event):
        self._enter("event_cancel", owner, domain)
        event.cancel()

    def semaphore_create(self, owner, domain, sema_owner, count: int = 0,
                         name: str = ""):
        self._enter("semaphore_create", owner, domain)
        return self.kernel.create_semaphore(sema_owner, count=count,
                                            name=name)

    def semaphore_destroy(self, owner, domain, sema):
        self._enter("semaphore_destroy", owner, domain)
        sema.destroy()

    # ------------------------------------------------------------------
    # Memory pages (2)
    # ------------------------------------------------------------------
    def page_alloc(self, owner, domain, page_owner, count: int = 1):
        self._enter("page_alloc", owner, domain)
        return self.kernel.allocator.alloc(page_owner, count=count)

    def page_free(self, owner, domain, page):
        self._enter("page_free", owner, domain)
        self.kernel.allocator.free(page)

    # ------------------------------------------------------------------
    # Devices (2) and console (1)
    # ------------------------------------------------------------------
    def device_register(self, name: str, device: Any) -> None:
        """Configuration-time (not a syscall): expose a device."""
        self._devices[name] = device

    def device_open(self, owner, domain, name: str) -> Any:
        self._enter("device_access", owner, domain)
        try:
            return self._devices[name]
        except KeyError:
            raise InvalidOperationError(f"no device {name!r}") from None

    def console_write(self, owner, domain, text: str) -> None:
        self._enter("console_write", owner, domain)
        self.console_log.append(text)

    # ------------------------------------------------------------------
    def total_calls(self) -> int:
        return sum(self.calls_made.values())
