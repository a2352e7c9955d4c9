"""Incremental packet demultiplexing (paper section 2.2).

When data arrives on a device the kernel identifies the owning path by
invoking a ``demux`` function on a sequence of modules.  Each module's demux
has three choices: (1) pass the decision to an adjacent module, (2) reject
and drop the data, or (3) return a unique path.  Demux functions are
side-effect free; all state changes happen later, on the path's own thread.

The cost of demultiplexing is central to two results in the paper:

* the SYN-flood policy is effective because floods are "identified as such
  as early as possible and dropped instantly" — i.e. at demux time, before
  any path resources are spent;
* Figure 9's larger slowdown for Accounting_PD comes from TLB misses during
  demux, because each crossing invalidates the whole TLB.

:meth:`Demultiplexer.classify` therefore reports both the outcome and the
cost: modules consulted and domain switches made.

Hot path: demux runs once per arriving frame.  :meth:`DemuxResult.drop`
interns one result per reason, and modules refit a private CONTINUE or
TO_PATH result per packet (:meth:`DemuxResult.refit`), which is safe
because ``classify`` consumes each result before the next demux call.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.path import Path
    from repro.kernel.kernel import Kernel
    from repro.modules.base import Module

CONTINUE = "continue"
DROP = "drop"
TO_PATH = "path"


class DemuxResult:
    """What one module's demux function decided."""

    __slots__ = ("kind", "next_module", "view", "path", "reason")

    #: Interned immutable drop results, keyed by reason.
    _drops: Dict[str, "DemuxResult"] = {}

    def __init__(self, kind: str, next_module: Optional[str] = None,
                 view: Any = None, path: Optional["Path"] = None,
                 reason: str = ""):
        self.kind = kind
        self.next_module = next_module
        self.view = view
        self.path = path
        self.reason = reason

    @staticmethod
    def forward(next_module: str, view: Any) -> "DemuxResult":
        return DemuxResult(CONTINUE, next_module=next_module, view=view)

    @staticmethod
    def to_path(path: "Path") -> "DemuxResult":
        return DemuxResult(TO_PATH, path=path)

    @staticmethod
    def drop(reason: str) -> "DemuxResult":
        cached = DemuxResult._drops.get(reason)
        if cached is None:
            cached = DemuxResult._drops[reason] = DemuxResult(
                DROP, reason=reason)
        return cached

    def refit(self, next_module: str, view: Any) -> "DemuxResult":
        """Re-aim a module-owned CONTINUE result at a new packet view."""
        self.next_module = next_module
        self.view = view
        return self

    def refit_path(self, path: "Path") -> "DemuxResult":
        """Re-aim a module-owned TO_PATH result at a new path."""
        self.path = path
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DemuxResult(kind={self.kind!r}, "
                f"next_module={self.next_module!r}, path={self.path!r}, "
                f"reason={self.reason!r})")


class Classification:
    """Outcome plus cost information for one incoming packet."""

    __slots__ = ("kind", "path", "reason", "view", "modules_consulted",
                 "domain_switches")

    def __init__(self, kind: str, path: Optional["Path"] = None,
                 reason: str = "", view: Any = None,
                 modules_consulted: int = 0, domain_switches: int = 0):
        self.kind = kind
        self.path = path
        self.reason = reason
        #: The packet view as seen by the final module (handed to the path).
        self.view = view
        self.modules_consulted = modules_consulted
        self.domain_switches = domain_switches

    def demux_cycles(self, kernel: "Kernel") -> int:
        """Cycle cost of this classification under ``kernel``'s config."""
        table = getattr(kernel, "demux_table", None)
        if table is not None:
            return table.cost(self.modules_consulted, self.domain_switches,
                              self.kind == DROP)
        # Stub kernels in unit tests may lack the precomputed table.
        costs = kernel.costs
        cycles = self.modules_consulted * costs.demux_per_module
        if kernel.pd_enabled:
            cycles += self.domain_switches * costs.demux_pd_penalty
        if self.kind == DROP:
            cycles += costs.demux_drop
        return cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Classification(kind={self.kind!r}, path={self.path!r}, "
                f"reason={self.reason!r}, "
                f"modules_consulted={self.modules_consulted}, "
                f"domain_switches={self.domain_switches})")


class Demultiplexer:
    """Walks module demux functions to classify a packet."""

    def __init__(self, kernel: "Kernel", graph):
        self.kernel = kernel
        self.graph = graph
        self.max_hops = 16  # defensive bound against demux cycles

    def classify(self, first_module: "Module", packet: Any) -> Classification:
        """Identify the path for ``packet`` starting at ``first_module``.

        Side-effect free, like the demux functions it calls.
        """
        module = first_module
        view = packet
        consulted = 0
        switches = 0
        prev_pd = None
        find = self.graph.find
        max_hops = self.max_hops
        while consulted < max_hops:
            consulted += 1
            pd = module.pd
            if pd is not prev_pd:
                if prev_pd is not None:
                    switches += 1
                prev_pd = pd
            result = module.demux(view)
            kind = result.kind
            if kind is CONTINUE or kind == CONTINUE:
                module = find(result.next_module)
                view = result.view
                continue
            # Positional: (kind, path, reason, view, consulted, switches).
            if kind is TO_PATH or kind == TO_PATH:
                path = result.path
                if path is None or path.destroyed:
                    return Classification(DROP, None, "dead-path", None,
                                          consulted, switches)
                return Classification(TO_PATH, path, "", view, consulted,
                                      switches)
            return Classification(DROP, None, result.reason or "reject",
                                  None, consulted, switches)
        return Classification(DROP, reason="demux-loop",
                              modules_consulted=consulted,
                              domain_switches=switches)
