"""Parent-linked causal spans, and the server tracer that records them.

A :class:`SpanLog` is the one event model for every tracing consumer:
each span may name a parent, so a ``pathKill`` links back through the
watchdog detection and the defense rung that armed it to the monitor
signal that started the episode.  ``repro obs explain --kill <path>``
walks exactly this chain.

Span ids are a per-log counter starting at 1 — fully deterministic, so
two runs of the same seed emit identical span streams.

:func:`trace_server` records a built server's demux decisions, path
creations and kills as parentless spans — the execution trace the
determinism tests compare byte for byte::

    bed = Testbed.escort()
    log = trace_server(bed.server, SpanLog())
    bed.run(...)
    for span in log.find("kill"):
        print(span)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.sim.clock import TICKS_PER_SECOND

__all__ = ["Span", "SpanLog", "trace_server"]


@dataclass
class Span:
    """One causal point-event: what happened, when, and because of what."""

    id: int
    parent: Optional[int]
    tick: int
    kind: str        # signal | rung | watchdog | pathKill | absorb | ...
    subject: str
    detail: str = ""
    values: Dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.tick / TICKS_PER_SECOND

    def to_record(self) -> Dict:
        return {"id": self.id, "parent": self.parent, "tick": self.tick,
                "span": self.kind, "subject": self.subject,
                "detail": self.detail, "values": self.values}

    @classmethod
    def from_record(cls, record: Dict) -> "Span":
        return cls(id=record["id"], parent=record.get("parent"),
                   tick=record["tick"], kind=record["span"],
                   subject=record.get("subject", ""),
                   detail=record.get("detail", ""),
                   values=record.get("values", {}))

    def __str__(self) -> str:
        head = (f"[{self.seconds:10.6f}s] #{self.id:<4d} "
                f"{self.kind:8s} {self.subject}")
        if self.detail:
            head += f" — {self.detail}"
        return head


class SpanLog:
    """Append-only span store with deterministic ids and chain walking."""

    def __init__(self, sink: Optional[Callable[[Dict], None]] = None):
        self.spans: List[Span] = []
        self.by_id: Dict[int, Span] = {}
        self._next = 1
        #: Optional callable invoked with each new span's record (the
        #: flight recorder streams spans to disk through this).
        self.sink = sink

    def add(self, kind: str, subject: str, detail: str = "", *,
            tick: int, parent: Optional[int] = None, **values) -> Span:
        span = Span(id=self._next, parent=parent, tick=tick, kind=kind,
                    subject=subject, detail=detail, values=values)
        self._next += 1
        self.spans.append(span)
        self.by_id[span.id] = span
        if self.sink is not None:
            self.sink(span.to_record())
        return span

    def load(self, record: Dict) -> Span:
        """Rebuild a span from a decoded record (query-side use)."""
        span = Span.from_record(record)
        self.spans.append(span)
        self.by_id[span.id] = span
        self._next = max(self._next, span.id + 1)
        return span

    # -- queries -------------------------------------------------------
    def find(self, kind: Optional[str] = None,
             subject_contains: str = "") -> List[Span]:
        out = []
        for span in self.spans:
            if kind is not None and span.kind != kind:
                continue
            if subject_contains and subject_contains not in span.subject:
                continue
            out.append(span)
        return out

    def chain(self, span: Span) -> List[Span]:
        """``span`` and its ancestors, root first."""
        out = [span]
        seen = {span.id}
        while span.parent is not None:
            parent = self.by_id.get(span.parent)
            if parent is None or parent.id in seen:
                break
            out.append(parent)
            seen.add(parent.id)
            span = parent
        out.reverse()
        return out

    def __len__(self) -> int:
        return len(self.spans)


def trace_server(server, spans: SpanLog) -> SpanLog:
    """Record ``server``'s demux, path-create and kill events into ``spans``.

    Every record is a parentless span stamped ``server.sim.now``:

    * ``demux`` / ``demux-drop`` — each ``eth.demultiplexer.classify``
      (subject: the path name or drop reason; detail: modules consulted);
    * ``path-create`` — each ``path_manager.path_create`` (detail: the
      stage chain);
    * ``kill`` — each ``kernel.kill_owner``, heard through
      ``kernel.kill_listeners`` (detail: cycles and domains visited).

    Tracing is a pure observer: no event is scheduled, so ``sim.seq`` and
    the state digest match an untraced run.  Idempotent: a server that is
    already traced is left alone (its events keep going to the first
    log), since stacked hooks would record every event twice.  Returns
    ``spans``.
    """
    sim = server.sim
    demux = server.eth.demultiplexer
    classify = demux.classify
    if getattr(classify, "_escort_traced", False):
        return spans

    def traced_classify(first_module, packet):
        result = classify(first_module, packet)
        if result.kind == "path":
            kind, subject = "demux", result.path.name
        else:
            kind, subject = "demux-drop", result.reason
        spans.add(kind, subject, f"{result.modules_consulted} modules",
                  tick=sim.now)
        return result

    manager = server.path_manager
    path_create = manager.path_create

    def traced_create(attrs, start_module, **kwargs):
        path = yield from path_create(attrs, start_module, **kwargs)
        spans.add("path-create", path.name,
                  "-".join(s.module.name for s in path.stages), tick=sim.now)
        return path

    def on_kill(owner, report):
        spans.add("kill", report.owner_name,
                  f"{report.cycles} cycles, "
                  f"{report.domains_visited} domains", tick=sim.now)

    traced_classify._escort_traced = True
    demux.classify = traced_classify
    manager.path_create = traced_create
    server.kernel.kill_listeners.append(on_kill)
    return spans
