"""Per-layer host-time tracing, installed from outside the program.

:class:`Tracer` wraps the public entry points of each layer (the
``TARGETS`` table) with span-recording wrappers.  A span is one call, or
one resumption of a generator, and records its name, its parent span,
and its start and end on the host clock.  Spans live in flat in-memory
arrays until the run ends; :meth:`Tracer.dump` writes them out and
:func:`self_times` derives each name's self time (its spans' durations
minus the part covered by their child spans).

The tracer is a pure observer: a wrapper calls the original with the
same arguments and returns its result, so the simulated machine, its
event order and its state digest are unchanged.  :meth:`Tracer.remove`
puts every original back.

Class-level wrappers must be installed before the machine is built: some
objects bind a method once at construction (``nic.on_receive =
self._from_edge``) and keep whatever the class held then.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import struct
import time
from typing import Callable, Dict, List, Tuple

#: Span layer -> ``(module, class, methods)`` wrapped at class level.  A
#: span is named ``<layer>/<Class>.<method>``; the layer is the part of
#: the name the per-layer metrics aggregate over.
TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("snapshot.driver", "repro.snapshot.driver", "RunDriver", ("run_to",)),
    ("snapshot.milestone", "repro.snapshot.runs", "ReplayableRun",
     ("perform",)),
    ("sim.engine.loop", "repro.sim.engine", "Simulator", ("run",)),
    ("sim.engine", "repro.sim.engine", "Simulator", ("schedule", "at")),
    ("sim.cpu", "repro.sim.cpu", "CPU",
     ("spawn", "make_runnable", "post_interrupt", "kill_thread")),
    ("kernel", "repro.kernel.kernel", "Kernel",
     ("spawn_thread", "create_event", "crossing_cost", "admit_path",
      "kill_owner")),
    ("kernel.quota", "repro.kernel.quota", "QuotaEnforcer",
     ("check", "sweep", "throttle")),
    ("core.demux", "repro.core.demux", "Demultiplexer", ("classify",)),
    ("core.path", "repro.core.path", "Path", ("cross",)),
    ("core.lifecycle", "repro.core.lifecycle", "PathManager",
     ("path_create", "path_destroy", "path_kill")),
    ("modules.eth", "repro.modules.eth", "EthModule",
     ("on_frame", "demux", "forward", "backward")),
    ("modules.ip", "repro.modules.ip", "IpModule",
     ("demux", "forward", "backward")),
    ("modules.tcp", "repro.modules.tcp", "TcpModule",
     ("demux", "forward", "backward")),
    ("modules.http", "repro.modules.http", "HttpModule", ("forward",)),
    ("modules.fs", "repro.modules.fs", "FsModule", ("handle_call",)),
    ("modules.scsi", "repro.modules.scsi", "ScsiModule", ("handle_call",)),
    ("net.link", "repro.net.link", "NIC", ("deliver",)),
    ("net.link", "repro.net.link", "Link", ("transmit",)),
    ("net.link", "repro.net.link", "Hub", ("transmit",)),
    ("net.link", "repro.net.link", "SwitchPort", ("transmit",)),
    ("net.tcp", "repro.net.tcp", "TCPEngine",
     ("on_segment", "send", "on_rto", "on_delack")),
    ("net.addressing", "repro.net.addressing", "Subnet", ("contains",)),
    ("net.fault", "repro.net.fault", "FaultInjector", ("transmit",)),
    ("workload.clients", "repro.workload.clients", "ClientConnection",
     ("receive", "apply")),
    ("workload.clients", "repro.workload.clients", "ClientHost",
     ("send_segment",)),
    ("defense.monitor", "repro.defense.signals", "AccountingMonitor",
     ("sample",)),
    ("defense.ratelimit", "repro.defense.ratelimit", "TokenBucket",
     ("allow",)),
    ("defense.controller", "repro.defense.controller", "DefenseController",
     ("absorb",)),
    ("cluster.dispatcher", "repro.cluster.dispatcher", "ClusterDispatcher",
     ("send_probe", "drain")),
    ("cluster.health", "repro.cluster.health", "HealthMonitor",
     ("on_reply",)),
    ("obs", "repro.obs.session", "ObsSession",
     ("on_defense_scan", "on_defense_transition", "on_watchdog_scan",
      "on_milestone", "finish")),
)

#: Span names whose truthy results are counted (admitted, dropped, ...).
_OUTCOMES: Dict[str, Callable[[object], bool]] = {
    "core.demux/Demultiplexer.classify": lambda c: c.kind == "drop",
    "defense.ratelimit/TokenBucket.allow": bool,
}

_NO_PARENT = -1
_MAGIC = b"PBSPANS1"


class _TimedGen:
    """Generator proxy timing each resumption of ``gen`` as one span.

    Supports the full generator protocol, so it can stand wherever the
    original generator stood — including behind ``yield from``.
    """

    __slots__ = ("_gen", "_span")

    def __init__(self, gen, span: Callable):
        self._gen = gen
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._gen.send, None)

    def send(self, value):
        return self._span(self._gen.send, value)

    def throw(self, *args):
        return self._span(self._gen.throw, *args)

    def close(self):
        return self._gen.close()


class Tracer:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.parent = array.array("q")
        self.name = array.array("H")
        self.start = array.array("q")
        self.end = array.array("q")
        #: Calls per name index (a generator counts once, when created).
        self.calls = array.array("q")
        #: Truthy outcomes per name index (see ``_OUTCOMES``).
        self.hits = array.array("q")
        self._stack = [_NO_PARENT]
        #: ``(owner, attribute, original, owner had its own attribute)``.
        self._installed: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.hits.append(0)
        return self._index[name]

    def _spanner(self, idx: int) -> Callable:
        """Return ``span(fn, *args)``: call ``fn`` inside one span."""
        parent, name, start, end = (self.parent, self.name, self.start,
                                    self.end)
        stack = self._stack
        clock = time.perf_counter_ns

        def span(fn, *args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(idx)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return span

    def wrap(self, span_name: str, fn: Callable) -> Callable:
        """Return a span-recording stand-in for ``fn``."""
        idx = self.name_index(span_name)
        span = self._spanner(idx)
        calls, hits = self.calls, self.hits
        outcome = _OUTCOMES.get(span_name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[idx] += 1
                return _TimedGen(fn(*args, **kwargs), span)
            return gen_wrapper

        if outcome is not None:
            @functools.wraps(fn)
            def counted_wrapper(*args, **kwargs):
                calls[idx] += 1
                result = span(fn, *args, **kwargs)
                if outcome(result):
                    hits[idx] += 1
                return result
            return counted_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return span(fn, *args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, span_name: str) -> None:
        """Replace ``owner.attr`` (a class or an instance) with a wrapper."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._installed.append((owner, attr, original, own))
        setattr(owner, attr, self.wrap(span_name, original))

    def install(self) -> None:
        """Wrap every ``TARGETS`` method (call before building the run)."""
        for layer, module, cls_name, methods in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self.patch(cls, method, f"{layer}/{cls_name}.{method}")

    def install_run(self, bed) -> None:
        """Wrap the built machine's per-instance entry points.

        The dispatcher's NIC receive callbacks and the SYN attacker's NIC
        ``send`` are bound per instance, so they are wrapped on the
        instance after the machine is built.
        """
        dispatcher = getattr(bed, "dispatcher", None)
        if dispatcher is not None:
            for nic in [dispatcher.front] + list(dispatcher.backs):
                self.patch(nic, "on_receive",
                           "cluster.dispatcher/NIC.on_receive")
        attacker = getattr(bed, "syn_attacker", None)
        if attacker is not None:
            self.patch(attacker.nic, "send", "workload.syn_attacker/NIC.send")

    def remove(self) -> None:
        """Put back every original, newest first."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> int:
        return len(self._installed)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the span log: a JSON header line, then the four arrays."""
        header = json.dumps({"names": self.names, "spans": len(self.start),
                             "calls": list(self.calls),
                             "hits": list(self.hits)}).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC + struct.pack("<q", len(header)) + header)
            for arr in (self.parent, self.name, self.start, self.end):
                arr.tofile(fh)


def self_times(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per span name: ``self_ms``, ``spans``, ``calls`` and ``hits``."""
    parent, name, start, end = (tracer.parent, tracer.name, tracer.start,
                                tracer.end)
    n = len(start)
    covered = [0] * n
    for i in range(n):
        p = parent[i]
        if p != _NO_PARENT:
            covered[p] += end[i] - start[i]
    k = len(tracer.names)
    self_ns = [0] * k
    spans = [0] * k
    for i in range(n):
        idx = name[i]
        self_ns[idx] += end[i] - start[i] - covered[i]
        spans[idx] += 1
    return {
        nm: {"self_ms": self_ns[i] / 1e6, "spans": spans[i],
             "calls": tracer.calls[i], "hits": tracer.hits[i]}
        for i, nm in enumerate(tracer.names)
    }


def inclusive_ms(tracer: Tracer, span_name: str) -> float:
    """Wall time inside ``span_name`` spans, children included.

    Only the outermost span of the name on any call chain counts, so a
    re-entrant call (a kill that triggers another kill) is not counted
    twice.
    """
    idx = tracer._index.get(span_name)
    if idx is None:
        return 0.0
    parent, name, start, end = (tracer.parent, tracer.name, tracer.start,
                                tracer.end)
    total = 0
    for i in range(len(start)):
        if name[i] != idx:
            continue
        p = parent[i]
        while p != _NO_PARENT and name[p] != idx:
            p = parent[p]
        if p == _NO_PARENT:
            total += end[i] - start[i]
    return total / 1e6


def root_ms(tracer: Tracer) -> float:
    """Total duration of the root (parentless) spans, in ms."""
    parent, start, end = tracer.parent, tracer.start, tracer.end
    return sum(end[i] - start[i] for i in range(len(start))
               if parent[i] == _NO_PARENT) / 1e6


def wrapped_targets() -> List[str]:
    """``TARGETS`` methods whose class attribute is currently a wrapper.

    Empty when every class holds the function its module defined, which
    is what :meth:`Tracer.remove` must leave behind.
    """
    wrapped = []
    for _layer, module, cls_name, methods in TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            if hasattr(vars(cls).get(method), "__wrapped__"):
                wrapped.append(f"{cls_name}.{method}")
    return wrapped
