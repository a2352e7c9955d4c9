"""Deterministic observability: metrics, causal spans, flight recorder.

The obs package watches a replayable run without perturbing it.  An
:class:`ObsSession` attaches to a :class:`~repro.snapshot.driver.
RunDriver` and hangs off hook points the machine already has — defense
controller scans, watchdog scans, kernel kill listeners, driver
milestones — so with a session attached the event order, ``sim.seq``
and every digest stay byte-identical to an unobserved run, and two runs
of the same seed produce byte-identical telemetry.

Layers:

* :mod:`repro.obs.metrics`  — the registry (counters/gauges/histograms
  keyed ``subsystem.name{labels}`` with tick-stamped series);
* :mod:`repro.obs.spans`    — parent-linked causal spans (signal →
  rung → watchdog → pathKill chains) and :func:`trace_server`, the
  demux/path-create/kill execution trace;
* :mod:`repro.obs.recorder` — the CRC-framed ``obs.jrnl`` sidecar that
  survives SIGKILL (ESCJRNL framing shared with the run journal);
* :mod:`repro.obs.export`   — JSON / Prometheus-text / JSONL dumps;
* :mod:`repro.obs.session`  — the wiring;
* :mod:`repro.obs.cli`      — ``python -m repro obs``.
"""

from repro.obs.metrics import (DEFAULT_BOUNDS, Histogram, MetricsRegistry,
                               metric_key)
from repro.obs.recorder import (SIDECAR_NAME, FlightRecorder, ObsScan,
                                scan_obs)
from repro.obs.session import ObsSession, attach_obs, run_with_obs
from repro.obs.spans import Span, SpanLog, trace_server

__all__ = [
    "DEFAULT_BOUNDS", "FlightRecorder", "Histogram", "MetricsRegistry",
    "ObsScan", "ObsSession", "SIDECAR_NAME", "Span", "SpanLog",
    "attach_obs", "metric_key", "run_with_obs", "scan_obs", "trace_server",
]
