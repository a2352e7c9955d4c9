"""Unit tests for the obs building blocks: registry, spans, recorder,
exporters.  The end-to-end determinism tests live in test_obs_session.py."""

import json
import os

import pytest

from repro.obs.export import prom_name, prom_text, write_dump
from repro.obs.metrics import Histogram, MetricsRegistry, metric_key
from repro.obs.recorder import SIDECAR_NAME, FlightRecorder, scan_obs
from repro.obs.session import ObsSession
from repro.obs.spans import Span, SpanLog, trace_server
from repro.sim.engine import Simulator
from repro.snapshot.journal import JournalError


# ----------------------------------------------------------------------
# metric_key / registry
# ----------------------------------------------------------------------
def test_metric_key_sorts_labels():
    assert metric_key("tcp", "drops") == "tcp.drops"
    a = metric_key("tcp", "drops", reason="flood", replica=1)
    b = metric_key("tcp", "drops", replica=1, reason="flood")
    assert a == b == "tcp.drops{reason=flood,replica=1}"


def test_counter_gauge_and_value():
    reg = MetricsRegistry()
    reg.inc("kernel.kills")
    reg.inc("kernel.kills", 2)
    reg.counter_abs("cpu.busy_cycles", 500)
    reg.gauge("kernel.free_pages", 8192)
    assert reg.value("kernel.kills") == 3
    assert reg.value("cpu.busy_cycles") == 500
    assert reg.value("kernel.free_pages") == 8192
    assert reg.value("nope") is None
    assert "kernel.kills" in reg.keys()


def test_series_dedupes_consecutive_identical_values():
    reg = MetricsRegistry()
    reg.gauge("sim.pending", 5)
    reg.sample(100)
    reg.sample(200)          # unchanged -> no new point
    reg.gauge("sim.pending", 7)
    reg.sample(300)
    assert reg.series["sim.pending"] == [(100, 5), (300, 7)]
    assert reg.samples_taken == 3
    assert reg.last_sample_tick == 300


def test_sim_gauges_are_the_fixed_queue_health_keys():
    sim = Simulator()
    sim.schedule(5, lambda: sim.schedule(0, lambda: None))
    sim.schedule(7, lambda: None).cancel()
    sim.run()
    session = ObsSession()
    session.sim = sim
    session._sample_sim()
    reg = session.registry
    assert {k for k in reg.keys() if k.startswith("sim.")} == {
        "sim.now", "sim.events_processed", "sim.scheduled", "sim.pending",
        "sim.cancelled_pending", "sim.cancelled_removed",
        "sim.compactions", "sim.fast_lane_events"}
    assert reg.value("sim.events_processed") == 2
    assert reg.value("sim.fast_lane_events") == 1
    assert reg.value("sim.cancelled_removed") == 1
    assert not [k for k in reg.keys() if k.startswith("net.")]


def test_histogram_buckets_and_snapshot():
    h = Histogram(bounds=(10, 100))
    for v in (1, 10, 11, 1000):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == {"le_10": 2, "le_100": 1, "le_inf": 1}
    assert snap["sum"] == 1022 and snap["count"] == 4


def test_dump_is_canonical_and_deterministic():
    def build():
        reg = MetricsRegistry()
        reg.inc("b.two")
        reg.inc("a.one")
        reg.gauge("c.three", 1.5)
        reg.observe("d.hist", 42, bounds=(10, 100))
        reg.sample(10)
        reg.inc("a.one")
        reg.sample(20)
        return json.dumps(reg.dump(), sort_keys=True)

    assert build() == build()
    dump = MetricsRegistry()
    dump.inc("z.last")
    dump.sample(1)
    blob = dump.dump()
    assert blob["series"]["z.last"] == [[1, 1]]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_span_chain_walks_to_root():
    log = SpanLog()
    sig = log.add("signal", "10.9.0.0/24", tick=100)
    rung = log.add("rung", "ratelimit", tick=200, parent=sig.id)
    kill = log.add("pathKill", "conn-7", tick=300, parent=rung.id)
    chain = log.chain(kill)
    assert [s.kind for s in chain] == ["signal", "rung", "pathKill"]
    assert chain[0] is sig
    # Deterministic ids from 1.
    assert [s.id for s in log.spans] == [1, 2, 3]


def test_span_chain_cycle_guard():
    log = SpanLog()
    a = log.add("a", "x", tick=1)
    b = log.add("b", "y", tick=2, parent=a.id)
    a.parent = b.id  # corrupt: cycle
    chain = log.chain(b)
    assert len(chain) == 2  # terminates instead of looping


def test_span_record_roundtrip_and_sink():
    seen = []
    log = SpanLog(sink=seen.append)
    span = log.add("rung", "quota", "escalate", tick=50, parent=None,
                   pressure=3)
    assert seen == [span.to_record()]
    clone = Span.from_record(span.to_record())
    assert clone.values == {"pressure": 3}
    assert "quota" in str(clone)

    other = SpanLog()
    other.load(span.to_record())
    assert other.find("rung")[0].id == span.id


def test_span_find_combines_kind_and_subject_filters():
    log = SpanLog()
    log.add("kill", "conn-1", tick=0)
    log.add("kill", "pd-9", tick=5)
    log.add("demux", "conn-1", tick=7)
    hits = log.find("kill", subject_contains="conn")
    assert [(s.kind, s.subject) for s in hits] == [("kill", "conn-1")]
    assert [s.tick for s in log.find(subject_contains="conn-1")] == [0, 7]
    assert len(log) == 3


# ----------------------------------------------------------------------
# trace_server
# ----------------------------------------------------------------------
def test_trace_server_records_everything():
    from repro.experiments.harness import Testbed
    from repro.policy import RunawayPolicy

    bed = Testbed.escort(policies=[RunawayPolicy(2.0)])
    log = trace_server(bed.server, SpanLog())
    bed.add_clients(2, document="/doc-1")
    bed.add_cgi_attackers(1)
    bed.run(warmup_s=0.3, measure_s=1.5)

    assert len(log.find("demux")) > 50
    creates = log.find("path-create")
    assert len(creates) > 10
    kills = log.find("kill")
    assert len(kills) >= 1
    # Stage chains are recorded for each created path.
    assert any("eth-ip-tcp-http-fs-scsi" in s.detail for s in creates)
    assert all("cycles" in s.detail for s in kills)
    # Every record is a parentless point-event.
    assert all(s.parent is None for s in log.spans)
    # And the server still works with the hooks installed.
    assert bed.server.http.requests_served > 0


def test_trace_server_is_idempotent():
    """Re-tracing must not stack hooks (double-recording)."""
    from repro.experiments.harness import Testbed

    bed = Testbed.escort()
    log = SpanLog()
    assert trace_server(bed.server, log) is log
    classify_once = bed.server.eth.demultiplexer.classify
    create_once = bed.server.path_manager.path_create
    listeners = len(bed.server.kernel.kill_listeners)
    trace_server(bed.server, log)
    assert bed.server.eth.demultiplexer.classify is classify_once
    assert bed.server.path_manager.path_create is create_once
    assert len(bed.server.kernel.kill_listeners) == listeners

    bed.add_clients(2, document="/doc-1")
    bed.run(warmup_s=0.2, measure_s=0.5)
    served = bed.server.http.requests_served
    assert served > 0
    # One demux record per classification, not two.
    assert len(log.find("demux")) >= served
    subjects = [s.subject for s in log.find("path-create")]
    assert len(subjects) == len(set(subjects)), "path created twice"


def test_trace_server_is_a_pure_observer():
    """A traced chaos run ends in the same state as an untraced one."""
    from repro.chaos import ChaosRun
    from repro.snapshot import RunDriver

    def once(traced):
        run = ChaosRun("domain-crash", 1)
        driver = RunDriver(run)
        log = run.attach_tracer() if traced else None
        driver.run_all()
        return run.digest(), driver.sim.seq, log

    digest, seq, log = once(traced=True)
    assert len(log) > 0
    assert (digest, seq) == once(traced=False)[:2]


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
def test_recorder_roundtrip(tmp_path):
    path = str(tmp_path / SIDECAR_NAME)
    with FlightRecorder(path) as rec:
        rec.record({"kind": "obs-meta", "spec": {"kind": "test"}})
        rec.record({"kind": "sample", "tick": 10, "metrics": {"a.b": 1}})
        rec.record({"kind": "span", "id": 1, "parent": None, "tick": 10,
                    "span": "signal", "subject": "x"})
        rec.record({"kind": "obs-final", "samples": 1, "spans": 1,
                    "kills": 0, "metrics_digest": "ab" * 32})
    scan = scan_obs(path)
    assert scan.complete and not scan.torn_tail
    assert scan.records == 4
    assert scan.meta[0]["spec"] == {"kind": "test"}
    assert scan.final_metrics() == {"a.b": 1}
    assert scan.span_records[0]["span"] == "signal"


def test_recorder_survives_torn_tail(tmp_path):
    path = str(tmp_path / SIDECAR_NAME)
    with FlightRecorder(path) as rec:
        rec.record({"kind": "sample", "tick": 1, "metrics": {"a": 1}})
        rec.record({"kind": "sample", "tick": 2, "metrics": {"a": 2}})
    with open(path, "ab") as fh:
        fh.write(b"deadbeef {\"kind\": torn-mid-wri")  # no newline, bad
    scan = scan_obs(path)
    assert scan.torn_tail and not scan.complete
    # The trustworthy prefix still folds.
    assert scan.final_metrics() == {"a": 2}
    assert scan.series("a") == [(1, 1), (2, 2)]


def test_recorder_append_mode_extends(tmp_path):
    path = str(tmp_path / SIDECAR_NAME)
    with FlightRecorder(path) as rec:
        rec.record({"kind": "sample", "tick": 1, "metrics": {"a": 1}})
    with FlightRecorder(path, append=True) as rec:
        rec.record({"kind": "obs-meta", "attempt": 2})
        rec.record({"kind": "sample", "tick": 5, "metrics": {"a": 9}})
    scan = scan_obs(path)
    assert len(scan.samples) == 2
    assert scan.meta[0]["attempt"] == 2
    assert scan.final_metrics() == {"a": 9}
    # Fresh mode truncates.
    with FlightRecorder(path) as rec:
        rec.record({"kind": "sample", "tick": 7, "metrics": {"a": 0}})
    assert len(scan_obs(path).samples) == 1


def test_recorder_rejects_alien_file(tmp_path):
    path = str(tmp_path / "alien.jrnl")
    with open(path, "w") as fh:
        fh.write("not a journal\n")
    with pytest.raises(JournalError):
        scan_obs(path)
    with pytest.raises(JournalError):
        FlightRecorder(path, append=True)


def test_scan_missing_and_empty(tmp_path):
    missing = scan_obs(str(tmp_path / "nope.jrnl"))
    assert missing.records == 0 and not missing.torn_tail
    empty = str(tmp_path / "empty.jrnl")
    open(empty, "w").close()
    assert scan_obs(empty).records == 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def test_prom_text_sanitizes_and_structures():
    reg = MetricsRegistry()
    reg.inc(metric_key("kernel", "kills_by_family", family="conn"), 3)
    reg.gauge(metric_key("sim", "fast-lane-events"), 7)
    reg.observe("kernel.kill_cycles", 500, bounds=(100, 1000))
    text = prom_text(reg)
    assert prom_name("sim.fast-lane-events") == "sim_fast_lane_events"
    assert '# TYPE kernel_kills_by_family counter' in text
    assert 'kernel_kills_by_family{family="conn"} 3' in text
    assert "sim_fast_lane_events 7" in text
    assert 'kernel_kill_cycles_bucket{le="1000"} 1' in text
    assert 'kernel_kill_cycles_bucket{le="+Inf"} 1' in text
    assert "kernel_kill_cycles_sum 500" in text


def test_write_dump_files(tmp_path):
    class FakeSession:
        registry = MetricsRegistry()
        spans = SpanLog()

        def metrics_json_bytes(self):
            return b'{"ok":1}\n'

    FakeSession.registry.inc("a.b")
    FakeSession.spans.add("signal", "x", tick=1)
    paths = write_dump(str(tmp_path / "obs"), FakeSession())
    assert open(paths["metrics_json"], "rb").read() == b'{"ok":1}\n'
    assert "a_b 1" in open(paths["metrics_prom"]).read()
    line = json.loads(open(paths["spans_jsonl"]).read())
    assert line["span"] == "signal"
    assert os.path.dirname(paths["metrics_json"]).endswith("obs")
