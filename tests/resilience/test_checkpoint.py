"""Checkpoint capture/restore: array codec, content-digested store,
retention, corrupt-file fallback, writer byte identity, data-plane and
control-plane restore fidelity, manager rate limiting."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.control_plane import MonitorControlPlane
from repro.netsim.engine import Simulator
from repro.netsim.units import seconds
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointManager,
    CheckpointStore,
    _canonical,
    _decode_array,
    _encode_array,
    capture_checkpoint,
    content_digest,
    restore_control_plane,
    restore_dataplane,
)
from repro.resilience.delivery import ResilientShipper, SequenceDedup

from tests.core.helpers import FlowScript, small_monitor

MS = 1_000_000


# -- codec ---------------------------------------------------------------------


@pytest.mark.parametrize("arr", [
    np.arange(12, dtype=np.int64).reshape(3, 4),
    np.linspace(0.0, 1.0, 7),
    np.zeros((2, 3, 4), dtype=np.uint32),
    np.array([], dtype=np.int32),
])
def test_array_codec_round_trip(arr):
    out = _decode_array(_encode_array(arr))
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    assert np.array_equal(out, arr)


def test_content_digest_detects_tamper():
    doc = {"schema": CHECKPOINT_SCHEMA, "seq": 0, "payload": [1, 2, 3]}
    digest = content_digest(doc)
    assert content_digest({**doc, "digest": digest}) == digest, \
        "the digest field itself is excluded from the digest"
    assert content_digest({**doc, "payload": [1, 2, 4]}) != digest


@pytest.mark.parametrize("obj", [
    {"outer": {10: "a", 9: "b", 2: {"x": 1}}, "b": {1: [1, 2]}},
    {"mixed": {10: 1, 9.5: 2, True: 3}, "strs": {"b": 1, "a": {}}},
    {"text": "caf\u00e9 \u2603 \U0001f600", "ctl": "a\x00b\x1f\n\t\"\\"},
    {"\u00e9t\u00e9": 1, "tab\tkey": 2, "quote\"key": 3},
    {"floats": [0.1, 1e-7, -0.0, 1e300], "b": [True, False], "n": None},
    {"empty_dict": {}, "empty_list": [], "nested": {"e": {}}},
    {"report": {"data": 'a"b\\c', "dtype": "x", "shape": [1]}},
    {"array": _encode_array(np.arange(6, dtype=np.uint32).reshape(2, 3)),
     "none": None},
    {},
    [1, {"a": 2}],
    "plain",
])
def test_canonical_matches_json_dumps(obj):
    ref = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert "".join(_canonical(obj, [])) == ref


def test_canonical_rejects_unsortable_keys_like_json_dumps():
    obj = {"outer": {1: "a", "b": 2}}
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with pytest.raises(TypeError):
        _canonical(obj, [])


def test_content_digest_tracks_escaped_report_payloads():
    # A report dict shaped like an encoded array is escaped, not
    # emitted verbatim: tampering with its data must change the digest.
    doc = {"schema": CHECKPOINT_SCHEMA, "seq": 0,
           "report": {"data": 'a"b\\c', "dtype": "x", "shape": [1]}}
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = content_digest(doc)
    assert digest == hashlib.sha256(body.encode()).hexdigest()
    assert content_digest({**doc, "digest": digest}) == digest
    tampered = {**doc, "report": {**doc["report"], "data": 'a"b\\d'}}
    assert content_digest(tampered) != digest


# -- store ---------------------------------------------------------------------


def _doc(seq):
    return {"schema": CHECKPOINT_SCHEMA, "seq": seq, "time_ns": seq * 10}


def test_store_writes_are_digested_and_ordered(tmp_path):
    store = CheckpointStore(str(tmp_path), retain=4)
    for seq in range(3):
        store.write(_doc(seq))
    paths = store.paths()
    assert [p.split("checkpoint-")[-1] for p in paths] == [
        "00000000.json", "00000001.json", "00000002.json"]
    assert store.latest()["seq"] == 2
    loaded = store.load(paths[0])
    assert loaded["digest"] == content_digest(loaded)


def test_store_prunes_beyond_retention(tmp_path):
    store = CheckpointStore(str(tmp_path), retain=2)
    for seq in range(5):
        store.write(_doc(seq))
    assert len(store.paths()) == 2
    assert store.pruned == 3
    assert store.latest()["seq"] == 4


def test_store_rejects_bad_retention(tmp_path):
    with pytest.raises(ValueError):
        CheckpointStore(str(tmp_path), retain=0)


def test_latest_skips_torn_newest(tmp_path):
    store = CheckpointStore(str(tmp_path), retain=4)
    for seq in range(3):
        store.write(_doc(seq))
    newest = store.paths()[-1]
    # Tear the newest file mid-document, the way a crash mid-write
    # without the atomic-rename discipline would.
    with open(newest, "w", encoding="utf-8") as fh:
        fh.write('{"schema": "repro-checkpoint-v1", "seq": 2, "tr')
    assert store.latest()["seq"] == 1


def test_latest_skips_tampered_newest(tmp_path):
    store = CheckpointStore(str(tmp_path), retain=4)
    for seq in range(2):
        store.write(_doc(seq))
    newest = store.paths()[-1]
    doc = json.loads(open(newest).read())
    doc["time_ns"] = 999_999            # silent bit-flip, stale digest
    with open(newest, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert store.latest()["seq"] == 0


def test_latest_none_when_empty(tmp_path):
    assert CheckpointStore(str(tmp_path)).latest() is None


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _shipped_cp(sim):
    """A started-and-stopped control plane with histograms, forensics, a
    breaker-guarded shipper and archiver dedup books: every optional
    section a real checkpoint carries."""
    dedup = SequenceDedup(window=64)

    def transport(doc):
        if not dedup.is_duplicate(doc["_shipper"], doc["_seq"]):
            dedup.record(doc["_shipper"], doc["_seq"])

    shipper = ResilientShipper(sim, transport, breaker=CircuitBreaker())
    cp, _ = _populated_cp(sim, report_sink=shipper)
    cp.start()
    sim.run_until(seconds(2.5))
    cp.stop()
    return cp, dedup


def test_written_file_is_the_canonical_serialisation(tmp_path):
    cp, dedup = _shipped_cp(Simulator())
    doc = capture_checkpoint(cp, dedup=dedup, seq=7)
    for key in ("histograms", "forensics", "shipper", "breaker", "dedup"):
        assert key in doc, f"capture is missing the {key!r} section"
    assert doc["dedup"]["sources"], "the shipper must have delivered"
    # The historical formula: sha256 over the canonical json.dumps of
    # the body, then the whole document dumped in the same form.
    body = {k: v for k, v in doc.items() if k != "digest"}
    ref = hashlib.sha256(_canonical_json(body).encode()).hexdigest()
    path = CheckpointStore(str(tmp_path)).write(doc)
    with open(path, "rb") as fh:
        written = fh.read()
    assert written == _canonical_json({**doc, "digest": ref}).encode()
    assert content_digest(doc) == ref


def test_load_accepts_a_json_dump_written_file(tmp_path):
    cp, dedup = _shipped_cp(Simulator())
    doc = capture_checkpoint(cp, dedup=dedup, seq=0)
    body = {k: v for k, v in doc.items() if k != "digest"}
    doc["digest"] = hashlib.sha256(
        _canonical_json(body).encode()).hexdigest()
    store = CheckpointStore(str(tmp_path))
    with open(tmp_path / "checkpoint-00000000.json", "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    loaded = store.latest()
    assert loaded is not None
    assert loaded["digest"] == doc["digest"]
    assert loaded["dataplane_digest"] == doc["dataplane_digest"]


# -- data-plane restore --------------------------------------------------------


def _populated_cp(sim=None, report_sink=None):
    """A control plane over a monitor with real register state."""
    sim = sim or Simulator()
    monitor = small_monitor(histograms_enabled=True, forensics_enabled=True)
    cp = MonitorControlPlane(sim, monitor, report_sink=report_sink)
    script = FlowScript(monitor)
    script.make_long()
    for i in range(8):
        t = 1_000_000 + i * 500_000
        script.transit(seq=1000 + i * 1448, length=1448,
                       t_in=t, t_out=t + 200_000)
        script.ack(ack=1000 + (i + 1) * 1448, t_ns=t + 400_000)
    return cp, monitor


def test_dataplane_restore_round_trips_digest():
    cp, monitor = _populated_cp()
    doc = capture_checkpoint(cp)
    assert doc["dataplane_digest"] == monitor.program.state_digest()

    fresh = small_monitor(histograms_enabled=True, forensics_enabled=True)
    assert fresh.program.state_digest() != doc["dataplane_digest"], \
        "the scripted traffic must actually have mutated registers"
    digest = restore_dataplane(fresh.program, doc)
    assert digest == doc["dataplane_digest"]
    # Extern tallies (not part of the register digest) restore too.
    assert fresh.queue.time_windows.ops == monitor.queue.time_windows.ops
    assert fresh.rtt_loss.rtt_hist.ops == monitor.rtt_loss.rtt_hist.ops


def test_dataplane_restore_rejects_wrong_digest():
    cp, _ = _populated_cp()
    doc = capture_checkpoint(cp)
    doc["dataplane_digest"] = "0" * 64
    with pytest.raises(ValueError, match="digest"):
        restore_dataplane(small_monitor(histograms_enabled=True,
                                        forensics_enabled=True).program, doc)


def test_restore_rejects_wrong_schema():
    cp, _ = _populated_cp()
    doc = capture_checkpoint(cp)
    doc["schema"] = "something-else"
    with pytest.raises(ValueError, match="schema"):
        restore_control_plane(cp, doc)


# -- control-plane restore -----------------------------------------------------


def test_control_plane_restore_fidelity():
    sim = Simulator()
    cp, monitor = _populated_cp(sim)
    cp.start()
    sim.run_until(seconds(2.5))        # a few extraction ticks
    cp.stop()
    doc = capture_checkpoint(cp)

    sim2 = Simulator()
    fresh = small_monitor(histograms_enabled=True, forensics_enabled=True)
    cp2 = MonitorControlPlane(sim2, fresh)
    restore_control_plane(cp2, doc)

    assert set(cp2.flows) == set(cp.flows)
    for fid, flow in cp.flows.items():
        assert cp2.flows[fid] == flow
    assert cp2.alerts._active.keys() == cp.alerts._active.keys()
    assert len(cp2.alerts.history) == len(cp.alerts.history)
    for kind, samples in cp.flow_samples.items():
        assert cp2.flow_samples[kind] == samples
    assert cp2.aggregate_samples == cp.aggregate_samples
    assert cp2.reports_suppressed == cp.reports_suppressed
    assert cp2.degraded == cp.degraded
    # Cursors are parked for the first post-restart tick to window over
    # the true elapsed time.
    assert cp2._resume_cursors == cp.last_extraction_ns
    if cp.histograms is not None:
        assert np.array_equal(cp2.histograms.rtt_cumulative,
                              cp.histograms.rtt_cumulative)
        assert cp2.histograms.ticks == cp.histograms.ticks
    if cp.forensics is not None:
        assert cp2.forensics.index == cp.forensics.index
        assert cp2.forensics.extracted_pkts == cp.forensics.extracted_pkts


def test_checkpoint_document_is_json_round_trippable():
    sim = Simulator()
    cp, _ = _populated_cp(sim)
    cp.start()
    sim.run_until(seconds(1.5))
    cp.stop()
    doc = capture_checkpoint(cp, seq=3)
    wire = json.dumps(doc, sort_keys=True)
    back = json.loads(wire)
    assert back["seq"] == 3
    cp2 = MonitorControlPlane(Simulator(),
                              small_monitor(histograms_enabled=True, forensics_enabled=True))
    restore_control_plane(cp2, back)   # decoded JSON restores identically
    assert set(cp2.flows) == set(cp.flows)


# -- manager -------------------------------------------------------------------


def test_manager_rate_limits_by_min_interval(tmp_path):
    sim = Simulator()
    cp, _ = _populated_cp(sim)
    manager = CheckpointManager(CheckpointStore(str(tmp_path)),
                                min_interval_ns=500 * MS)
    manager.on_tick(cp)                # first capture always lands
    manager.on_tick(cp)                # same instant: rate-limited
    assert (manager.captures, manager.skipped) == (1, 1)
    sim.run_until(600 * MS)
    manager.on_tick(cp)
    assert (manager.captures, manager.skipped) == (2, 1)
    assert manager.age_ns(sim.now) == 0
    assert manager.store.latest()["seq"] == 1


def test_manager_resumes_numbering_from_the_store(tmp_path):
    # Regression: a fresh manager over a non-empty directory (a new run
    # sharing a checkpoint dir, or a restarted process) must continue
    # the numbering — restarting at 0 would leave a *stale* prior-run
    # checkpoint as the newest, and recovery would restore alien state.
    store = CheckpointStore(str(tmp_path))
    for seq in range(3):
        store.write(_doc(seq))
    manager = CheckpointManager(CheckpointStore(str(tmp_path)))
    assert manager.seq == 3
    cp, _ = _populated_cp()
    manager.on_tick(cp)
    assert manager.store.latest()["seq"] == 3


def test_manager_capture_on_every_destructive_step(tmp_path):
    from repro.resilience import checkpoint

    manager = checkpoint.install_manager(CheckpointManager(
        CheckpointStore(str(tmp_path), retain=2)))
    sim = Simulator()
    cp, _ = _populated_cp(sim)          # binds the installed manager
    assert cp._ckpt is manager
    cp.start()
    sim.run_until(seconds(2.5))
    cp.stop()
    assert manager.captures > 0
    assert len(manager.store.paths()) <= 2
    assert manager.store.latest()["seq"] == manager.seq - 1
