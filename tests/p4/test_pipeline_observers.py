"""Observed pipeline bodies change nothing the data plane computes.

One packet stream runs through a plain pipeline and through pipelines
built under every observer combination (telemetry, the phase profiler
at block and stage detail, the provenance tracer, and their mixes).
Each observed run must return the same headers, count the same
packets and leave the same register/sketch state as the plain run,
while the observers still see the traversal: stage counters, phase
rows and ``p4`` provenance events.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.flow_table import PORT_INGRESS_TAP
from repro.core.queue_monitor import PORT_EGRESS_TAP
from repro.netsim.packet import Packet, make_ack_packet, make_data_packet
from repro.p4.pipeline import P4Pipeline, PipelineStage, StandardMetadata
from repro.telemetry import profiling, provenance

from tests.core.helpers import FT, small_monitor

COMBOS = {
    "telemetry": dict(telemetry=True),
    "profiler-block": dict(profiler="block"),
    "profiler-stage": dict(profiler="stage"),
    "provenance": dict(provenance=True),
    "telemetry+provenance": dict(telemetry=True, provenance=True),
    "telemetry+profiler-stage": dict(telemetry=True, profiler="stage"),
    "all": dict(telemetry=True, profiler="stage", provenance=True),
}


class DropEveryFifth(PipelineStage):
    """Drops packets by IP id, so stage drops land identically in every
    run (the monitor's own stages never drop)."""

    name = "drop5"

    def process(self, hdr, meta):
        if hdr.ip_id % 5 == 0:
            meta.drop = True


def _stream():
    """(packet, port, t_ns): TAP-paired data packets, ACKs, a raw-bytes
    copy (no trace uid), a non-TCP packet and garbage bytes (parser
    rejects)."""
    events = []
    seq = 1
    for i in range(60):
        t = 1000 + i * 1_000_000
        pkt = make_data_packet(FT, seq=seq, payload_len=1000, ip_id=i + 1)
        events.append((pkt, PORT_INGRESS_TAP, t))
        events.append((pkt, PORT_EGRESS_TAP, t + 200_000))
        ack = make_ack_packet(FT.reversed(), ack=seq + 1000)
        events.append((ack, PORT_INGRESS_TAP, t + 5_000_000))
        if i % 10 == 3:
            events.append((pkt.to_bytes(), PORT_INGRESS_TAP, t + 300_000))
            events.append((Packet(1, 2, 3, 4, proto=17, payload_len=10),
                           PORT_INGRESS_TAP, t + 400_000))
            events.append((b"\x00" * 10, PORT_INGRESS_TAP, t + 500_000))
        seq += 1000
    return events


def _run(observers):
    """Build a monitor under ``observers``, drive the stream, and return
    (pipeline, outputs, state, observer handles)."""
    tel = observers.get("telemetry", False)
    detail = observers.get("profiler")
    traced = observers.get("provenance", False)
    if tel:
        telemetry.enable()
    prof = profiling.enable(mode="phase", detail=detail) if detail else None
    tracer = provenance.enable() if traced else None
    try:
        mon = small_monitor()
        pipe = mon.pipeline
        pipe.add_egress(DropEveryFifth())
        outputs = []
        for pkt, port, t in _stream():
            meta = StandardMetadata(ingress_port=port, ingress_timestamp_ns=t)
            outputs.append(pipe.process(pkt, meta))
        snap = telemetry.snapshot() if tel else None
        state = mon.program.state_snapshot()
        return pipe, outputs, state, snap, prof, tracer
    finally:
        provenance.disable()
        profiling.disable()
        telemetry.disable()
        telemetry.reset()


@pytest.fixture(scope="module")
def plain():
    return _run({})


def test_plain_pipeline_keeps_class_body(plain):
    pipe = plain[0]
    assert "process" not in pipe.__dict__
    assert type(pipe).process is P4Pipeline.process


@pytest.mark.parametrize("combo", sorted(COMBOS))
def test_observed_pipeline_matches_plain(plain, combo):
    observers = COMBOS[combo]
    pipe, outputs, state, snap, prof, tracer = _run(observers)
    p_pipe, p_outputs, p_state = plain[0], plain[1], plain[2]

    assert "process" in pipe.__dict__  # an observed body was bound
    assert outputs == p_outputs
    assert None in outputs and any(o is not None for o in outputs)
    assert pipe.packets_in == p_pipe.packets_in == len(_stream())
    assert pipe.packets_dropped == p_pipe.packets_dropped
    assert p_pipe.packets_dropped > 0
    assert state.keys() == p_state.keys()
    for key, arr in p_state.items():
        assert np.array_equal(state[key], arr), key

    stage_names = [s.name for s in pipe.ingress + pipe.egress]
    if observers.get("telemetry"):
        by_name = {m["name"]: m for m in snap["metrics"]}
        pkts = {s["labels"]["stage"]: s["value"]
                for s in by_name["repro_p4_stage_packets_total"]["series"]}
        drops = {s["labels"]["stage"]: s["value"]
                 for s in by_name["repro_p4_stage_drops_total"]["series"]}
        assert pkts["parser"] == p_pipe.packets_in
        assert set(stage_names) <= set(pkts)
        assert sum(drops.values()) == p_pipe.packets_dropped
        assert drops["parser"] > 0 and drops["drop5"] > 0
        latency = by_name["repro_p4_packet_ns"]["series"][0]
        assert latency["count"] == p_pipe.packets_in

    if prof is not None:
        report = prof.report()
        phases = {r.phase for r in report.rows}
        assert "p4.process" in phases
        assert prof.depth() == 0
        proc = report.row("p4.process")
        assert proc.cum_ns >= proc.self_ns
        assert report.sources.get("p4.register_ops", 0) > 0
        if observers["profiler"] == "stage":
            assert "p4.parser" in phases
            assert {"p4.stage/" + n for n in stage_names} <= phases
        else:
            assert not any(p.startswith("p4.stage/") for p in phases)
            assert prof.nested_ns > 0

    if tracer is not None:
        events = tracer.events()
        kinds = {ev.kind for ev in events if ev.layer == "p4"}
        assert {"stage", "stage-drop", "parser-accept",
                "parser-reject"} <= kinds
        assert {"p4", "register"} <= {ev.layer for ev in events}
        assert len(tracer.fine) > 0
        assert not tracer.in_packet


def test_stage_counters_follow_traversal_order():
    """Stage packet counters label the stage that actually ran, even when
    an ingress stage is added after the egress stages."""
    telemetry.enable()
    try:
        mon = small_monitor()
        mon.pipeline.add_ingress(DropEveryFifth())
        for pkt, port, t in _stream():
            mon.pipeline.process(pkt, StandardMetadata(
                ingress_port=port, ingress_timestamp_ns=t))
        series = telemetry.snapshot()["metrics"]
        pkts = {s["labels"]["stage"]: s["value"] for m in series
                if m["name"] == "repro_p4_stage_packets_total"
                for s in m["series"]}
    finally:
        telemetry.disable()
        telemetry.reset()
    accepted = mon.pipeline.parser.accepted
    dropped = mon.pipeline.packets_dropped - mon.pipeline.parser.rejected
    assert dropped > 0
    assert pkts["flow_table"] == pkts["drop5"] == accepted
    assert pkts["queue_monitor"] == pkts["microburst"] == accepted - dropped
