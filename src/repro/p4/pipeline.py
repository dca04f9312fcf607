"""Pipeline scaffolding: standard metadata and the ingress/egress block
structure of a P4 target (§2.3: parser → ingress → egress → deparser).

The monitor program (:mod:`repro.core.monitor`) subclasses
:class:`PipelineStage` for each logical table/ALU group; the
:class:`P4Pipeline` runs them in order, short-circuiting when a stage
drops the packet.  This keeps each concern (flow tracking, RTT, queue,
microburst, limiter) in its own testable unit, mirroring how the P4
source would be organised into control blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro import telemetry
from repro.p4.parser import HeaderParser, ParsedHeaders
from repro.telemetry import profiling, provenance

_pcn = time.perf_counter_ns


@dataclass
class StandardMetadata:
    """Per-packet intrinsic metadata, as a P4 target provides it."""

    ingress_port: int = 0
    ingress_timestamp_ns: int = 0
    # For egress-TAP copies: which tapped queue the packet left through.
    egress_port_id: int = 0
    # Populated by the queue-monitor stage for egress-TAP copies: the time
    # the packet spent inside the tapped legacy switch.
    queue_delay_ns: int = -1
    # Monitor-specific scratch shared between stages (P4 user metadata).
    flow_id: int = -1
    rev_flow_id: int = -1
    flow_slot: int = -1
    is_long_flow: bool = False
    drop: bool = False


class PipelineStage:
    """One control block.  Override :meth:`process`."""

    name = "stage"

    def process(self, hdr: ParsedHeaders, meta: StandardMetadata) -> None:
        raise NotImplementedError


class P4Pipeline:
    """Parser + ordered ingress stages + ordered egress stages."""

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self.parser = HeaderParser()
        self.ingress: List[PipelineStage] = []
        self.egress: List[PipelineStage] = []
        self.packets_in = 0
        self.packets_dropped = 0
        self._trace = provenance.tracer()
        _prof = profiling.profiler()
        self._prof = _prof if (_prof is not None and _prof.phases) else None
        self._tel_stage_pkts = None
        if telemetry.enabled():
            self._tel_stage_pkts = telemetry.counter(
                "repro_p4_stage_packets_total",
                "packets entering each pipeline stage",
                labels=("pipeline", "stage"))
            self._tel_stage_drops = telemetry.counter(
                "repro_p4_stage_drops_total",
                "packets dropped by each stage (parser rejects included)",
                labels=("pipeline", "stage"))
            self._tel_latency = telemetry.histogram(
                "repro_p4_packet_ns",
                "wall-clock processing time per packet through the pipeline",
                labels=("pipeline",)).labels(name)
            self._tel_parser = self._tel_stage_pkts.labels(name, "parser")
            self._tel_stage_cells: List = []
        # Direct-body binding: process() IS the plain body.  When any
        # observer is live, construction shadows it with the one observed
        # body as an instance attribute, so disabled runs pay zero
        # per-packet guards and keep plain class dispatch.  Subclasses
        # overriding process() keep their override.
        if self._prof is not None:
            self._proc_cell = self._prof.cell("p4.process")
        if (type(self).process is P4Pipeline.process
                and (self._trace is not None or self._prof is not None
                     or self._tel_stage_pkts is not None)):
            self.process = self._process_observed

    def _tel_restage(self) -> None:
        # One counter cell per stage, in traversal order (ingress then
        # egress), however the stages were added.
        self._tel_stage_cells = [self._tel_stage_pkts.labels(self.name, s.name)
                                 for s in self.ingress + self.egress]

    def add_ingress(self, stage: PipelineStage) -> None:
        self.ingress.append(stage)
        if self._tel_stage_pkts is not None:
            self._tel_restage()

    def add_egress(self, stage: PipelineStage) -> None:
        self.egress.append(stage)
        if self._tel_stage_pkts is not None:
            self._tel_restage()

    def process(self, packet, meta: StandardMetadata) -> Optional[ParsedHeaders]:
        """Run one packet through parse → ingress → egress.

        Returns the parsed headers (None if the parser rejected or a
        stage dropped it).  This is the uninstrumented body: when any
        instrumentation is on, construction shadows it with the right
        twin as an instance attribute, so the disabled hot path is
        byte-for-byte this method with plain class dispatch.
        """
        self.packets_in += 1
        hdr = self.parser.parse(packet)
        if hdr is None:
            self.packets_dropped += 1
            return None
        for stage in self.ingress:
            stage.process(hdr, meta)
            if meta.drop:
                self.packets_dropped += 1
                return None
        for stage in self.egress:
            stage.process(hdr, meta)
            if meta.drop:
                self.packets_dropped += 1
                return None
        return hdr

    def _process_observed(self, packet, meta: StandardMetadata) -> Optional[ParsedHeaders]:
        """:meth:`process` with every live observer attached: telemetry
        stage counters and a latency histogram; the phase profiler's
        ``p4.process`` cell (block detail) or nested ``p4.parser`` and
        ``p4.stage/<name>`` frames (stage detail); and the provenance
        packet context, so the parser, stages and registers attribute
        their events to a traced packet."""
        t0 = _pcn()
        trace = self._trace
        if trace is not None and getattr(packet, "uid", None) is not None:
            trace.begin_packet(packet, meta.ingress_timestamp_ns)
            rec = trace._ctx_rec
        else:
            trace = None
            rec = False
        prof = self._prof
        frames = prof if prof is not None and prof.detail_stage else None
        tel = self._tel_stage_pkts is not None
        try:
            if not (tel or rec or frames is not None):
                # Nothing watches the parser or the stages (block-detail
                # profiling, unsampled traced packets): the plain body
                # walks them.
                return P4Pipeline.process(self, packet, meta)
            if frames is not None:
                frames.begin("p4.process")
            self.packets_in += 1
            if tel:
                self._tel_parser.inc()
            if frames is not None:
                frames.begin("p4.parser")
            try:
                hdr = self.parser.parse(packet)
            finally:
                if frames is not None:
                    frames.end()
            if hdr is None:
                self.packets_dropped += 1
                if tel:
                    self._tel_stage_drops.labels(self.name, "parser").inc()
                    self._tel_latency.observe(_pcn() - t0)
                return None
            i = 0
            for block in (self.ingress, self.egress):
                for stage in block:
                    if tel:
                        self._tel_stage_cells[i].inc()
                    i += 1
                    if rec:
                        trace.event("p4", "stage", stage.name)
                    if frames is not None:
                        frames.begin("p4.stage/" + stage.name)
                    try:
                        stage.process(hdr, meta)
                    finally:
                        if frames is not None:
                            frames.end()
                    if meta.drop:
                        self.packets_dropped += 1
                        if rec:
                            trace.event("p4", "stage-drop", stage.name)
                        if tel:
                            self._tel_stage_drops.labels(self.name, stage.name).inc()
                            self._tel_latency.observe(_pcn() - t0)
                        return None
            if tel:
                self._tel_latency.observe(_pcn() - t0)
            return hdr
        finally:
            if trace is not None:
                trace.end_packet()
            if frames is not None:
                frames.end()
            elif prof is not None:
                # Block detail never nests frames inside p4.process, and
                # packets only flow under tap/switch engine events (never
                # inside an open cp.extract/archiver frame), so the frame
                # stack is skipped: the cached cell is charged directly.
                dt = _pcn() - t0
                cell = self._proc_cell
                cell[0] += dt
                cell[1] += dt
                cell[2] += 1
                prof.nested_ns += dt
