"""Measurement from outside the program: construction probes and the
per-layer trace.

Nothing here edits the program.  Both tools patch class attributes from
the benchmark's own files, before the workload builds anything, so
every bound method the program captures at construction or scheduling
time (``report_sink=archiver.sink``, ``sim.add_flush_hook(...)``, the
engine's heap entries) already refers to the patched attribute.

- :class:`Probe` (every run) records the objects the workload builds
  and the first simulated event.  Its hooks run once per construction,
  once per ``run_until`` call and once per shipped report; it reads no
  clock on any per-packet path.
- :class:`Tracer` (traced runs only) times each layer's entry points
  and splits host time into per-layer self time.

Neither enables ``repro.telemetry``, profiling, provenance or a fault
injector, so the monitor binds the same data path as an unobserved run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("netsim", "tcp", "p4", "cp", "perfsonar", "resilience",
          "validation")

#: (layer, module, attribute path) of every timed entry point.  A
#: callback the engine dispatches into a layer is one of its entry
#: points.  ``netsim``'s self time is what is left of ``run_until``
#: once the nested layers are taken out.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("netsim", "repro.netsim.engine", "Simulator.run_until"),
    ("netsim", "repro.netsim.host", "Host.send"),
    ("tcp", "repro.tcp.stack", "TcpHostStack.deliver"),
    ("tcp", "repro.tcp.stack", "TcpConnection._pace_fire"),
    ("tcp", "repro.tcp.stack", "TcpConnection._rto_expire"),
    ("tcp", "repro.tcp.stack", "TcpConnection._delack_fire"),
    ("tcp", "repro.tcp.stack", "TcpConnection.close"),
    ("tcp", "repro.tcp.apps", "Iperf3Client._start"),
    ("tcp", "repro.tcp.apps", "Iperf3Server._tick"),
    ("p4", "repro.core.batch", "BatchKernel.flush"),
    ("p4", "repro.p4.pipeline", "P4Pipeline.process"),
    ("cp", "repro.core.control_plane", "MonitorControlPlane._tick"),
    ("cp", "repro.core.control_plane", "MonitorControlPlane._on_long_flow"),
    ("cp", "repro.core.control_plane", "MonitorControlPlane._on_termination"),
    ("cp", "repro.core.control_plane", "MonitorControlPlane._on_microburst"),
    ("cp", "repro.core.histograms", "HistogramExtractor._tick"),
    ("cp", "repro.core.forensics", "ForensicsExtractor._tick"),
    ("perfsonar", "repro.perfsonar.archiver", "Archiver.sink"),
    ("perfsonar", "repro.perfsonar.logstash", "TcpInputPlugin.ingest_line"),
    ("perfsonar", "repro.perfsonar.logstash", "LogstashPipeline.process"),
    ("resilience", "repro.resilience.checkpoint", "CheckpointManager.capture"),
    ("resilience", "repro.resilience.checkpoint", "CheckpointStore.write"),
    ("resilience", "repro.resilience.checkpoint", "CheckpointStore.latest"),
    ("resilience", "repro.resilience.checkpoint", "restore_control_plane"),
    ("resilience", "repro.resilience.delivery", "ResilientShipper.__call__"),
    ("resilience", "repro.resilience.delivery", "ResilientShipper.kick"),
    ("resilience", "repro.resilience.delivery", "ResilientShipper._drain"),
    ("resilience", "repro.resilience.delivery", "ResilientShipper.restore_state"),
    ("resilience", "repro.resilience.breaker", "CircuitBreaker.restore_state"),
    ("resilience", "repro.resilience.supervisor", "Supervisor._probe"),
    ("resilience", "repro.resilience.watchdog", "ExtractionWatchdog._check"),
    ("validation", "repro.validation.checker", "DifferentialChecker.check"),
)

#: Entry points whose inclusive time forms a per-layer metric.
TICKS = ("MonitorControlPlane._tick", "HistogramExtractor._tick",
         "ForensicsExtractor._tick")
RESTORES = ("CheckpointStore.latest", "restore_control_plane",
            "ResilientShipper.restore_state", "CircuitBreaker.restore_state")


def _resolve(module: str, path: str):
    """(owner, attribute name) of ``module:path``."""
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def _patch(module: str, path: str, make: Callable[[Callable], Callable]) -> None:
    owner, name = _resolve(module, path)
    original = owner.__dict__[name]
    if not callable(original):
        raise TypeError(f"{module}:{path} is not a plain function")
    setattr(owner, name, functools.wraps(original)(make(original)))


class Tracer:
    """Per-layer self time from timed entry points.

    A call into a layer other than the current one opens a frame; its
    self time is its duration minus the frames it opened.  A call into
    the current layer is only counted and timed inclusively (its time
    stays in the enclosing frame's self time)."""

    __slots__ = ("layer", "child_ns", "self_ns", "spans")

    def __init__(self) -> None:
        self.layer: Optional[str] = None
        self.child_ns = 0
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: entry point -> [calls, inclusive ns]
        self.spans: Dict[str, List[int]] = {
            path: [0, 0] for _, _, path in ENTRY_POINTS}

    def reset(self) -> None:
        """Zero every tally (the run window starts at the first event)."""
        for layer in self.self_ns:
            self.self_ns[layer] = 0
        for span in self.spans.values():
            span[0] = span[1] = 0

    def install(self) -> None:
        for layer, module, path in ENTRY_POINTS:
            _patch(module, path,
                   lambda fn, layer=layer, path=path: self._wrap(layer, path, fn))

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        span = self.spans[name]
        self_ns = self.self_ns
        pcn = time.perf_counter_ns

        def traced(*args, **kwargs):
            outer = tracer.layer
            t0 = pcn()
            if outer == layer:
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[0] += 1
                    span[1] += pcn() - t0
            outer_child = tracer.child_ns
            tracer.layer = layer
            tracer.child_ns = 0
            try:
                return fn(*args, **kwargs)
            finally:
                dt = pcn() - t0
                self_ns[layer] += dt - tracer.child_ns
                tracer.child_ns = outer_child + dt
                tracer.layer = outer
                span[0] += 1
                span[1] += dt

        return traced

    def calls(self, *names: str) -> int:
        return sum(self.spans[n][0] for n in names)

    def inclusive_s(self, *names: str) -> float:
        return sum(self.spans[n][1] for n in names) / 1e9


#: Classes whose instances the probe records at construction.
PROBED = (
    ("repro.netsim.engine", "Simulator"),
    ("repro.netsim.link", "Port"),
    ("repro.tcp.stack", "TcpConnection"),
    ("repro.core.monitor", "P4Monitor"),
    ("repro.core.control_plane", "MonitorControlPlane"),
    ("repro.perfsonar.archiver", "Archiver"),
    ("repro.resilience.delivery", "ResilientShipper"),
)


def bound_path_reason(monitor) -> str:
    """Which P4 path a monitor bound, and why (the engagement rule of
    ``P4Monitor.__init__``, read back right after construction)."""
    if monitor.kernel is not None:
        return "batched kernel: no per-packet hook bound"
    from repro import telemetry
    from repro.resilience import faults
    from repro.telemetry import profiling, provenance

    reasons = [why for cond, why in (
        (monitor.sim is None, "no simulator"),
        (not monitor.config.batched_path, "batched_path disabled"),
        (monitor.rate_meter is not None, "rate meter enabled"),
        (telemetry.enabled(), "telemetry enabled"),
        (profiling.profiler() is not None, "profiler installed"),
        (provenance.tracer() is not None, "provenance tracer enabled"),
        (faults.injector() is not None, "fault injector armed"),
    ) if cond]
    return "scalar pipeline: " + (", ".join(reasons) or "unknown")


class Probe:
    """Records what the workload builds and when simulation starts."""

    def __init__(self) -> None:
        self.built: Dict[str, list] = defaultdict(list)
        self.bound_reasons: List[str] = []
        self.first_event: Optional[float] = None
        self.reports_shipped = 0
        self.ckpt_bytes = 0

    def install(self, tracer: Optional[Tracer] = None) -> None:
        """Install the probes; with a tracer, also the timed entry
        points.  Probes wrap outside the timed entry points, so the
        first-event mark is taken before ``run_until``'s frame opens."""
        if tracer is not None:
            tracer.install()
            _patch("repro.resilience.checkpoint", "CheckpointStore.write",
                   self._count_bytes)
        for module, cls in PROBED:
            _patch(module, f"{cls}.__init__",
                   lambda fn, cls=cls: self._record(cls, fn))
        _patch("repro.core.control_plane", "MonitorControlPlane._ship",
               self._count_ship)
        _patch("repro.netsim.engine", "Simulator.run_until",
               lambda fn: self._mark_first_event(fn, tracer))

    def _record(self, cls: str, init: Callable) -> Callable:
        built = self.built[cls]

        def record(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            built.append(obj)
            if cls == "P4Monitor":
                self.bound_reasons.append(bound_path_reason(obj))

        return record

    def _count_ship(self, ship: Callable) -> Callable:
        def count(cp, report):
            suppressed = cp.reports_suppressed
            ship(cp, report)
            if cp.report_sink is not None and cp.reports_suppressed == suppressed:
                self.reports_shipped += 1

        return count

    def _count_bytes(self, write: Callable) -> Callable:
        def count(store, doc):
            path = write(store, doc)
            self.ckpt_bytes += os.path.getsize(path)
            return path

        return count

    def _mark_first_event(self, run_until: Callable,
                          tracer: Optional[Tracer]) -> Callable:
        def mark(sim, time_ns):
            if self.first_event is None:
                self.first_event = time.monotonic()
                self.ckpt_bytes = 0
                if tracer is not None:
                    tracer.reset()
            return run_until(sim, time_ns)

        return mark

    # -- reading the built objects after the run --------------------------------

    def counts(self) -> Dict[str, float]:
        """Deterministic work counts of the finished run."""
        b = self.built
        sims, monitors = b["Simulator"], b["P4Monitor"]
        conns, archivers = b["TcpConnection"], b["Archiver"]
        segments = sum(c.stats.segments_sent for c in conns)
        retx = sum(c.stats.retransmissions for c in conns)
        latest_cp = {}
        for cp in b["MonitorControlPlane"]:
            latest_cp[id(cp.monitor)] = cp
        return {
            "netsim.events": sum(s.events_run for s in sims),
            "netsim.queue_drops": sum(p.drops for p in b["Port"]),
            "netsim.event_queue_hwm": max((s.queue_hwm for s in sims), default=0),
            "tcp.segments": segments,
            "tcp.retransmissions": retx,
            "tcp.first_tx_frac": (segments - retx) / segments if segments else 0.0,
            "p4.copies": sum(m.copies_ingress + m.copies_egress for m in monitors),
            "p4.batched": int(bool(monitors)
                              and all(m.kernel is not None for m in monitors)),
            "p4.register_ops": sum(a.ops for m in monitors
                                   for a in m.program.registers.values()),
            "p4.digests_dropped": sum(d.dropped for m in monitors
                                      for d in m.program.digests.values()),
            "cp.register_reads": sum(cp.runtime.register_reads
                                     for cp in b["MonitorControlPlane"]),
            "cp.reports_shipped": self.reports_shipped,
            "cp.flows_tracked": sum(len(cp.flows) for cp in latest_cp.values()),
            "perfsonar.docs_indexed": sum(a.output.documents_written
                                          for a in archivers),
            "resilience.ship_retries": sum(s.retries_total
                                           for s in b["ResilientShipper"]),
            "resilience.dedup_dropped": sum(a.output.duplicates_dropped
                                            for a in archivers),
        }

    def archives(self) -> list:
        return [a.store for a in self.built["Archiver"]]


def layer_metrics(tracer: Tracer, window: Dict[str, int],
                  counts: Dict[str, float], ckpt_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run: self times inside the run
    window (``window``, the self-time snapshot taken when the workload
    returned its result) and the ratios built on them; a rate with a
    zero base reads 0.  ``validation.check_s`` is the checker's whole
    self time, which for most workloads falls after the window."""
    s = {layer: ns / 1e9 for layer, ns in window.items()}

    def per(value: float, base: float, scale: float) -> float:
        return value / base * scale if base else 0.0

    copies = counts["p4.copies"]
    flushes = tracer.calls("BatchKernel.flush")
    ticks = tracer.calls(*TICKS)
    docs_in = tracer.calls("Archiver.sink")
    writes = tracer.calls("CheckpointStore.write")
    ckpt_s = tracer.inclusive_s("CheckpointManager.capture")
    return {
        "netsim.self_s": s["netsim"],
        "netsim.ns_per_event": per(s["netsim"], counts["netsim.events"], 1e9),
        "tcp.self_s": s["tcp"],
        "tcp.us_per_segment": per(s["tcp"], counts["tcp.segments"], 1e6),
        "p4.self_s": s["p4"],
        "p4.ns_per_copy": per(s["p4"], copies, 1e9),
        "p4.flushes": flushes,
        "p4.copies_per_flush": per(copies, flushes, 1.0),
        "cp.ticks": ticks,
        "cp.self_s": s["cp"],
        "cp.ms_per_tick": per(s["cp"], ticks, 1e3),
        "perfsonar.docs_in": docs_in,
        "perfsonar.self_s": s["perfsonar"],
        "perfsonar.us_per_doc": per(s["perfsonar"], docs_in, 1e6),
        "perfsonar.indexed_frac": per(counts["perfsonar.docs_indexed"],
                                      docs_in, 1.0),
        "resilience.self_s": s["resilience"],
        "resilience.ckpt_writes": writes,
        "resilience.ckpt_s": ckpt_s,
        "resilience.ckpt_ms_per_write": per(ckpt_s, writes, 1e3),
        "resilience.ckpt_mb": ckpt_bytes / 1e6,
        "resilience.restore_s": tracer.inclusive_s(*RESTORES),
        "validation.check_s": tracer.self_ns["validation"] / 1e9,
    }
