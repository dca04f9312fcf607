"""The active fault injector and the delivery-error taxonomy.

One :class:`FaultInjector` can be installed process-globally
(:func:`install` / :func:`uninstall`), the same pattern
:mod:`repro.telemetry.provenance` uses for its tracer: components on the
report path bind :func:`injector` **at construction** and keep the
handle, so when no injector is installed the hot path pays a single
``is None`` test or binds the direct body outright
(``benchmarks/test_disabled_cost.py`` asserts the bindings).

Every decision the injector makes is a pure function of (schedule,
seed, call order); the simulation is deterministic, so chaos runs are
byte-reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from repro import telemetry
from repro.resilience.schedule import FaultSchedule


# -- delivery-error taxonomy ---------------------------------------------------


class DeliveryError(Exception):
    """Base of every transient report-path failure.  The shipper
    retries these; anything else is a bug and propagates."""


class ArchiveUnavailable(DeliveryError):
    """The OpenSearch-like store refused the write (archiver outage)."""


class BackpressureError(DeliveryError):
    """Logstash's TCP input is stalled / draining too slowly."""


class ConnectionLostError(DeliveryError):
    """The control-plane → Logstash TCP session dropped mid-send."""


class DeliveryTimeout(DeliveryError):
    """The report was lost in transit: no acknowledgement arrived."""


class BreakerOpen(DeliveryError):
    """The circuit breaker is open; the send was not attempted."""


class DeferredDelivery(DeliveryError):
    """Transit reordering: retry this report after ``delay_ns`` (it is
    *not* acknowledged until actually delivered)."""

    def __init__(self, delay_ns: int):
        super().__init__(f"deferred {delay_ns} ns")
        self.delay_ns = delay_ns


# -- the injector --------------------------------------------------------------


class FaultInjector:
    """Deterministic, schedule-driven fault decisions.

    The injector owns its clock: :meth:`bind_clock` attaches the
    simulator's ``lambda: sim.now`` once the scenario exists, so hook
    sites (store, Logstash input, control plane) need no clock of their
    own.  Before binding, the clock reads 0 — construction-time calls
    see only faults whose window covers t=0.
    """

    def __init__(self, schedule: FaultSchedule,
                 clock: Optional[Callable[[], int]] = None) -> None:
        self.schedule = schedule
        self._clock: Callable[[], int] = clock or (lambda: 0)
        # One RNG per decision site, seeded from the schedule seed, so
        # adding a new site never perturbs existing draws.
        self._transport_rng = random.Random(f"chaos:{schedule.seed}:transport")
        self.injections: Dict[str, int] = {}
        self._tel_injections = None
        if telemetry.enabled():
            self._tel_injections = telemetry.counter(
                "repro_faults_injected_total",
                "fault decisions taken by the active injector, per kind",
                labels=("kind",))

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock

    def _count(self, kind: str) -> None:
        self.injections[kind] = self.injections.get(kind, 0) + 1
        if self._tel_injections is not None:
            self._tel_injections.labels(kind).inc()

    # -- window-gated decisions ------------------------------------------------

    def archiver_down(self) -> bool:
        """True while an ``archiver_outage`` window is active (the store
        raises :class:`ArchiveUnavailable` on write)."""
        if self.schedule.active("archiver_outage", self._clock()):
            self._count("archiver_outage")
            return True
        return False

    def logstash_stalled(self) -> bool:
        """True while a ``logstash_stall`` window is active."""
        if self.schedule.active("logstash_stall", self._clock()):
            self._count("logstash_stall")
            return True
        return False

    def cp_tick_stalled(self, metric: str) -> bool:
        """True while a ``cp_stall`` window covering ``metric`` is active."""
        for w in self.schedule.active("cp_stall", self._clock()):
            if w.metric is None or w.metric == metric:
                self._count("cp_stall")
                return True
        return False

    def clock_skew_ns(self) -> int:
        """Summed timestamp offset of the active ``clock_skew`` windows."""
        skew = 0.0
        for w in self.schedule.active("clock_skew", self._clock()):
            skew += w.offset_ms * 1e6
        if skew:
            self._count("clock_skew")
        return int(skew)

    def cp_crashed(self) -> bool:
        """True while a ``cp_crash`` window is active — the supervisor's
        health probe reads this as "the control-plane process is dead"
        (kills a live stack, fails restart attempts)."""
        if self.schedule.active("cp_crash", self._clock()):
            self._count("cp_crash")
            return True
        return False

    # -- per-attempt transport fate --------------------------------------------

    def transport_fate(self) -> Optional[str]:
        """Decide one delivery attempt's fate.

        Raises :class:`ConnectionLostError`, :class:`DeliveryTimeout` or
        :class:`DeferredDelivery` when the attempt fails; returns
        ``"duplicate"`` when the report must be delivered twice; returns
        None for a clean send.
        """
        now = self._clock()
        if self.schedule.active("tcp_disconnect", now):
            self._count("tcp_disconnect")
            raise ConnectionLostError("control-plane TCP session dropped")
        rng = self._transport_rng
        for w in self.schedule.active("report_drop", now):
            if rng.random() < w.probability:
                self._count("report_drop")
                raise DeliveryTimeout("report lost in transit (no ack)")
        for w in self.schedule.active("report_reorder", now):
            if rng.random() < w.probability:
                self._count("report_reorder")
                raise DeferredDelivery(int(w.delay_ms * 1e6))
        for w in self.schedule.active("report_duplicate", now):
            if rng.random() < w.probability:
                self._count("report_duplicate")
                return "duplicate"
        return None


# -- process-global installation ----------------------------------------------

_injector: Optional[FaultInjector] = None


def install(inj: FaultInjector) -> FaultInjector:
    """Make ``inj`` the active injector.  Components constructed *after*
    this call bind it; already-built components stay fault-free (the
    same construction-time-binding contract as telemetry/provenance)."""
    global _injector
    _injector = inj
    return inj


def uninstall() -> None:
    global _injector
    _injector = None


def injector() -> Optional[FaultInjector]:
    """The active injector, or None (the default: no faults)."""
    return _injector
