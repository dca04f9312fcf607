"""Discrete-event engine.

A single :class:`Simulator` owns the clock (integer nanoseconds) and a
binary-heap event queue.  Components schedule callbacks with
:meth:`Simulator.at` / :meth:`Simulator.after`; timers can be cancelled
through the returned :class:`Event` handle.

Heap entries are plain tuples ``(time_ns, seq, fn, args, handle)``: the
strictly increasing sequence number makes ``(time_ns, seq)`` unique, so
tuple comparison never reaches the third element and sifting stays in C
(no per-comparison ``Event.__lt__`` dispatch).  ``handle`` is the
:class:`Event` cancellation token, or ``None`` for the fire-and-forget
:meth:`Simulator.post` fast path the link/port completion events use.

Batch consumers (the batched P4 monitor path) register drain callbacks
via :meth:`Simulator.add_flush_hook`; the engine invokes them whenever a
``run_until``/``run`` drain completes, so state buffered across events
is settled before control returns to the caller.
"""

from __future__ import annotations

import heapq
import itertools
import sys
import time
from typing import Any, Callable, Optional

from repro import telemetry
from repro.telemetry import profiling, provenance


class Event:
    """Handle for a scheduled callback.  ``cancel()`` is O(1) (lazy removal)."""

    __slots__ = ("time_ns", "seq", "fn", "args", "cancelled")

    def __init__(self, time_ns: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time_ns = time_ns
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; the engine skips it when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:  # heap tie-breaking
        return (self.time_ns, self.seq) < (other.time_ns, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time_ns}ns, fn={getattr(self.fn, '__qualname__', self.fn)}, {state})"


class PeriodicEvent:
    """Handle for a self-rescheduling timer created by :meth:`Simulator.every`.

    The callback fires every ``interval_ns`` until ``cancel()``; cancelling
    from inside the callback stops the timer cleanly (no further firings).

    The next firing is armed *before* the callback runs.  That ordering is
    what makes the timer survive re-entrancy: a callback that advances the
    clock (a nested ``run_until``) still sees every intermediate firing at
    ``t0 + k*interval`` instead of silently skipping them and drifting,
    and a ``cancel()`` issued anywhere inside the callback (directly or
    from an event executed by a nested run) kills the already-scheduled
    next occurrence.
    """

    __slots__ = ("sim", "interval_ns", "fn", "args", "cancelled", "_event")

    def __init__(self, sim: "Simulator", interval_ns: int,
                 fn: Callable[..., Any], args: tuple):
        self.sim = sim
        self.interval_ns = interval_ns
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._event: Optional[Event] = None

    def _fire(self) -> None:
        if self.cancelled:
            return
        self._event = self.sim.after(self.interval_ns, self._fire)
        self.fn(*self.args)

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()


class Simulator:
    """Nanosecond-resolution discrete-event simulator.

    Events at equal timestamps run in FIFO scheduling order (a strictly
    increasing sequence number breaks ties), which makes runs fully
    deterministic for a fixed seed.
    """

    def __init__(self) -> None:
        self.now: int = 0
        # (time_ns, seq, fn, args, handle-or-None) tuples; see module doc.
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._events_run = 0
        self._running = False
        self._flush_hooks: list[Callable[[], None]] = []
        #: Deepest the queue has ever been (scheduler introspection —
        #: `repro_sim_event_queue_hwm`).  Tracked unconditionally: the
        #: cost is one compare per schedule, off the dispatch hot loop.
        self.queue_hwm = 0
        # Profiling: when phase accounting is live, run()/run_until()
        # dispatch through the profiled drain, which charges each event
        # to a per-callback cell (one perf_counter_ns per event, timestamps
        # chained).  Disabled cost is this one binding.
        _prof = profiling.profiler()
        if _prof is not None:
            _prof.bind_clock(self)
        self._prof = _prof if (_prof is not None and _prof.phases) else None
        # Telemetry stays out of the event loop: counters are pushed once
        # per run()/run_until() call, and queue depth is pulled at
        # snapshot time by a collector (near-zero cost when disabled).
        # Provenance: components built around this simulator (ports,
        # links, switches, taps) pick up the tracer from here, so one
        # enable() before construction wires the whole topology.
        self.trace = provenance.tracer()
        self._tel_events = None
        if telemetry.enabled():
            self._tel_events = telemetry.counter(
                "repro_netsim_events_total", "events dispatched by the engine")
            self._tel_depth = telemetry.histogram(
                "repro_netsim_queue_depth", "event-queue depth sampled at "
                "each run()/run_until() return", buckets=telemetry.SIZE_BUCKETS)
            pending_gauge = telemetry.gauge(
                "repro_netsim_pending_events", "live events still queued")
            telemetry.registry().add_collector(
                lambda _reg, sim=self: pending_gauge.set(sim.pending))
            # Scheduler introspection (repro_sim_*): queue pressure the
            # watch view surfaces.  The hwm counter is synced to the
            # monotone queue_hwm attribute at collect time.
            sim_pending = telemetry.gauge(
                "repro_sim_pending_events",
                "live events queued in the scheduler")
            sim_hwm = telemetry.counter(
                "repro_sim_event_queue_hwm",
                "event-queue high-water mark (deepest queue seen)")
            hwm_seen = [0]

            def _sim_stats(_reg, sim=self) -> None:
                sim_pending.set(sim.pending)
                delta = sim.queue_hwm - hwm_seen[0]
                if delta > 0:
                    sim_hwm.inc(delta)
                    hwm_seen[0] = sim.queue_hwm

            telemetry.registry().add_collector(_sim_stats)

    def _tel_flush(self, executed_before: int) -> None:
        self._tel_events.inc(self._events_run - executed_before)
        self._tel_depth.observe(len(self._heap))

    # -- scheduling --------------------------------------------------------

    def at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time_ns``."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule in the past: t={time_ns} < now={self.now}"
            )
        ev = Event(time_ns, next(self._seq), fn, args)
        heapq.heappush(self._heap, (time_ns, ev.seq, fn, args, ev))
        if len(self._heap) > self.queue_hwm:
            self.queue_hwm = len(self._heap)
        return ev

    def after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay_ns`` nanoseconds from now."""
        if delay_ns < 0:
            raise ValueError(f"negative delay: {delay_ns}")
        return self.at(self.now + delay_ns, fn, *args)

    def post(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at`: identical (time, seq) ordering but
        no :class:`Event` handle, so it cannot be cancelled.  The hot
        completion events (port tx-done, link arrival) use this to skip
        the per-event handle allocation."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule in the past: t={time_ns} < now={self.now}"
            )
        heapq.heappush(self._heap, (time_ns, next(self._seq), fn, args, None))
        if len(self._heap) > self.queue_hwm:
            self.queue_hwm = len(self._heap)

    def post_after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`after` (see :meth:`post`)."""
        if delay_ns < 0:
            raise ValueError(f"negative delay: {delay_ns}")
        heapq.heappush(self._heap,
                       (self.now + delay_ns, next(self._seq), fn, args, None))
        if len(self._heap) > self.queue_hwm:
            self.queue_hwm = len(self._heap)

    # -- batch flush hooks -------------------------------------------------

    def add_flush_hook(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run every time a ``run``/``run_until`` drain
        completes.  Batched consumers (the vectorised monitor path) use
        this to settle buffered per-packet state before the caller can
        observe it."""
        self._flush_hooks.append(fn)

    def remove_flush_hook(self, fn: Callable[[], None]) -> None:
        self._flush_hooks.remove(fn)

    def _run_flush_hooks(self) -> None:
        for fn in self._flush_hooks:
            fn()

    def every(self, interval_ns: int, fn: Callable[..., Any], *args: Any,
              align: bool = False) -> PeriodicEvent:
        """Schedule ``fn(*args)`` every ``interval_ns`` nanoseconds.

        With ``align=True`` the first firing lands on the next multiple of
        ``interval_ns`` (so periodic samplers tick at t = k·interval
        regardless of when they start); otherwise it fires one interval
        from now.  Returns a :class:`PeriodicEvent` whose ``cancel()``
        stops the series.
        """
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive: {interval_ns}")
        timer = PeriodicEvent(self, interval_ns, fn, args)
        if align:
            first = (self.now // interval_ns + 1) * interval_ns
        else:
            first = self.now + interval_ns
        timer._event = self.at(first, timer._fire)
        return timer

    # -- execution ---------------------------------------------------------

    def run_until(self, time_ns: int) -> None:
        """Run every event with timestamp <= ``time_ns``; clock ends there."""
        if time_ns < self.now:
            raise ValueError(f"cannot run backwards to {time_ns} (now={self.now})")
        if self._prof is not None:
            return self._drain_profiled(time_ns, None)
        heap = self._heap
        heappop = heapq.heappop
        self._running = True
        executed_before = self._events_run
        executed = 0
        try:
            while heap and heap[0][0] <= time_ns:
                t, _s, fn, args, handle = heappop(heap)
                if handle is not None and handle.cancelled:
                    continue
                self.now = t
                executed += 1
                fn(*args)
        finally:
            # Folded in once per drain: per-event attribute stores are
            # measurable at this loop's call volume.
            self._events_run += executed
            self._running = False
            if self._tel_events is not None:
                self._tel_flush(executed_before)
        self.now = time_ns
        if self._flush_hooks:
            self._run_flush_hooks()

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` fire)."""
        if self._prof is not None:
            return self._drain_profiled(None, max_events)
        heap = self._heap
        heappop = heapq.heappop
        budget = max_events if max_events is not None else float("inf")
        self._running = True
        executed_before = self._events_run
        try:
            while heap and budget > 0:
                t, _s, fn, args, handle = heappop(heap)
                if handle is not None and handle.cancelled:
                    continue
                self.now = t
                self._events_run += 1
                budget -= 1
                fn(*args)
        finally:
            self._running = False
            if self._tel_events is not None:
                self._tel_flush(executed_before)
        if self._flush_hooks:
            self._run_flush_hooks()

    def _drain_profiled(self, time_ns: Optional[int],
                        max_events: Optional[int]) -> None:
        """The profiled drain behind both ``run_until`` (a time limit) and
        ``run`` (an optional event budget), charging each event to its
        callback's phase cell.

        Timestamps are chained — one ``perf_counter_ns`` per event covers
        both the previous event's end and the next one's start — and the
        profiler's ``nested_ns`` delta separates an event's self time
        from work already attributed to explicit phase frames it opened
        (pipeline/control-plane/logstash blocks).
        """
        heap = self._heap
        prof = self._prof
        cells_get = prof._fn_cells.get
        heappop = heapq.heappop
        pcn = time.perf_counter_ns
        # Int sentinels: int/float comparisons are slower per event.
        limit = time_ns if time_ns is not None else sys.maxsize
        budget = max_events if max_events is not None else sys.maxsize
        self._running = True
        executed_before = self._events_run
        executed = 0
        t_prev = pcn()
        n_prev = prof.nested_ns
        try:
            while heap and heap[0][0] <= limit and executed < budget:
                t, _s, fn, args, handle = heappop(heap)
                if handle is not None and handle.cancelled:
                    continue
                self.now = t
                executed += 1
                fn(*args)
                t_now = pcn()
                # nested_ns grows monotonically (root frames and block
                # cells add on close), so it chains like the timestamp.
                n_now = prof.nested_ns
                # Bound methods of one instance hash equal, so the cell
                # cache keys on the callback object directly (cheaper
                # than unwrapping __func__ per event).
                cell = cells_get(fn)
                if cell is None:
                    cell = prof.dispatch_cell(fn, fn)
                dt = t_now - t_prev
                cell[0] += dt
                cell[1] += dt - n_now + n_prev
                cell[2] += 1
                t_prev = t_now
                n_prev = n_now
        finally:
            self._events_run += executed
            self._running = False
            if self._tel_events is not None:
                self._tel_flush(executed_before)
        if time_ns is not None:
            self.now = time_ns
        if self._flush_hooks:
            self._run_flush_hooks()

    def step(self) -> bool:
        """Run a single event.  Returns False when the queue is empty.

        Single-stepping bypasses the batch flush hooks — callers that mix
        ``step()`` with batched consumers should flush those explicitly.
        """
        heap = self._heap
        while heap:
            t, _s, fn, args, handle = heapq.heappop(heap)
            if handle is not None and handle.cancelled:
                continue
            self.now = t
            self._events_run += 1
            fn(*args)
            return True
        return False

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live events still queued (excludes cancelled)."""
        return sum(1 for entry in self._heap
                   if entry[4] is None or not entry[4].cancelled)

    @property
    def events_run(self) -> int:
        """Total events executed so far (throughput metric for profiling)."""
        return self._events_run

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            handle = heap[0][4]
            if handle is None or not handle.cancelled:
                break
            heapq.heappop(heap)
        return heap[0][0] if heap else None
