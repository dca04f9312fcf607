"""repro.resilience — fault injection and resilient report delivery.

The paper's deployment ships Report_v1 records from the switch control
plane through Logstash into the OpenSearch archive (Fig. 7).  In a real
Science-DMZ that path fails constantly: archiver restarts, slow
consumers, dropped TCP sessions.  This package makes the reproduction
survive those failures, and proves it with a deterministic chaos
harness (docs/robustness.md):

- :mod:`~repro.resilience.schedule` — declarative, seeded, JSON-round-
  trippable fault schedules (outage windows, stalls, per-report fates,
  extraction-tick stalls, clock skew);
- :mod:`~repro.resilience.faults` — the active injector, installed
  process-globally the same way :mod:`repro.telemetry.provenance`
  installs its tracer; components bind it at construction, so the
  disabled hot path binds the direct bodies
  (``benchmarks/test_disabled_cost.py`` asserts the binding);
- :mod:`~repro.resilience.delivery` — :class:`ResilientShipper`
  (capped exponential backoff with deterministic jitter, bounded spool
  with dead-letter overflow, at-least-once redelivery, sequence-numbered
  envelopes) and :class:`SequenceDedup` (idempotent archiver ingest);
- :mod:`~repro.resilience.breaker` — circuit breaker driving graceful
  degradation (collapse to aggregate reports, widen t_N–t_Q intervals)
  and restoration;
- :mod:`~repro.resilience.watchdog` — extraction-tick stall detection;
- :mod:`~repro.resilience.checkpoint` — ``repro-checkpoint-v1``
  snapshots of everything the control-plane process holds (register
  banks, cursors, alert/histogram/forensics state, shipper books,
  dedup marks), captured after every destructive step and restored
  into a fresh control plane after a crash;
- :mod:`~repro.resilience.supervisor` — the kill/restart loop driving
  ``cp_crash`` recovery: backoff, escalation, give-up policy;
- :mod:`~repro.resilience.chaos` — the chaos runner: a workload
  scenario + fault schedule, run with the ground-truth oracle attached,
  asserting zero acknowledged-report loss and exactly-once archive
  contents (imported lazily: it pulls in the experiment framework).
"""

from repro.resilience.faults import (
    ArchiveUnavailable,
    BackpressureError,
    BreakerOpen,
    ConnectionLostError,
    DeferredDelivery,
    DeliveryError,
    DeliveryTimeout,
    FaultInjector,
    injector,
    install,
    uninstall,
)
from repro.resilience.schedule import (
    FAULT_KINDS,
    FaultSchedule,
    FaultWindow,
    bundled_schedules,
)
from repro.resilience.delivery import (
    DeliveryConfig,
    FaultyTransport,
    ResilientShipper,
    SequenceDedup,
)
from repro.resilience.breaker import BreakerState, CircuitBreaker, DegradationPolicy
from repro.resilience.watchdog import ExtractionWatchdog
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointManager,
    CheckpointStore,
    capture_checkpoint,
    restore_control_plane,
    restore_dataplane,
)
from repro.resilience.supervisor import Supervisor, SupervisorPolicy

__all__ = [
    "DeliveryError", "ArchiveUnavailable", "BackpressureError",
    "ConnectionLostError", "DeliveryTimeout", "DeferredDelivery",
    "BreakerOpen",
    "FaultInjector", "injector", "install", "uninstall",
    "FaultSchedule", "FaultWindow", "FAULT_KINDS", "bundled_schedules",
    "DeliveryConfig", "ResilientShipper", "FaultyTransport", "SequenceDedup",
    "BreakerState", "CircuitBreaker", "DegradationPolicy",
    "ExtractionWatchdog",
    "CHECKPOINT_SCHEMA", "CheckpointManager", "CheckpointStore",
    "capture_checkpoint", "restore_control_plane", "restore_dataplane",
    "Supervisor", "SupervisorPolicy",
]
