"""The three benchmark workloads.

Each workload is one batch job in three parts.  ``inputs`` generates
its inputs from the benchmark seed (the program sees only these);
``run`` simulates a fixed duration to completion and returns the
workload's result; ``judge`` turns that result into an :class:`Outcome`
of named correctness checks.  ``sample.py`` times ``run`` and runs
``judge`` after it, in one worker process.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import os
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Flows in ``flow_fanout`` and the shape of their schedule.
FANOUT_FLOWS = 256
FANOUT_RUN_S = 20.0
FANOUT_LAST_START_S = 12.0
FANOUT_MIN_DURATION_S = 2.0
FANOUT_END_BY_S = 18.0


@dataclass
class Check:
    """One named correctness check of a workload run."""

    name: str
    passed: bool


@dataclass
class Outcome:
    """What a workload run produced, as the benchmark judges it.

    ``checks`` are every check attempted (the accuracy books:
    ``pass_frac`` is their pass share).  ``invariant_failures`` name the
    hard guarantees that broke; any makes the run incorrect."""

    checks: List[Check] = field(default_factory=list)
    invariant_failures: List[str] = field(default_factory=list)

    def add(self, name: str, passed: bool) -> None:
        self.checks.append(Check(name, bool(passed)))

    @property
    def failed_checks(self) -> List[str]:
        return [c.name for c in self.checks if not c.passed]


# -- fig9_join -----------------------------------------------------------------

def fig9_claims(result, probe) -> Outcome:
    """The Fig. 9 shape claims of EXPERIMENTS.md, one check per
    assertion of ``benchmarks/test_fig9_perflow.py``."""
    out = Outcome()
    shares = result.pre_join_throughputs()[:2]
    out.add("pre_join.two_flows", len(shares) == 2)
    out.add("pre_join.parity", len(shares) == 2
            and min(shares) > 0.25 * sum(shares))
    out.add("pre_join.fills_bottleneck", sum(shares) > 70.0)
    out.add("join.queue_surge", result.join_queue_surge() > 80.0)
    out.add("join.loss_spike", result.join_loss_spike() > 0.0)
    post = result.post_join_throughputs()
    out.add("post_join.three_flows", len(post) == 3)
    out.add("post_join.all_alive", bool(post) and all(v > 5.0 for v in post))
    out.add("post_join.fills_bottleneck", sum(post) > 70.0)
    for label, series in result.rtt_ms.items():
        settled = [v for t, v in series if t > 10.0]
        out.add(f"rtt{label}.min_above_floor",
                bool(settled) and min(settled) > 40.0)
        out.add(f"rtt{label}.min_below_worst",
                bool(settled) and min(settled) < 230.0)
        out.add(f"rtt{label}.median_bounded",
                bool(settled) and statistics.median(settled) < 250.0)
    out.invariant_failures = [f"fig9 claim failed: {name}"
                              for name in out.failed_checks]
    return out


def fig9_join(inputs: None, workdir: str):
    """``run_fig9()`` exactly as the paper figure runs it.  It has no
    random input, so there is nothing to generate from the seed."""
    from repro.experiments.fig9_perflow import run_fig9

    return run_fig9(duration_s=40.0, join_s=15.0)


# -- flow_fanout ---------------------------------------------------------------

def fanout_schedule(seed: int) -> List[Tuple[int, float, float]]:
    """(dst_index, start_s, duration_s) for every flow, drawn from the
    seed: each starts in the first 12 s, lasts at least 2 s and ends by
    18 s.  Draws are stratified (one start per 12/256 s slot, one
    duration per quantile slot, destinations balanced across the three
    DTNs, then shuffled), so every seed offers about the same total work
    and seeds differ in which flows overlap."""
    rng = random.Random(seed)
    n = FANOUT_FLOWS
    slot = FANOUT_LAST_START_S / n
    starts = [(i + rng.random()) * slot for i in range(n)]
    quantiles = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(quantiles)
    dsts = [i % 3 for i in range(n)]
    rng.shuffle(dsts)
    flows = []
    for start, q, dst in zip(starts, quantiles, dsts):
        span = FANOUT_END_BY_S - FANOUT_MIN_DURATION_S - start
        flows.append((dst, round(start, 3),
                      round(FANOUT_MIN_DURATION_S + q * span, 3)))
    return flows


def fanout_checks(result, probe) -> Outcome:
    """Every differential-checker verdict, plus one check that every
    report the control plane shipped is indexed exactly once."""
    from repro.validation.checker import DifferentialChecker

    scenario, oracle = result
    shipped = probe.reports_shipped
    out = Outcome()
    report = DifferentialChecker(scenario.control_plane, oracle).check()
    for r in report.results:
        out.add(f"{r.metric}[{r.subject}]", r.passed)
    indexed = _indexed_documents(scenario.perfsonar.archiver.store)
    once = indexed == shipped
    out.add("archive.exactly_once", once)
    if not once:
        out.invariant_failures.append(
            f"archive holds {indexed} documents for {shipped} shipped reports")
    return out


def flow_fanout(flows: List[Tuple[int, float, float]], workdir: str):
    """256 CUBIC flows over a 25 Mb/s bottleneck with every monitor
    feature on, the perfSONAR archive attached and the ground-truth
    oracle observing the topology.  ``flows`` is the generated schedule.
    Returns the finished scenario and its oracle."""
    from repro.core.config import MetricConfig, MetricKind
    from repro.experiments.common import Scenario, ScenarioConfig
    from repro.netsim.observer import observe_topology
    from repro.validation.oracle import GroundTruthOracle

    config = ScenarioConfig(
        bottleneck_mbps=25.0,
        monitor_overrides={
            "histograms_enabled": True,
            "forensics_enabled": True,
            "long_flow_bytes": 20_000,
            "metrics": {kind: MetricConfig(samples_per_second=10.0)
                        for kind in MetricKind},
        },
    )
    scenario = Scenario(config, with_perfsonar=True)
    for dst_index, start_s, duration_s in flows:
        scenario.add_flow(dst_index, start_s=start_s, duration_s=duration_s)
    stream = observe_topology(scenario.topology)
    oracle = GroundTruthOracle(
        stream, rtt_max_age_ns=scenario.monitor.config.rtt_max_age_ns)
    scenario.run(FANOUT_RUN_S)
    return scenario, oracle


# -- crash_recovery ------------------------------------------------------------

def crash_recovery(spec, workdir: str):
    """The bundled kitchen-sink chaos schedule with a control-plane crash
    appended, checkpointing into a fresh directory under ``workdir``,
    uncrashed twin included.  ``spec`` is the generated chaos spec.  The
    harness settles its books (oracle included) before it returns."""
    from repro.resilience.chaos import run_crash_chaos

    ckpt_dir = os.path.join(workdir, "checkpoints")
    os.makedirs(ckpt_dir)
    return run_crash_chaos(spec, checkpoint_dir=ckpt_dir)


def crash_spec(seed: int):
    """The seed's kitchen-sink chaos spec with a mid-run crash."""
    from repro.resilience.chaos import bundled_chaos, with_crash

    return with_crash(bundled_chaos(seed)["kitchen-sink"])


def recovery_books(result, probe) -> Outcome:
    """The RecoveryResult books as named checks: every oracle verdict,
    the delivery books, the supervisor books, conservation and twin
    agreement."""
    out = Outcome()
    failed_oracle = len(result.oracle_failures)
    for i in range(result.oracle_checks):
        name = (f"oracle: {result.oracle_failures[i]}" if i < failed_oracle
                else f"oracle#{i}")
        out.add(name, i >= failed_oracle)
    out.add("delivery.no_acked_loss", not result.missing_acked_seqs)
    out.add("delivery.exactly_once", not result.archived_duplicate_seqs)
    out.add("delivery.no_dead_letter_loss", result.dead_letter_evictions == 0)
    out.add("delivery.spool_drained", result.still_pending == 0)
    out.add("supervisor.restarted_every_kill",
            result.kills >= 1 and result.restarts == result.kills
            and not result.gave_up)
    out.add("conservation.windows", not result.conservation_failures)
    out.add("twin.agreement", not result.twin_failures)
    out.invariant_failures = list(result.failures())
    return out


def _indexed_documents(store) -> int:
    return sum(store.count(index) for index in store.indices)


@dataclass(frozen=True)
class Workload:
    """A workload's three parts (see the module docstring)."""

    inputs: Optional[Callable[[int], object]]
    run: Callable[[object, str], object]
    judge: Callable[[object, object], Outcome]


WORKLOADS: Dict[str, Workload] = {
    "fig9_join": Workload(None, fig9_join, fig9_claims),
    "flow_fanout": Workload(fanout_schedule, flow_fanout, fanout_checks),
    "crash_recovery": Workload(crash_spec, crash_recovery, recovery_books),
}
