"""Benchmark runner: times one workload end to end, or splits it by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig9_join|flow_fanout|crash_recovery
        --seed N --seconds S --trace 0|1

Each sample is a fresh worker process (``sample.py``) that generates the
workload's inputs from ``--seed``, runs it to completion and checks its
outputs.  Samples repeat until ``--seconds`` of measuring is used up
(at least ``MIN_SAMPLES``).  Timings are medians over the samples,
calibrated to the reference host: each sample's times are scaled by
``hostspeed.NOMINAL_CHUNK_S`` over the mean time of the reference chunk
that sample timed, interleaved with its own work.

- ``--trace 0`` reports the end-to-end metrics, with tracing off.
- ``--trace 1`` alternates an untraced and a traced sample of the same
  seed and reports the per-layer metrics of the traced sample whose run
  time is the median.  Its fidelity guard fails the run if tracing
  changed the program: the traced deterministic counts and archive
  digest must equal the untraced ones.

Human-readable lines go to stdout first; the last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` counts workload runs and ``failed`` those
that crashed or broke a hard invariant.  The exit code is 0 only when
every sample ran and every check of correctness held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from hostspeed import NOMINAL_CHUNK_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
WORKLOADS = ("fig9_join", "flow_fanout", "crash_recovery")
#: Scratch space for checkpoint files, removed when the run ends.
WORKDIR = os.path.join(ROOT, ".perfbench-work")

MIN_SAMPLES = 3
MIN_PAIRS = 1
#: A worker that takes longer than this is killed and counted failed.
SAMPLE_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "run_s": "s",
    "mirror_pps": "copies/s",
    "reports_per_s": "docs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


class SampleFailed(Exception):
    """A worker crashed, timed out or printed no result."""


def run_worker(workload: str, seed: int, trace: bool, index: int) -> dict:
    """Run one sample in a fresh process and return its result."""
    workdir = os.path.join(WORKDIR, f"sample-{index}")
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, SAMPLE, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--workdir", workdir]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SampleFailed(f"sample {index} timed out") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise SampleFailed(f"sample {index} exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def median_of(samples: List[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g})"


def same_run(a: dict, b: dict) -> List[str]:
    """Where two samples of one seed disagree on deterministic output."""
    diffs = [f"{k}: {a['counts'][k]} != {b['counts'][k]}"
             for k in a["counts"] if a["counts"][k] != b["counts"].get(k)]
    if a["digest"] != b["digest"]:
        diffs.append(f"archive digest {a['digest'][:16]} != {b['digest'][:16]}")
    return diffs


def calibrated(samples: List[dict], key: str) -> float:
    """Median of a time over the samples, each scaled to the reference
    host by the host speed it measured."""
    return statistics.median(s[key] * NOMINAL_CHUNK_S / s["chunk_s"]
                             for s in samples)


def end_to_end(samples: List[dict]) -> Dict[str, float]:
    run_s = calibrated(samples, "run_s")
    counts = samples[0]["counts"]
    checks = counts["validation.checks"]
    return {
        "run_s": run_s,
        "mirror_pps": counts["p4.copies"] / run_s,
        "reports_per_s": counts["perfsonar.docs_indexed"] / run_s,
        "setup_s": calibrated(samples, "setup_s"),
        "peak_rss_mb": median_of(samples, "peak_rss_mb"),
        "pass_frac": (checks - counts["validation.checks_failed"]) / checks,
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Metrics of the traced sample with the median traced run time."""
    pick = sorted(traced, key=lambda s: s["run_s"])[(len(traced) - 1) // 2]
    metrics = dict(pick["counts"])
    metrics.update(pick["layers"])
    metrics["trace.overhead_frac"] = (median_of(traced, "run_s")
                                      / median_of(untraced, "run_s") - 1.0)
    return metrics


def report_sample(sample: dict, label: str) -> None:
    speed = (f", reference chunk {sample['chunk_s'] * 1e3:.3f} ms"
             if "chunk_s" in sample else "")
    print(f"  {label}: setup {sample['setup_s']:.3f} s, run {sample['run_s']:.3f} s, "
          f"peak rss {sample['peak_rss_mb']:.1f} MB{speed}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: the program's source (src/repro under {ROOT}) is "
              "missing", file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    # Compile bytecode caches first, so setup_s measures a user's
    # steady-state start rather than the first import.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    untraced: List[dict] = []
    traced: List[dict] = []
    problems: List[str] = []
    attempted = failed = 0
    start = time.monotonic()
    need = MIN_PAIRS if trace else MIN_SAMPLES
    while True:
        done = len(traced) if trace else len(untraced)
        elapsed = time.monotonic() - start
        per_round = elapsed / done if done else 0.0
        if done >= need and elapsed + per_round > seconds:
            break
        if attempted and failed == attempted:
            break
        for want_trace in ((False, True) if trace else (False,)):
            attempted += 1
            try:
                sample = run_worker(workload, seed, want_trace, attempted)
            except SampleFailed as exc:
                failed += 1
                problems.append(str(exc))
                continue
            if sample["invariant_failures"]:
                failed += 1
                problems.extend(sample["invariant_failures"])
            (traced if want_trace else untraced).append(sample)
            report_sample(sample, "traced" if want_trace else "untraced")

    if not untraced or (trace and not traced):
        for p in problems:
            print(f"FAIL: {p}")
        return 1

    # Same seed, same output: every deterministic count and the archive
    # digest must repeat across samples.  Against the traced samples this
    # is the fidelity guard (netsim.events, p4.copies,
    # perfsonar.docs_indexed and validation.checks[_failed] among them).
    base = untraced[0]
    for other in untraced[1:]:
        problems += [f"untraced samples of one seed disagree: {d}"
                     for d in same_run(base, other)]
    for other in traced:
        problems += [f"fidelity guard: tracing changed the run: {d}"
                     for d in same_run(base, other)]

    counts = base["counts"]
    print(f"workload {workload}: {len(untraced)} untraced"
          + (f" + {len(traced)} traced" if trace else "") + " samples")
    print(f"  host run_s median {quartiles([s['run_s'] for s in untraced])}")
    print(f"  host setup_s median {quartiles([s['setup_s'] for s in untraced])}")
    print(f"  host speed: reference chunk median "
          f"{quartiles([s['chunk_s'] * 1e3 for s in untraced])} ms "
          f"(nominal {NOMINAL_CHUNK_S * 1e3:g} ms)")
    print("  p4 path: " + "; ".join(sorted(set(base["bound_paths"]))))
    print(f"  archive sha256 {base['digest']}")
    print(f"  checks: {counts['validation.checks']} attempted, "
          f"{counts['validation.checks_failed']} failed")
    for name in base["failed_checks"]:
        print(f"    failed check: {name}")
    for p in problems:
        print(f"FAIL: {p}")

    if trace:
        metrics = per_layer(untraced, traced)
        units = {}
    else:
        metrics = end_to_end(untraced)
        units = END_TO_END_UNITS
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, unit_of(name))}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_frac", "ratio"), ("_mb", "MB"),
                         ("ns_per_event", "ns"), ("ns_per_copy", "ns"),
                         ("us_per_segment", "us"), ("us_per_doc", "us"),
                         ("ms_per_tick", "ms"), ("ms_per_write", "ms")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
