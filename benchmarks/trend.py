"""Bench-trend regression gate.

Compares the working tree's ``BENCH_<name>.json`` perf records (written
by ``pytest benchmarks/...``, see ``benchmarks/conftest.py``) against
the records **committed to git**, and fails when wall time regresses by
more than the budget (default 30 %).  This is the enforcement arm of the
ROADMAP's "fast as the hardware allows" goal: every PR's CI regenerates
the records and this gate blocks silent slowdowns.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_substrate_perf.py -q
    python benchmarks/trend.py substrate disabled_cost \
        --report trend-report.json

With no names, every ``BENCH_*.json`` in the repo root is checked.
Tests absent from the baseline (new benchmarks) and records with no
committed baseline pass with a note; baselines shorter than
``--min-baseline`` seconds are skipped as noise-dominated.

Tests whose entries carry per-phase attribution (the ``record_phases``
conftest fixture, fed from a profiler PhaseReport — docs/profiling.md)
additionally get per-phase rows in the report, and a wall-time
regression is localized to the phase whose self time grew the most, so
the gate names the culprit instead of just flagging the test.

Exit codes: 0 ok, 1 regression, 2 usage/missing current record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

DEFAULT_BUDGET = 1.30        # fail above +30 % wall time
DEFAULT_MIN_BASELINE_S = 0.05  # ignore sub-50 ms baselines (scheduler noise)
#: Construction-time twin convention: a benchmark named ``X`` with a
#: sibling ``X_scalar`` measures the same workload on the batched and
#: scalar monitor paths.  The gate reports scalar/batched as the
#: speedup and fails if it drops below this floor (batched slower than
#: the scalar path it exists to beat).
TWIN_SUFFIX = "_scalar"
DEFAULT_MIN_SPEEDUP = 1.0
# Phase self-times below this are noise for localization purposes —
# per-phase rows still render, but a regression is never pinned on a
# phase whose baseline share was under 20 ms.
DEFAULT_MIN_PHASE_BASELINE_NS = 20_000_000


def record_path(root: Path, name: str) -> Path:
    return root / f"BENCH_{name}.json"


def load_current(root: Path, name: str) -> Optional[dict]:
    path = record_path(root, name)
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        # A truncated record (killed benchmark run, interrupted write) is
        # indistinguishable from a missing one for trend purposes.
        return None


def load_committed(root: Path, name: str, ref: str = "HEAD") -> Optional[dict]:
    """The record as committed at ``ref``, or None if absent there."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:BENCH_{name}.json"],
        capture_output=True, text=True, cwd=root)
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def compare_phases(current_phases: dict, baseline_phases: Optional[dict],
                   min_baseline_ns: int = DEFAULT_MIN_PHASE_BASELINE_NS):
    """Per-phase self-time comparison for one test's ``phases`` payload
    (written by the ``record_phases`` conftest fixture from a profiler
    :class:`PhaseReport`).

    Returns ``(rows, localized_to)``: one row per phase (sorted by
    current self time, descending) with baseline/ratio/delta where the
    baseline record also carries phases, and the name of the phase a
    wall-time regression localizes to — the largest positive self-time
    delta above the phase noise floor — or None.
    """
    baseline_phases = baseline_phases or {}
    rows: List[dict] = []
    localized = None
    worst_delta = 0
    for name in sorted(set(current_phases) | set(baseline_phases)):
        cur = current_phases.get(name)
        base = baseline_phases.get(name)
        row = {"phase": name}
        if cur is not None:
            row["self_ns"] = cur["self_ns"]
            row["events"] = cur.get("events", 0)
        if base is not None:
            row["baseline_self_ns"] = base["self_ns"]
        if cur is None:
            row["status"] = "gone"
        elif base is None:
            row["status"] = "new"
            delta = cur["self_ns"]
            row["delta_ns"] = delta
            if delta >= min_baseline_ns and delta > worst_delta:
                worst_delta, localized = delta, name
        else:
            delta = cur["self_ns"] - base["self_ns"]
            row["delta_ns"] = delta
            if base["self_ns"] >= min_baseline_ns:
                row["ratio"] = round(cur["self_ns"] / base["self_ns"], 3)
                if delta > worst_delta:
                    worst_delta, localized = delta, name
            else:
                row["status"] = "noise-floor"
        rows.append(row)
    rows.sort(key=lambda r: r.get("self_ns", 0), reverse=True)
    return rows, localized


def compare_twins(current: dict, baseline: Optional[dict],
                  min_speedup: float = DEFAULT_MIN_SPEEDUP,
                  min_baseline_s: float = DEFAULT_MIN_BASELINE_S):
    """Batched-vs-scalar twin rows for one record.

    Pairs every test ``X`` with its ``X_scalar`` sibling and computes
    ``speedup = scalar / batched`` from the per-round ``mean_s`` when
    pytest-benchmark recorded one (``wall_s`` counts *all* rounds, and
    the round count adapts to the time budget, so only the mean is
    comparable across twins).  Returns ``(rows, regressed)``; a pair
    regresses when either side is above the noise floor and the
    speedup falls below ``min_speedup``.
    """
    def _times(record):
        return {t["test"]: t.get("mean_s", t["wall_s"])
                for t in record.get("tests", [])}

    walls = _times(current)
    base_walls = _times(baseline) if baseline else {}
    rows: List[dict] = []
    regressed = False
    for scalar_name in sorted(walls):
        if not scalar_name.endswith(TWIN_SUFFIX):
            continue
        batched_name = scalar_name[: -len(TWIN_SUFFIX)]
        if batched_name not in walls:
            continue
        batched, scalar = walls[batched_name], walls[scalar_name]
        row = {"test": batched_name, "batched_s": batched,
               "scalar_s": scalar}
        if batched > 0:
            row["speedup"] = round(scalar / batched, 3)
        if batched_name in base_walls and scalar_name in base_walls \
                and base_walls[batched_name] > 0:
            row["baseline_speedup"] = round(
                base_walls[scalar_name] / base_walls[batched_name], 3)
        if batched < min_baseline_s and scalar < min_baseline_s:
            row["status"] = "noise-floor"
        elif row.get("speedup", 0.0) < min_speedup:
            row["status"] = "SPEEDUP-LOST"
            regressed = True
        else:
            row["status"] = "ok"
        rows.append(row)
    return rows, regressed


def compare_records(current: dict, baseline: Optional[dict],
                    budget: float = DEFAULT_BUDGET,
                    min_baseline_s: float = DEFAULT_MIN_BASELINE_S,
                    min_speedup: float = DEFAULT_MIN_SPEEDUP) -> dict:
    """Per-test and total wall-time comparison of two BENCH records.

    A test regresses when its baseline is above the noise floor and
    ``current > baseline * budget``; the record regresses when any test
    does, or the total does, or a batched/scalar twin pair loses its
    speedup (see :func:`compare_twins`).  Tests carrying per-phase
    attribution get ``phases`` rows, and a REGRESSED test is localized
    to the phase whose self time grew the most (``localized_to``).
    """
    module = current.get("module", "?")
    twin_rows, twins_regressed = compare_twins(
        current, baseline, min_speedup=min_speedup,
        min_baseline_s=min_baseline_s)
    if baseline is None:
        return {"module": module, "status": "no-baseline", "budget": budget,
                "regressed": twins_regressed, "tests": [], "total": None,
                "twins": twin_rows}

    base_by_test = {t["test"]: t for t in baseline.get("tests", [])}
    tests: List[dict] = []
    regressed = False
    shared_wall = shared_base_wall = 0.0
    for entry in current.get("tests", []):
        name = entry["test"]
        base = base_by_test.pop(name, None)
        row = {"test": name, "wall_s": entry["wall_s"]}
        if entry.get("outcome") not in (None, "passed"):
            row["status"] = entry.get("outcome")
        if base is None:
            row["status"] = "new"
        else:
            shared_wall += entry["wall_s"]
            shared_base_wall += base["wall_s"]
            row["baseline_wall_s"] = base["wall_s"]
            ratio = (entry["wall_s"] / base["wall_s"]
                     if base["wall_s"] > 0 else float("inf"))
            row["ratio"] = round(ratio, 3)
            if base["wall_s"] < min_baseline_s:
                row["status"] = "noise-floor"
            elif ratio > budget:
                row["status"] = "REGRESSED"
                regressed = True
            else:
                row["status"] = "ok"
        if entry.get("phases"):
            phase_rows, localized = compare_phases(
                entry["phases"], base.get("phases") if base else None)
            row["phases"] = phase_rows
            if row.get("status") == "REGRESSED" and localized is not None:
                row["localized_to"] = localized
        tests.append(row)

    # Totals compare only tests present in both records, so adding or
    # retiring a benchmark never trips the gate by itself.
    total = {
        "wall_s": shared_wall,
        "baseline_wall_s": shared_base_wall,
    }
    if total["baseline_wall_s"] >= min_baseline_s:
        total["ratio"] = round(total["wall_s"] / total["baseline_wall_s"], 3)
        if total["ratio"] > budget:
            total["status"] = "REGRESSED"
            regressed = True
        else:
            total["status"] = "ok"
    else:
        total["status"] = "noise-floor"

    return {"module": module, "status": "compared", "budget": budget,
            "regressed": regressed or twins_regressed, "tests": tests,
            "total": total, "twins": twin_rows,
            "missing_tests": sorted(base_by_test)}


def render_comparison(name: str, comparison: dict) -> str:
    lines = [f"== BENCH_{name} (budget {comparison['budget']:.2f}x) =="]
    if comparison["status"] == "no-baseline":
        lines.append("  no committed baseline — recording first trend point")
        for trow in comparison.get("twins", []):
            lines.append(f"  {trow['status']:>11}  twin {trow['test']}: "
                         f"{trow.get('speedup', 0.0):.2f}x speedup "
                         f"(scalar {trow['scalar_s']:.3f}s / "
                         f"batched {trow['batched_s']:.3f}s)")
        return "\n".join(lines)
    for row in comparison["tests"]:
        base = row.get("baseline_wall_s")
        detail = (f"{row['wall_s']:.3f}s vs {base:.3f}s "
                  f"({row.get('ratio', 0.0):.2f}x)" if base is not None
                  else f"{row['wall_s']:.3f}s")
        if row.get("localized_to"):
            detail += f" — localized to {row['localized_to']}"
        lines.append(f"  {row['status']:>11}  {row['test']}: {detail}")
        for prow in row.get("phases", [])[:6]:
            cur_s = prow.get("self_ns", 0) / 1e9
            base_ns = prow.get("baseline_self_ns")
            pdetail = f"self {cur_s:.3f}s"
            if base_ns is not None and "ratio" in prow:
                pdetail += f" vs {base_ns / 1e9:.3f}s ({prow['ratio']:.2f}x)"
            elif base_ns is not None:
                pdetail += f" vs {base_ns / 1e9:.3f}s"
            if prow.get("status"):
                pdetail += f" [{prow['status']}]"
            marker = (" ← regression localized here"
                      if prow["phase"] == row.get("localized_to") else "")
            lines.append(f"        phase  {prow['phase']}: {pdetail}{marker}")
    for trow in comparison.get("twins", []):
        detail = (f"{trow.get('speedup', 0.0):.2f}x speedup "
                  f"(scalar {trow['scalar_s']:.3f}s / "
                  f"batched {trow['batched_s']:.3f}s)")
        if "baseline_speedup" in trow:
            detail += f", baseline {trow['baseline_speedup']:.2f}x"
        lines.append(f"  {trow['status']:>11}  twin {trow['test']}: {detail}")
    total = comparison["total"]
    lines.append(f"  {total['status']:>11}  TOTAL: {total['wall_s']:.3f}s vs "
                 f"{total['baseline_wall_s']:.3f}s")
    for missing in comparison.get("missing_tests", []):
        lines.append(f"       (gone)  {missing}: present in baseline only")
    return "\n".join(lines)


def discover_names(root: Path) -> List[str]:
    return sorted(p.stem.removeprefix("BENCH_")
                  for p in root.glob("BENCH_*.json"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when BENCH_<name>.json wall time regresses past "
                    "the budget vs the committed record.")
    parser.add_argument("names", nargs="*",
                        help="record names (e.g. substrate disabled_cost); "
                             "default: every BENCH_*.json present")
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repo root holding the BENCH files")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref supplying the baseline (default: HEAD)")
    parser.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                        help="max allowed current/baseline wall-time ratio")
    parser.add_argument("--min-baseline", type=float,
                        default=DEFAULT_MIN_BASELINE_S,
                        help="skip tests whose baseline is shorter than this")
    parser.add_argument("--min-speedup", type=float,
                        default=DEFAULT_MIN_SPEEDUP,
                        help="fail a batched/scalar twin pair whose "
                             "scalar/batched speedup drops below this")
    parser.add_argument("--report", type=Path, default=None,
                        help="write the full comparison as JSON to this file")
    args = parser.parse_args(argv)

    names = args.names or discover_names(args.root)
    if not names:
        # First run of a fresh checkout / CI cache miss: there is no
        # bench history at all.  That is a state to report, not an
        # error — the first benchmark run records the first trend
        # point.  Explicitly-named-but-missing records (below) stay
        # hard errors: the caller asked for something that isn't there.
        print("bench-trend: no baseline — no BENCH_*.json records found; "
              "the next benchmark run records the first trend point")
        if args.report is not None:
            args.report.write_text(json.dumps(
                {"budget": args.budget, "ref": args.ref,
                 "records": {}}, indent=2) + "\n")
            print(f"report written to {args.report}")
        return 0

    comparisons = {}
    failed = False
    for name in names:
        current = load_current(args.root, name)
        if current is None:
            print(f"BENCH_{name}.json missing from {args.root} — "
                  "run its benchmark module first", file=sys.stderr)
            return 2
        baseline = load_committed(args.root, name, args.ref)
        comparison = compare_records(current, baseline, budget=args.budget,
                                     min_baseline_s=args.min_baseline,
                                     min_speedup=args.min_speedup)
        comparisons[name] = comparison
        print(render_comparison(name, comparison))
        failed = failed or comparison["regressed"]

    if args.report is not None:
        args.report.write_text(json.dumps(
            {"budget": args.budget, "ref": args.ref,
             "records": comparisons}, indent=2) + "\n")
        print(f"report written to {args.report}")

    print("bench-trend: " + ("REGRESSION (wall time over budget or "
                             "twin speedup lost)" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
