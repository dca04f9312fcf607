"""Bench-trend regression gate (benchmarks/trend.py)."""

import json
import subprocess

import pytest

from benchmarks.trend import (
    compare_phases,
    compare_records,
    compare_twins,
    discover_names,
    load_committed,
    main,
    render_comparison,
)


def _record(module="test_x", tests=None, total=None):
    tests = tests if tests is not None else [
        {"test": "test_a", "outcome": "passed", "wall_s": 1.0},
        {"test": "test_b", "outcome": "passed", "wall_s": 2.0},
    ]
    return {
        "schema": "repro-bench-v1",
        "module": module,
        "tests": tests,
        "total_wall_s": total if total is not None
        else sum(t["wall_s"] for t in tests),
    }


def test_compare_within_budget_passes():
    base = _record()
    cur = _record(tests=[
        {"test": "test_a", "outcome": "passed", "wall_s": 1.2},
        {"test": "test_b", "outcome": "passed", "wall_s": 2.1},
    ])
    result = compare_records(cur, base, budget=1.30)
    assert not result["regressed"]
    assert all(r["status"] == "ok" for r in result["tests"])
    assert result["total"]["status"] == "ok"


def test_compare_flags_per_test_regression():
    base = _record()
    cur = _record(tests=[
        {"test": "test_a", "outcome": "passed", "wall_s": 1.5},  # +50 %
        {"test": "test_b", "outcome": "passed", "wall_s": 2.0},
    ])
    result = compare_records(cur, base, budget=1.30)
    assert result["regressed"]
    by_test = {r["test"]: r["status"] for r in result["tests"]}
    assert by_test["test_a"] == "REGRESSED"
    assert by_test["test_b"] == "ok"


def test_compare_flags_total_regression():
    # A noise-floor baseline escapes its per-test check, but its blow-up
    # still shows in the shared-test total — the total check's job.
    base = _record(tests=[
        {"test": "test_a", "outcome": "passed", "wall_s": 0.01},
        {"test": "test_b", "outcome": "passed", "wall_s": 2.99},
    ])
    cur = _record(tests=[
        {"test": "test_a", "outcome": "passed", "wall_s": 2.0},
        {"test": "test_b", "outcome": "passed", "wall_s": 3.0},
    ])
    result = compare_records(cur, base, budget=1.30)
    assert result["regressed"]
    by_test = {r["test"]: r["status"] for r in result["tests"]}
    assert by_test["test_a"] == "noise-floor"
    assert by_test["test_b"] == "ok"
    assert result["total"]["status"] == "REGRESSED"


def test_compare_skips_noise_floor_baselines():
    base = _record(tests=[{"test": "test_a", "outcome": "passed",
                           "wall_s": 0.01}])
    cur = _record(tests=[{"test": "test_a", "outcome": "passed",
                          "wall_s": 0.04}])  # 4x, but sub-50 ms baseline
    result = compare_records(cur, base, budget=1.30, min_baseline_s=0.05)
    assert not result["regressed"]
    assert result["tests"][0]["status"] == "noise-floor"


def test_compare_handles_new_and_missing_tests():
    base = _record()
    cur = _record(tests=[
        {"test": "test_a", "outcome": "passed", "wall_s": 1.0},
        {"test": "test_c", "outcome": "passed", "wall_s": 9.0},  # new
    ])
    result = compare_records(cur, base, budget=1.30)
    assert not result["regressed"]  # new tests have no baseline to regress
    by_test = {r["test"]: r["status"] for r in result["tests"]}
    assert by_test["test_c"] == "new"
    assert result["missing_tests"] == ["test_b"]


def test_compare_without_baseline_is_first_trend_point():
    result = compare_records(_record(), None)
    assert result["status"] == "no-baseline"
    assert not result["regressed"]
    assert "first trend point" in render_comparison("x", result)


# -- end to end against a real git repo ---------------------------------------


@pytest.fixture
def bench_repo(tmp_path):
    """A git repo with one committed BENCH record."""
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                    "commit", "-q", "--allow-empty", "-m", "root"],
                   cwd=tmp_path, check=True)
    record = _record()
    (tmp_path / "BENCH_x.json").write_text(json.dumps(record))
    subprocess.run(["git", "add", "BENCH_x.json"], cwd=tmp_path, check=True)
    subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                    "commit", "-q", "-m", "bench"], cwd=tmp_path, check=True)
    return tmp_path


def test_load_committed_reads_git_baseline(bench_repo):
    baseline = load_committed(bench_repo, "x")
    assert baseline is not None and baseline["module"] == "test_x"
    assert load_committed(bench_repo, "unknown") is None


def test_main_passes_within_budget_and_writes_report(bench_repo, capsys):
    report = bench_repo / "trend-report.json"
    rc = main(["x", "--root", str(bench_repo), "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bench-trend: ok" in out
    data = json.loads(report.read_text())
    assert data["records"]["x"]["status"] == "compared"


def test_main_fails_on_regression(bench_repo, capsys):
    slow = _record(tests=[
        {"test": "test_a", "outcome": "passed", "wall_s": 5.0},
        {"test": "test_b", "outcome": "passed", "wall_s": 2.0},
    ])
    (bench_repo / "BENCH_x.json").write_text(json.dumps(slow))
    rc = main(["x", "--root", str(bench_repo)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out


def test_main_errors_on_missing_current_record(bench_repo, capsys):
    assert main(["ghost", "--root", str(bench_repo)]) == 2


def test_main_first_run_with_empty_history_passes(tmp_path, capsys):
    # Fresh checkout / CI cache miss: no BENCH history anywhere.  The
    # gate must report "no baseline" and exit clean — the first
    # benchmark run records the first trend point.
    report = tmp_path / "trend-report.json"
    rc = main(["--root", str(tmp_path), "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no baseline" in out
    assert json.loads(report.read_text())["records"] == {}


def test_main_still_errors_when_named_record_absent(tmp_path):
    # Empty history is only forgiven for auto-discovery; an explicitly
    # requested record that is missing stays a hard usage error.
    assert main(["substrate", "--root", str(tmp_path)]) == 2


def test_main_treats_malformed_current_record_as_missing(bench_repo, capsys):
    (bench_repo / "BENCH_x.json").write_text("{truncated")
    assert main(["x", "--root", str(bench_repo)]) == 2
    err = capsys.readouterr().err
    assert "BENCH_x.json missing" in err


def test_discover_names(bench_repo):
    (bench_repo / "BENCH_other.json").write_text("{}")
    assert discover_names(bench_repo) == ["other", "x"]


def test_repo_committed_records_pass_against_themselves(tmp_path, capsys):
    """The committed BENCH records compared to themselves are ratio 1.0 —
    the gate's fixed point (run against this repo's own HEAD)."""
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    names = [n for n in ("substrate", "disabled_cost")
             if load_committed(root, n) is not None]
    if not names:
        pytest.skip("no committed BENCH records at HEAD")
    for name in names:
        baseline = load_committed(root, name)
        result = compare_records(baseline, baseline)
        assert not result["regressed"]


# -- batched/scalar twin pairs (X vs X_scalar → compare_twins) ----------------


def _twin_record(batched_s, scalar_s):
    return _record(tests=[
        {"test": "test_e2e", "outcome": "passed", "wall_s": batched_s},
        {"test": "test_e2e_scalar", "outcome": "passed", "wall_s": scalar_s},
    ])


def test_compare_twins_reports_speedup():
    rows, regressed = compare_twins(_twin_record(0.1, 0.4), None)
    assert not regressed
    assert rows == [{"test": "test_e2e", "batched_s": 0.1,
                     "scalar_s": 0.4, "speedup": 4.0, "status": "ok"}]


def test_compare_twins_prefers_benchmark_mean():
    # wall_s sums every pytest-benchmark round (the round count adapts
    # to the time budget), so twin speedups must come from mean_s
    record = _record(tests=[
        {"test": "test_e2e", "outcome": "passed",
         "wall_s": 1.0, "mean_s": 0.1},
        {"test": "test_e2e_scalar", "outcome": "passed",
         "wall_s": 1.2, "mean_s": 0.4},
    ])
    rows, regressed = compare_twins(record, None)
    assert not regressed
    assert rows[0]["speedup"] == 4.0
    assert rows[0]["batched_s"] == 0.1 and rows[0]["scalar_s"] == 0.4


def test_compare_twins_fails_when_speedup_lost():
    # batched slower than its scalar twin: the batched path lost the
    # advantage it exists to provide
    rows, regressed = compare_twins(_twin_record(0.5, 0.4), None)
    assert regressed
    assert rows[0]["status"] == "SPEEDUP-LOST"
    assert rows[0]["speedup"] == 0.8


def test_compare_twins_min_speedup_floor():
    # 2x measured, but the gate demands 3x
    rows, regressed = compare_twins(_twin_record(0.2, 0.4), None,
                                    min_speedup=3.0)
    assert regressed and rows[0]["status"] == "SPEEDUP-LOST"


def test_compare_twins_noise_floor():
    # both walls under the noise floor: too fast to judge either way
    rows, regressed = compare_twins(_twin_record(0.001, 0.0005), None,
                                    min_baseline_s=0.05)
    assert not regressed
    assert rows[0]["status"] == "noise-floor"


def test_compare_twins_ignores_unpaired_tests():
    record = _record(tests=[
        {"test": "test_solo", "outcome": "passed", "wall_s": 1.0},
        {"test": "test_orphan_scalar", "outcome": "passed", "wall_s": 1.0},
    ])
    rows, regressed = compare_twins(record, None)
    assert rows == [] and not regressed


def test_compare_twins_carries_baseline_speedup():
    rows, _ = compare_twins(_twin_record(0.1, 0.4), _twin_record(0.1, 0.5))
    assert rows[0]["baseline_speedup"] == 5.0


def test_compare_records_propagates_twin_regression():
    # per-test walls stay within budget, but the twin pair inverted —
    # the record must still regress, and the row must render
    base = _twin_record(0.4, 0.5)
    cur = _twin_record(0.5, 0.4)
    result = compare_records(cur, base, budget=1.30)
    assert result["regressed"]
    assert result["twins"][0]["status"] == "SPEEDUP-LOST"
    rendered = render_comparison("substrate", result)
    assert "twin test_e2e" in rendered and "SPEEDUP-LOST" in rendered


def test_compare_records_twins_render_without_baseline():
    result = compare_records(_twin_record(0.1, 0.4), None)
    assert result["status"] == "no-baseline"
    assert not result["regressed"]
    rendered = render_comparison("substrate", result)
    assert "twin test_e2e" in rendered and "4.00x speedup" in rendered


# -- per-phase attribution (record_phases → compare_phases) -------------------


def _phases(**named):
    """{phase: {self_ns, cum_ns, events}} from phase=self_ms shorthand."""
    return {name: {"self_ns": int(ms * 1e6), "cum_ns": int(ms * 1e6),
                   "events": 100} for name, ms in named.items()}


def test_compare_phases_localizes_to_largest_regression():
    base = _phases(engine=400.0, p4=300.0, archiver=50.0)
    cur = _phases(engine=420.0, p4=900.0, archiver=60.0)  # p4 blew up
    rows, localized = compare_phases(cur, base)
    assert localized == "p4"
    by_phase = {r["phase"]: r for r in rows}
    assert by_phase["p4"]["ratio"] == 3.0
    assert by_phase["engine"]["ratio"] == pytest.approx(1.05)
    # rows come sorted by current self time, descending
    assert [r["phase"] for r in rows] == ["p4", "engine", "archiver"]


def test_compare_phases_noise_floor_boundary():
    # exactly at the floor participates; one ns under it does not
    floor_ns = 20_000_000
    base = {"at": {"self_ns": floor_ns, "events": 1},
            "under": {"self_ns": floor_ns - 1, "events": 1}}
    cur = {"at": {"self_ns": floor_ns * 4, "events": 1},
           "under": {"self_ns": floor_ns * 100, "events": 1}}
    rows, localized = compare_phases(cur, base, min_baseline_ns=floor_ns)
    by_phase = {r["phase"]: r for r in rows}
    assert localized == "at"
    assert by_phase["at"]["ratio"] == 4.0
    assert by_phase["under"]["status"] == "noise-floor"
    assert "ratio" not in by_phase["under"]


def test_compare_phases_new_and_gone():
    base = _phases(engine=400.0, retired=100.0)
    cur = _phases(engine=400.0, brand_new=500.0)
    rows, localized = compare_phases(cur, base)
    by_phase = {r["phase"]: r for r in rows}
    assert by_phase["brand_new"]["status"] == "new"
    assert by_phase["retired"]["status"] == "gone"
    assert "self_ns" not in by_phase["retired"]
    # a material brand-new phase is a legitimate localization target
    assert localized == "brand_new"


def test_compare_phases_without_baseline_phases():
    rows, localized = compare_phases(_phases(engine=400.0), None)
    assert localized == "engine"  # all of it is new time
    assert rows[0]["status"] == "new"


def test_compare_records_localizes_regressed_test_to_phase():
    base = _record(tests=[
        {"test": "test_e2e", "outcome": "passed", "wall_s": 1.0,
         "phases": _phases(engine=600.0, p4=300.0)},
    ])
    cur = _record(tests=[
        {"test": "test_e2e", "outcome": "passed", "wall_s": 1.6,
         "phases": _phases(engine=620.0, p4=880.0)},
    ])
    result = compare_records(cur, base, budget=1.30)
    assert result["regressed"]
    row = result["tests"][0]
    assert row["status"] == "REGRESSED"
    assert row["localized_to"] == "p4"
    rendered = render_comparison("substrate", result)
    assert "localized to p4" in rendered
    assert "regression localized here" in rendered


def test_compare_records_phases_against_phase_free_baseline():
    # baseline committed before phase attribution existed: per-phase rows
    # still render (all "new"), but nothing regresses or localizes
    base = _record(tests=[
        {"test": "test_e2e", "outcome": "passed", "wall_s": 1.0},
    ])
    cur = _record(tests=[
        {"test": "test_e2e", "outcome": "passed", "wall_s": 1.1,
         "phases": _phases(engine=600.0)},
    ])
    result = compare_records(cur, base, budget=1.30)
    assert not result["regressed"]
    row = result["tests"][0]
    assert row["status"] == "ok"
    assert row["phases"][0]["status"] == "new"
    assert "localized_to" not in row
