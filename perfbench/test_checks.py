"""Each output check passes on the program's real output and fails on a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import functools
import json
import random
from pathlib import Path

import pytest

import checks
import layers
import workloads
from checks import CheckFailed
import run
from run import END_TO_END, Runner, run_checks

ROOT = Path(__file__).resolve().parent.parent
N = 30


@functools.lru_cache(maxsize=None)
def cli(*args: str) -> str:
    result = Runner(ROOT, trace=False).call(args, timeout=120)
    assert result.code == 0, result.stderr
    return result.stdout


def census(lat: workloads.Lattice, n: int = N) -> list[list[int]]:
    return checks.parse_census(cli("census", *lat.spec, "--max", str(n)))


def formula(lat: workloads.Lattice, n: int = N) -> list[int]:
    return checks.parse_formula(cli("census", *lat.spec, "--max", str(n), "--mode", "formula"))


def asympt(lattice: str, checkpoints: str) -> list[dict]:
    return checks.parse_asympt(cli("asympt", "--lattice", lattice, "--checkpoints", checkpoints))


def test_census_rows_sum_to_sigma1():
    rows = census(workloads.SQUARE)
    checks.check_census_rows(rows, N)
    bad_total = copy.deepcopy(rows)
    bad_total[6][1] += 1
    bad_type = copy.deepcopy(rows)
    bad_type[11][2] -= 1
    bad_wr = copy.deepcopy(rows)
    bad_wr[9][8] += 1
    for bad in (bad_total, bad_type, bad_wr, rows[:-1]):
        with pytest.raises(CheckFailed):
            checks.check_census_rows(bad, N)


def test_well_rounded_matches_formula():
    rows, counts = census(workloads.HEXAGONAL), formula(workloads.HEXAGONAL)
    checks.check_well_rounded_matches_formula(rows, counts)
    bad = list(counts)
    bad[N - 1] += 1
    with pytest.raises(CheckFailed):
        checks.check_well_rounded_matches_formula(rows, bad)


@pytest.mark.parametrize("lat,column,chi", [
    (workloads.SQUARE, "square", checks.CHI_MINUS4),
    (workloads.HEXAGONAL, "hexagonal", checks.CHI_MINUS3),
])
def test_similar_column_is_character_sum(lat, column, chi):
    rows = census(lat)
    checks.check_similar_column(rows, column, chi, N)
    bad = copy.deepcopy(rows)
    bad[24][checks.CENSUS_COLUMNS.index(column)] += 1
    with pytest.raises(CheckFailed):
        checks.check_similar_column(bad, column, chi, N)


def test_census_invariant_under_change_of_basis():
    irrational = next(l for l in workloads.IRRATIONAL if l.key == workloads.IRRATIONAL_TRANSFORMED)
    for lat, seed in ((workloads.HEXAGONAL, 1), (irrational, 2)):
        moved = workloads._transformed(lat, random.Random(seed))
        rows, moved_rows = census(lat, 12), census(moved, 12)
        checks.check_same_rows(rows, moved_rows)
        bad = copy.deepcopy(moved_rows)
        bad[5][2], bad[5][3] = bad[5][2] - 1, bad[5][3] + 1
        with pytest.raises(CheckFailed):
            checks.check_same_rows(rows, bad)
    with pytest.raises(CheckFailed):
        checks.check_same_rows(census(workloads.SQUARE), census(workloads.HEXAGONAL))


def test_asympt_at_census_bound():
    rows = census(workloads.SQUARE)
    table = asympt("square", f"{N},1000")
    checks.check_asympt_at_bound(table, rows)
    bad = copy.deepcopy(table)
    bad[0]["A"] += 1
    with pytest.raises(CheckFailed):
        checks.check_asympt_at_bound(bad, rows)
    with pytest.raises(CheckFailed):
        checks.check_asympt_at_bound(table[1:], rows)


def test_no_well_rounded_counts_zero():
    lat = next(l for l in workloads.IRRATIONAL if l.key == workloads.NO_WELL_ROUNDED)
    rows, counts = census(lat, 12), formula(lat, 12)
    table = checks.parse_asympt(cli("asympt", "--lattice", "custom", "--gram", lat.spec[1],
                                    "--checkpoints", "12,100"))
    checks.check_all_zero(rows, counts, table)
    bad_rows = copy.deepcopy(rows)
    bad_rows[7][8] = 1
    bad_counts = list(counts)
    bad_counts[3] = 2
    bad_table = copy.deepcopy(table)
    bad_table[1]["A"] = 1
    for args in ((bad_rows, counts, table), (rows, bad_counts, table), (rows, counts, bad_table)):
        with pytest.raises(CheckFailed):
            checks.check_all_zero(*args)


@pytest.mark.parametrize("lattice,c1", [("square", checks.c1_square()), ("hex", checks.c1_hex())])
def test_growth_law(lattice, c1):
    table = asympt(lattice, "300,1000,10000")
    checks.check_growth_residual(table)
    checks.check_c1(table, c1)
    off = copy.deepcopy(table)
    off[1]["A"] = int(off[1]["A"] * 1.1)
    with pytest.raises(CheckFailed):
        checks.check_growth_residual(off)
    tilted = copy.deepcopy(table)
    tilted[-1]["model"] *= 1 + 1e-6
    with pytest.raises(CheckFailed):
        checks.check_c1(tilted, c1)


def test_constants_against_mpmath_and_paper():
    table = checks.parse_constants(cli("constants"))
    checks.check_constants(table)
    for name, (value, err) in table.items():
        bad = dict(table)
        bad[name] = (value + max(10 * err, 1e-6), err)
        with pytest.raises(CheckFailed):
            checks.check_constants(bad)


@pytest.mark.parametrize("lat,reference", [
    (workloads.SQUARE, "epstein_square_s2"),
    (workloads.HEXAGONAL, "epstein_hex_s2"),
])
def test_epstein_value_within_stated_error(lat, reference):
    value, err = checks.parse_epstein(cli("epstein", "--form", lat.form_arg, "--s", "2"))
    checks.check_epstein_value(value, err, reference)
    with pytest.raises(CheckFailed):
        checks.check_epstein_value(value + 2 * err + 1e-9, err, reference)


def test_residue_within_tolerance():
    lat = workloads.IRRATIONAL[0]
    value, _ = checks.parse_epstein(cli("epstein", "--form", lat.form_arg, "--residue"))
    checks.check_residue(value, lat.form)
    with pytest.raises(CheckFailed):
        checks.check_residue(value * (1 + 2 * checks.RESIDUE_REL_TOL), lat.form)


def test_run_checks_reports_failures_and_skips_failed_calls():
    workload = workloads.Workload("w", [], [
        workloads.Check("ok", ("a",), lambda a: None),
        workloads.Check("bad", ("a",), lambda a: checks._require(False, "corrupted")),
        workloads.Check("skipped", ("missing",), lambda m: checks._require(False, "never run")),
    ])
    assert run_checks(workload, {"a": ""}) == ["bad: corrupted"]


def test_calls_past_the_time_budget_fail_without_starting(monkeypatch):
    monkeypatch.setattr(run, "RUN_BUDGET_S", 0.0)
    workload = workloads.build("square-hex", 1)
    result = run.run(workload, Runner(ROOT, trace=False), seconds=0)
    assert result["attempted"] == result["failed"] == 1 + len(workload.calls)
    assert result["errors"] == []


def test_trace_counts_every_classified_sublattice():
    result = Runner(ROOT, trace=True).call(("census", "--preset", "square", "--max", "20"), timeout=120)
    assert result.code == 0
    metrics = layers.metrics_of([result.trace])
    assert metrics["sublattices.classified"] == sum(checks.sigma1(n) for n in range(1, 21))
    assert metrics["gram.reductions"] == metrics["sublattices.classified"]
    assert metrics["cli.self_s"] > 0 and metrics["sublattices.self_s"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_call_output_is_checked(name):
    workload = workloads.build(name, 7)
    checked = {key for check in workload.checks for key in check.keys}
    assert [c.key for c in workload.calls if c.key not in checked] == []
    assert len({c.key for c in workload.calls}) == len(workload.calls)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
