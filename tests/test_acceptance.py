"""Acceptance gate: one check per release criterion, one printed line each.

Heavy inputs (million-term coefficient streams) are computed once in
module-scoped fixtures and shared across criteria.
"""

import math
import random
import sys
import time
from math import gcd

import pytest

from wellround import asympt
from wellround.general import (
    brs_index,
    count_wr_nonrational,
    count_wr_rational,
    g_star,
    nonrational_census,
    orthogonal_primitive,
)
from wellround.gram import (
    GramForm,
    Unimodular,
    classify,
    gauss_reduce,
)
from wellround.hexagonal import a_hex, b_hex
from wellround.scalar import Scalar
from wellround.square import a_square, b_square, fukshansky_superset_member
from wellround.sublattices import wr_census_bruteforce

from oracle import gauss_reduce as oracle_reduce

BIG_X = 1_000_000
CHECKPOINTS = (10_000, 100_000, 1_000_000)
# desk-scale tolerance constants (absolute unless stated otherwise)
RESIDUAL_OVER_X_TOL = 0.02
SUMMATORY_BAND = 10.0  # multiples of sqrt(x)
NONRATIONAL_BAND = 15.0  # multiples of sqrt(x)
CONSTANT_TOL = 1e-5
LOG_DERIVATIVE_TOL = 1e-6
EPSTEIN_REL_TOL = 0.02
MOEBIUS_TOL = 1e-6


_clock = {"start": 0.0}


@pytest.fixture(autouse=True)
def _criterion_clock():
    """Start each criterion's wall clock (module fixtures are set up before)."""
    _clock["start"] = time.perf_counter()


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    elapsed = time.perf_counter() - _clock["start"]
    line = f"[{status}] {name}{suffix} [{elapsed:.2f}s]"
    print(line, file=sys.__stdout__, flush=True)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="module")
def a_square_big():
    return a_square(BIG_X)


@pytest.fixture(scope="module")
def a_hex_big():
    return a_hex(BIG_X)


def test_criterion_01_square_oracle():
    start = time.monotonic()
    N = 150
    census = wr_census_bruteforce(GramForm.of(1, 0, 1), N)
    ok = list(a_square(N)) == census.well_rounded_list()
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _report("criterion 1: square formula = census for n <= 150", ok)
    assert ok


def test_criterion_02_hexagonal_oracle():
    N = 150
    census = wr_census_bruteforce(GramForm.of(2, 1, 2), N)
    ok = list(a_hex(N)) == census.well_rounded_list()
    _report("criterion 2: hexagonal formula = census for n <= 150", ok)
    assert ok


def test_criterion_03_index_set_witness():
    in_superset = fukshansky_superset_member(6)
    count_at_six = a_square(6)[6]
    ok = in_superset and count_at_six == 0
    _report(
        "criterion 3: index 6 in the candidate superset yet a_square(6) = 0", ok
    )
    assert ok


def test_criterion_04_constants():
    c_sq, _ = asympt.c_square_eval()
    c_tr, _ = asympt.c_triangle_eval()
    lpl4 = asympt.L_prime_over_L(-4)
    lpl3 = asympt.L_prime_over_L(-3)
    ok = (
        abs(c_sq - 0.6272237) < CONSTANT_TOL
        and abs(c_tr - 0.4915036) < CONSTANT_TOL
        and abs(lpl4 - 0.2456096) < LOG_DERIVATIVE_TOL
        and abs(lpl3 - 0.3682816) < LOG_DERIVATIVE_TOL
    )
    _report(
        "criterion 4: asymptotic constants",
        ok,
        f"c_sq={c_sq:.7f} c_tr={c_tr:.7f} lpl4={lpl4:.7f} lpl3={lpl3:.7f}",
    )
    assert ok


def test_criterion_05_growth_fit(a_square_big, a_hex_big):
    results = []
    for counts, model in (
        (a_square_big, asympt.square_model()),
        (a_hex_big, asympt.hexagonal_model()),
    ):
        A = counts.summatory(BIG_X)
        resid = abs(A - model(BIG_X)) / BIG_X
        results.append(resid)
    ok = all(r <= RESIDUAL_OVER_X_TOL for r in results)
    _report(
        "criterion 5: growth fit at x = 10^6",
        ok,
        f"residual/x square={results[0]:.5f} hex={results[1]:.5f}",
    )
    assert ok


def test_criterion_06_similar_sublattice_asymptotics():
    b_sq = b_square(BIG_X)
    b_tr = b_hex(BIG_X)
    sq_prefix = b_sq.summatory_all()
    tr_prefix = b_tr.summatory_all()
    ok = True
    details = []
    for x in CHECKPOINTS:
        gap_sq = abs(sq_prefix[x - 1] - math.pi / 4 * x)
        gap_tr = abs(tr_prefix[x - 1] - math.pi / (3 * math.sqrt(3)) * x)
        band = SUMMATORY_BAND * math.sqrt(x)
        ok = ok and gap_sq <= band and gap_tr <= band
        details.append(f"x={x}: {gap_sq:.0f}/{gap_tr:.0f} vs {band:.0f}")
    _report("criterion 6: similar-sublattice summatory bands", ok, "; ".join(details))
    assert ok


def test_criterion_07_nonrational_law():
    g = GramForm(Scalar(1), Scalar(0), Scalar(0, 1, 2))
    census = wr_census_bruteforce(g, 200)
    counts_small = count_wr_nonrational(g, 200)
    exact_ok = list(counts_small) == census.well_rounded_list()
    independent_ok = list(counts_small) == list(nonrational_census(g, 200))
    x = 10_000
    A = count_wr_nonrational(g, x).summatory(x)
    target = math.log(3) / 4 * x
    band_ok = abs(A - target) <= NONRATIONAL_BAND * math.sqrt(x)
    ok = exact_ok and independent_ok and band_ok
    _report(
        "criterion 7: non-rational counting law for diag(1, sqrt(2))",
        ok,
        f"A({x})={A} target={target:.0f}",
    )
    assert ok


def test_criterion_08_rational_general_consistency():
    N = 100
    ok = list(count_wr_rational(GramForm.of(1, 0, 1), N)) == list(a_square(N))
    ok = ok and list(count_wr_rational(GramForm.of(2, 1, 2), N)) == list(a_hex(N))
    for g in (GramForm.of(1, 0, 2), GramForm.of(2, 1, 3)):
        census = wr_census_bruteforce(g, N)
        ok = ok and list(count_wr_rational(g, N)) == census.well_rounded_list()
    _report("criterion 8: rational assembly matches both pipelines and censuses", ok)
    assert ok


def test_criterion_09_dual_invariants_corpus():
    rng = random.Random(987654)
    lattices = []
    while len(lattices) < 20:
        a = rng.randint(1, 12)
        b = rng.randint(-9, 9)
        c = rng.randint(b * b // a + 1, b * b // a + 20)
        if gcd(gcd(a, abs(b)), c) != 1:
            continue
        lattices.append(GramForm.of(a, b, c))
    checks = 0
    ok = True
    while checks < 500:
        g = rng.choice(lattices)
        w = (rng.randint(-25, 25), rng.randint(-25, 25))
        if w == (0, 0) or gcd(abs(w[0]), abs(w[1])) != 1:
            continue
        d = int(g.discriminant().rat)
        gs = g_star(w, g)
        z = orthogonal_primitive(w, g)
        det = abs(w[0] * z[1] - w[1] * z[0])
        ok = ok and d % gs == 0 and brs_index(w, g) == det
        checks += 1
    _report("criterion 9: dual invariants on 500 random primitive vectors", ok)
    assert ok


def test_criterion_10_epstein():
    residue_sq = asympt.epstein_residue_estimate((1, 0, 1))
    residue_hex = asympt.epstein_residue_estimate((1, 0.5, 1))
    target_hex = math.pi / math.sqrt(0.75)
    ok = (
        abs(residue_sq - math.pi) / math.pi < EPSTEIN_REL_TOL
        and abs(residue_hex - target_hex) / target_hex < EPSTEIN_REL_TOL
    )
    R = 1.0e6
    for Q, s, k, l, C, D in [
        ((1, 0, 1), 1.5, 2, 1, 3, 4),
        ((1, 0.5, 1), 2.0, 1, 1, 2, 3),
    ]:
        direct = asympt.epstein_restricted(Q, s, k, l, C, D, R)
        moebius = asympt.epstein_restricted_moebius(Q, s, k, l, C, D, R)
        ok = ok and abs(direct - moebius) < MOEBIUS_TOL
    _report(
        "criterion 10: Epstein residues and restricted-sum identity",
        ok,
        f"sq={residue_sq:.5f} hex={residue_hex:.5f}",
    )
    assert ok


def test_criterion_11_reduction_suite_and_sandwiches():
    rng = random.Random(13579)
    ok = True
    for _ in range(1000):
        a = rng.randint(1, 30)
        b = rng.randint(-30, 30)
        c = rng.randint(b * b // a + 1, b * b // a + 30)
        g = GramForm.of(a, b, c)
        r = gauss_reduce(g)
        zero = Scalar(0)
        ok = ok and zero <= r.b * 2 <= r.a <= r.c
        # the basis change comes from the test-local Scalar reduction
        _, U = oracle_reduce(g)
        ok = ok and g.transform(U) == r
        V = Unimodular(((1, rng.randint(-3, 3)), (0, 1))) @ Unimodular(
            ((0, 1), (1, 0))
        )
        r2 = gauss_reduce(g.transform(V))
        ok = ok and r2 == r
        scale = rng.randint(1, 6)
        ok = ok and classify(g.scale(scale)) == classify(g)
        if not ok:
            break
    for s in (1.5, 2.0, 3.0):
        ok = ok and asympt.sandwich_check_square(s, N=20_000)
        ok = ok and asympt.sandwich_check_hex(s, N=20_000)
    _report("criterion 11: reduction property suite and series sandwiches", ok)
    assert ok
