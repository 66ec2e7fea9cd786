import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellround.cli import main
from wellround.growth import AsymptoticModel, fit_model


def _summatory_points(steps):
    """Sorted (x, A(x)) with A growing by each step at a new x."""
    points, A = [], 0
    for x, step in sorted(steps):
        A += step if not points or x != points[-1][0] else 0
        points.append((x, A))
    return points


# 2 to 5 checkpoints in [2, 20000]; A(x) is nondecreasing in x
checkpoint_sets = st.lists(
    st.tuples(st.integers(2, 20_000), st.integers(0, 10**6)), min_size=2, max_size=5
).map(_summatory_points)


def _lstsq(points):
    """The minimum-norm least-squares (c1, c2) of the float design rows
    (x log x, x) against A, by an SVD at 60 digits.  numpy's lstsq errs by
    about eps times the design's condition number, which exceeds the bound
    of `test_fit_matches_lstsq` where the two terms cancel at a checkpoint
    (at [(2, 0), (19998, 1)], 3.1e-16 against a bound of 1.5e-16)."""
    with mpmath.workdps(60):
        design = mpmath.matrix([[x * math.log(x), x] for x, _ in points])
        U, S, V = mpmath.svd_r(design)
        c = [mpmath.mpf(0), mpmath.mpf(0)]
        for i in range(len(S)):
            # a rank-1 design (every x equal) has a zero second singular value
            if S[i] > S[0] * mpmath.mpf(10) ** -40:
                weight = sum(U[k, i] * A for k, (_, A) in enumerate(points)) / S[i]
                c = [c[j] + weight * V[i, j] for j in range(2)]
        return float(c[0]), float(c[1])


def _asympt_rows(capsys, gram: str, checkpoints: str) -> list[dict]:
    assert main(["asympt", "--lattice", "custom", "--gram", gram, "--checkpoints", checkpoints]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


@given(checkpoint_sets)
@example([(2, 0), (19998, 1)])
@settings(max_examples=300, deadline=None)
def test_fit_matches_lstsq(points):
    model = fit_model(points)
    c1, c2 = _lstsq(points)
    if c1 >= 0:
        for x, _ in points:
            # relative to the size of the two terms: the fitted curve can
            # cross zero at a checkpoint, where both fits are rounding noise
            size = c1 * x * math.log(x) + abs(c2) * x
            assert abs(model(x) - (c1 * x * math.log(x) + c2 * x)) <= 1e-11 * size
    else:
        # the fit with c1 = 0: c2 = sum x A / sum x^2
        exact = Fraction(sum(x * A for x, A in points), sum(x * x for x, _ in points))
        assert (model.c1, model.c2) == (0.0, float(exact))


def test_negative_c1_refits_c2_exactly(capsys):
    # unconstrained, c1 < 0 here; the clamped fit refits c2 with c1 = 0
    rows = _asympt_rows(capsys, "diag(1,sqrt(2))", "36,5000")
    assert [(r["x"], r["A"]) for r in rows] == [(36, 11), (5000, 1376)]
    c2 = Fraction(36 * 11 + 5000 * 1376, 36**2 + 5000**2)
    assert c2 == Fraction(6_880_396, 25_001_296)
    assert [r["model"] for r in rows] == [float(c2) * 36, float(c2) * 5000]
    assert rows[1]["model"] == pytest.approx(1376.0, abs=0.01)


@pytest.mark.parametrize("checkpoints", ["1000", "1000,1000"])
def test_rank_one_fit_passes_through_the_point(capsys, checkpoints):
    rows = _asympt_rows(capsys, "diag(1,sqrt(2))", checkpoints)
    for r in rows:
        assert r["A"] == 275
        assert r["model"] == pytest.approx(r["A"], rel=1e-12)


def test_rank_one_fit_is_the_minimum_norm_solution():
    x, A = 1000, 914
    a, b = x * math.log(x), float(x)
    model = fit_model([(x, A), (x, A)])
    assert model.c1 == pytest.approx(A * a / (a * a + b * b), rel=1e-15)
    assert model.c2 == pytest.approx(A * b / (a * a + b * b), rel=1e-15)


def test_no_well_rounded_lattice_fits_zero(capsys):
    assert fit_model([(36, 0), (1000, 0), (5000, 0)]) == AsymptoticModel(0.0, 0.0)
    rows = _asympt_rows(capsys, '{"t":"sqrt(2)","n":"3"}', "36,1000,5000")
    assert all(r["A"] == r["model"] == r["residual"] == 0 for r in rows)
