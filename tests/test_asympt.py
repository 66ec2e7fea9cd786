import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellround import asympt, growth
from wellround.gram import GramForm, gauss_reduce
from wellround.dirichlet import _isqrt
from wellround.hexagonal import HEXAGONAL
from wellround.square import SQUARE

import oracle


class TestConstants:
    def test_euler_gamma(self):
        assert asympt.euler_gamma()[0] == pytest.approx(0.5772156649015329, abs=1e-12)

    def test_zeta_prime_ratio(self):
        # zeta'(2) = -0.9375482543...; ratio -0.56996099...
        assert asympt.zeta_prime_2_over_zeta_2()[0] == pytest.approx(
            -0.5699609930945327, abs=1e-9
        )

    def test_L_at_one(self):
        assert asympt.L_at_one(-4)[0] == pytest.approx(math.pi / 4, abs=1e-14)
        assert asympt.L_at_one(-3)[0] == pytest.approx(
            math.pi / (3 * math.sqrt(3)), abs=1e-14
        )
        with pytest.raises(asympt.UnsupportedDiscriminantError):
            asympt.L_at_one(-7)

    def test_L_at_one_partial_sum_crosscheck(self):
        for chi, value in ((oracle.CHI_MINUS4, math.pi / 4), (oracle.CHI_MINUS3, math.pi / (3 * math.sqrt(3)))):
            N = 1_000_000
            total = sum(chi[n % len(chi)] / n for n in range(1, N))
            assert abs(total - value) < 1e-5

    def test_L_prime_over_L(self):
        assert asympt.L_prime_over_L(-4)[0] == pytest.approx(0.2456096, abs=1e-6)
        assert asympt.L_prime_over_L(-3)[0] == pytest.approx(0.3682816, abs=1e-6)

    def test_L_prime_over_L_refuses_other_discriminants(self):
        with pytest.raises(asympt.UnsupportedDiscriminantError):
            asympt.L_prime_over_L(-7)

    def test_both_closed_forms_agree(self):
        for D in (-4, -3):
            assert asympt.L_prime_over_L(D)[0] == pytest.approx(
                oracle.L_prime_over_L_gamma_form(D), abs=1e-12
            )

    def test_growth_constants(self):
        _, c_sq, err_sq = asympt.preset_constants(SQUARE)
        _, c_tr, err_tr = asympt.preset_constants(HEXAGONAL)
        assert c_sq == pytest.approx(0.6272237, abs=1e-5)
        assert c_tr == pytest.approx(0.4915036, abs=1e-5)
        assert 0 < err_sq < 1e-5 and 0 < err_tr < 1e-5
        # the values of the prefix-array kernel, which summed the same terms
        # in another way
        assert c_sq == pytest.approx(0.6272237302455415, rel=0, abs=5e-12)
        assert c_tr == pytest.approx(0.49150356259687056, rel=0, abs=5e-12)

    def test_euler_maclaurin_sums_against_mpmath(self):
        import mpmath

        with mpmath.workdps(30):
            gamma = mpmath.euler
            ratio = mpmath.zeta(2, derivative=1) / mpmath.zeta(2)
            assert abs(asympt.euler_gamma()[0] - gamma) <= 1e-15
            assert abs(asympt.zeta_prime_2_over_zeta_2()[0] - ratio) <= 1e-15

    def test_lattice_constants_within_stated_error_of_long_sums(self, monkeypatch):
        # c_square from its two band-gap limits by the long numpy row sums at
        # ten times BAND_TERMS values of p, c_triangle from its two by the cone
        # decomposition at 30 digits in mpmath
        shipped = asympt.preset_constants(SQUARE)[1:], asympt.preset_constants(HEXAGONAL)[1:]

        def long_limit(r, odd):
            if r == 9:
                return float(oracle.cone_limit(r, odd)), 0.0
            return oracle.band_gap_limit(10 * oracle.BAND_TERMS, r, odd)

        monkeypatch.setattr(asympt, "_band_gap_limit", long_limit)
        long = asympt.preset_constants(SQUARE)[1:], asympt.preset_constants(HEXAGONAL)[1:]
        for (value, error), (reference, reference_error) in zip(shipped, long):
            # the estimate bounds the distance, and is no floor
            assert abs(value - reference) <= error + reference_error
            assert error < 1e-13

    def test_lattice_constants_within_stated_error_of_mpmath(self):
        # the two constants' brackets by hand at 30 digits, on the band-gap
        # limits of oracle.cone_limit: a reference independent of the
        # expansion of each preset's identity in preset_constants
        with mpmath.workdps(30):
            g, zp = mpmath.euler, mpmath.zeta(2, derivative=1) / mpmath.zeta(2)
            log2, log3 = mpmath.log(2), mpmath.log(3)
            L4, L3 = mpmath.dirichlet(1, [0, 1, 0, -1]), mpmath.dirichlet(1, [0, 1, -1])
            lpl4 = mpmath.dirichlet(1, [0, 1, 0, -1], 1) / L4
            lpl3 = mpmath.dirichlet(1, [0, 1, -1], 1) / L3
            s1, s2, t1, t2 = (oracle.cone_limit(r, odd) for r in (3, 9) for odd in (False, True))
            square = L4 / mpmath.zeta(2) * (
                mpmath.zeta(2) + log3 / 3 * (lpl4 + g - 2 * zp) + log3 / 3 * (2 * g - log3 / 4 - log2 / 6)
                - s1 - mpmath.mpf(4) / 3 * s2
            )
            triangle = L3 + 9 * L3 / (16 * mpmath.zeta(2)) * (log3 * ((g + lpl3 - 2 * zp) + 2 * g - log3 / 4) - t1 - 4 * t2)
            assert abs(square - mpmath.mpf("0.62722373024582520")) < 1e-17
            for (value, error), exact, bound in (
                (asympt.preset_constants(SQUARE)[1:], square, 1e-13),
                (asympt.preset_constants(HEXAGONAL)[1:], triangle, 1.75e-14),
            ):
                assert abs(value - exact) <= error < bound

    def test_derived_c1_is_the_closed_form(self):
        # the x log x coefficients log 3/(2 pi) and 3 sqrt 3 log 3/(8 pi),
        # each within 2 ulps; the model's c1 is the same float
        for preset, closed in ((SQUARE, math.log(3) / (2 * math.pi)),
                               (HEXAGONAL, 3 * math.sqrt(3) * math.log(3) / (8 * math.pi))):
            c1 = asympt.preset_constants(preset)[0]
            assert abs(c1 - closed) <= 2 * math.ulp(closed)
            assert asympt.preset_model(preset).c1 == c1

    def test_constants_trace_little_memory(self):
        # no sum builds an array: the traced peak of the prefix-array kernel
        # was 36.7 MB
        import tracemalloc

        import wellround.dirichlet  # noqa: F401  (imports are not measured)
        import wellround.growth  # noqa: F401

        tracemalloc.start()
        try:
            asympt.constants_table()
            asympt.preset_model(SQUARE)
            asympt.preset_model(HEXAGONAL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_constants_table_pairs(self):
        table = asympt.constants_table()
        for entry in table.values():
            assert len(entry) == 2
        assert table["c_square"][0] == pytest.approx(0.6272237, abs=1e-5)

    def test_constants_table_computes_each_input_once(self):
        # gamma enters 7 times and zeta'(2)/zeta(2) 3 times: directly, and
        # through L'/L and both lattice constants
        shared = (asympt.euler_gamma, asympt.zeta_prime_2_over_zeta_2)
        for f in shared:
            f.cache_clear()
        asympt.constants_table()
        assert [f.cache_info().misses for f in shared] == [1, 1]


@st.composite
def _reduced_forms(draw):
    """Exact reduced Gram entries (a, b, c), |2b| <= a <= c: integral or
    with b a half-integer, 2b often at +-a, and c from a to 100 a."""
    a = draw(st.integers(1, 40))
    b = Fraction(draw(st.one_of(st.sampled_from([-a, a]), st.integers(-a, a))), 2)
    return a, b, a * draw(st.integers(1, 100)) + draw(st.integers(0, a - 1))


class TestKronecker:
    """`asympt._kronecker`, C/R - gamma of the Epstein function, against the
    60-digit Laurent coefficients of (s - 1) Z(s)."""

    @pytest.mark.parametrize("Q", [(1, 0, 1), (2, 1, 2), (2, 1, 3), (7, 3, 11), (3, -1, 5),
                                   (1, Fraction(1, 2), 1), (5, 2, 9), (1, 0, 1000)])
    def test_within_its_error_of_the_laurent_series(self, Q):
        value, error = asympt._kronecker(*Q)
        assert abs(value - oracle.kronecker_reference(Q)) <= error < 1e-13 * max(1.0, abs(value))

    @settings(max_examples=10, deadline=None)
    @given(_reduced_forms())
    def test_drawn_forms(self, Q):
        value, error = asympt._kronecker(*Q)
        assert abs(value - oracle.kronecker_reference(Q)) <= error < 1e-13 * max(1.0, abs(value))

    def test_principal_forms_give_L_prime_over_L(self):
        # the reference itself on the two principal forms, against mpmath's L'/L:
        # it errs by O(h), 3.5e-21 and 6.1e-21 here
        for Q, chi in (((1, 0, 1), [0, 1, 0, -1]), ((1, Fraction(1, 2), 1), [0, 1, -1])):
            with mpmath.workdps(30):
                exact = mpmath.dirichlet(1, chi, 1) / mpmath.dirichlet(1, chi)
                assert abs(oracle.kronecker_reference(Q) - exact) < 1e-19


def _band_gap_reference(P, r, odd):
    step = 2 if odd else 1
    terms = []
    for p in range(1, step * P + 1, step):
        top = math.isqrt(r * p * p - 1)
        inner = math.fsum(1.0 / q for q in range(p + step, top + 1, step))
        terms.append((math.log(r) / (2 * step) - inner) / p)
    return math.fsum(terms)


class TestBandGapSum:
    """The long numpy row sums of `oracle.band_gap_limit`, the reference the
    cone decomposition is checked against."""

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("r", [3, 9])
    @pytest.mark.parametrize("P", [1, 2, 2000])
    def test_matches_plain_reference(self, P, r, odd):
        assert oracle.band_gap_sums((P,), r, odd) == [
            pytest.approx(_band_gap_reference(P, r, odd), rel=0, abs=1e-12)
        ]

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("r", [3, 9])
    def test_richardson_equals_three_sums(self, r, odd, monkeypatch):
        # the sums over P/2, P and 2P terms come from one pass; with blocks of
        # 7 terms the cuts also fall inside blocks and on block ends
        def three_passes(P):
            half, mid, full = (oracle.band_gap_sums((k,), r, odd)[0] for k in (P // 2, P, 2 * P))
            value = 2.0 * full - mid
            return value, abs(2.0 * mid - half - value)

        for P in (1, 3, 2000, oracle.BAND_TERMS):
            assert oracle.richardson(P, r, odd) == three_passes(P)
        monkeypatch.setattr(oracle, "BAND_BLOCK", 7)
        for P in (1, 3, 7, 14, 2000):
            assert oracle.richardson(P, r, odd) == three_passes(P)

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("r", [3, 9])
    def test_terms_do_not_depend_on_the_block(self, r, odd):
        whole = oracle.band_gap_terms(0, 300, r, odd)
        parts = [oracle.band_gap_terms(k, min(k + 7, 300), r, odd) for k in range(0, 300, 7)]
        assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("r", [3, 9])
    def test_expansion_meets_the_exact_rows(self, r, odd, monkeypatch):
        # the rows past EXACT_P by the expansion, against their exact sums:
        # each row's sum over q within 1e-15
        p = np.arange(1, 800, 2 if odd else 1)[:400]
        past = p >= oracle.EXACT_P
        expanded = oracle.band_gap_terms(0, 400, r, odd)
        monkeypatch.setattr(oracle, "EXACT_P", 800)
        exact = oracle.band_gap_terms(0, 400, r, odd)
        assert np.max(np.abs(expanded - exact)[past] * p[past]) <= 1e-15

    @pytest.mark.parametrize("r", [3, 9])
    def test_top_is_exact_at_largest_p(self, r):
        # richardson takes 2 P values of p, so odd p reaches 4 BAND_TERMS - 1,
        # and 40 BAND_TERMS - 1 in the long sums of the constants' test; the
        # row tops are dirichlet._isqrt(r p^2 - 1)
        for largest in (4 * oracle.BAND_TERMS - 1, 40 * oracle.BAND_TERMS - 1):
            p = np.arange(largest - 2000, largest + 1, dtype=np.int64)
            top = _isqrt(r * p * p - 1)
            assert [int(t) for t in top] == [math.isqrt(r * int(v) * int(v) - 1) for v in p]


# the band 1 < q/p < sqrt(r) from (1, 1): its first band, the whole of it at r = 9
BAND_0 = {
    3: [((1, 1), (2, 3), True), ((2, 3), (3, 5), True)],
    9: [((1, 1), (1, 2), True), ((1, 2), (1, 3), False)],
}


class TestBandGapClosedForm:
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("r", [3, 9])
    def test_within_its_error_of_mpmath(self, r, odd):
        value, error = asympt._band_gap_limit(r, odd)
        assert abs(value - oracle.cone_limit(r, odd)) <= error < 1e-14

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("r", [3, 9])
    def test_within_the_extrapolated_sums_error(self, r, odd):
        # the long numpy row sums, independent of the cones
        value, error = asympt._band_gap_limit(r, odd)
        extrapolated, extrapolated_error = oracle.band_gap_limit(oracle.BAND_TERMS, r, odd)
        assert abs(value - extrapolated) <= error + extrapolated_error

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("r", [3, 9])
    def test_band_0_against_its_row_sums(self, r, odd):
        # the rows past P add at most 1/P
        P = 200_000
        shares = [asympt._cone_gap(a, b, include_b, odd) for a, b, include_b in BAND_0[r]]
        band = math.fsum(v for v, _ in shares)
        assert abs(band - oracle.band_row_sum(P, r, odd)) <= 1.0 / P + 1e-12

    def test_band_tail_bound(self):
        # the r = 3 walk stops after band 16, where the rest is below 2.6e-17
        def advance(rays):
            return tuple((2 * x + y, 3 * x + 2 * y) for x, y in rays)

        rays, bounds = ((1, 1),), []
        for _ in range(16):
            rays = advance(rays)
            bounds.append(asympt._band_tail(*rays[0]))
        assert bounds[-1] <= asympt.TAIL_CUT < bounds[-2]
        assert bounds[-1] < 2.7e-17
        # a row p' <= pq holds at most one q' with lam p' < q' < sqrt(3) p', by
        # brute force
        rays = ((1, 1),)
        for _ in range(3):
            rays = advance(rays)
            (p, q), = rays
            for row in range(1, p * q + 1):
                inside = [x for x in range(q * row // p + 1, 2 * row) if x * x < 3 * row * row]
                assert len(inside) <= 1
        # the bound covers the next six bands of the shipped cone shares
        for odd in (False, True):
            rays = ((1, 1), (2, 3), (3, 5))
            shares = []
            for _ in range(14):
                shares.append(math.fsum(asympt._cone_gap(a, b, True, odd)[0] for a, b in (rays[:2], rays[1:])))
                rays = advance(rays)
            rays = ((1, 1),)
            for j in range(1, 9):
                rays = advance(rays)
                assert abs(math.fsum(shares[j : j + 6])) <= asympt._band_tail(*rays[0])

    @pytest.mark.parametrize("s", [2, 3, 5, 7, 9, 17])
    @pytest.mark.parametrize("a", [Fraction(64), Fraction(65, 2), Fraction(11), Fraction(21, 2), Fraction(3)])
    def test_hurwitz_within_its_rest_of_mpmath(self, s, a):
        # the Euler-Maclaurin terms to B_20 are exact, and the B_22 term
        # bounds the rest
        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        value, rest = asympt._hurwitz(s, a)
        # at 40 digits mpmath's zeta(17, 64) errs by 1e-19 relative
        with mpmath.workdps(60):
            assert abs(mp(value) - mpmath.zeta(s, mp(a))) <= mp(rest)


class TestIntervalSumBounds:
    def test_empty_window(self):
        lower, upper, exact = oracle.interval_sum_bounds(1, math.sqrt(3), 0.0, 0.0, 2.0)
        assert exact == 0.0
        assert lower < exact < upper

    def test_strict_inequalities(self):
        lower, upper, exact = oracle.interval_sum_bounds(10, math.sqrt(3), 0.0, 0.0, 1.5)
        assert lower < exact < upper
        lower, upper, exact = oracle.interval_sum_bounds(100, 3.0, 0.0, 0.0, 1.1)
        assert lower < exact < upper

    @given(
        st.integers(1, 200),
        st.floats(1.1, 4.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 0.99),
        st.floats(0.0, 4.0),
    )
    @settings(max_examples=200)
    def test_bounds_straddle(self, l, alpha, beta, gamma, s):
        lower, upper, exact = oracle.interval_sum_bounds(l, alpha, beta, gamma, s)
        assert lower < exact + 1e-12
        assert exact < upper + 1e-12

    def test_domain_errors(self):
        with pytest.raises(asympt.DomainError):
            oracle.interval_sum_bounds(0, 2.0, 0.0, 0.0, 1.0)
        with pytest.raises(asympt.DomainError):
            oracle.interval_sum_bounds(1, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(asympt.DomainError):
            oracle.interval_sum_bounds(1, 2.0, 0.0, 1.0, 1.0)
        with pytest.raises(asympt.DomainError):
            oracle.interval_sum_bounds(1, 2.0, 0.0, 0.0, -0.5)


class TestModels:
    def test_model_rejects_negative_leading(self):
        with pytest.raises(ValueError):
            growth.AsymptoticModel(-1.0, 0.0)

    def test_model_report_rows(self):
        from wellround.square import a_square

        points = [(x, a_square(1000).summatory(x)) for x in (100, 1000)]
        rows = growth.model_report(points, asympt.preset_model(SQUARE))
        assert [(r["x"], r["A"]) for r in rows] == points
        for r in rows:
            assert r["A"] >= 0 and "residual_over_sqrt_x" in r

    def test_model_report_rejects_checkpoint_below_two(self):
        with pytest.raises(ValueError, match="checkpoint 1"):
            growth.model_report([(1, 1)], growth.AsymptoticModel(0.1, 0.2))

    def test_model_report_out_of_range(self):
        # model_report reads no stream: the pair of a checkpoint beyond the
        # stream's bound cannot be built
        from wellround.dirichlet import OutOfRangeError
        from wellround.square import a_square

        with pytest.raises(OutOfRangeError):
            growth.model_report([(1000, a_square(100).summatory(1000))], asympt.preset_model(SQUARE))


class TestSandwich:
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_square(self, s):
        assert oracle.sandwich_check_square(s)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_hex(self, s):
        assert oracle.sandwich_check_hex(s)


# Z(s) in closed form: 4 zeta(s) L(s, chi_-4) for x^2 + y^2, and
# 6 2^-s zeta(s) L(s, chi_-3) for 2(x^2 + xy + y^2), which at s = 2 and 3 is
# (3/2) zeta(2) L(2, chi_-3) and (3/4) zeta(3) L(3, chi_-3)
CLOSED_FORMS = {
    (1, 0, 1): lambda s: 4 * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, 0, -1]),
    (2, 1, 2): lambda s: 6 * mpmath.mpf(2) ** -s * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, -1]),
}


class TestEpstein:
    @pytest.mark.parametrize("Q", [(1, 2, 1), (0, 0, 1), (1, 0, -1), (-1, 0, -1)])
    def test_value_positive_definite_only(self, Q):
        with pytest.raises(asympt.DomainError, match="positive definite"):
            asympt.epstein_value(Q, 2.0)

    @pytest.mark.parametrize("s", [1.0, 0.5, math.inf, math.nan])
    def test_value_needs_s_finite_and_above_1(self, s):
        with pytest.raises(asympt.DomainError, match="s finite and above 1"):
            asympt.epstein_value((1, 0, 1), s)

    def test_value_outside_the_float_range_is_refused(self):
        # a^-s overflows; a^-s underflows (past s = 171.6, where Gamma(s)
        # overflows, only the shell sum is left); y^2 = c/a overflows
        for Q, s in [((0.5, 0, 0.5), 2000.0), ((2, 1, 2), 2000.0), ((1e-300, 0, 1e300), 2.0)]:
            with pytest.raises(asympt.DomainError, match="outside the float range"):
                asympt.epstein_value(Q, s)

    @pytest.mark.parametrize("Q", list(CLOSED_FORMS))
    @pytest.mark.parametrize("s", [1.0 + 2.0**-7, 1.5, 2.0, 3.0, 7.5])
    def test_value_against_closed_form(self, Q, s):
        value, error = asympt.epstein_value(Q, s)
        with mpmath.workdps(30):
            distance = abs(value - CLOSED_FORMS[Q](mpmath.mpf(s)))
        assert distance <= error < 1e-13 * value

    @pytest.mark.parametrize("Q, s", [((2, 1, 2), 171.0), ((2, 1, 2), 100.0), ((1, 0, 1), 200.0), ((1, 0, 1), 172.0)])
    def test_large_s_against_closed_form(self, Q, s):
        # the series cancels (2,1,2 at s = 100: 27% error) or Gamma(s)
        # overflows (s > 171.6); the shell sum then states the smaller error
        value, error = asympt.epstein_value(Q, s)
        with mpmath.workdps(30):
            distance = abs(value - CLOSED_FORMS[Q](mpmath.mpf(s)))
        assert value > 0 and distance <= error < 1e-12 * value

    @pytest.mark.parametrize("Q", list(CLOSED_FORMS))
    def test_shells_only_where_the_series_errs(self, Q, monkeypatch):
        # at s = 2 the series error is about 1e-14 relative: no shell sum
        def refuse(*args):
            raise AssertionError("shell sum at s = 2")

        monkeypatch.setattr(asympt, "_shell_sum", refuse)
        value, error = asympt.epstein_value(Q, 2.0)
        assert error < asympt.SHELL_FROM * value

    def test_residue_is_pi_over_sqrt_det(self):
        # ac - b^2 = 1 rounds nowhere; the error counts five roundings
        value, error = asympt.epstein_residue({1: 1})
        assert (value, error) == (math.pi, pytest.approx(5 * asympt.EPS * math.pi))
        value, error = asympt.epstein_residue({1: Fraction(3, 4)})
        assert abs(value - math.pi / math.sqrt(0.75)) <= error < 1e-14 * value

    def test_residue_error_carries_the_cancellation(self):
        # ac - b^2 = p - q sqrt(2) = 7.5e-7, from two terms of 6.7e5
        p, q = 665857, 470832
        value, error = asympt.epstein_residue({1: p, 2: -q})
        with mpmath.workdps(30):
            exact = mpmath.pi / mpmath.sqrt(p - q * mpmath.sqrt(2))
            assert abs(value - exact) <= error < 1e-3 * value

    @pytest.mark.parametrize("j", [-700, -300, 300, 700, 1021])
    def test_residue_scales_exactly_by_powers_of_four(self, j):
        # ac - b^2 times 4^j, past the float range at |j| >= 700, gives the
        # residue and its error times 2^-j, bit for bit; at j = 1021 the error
        # falls below the normal floats, where it may only round up
        for det in ({1: 3}, {1: Fraction(3, 4)}, {1: 665857, 2: -470832}):
            scaled = {m: c * Fraction(4) ** j for m, c in det.items()}
            value, error = asympt.epstein_residue(det)
            scaled_value, scaled_error = asympt.epstein_residue(scaled)
            assert scaled_value == math.ldexp(value, -j)
            assert Fraction(scaled_error) >= Fraction(error) / Fraction(2) ** j
            if math.ldexp(error, -j) >= sys.float_info.min:
                assert scaled_error == math.ldexp(error, -j)
            else:
                assert j == 1021

    def test_residue_refuses_a_det_within_its_roundings(self):
        # a Pell solution: p - q sqrt(2) = 3.8e-9 from two terms of 1.3e8,
        # whose float roundings are 1.5e-8 each
        with pytest.raises(asympt.DomainError, match="roundings"):
            asympt.epstein_residue({1: 131836323, 2: -93222358})

    def test_primitive_sum_factors(self):
        # full sum over Q <= R equals sum over scalings g of
        # g^{-2s} * (coprime sum over Q <= R / g^2), an exact identity
        s = 1.5
        R = 2.0e4
        full = oracle.disk_sum(oracle.disk_values((1, 0, 1), R), s)
        assembled = sum(
            g ** (-2 * s)
            * oracle.epstein_primitive_truncated((1, 0, 1), s, R / (g * g))
            for g in range(1, int(math.sqrt(R)) + 1)
        )
        assert full == pytest.approx(assembled, rel=1e-12)

    def test_restricted_moebius_identity(self):
        R = 1.0e6
        for Q, s, k, l, C, D in [
            ((1, 0, 1), 1.5, 2, 1, 3, 4),
            ((1, 0, 1), 1.5, 1, 3, 3, 2),
            ((2, 1, 3), 2.0, 1, 1, 2, 3),
        ]:
            direct = oracle.epstein_restricted(Q, s, k, l, C, D, R)
            moebius = oracle.epstein_restricted_moebius(Q, s, k, l, C, D, R)
            assert abs(direct - moebius) < 1e-6

    def test_restricted_moebius_preconditions(self):
        with pytest.raises(asympt.DomainError):
            oracle.epstein_restricted_moebius((1, 0, 1), 2.0, 3, 1, 1, 4, 100.0)


# -- the series against the brute-force disk and mpmath ----------------------


R2, R3, R5 = math.sqrt(2), math.sqrt(3), math.sqrt(5)
# (form, radius): 1,0,1 at R = 100 has points on Q = 100 and on Q = R/4 = 25,
# and so has 2,1,2 at R = 104 (m^2 + mn + n^2 = 52 and 13)
ONE_DISK_CASES = [
    ((1, 0, 1), 100.0),
    ((1, 0, 1), 1.0e4),
    ((2, 1, 2), 104.0),
    ((2, 1, 2), 1.0e4),
    ((3, -1, 2), 1.0e4),
    ((1, 0, R2), 5.0e3),
    ((1, 0.5, R3), 5.0e3),
    ((1, R2 / 2, 4), 5.0e3),
    ((1, R5 / 2, 3 + R5), 5.0e3),
    ((2e-9, 1e-9, 2e-9), 1.0e-5),
]
S_MIN = 1.0 + 2.0**-7


@st.composite
def _drawn_forms(draw):
    """(Q, s): a reduced form, integral or float (a from 0.05 10^-9 to
    30 10^9), with |2b| up to a and often close to it, and c from a to
    1000 a; and s from 1 + 2^-7 to 7.5, often at either end."""
    if draw(st.booleans()):
        a = draw(st.integers(1, 30))
        b = draw(st.sampled_from([a // 2, (a - 1) // 2, draw(st.integers(0, a // 2))]))
        c = a * draw(st.integers(1, 1000)) + draw(st.integers(0, a - 1))
    else:
        a = draw(st.floats(0.05, 30.0)) * 10.0 ** draw(st.integers(-9, 9))
        b = a / 2 * draw(st.one_of(st.floats(0.9, 1.0), st.floats(0.0, 1.0)))
        c = a * draw(st.floats(1.0, 1000.0))
    b = -b if draw(st.booleans()) else b
    s = draw(st.one_of(st.sampled_from([S_MIN, 2.0, 7.5]), st.floats(S_MIN, 7.5)))
    return (a, b, c), s


@st.composite
def _unimodular(draw):
    """As the benchmark moves its lattices: an upper and a lower shear by
    +-1 or +-2 in either order, then a signed permutation."""
    up = oracle.Unimodular(((1, draw(st.sampled_from([-2, -1, 1, 2]))), (0, 1)))
    low = oracle.Unimodular(((1, 0), (draw(st.sampled_from([-2, -1, 1, 2])), 1)))
    perm = oracle.Unimodular(draw(st.sampled_from([((1, 0), (0, 1)), ((0, 1), (1, 0))])))
    signs = oracle.Unimodular(((draw(st.sampled_from([-1, 1])), 0), (0, draw(st.sampled_from([-1, 1])))))
    return (up @ low if draw(st.booleans()) else low @ up) @ perm @ signs


class TestSeries:
    @settings(max_examples=100, deadline=None)
    @given(_drawn_forms())
    def test_within_its_error_of_mpmath(self, drawn):
        Q, s = drawn
        value, error = asympt.epstein_value(Q, s)
        assert abs(value - oracle.epstein_series(Q, s)) <= error < 1e-13 * value

    @settings(max_examples=30, deadline=None)
    @given(_drawn_forms(), st.floats(8.0, 30.0))
    def test_shell_sum_within_its_error_of_mpmath(self, drawn, s):
        # where the float range holds the value; the series in mpmath keeps
        # 20 digits to s = 30
        Q, _ = drawn
        shells = asympt._shell_sum(*(e.rat for e in gauss_reduce(GramForm.of(*Q))), s)
        assume(shells is not None)
        value, error = shells
        assert abs(value - oracle.epstein_series(Q, s)) <= error < 1e-12 * value

    @settings(max_examples=50, deadline=None)
    @given(_drawn_forms(), st.integers(-30, 30))
    def test_scaling(self, drawn, k):
        # Z(tQ) = t^-s Z(Q); t = 2^k scales the float entries exactly
        Q, s = drawn
        t = 2.0**k
        value, error = asympt.epstein_value(Q, s)
        scaled, scaled_error = asympt.epstein_value(tuple(t * v for v in Q), s)
        # t^-s and its product round twice
        assert abs(scaled - t**-s * value) <= scaled_error + t**-s * (error + 2 * asympt.EPS * value)

    @settings(max_examples=50, deadline=None)
    @given(_drawn_forms(), _unimodular())
    def test_unimodular_invariance(self, drawn, U):
        # the moved form reduces to the same form exactly, so to the same floats
        Q, s = drawn
        moved = oracle.transform(GramForm(*(oracle.Scalar.of(Fraction(v)) for v in Q)), U)
        assert asympt.epstein_value([e.as_fraction() for e in moved], s) == asympt.epstein_value(Q, s)


class TestOneDisk:
    def test_boundary_points_present(self):
        for Q, R in [((1, 0, 1), 100.0), ((2, 1, 2), 104.0)]:
            v = oracle.disk_values(Q, R)
            assert R in v and R / 4 in v

    @pytest.mark.parametrize("Q, R", ONE_DISK_CASES)
    def test_disk_values_equal_meshgrid(self, Q, R):
        assert np.array_equal(oracle.disk_values(Q, R), oracle.meshgrid_disk(Q, R))

    @pytest.mark.parametrize("Q, R", ONE_DISK_CASES)
    def test_series_within_the_grid_change(self, Q, R):
        # the grid's error oscillates with the lattice points near Q = R: its
        # change from R/4 alone falls below it on 3,-1,2, on 1,0,sqrt(2) and on
        # 1,1/2,sqrt(3), so the larger change, from R/4 or from R/16, bounds it
        for s in (2.0, 1.5, S_MIN):
            grid = oracle.meshgrid_truncated(Q, s, R)
            change = max(abs(grid - oracle.meshgrid_truncated(Q, s, R / 4**k)) for k in (1, 2))
            value, error = asympt.epstein_value(Q, s)
            assert abs(value - grid) <= change + error
