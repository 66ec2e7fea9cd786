from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wellround.gram import (
    GramForm,
    LatticeType,
    NotPositiveDefiniteError,
    Unimodular,
    _classify_pair,
    _integer_pairs,
    _reduce_pair,
    _round_half_pair,
    _sign_pair,
    classify,
    gauss_reduce,
    is_rational,
    is_well_rounded,
    rational_normalize,
)
from wellround.scalar import Scalar

from oracle import gauss_reduce as oracle_reduce
from oracle import quadratic_forms


def integral_pd_forms():
    def build(a, b, c_extra):
        # guarantee positive definiteness: c > b^2 / a
        c = (b * b) // a + 1 + c_extra
        return GramForm.of(a, b, c)

    return st.builds(
        build,
        st.integers(1, 40),
        st.integers(-40, 40),
        st.integers(0, 40),
    )


_SWAP = Unimodular(((0, 1), (1, 0)))


def unimodulars():
    def build(shears):
        m = Unimodular.identity()
        for kind, k in shears:
            step = Unimodular(((1, k), (0, 1))) if kind else _SWAP
            m = m @ step
        return m

    return st.builds(
        build,
        st.lists(st.tuples(st.booleans(), st.integers(-5, 5)), max_size=6),
    )


class TestReduction:
    def test_frozen_example_centred_rectangular(self):
        reduced = gauss_reduce(GramForm.of(5, 4, 5))
        assert (reduced.a, reduced.b, reduced.c) == (
            Scalar(2),
            Scalar(1),
            Scalar(5),
        )
        _, U = oracle_reduce(GramForm.of(5, 4, 5))
        assert GramForm.of(5, 4, 5).transform(U) == reduced

    def test_frozen_example_hexagonal(self):
        reduced = gauss_reduce(GramForm.of(2, -1, 2))
        assert (reduced.a, reduced.b, reduced.c) == (Scalar(2), Scalar(1), Scalar(2))

    def test_not_positive_definite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gauss_reduce(GramForm.of(1, 2, 1))
        with pytest.raises(NotPositiveDefiniteError):
            gauss_reduce(GramForm.of(-1, 0, 1))

    @given(integral_pd_forms())
    def test_reduced_inequalities(self, g):
        r = gauss_reduce(g)
        zero = Scalar(0)
        assert zero <= r.b * 2 <= r.a <= r.c

    @given(integral_pd_forms(), unimodulars())
    @settings(max_examples=60)
    def test_unimodular_invariance(self, g, U):
        r1 = gauss_reduce(g)
        r2 = gauss_reduce(g.transform(U))
        assert r1 == r2

    @given(integral_pd_forms(), st.integers(1, 9))
    def test_scaling_invariance_of_type(self, g, k):
        assert classify(g) == classify(g.scale(k))

    @given(integral_pd_forms())
    @example(GramForm.of(2, 10, 51))  # minimum 1 at (-5, 1)
    @settings(max_examples=60)
    def test_minimality(self, g):
        # the reduced a is the minimum of the form over all nonzero vectors.
        # Q(x, y) = ((ax + by)^2 + (ac - b^2) y^2) / a, so every v with
        # Q(v) <= a has y^2 <= a*a / (ac - b^2) and |ax + by| <= sqrt(a*a).
        r = gauss_reduce(g)
        a, b, c = (int(e.rat) for e in (g.a, g.b, g.c))
        y_max = isqrt(a * a // (a * c - b * b))
        values = [
            g.value(x, y)
            for y in range(-y_max, y_max + 1)
            for x in range((-a - b * y) // a - 1, (a - b * y) // a + 2)
            if (x, y) != (0, 0) and abs(a * x + b * y) <= a
        ]
        assert min(values) == r.a

    @given(quadratic_forms())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_oracle(self, g):
        assert gauss_reduce(g) == oracle_reduce(g)[0]

    def test_reduction_preserves_discriminant(self):
        g = GramForm.of(7, 3, 11)
        r = gauss_reduce(g)
        assert r.discriminant() == g.discriminant()


class TestClassification:
    @pytest.mark.parametrize(
        "abc,expected",
        [
            ((1, 0, 1), LatticeType.SQUARE),
            ((2, 1, 2), LatticeType.HEXAGONAL),
            ((1, 0, 2), LatticeType.RECTANGULAR),
            ((2, 1, 5), LatticeType.CENTRED_RECTANGULAR),
            ((3, 1, 3), LatticeType.RHOMBIC),
            ((3, 1, 5), LatticeType.GENERAL),
        ],
    )
    def test_types(self, abc, expected):
        assert classify(GramForm.of(*abc)) == expected

    def test_rhombic_example_from_reduction(self):
        assert classify(GramForm.of(3, 1, 3)) == LatticeType.RHOMBIC
        assert is_well_rounded(GramForm.of(3, 1, 3))

    def test_well_rounded_iff_equal_minima(self):
        assert is_well_rounded(GramForm.of(1, 0, 1))
        assert not is_well_rounded(GramForm.of(1, 0, 2))


class TestRationality:
    def test_irrational_diag(self):
        g = GramForm(Scalar(1), Scalar(0), Scalar(0, 1, 2))
        assert not is_rational(g)
        assert g.discriminant() == Scalar(0, 1, 2)

    def test_scaled_irrational_is_rational(self):
        s = Scalar(0, 1, 2)
        g = GramForm(s, Scalar(0), s * 3)
        assert is_rational(g)

    def test_rational_normalize(self):
        g = GramForm.of(Fraction(1, 2), Fraction(1, 4), Fraction(3, 2))
        gi, scale = rational_normalize(g)
        assert gi.is_integral()
        # gi is the unit-leading-entry rescaling of g times the scale factor
        assert gi.scale((g.a / gi.a.as_fraction()).as_fraction()) == g
        assert (gi.a / scale) == (g.a / g.a)


_PAIR_ENTRIES = st.integers(-10**6, 10**6)
_RADICANDS = st.sampled_from([2, 3, 5, 6, 7, 10])


class TestIntegerPairs:
    """The Z[sqrt(D)] census core against the Scalar arithmetic it replaces."""

    @given(_PAIR_ENTRIES, _PAIR_ENTRIES, _RADICANDS)
    @example(0, 0, 2)
    @example(-7, 5, 2)  # 49 < 50: -7 + 5 sqrt(2) > 0
    @example(7, -5, 2)
    def test_sign_matches_scalar(self, x, y, D):
        assert _sign_pair(x, y, D) == Scalar(x, y, D).sign()

    @given(_PAIR_ENTRIES, _PAIR_ENTRIES, _PAIR_ENTRIES, _PAIR_ENTRIES, _RADICANDS)
    @example(3, 0, 2, 0, 2)  # b/a = 3/2 exactly rounds up
    @example(-3, 0, 2, 0, 2)  # b/a = -3/2 exactly rounds up as well
    @example(1, 1, 1, -1, 2)  # b/a = (1 + sqrt 2)/(sqrt 2 - 1) = 3 + 2 sqrt 2
    def test_round_half_brackets(self, bx, by, ax, ay, D):
        assume(ax or ay)
        if Scalar(ax, ay, D).sign() < 0:
            ax, ay = -ax, -ay
        a, b = Scalar(ax, ay, D), Scalar(bx, by, D)
        m = _round_half_pair(bx, by, ax, ay, D)
        assert a * (2 * m - 1) <= b * 2 < a * (2 * m + 1)

    @given(st.data())
    def test_reduce_matches_gauss_reduce(self, data):
        D = data.draw(st.sampled_from([2, 3, 5]))

        def positive():
            x, y = data.draw(st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
            assume(x or y)
            return Scalar(x, y, D) if Scalar(x, y, D).sign() > 0 else Scalar(-x, -y, D)

        # U^T diag(p, q) U for positive p, q and an integer U with det U != 0
        p, q = positive(), positive()
        (u, v), (w, z) = data.draw(st.tuples(*[st.tuples(st.integers(-6, 6), st.integers(-6, 6))] * 2))
        assume(u * z != v * w)
        g = GramForm(p * (u * u) + q * (w * w), p * (u * v) + q * (w * z), p * (v * v) + q * (z * z))
        (ax, ay), (bx, by), (cx, cy) = _integer_pairs(g)[2]
        r, _ = oracle_reduce(g)
        reduced = _reduce_pair(ax, ay, bx, by, cx, cy, D)
        assert [Scalar(x, y, D) for x, y in zip(reduced[::2], reduced[1::2])] == [r.a, r.b, r.c]
        assert _classify_pair(*reduced) == classify(g)

    def test_scaled_to_common_denominator(self):
        g = GramForm(Scalar(Fraction(1, 2)), Scalar(0, Fraction(1, 3), 5), Scalar(2, Fraction(3, 4), 5))
        assert _integer_pairs(g) == (5, 12, ((6, 0), (0, 4), (24, 9)))
        assert _integer_pairs(GramForm.of(2, 1, 3)) == (None, 1, ((2, 0), (1, 0), (3, 0)))
