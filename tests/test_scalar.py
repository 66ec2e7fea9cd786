from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wellround.scalar import MixedRadicandError, NotRationalError, Scalar

from oracle import round_half

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
roots = st.sampled_from([2, 3, 5, 6, 7, 10])


def scalars(root):
    return st.builds(lambda r, i: Scalar(r, i, root), fractions, fractions)


class TestArithmetic:
    def test_rational_round_trip(self):
        x = Scalar(Fraction(3, 2))
        assert x.is_rational
        assert x.as_fraction() == Fraction(3, 2)

    def test_mixed_radicands_rejected(self):
        with pytest.raises(MixedRadicandError):
            Scalar(0, 1, 2) + Scalar(0, 1, 3)

    def test_as_fraction_requires_rational(self):
        with pytest.raises(NotRationalError):
            Scalar(0, 1, 2).as_fraction()

    @given(scalars(2), scalars(2))
    def test_mul_commutes(self, x, y):
        assert x * y == y * x

    @given(scalars(3), scalars(3))
    def test_add_sub_inverse(self, x, y):
        assert x + y - y == x

    @given(scalars(5))
    def test_division_inverts_multiplication(self, x):
        if x.sign() != 0:
            assert (x * x) / x == x

    @given(scalars(2))
    def test_float_tracks_exact(self, x):
        approx = float(x.rat) + float(x.irr) * 2 ** 0.5
        assert float(x) == pytest.approx(approx, rel=1e-12, abs=1e-9)


class TestOrdering:
    def test_sign_of_surd(self):
        # 7/5 < sqrt(2) < 3/2
        assert (Scalar(0, 1, 2) - Scalar(Fraction(7, 5))).sign() == 1
        assert (Scalar(0, 1, 2) - Scalar(Fraction(3, 2))).sign() == -1

    @given(scalars(2), scalars(2))
    def test_comparison_matches_float(self, x, y):
        if abs(float(x) - float(y)) > 1e-6:
            assert (x < y) == (float(x) < float(y))

    @given(scalars(3))
    def test_floor(self, x):
        f = x.floor()
        assert Scalar(f) <= x < Scalar(f + 1)

    @given(scalars(2))
    def test_round_half(self, x):
        # the shift coefficient of the test-local Scalar reduction
        r = round_half(x)
        assert abs(float(x) - r) <= 0.5 + 1e-12


class TestIsqrt:
    @given(st.fractions(min_value=0, max_value=10**12, max_denominator=10**4))
    def test_rational_matches_math_isqrt(self, v):
        # floor(sqrt(p/q)) = floor(isqrt(p*q) / q)
        p, q = v.numerator, v.denominator
        assert Scalar(v).isqrt() == isqrt(p * q) // q

    @given(
        st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=50),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=50),
        roots,
    )
    def test_surd_brackets_by_exact_squares(self, r, i, root):
        v = Scalar(r, i, root)
        assume(v.sign() >= 0)
        f = v.isqrt()
        assert f >= 0
        assert Scalar(f * f) <= v < Scalar((f + 1) * (f + 1))

    def test_exact_squares(self):
        assert Scalar(3).isqrt() == 1
        assert Scalar(4).isqrt() == 2
        assert Scalar(Fraction(9, 4)).isqrt() == 1
        # (1 + sqrt(2))^2 = 3 + 2 sqrt(2) lies in [5, 6)
        assert Scalar(3, 2, 2).isqrt() == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Scalar(1, -1, 2).isqrt()


class TestSquareDetection:
    def test_square_rational(self):
        assert Scalar(Fraction(9, 4)).is_square_rational()
        assert Scalar(Fraction(9, 4)).sqrt_rational() == Fraction(3, 2)
        assert not Scalar(Fraction(2)).is_square_rational()
        assert not Scalar(0, 1, 2).is_square_rational()


class TestSerialization:
    @given(scalars(2))
    def test_json_round_trip(self, x):
        assert Scalar.from_json(x.to_json()) == x

    def test_parse_forms(self):
        assert Scalar.parse("3/2") == Scalar(Fraction(3, 2))
        assert Scalar.parse("sqrt(2)") == Scalar(0, 1, 2)
        assert Scalar.parse("-2/3*sqrt(5)") == Scalar(0, Fraction(-2, 3), 5)
        assert Scalar.parse("1+2*sqrt(2)") == Scalar(1, 2, 2)

    @pytest.mark.parametrize(
        "text, exact",
        [
            ("sqrt(3)/2", "1/2*sqrt(3)"),
            ("3*sqrt(2)/4", "3/4*sqrt(2)"),
            ("1+sqrt(5)/2", "1+1/2*sqrt(5)"),
            ("-sqrt(7)/3", "-1/3*sqrt(7)"),
        ],
    )
    def test_parse_divisor_after_root(self, text, exact):
        x, y = Scalar.parse(text), Scalar.parse(exact)
        assert (x.rat, x.irr, x.root) == (y.rat, y.irr, y.root)

    @pytest.mark.parametrize(
        "text, exact",
        [
            ("1e-12", Scalar(Fraction(1, 10**12))),
            ("2.5E-1", Scalar(Fraction(1, 4))),
            ("1e-2+sqrt(2)", Scalar(Fraction(1, 100), 1, 2)),
            ("3-sqrt(2)", Scalar(3, -1, 2)),
        ],
    )
    def test_parse_exponent_sign_is_not_a_sum(self, text, exact):
        x = Scalar.parse(text)
        assert (x.rat, x.irr, x.root) == (exact.rat, exact.irr, exact.root)

    @pytest.mark.parametrize("text", ["1/0", "sqrt(3)/0"])
    def test_parse_zero_denominator(self, text):
        with pytest.raises(ValueError):
            Scalar.parse(text)
