from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wellround.gram import _floor_pair
from wellround.scalar import MAX_RADICAND, MixedRadicandError, NotRationalError
from wellround.scalar import Scalar as PackageScalar

from oracle import Scalar, floor, integer_pair, round_half

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
roots = st.sampled_from([2, 3, 5, 6, 7, 10])


def scalars(root):
    return st.builds(lambda r, i: Scalar(r, i, root), fractions, fractions)


class TestPackageScalar:
    """The package's Scalar is a value to read, print and serialize: it has
    no arithmetic, and its equality is that of its canonical parts."""

    def test_has_no_arithmetic(self):
        with pytest.raises(TypeError):
            PackageScalar(1) + PackageScalar(2)
        with pytest.raises(TypeError):
            PackageScalar(1) < PackageScalar(2)

    def test_structural_equality_is_value_equality(self):
        assert PackageScalar(Fraction(4, 2), 0, 7) == PackageScalar(2)
        assert PackageScalar(0, 1, 2) != PackageScalar(0, 1, 3)
        assert PackageScalar(1, 1, 2) != PackageScalar(1, -1, 2)
        assert hash(PackageScalar(Fraction(3, 2))) == hash(Fraction(3, 2))
        assert len({PackageScalar(0, 1, 2), PackageScalar(0, Fraction(2, 2), 2)}) == 1
        # a package Scalar and an oracle Scalar of one value are equal
        assert PackageScalar(1, 2, 5) == Scalar(1, 2, 5)


class TestArithmetic:
    def test_rational_round_trip(self):
        x = Scalar(Fraction(3, 2))
        assert x.irr == 0
        assert x.as_fraction() == Fraction(3, 2)

    def test_mixed_radicands_rejected(self):
        with pytest.raises(MixedRadicandError):
            Scalar(0, 1, 2) + Scalar(0, 1, 3)

    def test_radicand_above_the_bound_rejected(self):
        # 999999937 is the largest prime below 10^9
        assert Scalar(0, 1, 999999937).root == 999999937
        with pytest.raises(ValueError, match="radicand must be at most"):
            Scalar(0, 1, MAX_RADICAND + 1)

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
        # the test-local floor that the exact integer floor is checked against
        f = floor(x)
        assert Scalar(f) <= x < Scalar(f + 1)

    @given(scalars(2))
    def test_round_half(self, x):
        # the shift coefficient of the test-local Scalar reduction
        r = round_half(x)
        assert abs(float(x) - r) <= 0.5 + 1e-12


def _isqrt(v: Scalar) -> int:
    """floor(sqrt(v)) as the window rows take it: isqrt of the exact floor
    of v's integer pair (x + y sqrt(D)) / L."""
    D, L, (x, y) = integer_pair(v)
    return isqrt(_floor_pair(x, y, L, D))


class TestIsqrt:
    @given(st.fractions(min_value=0, max_value=10**12, max_denominator=10**4))
    def test_rational_matches_math_isqrt(self, v):
        # floor(sqrt(p/q)) = floor(isqrt(p*q) / q)
        p, q = v.numerator, v.denominator
        assert _isqrt(Scalar(v)) == isqrt(p * q) // q

    @given(
        st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=50),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=50),
        roots,
    )
    def test_surd_brackets_by_exact_squares(self, r, i, root):
        v = Scalar(r, i, root)
        assume(v.sign() >= 0)
        f = _isqrt(v)
        assert f >= 0
        assert Scalar(f * f) <= v < Scalar((f + 1) * (f + 1))

    def test_exact_squares(self):
        assert _isqrt(Scalar(3)) == 1
        assert _isqrt(Scalar(4)) == 2
        assert _isqrt(Scalar(Fraction(9, 4))) == 1
        # (1 + sqrt(2))^2 = 3 + 2 sqrt(2) lies in [5, 6)
        assert _isqrt(Scalar(3, 2, 2)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _isqrt(Scalar(1, -1, 2))


class TestSerialization:
    @given(scalars(2))
    def test_json_round_trip(self, x):
        assert PackageScalar.from_json(x.to_json()) == x

    def test_parse_forms(self):
        assert PackageScalar.parse("3/2") == PackageScalar(Fraction(3, 2))
        assert PackageScalar.parse("sqrt(2)") == PackageScalar(0, 1, 2)
        assert PackageScalar.parse("-2/3*sqrt(5)") == PackageScalar(0, Fraction(-2, 3), 5)
        assert PackageScalar.parse("1+2*sqrt(2)") == PackageScalar(1, 2, 2)

    def test_parse_sums_its_terms_in_order(self):
        assert PackageScalar.parse("1+2+3") == PackageScalar(6)
        # a sum whose sqrt(2) parts cancel takes a term of another field
        assert PackageScalar.parse("sqrt(2)-sqrt(2)+sqrt(3)") == PackageScalar(0, 1, 3)
        with pytest.raises(MixedRadicandError, match=r"^cannot mix sqrt\(2\) and sqrt\(3\)$"):
            PackageScalar.parse("1+sqrt(2)+sqrt(3)")

    @pytest.mark.parametrize("D", [2.5, float("inf"), float("nan")])
    def test_from_json_refuses_a_non_integral_radicand(self, D):
        with pytest.raises(ValueError, match="radicand must be an integer"):
            PackageScalar.from_json({"rat": "0", "irr": "1", "D": D})

    def test_from_json_reads_an_integral_radicand(self):
        for D in (2, 2.0, "2"):
            assert PackageScalar.from_json({"rat": "0", "irr": "1", "D": D}) == PackageScalar(0, 1, 2)

    @pytest.mark.parametrize(
        "obj", [True, False, {"rat": True, "irr": "1", "D": 2}, {"rat": "0", "irr": False, "D": 2}]
    )
    def test_from_json_refuses_a_boolean(self, obj):
        with pytest.raises(ValueError, match="^boolean entry (true|false)$"):
            PackageScalar.from_json(obj)

    def test_from_json_refuses_a_boolean_radicand(self):
        with pytest.raises(ValueError, match="radicand must be an integer, got True"):
            PackageScalar.from_json({"rat": "0", "irr": "1", "D": True})

    @pytest.mark.parametrize(
        "obj", [0.1, {"rat": 0.1, "irr": "0", "D": 2}, {"rat": "0", "irr": 2.5, "D": 2}]
    )
    def test_from_json_refuses_a_non_integral_float(self, obj):
        with pytest.raises(ValueError, match="^non-exact entry (0.1|2.5); "):
            PackageScalar.from_json(obj)

    def test_from_json_reads_an_integral_float(self):
        assert PackageScalar.from_json(3.0) == PackageScalar(3)
        assert PackageScalar.from_json({"rat": 1.0, "irr": -2.0, "D": 2}) == PackageScalar(1, -2, 2)

    @pytest.mark.parametrize("part", ["rat", "irr"])
    def test_from_json_refuses_an_infinite_part(self, part):
        obj = {"rat": "0", "irr": "1", "D": 2, part: float("inf")}
        with pytest.raises(ValueError, match="non-finite value inf"):
            PackageScalar.from_json(obj)

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
        x, y = PackageScalar.parse(text), PackageScalar.parse(exact)
        assert (x.rat, x.irr, x.root) == (y.rat, y.irr, y.root)

    @pytest.mark.parametrize(
        "text, exact",
        [
            ("1e-12", PackageScalar(Fraction(1, 10**12))),
            ("2.5E-1", PackageScalar(Fraction(1, 4))),
            ("1e-2+sqrt(2)", PackageScalar(Fraction(1, 100), 1, 2)),
            ("3-sqrt(2)", PackageScalar(3, -1, 2)),
        ],
    )
    def test_parse_exponent_sign_is_not_a_sum(self, text, exact):
        x = PackageScalar.parse(text)
        assert (x.rat, x.irr, x.root) == (exact.rat, exact.irr, exact.root)

    @pytest.mark.parametrize("text", ["1/0", "sqrt(3)/0"])
    def test_parse_zero_denominator(self, text):
        with pytest.raises(ValueError):
            PackageScalar.parse(text)

    @pytest.mark.parametrize(
        "text",
        ["1e4301", "1e-4301", "2.5E+4301", "1e1_000_000", "1+1e1000000*sqrt(2)", "sqrt(2)/1e5000"],
    )
    def test_parse_refuses_an_exponent_past_the_digit_limit(self, text):
        # Fraction would build 10^e in full; at the default limit of 4300
        # digits, 1e1000000000 would take a 415 MB integer
        with pytest.raises(ValueError, match="exponent of .* is above 4300"):
            PackageScalar.parse(text)

    def test_from_json_refuses_an_exponent_past_the_digit_limit(self):
        with pytest.raises(ValueError, match="exponent of '1e4301' is above 4300"):
            PackageScalar.from_json({"rat": "1e4301", "irr": "1", "D": 2})

    def test_parse_accepts_an_exponent_at_the_digit_limit(self):
        assert PackageScalar.parse("1e4300") == PackageScalar(10**4300)
        assert PackageScalar.parse("3e-4300").rat == Fraction(3, 10**4300)
