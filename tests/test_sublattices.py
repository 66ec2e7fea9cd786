from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellround.gram import GramForm, LatticeType, classify
from wellround.scalar import MixedRadicandError
from wellround.sublattices import CensusReport, wr_census_bruteforce

from oracle import (
    Scalar,
    Unimodular,
    discriminant,
    gauss_reduce,
    hnf_enumerate,
    quadratic_forms,
    sublattice_gram,
    transform,
    well_rounded_list,
)


def sigma_1(n: int) -> int:
    return sum(m for m in range(1, n + 1) if n % m == 0)


class TestEnumeration:
    def test_count_is_sigma_one(self):
        # number of index-n sublattices is the divisor sum sigma_1(n)
        for n, expected in [(1, 1), (2, 3), (3, 4), (4, 7), (6, 12), (12, 28)]:
            assert len(list(hnf_enumerate(n))) == expected
            assert sigma_1(n) == expected

    def test_bases_are_distinct_sublattices(self):
        seen = set()
        for basis in hnf_enumerate(12):
            assert basis.index == 12
            seen.add((basis.m, basis.k, basis.l))
        assert len(seen) == 28


class TestSublatticeGram:
    def test_index_two_sublattices_of_square(self):
        g = GramForm.of(1, 0, 1)
        kinds = sorted(
            classify(sublattice_gram(b, g)).value for b in hnf_enumerate(2)
        )
        assert kinds == ["rectangular", "rectangular", "square"]

    @given(st.integers(1, 12), st.integers(-4, 4))
    @settings(max_examples=40)
    def test_gram_determinant_scales_by_index_squared(self, n, b):
        g = GramForm.of(3, b, b * b // 3 + 2)
        for basis in hnf_enumerate(n):
            sub = sublattice_gram(basis, g)
            assert discriminant(sub) == discriminant(g) * (n * n)

    def test_basis_independence(self):
        # census counts are intrinsic: any unimodular re-basing gives the same
        g = GramForm.of(2, 1, 3)
        U = Unimodular(((2, 1), (1, 1)))
        r1 = wr_census_bruteforce(g, 30)
        r2 = wr_census_bruteforce(transform(g, U), 30)
        assert r1.to_csv() == r2.to_csv()


class TestCensus:
    def test_square_small(self):
        r = wr_census_bruteforce(GramForm.of(1, 0, 1), 5)
        assert well_rounded_list(r) == [1, 1, 0, 1, 2]
        assert r.by_type[LatticeType.SQUARE] == [1, 1, 0, 1, 2]
        assert r.by_type[LatticeType.RHOMBIC] == [0, 0, 0, 0, 0]

    def test_hexagonal_small(self):
        r = wr_census_bruteforce(GramForm.of(2, 1, 2), 4)
        assert well_rounded_list(r) == [1, 0, 1, 1]
        assert r.by_type[LatticeType.HEXAGONAL] == [1, 0, 1, 1]

    def test_totals_match_sigma(self):
        # the walk visits each HNF triple once, over Q and over Q(sqrt 2)
        for g in (
            GramForm.of(1, 0, 3),
            GramForm.of(2, 1, 3),
            GramForm(Scalar(1), Scalar(0), Scalar(0, 1, 2)),
        ):
            r = wr_census_bruteforce(g, 200)
            assert [r.total(n) for n in range(1, 201)] == [sigma_1(n) for n in range(1, 201)]

    def test_scalar_entries(self):
        g = GramForm(Scalar(1), Scalar(0), Scalar(0, 1, 2))
        r = wr_census_bruteforce(g, 6)
        assert well_rounded_list(r) == [0, 1, 0, 1, 0, 0]

    def test_csv_shape(self):
        r = wr_census_bruteforce(GramForm.of(1, 0, 1), 3)
        lines = r.to_csv().split("\r\n")
        assert lines[0].split(",") == [
            "n",
            "total",
            "general",
            "rectangular",
            "centred_rect",
            "rhombic",
            "square",
            "hexagonal",
            "well_rounded",
        ]
        assert len(lines) == 5  # header + 3 rows + trailing newline


def _classify_reduced(r: GramForm) -> LatticeType:
    """The type of a reduced form 0 <= 2b <= a <= c from its equality
    pattern, on Scalars."""
    if r.b == 0:
        return LatticeType.SQUARE if r.a == r.c else LatticeType.RECTANGULAR
    if r.a == r.c:
        return LatticeType.HEXAGONAL if r.a == r.b * 2 else LatticeType.RHOMBIC
    return LatticeType.CENTRED_RECTANGULAR if r.a == r.b * 2 else LatticeType.GENERAL


def _oracle_csv(g: GramForm, N: int) -> str:
    """The census the slow way: Scalar Gauss reduction of every HNF sublattice."""
    report = CensusReport(N)
    for n in range(1, N + 1):
        for basis in hnf_enumerate(n):
            r, _ = gauss_reduce(sublattice_gram(basis, g))
            report.by_type[_classify_reduced(r)][n - 1] += 1
    return report.to_csv()


@st.composite
def unreduced_integral_forms(draw):
    """Integral forms (a, b, c) with |b| up to 3a, so that most bases are not
    reduced (2|b| > a, or a > c), and c at most 6 above the least c with
    ac - b^2 > 0."""
    a = draw(st.integers(1, 12))
    b = draw(st.integers(-3 * a, 3 * a))
    return GramForm.of(a, b, b * b // a + 1 + draw(st.integers(0, 6)))


class TestIntegerCensusCore:
    # Over Q each (m, l) block starts at k0 = -floor(m/2 + b l / a), which
    # puts -A <= 2b < A for A = a m^2; at N = 1 the one block is m = l = 1.
    # Where a | 2bl the window is folded to 0 <= 2B <= A, each form counted
    # twice, and the ends B = 0 and 2B = A once
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(quadratic_forms(), unreduced_integral_forms()), st.integers(1, 24))
    @example(GramForm(Scalar(1), Scalar(0), Scalar(0, 1, 2)), 30)
    @example(GramForm.of(1, Fraction(1, 2), Fraction(1, 3)), 30)
    # large entries (past 2^63 in the first), and b < 0 in a basis that is not reduced
    @example(GramForm.of(10**19, 1, 10**19 + 7), 30)
    @example(GramForm.of(1, 0, 10**12), 30)
    @example(GramForm.of(5, -7, 11), 30)
    @example(GramForm.of(3, 5, 9), 1)  # k0 = -2; A + 2 b0 = 13 is odd
    @example(GramForm.of(4, 1, 4), 1)  # k0 = 0
    @example(GramForm.of(2, -5, 13), 1)  # k0 = 2
    @example(GramForm.of(5, -7, 10), 1)  # k0 = 1; A + 2 b0 = -9 is odd
    @example(GramForm.of(7, -20, 58), 40)  # 2|b| = 40 > a = 7
    @example(GramForm.of(1, 0, 1), 8)  # folded; both ends at every even m
    @example(GramForm.of(2, 1, 3), 12)  # folded; B = 0 only at even l
    @example(GramForm.of(2, -1, 3), 12)
    @example(GramForm.of(3, 1, 3), 9)  # folds only where 3 | l
    @example(GramForm.of(14, 5, 2), 30)  # a hexagonal basis, folds only where 7 | l
    def test_matches_scalar_oracle(self, g, N):
        assert wr_census_bruteforce(g, N).to_csv() == _oracle_csv(g, N)

    def test_mixed_fields_are_refused(self):
        # b^2 = 1/2 is rational, so the form is positive definite, but its
        # sublattice entries would need both sqrt(2) and sqrt(3)
        g = GramForm(Scalar(1), Scalar(0, Fraction(1, 2), 2), Scalar(0, 1, 3))
        with pytest.raises(MixedRadicandError):
            wr_census_bruteforce(g, 5)
