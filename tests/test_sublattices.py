from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellround.gram import (
    GramForm,
    LatticeType,
    Unimodular,
    classify,
    classify_reduced,
)
from wellround.scalar import MixedRadicandError, Scalar
from wellround.sublattices import CensusReport, wr_census_bruteforce

from oracle import gauss_reduce, hnf_enumerate, quadratic_forms, sublattice_gram


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
            assert sub.discriminant() == g.discriminant() * (n * n)

    def test_basis_independence(self):
        # census counts are intrinsic: any unimodular re-basing gives the same
        g = GramForm.of(2, 1, 3)
        U = Unimodular(((2, 1), (1, 1)))
        r1 = wr_census_bruteforce(g, 30)
        r2 = wr_census_bruteforce(g.transform(U), 30)
        assert r1.to_csv() == r2.to_csv()


class TestCensus:
    def test_square_small(self):
        r = wr_census_bruteforce(GramForm.of(1, 0, 1), 5)
        assert r.well_rounded_list() == [1, 1, 0, 1, 2]
        assert r.by_type[LatticeType.SQUARE] == [1, 1, 0, 1, 2]
        assert r.by_type[LatticeType.RHOMBIC] == [0, 0, 0, 0, 0]

    def test_hexagonal_small(self):
        r = wr_census_bruteforce(GramForm.of(2, 1, 2), 4)
        assert r.well_rounded_list() == [1, 0, 1, 1]
        assert r.by_type[LatticeType.HEXAGONAL] == [1, 0, 1, 1]

    def test_totals_match_sigma(self):
        r = wr_census_bruteforce(GramForm.of(1, 0, 3), 20)
        for n in range(1, 21):
            assert r.total(n) == sigma_1(n)

    def test_scalar_entries(self):
        g = GramForm(Scalar(1), Scalar(0), Scalar(0, 1, 2))
        r = wr_census_bruteforce(g, 6)
        assert r.well_rounded_list() == [0, 1, 0, 1, 0, 0]

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


def _oracle_csv(g: GramForm, N: int) -> str:
    """The census the slow way: Scalar Gauss reduction of every HNF sublattice."""
    report = CensusReport(N)
    for n in range(1, N + 1):
        for basis in hnf_enumerate(n):
            r, _ = gauss_reduce(sublattice_gram(basis, g))
            report.tally(n, classify_reduced(r.a, r.b, r.c))
    return report.to_csv()


class TestIntegerCensusCore:
    @settings(max_examples=20, deadline=None)
    @given(quadratic_forms(), st.integers(1, 30))
    @example(GramForm(Scalar(1), Scalar(0), Scalar(0, 1, 2)), 30)
    @example(GramForm.of(1, Fraction(1, 2), Fraction(1, 3)), 30)
    def test_matches_scalar_oracle(self, g, N):
        assert wr_census_bruteforce(g, N).to_csv() == _oracle_csv(g, N)

    def test_mixed_fields_are_refused(self):
        # b^2 = 1/2 is rational, so the form is positive definite, but its
        # sublattice entries would need both sqrt(2) and sqrt(3)
        g = GramForm(Scalar(1), Scalar(0, Fraction(1, 2), 2), Scalar(0, 1, 3))
        with pytest.raises(MixedRadicandError):
            wr_census_bruteforce(g, 5)
