import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellround.general import (
    ExistenceVerdict,
    InvariantError,
    NoFrameError,
    NotIntegralFormError,
    NotPrimitiveVectorError,
    brs_index,
    count_wr_nonrational,
    count_wr_rational,
    enumerate_frames,
    existence,
    g_star,
    gamma_tilde_and_csl,
    nonrational_census,
    orthogonal_primitive,
    unique_frame,
    _bezout_complement,
    _frame_from_w,
    _window_hits_even,
    _window_hits_odd,
)
from wellround.gram import GramForm, LatticeType
from wellround.hexagonal import a_hex
from wellround.scalar import NotRationalError, Scalar
from wellround.square import a_square
from wellround.sublattices import wr_census_bruteforce

SQRT2 = Scalar(0, 1, 2)
DIAG_1_SQRT2 = GramForm(Scalar(1), Scalar(0), SQRT2)
# {t, n} shape descriptors with a = 1: b = t/2, c = n; here
# {t: sqrt(2), n: 4} and {t: sqrt(5), n: 3 + sqrt(5)}
NORM_CONDITION_LATTICES = [
    GramForm(Scalar(1), SQRT2 / 2, Scalar(4)),
    GramForm(Scalar(1), Scalar(0, Fraction(1, 2), 5), Scalar(3, 1, 5)),
]
WINDOW_KAPPA_SQ = [
    Scalar(1),
    Scalar(Fraction(4, 3)),
    Scalar(3),
    Scalar(Fraction(9, 4)),
    Scalar(2, 1, 2),
    Scalar(Fraction(3, 2), Fraction(1, 2), 5),
]


@st.composite
def reduced_primitive_forms(draw):
    a = draw(st.integers(1, 8))
    b = draw(st.integers(-(a // 2), a // 2))
    c = draw(st.integers(a, a + 10))
    assume(gcd(gcd(a, abs(b)), c) == 1)
    return GramForm.of(a, b, c)


_QUARTERS = st.builds(Fraction, st.integers(-24, 24), st.just(4))
_NONZERO_QUARTERS = st.builds(
    lambda k, sign: Fraction(sign * k, 4), st.integers(1, 24), st.sampled_from([1, -1])
)


@st.composite
def shape_lattices(draw, verdict):
    """{t, n} lattices (a = 1, b = t/2, c = n) over Q(sqrt D) with the given
    existence verdict.

    An irrational t with n = q + r t has a well-rounded sublattice exactly
    when q + r^2 is a rational square k; then n - t^2/4 = k - (r - t/2)^2,
    so r within 9/8 of t/2 and k >= 2 keep the form positive definite.
    Trace-rational lattices have a rational t and an irrational n.
    """
    D = draw(st.sampled_from([2, 3, 5]))
    if verdict is ExistenceVerdict.TRACE_RATIONAL_ONLY:
        t = Scalar(draw(_QUARTERS))
        n_irr = draw(_NONZERO_QUARTERS)
        # n_rat - |n_irr| sqrt(D) > t^2/4
        n_rat = t.rat**2 / 4 + abs(n_irr) * (isqrt(D) + 1) + draw(_QUARTERS.map(abs))
        n = Scalar(n_rat, n_irr, D)
    else:
        t = Scalar(draw(_QUARTERS), draw(_NONZERO_QUARTERS), D)
        r = Fraction(round(float(t) * 2), 4) + draw(st.sampled_from([-1, 0, 1]))
        if verdict is ExistenceVerdict.NORM_CONDITION_HOLDS:
            k = Fraction(draw(st.integers(3, 24)), 2) ** 2
        else:
            # num / den with den a square: a rational square exactly when num is
            num, den = draw(st.integers(8, 80)), draw(st.sampled_from([1, 4]))
            assume(isqrt(num) ** 2 != num)
            k = Fraction(num, den)
        n = Scalar(k - r * r) + t * r
    g = GramForm(Scalar(1), t / 2, n)
    assume((n - t * t / 4).sign() > 0)
    return g


def _window_direct(kappa_sq, scale, x, odd):
    """Every (p, q) tested on its own with two exact sign tests."""
    step = 2 if odd else 1
    hits = []
    for p in range(1, x // scale + 1, step):
        for q in range(1, x // (scale * p) + 1, step):
            lo = (Scalar(3 * q * q) - kappa_sq * (p * p)).sign()
            hi = (kappa_sq * (3 * p * p) - q * q).sign()
            if lo >= 0 and hi >= 0:
                hits.append((scale * p * q, lo == 0 or hi == 0))
    return hits


class TestExistence:
    def test_rational(self):
        assert existence(GramForm.of(1, 0, 2)) == ExistenceVerdict.RATIONAL_LATTICE

    def test_trace_rational_only(self):
        assert existence(DIAG_1_SQRT2) == ExistenceVerdict.TRACE_RATIONAL_ONLY

    def test_no_well_rounded(self):
        # t = sqrt(2), n = 3: q = 3, r = 0, 3 not a rational square
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(3))
        assert existence(g) == ExistenceVerdict.NO_WELL_ROUNDED

    def test_norm_condition_holds(self):
        # t = sqrt(2), n = 4: q = 4, r = 0, sqrt(4) = 2 rational
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(4))
        assert existence(g) == ExistenceVerdict.NORM_CONDITION_HOLDS

    def test_mixed_radicands_are_independent(self):
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(0, 1, 3))
        assert existence(g) == ExistenceVerdict.NO_WELL_ROUNDED

    def test_no_well_rounded_census_is_zero(self):
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(3))
        census = wr_census_bruteforce(g, 200)
        assert census.well_rounded_list() == [0] * 200


class TestUniqueFrame:
    def test_diag_1_sqrt2(self):
        frame = unique_frame(DIAG_1_SQRT2)
        assert frame.key() == frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})
        assert frame.sigma == 1
        assert frame.kappa_sq == SQRT2
        assert frame.parity == "odd"

    def test_diag_1_3sqrt2(self):
        g = GramForm(Scalar(1), Scalar(0), SQRT2 * 3)
        frame = unique_frame(g)
        assert frame.sigma == 1

    def test_norm_condition_frame(self):
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(4))
        frame = unique_frame(g)
        # the frame axis comes from beta = (r + sqrt(r^2 + q))/q = 1/2
        assert frame.sigma >= 1
        w, z = frame.w, frame.z
        assert g.inner(w, z) == Scalar(0)

    def test_rational_has_no_unique_frame(self):
        with pytest.raises(NoFrameError):
            unique_frame(GramForm.of(1, 0, 2))

    def test_no_frame_when_no_well_rounded(self):
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(3))
        with pytest.raises(NoFrameError):
            unique_frame(g)


class TestDualInvariants:
    def test_g_star_examples(self):
        assert g_star((1, 0), GramForm.of(1, 0, 1)) == 1
        assert g_star((0, 1), GramForm.of(1, 0, 2)) == 2
        assert g_star((1, 1), GramForm.of(1, 0, 2)) == 1

    def test_brs_index_examples(self):
        assert brs_index((3, 4), GramForm.of(1, 0, 1)) == 25
        assert brs_index((0, 1), GramForm.of(1, 0, 2)) == 1
        assert brs_index((1, 1), GramForm.of(1, 0, 2)) == 3

    def test_brs_parity_examples(self):
        # the parity of the index sigma = brs_index(w) travels with the frame
        assert _frame_from_w((1, 0), (1, 0, 1)).parity == "odd"
        assert _frame_from_w((1, 1), (1, 0, 1)).parity == "even"
        assert _frame_from_w((1, 1), (1, 0, 2)).parity == "odd"

    def test_bezout_complement_of_imprimitive_is_invariant_error(self):
        with pytest.raises(InvariantError):
            _bezout_complement((2, 4))

    def test_rejects_imprimitive(self):
        with pytest.raises(NotPrimitiveVectorError):
            g_star((2, 2), GramForm.of(1, 0, 1))

    def test_rejects_non_integral(self):
        g = GramForm.of(Fraction(1, 2), 0, 1)
        with pytest.raises(NotIntegralFormError):
            g_star((1, 0), g)

    def test_random_corpus_invariants(self):
        rng = random.Random(20260824)
        lattices = []
        while len(lattices) < 20:
            a = rng.randint(1, 12)
            b = rng.randint(-8, 8)
            c = rng.randint(b * b // a + 1, b * b // a + 15)
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            lattices.append(GramForm.of(a, b, c))
        checks = 0
        while checks < 500:
            g = rng.choice(lattices)
            w = (rng.randint(-20, 20), rng.randint(-20, 20))
            if w == (0, 0) or gcd(abs(w[0]), abs(w[1])) != 1:
                continue
            d = int(g.discriminant().rat)
            gs = g_star(w, g)
            assert d % gs == 0
            z = orthogonal_primitive(w, g)
            det = abs(w[0] * z[1] - w[1] * z[0])
            assert brs_index(w, g) == det
            checks += 1

    def test_parity_constant_on_residues(self):
        rng = random.Random(7)
        g = GramForm.of(2, 1, 3)
        d = int(g.discriminant().rat)  # 5
        # d * dual basis vectors have integer coordinates: adj(G) columns
        adj_cols = [(3, -1), (-1, 2)]
        for _ in range(100):
            w = (rng.randint(-9, 9), rng.randint(-9, 9))
            if w == (0, 0) or gcd(abs(w[0]), abs(w[1])) != 1:
                continue
            p = brs_index(w, g) % 2
            # shifts in d * dual intersected with 2 * lattice: 2 adj(G) k
            for k0 in (-1, 0, 1):
                for m0 in (-1, 0, 1):
                    shift = (
                        w[0] + 2 * (k0 * adj_cols[0][0] + m0 * adj_cols[1][0]),
                        w[1] + 2 * (k0 * adj_cols[0][1] + m0 * adj_cols[1][1]),
                    )
                    if shift == (0, 0) or gcd(abs(shift[0]), abs(shift[1])) != 1:
                        continue
                    assert brs_index(shift, g) % 2 == p


class TestCsl:
    def test_sigma_odd(self):
        frame = enumerate_frames(GramForm.of(1, 0, 2), 1)[0]
        assert frame.sigma == 1
        info = gamma_tilde_and_csl(frame)
        assert not info.uses_superlattice
        assert info.Sigma == 1

    def test_sigma_even_square_diagonal(self):
        frames = enumerate_frames(GramForm.of(1, 0, 1), 1)
        diag = next(f for f in frames if f.sigma == 2)
        info = gamma_tilde_and_csl(diag)
        assert info.uses_superlattice
        assert info.Sigma == 1

    def test_sigma_three(self):
        frames = enumerate_frames(GramForm.of(1, 0, 2), 2)
        f3 = next(f for f in frames if f.sigma == 3)
        info = gamma_tilde_and_csl(f3)
        assert info.Sigma == 3


class TestFrames:
    def test_identity_frames(self):
        frames = enumerate_frames(GramForm.of(1, 0, 1), 1)
        keys = {f.key() for f in frames}
        assert frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)}) in keys
        assert frozenset({(1, 1), (-1, -1), (1, -1), (-1, 1)}) in keys
        assert len(frames) == 2

    def test_hexagonal_frames(self):
        frames = enumerate_frames(GramForm.of(2, 1, 2), 1)
        assert len(frames) == 3
        assert {f.sigma for f in frames} == {2}

    def test_diag_1_2_frames(self):
        frames = enumerate_frames(GramForm.of(1, 0, 2), 1)
        sigmas = sorted(f.sigma for f in frames)
        # the axis frame plus the two mirror-image sigma = 3 frames
        assert sigmas == [1, 3, 3]

    def test_requires_rational(self):
        with pytest.raises(NotRationalError):
            enumerate_frames(DIAG_1_SQRT2, 1)


class TestNonRationalCounting:
    def test_diag_1_sqrt2_values(self):
        counts = count_wr_nonrational(DIAG_1_SQRT2, 10)
        assert counts[1] == 0
        assert counts[2] == 1

    def test_matches_census(self):
        N = 60
        census = wr_census_bruteforce(DIAG_1_SQRT2, N)
        assert list(count_wr_nonrational(DIAG_1_SQRT2, N)) == census.well_rounded_list()

    def test_matches_independent_window_census(self):
        N = 120
        assert list(count_wr_nonrational(DIAG_1_SQRT2, N)) == list(
            nonrational_census(DIAG_1_SQRT2, N)
        )

    def test_even_sigma_lattice(self):
        g = GramForm(Scalar(2), Scalar(1), SQRT2 * 2)
        if existence(g) != ExistenceVerdict.NO_WELL_ROUNDED:
            N = 40
            census = wr_census_bruteforce(g, N)
            assert list(count_wr_nonrational(g, N)) == census.well_rounded_list()


    @pytest.mark.parametrize("g", NORM_CONDITION_LATTICES, ids=["t=sqrt2,n=4", "t=sqrt5,n=3+sqrt5"])
    def test_norm_condition_matches_census(self, g):
        assert existence(g) == ExistenceVerdict.NORM_CONDITION_HOLDS
        N = 36
        census = wr_census_bruteforce(g, N)
        assert list(count_wr_nonrational(g, N)) == census.well_rounded_list()


class TestPipelinesPerVerdict:
    """Every non-rational pipeline against the census, on random lattices
    drawn per existence verdict."""

    @pytest.mark.parametrize(
        "verdict",
        [ExistenceVerdict.TRACE_RATIONAL_ONLY, ExistenceVerdict.NORM_CONDITION_HOLDS],
        ids=lambda v: v.value,
    )
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), N=st.integers(1, 60))
    def test_counters_match_census(self, verdict, data, N):
        g = data.draw(shape_lattices(verdict))
        assert existence(g) == verdict
        census = wr_census_bruteforce(g, N).well_rounded_list()
        assert list(count_wr_nonrational(g, N)) == census
        assert list(nonrational_census(g, N)) == census

    @settings(max_examples=20, deadline=None)
    @given(shape_lattices(ExistenceVerdict.NO_WELL_ROUNDED), st.integers(1, 60))
    def test_no_well_rounded_census_is_zero(self, g, N):
        assert existence(g) == ExistenceVerdict.NO_WELL_ROUNDED
        assert wr_census_bruteforce(g, N).well_rounded_list() == [0] * N
        with pytest.raises(NoFrameError):
            count_wr_nonrational(g, N)
        with pytest.raises(NoFrameError):
            nonrational_census(g, N)


class TestWindow:
    @pytest.mark.parametrize("kappa_sq", WINDOW_KAPPA_SQ, ids=str)
    @pytest.mark.parametrize("sigma", [1, 2, 3, 4, 6])
    def test_even_matches_direct_loop(self, kappa_sq, sigma):
        x = 300
        assert list(_window_hits_even(kappa_sq, sigma, x)) == _window_direct(
            kappa_sq, 2 * sigma, x, odd=False
        )

    @pytest.mark.parametrize("kappa_sq", WINDOW_KAPPA_SQ, ids=str)
    @pytest.mark.parametrize("sigma", [2, 4, 6])
    def test_odd_matches_direct_loop(self, kappa_sq, sigma):
        x = 300
        assert list(_window_hits_odd(kappa_sq, sigma, x)) == _window_direct(
            kappa_sq, sigma // 2, x, odd=True
        )

    @pytest.mark.parametrize(
        "kappa_sq, window",
        [(Scalar(3), _window_hits_even), (Scalar(3), _window_hits_odd),
         (Scalar(Fraction(4, 3)), _window_hits_even)],
    )
    def test_boundary_hits_are_found(self, kappa_sq, window):
        assert any(on_boundary for _, on_boundary in window(kappa_sq, 2, 300))


class TestRationalCounting:
    @settings(max_examples=25, deadline=None)
    @given(reduced_primitive_forms(), st.integers(1, 60))
    def test_matches_census_on_random_forms(self, g, N):
        census = wr_census_bruteforce(g, N)
        assert list(count_wr_rational(g, N)) == census.well_rounded_list()

    def test_reproduces_square_pipeline(self):
        N = 40
        assert list(count_wr_rational(GramForm.of(1, 0, 1), N)) == list(a_square(N))

    def test_reproduces_hex_pipeline(self):
        N = 40
        assert list(count_wr_rational(GramForm.of(2, 1, 2), N)) == list(a_hex(N))

    def test_diag_1_2(self):
        N = 40
        counts = count_wr_rational(GramForm.of(1, 0, 2), N)
        assert counts[2] == 1
        census = wr_census_bruteforce(GramForm.of(1, 0, 2), N)
        assert list(counts) == census.well_rounded_list()

    def test_general_rational(self):
        N = 40
        g = GramForm.of(2, 1, 3)
        census = wr_census_bruteforce(g, N)
        assert list(count_wr_rational(g, N)) == census.well_rounded_list()

    def test_diag_1_3(self):
        N = 40
        g = GramForm.of(1, 0, 3)
        census = wr_census_bruteforce(g, N)
        assert list(count_wr_rational(g, N)) == census.well_rounded_list()


def _has_hexagonal_sublattice(g: GramForm, N: int) -> bool:
    return any(wr_census_bruteforce(g, N).by_type[LatticeType.HEXAGONAL])


class TestCommensurability:
    """A rational lattice shares a finite-index sublattice with the hexagonal
    lattice exactly when it has a hexagonal sublattice.  The census searches
    for one up to 12 times the discriminant of the integral primitive form."""

    def test_hexagonal_yes(self):
        assert _has_hexagonal_sublattice(GramForm.of(2, 1, 2), 36)
        assert _has_hexagonal_sublattice(GramForm.of(6, 3, 6), 36)

    def test_square_no(self):
        assert not _has_hexagonal_sublattice(GramForm.of(1, 0, 1), 12)
