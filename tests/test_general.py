import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wellround.general as general
from wellround.general import (
    ExistenceVerdict,
    InvariantError,
    NoFrameError,
    count_wr,
    enumerate_frames,
    existence,
    _lattice_class,
    _primitive_form,
    _window_hits,
)
from wellround.gram import GramForm, LatticeType, NotPositiveDefiniteError
from wellround.hexagonal import a_hex
from wellround.scalar import MixedRadicandError, NotRationalError
from wellround.square import a_square
from wellround.sublattices import wr_census_bruteforce

import oracle
from oracle import (
    NotIntegralFormError,
    NotPrimitiveVectorError,
    Scalar,
    Unimodular,
    brs_index,
    g_star,
    gamma_tilde_and_csl,
    integer_pair,
    nonrational_census,
    orthogonal_primitive,
    pair_frame,
    quadratic_forms,
    well_rounded_list,
)

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
    # a negative sqrt(D) part and denominators: 3 - sqrt(2), (9 + sqrt(3))/7,
    # (7 - 3 sqrt(5))/2 and 5/3
    Scalar(3, -1, 2),
    Scalar(Fraction(9, 7), Fraction(1, 7), 3),
    Scalar(Fraction(7, 2), Fraction(-3, 2), 5),
    Scalar(Fraction(5, 3)),
    # 3 + sqrt(2)/10: at p = 1, kappa^2/3 lies just above 1 and 3 kappa^2 just
    # above 9, so both row ends sit next to the boundary without touching it
    Scalar(3, Fraction(1, 10), 2),
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


@st.composite
def verdict_lattices(draw, verdict):
    """A lattice with the given verdict: a reduced primitive integral form
    for a rational lattice, else a `shape_lattices` lattice."""
    if verdict is ExistenceVerdict.RATIONAL_LATTICE:
        return draw(reduced_primitive_forms())
    return draw(shape_lattices(verdict))


@st.composite
def scaled_lattices(draw):
    """A lattice of any verdict scaled by a positive element of its field
    Q(sqrt D) (any of Q(sqrt 2), Q(sqrt 3), Q(sqrt 5) for a form over Q) and
    written in a random unimodular basis."""
    g = draw(verdict_lattices(draw(st.sampled_from(list(ExistenceVerdict)))))
    D = g.b.root or g.c.root or draw(st.sampled_from([2, 3, 5]))
    s = Scalar(draw(_NONZERO_QUARTERS), draw(_QUARTERS), D)
    assume(s.sign() != 0)
    U = Unimodular.identity()
    for k in draw(st.lists(st.integers(-3, 3), max_size=4)):
        U = U @ Unimodular(((0, 1), (1, k)))
    return oracle.transform(oracle.scale(g, s if s.sign() > 0 else -s), U)


def _kappa(kappa_sq):
    """kappa^2 as the integers (u, v, L, D) that `_window_hits` takes."""
    D, L, (u, v) = integer_pair(kappa_sq)
    return u, v, L, D


def _members(w, z):
    """The four-element set {+-w, +-z} of a frame."""
    return frozenset({w, (-w[0], -w[1]), z, (-z[0], -z[1])})


def _frames_reference(g, H):
    """Frames through the box |m|, |n| <= H by the Scalar route: the
    orthogonal vector from `orthogonal_primitive`, kappa^2 from `oracle.value`,
    deduplicated by their member sets in order of first appearance."""
    frames = {}
    for n in range(H + 1):
        for m in range(-H, H + 1):
            if (n == 0 and m <= 0) or gcd(m, n) != 1:
                continue
            w, z = (m, n), orthogonal_primitive((m, n), g)
            kappa_sq = oracle.value(g, *w) / oracle.value(g, *z)
            if kappa_sq < 1:
                w, z, kappa_sq = z, w, 1 / kappa_sq
            w, z = max(w, (-w[0], -w[1])), max(z, (-z[0], -z[1]))
            sigma = abs(w[0] * z[1] - w[1] * z[0])
            frame = (w, z, sigma, kappa_sq, "even" if sigma % 2 == 0 else "odd")
            frames.setdefault(_members(w, z), frame)
    return sorted(frames.values(), key=lambda f: (f[2], f[0], f[1]))


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
        # entries from two fields lie outside the package's domain Q(sqrt D)
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(0, 1, 3))
        with pytest.raises(MixedRadicandError, match=r"cannot mix sqrt\(2\) and sqrt\(3\)"):
            existence(g)

    def test_no_well_rounded_census_is_zero(self):
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(3))
        census = wr_census_bruteforce(g, 200)
        assert well_rounded_list(census) == [0] * 200


class TestClassAgainstScalarOracle:
    """The verdict, the integral primitive form and the unique frame, decided
    on integer pairs, against the Scalar route of `oracle`."""

    @staticmethod
    def check(g):
        verdict = existence(g)
        assert verdict == oracle.existence(g)
        if verdict is ExistenceVerdict.RATIONAL_LATTICE:
            assert _primitive_form(_lattice_class(g)[2]) == oracle.primitive_form(g)
        if verdict in (ExistenceVerdict.RATIONAL_LATTICE, ExistenceVerdict.NO_WELL_ROUNDED):
            with pytest.raises(NoFrameError):
                pair_frame(g)
        else:
            frame, reference = pair_frame(g), oracle.unique_frame(g)
            assert frame == reference
            assert str(frame.kappa_sq) == str(reference.kappa_sq)
            # the integers that count_wr hands to the window rows: L > 0 and
            # gcd(u, v, L) = 1, as the Scalar kappa^2 gives them
            assert general._unique_frame(*_lattice_class(g))[3] == _kappa(reference.kappa_sq)

    @settings(max_examples=300, deadline=None)
    @given(quadratic_forms())
    def test_quadratic_forms(self, g):
        self.check(g)

    @pytest.mark.parametrize("verdict", list(ExistenceVerdict), ids=lambda v: v.value)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_lattices_of_each_verdict(self, verdict, data):
        g = data.draw(verdict_lattices(verdict))
        assert existence(g) == verdict
        self.check(g)

    @settings(max_examples=200, deadline=None)
    @given(scaled_lattices())
    def test_scaled_and_transformed(self, g):
        self.check(g)


class TestUniqueFrame:
    def test_diag_1_sqrt2(self):
        frame = pair_frame(DIAG_1_SQRT2)
        assert _members(frame.w, frame.z) == frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})
        assert frame.sigma == 1
        assert frame.kappa_sq == SQRT2
        assert frame.parity == "odd"

    def test_diag_1_3sqrt2(self):
        g = GramForm(Scalar(1), Scalar(0), SQRT2 * 3)
        frame = pair_frame(g)
        assert frame.sigma == 1

    def test_norm_condition_frame(self):
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(4))
        frame = pair_frame(g)
        # the frame axis comes from beta = (r + sqrt(r^2 + q))/q = 1/2
        assert frame.sigma >= 1
        w, z = frame.w, frame.z
        assert oracle.transform(g, ((w[0], z[0]), (w[1], z[1]))).b == Scalar(0)

    def test_rational_has_no_unique_frame(self):
        with pytest.raises(NoFrameError):
            pair_frame(GramForm.of(1, 0, 2))

    def test_no_frame_when_no_well_rounded(self):
        g = GramForm(Scalar(1), SQRT2 / Scalar(2), Scalar(3))
        with pytest.raises(NoFrameError):
            pair_frame(g)


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
        def parity(w, g):
            (frame,) = [f for f in enumerate_frames(g, 1) if w in _members(f.w, f.z)]
            return frame.parity

        assert parity((1, 0), GramForm.of(1, 0, 1)) == "odd"
        assert parity((1, 1), GramForm.of(1, 0, 1)) == "even"
        assert parity((1, 1), GramForm.of(1, 0, 2)) == "odd"

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
            d = int(oracle.discriminant(g).rat)
            gs = g_star(w, g)
            assert d % gs == 0
            z = orthogonal_primitive(w, g)
            det = abs(w[0] * z[1] - w[1] * z[0])
            assert brs_index(w, g) == det
            checks += 1

    def test_parity_constant_on_residues(self):
        rng = random.Random(7)
        g = GramForm.of(2, 1, 3)
        d = int(oracle.discriminant(g).rat)  # 5
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
        keys = {_members(f.w, f.z) for f in frames}
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

    def test_member_outside_the_box(self):
        # every frame with a member in the box is listed: (4, -3) is listed
        # through (1, 1), and (3, -1) through (0, 1), although its sign
        # (-3, 1) precedes (0, 1) in the walk's (n, m) order, since it lies
        # outside the box and is never walked
        frames = enumerate_frames(GramForm.of(2, 1, 3), 1)
        assert [(f.w, f.z, f.sigma, str(f.kappa_sq)) for f in frames] == [
            ((1, -2), (1, 0), 2, "5"),
            ((2, 1), (1, -1), 3, "5"),
            ((3, -1), (0, 1), 3, "5"),
            ((4, -3), (1, 1), 7, "5"),
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(-8, 8),
        st.integers(0, 30),
        st.integers(1, 6),
        st.sampled_from([Fraction(1), Fraction(3, 7), Fraction(2)]),
    )
    def test_matches_scalar_reference(self, a, b, extra, H, scale):
        c = b * b // a + 1 + extra
        assume(gcd(gcd(a, abs(b)), c) == 1)
        g = oracle.scale(GramForm.of(a, b, c), scale)
        frames = enumerate_frames(g, H)
        assert [(f.w, f.z, f.sigma, f.kappa_sq, f.parity) for f in frames] == _frames_reference(g, H)

    @pytest.mark.parametrize("form", [(1, 2, 4), (1, 2, 1), (-1, 0, -2), (0, 1, 0)])
    def test_rejects_forms_not_positive_definite(self, form):
        g = GramForm.of(*form)
        with pytest.raises(NotPositiveDefiniteError):
            enumerate_frames(g, 2)
        with pytest.raises(NotPositiveDefiniteError):
            count_wr(g, 5)


class TestNonRationalCounting:
    @pytest.mark.parametrize("form", [(0, 1, 0), (-1, 0, -2), (1, 2, 1)])
    def test_rejects_forms_not_positive_definite(self, form):
        # the class is decided on a positive definite form only
        g = GramForm.of(*form)
        with pytest.raises(NotPositiveDefiniteError):
            existence(g)
        with pytest.raises(NotPositiveDefiniteError):
            count_wr(g, 5)

    def test_diag_1_sqrt2_values(self):
        counts = count_wr(DIAG_1_SQRT2, 10)
        assert counts[0] == 0
        assert counts[1] == 1

    def test_matches_census(self):
        N = 60
        census = wr_census_bruteforce(DIAG_1_SQRT2, N)
        assert list(count_wr(DIAG_1_SQRT2, N)) == well_rounded_list(census)

    def test_matches_independent_window_census(self):
        N = 120
        assert list(count_wr(DIAG_1_SQRT2, N)) == list(
            nonrational_census(DIAG_1_SQRT2, N)
        )

    def test_even_sigma_lattice(self):
        g = GramForm(Scalar(2), Scalar(1), SQRT2 * 2)
        if existence(g) != ExistenceVerdict.NO_WELL_ROUNDED:
            N = 40
            census = wr_census_bruteforce(g, N)
            assert list(count_wr(g, N)) == well_rounded_list(census)


    @pytest.mark.parametrize("g", NORM_CONDITION_LATTICES, ids=["t=sqrt2,n=4", "t=sqrt5,n=3+sqrt5"])
    def test_norm_condition_matches_census(self, g):
        assert existence(g) == ExistenceVerdict.NORM_CONDITION_HOLDS
        N = 36
        census = wr_census_bruteforce(g, N)
        assert list(count_wr(g, N)) == well_rounded_list(census)


class TestPipelinesPerVerdict:
    """The counter, and the independent construction of non-rational counts,
    against the census on random lattices drawn per existence verdict."""

    @pytest.mark.parametrize("verdict", list(ExistenceVerdict), ids=lambda v: v.value)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), N=st.integers(1, 60))
    def test_counters_match_census(self, verdict, data, N):
        g = data.draw(verdict_lattices(verdict))
        assert existence(g) == verdict
        census = well_rounded_list(wr_census_bruteforce(g, N))
        assert list(count_wr(g, N)) == census
        if verdict is ExistenceVerdict.NO_WELL_ROUNDED:
            assert census == [0] * N
            with pytest.raises(NoFrameError):
                nonrational_census(g, N)
        elif verdict is not ExistenceVerdict.RATIONAL_LATTICE:
            assert list(nonrational_census(g, N)) == census

    @settings(max_examples=40, deadline=None)
    @given(g=scaled_lattices(), N=st.integers(1, 40))
    def test_counter_matches_census_on_scaled_lattices(self, g, N):
        # lattices of every verdict with no entry normalized to 1, in any basis
        assert list(count_wr(g, N)) == well_rounded_list(wr_census_bruteforce(g, N))

    def test_rational_kappa_sq_of_a_nonrational_frame_is_refused(self, monkeypatch):
        w, z, sigma, (_, _, _, D) = general._unique_frame(*_lattice_class(DIAG_1_SQRT2))
        monkeypatch.setattr(general, "_unique_frame", lambda *_: (w, z, sigma, (3, 0, 1, D)))
        with pytest.raises(InvariantError, match="rational kappa"):
            count_wr(DIAG_1_SQRT2, 10)

    @pytest.mark.parametrize("x", [0, -1])
    def test_refuses_a_bound_below_one(self, x):
        with pytest.raises(ValueError, match="count bound must be positive"):
            count_wr(GramForm.of(2, 1, 3), x)


class TestWindow:
    @pytest.mark.parametrize("kappa_sq", WINDOW_KAPPA_SQ, ids=str)
    @pytest.mark.parametrize("sigma", [1, 2, 3, 4, 6])
    def test_even_matches_direct_loop(self, kappa_sq, sigma):
        x = 300
        assert list(_window_hits(_kappa(kappa_sq), 2 * sigma, x, odd=False)) == _window_direct(
            kappa_sq, 2 * sigma, x, odd=False
        )

    @pytest.mark.parametrize("kappa_sq", WINDOW_KAPPA_SQ, ids=str)
    @pytest.mark.parametrize("sigma", [2, 4, 6])
    def test_odd_matches_direct_loop(self, kappa_sq, sigma):
        x = 300
        assert list(_window_hits(_kappa(kappa_sq), sigma // 2, x, odd=True)) == _window_direct(
            kappa_sq, sigma // 2, x, odd=True
        )

    # sigma = 2: the even window has scale 2 sigma = 4, the odd one sigma/2 = 1
    @pytest.mark.parametrize(
        "kappa_sq, scale, odd",
        [pytest.param(Scalar(3), 4, False, id="3-even"),
         pytest.param(Scalar(3), 1, True, id="3-odd"),
         pytest.param(Scalar(Fraction(4, 3)), 4, False, id="4/3-even")],
    )
    def test_boundary_hits_are_found(self, kappa_sq, scale, odd):
        assert any(on_boundary for _, on_boundary in _window_hits(_kappa(kappa_sq), scale, 300, odd))


class TestRationalCounting:
    # at N = 10^5 the frame walk reaches index 2 * 10^5
    def test_reproduces_square_pipeline(self):
        for N in (40, 10**5):
            assert count_wr(GramForm.of(1, 0, 1), N) == list(a_square(N))

    def test_reproduces_hex_pipeline(self):
        for N in (40, 10**5):
            assert count_wr(GramForm.of(2, 1, 2), N) == list(a_hex(N))

    def test_diag_1_2(self):
        N = 40
        counts = count_wr(GramForm.of(1, 0, 2), N)
        assert counts[1] == 1
        census = wr_census_bruteforce(GramForm.of(1, 0, 2), N)
        assert list(counts) == well_rounded_list(census)

    def test_general_rational(self):
        N = 40
        g = GramForm.of(2, 1, 3)
        census = wr_census_bruteforce(g, N)
        assert list(count_wr(g, N)) == well_rounded_list(census)

    def test_diag_1_3(self):
        N = 40
        g = GramForm.of(1, 0, 3)
        census = wr_census_bruteforce(g, N)
        assert list(count_wr(g, N)) == well_rounded_list(census)


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
