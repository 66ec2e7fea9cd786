"""Test-local oracle: exact field arithmetic, Lagrange reduction and HNF
sublattices on Scalars, and the paper's statements that only tests check.

`Scalar` extends the package's I/O-only Scalar with exact arithmetic and
ordering over Q(sqrt D); `form` turns a Gram form's entries into such
Scalars, and `discriminant`, `check_positive_definite`, `scale`, `value`
and `transform` compute on them.  They are the reference for the package's
integer pairs: `gram._checked_pairs` (the positive definiteness check, and
the pairs, against `integer_pair` of one entry), the reduction loops
`_reduce_int` and `_reduce_pair`, the exact floor `_floor_pair` and the HNF
loop of `wellround.sublattices`.  The reduction here tracks the change of
basis, so that a test can compare the package's integer loops against a
computation that shares none of their code.
`quadratic_forms` draws the forms such comparisons run on.
`existence`, `unique_frame` and `primitive_form` decide the lattice class and
find the unique frame by Scalar divisions, a reference for the integer-pair
decision of `wellround.general`; `orthogonal_primitive` is the Scalar
reference of the frame walk.
`nonrational_census` checks `count_wr` on non-rational lattices by building
every candidate sublattice of the unique frame, with no window inequality.
`disk_values` builds the whole Epstein disk of a form, with an optional
(m, n) mask; the restricted Epstein sums and their Moebius assembly, whose
congruence masks are not symmetric under (m, n) -> (-m, -n), are built on
it.  `meshgrid_disk` builds the same disk on a full float meshgrid, as the
package's first whole-disk builder did; `meshgrid_truncated` adds the
integral tail, the brute-force check of the series values of
`asympt.epstein_value`, and `meshgrid_extrapolants` is the Richardson ladder
of truncated sums that shows the lattice sums reach the residue
pi/sqrt(ac - b^2).  `epstein_series` is the same Chowla-Selberg series as
`asympt.epstein_value`, in mpmath at 30 digits or at any other precision;
`kronecker_reference` reads C/R - gamma from it at 60 digits near s = 1, the
reference of `asympt._kronecker`.  The band-gap limits of
`asympt._band_gap_limit` come two more ways: `band_gap_limit`, the long
numpy row sums (`band_gap_terms` in blocks by `band_gap_sums`) with a
Richardson step (`richardson`), and `cone_limit`, the same cone
decomposition at 30 digits on mpmath's digamma, Hurwitz zeta, Bernoulli
polynomials and dilogarithm; `band_row_sum` sums the first band by rows in
plain Python.
The rest are the paper's statements that only the tests check, kept out of
the package: `Unimodular` basis changes, `is_well_rounded`, the dual
invariants `g_star` and `brs_index`, the coincidence lattice of a frame
(`gamma_tilde_and_csl`), and `pair_frame`, the package's integer-pair frame
of a non-rational lattice as a `ReflectionFrame`.  For the square lattice:
the type series `rhombic_square_series` and `primitive_type_series`, the
admissible indices (`is_admissible_index_square`) and the larger candidate
set of Fukshansky's (`fukshansky_superset_member`).  The census's
`well_rounded_list`.  The characters mod 4 and mod 3 as tables
(`CHI_MINUS4`, `CHI_MINUS3`) and their divisor sums
(`character_divisor_sums`), the reference of the similar counts, and
zeta(s)'s coefficients (`ones_seq`).  The float checks: the
Gamma-function form of L'/L (`L_prime_over_L_gamma_form`), the interval-sum lemma
(`interval_sum_bounds`), and the Dirichlet-series sandwiches of the square
and hexagonal counts (`sandwich_check_square`, `sandwich_check_hex`), which
evaluate truncated series (`evaluate`) against mpmath's zeta and L values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from wellround import asympt
from wellround.asympt import DomainError
from wellround.dirichlet import (
    ArithSeq,
    _isqrt,
    alt_powers,
    convolve,
    moebius_seq,
    squares_moebius,
    times_sparse,
)
from wellround.general import (
    ExistenceVerdict,
    InvariantError,
    NoFrameError,
    ReflectionFrame,
    _frame,
    _lattice_class,
    _unique_frame,
)
from wellround.gram import GramForm, LatticeType, NotPositiveDefiniteError, _sign_pair, classify
from wellround.hexagonal import a_hex
from wellround.scalar import MixedRadicandError, NotRationalError
from wellround.scalar import Scalar as PackageScalar
from wellround.square import a_square, b_square_primitive
from wellround.sublattices import CensusReport


class Scalar(PackageScalar):
    """The package's Scalar with exact field arithmetic and ordering: the
    reference that the integer-pair decisions of `wellround.gram` and
    `wellround.general` are checked against.  Every result is an oracle
    Scalar; `Scalar.of` turns a package Scalar or a rational into one, and
    a package Scalar on either side of an operator is taken as its value.
    Equality is by value, so Scalar(3) == 3."""

    __slots__ = ()

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, PackageScalar):
            return Scalar(x.rat, x.irr, x.root)
        return Scalar(Fraction(x))

    def as_fraction(self) -> Fraction:
        if self.irr != 0:
            raise NotRationalError(f"{self} is irrational")
        return self.rat

    def _join_root(self, other: "Scalar") -> int | None:
        if self.root is None:
            return other.root
        if other.root is None or other.root == self.root:
            return self.root
        raise MixedRadicandError(f"cannot mix sqrt({self.root}) and sqrt({other.root})")

    def __add__(self, other):
        other = Scalar.of(other)
        root = self._join_root(other)
        return Scalar(self.rat + other.rat, self.irr + other.irr, root)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.rat, -self.irr, self.root)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        other = Scalar.of(other)
        root = self._join_root(other)
        D = root if root is not None else 0
        rat = self.rat * other.rat + self.irr * other.irr * D
        irr = self.rat * other.irr + self.irr * other.rat
        return Scalar(rat, irr, root if irr != 0 else None)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        if other.sign() == 0:
            raise ZeroDivisionError("division by zero Scalar")
        # multiply by the conjugate: 1/(r + i sqrt D) = (r - i sqrt D)/(r^2 - i^2 D)
        D = other.root if other.root is not None else 0
        norm = other.rat * other.rat - other.irr * other.irr * D
        return self * Scalar(other.rat / norm, -other.irr / norm, other.root)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}: that of the value times the positive
        r.den * i.den, an integer pair for `_sign_pair`."""
        r, i = self.rat, self.irr
        if i == 0:
            return (r > 0) - (r < 0)
        return _sign_pair(r.numerator * i.denominator, i.numerator * r.denominator, self.root)

    def _cmp(self, other) -> int:
        return (self - Scalar.of(other)).sign()

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except (MixedRadicandError, TypeError, ValueError):
            return NotImplemented

    __hash__ = PackageScalar.__hash__

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


def form(g: GramForm) -> GramForm:
    """g with oracle Scalars as its entries, which have arithmetic."""
    return GramForm(*map(Scalar.of, g))


def discriminant(g: GramForm) -> Scalar:
    a, b, c = form(g)
    return a * c - b * b


def check_positive_definite(g: GramForm) -> None:
    """The Scalar reference of the positive definiteness test of
    `gram._checked_pairs`: a > 0 and ac - b^2 > 0."""
    if Scalar.of(g.a).sign() <= 0 or discriminant(g).sign() <= 0:
        raise NotPositiveDefiniteError(f"not positive definite: {g}")


def scale(g: GramForm, factor) -> GramForm:
    f = Scalar.of(factor)
    return GramForm(*(e * f for e in form(g)))


def value(g: GramForm, x, y) -> Scalar:
    """Quadratic form value a x^2 + 2b xy + c y^2."""
    a, b, c = form(g)
    return a * x * x + b * (2 * x * y) + c * y * y


def transform(g: GramForm, U: tuple) -> GramForm:
    """Gram form of the basis with columns of the 2x2 integer matrix
    U = ((p, q), (r, s)): U^T G U."""
    (p, q), (r, s) = U
    a, b, c = form(g)
    return GramForm(value(g, p, r), a * (p * q) + b * (p * s + q * r) + c * (r * s), value(g, q, s))


def integer_pair(v: PackageScalar) -> tuple[int | None, int, tuple[int, int]]:
    """(D, L, (x, y)) with v = (x + y sqrt(D)) / L and L the common
    denominator of v's two parts."""
    L = math.lcm(v.rat.denominator, v.irr.denominator)
    return v.root, L, (int(v.rat * L), int(v.irr * L))


def well_rounded_list(report: CensusReport) -> list[int]:
    """The census's well-rounded counts by index 1..N."""
    return [report.well_rounded(n) for n in range(1, report.N + 1)]


class Unimodular(tuple):
    """2x2 integer matrix with determinant +-1, as the tuple of its rows
    ((p, q), (r, s)), which `transform` takes as it is."""

    def __new__(cls, m):
        (p, q), (r, s) = m
        if abs(p * s - q * r) != 1:
            raise ValueError(f"not unimodular: {m}")
        return super().__new__(cls, ((p, q), (r, s)))

    @staticmethod
    def identity() -> "Unimodular":
        return Unimodular(((1, 0), (0, 1)))

    def __matmul__(self, other: "Unimodular") -> "Unimodular":
        (a, b), (c, d) = self
        (e, f), (g, h) = other
        return Unimodular(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))


_SWAP = Unimodular(((0, 1), (1, 0)))
_FLIP = Unimodular(((1, 0), (0, -1)))


def floor(x: Scalar) -> int:
    """Exact floor, via a float seed corrected by exact comparisons."""
    if x.irr == 0:
        return x.rat.numerator // x.rat.denominator
    f = math.floor(float(x))
    while x < f:
        f -= 1
    while x >= f + 1:
        f += 1
    return f


def round_half(x: Scalar) -> int:
    """floor(x + 1/2); the reduction shift coefficient."""
    return floor(x + Fraction(1, 2))


def gauss_reduce(g: GramForm) -> tuple[GramForm, Unimodular]:
    """Lagrange-reduce g; returns (reduced form, U) with U^T g U reduced.

    Loop: swap so a <= c, shear w <- w - round(b/a) v, flip the sign of w to
    make b >= 0.  The first entry strictly decreases whenever a step changes
    it, and takes values in a discrete set, so the loop terminates with
    0 <= 2b <= a <= c.
    """
    check_positive_definite(g)
    a, b, c = form(g)
    U = Unimodular.identity()
    while True:
        if (a - c).sign() > 0:
            a, c = c, a
            U = U @ _SWAP
        m = round_half(b / a)
        if m != 0:
            # w' = w - m v
            b2 = b - a * m
            c = c - b * (2 * m) + a * (m * m)
            b = b2
            U = U @ Unimodular(((1, -m), (0, 1)))
        if b.sign() < 0:
            b = -b
            U = U @ _FLIP
        if (a - c).sign() <= 0 and (b * 2 - a).sign() <= 0:
            return GramForm(a, b, c), U


@dataclass(frozen=True)
class SublatticeBasis:
    """Hermite form basis: generator columns (m, 0) and (k, l), 0 <= k < m."""

    m: int
    k: int
    l: int

    def __post_init__(self):
        if self.m < 1 or self.l < 1 or not 0 <= self.k < self.m:
            raise ValueError(f"not a normal form triple: {self}")

    @property
    def index(self) -> int:
        return self.m * self.l


def hnf_enumerate(n: int) -> list[SublatticeBasis]:
    """All index-n sublattices, one canonical basis each; length sigma_1(n)."""
    if n < 1:
        raise ValueError("index must be positive")
    out = []
    for m in range(1, n + 1):
        if n % m:
            continue
        l = n // m
        out.extend(SublatticeBasis(m, k, l) for k in range(m))
    return out


def sublattice_gram(B: SublatticeBasis, g: GramForm) -> GramForm:
    """Gram form of the sublattice basis (restriction of g)."""
    return transform(g, ((B.m, B.k), (0, B.l)))


_SMALL_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def quadratic_forms(draw):
    """Positive definite forms over Q, Q(sqrt 2), Q(sqrt 3) or Q(sqrt 5) whose
    rational parts have denominators up to 4, in a random unimodular basis."""
    D = draw(st.sampled_from([None, 2, 3, 5]))

    def scalar():
        irr = draw(_SMALL_RATIONALS) if D else 0
        return Scalar(draw(_SMALL_RATIONALS), irr, D)

    def positive():
        s = scalar()
        assume(s.sign() != 0)
        return s if s.sign() > 0 else -s

    a, b, e = positive(), scalar(), positive()
    g = GramForm(a, b, b * b / a + e)  # ac - b^2 = a e > 0
    U = Unimodular.identity()
    for k in draw(st.lists(st.integers(-3, 3), max_size=4)):
        U = U @ Unimodular(((0, 1), (1, k)))
    return transform(g, U)


def _primitive(x: int, y: int) -> tuple[int, int]:
    d = math.gcd(x, y)
    return (x // d, y // d)


def orthogonal_primitive(w: tuple[int, int], g: GramForm) -> tuple[int, int] | None:
    """Primitive lattice vector orthogonal to w under g, if one exists."""
    # row w^T G = (alpha, beta); z = (x, y) needs alpha x + beta y = 0
    a, b, c = form(g)
    alpha = a * w[0] + b * w[1]
    beta = b * w[0] + c * w[1]
    if beta.sign() == 0:
        return (0, 1)
    ratio = alpha / beta
    if ratio.irr != 0:
        return None
    # alpha x + beta y = 0 with alpha/beta = p/q is solved by (q, -p)
    return _primitive(ratio.rat.denominator, -ratio.rat.numerator)


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """The rational square root of x, if x is the square of a rational."""
    if x < 0:
        return None
    p, q = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(p, q) if p * p == x.numerator and q * q == x.denominator else None


def _decompose_norm(t: Scalar, n: Scalar) -> tuple[Fraction | None, Fraction | None]:
    """Rational (q, r) with n = q + r t, if they exist; t irrational."""
    if n.irr == 0:
        return n.rat, Fraction(0)
    if t.root != n.root:
        return None, None
    r = n.irr / t.irr
    return n.rat - r * t.rat, r


def existence(g: GramForm) -> ExistenceVerdict:
    """Decide whether g has any well-rounded sublattice, by case analysis
    on the rationality of the normalized trace t = 2b/a and norm n = c/a:
    for irrational t, one exists when n = q + r t with rational q, r and
    q + r^2 a rational square."""
    check_positive_definite(g)
    a, b, c = form(g)
    t = b / a * 2
    n = c / a
    if t.irr == 0:
        if n.irr == 0:
            return ExistenceVerdict.RATIONAL_LATTICE
        return ExistenceVerdict.TRACE_RATIONAL_ONLY
    q, r = _decompose_norm(t, n)
    if q is None or _rational_sqrt(q + r * r) is None:
        return ExistenceVerdict.NO_WELL_ROUNDED
    return ExistenceVerdict.NORM_CONDITION_HOLDS


def primitive_form(g: GramForm) -> tuple[int, int, int]:
    """The integral primitive form (a, b, c) of a rational lattice: g scaled
    by 1/a, then by the lcm of the denominators of b/a and c/a, then divided
    by the gcd."""
    a, b, c = form(g)
    ba, ca = (b / a).as_fraction(), (c / a).as_fraction()
    lcm = math.lcm(ba.denominator, ca.denominator)
    a, b, c = lcm, int(ba * lcm), int(ca * lcm)
    d = math.gcd(a, b, c)
    return a // d, b // d, c // d


def unique_frame(g: GramForm) -> ReflectionFrame:
    """The single orthogonal pair of a non-rational lattice that has one:
    w = (1, 0) when only the trace is rational, else w = (1, beta) for the
    root beta = (r + sqrt(q + r^2))/q of q beta^2 - 2r beta - 1 = 0
    (beta = -1/(2r) when q = 0); z from `orthogonal_primitive`."""
    verdict = existence(g)
    if verdict is ExistenceVerdict.RATIONAL_LATTICE:
        raise NoFrameError("rational lattices have infinitely many orthogonal pairs")
    if verdict is ExistenceVerdict.NO_WELL_ROUNDED:
        raise NoFrameError("lattice has no orthogonal pair of lattice vectors")
    if verdict is ExistenceVerdict.TRACE_RATIONAL_ONLY:
        w = (1, 0)
    else:
        a, b, c = form(g)
        q, r = _decompose_norm(b / a * 2, c / a)
        beta = -1 / (2 * r) if q == 0 else (r + _rational_sqrt(q + r * r)) / q
        w = _primitive(beta.denominator, beta.numerator)
    z = orthogonal_primitive(w, g)
    if z is None:
        raise InvariantError(f"{verdict.value} lattice has no vector orthogonal to {w}")
    kappa_sq = value(g, *w) / value(g, *z)
    if kappa_sq < 1:
        w, z, kappa_sq = z, w, 1 / kappa_sq
    w, z = max(w, (-w[0], -w[1])), max(z, (-z[0], -z[1]))
    sigma = abs(w[0] * z[1] - w[1] * z[0])
    return ReflectionFrame(w, z, sigma, kappa_sq, "even" if sigma % 2 == 0 else "odd")


def nonrational_census(g: GramForm, x: int) -> ArithSeq:
    """Independent check of count_wr on a non-rational lattice by direct construction.

    Builds every candidate sublattice <(kw+lz)/2, (kw-lz)/2> with k, l of
    equal parity and tests well-roundedness by reduction, bypassing the
    window inequalities entirely.
    """
    frame = unique_frame(g)
    w, z = frame.w, frame.z
    counts = [0] * x
    sigma = frame.sigma
    k = 1
    # index is sigma*k*l/2; minimal l is 1
    while sigma * k <= 2 * x:
        for l in range(1, 2 * x // (sigma * k) + 1):
            if (k - l) % 2:
                continue
            num = sigma * k * l
            if num % 2:
                continue
            n = num // 2
            if n > x:
                break
            u = ((k * w[0] + l * z[0]), (k * w[1] + l * z[1]))
            v = ((k * w[0] - l * z[0]), (k * w[1] - l * z[1]))
            if any(c % 2 for c in u + v):
                continue
            u = (u[0] // 2, u[1] // 2)
            v = (v[0] // 2, v[1] // 2)
            sub = transform(g, ((u[0], v[0]), (u[1], v[1])))
            if is_well_rounded(sub):
                counts[n - 1] += 1
        k += 1
    return ArithSeq(counts)


# -- band-gap limits: long numpy row sums and the 30-digit cone decomposition --

# values of p in each band-gap sum; `richardson` also takes twice as many, so
# odd p reaches 4 P and r p^2 stays below 2^62, where `dirichlet._isqrt` is
# exact up to P = 10 BAND_TERMS
BAND_TERMS = 400_000
# values of p whose band-gap terms are evaluated at once
BAND_BLOCK = 1 << 13
# the rows p < EXACT_P of a band-gap sum add their 1/q one by one
EXACT_P = 64


def _harmonic_tail(n: np.ndarray) -> np.ndarray:
    """H(n) - log n - gamma = 1/(2n) - 1/(12n^2) + 1/(120n^4) - 1/(252n^6)
    + 1/(240n^8) - ..."""
    x = 1.0 / n
    y = x * x
    return 0.5 * x - y * (1.0 / 12 - y * (1.0 / 120 - y * (1.0 / 252 - y / 240)))


def _half_digamma_tail(x: np.ndarray) -> np.ndarray:
    """psi(x + 1/2) - log x = 1/(24x^2) - 7/(960x^4) + 31/(8064x^6)
    - 127/(30720x^8) + ..."""
    y = 1.0 / (x * x)
    return y * (1.0 / 24 - y * (7.0 / 960 - y * (31.0 / 8064 - y * (127.0 / 30720))))


def exact_gap(p: int, r: int, step: int) -> float:
    """The band-gap term of row p, its 1/q added one by one."""
    top = math.isqrt(r * p * p - 1)
    return (math.log(r) / (2 * step) - math.fsum(1.0 / q for q in range(p + step, top + 1, step))) / p


def band_gap_terms(start: int, stop: int, r: int, odd: bool) -> np.ndarray:
    """The terms (1/p)(log(r)/(2 step) - sum_q 1/q) of the band-gap sum over
    the band of `dirichlet.pair_band(N, r, odd)`, for the values of p from
    the start-th to before the stop-th, odd only when `odd`, and for each p
    the q = p (mod step) with p < q and q^2 < r p^2.

    Each row's sum over q is one log of a ratio plus the corrections of an
    asymptotic expansion: H(top) - H(p) over all q, and over odd q
    (psi(b + 1/2) - psi(a + 1/2))/2 with a = (p + 1)/2 and b = (top + 1)//2.
    The rows p < EXACT_P, where the truncated expansion is short of double
    precision, add their 1/q one by one.
    """
    step = 2 if odd else 1
    p = np.arange(1 + step * start, 1 + step * stop, step, dtype=np.int64)
    top = _isqrt(r * p * p - 1)
    if odd:
        lo, hi, tail = (p + 1) // 2, (top + 1) // 2, _half_digamma_tail
    else:
        lo, hi, tail = p, top, _harmonic_tail
    lo, hi = lo.astype(np.float64), hi.astype(np.float64)
    # over odd q the expansion carries the factor 1/2 = 1/step
    gap = (math.log(r) / (2 * step) - (np.log(hi / lo) + tail(hi) - tail(lo)) / step) / p
    for i in range(int(np.count_nonzero(p < EXACT_P))):
        gap[i] = exact_gap(int(p[i]), r, step)
    return gap


def band_gap_sums(cuts, r: int, odd: bool) -> list[float]:
    """The band-gap sums over the first k terms, for each k of the ascending
    `cuts`, in one pass over blocks of BAND_BLOCK terms: the sum to k adds
    the sums of the blocks before k's block and of that block up to k, so it
    equals the sum of a pass to k alone."""
    prefix = dict.fromkeys(cuts, 0.0)
    total = 0.0
    for start in range(0, cuts[-1], BAND_BLOCK):
        gap = band_gap_terms(start, min(start + BAND_BLOCK, cuts[-1]), r, odd)
        for k in cuts:
            if start < k <= start + gap.size:
                prefix[k] = total + float(np.sum(gap[: k - start]))
        total += float(np.sum(gap))
    return [prefix[k] for k in cuts]


def richardson(P: int, r: int, odd: bool) -> tuple[float, float]:
    """The limit of the band-gap sums over P terms, and its change from P/2."""
    half, mid, full = band_gap_sums((P // 2, P, 2 * P), r, odd)
    # partial sums approach the limit like A/P; eliminate the leading tail
    value = 2.0 * full - mid
    return value, abs(2.0 * mid - half - value)


def band_gap_limit(P: int, r: int, odd: bool) -> tuple[float, float]:
    """`richardson` at P, with the rounding of its sums added to its change:
    each term lies in [0, 1/p^2] and is within EPS (2 + 2 log r)/p of its
    exact value, the terms of a block add pairwise (numpy's eight-way leaves
    of 128, then halving) and then block by block, and the limit
    2 full - mid triples the error of a sum and rounds twice more."""
    value, change = richardson(P, r, odd)
    step = 2 if odd else 1
    terms = (2.0 + 2.0 * math.log(r)) * (1.0 + math.log(2 * step * P))
    chain = math.log2(BAND_BLOCK) + 13 + 2 * P / BAND_BLOCK
    return value, change + asympt.EPS * (3.0 * (terms + chain * abs(value)) + 2.0 * abs(value))


def band_row_sum(P: int, r: int, odd: bool) -> float:
    """Band 0 of `asympt._band_gap_limit(r, odd)` by rows in plain Python: the
    sum over p <= P (odd only with `odd`) of (1/p)(a/step - sum_q 1/q) for
    p < q <= 5p/3 at r = 3 (a = log(5/3)), p < q < 3p at r = 9 (a = log 3),
    q = p (mod step).  Each row's sum over q is within 1/p of a/step, so the
    rows past P add at most 1/P.  The sums over q are differences of
    H(n) = sum_(k <= n) 1/k, exact below 64 and by the expansion above."""
    euler = float(mpmath.euler)

    def H(n: int) -> float:
        if n < 64:
            return math.fsum(1.0 / k for k in range(1, n + 1))
        y = 1.0 / (n * n)
        return math.log(n) + euler + 0.5 / n - y * (1.0 / 12 - y * (1.0 / 120 - y / 252))

    def odd_sum(n: int) -> float:
        # sum of 1/q over odd q <= n
        return H(n) - H(n // 2) / 2

    step = 2 if odd else 1
    a = math.log(5 / 3) if r == 3 else math.log(3)
    rows = []
    for p in range(1, P + 1, step):
        top = 5 * p // 3 if r == 3 else 3 * p - 1
        inner = odd_sum(top) - odd_sum(p) if odd else H(top) - H(p)
        rows.append((a / step - inner) / p)
    return math.fsum(rows)


def _cone_share(a, b, include_b: bool, odd: bool, nu1: int = 16, K: int = 24) -> mpmath.mpf:
    """The share of one cone in a band-gap limit, by the decomposition of
    `asympt._cone_gap` with mpmath's digamma, Hurwitz zeta, Bernoulli
    polynomials and dilogarithm: -I'0 = log(beta) I0 + (Li2(eta) +
    log(1 - eta)^2/2), the sum over m of eta^m H_m/m.  nu1 values of nu
    are summed exactly and the Euler-Maclaurin tail runs to B_K."""
    al, ga = a
    be, de = b
    if odd:
        e = 2
        c = mpmath.mpf(1) / 2 if (de - be) % 2 else mpmath.mpf(0 if include_b else 1)
        nu_min = mpmath.mpf(1) / 2 if (al - ga) % 2 else mpmath.mpf(1)
    else:
        e, c, nu_min = 1, mpmath.mpf(0 if include_b else 1), mpmath.mpf(1)
    nus = [nu_min + k for k in range(nu1)]
    tail_from = nu_min + nu1
    I0 = mpmath.log(mpmath.mpf(al * de) / (be * ga))
    exact = mpmath.fsum((mpmath.digamma(c + de * v / ga) - mpmath.digamma(c + be * v / al)) / v for v in nus)
    eta = mpmath.mpf(1) / (al * de)
    minus_ip = mpmath.log(be) * I0 + mpmath.polylog(2, eta) + mpmath.log1p(-eta) ** 2 / 2
    rho_a, rho_b = mpmath.mpf(al) / be, mpmath.mpf(ga) / de
    tail = mpmath.fsum(
        (-1) ** (k - 1) * mpmath.bernpoly(k, c) / k * (rho_a**k - rho_b**k) * mpmath.zeta(k + 1, tail_from)
        for k in range(1, K + 1)
    )
    # gamma_E I0 - CT Z over all p, (I0/4)(gamma_E + log 2) - CT Z over odd p, with
    # CT Z = (Y0 - log(e) I0)/e^2, Y0 = exact - I'0 - psi(nu1) I0 - tail
    y0 = exact - minus_ip - mpmath.digamma(tail_from) * I0 - tail
    return I0 * (mpmath.euler + mpmath.log(e)) / e**2 - (y0 - mpmath.log(e) * I0) / e**2


@functools.cache
def cone_limit(r: int, odd: bool) -> mpmath.mpf:
    """L(r, odd) at 30 digits by the cone decomposition of
    `asympt._band_gap_limit`, at 40 digits inside: at r = 3 over the first 34
    bands, whose rest `asympt._band_tail` bounds by 1e-19."""
    with mpmath.workdps(40):
        if r == 9:
            total = _cone_share((1, 1), (1, 2), True, odd) + _cone_share((1, 2), (1, 3), False, odd)
        else:
            total, rays = mpmath.mpf(0), ((1, 1), (2, 3), (3, 5))
            for _ in range(34):
                total += _cone_share(rays[0], rays[1], True, odd) + _cone_share(rays[1], rays[2], True, odd)
                rays = tuple((2 * p + q, 3 * p + 2 * q) for p, q in rays)
    with mpmath.workdps(30):
        return +total


def _square_bound(Q, R: float) -> tuple[tuple[float, float, float], int]:
    """The float entries of Q, and a B whose square |m|, |n| <= B holds the
    disk Q <= R, as m^2 + n^2 <= R / lam_min there."""
    a, b, c = (float(v) for v in Q)
    lam_min = ((a + c) - math.sqrt((a - c) ** 2 + 4 * b * b)) / 2.0
    return (a, b, c), math.isqrt(int(R / lam_min)) + 2


def disk_values(Q, R: float, keep=None) -> np.ndarray:
    """Q(m, n) at the points with 0 < Q <= R and keep(m, n), in row-major
    (m, n) order over the whole square |m|, |n| <= B; m is an integer column
    broadcast against a row n."""
    (a, b, c), bound = _square_bound(Q, R)
    m = np.arange(-bound, bound + 1)
    M, N = m[:, None], m[None, :]
    vals = a * M * M + 2.0 * b * M * N + c * N * N
    mask = (vals > 0) & (vals <= R)
    if keep is not None:
        mask &= keep(M, N)
    return vals[mask]


def disk_sum(v: np.ndarray, s: float) -> float:
    """Sum of v^(-s) over a disk's values, with no tail."""
    return float(np.sum(v ** (-s)))


def epstein_primitive_truncated(Q, s: float, R: float) -> float:
    """Sum over coprime (m, n) with 0 < Q <= R (no tail term)."""
    return disk_sum(disk_values(Q, R, lambda m, n: np.gcd(m, n) == 1), s)


def epstein_restricted(Q, s: float, k: int, l: int, C: int, D: int, R: float) -> float:
    """Direct sum over coprime (m, n) with gcd(m, D) = k and gcd(n, C) = l,
    truncated at Q(m, n) <= R."""
    def keep(m, n):
        return (np.gcd(m, n) == 1) & (np.gcd(m, D) == k) & (np.gcd(n, C) == l)

    return disk_sum(disk_values(Q, R, keep), s)


def _phi_Q(Q, a_cond: int, k: int, l: int, s: float, R: float) -> float:
    """Sum over coprime (m, n), gcd(n, a_cond) = 1, of Q(k m, l n)^(-s),
    truncated at Q(k m, l n) <= R."""
    qa, qb, qc = (float(v) for v in Q)
    scaled = (qa * k * k, qb * k * l, qc * l * l)
    v = disk_values(scaled, R, lambda m, n: (np.gcd(m, n) == 1) & (np.gcd(n, a_cond) == 1))
    return disk_sum(v, s)


def epstein_restricted_moebius(Q, s: float, k: int, l: int, C: int, D: int, R: float) -> float:
    """The same restricted sum assembled from unrestricted pieces by Moebius
    inversion over the divisors of l D / k; must agree with the direct sum."""
    if D % k or C % l or (l * D) % k:
        raise DomainError("need k | D and l | C")
    n = l * D // k
    mu = moebius_seq(n)
    total = 0.0
    for c in range(1, n + 1):
        if n % c == 0 and mu[c]:
            total += mu[c] * _phi_Q(Q, c * k * C // l, c * k, l, s, R)
    return total


def epstein_series(Q, s, dps: int = 30) -> mpmath.mpf:
    """The Chowla-Selberg series of the Epstein zeta function at `dps` digits
    (`mpmath.zeta`, `mpmath.besselk`), on the exact rationals of the entries
    reduced by `gauss_reduce`: the reference for `asympt.epstein_value`.
    s is a float, or an mpf for an s nearer 1 than a float can be.  The
    Bessel terms stop past the peak of N^s K(2 pi N y), once that bound on a
    term is below 10^-(dps + 10) of the sum."""
    reduced, _ = gauss_reduce(GramForm(*(Scalar(Fraction(v)) for v in Q)))
    with mpmath.workdps(dps):
        a, b, c = (mpmath.mpf(e.rat.numerator) / e.rat.denominator for e in reduced)
        s = mpmath.mpf(s)
        y, nu, pi = mpmath.sqrt(a * c - b * b) / a, s - mpmath.mpf(1) / 2, mpmath.pi
        total = 2 * mpmath.zeta(2 * s)
        total += 2 * mpmath.sqrt(pi) * mpmath.gamma(nu) * mpmath.zeta(2 * s - 1) * y ** (1 - 2 * s) / mpmath.gamma(s)
        prefactor = 8 * pi**s * y**-nu / mpmath.gamma(s)
        N = 0
        while True:
            N += 1
            k = mpmath.besselk(nu, 2 * pi * N * y)
            sigma = sum(mpmath.mpf(d) ** (1 - 2 * s) for d in range(1, N + 1) if N % d == 0)
            total += prefactor * N**nu * sigma * k * mpmath.cos(2 * pi * N * b / a)
            if 2 * pi * y * N > s and prefactor * 2 * N**s * k < mpmath.mpf(10) ** -(dps + 10) * abs(total):
                return total / a**s


def kronecker_reference(Q) -> mpmath.mpf:
    """C/R - gamma for Z(s) = R/(s - 1) + C + O(s - 1) of the form Q, the
    reference for `asympt._kronecker`: f(s) = (s - 1) Z(s) from
    `epstein_series` at 60 digits at s = 1 + h and 1 + 2h, h = 10^-20, gives
    R = 2 f(1 + h) - f(1 + 2h) and C = (f(1 + 2h) - f(1 + h))/h, each within
    about 3h |f''| of the exact value."""
    with mpmath.workdps(60):
        h = mpmath.mpf(10) ** -20
        f1, f2 = (k * h * epstein_series(Q, 1 + k * h, dps=60) for k in (1, 2))
        return (f2 - f1) / h / (2 * f1 - f2) - mpmath.euler


def meshgrid_disk(Q, R):
    """The values 0 < Q <= R as the meshgrid builder computed them: a full
    (2B+1)^2 float grid per call, then a boolean mask."""
    (a, b, c), bound = _square_bound(Q, R)
    m = np.arange(-bound, bound + 1, dtype=np.float64)
    M, Nn = np.meshgrid(m, m, indexing="ij")
    vals = a * M * M + 2.0 * b * M * Nn + c * Nn * Nn
    return vals[(vals > 0) & (vals <= R)]


def meshgrid_truncated(Q, s, R):
    a, b, c = (float(v) for v in Q)
    d = a * c - b * b
    total = float(np.sum(meshgrid_disk(Q, R) ** (-s)))
    total += math.pi / math.sqrt(d) * R ** (1.0 - s) / (s - 1.0)
    return total


def meshgrid_extrapolants(Q, R):
    """e_7 and e_6 of the ladder v_j = (s_j - 1) Z(s_j) at s_j = 1 + 2^-j,
    j = 1..7, where e_j = 2 v_j - v_(j-1) removes the error term linear in
    s - 1."""
    values = []
    for j in range(1, 8):
        s = 1.0 + 2.0**-j
        values.append((s - 1.0) * meshgrid_truncated(Q, s, R))
    return 2.0 * values[-1] - values[-2], 2.0 * values[-2] - values[-3]


def is_well_rounded(g: GramForm) -> bool:
    return classify(g) in (LatticeType.RHOMBIC, LatticeType.SQUARE, LatticeType.HEXAGONAL)


class NotPrimitiveVectorError(ValueError):
    pass


class NotIntegralFormError(ValueError):
    pass


def is_primitive(v: tuple[int, int]) -> bool:
    return math.gcd(abs(v[0]), abs(v[1])) == 1


def _check_integral_primitive(g: GramForm) -> tuple[int, int, int]:
    if not all(e.irr == 0 and e.rat.denominator == 1 for e in g):
        raise NotIntegralFormError(f"integral Gram form required, got {g}")
    a, b, c = int(g.a.rat), int(g.b.rat), int(g.c.rat)
    if math.gcd(a, b, c) != 1:
        raise NotIntegralFormError("Gram form must have coprime entries")
    return a, b, c


def g_star(w: tuple[int, int], g: GramForm) -> int:
    """Dual-lattice coefficient of a primitive vector w.

    Completing w to a determinant-one basis (w, v2), this is the gcd of
    (w, w) and (w, v2); it divides the form discriminant and gives the
    index of the rectangular sublattice through sigma = (w, w) / g*(w).
    Writing w = (m, n), v2 = (x, y) and (alpha, beta) = w^T G, the same row
    as in `general._frames`, it is gcd(m alpha + n beta, x alpha + y beta) =
    gcd(alpha, beta), since det(w, v2) = 1.
    """
    a, b, c = _check_integral_primitive(g)
    if not is_primitive(w):
        raise NotPrimitiveVectorError(f"{w} is not primitive")
    m, n = w
    return math.gcd(a * m + b * n, b * m + c * n)


def brs_index(w: tuple[int, int], g: GramForm) -> int:
    """Index of the rectangular sublattice <w, z> with z orthogonal to w."""
    a, b, c = _check_integral_primitive(g)
    ww = a * w[0] * w[0] + 2 * b * w[0] * w[1] + c * w[1] * w[1]
    q, r = divmod(ww, g_star(w, g))
    if r:
        raise InvariantError(f"g*({w}) does not divide Q({w}) = {ww}")
    return q


@dataclass(frozen=True)
class CslInfo:
    """Which reflection-invariant sublattice is the coincidence lattice."""

    uses_superlattice: bool  # True: the half-sum superlattice, False: <w, z>
    Sigma: int


def gamma_tilde_and_csl(frame: ReflectionFrame) -> CslInfo:
    """Coincidence site lattice of the reflection fixing the frame axis.

    The half-sum superlattice <(w+z)/2, (w-z)/2> lies inside the ambient
    lattice exactly when sigma is even, and is then the coincidence lattice
    of index sigma/2; otherwise <w, z> itself is, of index sigma.
    """
    if frame.sigma % 2 == 0:
        return CslInfo(uses_superlattice=True, Sigma=frame.sigma // 2)
    return CslInfo(uses_superlattice=False, Sigma=frame.sigma)


def pair_frame(g: GramForm) -> ReflectionFrame:
    """The single orthogonal pair of a non-rational lattice that has one, as
    `general.count_wr` finds it: `_unique_frame` on the integer pairs of
    `_lattice_class`, with kappa^2 = (u + v sqrt(D))/L as a Scalar."""
    w, z, sigma, (u, v, L, D) = _unique_frame(*_lattice_class(g))
    return _frame(w, z, sigma, Scalar(Fraction(u, L), Fraction(v, L), D))


def rhombic_square_series(N: int) -> dict[str, ArithSeq]:
    """Counts of rhombic, centred rectangular and square sublattices combined.

    Returns the even-index stream, the odd-index stream, their sum, and the
    primitive-only variant of the sum.
    """
    bpr = b_square_primitive(N)
    zeta2 = convolve(ones_seq(N), ones_seq(N))
    base = convolve(zeta2, bpr)
    even = times_sparse((2,), (1,), base)
    # odd indices: both generators odd, primitive part restricted to odd norm
    odd_zeta = ArithSeq(np.arange(1, N + 1) % 2)
    odd = convolve(convolve(odd_zeta, odd_zeta), times_sparse(*alt_powers(2, N), bpr))
    total = even + odd
    primitive = times_sparse(*squares_moebius(N), total)
    return {"even": even, "odd": odd, "all": total, "primitive": primitive}


def primitive_type_series(N: int) -> dict[str, ArithSeq]:
    """Primitive square, rhombic-or-centred-rectangular and rectangular counts."""
    bpr = b_square_primitive(N)
    zeta2_over_zeta2s = times_sparse(*squares_moebius(N), convolve(ones_seq(N), ones_seq(N)))
    rect_factor = zeta2_over_zeta2s - delta_seq(N)
    rectangular = convolve(rect_factor, bpr)
    rhombic = rhombic_square_series(N)["primitive"] - bpr
    return {"square": bpr, "rhombic_cr": rhombic, "rectangular": rectangular}


def fukshansky_superset_member(n: int) -> bool:
    """Membership in the larger candidate index set {pq|z|^2 : q <= p <= sqrt(3) q}."""
    return _in_index_family(n, require_odd=False)


def is_admissible_index_square(n: int) -> bool:
    """True iff some well-rounded sublattice of the square lattice has index n."""
    if n % 2 == 0:
        return _in_index_family(n // 2, require_odd=False)
    return _in_index_family(n, require_odd=True)


def _sum_of_two_squares(n: int) -> bool:
    # n = |z|^2 solvable iff every prime 3 mod 4 divides n evenly
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if p % 4 == 3 and e % 2:
                return False
        p += 1
    return not (n % 4 == 3)


def _in_index_family(n: int, require_odd: bool) -> bool:
    """n = p*q*m with q <= p <= sqrt(3) q (p^2 <= 3 q^2) and m a norm |z|^2."""
    if require_odd and n % 2 == 0:
        return False
    for m in range(1, n + 1):
        if n % m or not _sum_of_two_squares(m):
            continue
        r = n // m
        q = 1
        while q * q <= r:
            if r % q == 0:
                p = r // q
                if p * p <= 3 * q * q:
                    return True
            q += 1
    return False


def L_prime_over_L_gamma_form(D: int) -> float:
    """`asympt.L_prime_over_L` through Gamma-function identities."""
    g, _ = asympt.euler_gamma()
    if D == -4:
        return math.log(math.gamma(0.75) ** 4 * math.exp(g) / math.pi)
    if D == -3:
        return math.log(
            2.0**4 * math.pi**4 * math.exp(g) / (3.0**1.5 * math.gamma(1.0 / 3.0) ** 6)
        )
    raise asympt.UnsupportedDiscriminantError(f"discriminant {D} not supported")


def interval_sum_bounds(l: int, alpha: float, beta: float, gamma: float, s: float):
    """Bounds straddling sum over l < n < alpha*l + beta of 1/(n+gamma)^s.

    Returns (lower, upper, exact) with lower < exact < upper, where upper is
    the integral of (x+gamma)^(-s) over [l, alpha*l+beta] and lower is that
    integral minus the first summand bound.
    """
    if l < 1 or alpha <= 1 or beta < 0 or not 0 <= gamma < 1 or s < 0:
        raise DomainError("parameters outside the valid range")
    top = alpha * l + beta
    if s == 1.0:
        integral = math.log((top + gamma) / (l + gamma))
    else:
        integral = ((top + gamma) ** (1 - s) - (l + gamma) ** (1 - s)) / (1 - s)
    exact = 0.0
    n = l + 1
    while n < top:
        exact += (n + gamma) ** (-s)
        n += 1
    return integral - (l + gamma) ** (-s), integral, exact


# -- truncated Dirichlet series and the sandwiches of the paper --------------

# coefficients of each truncated series in the sandwich checks
SANDWICH_TERMS = 20_000


# the quadratic characters mod 4 and mod 3: chi(n) is CHI[n % len(CHI)]
CHI_MINUS4 = (0, 1, 0, -1)
CHI_MINUS3 = (0, 1, -1)


def character_divisor_sums(chi: tuple[int, ...], N: int) -> list[int]:
    """[0, b(1), ..., b(N)] with b(n) = sum over d | n of chi(d): the
    similar sublattices of the square (chi_-4) or hexagonal (chi_-3) lattice
    by index, one divisor at a time in plain Python."""
    b = [0] * (N + 1)
    for d in range(1, N + 1):
        for n in range(d, N + 1, d):
            b[n] += chi[d % len(chi)]
    return b


def ones_seq(N: int) -> ArithSeq:
    """Coefficients of zeta(s)."""
    return ArithSeq(np.ones(N, dtype=np.int64))


def delta_seq(N: int) -> ArithSeq:
    """Convolution identity (1, 0, 0, ...)."""
    return ArithSeq((np.arange(N) == 0).astype(np.int64))


def evaluate(f: ArithSeq, s: float) -> float:
    """Float value of the truncated series sum a(n) / n^s."""
    n = np.arange(1, f.N + 1, dtype=np.float64)
    return float(np.sum(f._a.astype(np.float64) * n ** (-s)))


def L_chi(D: int, s: float) -> float:
    """L(s, chi_D) through Hurwitz zeta values."""
    if D == -4:
        return float(4.0**-s * (mpmath.zeta(s, Fraction(1, 4)) - mpmath.zeta(s, Fraction(3, 4))))
    if D == -3:
        return float(3.0**-s * (mpmath.zeta(s, Fraction(1, 3)) - mpmath.zeta(s, Fraction(2, 3))))
    raise asympt.UnsupportedDiscriminantError(f"discriminant {D} not supported")


def zeta(s: float) -> float:
    return float(mpmath.zeta(s))


def D_square(s: float) -> float:
    return (
        (2.0 + 2.0**s)
        / (1.0 + 2.0**s)
        * (1.0 - math.sqrt(3.0) ** (1.0 - s))
        / (s - 1.0)
        * L_chi(-4, s)
        / zeta(2 * s)
        * zeta(s)
        * zeta(2 * s - 1.0)
    )


def phi_square(s: float) -> float:
    return zeta(s) * L_chi(-4, s)


def D_hex(s: float) -> float:
    return (
        0.5
        * 3.0
        / (1.0 + 3.0**-s)
        * (1.0 - 3.0 ** (1.0 - s))
        / (s - 1.0)
        * L_chi(-3, s)
        / zeta(2 * s)
        * zeta(s)
        * zeta(2 * s - 1.0)
    )


def E_hex(s: float) -> float:
    return 3.0 / (1.0 + 3.0**-s) * L_chi(-3, s) * zeta(s)


def _truncated_with_error(series_fn, s: float, N: int) -> tuple[float, float]:
    full = evaluate(series_fn(N), s)
    half = evaluate(series_fn(N // 2), s)
    return full, 2.0 * abs(full - half) + 1e-12


def sandwich_check_square(s: float) -> bool:
    """Strict two-sided bound on the well-rounded series of the square lattice."""
    phi_wr, err = _truncated_with_error(a_square, s, SANDWICH_TERMS)
    lower = D_square(s) - phi_square(s)
    upper = D_square(s) + phi_square(s)
    return lower < phi_wr + err and phi_wr - err < upper


def sandwich_check_hex(s: float) -> bool:
    """Two-sided bound on the well-rounded series of the hexagonal lattice.

    The interval-sum lemma bounds the rhombic contribution between
    D - E and D, so the full series (rhombic plus similar sublattices)
    sits strictly between phi + D - E and phi + D with phi = zeta * L.
    """
    phi_wr, err = _truncated_with_error(a_hex, s, SANDWICH_TERMS)
    phi = zeta(s) * L_chi(-3, s)
    lower = phi + D_hex(s) - E_hex(s)
    upper = phi + D_hex(s)
    return lower < phi_wr + err and phi_wr - err < upper
