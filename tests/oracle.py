"""Test-local oracle: Lagrange reduction and HNF sublattices on Scalars.

An independent reference for the integer reduction loops of
`wellround.gram` (`_reduce_int`, `_reduce_pair`), its exact floor
`_floor_pair` and the HNF loop of `wellround.sublattices`.  Everything here
runs on exact `Scalar` arithmetic and tracks the change of basis, so that a
test can compare the package's integer loops against a computation that
shares none of their code.
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
it.  `richardson` takes the three band-gap sums of `asympt._richardson` from
three arrays of terms, the reference for its one-array form.
The rest are the paper's statements that only the tests check, kept out of
the package: `Unimodular` basis changes, `is_well_rounded`, the dual
invariants `g_star` and `brs_index`, the coincidence lattice of a frame
(`gamma_tilde_and_csl`), and `pair_frame`, the package's integer-pair frame
of a non-rational lattice as a `ReflectionFrame`.  For the square lattice:
the type series `rhombic_square_series` and `primitive_type_series`, the
admissible indices (`is_admissible_index_square`) and the larger candidate
set of Fukshansky's (`fukshansky_superset_member`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from wellround.asympt import DomainError, _band_gap_terms, _bound_for_radius, _form_floats
from wellround.dirichlet import (
    ArithSeq,
    alt_euler_factor,
    convolve,
    delta_seq,
    inv_zeta_2s,
    moebius_seq,
    ones_seq,
    shift_support,
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
from wellround.gram import GramForm, LatticeType, classify
from wellround.scalar import Scalar
from wellround.square import b_square_primitive


class Unimodular(tuple):
    """2x2 integer matrix with determinant +-1, as the tuple of its rows
    ((p, q), (r, s)), which `GramForm.transform` takes as it is."""

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
    g.check_positive_definite()
    a, b, c = g.a, g.b, g.c
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
    m, k, l = B.m, B.k, B.l
    a = g.a * (m * m)
    b = g.a * (m * k) + g.b * (m * l)
    c = g.a * (k * k) + g.b * (2 * k * l) + g.c * (l * l)
    return GramForm(a, b, c)


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
    return g.transform(U)


def _primitive(x: int, y: int) -> tuple[int, int]:
    d = math.gcd(x, y)
    return (x // d, y // d)


def orthogonal_primitive(w: tuple[int, int], g: GramForm) -> tuple[int, int] | None:
    """Primitive lattice vector orthogonal to w under g, if one exists."""
    # row w^T G = (alpha, beta); z = (x, y) needs alpha x + beta y = 0
    alpha = g.a * w[0] + g.b * w[1]
    beta = g.b * w[0] + g.c * w[1]
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
    g.check_positive_definite()
    t = g.b / g.a * 2
    n = g.c / g.a
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
    ba, ca = (g.b / g.a).as_fraction(), (g.c / g.a).as_fraction()
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
        q, r = _decompose_norm(g.b / g.a * 2, g.c / g.a)
        beta = -1 / (2 * r) if q == 0 else (r + _rational_sqrt(q + r * r)) / q
        w = _primitive(beta.denominator, beta.numerator)
    z = orthogonal_primitive(w, g)
    if z is None:
        raise InvariantError(f"{verdict.value} lattice has no vector orthogonal to {w}")
    kappa_sq = g.value(*w) / g.value(*z)
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
            sub = g.transform(((u[0], v[0]), (u[1], v[1])))
            if is_well_rounded(sub):
                counts[n - 1] += 1
        k += 1
    return ArithSeq(counts)


def richardson(P: int, r: int, odd: bool) -> tuple[float, float]:
    """`asympt._richardson` with each band-gap sum from its own array."""

    def band_gap_sum(k: int) -> float:
        return float(np.sum(_band_gap_terms(k, r, odd)))

    mid = band_gap_sum(P)
    value = 2.0 * band_gap_sum(2 * P) - mid
    return value, abs(2.0 * mid - band_gap_sum(P // 2) - value)


def disk_values(Q, R: float, keep=None) -> np.ndarray:
    """Q(m, n) at the points with 0 < Q <= R and keep(m, n), in row-major
    (m, n) order over the whole square |m|, |n| <= B; m is an integer column
    broadcast against a row n."""
    bound = _bound_for_radius(Q, R)
    a, b, c = _form_floats(Q)
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
    qa, qb, qc = _form_floats(Q)
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
    even = shift_support(base, 2)
    # odd indices: both generators odd, primitive part restricted to odd norm
    odd_zeta = ArithSeq(np.arange(1, N + 1) % 2)
    odd = convolve(
        convolve(odd_zeta, odd_zeta), convolve(alt_euler_factor(2, N), bpr)
    )
    total = even + odd
    primitive = convolve(inv_zeta_2s(N), total)
    return {"even": even, "odd": odd, "all": total, "primitive": primitive}


def primitive_type_series(N: int) -> dict[str, ArithSeq]:
    """Primitive square, rhombic-or-centred-rectangular and rectangular counts."""
    bpr = b_square_primitive(N)
    zeta2_over_zeta2s = convolve(convolve(ones_seq(N), ones_seq(N)), inv_zeta_2s(N))
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
