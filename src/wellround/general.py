"""Well-rounded sublattices of arbitrary planar lattices.

Every well-rounded sublattice of a lattice G (given by its Gram form) sits
inside the rhombic superlattice spanned by (kw + lz)/2 and (kw - lz)/2 for a
primitive orthogonal pair {+-w, +-z} and integers k, l of equal parity, and
it is well-rounded exactly when the length ratio l|z| / (k|w|) lies in
[1/sqrt(3), sqrt(3)].  Non-rational lattices admit at most one such pair up
to signs, rational lattices infinitely many.  Counting therefore reduces to
enumerating orthogonal pairs and lattice points in a sqrt(3)-window, with
all inequalities decided exactly by squaring.

For a rational lattice the pairs are searched in plain integers on the
integral primitive form (a, b, c): w = (m, n) has the orthogonal row
(alpha, beta) = (am + bn, bm + cn), z = (beta, -alpha)/gcd(alpha, beta) and
sigma = Q(w)/gcd(alpha, beta), so a pair of too large an index is dropped
before Q(z) is computed.  The window is scanned per row: for each k the
admissible l form one interval whose ends are exact integer square roots of
Q(sqrt D) values, and a boundary hit can only sit at one of the two ends.

Boundary hits of the window are precisely the hexagonal sublattices; in a
rational lattice each hexagonal sublattice is invariant under three
orthogonal pairs and hence appears as a boundary hit in exactly three window
counts, so boundary hits carry weight 1/3.  A square sublattice appears only
through the pair aligned with its diagonals, so no adjustment is needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import TYPE_CHECKING

from .gram import GramForm, is_rational, rational_normalize
from .scalar import NotRationalError, Scalar

if TYPE_CHECKING:
    from .dirichlet import ArithSeq

Vec = tuple[int, int]


class NoFrameError(ValueError):
    """Requested the unique orthogonal pair of a lattice that has none or many."""


class NotApplicableError(ValueError):
    """Counting routine called outside its rationality class."""


class NotPrimitiveVectorError(ValueError):
    pass


class NotIntegralFormError(ValueError):
    pass


class InvariantError(ValueError):
    """An identity of the counting theory failed; the computation is wrong."""


class ExistenceVerdict(enum.Enum):
    RATIONAL_LATTICE = "RationalLattice"
    TRACE_RATIONAL_ONLY = "TraceRationalOnly"
    NORM_CONDITION_HOLDS = "NormConditionHolds"
    NO_WELL_ROUNDED = "NoWellRounded"


@dataclass(frozen=True)
class ReflectionFrame:
    """Primitive orthogonal pair {+-w, +-z} with its derived invariants.

    sigma is the index of the rectangular sublattice spanned by w and z;
    kappa_sq is the squared length ratio |w|^2 / |z|^2, canonicalized to be
    at least 1 by swapping the roles of w and z.
    """

    w: Vec
    z: Vec
    sigma: int
    kappa_sq: Scalar
    parity: str  # "odd" | "even"

    def key(self) -> frozenset:
        """Identity of the four-element set {+-w, +-z}."""
        return frozenset(
            {self.w, _neg(self.w), self.z, _neg(self.z)}
        )

    def to_json(self) -> dict:
        return {
            "w": list(self.w),
            "z": list(self.z),
            "sigma": self.sigma,
            "kappa_sq": self.kappa_sq.to_json(),
            "parity": self.parity,
        }


@dataclass(frozen=True)
class CslInfo:
    """Which reflection-invariant sublattice is the coincidence lattice."""

    uses_superlattice: bool  # True: the half-sum superlattice, False: <w, z>
    Sigma: int


def _neg(v: Vec) -> Vec:
    return (-v[0], -v[1])


def _primitive(v: tuple) -> Vec:
    x, y = v
    d = gcd(abs(x), abs(y))
    if d == 0:
        raise ValueError("zero vector has no primitive representative")
    return (x // d, y // d)


def is_primitive(v: Vec) -> bool:
    return gcd(abs(v[0]), abs(v[1])) == 1


def orthogonal_primitive(w: Vec, g: GramForm) -> Vec | None:
    """Primitive lattice vector orthogonal to w under g, if one exists."""
    # row w^T G = (alpha, beta); z = (x, y) needs alpha x + beta y = 0
    alpha = g.a * w[0] + g.b * w[1]
    beta = g.b * w[0] + g.c * w[1]
    if beta.sign() == 0:
        return (0, 1)
    ratio = alpha / beta
    if not ratio.is_rational:
        return None
    frac = ratio.as_fraction()
    # alpha x + beta y = 0 with alpha/beta = p/q is solved by (q, -p)
    return _primitive((frac.denominator, -frac.numerator))


def _check_integral_primitive(g: GramForm) -> tuple[int, int, int]:
    if not g.is_integral():
        raise NotIntegralFormError(f"integral Gram form required, got {g}")
    a, b, c = int(g.a.rat), int(g.b.rat), int(g.c.rat)
    if gcd(gcd(abs(a), abs(b)), abs(c)) != 1:
        raise NotIntegralFormError("Gram form must have coprime entries")
    return a, b, c


def g_star(w: Vec, g: GramForm) -> int:
    """Dual-lattice coefficient of a primitive vector w.

    Completing w to a determinant-one basis (w, v2), this is the gcd of
    (w, w) and (w, v2); it divides the form discriminant and gives the
    index of the rectangular sublattice through sigma = (w, w) / g*(w).
    """
    a, b, c = _check_integral_primitive(g)
    if not is_primitive(w):
        raise NotPrimitiveVectorError(f"{w} is not primitive")
    # v2 with det(w, v2) = 1 via the extended Euclid relation
    x, y = _bezout_complement(w)
    ww = a * w[0] * w[0] + 2 * b * w[0] * w[1] + c * w[1] * w[1]
    wv = a * w[0] * x + b * (w[0] * y + w[1] * x) + c * w[1] * y
    return gcd(ww, abs(wv)) if wv else abs(ww)


def _bezout_complement(w: Vec) -> Vec:
    w0, w1 = w
    # find (x, y) with w0*y - w1*x = 1
    g0, s, t = _ext_gcd(w0, w1)
    if g0 != 1:
        raise InvariantError(f"{w} is not primitive; it has no Bezout complement")
    return (-t, s)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def brs_index(w: Vec, g: GramForm) -> int:
    """Index of the rectangular sublattice <w, z> with z orthogonal to w."""
    a, b, c = _check_integral_primitive(g)
    ww = a * w[0] * w[0] + 2 * b * w[0] * w[1] + c * w[1] * w[1]
    q, r = divmod(ww, g_star(w, g))
    if r:
        raise InvariantError(f"g*({w}) does not divide Q({w}) = {ww}")
    return q


def existence(g: GramForm) -> ExistenceVerdict:
    """Decide whether g has any well-rounded sublattice, by case analysis
    on the rationality of the normalized trace t = 2b/a and norm n = c/a."""
    g.check_positive_definite()
    t = g.b / g.a * 2
    n = g.c / g.a
    if t.is_rational and n.is_rational:
        return ExistenceVerdict.RATIONAL_LATTICE
    if t.is_rational:
        return ExistenceVerdict.TRACE_RATIONAL_ONLY
    # t irrational: need rational q, r with n = q + r t and q + r^2 a square
    q, r = _norm_decomposition(t, n)
    if q is None:
        return ExistenceVerdict.NO_WELL_ROUNDED
    disc = Scalar.of(q) + Scalar.of(r * r)
    if disc.sign() >= 0 and disc.is_square_rational():
        return ExistenceVerdict.NORM_CONDITION_HOLDS
    return ExistenceVerdict.NO_WELL_ROUNDED


def _norm_decomposition(t: Scalar, n: Scalar) -> tuple[Fraction | None, Fraction | None]:
    """Rational (q, r) with n = q + r t, if they exist; t irrational."""
    if n.is_rational:
        return n.as_fraction(), Fraction(0)
    if t.root != n.root:
        return None, None
    r = n.irr / t.irr
    q = n.rat - r * t.rat
    return q, r


def _frame(w: Vec, z: Vec, sigma: int, kappa_sq: Scalar) -> ReflectionFrame:
    """The frame {+-w, +-z}; each member is stored with its larger sign."""
    return ReflectionFrame(
        w=max(w, _neg(w)),
        z=max(z, _neg(z)),
        sigma=sigma,
        kappa_sq=kappa_sq,
        parity="even" if sigma % 2 == 0 else "odd",
    )


def _frame_from_w(
    w: Vec, form: tuple[int, int, int], sigma_cap: int | None = None
) -> ReflectionFrame | None:
    """The frame through w for the integral form (a, b, c), in integers.

    Returns None when its index sigma exceeds sigma_cap.
    """
    a, b, c = form
    m, n = w
    alpha = a * m + b * n
    beta = b * m + c * n
    g = gcd(alpha, beta)
    z = (beta // g, -alpha // g)
    qw = m * alpha + n * beta
    # |det(w, z)| = (m alpha + n beta) / g = Q(w) / g
    sigma = qw // g
    if sigma_cap is not None and sigma > sigma_cap:
        return None
    qz = a * z[0] * z[0] + 2 * b * z[0] * z[1] + c * z[1] * z[1]
    if qw < qz:
        w, z, qw, qz = z, w, qz, qw
    return _frame(w, z, sigma, Scalar(Fraction(qw, qz)))


def unique_frame(g: GramForm) -> ReflectionFrame:
    """The single orthogonal pair of a non-rational lattice that has one."""
    verdict = existence(g)
    if verdict is ExistenceVerdict.RATIONAL_LATTICE:
        raise NoFrameError("rational lattices have infinitely many orthogonal pairs")
    if verdict is ExistenceVerdict.NO_WELL_ROUNDED:
        raise NoFrameError("lattice has no orthogonal pair of lattice vectors")
    t = g.b / g.a * 2
    n = g.c / g.a
    if verdict is ExistenceVerdict.TRACE_RATIONAL_ONLY:
        w: Vec = (1, 0)
    else:
        q, r = _norm_decomposition(t, n)
        root = (Scalar.of(q) + Scalar.of(r * r)).sqrt_rational()
        beta = -1 / (2 * r) if q == 0 else (r + root) / q
        w = _primitive((beta.denominator, beta.numerator))
    z = orthogonal_primitive(w, g)
    if z is None:
        raise InvariantError(f"{verdict.value} lattice has no vector orthogonal to {w}")
    kappa_sq = g.value(*w) / g.value(*z)
    if kappa_sq < 1:
        w, z, kappa_sq = z, w, 1 / kappa_sq
    return _frame(w, z, abs(w[0] * z[1] - w[1] * z[0]), kappa_sq)


def gamma_tilde_and_csl(frame: ReflectionFrame) -> CslInfo:
    """Coincidence site lattice of the reflection fixing the frame axis.

    The half-sum superlattice <(w+z)/2, (w-z)/2> lies inside the ambient
    lattice exactly when sigma is even, and is then the coincidence lattice
    of index sigma/2; otherwise <w, z> itself is, of index sigma.
    """
    if frame.sigma % 2 == 0:
        return CslInfo(uses_superlattice=True, Sigma=frame.sigma // 2)
    return CslInfo(uses_superlattice=False, Sigma=frame.sigma)


# -- window counting ----------------------------------------------------------


def _window_hits(kappa_sq: Scalar, scale: int, x: int, odd: bool):
    """(scale*p*q, on_boundary) for p, q >= 1 with kappa^2 p^2 <= 3 q^2,
    q^2 <= 3 kappa^2 p^2 and scale*p*q <= x; p and q odd when `odd`.

    Row p holds the q from ceil(sqrt(kappa^2 p^2 / 3)) to
    floor(sqrt(3 kappa^2 p^2)), capped at x // (scale*p); only its two ends
    can lie on the boundary.  The lower end grows with p while the cap
    shrinks, so the first row whose lower end passes its cap is the last.
    """
    step = 2 if odd else 1
    low_unit, high_unit = kappa_sq / 3, kappa_sq * 3
    p = 1
    while True:
        cap = x // (scale * p)
        low_sq = low_unit * (p * p)
        lo = low_sq.isqrt()
        lo_on = (low_sq - lo * lo).sign() == 0
        if not lo_on:
            lo += 1
        if odd and lo % 2 == 0:
            lo, lo_on = lo + 1, False
        if lo > cap:
            return
        high_sq = high_unit * (p * p)
        hi = high_sq.isqrt()
        hi_on = (high_sq - hi * hi).sign() == 0
        if hi > cap:
            hi, hi_on = cap, False
        if odd and hi % 2 == 0:
            hi, hi_on = hi - 1, False
        for q in range(lo, hi + 1, step):
            yield scale * p * q, (lo_on and q == lo) or (hi_on and q == hi)
        p += step


def _window_hits_even(kappa_sq: Scalar, sigma: int, x: int):
    """Indices 2*sigma*k*l with kappa^2 k^2 <= 3 l^2 and l^2 <= 3 kappa^2 k^2."""
    yield from _window_hits(kappa_sq, 2 * sigma, x, odd=False)


def _window_hits_odd(kappa_sq: Scalar, sigma: int, x: int):
    """Indices sigma(2k+1)(2l+1)/2 over the same window in odd coordinates."""
    yield from _window_hits(kappa_sq, sigma // 2, x, odd=True)


def _frame_hits(frame: ReflectionFrame, x: int):
    """Window hits of one frame; the odd window exists only for even sigma."""
    yield from _window_hits_even(frame.kappa_sq, frame.sigma, x)
    if frame.sigma % 2 == 0:
        yield from _window_hits_odd(frame.kappa_sq, frame.sigma, x)


def count_wr_nonrational(g: GramForm, x: int) -> ArithSeq:
    """Well-rounded sublattice counts by index for a non-rational lattice."""
    from .dirichlet import ArithSeq

    if is_rational(g):
        raise NotApplicableError("lattice is rational; use count_wr_rational")
    counts = [0] * x
    for n, boundary in _frame_hits(unique_frame(g), x):
        if boundary:  # a hexagonal sublattice forces a rational similarity class
            raise InvariantError(f"window boundary hit at index {n} of a non-rational lattice")
        counts[n - 1] += 1
    return ArithSeq(counts)


def nonrational_census(g: GramForm, x: int) -> ArithSeq:
    """Independent check of count_wr_nonrational by direct construction.

    Builds every candidate sublattice <(kw+lz)/2, (kw-lz)/2> with k, l of
    equal parity and tests well-roundedness by reduction, bypassing the
    window inequalities entirely.
    """
    from .dirichlet import ArithSeq
    from .gram import is_well_rounded

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


# -- rational lattices: frame enumeration and counting ------------------------


def _primitive_vectors_up_to_norm(form: tuple[int, int, int], norm_cap: int):
    """All primitive (m, n) up to sign with Q(m, n) <= norm_cap, by rows n.

    a Q(m, n) = (am + bn)^2 + d n^2, so row n holds the m with
    |am + bn| <= isqrt(a norm_cap - d n^2).
    """
    a, b, c = form
    d = a * c - b * b
    for n in range(0, isqrt(norm_cap * a // d) + 1):
        s = isqrt(a * norm_cap - d * n * n)
        # ceil((-s - bn) / a) <= m <= floor((s - bn) / a)
        for m in range(-((s + b * n) // a), (s - b * n) // a + 1):
            if (n == 0 and m <= 0) or gcd(m, n) != 1:
                continue
            yield (m, n)


def _distinct_frames(
    ws, form: tuple[int, int, int], sigma_cap: int | None = None
) -> list[ReflectionFrame]:
    """The frames through the vectors ws, one per set {+-w, +-z}, in order of
    first appearance; frames of index above sigma_cap are dropped."""
    frames: dict[frozenset, ReflectionFrame] = {}
    for w in ws:
        frame = _frame_from_w(w, form, sigma_cap)
        if frame is not None:
            frames.setdefault(frame.key(), frame)
    return list(frames.values())


def enumerate_frames(g: GramForm, H: int) -> list[ReflectionFrame]:
    """All orthogonal pairs whose members have coordinates bounded by H."""
    if not is_rational(g):
        raise NotRationalError("frame enumeration needs a rational lattice")
    form = _check_integral_primitive(rational_normalize(g)[0])
    ws = (
        (m, n)
        for n in range(0, H + 1)
        for m in range(-H, H + 1)
        if not (n == 0 and m <= 0) and gcd(m, n) == 1
    )
    return sorted(_distinct_frames(ws, form), key=lambda f: (f.sigma, f.w, f.z))


def _frames_for_count(g: GramForm, x: int) -> list[ReflectionFrame]:
    """Every frame that can contribute an index <= x.

    A frame's smallest contribution is at least sigma/2, and sigma is at
    least Q(w)/d for the integral primitive form of discriminant d, so
    Q(w) <= 2 x d suffices.
    """
    form = _check_integral_primitive(rational_normalize(g)[0])
    a, b, c = form
    ws = _primitive_vectors_up_to_norm(form, 2 * x * (a * c - b * b))
    return _distinct_frames(ws, form, 2 * x)


def count_wr_rational(g: GramForm, x: int) -> ArithSeq:
    """Well-rounded sublattice counts by index for a rational lattice.

    Sums window counts over all contributing orthogonal pairs; window
    boundary hits are hexagonal sublattices shared by three pairs and enter
    with weight 1/3, so the tally is kept in thirds.
    """
    from .dirichlet import ArithSeq

    if not is_rational(g):
        raise NotRationalError("use count_wr_nonrational for this lattice")
    thirds = [0] * x
    for frame in _frames_for_count(g, x):
        for n, boundary in _frame_hits(frame, x):
            thirds[n - 1] += 1 if boundary else 3
    out = []
    for n, t in enumerate(thirds, 1):
        q, r = divmod(t, 3)
        if r:
            raise InvariantError(f"non-integral count {t}/3 at index {n}; frame set inconsistent")
        out.append(q)
    return ArithSeq(out)
