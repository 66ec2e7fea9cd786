"""Well-rounded sublattices of arbitrary planar lattices.

Every well-rounded sublattice of a lattice G (given by its Gram form) sits
inside the rhombic superlattice spanned by (kw + lz)/2 and (kw - lz)/2 for a
primitive orthogonal pair {+-w, +-z} and integers k, l of equal parity, and
it is well-rounded exactly when the length ratio l|z| / (k|w|) lies in
[1/sqrt(3), sqrt(3)].  Non-rational lattices admit at most one such pair up
to signs, rational lattices infinitely many.  Counting therefore reduces to
enumerating orthogonal pairs and lattice points in a sqrt(3)-window, with
all inequalities decided exactly by squaring.  One counter, `count_wr`,
serves every lattice: the existence verdict picks the pairs, and one loop
tallies their window hits.

The verdict is decided once per call, on the entries as integer pairs
x + y sqrt(D) (`_lattice_class`): a quotient of two pairs is rational exactly
when their cross product vanishes, so the verdict, the integral primitive
form of a rational lattice (`_primitive_form`) and the unique pair of a
non-rational one (`_unique_frame`, with kappa^2 as integers) come from cross
products and one integer square root, with no division in the field.

For a rational lattice the pairs stream from one walk in plain integers on
the integral primitive form (`_frames`): each pair is yielded once, at the
first of its members that the walk reaches, with kappa^2 kept as the integer
pair (Q(w), Q(z)), so no pair is stored or deduplicated.  The window is
scanned per row: for each k the admissible l form one interval whose ends
are integer square roots of exact floors of Q(sqrt D) values, taken on
integer pairs by `gram._floor_pair`, and a boundary hit can only sit at one
of the two ends.

Boundary hits of the window are precisely the hexagonal sublattices; in a
rational lattice each hexagonal sublattice is invariant under three
orthogonal pairs and hence appears as a boundary hit in exactly three window
counts, so boundary hits carry weight 1/3.  A square sublattice appears only
through the pair aligned with its diagonals, so no adjustment is needed.  A
non-rational lattice has no boundary hits: its one pair has an irrational
kappa^2, since a rational one would make the lattice rational.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from .gram import GramForm, _checked_pairs, _floor_pair, _sign_pair
from .scalar import InvariantError, NotRationalError, Scalar

Vec = tuple[int, int]


class NoFrameError(ValueError):
    """Requested the unique orthogonal pair of a lattice that has none or many."""


class ExistenceVerdict(enum.Enum):
    RATIONAL_LATTICE = "RationalLattice"
    TRACE_RATIONAL_ONLY = "TraceRationalOnly"
    NORM_CONDITION_HOLDS = "NormConditionHolds"
    NO_WELL_ROUNDED = "NoWellRounded"


class ReflectionFrame(namedtuple("ReflectionFrame", "w z sigma kappa_sq parity")):
    """Primitive orthogonal pair {+-w, +-z} with its derived invariants.

    sigma is the index of the rectangular sublattice spanned by w and z;
    kappa_sq is the squared length ratio |w|^2 / |z|^2 as a Scalar,
    canonicalized to be at least 1 by swapping the roles of w and z; parity
    is "odd" or "even", that of sigma.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "w": list(self.w),
            "z": list(self.z),
            "sigma": self.sigma,
            "kappa_sq": self.kappa_sq.to_json(),
            "parity": self.parity,
        }


def _neg(v: Vec) -> Vec:
    return (-v[0], -v[1])


def _primitive(v: tuple) -> Vec:
    x, y = v
    d = gcd(abs(x), abs(y))
    if d == 0:
        raise ValueError("zero vector has no primitive representative")
    return (x // d, y // d)


def _cross(p: Vec, q: Vec) -> int:
    return p[0] * q[1] - p[1] * q[0]


def _lattice_class(g: GramForm) -> tuple[ExistenceVerdict, int | None, tuple[Vec, Vec, Vec]]:
    """(verdict, D, (a, b, c)): the existence verdict of g, and its entries as
    the integer pairs of `gram._checked_pairs`, x + y sqrt(D) as (x, y).

    The verdict is a case analysis on the normalized trace t = 2b/a and norm
    n = c/a.  A quotient p/q of pairs is rational exactly when
    cross(p, q) = 0, so t is rational when cross(a, b) = 0, and n too when
    cross(a, c) = 0.  For irrational t, n = q + r t means c = q a + 2r b, so
    q = cross(c, b)/cross(a, b) and 2r = cross(a, c)/cross(a, b); then
    q + r^2 = disc / (2 cross(a, b))^2 with
    disc = 4 cross(c, b) cross(a, b) + cross(a, c)^2, a rational square
    exactly when disc is a square integer.
    """
    D, _, pairs = _checked_pairs(g)
    a, b, c = pairs
    ab, ac = _cross(a, b), _cross(a, c)
    if ab == 0:
        verdict = ExistenceVerdict.TRACE_RATIONAL_ONLY if ac else ExistenceVerdict.RATIONAL_LATTICE
    else:
        disc = 4 * _cross(c, b) * ab + ac * ac
        verdict = (
            ExistenceVerdict.NORM_CONDITION_HOLDS
            if disc >= 0 and isqrt(disc) ** 2 == disc
            else ExistenceVerdict.NO_WELL_ROUNDED
        )
    return verdict, D, pairs


def existence(g: GramForm) -> ExistenceVerdict:
    """Decide whether g has any well-rounded sublattice (`_lattice_class`)."""
    return _lattice_class(g)[0]


def _frame(w: Vec, z: Vec, sigma: int, kappa_sq: Scalar) -> ReflectionFrame:
    """The frame {+-w, +-z}; each member is stored with its larger sign."""
    return ReflectionFrame(
        w=max(w, _neg(w)),
        z=max(z, _neg(z)),
        sigma=sigma,
        kappa_sq=kappa_sq,
        parity="even" if sigma % 2 == 0 else "odd",
    )


def _norm_pair(pairs: tuple[Vec, Vec, Vec], v: Vec) -> Vec:
    """Q(v) = a m^2 + 2b mn + c n^2 as an integer pair, for integer pairs a, b, c."""
    (a, b, c), (m, n) = pairs, v
    return tuple(a[i] * m * m + 2 * b[i] * m * n + c[i] * n * n for i in (0, 1))


def _unique_frame(
    verdict: ExistenceVerdict, D: int | None, pairs: tuple[Vec, Vec, Vec]
) -> tuple[Vec, Vec, int, tuple]:
    """(w, z, sigma, kappa) for the single orthogonal pair of a non-rational
    lattice, from its `_lattice_class`: Q(w) >= Q(z), sigma = |det(w, z)|,
    and kappa^2 = Q(w)/Q(z) as the integers (u, v, L, D) of `_window_hits`.

    A trace-rational lattice has w = (1, 0).  Otherwise the two members are
    (1, beta) for the roots of q beta^2 - 2r beta - 1 = 0, orthogonal since
    c = q a + 2r b; scaled by 2 cross(c, b) they are
    (2 cross(c, b), cross(a, c) +- isqrt(disc)), and the sign that cannot
    give zero is taken.  The row (alpha, beta) = w^T G has proportional
    pairs, so z = (beta, -alpha)/gcd on a component where it is nonzero.
    """
    if verdict is ExistenceVerdict.RATIONAL_LATTICE:
        raise NoFrameError("rational lattices have infinitely many orthogonal pairs")
    if verdict is ExistenceVerdict.NO_WELL_ROUNDED:
        raise NoFrameError("lattice has no orthogonal pair of lattice vectors")
    a, b, c = pairs
    if verdict is ExistenceVerdict.TRACE_RATIONAL_ONLY:
        w: Vec = (1, 0)
    else:
        cb, ac = _cross(c, b), _cross(a, c)
        s = isqrt(4 * cb * _cross(a, b) + ac * ac)
        w = _primitive((2 * cb, ac + s if ac >= 0 else ac - s))
    alpha = (a[0] * w[0] + b[0] * w[1], a[1] * w[0] + b[1] * w[1])
    beta = (b[0] * w[0] + c[0] * w[1], b[1] * w[0] + c[1] * w[1])
    if _cross(alpha, beta):
        raise InvariantError(f"{verdict.value} lattice has no vector orthogonal to {w}")
    i = 0 if alpha[0] or beta[0] else 1
    z = _primitive((beta[i], -alpha[i]))
    (wx, wy), (zx, zy) = _norm_pair(pairs, w), _norm_pair(pairs, z)
    if _sign_pair(wx - zx, wy - zy, D) < 0:
        w, z, wx, wy, zx, zy = z, w, zx, zy, wx, wy
    # Q(w)/Q(z): both times the conjugate of Q(z), over its norm
    u, v, L = wx * zx - wy * zy * D, wy * zx - wx * zy, zx * zx - zy * zy * D
    d = gcd(u, v, L) if L > 0 else -gcd(u, v, L)
    return w, z, abs(_cross(w, z)), (u // d, v // d, L // d, D)


# -- window counting ----------------------------------------------------------


def _window_hits(kappa: tuple, scale: int, x: int, odd: bool):
    """(scale*p*q, on_boundary) for p, q >= 1 with kappa^2 p^2 <= 3 q^2,
    q^2 <= 3 kappa^2 p^2 and scale*p*q <= x; p and q odd when `odd`.

    kappa^2 = (u + v sqrt(D)) / L is given as the integers (u, v, L, D), D
    None when v = 0.  Row p holds the q from ceil(sqrt(kappa^2 p^2 / 3)) to
    floor(sqrt(3 kappa^2 p^2)), capped at x // (scale*p); only its two ends
    can lie on the boundary.  The lower end grows with p while the cap
    shrinks, so the first row whose lower end passes its cap is the last.
    Each end is the integer square root of a `_floor_pair`, and lies on the
    boundary only when v = 0 and its square is exact.
    """
    step = 2 if odd else 1
    u, v, L, D = kappa
    p = 1
    while True:
        cap = x // (scale * p)
        up, vp = u * p * p, v * p * p
        lo = isqrt(_floor_pair(up, vp, 3 * L, D))
        lo_on = v == 0 and up == 3 * L * lo * lo
        if not lo_on:
            lo += 1
        if odd and lo % 2 == 0:
            lo, lo_on = lo + 1, False
        if lo > cap:
            return
        hi = isqrt(_floor_pair(3 * up, 3 * vp, L, D))
        hi_on = v == 0 and 3 * up == L * hi * hi
        if hi > cap:
            hi, hi_on = cap, False
        if odd and hi % 2 == 0:
            hi, hi_on = hi - 1, False
        for q in range(lo, hi + 1, step):
            yield scale * p * q, (lo_on and q == lo) or (hi_on and q == hi)
        p += step


def _frame_hits(kappa: tuple, sigma: int, x: int):
    """Window hits of a frame of index sigma with kappa^2 as in `_window_hits`:
    indices 2 sigma k l, and for even sigma also sigma (2k+1)(2l+1)/2 over
    the same window in odd coordinates."""
    yield from _window_hits(kappa, 2 * sigma, x, odd=False)
    if sigma % 2 == 0:
        yield from _window_hits(kappa, sigma // 2, x, odd=True)


# -- rational lattices: frame enumeration -------------------------------------


def _primitive_form(pairs: tuple[Vec, Vec, Vec]) -> tuple[int, int, int]:
    """The integral primitive form (a, b, c) of a rational lattice, from the
    integer pairs of its entries: they are proportional, so a component in
    which a is nonzero holds the form up to a factor, which the gcd and the
    sign of a remove."""
    i = 0 if pairs[0][0] else 1
    a, b, c = (p[i] for p in pairs)
    d = gcd(a, b, c) if a > 0 else -gcd(a, b, c)
    return a // d, b // d, c // d


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


def _frames(ws, form: tuple[int, int, int], sigma_cap: int | None, walked):
    """(w, z, sigma, Q(w), Q(z)) with Q(w) >= Q(z), once for each frame
    {+-w, +-z} of index sigma <= sigma_cap through a vector of ws, in integers.

    ws holds vectors with n > 0, or n = 0 and m > 0, in (n, m) order, and
    walked(z, Q(z)) tells whether such a z is in ws.  A frame is yielded at
    its first member in ws: from w, unless z, normalized alike, is walked and
    comes first.  On a tie Q(w) = Q(z) that first member is w.  With
    (alpha, beta) = w^T G for the integral form (a, b, c),
    z = (beta, -alpha)/gcd(alpha, beta) and sigma = Q(w)/gcd(alpha, beta), so
    a frame of too large an index is dropped before Q(z) is computed.
    """
    a, b, c = form
    for m, n in ws:
        alpha = a * m + b * n
        beta = b * m + c * n
        g = gcd(alpha, beta)
        qw = m * alpha + n * beta
        # |det(w, z)| = (m alpha + n beta) / g = Q(w) / g
        sigma = qw // g
        if sigma_cap is not None and sigma > sigma_cap:
            continue
        z0, z1 = beta // g, -alpha // g
        if z1 < 0 or (z1 == 0 and z0 < 0):
            z0, z1 = -z0, -z1
        qz = a * z0 * z0 + 2 * b * z0 * z1 + c * z1 * z1
        if (z1 < n or (z1 == n and z0 < m)) and walked((z0, z1), qz):
            continue
        if qw < qz:
            yield (z0, z1), (m, n), sigma, qz, qw
        else:
            yield (m, n), (z0, z1), sigma, qw, qz


def enumerate_frames(g: GramForm, H: int) -> list[ReflectionFrame]:
    """Every orthogonal pair with a member whose coordinates are at most H in
    absolute value; its other member may lie outside that box."""
    verdict, _, pairs = _lattice_class(g)
    if verdict is not ExistenceVerdict.RATIONAL_LATTICE:
        raise NotRationalError("frame enumeration needs a rational lattice")
    form = _primitive_form(pairs)
    ws = (
        (m, n)
        for n in range(0, H + 1)
        for m in range(-H, H + 1)
        if not (n == 0 and m <= 0) and gcd(m, n) == 1
    )
    frames = _frames(ws, form, None, lambda z, qz: max(abs(z[0]), z[1]) <= H)
    return sorted(
        (_frame(w, z, sigma, Scalar(Fraction(qw, qz))) for w, z, sigma, qw, qz in frames),
        key=lambda f: (f.sigma, f.w, f.z),
    )


# -- counting -----------------------------------------------------------------


def count_wr(g: GramForm, x: int) -> list[int]:
    """Well-rounded sublattice counts by index 1..x of any planar lattice.

    The existence verdict picks the frames whose window counts are summed:
    for a rational lattice every frame of index sigma <= 2x, streamed by
    `_frames` (a frame's smallest index is at least sigma/2, and
    sigma >= Q(v)/d for both members v, so both lie in Q <= 2xd); for a
    non-rational one its unique frame; none when the lattice has no
    well-rounded sublattice.  The tally is kept in thirds: a boundary hit
    counts 1, any other hit 3.  The count of index n is at position n - 1.
    """
    if x < 1:
        raise ValueError("count bound must be positive")
    verdict, D, pairs = _lattice_class(g)
    if verdict is ExistenceVerdict.RATIONAL_LATTICE:
        a, b, c = form = _primitive_form(pairs)
        cap = 2 * x * (a * c - b * b)
        ws = _primitive_vectors_up_to_norm(form, cap)
        frames = (
            (sigma, (qw, 0, qz, None))
            for _, _, sigma, qw, qz in _frames(ws, form, 2 * x, lambda z, qz: qz <= cap)
        )
    elif verdict is ExistenceVerdict.NO_WELL_ROUNDED:
        frames = ()
    else:
        _, _, sigma, kappa = _unique_frame(verdict, D, pairs)
        u, v, L, _ = kappa
        if v == 0:
            raise InvariantError(f"rational kappa^2 = {Fraction(u, L)} in a non-rational lattice")
        frames = ((sigma, kappa),)
    thirds = [0] * x
    for sigma, kappa in frames:
        for n, boundary in _frame_hits(kappa, sigma, x):
            thirds[n - 1] += 1 if boundary else 3
    if any([t % 3 for t in thirds]):
        n, t = next((n, t) for n, t in enumerate(thirds, 1) if t % 3)
        raise InvariantError(f"non-integral count {t}/3 at index {n}; frame set inconsistent")
    return [t // 3 for t in thirds]
