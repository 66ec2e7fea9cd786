"""Test-local oracle: Lagrange reduction and HNF sublattices on Scalars.

An independent reference for the integer reduction loops of
`wellround.gram` (`_reduce_int`, `_reduce_pair`) and the HNF loop of
`wellround.sublattices`.  Everything here runs on exact `Scalar` arithmetic
and tracks the change of basis, so that a test can compare the package's
integer loops against a computation that shares none of their code.
`quadratic_forms` draws the forms such comparisons run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from wellround.gram import GramForm, Unimodular
from wellround.scalar import Scalar

_SWAP = Unimodular(((0, 1), (1, 0)))
_FLIP = Unimodular(((1, 0), (0, -1)))


def round_half(x: Scalar) -> int:
    """floor(x + 1/2); the reduction shift coefficient."""
    return (x + Fraction(1, 2)).floor()


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
