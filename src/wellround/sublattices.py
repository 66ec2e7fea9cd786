"""Finite-index sublattices of a planar lattice.

Every finite-index sublattice of Z^2 has a unique Hermite normal form basis,
the columns of [[m, k], [0, l]] with m, l >= 1 and 0 <= k < m; its index is
m*l.  Enumerating these and classifying the restricted Gram form gives an
exhaustive census of sublattice types up to a given index, the brute-force
oracle against which every generating-function counter is checked.

`wr_census_bruteforce` walks the HNF triples directly, m, then l <= N // m,
then m values of k, so no divisor is searched for; the form is scaled once
to integer pairs by `gram._checked_pairs`, and the field is chosen before
the walk.  Over Q, the k of each (m, l) run over the centred window of m
cosets of k modulo m whose form has -a <= 2b < a, so the first shear of
the reduction is done; the rest of `gram._reduce_int` and the type test of
`gram._classify_pair` are inlined, and each sublattice adds 1 to its
type's list in `CensusReport.by_type`.  Where a | 2bl, the forms with b and
-b are mirror images, so only 0 <= 2b <= a is reduced, each adding 2, less
one at each end.  Over Q(sqrt(D)), the census calls `gram._reduce_pair` and
`_classify_pair`, the loops `gram.gauss_reduce` runs.
"""

from __future__ import annotations

import csv
import io
import json

from .gram import GramForm, LatticeType, _checked_pairs, _classify_pair, _reduce_pair


_TYPE_ORDER = [
    LatticeType.GENERAL,
    LatticeType.RECTANGULAR,
    LatticeType.CENTRED_RECTANGULAR,
    LatticeType.RHOMBIC,
    LatticeType.SQUARE,
    LatticeType.HEXAGONAL,
]

_CSV_HEADER = [
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


class CensusReport:
    """Per-index tallies of sublattice types up to a bound N.

    ``by_type[t][n-1]`` counts index-n sublattices of geometric type t.
    """

    __slots__ = ("N", "by_type")

    def __init__(self, N: int):
        self.N = N
        self.by_type = {t: [0] * N for t in _TYPE_ORDER}

    def total(self, n: int) -> int:
        return sum(self.by_type[t][n - 1] for t in _TYPE_ORDER)

    def well_rounded(self, n: int) -> int:
        return (
            self.by_type[LatticeType.RHOMBIC][n - 1]
            + self.by_type[LatticeType.SQUARE][n - 1]
            + self.by_type[LatticeType.HEXAGONAL][n - 1]
        )

    def row(self, n: int) -> list[int]:
        return (
            [n, self.total(n)]
            + [self.by_type[t][n - 1] for t in _TYPE_ORDER]
            + [self.well_rounded(n)]
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(_CSV_HEADER)
        for n in range(1, self.N + 1):
            writer.writerow(self.row(n))
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "N": self.N,
                "columns": _CSV_HEADER,
                "rows": [self.row(n) for n in range(1, self.N + 1)],
            }
        )


def wr_census_bruteforce(g: GramForm, N: int) -> CensusReport:
    """Classify every sublattice of index <= N; exhaustive oracle.

    Walks the HNF triples by m, then l <= N // m, then k.  The form of
    (m, k, l) is (A, B, C) = (a m^2, a m k + b m l, a k^2 + 2 b k l + c l^2)
    on g's integer pairs; k and k + m give the same sublattice, with B moved
    by A.  Over Q, k runs over k0 <= k < k0 + m, k0 = -floor((A + 2 b m l) /
    2 a m), where -A <= 2B < A; the terms that do not depend on k are
    computed once per (m, l), the reduction goes on from |B|, and the type
    is tallied inline at index n = ml.  Where a | 2bl, the window is folded:
    k' = -k - 2bl/a gives B(k') = -B(k) and C(k') = C(k) = (B^2 + n^2 d)/A,
    d = ac - b^2, so the two forms are equivalent under diag(1, -1) and have
    one type; and k' is in the window -A < 2B <= A exactly when -A < 2B(k) < A.
    So k runs over 0 <= 2B <= A, each sublattice adds 2, and the ends, their
    own mirrors, take one back: at B = 0, (A, 0, C) is square if C = A, else
    rectangular; at 2B = A, the last one tallied (the k0 + m shear of the one
    at 2B = -A).  Over Q(sqrt(D)), k runs over 0 <= k < m.
    """
    D, _, ((ax, ay), (bx, by), (cx, cy)) = _checked_pairs(g)
    if N < 1:
        raise ValueError("census bound must be positive")
    report = CensusReport(N)
    by_type = report.by_type
    if D is None:
        general, rectangular, centred, rhombic, square, hexagonal = map(by_type.get, _TYPE_ORDER)
        for m in range(1, N + 1):
            A, axm = ax * m * m, ax * m
            for l in range(1, N // m + 1):
                i, b0, bl2, cl = m * l - 1, bx * m * l, 2 * bx * l, cx * l * l
                if bl2 % ax:  # -A <= 2B < A, each sublattice once
                    k0, w = -((A + 2 * b0) // (2 * axm)), 1
                    stop = k0 + m
                else:  # 0 <= 2B <= A, each sublattice and its mirror
                    k0, stop, w = -(bx * l // ax), (A - 2 * b0) // (2 * axm) + 1, 2
                for k in range(k0, stop):
                    # _reduce_int after its first shear, inlined
                    a, b, c = A, axm * k + b0, (ax * k + bl2) * k + cl
                    if b < 0:
                        b = -b
                    while a > c:
                        a, c = c, a
                        # round(b/a) for int a > 0, b >= 0
                        q = (b + (a >> 1)) // a
                        r = b - q * a
                        c -= q * (b + r)
                        b = -r if r < 0 else r
                    # _classify_pair, inlined: b = 0, then a = c, then a = 2b
                    if not b:
                        t = square if a == c else rectangular
                    elif a == c:
                        t = hexagonal if a == 2 * b else rhombic
                    else:
                        t = centred if a == 2 * b else general
                    t[i] += w
                if w == 2:
                    if not b0 % axm:  # B = 0 at k0: (A, 0, C) is its own mirror
                        (square if (ax * k0 + bl2) * k0 + cl == A else rectangular)[i] -= 1
                    if not (A - 2 * b0) % (2 * axm):  # 2B = A at the last k: the k0 + m shear of 2B = -A
                        t[i] -= 1
        return report
    for m in range(1, N + 1):
        for l in range(1, N // m + 1):
            n = m * l
            for k in range(m):
                mm, mk, kk, kl, ll = m * m, m * k, k * k, 2 * k * l, l * l
                r = _reduce_pair(
                    ax * mm, ay * mm, ax * mk + bx * n, ay * mk + by * n,
                    ax * kk + bx * kl + cx * ll, ay * kk + by * kl + cy * ll, D,
                )
                by_type[_classify_pair(*r)][n - 1] += 1
    return report
