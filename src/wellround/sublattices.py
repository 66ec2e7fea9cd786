"""Finite-index sublattices of a planar lattice.

Every finite-index sublattice of Z^2 has a unique Hermite normal form basis,
the columns of [[m, k], [0, l]] with m, l >= 1 and 0 <= k < m; its index is
m*l.  Enumerating these and classifying the restricted Gram form gives an
exhaustive census of sublattice types up to a given index, the brute-force
oracle against which every generating-function counter is checked.

`wr_census_bruteforce` walks the HNF triples directly, m, then l <= N // m,
then k < m, so no divisor is searched for; the form is scaled once to
integer pairs, and the reduction loop of its field is chosen before the
walk: plain-int `_reduce_int` for a form over Q, whose type is read off
inline, and the Z[sqrt(D)] pair loop `_reduce_pair` otherwise.  The pairs
come from `gram._checked_pairs`, and these are the loops that
`gram.gauss_reduce` runs, so the census and the public reduction share one
reduction per field.  Each sublattice is counted by one
`CensusReport.tally` call.
"""

from __future__ import annotations

import csv
import io
import json

from .gram import GramForm, LatticeType, _checked_pairs, _classify_pair, _reduce_int, _reduce_pair


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

    def tally(self, n: int, t: LatticeType) -> None:
        self.by_type[t][n - 1] += 1

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

    Walks the HNF triples by m, then l <= N // m, then 0 <= k < m.  The form
    of (m, k, l) is (a m^2, a m k + b m l, a k^2 + 2 b k l + c l^2) on g's
    integer pairs; over Q its terms that do not depend on k are computed once
    per (m, l).  Its type is tallied at index n = ml.
    """
    D, _, ((ax, ay), (bx, by), (cx, cy)) = _checked_pairs(g)
    if N < 1:
        raise ValueError("census bound must be positive")
    report = CensusReport(N)
    tally = report.tally
    if D is None:
        general, rectangular, centred, rhombic, square, hexagonal = _TYPE_ORDER
        for m in range(1, N + 1):
            a, axm = ax * m * m, ax * m
            for l in range(1, N // m + 1):
                n, b0, bl2, cl = m * l, bx * m * l, 2 * bx * l, cx * l * l
                for k in range(m):
                    # _classify_pair, inlined: b = 0, then a = c, then a = 2b
                    ra, rb, rc = _reduce_int(a, axm * k + b0, (ax * k + bl2) * k + cl)
                    if not rb:
                        tally(n, square if ra == rc else rectangular)
                    elif ra == rc:
                        tally(n, hexagonal if ra == 2 * rb else rhombic)
                    else:
                        tally(n, centred if ra == 2 * rb else general)
        return report
    for m in range(1, N + 1):
        for l in range(1, N // m + 1):
            n = m * l
            for k in range(m):
                mm, mk, kk, kl, ll = m * m, m * k, k * k, 2 * k * l, l * l
                tally(
                    n,
                    _classify_pair(
                        *_reduce_pair(
                            ax * mm,
                            ay * mm,
                            ax * mk + bx * n,
                            ay * mk + by * n,
                            ax * kk + bx * kl + cx * ll,
                            ay * kk + by * kl + cy * ll,
                            D,
                        )
                    ),
                )
    return report
