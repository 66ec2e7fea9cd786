"""Finite-index sublattices of a planar lattice.

Every finite-index sublattice of Z^2 has a unique Hermite normal form basis,
the columns of [[m, k], [0, l]] with m, l >= 1 and 0 <= k < m; its index is
m*l.  Enumerating these and classifying the restricted Gram form gives an
exhaustive census of sublattice types up to a given index, the brute-force
oracle against which every generating-function counter is checked.

`wr_census_bruteforce` is one HNF loop over integer data: the form is scaled
once to integer pairs and the reduction loop of its field is chosen before
the loop, plain-int `_reduce_int` for a form over Q and the Z[sqrt(D)] pair
loop `_reduce_pair` otherwise.  These are the loops that `gram.gauss_reduce`
wraps, so the census and the public reduction share one reduction per field.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .gram import (
    GramForm,
    LatticeType,
    _classify_pair,
    _integer_pairs,
    _reduce_int,
    _reduce_pair,
    classify_reduced,
)


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


@dataclass
class CensusReport:
    """Per-index tallies of sublattice types up to a bound N.

    ``by_type[t][n-1]`` counts index-n sublattices of geometric type t.
    """

    N: int
    by_type: dict[LatticeType, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        for t in _TYPE_ORDER:
            self.by_type.setdefault(t, [0] * self.N)

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

    def well_rounded_list(self) -> list[int]:
        return [self.well_rounded(n) for n in range(1, self.N + 1)]

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


def _sublattice_classifier(g: GramForm):
    """classify(m, k, l): the type of the HNF sublattice (m, k, l) of g,
    from g's integer pairs, by `_reduce_int` over Q or `_reduce_pair`."""
    D, _, ((ax, ay), (bx, by), (cx, cy)) = _integer_pairs((g.a, g.b, g.c))
    if D is None:

        def classify(m: int, k: int, l: int) -> LatticeType:
            a = ax * m * m
            b = ax * m * k + bx * m * l
            c = ax * k * k + 2 * bx * k * l + cx * l * l
            return classify_reduced(*_reduce_int(a, b, c))

        return classify

    def classify(m: int, k: int, l: int) -> LatticeType:
        mm, mk, ml, kk, kl, ll = m * m, m * k, m * l, k * k, 2 * k * l, l * l
        return _classify_pair(
            *_reduce_pair(
                ax * mm,
                ay * mm,
                ax * mk + bx * ml,
                ay * mk + by * ml,
                ax * kk + bx * kl + cx * ll,
                ay * kk + by * kl + cy * ll,
                D,
            )
        )

    return classify


def wr_census_bruteforce(g: GramForm, N: int) -> CensusReport:
    """Classify every sublattice of index <= N; exhaustive oracle."""
    g.check_positive_definite()
    if N < 1:
        raise ValueError("census bound must be positive")
    classify = _sublattice_classifier(g)
    report = CensusReport(N)
    for n in range(1, N + 1):
        for m in range(1, n + 1):
            if n % m:
                continue
            l = n // m
            for k in range(m):
                report.tally(n, classify(m, k, l))
    return report
