"""Counting and asymptotics of well-rounded sublattices of planar lattices.

Exact layers: scalar arithmetic in a real quadratic field, Gram form
reduction and classification, Hermite-normal-form sublattice censuses,
Dirichlet coefficient streams for the square and hexagonal lattices, and
the general rational / non-rational counting theory.  The asympt module is
the single float-bearing layer (constants, growth models, Epstein sums).

The numpy-backed names (the Dirichlet streams and the square and hexagonal
counters) load on first use, so that the exact layers run without numpy.
"""

import importlib

from .general import (
    CslInfo,
    ExistenceVerdict,
    InvariantError,
    NoFrameError,
    NotApplicableError,
    ReflectionFrame,
    brs_index,
    count_wr_nonrational,
    count_wr_rational,
    enumerate_frames,
    existence,
    g_star,
    gamma_tilde_and_csl,
    unique_frame,
)
from .gram import (
    GramForm,
    LatticeType,
    NotPositiveDefiniteError,
    Unimodular,
    classify,
    classify_reduced,
    gauss_reduce,
    is_rational,
    is_well_rounded,
    rational_normalize,
)
from .scalar import MixedRadicandError, NotRationalError, Scalar
from .sublattices import CensusReport, wr_census_bruteforce

__version__ = "0.1.0"

_NUMPY_BACKED = {
    "ArithSeq": "dirichlet",
    "OutOfRangeError": "dirichlet",
    "convolve": "dirichlet",
    "a_hex": "hexagonal",
    "b_hex": "hexagonal",
    "b_hex_primitive": "hexagonal",
    "a_square": "square",
    "b_square": "square",
    "b_square_primitive": "square",
    "is_admissible_index_square": "square",
}


def __getattr__(name: str):
    module = _NUMPY_BACKED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "ArithSeq",
    "CensusReport",
    "CslInfo",
    "ExistenceVerdict",
    "GramForm",
    "InvariantError",
    "LatticeType",
    "MixedRadicandError",
    "NoFrameError",
    "NotApplicableError",
    "NotPositiveDefiniteError",
    "NotRationalError",
    "OutOfRangeError",
    "ReflectionFrame",
    "Scalar",
    "Unimodular",
    "a_hex",
    "a_square",
    "b_hex",
    "b_hex_primitive",
    "b_square",
    "b_square_primitive",
    "brs_index",
    "classify",
    "classify_reduced",
    "convolve",
    "count_wr_nonrational",
    "count_wr_rational",
    "enumerate_frames",
    "existence",
    "g_star",
    "gamma_tilde_and_csl",
    "gauss_reduce",
    "is_admissible_index_square",
    "is_rational",
    "is_well_rounded",
    "rational_normalize",
    "unique_frame",
    "wr_census_bruteforce",
]
