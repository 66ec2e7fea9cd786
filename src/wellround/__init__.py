"""Counting and asymptotics of well-rounded sublattices of planar lattices.

Exact layers: scalar values in a real quadratic field, Gram form
reduction and classification on integer pairs, Hermite-normal-form
sublattice censuses, Dirichlet coefficient streams for the square and
hexagonal lattices, and the general rational / non-rational counting
theory.  The floats live in
asympt (constants, Epstein values) and growth (the fitted growth model).

`import wellround` loads no submodule: every public name below loads its
module on first use, so that a caller pays only for the layers it runs (the
exact layers and `count_wr` run without numpy).
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "InvariantError": "scalar",
    "MixedRadicandError": "scalar",
    "NotRationalError": "scalar",
    "Scalar": "scalar",
    "GramForm": "gram",
    "LatticeType": "gram",
    "NotPositiveDefiniteError": "gram",
    "classify": "gram",
    "gauss_reduce": "gram",
    "CensusReport": "sublattices",
    "wr_census_bruteforce": "sublattices",
    "ExistenceVerdict": "general",
    "NoFrameError": "general",
    "ReflectionFrame": "general",
    "count_wr": "general",
    "enumerate_frames": "general",
    "existence": "general",
    "ArithSeq": "dirichlet",
    "OutOfRangeError": "dirichlet",
    "convolve": "dirichlet",
    "a_hex": "hexagonal",
    "b_hex": "hexagonal",
    "b_hex_primitive": "hexagonal",
    "a_square": "square",
    "b_square": "square",
    "b_square_primitive": "square",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
