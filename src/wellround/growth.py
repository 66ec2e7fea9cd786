"""Growth models A(x) ~ c1 x log x + c2 x, fitted and reported without numpy.

A model is fitted to, and compared with, (x, A(x)) pairs: the summatory
well-rounded counts at the checkpoints.  The least-squares fit is solved
exactly in fractions from the float design entries (x log x, x) and the
integer A(x), then rounded once, so it does not depend on a LAPACK build.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import log, sqrt


class AsymptoticModel(namedtuple("AsymptoticModel", "c1 c2")):
    """c1 x log x + c2 x, with c1 >= 0."""

    __slots__ = ()

    def __new__(cls, c1: float, c2: float):
        if c1 < 0:
            raise ValueError("x log x coefficient must be nonnegative")
        return super().__new__(cls, c1, c2)

    def __call__(self, x: float) -> float:
        return self.c1 * x * log(x) + self.c2 * x


def fit_model(points) -> AsymptoticModel:
    """Least-squares fit of c1 x log x + c2 x with c1 >= 0 through the
    (x, A(x)) pairs; purely empirical, no claim about the true growth law.

    When every x is the same, the minimum-norm solution is returned; when
    the unconstrained c1 is negative, c2 is refitted with c1 = 0.
    """
    rows = [(Fraction(x * log(x)), x, A) for x, A in points]
    saa = sum(a * a for a, _, _ in rows)
    sab = sum(a * b for a, b, _ in rows)
    sbb = sum(b * b for _, b, _ in rows)
    say = sum(a * A for a, _, A in rows)
    sby = sum(b * A for _, b, A in rows)
    det = saa * sbb - sab * sab
    if det:
        c1, c2 = (sbb * say - sab * sby) / det, (saa * sby - sab * say) / det
    else:
        # rank 1: every row is (a, b), and c = (a, b) mean(A) / (a^2 + b^2)
        c1, c2 = say / (saa + sbb), sby / (saa + sbb)
    if c1 < 0:
        c1, c2 = 0, sby / sbb
    return AsymptoticModel(float(c1), float(c2))


def model_report(points, model: AsymptoticModel) -> list[dict]:
    """Residual table of the (x, A(x)) pairs against c1 x log x + c2 x."""
    rows = []
    for x, A in points:
        if x < 2:
            raise ValueError(f"checkpoint {x} is below 2; the residual divides by log x")
        m = model(x)
        resid = A - m
        rows.append(
            {
                "x": x,
                "A": A,
                "model": m,
                "residual": resid,
                "residual_over_x_power": resid / (x**0.75 * log(x)),
                "residual_over_sqrt_x": resid / sqrt(x),
            }
        )
    return rows
