"""Truncated Dirichlet series as exact coefficient streams.

An ArithSeq holds the first N coefficients a(1), ..., a(N) of a Dirichlet
series in one numpy array.  Each operation bounds its results by the
operands' largest |coefficient|: when the bound is below 2^63 it computes in
int64, otherwise in exact Python integers (dtype object), with the same code
either way.  Multiplying two series is Dirichlet convolution, computed by a
hyperbola split at sqrt(N) in about 2 sqrt(N) strided array additions.
Truncation bounds propagate as the minimum over operands and reading past
the bound is an error, never a silent zero.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

import numpy as np


class OutOfRangeError(IndexError):
    """Requested a coefficient or partial sum beyond the truncation bound."""


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


def _dtype(bound: int):
    """int64 if `bound`, a bound on every magnitude an operation can
    produce, is below 2^63; otherwise exact Python integers."""
    return np.int64 if bound < 1 << 63 else object


class ArithSeq:
    """Coefficients a(1..N) of a truncated Dirichlet series; 1-based access."""

    __slots__ = ("N", "_a")

    def __init__(self, values: Sequence[int] | np.ndarray):
        a = values if isinstance(values, np.ndarray) else np.array(list(values), dtype=object)
        if a.ndim != 1 or not len(a):
            raise ValueError("empty coefficient stream")
        self._a = a.astype(_dtype(_max_abs(a)), copy=False)
        self.N = len(a)

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.N:
            raise OutOfRangeError(f"index {n} outside [1, {self.N}]")
        return int(self._a[n - 1])

    def __len__(self):
        return self.N

    def __iter__(self):
        return iter(self._a.tolist())

    def __eq__(self, other):
        if not isinstance(other, ArithSeq):
            return NotImplemented
        return self.N == other.N and bool(np.array_equal(self._a, other._a))

    def __repr__(self):
        head = ", ".join(str(x) for x in self._a[:8].tolist())
        return f"ArithSeq(N={self.N}: {head}{', ...' if self.N > 8 else ''})"

    def scale(self, factor: int) -> "ArithSeq":
        dtype = _dtype(_max_abs(self._a) * abs(factor))
        return ArithSeq(self._a.astype(dtype, copy=False) * factor)

    def _operands(self, other: "ArithSeq") -> tuple[np.ndarray, np.ndarray]:
        n = min(self.N, other.N)
        a, b = self._a[:n], other._a[:n]
        dtype = _dtype(_max_abs(a) + _max_abs(b))
        return a.astype(dtype, copy=False), b.astype(dtype, copy=False)

    def __add__(self, other: "ArithSeq") -> "ArithSeq":
        a, b = self._operands(other)
        return ArithSeq(a + b)

    def __sub__(self, other: "ArithSeq") -> "ArithSeq":
        a, b = self._operands(other)
        return ArithSeq(a - b)

    def summatory(self, x: int) -> int:
        """Partial sum A(x) = a(1) + ... + a(x)."""
        if not 1 <= x <= self.N:
            raise OutOfRangeError(f"summatory bound {x} outside [1, {self.N}]")
        return int(self._prefix_sums()[x - 1])

    def summatory_all(self) -> list[int]:
        """Prefix sums A(1), ..., A(N)."""
        return self._prefix_sums().tolist()

    def _prefix_sums(self) -> np.ndarray:
        return np.cumsum(self._a.astype(_dtype(self.N * _max_abs(self._a)), copy=False))


def convolve(f: ArithSeq, g: ArithSeq) -> ArithSeq:
    """Dirichlet convolution (f*g)(n) = sum over de=n of f(d) g(e).

    Pairs (d, e) with d <= s = isqrt(N) are added one d at a time, the rest
    one e at a time; either way each step is one strided slice.
    """
    N = min(f.N, g.N)
    fa, ga = f._a[:N], g._a[:N]
    # every output is a sum of at most N products
    dtype = _dtype(N * _max_abs(fa) * _max_abs(ga))
    f1, g1, out = (np.zeros(N + 1, dtype=dtype) for _ in range(3))
    f1[1:], g1[1:] = fa, ga
    s = isqrt(N)
    for d in range(1, s + 1):
        if f1[d]:
            out[d::d] += f1[d] * g1[1 : N // d + 1]
    for e in range(1, N // (s + 1) + 1):
        if g1[e]:
            out[e * (s + 1) : e * (N // e) + 1 : e] += g1[e] * f1[s + 1 : N // e + 1]
    return ArithSeq(out[1:])


def delta_seq(N: int) -> ArithSeq:
    """Convolution identity (1, 0, 0, ...)."""
    return ArithSeq((np.arange(N) == 0).astype(np.int64))


def ones_seq(N: int) -> ArithSeq:
    """Coefficients of zeta(s)."""
    return ArithSeq(np.ones(N, dtype=np.int64))


class DirichletCharacter:
    """Periodic totally multiplicative sign table."""

    def __init__(self, modulus: int, table: Sequence[int]):
        if len(table) != modulus:
            raise ValueError("table length must equal the modulus")
        self.modulus = modulus
        # table[r] is the value at n with n % modulus == r
        self.table = tuple(table)

    def __call__(self, n: int) -> int:
        return self.table[n % self.modulus]


# quadratic characters mod 4 and mod 3
CHI_MINUS4 = DirichletCharacter(4, (0, 1, 0, -1))
CHI_MINUS3 = DirichletCharacter(3, (0, 1, -1))


def character_seq(chi: DirichletCharacter, N: int) -> ArithSeq:
    return ArithSeq(np.array(chi.table, dtype=np.int64)[np.arange(1, N + 1) % chi.modulus])


def moebius_seq(N: int) -> ArithSeq:
    """Moebius function by sieve (coefficients of 1/zeta(s))."""
    mu = np.ones(N + 1, dtype=np.int64)
    sieved = np.zeros(N + 1, dtype=bool)
    for p in range(2, N + 1):
        if not sieved[p]:
            sieved[p::p] = True
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    return ArithSeq(mu[1:])


def inv_zeta_2s(N: int) -> ArithSeq:
    """Coefficients of 1/zeta(2s): mu(sqrt(n)) at perfect squares, else 0."""
    r = isqrt(N)
    out = np.zeros(N, dtype=np.int64)
    out[np.arange(1, r + 1) ** 2 - 1] = moebius_seq(r)._a
    return ArithSeq(out)


def alt_euler_factor(m: int, N: int) -> ArithSeq:
    """Coefficients of 1/(1 + m^{-s}): (-1)^j at n = m^j."""
    if m < 2:
        raise ValueError("base must be at least 2")
    out = np.zeros(N, dtype=np.int64)
    power, sign = 1, 1
    while power <= N:
        out[power - 1] = sign
        power, sign = power * m, -sign
    return ArithSeq(out)


def shift_support(f: ArithSeq, m: int) -> ArithSeq:
    """Multiplication by m^{-s}: value f(n/m) when m | n, else 0."""
    if m < 1:
        raise ValueError("shift base must be positive")
    out = np.zeros_like(f._a)
    out[m - 1 :: m] = f._a[: f.N // m]
    return ArithSeq(out)


def pair_band(N: int, r: int, odd: bool = False) -> ArithSeq:
    """w(n) = number of factorizations n = p*q with p < q and q^2 < r p^2.

    With `odd`, p and q are both odd.  `asympt._band_gap_terms(P, r, odd)`
    sums over the same band.  The odd loop may start at p = 1: no odd q
    lies in (1, sqrt(r)) for r <= 9.
    """
    step = 2 if odd else 1
    out = np.zeros(N + 1, dtype=np.int64)
    for p in range(1, isqrt(N) + 1, step):
        q_max = min(isqrt(r * p * p - 1), N // p)
        out[p * (p + step) : p * q_max + 1 : p * step] += 1
    return ArithSeq(out[1:])


def evaluate(f: ArithSeq, s: float) -> float:
    """Float value of the truncated series sum a(n) / n^s."""
    n = np.arange(1, f.N + 1, dtype=np.float64)
    return float(np.sum(f._a.astype(np.float64) * n ** (-s)))
