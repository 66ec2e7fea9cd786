"""Truncated Dirichlet series as exact coefficient streams.

An ArithSeq holds the first N coefficients a(1), ..., a(N) of a Dirichlet
series in one numpy array.  Each operation bounds its results by the
operands' largest |coefficient|: when the bound is below 2^63 it computes in
int64, otherwise in exact Python integers (dtype object), with the same code
either way.  Multiplying two series is Dirichlet convolution, computed by a
hyperbola split at sqrt(N) in about 2 sqrt(N) strided array additions.
Truncation bounds propagate as the minimum over operands and reading past
the bound is an error, never a silent zero.  A sparse factor such as
1/zeta(2s) is its (support, values) pair, which `times_sparse` applies to a
stream and `sparse_times` to partial sums.

A `Summatory` gives the partial sums of a stream at every t, from a prefix
table of its first coefficients and past the table from a function: a row
count of the pair band (`band_count`), a divisor sum split at sqrt(t)
(`divisor_summatory`), a sum over the support of a sparse factor
(`sparse_times`), or `hyperbola_sum` for the partial sum of a convolution.
With tables of about x^(2/3) coefficients (`summatory_length`) this reads
the partial sums of the square and hexagonal counts up to x without an
array of length x.  Both lattices' counts are one identity, `Preset`, on
each lattice's data.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, NamedTuple, Sequence

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


def squares_moebius(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The support and values of 1/zeta(2s) up to N: mu(k) at k^2."""
    k = np.arange(1, isqrt(N) + 1, dtype=np.int64)
    mu = moebius_seq(len(k))._a
    return (k * k)[mu != 0], mu[mu != 0]


def alt_powers(m: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The support and values of 1/(1 + m^{-s}) up to N: (-1)^j at m^j."""
    if m < 2:
        raise ValueError("base must be at least 2")
    n, power = [], 1
    while power <= N:
        n.append(power)
        power *= m
    return np.array(n, dtype=np.int64), np.array([(-1) ** j for j in range(len(n))], dtype=np.int64)


def times_sparse(n: Sequence[int], c: Sequence[int], f: ArithSeq) -> ArithSeq:
    """The product h * f, where h(n_i) = c_i and h is 0 elsewhere: one
    strided slice of f per term n_i <= N.  A weight w is the term (1, w);
    w m^{-s}, the shift to multiples of m, is the term (m, w)."""
    N = f.N
    terms = [(ni, ci) for ni, ci in zip(np.asarray(n).tolist(), np.asarray(c).tolist()) if ni <= N]
    # every output is a sum of one product per term
    dtype = _dtype(sum(abs(ci) for _, ci in terms) * max(_max_abs(f._a), 1))
    a, out = f._a.astype(dtype, copy=False), np.zeros(N, dtype=dtype)
    for ni, ci in terms:
        out[ni - 1 :: ni] += ci * a[: N // ni]
    return ArithSeq(out)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Integer square roots of int64 values below 2^62.  There the rounded
    float root is never below the integer root k (k is a double, and no
    rounding error reaches half its spacing) and at most k + 1, which one
    step down corrects."""
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    return s


def _band_rows(t: int, r: int, odd: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """The rows of the band up to t: each p with p^2 <= t (odd only with
    `odd`), the largest q of its row (q^2 < r p^2 and pq <= t), and the step
    between the q of a row, which start at p + step."""
    step = 2 if odd else 1
    p = np.arange(1, isqrt(t) + 1, step, dtype=np.int64)
    return p, np.minimum(_isqrt(r * p * p - 1), t // p), step


def pair_band(N: int, r: int, odd: bool = False) -> ArithSeq:
    """w(n) = number of factorizations n = p*q with p < q and q^2 < r p^2.

    With `odd`, p and q are both odd.  The band-gap limits of the lattice
    constants (`asympt._band_gap_limit`) run over the same band.  The odd
    loop may start at p = 1: no odd q lies in (1, sqrt(r)) for r <= 9.
    """
    rows, tops, step = _band_rows(N, r, odd)
    out = np.zeros(N + 1, dtype=np.int64)
    for p, q in zip(rows.tolist(), tops.tolist()):
        out[p * (p + step) : p * q + 1 : p * step] += 1
    return ArithSeq(out[1:])


def band_count(t: int, r: int, odd: bool = False) -> int:
    """The partial sum of `pair_band(., r, odd)` to t, one row at a time."""
    p, q, step = _band_rows(t, r, odd)
    return int(((q - p) // step).sum())


class Summatory:
    """Partial sums C(t) = c(1) + ... + c(t) of a stream at every t >= 0:
    read from a prefix table while t <= N, and from `beyond(t)` past it."""

    __slots__ = ("N", "table", "bound", "beyond")

    def __init__(self, seq: ArithSeq, beyond: Callable[[int], int]):
        self.N, self.beyond = seq.N, beyond
        self.table = np.concatenate((np.zeros(1, dtype=np.int64), seq._prefix_sums()))
        self.bound = _max_abs(self.table)

    def __call__(self, t: int) -> int:
        return int(self.table[t]) if t <= self.N else self.beyond(t)


def _weighted_sum(y: int, n: np.ndarray, c: np.ndarray, g: Summatory) -> int:
    """Sum of c_i G(y // n_i) over ascending n_i <= y: G from g.beyond for
    the n_i small enough that y // n_i passes g's table, from the table for
    the rest in one array product."""
    k = int(np.searchsorted(n, y, side="right"))
    far = int(np.searchsorted(n[:k], y // (g.N + 1), side="right"))
    total = sum(
        ci * g.beyond(y // ni) for ni, ci in zip(n[:far].tolist(), c[:far].tolist()) if ci
    )
    if far < k:
        c, G = c[far:k], g.table[y // n[far:k]]
        dtype = _dtype((k - far) * _max_abs(c) * g.bound)
        total += int(np.sum(c.astype(dtype, copy=False) * G.astype(dtype, copy=False)))
    return total


def hyperbola_sum(y: int, f: Summatory, g: Summatory) -> int:
    """Partial sum of f*g to y, the sum of f(a) g(b) over ab <= y, split at
    s = isqrt(y): the pairs with a <= s, those with b <= s, less the s^2
    pairs counted twice.  Both tables must reach s; the coefficients to s
    are the differences of their first s + 1 entries."""
    s = isqrt(y)
    if s > min(f.N, g.N):
        raise OutOfRangeError(f"split point {s} beyond the tables [1, {min(f.N, g.N)}]")
    n = np.arange(1, s + 1, dtype=np.int64)
    fc, gc = np.diff(f.table[: s + 1]), np.diff(g.table[: s + 1])
    return _weighted_sum(y, n, fc, g) + _weighted_sum(y, n, gc, f) - f(s) * g(s)


def summatory_length(x: int) -> int:
    """The table length, about x^(2/3), at which the partial sums to x cost
    about as much past the tables as the tables themselves."""
    return round(x ** (2 / 3)) + 1


def divisor_summatory(chi: DirichletCharacter, b: ArithSeq) -> Summatory:
    """Partial sums of b = 1 * chi, with b's first coefficients as `b`; past
    them, the sum of chi(d) over de <= t splits at s = isqrt(t) into
    sum_{d <= s} chi(d) (t // d) + sum_{e <= s} X(t // e) - s X(s), where X,
    the partial sum of chi, has period chi.modulus and sums to 0 over one."""
    m = chi.modulus
    values = np.array(chi.table, dtype=np.int64)
    X = np.concatenate(([0], np.cumsum(np.roll(values, -1))))
    if X[m]:
        raise ValueError("the character must sum to 0 over one period")

    def beyond(t: int) -> int:
        s = isqrt(t)
        d = np.arange(1, s + 1, dtype=np.int64)
        q = t // d
        return int(values[d % m] @ q + X[q % m].sum()) - s * int(X[s % m])

    return Summatory(b, beyond)


def sparse_times(n: np.ndarray, c: np.ndarray, g: Summatory) -> Summatory:
    """Partial sums of h * g's stream, where h(n_i) = c_i (n_i ascending) and
    h is 0 elsewhere: the table by `times_sparse` on the differences of g's,
    and past it the sum over h's support.  The terms must reach the largest
    t to be read."""
    table = times_sparse(n, c, ArithSeq(np.diff(g.table)))
    return Summatory(table, lambda t: _weighted_sum(t, n, c, g))


def band_summatory(N: int, r: int, odd: bool = False) -> Summatory:
    """Partial sums of the band, from `pair_band(N, r, odd)` and `band_count`."""
    return Summatory(pair_band(N, r, odd), lambda t: band_count(t, r, odd))


class Preset(NamedTuple):
    """The Dirichlet identity of a preset lattice's well-rounded counts,
        a = b + w m^{-s} (band_r * E b_pr) + w (band_r^odd * O b_pr),
    and of their partial sums,
        A(x) = B(x) + w S(x // m; E b_pr, band_r) + w S(x; O b_pr, band_r^odd).
    Here b = 1 * chi counts the similar sublattices, b_pr = b / zeta(2s) the
    primitive ones, band_r is `pair_band(., r)`, w is the weight of each
    pair, m the index shift of the even part (`shift`), and S(y; f, g) is the
    partial sum of f * g to y (`hyperbola_sum`).  E and O are the factors
    1/(1 + k^{-s}) on the even and odd parts, given by their base k (`even`,
    `odd`), or None for the factor 1."""

    chi: DirichletCharacter
    r: int
    w: int
    shift: int
    even: int | None
    odd: int | None

    def similar(self, N: int) -> ArithSeq:
        """b(1..N), the similar sublattices by index."""
        return convolve(ones_seq(N), character_seq(self.chi, N))

    def primitive(self, N: int) -> ArithSeq:
        """b_pr(1..N), the primitive similar sublattices by index."""
        return times_sparse(*squares_moebius(N), self.similar(N))

    def counts(self, N: int) -> ArithSeq:
        """a(1..N), the well-rounded sublattices by index."""
        b = self.similar(N)
        bpr = times_sparse(*squares_moebius(N), b)
        # E b_pr and O b_pr, each distinct factor applied once
        off = {k: times_sparse(*alt_powers(k, N), bpr) if k else bpr for k in {self.even, self.odd}}
        return (
            b
            + times_sparse((self.shift,), (self.w,), convolve(pair_band(N, self.r), off[self.even]))
            + times_sparse((1,), (self.w,), convolve(pair_band(N, self.r, odd=True), off[self.odd]))
        )

    def summatory(self, xs: Sequence[int]) -> list[int]:
        """A(x) for each x in xs, exact, on tables of about max(xs)^(2/3)
        coefficients (`summatory_length`) with no array of length x."""
        x = max(xs)
        N = summatory_length(x)
        B = divisor_summatory(self.chi, self.similar(N))
        P = sparse_times(*squares_moebius(x), B)
        off = {k: sparse_times(*alt_powers(k, x), P) if k else P for k in {self.even, self.odd}}
        even, odd = off[self.even], off[self.odd]
        band, band_odd = band_summatory(N, self.r), band_summatory(N, self.r, odd=True)
        return [
            B(t) + self.w * (hyperbola_sum(t // self.shift, even, band) + hyperbola_sum(t, odd, band_odd))
            for t in xs
        ]
