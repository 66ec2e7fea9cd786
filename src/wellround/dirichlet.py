"""Truncated Dirichlet series: exact coefficient streams, and partial sums
far past them.

An ArithSeq holds the first N coefficients a(1), ..., a(N) of a Dirichlet
series in one numpy array.  Each operation bounds its results by the
operands' largest |coefficient|: when the bound is below 2^63 it computes in
int64, otherwise in exact Python integers (dtype object), with the same code
either way.  Multiplying two series is Dirichlet convolution, computed by a
hyperbola split at sqrt(N) in about 2 sqrt(N) strided array additions.
Truncation bounds propagate as the minimum over operands and reading past
the bound is an error, never a silent zero.  A sparse factor such as
1/zeta(2s) is its (support, values) pair of short lists, which
`times_sparse` applies to a stream.  numpy is imported by the streams'
functions on first use, not with this module.

A `Summatory` gives the partial sums of a series at every t up to its reach,
in plain Python: from a prefix table of its first coefficients, and past the
table from a function, each value computed once.  The functions count norm
form points (`norm_summatory`), sum over the squares' Moebius values with a
Mertens prefix (`squares_moebius_times`) or over a short sparse factor
(`sparse_times`), or count the pair band's rows (`band_summatory`);
`hyperbola_sum` gives the partial sum of a product.  With tables of about
x^0.6 coefficients (`summatory_length`) this reads the partial sums of the
square and hexagonal counts up to x without an array of length x.  Both
lattices' counts are one identity, `Preset`, on each lattice's data.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import isqrt
from operator import add
from typing import Callable, NamedTuple, Sequence


class OutOfRangeError(IndexError):
    """Requested a coefficient or partial sum beyond the truncation bound."""


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


def _dtype(bound: int):
    """int64 if `bound`, a bound on every magnitude an operation can
    produce, is below 2^63; otherwise exact Python integers."""
    return "int64" if bound < 1 << 63 else object


class ArithSeq:
    """Coefficients a(1..N) of a truncated Dirichlet series; 1-based access."""

    __slots__ = ("N", "_a")

    def __init__(self, values: Sequence[int] | np.ndarray):
        import numpy as np

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
        return self.N == other.N and bool((self._a == other._a).all())

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
        return self._a.astype(_dtype(self.N * _max_abs(self._a)), copy=False).cumsum()


def convolve(f: ArithSeq, g: ArithSeq) -> ArithSeq:
    """Dirichlet convolution (f*g)(n) = sum over de=n of f(d) g(e).

    Pairs (d, e) with d <= s = isqrt(N) are added one d at a time, the rest
    one e at a time; either way each step is one strided slice.
    """
    import numpy as np

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


def _moebius(n: int) -> list[int]:
    """mu(0), ..., mu(n), with mu(0) = 0, by sieve."""
    mu, composite = [0] + [1] * n, bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p::p] = bytes([1]) * (n // p)
            mu[p::p] = [-v for v in mu[p::p]]
            mu[p * p :: p * p] = [0] * (n // (p * p))
    return mu


def moebius_seq(N: int) -> ArithSeq:
    """Moebius function (coefficients of 1/zeta(s))."""
    return ArithSeq(_moebius(N)[1:])


def squares_moebius(N: int) -> tuple[list[int], list[int]]:
    """The support and values of 1/zeta(2s) up to N: mu(k) at k^2."""
    mu = _moebius(isqrt(N))
    return [k * k for k, m in enumerate(mu) if m], [m for m in mu if m]


def alt_powers(m: int, N: int) -> tuple[list[int], list[int]]:
    """The support and values of 1/(1 + m^{-s}) up to N: (-1)^j at m^j."""
    if m < 2:
        raise ValueError("base must be at least 2")
    n, power = [], 1
    while power <= N:
        n.append(power)
        power *= m
    return n, [(-1) ** j for j in range(len(n))]


def times_sparse(n: Sequence[int], c: Sequence[int], f: ArithSeq) -> ArithSeq:
    """The product h * f, where h(n_i) = c_i and h is 0 elsewhere: one
    strided slice of f per term n_i <= N.  A weight w is the term (1, w);
    w m^{-s}, the shift to multiples of m, is the term (m, w)."""
    import numpy as np

    N = f.N
    terms = [(ni, ci) for ni, ci in zip(n, c) if ni <= N]
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
    import numpy as np

    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    return s


def pair_band(N: int, r: int, odd: bool = False) -> ArithSeq:
    """w(n) = number of factorizations n = p*q with p < q and q^2 < r p^2.

    With `odd`, p and q are both odd.  The band-gap limits of the lattice
    constants (`asympt._band_gap_limit`) run over the same band.  The odd
    loop may start at p = 1: no odd q lies in (1, sqrt(r)) for r <= 9.
    Each p adds one strided slice, to the largest q of its row (q^2 < r p^2
    and pq <= N).
    """
    import numpy as np

    step = 2 if odd else 1
    rows = np.arange(1, isqrt(N) + 1, step, dtype=np.int64)
    tops = np.minimum(_isqrt(r * rows * rows - 1), N // rows)
    out = np.zeros(N + 1, dtype=np.int64)
    for p, q in zip(rows.tolist(), tops.tolist()):
        out[p * (p + step) : p * q + 1 : p * step] += 1
    return ArithSeq(out[1:])


# -- partial sums past the tables ----------------------------------------------


class Summatory:
    """Partial sums C(t) = c(1) + ... + c(t) of a series at every
    0 <= t <= reach: from the prefix table of its coefficient list
    c = [0, c(1), ..., c(N)] while t <= N, and from `beyond(t)` past it,
    each value computed once.  `c` is kept for the hyperbola split."""

    __slots__ = ("c", "table", "beyond", "reach", "_known")

    def __init__(self, c: list[int], beyond: Callable[[int], int], reach: int):
        self.c, self.table, self.beyond, self.reach, self._known = c, list(accumulate(c)), beyond, reach, {}

    def __call__(self, t: int) -> int:
        if t < len(self.table):
            return self.table[t]
        value = self._known.get(t)
        if value is None:
            if t > self.reach:
                raise OutOfRangeError(f"partial sum at {t} beyond the reach {self.reach}")
            value = self._known[t] = self.beyond(t)
        return value


def _weighted_sum(y: int, s: int, c: list[int], g: Summatory) -> int:
    """Sum of c(n) G(y // n) over n <= s: G from g's function for the n
    small enough that y // n passes g's table, from the table for the rest."""
    far, table = min(y // len(g.table), s), g.table
    near = sum([c[n] * table[y // n] for n in range(far + 1, s + 1) if c[n]])
    return near + sum([c[n] * g(y // n) for n in range(1, far + 1) if c[n]])


def hyperbola_sum(y: int, f: Summatory, g: Summatory) -> int:
    """Partial sum of f*g to y, the sum of f(a) g(b) over ab <= y, split at
    s = isqrt(y): the pairs with a <= s, those with b <= s, less the s^2
    pairs counted twice.  Both coefficient lists must reach s."""
    s = isqrt(y)
    if s >= min(len(f.c), len(g.c)):
        raise OutOfRangeError(f"split point {s} beyond the tables [1, {min(len(f.c), len(g.c)) - 1}]")
    return _weighted_sum(y, s, f.c, g) + _weighted_sum(y, s, g.c, f) - f(s) * g(s)


def summatory_length(x: int) -> int:
    """The table length, about x^0.6, for partial sums up to x: there the
    tables and the sums past them cost about the same (at 10^9 and 10^10,
    measured between x^0.5 and x^(2/3))."""
    return round(x**0.6) + 1


def _times(n: Sequence[int], c: Sequence[int], f: list[int]) -> list[int]:
    """The coefficient list of h * f, where h(n_i) = c_i and h is 0
    elsewhere: one slice of f per term n_i within it."""
    N = len(f) - 1
    out = [0] * (N + 1)
    for ni, ci in zip(n, c):
        if ni <= N:
            out[ni::ni] = map(add, out[ni::ni], map(ci.__mul__, f[1 : N // ni + 1]))
    return out


def norm_summatory(cross: int, N: int, reach: int) -> Summatory:
    """Partial sums of b(n), the number of u >= 1, v >= 0 with
    Q(u, v) = u^2 + cross uv + v^2 = n, cross 0 or 1.  The table counts the
    points row by row.  Past it, B(t) counts those with Q <= t: isqrt(t) on
    v = 0, k = isqrt(t // (2 + cross)) on u = v >= 1, and twice those with
    u > v >= 1, as Q is symmetric; for v <= k these are the u from v + 1 to
    (isqrt(4t - (4 - cross^2) v^2) - cross v) // 2, the largest u with
    (2u + cross v)^2 + (4 - cross^2) v^2 <= 4t."""
    b = [0] * (N + 1)
    for v in range(isqrt(N) + 1):
        # Q(u + 1, v) - Q(u, v) = 2u + 1 + cross v
        n, step = v * v + cross * v + 1, cross * v + 3
        while n <= N:
            b[n] += 1
            n, step = n + step, step + 2

    d = 4 - cross * cross
    rows = [(d * v * v, cross * v) for v in range(1, isqrt(reach // (2 + cross)) + 1)]

    def beyond(t: int) -> int:
        k, t4 = isqrt(t // (2 + cross)), 4 * t
        above = sum([(isqrt(t4 - a) - c) // 2 for a, c in rows[:k]]) - k * (k + 1) // 2
        return isqrt(t) + k + 2 * above

    return Summatory(b, beyond, reach)


def squares_moebius_times(g: Summatory) -> Summatory:
    """Partial sums of g / zeta(2s), P(t) = sum of mu(k) G(t // k^2) over
    k <= sqrt(t): the table by the sparse factor, and past it the k <= K
    one by one, K about t^(1/3); the k > K have t // k^2 <= V = t // (K+1)^2,
    and gathered by the n <= V of g they add g(n) (M(isqrt(t // n)) - M(K)),
    M(k) = mu(1) + ... + mu(k) the Mertens function."""
    reach, b = g.reach, g.c
    mu = _moebius(isqrt(reach))
    mertens = list(accumulate(mu))

    def beyond(t: int) -> int:
        K = round(t ** (1 / 3))
        V = t // (K + 1) ** 2
        head = sum([mu[k] * g(t // (k * k)) for k in range(1, K + 1) if mu[k]])
        tail = sum([b[n] * mertens[isqrt(t // n)] for n in range(1, V + 1) if b[n]])
        return head + tail - mertens[K] * g(V)

    return Summatory(_times(*squares_moebius(len(b) - 1), b), beyond, reach)


def sparse_times(n: Sequence[int], c: Sequence[int], g: Summatory) -> Summatory:
    """Partial sums of h * g, where h(n_i) = c_i and h is 0 elsewhere: the
    table by `_times`, and past it the sum of c_i G(t // n_i) over h's
    support, which must reach g's reach."""

    def beyond(t: int) -> int:
        return sum(ci * g(t // ni) for ni, ci in zip(n, c) if ni <= t)

    return Summatory(_times(n, c, g.c), beyond, g.reach)


def band_summatory(N: int, r: int, odd: bool, reach: int) -> Summatory:
    """Partial sums of `pair_band(., r, odd)`.  Row p (odd p only with `odd`,
    q stepping by 2) holds the q from p + step to the top isqrt(r p^2 - 1);
    the table fills each row's q to N // p, one slice per row.  Past it a row
    adds its q to min(top, t // p): the rows whose p top is at most t are
    whole, the first ones as p top grows, and come from a prefix sum; the
    capped rows to isqrt(t) are added one by one."""
    step = 2 if odd else 1
    w = [0] * (N + 1)
    for p in range(1, isqrt(N) + 1, step):
        row = slice(p * (p + step), p * min(isqrt(r * p * p - 1), N // p) + 1, p * step)
        w[row] = [v + 1 for v in w[row]]
    rows = range(1, isqrt(reach) + 1, step)
    tops = [isqrt(r * p * p - 1) for p in rows]
    ends = [p * q for p, q in zip(rows, tops)]
    whole = [0, *accumulate((q - p) // step for p, q in zip(rows, tops))]

    def beyond(t: int) -> int:
        i = bisect_right(ends, t)
        return whole[i] + sum([(t // p - p) // step for p in range(1 + i * step, isqrt(t) + 1, step)])

    return Summatory(w, beyond, reach)


class Preset(NamedTuple):
    """The Dirichlet identity of a preset lattice's well-rounded counts,
        a = b + w m^{-s} (band_r * E b_pr) + w (band_r^odd * O b_pr),
    and of their partial sums,
        A(x) = B(x) + w S(x // m; E b_pr, band_r) + w S(x; O b_pr, band_r^odd).
    A lattice is its norm form u^2 + cross uv + v^2 (cross 0 or 1) and the
    data of its pairs.  b counts the similar sublattices, the points u >= 1,
    v >= 0 of the norm form of each index (their series is the norm form's
    Epstein function over its units); b_pr = b / zeta(2s) counts the
    primitive ones, band_r is `pair_band(., r)`, w is the weight of each
    pair, m the index shift of the even part (`shift`), and S(y; f, g) is
    the partial sum of f * g to y (`hyperbola_sum`).  E and O are the
    factors 1/(1 + k^{-s}) on the even and odd parts, given by their base k
    (`even`, `odd`), or None for the factor 1.  The streams (`similar`,
    `primitive`, `counts`) count the norm form's points in numpy;
    `summatory` counts them in plain Python.  `asympt.preset_constants`
    reads the growth constants off the identity's series at s = 1."""

    cross: int
    r: int
    w: int
    shift: int
    even: int | None
    odd: int | None

    def similar(self, N: int) -> ArithSeq:
        """b(1..N), the similar sublattices by index: the norm form's values
        on the rows of `norm_summatory`, row v holding the u from 1 to
        (isqrt(4N - (4 - cross^2) v^2) - cross v) // 2, tallied at once."""
        import numpy as np

        c, d = self.cross, 4 - self.cross**2
        u = np.arange(1, isqrt(N) + 1, dtype=np.int64)
        tops = [(isqrt(4 * N - d * v * v) - c * v) // 2 for v in range(isqrt(N) + 1)]
        values, end = np.empty(sum(tops), dtype=np.int64), 0
        for v, top in enumerate(tops):
            values[end : end + top] = v * v + u[:top] * (u[:top] + c * v)
            end += top
        return ArithSeq(np.bincount(values, minlength=N + 1)[1:])

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
        """A(x) for each x in xs, exact, on tables of about max(xs)^0.6
        coefficients (`summatory_length`) with no array of length x."""
        x = max(xs)
        N = summatory_length(x)
        B = norm_summatory(self.cross, N, x)
        P = squares_moebius_times(B)
        off = {k: sparse_times(*alt_powers(k, x), P) if k else P for k in {self.even, self.odd}}
        even, odd = off[self.even], off[self.odd]
        band, band_odd = band_summatory(N, self.r, False, x), band_summatory(N, self.r, True, x)
        return [
            B(t) + self.w * (hyperbola_sum(t // self.shift, even, band) + hyperbola_sum(t, odd, band_odd))
            for t in xs
        ]
