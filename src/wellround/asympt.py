"""Numeric layer: constants, Epstein zeta values and residues, and the
closed-form growth models of the square and hexagonal lattices.

Each float the CLI prints with an error comes from one call here, as a pair
(value, abs_error): `constants_table`, `epstein_value`, `epstein_residue`.
Each error adds the roundings of its float operations, each taken to be
within EPS (one ulp) of its exact result, carried through the operations
that follow, and the next term of a truncated series where there is one.
No array grows with the size of a sum: gamma and zeta'(2)/zeta(2) are sums
of EM_TERMS terms with Euler-Maclaurin tails, both lattice constants rest on
one band-gap sum over the band of `dirichlet.pair_band`, in blocks of
BAND_BLOCK terms at r = 3 (square) and in closed form at r = 9 (hexagonal),
and the Epstein values at s > 1 are a few terms of the Chowla-Selberg
series; the residue at s = 1 is pi/sqrt(ac - b^2) on the exact entries.  The
fitted model of any other lattice lives in `growth`.  numpy, `dirichlet`,
`gram` and `growth` are imported inside the functions that use them: no
Epstein call loads numpy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import log, pi, sqrt


class UnsupportedDiscriminantError(ValueError):
    pass


class DomainError(ValueError):
    pass


LOG3 = log(3.0)
ZETA2 = pi * pi / 6.0
# one ulp of 1.0: each float operation and libm call here is taken to land
# within EPS, relative, of its exact result; every abs_error adds these
# roundings up, carried through the operations that follow them
EPS = 2.0**-52

# terms summed before the Euler-Maclaurin tails of euler_gamma,
# zeta'(2)/zeta(2) and `_zeta`
EM_TERMS = 1_000
# values of p in each band-gap sum; `_richardson` also takes twice as many,
# so odd p reaches 4 * BAND_TERMS and r p^2 stays below 2^62, where
# `dirichlet._isqrt` is exact
BAND_TERMS = 400_000
# values of p whose band-gap terms are evaluated at once; of the powers of 2
# from 2^11 to 2^17, 2^13 ran the two lattice constants fastest, and from
# 2^14 up the block raises the peak RSS (2^17: 27 -> 41 MB)
BAND_BLOCK = 1 << 13
# the rows p < EXACT_P of a band-gap sum add their 1/q one by one
EXACT_P = 64
BERNOULLI = tuple(Fraction(n, d) for n, d in ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730)))


def euler_gamma() -> tuple[float, float]:
    """Euler-Mascheroni constant by Euler-Maclaurin corrected harmonic sum,
    and its error: the EM_TERMS reciprocals and the fsum of H, log n, and
    four additions of results near gamma, each within EPS; plus the next
    Euler-Maclaurin term 1/(252 n^6)."""
    n = float(EM_TERMS)
    H = math.fsum(1.0 / k for k in range(1, EM_TERMS + 1))
    g = H - log(n) - 1.0 / (2 * n) + 1.0 / (12 * n * n) - 1.0 / (120 * n**4)
    return g, EPS * (2.0 * H + log(n) + 4.0 * (g + 1.0 / n)) + 1.0 / (252 * n**6)


def zeta_prime_2_over_zeta_2() -> tuple[float, float]:
    """zeta'(2)/zeta(2) from the log-weighted sum with an integral tail, and
    its error: each term of the sum rounds a log and a quotient, and fsum
    the total; the tail's twelve operations stay below its first term; then
    the sum, ZETA2 (four roundings) and the quotient; plus the next
    Euler-Maclaurin term f'''(x)/720 = (26 - 24 log x)/(720 x^5) of
    f(t) = log t / t^2."""
    partial = math.fsum(log(k) / (k * k) for k in range(1, EM_TERMS + 1))
    x = float(EM_TERMS)
    tail = (log(x) + 1.0) / x - log(x) / (2 * x * x) - (1.0 - 2 * log(x)) / (12 * x**3)
    ratio = -(partial + tail) / ZETA2
    rounding = EPS * (3.0 * partial + 12.0 * (log(x) + 1.0) / x + abs(partial + tail)) / ZETA2
    next_term = abs(26.0 - 24.0 * log(x)) / (720 * x**5 * ZETA2)
    return ratio, rounding + 5.0 * EPS * abs(ratio) + next_term


def L_at_one(D: int) -> tuple[float, float]:
    """L(1, chi_D) from the finite character sum, and its error: pi, the
    power, the quotient and the product, each within EPS."""
    from .dirichlet import CHI_MINUS3, CHI_MINUS4

    chi = {-4: CHI_MINUS4, -3: CHI_MINUS3}.get(D)
    if chi is None:
        raise UnsupportedDiscriminantError(f"discriminant {D} not supported")
    q = chi.modulus
    total = sum(n * chi(n) for n in range(1, q))
    value = -pi / q ** 1.5 * total
    return value, 4.0 * EPS * abs(value)


def _agm(x: float, y: float) -> tuple[float, float]:
    """The arithmetic-geometric mean of x and y, and the relative error of
    its own roundings: each step rounds a sum, and a product under a square
    root, at most 2 EPS in all, since the mean moves no more than its
    arguments do; the last mean adds one EPS, and the exact mean lies
    between the last x and y."""
    steps = 0
    while abs(x - y) > 1e-16 * abs(x):
        x, y = (x + y) / 2.0, sqrt(x * y)
        steps += 1
    return (x + y) / 2.0, (2 * steps + 1) * EPS + abs(x - y) / (2.0 * min(x, y))


def L_prime_over_L(D: int) -> tuple[float, float]:
    """Logarithmic derivative L'(1, chi_D)/L(1, chi_D), AGM closed form, and
    its error: the log of a product, whose relative error adds twice the
    AGM's, gamma's error, and one EPS per other rounding, counted twice for
    the AGM's argument, which enters squared; plus the log's rounding."""
    g, g_error = euler_gamma()
    if D == -4:
        M, M_error = _agm(1.0, sqrt(2.0))
        # sqrt 2 twice; the square, exp, the product and the quotient
        value, roundings = log(M**2 * math.exp(g) / 2.0), 6
    elif D == -3:
        # exponent 4/3: agm(1, cos(pi/12)) = 2^{4/3} pi^2 / (3^{1/4} Gamma(1/3)^3)
        M, M_error = _agm(1.0, math.cos(pi / 12.0))
        # pi, pi/12 and the cosine twice each; 4/3, the power, the square,
        # exp, two products and the quotient
        value, roundings = log(2.0 ** (4.0 / 3.0) * M**2 * math.exp(g) / 3.0), 13
    else:
        raise UnsupportedDiscriminantError(f"discriminant {D} not supported")
    return value, 2.0 * M_error + g_error + roundings * EPS + EPS * abs(value)


# -- the two lattice constants ------------------------------------------------


def _harmonic_tail(n: np.ndarray) -> np.ndarray:
    """H(n) - log n - gamma = 1/(2n) - 1/(12n^2) + 1/(120n^4) - 1/(252n^6)
    + 1/(240n^8) - ..."""
    x = 1.0 / n
    y = x * x
    return 0.5 * x - y * (1.0 / 12 - y * (1.0 / 120 - y * (1.0 / 252 - y / 240)))


def _half_digamma_tail(x: np.ndarray) -> np.ndarray:
    """psi(x + 1/2) - log x = 1/(24x^2) - 7/(960x^4) + 31/(8064x^6)
    - 127/(30720x^8) + ..."""
    y = 1.0 / (x * x)
    return y * (1.0 / 24 - y * (7.0 / 960 - y * (31.0 / 8064 - y * (127.0 / 30720))))


def _band_gap_terms(start: int, stop: int, r: int, odd: bool) -> np.ndarray:
    """The terms (1/p)(log(r)/(2 step) - sum_q 1/q) of the band-gap sum over
    the band of `dirichlet.pair_band(N, r, odd)`, for the values of p from
    the start-th to before the stop-th, odd only when `odd`, and for each p
    the q = p (mod step) with p < q and q^2 < r p^2.

    Each row's sum over q is one log of a ratio plus the corrections of an
    asymptotic expansion: H(top) - H(p) over all q, and over odd q
    (psi(b + 1/2) - psi(a + 1/2))/2 with a = (p + 1)/2 and b = (top + 1)//2.
    The rows p < EXACT_P, where the truncated expansion is short of double
    precision, add their 1/q one by one.
    """
    import numpy as np

    from .dirichlet import _isqrt

    step = 2 if odd else 1
    p = np.arange(1 + step * start, 1 + step * stop, step, dtype=np.int64)
    top = _isqrt(r * p * p - 1)
    if odd:
        lo, hi, tail = (p + 1) // 2, (top + 1) // 2, _half_digamma_tail
    else:
        lo, hi, tail = p, top, _harmonic_tail
    lo, hi = lo.astype(np.float64), hi.astype(np.float64)
    # over odd q the expansion carries the factor 1/2 = 1/step
    gap = (log(r) / (2 * step) - (np.log(hi / lo) + tail(hi) - tail(lo)) / step) / p
    for i in range(int(np.count_nonzero(p < EXACT_P))):
        gap[i] = _exact_gap(int(p[i]), r, step)
    return gap


def _exact_gap(p: int, r: int, step: int) -> float:
    """The band-gap term of row p, its 1/q added one by one."""
    top = math.isqrt(r * p * p - 1)
    return (log(r) / (2 * step) - math.fsum(1.0 / q for q in range(p + step, top + 1, step))) / p


def _band_gap_sums(cuts, r: int, odd: bool) -> list[float]:
    """The band-gap sums over the first k terms, for each k of the ascending
    `cuts`, in one pass over blocks of BAND_BLOCK terms.

    The sum to k adds the sums of the blocks before k's block and of that
    block up to k, so it equals the sum of a pass to k alone: it does not
    depend on the other cuts.
    """
    import numpy as np

    prefix = dict.fromkeys(cuts, 0.0)
    total = 0.0
    for start in range(0, cuts[-1], BAND_BLOCK):
        gap = _band_gap_terms(start, min(start + BAND_BLOCK, cuts[-1]), r, odd)
        for k in cuts:
            if start < k <= start + gap.size:
                prefix[k] = total + float(np.sum(gap[: k - start]))
        total += float(np.sum(gap))
    return [prefix[k] for k in cuts]


def _richardson(P: int, r: int, odd: bool) -> tuple[float, float]:
    """The limit of the band-gap sums over P terms, and its change from P/2."""
    half, mid, full = _band_gap_sums((P // 2, P, 2 * P), r, odd)
    # partial sums approach the limit like A/P; eliminate the leading tail
    value = 2.0 * full - mid
    return value, abs(2.0 * mid - half - value)


def _band_gap_limit(r: int, odd: bool) -> tuple[float, float]:
    """`_richardson` at BAND_TERMS, with the rounding of its sums added to
    its change.

    Each term lies in [0, 1/p^2] and is within EPS (2 + 2 log r)/p of its
    exact value: a quotient and a log near log(r)/2, two additions of that
    size, log r itself, and a difference and a quotient of results below
    1/p (the exact rows round less).  The terms of a block add pairwise,
    numpy's eight-way leaves of 128 then halving, and then block by block:
    a chain of at most log2(BAND_BLOCK) + 13 + blocks roundings of results
    at most the limit.  The limit 2 full - mid triples the error of a sum,
    and rounds twice more.
    """
    P = BAND_TERMS
    value, change = _richardson(P, r, odd)
    step = 2 if odd else 1
    terms = (2.0 + 2.0 * log(r)) * (1.0 + log(2 * step * P))
    chain = math.log2(BAND_BLOCK) + 13 + 2 * P / BAND_BLOCK
    return value, change + EPS * (3.0 * (terms + chain * abs(value)) + 2.0 * abs(value))


def _hurwitz(s: int, a: Fraction) -> tuple[Fraction, Fraction]:
    """zeta(s, a) = sum_(n >= 0) (a + n)^-s, s >= 2, exactly to the B_10 term
    of Euler-Maclaurin at a, and the B_12 term, which bounds the rest, as
    x^-s is completely monotone."""
    total, rising, term = a ** (1 - s) / (s - 1) + a**-s / 2, Fraction(s), 0
    for j, b in enumerate(BERNOULLI, 1):
        total += term
        term = b / math.factorial(2 * j) * rising * a ** (1 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total, abs(term)


def _band_gap_limit_9(odd: bool) -> tuple[float, float]:
    """The limit of the band-gap sums at r = 9 in closed form, and its error.
    A row's top is 3p - 1, so its term is T(p) = (log 3 - psi(3p) + psi(p + 1))/p
    over all q, T(p/2)/4 over odd q.  The rows p < EXACT_P are exact, each within
    EPS (2 + 2 log 9)/p as in `_band_gap_limit`; past them T(x) = 2/(3x^2) -
    sum_k c_k x^(-2k-1), c_k = (B_2k/2k)(1 - 9^-k), within the first omitted
    term, as both digamma remainders have its sign, and three terms summed over
    x = a + n by `_hurwitz` are exact and round once.  fsum rounds the total."""
    step = 2 if odd else 1
    head = [_exact_gap(p, 9, step) for p in range(1, EXACT_P, step)]
    a = Fraction(EXACT_P + step - 1, step)
    tail, rest = (Fraction(2, 3) * v for v in _hurwitz(2, a))
    for k, b in enumerate(BERNOULLI[:3], 1):
        c = b / (2 * k) * (1 - Fraction(1, 9**k))
        zeta, zeta_rest = _hurwitz(2 * k + 1, a)
        tail, rest = tail - c * zeta, rest + abs(c) * zeta_rest
    # the omitted B_8 term, with zeta(9, a) <= a^-9 + a^-8/8
    rest += abs(BERNOULLI[3]) / 8 * (a**-9 + a**-8 / 8)
    tail, rest = float(tail / step**2), float(rest / step**2)
    value = math.fsum(head + [tail])
    rows = (2.0 + 2.0 * log(9)) * math.fsum(1.0 / p for p in range(1, EXACT_P, step))
    return value, rest + EPS * (rows + abs(tail) + abs(value))


def c_square_eval() -> tuple[float, float]:
    """Linear-term constant of the square lattice growth law, and its error:
    the errors of its inputs carried through, and its own roundings."""
    (g, eg), (L, eL) = euler_gamma(), L_at_one(-4)
    (lpl, elpl), (zp, ezp) = L_prime_over_L(-4), zeta_prime_2_over_zeta_2()
    (s1, e1), (s2, e2) = _band_gap_limit(3, odd=False), _band_gap_limit(3, odd=True)
    bracket = (
        ZETA2
        + (LOG3 / 3.0) * (lpl + g - 2.0 * zp)
        + (LOG3 / 3.0) * (2.0 * g - LOG3 / 4.0 - log(2.0) / 6.0)
        - s1
        - (4.0 / 3.0) * s2
    )
    # gamma enters three times besides its share of L'/L; ZETA2 rounds four
    # times; the bracket's 21 roundings each round a result below `size`
    size = ZETA2 + abs(lpl) + 3.0 * abs(g) + 2.0 * abs(zp) + LOG3 + abs(s1) + 2.0 * abs(s2)
    bracket_error = (
        4.0 * EPS * ZETA2
        + (LOG3 / 3.0) * (elpl + 3.0 * eg + 2.0 * ezp)
        + e1
        + (4.0 / 3.0) * e2
        + 21 * EPS * size
    )
    value = L / ZETA2 * bracket
    # L's error, ZETA2's four roundings, the quotient and the product
    return value, abs(value) * (eL / abs(L) + 6.0 * EPS) + abs(L / ZETA2) * bracket_error


def c_triangle_eval() -> tuple[float, float]:
    """Linear-term constant of the hexagonal lattice growth law, and its
    error: the errors of its inputs carried through, and its own roundings."""
    (g, eg), (L, eL) = euler_gamma(), L_at_one(-3)
    (lpl, elpl), (zp, ezp) = L_prime_over_L(-3), zeta_prime_2_over_zeta_2()
    (t1, e1), (t2, e2) = _band_gap_limit_9(odd=False), _band_gap_limit_9(odd=True)
    # the band-gap sums enter without the log 3 factor carried by the
    # constant part of the bracket, the odd one with weight 4
    bracket = LOG3 * ((g + lpl - 2.0 * zp) + 2.0 * g - LOG3 / 4.0) - t1 - 4.0 * t2
    # the bracket's 12 roundings each round a result below `size`
    size = LOG3 * (3.0 * abs(g) + abs(lpl) + 2.0 * abs(zp) + LOG3) + abs(t1) + 4.0 * abs(t2)
    bracket_error = LOG3 * (3.0 * eg + elpl + 2.0 * ezp) + e1 + 4.0 * e2 + 12 * EPS * size
    scale = 9.0 * L / (16.0 * ZETA2)
    value = L + scale * bracket
    # scale: L's error, ZETA2's four roundings and three more; the product
    # and the sum
    product_error = abs(scale * bracket) * (eL / abs(L) + 8.0 * EPS)
    return value, eL + product_error + abs(scale) * bracket_error + EPS * abs(value)


# -- growth models ------------------------------------------------------------


def square_model() -> AsymptoticModel:
    from .growth import AsymptoticModel

    c1 = LOG3 / (2.0 * pi)
    return AsymptoticModel(c1, c_square_eval()[0] - c1)


def hexagonal_model() -> AsymptoticModel:
    from .growth import AsymptoticModel

    c1 = 3.0 * sqrt(3.0) * LOG3 / (8.0 * pi)
    return AsymptoticModel(c1, c_triangle_eval()[0] - c1)


def constants_table() -> dict[str, tuple[float, float]]:
    """Every constant the `constants` command prints, as (value, abs_error)."""
    return {
        "L1_chi4": L_at_one(-4),
        "L1_chi3": L_at_one(-3),
        "Lp_over_L_chi4": L_prime_over_L(-4),
        "Lp_over_L_chi3": L_prime_over_L(-3),
        "euler_gamma": euler_gamma(),
        # pi twice, the product and the quotient
        "zeta2": (ZETA2, 4.0 * EPS * ZETA2),
        "zetap2_over_zeta2": zeta_prime_2_over_zeta_2(),
        "c_square": c_square_eval(),
        "c_triangle": c_triangle_eval(),
    }


# -- Epstein zeta values ------------------------------------------------------


def _zeta(x: float) -> tuple[float, float]:
    """zeta(x), x > 1, by Euler-Maclaurin at n = EM_TERMS, and its error: each
    k^-x rounds once, each tail term at most seven times and fsum once; the
    remainder is at most the B4 correction, as 2 zeta(4)/(2 pi)^4 = 1/720."""
    n, power = float(EM_TERMS), EM_TERMS**-x
    head = [k**-x for k in range(1, EM_TERMS)]
    b4 = x * (x + 1.0) * (x + 2.0) * power / (720.0 * n**3)
    tail = [n * power / (x - 1.0), 0.5 * power, x * power / (12.0 * n), -b4]
    value = math.fsum(head + tail)
    return value, EPS * (math.fsum(head) + 7.0 * math.fsum(map(abs, tail)) + value) + b4


def _bessel_k(nu: float, z: float) -> tuple[float, float]:
    """K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt, nu >= 1/2, by the
    trapezoid rule, and its error: the step halves from 1/2 until the sum
    moves within the roundings of both sums, a move that is the quadrature
    error.  The nodes stop past the peak once f(t)/r, r = z sinh t - nu, which
    bounds the rest, is within EPS of the sum.  A node rounds its exponents
    within EPS (2 nu t + 3 z cosh t), its exp and each sum once."""

    def trapezoid(h: float) -> tuple[float, float]:
        t, total = 0.0, 0.5 * math.exp(-z)  # the node t = 0 has weight 1/2
        rounding = total * (3.0 * z + 3.0)
        while True:
            t += h
            zc = z * math.cosh(t)
            f = 0.5 * (math.exp(nu * t - zc) + math.exp(-nu * t - zc))
            total += f
            rounding += f * (2.0 * nu * t + 3.0 * zc + 3.0)
            r = z * math.sinh(t) - nu
            if r > 0 and f <= EPS * r * h * total:
                return h * total, h * EPS * (rounding + t / h * total) + f / r

    h, (value, error) = 0.5, trapezoid(0.5)
    while True:
        h /= 2
        finer, finer_error = trapezoid(h)
        if not abs(finer - value) > error + finer_error:
            return finer, finer_error + abs(finer - value)
        value, error = finer, finer_error


def epstein_value(Q, s: float) -> tuple[float, float]:
    """Z(s) = sum' Q(m, n)^(-s), s > 1, of a m^2 + 2 b m n + c n^2 for the
    entries Q = (a, b, c), and its error, by the Chowla-Selberg series on the
    form reduced exactly by `gram._reduce_int`, |2b| <= a <= c.  With
    y = sqrt(ac - b^2)/a >= sqrt(3)/2, beta = b/a and nu = s - 1/2, a^s Z(s) is
    2 zeta(2s) + 2 sqrt(pi) Gamma(nu) zeta(2s - 1) y^(1-2s)/Gamma(s) +
    8 pi^s y^-nu/Gamma(s) sum_N N^nu sigma_(1-2s)(N) K_nu(2 pi N y) cos(2 pi N beta),
    at least 2.  The error adds the roundings, carried through (math.gamma
    within 10 EPS: CPython tests it to 10 ulps), those of `_zeta` and
    `_bessel_k`, the rounding of a, beta and y, and the Bessel tail, cut
    once within EPS.  Results outside the float range are refused."""
    from .gram import _reduce_int

    A, B, C = (Fraction(v) for v in Q)
    if not (A > 0 and A * C - B * B > 0 and 1 < s < math.inf):
        raise DomainError("the form must be positive definite, and s finite and above 1")
    A, B, C = _reduce_int(A, B, C)
    try:
        a, beta, y = float(A), float(B / A), sqrt(float((A * C - B * B) / (A * A)))
        nu, gamma_s, step = s - 0.5, math.gamma(s), 2.0 * pi * y
        (zeta_2s, zeta_2s_error), (zeta_pole, zeta_pole_error) = _zeta(2.0 * s), _zeta(2.0 * s - 1.0)
        middle = 2.0 * sqrt(pi) * math.gamma(nu) / gamma_s * zeta_pole * y ** (1.0 - 2.0 * s)
        prefactor = 8.0 * pi**s * y**-nu / gamma_s
        terms, term_error, N = [], 0.0, 0
        while True:
            N += 1
            z = N * step
            k, k_error = _bessel_k(nu, z)
            size = N**nu * math.fsum(d ** (1.0 - 2.0 * s) for d in range(1, N + 1) if N % d == 0)
            cosine = math.cos(2.0 * pi * N * beta)
            terms.append(size * k * cosine)
            # z and the argument of cos (at most pi N) round within 5 EPS/2; K_nu
            # moves nu + z times as much as z, as |z K_nu'| = nu K_nu + z K_(nu-1)
            k_error += k * EPS * (6.0 + 3.0 * (nu + z))
            term_error += size * (k_error * abs(cosine) + k * EPS * (1.0 + 8.0 * N))
            # the terms past N, as sigma_(1-2s)(M) <= 2 sqrt(M), M^s <= N^s e^(s (M - N)/N)
            # and K_nu(z_M) <= e^(z_N - z_M) K_nu(z_N)
            q = math.exp(s / N - step)
            tail = 2.0 * N**s * (k + k_error) * q / (1.0 - q) if q < 1.0 else math.inf
            if prefactor * tail <= EPS:
                break
        bessel = math.fsum(terms)
        bracket = math.fsum([2.0 * zeta_2s, middle, prefactor * bessel])
        # sqrt(pi), two gammas, a power and four products; pi^s rounds s EPS/2 more
        middle_error = abs(middle) * (27.0 * EPS + zeta_pole_error / zeta_pole)
        bessel_error = term_error + tail + abs(bessel) * EPS * (s / 2.0 + 16.0)
        bracket_error = 2.0 * zeta_2s_error + middle_error + prefactor * bessel_error + EPS * abs(bracket)
        value = a**-s * bracket
        # the rounded a, beta, y give a form within 2 EPS of the reduced one entry
        # by entry, so each Q(m, n) within 6 EPS: a m^2 + 2|b m n| + c n^2 <= 3 Q
        error = a**-s * bracket_error + abs(value) * (2.0 * EPS + math.expm1(-s * math.log1p(-6.0 * EPS)))
    except OverflowError:
        value = error = math.inf
    if not (math.isfinite(value) and math.isfinite(error)):
        raise DomainError(f"Z(s) of the form at s = {s!r} or its error is outside the float range")
    return value, error


def epstein_residue(det) -> tuple[float, float]:
    """Residue pi/sqrt(ac - b^2) of the Epstein zeta function at s = 1, and
    its error, from the exact ac - b^2 as `det` = {m: c}, the sum of
    c sqrt(m) over distinct squarefree m.  Each term rounds c, sqrt(m) and
    their product, and `math.fsum` their sum, so the float ac - b^2 is within
    delta, relative, of the exact one; pi/sqrt(.) then moves by at most
    delta/(2 (1 - delta)^(3/2)), and the square root, pi and the quotient
    round once each.  The terms are divided first by the exact 4^k that
    brings the largest near 1, and the residue by 2^k, so an ac - b^2 outside
    the float range is read, and an error below the normal floats is rounded
    up; a sum that cancels within its roundings, or a residue outside the
    normal float range, is refused."""
    k = max((c.numerator.bit_length() - c.denominator.bit_length() + m.bit_length() // 2
             for m, c in det.items() if c), default=0) // 2
    try:
        terms = [float(Fraction(c) / Fraction(4) ** k) * sqrt(m) for m, c in det.items()]
        d = math.fsum(terms)
        delta = EPS * (3.0 * math.fsum(map(abs, terms)) + d) / d
    except (OverflowError, ValueError, ZeroDivisionError):
        delta = math.inf
    if not 0 < delta < 1:
        raise DomainError("a*c - b^2 of the form is not above the roundings of its float terms")
    value = pi / sqrt(d)
    if not sys.float_info.min_exp <= math.frexp(value)[1] - k <= sys.float_info.max_exp:
        raise DomainError("the residue of the form is outside the float range")
    error = math.ldexp(value * (0.5 * delta / (1.0 - delta) ** 1.5 + 3.0 * EPS), -k)
    return math.ldexp(value, -k), error if error >= sys.float_info.min else math.nextafter(error, math.inf)
