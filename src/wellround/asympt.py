"""Numeric layer: constants, Epstein zeta values and residues, and the
closed-form growth models of the square and hexagonal lattices.

Each float the CLI prints with an error comes from one call here, as a pair
(value, abs_error): `constants_table`, `epstein_truncated`, `epstein_residue`.
Each error adds the roundings of its float operations, each taken to be
within EPS (one ulp) of its exact result, carried through the operations
that follow, and the next term of a truncated series where there is one.
No array on the constants' path grows with the size of a sum: gamma and
zeta'(2)/zeta(2) are sums of EM_TERMS terms with Euler-Maclaurin tails, and
both lattice constants rest on one band-gap sum over the band that
`dirichlet.pair_band` counts (r = 3 for the square lattice, r = 9 for the
hexagonal one), added in blocks of BAND_BLOCK terms.  The Epstein residue at
s = 1 is pi/sqrt(ac - b^2) on the exact entries; Epstein values come from
one kernel, `_power_sums`, over half the disk in blocks of BLOCK_POINTS
points.  The fitted model of any other lattice lives in `growth`.  numpy,
`dirichlet` and `growth` are imported inside the functions that use them,
so a residue loads no numpy.
"""

from __future__ import annotations

import math
from math import isqrt, log, pi, sqrt


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

# terms summed before the Euler-Maclaurin tails of euler_gamma and
# zeta'(2)/zeta(2)
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
    gap_log = log(r) / (2 * step)
    # over odd q the expansion carries the factor 1/2 = 1/step
    gap = (gap_log - (np.log(hi / lo) + tail(hi) - tail(lo)) / step) / p
    for i in range(int(np.count_nonzero(p < EXACT_P))):
        row, last = int(p[i]), int(top[i])
        gap[i] = (gap_log - math.fsum(1.0 / q for q in range(row + step, last + 1, step))) / row
    return gap


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
    (t1, e1), (t2, e2) = _band_gap_limit(9, odd=False), _band_gap_limit(9, odd=True)
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


# -- Epstein zeta sums --------------------------------------------------------

# the work bound of one Epstein sum: the points of the square |m|, |n| <= B,
# ten times that square for `1,0,1` at the CLI's default radius; memory does
# not grow with it, since `_power_sums` evaluates the grid in blocks
MAX_GRID_POINTS = 40_000_000
# grid points evaluated at once by `_power_sums`: in a sweep from 2^12 to
# 2^17 (BENCH_24.json), 2^15 was within 10% of the fastest block and 1 MB of
# the smallest peak RSS
BLOCK_POINTS = 1 << 15


def _form_floats(Q) -> tuple[float, float, float]:
    a, b, c = (float(v) for v in Q)
    if a <= 0 or a * c - b * b <= 0:
        raise DomainError("form must be positive definite")
    return a, b, c


def _bound_for_radius(Q, R: float) -> int:
    a, b, c = _form_floats(Q)
    lam_min = ((a + c) - sqrt((a - c) ** 2 + 4 * b * b)) / 2.0
    # the disk lies in the square |m|, |n| <= sqrt(R / lam_min); lam_min may round to 0
    if not 4.0 * R <= lam_min * MAX_GRID_POINTS:
        raise DomainError(f"--radius {R:g} needs over {MAX_GRID_POINTS:,} grid points for the form")
    return isqrt(int(R / lam_min)) + 2


def _power_sums(Q, R: float, s: float) -> tuple[float, float]:
    """The sums of Q(m, n)^(-s) over 0 < Q <= R and over 0 < Q <= R/4.

    Q(-m, -n) = Q(m, n) holds bit for bit in floats, so only the rows n >= 0
    are evaluated, with m > 0 on the row n = 0, and the sums doubled.  The
    rows go in blocks of about BLOCK_POINTS points.  Each block splits its
    values once into the inner ones (<= R/4) and the outer ones, and takes
    the power of each part once: the inner sum goes to both radii, the
    outer one to R alone.  The powers are `v ** (-s)`: exp(-s log v) errs
    by up to |s log v| ulp, which on a form scaled by 10^-9 moves the sums
    by 1.7e-15, relative.  The block sums add up by `math.fsum`, so only
    each block's own sum depends on where the blocks are cut.
    """
    import numpy as np

    bound = _bound_for_radius(Q, R)
    a, b, c = _form_floats(Q)
    m = np.arange(-bound, bound + 1)
    # the whole-disk builder's a*m*m + 2.0*b*m*n + c*n*n, with its operations
    # in its order, so that the same points pass the mask, bit for bit
    am2, bm2 = a * m * m, 2.0 * b * m
    rows = max(1, BLOCK_POINTS // m.size)
    full, quarter = [], []
    for first in range(0, bound + 1, rows):
        n = np.arange(first, min(first + rows, bound + 1))[:, None]
        v = am2 + bm2 * n + c * n * n
        mask = (v > 0) & (v <= R)
        if first == 0:
            mask[0, : bound + 1] = False
        v = v[mask]
        inner = v <= R / 4
        quarter.append(float(np.sum(v[inner] ** (-s))))
        full += quarter[-1], float(np.sum(v[~inner] ** (-s)))
    return 2.0 * math.fsum(full), 2.0 * math.fsum(quarter)


def epstein_tail(Q, s: float, R: float) -> float:
    """The integral of Q^(-s) beyond R, pi/sqrt(ac - b^2) R^(1-s)/(s - 1);
    inf where it overflows."""
    a, b, c = _form_floats(Q)
    try:
        return pi / sqrt(a * c - b * b) * R ** (1.0 - s) / (s - 1.0)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def epstein_truncated(Q, s: float, R: float) -> tuple[float, float]:
    """Lattice sum of Q(m,n)^(-s) over 0 < Q <= R plus an integral tail, and
    its change from the same sum at R/4; s must be above 1."""
    full, quarter = _power_sums(Q, R, s)
    value = full + epstein_tail(Q, s, R)
    return value, abs(value - (quarter + epstein_tail(Q, s, R / 4)))


def epstein_residue(det) -> tuple[float, float]:
    """Residue pi/sqrt(ac - b^2) of the Epstein zeta function at s = 1, and
    its error, from the exact ac - b^2 as `det` = {m: c}, the sum of
    c sqrt(m) over distinct squarefree m.  Each term rounds c, sqrt(m) and
    their product, and `math.fsum` their sum, so the float ac - b^2 is within
    delta, relative, of the exact one; pi/sqrt(.) then moves by at most
    delta/(2 (1 - delta)^(3/2)), and the square root, pi and the quotient
    round once each.  A sum that cancels within its roundings is refused."""
    try:
        terms = [float(c) * sqrt(m) for m, c in det.items()]
        d = math.fsum(terms)
        delta = EPS * (3.0 * math.fsum(map(abs, terms)) + d) / d
    except (OverflowError, ValueError, ZeroDivisionError):
        delta = math.inf
    if not 0 < delta < 1:
        raise DomainError("a*c - b^2 of the form is not above the roundings of its float terms")
    value = pi / sqrt(d)
    return value, value * (0.5 * delta / (1.0 - delta) ** 1.5 + 3.0 * EPS)
