"""Numeric layer: constants, Epstein zeta values and residues, and the
growth models of the square and hexagonal lattices.

Each float the CLI prints with an error comes from one call here, as a pair
(value, abs_error): `constants_table`, `epstein_value`, `epstein_residue`.
Each error adds the roundings of its float operations, each taken to be
within EPS (one ulp) of its exact result, carried through the operations
that follow, and a bound on the rest of each truncated series.  Nothing here
builds an array or loads numpy: gamma is H_9 - psi(10) by psi's asymptotic
series, zeta'(2)/zeta(2) a sum of EM_TERMS terms with an Euler-Maclaurin
tail, L(1, chi) and L'/L(1, chi) come from the principal form's Epstein
function (residue, Kronecker's limit formula), and both lattices' constants
and models are one Laurent expansion at s = 1 of each preset's Dirichlet
identity (`preset_constants`), whose band-gap limits are summed over
unimodular cones in closed form.  Epstein values at s > 1 are a few terms of
the Chowla-Selberg series (or lattice shells at large s), and the residue at
s = 1 is pi/sqrt(ac - b^2) on the exact entries.  The fitted model of any
other lattice lives in `growth`.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from math import log, pi, sqrt


class UnsupportedDiscriminantError(ValueError):
    pass


class DomainError(ValueError):
    pass


LOG2 = log(2.0)
ZETA2 = pi * pi / 6.0
# one ulp of 1.0: each float operation and libm call here is taken to land
# within EPS, relative, of its exact result; every abs_error adds these
# roundings up, carried through the operations that follow them
EPS = 2.0**-52

# terms summed before the Euler-Maclaurin tails of zeta'(2)/zeta(2) and `_zeta`
EM_TERMS = 1_000
# an Epstein value whose series error exceeds SHELL_FROM of it is also summed
# over its lattice's shells (`_shell_sum`), at most up to q = SHELL_MAX
SHELL_FROM, SHELL_MAX = 1e-13, 1 << 10
# B_2, B_4, ..., B_22
BERNOULLI = tuple(Fraction(n, d) for n, d in ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
                                              (7, 6), (-3617, 510), (43867, 798), (-174611, 330), (854513, 138)))


@functools.cache
def euler_gamma() -> tuple[float, float]:
    """Euler-Mascheroni constant H_(x-1) - psi(x) at x = PSI_SHIFT, psi(x) =
    log x - 1/(2x) - sum_k B_2k/(2k x^2k) to the B_20 term, and its error:
    H_(x-1) exact and rounded once, log x, 1/(2x), each term's coefficient and
    quotient, the fsum, and the B_22 term, which bounds the rest for x > 0."""
    x = PSI_SHIFT
    head = [float(sum(Fraction(1, k) for k in range(1, x))), -log(x), 1 / (2 * x)]
    series = [c / x ** (2 * k) for k, c in enumerate(PSI_COEFFS[:-1], 1)]
    value = math.fsum(head + series)
    rounding = math.fsum(map(abs, head)) + 2.0 * math.fsum(map(abs, series)) + value
    return value, EPS * rounding + abs(PSI_COEFFS[-1]) / x ** (2 * len(PSI_COEFFS))


@functools.cache
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


def _principal_form(D: int) -> tuple[int, Fraction, int, int]:
    """The principal form of discriminant D, as the Gram entries (a, b, c) of
    a m^2 + 2 b m n + c n^2, and its number of units: x^2 + y^2 for D = -4,
    x^2 + xy + y^2 for D = -3.  Z(s) = units zeta(s) L(s, chi_D) on it."""
    forms = {-4: (1, Fraction(0), 1, 4), -3: (1, Fraction(1, 2), 1, 6)}
    if D not in forms:
        raise UnsupportedDiscriminantError(f"discriminant {D} not supported")
    return forms[D]


def L_at_one(D: int) -> tuple[float, float]:
    """L(1, chi_D), and its error: the residue of Z(s) on the principal form
    of D (`epstein_residue`), over its units, rounded once more."""
    a, b, c, units = _principal_form(D)
    residue, error = epstein_residue({1: a * c - b * b})
    value = residue / units
    return value, error / units + EPS * value


def L_prime_over_L(D: int) -> tuple[float, float]:
    """Logarithmic derivative L'(1, chi_D)/L(1, chi_D), and its error:
    `_kronecker` on the principal form of D, as C/R = gamma + L'/L for
    Z(s) = units zeta(s) L(s, chi_D)."""
    return _kronecker(*_principal_form(D)[:3])


def _kronecker(a, b, c) -> tuple[float, float]:
    """C/R - gamma of the Epstein function Z(s) = R/(s - 1) + C + O(s - 1) of
    the exact reduced Gram entries (a, b, c), |2b| <= a <= c, and its error,
    by Kronecker's first limit formula: with d = ac - b^2, y = sqrt(d)/a and
    q = exp(2 pi i (b + i sqrt(d))/a), |q| = r = exp(-2 pi y) <= exp(-pi sqrt(3)),
        C/R - gamma = gamma + pi y/3 - 2 log 2 + log(a/d) - 4 sum_n log|1 - q^n|,
    log|1 - q^n| = log1p(r^2n - 2 r^n cos(2 pi n b/a))/2.  Terms are added
    until r^(N+1)/((1 - r)(1 - r^(N+1))), which bounds the rest by
    sum_(n > N) -log(1 - r^n), is within EPS/8.  The error adds gamma's,
    which enters once, the head's roundings (4.5 in pi y/3, two in log(a/d))
    and the fsum's; per term, r's relative delta (4 EPS in 2 pi y, one in
    exp) n times in r^n and 2n in r^2n, the cosine's 20 EPS (its argument
    from the exact n b/a mod 1), three roundings in u and log1p's, u's error
    moving log1p(u) by at most 1/(1 - |u|) of it; and the rest, four times."""
    g, g_error = euler_gamma()
    a, b, c = map(Fraction, (a, b, c))
    d = a * c - b * b
    y = sqrt(float(d / (a * a)))
    r, delta = math.exp(-2.0 * pi * y), 8.0 * pi * y * EPS + EPS
    p, m = (b / a).as_integer_ratio()
    terms, term_error, rest, n = [], 0.0, 1.0, 0
    while rest > EPS / 8.0:
        n += 1
        rn = r**n
        u = rn * rn - 2.0 * rn * math.cos(2.0 * pi * (n * p % m / m))
        size = rn * rn + 2.0 * rn
        terms.append(math.log1p(u) / 2.0)
        term_error += size * (n * delta + 11.5 * EPS) / (1.0 - size) + EPS * abs(terms[-1])
        rest = r ** (n + 1) / ((1.0 - r) * (1.0 - r ** (n + 1)))
    head = [g, pi * y / 3.0, -2.0 * LOG2, math.log(float(a / d))]
    value = math.fsum(head + [-4.0 * t for t in terms])
    roundings = 4.5 * head[1] - head[2] + 1.0 + abs(head[3]) + abs(value)
    return value, g_error + EPS * roundings + 4.0 * (term_error + rest)


# -- the lattice constants and growth models ----------------------------------

# the r = 3 bands are summed until `_band_tail` bounds the rest by TAIL_CUT;
# the values of nu each cone sums by digamma, and the last Bernoulli index of
# its Euler-Maclaurin tail; a digamma difference adds terms until
# x >= PSI_SHIFT, then its asymptotic series until a term is below PSI_CUT of
# the first, and euler_gamma reads psi at PSI_SHIFT
TAIL_CUT, CONE_NU, CONE_ORDER, PSI_SHIFT, PSI_CUT = EPS / 2, 10, 16, 10, 2.0**-58
# B_2k/2k; and (-1)^(k-1) B_k(c)/k for k = 1 and the even k to CONE_ORDER,
# by 2c, with B_1(c) = c - 1/2 and B_k(1/2) = (2^(1-k) - 1) B_k
PSI_COEFFS = tuple(float(b / (2 * j)) for j, b in enumerate(BERNOULLI, 1))
CONE_COEFFS = {c2: (c2 / 2 - 0.5, *(float(b / (2 * j) * ((1 - Fraction(2, 4**j)) if c2 == 1 else -1))
                                  for j, b in enumerate(BERNOULLI[: CONE_ORDER // 2], 1)))
               for c2 in (0, 1, 2)}


def _hurwitz(s: int, a: Fraction) -> tuple[Fraction, Fraction]:
    """zeta(s, a) = sum_(n >= 0) (a + n)^-s, s >= 2, exactly to the B_20 term
    of Euler-Maclaurin at a, and the B_22 term, which bounds the rest, as
    x^-s is completely monotone."""
    total, rising, term = a ** (1 - s) / (s - 1) + a**-s / 2, Fraction(s), 0
    for j, b in enumerate(BERNOULLI, 1):
        total += term
        term = b / math.factorial(2 * j) * rising * a ** (1 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total, abs(term)


@functools.cache
def _tail_zetas(twice_nu: int) -> tuple[tuple[float, float], ...]:
    """(zeta(k + 1, twice_nu/2), error) for k = 1 and the even k to CONE_ORDER."""
    pairs = (_hurwitz(k + 1, Fraction(twice_nu, 2)) for k in (1, *range(2, CONE_ORDER + 1, 2)))
    return tuple((float(v), EPS * float(v) + (1.0 + EPS) * float(rest)) for v, rest in pairs)


def _cone_gap(a, b, include_b: bool, odd: bool) -> tuple[float, float]:
    """The share in `_band_gap_limit(r, odd)` of the points strictly inside
    the cone of a = (alpha, gamma), b = (beta, delta), alpha delta - beta gamma
    = 1, and on b's ray with `include_b`, and its error.  The points are
    e((i + c) a + nu b), i >= 0: e = 1, c = 0 (1 without b's ray), nu >= 1 over
    all p; e = 2, c, nu in {0, 1/2, 1} + Z giving (1, 1) mod 2 over odd p.  The
    share is (gamma_E + log e) I0/e^2, I0 = log1p(1/(beta gamma)), less the
    constant term at s = 0 of sum p^(-1-s)/q, whose rows nu < nu_min + CONE_NU
    are digamma differences and the rest Euler-Maclaurin sums in i (README,
    `wellround.asympt`).  The error adds each term's roundings times its size,
    the fsum's, the bound on each truncated series and the zeta values'."""
    (al, ga), (be, de) = a, b
    # over odd p, m a + n b = (1, 1) mod 2 at m = delta - beta, n = alpha - gamma
    m, n = ((de - be) % 2, (al - ga) % 2) if odd else (0, 0)
    e, c2, n2 = 1 + odd, m or (0 if include_b else 2), 2 - n
    terms, size, rest = [], 0.0, 0.0  # size: each term's size times its roundings
    for m2 in range(n2, n2 + 2 * CONE_NU, 2):
        # X = 2 alpha (i + u), Y = 2 gamma (i + w), m2 = 2 nu
        X, Y, i = al * c2 + be * m2, ga * c2 + de * m2, 0
        while X < 2 * PSI_SHIFT * al:
            terms.append(-4 / (X * Y))
            size -= terms[-1]
            X, Y, i = X + 2 * al, Y + 2 * ga, i + 1
        term, first = 2 / m2 * math.log1p((2 * i + c2) / (be * Y)), 4 / (X * Y)
        terms += (term, -first / 2)
        size += 4.0 * term + first / 2
        # h = sum_(j <= n) x^-j y^-(n-j) = y^-n + h / x, with 1/x = ix
        ix, iy, h, power = 2 * al / X, 2 * ga / Y, 1.0, 1.0
        for k, coeff in enumerate(PSI_COEFFS, 1):
            power, h = power * iy, power * iy + ix * h
            term = coeff * first * h
            if abs(term) <= PSI_CUT * first or k == len(PSI_COEFFS):
                rest += abs(term)
                break
            terms.append(-term)
            size += (6 * k + 4) * abs(term)
            power, h = power * iy, power * iy + ix * h
    # 2 log 2 I0 where e = 2, nu_min = 1; -I'0 (beta rounds past 2^53; H_m/m
    # falls, so the first term below PSI_CUT eta over 1 - eta bounds the rest)
    I0 = math.log1p(1 / (be * ga))
    terms += (2.0 * LOG2 * I0 * (e == n2 == 2), math.log(be) * I0)
    size += 4.0 * terms[-2] + 6.0 * terms[-1]
    eta, H, m = 1 / (al * de), 1.0, 1
    while (term := H / m / (al * de) ** m) > PSI_CUT * eta:
        terms.append(term)
        size += (2 * m + 3) * term
        m += 1
        H += 1.0 / m
    rest += term / (1.0 - eta)
    # T: rho_a^k - rho_b^k = P/(beta delta), P_k = rho_a P_(k-1) + rho_b^(k-1)
    rho_a, rho_b, gap, P, power = al / be, ga / de, 1 / (be * de), 0.0, 1.0
    tail = iter(zip(CONE_COEFFS[c2], _tail_zetas(n2 + 2 * CONE_NU)))
    for k in range(1, CONE_ORDER + 1):
        P, power = rho_a * P + power, power * rho_b
        if k == 1 or k % 2 == 0:
            coeff, (z, z_error) = next(tail)
            terms.append(coeff * P * gap * z)
            size += (4 * k + 4) * abs(terms[-1])
            rest += abs(coeff) * P * gap * z_error
    rest += abs(float(BERNOULLI[CONE_ORDER // 2 - 1])) / CONE_ORDER * P * gap * (z + z_error)
    value = math.fsum(terms)
    return value / e**2, (EPS * (size + abs(value)) + rest) / e**2


def _band_tail(p: int, q: int) -> float:
    """A bound on the share in `_band_gap_limit(3, odd)`, either odd, of the
    points with lam < q'/p' < sqrt(3), lam = q/p for (p, q) = U^J (1, 1): the
    bands from J on.  Row p' adds (1/p')(A/step - sum of 1/q' over its q'),
    A = log(sqrt(3)/lam) = log1p(2/q^2)/2 as 3p^2 - q^2 = 2, and that sum is
    within 1/(lam p') of A/step, so the rows past P = pq add at most
    1/(lam P) = 1/q^2.  As (sqrt(3) - lam) P < 1, a row to P holds at most one
    q': those rows add at most A (1 + log P) less a sum of 1/(p'q') < 1/(lam p'^2)
    over their points, so at most the larger of the two.  Over a cone of
    generators with p = alpha <= beta the points to P add at most
    zeta(2)(1/alpha^2 + 1/beta^2) on the rays, 1/(alpha + beta)^2 at a + b,
    and log(P/alpha)/(alpha beta) at the others, each within its unit cell's
    integral of 1/(s alpha + t beta)^2 over s, t >= 0.  Band J's two cones
    have alpha = p, so add at most (4 zeta(2) + 1/2 + 2 log q)/p^2, and as
    each band at least triples p, all bands from J add 9/8 of that."""
    A = math.log1p(2 / q**2) / 2
    points = 9 * (4 * ZETA2 + 0.5 + 2 * math.log(q)) / (8 * q * p)
    return (max(A * (1 + math.log(p * q)), points) + 1 / q**2) * (1 + 16 * EPS)


def _band_gap_limit(r: int, odd: bool) -> tuple[float, float]:
    """L(r, odd) = sum_p (1/p)(log(r)/(2 step) - sum_q 1/q) over the band
    p < q < sqrt(r) p of `dirichlet.pair_band(N, r, odd)` (step 2: odd p, q),
    r = 3 or 9, and its error: the fsum of the shares of unimodular cones
    (`_cone_gap`; Shintani and Zagier's cone decomposition).  At r = 9 the
    cones are those of (1, 1), (1, 2) and (1, 2), (1, 3); at r = 3, band j is
    U^j of those of (1, 1), (2, 3) and (2, 3), (3, 5), U = [[2, 1], [3, 2]]
    the unit 2 + sqrt 3, and the bands are summed until `_band_tail` bounds
    the rest by TAIL_CUT."""
    if r not in (3, 9):
        raise UnsupportedDiscriminantError(f"band-gap limit at r = {r} not supported")
    rays, upper = ((1, 1), (1, 2), (1, 3)), False
    if r == 3:
        rays, upper = ((1, 1), (2, 3), (3, 5)), True
    cones, rest = [], math.inf
    while rest > TAIL_CUT:
        cones += [(rays[0], rays[1], True), (rays[1], rays[2], upper)]
        rays = tuple((2 * p + q, 3 * p + 2 * q) for p, q in rays)
        rest = _band_tail(*rays[0]) if r == 3 else 0.0
    shares = [_cone_gap(a, b, include_b, odd) for a, b, include_b in cones]
    value = math.fsum(v for v, _ in shares)
    return value, math.fsum(e for _, e in shares) + EPS * abs(value) + rest


def preset_constants(p: Preset) -> tuple[float, float, float]:
    """(c1, c, abs_error) of the preset lattice p, abs_error that of c: its
    series is c1/(s - 1)^2 + c/(s - 1) + O(1) at s = 1, so A(x) =
    c1 x log x + (c - c1) x + o(x).  They are read off p's identity
    (`dirichlet.Preset`) Phi = B + w m^-s W_r E P + w W_r^odd O P at s = 1:
      B = zeta(s) L(s, chi_D) = L/(s - 1) + O(1), D = cross^2 - 4, L = L(1, chi_D);
      P = B/zeta(2s) = (L/zeta(2)) (1/(s - 1) + gamma + L'/L - 2 zeta'(2)/zeta(2));
      W_r = R/(s - 1) + R (2 gamma - log(r)/4) - Lambda, R = log(r)/4, and W_r^odd
        the same plus 2 log(2) R, R = log(r)/16, Lambda = `_band_gap_limit(r, odd)`;
      E or O = 1/(1 + k^-s) is k/(k + 1), with log-derivative log(k)/(k + 1)
        (1 and 0 for None), and m^-s is 1/m, with -log m.
    So the even part (m = shift) and the odd one (m = 1) each add u R to c1
    and u (R T - Lambda) to c - L, u = (w/m) E(1) L/zeta(2), T the sum of the
    constant terms.  The error adds each input's error times its weight, and
    8 EPS of each part's size: a term of R T rounds at most seven times (w/m
    times E(1) twice, R once, its constant twice, two products), the fsum once."""
    D = p.cross**2 - 4
    (g, g_error), (L, L_error) = euler_gamma(), L_at_one(D)
    (lpl, lpl_error), (zp, zp_error) = L_prime_over_L(D), zeta_prime_2_over_zeta_2()
    log_r, scale, c1, terms, error = log(p.r), L / ZETA2, 0.0, [], 0.0
    for m, k, odd in ((p.shift, p.even, False), (1, p.odd, True)):
        gap, gap_error = _band_gap_limit(p.r, odd)
        v, R = p.w / m * (k / (k + 1) if k else 1.0), log_r / (16 if odd else 4)
        T = [3.0 * g, lpl, -2.0 * zp, -log_r / 4, 2.0 * LOG2 * odd, log(k) / (k + 1) if k else 0.0, -log(m)]
        c1 += v * scale * R
        terms += [v * R * t for t in T] + [-v * gap]
        size = v * (R * sum(map(abs, T)) + abs(gap))
        error += v * (R * (3.0 * g_error + lpl_error + 2.0 * zp_error) + gap_error) + 8 * EPS * size
    c = L + scale * math.fsum(terms)
    # L's error moves L and scale; scale rounds ZETA2's four times and its own,
    # and the product and the sum round once each
    return c1, c, L_error * abs(c) / L + scale * error + 6.0 * EPS * abs(c - L) + EPS * abs(c)


def preset_model(p: Preset) -> AsymptoticModel:
    """c1 x log x + (c - c1) x of the preset lattice p, from `preset_constants`."""
    from .growth import AsymptoticModel

    c1, c, _ = preset_constants(p)
    return AsymptoticModel(c1, c - c1)


def constants_table() -> dict[str, tuple[float, float]]:
    """Every constant the `constants` command prints, as (value, abs_error)."""
    from .hexagonal import HEXAGONAL
    from .square import SQUARE

    return {
        "L1_chi4": L_at_one(-4),
        "L1_chi3": L_at_one(-3),
        "Lp_over_L_chi4": L_prime_over_L(-4),
        "Lp_over_L_chi3": L_prime_over_L(-3),
        "euler_gamma": euler_gamma(),
        # pi twice, the product and the quotient
        "zeta2": (ZETA2, 4.0 * EPS * ZETA2),
        "zetap2_over_zeta2": zeta_prime_2_over_zeta_2(),
        "c_square": preset_constants(SQUARE)[1:],
        "c_triangle": preset_constants(HEXAGONAL)[1:],
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
    form reduced exactly by `gram.gauss_reduce`, |2b| <= a <= c.  With
    y = sqrt(ac - b^2)/a >= sqrt(3)/2, beta = b/a and nu = s - 1/2, a^s Z(s) is
    2 zeta(2s) + 2 sqrt(pi) Gamma(nu) zeta(2s - 1) y^(1-2s)/Gamma(s) +
    8 pi^s y^-nu/Gamma(s) sum_N N^nu sigma_(1-2s)(N) K_nu(2 pi N y) cos(2 pi N beta),
    at least 2.  The error adds the roundings, carried through (math.gamma
    within 10 EPS: CPython tests it to 10 ulps), those of `_zeta` and
    `_bessel_k`, the rounding of a, beta and y, and the Bessel tail, cut
    once within EPS; past SHELL_FROM of the value, `_shell_sum` may give a
    smaller one.  Results outside the float range are refused."""
    from .gram import GramForm, gauss_reduce

    A, B, C = (Fraction(v) for v in Q)
    if not (A > 0 and A * C - B * B > 0 and 1 < s < math.inf):
        raise DomainError("the form must be positive definite, and s finite and above 1")
    A, B, C = (e.rat for e in gauss_reduce(GramForm.of(A, B, C)))
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
    if not error < SHELL_FROM * value:
        shells = _shell_sum(A, B, C, s)
        if shells is not None and not shells[1] >= error:
            value, error = shells
    if not (math.isfinite(value) and math.isfinite(error)):
        raise DomainError(f"Z(s) of the form at s = {s!r} or its error is outside the float range")
    return value, error


def _shell_sum(A: Fraction, B: Fraction, C: Fraction, s: float) -> tuple[float, float] | None:
    """Z(s) of the reduced form (A, B, C) as its lattice sum over q = Q/A <= k,
    the first power of 2 whose tail bound is within EPS, and its error; None
    past SHELL_MAX or the float range.  At most (2 sqrt(t/delta) + 1)
    (2 sqrt(t) + 1) points have q <= t, delta = (AC - B^2)/A^2 >= 3/4, which
    bounds the points past k.  Each q rounds once and q^-s s + 1 times as
    much; the fsum once, A^-s s + 1 times and the product once."""
    k, root = 2, sqrt(0.75)
    c1, c2 = 4 * s / (root * (s - 1)), 2 * s * (1 / root + 1) / (s - 0.5)
    while not (tail := k**-s * (c1 * k + c2 * sqrt(k) + 1)) <= EPS:
        k *= 2
        if k > SHELL_MAX:
            return None
    L = math.lcm(A.denominator, B.denominator, C.denominator)
    a, b, c = int(A * L), int(B * L), int(C * L)
    # q <= k: (a m + b n)^2 + (ac - b^2) n^2 <= k a^2, on a superset of each row
    d, rows = a * c - b * b, math.isqrt(k * a * a // (a * c - b * b))
    terms = [((a * m * m + 2 * b * m * n + c * n * n) / a) ** -s for n in range(-rows, rows + 1)
             for r in [math.isqrt(max(k * a * a - d * n * n, 0)) + 1]
             for m in range((-b * n - r) // a, (-b * n + r) // a + 2) if m or n]
    try:
        scale = float(A) ** -s
    except OverflowError:
        return None
    value = scale * math.fsum(terms)
    if not 0 < value < math.inf:
        return None
    return value, value * math.expm1((2 * s + 4) * math.log1p(EPS)) + scale * tail


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
