"""Numeric layer: constants, growth models, tail bounds, Epstein zeta sums.

This is the only module that touches floating point.  Everything exact
(coefficient streams, censuses, window counts) lives elsewhere; here those
streams are compared against the closed-form constants and the truncated
analytic objects that describe their growth.  Each float the CLI prints
with an error comes from one call here, as a pair (value, abs_error):
`constants_table`, `epstein_truncated`, `epstein_residue_estimate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, log, pi, sqrt

import numpy as np

from .dirichlet import (
    CHI_MINUS3,
    CHI_MINUS4,
    ArithSeq,
    OutOfRangeError,
    evaluate,
    moebius_seq,
)


class UnsupportedDiscriminantError(ValueError):
    pass


class DomainError(ValueError):
    pass


LOG3 = log(3.0)
ZETA2 = pi * pi / 6.0


def euler_gamma(N: int = 100_000) -> float:
    """Euler-Mascheroni constant by Euler-Maclaurin corrected harmonic sum."""
    H = float(np.sum(1.0 / np.arange(1, N + 1, dtype=np.float64)))
    n = float(N)
    return H - log(n) - 1.0 / (2 * n) + 1.0 / (12 * n * n) - 1.0 / (120 * n**4)


def zeta_prime_2_over_zeta_2(N: int = 1_000_000) -> float:
    """zeta'(2)/zeta(2) from the log-weighted sum with an integral tail."""
    n = np.arange(1, N + 1, dtype=np.float64)
    partial = float(np.sum(np.log(n) / (n * n)))
    x = float(N)
    tail = (log(x) + 1.0) / x - log(x) / (2 * x * x) - (1.0 - 2 * log(x)) / (12 * x**3)
    return -(partial + tail) / ZETA2


def L_at_one(D: int) -> float:
    """L(1, chi_D) from the finite character sum."""
    chi = {-4: CHI_MINUS4, -3: CHI_MINUS3}.get(D)
    if chi is None:
        raise UnsupportedDiscriminantError(f"discriminant {D} not supported")
    q = chi.modulus
    total = sum(n * chi(n) for n in range(1, q))
    return -pi / q ** 1.5 * total


def _agm(x: float, y: float) -> float:
    while abs(x - y) > 1e-16 * abs(x):
        x, y = (x + y) / 2.0, sqrt(x * y)
    return (x + y) / 2.0


def L_prime_over_L(D: int) -> float:
    """Logarithmic derivative L'(1, chi_D)/L(1, chi_D), AGM closed form."""
    g = euler_gamma()
    if D == -4:
        return log(_agm(1.0, sqrt(2.0)) ** 2 * math.exp(g) / 2.0)
    if D == -3:
        # exponent 4/3: agm(1, cos(pi/12)) = 2^{4/3} pi^2 / (3^{1/4} Gamma(1/3)^3)
        return log(2.0 ** (4.0 / 3.0) * _agm(1.0, math.cos(pi / 12.0)) ** 2 * math.exp(g) / 3.0)
    raise UnsupportedDiscriminantError(f"discriminant {D} not supported")


def L_prime_over_L_gamma_form(D: int) -> float:
    """Same quantity through Gamma-function identities (consistency check)."""
    g = euler_gamma()
    if D == -4:
        return log(math.gamma(0.75) ** 4 * math.exp(g) / pi)
    if D == -3:
        return log(2.0**4 * pi**4 * math.exp(g) / (3.0**1.5 * math.gamma(1.0 / 3.0) ** 6))
    raise UnsupportedDiscriminantError(f"discriminant {D} not supported")


# -- the two lattice constants ------------------------------------------------


def _harmonic_prefix(n: int) -> np.ndarray:
    # H[k] = 1 + 1/2 + ... + 1/k, H[0] = 0
    out = np.empty(n + 1, dtype=np.float64)
    out[0] = 0.0
    np.cumsum(1.0 / np.arange(1, n + 1, dtype=np.float64), out=out[1:])
    return out


def _odd_harmonic_prefix(n: int) -> np.ndarray:
    # OH[k] = 1 + 1/3 + ... + 1/(2k+1)
    out = np.cumsum(1.0 / (2.0 * np.arange(0, n + 1, dtype=np.float64) + 1.0))
    return out


def _floor_sqrt3_times(p: np.ndarray) -> np.ndarray:
    """Largest integer q with q^2 < 3 p^2, elementwise and exactly."""
    q = np.floor(np.sqrt(3.0) * p.astype(np.float64)).astype(np.int64)
    q += (q + 1) ** 2 < 3 * p * p
    q -= q * q >= 3 * p * p
    return q


def _band_gap_sum_square(P: int) -> float:
    """sum_p (1/p)(log3/2 - sum_{p<q<sqrt(3)p} 1/q), truncated at P terms."""
    p = np.arange(1, P + 1, dtype=np.int64)
    qmax = _floor_sqrt3_times(p)
    H = _harmonic_prefix(int(qmax[-1]))
    inner = H[qmax] - H[p]
    return float(np.sum((LOG3 / 2.0 - inner) / p))


def _band_gap_sum_square_odd(P: int) -> float:
    """sum_k (1/(2k+1))(log3/4 - sum_window 1/(2l+1)) over 0 <= k < P."""
    k = np.arange(0, P, dtype=np.int64)
    pp = 2 * k + 1
    qmax = _floor_sqrt3_times(pp)
    lmax = (qmax - 1) // 2
    OH = _odd_harmonic_prefix(int(lmax[-1]))
    inner = OH[lmax] - OH[k]
    return float(np.sum((LOG3 / 4.0 - inner) / pp))


def _band_gap_sum_hex(P: int) -> float:
    """sum_p (1/p)(log3 - sum_{p<q<=3p-1} 1/q), truncated at P terms."""
    p = np.arange(1, P + 1, dtype=np.int64)
    H = _harmonic_prefix(3 * P)
    inner = H[3 * p - 1] - H[p]
    return float(np.sum((LOG3 - inner) / p))


def _band_gap_sum_hex_odd(P: int) -> float:
    """sum_k (4/(2k+1))(log3/2 - sum_{k<l<=3k} 1/(2l+1)) over 0 <= k < P."""
    k = np.arange(0, P, dtype=np.int64)
    OH = _odd_harmonic_prefix(3 * (P - 1) if P > 1 else 0)
    inner = OH[3 * k] - OH[k]
    return float(np.sum(4.0 * (LOG3 / 2.0 - inner) / (2 * k + 1)))


def _richardson(term, P: int) -> tuple[float, float]:
    """The limit of the partial sums term(P), and its change from P/2."""
    # partial sums approach the limit like A/P; eliminate the leading tail
    mid = term(P)
    value = 2.0 * term(2 * P) - mid
    return value, abs(2.0 * mid - term(P // 2) - value)


def c_square_eval(P: int = 400_000) -> tuple[float, float]:
    """Linear-term constant of the square lattice growth law, with error estimate."""
    g = euler_gamma()
    L = L_at_one(-4)
    lpl = L_prime_over_L(-4)
    zp = zeta_prime_2_over_zeta_2()
    s1, e1 = _richardson(_band_gap_sum_square, P)
    s2, e2 = _richardson(_band_gap_sum_square_odd, P)
    bracket = (
        ZETA2
        + (LOG3 / 3.0) * (lpl + g - 2.0 * zp)
        + (LOG3 / 3.0) * (2.0 * g - LOG3 / 4.0 - log(2.0) / 6.0)
        - s1
        - (4.0 / 3.0) * s2
    )
    return L / ZETA2 * bracket, L / ZETA2 * (e1 + 4.0 / 3.0 * e2) + 1e-9


def c_triangle_eval(P: int = 400_000) -> tuple[float, float]:
    """Linear-term constant of the hexagonal lattice growth law, with error estimate."""
    g = euler_gamma()
    L = L_at_one(-3)
    lpl = L_prime_over_L(-3)
    zp = zeta_prime_2_over_zeta_2()
    t1, e1 = _richardson(_band_gap_sum_hex, P)
    t2, e2 = _richardson(_band_gap_sum_hex_odd, P)
    # the band-gap sums enter without the log 3 factor carried by the
    # constant part of the bracket
    bracket = LOG3 * ((g + lpl - 2.0 * zp) + 2.0 * g - LOG3 / 4.0) - t1 - t2
    scale = 9.0 * L / (16.0 * ZETA2)
    return L + scale * bracket, scale * (e1 + e2) + 1e-9


# -- growth models ------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticModel:
    c1: float
    c2: float

    def __post_init__(self):
        if self.c1 < 0:
            raise ValueError("x log x coefficient must be nonnegative")

    def __call__(self, x: float) -> float:
        return self.c1 * x * log(x) + self.c2 * x


def square_model() -> AsymptoticModel:
    c1 = LOG3 / (2.0 * pi)
    return AsymptoticModel(c1, c_square_eval()[0] - c1)


def hexagonal_model() -> AsymptoticModel:
    c1 = 3.0 * sqrt(3.0) * LOG3 / (8.0 * pi)
    return AsymptoticModel(c1, c_triangle_eval()[0] - c1)


def model_report(counts: ArithSeq, model: AsymptoticModel, checkpoints) -> list[dict]:
    """Residual table of the summatory counts against c1 x log x + c2 x."""
    rows = []
    prefix = counts.summatory_all()
    for x in checkpoints:
        if x < 2:
            raise ValueError(f"checkpoint {x} is below 2; the residual divides by log x")
        if x > counts.N:
            raise OutOfRangeError(f"checkpoint {x} beyond bound {counts.N}")
        A = prefix[x - 1]
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


def constants_table() -> dict[str, tuple[float, float]]:
    """Every constant the `constants` command prints, as (value, abs_error)."""
    return {
        "L1_chi4": (L_at_one(-4), 1e-14),
        "L1_chi3": (L_at_one(-3), 1e-14),
        "Lp_over_L_chi4": (L_prime_over_L(-4), 1e-10),
        "Lp_over_L_chi3": (L_prime_over_L(-3), 1e-10),
        "euler_gamma": (euler_gamma(), 1e-12),
        "zeta2": (ZETA2, 1e-15),
        "zetap2_over_zeta2": (zeta_prime_2_over_zeta_2(), 1e-10),
        "c_square": c_square_eval(),
        "c_triangle": c_triangle_eval(),
    }


# -- interval tail bounds -----------------------------------------------------


def interval_sum_bounds(l: int, alpha: float, beta: float, gamma: float, s: float):
    """Bounds straddling sum over l < n < alpha*l + beta of 1/(n+gamma)^s.

    Returns (lower, upper, exact) with lower < exact < upper, where upper is
    the integral of (x+gamma)^(-s) over [l, alpha*l+beta] and lower is that
    integral minus the first summand bound.
    """
    if l < 1 or alpha <= 1 or beta < 0 or not 0 <= gamma < 1 or s < 0:
        raise DomainError("parameters outside the valid range")
    top = alpha * l + beta
    if s == 1.0:
        integral = log((top + gamma) / (l + gamma))
    else:
        integral = ((top + gamma) ** (1 - s) - (l + gamma) ** (1 - s)) / (1 - s)
    exact = 0.0
    n = l + 1
    while n < top:
        exact += (n + gamma) ** (-s)
        n += 1
    return integral - (l + gamma) ** (-s), integral, exact


# -- truncated Dirichlet evaluation and sandwiches ----------------------------


def L_chi(D: int, s: float) -> float:
    """L(s, chi_D) through Hurwitz zeta values."""
    import mpmath

    if D == -4:
        return float(4.0**-s * (mpmath.zeta(s, Fraction(1, 4)) - mpmath.zeta(s, Fraction(3, 4))))
    if D == -3:
        return float(3.0**-s * (mpmath.zeta(s, Fraction(1, 3)) - mpmath.zeta(s, Fraction(2, 3))))
    raise UnsupportedDiscriminantError(f"discriminant {D} not supported")


def zeta(s: float) -> float:
    import mpmath

    return float(mpmath.zeta(s))


def D_square(s: float) -> float:
    return (
        (2.0 + 2.0**s)
        / (1.0 + 2.0**s)
        * (1.0 - sqrt(3.0) ** (1.0 - s))
        / (s - 1.0)
        * L_chi(-4, s)
        / zeta(2 * s)
        * zeta(s)
        * zeta(2 * s - 1.0)
    )


def phi_square(s: float) -> float:
    return zeta(s) * L_chi(-4, s)


def D_hex(s: float) -> float:
    return (
        0.5
        * 3.0
        / (1.0 + 3.0**-s)
        * (1.0 - 3.0 ** (1.0 - s))
        / (s - 1.0)
        * L_chi(-3, s)
        / zeta(2 * s)
        * zeta(s)
        * zeta(2 * s - 1.0)
    )


def E_hex(s: float) -> float:
    return 3.0 / (1.0 + 3.0**-s) * L_chi(-3, s) * zeta(s)


def _truncated_with_error(series_fn, s: float, N: int) -> tuple[float, float]:
    full = evaluate(series_fn(N), s)
    half = evaluate(series_fn(N // 2), s)
    return full, 2.0 * abs(full - half) + 1e-12


def sandwich_check_square(s: float, N: int = 50_000) -> bool:
    """Strict two-sided bound on the well-rounded series of the square lattice."""
    from .square import a_square

    phi_wr, err = _truncated_with_error(a_square, s, N)
    lower = D_square(s) - phi_square(s)
    upper = D_square(s) + phi_square(s)
    return lower < phi_wr + err and phi_wr - err < upper


def sandwich_check_hex(s: float, N: int = 50_000) -> bool:
    """Two-sided bound on the well-rounded series of the hexagonal lattice.

    The interval-sum lemma bounds the rhombic contribution between
    D - E and D, so the full series (rhombic plus similar sublattices)
    sits strictly between phi + D - E and phi + D with phi = zeta * L.
    """
    from .hexagonal import a_hex

    phi_wr, err = _truncated_with_error(a_hex, s, N)
    phi = zeta(s) * L_chi(-3, s)
    lower = phi + D_hex(s) - E_hex(s)
    upper = phi + D_hex(s)
    return lower < phi_wr + err and phi_wr - err < upper


# -- Epstein zeta sums --------------------------------------------------------

# 320 MB of float64 values: ten times the grid of `1,0,1` at the CLI's default radius
MAX_GRID_POINTS = 40_000_000


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


def _disk_values(Q, R: float, keep=None) -> np.ndarray:
    """Q(m, n) at the points with 0 < Q <= R and keep(m, n), in row-major
    (m, n) order; m is an integer column broadcast against a row n."""
    bound = _bound_for_radius(Q, R)
    a, b, c = _form_floats(Q)
    m = np.arange(-bound, bound + 1)
    M, N = m[:, None], m[None, :]
    vals = a * M * M + 2.0 * b * M * N + c * N * N
    mask = (vals > 0) & (vals <= R)
    if keep is not None:
        mask &= keep(M, N)
    return vals[mask]


def _disk_sum(v: np.ndarray, Q, s: float, R: float, tail: bool = True) -> float:
    """Sum of v^(-s) over a disk's values, plus the integral tail beyond R."""
    total = float(np.sum(v ** (-s)))
    if tail:
        a, b, c = _form_floats(Q)
        total += pi / sqrt(a * c - b * b) * R ** (1.0 - s) / (s - 1.0)
    return total


def _ladder_extrapolants(v: np.ndarray, Q, R: float) -> tuple[float, float]:
    ladder = (1.0 + 2.0**-j for j in range(1, 8))
    values = [(s - 1.0) * _disk_sum(v, Q, s, R) for s in ladder]
    return 2.0 * values[-1] - values[-2], 2.0 * values[-2] - values[-3]


def epstein_truncated(Q, s: float, R: float) -> tuple[float, float]:
    """Lattice sum of Q(m,n)^(-s) over 0 < Q <= R plus an integral tail, and
    its change from the same sum at R/4."""
    if not s > 1:
        raise DomainError(f"--s must be above 1, not {s:g}")
    disk = _disk_values(Q, R)
    value = _disk_sum(disk, Q, s, R)
    # the values <= R/4 of the disk of R are the disk of R/4, in order
    return value, abs(value - _disk_sum(disk[disk <= R / 4], Q, s, R / 4))


def epstein_residue_estimate(Q, R: float) -> tuple[float, float]:
    """Residue of the Epstein zeta function at s=1 via a Richardson ladder,
    and its error.

    The ladder is v_j = (s_j - 1) Z(s_j) at s_j = 1 + 2^-j, j = 1..7, and
    e_j = 2 v_j - v_{j-1} removes its error term linear in (s - 1).  The
    error adds the truncation error |e_7(R) - e_7(R/4)| and what the last
    step leaves, |e_7 - e_6|.
    """
    disk = _disk_values(Q, R)
    value, previous = _ladder_extrapolants(disk, Q, R)
    rough, _ = _ladder_extrapolants(disk[disk <= R / 4], Q, R / 4)
    return value, abs(value - rough) + abs(value - previous)


def epstein_primitive_truncated(Q, s: float, R: float) -> float:
    """Sum over coprime (m, n) with 0 < Q <= R (no tail term)."""
    v = _disk_values(Q, R, lambda m, n: np.gcd(m, n) == 1)
    return _disk_sum(v, Q, s, R, tail=False)


def epstein_restricted(Q, s: float, k: int, l: int, C: int, D: int, R: float) -> float:
    """Direct sum over coprime (m, n) with gcd(m, D) = k and gcd(n, C) = l,
    truncated at Q(m, n) <= R."""
    def keep(m, n):
        return (np.gcd(m, n) == 1) & (np.gcd(m, D) == k) & (np.gcd(n, C) == l)

    return _disk_sum(_disk_values(Q, R, keep), Q, s, R, tail=False)


def _phi_Q(Q, a_cond: int, k: int, l: int, s: float, R: float) -> float:
    """Sum over coprime (m, n), gcd(n, a_cond) = 1, of Q(k m, l n)^(-s),
    truncated at Q(k m, l n) <= R."""
    qa, qb, qc = _form_floats(Q)
    scaled = (qa * k * k, qb * k * l, qc * l * l)
    v = _disk_values(scaled, R, lambda m, n: (np.gcd(m, n) == 1) & (np.gcd(n, a_cond) == 1))
    return _disk_sum(v, scaled, s, R, tail=False)


def epstein_restricted_moebius(Q, s: float, k: int, l: int, C: int, D: int, R: float) -> float:
    """The same restricted sum assembled from unrestricted pieces by Moebius
    inversion over the divisors of l D / k; must agree with the direct sum."""
    if D % k or C % l or (l * D) % k:
        raise DomainError("need k | D and l | C")
    n = l * D // k
    mu = moebius_seq(n)
    total = 0.0
    for c in range(1, n + 1):
        if n % c == 0 and mu[c]:
            total += mu[c] * _phi_Q(Q, c * k * C // l, c * k, l, s, R)
    return total
