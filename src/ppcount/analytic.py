"""Analytic main-term ingredients: li(x), zeta(k), the per-m
short-interval main term and the error-exponent table A(k).

li is the principal-value logarithmic integral from 0 (so li(2) is
about 1.045, not 0); that convention is recorded in all CLI output.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import iroot
from .errors import DomainError

LI_CONVENTION = "principal-value from 0"

# Euler-Mascheroni, to double precision
_EULER_GAMMA = 0.5772156649015328606


def exponents(k: int) -> int:
    """Error exponent A(k) of the RH-conditional bounds: A(2) = 2,
    A(k) = 1 for k >= 3."""
    if k < 2:
        raise DomainError(f"exponents requires k >= 2, got {k}")
    return 2 if k == 2 else 1


def li(x: float) -> float:
    """Principal-value logarithmic integral, via the Ei series at log x.

    Ei(y) = gamma + log y + sum_{n>=1} y^n / (n * n!); all terms are
    positive for y > 0, so the series is numerically benign. Summed in
    doubles, its relative error is below 1e-14 for 10^3 <= x <= 10^15
    (at most 4.2e-15 against 40-digit mpmath), so the absolute error
    grows with x: about 5e-6 at 10^12 and 0.04 at 10^15.
    """
    if x <= 1.0:
        raise DomainError(f"li requires x > 1, got {x}")
    y = math.log(x)
    total = _EULER_GAMMA + math.log(y)
    term = 1.0
    for n in range(1, 1000):
        term *= y / n
        inc = term / n
        total += inc
        if inc < 1e-17 * abs(total) and n > y:
            break
    return total


def li_interval(x1: float, x2: float) -> float:
    """Integral of dt/log t over [x1, x2]; 1 < x1 <= x2.

    A difference of two li values, so a window short next to x1 loses
    the digits li's absolute error covers: at (10^12, 10^12 + 1) it
    gives 0.036217 where the integral is 0.036191.
    """
    if not 1.0 < x1 <= x2:
        raise DomainError(f"li_interval requires 1 < x1 <= x2, got {x1}, {x2}")
    return li(x2) - li(x1)


# The n-point Gauss-Legendre error for the integral of e^u/u over a
# window of width w in u = log t behaves like (w / 3.2)^(2n) for window
# starts from t = 2 to t = e^35 (measured against Ei at 40 digits for
# 1e-6 <= w <= 0.5). Windows are split into panels of width at most
# 0.5, and each panel gets ceil(8 log 10 / log(3.2 / w)) <= 10 nodes.
_GL_PANEL_WIDTH = 0.5
# m-values per vectorized block, so memory stays small at any x
_MAIN_TERM_BLOCK = 1 << 12


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    by Newton's method on the Legendre polynomial P_n. numpy's leggauss
    gives the same to 1e-15, but its eigenvalue solver costs about 1 MB
    of resident memory the first time it runs."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        z = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, z  # P_0, P_1; the loop climbs to P_{n-1}, P_n
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
            dp = n * (z * p1 - p0) / (z * z - 1.0)  # P_n'(z)
            step = p1 / dp
            z -= step
            if abs(step) < 1e-15:
                break
        nodes.append(z)
        weights.append(2.0 / ((1.0 - z * z) * dp * dp))
    return tuple(nodes), tuple(weights)


def interval_main_term(x: int, h: int, k: int) -> float:
    """Main term for #{n in (x, x+h] : n = p * m^k}: the sum over m >= 1
    of the integral of dt/log t over (x/m^k, (x+h)/m^k], each window
    clipped below at t = 2.

    The count is the sum of pi over those same windows, so this is the
    term it follows. zeta(k) * li_interval(x, x + h) is only the leading
    order: it misses a secondary term of relative size about
    k * sum(log m / m^k) / (zeta(k) * log x), still 4% at x = 10^12 for
    k = 2. Returns 0.0 when x + h <= 2, where every window lies below 2.
    """
    if k < 2 or x < 1 or h < 1:
        raise DomainError(
            "interval_main_term requires k >= 2, x >= 1, h >= 1; "
            f"got x = {x}, h = {h}, k = {k}")
    # only the windows with (x + h) / m^k > 2 contribute
    mmax = iroot((x + h - 1) // 2, k)
    if mmax == 0:
        return 0.0
    log_top = math.log(x + h)
    log2 = math.log(2.0)
    full_width = math.log1p(h / x)  # in log t, shared by unclipped windows
    total = 0.0
    for start in range(1, mmax + 1, _MAIN_TERM_BLOCK):
        m = np.arange(start, min(start + _MAIN_TERM_BLOCK, mmax + 1),
                      dtype=np.float64)
        top = log_top - k * np.log(m)
        # sized by its first, widest window; rounding can make that <= 0
        widest = max(min(full_width, top[0] - log2), math.ulp(log_top))
        panels = math.ceil(widest / _GL_PANEL_WIDTH)
        n = max(1, math.ceil(8 * math.log(10)
                             / math.log(3.2 * panels / widest)))
        nodes, weights = _gauss_legendre(n)
        half = np.minimum(full_width, top - log2) / (2 * panels)
        acc = np.zeros_like(top)
        for j in range(panels):
            centre = top - (2 * j + 1) * half
            for node, weight in zip(nodes, weights):
                u = centre + node * half
                acc += weight * np.exp(u) / u
        total += float((acc * half).sum())
    return total


@lru_cache(maxsize=None)
def zeta_int(k: int) -> float:
    """zeta(k) for integer k >= 2 by direct series.

    Truncates at M terms and corrects with the Euler-Maclaurin tail
    M^{1-k}/(k-1) - M^{-k}/2 + k*M^{-k-1}/12, leaving error far below
    the 1e-12 target (the integral tail bound M^{1-k}/(k-1) alone
    brackets the remainder).
    """
    if k < 2:
        raise DomainError(f"zeta_int requires k >= 2, got {k}")
    if k > 64:
        return 1.0  # 2^-64 below 1 is under double resolution
    M = 20000
    s = math.fsum((m ** -k for m in range(M, 0, -1)))
    tail = M ** (1 - k) / (k - 1) - 0.5 * M ** (-k) + k * M ** (-k - 1) / 12.0
    return s + tail

