"""Analytic main-term ingredients: li(x), zeta(k), the per-m
short-interval main term and the error-exponent table A(k).

li is the principal-value logarithmic integral from 0 (so li(2) is
about 1.045, not 0), defined here for x >= 2; that convention is
recorded in all CLI output. li, li_interval and the per-m main term
integrate dt/log t with one Gauss-Legendre rule on one fixed grid.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .arith import DEFAULT_SIEVE_BUDGET, iroot
from .errors import CapacityError, DomainError

LI_CONVENTION = "principal-value from 0"

# li(2), to double precision
_LI_2 = 1.045163780117493
_LOG2 = math.log(2.0)


def exponents(k: int) -> int:
    """Error exponent A(k) of the RH-conditional bounds: A(2) = 2,
    A(k) = 1 for k >= 3."""
    if k < 2:
        raise DomainError(f"exponents requires k >= 2, got {k}")
    return 2 if k == 2 else 1


def li(x: float) -> float:
    """Principal-value logarithmic integral for x >= 2: li(2) plus the
    integral of dt/log t over [2, x].

    Its relative error is below 1e-14 from 2 to 10^15 (at most 3.5e-15
    against 40-digit mpmath), so the absolute error grows with x: about
    2e-5 at 10^12 and 0.05 at 10^15.
    """
    if not 2.0 <= x < math.inf:
        raise DomainError(f"li requires finite x >= 2, got {x}")
    return _LI_2 + _log_integral(np.array([_LOG2]),
                                 np.array([math.log(x / 2)]))


def li_interval(x1: float, x2: float) -> float:
    """Integral of dt/log t over [x1, x2]; 2 <= x1 <= x2.

    The window enters as its width in log t, log1p((x2 - x1) / x1), so
    the relative error stays below 1e-14 however short the window (at
    most 6.5e-15 against 40-digit mpmath on 2 000 seeded windows from
    1e-14 to 10 times x1 wide).
    """
    if not 2.0 <= x1 <= x2 < math.inf:
        raise DomainError(
            f"li_interval requires 2 <= x1 <= x2 < inf, got {x1}, {x2}")
    return _log_integral(np.array([math.log(x1)]),
                         np.array([math.log1p((x2 - x1) / x1)]))


# The integral of dt/log t is that of e^u/u in u = log t, taken on the
# fixed grid u = log 2 + j * _PANEL. The n-point Gauss-Legendre error
# for e^u/u over a piece of width w behaves like (w / 3.2)^(2n) for
# starts from t = 2 to t = e^35 (measured against Ei at 40 digits for
# 1e-6 <= w <= 0.5), so a piece of width w takes the least n with
# w <= 3.2 * 10^(-8/n), at most 10 for a whole panel; _NODE_LIMITS[n]
# is that bound, and a piece of width 0 takes no node.
_PANEL = 0.5
_NODE_LIMITS = (0.0, *(3.2 * 10 ** (-8 / n) for n in range(1, 11)))
# grid lines up to log of the largest double, where e^u ends
_GRID_LINES = int((math.log(np.finfo(float).max) - _LOG2) / _PANEL) + 1
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
        converged = False
        for _ in range(100):
            p0, p1 = 1.0, z  # P_0, P_1; the loop climbs to P_{n-1}, P_n
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
            dp = n * (p0 - z * p1) / ((1.0 - z) * (1.0 + z))  # P_n'(z)
            if converged:
                break  # the weight takes P_n' at the node itself
            step = p1 / dp
            z -= step
            converged = abs(step) < 1e-15
        nodes.append(z)
        weights.append(2.0 / ((1.0 - z) * (1.0 + z) * dp * dp))
    return tuple(nodes), tuple(weights)


def _gauss(lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The integral of e^u/u over each piece [lo, lo + width], by the
    Gauss-Legendre rule with the nodes the widest piece needs; none is
    wider than about one panel. A width below 0 is rounding slop at a
    grid line: it integrates backwards, or adds 0 if no piece is wider
    than 0."""
    half = width / 2
    acc = np.zeros_like(half)
    n = bisect_left(_NODE_LIMITS, width.max(initial=0.0))
    for node, weight in zip(*_gauss_legendre(n)):
        u = lo + (1 + node) * half
        acc += weight * np.exp(u) / u
    return acc * half


@lru_cache(maxsize=None)
def _grid_integrals() -> np.ndarray:
    """The integral of e^u/u from log 2 to each grid line."""
    lines = _LOG2 + _PANEL * np.arange(_GRID_LINES - 1)
    panels = _gauss(lines, np.full_like(lines, _PANEL))
    return np.concatenate(([0.0], np.cumsum(panels)))


def _log_integral(lo: np.ndarray, width: np.ndarray) -> float:
    """Sum over the windows [lo, lo + width] of the integral of e^u/u,
    for lo >= log 2 and width >= 0. Where no window is wider than one
    panel, each is one piece. Otherwise each window takes its whole
    panels from the grid table, and adds a piece up to its first grid
    line and one after its last. The width enters as given, so a short
    window keeps its relative accuracy wherever it lies."""
    if width.max() <= _PANEL:
        return float(_gauss(lo, width).sum())
    first = np.ceil((lo - _LOG2) / _PANEL)
    last = np.maximum(np.floor((lo - _LOG2 + width) / _PANEL), first)
    grid = _grid_integrals()
    total = float((grid[last.astype(np.intp)]
                   - grid[first.astype(np.intp)]).sum())
    head = np.minimum(_LOG2 + first * _PANEL - lo, width)
    tail = width - head - (last - first) * _PANEL
    # each piece's quadrature runs with no more of the block's arrays
    # alive than a narrow block's, which keeps the heap peak down
    del first, width
    total += float(_gauss(lo, head).sum())
    del lo, head
    return total + float(_gauss(_LOG2 + last * _PANEL, tail).sum())


def interval_main_term(x: int, h: int, k: int) -> float:
    """Main term for #{n in (x, x+h] : n = p * m^k}: the sum over m >= 1
    of the integral of dt/log t over (x/m^k, (x+h)/m^k], each window
    clipped below at t = 2.

    The count is the sum of pi over those same windows, so this is the
    term it follows. zeta(k) * li_interval(x, x + h) is only the leading
    order: it misses a secondary term of relative size about
    k * sum(log m / m^k) / (zeta(k) * log x), still 4% at x = 10^12 for
    k = 2. Returns 0.0 when x + h <= 2, where every window lies below 2.
    CapacityError past DEFAULT_SIEVE_BUDGET windows, before any is
    summed.
    """
    if k < 2 or x < 1 or h < 1:
        raise DomainError(
            "interval_main_term requires k >= 2, x >= 1, h >= 1; "
            f"got x = {x}, h = {h}, k = {k}")
    # only the windows with (x + h) / m^k > 2 contribute
    mmax = iroot((x + h - 1) // 2, k)
    if mmax > DEFAULT_SIEVE_BUDGET:
        # the largest table sieve_primes builds certifies x + h <= 10^16,
        # fewer than 10^8 windows for any k >= 2
        raise CapacityError(f"main term with k = {k} sums more than the "
                            f"budget of {DEFAULT_SIEVE_BUDGET} windows of m")
    log_top = math.log(x + h)
    full_width = math.log1p(h / x)  # in log t, shared by unclipped windows
    total = 0.0
    for start in range(1, mmax + 1, _MAIN_TERM_BLOCK):
        top = log_top - k * np.log(np.arange(
            start, min(start + _MAIN_TERM_BLOCK, mmax + 1), dtype=np.float64))
        # rounding can put a clipped window's top below log 2
        total += _log_integral(np.maximum(top - full_width, _LOG2),
                               np.clip(top - _LOG2, 0.0, full_width))
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

