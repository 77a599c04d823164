"""Tables of zeta-zero ordinates and the counting / reciprocal-sum
statistics built on them.

RH is assumed throughout: every zero is taken as rho = 1/2 + i*gamma,
so everything downstream of these tables is conditional. Ordinates are
held as float64; the bundled tables carry ~8 correct decimals, ample
for sums whose terms decay like 1/gamma^2.

File format: UTF-8 text, one positive decimal ordinate per line,
ascending; lines starting with '#' are comments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import CoverageError, DomainError, IntegrityError, TableParseError

TWO_PI = 2.0 * math.pi

# Allowed |N(T) - RvM(T)| drift before a table is declared corrupt.
RVM_GATE = 2.0


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive ordinates of nontrivial zeta zeros; never empty."""

    ordinates: np.ndarray  # float64, strictly ascending
    source_label: str

    def __post_init__(self):
        if len(self.ordinates) == 0:
            raise IntegrityError(
                f"zero table '{self.source_label}' is empty")

    def __len__(self) -> int:
        return len(self.ordinates)

    @property
    def max_ordinate(self) -> float:
        return float(self.ordinates[-1])

    def check_covers(self, T: float) -> None:
        """CoverageError unless the table reaches ordinate T."""
        if T > self.max_ordinate:
            raise CoverageError(
                f"ordinates up to {T} needed: zero table "
                f"'{self.source_label}' ends at {self.max_ordinate}")

    def truncate(self, limit: int) -> "ZeroTable":
        return ZeroTable(ordinates=self.ordinates[:limit],
                         source_label=f"{self.source_label}[:{limit}]")


def rvm_estimate(T: float) -> float:
    """Riemann-von Mangoldt main term (T/2pi)log(T/2pi e) + 7/8."""
    if T <= TWO_PI * math.e:
        raise DomainError(f"rvm_estimate requires T > 2*pi*e, got {T}")
    return T / TWO_PI * math.log(T / (TWO_PI * math.e)) + 7.0 / 8.0


def validate_table(ordinates: np.ndarray, label: str) -> None:
    """File-integrity gates on a nonempty array: ascending, plausible
    range, RvM drift."""
    if ordinates[0] <= 14.0:
        raise IntegrityError(
            f"{label}: first ordinate {ordinates[0]} below gamma_1 ~ 14.13")
    if np.any(np.diff(ordinates) <= 0):
        i = int(np.nonzero(np.diff(ordinates) <= 0)[0][0])
        raise IntegrityError(
            f"{label}: ordinates not strictly ascending at index {i}")
    # N(T) passes through i - 1 and i at the i-th ordinate, so the
    # midpoint must track the RvM main term within the gate.
    idx = np.arange(1, len(ordinates) + 1, dtype=np.float64)
    g = ordinates
    est = g / TWO_PI * np.log(g / (TWO_PI * math.e)) + 7.0 / 8.0
    drift = np.abs(idx - 0.5 - est)
    if drift.max() > RVM_GATE:
        i = int(np.argmax(drift))
        raise IntegrityError(
            f"{label}: |N(T) - RvM(T)| = {drift.max():.2f} > {RVM_GATE} "
            f"near gamma = {g[i]:.3f}; table corrupt or incomplete")


def parse_table(lines, label: str, limit: int | None = None) -> ZeroTable:
    """Parse one ordinate per line (at most ``limit`` of them), apply the
    integrity gates and wrap the result; an empty table is refused."""
    vals: list[float] = []
    for line_no, raw in enumerate(lines, start=1):
        if limit is not None and len(vals) >= limit:
            break
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        try:
            v = float(s)
        except ValueError:
            raise TableParseError(label, line_no,
                                  f"non-numeric ordinate {s!r}") from None
        if not math.isfinite(v) or v <= 0:
            raise TableParseError(label, line_no,
                                  f"ordinate must be positive, got {s!r}")
        if vals and v <= vals[-1]:
            raise TableParseError(label, line_no,
                                  f"ordinate {v} not above previous {vals[-1]}")
        vals.append(v)
    table = ZeroTable(ordinates=np.array(vals, dtype=np.float64),
                      source_label=label)
    validate_table(table.ordinates, label)
    return table


def load_zeros(path, limit: int | None = None) -> ZeroTable:
    """Load a one-ordinate-per-line table, applying the validation gates."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_table(f, str(path), limit)


def builtin_table(name: str = "10k", limit: int | None = None) -> ZeroTable:
    """Bundled tables: '10k' (first 10500 ordinates) or 'first100'."""
    fname = {"10k": "zeros_10k.txt", "first100": "zeros_first100.txt"}[name]
    text = (resources.files("ppcount") / "data" / fname).read_text("utf-8")
    return parse_table(text.splitlines(), f"builtin:{fname}", limit)


def count_below(table: ZeroTable, T: float) -> int:
    """N(T) = #{gamma in table : 0 < gamma < T}."""
    table.check_covers(T)
    return int(np.searchsorted(table.ordinates, T, side="left"))


def sum_inv_gamma(table: ZeroTable, T: float) -> float:
    """Sum of 1/gamma over table ordinates below T."""
    table.check_covers(T)
    k = np.searchsorted(table.ordinates, T, side="left")
    return float(math.fsum(1.0 / table.ordinates[:k][::-1]))


def inv_gamma_sq_beyond(M: float, n_below: int) -> float:
    """Analytic upper bound on sum of 1/gamma^2 over gamma > M.

    Partial summation against N(t) <= (t/2pi) log(t/2pi) gives
    (log(M/2pi) + 1)/(pi M) - N(M)/M^2.
    """
    if M <= TWO_PI:
        raise DomainError(f"tail bound requires M > 2*pi, got {M}")
    return max(0.0, (math.log(M / TWO_PI) + 1.0) / (math.pi * M)
               - n_below / (M * M))


def sum_inv_gamma_sq_tail(table: ZeroTable, T: float) -> tuple[float, float]:
    """(in-table sum of 1/gamma^2 over gamma > T, analytic bound on the
    remainder beyond the table).

    If T is at or beyond the table's end the in-table part is 0 and the
    whole tail is covered by the analytic bound.
    """
    g = table.ordinates
    k = np.searchsorted(g, T, side="right")
    in_table = float(math.fsum((1.0 / g[k:] ** 2)[::-1]))
    M = max(T, table.max_ordinate)
    bound = inv_gamma_sq_beyond(M, n_below=len(g))
    return in_table, bound
