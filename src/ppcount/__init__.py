"""Exact and analytic counting of numbers of the form p * m^k: sieved
counts, zeta(k) * li(x) main terms, and explicit-formula diagnostics
over tables of Riemann zeta zeros."""

__version__ = "0.1.0"

from .analytic import (exponents, interval_main_term, li, li_interval,
                       zeta_int)
from .arith import (LambdaSegment, PrimeTable, is_prime, lambda_segment,
                    prime_count_interval, psi, sieve_primes)
from .counting import (CountResult, CstarResult, PrimePowerCorrection,
                       Theorem3Report, annotate_count, count_exact,
                       count_interval, count_oracle, cstar,
                       interval_deviation, interval_scaling,
                       prime_power_correction, theorem3_experiment)
from .errors import (CapacityError, CoverageError, DomainError,
                     IntegrityError, PPCountError, TableParseError)
from .explicit import (TrapezoidWeight, ZeroSumBreakdown, psi1_exact,
                       psi1_via_zeros, s_delta_direct, s_delta_via_psi1,
                       s_delta_via_zeros, s_rho, weight_eval,
                       zero_sum_breakdown)
from .zeros import (ZeroTable, builtin_table, count_below, load_zeros,
                    rvm_estimate, sum_inv_gamma, sum_inv_gamma_sq_tail)

__all__ = [name for name in dir() if not name.startswith("_")]
