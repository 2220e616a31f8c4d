"""Arithmetic classification of frequencies.

Diophantine constants (empirical and certified), Brjuno partial sums,
Khintchine-Levy tolerance-band membership, and the universal constants
kappa, kappa' (Gauss-measure averages of log a_1 and log(1 + a_1)) and
ell = pi^2 / (12 log 2).

Membership verdicts computed from a finite expansion are diagnostics,
never certificates: convergence-class membership is undecidable from
finitely many quotients.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Optional

from ._record import Record
from .contfrac import ContinuedFraction, DepthExhausted, _divisor_ends

LN2 = math.log(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0

_CONSTANTS_MEMO: dict = {}


class KhintchineConstants(Record):
    """kappa, kappa' with a rigorous tail bound for the series evaluation."""

    kappa: float
    kappa_prime: float
    tail_bound: float
    terms: int

    @property
    def ratio(self) -> float:
        return self.kappa_prime / self.kappa

    @property
    def t_minus_max(self) -> float:
        """Largest useful lower-band width: kappa - log(golden ratio)."""
        return self.kappa - math.log(PHI)


def _gauss_tail_enclosure(M: int, shifted: bool):
    """Enclosure of sum_{k >= M} log(k + s) * log2(1 + 1/(k(k+2))), s in {0,1}.

    The summand is decreasing for k >= 8, so the sum lies between the
    integral from M and the integral plus the first term.  The integrand is
    bracketed through u(1 - u/2) <= log(1+u) <= u with u = 1/(x(x+2)) and
    1/(x+1)^2 <= u(x) <= (1 + 2/(x+1)^2)/(x+1)^2, both valid here, giving
    closed-form integrals.
    """
    assert M >= 8
    u_M = 1.0 / (M * (M + 2))
    if shifted:
        integral = (math.log(M + 1) + 1.0) / (M + 1)
    else:
        integral = math.log(M) / (M + 1) + math.log1p(1.0 / M)
    integral /= LN2
    first = math.log(M + (1 if shifted else 0)) * math.log1p(u_M) / LN2
    hi = first + integral * (1.0 + 2.0 / (M + 1) ** 2)
    lo = integral * (1.0 - u_M / 2.0)
    return lo, hi


def khintchine_constants(tolerance: float = 1e-8) -> KhintchineConstants:
    """Evaluate kappa and kappa' from the Gauss-interval weight series.

    kappa  = sum_{k>=1} log(k)   * log2((k+1)^2 / (k(k+2)))
    kappa' = sum_{k>=1} log(k+1) * log2((k+1)^2 / (k(k+2)))

    Terms are summed until the rigorous integral-comparison tail bound
    drops below ``tolerance``; the returned values carry that bound.
    """
    if not 1e-10 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 1e-10, got {tolerance}")
    if tolerance in _CONSTANTS_MEMO:
        return _CONSTANTS_MEMO[tolerance]

    K = 64
    while True:
        lo0, hi0 = _gauss_tail_enclosure(K + 1, shifted=False)
        lo1, hi1 = _gauss_tail_enclosure(K + 1, shifted=True)
        half_width = max(hi0 - lo0, hi1 - lo1) / 2.0
        if half_width < 0.5 * tolerance or K >= 1 << 26:
            break
        K *= 2

    # log(k) for k = 1 .. K + 1 and the weights for k = 1 .. K; map stops at
    # the shorter list, so the second sum pairs log(k + 1) with weight k
    logs = list(map(math.log, range(1, K + 2)))
    weights = [math.log1p(1.0 / (k * (k + 2.0))) / LN2 for k in range(1, K + 1)]
    kappa = math.fsum(map(operator.mul, logs, weights))
    kappa_prime = math.fsum(map(operator.mul, itertools.islice(logs, 1, None), weights))
    kappa += (lo0 + hi0) / 2.0
    kappa_prime += (lo1 + hi1) / 2.0
    # half-width of the tail enclosure plus rounding slop of the terms
    bound = half_width + 1e-13

    result = KhintchineConstants(
        kappa=kappa, kappa_prime=kappa_prime, tail_bound=bound, terms=K
    )
    _CONSTANTS_MEMO[tolerance] = result
    return result


class KLParams(Record):
    """Tolerance-band parameters for Khintchine-Levy membership.

    beta = kappa - T_minus, beta' = kappa' + T_plus, gamma = beta'/beta.
    T_minus must stay below kappa - log(phi): otherwise the lower band is
    weaker than the universal Fibonacci lower bound on q_n.
    """

    T_minus: float
    T_plus: float
    N: int
    kappa: float
    kappa_prime: float

    def __post_init__(self):
        if not (self.T_minus >= 0 and 0 <= self.T_plus < math.inf):
            raise ValueError(
                f"band widths must be finite numbers >= 0, got {self.T_minus}, {self.T_plus}"
            )
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.T_minus >= self.kappa - math.log(PHI):
            raise ValueError(
                f"T_minus={self.T_minus} >= kappa - log(phi) "
                f"~ {self.kappa - math.log(PHI):.4f}: lower band weaker than the "
                "Fibonacci bound"
            )

    @property
    def beta(self) -> float:
        return self.kappa - self.T_minus

    @property
    def beta_prime(self) -> float:
        return self.kappa_prime + self.T_plus

    @property
    def gamma(self) -> float:
        return self.beta_prime / self.beta


def kl_params(
    T_minus: float, T_plus: float, N: int, tolerance: float = 1e-8
) -> KLParams:
    c = khintchine_constants(tolerance)
    return KLParams(
        T_minus=T_minus, T_plus=T_plus, N=N, kappa=c.kappa, kappa_prime=c.kappa_prime
    )


# ---------------------------------------------------------------------------
# Diophantine constants
# ---------------------------------------------------------------------------


def _check_tau(tau: float) -> None:
    """Reject a Diophantine exponent tau that is not a finite number >= 1."""
    if not 1 <= tau < math.inf:
        raise ValueError(f"tau must be a finite number >= 1, got {tau}")


def certified_from_recursive(C_recursive: float) -> float:
    """Map the recursive-inequality constant to a certified Diophantine one:
    C / (2 + C), rounded down."""
    c = Fraction(C_recursive)
    return _float_outward(c / (2 + c), -1)


class DiophantineCert(Record):
    """Empirical and certified Diophantine constants for a fixed exponent.

    ``C_empirical_lo/hi`` enclose min_n q_n^tau |q_n omega - p_n| over the
    tested depth (exact Fractions for an integer tau with tau
    bits(q_{depth+1}) <= 2^16, otherwise floats from the logs of the
    integers, conservatively widened), rounded outward to floats.
    ``C_recursive`` and ``C_certified`` are rounded down.  ``C_certified``
    comes from the recursive inequalities q_{n+1} <= C^-1 q_n^tau and
    a_{n+1} <= C^-1 q_n^(tau-1) via C -> C/(2+C) and is always <= that
    minimum, so <= C_empirical_hi.
    """

    tau: float
    C_empirical_lo: float
    C_empirical_hi: float
    C_recursive: float
    C_certified: float
    depth: int


def _float_outward(x, sign: int) -> float:
    """x as a float, rounded down for sign -1 and up for +1.

    A float (the log path's ends, already moved outward) passes unchanged;
    float() of a Fraction rounds to nearest, which may be inward.
    """
    f = float(x)
    inward = f > x if sign < 0 else f < x
    return math.nextafter(f, sign * math.inf) if inward else f


def _exp_outward(logs, sign: int) -> float:
    """e^(sum of ``logs``) moved outward, down for sign -1 and up for +1.

    The logs of integers stay finite where the integers or their ratios
    leave the float range.  The move is 1e-12 plus a bound on the
    rounding of the logs and of their sum, which grows with their size;
    +inf for either sign past the float range.
    """
    total = math.fsum(logs)
    if total >= 709.0:
        return math.inf
    slack = 1e-12 + 2.0**-48 * math.fsum(map(abs, logs))
    return math.exp(total) * (1.0 + sign * slack)


def diophantine_constant(
    cf: ContinuedFraction, tau: float, depth: int
) -> DiophantineCert:
    """Empirical + certified Diophantine constants from the first ``depth`` levels.

    The empirical minimum over convergents equals the infimum over all
    integer pairs up to q_depth: for q_n <= q < q_{n+1} the distance of
    q*omega to the nearest integer is at least |q_n omega - p_n|.
    """
    _check_tau(tau)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cf.require_depth(depth + 1, f"diophantine_constant(depth={depth})")

    # exact products for an integer tau while they stay small, tau
    # bits(q_{depth+1}) <= 2^16; past that q_n^tau is compared in logs
    small = tau * cf.q[depth + 1].bit_length() <= 1 << 16
    tau_int = int(tau) if small and float(tau).is_integer() else None
    emp_lo = None
    emp_hi = None
    for n in range(0, depth + 1):
        _, x_lo, d_lo, x_hi, d_hi = _divisor_ends(cf, cf.q[n], cf.p[n], zero_end=True)
        if tau_int is not None:
            scale = Fraction(cf.q[n]) ** tau_int
            v_lo, v_hi = scale * Fraction(x_lo, d_lo), scale * Fraction(x_hi, d_hi)
        else:
            log_scale = tau * math.log(cf.q[n])
            v_lo = _exp_outward((log_scale, math.log(x_lo), -math.log(d_lo)), -1) if x_lo else 0.0
            v_hi = _exp_outward((log_scale, math.log(x_hi), -math.log(d_hi)), 1)
        if emp_hi is None or v_hi < emp_hi:
            emp_hi = v_hi
        if emp_lo is None or v_lo < emp_lo:
            emp_lo = v_lo

    # min over n of q_n^tau / q_{n+1} and q_n^(tau-1) / a_{n+1}; at n = 0
    # the second is 1/a_1, so C_rec <= 1 even where the terms leave the
    # float range
    C_rec = None
    for n in range(0, depth):
        q_n, q_n1, a_n1 = cf.q[n], cf.q[n + 1], cf.quotients[n]
        if tau_int is not None:
            cand = min(Fraction(q_n**tau_int, q_n1), Fraction(q_n ** (tau_int - 1), a_n1))
        else:
            log_q = math.log(q_n)
            cand = min(
                _exp_outward((tau * log_q, -math.log(q_n1)), -1),
                _exp_outward(((tau - 1.0) * log_q, -math.log(a_n1)), -1),
            )
        if C_rec is None or cand < C_rec:
            C_rec = cand
    C_rec = _float_outward(C_rec, -1)

    return DiophantineCert(
        tau=tau,
        C_empirical_lo=_float_outward(emp_lo, -1),
        C_empirical_hi=_float_outward(emp_hi, 1),
        C_recursive=C_rec,
        C_certified=certified_from_recursive(C_rec),
        depth=depth,
    )


# ---------------------------------------------------------------------------
# Brjuno partial sums and Khintchine-Levy membership
# ---------------------------------------------------------------------------


class BrjunoPartialSum(Record):
    value: float
    last_term: float
    depth: int


def brjuno_partial_sum(cf: ContinuedFraction, depth: int) -> BrjunoPartialSum:
    """Partial sum of log(q_{n+1}) / q_n for n = 1 .. depth.

    The last term is reported as a convergence diagnostic; no rigorous
    tail exists without a growth assumption on the quotients.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cf.require_depth(depth + 1, f"brjuno_partial_sum(depth={depth})")
    terms = []
    for n in range(1, depth + 1):
        # rounded once at any size of q_n, down to 0.0 past the float range
        terms.append(float(Fraction(math.log(cf.q[n + 1])) / cf.q[n]))
    return BrjunoPartialSum(value=math.fsum(terms), last_term=terms[-1], depth=depth)


class KLVerdicts(Record):
    """Finite-depth band-membership diagnostics (not certificates)."""

    lower_KL: bool
    upper_KL_prime: bool
    KLBrj: bool
    first_lower_violation: Optional[int] = None
    first_upper_violation: Optional[int] = None


def kl_membership(
    cf: ContinuedFraction, params: KLParams, depth: int
) -> KLVerdicts:
    """Check e^(beta n) <= M_n and M'_n <= e^(beta' n) for N <= n <= depth.

    M_n = a_1 ... a_n and M'_n = (a_1 + 1) ... (a_n + 1).  Comparisons run
    in float log space: log M_n and log M'_n are running sums of log a_k
    and log(a_k + 1).
    """
    if depth < params.N:
        raise DepthExhausted(f"depth {depth} < N = {params.N}")
    cf.require_depth(depth, f"kl_membership(depth={depth})")
    log_M = 0.0
    log_Mp = 0.0
    lower_ok = True
    upper_ok = True
    first_lo = None
    first_up = None
    for n in range(1, depth + 1):
        a = cf.quotients[n - 1]
        log_M += math.log(a)
        log_Mp += math.log(a + 1)
        if n < params.N:
            continue
        if log_M < params.beta * n and lower_ok:
            lower_ok = False
            first_lo = n
        if log_Mp > params.beta_prime * n and upper_ok:
            upper_ok = False
            first_up = n
    return KLVerdicts(
        lower_KL=lower_ok,
        upper_KL_prime=upper_ok,
        KLBrj=lower_ok and upper_ok,
        first_lower_violation=first_lo,
        first_upper_violation=first_up,
    )


def levy_example_bound():
    """(ell, G) for the ideal geometric denominator sequence q_n = e^(ell n).

    ell = pi^2 / (12 log 2); G = e^ell (e^-1 + ell^-1) bounds the weighted
    series sum e^(-q_n Delta) q_{n+1} by G / Delta for that sequence.
    """
    ell = math.pi**2 / (12.0 * LN2)
    G = math.exp(ell) * (math.exp(-1.0) + 1.0 / ell)
    return ell, G
