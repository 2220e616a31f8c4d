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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .contfrac import ContinuedFraction, DepthExhausted, divisor_interval

LN2 = math.log(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0

_CONSTANTS_MEMO: dict = {}


@dataclass(frozen=True)
class KhintchineConstants:
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
    if tolerance < 1e-10:
        raise ValueError("tolerance must be >= 1e-10")
    if tolerance in _CONSTANTS_MEMO:
        return _CONSTANTS_MEMO[tolerance]

    import numpy as np

    K = 64
    while True:
        lo0, hi0 = _gauss_tail_enclosure(K + 1, shifted=False)
        lo1, hi1 = _gauss_tail_enclosure(K + 1, shifted=True)
        half_width = max(hi0 - lo0, hi1 - lo1) / 2.0
        if half_width < 0.5 * tolerance or K >= 1 << 26:
            break
        K *= 2

    kappa = 0.0
    kappa_prime = 0.0
    chunk = 1 << 20
    start = 1
    while start <= K:
        stop = min(K, start + chunk - 1)
        k = np.arange(start, stop + 1, dtype=np.float64)
        w = np.log1p(1.0 / (k * (k + 2.0))) / LN2
        kappa += float(np.sum(np.log(k) * w))
        kappa_prime += float(np.sum(np.log(k + 1.0) * w))
        start = stop + 1
    kappa += (lo0 + hi0) / 2.0
    kappa_prime += (lo1 + hi1) / 2.0
    # half-width of the tail enclosure plus pairwise-summation rounding slop
    bound = half_width + 1e-13

    result = KhintchineConstants(
        kappa=kappa, kappa_prime=kappa_prime, tail_bound=bound, terms=K
    )
    _CONSTANTS_MEMO[tolerance] = result
    return result


def gauss_weight_partial_sum(K: int) -> float:
    """Telescoping partial sum of the Gauss-interval weights: log2(2(K+1)/(K+2))."""
    return math.log2(2.0 * (K + 1) / (K + 2))


@dataclass(frozen=True)
class KLParams:
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
        if self.T_minus < 0 or self.T_plus < 0:
            raise ValueError("band widths must be >= 0")
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


def certified_from_recursive(C_recursive: float) -> float:
    """Map the recursive-inequality constant to a certified Diophantine one."""
    return C_recursive / (2.0 + C_recursive)


@dataclass(frozen=True)
class DiophantineCert:
    """Empirical and certified Diophantine constants for a fixed exponent.

    ``C_empirical_lo/hi`` enclose min_n q_n^tau |q_n omega - p_n| over the
    tested depth (exact Fractions for integer tau, conservatively widened
    floats otherwise).  ``C_certified`` comes from the recursive
    inequalities q_{n+1} <= C^-1 q_n^tau and a_{n+1} <= C^-1 q_n^(tau-1)
    via C -> C/(2+C) and is always <= C_empirical.
    """

    tau: float
    C_empirical_lo: float
    C_empirical_hi: float
    C_recursive: float
    C_certified: float
    depth: int

    @property
    def C_empirical(self) -> float:
        return 0.5 * (self.C_empirical_lo + self.C_empirical_hi)


def diophantine_constant(
    cf: ContinuedFraction, tau: float, depth: int
) -> DiophantineCert:
    """Empirical + certified Diophantine constants from the first ``depth`` levels.

    The empirical minimum over convergents equals the infimum over all
    integer pairs up to q_depth: for q_n <= q < q_{n+1} the distance of
    q*omega to the nearest integer is at least |q_n omega - p_n|.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cf.require_depth(depth + 1, f"diophantine_constant(depth={depth})")

    tau_int = int(tau) if float(tau).is_integer() else None
    emp_lo = None
    emp_hi = None
    for n in range(0, depth + 1):
        d_lo, d_hi = divisor_interval(cf, cf.q[n], cf.p[n])
        a_lo, a_hi = (abs(d_lo), abs(d_hi)) if d_lo >= 0 else (abs(d_hi), abs(d_lo))
        if tau_int is not None:
            scale = Fraction(cf.q[n]) ** tau_int
            v_lo, v_hi = scale * a_lo, scale * a_hi
        else:
            scale = float(cf.q[n]) ** tau
            v_lo = scale * float(a_lo) * (1.0 - 1e-12)
            v_hi = scale * float(a_hi) * (1.0 + 1e-12)
        if emp_hi is None or v_hi < emp_hi:
            emp_hi = v_hi
        if emp_lo is None or v_lo < emp_lo:
            emp_lo = v_lo

    C_rec = None
    for n in range(0, depth):
        q_n, q_n1, a_n1 = cf.q[n], cf.q[n + 1], cf.quotients[n]
        cand = min(float(q_n) ** tau / q_n1, float(q_n) ** (tau - 1.0) / a_n1)
        if C_rec is None or cand < C_rec:
            C_rec = cand

    return DiophantineCert(
        tau=tau,
        C_empirical_lo=float(emp_lo),
        C_empirical_hi=float(emp_hi),
        C_recursive=C_rec,
        C_certified=certified_from_recursive(C_rec),
        depth=depth,
    )


# ---------------------------------------------------------------------------
# Brjuno partial sums and Khintchine-Levy membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrjunoPartialSum:
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
        q_n = cf.q[n]
        log_next = math.log(cf.q[n + 1])
        if q_n.bit_length() > 1020:
            terms.append(0.0)  # log(q_{n+1})/q_n underflows to 0 at this size
        else:
            terms.append(log_next / q_n)
    return BrjunoPartialSum(value=math.fsum(terms), last_term=terms[-1], depth=depth)


@dataclass(frozen=True)
class KLVerdicts:
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

    Comparisons run in float log space: log M_n and log M'_n are running
    sums of log a_k and log(a_k + 1), not reads of the big-integer
    products ``cf.M`` and ``cf.Mprime``.
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
