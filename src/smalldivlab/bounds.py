"""Brjuno-like function evaluation and every closed-form bound on it.

The two weighted series over convergent denominators,

    brj1(Delta) = sum_{n>=1} e^(-q_n Delta) q_{n+1}
    brj2(Delta) = sum_{n>=1} e^(-q_n Delta) q_{n+1} log a_{n+1}

and their combination brj(Delta) = 2 brj1(Delta) + brj2(2 Delta), are
evaluated in log space with exactly rounded summation.  Right-hand sides
for the Diophantine and Khintchine-Levy estimates are provided, together
with finite-part corrections, majorant series for cross-validation, and
the loss-of-domain factor Gamma0(delta) assembled from the three
partition components.

Terms whose log-magnitude falls below -746 underflow double precision
and are dropped; the drop is accounted for in the tail note.  A rigorous
tail bound is attached exactly when a growth certificate for the
denominators is supplied; otherwise tails are labeled heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .classify import PHI, KLParams
from .contfrac import ContinuedFraction, mul_big_float

LOG_PHI = math.log(PHI)
_UNDERFLOW_LOG = -746.0
_OVERFLOW_LOG = 709.0


def _exp_sat(lt: float) -> float:
    """exp with saturation to +inf instead of OverflowError."""
    return math.exp(lt) if lt < _OVERFLOW_LOG else math.inf


# ---------------------------------------------------------------------------
# Euler Gamma and its derivative
# ---------------------------------------------------------------------------


def _require_rate(name: str, value: float) -> None:
    """Reject a decay rate (delta or Delta) that is not a finite number > 0."""
    if value <= 0:
        raise ValueError(f"{name} must be > 0")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _digamma(x: float) -> float:
    """Digamma via upward recurrence and the asymptotic expansion.

    Relative error below 1e-12 on [0.5, 20].
    """
    value = 0.0
    while x < 12.0:
        value -= 1.0 / x
        x += 1.0
    r = 1.0 / x
    value += math.log(x) - 0.5 * r
    r2 = r * r
    # Bernoulli tail B_2/2 x^-2 + B_4/4 x^-4 + ...
    value -= r2 * (
        1.0 / 12.0
        - r2 * (1.0 / 120.0 - r2 * (1.0 / 252.0 - r2 * (1.0 / 240.0 - r2 / 132.0)))
    )
    return value


def _check_gamma_domain(x: float):
    if not 0.5 <= x <= 10.0:
        raise ValueError(f"gamma evaluator domain is [0.5, 10]; got {x}")


def gamma_eul(x: float) -> float:
    """Euler Gamma on [0.5, 10]."""
    _check_gamma_domain(x)
    return math.gamma(x)


def gamma_eul_prime(x: float) -> float:
    """Derivative of Euler Gamma on [0.5, 10], via Gamma(x) * psi(x)."""
    _check_gamma_domain(x)
    return math.gamma(x) * _digamma(x)


# ---------------------------------------------------------------------------
# growth certificates and the BrjunoValue container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiophGrowth:
    """Certified recursion q_{n+1} <= C^-1 q_n^tau, a_{n+1} <= C^-1 q_n^(tau-1)."""

    C: float
    tau: float


@dataclass(frozen=True)
class KLGrowth:
    """Certified upper band q_{n+1} <= e^(beta' (n+1))."""

    beta_prime: float


GrowthCert = Union[DiophGrowth, KLGrowth, None]


@dataclass(frozen=True)
class BrjunoValue:
    """Truncated series value with depth, last term and a tagged tail.

    ``tail_kind`` is "rigorous" when a growth certificate justified a hard
    bound on the remainder, else "heuristic" (the bound field then holds
    the trailing-terms sum as a convergence indicator only).
    """

    value: float
    depth: int
    last_term: float
    tail_kind: str
    tail_bound: float
    tail_note: str = ""

    @property
    def upper(self) -> float:
        """value + tail bound; a true upper bound only when tail is rigorous."""
        return self.value + self.tail_bound


def _term_log(qn: int, qnext: int, Delta: float, log_qnext: float):
    """log of e^(-q_n Delta) q_{n+1}, or None when it underflows doubles.

    q_n * Delta is computed as an exact big-integer-times-float product
    rounded once, so huge q_n cannot cancel catastrophically (and cannot
    overflow the conversion; an oversized product just drops the term).
    """
    b = qn.bit_length()
    if b > 64 and (b - 1) * 0.6931 + math.log(Delta) > math.log(log_qnext + 800.0):
        return None  # q_n Delta >= 2^(b-1) Delta already kills the term
    lt = log_qnext - mul_big_float(qn, Delta)
    return None if lt < _UNDERFLOW_LOG else lt


def _brj_terms(cf: ContinuedFraction, Delta: float, depth: int, weighted: bool):
    """List of series terms for n = 1..depth (0.0 where dropped/vanishing)."""
    terms = []
    dropped = 0
    for n in range(1, depth + 1):
        qn, qnext = cf.q[n], cf.q[n + 1]
        a_next = cf.quotients[n]  # a_{n+1}
        if weighted and a_next == 1:
            terms.append(0.0)
            continue
        log_qnext = math.log(qnext)
        lt = _term_log(qn, qnext, Delta, log_qnext)
        if weighted and lt is not None:
            w = math.log(a_next)
            lt = lt + math.log(w) if w > 0 else None
        if lt is None:
            terms.append(0.0)
            dropped += 1
        else:
            terms.append(_exp_sat(lt))
    return terms, dropped


def _tail_bound(
    cf: ContinuedFraction, Delta: float, depth: int, growth: GrowthCert, weighted: bool
):
    """Rigorous remainder bound past ``depth`` under a growth certificate.

    Denominators beyond the expansion are lower-bounded through the
    recurrence (s1 = q_d + q_{d-1}, s2 = s1 + q_d, then doubling every two
    steps), and each certified term majorant must decay by at least 1/2
    per doubling for the geometric closure to apply.  Returns (bound,
    note) or None when the domination conditions fail at this depth.
    """
    d = depth
    q_d = cf.q[d]
    q_dm1 = cf.q[d - 1] if d >= 1 else 0
    s1 = q_d + q_dm1
    s2 = s1 + q_d
    if s1.bit_length() > 1020:
        # s1 * Delta overflows doubles long before the term weights
        # (bounded by ~tau * 0.7 * bits + |log C| resp. beta' * (d + 2))
        # can compensate, so every remainder majorant underflows to zero
        # and the decay ratio is far below 1/2.
        x1 = Fraction(s1) * Fraction(Delta)
        weight_cap = (
            abs(math.log(growth.C)) + growth.tau * 0.694 * s2.bit_length() + 50.0
            if isinstance(growth, DiophGrowth)
            else growth.beta_prime * (d + 3) + 50.0
        )
        if x1 > weight_cap - _UNDERFLOW_LOG:
            return 0.0, "remainder terms underflow double precision"
        return None
    s1f, s2f = float(s1), float(s2)

    if isinstance(growth, DiophGrowth):
        C, tau = growth.C, growth.tau
        if s1f * Delta < tau:  # majorant not yet decreasing
            return None
        weight_growth = 1.0 + (
            (tau - 1.0) * math.log(2.0) / math.log(1.0 / C) if C < 1.0 and tau > 1.0 else 0.0
        )
        if (2.0**tau) * weight_growth * math.exp(-s1f * Delta) > 0.5:
            return None

        def majorant(s: float) -> float:
            base = math.log(1.0 / C) + tau * math.log(s) - s * Delta
            if weighted:
                w = math.log(1.0 / C) + (tau - 1.0) * math.log(s)
                if w <= 0:
                    return 0.0
                base += math.log(w)
            return math.exp(base) if base > _UNDERFLOW_LOG else 0.0

        bound = 2.0 * (majorant(s1f) + majorant(s2f))
        return bound, f"diophantine growth certificate (C={C}, tau={tau})"

    if isinstance(growth, KLGrowth):
        bp = growth.beta_prime
        extra = 2.0 * math.log(2.0) if weighted else 0.0
        if s1f * Delta < 2.0 * bp + math.log(2.0) + extra:
            return None

        def majorant(n: int, s: float) -> float:
            base = bp * (n + 1) - s * Delta
            if weighted:
                base += math.log(bp * (n + 1))
            return math.exp(base) if base > _UNDERFLOW_LOG else 0.0

        bound = 2.0 * (majorant(d + 1, s1f) + majorant(d + 2, s2f))
        return bound, f"upper-band growth certificate (beta'={bp})"

    return None


def _brj_eval(
    cf: ContinuedFraction,
    Delta: float,
    depth: int,
    growth: GrowthCert,
    weighted: bool,
) -> BrjunoValue:
    _require_rate("Delta", Delta)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return BrjunoValue(0.0, 0, 0.0, "heuristic", 0.0, "empty sum")
    cf.require_depth(depth + 1, f"{'brj2' if weighted else 'brj1'}(depth={depth})")
    terms, dropped = _brj_terms(cf, Delta, depth, weighted)
    value = math.fsum(terms)
    last_term = terms[-1]
    tail = _tail_bound(cf, Delta, depth, growth, weighted) if growth else None
    if tail is not None:
        bound, note = tail
        if dropped:
            note += f"; {dropped} underflowed terms absorbed"
        return BrjunoValue(value, depth, last_term, "rigorous", bound, note)
    k = min(3, depth)
    trailing = math.fsum(terms[-k:])
    note = f"last {k}-term sum" + (f"; {dropped} terms underflowed" if dropped else "")
    return BrjunoValue(value, depth, last_term, "heuristic", trailing, note)


def brj1(
    cf: ContinuedFraction, Delta: float, depth: int, growth: GrowthCert = None
) -> BrjunoValue:
    """sum_{n=1}^{depth} e^(-q_n Delta) q_{n+1}, log-space, exactly summed."""
    return _brj_eval(cf, Delta, depth, growth, weighted=False)


def brj2(
    cf: ContinuedFraction, Delta: float, depth: int, growth: GrowthCert = None
) -> BrjunoValue:
    """sum_{n=1}^{depth} e^(-q_n Delta) q_{n+1} log a_{n+1}."""
    return _brj_eval(cf, Delta, depth, growth, weighted=True)


def brj_combined(
    cf: ContinuedFraction, Delta: float, depth: int, growth: GrowthCert = None
) -> BrjunoValue:
    """2 brj1(Delta) + brj2(2 Delta); tails combine additively."""
    b1 = brj1(cf, Delta, depth, growth)
    b2 = brj2(cf, 2.0 * Delta, depth, growth)
    kind = "rigorous" if b1.tail_kind == b2.tail_kind == "rigorous" else "heuristic"
    return BrjunoValue(
        value=2.0 * b1.value + b2.value,
        depth=depth,
        last_term=2.0 * b1.last_term + b2.last_term,
        tail_kind=kind,
        tail_bound=2.0 * b1.tail_bound + b2.tail_bound,
        tail_note=f"combined: [{b1.tail_note}] + [{b2.tail_note}]",
    )


# ---------------------------------------------------------------------------
# class bounds, reports and the loss-of-domain factor
# ---------------------------------------------------------------------------


def _away_leading(omega: float) -> float:
    """Leading constant 4/(1+omega) + 2/(1-omega) of the away-class bound."""
    return 4.0 / (1.0 + omega) + 2.0 / (1.0 - omega)


def _const_type_leading(omega: float, mu: float = 1.0) -> float:
    """mu * 8/(1+omega)^2, the const-type class bound times delta^2."""
    return mu * 8.0 / (1.0 + omega) ** 2


def _brjuno_box_bound(cf: ContinuedFraction, delta: float, mu: float) -> float:
    """Brjuno-class bound 2((2+eps) brj1(Delta) + (1+eps) brj2(2 Delta)).

    Delta = (1+omega) delta, eps = mu - 1, both series to full depth.
    """
    Delta = (1.0 + cf.omega_float()) * delta
    eps = mu - 1.0
    depth = cf.depth - 1
    return 2.0 * (
        (2.0 + eps) * brj1(cf, Delta, depth).value
        + (1.0 + eps) * brj2(cf, 2.0 * Delta, depth).value
    )


@dataclass(frozen=True)
class BoundReport:
    """Structured comparison of a computed quantity against a closed-form bound."""

    quantity: str
    computed: float
    bound: float
    params: dict

    @property
    def margin(self) -> float:
        return self.bound - self.computed

    @property
    def verdict(self) -> bool:
        return self.margin >= 0.0


@dataclass(frozen=True)
class GammaDelta:
    """Leading-order loss-of-domain factor and its three components.

    Gamma0 = 2 brj((1+omega) delta) + (8/(1+omega)^2) delta^-2
           + (4/(1+omega) + 2/(1-omega)) delta^-1 log(delta^-1)

    The vanishing-with-delta increments of the two absolute constants are
    not in closed form; callers comparing empirical data apply their own
    margin factor ``mu`` (echoed here, default 1.25).
    """

    delta: float
    Delta: float
    omega: float
    omega_halfwidth: float
    brj: BrjunoValue
    brj_term: float
    const_type_term: float
    away_term: float
    mu: float

    @property
    def G_away_leading(self) -> float:
        return _away_leading(self.omega)

    @property
    def G_const_type_leading(self) -> float:
        return _const_type_leading(self.omega)

    @property
    def Gamma0(self) -> float:
        return self.brj_term + self.const_type_term + self.away_term


def gamma_delta(
    cf: ContinuedFraction,
    rho: float,
    delta: float,
    depth: Optional[int] = None,
    mu: float = 1.25,
    growth: GrowthCert = None,
) -> GammaDelta:
    """Assemble Gamma0(delta) for a strip shrink of delta inside radius rho."""
    if not 0.0 < delta < rho:
        raise ValueError(f"delta must lie in (0, rho) = (0, {rho}); got {delta}")
    if delta * math.e >= 1.0:
        raise ValueError("delta must satisfy log(1/delta) > 1, i.e. delta < 1/e")
    if mu < 1.0:
        raise ValueError("mu must be >= 1")
    if depth is None:
        depth = cf.depth - 1
    omega = cf.omega_float()
    lo, hi = cf.bracket
    halfwidth = float(hi - lo) / 2.0
    Delta = (1.0 + omega) * delta
    combined = brj_combined(cf, Delta, depth, growth)
    log_inv = math.log(1.0 / delta)
    away = _away_leading(omega) / delta * log_inv
    const_type = _const_type_leading(omega) / delta**2
    return GammaDelta(
        delta=delta,
        Delta=Delta,
        omega=omega,
        omega_halfwidth=halfwidth,
        brj=combined,
        brj_term=2.0 * combined.value,
        const_type_term=const_type,
        away_term=away,
        mu=mu,
    )


# ---------------------------------------------------------------------------
# Diophantine right-hand sides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiophBound:
    """Right-hand sides of the Diophantine series estimates.

    rhs1 bounds brj1(Delta), rhs2 bounds brj2(Delta), both of the shape
    prefactor * Delta^-tau * P(log(1/Delta)) with monic P of degree 1
    (resp. 2).  At tau = 1 the quadratic degenerates: P2 becomes
    C log(1/C) X + log(3 phi) + e/2 and the coefficient of
    Delta^-1 log(1/Delta) collapses to e^-1 log(1/C) / log(phi).
    """

    C: float
    tau: float
    Delta: float
    rhs1: float
    rhs2: float
    G1_0: float
    G2_1: Optional[float]
    G2_0: Optional[float]
    branch: str  # "general" | "tau1"


def dioph_smallness_threshold(tau: float) -> float:
    return min(1.0 / tau, tau / math.e)


def dioph_bound_rhs(C: float, tau: float, Delta: float) -> DiophBound:
    """Evaluate both Diophantine right-hand sides and their coefficients."""
    if C <= 0:
        raise ValueError("C must be > 0")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    thr = dioph_smallness_threshold(tau)
    if Delta > thr:
        raise ValueError(
            f"Delta={Delta} above the smallness threshold min(1/tau, tau/e) = {thr}"
        )
    X = math.log(1.0 / Delta)
    peak = (tau / math.e) ** tau
    lead = peak / LOG_PHI
    G1_0 = math.log(3.0 * tau * PHI) + gamma_eul(tau) / (2.0 * peak)
    rhs1 = (lead / C) * Delta ** (-tau) * (X + G1_0)
    if tau == 1.0:
        P2 = C * math.log(1.0 / C) * X + math.log(3.0 * PHI) + math.e / 2.0
        rhs2 = (lead / C) * Delta ** (-1.0) * P2
        return DiophBound(C, tau, Delta, rhs1, rhs2, G1_0, None, None, "tau1")
    ClogC = C * math.log(1.0 / C)
    G2_1 = ClogC / (tau - 1.0) + gamma_eul(tau) / (2.0 * peak) + math.log(
        3.0 * PHI * (tau + 1.0) ** 2
    )
    G2_0 = (
        ClogC / (tau - 1.0) * (math.log(3.0 * PHI * tau) + gamma_eul(tau) / (2.0 * peak))
        + math.log(3.0 * PHI * (tau + 1.0)) * math.log(tau + 1.0)
        + gamma_eul_prime(tau) / peak
    )
    rhs2 = (lead / C) * (tau - 1.0) * Delta ** (-tau) * (X * X + G2_1 * X + G2_0)
    return DiophBound(C, tau, Delta, rhs1, rhs2, G1_0, G2_1, G2_0, "general")


# ---------------------------------------------------------------------------
# Khintchine-Levy right-hand sides and Table-1 constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KLBound:
    G_KLB1: float
    G_KLB21: float
    G_KLB22: float
    rhs1: float
    rhs2: float
    gamma: float


def kl_bound_constants(params: KLParams):
    """(G_KLB1, G_KLB21, G_KLB22) for the band parameters.

    The log-weight constant G_KLB22 uses the Gamma-derivative integral
    value (the published reference table is generated from this variant;
    see the repository notes on the constant's two printed forms).
    """
    b, bp, g = params.beta, params.beta_prime, params.gamma
    T = params.T_minus + params.T_plus
    peak = (g / math.e) ** g
    Ge = gamma_eul(g)
    Gp = gamma_eul_prime(g)
    sigma1 = Ge / b + peak
    G1 = math.exp(bp) * sigma1
    G21 = math.exp(bp) * (T * sigma1 + peak * math.log(2.0 * g) + Gp / b)
    G22 = T * math.exp(bp) * (peak + Gp / (b * b))
    return G1, G21, G22


def kl_bound_rhs(params: KLParams, Delta: float) -> KLBound:
    """Evaluate the band right-hand sides G1 Delta^-g and (G21 + G22 log(1/Delta)) Delta^-g.

    The finite-part corrections (which may be negative) are handled
    separately by :func:`brj_fin_diff`.
    """
    _require_rate("Delta", Delta)
    G1, G21, G22 = kl_bound_constants(params)
    g = params.gamma
    scale = Delta ** (-g)
    return KLBound(
        G_KLB1=G1,
        G_KLB21=G21,
        G_KLB22=G22,
        rhs1=G1 * scale,
        rhs2=(G21 + G22 * math.log(1.0 / Delta)) * scale,
        gamma=g,
    )


def brj_fin_diff(cf: ContinuedFraction, m: int, Delta: float, params: KLParams):
    """Finite parts of the two series minus their idealized band analogues.

    d1 = sum_{n=1}^{m-1} e^(-q_n Delta) q_{n+1}
         - sum_{n=1}^{m-1} e^(-e^(beta n) Delta) e^(beta' (n+1))
    d2 is the analogue with weights log a_{n+1} and beta'(n+1) - beta n.
    Either difference may be negative.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cf.require_depth(m, f"brj_fin_diff(m={m})")
    b, bp = params.beta, params.beta_prime
    t1, i1, t2, i2 = [], [], [], []
    for n in range(1, m):
        qn, qnext = cf.q[n], cf.q[n + 1]
        a_next = cf.quotients[n]
        log_qnext = math.log(qnext)
        lt = _term_log(qn, qnext, Delta, log_qnext)
        term = _exp_sat(lt) if lt is not None else 0.0
        t1.append(term)
        t2.append(term * math.log(a_next))
        ideal_log = bp * (n + 1) - math.exp(b * n) * Delta
        ideal = math.exp(ideal_log) if ideal_log > _UNDERFLOW_LOG else 0.0
        i1.append(ideal)
        i2.append(ideal * (bp * (n + 1) - b * n))
    d1 = math.fsum(t1) - math.fsum(i1)
    d2 = math.fsum(t2) - math.fsum(i2)
    return d1, d2


TABLE1_GRID = (
    (0.0, 0.0),
    (0.1, 0.1),
    (0.1, 0.5),
    (0.1, 1.0),
    (0.1, 2.0),
    (0.2, 0.5),
    (0.2, 1.0),
    (0.2, 2.0),
    (0.5, 0.5),
    (0.5, 1.0),
    (0.5, 2.0),
)


def table1_rows(tolerance: float = 1e-8):
    """Constants grid over the standard band-parameter pairs."""
    from .classify import kl_params

    rows = []
    for t_minus, t_plus in TABLE1_GRID:
        params = kl_params(t_minus, t_plus, N=1, tolerance=tolerance)
        G1, G21, G22 = kl_bound_constants(params)
        rows.append(
            {
                "T_minus": t_minus,
                "T_plus": t_plus,
                "G_KLB1": G1,
                "G_KLB21": G21,
                "G_KLB22": G22,
            }
        )
    return rows


def format_table1_csv(rows) -> str:
    """CSV with 2-significant-digit scientific formatting."""
    lines = ["T_minus,T_plus,G_KLB1,G_KLB21,G_KLB22"]
    for row in rows:
        lines.append(
            f"{row['T_minus']},{row['T_plus']},"
            f"{row['G_KLB1']:.1e},{row['G_KLB21']:.1e},{row['G_KLB22']:.1e}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# majorant series and the sum-vs-integral check
# ---------------------------------------------------------------------------


def eval_majorant_series(
    kind: str,
    Delta: float,
    n_max: int,
    cf: Optional[ContinuedFraction] = None,
    tau: Optional[float] = None,
    beta: Optional[float] = None,
    beta_prime: Optional[float] = None,
) -> float:
    """Direct numeric evaluation of the majorant series for cross-validation.

    Kinds: "Dph1" = sum e^(-q_n Delta) q_n^tau, "Dph2" adds a log q_n
    weight (both need ``cf`` and ``tau``); "Sigma1" = sum e^(beta' n -
    e^(beta n) Delta), "Sigma2" adds an n weight (both need ``beta`` and
    ``beta_prime``).
    """
    _require_rate("Delta", Delta)
    if kind in ("Dph1", "Dph2"):
        if cf is None or tau is None:
            raise ValueError(f"{kind} needs cf and tau")
        cf.require_depth(n_max, f"eval_majorant_series({kind}, n_max={n_max})")
        terms = []
        for n in range(1, n_max + 1):
            qn = cf.q[n]
            log_qn = math.log(qn)
            lt = tau * log_qn - mul_big_float(qn, Delta)
            if kind == "Dph2":
                if log_qn <= 0.0:
                    terms.append(0.0)
                    continue
                lt += math.log(log_qn)
            terms.append(_exp_sat(lt) if lt > _UNDERFLOW_LOG else 0.0)
        return math.fsum(terms)
    if kind in ("Sigma1", "Sigma2"):
        if beta is None or beta_prime is None:
            raise ValueError(f"{kind} needs beta and beta_prime")
        terms = []
        for n in range(1, n_max + 1):
            if beta * n > 700.0:  # inner exponential alone kills the term
                terms.append(0.0)
                continue
            lt = beta_prime * n - math.exp(beta * n) * Delta
            if kind == "Sigma2" and lt > _UNDERFLOW_LOG:
                lt += math.log(n)
            terms.append(math.exp(lt) if lt > _UNDERFLOW_LOG else 0.0)
        return math.fsum(terms)
    raise ValueError(f"unknown majorant kind {kind!r}")


def sigma1_integral_bound_check(
    beta: float, beta_prime: float, Delta: float, N: int = 1, n_max: int = 4000
) -> BoundReport:
    """Sum-vs-integral majorization for B1(x) = e^(beta' x - e^(beta x) Delta).

    B1 has a single maximum at x1 = log(gamma / Delta) / beta with value
    (gamma/e)^gamma Delta^-gamma, and its integral over [N, inf) is at
    most Gamma(gamma) Delta^-gamma / beta, so the tail sum from N is
    bounded by the sum of the two.
    """
    g = beta_prime / beta
    computed = eval_majorant_series(
        "Sigma1", Delta, n_max, beta=beta, beta_prime=beta_prime
    )
    if N > 1:
        head = eval_majorant_series(
            "Sigma1", Delta, N - 1, beta=beta, beta_prime=beta_prime
        )
        computed -= head
    peak = (g / math.e) ** g * Delta ** (-g)
    integral = gamma_eul(g) / beta * Delta ** (-g)
    return BoundReport(
        quantity="sigma1_tail_sum",
        computed=computed,
        bound=peak + integral,
        params={
            "beta": beta,
            "beta_prime": beta_prime,
            "Delta": Delta,
            "N": N,
            "n_max": n_max,
            "peak": peak,
            "integral_bound": integral,
        },
    )
