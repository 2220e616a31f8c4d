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
from typing import Optional, Union

from ._record import Record
from .classify import PHI, KLParams, _check_tau, kl_params
from .contfrac import ContinuedFraction, ExpansionError, mul_big_float

LOG_PHI = math.log(PHI)
_UNDERFLOW_LOG = -746.0
_OVERFLOW_LOG = 709.0

# ---------------------------------------------------------------------------
# Euler Gamma and its derivative
# ---------------------------------------------------------------------------


def _require_rate(name: str, value: float) -> None:
    """Reject a rate, radius or constant (delta, Delta, rho, epsilon, C,
    beta') that is not a finite number > 0."""
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


class DiophGrowth(Record):
    """Certified recursion q_{n+1} <= C^-1 q_n^tau, a_{n+1} <= C^-1 q_n^(tau-1)."""

    C: float
    tau: float

    def __post_init__(self):
        _require_rate("C", self.C)
        _check_tau(self.tau)


class KLGrowth(Record):
    """Certified upper band q_{n+1} <= e^(beta' (n+1))."""

    beta_prime: float

    def __post_init__(self):
        _require_rate("beta_prime", self.beta_prime)


GrowthCert = Union[DiophGrowth, KLGrowth, None]


class BrjunoValue(Record):
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


def _sum(terms) -> float:
    """Exactly rounded sum of non-negative terms; +inf past the float range,
    where math.fsum raises even when some term is already inf."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _term(s: int, Delta: float, log_weight: float, factor: float = 1.0):
    """factor * W e^(-s Delta) for log W = ``log_weight`` >= -800.

    The one place a series term or a tail majorant is formed: 0.0 for a
    factor <= 0, None when W e^(-s Delta) underflows doubles, +inf past the
    float range.  The product s Delta is rounded once from the big integer,
    so huge s can neither cancel catastrophically nor overflow the
    conversion.  A tail's log weight log(1/C) + tau log s is negative when
    C > 1, but never below -log(max float) > -710.
    """
    if factor <= 0.0:
        return 0.0
    b = s.bit_length()
    if b > 64 and (b - 1) * 0.6931 + math.log(Delta) > math.log(log_weight + 800.0):
        return None  # s Delta >= 2^(b-1) Delta already kills the term
    lt = log_weight - mul_big_float(s, Delta)
    if lt < _UNDERFLOW_LOG:
        return None
    lt += math.log(factor)
    return math.exp(lt) if lt < _OVERFLOW_LOG else math.inf


def _brj_terms(cf: ContinuedFraction, Delta: float, depth: int, weighted: bool):
    """Series terms for n = 1..depth (0.0 where dropped or vanishing) and
    the number dropped by underflow."""
    terms = []
    for n in range(1, depth + 1):
        factor = math.log(cf.quotients[n]) if weighted else 1.0  # log a_{n+1}
        terms.append(_term(cf.q[n], Delta, math.log(cf.q[n + 1]), factor))
    return [0.0 if t is None else t for t in terms], terms.count(None)


def _tail_bound(
    cf: ContinuedFraction, Delta: float, depth: int, growth: GrowthCert, weighted: bool
):
    """Rigorous remainder bound past ``depth`` under a growth certificate.

    The denominators past ``depth`` >= 1 are bounded below by
    ``cf.q_lower_bounds(depth)``, s1 and s2, which double every two levels,
    and each certified term majorant must decay by at least 1/2 per
    doubling for the geometric closure to apply.  The majorants of the
    terms at s1 and s2 are formed by ``_term``, as the series terms are, so
    s of any size takes the same path.  Returns (bound, note) or None when
    the domination conditions fail at this depth.
    """
    s1, s2 = cf.q_lower_bounds(depth)
    x1 = mul_big_float(s1, Delta)

    if isinstance(growth, DiophGrowth):
        C, tau = growth.C, growth.tau
        log_c = math.log(1.0 / C)
        weight_growth = 1.0 + (
            (tau - 1.0) * math.log(2.0) / log_c if C < 1.0 and tau > 1.0 else 0.0
        )
        # the majorant must have started decreasing, and each doubling of s
        # scales it by 2^tau weight_growth e^(-x1) <= 1/2, decided in logs
        if x1 < tau or (tau + 1.0) * math.log(2.0) + math.log(weight_growth) > x1:
            return None
        # (s, log C^-1 s^tau bounding q_{n+1}, log C^-1 s^(tau-1) bounding a_{n+1})
        majorants = [
            (s, log_c + tau * math.log(s), log_c + (tau - 1.0) * math.log(s)) for s in (s1, s2)
        ]
        note = f"diophantine growth certificate (C={C}, tau={tau})"
    elif isinstance(growth, KLGrowth):
        bp = growth.beta_prime
        extra = 2.0 * math.log(2.0) if weighted else 0.0
        if x1 < 2.0 * bp + math.log(2.0) + extra:
            return None
        # term n = d + 1 has q_n >= s1 and log q_{n+1} <= beta' (d + 2)
        w1, w2 = bp * (depth + 2), bp * (depth + 3)
        majorants = [(s1, w1, w1), (s2, w2, w2)]
        note = f"upper-band growth certificate (beta'={bp})"
    else:
        return None
    terms = (_term(s, Delta, lw, w if weighted else 1.0) for s, lw, w in majorants)
    return 2.0 * sum(t or 0.0 for t in terms), note


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
    value = _sum(terms)
    last_term = terms[-1]
    tail = _tail_bound(cf, Delta, depth, growth, weighted) if growth else None
    if tail is not None:
        bound, note = tail
        if dropped:
            note += f"; {dropped} underflowed terms absorbed"
        return BrjunoValue(value, depth, last_term, "rigorous", bound, note)
    k = min(3, depth)
    trailing = _sum(terms[-k:])
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


def _away_box_bound(cf: ContinuedFraction, delta: float, mu: float) -> float:
    """Away-class bound mu (4/(1+omega) + 2/(1-omega)) delta^-1 log(1/delta)."""
    return mu * (_away_leading(cf.omega_float()) / delta * math.log(1.0 / delta))


def _const_type_box_bound(cf: ContinuedFraction, delta: float, mu: float) -> float:
    """Const-type class bound mu 8/(1+omega)^2 delta^-2."""
    return _const_type_leading(cf.omega_float(), mu) / (delta * delta)


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


# The closed-form majorant of each class's box sum, as f(cf, delta, mu); at
# mu = 1 the three add up to Gamma0(delta).  _check_class_domain says where
# each is defined.
CLASS_BOUNDS = {
    "away": _away_box_bound,
    "const_type": _const_type_box_bound,
    "brjuno": _brjuno_box_bound,
}


def _check_class_domain(delta: float, mu: float, kinds=CLASS_BOUNDS) -> None:
    """Reject a delta or mu at which a class bound of ``kinds`` is undefined.

    The away bound needs log(1/delta) > 1, the const-type bound divides by
    delta^2, and mu scales every bound, so it must be a finite number > 0.
    """
    if "away" in kinds and delta * math.e >= 1.0:
        raise ValueError("delta must satisfy log(1/delta) > 1, i.e. delta < 1/e")
    if "const_type" in kinds and delta * delta == 0.0:
        raise ValueError(f"delta = {delta!r} is too small: delta**2 underflows to 0")
    _require_rate("mu", mu)


class BoundReport(Record):
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


class GammaDelta(Record):
    """Leading-order loss-of-domain factor and its three components, the
    class bounds of ``CLASS_BOUNDS`` at mu = 1.

    Gamma0 = 2 brj((1+omega) delta) + (8/(1+omega)^2) delta^-2
           + (4/(1+omega) + 2/(1-omega)) delta^-1 log(delta^-1)

    The vanishing-with-delta increments of the two absolute constants are
    not in closed form; callers comparing empirical data apply their own
    margin factor ``mu`` to Gamma0.
    """

    Delta: float
    omega: float
    omega_halfwidth: float
    brj_term: float
    const_type_term: float
    away_term: float

    @property
    def G_away_leading(self) -> float:
        return _away_leading(self.omega)

    @property
    def G_const_type_leading(self) -> float:
        return _const_type_leading(self.omega)

    @property
    def Gamma0(self) -> float:
        return self.brj_term + self.const_type_term + self.away_term


def _check_gamma_inputs(rho: float, delta: float, mu: float) -> None:
    """Reject a rho, delta or mu that ``gamma_delta`` cannot use."""
    _require_rate("rho", rho)
    if not 0.0 < delta < rho:
        raise ValueError(f"delta must lie in (0, rho) = (0, {rho}); got {delta}")
    # here mu is the margin factor over Gamma0's leading order
    if not 1.0 <= mu < math.inf:
        raise ValueError(f"mu must be a finite number >= 1, got {mu}")
    _check_class_domain(delta, mu)


def gamma_delta(cf: ContinuedFraction, rho: float, delta: float) -> GammaDelta:
    """Assemble Gamma0(delta) for a strip shrink of delta inside radius rho.

    Its three terms are the class bounds at mu = 1; the Brjuno series run
    to the full depth cf.depth - 1 with heuristic tails.  A terminated
    rational omega = p/q raises ExpansionError: its Gamma0 is infinite.
    """
    _check_gamma_inputs(rho, delta, 1.0)
    if cf.exact is not None:
        raise ExpansionError(
            f"resonant mode (q={cf.exact.denominator}, p={cf.exact.numerator}):"
            " q omega = p exactly, so Gamma0 is infinite"
        )
    omega = cf.omega_float()
    lo, hi = cf.bracket
    return GammaDelta(
        Delta=(1.0 + omega) * delta,
        omega=omega,
        omega_halfwidth=float(hi - lo) / 2.0,
        brj_term=CLASS_BOUNDS["brjuno"](cf, delta, 1.0),
        const_type_term=CLASS_BOUNDS["const_type"](cf, delta, 1.0),
        away_term=CLASS_BOUNDS["away"](cf, delta, 1.0),
    )


# ---------------------------------------------------------------------------
# Diophantine right-hand sides
# ---------------------------------------------------------------------------


class DiophBound(Record):
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
    DiophGrowth(C, tau)  # the certificate's rules for C and tau
    _require_rate("Delta", Delta)
    # before (tau / e) ** tau, which overflows a float from tau = 172
    _check_gamma_domain(tau)
    thr = dioph_smallness_threshold(tau)
    if Delta > thr:
        raise ValueError(
            f"Delta={Delta} above the smallness threshold min(1/tau, tau/e) = {thr}"
        )
    X = -math.log(Delta)  # not log(1 / Delta): 1 / 5e-324 overflows
    # Delta^-tau saturates to inf past the float range, still an upper bound
    power = Delta ** (-tau) if tau * X < _OVERFLOW_LOG else math.inf
    peak = (tau / math.e) ** tau
    lead = peak / LOG_PHI
    G1_0 = math.log(3.0 * tau * PHI) + gamma_eul(tau) / (2.0 * peak)
    rhs1 = (lead / C) * power * (X + G1_0)
    if tau == 1.0:
        P2 = C * math.log(1.0 / C) * X + math.log(3.0 * PHI) + math.e / 2.0
        rhs2 = (lead / C) * power * P2
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
    rhs2 = (lead / C) * (tau - 1.0) * power * (X * X + G2_1 * X + G2_0)
    return DiophBound(C, tau, Delta, rhs1, rhs2, G1_0, G2_1, G2_0, "general")


# ---------------------------------------------------------------------------
# Khintchine-Levy right-hand sides and Table-1 constants
# ---------------------------------------------------------------------------


class KLBound(Record):
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
    Either difference may be negative.  The data sides are brj1/brj2
    terms; a band term is e^(beta') times a Sigma1 term, and its weight is
    (beta' - beta) n + beta', so the band sides are Sigma1 and Sigma2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cf.require_depth(m, f"brj_fin_diff(m={m})")
    b, bp = params.beta, params.beta_prime
    t1, t2 = (_sum(_brj_terms(cf, Delta, m - 1, w)[0]) for w in (False, True))
    s1, s2 = (sigma_series(b, bp, Delta, m - 1, w) for w in (False, True))
    return t1 - math.exp(bp) * s1, t2 - math.exp(bp) * ((bp - b) * s2 + bp * s1)


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


def dph_series(
    cf: ContinuedFraction, tau: float, Delta: float, n_max: int, weighted: bool = False
) -> float:
    """Dph1 = sum_{n=1}^{n_max} e^(-q_n Delta) q_n^tau, or Dph2 with a
    log q_n weight when ``weighted``: the Diophantine majorant series,
    evaluated directly for cross-validation."""
    _require_rate("Delta", Delta)
    cf.require_depth(n_max, f"dph_series(n_max={n_max})")
    terms = []
    for n in range(1, n_max + 1):
        log_q = math.log(cf.q[n])
        terms.append(_term(cf.q[n], Delta, tau * log_q, log_q if weighted else 1.0) or 0.0)
    return _sum(terms)


def sigma_series(
    beta: float, beta_prime: float, Delta: float, n_max: int, weighted: bool = False
) -> float:
    """Sigma1 = sum_{n=1}^{n_max} e^(beta' n - e^(beta n) Delta), or Sigma2
    with an n weight when ``weighted``: the band majorant series, evaluated
    directly for cross-validation.  A term past the float range is +inf."""
    _require_rate("Delta", Delta)
    terms = []
    for n in range(1, n_max + 1):
        if beta * n < _OVERFLOW_LOG:
            inner = math.exp(beta * n) * Delta
        else:  # e^(beta n) alone overflows, but a tiny Delta can bring it back
            log_inner = beta * n + math.log(Delta)
            inner = math.exp(log_inner) if log_inner < _OVERFLOW_LOG else math.inf
        lt = beta_prime * n - inner
        if weighted and lt > _UNDERFLOW_LOG:
            lt += math.log(n)
        if lt <= _UNDERFLOW_LOG:
            terms.append(0.0)
        else:
            terms.append(math.exp(lt) if lt < _OVERFLOW_LOG else math.inf)
    return _sum(terms)


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
    computed = sigma_series(beta, beta_prime, Delta, n_max)
    if N > 1:
        computed -= sigma_series(beta, beta_prime, Delta, N - 1)
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
