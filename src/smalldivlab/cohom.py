"""Fourier-space solution of (d/dx + omega d/dy) g = a on the 2-torus.

Modes are indexed by (p, q) with basis e_{p,q}(x, y) = exp(i(px - qy)),
so the operator is diagonal with eigenvalue i(p - q omega) and the
formal solution is g_{p,q} = a_{p,q} / (i(p - q omega)).  Zero-mean data
(no (0, 0) entry) makes the solution unique.

Sup norms on complex strips are certified two-sided: an upper bound from
the weighted coefficient sum (|e_{p,q}| peaks at e^((|p|+|q|)R) on the
strip boundary) and a sampled lower bound from evaluating the finite
Fourier sum on boundary grids.  On an n x n grid that sum is a 2-D
inverse DFT of the coefficients folded onto the n x n residues
(p mod n, -q mod n), so each of the four boundary grids costs
O(m + n^2 log n) for m modes, and the grid values stay exact when
several modes fold onto one cell.  Inequality checks always compare the
sampled lower bound of the solution against the bound times the
coefficient-sum upper bound of the data, so a true inequality can only
be confirmed, never falsified spuriously.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .bounds import BoundReport, GrowthCert, gamma_delta
from .contfrac import ContinuedFraction, DepthExhausted, divisor_interval, mul_big_float


@dataclass(frozen=True)
class ModeMap:
    """Sparse Fourier data: {(p, q): coefficient} with no (0, 0) entry.

    ``hermitian`` asserts c_{-p,-q} = conj(c_{p,q}) exactly for every
    stored pair (the reality condition for torus functions).
    """

    entries: dict
    hermitian: bool

    def __post_init__(self):
        if (0, 0) in self.entries:
            raise ValueError("zero-mean class: no (0, 0) mode allowed")
        if self.hermitian:
            for (p, q), c in self.entries.items():
                mirror = self.entries.get((-p, -q))
                if mirror is None or mirror != complex(c).conjugate():
                    raise ValueError(
                        f"hermitian flag set but symmetry fails at ({p}, {q})"
                    )

    @classmethod
    def build(cls, entries, hermitian: Optional[bool] = None) -> "ModeMap":
        """Normalize coefficients to complex; autodetect hermitian if not given."""
        norm = {(int(p), int(q)): complex(c) for (p, q), c in entries.items()}
        if hermitian is None:
            hermitian = all(
                norm.get((-p, -q)) == c.conjugate() for (p, q), c in norm.items()
            ) and bool(norm)
        return cls(entries=norm, hermitian=hermitian)

    def __len__(self):
        return len(self.entries)


def save_modes(modes: ModeMap, path) -> None:
    """JSON array of records {p, q, re, im} in sorted mode order."""
    rows = [
        {"p": p, "q": q, "re": c.real, "im": c.imag}
        for (p, q), c in sorted(modes.entries.items())
    ]
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite_real(v) -> bool:
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def load_modes(path) -> ModeMap:
    """Read a save_modes file, checking every record before any solve.

    The top level must be a list of objects with integer ``p`` and ``q``
    of under 1020 bits and finite ``re`` and ``im``, and no (p, q) may
    repeat; otherwise a ValueError names the first bad record's index.
    The bit limit keeps every divisor q omega - p (omega in (0, 1))
    inside the float range.
    """
    with open(path) as fh:
        rows = json.load(fh)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: mode file must be a JSON list of {{p, q, re, im}} records")
    entries = {}
    for i, r in enumerate(rows):
        if not (
            isinstance(r, dict)
            and type(r.get("p")) is int
            and type(r.get("q")) is int
            and r["p"].bit_length() < 1020
            and r["q"].bit_length() < 1020
            and _finite_real(r.get("re"))
            and _finite_real(r.get("im"))
        ):
            raise ValueError(
                f"{path}: record {i} needs integer p, q of under 1020 bits and finite re, im"
            )
        mode = (r["p"], r["q"])
        if mode in entries:
            raise ValueError(f"{path}: record {i} repeats mode {mode}")
        entries[mode] = complex(r["re"], r["im"])
    return ModeMap.build(entries)


# ---------------------------------------------------------------------------
# mode-wise solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    modes: ModeMap
    mode_rel_err: dict
    max_rel_err: float


def solve_modes(a: ModeMap, cf: ContinuedFraction) -> SolveResult:
    """g_{p,q} = a_{p,q} / (i(p - q omega)), divisors from exact sandwiches.

    The divisor of the mirror mode is exactly the negated divisor of its
    canonical representative, so hermitian data yields hermitian output
    by construction rather than by post-hoc symmetrization.  Per-mode
    relative error bounds (sandwich width over divisor) are recorded.
    """
    if (0, 0) in a.entries:
        raise ValueError("mean mode (0, 0) is not solvable")
    divisors = {}
    rel_err = {}
    for p, q in a.entries:
        cp, cq = (p, q) if (q, p) >= (0, 0) else (-p, -q)
        key = (cp, cq)
        if key in divisors:
            continue
        # p - q*omega = -(q*omega - p)
        d_lo, d_hi = divisor_interval(cf, cq, cp)
        if d_lo <= 0 <= d_hi:
            raise DepthExhausted(
                f"divisor sign unresolved at mode (p={cp}, q={cq}); expand deeper"
            )
        lo_f, hi_f = float(d_lo), float(d_hi)
        mid = -(lo_f + hi_f) / 2.0
        divisors[key] = mid
        width = abs(hi_f - lo_f)
        rel_err[key] = width / abs(mid) + 4.0 * 2.3e-16

    g = {}
    errs = {}
    for (p, q), c in a.entries.items():
        canonical = (q, p) >= (0, 0)
        key = (p, q) if canonical else (-p, -q)
        if a.hermitian and not canonical:
            continue  # filled by conjugation below
        d = divisors[key] if canonical else -divisors[key]
        g[(p, q)] = complex(c) / complex(0.0, d)
        errs[(p, q)] = rel_err[key]
    if a.hermitian:
        for (p, q), val in list(g.items()):
            if (-p, -q) in a.entries and (-p, -q) not in g:
                g[(-p, -q)] = val.conjugate()
                errs[(-p, -q)] = errs[(p, q)]
    out = ModeMap(entries=g, hermitian=a.hermitian)
    return SolveResult(
        modes=out, mode_rel_err=errs, max_rel_err=max(errs.values(), default=0.0)
    )


# ---------------------------------------------------------------------------
# strip norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StripNormEstimate:
    """Two-sided sup-norm certificate on the closed strip of half-width R."""

    R: float
    upper: float
    sampled_lower: float
    grid_n: int


# exponents up to this leave room for summing many terms below the float maximum
_EXP_ROOM = 700.0


def _exp_shift(items, R: float):
    """(s, k_max): k_max is the largest |p|+|q| of a nonzero coefficient and
    s = max(0, R k_max - _EXP_ROOM), inf once R k_max leaves the float range."""
    k_max = max((abs(p) + abs(q) for (p, q), c in items if c), default=0)
    return max(0.0, R * k_max - _EXP_ROOM), k_max


def _shifted_exponent(R: float, k: int, k_max: int, shift: float) -> float:
    """R k - s for an integer k <= k_max, at most _EXP_ROOM.

    While s > 0 it is _EXP_ROOM - R (k_max - k) with k_max - k taken exactly
    in integers: R k - s would round at the size of R k (by up to 2048 at
    2^63) or be inf - inf past the float range.
    """
    if shift == 0.0:
        return R * k
    return _EXP_ROOM - R * (k_max - k)


def _times_exp(x: float, shift: float) -> float:
    """x e^shift, saturating to inf where the product leaves the float range."""
    if x == 0.0:
        return x
    try:
        return x * math.exp(shift)
    except OverflowError:
        return math.inf


def _coef_upper(items, R: float) -> float:
    """sum |c| e^(R(|p|+|q|)) over ((p, q), c) items; inf past the float range.

    The terms are summed as |c| e^(R(|p|+|q|) - s) with s from _exp_shift
    and multiplied by e^s once, so the sum is exactly rounded while s = 0.
    Zero coefficients are skipped: they neither add nor set the shift.
    """
    items = list(items)
    shift, k_max = _exp_shift(items, R)
    try:
        total = math.fsum(
            abs(c) * math.exp(_shifted_exponent(R, abs(p) + abs(q), k_max, shift))
            for (p, q), c in items
            if c
        )
    except OverflowError:  # the shifted sum itself leaves the float range
        return math.inf
    return _times_exp(total, shift)


def strip_norm(modes: ModeMap, R: float, grid_n: int = 64) -> StripNormEstimate:
    """upper = sum |c| e^(R(|p|+|q|)); lower = max |f| over boundary grids.

    Sampling is boundary-dominated: imaginary parts fixed at the four
    sign choices of (+-R, +-R) where basis magnitudes peak, real parts
    on the grid 2 pi (j, l) / n with n = grid_n, from 8 to 4096.  There
    e^(i(p x - q y)) depends only on the residues (p mod n, -q mod n), so
    the grid values are the inverse 2-D DFT of the weighted coefficients
    folded onto the n x n residues: O(m + n^2 log n) per sign choice for
    m modes, and exact however many modes fold onto one cell.  For a
    single mode the sampled value is exact.  Past the float range
    ``upper`` is inf and the sampled value saturates to the largest
    float, which is still a lower bound.
    """
    if not (math.isfinite(R) and R > 0):
        raise ValueError("R must be a finite number > 0")
    if not 8 <= grid_n <= 4096:
        raise ValueError("grid_n must be between 8 and 4096")
    # zero coefficients add nothing to either bound
    items = [(pq, c) for pq, c in sorted(modes.entries.items()) if c]
    if not items:
        return StripNormEstimate(R=R, upper=0.0, sampled_lower=0.0, grid_n=grid_n)
    import numpy as np

    upper = _coef_upper(items, R)
    shift, k_max = _exp_shift(items, R)
    n = grid_n
    # residues from the Python ints: indices may be far beyond int64
    cell = np.array([(p % n) * n + (-q) % n for (p, q), _ in items], dtype=np.intp)
    P = np.array([p for (p, q), _ in items], dtype=np.float64)
    Q = np.array([q for (p, q), _ in items], dtype=np.float64)
    C = np.array([c for _, c in items], dtype=np.complex128)
    lower = 0.0
    for sx in (-1, 1):
        for sy in (-1, 1):
            if shift == 0.0:
                expo = R * (-P * sx + Q * sy)
            else:
                expo = np.array(
                    [
                        _shifted_exponent(R, q * sy - p * sx, k_max, shift)
                        for (p, q), _ in items
                    ]
                )
            w = C * np.exp(expo)
            folded = np.zeros((n, n), dtype=np.complex128)
            np.add.at(folded.reshape(-1), cell, w)
            # norm="forward" leaves the inverse transform unscaled: its values are the sums
            lower = max(lower, float(np.abs(np.fft.ifft2(folded, norm="forward")).max()))
    lower = min(_times_exp(lower, shift), sys.float_info.max)
    return StripNormEstimate(R=R, upper=upper, sampled_lower=lower, grid_n=grid_n)


def check_thm1(
    a: ModeMap,
    cf: ContinuedFraction,
    rho: float,
    delta: float,
    mu: float = 1.25,
    grid_n: int = 64,
    depth: Optional[int] = None,
    growth: GrowthCert = None,
) -> BoundReport:
    """End-to-end solvability bound check on a strip shrunk by delta.

    Solves the equation in Fourier space and compares the sampled lower
    bound of ||g|| on radius rho - delta against mu * Gamma0(delta) times
    the coefficient-sum upper bound of ||a|| on radius rho.
    """
    gd = gamma_delta(cf, rho, delta, depth=depth, mu=mu, growth=growth)
    solved = solve_modes(a, cf)
    g_norm = strip_norm(solved.modes, rho - delta, grid_n)
    a_upper = _coef_upper(a.entries.items(), rho)
    computed = g_norm.sampled_lower
    bound = mu * gd.Gamma0 * a_upper
    return BoundReport(
        quantity="sampled lower bound of the shrunk-strip solution norm",
        computed=computed,
        bound=bound,
        params={
            "rho": rho,
            "delta": delta,
            "mu": mu,
            "Gamma0": gd.Gamma0,
            "a_upper": a_upper,
            "g_upper": g_norm.upper,
            "modes": len(a),
            "solver_max_rel_err": solved.max_rel_err,
        },
    )


# ---------------------------------------------------------------------------
# blow-up construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaReport:
    """Truncated normalization of the convergent-mode weights.

    alpha_n = 1 / (2 abar q_n) with abar an upper bound of sum 1/q_n:
    the computed partial sum plus the rigorous tail 2(1/s1 + 1/s2) from
    q_{n+2} >= 2 q_n.  Then 1 - tail/abar <= 2 sum alpha_n <= 1 and the
    weighted-coefficient norm stays below epsilon.
    """

    partial: float
    tail: float
    abar: float
    two_sum_alpha: float
    deficit: float


@dataclass(frozen=True)
class Counterexample:
    modes: ModeMap
    alpha: AlphaReport
    epsilon: float
    rho: float
    n_max: int
    norm_upper: float


def _alpha_data(cf: ContinuedFraction, n_max: int) -> AlphaReport:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cf.require_depth(n_max, f"counterexample_modes(n_max={n_max})")
    partial = math.fsum(
        1.0 / cf.q[n] if cf.q[n].bit_length() <= 1020 else 0.0
        for n in range(1, n_max + 1)
    )
    s1 = cf.q[n_max] + cf.q[n_max - 1]
    s2 = s1 + cf.q[n_max]
    tail = 2.0 * (
        (1.0 / s1 if s1.bit_length() <= 1020 else 0.0)
        + (1.0 / s2 if s2.bit_length() <= 1020 else 0.0)
    )
    abar = partial + tail
    two_sum = partial / abar
    # deficit is tail/abar up to a rounding ulp; defining it as the exact
    # complement keeps the band identity 1 - deficit <= 2 sum alpha exact
    return AlphaReport(
        partial=partial,
        tail=tail,
        abar=abar,
        two_sum_alpha=two_sum,
        deficit=1.0 - two_sum,
    )


def counterexample_modes(
    cf: ContinuedFraction, rho: float, epsilon: float, n_max: int
) -> Counterexample:
    """Data concentrated on the convergent modes +-(p_n, q_n), n = 1..n_max.

    Coefficients are epsilon e^(-rho(|p|+|q|)) alpha_n: maximal decay-
    compliant mass exactly where the small divisors are smallest.  The
    weighted-coefficient norm bound is epsilon * 2 sum alpha_n <= epsilon.
    """
    if epsilon <= 0 or rho <= 0:
        raise ValueError("epsilon and rho must be > 0")
    alpha = _alpha_data(cf, n_max)
    entries = {}
    for n in range(1, n_max + 1):
        pn, qn = cf.p[n], cf.q[n]
        expo = -mul_big_float(pn + qn, rho)
        alpha_n = 1.0 / (2.0 * alpha.abar * cf.q[n]) if qn.bit_length() <= 1020 else 0.0
        c = epsilon * math.exp(expo) * alpha_n if expo > -745.0 else 0.0
        entries[(pn, qn)] = complex(c, 0.0)
        entries[(-pn, -qn)] = complex(c, 0.0)
    modes = ModeMap.build(entries, hermitian=True)
    return Counterexample(
        modes=modes,
        alpha=alpha,
        epsilon=epsilon,
        rho=rho,
        n_max=n_max,
        norm_upper=epsilon * alpha.two_sum_alpha,
    )


@dataclass(frozen=True)
class WitnessPoint:
    """Log-magnitude interval of the analyticity witness at one level.

    w_n = epsilon e^(-delta'(p_n + q_n)) alpha_n / |q_n omega - p_n|, the
    weighted solution coefficient seen at strip radius rho - delta'; the
    divisor is bracketed by 1/(q_{n+1} + q_n) < |q_n omega - p_n| <
    1/q_{n+1}.  Divergence of w_n certifies that the solution is not
    analytic on the smaller strip.
    """

    n: int
    p: int
    q: int
    log_w_lo: float
    log_w_hi: float


def blowup_witness(
    cf: ContinuedFraction,
    rho: float,
    delta_prime: float,
    epsilon: float,
    n_max: int,
) -> list:
    """Witness log-magnitudes for n = 1..n_max, entirely in log space."""
    if not 0.0 < delta_prime < rho:
        raise ValueError("need 0 < delta_prime < rho")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    cf.require_depth(n_max + 1, f"blowup_witness(n_max={n_max})")
    alpha = _alpha_data(cf, n_max)
    log_eps = math.log(epsilon)
    log_2abar = math.log(2.0 * alpha.abar)
    points = []
    for n in range(1, n_max + 1):
        pn, qn, qn1 = cf.p[n], cf.q[n], cf.q[n + 1]
        decay = mul_big_float(pn + qn, delta_prime)
        log_alpha_n = -log_2abar - math.log(qn)
        base = log_eps - decay + log_alpha_n
        # divisor bracket turns into [log q_{n+1}, log(q_n + q_{n+1})]
        points.append(
            WitnessPoint(
                n=n,
                p=pn,
                q=qn,
                log_w_lo=base + math.log(qn1),
                log_w_hi=base + math.log(qn + qn1),
            )
        )
    return points


def divergence_minorant_check(cf: ContinuedFraction, Delta: float) -> list:
    """Diagnostic: levels n >= 2 where e^(-q_n Delta) q_{n+1} >= 1/q_n.

    For a frequency built to defeat every convergence band (denominator
    growth at least e^(c q_n) with c > Delta) this holds at every
    computed level; returns (n, lhs_log, rhs_log, verdict) rows.
    """
    rows = []
    for n in range(2, cf.depth):
        qn, qn1 = cf.q[n], cf.q[n + 1]
        lhs = math.log(qn1) - mul_big_float(qn, Delta)
        rhs = -math.log(qn)
        rows.append((n, lhs, rhs, lhs >= rhs))
    return rows
