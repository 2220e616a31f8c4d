"""Fourier-space solution of (d/dx + omega d/dy) g = a on the 2-torus.

Modes are indexed by (p, q) with basis e_{p,q}(x, y) = exp(i(px - qy)),
so the operator is diagonal with eigenvalue i(p - q omega) and the
formal solution is g_{p,q} = a_{p,q} / (i(p - q omega)).  Zero-mean data
(no (0, 0) entry) makes the solution unique.

Sup norms on complex strips are certified two-sided: an upper bound from
the weighted coefficient sum (|e_{p,q}| peaks at e^((|p|+|q|)R) on the
strip boundary) and a sampled lower bound from evaluating the finite
Fourier sum on boundary grids.  On an n x n grid that sum is a 2-D
inverse DFT of the coefficients folded onto the residues
(p mod n, -q mod n), so each of the four boundary grids costs
O(m + n^2 log n) for m modes, and the grid values stay exact when
several modes fold onto one cell.  Only the r occupied residues p mod n
get a row: the transform runs along the -q axis on those r rows, then
along the p axis one column block at a time, so the memory is
O(r n + block), not n^2, and the values are the dense ifft2's, bit for
bit.  Inequality checks always compare the sampled lower bound of the
solution against the bound times the coefficient-sum upper bound of the
data, so a true inequality can only be confirmed, never falsified
spuriously.
"""

from __future__ import annotations

import json
import math
import sys

from ._record import Record
from .bounds import BoundReport, _check_gamma_inputs, _require_rate, _sum, gamma_delta
from .contfrac import ContinuedFraction, _divisor_ends, mul_big_float


class ModeMap(Record):
    """Sparse Fourier data: {(p, q): coefficient} with no (0, 0) entry.

    A real torus function has c_{-p,-q} = conj(c_{p,q}); ``solve_modes``
    keeps that pairing mode by mode, so no flag records it.
    """

    entries: dict

    def __post_init__(self):
        if (0, 0) in self.entries:
            raise ValueError("zero-mean class: no (0, 0) mode allowed")

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


def load_modes(path) -> ModeMap:
    """Read a save_modes file, checking every record before any solve.

    The top level must be a list of objects with integer ``p`` and ``q``
    of under 1020 bits and finite ``re`` and ``im``, and no (p, q) may
    repeat; otherwise a ValueError names the first bad record's index.
    The bit limit keeps every divisor q omega - p (omega in (0, 1))
    inside the float range.
    """
    # each object is checked as it is decoded, so its dict is freed at once
    with open(path) as fh:
        rows = json.load(fh, object_hook=_mode_record)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: mode file must be a JSON list of {{p, q, re, im}} records")
    entries = {}
    for i, r in enumerate(rows):
        # JSON decodes to no tuple, so only a good record is one
        if type(r) is not tuple:
            raise ValueError(
                f"{path}: record {i} needs integer p, q of under 1020 bits and finite re, im"
            )
        mode, c = r
        if mode in entries:
            raise ValueError(f"{path}: record {i} repeats mode {mode}")
        entries[mode] = c
    return ModeMap(entries)


_FLOAT_MAX = sys.float_info.max


def _mode_record(r: dict):
    """((p, q), coefficient) of a good mode record, else None.

    ``load_modes`` decodes every JSON object through this hook, nested ones
    first, so an object as ``p`` is None here and its record is bad.
    """
    p, q, re, im = r.get("p"), r.get("q"), r.get("re"), r.get("im")
    # the comparisons with the largest float also reject nan, inf and the
    # integers past the float range
    if (
        type(p) is int
        and type(q) is int
        and p.bit_length() < 1020
        and q.bit_length() < 1020
        and type(re) in (int, float)
        and -_FLOAT_MAX <= re <= _FLOAT_MAX
        and type(im) in (int, float)
        and -_FLOAT_MAX <= im <= _FLOAT_MAX
    ):
        return (p, q), complex(re, im)
    return None


# ---------------------------------------------------------------------------
# mode-wise solve
# ---------------------------------------------------------------------------


class SolveResult(Record):
    modes: ModeMap
    max_rel_err: float


def solve_modes(a: ModeMap, cf: ContinuedFraction) -> SolveResult:
    """g_{p,q} = a_{p,q} / (i(p - q omega)), divisors from exact sandwiches.

    Each canonical divisor is read once; its mirror mode (-p, -q) takes
    the negated divisor, and in floats c / (i d) and conj(c) / (-i d) are
    conjugate, so hermitian data yields hermitian output mode by mode.
    ``max_rel_err`` bounds every mode's relative error (sandwich width over
    divisor, plus rounding).
    """
    if (0, 0) in a.entries:
        raise ValueError("mean mode (0, 0) is not solvable")
    divisors = {}
    max_rel_err = 0.0
    g = {}
    # the solution and the divisor table share the data's key tuples
    for pq, c in a.entries.items():
        p, q = pq
        canonical = (q, p) >= (0, 0)
        key = pq if canonical else (-p, -q)
        if key not in divisors:
            cp, cq = key
            # p - q*omega = -(q*omega - p); int / int is correctly rounded
            sign, x_lo, d_lo, x_hi, d_hi = _divisor_ends(cf, cq, cp)
            lo_f, hi_f = x_lo / d_lo, x_hi / d_hi
            if lo_f < sys.float_info.min:
                raise ValueError(
                    f"mode (p={p}, q={q}): divisor |p - q omega| has lower end {lo_f:.3g},"
                    " below the smallest normal double"
                )
            mid = (lo_f + hi_f) / 2.0
            divisors[key] = -sign * mid
            max_rel_err = max(max_rel_err, (hi_f - lo_f) / mid + 4.0 * 2.3e-16)
        d = divisors[key] if canonical else -divisors[key]
        g[pq] = z = complex(c) / complex(0.0, d)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(
                f"mode (p={p}, q={q}): the solution a / (i(p - q omega)) leaves the float range"
            )
    return SolveResult(modes=ModeMap(g), max_rel_err=max_rel_err)


# ---------------------------------------------------------------------------
# strip norms
# ---------------------------------------------------------------------------


class StripNormEstimate(Record):
    """Two-sided sup-norm certificate on the closed strip of half-width R."""

    R: float
    upper: float
    sampled_lower: float
    grid_n: int


# exponents up to this leave room for summing many terms below the float maximum
_EXP_ROOM = 700.0

# cells of one column block of the strip norm's second transform: grids up
# to 128 take one block
_BLOCK_CELLS = 2**14


def _exp_shift(ks, cs, R: float):
    """(s, k_top, top): each term |c| e^(R k) of the columns ks (k = |p|+|q|)
    and cs (the nonzero coefficients c, in the same order) is formed as
    |c| e^(R k - s) with R k - s = top - R (k_top - k).

    s is the least shift >= 0 under which neither e^(R k - s) nor
    |c| e^(R k - s) passes e^_EXP_ROOM; it is inf once R k_max leaves the
    float range.  With s = 0, k_top = 0 and top = 0, so the exponent is R k
    itself.  Otherwise k_top = k_max, and k_max - k is taken exactly in
    integers: R k - s would round at the size of R k (by up to 2048 at
    2^63) or be inf - inf past the float range.
    """
    k_max = max(ks, default=0)
    # how far log|c| + R k rises above R k_max, through the exact k_max - k;
    # only |c| > 1 can rise, and abs(c / 2) cannot overflow where abs(c) can
    rise = max(
        [0.0]
        + [
            math.log(abs(0.5 * c)) + math.log(2.0) - R * (k_max - k)
            for k, c in zip(ks, cs)
            if abs(c.real) + abs(c.imag) > 1.0
        ]
    )
    shift = R * k_max + rise - _EXP_ROOM
    if shift <= 0.0:
        return 0.0, 0, 0.0
    return shift, k_max, _EXP_ROOM - rise


def _times_exp(x: float, shift: float) -> float:
    """x e^shift for x, shift >= 0; inf only where the product leaves the float range.

    e^shift alone overflows past 709.78, so a larger shift is applied in 2^k
    exact halves; past 1456 even 2^-1074 e^shift overflows.
    """
    if x == 0.0 or shift > 1456.0:
        return math.inf if x else x
    parts = 1
    while shift > 709.0:
        shift, parts = shift / 2.0, 2 * parts
    factor = math.exp(shift)
    for _ in range(parts):
        x *= factor
    return x


def _coef_upper(ks, cs, R: float, scale=None) -> float:
    """sum |c| e^(R k) over the columns of ``_exp_shift``; inf past the float range.

    The terms are summed as |c| e^(R k - s) with s from _exp_shift and
    multiplied by e^s once, so the sum is exactly rounded while s = 0.
    ``scale`` is ``_exp_shift(ks, cs, R)`` where the caller has it already.
    Each distinct k takes one exp: the modes of one k share its argument.
    """
    shift, k_top, top = _exp_shift(ks, cs, R) if scale is None else scale
    e = {k: math.exp(top - R * (k_top - k)) for k in set(ks)}
    return _times_exp(_sum(abs(c) * e[k] for k, c in zip(ks, cs)), shift)


def _check_strip(R: float, grid_n: int) -> None:
    """Reject a strip radius or sampling grid that ``strip_norm`` cannot use."""
    if not (math.isfinite(R) and R > 0):
        raise ValueError("R must be a finite number > 0")
    if not 8 <= grid_n <= 4096:
        raise ValueError("grid_n must be between 8 and 4096")


def strip_norm(modes: ModeMap, R: float, grid_n: int = 64) -> StripNormEstimate:
    """upper = sum |c| e^(R(|p|+|q|)); lower = max |f| over boundary grids.

    Sampling is boundary-dominated: imaginary parts fixed at the four
    sign choices of (+-R, +-R) where basis magnitudes peak, real parts
    on the grid 2 pi (j, l) / n with n = grid_n, from 8 to 4096.  There
    e^(i(p x - q y)) depends only on the residues (p mod n, -q mod n), so
    the grid values are the inverse 2-D DFT of the weighted coefficients
    folded onto the residues: O(m + n^2 log n) per sign choice for m
    modes, and exact however many modes fold onto one cell.  The fold
    keeps one row for each of the r occupied residues p mod n and adds
    each cell's weights in sorted mode order.  The transform runs along
    the -q axis first, as ifft2 does, on those r rows; then along the p
    axis, one zero-filled block of at most _BLOCK_CELLS cells at a time,
    so memory is O(m + r n + block) and every value is the dense ifft2's
    float.  One pass over the sorted modes builds the columns that both
    bounds read.  For a single mode the sampled value is exact.  Past the
    float range ``upper`` is inf and the sampled value saturates to the
    largest float, which is still a lower bound.
    """
    _check_strip(R, grid_n)
    entries = modes.entries
    # zero coefficients add nothing to either bound; the modes are unique,
    # so sorting them alone gives the order of the sorted (mode, c) pairs
    keys = sorted(pq for pq, c in entries.items() if c)
    if not keys:
        return StripNormEstimate(R=R, upper=0.0, sampled_lower=0.0, grid_n=grid_n)
    import numpy as np

    n = grid_n
    # residues from the Python ints: indices may be far beyond int64; each
    # occupied residue p mod n gets a row of the fold as it first appears
    row_of = {}
    ks, cells, ps, qs, cs = [], [], [], [], []
    for pq in keys:
        p, q = pq
        ks.append(abs(p) + abs(q))
        cells.append(row_of.setdefault(p % n, len(row_of)) * n + (-q) % n)
        ps.append(p)
        qs.append(q)
        cs.append(entries[pq])
    scale = _exp_shift(ks, cs, R)
    upper = _coef_upper(ks, cs, R, scale)
    shift, k_top, top = scale
    rows = list(row_of)
    # the real and imaginary slots of each cell, as a complex array lays
    # them out: w viewed as floats folds onto them in one bincount
    slot = (2 * np.array(cells, dtype=np.intp)[:, None] + np.arange(2)).ravel()
    P = np.array(ps, dtype=np.float64)
    Q = np.array(qs, dtype=np.float64)
    C = np.array(cs, dtype=np.complex128)
    del ks, cells, ps, qs, cs  # the transforms read the arrays and keys only
    width = _BLOCK_CELLS // n  # at least 4: _check_strip keeps n <= 4096
    lower = 0.0
    for sx in (-1, 1):
        for sy in (-1, 1):
            if shift == 0.0:
                expo = R * (-P * sx + Q * sy)
            else:
                expo = np.array([top - R * (k_top - q * sy + p * sx) for p, q in keys])
            w = C * np.exp(expo)
            # bincount adds each slot's weights in index order, as add.at
            # adds each cell's complex weights
            folded = np.bincount(slot, weights=w.view(np.float64), minlength=2 * len(rows) * n)
            # norm="forward" leaves the inverse transform unscaled: its values
            # are the sums.  ifft2 runs the last axis first, as here, and the
            # rows left out would transform to zeros
            folded = np.fft.ifft(
                folded.view(np.complex128).reshape(len(rows), n), axis=1, norm="forward"
            )
            for j in range(0, n, width):
                block = np.zeros((n, min(width, n - j)), dtype=np.complex128)
                block[rows] = folded[:, j : j + width]
                block = np.fft.ifft(block, axis=0, norm="forward")
                lower = max(lower, float(np.abs(block).max()))
    lower = min(_times_exp(lower, shift), sys.float_info.max)
    return StripNormEstimate(R=R, upper=upper, sampled_lower=lower, grid_n=grid_n)


def check_thm1(
    maps,
    cf: ContinuedFraction,
    rho: float,
    delta: float,
    mu: float = 1.25,
) -> list:
    """End-to-end solvability bound check on a strip shrunk by delta.

    For each ModeMap a of ``maps``, solves the equation in Fourier space and
    compares the sampled lower bound of ||g|| on radius rho - delta against
    mu * Gamma0(delta) times the coefficient-sum upper bound of ||a|| on
    radius rho.  The inputs are checked, and Gamma0 is built, once for all
    maps; returns one BoundReport per map.
    """
    _check_gamma_inputs(rho, delta, mu)
    gamma0 = gamma_delta(cf, rho, delta).Gamma0

    def report(a: ModeMap) -> BoundReport:
        solved = solve_modes(a, cf)
        g_norm = strip_norm(solved.modes, rho - delta)
        nonzero = [(abs(p) + abs(q), c) for (p, q), c in a.entries.items() if c]
        a_upper = _coef_upper([k for k, _ in nonzero], [c for _, c in nonzero], rho)
        return BoundReport(
            quantity="sampled lower bound of the shrunk-strip solution norm",
            computed=g_norm.sampled_lower,
            bound=mu * gamma0 * a_upper,
            params={
                "rho": rho,
                "delta": delta,
                "mu": mu,
                "Gamma0": gamma0,
                "a_upper": a_upper,
                "g_upper": g_norm.upper,
                "modes": len(a),
                "solver_max_rel_err": solved.max_rel_err,
            },
        )

    return [report(a) for a in maps]


# ---------------------------------------------------------------------------
# blow-up construction
# ---------------------------------------------------------------------------


class AlphaReport(Record):
    """Truncated normalization of the convergent-mode weights.

    alpha_n = 1 / (2 abar q_n) with abar an upper bound of sum 1/q_n:
    the computed partial sum plus the rigorous tail 2(1/s1 + 1/s2), with
    (s1, s2) = ``cf.q_lower_bounds(n_max)``, which double every two levels.
    Then 1 - tail/abar <= 2 sum alpha_n <= 1 and the weighted-coefficient
    norm stays below epsilon.
    """

    partial: float
    tail: float
    abar: float
    two_sum_alpha: float
    deficit: float


class Counterexample(Record):
    modes: ModeMap
    alpha: AlphaReport
    epsilon: float
    norm_upper: float


def _alpha_data(cf: ContinuedFraction, n_max: int) -> AlphaReport:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cf.require_depth(n_max, f"counterexample_modes(n_max={n_max})")
    # int/int division rounds once at any size, down to 0.0 past the float range
    partial = math.fsum(1 / cf.q[n] for n in range(1, n_max + 1))
    s1, s2 = cf.q_lower_bounds(n_max)
    tail = 2.0 * (1 / s1 + 1 / s2)
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
    _require_rate("epsilon", epsilon)
    _require_rate("rho", rho)
    alpha = _alpha_data(cf, n_max)
    # alpha_n = 1/(2 abar q_n) = den/(2 num q_n): one int/int division, so
    # it is rounded once at any size, down to 0.0 past the float range
    num, den = alpha.abar.as_integer_ratio()
    entries = {}
    for n in range(1, n_max + 1):
        pn, qn = cf.p[n], cf.q[n]
        expo = -mul_big_float(pn + qn, rho)
        alpha_n = den / (2 * num * qn)
        c = epsilon * math.exp(expo) * alpha_n if expo > -745.0 else 0.0
        entries[(pn, qn)] = complex(c, 0.0)
        entries[(-pn, -qn)] = complex(c, 0.0)
    return Counterexample(
        modes=ModeMap(entries),
        alpha=alpha,
        epsilon=epsilon,
        norm_upper=epsilon * alpha.two_sum_alpha,
    )


class WitnessPoint(Record):
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


def _check_blowup_inputs(rho: float, delta_prime: float, epsilon: float, n_max: int) -> None:
    """Reject a rho, delta', epsilon or n_max that the blow-up data cannot use."""
    _require_rate("epsilon", epsilon)
    _require_rate("rho", rho)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not 0.0 < delta_prime < rho:
        raise ValueError("need 0 < delta_prime < rho")


def blowup_witness(
    cf: ContinuedFraction,
    rho: float,
    delta_prime: float,
    epsilon: float,
    n_max: int,
) -> list:
    """Witness log-magnitudes for n = 1..n_max, entirely in log space."""
    _check_blowup_inputs(rho, delta_prime, epsilon, n_max)
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

