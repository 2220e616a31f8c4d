"""Partitioned small-divisor summation over integer frequency boxes.

Every index pair (q, p) != (0, 0) falls in exactly one class:

* ``brjuno``: (q, p) = (a q_k, a p_k) with k >= 0, 1 <= a <= astar[k]
  (positive branch q > 0; the central mirror is the negative branch);
* ``const_type``: inside the critical strip |q omega - p| < 1 but not a
  convergent multiple -- there |q omega - p| >= 1/(2|q|);
* ``away``: everything else, organized in unit strips
  n < q omega - p < n + 1 with n outside {-1, 0}.

Classification is exact: floors of q*omega come from convergent
sandwiches (never floats), and q*omega - p is irrational for q != 0, so
no comparison ever sits on a boundary.  The only integer values of
q*omega - p occur on the q = 0 column; the pairs (0, -m) / (0, m) with
m >= 1 sit on strip edges and are tiled into Away(m) / Away(-m-1), the
assignment that preserves central symmetry (class(q, p) maps to
class(-q, -p) with Away(n) <-> Away(-n-1)).

Summand: L(q, p) = e^(-(|p|+|q|) delta) / |q omega - p|, evaluated at the
midpoint of the divisor interval, whose relative width must be below
1e-12.  Box scans evaluate the canonical half q >= 1 (plus q = 0, p < 0)
once and count its mirror through the symmetry.  Sums use exact float
summation, so identical inputs give bit-identical results in any grouping.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import BoundReport, _away_leading
from .contfrac import (
    ContinuedFraction,
    DepthExhausted,
    ExpansionError,
    divisor_interval,
    floor_mult,
    mul_big_float,
    resolve_depth_for_box,
)

_REL_WIDTH_TOL = 1e-12


@dataclass(frozen=True)
class IndexClass:
    """Exactly one of away / const_type / brjuno_pos / brjuno_neg.

    ``strip`` is set for away indices; ``k`` and ``a`` for convergent
    multiples (q, p) = (+-a q_k, +-a p_k).
    """

    kind: str
    strip: Optional[int] = None
    k: Optional[int] = None
    a: Optional[int] = None


@dataclass(frozen=True)
class PartitionSums:
    """Per-class sums over a box 0 < max(|q|, |p|) <= Q, plus counts.

    ``brjuno_k0`` is the level-0 part of the brjuno sum (multiples of
    (q_0, p_0) = (1, 0)); it is included in ``brjuno`` but reported
    separately because the weighted series it is compared against start
    at level 1.  ``total`` is exactly away + const_type + brjuno.
    ``away_tail_bound`` majorizes the away mass outside the box (every
    away summand is below e^(-(|q|+|p|) delta), whose lattice sum has a
    closed geometric form).
    """

    away: float
    const_type: float
    brjuno: float
    brjuno_k0: float
    total: float
    counts: dict
    delta: float
    Q: int
    away_tail_bound: float = 0.0


def away_tail_majorant(delta: float, Q: int) -> float:
    """Geometric bound on sum of e^(-(|q|+|p|) delta) over max(|q|,|p|) > Q."""
    r = math.exp(-delta)
    s_inf = (1.0 + r) / (1.0 - r)
    s_Q = 1.0 + 2.0 * r * (1.0 - r**Q) / (1.0 - r)
    return s_inf * s_inf - s_Q * s_Q


@dataclass(frozen=True)
class BrjunoTable:
    """Canonical convergent multiples with q <= Q: {(q, p): (k, a)}."""

    pairs: dict
    Q: int


def brjuno_pairs_up_to(cf: ContinuedFraction, Q: int) -> BrjunoTable:
    """Enumerate (a q_k, a p_k) with a q_k <= Q, 1 <= a <= astar[k].

    Requires the expansion to reach a denominator beyond Q so the
    enumeration is provably complete.
    """
    if Q < 1:
        raise ExpansionError("box radius must be >= 1")
    if cf.q[-1] <= Q and cf.exact is None:
        raise DepthExhausted(
            f"expansion depth {cf.depth} stops at q = {cf.q[-1]} <= Q = {Q}; "
            "expand deeper to enumerate convergent multiples"
        )
    pairs = {}
    for k in range(cf.depth):
        qk = cf.q[k]
        if qk > Q:
            break
        pk = cf.p[k]
        a_max = min(cf.astar[k], Q // qk)
        for a in range(1, a_max + 1):
            key = (a * qk, a * pk)
            # convergent pairs are primitive and distinct, so no collisions
            pairs[key] = (k, a)
    return BrjunoTable(pairs=pairs, Q=Q)


def classify_index(
    q: int, p: int, cf: ContinuedFraction, table: Optional[BrjunoTable] = None
) -> IndexClass:
    """Assign the unique class of a nonzero index pair."""
    if q == 0 and p == 0:
        raise ExpansionError("(0, 0) carries no small divisor")
    radius = max(abs(q), abs(p), 1)
    if table is None or table.Q < abs(q):
        table = brjuno_pairs_up_to(cf, radius)
    if q > 0 and (q, p) in table.pairs:
        k, a = table.pairs[(q, p)]
        return IndexClass(kind="brjuno_pos", k=k, a=a)
    if q < 0 and (-q, -p) in table.pairs:
        k, a = table.pairs[(-q, -p)]
        return IndexClass(kind="brjuno_neg", k=k, a=a)
    if q == 0:
        # q*omega - p = -p exactly; edge pairs are tiled away from zero
        return IndexClass(kind="away", strip=(-p - 1) if p > 0 else -p)
    n = (floor_mult(cf, q) if q > 0 else -floor_mult(cf, -q) - 1) - p
    if n in (-1, 0):
        return IndexClass(kind="const_type")
    return IndexClass(kind="away", strip=n)


def L_value(
    q: int, p: int, delta: float, cf: ContinuedFraction, log: bool = False
) -> float:
    """L(q, p) = e^(-(|p|+|q|) delta) / |q omega - p| (midpoint evaluation).

    The divisor interval comes from the finest sandwich; its relative
    width must be below 1e-12 or the call asks for a deeper expansion.
    With ``log=True`` the natural log of L is returned (for huge boxes
    where the exponential underflows).
    """
    if q == 0 and p == 0:
        raise ExpansionError("(0, 0) carries no small divisor")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    # canonical representative fixes the rounding path, so L(q,p) == L(-q,-p)
    if q < 0 or (q == 0 and p < 0):
        q, p = -q, -p
    if q == 0:
        d_mid = float(abs(p))
    else:
        d_lo, d_hi = divisor_interval(cf, q, p)
        if d_lo <= 0 <= d_hi:
            raise DepthExhausted(
                f"divisor sign unresolved at (q={q}, p={p}); expand deeper"
            )
        a_lo, a_hi = (d_lo, d_hi) if d_lo > 0 else (-d_hi, -d_lo)
        if a_hi - a_lo > _REL_WIDTH_TOL * a_lo:
            raise DepthExhausted(
                f"divisor interval too wide at (q={q}, p={p}); expand deeper"
            )
        d_mid = (float(a_lo) + float(a_hi)) / 2.0
    exponent = -mul_big_float(abs(p) + abs(q), delta)
    if log:
        return exponent - math.log(d_mid)
    return math.exp(exponent) / d_mid


# ---------------------------------------------------------------------------
# box scans
# ---------------------------------------------------------------------------

# class labels of the half-box scan; _MIRROR marks row-0 cells outside the half
_AWAY, _CONST, _BRJUNO, _MIRROR = 0, 1, 2, -1
_KINDS = ("away", "const_type", "brjuno_pos", "brjuno_neg")


def _box_rows(cf: ContinuedFraction, Q: int):
    """Exact per-row data of a box: Brjuno table, floors, bracket integers.

    Both bracket endpoints give floor(q omega) for q <= Q once some sandwich
    level has q_m > 2Q, which ``resolve_depth_for_box`` checks first.
    """
    table = brjuno_pairs_up_to(cf, Q)
    resolve_depth_for_box(cf, Q)
    lo, hi = cf.bracket
    lon, lod, hin, hid = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    floors = [0] * (Q + 1)
    for q in range(1, Q + 1):
        floors[q] = (q * lon) // lod
        if (q * hin) // hid != floors[q]:
            raise DepthExhausted(
                f"floor({q}*omega) unresolved at depth {cf.depth}; expand deeper"
            )
    return table, floors, (lon, lod, hin, hid)


def _divisor_midpoint(lo: float, hi: float, q: int, p: int) -> float:
    """Midpoint of lo <= |q omega - p| <= hi once its sign and width are resolved."""
    if not lo > 0.0:
        raise DepthExhausted(f"divisor unresolved at (q={q}, p={p}); expand deeper")
    if hi - lo > _REL_WIDTH_TOL * lo:
        raise DepthExhausted(
            f"divisor interval too wide at (q={q}, p={p}); expand deeper"
        )
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class _HalfBox:
    """Classes, strips and L values of the canonical half of a box.

    Arrays are indexed [q, p + Q] for q = 0..Q and p = -Q..Q.  The
    canonical half is q >= 1 with every p plus q = 0 with p < 0; the other
    row-0 cells are (0, 0) and mirrors, labelled _MIRROR.  ``n`` is the
    strip floor(q omega - p).  The mirror (-q, -p) of a canonical pair has
    the same L, class brjuno_neg in place of brjuno_pos and strip -n - 1.
    ``brjuno`` holds one (q, p, k, a) row per Brjuno-table pair.
    """

    label: np.ndarray
    n: np.ndarray
    L: np.ndarray
    brjuno: np.ndarray


def _half_box(cf: ContinuedFraction, delta: float, Q: int) -> _HalfBox:
    """The box kernel: classify and evaluate every pair of the canonical half.

    Per row, in exact integers, f = q omega - floor(q omega) and 1 - f come
    from the sandwich endpoints, each rounded once.  They are the divisors
    at p = floor and p = floor + 1, the smallest in the row (whose interval
    width is the same for every p), so checking their sign and relative
    width checks the whole row.  Over the box, as arrays, |q omega - p| is
    n + f for n >= 0 and (-n - 1) + (1 - f) for n <= -1, free of
    cancellation; numerators come from one table of e^(-k delta).
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if Q < 1:
        raise ExpansionError("box radius must be >= 1")
    table, floors, (lon, lod, hin, hid) = _box_rows(cf, Q)
    f = [0.0] * (Q + 1)  # row q = 0: floor 0, so the divisors are |p| exactly
    g = [1.0] * (Q + 1)
    for q in range(1, Q + 1):
        fl = floors[q]
        f[q] = _divisor_midpoint(
            (q * lon - fl * lod) / lod, (q * hin - fl * hid) / hid, q, fl
        )
        g[q] = _divisor_midpoint(
            ((fl + 1) * hid - q * hin) / hid, ((fl + 1) * lod - q * lon) / lod, q, fl + 1
        )

    p = np.arange(-Q, Q + 1)
    n = np.array(floors)[:, None] - p
    neg = n < 0
    d = np.where(neg, np.array(g)[:, None], np.array(f)[:, None])
    d += np.where(neg, ~n, n)  # ~n == -n - 1
    d[0, Q] = math.inf  # (0, 0) has no divisor
    weights = np.array([math.exp(-k * delta) for k in range(2 * Q + 1)])
    L = weights[np.arange(Q + 1)[:, None] + np.abs(p)]
    L /= d

    label = np.full(n.shape, _AWAY, dtype=np.int8)
    label[(n == 0) | (n == -1)] = _CONST
    brjuno = np.array(
        [pair + ka for pair, ka in table.pairs.items()], dtype=np.int64
    ).reshape(-1, 4)
    label[brjuno[:, 0], brjuno[:, 1] + Q] = _BRJUNO
    label[0, Q:] = _MIRROR
    return _HalfBox(label=label, n=n, L=L, brjuno=brjuno)


def partition_sums(cf: ContinuedFraction, delta: float, Q: int) -> PartitionSums:
    """Classify and sum L over all 0 < max(|q|, |p|) <= Q, one sum per class.

    Each class sum is twice the exact sum over the canonical half, and
    doubling a float is exact.
    """
    half = _half_box(cf, delta, Q)
    away = half.label == _AWAY
    const = half.label == _CONST
    brj = half.label == _BRJUNO
    k0 = half.brjuno[half.brjuno[:, 2] == 0]
    away_sum = 2.0 * math.fsum(half.L[away])
    const_sum = 2.0 * math.fsum(half.L[const])
    brj_sum = 2.0 * math.fsum(half.L[brj])
    n_brj = int(np.count_nonzero(brj))
    return PartitionSums(
        away=away_sum,
        const_type=const_sum,
        brjuno=brj_sum,
        brjuno_k0=2.0 * math.fsum(half.L[k0[:, 0], k0[:, 1] + Q]),
        total=away_sum + const_sum + brj_sum,
        counts={
            "away": 2 * int(np.count_nonzero(away)),
            "const_type": 2 * int(np.count_nonzero(const)),
            "brjuno_pos": n_brj,
            "brjuno_neg": n_brj,
        },
        delta=delta,
        Q=Q,
        away_tail_bound=away_tail_majorant(delta, Q),
    )


def box_sum(cf: ContinuedFraction, delta: float, Q: int) -> float:
    """Unclassified sum of L over the same box.

    It shares the kernel with :func:`partition_sums`, so agreement shows
    that the classes tile the box; ``classify_index`` and ``L_value`` are
    the independent scalar oracle.
    """
    half = _half_box(cf, delta, Q)
    return 2.0 * math.fsum(half.L[half.label != _MIRROR])


def partition_dump(cf: ContinuedFraction, delta: float, Q: int, path) -> None:
    """Audit CSV with one row per box pair: q,p,class,k,a,strip_n,L."""
    half = _half_box(cf, delta, Q)
    k = np.zeros(half.label.shape, dtype=np.int64)
    a = np.zeros(half.label.shape, dtype=np.int64)
    bq, bp, bk, ba = half.brjuno.T
    k[bq, bp + Q] = bk
    a[bq, bp + Q] = ba
    kinds = np.array(_KINDS, dtype=object)
    side = np.arange(-Q, Q + 1)

    def cells(mask, values):
        return np.where(mask, values.astype(object), "").tolist()

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "p", "class", "k", "a", "strip_n", "L"])
        # one box row at a time; each cell reads its canonical pair, which
        # is (q, p) itself or the mirror (-q, -p)
        for q in range(-Q, Q + 1):
            p = side[side != 0] if q == 0 else side
            mirror = p > 0 if q == 0 else np.full(p.size, q < 0)
            cq, cp = abs(q), np.where(mirror, -p, p) + Q
            label, n = half.label[cq, cp], half.n[cq, cp]
            is_brj = label == _BRJUNO
            writer.writerows(
                zip(
                    [q] * p.size,
                    p.tolist(),
                    kinds[label + (is_brj & mirror)].tolist(),
                    cells(is_brj, k[cq, cp]),
                    cells(is_brj, a[cq, cp]),
                    cells(label == _AWAY, np.where(mirror, ~n, n)),
                    half.L[cq, cp].tolist(),
                )
            )


# ---------------------------------------------------------------------------
# exact Legendre check and the away-bound report
# ---------------------------------------------------------------------------


def verify_legendre(cf: ContinuedFraction, Q: int) -> BoundReport:
    """For every critical-strip pair with 0 < q <= Q that is not a convergent
    multiple, verify |q omega - p| >= 1/(2q) by exact integer comparison.

    Reports max over checked pairs of 1/(2q |q omega - p|) against the
    bound 1; any violating pair (a classification defect, not a math
    failure) is listed in params["violations"].
    """
    if Q < 1:
        raise ExpansionError("box radius must be >= 1")
    if cf.exact is not None:
        raise ExpansionError("verify_legendre needs an irrational frequency")
    table, floors, (lon, lod, hin, hid) = _box_rows(cf, Q)

    worst = 0.0
    checked = 0
    violations = []
    for q in range(1, Q + 1):
        fl = floors[q]
        for p in (fl, fl + 1):
            if (q, p) in table.pairs:
                continue
            checked += 1
            # sign of 2q(q*omega - p) -+ 1 through both sandwich endpoints
            s = 1 if p == fl else -1  # sign of q*omega - p
            lo_num = s * (2 * q * (q * lon - p * lod)) - lod
            hi_num = s * (2 * q * (q * hin - p * hid)) - hid
            if s < 0:
                lo_num, hi_num = hi_num, lo_num
            if lo_num >= 0 and hi_num >= 0:
                ok = True
            elif lo_num <= 0 and hi_num <= 0:
                ok = False
            else:
                raise DepthExhausted(
                    f"legendre comparison unresolved at (q={q}, p={p}); expand deeper"
                )
            d_lo = abs(q * lon - p * lod) / lod
            d_hi = abs(q * hin - p * hid) / hid
            ratio = 1.0 / (2.0 * q * min(d_lo, d_hi))
            worst = max(worst, ratio)
            if not ok:
                violations.append((q, p))
    return BoundReport(
        quantity="max of 1/(2 q |q omega - p|) over non-convergent critical pairs",
        computed=worst,
        bound=1.0,
        params={"Q": Q, "checked": checked, "violations": violations},
    )


def away_bound_check(
    cf: ContinuedFraction,
    delta: float,
    Q: int,
    mu: float = 1.25,
    n_max: Optional[int] = None,
) -> BoundReport:
    """Box away sum against mu * (4/(1+omega) + 2/(1-omega)) delta^-1 log(1/delta).

    The box sum is a lower bound of the full away series, so the verdict
    is expected true whenever log(1/delta) > 1.  ``n_max``, when given,
    restricts to strips |n| <= n_max.
    """
    if delta * math.e >= 1.0:
        raise ValueError("away bound needs log(1/delta) > 1, i.e. delta < 1/e")
    if n_max is None:
        computed = partition_sums(cf, delta, Q).away
    else:
        half = _half_box(cf, delta, Q)
        away = half.label == _AWAY
        L, n = half.L[away], half.n[away]
        # the mirror of a pair in strip n lies in strip -n - 1
        computed = math.fsum(
            np.concatenate((L[np.abs(n) <= n_max], L[np.abs(n + 1) <= n_max]))
        )
    leading = _away_leading(cf.omega_float())
    bound = mu * leading * math.log(1.0 / delta) / delta
    return BoundReport(
        quantity="away box sum",
        computed=computed,
        bound=bound,
        params={
            "delta": delta,
            "Q": Q,
            "mu": mu,
            "n_max": n_max,
            "G_away_leading": leading,
        },
    )
