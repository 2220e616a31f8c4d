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
once and count its mirror through the symmetry.  They run over blocks of
about 2^16 cells (a few rows), so memory stays flat in Q, and sum each
block exactly into integer buckets per class and binary exponent.  Each
sum is rounded once at the end, so it is the correctly rounded exact sum,
bit-identical to ``math.fsum`` of the same values in any grouping and for
any block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .bounds import BoundReport, _away_leading, _require_rate
from .contfrac import (
    ContinuedFraction,
    DepthExhausted,
    ExpansionError,
    divisor_interval,
    floor_mult,
    mul_big_float,
    resolve_depth_for_box,
)

if TYPE_CHECKING:
    import numpy as np

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


def _check_delta(delta: float) -> None:
    """Reject a delta that no box scan or tail majorant can use."""
    _require_rate("delta", delta)
    # below about 1.1e-16 the majorant's ratio r = e^(-delta) is 1.0
    if math.exp(-delta) == 1.0:
        raise ValueError(f"delta = {delta!r} is too small: e^(-delta) rounds to 1")


def away_tail_majorant(delta: float, Q: int) -> float:
    """Geometric bound on sum of e^(-(|q|+|p|) delta) over max(|q|,|p|) > Q."""
    _check_delta(delta)
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
    _check_delta(delta)
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

# class labels of the half-box scan, which also index its exact sums;
# _MIRROR marks row-0 cells outside the half
_AWAY, _CONST, _BRJUNO, _MIRROR = 0, 1, 2, 3

# box cells per block of rows: a block's arrays take a few MB at any Q
_BLOCK_CELLS = 2**16

# np.frexp exponents e of nonzero floats run from -1073 to 1024; a value is
# M 2^(e - 53) with an integer |M| < 2^53, so 2^1126 times it is an integer
_EXP_BIAS = 1073
_EXP_SPAN = 2098
_SCALE = 1 << 1126
# values held in the float buckets between moves into Python ints; the
# bucket sums stay exact below 2^26 values
_HELD_MAX = 2**25


class _ExactSums:
    """Exact sums of finite floats per label 0..labels-1, rounded once when read.

    ``np.frexp`` splits each value into M 2^(e - 53) with an integer
    |M| < 2^53.  The high 27 and low 26 bits of M are summed per
    (label, e) bucket by ``np.bincount``: each bucket sum is an integer
    below 2^53, hence exact in float64, while the buckets hold fewer than
    2^26 values.  Before that they move into one Python int per label,
    the label's sum times 2^1126.  Reading divides that int by 2^1126,
    which is correctly rounded, as ``math.fsum`` is, so a read equals
    ``math.fsum`` of the same values in any order and any split into
    ``add`` calls.  A non-finite value raises instead of spoiling a sum.
    """

    def __init__(self, labels: int):
        import numpy as np

        self._hi = np.zeros(labels * _EXP_SPAN)
        self._lo = np.zeros(labels * _EXP_SPAN)
        self._held = 0
        self._exact = [0] * labels

    def add(self, labels, values) -> None:
        """Add each value to its label's sum.

        ``labels`` is one int for every value or an array shaped like ``values``.
        """
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise FloatingPointError("exact sum of a non-finite value")
        labels = np.broadcast_to(np.asarray(labels, dtype=np.intp), values.shape).ravel()
        values = values.ravel()
        for i in range(0, values.size, _HELD_MAX):
            m, e = np.frexp(values[i : i + _HELD_MAX])
            if self._held + m.size > _HELD_MAX:
                self._flush()
            m *= 2.0**27  # exact: now |m| < 2^27 with 26 bits after the point
            hi = np.floor(m)
            lo = (m - hi) * 2.0**26
            index = labels[i : i + _HELD_MAX] * _EXP_SPAN + (e + _EXP_BIAS)
            self._hi += np.bincount(index, weights=hi, minlength=self._hi.size)
            self._lo += np.bincount(index, weights=lo, minlength=self._lo.size)
            self._held += m.size

    def _flush(self) -> None:
        """Move the float bucket sums into the Python ints and empty them."""
        import numpy as np

        full = np.flatnonzero((self._hi != 0.0) | (self._lo != 0.0))
        for bucket, hi, lo in zip(
            full.tolist(),
            self._hi[full].astype(np.int64).tolist(),
            self._lo[full].astype(np.int64).tolist(),
        ):
            label, shift = divmod(bucket, _EXP_SPAN)
            self._exact[label] += ((hi << 26) + lo) << shift
        self._hi.fill(0.0)
        self._lo.fill(0.0)
        self._held = 0

    def value(self, *labels: int) -> float:
        """The correctly rounded sum of every value added under ``labels``."""
        self._flush()
        return sum(self._exact[label] for label in labels) / _SCALE


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
class _Block:
    """Classes, strips and L values of some rows of the canonical half of a box.

    Arrays are indexed [q - q0, p + Q] for the block's rows q0 <= q and
    p = -Q..Q.  The canonical half is q >= 1 with every p plus q = 0 with
    p < 0; the other row-0 cells are (0, 0) and mirrors, labelled _MIRROR.
    ``n`` is the strip floor(q omega - p).  The mirror (-q, -p) of a
    canonical pair has the same L, class brjuno_neg in place of brjuno_pos
    and strip -n - 1.  ``brjuno`` holds one (q, p, k, a) row per
    Brjuno-table pair in the block's rows.
    """

    q0: int
    label: np.ndarray
    n: np.ndarray
    L: np.ndarray
    brjuno: np.ndarray


def _half_box(
    cf: ContinuedFraction, delta: float, Q: int, block_cells: Optional[int] = None
):
    """The box kernel: classify and evaluate the canonical half, yielding _Blocks.

    The exact per-row work runs once, before the first block.  Per row, in
    exact integers, f = q omega - floor(q omega) and 1 - f come from the
    sandwich endpoints, each rounded once.  They are the divisors at
    p = floor and p = floor + 1, the smallest in the row (whose interval
    width is the same for every p), so checking their sign and relative
    width checks the whole row.  Then, as arrays over blocks of
    max(1, block_cells // (2Q + 1)) rows (``block_cells`` defaults to
    _BLOCK_CELLS, so memory stays flat in Q), |q omega - p| is n + f for
    n >= 0 and (-n - 1) + (1 - f) for n <= -1, free of cancellation;
    numerators come from one table of e^(-k delta).  A cell's values do not
    depend on the block it falls in.
    """
    _check_delta(delta)
    if Q < 1:
        raise ExpansionError("box radius must be >= 1")
    import numpy as np

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
    floors, f, g = (np.array(v)[:, None] for v in (floors, f, g))
    weights = np.array([math.exp(-k * delta) for k in range(2 * Q + 1)])
    brjuno = np.array(
        [pair + ka for pair, ka in table.pairs.items()], dtype=np.int64
    ).reshape(-1, 4)

    p = np.arange(-Q, Q + 1)
    rows = max(1, (block_cells or _BLOCK_CELLS) // (2 * Q + 1))
    for q0 in range(0, Q + 1, rows):
        q1 = min(q0 + rows, Q + 1)
        n = floors[q0:q1] - p
        neg = n < 0
        d = np.where(neg, g[q0:q1], f[q0:q1])
        d += np.where(neg, ~n, n)  # ~n == -n - 1
        label = np.full(n.shape, _AWAY, dtype=np.int8)
        label[(n == 0) | (n == -1)] = _CONST
        brj = brjuno[(q0 <= brjuno[:, 0]) & (brjuno[:, 0] < q1)]
        label[brj[:, 0] - q0, brj[:, 1] + Q] = _BRJUNO
        if q0 == 0:
            d[0, Q] = math.inf  # (0, 0) has no divisor
            label[0, Q:] = _MIRROR
        L = weights[np.arange(q0, q1)[:, None] + np.abs(p)]
        L /= d
        yield _Block(q0=q0, label=label, n=n, L=L, brjuno=brj)


def _class_scan(cf: ContinuedFraction, delta: float, Q: int):
    """One pass over the half box.

    Returns the exact L sums per label, the cell counts of the three classes
    and the L values of the level-0 Brjuno pairs.
    """
    sums = _ExactSums(4)
    counts = [0, 0, 0]  # _AWAY, _CONST, _BRJUNO
    level0 = []
    for block in _half_box(cf, delta, Q):
        sums.add(block.label, block.L)
        for label in (_AWAY, _CONST, _BRJUNO):
            counts[label] += int((block.label == label).sum())
        k0 = block.brjuno[block.brjuno[:, 2] == 0]
        level0 += block.L[k0[:, 0] - block.q0, k0[:, 1] + Q].tolist()
    return sums, counts, level0


def partition_sums(cf: ContinuedFraction, delta: float, Q: int) -> PartitionSums:
    """Classify and sum L over all 0 < max(|q|, |p|) <= Q, one sum per class.

    One pass over the row blocks of the canonical half adds each L to the
    exact bucket sum of its class (``_ExactSums``), and each class sum is
    rounded once at the end.  So it equals ``math.fsum`` of the class's
    values bit for bit, whatever the block size, and memory stays flat in
    Q.  Each class sum is twice the sum over the half, and doubling a float
    is exact.
    """
    sums, counts, level0 = _class_scan(cf, delta, Q)
    away_sum = 2.0 * sums.value(_AWAY)
    const_sum = 2.0 * sums.value(_CONST)
    brj_sum = 2.0 * sums.value(_BRJUNO)
    return PartitionSums(
        away=away_sum,
        const_type=const_sum,
        brjuno=brj_sum,
        brjuno_k0=2.0 * math.fsum(level0),
        total=away_sum + const_sum + brj_sum,
        counts={
            "away": 2 * counts[_AWAY],
            "const_type": 2 * counts[_CONST],
            "brjuno_pos": counts[_BRJUNO],
            "brjuno_neg": counts[_BRJUNO],
        },
        delta=delta,
        Q=Q,
        away_tail_bound=away_tail_majorant(delta, Q),
    )


def box_sum(cf: ContinuedFraction, delta: float, Q: int) -> float:
    """Unclassified sum of L over the same box.

    The exact bucket sum of every cell of the half, rounded once: like the
    class sums, it equals ``math.fsum`` of its values bit for bit.  It
    shares the kernel with :func:`partition_sums`, so agreement shows that
    the classes tile the box; ``classify_index`` and ``L_value`` are the
    independent scalar oracle.
    """
    sums, _, _ = _class_scan(cf, delta, Q)
    return 2.0 * sums.value(_AWAY, _CONST, _BRJUNO)


def partition_dump(cf: ContinuedFraction, delta: float, Q: int, path) -> None:
    """Audit CSV with one row per box pair: q,p,class,k,a,strip_n,L.

    Written as ``csv.writer`` writes it: comma-separated, ``\\r\\n`` line
    ends, an empty field for a missing value and ``repr`` of each float.
    """
    # one block of every row: the box rows below read the half in both directions
    half = next(_half_box(cf, delta, Q, block_cells=(Q + 1) * (2 * Q + 1)))
    ka = {(q, p + Q): f"{k},{a}" for q, p, k, a in half.brjuno.tolist()}

    def tails(cq: int, mirror: bool) -> list:
        """The class,k,a,strip_n,L fields of every cell of half row ``cq``, read
        as the cell itself or as its mirror (-q, -p)."""
        out = []
        cells = zip(half.label[cq].tolist(), half.n[cq].tolist(), half.L[cq].tolist())
        for j, (label, n, L) in enumerate(cells):
            if label == _AWAY:
                out.append(f"away,,,{~n if mirror else n},{L!r}")
            elif label == _CONST:
                out.append(f"const_type,,,,{L!r}")
            elif label == _BRJUNO:
                kind = "brjuno_neg" if mirror else "brjuno_pos"
                out.append(f"{kind},{ka[cq, j]},,{L!r}")
            else:  # (0, 0) and the mirrors in row 0 are never read
                out.append("")
        return out

    side = [str(p) for p in range(-Q, Q + 1)]
    with open(path, "w", newline="") as fh:
        fh.write("q,p,class,k,a,strip_n,L\r\n")
        # each cell reads its canonical pair, which is (q, p) itself for
        # q >= 1 and the mirror (-q, -p), in reversed column order, for q <= -1
        for q in range(-Q, Q + 1):
            if q == 0:  # canonical for p < 0, mirrored for p > 0
                row = tails(0, False)[:Q] + tails(0, True)[Q - 1 :: -1]
                ps = side[:Q] + side[Q + 1 :]
            else:
                row = tails(abs(q), q < 0)
                if q < 0:
                    row.reverse()
                ps = side
            fh.write("".join([f"{q},{p},{tail}\r\n" for p, tail in zip(ps, row)]))


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
    table_rows = {q for q, _ in table.pairs}

    worst = 0.0
    checked = 0
    violations = []
    for q in range(1, Q + 1):
        fl = floors[q]
        # q omega - fl through both sandwich endpoints, times their
        # denominators: 0 <= r_lo < lod and 0 <= r_hi < hid, since both give
        # the floor.  So |q omega - p| is r / den at p = fl and
        # (den - r) / den at p = fl + 1.
        r_lo = q * lon - fl * lod
        r_hi = q * hin - fl * hid
        pairs = ((fl, r_lo, r_hi), (fl + 1, lod - r_lo, hid - r_hi))
        if q in table_rows:
            pairs = [pair for pair in pairs if (q, pair[0]) not in table.pairs]
        checked += len(pairs)
        q2, f2 = 2 * q, 2.0 * q
        for p, x_lo, x_hi in pairs:
            # 2q |q omega - p| >= 1 must hold at both sandwich endpoints; at
            # neither it is a violation, at one only the sandwich is too coarse
            t_lo, t_hi = q2 * x_lo, q2 * x_hi
            if t_lo < lod or t_hi < hid:
                if t_lo > lod or t_hi > hid:
                    raise DepthExhausted(
                        f"legendre comparison unresolved at (q={q}, p={p}); expand deeper"
                    )
                violations.append((q, p))
            d_lo, d_hi = x_lo / lod, x_hi / hid
            # min and max spelled out: the builtin calls cost about as much
            # as the rest of the loop
            ratio = 1.0 / (f2 * (d_hi if d_hi < d_lo else d_lo))
            if ratio > worst:
                worst = ratio
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
        sums = _ExactSums(1)
        for block in _half_box(cf, delta, Q):
            away = block.label == _AWAY
            L, n = block.L[away], block.n[away]
            # the mirror of a pair in strip n lies in strip -n - 1
            sums.add(0, L[abs(n) <= n_max])
            sums.add(0, L[abs(n + 1) <= n_max])
        computed = sums.value(0)
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
