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
a few rows, so memory stays flat in Q, and sum each block exactly into
integer buckets per class and binary exponent.  Each sum is rounded once
at the end, so it is the correctly rounded exact sum, bit-identical to
``math.fsum`` of the same values in any grouping and for any block size.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Optional

from ._record import Record
from .bounds import BoundReport, _require_rate
from .contfrac import (
    ContinuedFraction,
    DepthExhausted,
    ExpansionError,
    _divisor_ends,
    floor_mult,
    mul_big_float,
    resolve_depth_for_box,
)

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

_REL_WIDTH_TOL = 1e-12
_TOL_NUM, _TOL_DEN = _REL_WIDTH_TOL.as_integer_ratio()


class IndexClass(Record):
    """Exactly one of away / const_type / brjuno_pos / brjuno_neg.

    ``strip`` is set for away indices; ``k`` and ``a`` for convergent
    multiples (q, p) = (+-a q_k, +-a p_k).
    """

    kind: str
    strip: Optional[int] = None
    k: Optional[int] = None
    a: Optional[int] = None


class PartitionSums(Record):
    """Per-class sums over a box 0 < max(|q|, |p|) <= Q, plus counts.

    ``brjuno_k0`` is the level-0 part of the brjuno sum (multiples of
    (q_0, p_0) = (1, 0)); it is included in ``brjuno`` but reported
    separately because the weighted series it is compared against start
    at level 1.  ``total`` is exactly away + const_type + brjuno;
    ``box_total`` is the unclassified sum of every cell from the same exact
    buckets, rounded once.  ``away_tail_bound`` majorizes the away mass
    outside the box (every away summand is below e^(-(|q|+|p|) delta), whose
    lattice sum has a closed geometric form).
    """

    away: float
    const_type: float
    brjuno: float
    brjuno_k0: float
    total: float
    counts: dict
    box_total: float
    away_tail_bound: float = 0.0


def _check_delta(delta: float) -> None:
    """Reject a delta that no box scan or tail majorant can use."""
    _require_rate("delta", delta)
    # below about 1.1e-16 the majorant's ratio r = e^(-delta) is 1.0
    if math.exp(-delta) == 1.0:
        raise ValueError(f"delta = {delta!r} is too small: e^(-delta) rounds to 1")


def _check_radius(Q: int) -> None:
    """Reject a box radius below 1."""
    if Q < 1:
        raise ExpansionError("box radius must be >= 1")


def away_tail_majorant(delta: float, Q: int) -> float:
    """Geometric bound on sum of e^(-(|q|+|p|) delta) over max(|q|,|p|) > Q."""
    _check_delta(delta)
    r = math.exp(-delta)
    s_inf = (1.0 + r) / (1.0 - r)
    s_Q = 1.0 + 2.0 * r * (1.0 - r**Q) / (1.0 - r)
    return s_inf * s_inf - s_Q * s_Q


class BrjunoTable(Record):
    """Canonical convergent multiples with q <= Q: {(q, p): (k, a)}."""

    pairs: dict
    Q: int


def brjuno_pairs_up_to(cf: ContinuedFraction, Q: int) -> BrjunoTable:
    """Enumerate (a q_k, a p_k) with a q_k <= Q, 1 <= a <= astar[k].

    Requires the expansion to reach a denominator beyond Q so the
    enumeration is provably complete.
    """
    _check_radius(Q)
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


def _divisor_midpoint(x_lo: int, d_lo: int, x_hi: int, d_hi: int, q: int, p: int) -> float:
    """Midpoint of x_lo/d_lo <= |q omega - p| <= x_hi/d_hi, each end correctly
    rounded (as float(Fraction) is), once the relative width is below
    _REL_WIDTH_TOL; the width test is cross-multiplied exactly."""
    if (x_hi * d_lo - x_lo * d_hi) * _TOL_DEN > _TOL_NUM * x_lo * d_hi:
        raise DepthExhausted(
            f"divisor interval too wide at (q={q}, p={p}); expand deeper"
        )
    return (x_lo / d_lo + x_hi / d_hi) / 2.0


def L_value(q: int, p: int, delta: float, cf: ContinuedFraction) -> float:
    """L(q, p) = e^(-(|p|+|q|) delta) / |q omega - p| (midpoint evaluation).

    The divisor interval comes from the bracket of omega; its relative
    width must be below 1e-12 or the call asks for a deeper expansion.
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
        _, x_lo, d_lo, x_hi, d_hi = _divisor_ends(cf, q, p)
        d_mid = _divisor_midpoint(x_lo, d_lo, x_hi, d_hi, q, p)
    return math.exp(-mul_big_float(abs(p) + abs(q), delta)) / d_mid


# ---------------------------------------------------------------------------
# box scans
# ---------------------------------------------------------------------------

# class labels of the half-box scan, which also index its exact sums;
# _MIRROR marks row-0 cells outside the half
_AWAY, _CONST, _BRJUNO, _MIRROR = 0, 1, 2, 3

# box cells per block of rows (at least one row): about 1 MB of arrays.
# Of 2^12 ... 2^16, 2^14 scanned fastest at Q = 300 ... 800, and 2^15 and
# 2^16 raised the peak RSS of a Q = 800 scan by 1.3 and 4.0 MB over it
_BLOCK_CELLS = 2**14

# the kernel is checked against classify_index and L_value on the canonical
# cells with max(|q|, |p|) <= this radius, plus every Brjuno pair
_ORACLE_RADIUS = 12

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


def _residue_rows(lo: Fraction, hi: Fraction, Q: int):
    """(q, floor(q lo), residue of q lo, floor(q hi), residue of q hi) for q = 1..Q.

    The residue of q x, for x = num/den, is q num - floor(q x) den, in
    [0, den).  Each step adds num to it and carries one den into the
    floor when it reaches den; one carry is enough since 0 <= num <= den,
    which holds for any endpoint of a bracket of omega in (0, 1).
    """
    lon, lod, hin, hid = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    f_lo = f_hi = r_lo = r_hi = 0
    for q in range(1, Q + 1):
        r_lo += lon
        if r_lo >= lod:
            r_lo -= lod
            f_lo += 1
        r_hi += hin
        if r_hi >= hid:
            r_hi -= hid
            f_hi += 1
        yield q, f_lo, r_lo, f_hi, r_hi


def _box_rows(cf: ContinuedFraction, Q: int):
    """Exact per-row data of a box: the Brjuno table, then floor(q omega),
    f = q omega - floor(q omega) and 1 - f for q = 0..Q, in one walk.

    Both ends of sandwich level m = ``resolve_depth_for_box(cf, Q)`` give
    floor(q omega) for q <= Q, and the bracket lies inside that level, so
    its two ends give it too: a row where they differ is a defect of the
    program, not a shallow expansion, and raises RuntimeError.  f and 1 - f
    are the divisors at p = floor and p = floor + 1, read from the
    endpoints' residues over their denominators, each rounded once.
    """
    table = brjuno_pairs_up_to(cf, Q)
    m = resolve_depth_for_box(cf, Q)
    lo, hi = cf.bracket
    lod, hid = lo.denominator, hi.denominator
    # no L of the box exceeds 1/min(f, g), and a box sum adds fewer than
    # (2Q + 1)^2 of them: above this floor, which leaves a factor 2 for
    # rounding, every sum stays finite
    d_floor = 2.0 * (2 * Q + 1) ** 2 / sys.float_info.max
    floors = [0]  # row q = 0: floor 0, so the divisors are |p| exactly
    f = [0.0]
    g = [1.0]
    for q, fl, r_lo, f_hi, r_hi in _residue_rows(lo, hi, Q):
        if f_hi != fl:
            raise RuntimeError(
                f"box row q={q}: the bracket ends give two floors, inside"
                f" sandwich level m={m}, the level chosen for box radius {Q}"
            )
        floors.append(fl)
        f.append(_divisor_midpoint(r_lo, lod, r_hi, hid, q, fl))
        g.append(_divisor_midpoint(hid - r_hi, hid, lod - r_lo, lod, q, fl + 1))
        if min(f[q], g[q]) < d_floor:
            p, d = (fl, f[q]) if f[q] < g[q] else (fl + 1, g[q])
            raise ValueError(
                f"pair (q={q}, p={p}): divisor |q omega - p| rounds to {d:.3g},"
                f" below {d_floor:.3g}, where L and the box sums may overflow"
            )
    return table, floors, f, g


class _Block(Record):
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


def _half_box(cf: ContinuedFraction, delta: float, Q: int):
    """The box kernel: classify and evaluate the canonical half, yielding _Blocks.

    The exact per-row work (``_box_rows``) runs once, before the first
    block.  Per row, f = q omega - floor(q omega) and 1 - f are the
    divisors at p = floor and p = floor + 1, the smallest in the row (whose
    interval width is the same for every p), so checking their sign and
    relative width checks the whole row.  Then, as arrays over blocks of
    max(1, _BLOCK_CELLS // (2Q + 1)) rows, so memory stays flat in Q,
    |q omega - p| is n + f for n >= 0 and (-n - 1) + (1 - f) for n <= -1,
    free of cancellation; numerators come from one table of e^(-k delta).
    The blocks run from the top row down, the order in which the audit dump
    writes the mirrored rows q <= -1.  A cell's values do not depend on the
    block it falls in.  The input checks and the row work run when
    ``_half_box`` is called, so a bad input raises before any block is read.
    """
    _check_delta(delta)
    _check_radius(Q)
    import numpy as np

    table, floors, f, g = _box_rows(cf, Q)
    floors, f, g = (np.array(v)[:, None] for v in (floors, f, g))
    weights = np.array([math.exp(-k * delta) for k in range(2 * Q + 1)])
    brjuno = np.array(
        [pair + ka for pair, ka in table.pairs.items()], dtype=np.int64
    ).reshape(-1, 4)

    p = np.arange(-Q, Q + 1)
    rows = max(1, _BLOCK_CELLS // (2 * Q + 1))

    def blocks():
        for q0 in reversed(range(0, Q + 1, rows)):
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

    return blocks()


def _check_oracle(block: _Block, cf: ContinuedFraction, delta: float, table: BrjunoTable) -> None:
    """Raise RuntimeError at the first cell of the block where the kernel
    disagrees with ``classify_index`` (class, strip, k and a, from its own
    Brjuno ``table``) or ``L_value`` (beyond 1e-12 relative), among the
    canonical cells with max(|q|, |p|) <= _ORACLE_RADIUS (or Q) and every
    Brjuno pair.  These scalar functions take each floor and divisor from the
    bracket per pair, not from the kernel's row tables and arrays."""
    Q = table.Q  # the table spans the box
    r = min(Q, _ORACLE_RADIUS)
    rows = range(block.q0, min(r + 1, block.q0 + block.label.shape[0]))
    cells = [(q, p) for q in rows for p in range(-r, r + 1) if q or p < 0]
    ka = {}
    for q, p, k, a in block.brjuno.tolist():
        ka[q, p] = (k, a)
        if q > r or abs(p) > r:
            cells.append((q, p))
    for q, p in cells:
        i, j = q - block.q0, p + Q
        label = int(block.label[i, j])
        kind = ("away", "const_type", "brjuno_pos", "mirror")[label]
        strip = int(block.n[i, j]) if label == _AWAY else None
        cls = IndexClass(kind, strip, *ka.get((q, p), ()))
        L, oracle_L = float(block.L[i, j]), L_value(q, p, delta, cf)
        oracle = classify_index(q, p, cf, table)
        if oracle != cls or abs(L - oracle_L) > _REL_WIDTH_TOL * oracle_L:
            raise RuntimeError(
                f"box kernel at (q={q}, p={p}): {cls} and L = {L!r}, where the"
                f" scalar oracle gives {oracle} and L = {oracle_L!r}"
            )


def partition_sums(cf: ContinuedFraction, delta: float, Q: int) -> PartitionSums:
    """Classify and sum L over all 0 < max(|q|, |p|) <= Q, one sum per class.

    One pass over the row blocks of the canonical half adds each L to the
    exact bucket sum of its class (``_ExactSums``), and each class sum is
    rounded once at the end.  So it equals ``math.fsum`` of the class's
    values bit for bit, whatever the block size, and memory stays flat in
    Q.  Each class sum is twice the sum over the half, and doubling a float
    is exact.  Each block is checked against the scalar oracle
    (``_check_oracle``) as it comes, so a kernel defect raises RuntimeError.
    """
    blocks = _half_box(cf, delta, Q)
    table = brjuno_pairs_up_to(cf, Q)
    sums = _ExactSums(4)
    counts = [0, 0, 0]  # _AWAY, _CONST, _BRJUNO
    level0 = []  # L of the level-0 Brjuno pairs
    for block in blocks:
        _check_oracle(block, cf, delta, table)
        sums.add(block.label, block.L)
        for label in (_AWAY, _CONST, _BRJUNO):
            counts[label] += int((block.label == label).sum())
        k0 = block.brjuno[block.brjuno[:, 2] == 0]
        level0 += block.L[k0[:, 0] - block.q0, k0[:, 1] + Q].tolist()
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
        box_total=2.0 * sums.value(_AWAY, _CONST, _BRJUNO),
        away_tail_bound=away_tail_majorant(delta, Q),
    )


def partition_dump(cf: ContinuedFraction, delta: float, Q: int, path) -> None:
    """Audit CSV with one row per box pair: q,p,class,k,a,strip_n,L.

    Written as ``csv.writer`` writes it: comma-separated, ``\\r\\n`` line
    ends, an empty field for a missing value and ``repr`` of each float.

    The file runs from row q = -Q up, and the kernel's blocks from half row
    Q down, so the mirrored rows q <= -1 go straight to the file.  Rows
    q >= 1 come in reverse order: each waits, as bytes, in a temporary file
    and is copied back after row 0.  Memory stays flat in Q, and ``repr``
    runs once per L.
    """
    import tempfile

    blocks = _half_box(cf, delta, Q)  # checks the input before the file opens
    side = [str(p) for p in range(-Q, Q + 1)]

    def lines(block: _Block, i: int, ka: dict):
        """The lines of every cell of the block's row ``i``, written as the
        cell itself and as its mirror (-q, -p)."""
        own, mirror = [], []
        cq = block.q0 + i
        q, mq = str(cq), str(-cq)
        cells = zip(
            side, side[::-1], block.label[i].tolist(), block.n[i].tolist(), block.L[i].tolist()
        )
        for j, (p, mp, label, n, L) in enumerate(cells):
            if label == _AWAY:
                L = repr(L)
                own.append(f"{q},{p},away,,,{n},{L}\r\n")
                mirror.append(f"{mq},{mp},away,,,{~n},{L}\r\n")
            elif label == _CONST:
                L = repr(L)
                own.append(f"{q},{p},const_type,,,,{L}\r\n")
                mirror.append(f"{mq},{mp},const_type,,,,{L}\r\n")
            elif label == _BRJUNO:
                rest = f"{ka[cq, j]},,{L!r}\r\n"
                own.append(f"{q},{p},brjuno_pos,{rest}")
                mirror.append(f"{mq},{mp},brjuno_neg,{rest}")
            else:  # (0, 0) and the mirrors in row 0 are never read
                own.append("")
                mirror.append("")
        return own, mirror

    with open(path, "wb") as fh, tempfile.TemporaryFile() as spill:
        fh.write(b"q,p,class,k,a,strip_n,L\r\n")
        spans = []  # (offset, length) in spill of half rows Q, Q - 1, ..., 1
        for block in blocks:
            ka = {(q, p + Q): f"{k},{a}" for q, p, k, a in block.brjuno.tolist()}
            for i in reversed(range(block.label.shape[0])):
                own, mirror = lines(block, i, ka)
                if block.q0 + i:
                    # row -q holds the mirrors of half row q in reversed
                    # column order
                    fh.write("".join(reversed(mirror)).encode())
                    row = "".join(own).encode()
                    spans.append((spill.tell(), len(row)))
                    spill.write(row)
                else:  # canonical for p < 0, mirrored for p > 0
                    fh.write("".join(own[:Q] + mirror[Q - 1 :: -1]).encode())
        for offset, length in reversed(spans):
            spill.seek(offset)
            fh.write(spill.read(length))


# ---------------------------------------------------------------------------
# exact Legendre check
# ---------------------------------------------------------------------------


def verify_legendre(cf: ContinuedFraction, Q: int) -> BoundReport:
    """For every critical-strip pair with 0 < q <= Q that is not a convergent
    multiple, verify |q omega - p| >= 1/(2q) by exact integer comparison.

    Reports max over checked pairs of 1/(2q |q omega - p|) against the
    bound 1; any violating pair (a classification defect, not a math
    failure) is listed in params["violations"].

    Every floor and sign is decided at sandwich level
    m = ``resolve_depth_for_box(cf, Q)``, stepping its small residues.  A
    floor that both of its endpoints give holds at omega too, and so does a
    sign of 2q |q omega - p| - 1 that both give, since that is affine in
    omega between them.  The level fixes every floor, and Legendre's theorem
    with the astar bound fixes every sign, so a row it leaves undecided is a
    defect of the program, not a shallow expansion: it raises RuntimeError,
    since expanding deeper would not change m.

    ``computed`` is 1/v at the pair whose v = 2q x / d is least, with x / d
    the lower end of |q omega - p| at the bracket (``_divisor_ends``): one
    int/int division, so it is correctly rounded.  The level encloses each
    v in [a, b] as integer fractions; let b_min be the least b.  The bracket
    lies inside the level, so a pair whose a exceeds b_min has its v above
    b_min, and b_min is at least the least v at the bracket.  Only the other
    pairs, the candidates, are read at the bracket, and every comparison is
    cross-multiplied.  No candidate is a bracket endpoint, since q <= Q < q_m.
    """
    _check_radius(Q)
    if cf.exact is not None:
        raise ExpansionError(f"legendre needs an irrational frequency; {cf.exact} is rational")
    table = brjuno_pairs_up_to(cf, Q)
    m = resolve_depth_for_box(cf, Q)
    lo, hi = cf.sandwich(m)
    lod, hid = lo.denominator, hi.denominator
    table_rows = {q for q, _ in table.pairs}

    checked = 0
    violations = []
    candidates = []  # (q, p, a numerator, a denominator)
    bn, bd = 1, 0  # b_min = bn / bd, infinite before the first pair
    # a pair whose a exceeds K = ceil(b_min) >= 1 is decided and no
    # candidate; these hold K lod and K hid
    klod = khid = math.inf
    for q, fl, r_lo, f_hi, r_hi in _residue_rows(lo, hi, Q):
        q2 = q + q
        # a lies at the low endpoint for p = fl, at the high one for fl + 1
        if fl == f_hi and q2 * r_lo > klod and q2 * (hid - r_hi) > khid and q not in table_rows:
            checked += 2
            continue
        # (p, x_a, d_a, x_b, d_b) with x_a / d_a <= |q omega - p| <= x_b / d_b
        # at the level, for the critical pairs outside the Brjuno table
        pairs = ((fl, r_lo, lod, r_hi, hid), (fl + 1, hid - r_hi, hid, lod - r_lo, lod))
        pairs = [pair for pair in pairs if (q, pair[0]) not in table.pairs]
        # is 2q |q omega - p| below 1 at each end of the level's enclosure?
        below = [(q2 * x_a < d_a, q2 * x_b < d_b) for _, x_a, d_a, x_b, d_b in pairs]
        if fl != f_hi or any(a_below != b_below for a_below, b_below in below):
            raise RuntimeError(
                f"legendre row q={q} undecided at sandwich level m={m}, the"
                f" level chosen for box radius {Q}"
            )
        checked += len(pairs)
        for (p, x_a, d_a, x_b, d_b), (short, _) in zip(pairs, below):
            if short:
                violations.append((q, p))
            if q2 * x_b * bd < bn * d_b:
                bn, bd = q2 * x_b, d_b
                K = -(-bn // bd)
                klod, khid = K * lod, K * hid
            if q2 * x_a * bd <= bn * d_a:
                candidates.append((q, p, q2 * x_a, d_a))

    vn, vd = 0, 1  # the least v = vn / vd at the bracket among the candidates
    for q, p, an, ad in candidates:
        if an * bd <= bn * ad:
            _, x, d, _, _ = _divisor_ends(cf, q, p)
            if not vn or 2 * q * x * vd < vn * d:
                vn, vd = 2 * q * x, d
    return BoundReport(
        quantity="max of 1/(2 q |q omega - p|) over non-convergent critical pairs",
        computed=vd / vn if vn else 0.0,
        bound=1.0,
        params={"Q": Q, "checked": checked, "violations": violations},
    )
