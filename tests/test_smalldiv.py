"""Index classification, partitioned sums, exact critical-strip checks."""

import csv
import dataclasses
import math
import re
import tracemalloc
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldivlab import smalldiv
from smalldivlab.bounds import brj1, brj2
from smalldivlab.contfrac import (
    DepthExhausted,
    ExpansionError,
    FrequencySpec,
    expand,
    floor_mult,
    parse_frequency,
    resolve_depth_for_box,
)
from smalldivlab.smalldiv import (
    _AWAY,
    _BRJUNO,
    _CONST,
    _MIRROR,
    L_value,
    _ExactSums,
    _half_box,
    away_bound_check,
    away_tail_majorant,
    box_sum,
    brjuno_pairs_up_to,
    classify_index,
    partition_dump,
    partition_sums,
    verify_legendre,
)

# quotients:[...] prefixes long enough to resolve Q <= 25 boxes, and surds
_quotient = st.integers(min_value=1, max_value=30)
frequencies = st.one_of(
    st.lists(_quotient, min_size=45, max_size=60).map(FrequencySpec.literal),
    st.builds(
        FrequencySpec.periodic,
        st.lists(_quotient, max_size=3),
        st.lists(_quotient, min_size=1, max_size=3),
    ),
)

_KIND_NAMES = ("away", "const_type", "brjuno_pos", "brjuno_neg")

pairs = st.tuples(
    st.integers(min_value=-60, max_value=60), st.integers(min_value=-60, max_value=60)
).filter(lambda t: t != (0, 0))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_examples(golden):
    c = classify_index(1, 1, golden)
    assert (c.kind, c.k, c.a) == ("brjuno_pos", 1, 1)
    c = classify_index(1, -3, golden)
    assert (c.kind, c.strip) == ("away", 3)
    c = classify_index(4, 2, golden)
    assert c.kind == "const_type"
    # level-0 multiples of (q_0, p_0) = (1, 0)
    c = classify_index(1, 0, golden)
    assert (c.kind, c.k, c.a) == ("brjuno_pos", 0, 1)
    c = classify_index(-1, 0, golden)
    assert (c.kind, c.k, c.a) == ("brjuno_neg", 0, 1)


def test_classify_axis_edges(golden):
    # q = 0 gives integer divisor values; edges tile away from zero
    assert classify_index(0, -1, golden).strip == 1
    assert classify_index(0, 1, golden).strip == -2
    assert classify_index(0, 5, golden).strip == -6
    assert classify_index(0, -5, golden).strip == 5
    with pytest.raises(ExpansionError):
        classify_index(0, 0, golden)


@settings(max_examples=150, deadline=None)
@given(pairs)
def test_classify_central_symmetry(pair):
    cf = expand(FrequencySpec.periodic((), (1, 2)), 50)
    q, p = pair
    a = classify_index(q, p, cf)
    b = classify_index(-q, -p, cf)
    if a.kind == "away":
        assert b.kind == "away" and b.strip == -a.strip - 1
    elif a.kind == "const_type":
        assert b.kind == "const_type"
    else:
        mirror = {"brjuno_pos": "brjuno_neg", "brjuno_neg": "brjuno_pos"}[a.kind]
        assert b.kind == mirror and (b.k, b.a) == (a.k, a.a)


@settings(max_examples=150, deadline=None)
@given(pairs)
def test_crit_strip_iff_not_away(pair):
    cf = expand(FrequencySpec.periodic((), (2, 1, 3)), 50)
    q, p = pair
    cls = classify_index(q, p, cf)
    box = cf.finest_sandwich()
    lo = q * box.lo - p
    hi = q * box.hi - p
    inside = max(abs(lo), abs(hi)) < 1  # |q omega - p| < 1 decided exactly
    on_edge = q == 0 and abs(p) == 1
    if inside:
        assert cls.kind in ("const_type", "brjuno_pos", "brjuno_neg")
    elif not on_edge:
        assert cls.kind == "away"
    else:
        assert cls.kind == "away"  # |divisor| = 1 exactly: tiled into away


def test_brjuno_table_completeness(golden):
    table = brjuno_pairs_up_to(golden, 200)
    # all-ones expansion: every astar is 1, so pairs are exactly the
    # convergents (q_k, p_k) with q_k <= 200, including both level-0 and
    # level-1 denominators q = 1
    fib = [q for q in golden.q if q <= 200]
    assert len(table.pairs) == len(fib)
    assert (1, 0) in table.pairs and (1, 1) in table.pairs


def test_brjuno_count_formula(pi_like):
    Q = 200
    table = brjuno_pairs_up_to(pi_like, Q)
    expected = 0
    for k in range(pi_like.depth):
        if pi_like.q[k] > Q:
            break
        expected += min(pi_like.astar[k], Q // pi_like.q[k])
    assert len(table.pairs) == expected
    sums = partition_sums(pi_like, 0.1, Q)
    assert sums.counts["brjuno_pos"] == expected
    assert sums.counts["brjuno_neg"] == expected


# ---------------------------------------------------------------------------
# L values
# ---------------------------------------------------------------------------


def test_L_golden_oracle(golden):
    got = L_value(1, 1, 0.1, golden)
    mp.mp.dps = 30
    w = (mp.sqrt(5) - 1) / 2
    expected = mp.exp(mp.mpf("-0.2")) / abs(w - 1)
    assert got == pytest.approx(float(expected), rel=1e-12)
    assert got == pytest.approx(2.1435, abs=1e-4)


@settings(max_examples=100, deadline=None)
@given(pairs)
def test_L_central_symmetry_exact(pair):
    cf = expand(FrequencySpec.periodic((), (3,)), 40)
    q, p = pair
    assert L_value(q, p, 0.17, cf) == L_value(-q, -p, 0.17, cf)


def test_L_monotone_to_zero_delta(golden):
    # L increases monotonically to 1/|q omega - p| as delta decreases
    values = [L_value(3, 2, d, golden) for d in (0.5, 0.2, 0.1, 0.01, 1e-6)]
    for a, b in zip(values, values[1:]):
        assert b > a
    box = golden.finest_sandwich()
    limit = 1.0 / abs(float(3 * box.midpoint - 2))
    assert values[-1] < limit
    assert values[-1] == pytest.approx(limit, rel=1e-4)


def test_L_log_mode(golden):
    direct = L_value(5, 3, 0.3, golden)
    assert L_value(5, 3, 0.3, golden, log=True) == pytest.approx(
        math.log(direct), rel=1e-12
    )


# ---------------------------------------------------------------------------
# partition sums
# ---------------------------------------------------------------------------


def test_partition_counts_tile_box(golden, sqrt2m1):
    for cf in (golden, sqrt2m1):
        sums = partition_sums(cf, 0.2, 40)
        assert sum(sums.counts.values()) == (2 * 40 + 1) ** 2 - 1


def test_partition_oracle(golden):
    sums = partition_sums(golden, 0.2, 200)
    oracle = box_sum(golden, 0.2, 200)
    assert abs(sums.total - oracle) <= 1e-12 * oracle
    assert sums.total == sums.away + sums.const_type + sums.brjuno


def test_partition_deterministic(golden):
    a = partition_sums(golden, 0.13, 60)
    b = partition_sums(golden, 0.13, 60)
    assert (a.away, a.const_type, a.brjuno, a.total) == (
        b.away,
        b.const_type,
        b.brjuno,
        b.total,
    )


def test_away_tail_majorant_contains_growth(golden):
    # enlarging the box adds at most the reported out-of-box away mass
    small = partition_sums(golden, 0.25, 30)
    big = partition_sums(golden, 0.25, 60)
    assert big.away - small.away <= small.away_tail_bound
    assert small.away_tail_bound > 0.0
    # direct lattice check of the majorant itself
    direct = math.fsum(
        math.exp(-(abs(q) + abs(p)) * 0.25)
        for q in range(-60, 61)
        for p in range(-60, 61)
        if max(abs(q), abs(p)) > 30
    )
    assert direct <= away_tail_majorant(0.25, 30) + 1e-12


@pytest.mark.parametrize(
    "delta, message",
    [
        (math.nan, "finite, got nan"),
        (math.inf, "finite, got inf"),
        (1e-17, "rounds to 1"),
        (0.0, "must be > 0"),
        (-0.5, "must be > 0"),
    ],
)
def test_unusable_delta_is_rejected_before_the_scan(golden, delta, message):
    # 1e-17 used to fail with ZeroDivisionError in the tail majorant after
    # the scan, nan and inf with FloatingPointError in the exact sums
    for call in (
        lambda: partition_sums(golden, delta, 5),
        lambda: box_sum(golden, delta, 5),
        lambda: partition_dump(golden, delta, 5, "unused.csv"),
        lambda: away_tail_majorant(delta, 5),
        lambda: L_value(1, 0, delta, golden),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_partition_k0_subset(golden):
    sums = partition_sums(golden, 0.2, 50)
    assert 0.0 < sums.brjuno_k0 < sums.brjuno
    # level-0 part is the two pairs (1, 0) and (-1, 0)
    assert sums.brjuno_k0 == pytest.approx(2.0 * L_value(1, 0, 0.2, golden), rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    frequencies,
    st.integers(min_value=1, max_value=25),
    st.floats(0.05, 0.5),
    st.integers(min_value=1, max_value=4),
)
def test_half_box_matches_scalar_oracle(spec, Q, delta, rows):
    cf = expand(spec, 60)
    table = brjuno_pairs_up_to(cf, Q)
    # blocks of a few rows, so the scan crosses block edges
    blocks = list(_half_box(cf, delta, Q, block_cells=rows * (2 * Q + 1)))
    assert [block.q0 for block in blocks] == list(range(0, Q + 1, rows))
    assert sum(block.label.shape[0] for block in blocks) == Q + 1
    assert sum(len(block.brjuno) for block in blocks) == len(table.pairs)
    brjuno = {(q, p): (k, a) for b in blocks for q, p, k, a in b.brjuno.tolist()}
    labels = {"away": _AWAY, "const_type": _CONST, "brjuno_pos": _BRJUNO}
    mirrors = {"away": "away", "const_type": "const_type", "brjuno_pos": "brjuno_neg"}
    kinds = Counter()
    terms = {"away": [], "const_type": [], "brjuno": []}
    for q in range(Q + 1):
        half = blocks[q // rows]
        i = q - half.q0  # the row of q in its block
        for p in range(-Q, Q + 1):
            if q == 0 and p >= 0:
                assert half.label[0, p + Q] == _MIRROR
                continue
            cls = classify_index(q, p, cf, table)
            assert half.label[i, p + Q] == labels[cls.kind], (q, p)
            if cls.kind == "away":
                assert half.n[i, p + Q] == cls.strip
            if cls.kind == "brjuno_pos":
                assert brjuno[(q, p)] == (cls.k, cls.a)
            L = L_value(q, p, delta, cf)
            assert abs(half.L[i, p + Q] - L) <= 1e-15 * L, (q, p)
            # central symmetry: the mirror has the same L, Away(n) <-> Away(-n-1)
            mirror = classify_index(-q, -p, cf, table)
            assert mirror.kind == mirrors[cls.kind]
            assert (mirror.k, mirror.a) == (cls.k, cls.a)
            if cls.kind == "away":
                assert mirror.strip == -cls.strip - 1
            assert L_value(-q, -p, delta, cf) == L
            kinds.update((cls.kind, mirror.kind))
            terms[cls.kind.replace("_pos", "")] += [L, L]
    sums = partition_sums(cf, delta, Q)
    assert sums.counts == {kind: kinds[kind] for kind in _KIND_NAMES}
    assert sum(sums.counts.values()) == (2 * Q + 1) ** 2 - 1
    for name, values in terms.items():
        oracle = math.fsum(values)
        assert abs(getattr(sums, name) - oracle) <= 1e-15 * oracle
    oracle = math.fsum(sum(terms.values(), []))
    assert abs(box_sum(cf, delta, Q) - oracle) <= 1e-15 * oracle


# zeros, subnormals and exponents from 2^-1074 up to 2^1000, of either sign
_magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2.0**-1022),
    st.builds(math.ldexp, st.integers(1, 2**53 - 1), st.integers(-1074, 947)),
)
_summands = st.tuples(_magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), _summands), max_size=60),
    st.lists(st.integers(0, 60), max_size=5),
)
def test_exact_sums_equal_fsum(cells, cuts):
    labels = np.array([label for label, _ in cells], dtype=np.int8)
    values = np.array([x for _, x in cells], dtype=np.float64)
    sums = _ExactSums(3)
    # arbitrary split points; repeated ones give empty blocks
    edges = [0, *sorted(min(cut, len(cells)) for cut in cuts), len(cells)]
    for lo, hi in zip(edges, edges[1:]):
        sums.add(labels[lo:hi], values[lo:hi])
    for label in range(3):
        assert sums.value(label) == math.fsum(values[labels == label]), label
    assert sums.value(0, 1, 2) == math.fsum(values)
    # one label for a whole block, and reads in between
    sums.add(1, values)
    assert sums.value(1) == math.fsum([*values[labels == 1], *values])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exact_sums_reject_non_finite(bad):
    sums = _ExactSums(2)
    with pytest.raises(FloatingPointError, match="non-finite"):
        sums.add(np.array([0, 1]), np.array([1.0, bad]))


def test_partition_sums_are_fsum_of_the_kernel_cells(golden):
    # bit for bit, across the default blocks
    Q, delta = 300, 0.1
    blocks = list(_half_box(golden, delta, Q))
    assert len(blocks) > 1
    label = np.concatenate([block.label for block in blocks])
    L = np.concatenate([block.L for block in blocks])
    sums = partition_sums(golden, delta, Q)
    assert sums.away == 2.0 * math.fsum(L[label == _AWAY])
    assert sums.const_type == 2.0 * math.fsum(L[label == _CONST])
    assert sums.brjuno == 2.0 * math.fsum(L[label == _BRJUNO])
    assert box_sum(golden, delta, Q) == 2.0 * math.fsum(L[label != _MIRROR])


def test_box_scans_do_not_depend_on_the_block_size(golden, large_quot, monkeypatch):
    Q, delta = 60, 0.1

    def scans():
        return [
            (
                partition_sums(cf, delta, Q),
                box_sum(cf, delta, Q),
                away_bound_check(cf, delta, Q, n_max=2).computed,
            )
            for cf in (golden, large_quot)
        ]

    whole = scans()
    monkeypatch.setattr(smalldiv, "_BLOCK_CELLS", 1)  # one row per block
    assert scans() == whole
    # every add call of a whole-box block splits and moves its buckets to ints
    monkeypatch.setattr(smalldiv, "_BLOCK_CELLS", (Q + 1) * (2 * Q + 1))
    monkeypatch.setattr(smalldiv, "_HELD_MAX", 1000)
    assert scans() == whole


def test_partition_sums_memory_stays_flat(golden):
    # whole-box arrays of the Q = 1600 half box take about 160 MB
    tracemalloc.start()
    try:
        partition_sums(golden, 0.1, 1600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_partition_dump_matches_scalar_oracle(tmp_path, large_quot):
    Q, delta = 12, 0.2
    path = tmp_path / "dump.csv"
    partition_dump(large_quot, delta, Q, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    box = [(q, p) for q in range(-Q, Q + 1) for p in range(-Q, Q + 1) if (q, p) != (0, 0)]
    assert [(int(r[0]), int(r[1])) for r in rows] == box
    table = brjuno_pairs_up_to(large_quot, Q)
    assert {r[2] for r in rows} == {"away", "const_type", "brjuno_pos", "brjuno_neg"}
    assert max(int(r[4]) for r in rows if r[4]) > 1  # multiples a > 1 occur
    for (q, p), row in zip(box, rows):
        cls = classify_index(q, p, large_quot, table)
        blank = ["" if v is None else str(v) for v in (cls.k, cls.a, cls.strip)]
        assert row[2:6] == [cls.kind] + blank, (q, p)
        L = L_value(q, p, delta, large_quot)
        assert abs(float(row[6]) - L) <= 1e-15 * L, (q, p)


def test_partition_dump_schema(tmp_path, golden):
    path = tmp_path / "dump.csv"
    partition_dump(golden, 0.3, 6, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == (2 * 6 + 1) ** 2 - 1
    assert set(rows[0]) == {"q", "p", "class", "k", "a", "strip_n", "L"}
    classes = {r["class"] for r in rows}
    assert classes == {"away", "const_type", "brjuno_pos", "brjuno_neg"}
    # spot check central symmetry in the dump
    by_pair = {(int(r["q"]), int(r["p"])): r for r in rows}
    for (q, p), r in by_pair.items():
        m = by_pair[(-q, -p)]
        assert r["L"] == m["L"]


def _csv_writer_dump(cf, delta, Q, path):
    """The array and ``csv.writer`` dump writer that ``partition_dump``
    replaced, kept as its byte-level oracle."""
    half = next(_half_box(cf, delta, Q, block_cells=(Q + 1) * (2 * Q + 1)))
    k = np.zeros(half.label.shape, dtype=np.int64)
    a = np.zeros(half.label.shape, dtype=np.int64)
    bq, bp, bk, ba = half.brjuno.T
    k[bq, bp + Q] = bk
    a[bq, bp + Q] = ba
    kinds = np.array(_KIND_NAMES, dtype=object)
    side = np.arange(-Q, Q + 1)

    def cells(mask, values):
        return np.where(mask, values.astype(object), "").tolist()

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "p", "class", "k", "a", "strip_n", "L"])
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


@pytest.mark.parametrize(
    "freq, Q, delta",
    [("golden", 6, 0.3), ("surd:[;1,40]", 12, 0.2), ("rational:355/113000", 7, 0.1),
     ("golden", 1, 0.2)],
)
def test_partition_dump_bytes_match_the_csv_writer(tmp_path, freq, Q, delta):
    cf = expand(parse_frequency(freq), 64)
    partition_dump(cf, delta, Q, tmp_path / "dump.csv")
    _csv_writer_dump(cf, delta, Q, tmp_path / "oracle.csv")
    dump = (tmp_path / "dump.csv").read_bytes()
    assert dump == (tmp_path / "oracle.csv").read_bytes()
    assert dump.count(b"\r\n") == (2 * Q + 1) ** 2


# ---------------------------------------------------------------------------
# exact critical-strip check
# ---------------------------------------------------------------------------


def _legendre_loop(cf, Q):
    """The per-pair loop that ``verify_legendre`` replaced, kept as its oracle:
    (computed, checked, violations)."""
    table, floors, (lon, lod, hin, hid) = smalldiv._box_rows(cf, Q)
    worst = 0.0
    checked = 0
    violations = []
    for q in range(1, Q + 1):
        fl = floors[q]
        for p in (fl, fl + 1):
            if (q, p) in table.pairs:
                continue
            checked += 1
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
            worst = max(worst, 1.0 / (2.0 * q * min(d_lo, d_hi)))
            if not ok:
                violations.append((q, p))
    return worst, checked, violations


def _legendre_outcome(fn, cf, Q):
    try:
        rep = fn(cf, Q)
    except DepthExhausted as exc:
        return "raised", str(exc)
    if isinstance(rep, tuple):
        return rep
    return rep.computed, rep.params["checked"], rep.params["violations"]


def test_legendre_matches_the_per_pair_loop(corpus):
    for cf in corpus.values():
        assert _legendre_outcome(verify_legendre, cf, 2000) == _legendre_loop(cf, 2000)


def test_legendre_reports_a_pair_missing_from_the_table(golden, monkeypatch):
    # a convergent dropped from the table is checked, and golden convergents
    # have |q omega - p| ~ 1/(sqrt(5) q) < 1/(2q): the violations path runs
    dropped = (golden.q[8], golden.p[8])
    full = brjuno_pairs_up_to

    def without_one(cf, Q):
        table = full(cf, Q)
        return dataclasses.replace(
            table, pairs={pair: ka for pair, ka in table.pairs.items() if pair != dropped}
        )

    monkeypatch.setattr(smalldiv, "brjuno_pairs_up_to", without_one)
    rep = verify_legendre(golden, 2000)
    assert rep.params["violations"] == [dropped]
    assert not rep.verdict and rep.computed > 1.0
    assert _legendre_outcome(verify_legendre, golden, 2000) == _legendre_loop(golden, 2000)


def test_legendre_raises_where_the_per_pair_loop_raises(corpus):
    # coarser sandwiches than the finest leave floors or sign tests unresolved:
    # both loops must give the same result or the same first error
    raised = set()
    for cf in corpus.values():
        for Q in range(1, 40):
            for m in range(resolve_depth_for_box(cf, Q) + 1):
                coarse = dataclasses.replace(cf)
                box = cf.sandwich(m)
                coarse.__dict__["bracket"] = (box.lo, box.hi)  # the cached property
                got = _legendre_outcome(verify_legendre, coarse, Q)
                assert got == _legendre_outcome(_legendre_loop, coarse, Q), (Q, m)
                if got[0] == "raised":
                    raised.add(got[1].split(" at ")[0].split("(")[0])
    assert raised == {"floor", "legendre comparison unresolved"}


def test_legendre_golden(golden):
    rep = verify_legendre(golden, 2000)
    assert rep.verdict
    assert not rep.params["violations"]
    assert rep.params["checked"] > 0
    assert rep.computed <= 1.0


def test_legendre_sqrt2(sqrt2m1):
    rep = verify_legendre(sqrt2m1, 2000)
    assert rep.verdict and not rep.params["violations"]


def test_legendre_tiny_box(golden):
    rep = verify_legendre(golden, 1)
    assert rep.verdict


def test_legendre_rejects_rational_before_scanning():
    # 2/5 = [2, 2] is too shallow for any box; the rational is named first
    cf = expand(FrequencySpec.rational(2, 5), 64)
    with pytest.raises(ExpansionError, match="irrational"):
        verify_legendre(cf, 3)


# ---------------------------------------------------------------------------
# box sums against their closed-form majorants
# ---------------------------------------------------------------------------


def test_away_bound(golden):
    rep = away_bound_check(golden, 0.1, 500, mu=1.25)
    assert rep.verdict, rep
    rep2 = away_bound_check(golden, 0.05, 500, mu=1.25)
    assert rep2.verdict
    # the bound roughly doubles (times the log ratio) while the sum follows
    assert rep2.bound > 2.0 * rep.bound
    assert rep2.computed > rep.computed
    assert rep.computed >= 0.0


def test_away_bound_strip_cutoff(golden):
    full = away_bound_check(golden, 0.1, 200, mu=1.25)
    cut = away_bound_check(golden, 0.1, 200, mu=1.25, n_max=3)
    assert cut.computed <= full.computed
    assert cut.verdict


def test_away_bound_strip_cutoff_oracle(golden):
    Q, delta = 30, 0.1
    table = brjuno_pairs_up_to(golden, Q)
    box = [(q, p) for q in range(-Q, Q + 1) for p in range(-Q, Q + 1) if (q, p) != (0, 0)]
    for n_max in (0, 1, 3):
        oracle = math.fsum(
            L_value(q, p, delta, golden)
            for q, p in box
            if (cls := classify_index(q, p, golden, table)).kind == "away"
            and abs(cls.strip) <= n_max
        )
        rep = away_bound_check(golden, delta, Q, mu=1.25, n_max=n_max)
        assert abs(rep.computed - oracle) <= 1e-14 * oracle, (n_max, rep.computed, oracle)
    assert rep.computed == pytest.approx(30.3742, abs=1e-4)


def test_const_type_box_bound(golden, sqrt2m1, pi_like):
    mu = 1.25
    for cf in (golden, sqrt2m1, pi_like):
        omega = cf.omega_float()
        for delta in (0.05, 0.1, 0.2):
            sums = partition_sums(cf, delta, 200)
            bound = mu * 8.0 / (1.0 + omega) ** 2 / delta**2
            assert sums.const_type <= bound
            # and the crude critical-strip majorant dominates the class sum
            crit_majorant = 0.0
            m = None
            for q in range(1, 201):
                fl = floor_mult(cf, q)
                for p in (fl, fl + 1):
                    if abs(p) <= 200:
                        crit_majorant += 2 * (
                            2 * q * math.exp(-(abs(p) + q) * delta)
                        )
            assert sums.const_type <= crit_majorant + 1e-9
            assert crit_majorant <= bound * 1.0001


def test_brjuno_box_bound(golden, sqrt2m1, pi_like):
    mu = 1.25
    eps = mu - 1.0
    for cf in (golden, sqrt2m1, pi_like):
        omega = cf.omega_float()
        for delta in (0.05, 0.1, 0.2):
            sums = partition_sums(cf, delta, 200)
            Delta = (1.0 + omega) * delta
            depth = cf.depth - 1
            bound = 2.0 * (
                (2.0 + eps) * brj1(cf, Delta, depth).value
                + (1.0 + eps) * brj2(cf, 2.0 * Delta, depth).value
            )
            assert sums.brjuno <= bound, (cf.spec.describe(), delta)
