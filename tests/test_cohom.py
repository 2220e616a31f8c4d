"""Mode-wise solver, strip norms, blow-up construction."""

import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldivlab import cli, cohom
from smalldivlab.bounds import gamma_delta
from smalldivlab.cohom import (
    ModeMap,
    blowup_witness,
    check_thm1,
    counterexample_modes,
    load_modes,
    save_modes,
    solve_modes,
    strip_norm,
)
from smalldivlab.contfrac import DepthExhausted, FrequencySpec, expand

from conftest import divisor_interval


def _random_hermitian(rng, rho, count, span=10):
    entries = {}
    while len(entries) < 2 * count:
        p = int(rng.integers(-span, span + 1))
        q = int(rng.integers(-span, span + 1))
        if (p, q) == (0, 0) or (p, q) in entries:
            continue
        c = complex(rng.normal(), rng.normal()) * math.exp(-(abs(p) + abs(q)) * rho)
        entries[(p, q)] = c
        entries[(-p, -q)] = c.conjugate()
    return ModeMap(entries)


# ---------------------------------------------------------------------------
# ModeMap basics
# ---------------------------------------------------------------------------


def test_mode_map_rejects_mean():
    with pytest.raises(ValueError):
        ModeMap({(0, 0): 1.0})


def test_mode_map_json_round_trip(tmp_path):
    m = ModeMap({(1, 2): 0.25 - 0.5j, (-1, -2): 0.25 + 0.5j, (3, 0): 0.125})
    path = tmp_path / "modes.json"
    save_modes(m, path)
    again = load_modes(path)
    assert again.entries == m.entries


@pytest.mark.parametrize("key", ["p", "q"])
@pytest.mark.parametrize("index", [2**1019, -(2**1019), 10**400])
def test_load_modes_rejects_indices_past_1019_bits(tmp_path, key, index):
    rows = [{"p": 1, "q": 1, "re": 1.0, "im": 0.0}, {"p": 1, "q": 2, "re": 1.0, "im": 0.0}]
    rows[1][key] = index
    path = tmp_path / "modes.json"
    path.write_text(json.dumps(rows))
    with pytest.raises(ValueError, match="record 1 needs integer p, q of under 1020 bits"):
        load_modes(path)
    rows[1][key] = 2**1019 - 1  # 1019 bits still load
    path.write_text(json.dumps(rows))
    assert len(load_modes(path)) == 2


@pytest.mark.parametrize("key", ["re", "im"])
@pytest.mark.parametrize(
    "value, ok",
    [
        (sys.float_info.max, True),
        (-sys.float_info.max, True),
        (10**308, True),
        (5e-324, True),
        (0, True),
        (math.inf, False),
        (-math.inf, False),
        (math.nan, False),
        (10**400, False),
        # rounds to the largest float, but is past it
        (int(sys.float_info.max) + 1, False),
        (True, False),
        ("1.0", False),
        (None, False),
    ],
    ids=["max", "-max", "int-1e308", "subnormal", "int-0", "inf", "-inf", "nan", "int-1e400",
         "int-past-max", "bool", "string", "null"],
)
def test_load_modes_checks_each_coefficient_part(tmp_path, key, value, ok):
    rows = [{"p": 1, "q": 1, "re": 1.0, "im": 0.0}, {"p": 1, "q": 2, "re": 1.0, "im": 0.0}]
    rows[1][key] = value
    path = tmp_path / "modes.json"
    path.write_text(json.dumps(rows))  # inf and nan are written as Infinity and NaN
    if ok:
        c = load_modes(path).entries[(1, 2)]
        assert (c.real, c.imag) == ((float(value), 0.0) if key == "re" else (1.0, float(value)))
    else:
        with pytest.raises(ValueError, match="record 1 needs integer p, q of under 1020 bits"):
            load_modes(path)


_GOOD = '{"p": 1, "q": 1, "re": 1.0, "im": 0.0}'
_BAD_RECORD = "needs integer p, q of under 1020 bits and finite re, im"


@pytest.mark.parametrize(
    "text, message",
    [
        (_GOOD, "mode file must be a JSON list of {p, q, re, im} records"),
        (f'[{_GOOD}, {{"p": {_GOOD}, "q": 2, "re": 1.0, "im": 0.0}}]', f"record 1 {_BAD_RECORD}"),
        (f"[{_GOOD}, 3]", f"record 1 {_BAD_RECORD}"),
        (f"[{_GOOD}, [{_GOOD}]]", f"record 1 {_BAD_RECORD}"),
        ("[null]", f"record 0 {_BAD_RECORD}"),
        (f'[{_GOOD}, {{"p": 2, "q": 1, "re": 1.0, "im": 0.0}}, {_GOOD}]',
         "record 2 repeats mode (1, 1)"),
        # None: the file's own JSON syntax error, "Expecting ',' delimiter:
        # line 1 column 69 (char 68)" and "Expecting property name enclosed
        # in double quotes: line 1 column 52 (char 51)" on CPython 3.11
        (f'[{_GOOD}, {{"p": 2, "q": 1, "re": 1.0 "im": 0.0}}]', None),
        ('[{"p": 1.5, "q": 1, "re": 1.0, "im": 0.0}, {"p": 2,]', None),
    ],
    ids=["top-level-object", "object-p", "number-record", "list-record", "null-record",
         "repeated-mode", "syntax-error", "syntax-error-after-a-bad-record"],
)
def test_load_modes_errors_name_the_first_bad_record(tmp_path, text, message):
    # records are checked as they are decoded, yet a syntax error anywhere
    # comes first and the first bad record is the one named
    path = tmp_path / "modes.json"
    path.write_text(text)
    if message is None:
        with pytest.raises(json.JSONDecodeError) as syntax:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as raised:
            load_modes(path)
        assert str(raised.value) == str(syntax.value)
        return
    with pytest.raises(ValueError) as raised:
        load_modes(path)
    assert str(raised.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_solve_single_mode_golden(golden):
    a = ModeMap({(1, 1): 1.0, (-1, -1): 1.0})
    res = solve_modes(a, golden)
    # divisor 1 - omega = (3 - sqrt 5)/2 ~ 0.381966
    assert abs(res.modes.entries[(1, 1)]) == pytest.approx(2.618033988, rel=1e-9)
    assert res.max_rel_err < 1e-12


def test_solve_round_trip(golden):
    rng = np.random.default_rng(7)
    a = _random_hermitian(rng, 1.0, 30)
    res = solve_modes(a, golden)
    omega = golden.omega_float()
    for (p, q), g in res.modes.entries.items():
        back = complex(0.0, p - q * omega) * g
        err = abs(back - a.entries[(p, q)])
        # the mode's relative error: its divisor's enclosure width over the divisor
        lo, hi = (abs(float(d)) for d in divisor_interval(golden, q, p))
        rel_err = abs(hi - lo) / ((lo + hi) / 2.0) + 4.0 * 2.3e-16
        assert rel_err <= res.max_rel_err
        assert err <= (rel_err + 1e-9) * abs(a.entries[(p, q)])


def _real_and_imaginary_maps():
    # purely real and purely imaginary pairs, q = 0 and q < 0 among the modes
    modes = [(1, 0), (-3, 0), (2, -1), (5, -3), (-4, 7), (1, 1), (0, 2), (0, -5)]
    weights = [0.5, 1.25, 3.0, 0.1, 2.0**-30, 7.0, 0.75, 1e-3]
    real = {}
    imaginary = {}
    for (p, q), c in zip(modes, weights):
        real[(p, q)] = real[(-p, -q)] = complex(c, 0.0)
        imaginary[(p, q)] = complex(0.0, c)
        imaginary[(-p, -q)] = complex(0.0, -c)
    return [ModeMap(real), ModeMap(imaginary)]


def test_solve_reality_preserved_exactly(golden, sqrt2m1):
    rng = np.random.default_rng(11)
    for a in (_random_hermitian(rng, 0.8, 40), *_real_and_imaginary_maps()):
        for cf in (golden, sqrt2m1):
            g = solve_modes(a, cf).modes.entries
            for (p, q), value in g.items():
                mirror = g[(-p, -q)]
                assert mirror == value.conjugate(), (p, q)
                # bit for bit wherever a part is nonzero; only a zero's sign may differ
                for mine, theirs in ((mirror.real, value.real), (mirror.imag, -value.imag)):
                    if mine or theirs:
                        assert mine.hex() == theirs.hex(), (p, q)


def test_solve_empty_and_mean_errors(golden):
    empty = ModeMap({})
    assert len(solve_modes(empty, golden).modes) == 0


def test_solver_divisors_match_the_fraction_divisor_interval(corpus):
    # every canonical mode (q, p) > (0, 0) of a small box, q = 0 included,
    # and a few of over 60 bits
    modes = [(p, q) for q in range(16) for p in range(-16, 17) if (q, p) > (0, 0)]
    modes += [(3**40, 2**62), (-(5**30), 7**25), (2**70, 0)]
    for cf in corpus.values():
        # through the solver: the mirror mode takes the negated divisor
        a = ModeMap({**{m: 1.0 for m in modes}, **{(-p, -q): 1j for p, q in modes}})
        res = solve_modes(a, cf)
        for (p, q), c in a.entries.items():
            sign = 1 if (q, p) > (0, 0) else -1
            lo, hi = (float(d) for d in divisor_interval(cf, sign * q, sign * p))
            mid = -(lo + hi) / 2.0
            g, want = res.modes.entries[(p, q)], c / complex(0.0, sign * mid)
            assert (g.real.hex(), g.imag.hex()) == (want.real.hex(), want.imag.hex()), (p, q)


def test_solver_unresolved_divisor_sign_message(golden):
    # the bracket of a depth-5 expansion is (3/5, 5/8): it ends at p_5 / q_5,
    # so q_5 omega - p_5 may be zero there, and 13 omega - 8 has no sign
    cf = expand(FrequencySpec.golden(), 5)
    p, q = cf.p[5], cf.q[5]
    for cp, cq in ((p, q), (8, 13)):
        for mode in ((cp, cq), (-cp, -cq)):
            with pytest.raises(
                DepthExhausted,
                match=re.escape(f"divisor sign unresolved at (q={cq}, p={cp}); expand deeper"),
            ):
                solve_modes(ModeMap({mode: 1.0}), cf)


# ---------------------------------------------------------------------------
# strip norms
# ---------------------------------------------------------------------------


def test_strip_norm_single_mode_exact():
    m = ModeMap({(2, 1): 1.0})
    est = strip_norm(m, 0.7, 64)
    expected = math.exp(0.7 * 3)
    assert est.upper == pytest.approx(expected, rel=1e-12)
    # boundary sampling with the right sign pair hits the peak exactly
    assert est.sampled_lower == pytest.approx(expected, rel=1e-2)
    assert est.sampled_lower <= est.upper * (1 + 1e-12)


def test_strip_norm_shift_keeps_in_range_values():
    # e^705 is a float, but the sums run shifted down by e^5 and scale back once
    m = ModeMap({(705, 0): 1.0})
    est = strip_norm(m, 1.0, 16)
    assert est.upper == pytest.approx(math.exp(705), rel=1e-14)
    assert est.sampled_lower == pytest.approx(math.exp(705), rel=1e-2)
    assert est.sampled_lower <= est.upper * (1 + 1e-12)


@pytest.mark.parametrize("k", [1400, 1420, 1430, 1450])
def test_strip_norm_past_e709_bounds_the_true_norm(k):
    # c (e^(ix k) + e^(-ix k)) with c = 1e-320: e^k alone overflows past
    # k = 709.78, yet the norm 2c cosh(k) stays a float up to k = 1444
    c = 1e-320
    est = strip_norm(ModeMap({(k, 0): c, (-k, 0): c}), 1.0, 8)
    with mp.workdps(30):
        true = 2 * mp.mpf(c) * mp.cosh(k)
        upper = 2 * mp.mpf(c) * mp.exp(k)
    assert est.sampled_lower <= true * (1 + 1e-15) and true <= est.upper
    if true < sys.float_info.max:
        assert abs(est.sampled_lower - true) <= 1e-15 * true
        assert abs(est.upper - upper) <= 1e-15 * upper
    else:
        assert est.upper == math.inf and est.sampled_lower == sys.float_info.max


@pytest.mark.parametrize("c", [1e240, 1e300])
def test_strip_norm_large_coefficient_bounds_the_true_norm(c):
    # c (e^(iy k) + e^(-iy k)) at R k = 140: e^140 is a float, but
    # 1e300 e^140 is not, so the shift must come from |c| e^(R k), not R k
    k, R = 700, 0.2
    est = strip_norm(ModeMap({(0, k): complex(c), (0, -k): complex(c)}), R, 8)
    with mp.workdps(30):
        true = 2 * mp.mpf(c) * mp.cosh(R * k)
        upper = 2 * mp.mpf(c) * mp.exp(R * k)
    if true < sys.float_info.max:
        assert abs(est.sampled_lower - true) <= 1e-13 * true
        assert abs(est.upper - upper) <= 1e-13 * upper
    else:
        assert est.upper == math.inf and est.sampled_lower == sys.float_info.max


def test_strip_norm_coefficient_whose_abs_overflows():
    # |c| = 2.4e308: abs(c) itself overflows, and the norm is past the float range
    c = complex(1.7e308, 1.7e308)
    est = strip_norm(ModeMap({(0, 1): c, (0, -1): c.conjugate()}), 0.2, 8)
    assert est.upper == math.inf and est.sampled_lower == sys.float_info.max


@pytest.mark.parametrize(
    "entries, R",
    [
        ({(1, 1): 0.5 + 0.25j, (-1, -1): 0.5 - 0.25j, (2, -1): 0.1}, 0.5),
        ({(705, 0): 1.0}, 1.0),
        ({(1430, 0): 1e-320, (-1430, 0): 1e-320}, 1.0),
        ({(0, 700): 1e300 + 1e300j, (0, -700): 1e300 - 1e300j}, 0.2),
    ],
)
def test_strip_norm_takes_one_shift_pass(monkeypatch, entries, R):
    # the upper bound and the sampled grids share one shift, found once
    shift_pass = cohom._exp_shift
    calls = []

    def counted(ks, cs, R):
        calls.append(R)
        return shift_pass(ks, cs, R)

    monkeypatch.setattr(cohom, "_exp_shift", counted)
    est = strip_norm(ModeMap(entries), R, 16)
    assert calls == [R]
    assert est.upper == _oracle_upper(sorted(entries.items()), R)


def _direct_sampled_lower(modes, R, n):
    """Oracle: max over the four boundary grids of |sum w e^(i(p x - q y))|.

    The plain m x n x n sum, with the weights shifted down by e^s and the
    maximum scaled back once, where s = max(0, R max(|p|+|q|) - 700) over
    the nonzero coefficients: a zero one adds nothing to the sum.
    """
    items = [(pq, c) for pq, c in modes.entries.items() if c]
    P = np.array([p for (p, q), _ in items], dtype=np.float64)
    Q = np.array([q for (p, q), _ in items], dtype=np.float64)
    C = np.array([c for _, c in items], dtype=np.complex128)
    s = max(0.0, R * max(abs(p) + abs(q) for (p, q), _ in items) - 700.0)
    x = 2.0 * np.pi * np.arange(n) / n
    phase = np.exp(1j * (P[:, None, None] * x[None, :, None] - Q[:, None, None] * x[None, None, :]))
    lower = 0.0
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            w = C * np.exp(R * (-sx * P + sy * Q) - s)
            lower = max(lower, float(np.abs(np.tensordot(w, phase, axes=1)).max()))
    return lower * math.exp(s)


def _assert_matches_direct_sum(modes, R, n):
    got = strip_norm(modes, R, n).sampled_lower
    want = _direct_sampled_lower(modes, R, n)
    assert abs(got - want) <= 1e-13 * want, (got, want)


@pytest.mark.parametrize("grid_n", [8, 16, 64, 256])
@pytest.mark.parametrize("span_per_grid", [0.5, 1, 3])  # modes fold onto one cell past 1
def test_strip_norm_fft_matches_direct_sum(grid_n, span_per_grid):
    rng = np.random.default_rng(grid_n)
    span = int(span_per_grid * grid_n)
    for R in (0.1, 0.5, 1.7):
        modes = _random_hermitian(rng, R, 20, span=span)
        _assert_matches_direct_sum(modes, R, grid_n)


def test_strip_norm_fft_matches_direct_sum_on_the_shifted_path():
    # R (|p| + |q|) = 705 and 703 exceed the 700 room, so both sums run shifted
    m = ModeMap({(705, 0): 1.0, (700, 3): 0.5j, (-2, 1): 0.25})
    _assert_matches_direct_sum(m, 1.0, 16)


@st.composite
def _sparse_maps(draw):
    grid_n = draw(st.sampled_from([8, 16, 64]))
    span = draw(st.integers(min_value=1, max_value=3 * grid_n))
    index = st.integers(min_value=-span, max_value=span)
    coefficient = st.builds(
        lambda r, t: r * complex(math.cos(t), math.sin(t)),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    entries = draw(
        st.dictionaries(
            st.tuples(index, index).filter(lambda k: k != (0, 0)),
            coefficient,
            min_size=1,
            max_size=30,
        )
    )
    return ModeMap(entries), grid_n


@settings(max_examples=150, deadline=None)
@given(_sparse_maps(), st.floats(min_value=0.05, max_value=2.0))
def test_strip_norm_fft_matches_direct_sum_random(map_and_grid, R):
    modes, grid_n = map_and_grid
    _assert_matches_direct_sum(modes, R, grid_n)


def _oracle_shift(items, R):
    """(s, k_top, top) of the nonzero ((p, q), c) items, mode by mode: one
    pass for k_max, a second for how far log|c| + R k rises above R k_max."""
    k_max = max(abs(p) + abs(q) for (p, q), _ in items)
    rise = 0.0
    for (p, q), c in items:
        if abs(c.real) + abs(c.imag) > 1.0:
            k = abs(p) + abs(q)
            rise = max(rise, math.log(abs(0.5 * c)) + math.log(2.0) - R * (k_max - k))
    shift = R * k_max + rise - 700.0
    if shift <= 0.0:
        return 0.0, 0, 0.0
    return shift, k_max, 700.0 - rise


def _oracle_upper(items, R):
    """sum |c| e^(R(|p|+|q|)) of the nonzero items, one exp per mode."""
    shift, k_top, top = _oracle_shift(items, R)
    try:
        total = math.fsum(
            abs(c) * math.exp(top - R * (k_top - (abs(p) + abs(q)))) for (p, q), c in items
        )
    except OverflowError:
        return math.inf
    return cohom._times_exp(total, shift)


def _dense_strip_norm(modes, R, grid_n):
    """The dense strip norm that the row-compacted one replaced, kept as its
    byte-level oracle: the upper bound takes one exp per mode, the weights
    are folded onto all n x n residues by add.at and each sign choice takes
    one ifft2."""
    items = [(pq, c) for pq, c in sorted(modes.entries.items()) if c]
    if not items:
        return cohom.StripNormEstimate(R=R, upper=0.0, sampled_lower=0.0, grid_n=grid_n)
    upper = _oracle_upper(items, R)
    shift, k_top, top = _oracle_shift(items, R)
    n = grid_n
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
                expo = np.array([top - R * (k_top - q * sy + p * sx) for (p, q), _ in items])
            folded = np.zeros((n, n), dtype=np.complex128)
            np.add.at(folded.reshape(-1), cell, C * np.exp(expo))
            lower = max(lower, float(np.abs(np.fft.ifft2(folded, norm="forward")).max()))
    lower = min(cohom._times_exp(lower, shift), sys.float_info.max)
    return cohom.StripNormEstimate(R=R, upper=upper, sampled_lower=lower, grid_n=grid_n)


@st.composite
def _oracle_maps(draw):
    # grids past 128 take several column blocks, and 12, 100 and 300 are no
    # powers of two; spans past n fold several residues onto one row; a far
    # mode at 800 puts R k past the 700 room (the shifted path), and
    # 2^63 + 5 is past int64 (with R = 1e-300 its value stays a float)
    grid_n = draw(st.sampled_from([8, 12, 16, 64, 100, 128, 256, 300, 512]))
    span = draw(st.integers(min_value=1, max_value=3 * grid_n))
    index = st.integers(min_value=-span, max_value=span)
    part = st.floats(min_value=-2.0, max_value=2.0)
    coefficient = st.one_of(st.just(0j), st.builds(complex, part, part))
    entries = draw(
        st.dictionaries(
            st.tuples(index, index).filter(lambda k: k != (0, 0)),
            coefficient,
            min_size=1,
            max_size=40,
        )
    )
    far = draw(st.sampled_from([None, 800, 2**63 + 5]))
    if far is not None:
        c = draw(coefficient)
        entries[(far, 1)], entries[(-far, -1)] = c, c.conjugate()
    R = draw(st.one_of(st.floats(min_value=0.05, max_value=3.0), st.just(1e-300)))
    return ModeMap(entries), R, grid_n


@settings(max_examples=150, deadline=None)
@given(_oracle_maps())
def test_strip_norm_matches_the_dense_transform_bit_for_bit(case):
    modes, R, grid_n = case
    assert strip_norm(modes, R, grid_n) == _dense_strip_norm(modes, R, grid_n)


@pytest.mark.parametrize("count, span, grids", [(1000, 20, (256, 1024)), (4000, 40, (64, 128))])
def test_strip_norm_matches_the_dense_transform_on_large_maps(count, span, grids):
    # the sizes of the strip-norm benchmark's maps
    modes = _random_hermitian(np.random.default_rng(count), 1.0, count // 2, span=span)
    assert len(modes) == count
    for grid_n in grids:
        assert strip_norm(modes, 0.5, grid_n) == _dense_strip_norm(modes, 0.5, grid_n)


def test_strip_norm_memory_stays_flat():
    # measured on 64-bit CPython 3.11 with numpy 2.4: a peak of 2.0 MB for
    # 1000 modes at grid 1024, where the dense n x n grids took 50.4 MB
    modes = _random_hermitian(np.random.default_rng(7), 1.0, 500, span=20)
    strip_norm(modes, 0.5, 1024)  # numpy's fft module is loaded before the trace
    tracemalloc.start()
    try:
        strip_norm(modes, 0.5, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_solve_norms_the_solution_with_one_mode_map_alive(tmp_path):
    # measured on 64-bit CPython 3.11 with numpy 2.4: a peak of 1.75 MB for
    # this 4000-mode map at grid 128, where 2.33 MB kept the data map alive
    # and built (mode, c) pairs while the solution was normed
    modes = tmp_path / "modes.json"
    save_modes(_random_hermitian(np.random.default_rng(4000), 1.0, 2000, span=40), modes)
    argv = ["--out", str(tmp_path / "solve.json"), "solve", "--freq", "golden",
            "--modes", str(modes), "--R", "0.5", "--grid-n", "128"]
    assert cli.main(argv) == 0  # numpy's fft module is loaded before the trace
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.05e6, peak


def test_strip_norm_index_beyond_int64():
    # 2**63 is past int64, so the residues must come from the Python ints
    m = ModeMap({(2**63, 0): 1.0, (-(2**63), 0): 1.0, (1, 1): 0.5})
    est = strip_norm(m, 0.5, 16)
    assert est.upper == math.inf
    assert est.sampled_lower == sys.float_info.max


@pytest.mark.parametrize("p", [2**63, -(2**63)])
@pytest.mark.parametrize("R", [1.0, 1e300])
def test_strip_norm_shift_past_2_53_and_the_float_range(p, R):
    # R (|p| + |q|) - s is formed from exact integers, so the largest mode's
    # exponent is 700, neither e^1024 (an overflow warning, an error in this
    # suite) nor inf - inf (a nan upper bound)
    m = ModeMap({(p, 1): 1.0, (-p, -1): 1.0})
    est = strip_norm(m, R, 16)
    assert est.upper == math.inf
    assert est.sampled_lower == sys.float_info.max


def test_strip_norm_zero_coefficient_sets_no_shift():
    # a zero mode far out once shifted e^(1 - 1300) to 0 and gave upper 0
    m = ModeMap({(2000, 0): 0.0, (1, 0): 1.0})
    est = strip_norm(m, 1.0, 16)
    assert est.upper == math.exp(1.0)
    assert est.sampled_lower == pytest.approx(math.exp(1.0), rel=1e-14)


@pytest.mark.parametrize("grid_n", [7, 4097, 100_000_000])
def test_strip_norm_rejects_grid_n_out_of_range(grid_n):
    with pytest.raises(ValueError, match="grid_n must be between 8 and 4096"):
        strip_norm(ModeMap({(1, 0): 1.0}), 0.5, grid_n)


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_strip_norm_rejects_bad_R(R):
    with pytest.raises(ValueError, match="R must be a finite number > 0"):
        strip_norm(ModeMap({(1, 0): 1.0}), R)


def test_strip_norm_zero():
    est = strip_norm(ModeMap({}), 1.0)
    assert (est.upper, est.sampled_lower) == (0.0, 0.0)


def test_strip_norm_triangle_inequality():
    rng = np.random.default_rng(3)
    m1 = _random_hermitian(rng, 1.0, 10)
    m2 = _random_hermitian(rng, 1.0, 10)
    merged = dict(m1.entries)
    for k, v in m2.entries.items():
        merged[k] = merged.get(k, 0.0) + v
    s = strip_norm(ModeMap(merged), 0.5)
    assert s.upper <= strip_norm(m1, 0.5).upper + strip_norm(m2, 0.5).upper + 1e-12


def test_strip_norm_monotone_in_R():
    rng = np.random.default_rng(5)
    m = _random_hermitian(rng, 1.0, 15)
    uppers = [strip_norm(m, R).upper for R in (0.2, 0.5, 0.8, 1.0)]
    for a, b in zip(uppers, uppers[1:]):
        assert a <= b


def test_strip_norm_lower_below_upper():
    rng = np.random.default_rng(9)
    for _ in range(5):
        m = _random_hermitian(rng, 1.0, 12)
        est = strip_norm(m, 0.6)
        assert est.sampled_lower <= est.upper * (1 + 1e-12)


# ---------------------------------------------------------------------------
# end-to-end bound
# ---------------------------------------------------------------------------


def test_check_thm1_single_mode(golden):
    a = ModeMap({(1, 1): 1.0, (-1, -1): 1.0})
    [rep] = check_thm1([a], golden, 1.0, 0.2)
    assert rep.verdict
    assert rep.margin > 10.0 * rep.computed  # large margin


def test_check_thm1_seeded_random(golden, sqrt2m1):
    rng = np.random.default_rng(42)
    for cf in (golden, sqrt2m1):
        for _ in range(10):
            a = _random_hermitian(rng, 1.0, 25, span=12)
            [rep] = check_thm1([a], cf, 1.0, 0.2)
            assert rep.verdict, rep


def test_check_thm1_norms_the_solution_only(golden, monkeypatch):
    # the data needs only its coefficient-sum upper bound, not a sampled norm
    a = _random_hermitian(np.random.default_rng(3), 1.0, 25, span=12)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return strip_norm(*args, **kwargs)

    monkeypatch.setattr(cohom, "strip_norm", counted)
    [rep] = check_thm1([a], golden, 1.0, 0.2)
    assert len(calls) == 1
    assert rep.params["a_upper"] == strip_norm(a, 1.0).upper


def test_check_thm1_checks_mu_before_the_solve(golden, monkeypatch):
    def unreachable(*args):
        raise AssertionError("solved before the inputs were checked")

    monkeypatch.setattr(cohom, "solve_modes", unreachable)
    a = ModeMap({(1, 1): 1.0, (-1, -1): 1.0})
    with pytest.raises(ValueError, match="mu must be a finite number >= 1, got 0.8"):
        check_thm1([a], golden, 1.0, 0.1, mu=0.8)


def test_check_thm1_builds_gamma0_once_for_every_map(golden, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return gamma_delta(*args)

    monkeypatch.setattr(cohom, "gamma_delta", counted)
    rng = np.random.default_rng(5)
    maps = [_random_hermitian(rng, 1.0, 25, span=12) for _ in range(4)]
    reports = check_thm1(maps, golden, 1.0, 0.2)
    assert len(calls) == 1
    # each report is the one a single-map call gives
    assert reports == [check_thm1([a], golden, 1.0, 0.2)[0] for a in maps]
    assert check_thm1([], golden, 1.0, 0.2) == []


def test_check_thm1_delta_near_rho(golden):
    # delta just under rho: few effective modes survive, everything finite
    a = ModeMap({(2, 1): 0.01, (-2, -1): 0.01})
    [rep] = check_thm1([a], golden, 0.35, 0.349)
    assert rep.verdict
    assert math.isfinite(rep.bound) and math.isfinite(rep.computed)


# ---------------------------------------------------------------------------
# blow-up construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("e", [60, 1030, 1100])
def test_alpha_data_rounds_each_reciprocal_once(e):
    # 1/q_n and the tail's 1/s1, 1/s2 past 53 bits and past 1020 bits
    cf = expand(FrequencySpec.literal([3, 2**e + 1, 2, 5, 7]), 5)
    for n_max in (2, 3):
        alpha = cohom._alpha_data(cf, n_max)
        s1 = cf.q[n_max] + cf.q[n_max - 1]
        s2 = s1 + cf.q[n_max]
        assert alpha.partial == math.fsum(float(Fraction(1, cf.q[n])) for n in range(1, n_max + 1))
        assert alpha.tail == 2.0 * (float(Fraction(1, s1)) + float(Fraction(1, s2)))


def test_counterexample_alpha_n_is_rounded_once():
    # rho = 5e-324 makes e^(-rho(p+q)) exactly 1.0, so at epsilon = 1 the
    # coefficient is alpha_n = 1/(2 abar q_n); 19 of these q_n have more
    # than 53 bits
    cf = expand(FrequencySpec.periodic((), (2,)), 64)
    ce = counterexample_modes(cf, 5e-324, 1.0, 60)
    for n in range(1, 61):
        want = float(1 / (2 * Fraction(ce.alpha.abar) * cf.q[n]))
        assert ce.modes.entries[(cf.p[n], cf.q[n])] == complex(want, 0.0), n


def test_counterexample_normalization(golden):
    ce = counterexample_modes(golden, 1.0, 1.0, 10)
    assert 1.0 - ce.alpha.deficit <= ce.alpha.two_sum_alpha <= 1.0
    assert ce.norm_upper <= ce.epsilon
    # rigorous tail: recompute the dropped reciprocal mass at greater depth
    deeper_partial = math.fsum(1.0 / q for q in golden.q[11:31])
    assert deeper_partial <= ce.alpha.tail


def test_counterexample_coefficient_formula(golden):
    ce = counterexample_modes(golden, 1.0, 1.0, 10)
    # (p_3, q_3) = (2, 3)
    expected = math.exp(-5.0) / (2.0 * ce.alpha.abar * 3.0)
    assert ce.modes.entries[(2, 3)].real == pytest.approx(expected, rel=1e-15)
    for (p, q), c in ce.modes.entries.items():
        assert ce.modes.entries[(-p, -q)] == c.conjugate()
    assert len(ce.modes) == 20


def test_counterexample_epsilon_scaling(golden):
    a = counterexample_modes(golden, 1.0, 1.0, 8)
    b = counterexample_modes(golden, 1.0, 2.5, 8)
    for key, val in a.modes.entries.items():
        assert b.modes.entries[key] == pytest.approx(2.5 * val, rel=1e-15)


def test_witness_identity_log_space(golden):
    # long-path evaluation (rho appears and cancels) agrees to 1e-9
    rho, dprime, eps = 1.0, 0.05, 0.7
    pts = blowup_witness(golden, rho, dprime, eps, 12)
    ce = counterexample_modes(golden, rho, eps, 12)
    omega = golden.omega_float()
    for pt in pts:
        coeff = ce.modes.entries[(pt.p, pt.q)].real
        g_coeff = coeff / abs(pt.q * omega - pt.p)
        long_path = (rho - dprime) * (pt.p + pt.q) + math.log(g_coeff)
        assert pt.log_w_lo - 1e-9 <= long_path <= pt.log_w_hi + 1e-9


def test_witness_divisor_bracket_sound(golden):
    pts = blowup_witness(golden, 1.0, 0.05, 1.0, 12)
    lo, hi = golden.bracket
    for pt in pts:
        true_div = abs(float(pt.q * (lo + hi) / 2 - pt.p))
        assert 1.0 / (pt.q + golden.q[pt.n + 1]) < true_div < 1.0 / golden.q[pt.n + 1]


def test_blowup_exp_liouville_vs_golden(exp_liouville, golden):
    Delta_prime = 0.1
    w_el = exp_liouville.omega_float()
    pts = blowup_witness(exp_liouville, 1.0, Delta_prime / (1 + w_el), 1.0, 4)
    # monotone increase from n = 2, interval-robust
    assert pts[2].log_w_lo > pts[1].log_w_hi
    assert pts[3].log_w_lo > pts[2].log_w_hi
    inc23_hi = pts[2].log_w_hi - pts[1].log_w_lo
    inc34_lo = pts[3].log_w_lo - pts[2].log_w_hi
    assert inc34_lo > inc23_hi  # increments themselves increase

    w_g = golden.omega_float()
    gpts = blowup_witness(golden, 1.0, Delta_prime / (1 + w_g), 1.0, 12)
    mids = [(pt.log_w_lo + pt.log_w_hi) / 2 for pt in gpts]
    for a, b in zip(mids, mids[1:]):
        assert b < a  # no blow-up for the all-ones frequency


def test_blowup_witness_validation(golden):
    with pytest.raises(ValueError):
        blowup_witness(golden, 1.0, 1.5, 1.0, 5)
    with pytest.raises(ValueError):
        blowup_witness(golden, 1.0, 0.1, -1.0, 5)
