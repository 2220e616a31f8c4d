"""Mode-wise solver, strip norms, blow-up construction."""

import math

import numpy as np
import pytest

from smalldivlab import cohom
from smalldivlab.cohom import (
    ModeMap,
    blowup_witness,
    check_thm1,
    counterexample_modes,
    divergence_minorant_check,
    load_modes,
    save_modes,
    solve_modes,
    strip_norm,
)


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
    return ModeMap.build(entries, hermitian=True)


# ---------------------------------------------------------------------------
# ModeMap basics
# ---------------------------------------------------------------------------


def test_mode_map_rejects_mean():
    with pytest.raises(ValueError):
        ModeMap.build({(0, 0): 1.0})


def test_mode_map_hermitian_detection():
    good = ModeMap.build({(1, 2): 1 + 2j, (-1, -2): 1 - 2j})
    assert good.hermitian
    bad = ModeMap.build({(1, 2): 1 + 2j, (-1, -2): 1 + 2j})
    assert not bad.hermitian
    with pytest.raises(ValueError):
        ModeMap(entries={(1, 2): 1 + 2j}, hermitian=True)


def test_mode_map_json_round_trip(tmp_path):
    m = ModeMap.build({(1, 2): 0.25 - 0.5j, (-1, -2): 0.25 + 0.5j, (3, 0): 0.125})
    path = tmp_path / "modes.json"
    save_modes(m, path)
    again = load_modes(path)
    assert again.entries == m.entries


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_solve_single_mode_golden(golden):
    a = ModeMap.build({(1, 1): 1.0, (-1, -1): 1.0})
    res = solve_modes(a, golden)
    # divisor 1 - omega = (3 - sqrt 5)/2 ~ 0.381966
    assert abs(res.modes.entries[(1, 1)]) == pytest.approx(2.618033988, rel=1e-9)
    assert res.max_rel_err < 1e-12


def test_solve_round_trip(golden):
    rng = np.random.default_rng(7)
    a = _random_hermitian(rng, 1.0, 30)
    res = solve_modes(a, golden)
    box = golden.finest_sandwich()
    omega = float(box.midpoint)
    for (p, q), g in res.modes.entries.items():
        back = complex(0.0, p - q * omega) * g
        err = abs(back - a.entries[(p, q)])
        assert err <= (res.mode_rel_err[(p, q)] + 1e-9) * abs(a.entries[(p, q)])


def test_solve_reality_preserved_exactly(golden):
    rng = np.random.default_rng(11)
    a = _random_hermitian(rng, 0.8, 40)
    res = solve_modes(a, golden)
    assert res.modes.hermitian
    for (p, q), g in res.modes.entries.items():
        assert res.modes.entries[(-p, -q)] == g.conjugate()


def test_solve_empty_and_mean_errors(golden):
    empty = ModeMap.build({})
    assert len(solve_modes(empty, golden).modes) == 0


# ---------------------------------------------------------------------------
# strip norms
# ---------------------------------------------------------------------------


def test_strip_norm_single_mode_exact():
    m = ModeMap.build({(2, 1): 1.0}, hermitian=False)
    est = strip_norm(m, 0.7, 64)
    expected = math.exp(0.7 * 3)
    assert est.upper == pytest.approx(expected, rel=1e-12)
    # boundary sampling with the right sign pair hits the peak exactly
    assert est.sampled_lower == pytest.approx(expected, rel=1e-2)
    assert est.sampled_lower <= est.upper * (1 + 1e-12)


def test_strip_norm_shift_keeps_in_range_values():
    # e^705 is a float, but the sums run shifted down by e^5 and scale back once
    m = ModeMap.build({(705, 0): 1.0}, hermitian=False)
    est = strip_norm(m, 1.0, 16)
    assert est.upper == pytest.approx(math.exp(705), rel=1e-14)
    assert est.sampled_lower == pytest.approx(math.exp(705), rel=1e-2)
    assert est.sampled_lower <= est.upper * (1 + 1e-12)


def test_strip_norm_zero():
    est = strip_norm(ModeMap.build({}), 1.0)
    assert (est.upper, est.sampled_lower) == (0.0, 0.0)


def test_strip_norm_triangle_inequality():
    rng = np.random.default_rng(3)
    m1 = _random_hermitian(rng, 1.0, 10)
    m2 = _random_hermitian(rng, 1.0, 10)
    merged = dict(m1.entries)
    for k, v in m2.entries.items():
        merged[k] = merged.get(k, 0.0) + v
    s = strip_norm(ModeMap.build(merged), 0.5)
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
    a = ModeMap.build({(1, 1): 1.0, (-1, -1): 1.0})
    rep = check_thm1(a, golden, 1.0, 0.2)
    assert rep.verdict
    assert rep.margin > 10.0 * rep.computed  # large margin


def test_check_thm1_seeded_random(golden, sqrt2m1):
    rng = np.random.default_rng(42)
    for cf in (golden, sqrt2m1):
        for _ in range(10):
            a = _random_hermitian(rng, 1.0, 25, span=12)
            rep = check_thm1(a, cf, 1.0, 0.2)
            assert rep.verdict, rep


def test_check_thm1_norms_the_solution_only(golden, monkeypatch):
    # the data needs only its coefficient-sum upper bound, not a sampled norm
    a = _random_hermitian(np.random.default_rng(3), 1.0, 25, span=12)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return strip_norm(*args, **kwargs)

    monkeypatch.setattr(cohom, "strip_norm", counted)
    rep = check_thm1(a, golden, 1.0, 0.2)
    assert len(calls) == 1
    assert rep.params["a_upper"] == strip_norm(a, 1.0).upper


def test_check_thm1_delta_near_rho(golden):
    # delta just under rho: few effective modes survive, everything finite
    a = ModeMap.build({(2, 1): 0.01, (-2, -1): 0.01})
    rep = check_thm1(a, golden, 0.35, 0.349)
    assert rep.verdict
    assert math.isfinite(rep.bound) and math.isfinite(rep.computed)


# ---------------------------------------------------------------------------
# blow-up construction
# ---------------------------------------------------------------------------


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
    assert ce.modes.hermitian
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
    box = golden.finest_sandwich()
    omega = float(box.midpoint)
    for pt in pts:
        coeff = ce.modes.entries[(pt.p, pt.q)].real
        g_coeff = coeff / abs(pt.q * omega - pt.p)
        long_path = (rho - dprime) * (pt.p + pt.q) + math.log(g_coeff)
        assert pt.log_w_lo - 1e-9 <= long_path <= pt.log_w_hi + 1e-9


def test_witness_divisor_bracket_sound(golden):
    pts = blowup_witness(golden, 1.0, 0.05, 1.0, 12)
    box = golden.finest_sandwich()
    for pt in pts:
        true_div = abs(float(pt.q * box.midpoint - pt.p))
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


def test_divergence_minorant(exp_liouville):
    rows = divergence_minorant_check(exp_liouville, 0.1)
    assert rows  # at least one level computed
    assert all(ok for _, _, _, ok in rows)
    # fails for Delta above the construction rate
    rows_big = divergence_minorant_check(exp_liouville, 5.0)
    assert not all(ok for _, _, _, ok in rows_big)


def test_blowup_witness_validation(golden):
    with pytest.raises(ValueError):
        blowup_witness(golden, 1.0, 1.5, 1.0, 5)
    with pytest.raises(ValueError):
        blowup_witness(golden, 1.0, 0.1, -1.0, 5)
