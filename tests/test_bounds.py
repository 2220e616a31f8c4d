"""Weighted convergent series, closed-form bounds, gamma evaluators."""

import math
import random
import re
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldivlab.bounds import (
    CLASS_BOUNDS,
    PHI,
    DiophGrowth,
    KLGrowth,
    brj1,
    brj2,
    brj_combined,
    brj_fin_diff,
    dioph_bound_rhs,
    dioph_smallness_threshold,
    dph_series,
    format_table1_csv,
    gamma_delta,
    gamma_eul,
    gamma_eul_prime,
    kl_bound_constants,
    kl_bound_rhs,
    sigma1_integral_bound_check,
    sigma_series,
    table1_rows,
)
from smalldivlab.classify import kl_params, levy_example_bound
from smalldivlab.contfrac import DepthExhausted, FrequencySpec, expand


# ---------------------------------------------------------------------------
# gamma evaluators
# ---------------------------------------------------------------------------


def test_gamma_known_values():
    assert gamma_eul(1.0) == pytest.approx(1.0)
    assert gamma_eul(2.0) == pytest.approx(1.0)
    assert gamma_eul(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
    # psi(1) = -euler_mascheroni
    assert gamma_eul_prime(1.0) == pytest.approx(-0.5772156649015329, rel=1e-10)


def test_gamma_domain():
    for bad in (0.4, 10.5, -1.0):
        with pytest.raises(ValueError):
            gamma_eul(bad)
        with pytest.raises(ValueError):
            gamma_eul_prime(bad)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.5, max_value=9.0))
def test_gamma_recurrences(x):
    assert gamma_eul(x + 1.0) == pytest.approx(x * gamma_eul(x), rel=1e-11)
    # Gamma'(x+1) = Gamma(x+1) (psi(x) + 1/x)
    psi_x = gamma_eul_prime(x) / gamma_eul(x)
    assert gamma_eul_prime(x + 1.0) == pytest.approx(
        gamma_eul(x + 1.0) * (psi_x + 1.0 / x), rel=1e-9
    )


@pytest.mark.parametrize("x", [0.5, 0.9, 1.4278, 2.1959, 3.8, 6.99, 10.0])
def test_gamma_prime_against_oracle(x):
    mp.mp.dps = 30
    expected = float(mp.gamma(x) * mp.digamma(x))
    assert gamma_eul_prime(x) == pytest.approx(expected, rel=1e-9)
    assert gamma_eul(x) == pytest.approx(float(mp.gamma(x)), rel=1e-12)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------


def test_brj1_golden_oracle(golden):
    got = brj1(golden, 1.0, 12)
    mp.mp.dps = 30
    s = mp.fsum(mp.exp(-golden.q[n]) * golden.q[n + 1] for n in range(1, 13))
    assert got.value == pytest.approx(float(s), rel=1e-13)
    assert got.value == pytest.approx(1.449012156745, rel=1e-10)
    assert got.depth == 12
    assert got.last_term == pytest.approx(float(mp.exp(-golden.q[12]) * golden.q[13]))


def test_brj1_large_delta_first_term_dominates(golden):
    got = brj1(golden, 50.0, 12)
    first = 2.0 * math.exp(-50.0)
    # the n = 2 term e^(-100) q_3 already sits 10^20 below the first
    second = 3.0 * math.exp(-100.0)
    assert second < first * 1e-20
    assert got.value == pytest.approx(first, rel=1e-13)


def test_brj_depth_zero_empty_sum(golden):
    for fn in (brj1, brj2, brj_combined):
        v = fn(golden, 0.7, 0)
        assert v.value == 0.0 and v.depth == 0


def test_brj2_golden_vanishes(golden):
    for Delta in (0.05, 1.0, 10.0):
        assert brj2(golden, Delta, 20).value == 0.0


def test_brj2_sqrt2_oracle(sqrt2m1):
    got = brj2(sqrt2m1, 1.0, 10)
    mp.mp.dps = 30
    s = mp.log(2) * mp.fsum(
        mp.exp(-sqrt2m1.q[n]) * sqrt2m1.q[n + 1] for n in range(1, 11)
    )
    assert got.value == pytest.approx(float(s), rel=1e-13)
    assert got.value == pytest.approx(0.525204524084, rel=1e-10)


def test_brj2_single_vanishing_weight():
    cf = expand(FrequencySpec.literal([1, 5, 3, 7]), 4)
    got = brj2(cf, 0.5, 3)
    # first term has a_2 = 5, second a_3 = 3, third a_4 = 7; none vanish
    cf2 = expand(FrequencySpec.literal([3, 1, 5]), 3)
    got2 = brj2(cf2, 0.5, 2)
    # n = 1 weight log a_2 = log 1 = 0: only n = 2 contributes
    expected = math.exp(-cf2.q[2] * 0.5) * cf2.q[3] * math.log(5.0)
    assert got2.value == pytest.approx(expected, rel=1e-12)
    assert got.value > 0


def test_brj_combined_recombination(golden, sqrt2m1):
    for cf, Delta in ((golden, 0.7), (sqrt2m1, 1.0)):
        comb = brj_combined(cf, Delta, 15)
        assert comb.value == pytest.approx(
            2.0 * brj1(cf, Delta, 15).value + brj2(cf, 2.0 * Delta, 15).value,
            rel=1e-15,
        )
    assert brj_combined(golden, 0.7, 15).value == pytest.approx(
        2.0 * brj1(golden, 0.7, 15).value
    )


def test_brj_value_nondecreasing_in_depth(sqrt2m1):
    values = [brj1(sqrt2m1, 0.3, d).value for d in range(1, 20)]
    for a, b in zip(values, values[1:]):
        assert b >= a


@settings(max_examples=30, deadline=None)
@given(
    d1=st.floats(min_value=0.05, max_value=2.0),
    d2=st.floats(min_value=0.05, max_value=2.0),
)
def test_brj_monotone_in_delta(d1, d2):
    cf = expand(FrequencySpec.periodic((), (1, 3)), 30)
    lo, hi = sorted((d1, d2))
    assert brj1(cf, hi, 20).value <= brj1(cf, lo, 20).value + 1e-12
    assert brj2(cf, hi, 20).value <= brj2(cf, lo, 20).value + 1e-12


def test_huge_quotient_series_saturate():
    # quotients in the 10^3-bit range: series paths must neither raise
    # OverflowError nor silently lose terms -- values saturate to inf
    # where the mathematics exceeds double range
    big = 2**2000 + 1
    cf = expand(FrequencySpec.literal([3, big, 2, big, 5]), 5)
    v = brj1(cf, 0.5, 4)  # the n = 1 term alone is e^-1.5 q_2 ~ 10^600
    assert math.isinf(v.value) and v.value > 0
    assert dph_series(cf, 2.0, 0.5, 5) > 2.0


def test_mul_big_float_exact():
    from fractions import Fraction

    from smalldivlab.contfrac import mul_big_float

    for big, x in ((2**1200, 1e-300), (2**100 + 7, 0.125), (10**400, 2.5e-120)):
        exact = Fraction(big) * Fraction(x)
        assert mul_big_float(big, x) == pytest.approx(float(exact), rel=0)
    assert math.isinf(mul_big_float(2**2000, 1.0))
    assert mul_big_float(2**2000, -1.0) == -math.inf


@pytest.mark.parametrize("bits", [53, 54, 1020])
def test_mul_big_float_rounds_once(bits):
    # past 53 bits int * float rounds the integer first and the product again
    from fractions import Fraction

    from smalldivlab.contfrac import mul_big_float

    rng = random.Random(bits)
    for _ in range(500):
        big = rng.getrandbits(bits) | 1 << (bits - 1)
        x = rng.uniform(0.5, 1.0) * 2.0 ** rng.randint(-bits - 40, -bits + 40)
        assert mul_big_float(big, x) == float(Fraction(big) * Fraction(x))


def test_brj_errors(golden):
    with pytest.raises(ValueError):
        brj1(golden, -1.0, 5)
    with pytest.raises(DepthExhausted):
        brj1(golden, 1.0, golden.depth)
    # growth certificates are checked when they are built
    for C, tau in ((0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (0.5, 0.5), (0.5, math.inf)):
        with pytest.raises(ValueError):
            DiophGrowth(C=C, tau=tau)
    for beta_prime in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            KLGrowth(beta_prime=beta_prime)


# ---------------------------------------------------------------------------
# rigorous tails
# ---------------------------------------------------------------------------


def test_rigorous_tail_contains_next_terms(golden, sqrt2m1):
    for cf, C in ((golden, 0.2), (sqrt2m1, 1.0 / 6.0)):
        growth = DiophGrowth(C=C, tau=1.0)
        for Delta in (0.5, 1.0):
            for depth in (8, 12):
                v = brj1(cf, Delta, depth, growth)
                assert v.tail_kind == "rigorous"
                deeper = brj1(cf, Delta, depth + 1, growth)
                assert v.value <= deeper.value <= v.value + v.tail_bound
                deepest = brj1(cf, Delta, depth + 10, growth)
                assert deepest.value <= v.value + v.tail_bound


def test_rigorous_tail_kl(sqrt2m1):
    params = kl_params(0.3, 0.1, 1)
    growth = KLGrowth(beta_prime=params.beta_prime)
    v = brj1(sqrt2m1, 1.0, 10, growth)
    assert v.tail_kind == "rigorous"
    deepest = brj1(sqrt2m1, 1.0, 25, growth)
    assert deepest.value <= v.value + v.tail_bound


def test_tail_heuristic_when_conditions_fail(golden):
    # Delta so small that the majorant is still growing at the cut
    v = brj1(golden, 1e-4, 5, DiophGrowth(C=0.2, tau=1.0))
    assert v.tail_kind == "heuristic"
    v2 = brj1(golden, 0.5, 10)
    assert v2.tail_kind == "heuristic"  # no certificate attached


def test_brj2_rigorous_tail(sqrt2m1):
    growth = DiophGrowth(C=1.0 / 6.0, tau=1.0)
    v = brj2(sqrt2m1, 1.0, 10, growth)
    assert v.tail_kind == "rigorous"
    deepest = brj2(sqrt2m1, 1.0, 25, growth)
    assert deepest.value <= v.value + v.tail_bound


def test_tail_majorant_past_the_float_range_saturates():
    # s1 = 3e15, Delta = 1e-15 and C = 1e-300 pass the decay test, yet the
    # first majorant C^-1 s1 e^(-s1 Delta) is about e^723: the bound is inf,
    # as a series term past the float range is, not an OverflowError
    cf = expand(FrequencySpec.literal([1, 10**15, 2, 3, 1, 1]), 6)
    growth = DiophGrowth(C=1e-300, tau=1.0)
    for fn in (brj1, brj2):
        v = fn(cf, 1e-15, 3, growth)
        assert (v.tail_kind, v.tail_bound) == ("rigorous", math.inf)


def _remainder(cf, Delta, depth, stop):
    """sum_{n=depth+1}^{stop} e^(-q_n Delta) q_{n+1} in 30-digit mpmath."""
    with mp.workdps(30):
        return mp.fsum(
            mp.exp(-cf.q[n] * mp.mpf(Delta)) * cf.q[n + 1] for n in range(depth + 1, stop + 1)
        )


def test_tail_past_1020_bits():
    # golden at depth 1480: s1 = q_1480 + q_1479 has 1028 bits, and C = 0.5,
    # tau = 1 is a true certificate; the tail takes the same path as at any
    # other size of s1
    cf = expand(FrequencySpec.golden(), 1500)
    depth, growth = 1480, DiophGrowth(C=0.5, tau=1.0)
    s1 = cf.q[depth] + cf.q[depth - 1]
    s2 = s1 + cf.q[depth]
    assert s1.bit_length() > 1020
    note = "diophantine growth certificate (C=0.5, tau=1.0)"
    for Delta in (0.3, 1e-306):
        v = brj1(cf, Delta, depth, growth)
        assert (v.tail_kind, v.tail_bound) == ("rigorous", 0.0)
        assert v.tail_note.startswith(note)
        # the first remainder majorant C^-1 s1^tau e^(-s1 Delta) is below e^-746
        with mp.workdps(30):
            log_majorant = mp.log(2) + mp.log(s1) - s1 * mp.mpf(Delta)
        assert log_majorant < -746
    # s1 Delta is about 940 here: the majorants 2 s e^(-s Delta) no longer
    # underflow, and the bound is their sum, doubled
    v = brj1(cf, 4e-307, depth, growth)
    assert (v.tail_kind, v.tail_note) == ("rigorous", note)
    with mp.workdps(30):
        Delta = mp.mpf(4e-307)
        want = 2 * mp.fsum(2 * s * mp.exp(-s * Delta) for s in (s1, s2))
    assert v.tail_bound == pytest.approx(float(want), rel=1e-12)
    assert v.tail_bound == pytest.approx(3.568e-98, rel=1e-3)
    assert _remainder(cf, 4e-307, depth, 1490) <= v.tail_bound
    assert brj1(cf, 4e-307, 1490, growth).value <= v.value + v.tail_bound


def test_kl_tail_past_1020_bits():
    # golden has log q_{n+1} <= 0.49 (n + 1) at every n, so KLGrowth(0.49)
    # is a true certificate
    cf = expand(FrequencySpec.golden(), 1500)
    depth, growth = 1480, KLGrowth(beta_prime=0.49)
    s1 = cf.q[depth] + cf.q[depth - 1]
    s2 = s1 + cf.q[depth]
    assert s1.bit_length() > 1020
    assert all(math.log(cf.q[n + 1]) <= 0.49 * (n + 1) for n in range(cf.depth))
    note = "upper-band growth certificate (beta'=0.49)"
    for fn in (brj1, brj2):
        v = fn(cf, 0.3, depth, growth)
        assert (v.tail_kind, v.tail_bound) == ("rigorous", 0.0)
        assert v.tail_note.startswith(note)
    with mp.workdps(30):
        Delta = mp.mpf(4e-307)
        w1, w2 = mp.mpf(0.49) * (depth + 2), mp.mpf(0.49) * (depth + 3)
        terms = (mp.exp(w1 - s1 * Delta), mp.exp(w2 - s2 * Delta))
        want1 = 2 * mp.fsum(terms)
        want2 = 2 * (w1 * terms[0] + w2 * terms[1])
    for fn, want in ((brj1, want1), (brj2, want2)):
        v = fn(cf, 4e-307, depth, growth)
        assert (v.tail_kind, v.tail_note) == ("rigorous", note)
        assert v.tail_bound == pytest.approx(float(want), rel=1e-12)
    v = brj1(cf, 4e-307, depth, growth)
    assert _remainder(cf, 4e-307, depth, 1490) <= v.tail_bound


# ---------------------------------------------------------------------------
# loss-of-domain factor
# ---------------------------------------------------------------------------


def test_gamma_delta_components_golden(golden):
    gd = gamma_delta(golden, 1.0, 0.1)
    assert gd.G_away_leading == pytest.approx(7.708, abs=1e-3)
    assert gd.G_const_type_leading == pytest.approx(3.056, abs=1e-3)
    assert gd.away_term == pytest.approx(gd.G_away_leading * 10.0 * math.log(10.0))
    assert gd.const_type_term == pytest.approx(gd.G_const_type_leading * 100.0)
    assert gd.brj_term > 0 and gd.const_type_term > 0 and gd.away_term > 0
    assert gd.Gamma0 == gd.brj_term + gd.const_type_term + gd.away_term
    assert gd.Delta == pytest.approx((1.0 + gd.omega) * 0.1)
    assert gd.omega_halfwidth < 1e-20


def test_gamma_delta_terms_are_the_class_bounds(golden, sqrt2m1, omega_star):
    # one formula per class: Gamma0's terms are the table's entries at mu = 1,
    # bit for bit, and mu scales the away entry exactly
    for cf in (golden, sqrt2m1, omega_star):
        for delta in (1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.36):
            gd = gamma_delta(cf, 1.0, delta)
            assert gd.away_term == CLASS_BOUNDS["away"](cf, delta, 1.0)
            assert gd.const_type_term == CLASS_BOUNDS["const_type"](cf, delta, 1.0)
            assert gd.brj_term == CLASS_BOUNDS["brjuno"](cf, delta, 1.0)
            assert gd.brj_term == 2.0 * brj_combined(cf, gd.Delta, cf.depth - 1).value
            for mu in (1.25, 3.0, 0.001):
                assert CLASS_BOUNDS["away"](cf, delta, mu) == mu * gd.away_term


def test_gamma_delta_quarter_scaling(golden):
    # halving delta exactly quadruples the delta^-2 component
    a = gamma_delta(golden, 1.0, 0.2)
    b = gamma_delta(golden, 1.0, 0.1)
    assert b.const_type_term == 4.0 * a.const_type_term


def test_gamma_delta_domain(golden):
    with pytest.raises(ValueError):
        gamma_delta(golden, 1.0, 1.5)
    with pytest.raises(ValueError):
        gamma_delta(golden, 1.0, 0.4)  # 1/delta <= e


# ---------------------------------------------------------------------------
# Diophantine right-hand sides
# ---------------------------------------------------------------------------


def test_dioph_rhs_tau1_constants():
    C = 0.2
    Delta = 0.1
    b = dioph_bound_rhs(C, 1.0, Delta)
    assert b.branch == "tau1"
    X = math.log(1.0 / Delta)
    lead = math.exp(-1.0) / math.log(PHI)
    # coefficient of Delta^-1 log(1/Delta) and the constant term
    expected = (lead / C) * (1.0 / Delta) * (
        C * math.log(1.0 / C) * X + math.log(3.0 * PHI) + math.e / 2.0
    )
    assert b.rhs2 == pytest.approx(expected, rel=1e-14)
    leading_coeff = math.exp(-1.0) * math.log(1.0 / C) / math.log(PHI)
    direct = leading_coeff * (1.0 / Delta) * X + (lead / C) * (1.0 / Delta) * (
        math.log(3.0 * PHI) + math.e / 2.0
    )
    assert b.rhs2 == pytest.approx(direct, rel=1e-12)
    assert b.G1_0 == pytest.approx(math.log(3.0 * PHI) + math.e / 2.0)


def test_dioph_rhs_g10_tau2():
    b = dioph_bound_rhs(0.3, 2.0, 0.2)
    assert b.G1_0 == pytest.approx(math.log(6.0 * PHI) + math.e**2 / 8.0, rel=1e-12)


def test_dioph_rhs_monotone_in_C():
    r_small = dioph_bound_rhs(0.05, 1.0, 0.1).rhs1
    r_big = dioph_bound_rhs(0.4, 1.0, 0.1).rhs1
    assert r_small > r_big


def test_dioph_rhs_threshold():
    assert dioph_smallness_threshold(1.0) == pytest.approx(1.0 / math.e)
    with pytest.raises(ValueError, match="threshold"):
        dioph_bound_rhs(0.2, 1.0, 0.4)
    with pytest.raises(ValueError):
        dioph_bound_rhs(-0.1, 1.0, 0.1)


@pytest.mark.parametrize(
    "C, tau, Delta, message",
    [
        (math.nan, 1.0, 0.1, "C must be finite, got nan"),
        (0.2, math.nan, 0.1, "tau must be a finite number >= 1, got nan"),
        (0.2, math.inf, 0.1, "tau must be a finite number >= 1, got inf"),
        (0.2, 1.0, math.nan, "Delta must be finite, got nan"),
        (0.2, 1.0, 0.0, "Delta must be > 0"),
    ],
)
def test_dioph_rhs_rejects_unusable_inputs(C, tau, Delta, message):
    # NaN C or Delta once gave rhs1 = rhs2 = nan, and Delta = 0 divided by
    # zero; C and tau follow the certificate's rules
    with pytest.raises(ValueError, match=re.escape(message)):
        dioph_bound_rhs(C, tau, Delta)


@pytest.mark.parametrize("tau", [11.0, 200.0, 1e308])
def test_dioph_rhs_rejects_tau_outside_the_gamma_domain(tau):
    # at the smallness threshold, tau = 200 and 1e308 once overflowed
    # (tau / e) ** tau before gamma_eul checked its domain
    with pytest.raises(ValueError, match=re.escape("gamma evaluator domain is [0.5, 10]")):
        dioph_bound_rhs(0.2, tau, dioph_smallness_threshold(tau))


@pytest.mark.parametrize("C, tau, Delta", [(0.5, 1.0, 5e-324), (0.5, 2.0, 1e-200), (0.5, 10.0, 1e-40)])
def test_dioph_rhs_saturates_past_the_float_range(C, tau, Delta):
    # Delta ** -tau once raised OverflowError here; inf is still an upper bound
    b = dioph_bound_rhs(C, tau, Delta)
    assert b.rhs1 == math.inf and b.rhs2 == math.inf
    assert math.isfinite(b.G1_0)


def test_dioph_rhs_oracle_tau2():
    # high-precision recomputation of the general-branch polynomial
    C, tau, Delta = 0.3, 2.0, 0.15
    b = dioph_bound_rhs(C, tau, Delta)
    mp.mp.dps = 30
    X = mp.log(1 / mp.mpf("0.15"))
    peak = (2 / mp.e) ** 2
    lead = peak / mp.log((1 + mp.sqrt(5)) / 2)
    ClogC = mp.mpf("0.3") * mp.log(1 / mp.mpf("0.3"))
    G21 = ClogC / 1 + mp.gamma(2) / (2 * peak) + mp.log(3 * (1 + mp.sqrt(5)) / 2 * 9)
    G20 = (
        ClogC * (mp.log(3 * (1 + mp.sqrt(5)) / 2 * 2) + mp.gamma(2) / (2 * peak))
        + mp.log(3 * (1 + mp.sqrt(5)) / 2 * 3) * mp.log(3)
        + mp.gamma(2) * mp.digamma(2) / peak
    )
    rhs2 = (lead / mp.mpf("0.3")) * 1 * mp.mpf("0.15") ** -2 * (X**2 + G21 * X + G20)
    assert b.rhs2 == pytest.approx(float(rhs2), rel=1e-9)


# ---------------------------------------------------------------------------
# band right-hand sides and the constants table
# ---------------------------------------------------------------------------


def test_kl_constants_reference_rows():
    G1, G21, G22 = kl_bound_constants(kl_params(0.0, 0.0, 1))
    assert G1 == pytest.approx(5.3, rel=0.02)
    assert G21 == pytest.approx(1.6, rel=0.02)
    assert G22 == 0.0
    G1, G21, G22 = kl_bound_constants(kl_params(0.1, 0.1, 1))
    assert G1 == pytest.approx(6.7, rel=0.02)
    assert G21 == pytest.approx(4.8, rel=0.02)
    assert G22 == pytest.approx(0.62, rel=0.02)
    G1, G21, G22 = kl_bound_constants(kl_params(0.5, 2.0, 1))
    assert G1 == pytest.approx(6.6e4, rel=0.02)
    assert G21 == pytest.approx(3.1e5, rel=0.02)
    assert G22 == pytest.approx(4.8e5, rel=0.02)


def test_kl_rhs_shape():
    params = kl_params(0.1, 0.5, 2)
    b = kl_bound_rhs(params, 0.05)
    assert b.rhs1 == pytest.approx(b.G_KLB1 * 0.05 ** (-params.gamma))
    assert b.rhs2 == pytest.approx(
        (b.G_KLB21 + b.G_KLB22 * math.log(20.0)) * 0.05 ** (-params.gamma)
    )


def test_table1_csv_shape():
    rows = table1_rows()
    assert len(rows) == 11
    text = format_table1_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "T_minus,T_plus,G_KLB1,G_KLB21,G_KLB22"
    assert len(lines) == 12
    assert lines[1].startswith("0.0,0.0,5.3e+00,1.6e+00,0.0e+00")


# ---------------------------------------------------------------------------
# finite parts
# ---------------------------------------------------------------------------


def test_brj_fin_diff_empty(golden):
    params = kl_params(0.1, 0.1, 1)
    assert brj_fin_diff(golden, 1, 0.7, params) == (0.0, 0.0)


def test_brj_fin_diff_golden_oracle(golden):
    params = kl_params(0.1, 0.1, 1)
    d1, d2 = brj_fin_diff(golden, 3, 1.0, params)
    b, bp = params.beta, params.beta_prime
    e1 = math.fsum(
        math.exp(-golden.q[n]) * golden.q[n + 1] for n in (1, 2)
    ) - math.fsum(math.exp(-math.exp(b * n)) * math.exp(bp * (n + 1)) for n in (1, 2))
    e2 = 0.0 - math.fsum(
        math.exp(-math.exp(b * n)) * math.exp(bp * (n + 1)) * (bp * (n + 1) - b * n)
        for n in (1, 2)
    )
    assert d1 == pytest.approx(e1, rel=1e-12)
    assert d2 == pytest.approx(e2, rel=1e-12)


def test_brj_fin_diff_sign_freedom():
    params = kl_params(0.1, 0.1, 1)
    cf = expand(FrequencySpec.literal([50, 1]), 2)
    d1, _ = brj_fin_diff(cf, 2, 0.001, params)
    # single-term comparison: e^(-0.05) * 51 far exceeds the band analogue
    lhs = math.exp(-50 * 0.001) * 51
    rhs = math.exp(-math.exp(params.beta) * 0.001) * math.exp(2 * params.beta_prime)
    assert d1 == pytest.approx(lhs - rhs, rel=1e-12)
    assert d1 > 0
    d1_neg, _ = brj_fin_diff(expand(FrequencySpec.golden(), 10), 2, 1.0, params)
    assert d1_neg < 0


def _fin_diff_oracle(cf, m, Delta, params):
    """d1, d2 of brj_fin_diff from their definition at 40 digits, and the
    sum of the magnitudes of all their terms (the scale of their rounding)."""
    with mp.workdps(40):
        D, b, bp = mp.mpf(Delta), mp.mpf(params.beta), mp.mpf(params.beta_prime)
        t1, t2, i1, i2 = [], [], [], []
        for n in range(1, m):
            term = mp.exp(-cf.q[n] * D) * cf.q[n + 1]
            t1.append(term)
            t2.append(term * mp.log(cf.quotients[n]))
            ideal = mp.exp(bp * (n + 1) - mp.exp(b * n) * D)
            i1.append(ideal)
            i2.append(ideal * (bp * (n + 1) - b * n))
        d1 = mp.fsum(t1) - mp.fsum(i1)
        d2 = mp.fsum(t2) - mp.fsum(i2)
        scale1 = mp.fsum(t1) + mp.fsum(i1)
        scale2 = mp.fsum(t2) + mp.fsum(i2)
        return float(d1), float(d2), float(scale1), float(scale2)


def test_brj_fin_diff_against_mpmath(golden, sqrt2m1, two_three):
    # criterion 6's band corpus at its own N and deeper, golden at a depth
    # where e^(beta n) leaves the float range
    kl_golden = kl_params(0.1, 0.1, 1)
    cases = [
        (sqrt2m1, kl_params(0.3, 0.1, 1), 1),
        (sqrt2m1, kl_params(0.3, 0.1, 1), 12),
        (two_three, kl_params(0.2, 0.1, 2), 2),
        (two_three, kl_params(0.2, 0.1, 2), 6),
        (golden, kl_golden, 5),
    ]
    deep = expand(FrequencySpec.golden(), 851)
    for Delta in (1.0, 0.3, 0.1, 0.03, 0.01):
        for cf, params, m in cases + [(deep, kl_golden, 850)]:
            d1, d2 = brj_fin_diff(cf, m, Delta, params)
            assert math.isfinite(d1) and math.isfinite(d2)
            e1, e2, scale1, scale2 = _fin_diff_oracle(cf, m, Delta, params)
            assert abs(d1 - e1) <= 1e-14 * scale1, (m, Delta, d1, e1)
            assert abs(d2 - e2) <= 1e-14 * scale2, (m, Delta, d2, e2)


def test_brj_fin_diff_errors(golden):
    params = kl_params(0.1, 0.1, 1)
    with pytest.raises(ValueError):
        brj_fin_diff(golden, 0, 1.0, params)


# ---------------------------------------------------------------------------
# majorant series
# ---------------------------------------------------------------------------


def test_sigma1_ideal_sequence_consistency():
    # at beta = beta' = ell the band series is e^-ell times the weighted
    # series of the ideal geometric sequence, bounded by G/Delta
    ell, G = levy_example_bound()
    Delta = 0.01
    s1 = sigma_series(ell, ell, Delta, 3000)
    assert s1 <= math.exp(-ell) * G / Delta
    mp.mp.dps = 30
    oracle = mp.fsum(
        mp.exp(ell * n - mp.exp(ell * n) * mp.mpf("0.01")) for n in range(1, 3000)
    )
    assert s1 == pytest.approx(float(oracle), rel=1e-12)


def test_dph1_majorizes_brj1(golden):
    cert_C = 0.5  # recursive constant for the all-ones expansion
    Delta = 0.2
    d1 = dph_series(golden, 1.0, Delta, 30)
    b1 = brj1(golden, Delta, 30).value
    assert b1 <= d1 / cert_C + 1e-12


def test_sigma2_dominates_sigma1():
    for Delta in (0.01, 0.3, 1.0):
        s1 = sigma_series(0.9, 1.5, Delta, 500)
        s2 = sigma_series(0.9, 1.5, Delta, 500, weighted=True)
        assert s2 >= s1


@pytest.mark.parametrize(
    "beta, beta_prime, Delta, n_max",
    [
        (0.9, 1.5, 1e-300, 500),
        (2.0, 4.0, 1e-300, 500),
        (1.0, 1.2, 1e-300, 3000),
        (0.3, 0.35, 1e-300, 3000),
        # e^(beta n) overflows from n = 710, yet 5e-324 e^(beta n) stays below
        # 1 up to n = 744: those terms are alive, past the float range in the
        # first case and about e^372 in the second
        (1.0, 1.01, 5e-324, 800),
        (1.0, 0.5, 5e-324, 800),
    ],
)
@pytest.mark.parametrize("weighted", [False, True])
def test_sigma_series_saturates_past_the_float_range(beta, beta_prime, Delta, n_max, weighted):
    mp.mp.dps = 30
    b, bp, D = mp.mpf(beta), mp.mpf(beta_prime), mp.mpf(Delta)
    oracle = mp.fsum(
        (n if weighted else 1) * mp.exp(bp * n - mp.exp(b * n) * D)
        for n in range(1, n_max + 1)
    )
    got = sigma_series(beta, beta_prime, Delta, n_max, weighted)
    if oracle > sys.float_info.max:
        assert got == math.inf
    else:
        assert got == pytest.approx(float(oracle), rel=1e-12)


def test_dph2_oracle(sqrt2m1):
    mp.mp.dps = 30
    Delta = 0.3
    got = dph_series(sqrt2m1, 2.0, Delta, 12, weighted=True)
    oracle = mp.fsum(
        mp.exp(-sqrt2m1.q[n] * mp.mpf("0.3")) * sqrt2m1.q[n] ** 2 * mp.log(sqrt2m1.q[n])
        for n in range(1, 13)
    )
    assert got == pytest.approx(float(oracle), rel=1e-12)


def test_dph_against_mpmath_past_the_float_range():
    # q_2 has 1102 bits: its q_n Delta leaves the float range, and its
    # terms must drop without spoiling the small-denominator ones
    cf = expand(FrequencySpec.literal([3, 2**1100 + 1, 2, 5, 7]), 5)
    assert cf.q[2].bit_length() > 1100
    for Delta in (1.0, 0.3, 1e-3, 1e-300):
        for tau in (1.0, 2.0, 2.5):
            with mp.workdps(40):
                D, t = mp.mpf(Delta), mp.mpf(tau)
                terms = [mp.exp(-cf.q[n] * D) * mp.mpf(cf.q[n]) ** t for n in range(1, 6)]
                dph1 = mp.fsum(terms)
                dph2 = mp.fsum(x * mp.log(cf.q[n]) for n, x in enumerate(terms, 1))
            got1 = dph_series(cf, tau, Delta, 5)
            got2 = dph_series(cf, tau, Delta, 5, weighted=True)
            assert got1 == pytest.approx(float(dph1), rel=1e-14), (Delta, tau)
            assert got2 == pytest.approx(float(dph2), rel=1e-14), (Delta, tau)


# ---------------------------------------------------------------------------
# sum-vs-integral majorization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t_minus,t_plus", [(0.0, 0.0), (0.1, 0.5), (0.5, 2.0)])
@pytest.mark.parametrize("Delta", [0.3, 0.05, 0.005])
def test_sigma1_integral_bound(t_minus, t_plus, Delta):
    params = kl_params(t_minus, t_plus, 1)
    rep = sigma1_integral_bound_check(
        params.beta, params.beta_prime, Delta, N=1, n_max=4000
    )
    assert rep.verdict, rep
    rep2 = sigma1_integral_bound_check(
        params.beta, params.beta_prime, Delta, N=3, n_max=4000
    )
    assert rep2.verdict
    assert rep2.computed <= rep.computed
