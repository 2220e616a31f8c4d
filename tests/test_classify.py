"""Diophantine certificates, universal constants, band membership."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldivlab import classify
from smalldivlab.classify import (
    brjuno_partial_sum,
    certified_from_recursive,
    diophantine_constant,
    khintchine_constants,
    kl_membership,
    kl_params,
    levy_example_bound,
)
from smalldivlab.contfrac import DepthExhausted, FrequencySpec, expand


# ---------------------------------------------------------------------------
# universal constants
# ---------------------------------------------------------------------------


def test_kappa_against_independent_oracle():
    c = khintchine_constants(1e-9)
    mp.mp.dps = 30
    # e^kappa is the classical geometric-mean constant of partial quotients
    assert abs(c.kappa - float(mp.log(mp.khinchin))) < 1e-9
    assert abs(math.exp(c.kappa) - float(mp.khinchin)) < 1e-8


def test_kappa_prime_against_high_precision_series():
    c = khintchine_constants(1e-9)
    mp.mp.dps = 30
    ln2 = mp.log(2)
    s = mp.mpf(0)
    K = 200_000
    for k in range(1, K + 1):
        s += mp.log(k + 1) * mp.log1p(mp.mpf(1) / (k * (k + 2))) / ln2
    # integral-comparison bracket for the oracle's own tail
    tail_hi = (mp.log(K + 2) + 1) / (K + 2) / ln2 * (1 + 2 / mp.mpf(K + 2) ** 2) + mp.log(
        K + 2
    ) * mp.log1p(mp.mpf(1) / ((K + 1) * (K + 3))) / ln2
    assert s < c.kappa_prime < s + float(tail_hi) + 1e-9


def test_constants_quoted_magnitudes():
    c = khintchine_constants(1e-8)
    assert abs(c.kappa - 0.988) < 1e-3
    assert abs(c.kappa_prime - 1.410) < 1e-3
    assert abs(math.exp(c.kappa) - 2.685) < 1e-3
    assert abs(c.t_minus_max - 0.507) < 1e-3


def test_kappa_strictly_below_kappa_prime():
    # term-wise log(k) < log(k+1) under the same positive weights
    c = khintchine_constants(1e-8)
    assert c.kappa + c.tail_bound < c.kappa_prime - c.tail_bound


def test_kappa_ratio_honest_value():
    # regression pin for the series ratio itself (the often-quoted 1.4278
    # is the ratio of the two series cut off at k = 10^4 with no tail,
    # 1.427765; see criterion 2b of the acceptance gate)
    c = khintchine_constants(1e-8)
    assert abs(c.ratio - 1.4271269) < 1e-6


def test_tail_bound_honest():
    loose = khintchine_constants(1e-6)
    tight = khintchine_constants(1e-10)
    assert loose.tail_bound <= 1e-6
    assert tight.tail_bound <= 1e-10
    assert abs(loose.kappa - tight.kappa) <= loose.tail_bound + tight.tail_bound
    assert abs(loose.kappa_prime - tight.kappa_prime) <= (
        loose.tail_bound + tight.tail_bound
    )


def test_levy_example_bound():
    ell, G = levy_example_bound()
    assert abs(ell - math.pi**2 / (12 * math.log(2))) < 1e-15
    assert abs(ell - 1.1866) < 1e-4
    assert abs(G - 3.9658) < 1e-3
    assert math.exp(-1) + 1 / ell > 1  # both addends positive, ell finite


# ---------------------------------------------------------------------------
# Diophantine constants
# ---------------------------------------------------------------------------


def test_diophantine_golden_brute_force(golden):
    cert = diophantine_constant(golden, 1.0, 15)
    # brute force over all 0 < q <= 1000 with p the nearest integer,
    # exact rational arithmetic on a 40-digit bracket of the frequency
    mp.mp.dps = 50
    w_lo = Fraction(int(((mp.sqrt(5) - 1) / 2) * mp.mpf(10) ** 40) - 1, 10**40)
    w_hi = Fraction(int(((mp.sqrt(5) - 1) / 2) * mp.mpf(10) ** 40) + 1, 10**40)
    best = None
    for q in range(1, 1001):
        mid = q * (w_lo + w_hi) / 2
        p = int(mid + Fraction(1, 2))
        v = min(abs(q * w_lo - p), abs(q * w_hi - p)) * q
        best = v if best is None or v < best else best
    for end in (cert.C_empirical_lo, cert.C_empirical_hi):
        assert abs(end - float(best)) < 1e-9
        assert abs(end - 0.382) < 1e-3  # attained at q = 1
    assert cert.C_empirical_lo <= cert.C_empirical_hi


def test_certified_from_recursive_formula():
    assert certified_from_recursive(1.0) == pytest.approx(1.0 / 3.0)
    assert certified_from_recursive(0.5) == pytest.approx(0.2)


def test_diophantine_recursive_scan(golden):
    cert = diophantine_constant(golden, 1.0, 20)
    # independent scan of the recursive inequalities
    expected = min(
        min(golden.q[n] / golden.q[n + 1], 1.0 / golden.quotients[n])
        for n in range(0, 20)
    )
    assert cert.C_recursive == pytest.approx(expected)
    assert cert.C_recursive == pytest.approx(0.5)  # q_1/q_2 = 1/2
    assert cert.C_certified == pytest.approx(0.2)
    assert cert.C_certified <= cert.C_empirical_lo


def test_diophantine_ends_round_outward():
    # float() of an exact end rounds to nearest, which can be inward.  With
    # 64 quotients the minimum over q_n <= q_20 is q_1 |q_1 omega - 1| =
    # (3 - sqrt 5) / 2; C_recursive = q_1 / q_2 = 1/2 gives C_certified 1/5,
    # and 0.2 is above it
    cert = diophantine_constant(expand(FrequencySpec.golden(), 64), 1.0, 20)
    lo = Fraction(cert.C_empirical_lo)
    assert (3 - 2 * lo) ** 2 >= 5
    assert cert.C_recursive == 0.5 and Fraction(cert.C_certified) <= Fraction(1, 5)
    # with 8 quotients the bracket is [21/34, 13/21]: at q_1 the upper end is 13/34
    cert = diophantine_constant(expand(FrequencySpec.golden(), 8), 1.0, 1)
    assert Fraction(cert.C_empirical_hi) >= Fraction(13, 34)


def test_diophantine_forward_inequality(golden, sqrt2m1, large_quot):
    # with the recursive constant, q_{n+1} <= C^-1 q_n^tau at every level
    for cf in (golden, sqrt2m1, large_quot):
        for tau in (1.0, 2.0):
            cert = diophantine_constant(cf, tau, 20)
            for n in range(0, 20):
                assert cf.q[n + 1] <= (1.0 / cert.C_recursive) * float(cf.q[n]) ** tau + 1e-9
            assert cert.C_certified <= cert.C_empirical_lo


@pytest.mark.parametrize("tau", [1e5, 1e6, 1e308])
def test_diophantine_large_integer_tau_is_compared_in_logs(golden, tau):
    # past tau bits(q_{depth+1}) <= 2^16 the exact Fraction(q_n) ** tau is
    # not formed (at tau = 1e5 it took 38 s on golden); the logs enclose
    # the minimum, attained at q_1 = 1, and q_n^tau leaves the float range
    cert = diophantine_constant(golden, tau, 20)
    assert 0.0 < cert.C_empirical_lo <= 1.0 - golden.omega_float() <= cert.C_empirical_hi
    assert 0.0 < cert.C_recursive <= 0.5  # q_1^tau / q_2 = 1/2
    for sign in (-1, 1):
        assert classify._exp_outward((tau * math.log(3), -math.log(5)), sign) == math.inf


def test_diophantine_depth_error(golden):
    with pytest.raises(DepthExhausted):
        diophantine_constant(golden, 1.0, golden.depth)
    with pytest.raises(ValueError):
        diophantine_constant(golden, 0.5, 5)


# ---------------------------------------------------------------------------
# Brjuno partial sums
# ---------------------------------------------------------------------------


def test_brjuno_partial_sum_golden_oracle(golden):
    got = brjuno_partial_sum(golden, 10)
    # direct 30-digit summation oracle
    mp.mp.dps = 30
    s = mp.mpf(0)
    for n in range(1, 11):
        s += mp.log(golden.q[n + 1]) / golden.q[n]
    assert abs(got.value - float(s)) < 1e-12
    assert abs(got.value - 3.17287048) < 1e-6


def test_brjuno_partial_sum_single_term():
    cf = expand(FrequencySpec.literal([1, 1]), 2)
    got = brjuno_partial_sum(cf, 1)
    assert got.value == pytest.approx(math.log(2.0))
    assert got.last_term == got.value


@pytest.mark.parametrize("e", [60, 1030, 1100])
def test_brjuno_partial_sum_rounds_each_term_once(e):
    # q_2 = 3 (2^e + 1) + 1 runs from 62 bits (once rounded twice) past 1020 bits
    # (once dropped, though log(q_3)/q_2 is a subnormal up to 1074 bits)
    cf = expand(FrequencySpec.literal([3, 2**e + 1, 2, 5, 7]), 5)
    got = brjuno_partial_sum(cf, 4)
    terms = [float(Fraction(math.log(cf.q[n + 1])) / cf.q[n]) for n in range(1, 5)]
    assert got.value == math.fsum(terms) and got.last_term == terms[-1]
    assert (terms[1] > 0.0) == (cf.q[2].bit_length() < 1070)


def test_brjuno_partial_sum_omega_star_grows(omega_star):
    # the slow-decay rule keeps the increments near 1/n: divergence diagnostic
    values = [brjuno_partial_sum(omega_star, d).value for d in range(1, 7)]
    for a, b in zip(values, values[1:]):
        assert b > a
    increments = [b - a for a, b in zip(values, values[1:])]
    for n, inc in enumerate(increments, start=2):
        assert inc > 0.25 / n


# ---------------------------------------------------------------------------
# band membership
# ---------------------------------------------------------------------------


def test_kl_golden_bands(golden):
    params = kl_params(0.3, 0.1, 1)
    v = kl_membership(golden, params, 20)
    assert not v.lower_KL  # all products are 1
    assert v.upper_KL_prime  # M'_n = 2^n and log 2 < kappa'
    assert not v.KLBrj


def test_kl_sqrt2_threshold(sqrt2m1):
    c = khintchine_constants(1e-8)
    threshold = c.kappa - math.log(2.0)  # ~ 0.295
    ok = kl_membership(sqrt2m1, kl_params(threshold + 0.005, 0.1, 1), 20)
    bad = kl_membership(sqrt2m1, kl_params(threshold - 0.005, 0.1, 1), 20)
    assert ok.lower_KL and ok.KLBrj
    assert not bad.lower_KL
    assert bad.first_lower_violation == 1


def test_kl_two_three_band(two_three):
    v = kl_membership(two_three, kl_params(0.2, 0.1, 2), 30)
    assert v.KLBrj
    v1 = kl_membership(two_three, kl_params(0.2, 0.1, 1), 30)
    assert not v1.lower_KL  # M_1 = 2 < e^beta


@settings(max_examples=40, deadline=None)
@given(
    t_minus=st.floats(min_value=0.0, max_value=0.45),
    extra_minus=st.floats(min_value=0.0, max_value=0.05),
    t_plus=st.floats(min_value=0.0, max_value=2.0),
    extra_plus=st.floats(min_value=0.0, max_value=1.0),
    n_shift=st.integers(min_value=0, max_value=5),
)
def test_kl_monotonicity(t_minus, extra_minus, t_plus, extra_plus, n_shift):
    cf = expand(FrequencySpec.periodic((), (2,)), 25)
    base = kl_membership(cf, kl_params(t_minus, t_plus, 1), 20)
    widened = kl_membership(
        cf, kl_params(t_minus + extra_minus, t_plus + extra_plus, 1 + n_shift), 20
    )
    # enlarging bands / raising N never flips true to false
    if base.lower_KL:
        assert widened.lower_KL
    if base.upper_KL_prime:
        assert widened.upper_KL_prime
    if base.KLBrj:
        assert widened.KLBrj


def test_kl_params_validation():
    c = khintchine_constants(1e-8)
    with pytest.raises(ValueError):
        kl_params(c.kappa - math.log((1 + math.sqrt(5)) / 2) + 0.01, 0.1, 1)
    for t_minus, t_plus in ((-0.1, 0.1), (math.nan, 0.1), (0.1, math.nan), (0.1, math.inf)):
        with pytest.raises(ValueError):
            kl_params(t_minus, t_plus, 1)
    with pytest.raises(ValueError):
        kl_params(0.1, 0.1, 0)
    p = kl_params(0.1, 0.2, 3)
    assert p.gamma > 1.0
    assert p.beta_prime == pytest.approx(p.kappa_prime + 0.2)


def test_kl_depth_errors(golden):
    with pytest.raises(DepthExhausted):
        kl_membership(golden, kl_params(0.1, 0.1, 30), 20)
