"""Exact continued-fraction core: recurrences, sandwiches, Legendre bounds."""

import re
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldivlab.bounds import brj1, brj2, brj_fin_diff, eval_majorant_series, gamma_delta
from smalldivlab.classify import (
    brjuno_partial_sum,
    diophantine_constant,
    kl_membership,
    kl_params,
)
from smalldivlab.cohom import blowup_witness, counterexample_modes
from smalldivlab.contfrac import (
    ContinuedFraction,
    DepthExhausted,
    ExpansionError,
    FrequencySpec,
    cmp_omega,
    divisor_interval,
    expand,
    floor_mult,
    legendre_astar,
    parse_frequency,
    resolve_depth_for_box,
    verify_nint_lemma,
)

from conftest import PI_MINUS_3_DEN, PI_MINUS_3_NUM

quotient_lists = st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=20)


# ---------------------------------------------------------------------------
# expansion examples
# ---------------------------------------------------------------------------


def test_golden_depth5(golden):
    cf = expand(FrequencySpec.golden(), 5)
    assert cf.quotients == (1, 1, 1, 1, 1)
    assert cf.q == (1, 1, 2, 3, 5, 8)
    assert cf.p == (0, 1, 1, 2, 3, 5)


def test_sqrt2m1_depth4():
    cf = expand(FrequencySpec.periodic((), (2,)), 4)
    assert cf.quotients == (2, 2, 2, 2)
    assert cf.q == (1, 2, 5, 12, 29)


def test_pi_corpus_prefix_is_certain(pi_like):
    # the frozen corpus quotients are the common Euclidean prefix of two
    # rational brackets of the 50-digit decimal; every term is certain
    lo = expand(FrequencySpec.rational(PI_MINUS_3_NUM - 2, PI_MINUS_3_DEN), 45)
    hi = expand(FrequencySpec.rational(PI_MINUS_3_NUM + 2, PI_MINUS_3_DEN), 45)
    common = []
    for a, b in zip(lo.quotients, hi.quotients):
        if a != b:
            break
        common.append(a)
    assert tuple(common[: pi_like.depth]) == pi_like.quotients


def test_pi_like_euclid_oracle():
    # Euclidean-algorithm oracle on the exact rational approximant
    cf = expand(FrequencySpec.rational(PI_MINUS_3_NUM, PI_MINUS_3_DEN), 4)
    assert cf.quotients == (7, 15, 1, 292)
    assert [(cf.p[n], cf.q[n]) for n in (1, 2, 3)] == [(1, 7), (15, 106), (16, 113)]

    # brute-force Euclid on the same rational must agree
    a, b = PI_MINUS_3_DEN, PI_MINUS_3_NUM
    expected = []
    while b and len(expected) < 4:
        q, r = divmod(a, b)
        expected.append(q)
        a, b = b, r
    assert list(cf.quotients) == expected


def test_rational_exact_termination():
    cf = expand(FrequencySpec.rational(2, 5), 10)
    assert cf.quotients == (2, 2)
    assert cf.exact == Fraction(2, 5)
    assert not cf.truncated
    assert cf.convergent(cf.depth) == Fraction(2, 5)


def test_rational_exact_at_its_own_length():
    # asking for exactly the Euclidean length reads the whole expansion:
    # omega is 2/5 itself, not inside a sandwich ending at 2/5
    cf = expand(FrequencySpec.rational(2, 5), 2)
    assert cf.exact == Fraction(2, 5) and not cf.truncated
    assert cmp_omega(cf, Fraction(2, 5)) == 0
    assert expand(FrequencySpec.rational(2, 5), 1).exact is None


def test_depth_cap_truncates():
    cf = expand(FrequencySpec.golden(depth_cap=6), 10)
    assert cf.depth == 6
    assert cf.truncated


def test_bit_cap_truncates_gracefully():
    cf = expand(FrequencySpec.periodic((), (1000000,), bit_cap=48), 20)
    assert cf.truncated
    assert all(x.bit_length() <= 48 for x in cf.q)
    assert cf.depth >= 1


def test_rule_expansion_reproducible(omega_star, exp_liouville):
    # rule quotients are pure functions of the index and earlier
    # denominators; re-expansion is bit-identical including truncation
    ws = expand(FrequencySpec.make_rule("omega-star", a1=2), 20)
    assert ws.quotients == omega_star.quotients
    assert ws.truncated == omega_star.truncated
    el = expand(FrequencySpec.make_rule("exp-liouville", c="0.5", a1=1), 20)
    assert el.quotients == exp_liouville.quotients
    # shorter requests agree on the common prefix
    half = expand(FrequencySpec.make_rule("omega-star", a1=2), 4)
    assert half.quotients == omega_star.quotients[:4]


def test_bad_specs_rejected():
    with pytest.raises(ExpansionError):
        FrequencySpec.literal([3, 0, 2])
    with pytest.raises(ExpansionError):
        FrequencySpec.literal([])
    with pytest.raises(ExpansionError):
        FrequencySpec.rational(5, 3)
    with pytest.raises(ExpansionError):
        expand(FrequencySpec.golden(), 0)


# ---------------------------------------------------------------------------
# invariants (exhaustive on corpus, randomized via hypothesis)
# ---------------------------------------------------------------------------


def _check_invariants(cf: ContinuedFraction):
    d = cf.depth
    assert cf.q[0] == 1 and cf.p[0] == 0
    assert cf.q[1] == cf.quotients[0] and cf.p[1] == 1
    for k in range(2, d + 1):
        assert cf.q[k] == cf.quotients[k - 1] * cf.q[k - 1] + cf.q[k - 2]
        assert cf.p[k] == cf.quotients[k - 1] * cf.p[k - 1] + cf.p[k - 2]
    for n in range(1, d + 1):
        assert cf.p[n] * cf.q[n - 1] - cf.p[n - 1] * cf.q[n] == (-1) ** (n - 1)
    # strict growth from n = 2 and the Fibonacci / golden-power lower bounds
    fib_a, fib_b = 1, 1
    phi = (1 + mp.sqrt(5)) / 2
    for n in range(2, d + 1):
        assert cf.q[n] > cf.q[n - 1]
    for n in range(0, d + 1):
        if n >= 2:
            fib_a, fib_b = fib_b, fib_a + fib_b
        fib = 1 if n <= 1 else fib_b
        assert fib <= cf.q[n]
        assert phi**n / 3 < cf.q[n]
    # product sandwich M_n < q_n < M'_n (n >= 2); M_1 = q_1 < M'_1
    assert cf.M[1] == cf.q[1] < cf.Mprime[1]
    for n in range(2, d + 1):
        assert cf.M[n] < cf.q[n] < cf.Mprime[n]


def test_invariants_corpus(golden, sqrt2m1, pi_like, large_quot, omega_star, exp_liouville):
    for cf in (golden, sqrt2m1, pi_like, large_quot, omega_star, exp_liouville):
        _check_invariants(cf)


@settings(max_examples=60, deadline=None)
@given(quotient_lists)
def test_invariants_random(quotients):
    _check_invariants(expand(FrequencySpec.literal(quotients), len(quotients)))


# ---------------------------------------------------------------------------
# legendre_astar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,expected", [(1, 1), (2, 1), (6, 1), (7, 2), (16, 2), (40, 4)])
def test_astar_values(a, expected):
    assert legendre_astar(a) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_astar_is_largest_below_root(a):
    t = legendre_astar(a)
    assert t >= 1
    assert 2 * t * t < a + 2  # t < sqrt((a+2)/2) strictly
    assert 2 * (t + 1) * (t + 1) >= a + 2  # t+1 >= sqrt((a+2)/2)


# ---------------------------------------------------------------------------
# sandwiches and comparisons
# ---------------------------------------------------------------------------


def test_sandwich_golden_m4(golden):
    box = golden.sandwich(4)
    assert (box.lo, box.hi) == (Fraction(3, 5), Fraction(5, 8))
    assert box.width == Fraction(1, 40)


def test_sandwich_nesting(golden, sqrt2m1, pi_like):
    for cf in (golden, sqrt2m1, pi_like):
        for m in range(0, min(cf.depth - 2, 12)):
            assert cf.sandwich(m + 1).strictly_inside(cf.sandwich(m))


def test_sandwich_contains_surd_oracle(sqrt2m1):
    # 30-digit evaluation of sqrt(2) - 1 as an exact rational bracket
    mp.mp.dps = 35
    v = mp.sqrt(2) - 1
    lo = Fraction(int(v * mp.mpf(10) ** 30) - 1, 10**30)
    hi = Fraction(int(v * mp.mpf(10) ** 30) + 1, 10**30)
    box = sqrt2m1.sandwich(2)
    assert box.lo < lo < hi < box.hi
    deep = sqrt2m1.sandwich(30)
    assert lo < deep.lo < deep.hi < hi or deep.lo < lo  # 30-digit bracket is coarser


def test_sandwich_depth_error(golden):
    with pytest.raises(DepthExhausted):
        golden.sandwich(golden.depth)


def test_cmp_and_floor(golden):
    assert cmp_omega(golden, Fraction(1, 2)) == 1
    assert cmp_omega(golden, Fraction(2, 3)) == -1
    mp.mp.dps = 40
    w = (mp.sqrt(5) - 1) / 2
    for n in (1, 2, 3, 10, 137, 1000):
        assert floor_mult(golden, n) == int(mp.floor(n * w))


def test_divisor_interval_sign(golden):
    lo, hi = divisor_interval(golden, 1, 1)  # omega - 1 < 0
    assert lo < hi < 0
    lo, hi = divisor_interval(golden, 2, 1)  # 2 omega - 1 > 0
    assert 0 < lo < hi
    lo, hi = divisor_interval(golden, -1, -1)
    assert 0 < lo < hi


def test_resolve_depth_for_box(golden):
    m = resolve_depth_for_box(golden, 100)
    assert golden.q[m] > 200
    assert golden.q[m - 1] <= 200
    shallow = expand(FrequencySpec.golden(), 5)
    with pytest.raises(DepthExhausted):
        resolve_depth_for_box(shallow, 100)


# ---------------------------------------------------------------------------
# nearest-integer lemma
# ---------------------------------------------------------------------------


def test_nint_golden(golden):
    results = verify_nint_lemma(golden, 20)
    # a_1 = 1, so level 0 is skipped; every remaining level has astar = 1
    assert len(results) == 20
    assert all(ok for _, _, ok in results)


def test_nint_large_quotients(large_quot):
    results = verify_nint_lemma(large_quot, 10)
    assert all(ok for _, _, ok in results)
    # quotient 40 admits multiples up to astar = 4 at odd levels
    assert max(a for _, a, _ in results) == 4

    # exact rational brute force over every reported (k, a)
    box = large_quot.finest_sandwich()
    for k, a, ok in results:
        t = a * large_quot.q[k]
        target = a * large_quot.p[k]
        v_lo = t * box.lo - target
        v_hi = t * box.hi - target
        assert ok == (abs(v_lo) < Fraction(1, 2) and abs(v_hi) < Fraction(1, 2))


def test_nint_small_frequency_level0():
    # a_1 = 2: the frequency is below 1/2 and level 0 is a genuine check
    cf = expand(FrequencySpec.periodic((), (2,)), 30)
    results = verify_nint_lemma(cf, 0)
    assert results == [(0, 1, True)]


def test_nint_depth_error(golden):
    shallow = expand(FrequencySpec.golden(), 5)
    with pytest.raises(DepthExhausted):
        verify_nint_lemma(shallow, 10)


# ---------------------------------------------------------------------------
# bracket and depth contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num,den", [(355, 113000), (2, 5)])
def test_bracket_rational_is_plain_fraction_arithmetic(num, den):
    cf = expand(FrequencySpec.rational(num, den), 64)
    omega = Fraction(num, den)
    assert cf.exact == omega
    assert cf.bracket == (omega, omega)
    assert cf.omega_float() == float(omega)
    assert gamma_delta(cf, 1.0, 0.1).omega_halfwidth == 0.0
    for q in (1, 2, 3, 7, 112, 113, 5000):
        assert floor_mult(cf, q) == (q * num) // den
        for p in (-3, 0, (q * num) // den, 9):
            v = q * omega - p
            assert divisor_interval(cf, q, p) == (v, v)
            assert divisor_interval(cf, -q, -p) == (-v, -v)
    assert divisor_interval(cf, 0, 4) == (-4, -4)


def test_bracket_irrational_is_finest_sandwich(golden):
    box = golden.finest_sandwich()
    assert golden.bracket == (box.lo, box.hi)
    assert golden.omega_float() == float(box.midpoint)
    assert gamma_delta(golden, 1.0, 0.1).omega_halfwidth == float(box.width) / 2.0
    for q in (1, 2, 3, 7, 112, 113, 5000):
        assert floor_mult(golden, q) == (q * box.lo.numerator) // box.lo.denominator
        for p in (-3, 0, 9):
            assert divisor_interval(golden, q, p) == (q * box.lo - p, q * box.hi - p)
            assert divisor_interval(golden, -q, -p) == (p - q * box.hi, p - q * box.lo)


_KL = kl_params(0.3, 0.1, 1)
_DEPTH_CALLS = {
    # caller name in the message: (call on a depth-5 expansion, depth it needs)
    "verify_nint_lemma(k_max=5)": (lambda cf: verify_nint_lemma(cf, 5), 6),
    "diophantine_constant(depth=5)": (lambda cf: diophantine_constant(cf, 2.0, 5), 6),
    "brjuno_partial_sum(depth=5)": (lambda cf: brjuno_partial_sum(cf, 5), 6),
    "kl_membership(depth=6)": (lambda cf: kl_membership(cf, _KL, 6), 6),
    "brj1(depth=5)": (lambda cf: brj1(cf, 0.1, 5), 6),
    "brj2(depth=5)": (lambda cf: brj2(cf, 0.1, 5), 6),
    "brj_fin_diff(m=6)": (lambda cf: brj_fin_diff(cf, 6, 0.1, _KL), 6),
    "eval_majorant_series(Dph1, n_max=6)": (
        lambda cf: eval_majorant_series("Dph1", 0.1, 6, cf=cf, tau=2.0),
        6,
    ),
    "counterexample_modes(n_max=6)": (lambda cf: counterexample_modes(cf, 1.0, 0.1, 6), 6),
    "blowup_witness(n_max=5)": (lambda cf: blowup_witness(cf, 1.0, 0.5, 0.1, 5), 6),
}


@pytest.mark.parametrize("what", sorted(_DEPTH_CALLS))
def test_require_depth_names_caller_and_depth(what):
    shallow = expand(FrequencySpec.golden(), 5)
    call, needed = _DEPTH_CALLS[what]
    message = f"{what} needs expansion depth >= {needed}; have 5 -- expand deeper"
    with pytest.raises(DepthExhausted, match=re.escape(message)):
        call(shallow)


# ---------------------------------------------------------------------------
# mini-language described round trip
# ---------------------------------------------------------------------------


def test_describe_round_trip():
    for text in (
        "golden",
        "surd:[;2]",
        "surd:[1,2;3,4]",
        "quotients:[7,15,1,292]",
        "rational:355/113000",
        "rule:omega-star(a1=2)",
        "rule:omega-star(alpha=1/n,a1=2)",
        "rule:exp-liouville(a1=1,c=0.5)",
    ):
        spec = parse_frequency(text)
        again = parse_frequency(spec.describe())
        assert again == spec
