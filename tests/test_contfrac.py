"""Exact continued-fraction core: recurrences, sandwiches, Legendre bounds."""

import itertools
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smalldivlab
from smalldivlab import contfrac
from smalldivlab.bounds import brj1, brj2, brj_fin_diff, dph_series, gamma_delta
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
    _divisor_ends,
    expand,
    floor_mult,
    legendre_astar,
    parse_frequency,
    resolve_depth_for_box,
    _exact_exp_ratio,
    verify_nint_lemma,
)

from conftest import PI_MINUS_3_DEN, PI_MINUS_3_NUM, divisor_interval, with_bracket

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
    assert cf.bracket == (Fraction(2, 5), Fraction(2, 5))
    assert expand(FrequencySpec.rational(2, 5), 1).exact is None


def test_depth_cap_truncates(monkeypatch):
    monkeypatch.setattr(contfrac, "DEPTH_CAP", 6)
    cf = expand(FrequencySpec.golden(), 10)
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


def _mp_exp_floor(x: Fraction, divisor: int) -> int:
    """floor(exp(x)/divisor) by mpmath at 20000 bits, far beyond the 4400
    bits of the largest value below; the ceiling is one more, since
    exp(x)/divisor is never an integer."""
    with mp.workprec(20000):
        return int(mp.floor(mp.exp(mp.mpf(x.numerator) / x.denominator) / divisor))


def test_exact_exp_ratio_against_mpmath():
    rng = random.Random(20260)
    cases = [(Fraction(123), 500873452888432123752281)]
    # arguments that need no halving
    cases += [(x, 1) for x in (Fraction(1, 10**6), Fraction(1, 17), Fraction(1, 16))]
    for _ in range(60):
        den = rng.randint(1, 1000)
        cases.append((Fraction(rng.randint(1, 3000 * den), den), rng.randint(1, 10**30)))
    for x, divisor in cases:
        floor = _mp_exp_floor(x, divisor)
        assert _exact_exp_ratio(x, divisor, "floor") == floor, (x, divisor)
        assert _exact_exp_ratio(x, divisor, "ceil") == floor + 1, (x, divisor)
    assert _mp_exp_floor(*cases[0]) % 10**15 == 382011487374051


@pytest.mark.parametrize(
    "name, params, n, bits",
    [
        ("omega-star", {"a1": 3}, 4, 1414),
        ("exp-liouville", {"c": "0.25", "a1": 2}, 8, 1771),
    ],
)
def test_large_rule_quotients_are_exact(name, params, n, bits):
    cf = expand(FrequencySpec.make_rule(name, **params), n)
    a, q = cf.quotients[n - 1], cf.q[n - 1]
    if name == "omega-star":  # a_n = max(1, floor(exp(q_{n-1} / (n-1)) / q_{n-1}) - 1)
        expected = _mp_exp_floor(Fraction(q, n - 1), q) - 1
    else:  # a_n = ceil(exp(c q_{n-1}) / q_{n-1})
        expected = _mp_exp_floor(Fraction(params["c"]) * q, q) + 1
    assert a.bit_length() == bits
    assert a == expected


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
    # product sandwich M_n < q_n < M'_n (n >= 2); M_1 = q_1 < M'_1, with
    # M_n = a_1 ... a_n and M'_n = (a_1 + 1) ... (a_n + 1)
    M = [1, *itertools.accumulate(cf.quotients, operator.mul)]
    Mprime = [1, *itertools.accumulate((a + 1 for a in cf.quotients), operator.mul)]
    assert M[1] == cf.q[1] < Mprime[1]
    for n in range(2, d + 1):
        assert M[n] < cf.q[n] < Mprime[n]


def test_invariants_corpus(golden, sqrt2m1, pi_like, large_quot, omega_star, exp_liouville):
    for cf in (golden, sqrt2m1, pi_like, large_quot, omega_star, exp_liouville):
        _check_invariants(cf)


@settings(max_examples=60, deadline=None)
@given(quotient_lists)
def test_invariants_random(quotients):
    _check_invariants(expand(FrequencySpec.literal(quotients), len(quotients)))


def test_q_lower_bounds_hold_past_the_expansion(
    golden, pi_like, large_quot, omega_star, exp_liouville
):
    # each bound comes from an expansion that stops at level n, and the
    # deeper one gives the denominators past it: s1 and s2 and their
    # doublings every two levels stay below them
    for deep in (golden, pi_like, large_quot, omega_star, exp_liouville):
        for n in range(1, deep.depth - 1):
            s1, s2 = expand(deep.spec, n).q_lower_bounds(n)
            for first, s in ((n + 1, s1), (n + 2, s2)):
                for j, k in enumerate(range(first, deep.depth + 1, 2)):
                    assert 2**j * s <= deep.q[k], (deep.spec, n, k)


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
    lo, hi = golden.sandwich(4)
    assert (lo, hi) == (Fraction(3, 5), Fraction(5, 8))
    assert hi - lo == Fraction(1, 40)


def test_sandwich_nesting(golden, sqrt2m1, pi_like):
    for cf in (golden, sqrt2m1, pi_like):
        for m in range(0, min(cf.depth - 2, 12)):
            # consecutive sandwiches share one endpoint
            (lo, hi), (outer_lo, outer_hi) = cf.sandwich(m + 1), cf.sandwich(m)
            assert outer_lo <= lo < hi <= outer_hi and (lo, hi) != (outer_lo, outer_hi)


def test_sandwich_contains_surd_oracle(sqrt2m1):
    # 30-digit evaluation of sqrt(2) - 1 as an exact rational bracket
    mp.mp.dps = 35
    v = mp.sqrt(2) - 1
    lo = Fraction(int(v * mp.mpf(10) ** 30) - 1, 10**30)
    hi = Fraction(int(v * mp.mpf(10) ** 30) + 1, 10**30)
    box_lo, box_hi = sqrt2m1.sandwich(2)
    assert box_lo < lo < hi < box_hi
    deep_lo, deep_hi = sqrt2m1.sandwich(30)
    assert lo < deep_lo < deep_hi < hi or deep_lo < lo  # 30-digit bracket is coarser


def test_sandwich_depth_error(golden):
    with pytest.raises(DepthExhausted):
        golden.sandwich(golden.depth)


def test_cmp_and_floor(golden):
    lo, hi = golden.bracket
    assert Fraction(1, 2) < lo < hi < Fraction(2, 3)
    mp.mp.dps = 40
    w = (mp.sqrt(5) - 1) / 2
    for n in (1, 2, 3, 10, 137, 1000):
        assert floor_mult(golden, n) == int(mp.floor(n * w))


def test_divisor_interval_sign(golden):
    lo, hi = divisor_interval(golden, 1, 1)  # omega - 1 < 0
    assert lo < hi < 0
    assert _divisor_ends(golden, 1, 1)[0] == -1
    lo, hi = divisor_interval(golden, 2, 1)  # 2 omega - 1 > 0
    assert 0 < lo < hi
    assert _divisor_ends(golden, 2, 1)[0] == 1
    lo, hi = divisor_interval(golden, -1, -1)
    assert 0 < lo < hi


def test_divisor_ends_match_the_fraction_enclosure(corpus):
    # the sign, and |q omega - p| between x_lo/d_lo and x_hi/d_hi, are the
    # Fraction enclosure's; it may end at 0 only with zero_end
    for cf in corpus.values():
        for m in range(0, cf._levels, 4):
            level = with_bracket(cf, m)
            for q in range(0, 30):
                for p in range(-3, 30):
                    if (q, p) <= (0, 0):
                        continue
                    lo, hi = divisor_interval(level, q, p)
                    for zero_end in (False, True):
                        on_end = lo * hi == 0
                        if lo == hi == 0:  # q omega = p for an exact rational bracket
                            with pytest.raises(ExpansionError, match=re.escape(
                                f"resonant mode (q={q}, p={p}): q omega = p exactly"
                            )) as raised:
                                _divisor_ends(level, q, p, zero_end)
                            assert not isinstance(raised.value, DepthExhausted)
                            continue
                        if lo < 0 < hi or (on_end and not zero_end):
                            with pytest.raises(DepthExhausted, match=re.escape(
                                f"divisor sign unresolved at (q={q}, p={p}); expand deeper"
                            )):
                                _divisor_ends(level, q, p, zero_end)
                            continue
                        sign, x_lo, d_lo, x_hi, d_hi = _divisor_ends(level, q, p, zero_end)
                        assert sign == (1 if hi > 0 else -1)
                        ends = (Fraction(x_lo, d_lo), Fraction(x_hi, d_hi))
                        assert ends == ((lo, hi) if sign > 0 else (-hi, -lo))


def test_resolve_depth_for_box(golden):
    m = resolve_depth_for_box(golden, 100)
    assert golden.q[m] > 200
    assert golden.q[m - 1] <= 200
    shallow = expand(FrequencySpec.golden(), 5)
    with pytest.raises(DepthExhausted, match="expand deeper"):
        resolve_depth_for_box(shallow, 100)
    # 13/21 = [0; 1, 1, 1, 1, 1, 2] ends with the convergent 13/21 itself, so
    # its sandwich levels stop at q_4 = 5 and no deeper expansion exists
    cf = expand(FrequencySpec.rational(13, 21), 64)
    assert resolve_depth_for_box(cf, 2) == 4
    message = (
        "expansion of depth 6 too shallow for box radius 3: "
        "the exact expansion of 13/21 ends there, so no deeper one helps"
    )
    with pytest.raises(DepthExhausted, match=re.escape(message)):
        resolve_depth_for_box(cf, 3)


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
    lo, hi = large_quot.bracket
    for k, a, ok in results:
        t = a * large_quot.q[k]
        target = a * large_quot.p[k]
        v_lo = t * lo - target
        v_hi = t * hi - target
        assert ok == (abs(v_lo) < Fraction(1, 2) and abs(v_hi) < Fraction(1, 2))


def test_nint_small_frequency_level0():
    # a_1 = 2: the frequency is below 1/2 and level 0 is a genuine check
    cf = expand(FrequencySpec.periodic((), (2,)), 30)
    results = verify_nint_lemma(cf, 0)
    assert results == [(0, 1, True)]


def test_nint_decides_a_level_at_its_largest_multiple():
    # astar[3] of omega-star(a1=3) has 707 bits; a loop over every multiple
    # ran for minutes and grew to 900 MB
    src = Path(smalldivlab.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "smalldivlab.cli", "classify", "--freq", "rule:omega-star(a1=3)"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    cf = expand(FrequencySpec.make_rule("omega-star", a1=3), 4)
    results = verify_nint_lemma(cf, 3)
    assert [(k, a) for k, a, _ in results] == [(k, cf.astar[k]) for k in range(4)]
    assert all(ok for _, _, ok in results)


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
    resonant = rf"resonant mode \(q={omega.denominator}, p={omega.numerator}\):"
    with pytest.raises(ExpansionError, match=resonant + " .* so Gamma0 is infinite"):
        gamma_delta(cf, 1.0, 0.1)
    for q in (1, 2, 3, 7, 112, 113, 5000):
        assert floor_mult(cf, q) == (q * num) // den
        for p in (-3, 0, (q * num) // den, 9):
            v = q * omega - p
            if not v:  # resonant: no depth resolves it
                for zero_end in (False, True):
                    with pytest.raises(ExpansionError, match="resonant mode") as raised:
                        _divisor_ends(cf, q, p, zero_end)
                    assert not isinstance(raised.value, DepthExhausted)
                continue
            sign, x_lo, d_lo, x_hi, d_hi = _divisor_ends(cf, q, p)
            assert sign * Fraction(x_lo, d_lo) == sign * Fraction(x_hi, d_hi) == v
    sign, x_lo, d_lo, x_hi, d_hi = _divisor_ends(cf, 0, 4)
    assert sign == -1 and Fraction(x_lo, d_lo) == Fraction(x_hi, d_hi) == 4


def test_bracket_irrational_is_finest_sandwich(golden):
    lo, hi = golden.sandwich(golden.depth - 1)
    assert golden.bracket == (lo, hi)
    assert golden.omega_float() == float((lo + hi) / 2)
    assert gamma_delta(golden, 1.0, 0.1).omega_halfwidth == float(hi - lo) / 2.0
    for q in (1, 2, 3, 7, 112, 113, 5000):
        assert floor_mult(golden, q) == (q * lo.numerator) // lo.denominator
        for p in (-3, 0, 9):
            sign, x_lo, d_lo, x_hi, d_hi = _divisor_ends(golden, q, p)
            ends = sorted(sign * Fraction(x, d) for x, d in ((x_lo, d_lo), (x_hi, d_hi)))
            assert ends == [q * lo - p, q * hi - p]


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
    "dph_series(n_max=6)": (lambda cf: dph_series(cf, 2.0, 0.1, 6), 6),
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
