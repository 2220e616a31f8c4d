"""Shared frequency corpus and oracle helpers."""

import pytest

from smalldivlab.contfrac import FrequencySpec, expand

# common prefix of the Euclidean expansions of two 50-digit rational
# brackets of pi - 3; every quotient is certain
PI_MINUS_3_QUOTIENTS = (
    7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2, 1,
    84, 2, 1, 1, 15, 3, 13, 1, 4, 2, 6, 6, 99, 1, 2, 2, 6, 3, 5, 1, 1, 6,
)

# 50-digit decimal approximation of pi - 3, exact as a rational
PI_MINUS_3_NUM = 14159265358979323846264338327950288419716939937510
PI_MINUS_3_DEN = 10**50


def divisor_interval(cf, q, p):
    """Exact rational enclosure (lo, hi) of the small divisor q*omega - p.

    Signed; lo <= q*omega - p <= hi, read at the bracket of omega in
    Fractions.  The reference for the package's integer-residue reads.
    """
    lo, hi = cf.bracket
    lo, hi = q * lo - p, q * hi - p
    return (lo, hi) if q > 0 else (hi, lo)


def with_bracket(cf, level):
    """``cf`` with its bracket replaced by the sandwich at ``level``."""
    coarse = cf._replace()
    coarse.__dict__["bracket"] = cf.sandwich(level)  # the cached property
    return coarse


@pytest.fixture(scope="session")
def golden():
    return expand(FrequencySpec.golden(), 60)


@pytest.fixture(scope="session")
def sqrt2m1():
    """sqrt(2) - 1 = [2, 2, 2, ...]"""
    return expand(FrequencySpec.periodic((), (2,)), 40)


@pytest.fixture(scope="session")
def pi_like():
    return expand(FrequencySpec.literal(PI_MINUS_3_QUOTIENTS), 42)


@pytest.fixture(scope="session")
def large_quot():
    """[1, 40, 1, 40, ...]: large even-position quotients, astar up to 4."""
    return expand(FrequencySpec.periodic((), (1, 40)), 40)


@pytest.fixture(scope="session")
def two_three():
    """[2, 3, 2, 3, ...]: inside the band grid at (0.2, 0.1) from level 2."""
    return expand(FrequencySpec.periodic((), (2, 3)), 40)


@pytest.fixture(scope="session")
def omega_star():
    return expand(FrequencySpec.make_rule("omega-star", a1=2), 20)


@pytest.fixture(scope="session")
def exp_liouville():
    return expand(FrequencySpec.make_rule("exp-liouville", c="0.5", a1=1), 20)


@pytest.fixture(scope="session")
def corpus(golden, sqrt2m1, pi_like):
    return {"golden": golden, "sqrt2m1": sqrt2m1, "pi_like": pi_like}
