"""Exact continued-fraction core.

Partial quotients, convergents, Legendre multiplier bounds and rational
sandwiches of an irrational frequency, all in big-integer arithmetic.  A
frequency is never held as a float: every order comparison against a
rational goes through a nested convergent interval (a "sandwich") and is
only reported once both endpoints agree.

Index conventions: (p_0, q_0) = (0, 1), p_1 = 1, q_1 = a_1 and
q_k = a_k q_{k-1} + q_{k-2} for k >= 2.  ``astar[k]`` is the Legendre
multiplier bound attached to the quotient a_{k+1}, so the admissible
convergent multiples at level k are 1 <= a <= astar[k]; that enumeration
starts at k = 0, while the weighted series over denominators start at
n = 1.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Optional

from ._record import Record

# expand() reads at most this many quotients, whatever depth is asked for
DEPTH_CAP = 10_000
DEFAULT_BIT_CAP = 1_000_000

_RULE_KEYS = {"omega-star": ("a1", "alpha"), "exp-liouville": ("a1", "c")}


class ExpansionError(ValueError):
    """Structural problem with a frequency spec or an expansion request."""


class DepthExhausted(ExpansionError):
    """The available expansion cannot resolve a comparison; expand deeper."""


class RuleDefect(ExpansionError):
    """A quotient rule produced an invalid partial quotient (internal defect)."""


class FrequencySpec(Record):
    """Recipe producing the partial quotients of a frequency in (0, 1).

    The quotients are ``head``, then ``period`` repeated (a quadratic
    surd) or ``rule`` applied (a pure function of the index and the
    denominators so far), or nothing (a finite list).  A rational's
    ``head`` is its Euclidean expansion and ``exact`` its value; a rule's
    a_1 is ``head[0]`` and ``c`` is the exp-liouville rate.  ``bit_cap``
    bounds the bit size of any denominator q_n before the expansion is
    truncated; truncation is reported, never silent.
    """

    head: tuple = ()
    period: tuple = ()
    rule: str = ""
    c: Optional[Fraction] = None
    exact: Optional[Fraction] = None
    bit_cap: int = DEFAULT_BIT_CAP

    def __post_init__(self):
        if self.bit_cap < 8:
            raise ExpansionError(f"bit_cap must be at least 8, got {self.bit_cap}")
        for a in (*self.head, *self.period):
            if not isinstance(a, int) or a < 1:
                raise ExpansionError(f"partial quotients must be integers >= 1, got {a!r}")
        if not (self.head or self.period):
            raise ExpansionError("a frequency needs at least one partial quotient")
        if self.rule not in ("", *_RULE_KEYS) or (self.rule and self.period):
            raise ExpansionError(f"bad rule {self.rule!r}; known: {tuple(_RULE_KEYS)}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def literal(cls, quotients, **caps) -> "FrequencySpec":
        return cls(head=tuple(int(a) for a in quotients), **caps)

    @classmethod
    def periodic(cls, preperiod, period, **caps) -> "FrequencySpec":
        if not period:
            raise ExpansionError("periodic spec needs a nonempty period")
        return cls(
            head=tuple(int(a) for a in preperiod),
            period=tuple(int(a) for a in period),
            **caps,
        )

    @classmethod
    def golden(cls, **caps) -> "FrequencySpec":
        """The all-ones expansion, i.e. the golden-mean conjugate (sqrt(5)-1)/2."""
        return cls.periodic((), (1,), **caps)

    @classmethod
    def make_rule(cls, name, /, bit_cap=DEFAULT_BIT_CAP, **params) -> "FrequencySpec":
        """a_1 = ``a1`` (default 1), then the rule ``name``.

        omega-star also takes ``alpha`` (only 1/n), exp-liouville the rate
        ``c`` > 0 (default 0.5); any other key, ``name`` included, is an error.
        """
        keys = _RULE_KEYS.get(name)
        if keys is None:
            raise ExpansionError(f"unknown rule {name!r}; known: {tuple(_RULE_KEYS)}")
        for key in params:
            if key not in keys:
                raise ExpansionError(f"rule {name} has no parameter {key!r}; it takes {keys}")
        if params.get("alpha", "1/n") != "1/n":
            raise ExpansionError("omega-star supports only alpha=1/n")
        try:
            a1 = int(params.get("a1", 1))
            c = Fraction(str(params.get("c", "0.5"))) if name == "exp-liouville" else None
        except (ValueError, ZeroDivisionError) as exc:
            raise ExpansionError(f"bad parameter of rule {name}: {exc}")
        if c is not None and c <= 0:
            raise ExpansionError("exp-liouville needs c > 0")
        return cls(head=(a1,), rule=name, c=c, bit_cap=bit_cap)

    @classmethod
    def rational(cls, numerator, denominator, **caps) -> "FrequencySpec":
        if not 0 < numerator < denominator:
            raise ExpansionError("rational spec needs 0 < numerator < denominator")
        exact = Fraction(numerator, denominator)
        head, num, den = [], exact.numerator, exact.denominator
        while num:
            head.append(den // num)
            num, den = den % num, num
        return cls(head=tuple(head), exact=exact, **caps)

    def describe(self) -> str:
        """Render the spec in the frequency mini-language; parse_frequency inverts it."""
        if self.exact is not None:
            return f"rational:{self.exact}"
        if self.rule:
            rate = "" if self.c is None else f",c={self.c}"
            return f"rule:{self.rule}(a1={self.head[0]}{rate})"
        head = ",".join(map(str, self.head))
        if not self.period:
            return f"quotients:[{head}]"
        if not self.head and self.period == (1,):
            return "golden"
        return f"surd:[{head};" + ",".join(map(str, self.period)) + "]"


_GRAMMAR_HINT = (
    "expected one of: golden | surd:[pre;per] | quotients:[a1,a2,...] | "
    "rational:P/Q | rule:name(k=v,...)"
)


def _parse_int_list(body: str):
    body = body.strip()
    if not body:
        return ()
    try:
        return tuple(int(tok) for tok in body.split(","))
    except ValueError as exc:
        raise ExpansionError(f"bad integer list {body!r}: {exc}; {_GRAMMAR_HINT}")


def parse_frequency(text: str, bit_cap=None) -> FrequencySpec:
    """Parse the frequency mini-language; ``FrequencySpec.describe`` inverts it.

    ``golden``, ``surd:[pre;per]`` (e.g. ``surd:[;2]``),
    ``quotients:[a1,a2,...]``, ``rational:P/Q``,
    ``rule:omega-star(alpha=1/n,a1=2)``, ``rule:exp-liouville(c=0.5,a1=1)``.
    """
    caps = {} if bit_cap is None else {"bit_cap": bit_cap}
    text = text.strip()
    if text == "golden":
        return FrequencySpec.golden(**caps)
    if text.startswith("surd:[") and text.endswith("]"):
        pre, semicolon, per = text[len("surd:[") : -1].partition(";")
        if not semicolon:
            raise ExpansionError(f"surd needs 'pre;per': {text!r}; {_GRAMMAR_HINT}")
        return FrequencySpec.periodic(_parse_int_list(pre), _parse_int_list(per), **caps)
    if text.startswith("quotients:[") and text.endswith("]"):
        return FrequencySpec.literal(_parse_int_list(text[len("quotients:[") : -1]), **caps)
    if text.startswith("rational:"):
        m = re.fullmatch(r"(\d+)/(\d+)", text[len("rational:") :])
        if not m:
            raise ExpansionError(f"bad rational {text!r}; {_GRAMMAR_HINT}")
        return FrequencySpec.rational(int(m.group(1)), int(m.group(2)), **caps)
    if text.startswith("rule:"):
        m = re.fullmatch(r"rule:([a-z-]+)\(([^)]*)\)", text)
        if not m:
            raise ExpansionError(f"bad rule syntax {text!r}; {_GRAMMAR_HINT}")
        name, body = m.groups()
        params = {}
        for item in body.split(",") if body.strip() else ():
            key, equals, value = item.partition("=")
            if not equals or key.strip() == "bit_cap":
                raise ExpansionError(f"bad rule parameter {item!r}; {_GRAMMAR_HINT}")
            params[key.strip()] = value.strip()
        return FrequencySpec.make_rule(name, **params, **caps)
    raise ExpansionError(f"cannot parse frequency {text!r}; {_GRAMMAR_HINT}")


class ContinuedFraction(Record):
    """Expanded frequency: quotients a_1..a_d with all derived exact data.

    ``exact`` is set only for rational specs whose expansion terminated;
    in that case the final convergent equals the represented value and no
    strict sandwich exists at the last level.
    """

    spec: FrequencySpec
    quotients: tuple  # a_1 .. a_d
    p: tuple  # p_0 .. p_d
    q: tuple  # q_0 .. q_d
    astar: tuple  # astar[k] bounds multiples of (q_k, p_k); k = 0 .. d-1
    truncated: bool
    exact: Optional[Fraction] = None

    @property
    def depth(self) -> int:
        return len(self.quotients)

    @property
    def _levels(self) -> int:
        """Number of sandwich levels; an exact last convergent closes none."""
        return self.depth if self.exact is None else self.depth - 1

    def require_depth(self, n: int, what: str) -> None:
        """Raise DepthExhausted naming ``what`` unless depth >= n."""
        if n > self.depth:
            raise DepthExhausted(
                f"{what} needs expansion depth >= {n}; have {self.depth} -- expand deeper"
            )

    def q_lower_bounds(self, n: int) -> tuple:
        """(s1, s2) <= (q_{n+1}, q_{n+2}) from q_n and q_{n-1} alone, for n >= 1.

        Every quotient is at least 1, so q_{n+1} >= q_n + q_{n-1} = s1,
        q_{n+2} >= q_{n+1} + q_n >= s1 + q_n = s2 and q_{k+2} > 2 q_k at
        every k: past level n the denominators are at least s1 and s2,
        doubled every two levels.
        """
        s1 = self.q[n] + self.q[n - 1]
        return s1, s1 + self.q[n]

    def convergent(self, n: int) -> Fraction:
        return Fraction(self.p[n], self.q[n])

    def sandwich(self, m: int) -> tuple:
        """Fractions lo < omega < hi: the convergents p_m/q_m, p_{m+1}/q_{m+1}.

        The width hi - lo is exactly 1/(q_m q_{m+1}).  Even-index
        convergents lie below omega, odd-index ones above.
        """
        if m < 0 or m + 1 > self._levels:
            raise DepthExhausted(
                f"sandwich level {m} needs depth {m + 1}"
                + ("" if self.exact is None else " strictly inside the exact expansion")
                + f"; have {self.depth} quotients -- expand deeper"
            )
        a = self.convergent(m)
        b = self.convergent(m + 1)
        return (a, b) if m % 2 == 0 else (b, a)

    @cached_property
    def bracket(self) -> tuple:
        """Fractions lo <= omega <= hi.

        (exact, exact) for a terminated rational, else the finest sandwich;
        every floor, divisor and float value of omega reads it.  Computed
        once per expansion: the fields it reads are frozen.
        """
        if self.exact is not None:
            return self.exact, self.exact
        return self.sandwich(self._levels - 1)

    def omega_float(self) -> float:
        """Float midpoint of the bracket (the exact value when rational)."""
        lo, hi = self.bracket
        return float((lo + hi) / 2)


def mul_big_float(big: int, x: float) -> float:
    """big * x rounded once at any size of big; +-inf past the float range.

    Plain int * float rounds big to a float first: inexact past 53 bits, and
    an OverflowError beyond 1e308 even when the product is representable.
    """
    if big.bit_length() <= 53:
        return big * x
    num, den = x.as_integer_ratio()
    try:
        return big * num / den
    except OverflowError:
        return math.copysign(math.inf, x)


def legendre_astar(a_next: int) -> int:
    """Largest integer strictly below sqrt((a_next + 2) / 2).

    Equivalently the floor of that square root, decremented when the root
    is itself an integer.  Computed exactly: t < sqrt((a+2)/2) iff
    2 t^2 <= a + 1 for integers, so the answer is isqrt((a + 1) // 2).
    """
    if a_next < 1:
        raise ExpansionError("partial quotient must be >= 1")
    return max(1, isqrt((a_next + 1) // 2))


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def _exact_exp_ratio(x: Fraction, divisor: int, mode: str) -> int:
    """Exact floor/ceil of exp(x)/divisor for rational x > 0, in Python ints.

    With y = x / 2^s <= 1/16 and P working bits, the Taylor terms
    t_0 = 2^P, t_k = floor(t_{k-1} y / k) each fall short of y^k/k! 2^P by
    less than 16/15 (the shortfall of t_{k-1}, times y/k, plus one
    rounding), and once t_k = 0 the rest of the series is below 1/10.  So
    with K terms summed (the zero one included), lo = sum t_k and
    hi = lo + 2K + 1 enclose e^y 2^P.  Squaring s times, lo rounded down
    and hi up, encloses e^x 2^P.  exp of a nonzero rational is
    transcendental, hence never an integer multiple of ``divisor``, so
    doubling P until both ends give the same floor/ceil always ends.
    """
    n, m = x.numerator, x.denominator
    s = max(0, (16 * n).bit_length() - m.bit_length() + 1)
    den = m << s  # y = n / den <= 1/16
    # bits of the result, plus the squarings' doubling of the relative error
    prec = max(0, math.ceil(n / m / math.log(2)) - divisor.bit_length()) + s + 64
    for _ in range(8):
        term = lo = 1 << prec
        k = 1
        while term:
            term = term * n // (k * den)
            lo += term
            k += 1
        hi = lo + 2 * k + 1
        for _ in range(s):
            lo = (lo * lo) >> prec
            hi = -((-hi * hi) >> prec)
        scale = divisor << prec
        if mode == "floor":
            lo, hi = lo // scale, hi // scale
        else:
            lo, hi = -(-lo // scale), -(-hi // scale)
        if lo == hi:
            return lo
        prec *= 2
    raise RuleDefect("interval floor of exp() failed to settle")  # pragma: no cover


def _rule_next(spec: FrequencySpec, n: int, q_n: int):
    """Quotient a_{n+1} of a rule spec, or None when it would blow the bit cap.

    ``n`` is the index of the last computed quotient (n >= 1), ``q_n`` the
    matching denominator.
    """
    if spec.rule == "omega-star":
        # a_{n+1} = max(1, floor(exp(q_n / n) / q_n) - 1)
        x = Fraction(q_n, n)
    else:  # exp-liouville: a_{n+1} = ceil(exp(c * q_n) / q_n)
        x = spec.c * q_n
    # cheap overshoot test before any big evaluation
    try:
        x_float = x.numerator / x.denominator
    except OverflowError:
        return None
    est_bits = x_float / math.log(2) - math.log2(q_n) + q_n.bit_length()
    if est_bits > spec.bit_cap + 64:
        return None
    if spec.rule == "omega-star":
        a = _exact_exp_ratio(x, q_n, "floor") - 1
        return max(1, a)
    return _exact_exp_ratio(x, q_n, "ceil")


def expand(spec: FrequencySpec, depth: int) -> ContinuedFraction:
    """Expand a frequency spec to ``depth`` partial quotients.

    Quotients come from the head, then the period or the rule.  All
    invariant lists are filled to min(depth, DEPTH_CAP, the length
    ``bit_cap`` allows); the ``truncated`` flag is set whenever a cap
    fired.  A rule producing a quotient < 1 after clamping raises
    RuleDefect; exceeding ``bit_cap`` truncates gracefully.
    """
    if depth < 1:
        raise ExpansionError("depth must be >= 1")
    target = min(depth, DEPTH_CAP)
    hit_cap = depth > DEPTH_CAP

    a_list: list = []
    p_list, q_list = [0], [1]
    p_prev, q_prev = 1, 0  # index -1
    while len(a_list) < target:
        n = len(a_list)
        if n < len(spec.head):
            a = spec.head[n]
        elif spec.period:
            a = spec.period[(n - len(spec.head)) % len(spec.period)]
        elif spec.rule:
            a = _rule_next(spec, n, q_list[-1])
        else:  # a finite list is used up; a rational one is exact
            hit_cap = hit_cap or spec.exact is None
            break
        if a is None:  # the rule's next quotient would blow bit_cap
            hit_cap = True
            break
        if a < 1:
            raise RuleDefect(f"rule produced quotient {a} < 1 at index {n + 1}")
        q_next = a * q_list[-1] + q_prev
        if q_next.bit_length() > spec.bit_cap:
            hit_cap = True
            break
        p_next = a * p_list[-1] + p_prev
        p_prev, q_prev = p_list[-1], q_list[-1]
        a_list.append(a)
        p_list.append(p_next)
        q_list.append(q_next)

    if not a_list:
        raise ExpansionError("expansion produced no quotients")
    return ContinuedFraction(
        spec=spec,
        quotients=tuple(a_list),
        p=tuple(p_list),
        q=tuple(q_list),
        astar=tuple(legendre_astar(a) for a in a_list),
        truncated=hit_cap,
        exact=spec.exact if len(a_list) == len(spec.head) else None,
    )


# ---------------------------------------------------------------------------
# exact comparisons against omega
# ---------------------------------------------------------------------------


def floor_mult(cf: ContinuedFraction, n: int) -> int:
    """Exact floor(n * omega) for an integer n >= 1."""
    if n < 1:
        raise ExpansionError("floor_mult needs n >= 1")
    lo, hi = cf.bracket
    f_lo = (n * lo.numerator) // lo.denominator
    f_hi = (n * hi.numerator) // hi.denominator
    if f_lo == f_hi:
        return f_lo
    raise DepthExhausted(
        f"floor({n}*omega) unresolved at depth {cf.depth}; expand deeper"
    )


def _divisor_ends(cf: ContinuedFraction, q: int, p: int, zero_end: bool = False) -> tuple:
    """(sign, x_lo, d_lo, x_hi, d_hi) with x_lo/d_lo <= |q omega - p| <= x_hi/d_hi
    and sign = +-1 the sign of q omega - p, for q >= 0.

    The ends are the residues q num - p den of the bracket endpoints num/den
    over their denominators.  Raises when the residues have opposite signs
    or one is 0 (p/q is an endpoint).  With ``zero_end`` an endpoint p/q is
    read too: omega lies strictly inside an irrational bracket, so the
    other endpoint carries the sign, and x_lo is 0.  Both residues are 0
    only for the exact bracket of a rational omega = p/q: that mode is
    resonant, no depth resolves it, and it raises ExpansionError, not
    DepthExhausted.
    """
    lo, hi = cf.bracket
    lod, hid = lo.denominator, hi.denominator
    r_lo, r_hi = q * lo.numerator - p * lod, q * hi.numerator - p * hid
    if r_lo >= 0 < r_hi and (r_lo or zero_end):
        return 1, r_lo, lod, r_hi, hid
    if r_lo < 0 >= r_hi and (r_hi or zero_end):
        return -1, -r_hi, hid, -r_lo, lod
    if r_lo == r_hi == 0:
        raise ExpansionError(
            f"resonant mode (q={q}, p={p}): q omega = p exactly, so its divisor is 0"
        )
    raise DepthExhausted(f"divisor sign unresolved at (q={q}, p={p}); expand deeper")


def resolve_depth_for_box(cf: ContinuedFraction, box_radius: int) -> int:
    """Smallest sandwich level m with q_m > 2 * box_radius.

    At that level every floor(q * omega) with 0 < q <= box_radius is
    determined: the sandwich width q/(q_m q_{m+1}) is below the distance
    from q*omega to the nearest integer, which is at least |q_{m-1}
    omega - p_{m-1}| > 1/(2 q_m) for q < q_m.
    """
    for m in range(cf._levels):
        if cf.q[m] > 2 * box_radius:
            return m
    raise DepthExhausted(
        f"expansion of depth {cf.depth} too shallow for box radius {box_radius}"
        + (
            "; expand deeper"
            if cf.exact is None
            else f": the exact expansion of {cf.exact} ends there, so no deeper one helps"
        )
    )


# ---------------------------------------------------------------------------
# nearest-integer lemma verification
# ---------------------------------------------------------------------------


def verify_nint_lemma(cf: ContinuedFraction, k_max: int):
    """Check |a q_k omega - a p_k| < 1/2 for k <= k_max, 1 <= a <= astar[k].

    The enclosure of a q_k omega - a p_k is a times that of q_k omega - p_k,
    so each level is decided at its largest multiple a = astar[k]: the
    check passes there exactly when it passes for every a.  Returns one
    (k, astar[k], verdict) triple per level, all expected True.  When
    a_1 = 1 the frequency exceeds 1/2 and the level-0 primitive pair
    coincides with the level-1 convergent (q_0 = q_1 = 1, and the nearest
    integer to q_0*omega is p_1, not p_0); level 0 carries no separate
    multiple in that case and is skipped.
    """
    cf.require_depth(k_max + 1, f"verify_nint_lemma(k_max={k_max})")
    results = []
    for k in range(k_max + 1):
        if k == 0 and cf.quotients[0] == 1:
            continue
        a = cf.astar[k]
        _, x_lo, d_lo, x_hi, d_hi = _divisor_ends(cf, a * cf.q[k], a * cf.p[k], zero_end=True)
        if 2 * x_hi < d_hi:
            results.append((k, a, True))
        elif 2 * x_lo >= d_lo:
            results.append((k, a, False))
        else:
            raise DepthExhausted(f"nint check unresolved at (k={k}, a={a}); expand deeper")
    return results
