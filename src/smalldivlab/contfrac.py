"""Exact continued-fraction core.

Partial quotients, convergents, Legendre multiplier bounds, quotient
products and rational sandwiches of an irrational frequency, all in
big-integer arithmetic.  A frequency is never held as a float: every
order comparison against a rational goes through a nested convergent
interval (a "sandwich") and is only reported once both endpoints agree.

Index conventions: (p_0, q_0) = (0, 1), p_1 = 1, q_1 = a_1 and
q_k = a_k q_{k-1} + q_{k-2} for k >= 2.  Products M_n = a_1 ... a_n and
M'_n = (a_1 + 1) ... (a_n + 1) are stored with the empty products
M_0 = M'_0 = 1 at index 0.  ``astar[k]`` is the Legendre multiplier
bound attached to the quotient a_{k+1}, so the admissible convergent
multiples at level k are 1 <= a <= astar[k]; that enumeration starts at
k = 0, while the weighted series over denominators start at n = 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Optional

DEFAULT_DEPTH_CAP = 10_000
DEFAULT_BIT_CAP = 1_000_000

_RULE_KEYS = {"omega-star": ("a1", "alpha"), "exp-liouville": ("a1", "c")}


class ExpansionError(ValueError):
    """Structural problem with a frequency spec or an expansion request."""


class DepthExhausted(ExpansionError):
    """The available expansion cannot resolve a comparison; expand deeper."""


class RuleDefect(ExpansionError):
    """A quotient rule produced an invalid partial quotient (internal defect)."""


@dataclass(frozen=True)
class FrequencySpec:
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
    depth_cap: int = DEFAULT_DEPTH_CAP
    bit_cap: int = DEFAULT_BIT_CAP

    def __post_init__(self):
        if self.depth_cap < 1 or self.bit_cap < 8:
            raise ExpansionError("depth_cap/bit_cap too small")
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
    def make_rule(cls, name, **params) -> "FrequencySpec":
        """a_1 = ``a1`` (default 1), then the rule ``name``.

        omega-star also takes ``alpha`` (only 1/n), exp-liouville the rate
        ``c`` > 0 (default 0.5); any other key is an error.
        """
        caps = {k: params.pop(k) for k in ("depth_cap", "bit_cap") if k in params}
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
        return cls(head=(a1,), rule=name, c=c, **caps)

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


def parse_frequency(text: str, depth_cap=None, bit_cap=None) -> FrequencySpec:
    """Parse the frequency mini-language; ``FrequencySpec.describe`` inverts it.

    ``golden``, ``surd:[pre;per]`` (e.g. ``surd:[;2]``),
    ``quotients:[a1,a2,...]``, ``rational:P/Q``,
    ``rule:omega-star(alpha=1/n,a1=2)``, ``rule:exp-liouville(c=0.5,a1=1)``.
    """
    caps = {"depth_cap": depth_cap, "bit_cap": bit_cap}
    caps = {k: v for k, v in caps.items() if v is not None}
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
            if not equals or key.strip() in ("depth_cap", "bit_cap"):
                raise ExpansionError(f"bad rule parameter {item!r}; {_GRAMMAR_HINT}")
            params[key.strip()] = value.strip()
        return FrequencySpec.make_rule(name, **params, **caps)
    raise ExpansionError(f"cannot parse frequency {text!r}; {_GRAMMAR_HINT}")


@dataclass(frozen=True)
class RationalInterval:
    """Open interval (lo, hi) with exact rational endpoints and lo < omega < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ExpansionError("degenerate sandwich")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def strictly_inside(self, other: "RationalInterval") -> bool:
        """Proper subset as open intervals; consecutive sandwiches share one endpoint."""
        return (
            other.lo <= self.lo
            and self.hi <= other.hi
            and (self.lo, self.hi) != (other.lo, other.hi)
        )


@dataclass(frozen=True)
class ContinuedFraction:
    """Expanded frequency: quotients a_1..a_d with all derived exact data.

    ``exact`` is set only for rational specs whose expansion terminated;
    in that case the final convergent equals the represented value and no
    strict sandwich exists at the last level.
    """

    spec: FrequencySpec
    quotients: tuple  # a_1 .. a_d
    p: tuple  # p_0 .. p_d
    q: tuple  # q_0 .. q_d
    M: tuple  # M_0 = 1, M_1 .. M_d
    Mprime: tuple  # M'_0 = 1, M'_1 .. M'_d
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

    def convergent(self, n: int) -> Fraction:
        return Fraction(self.p[n], self.q[n])

    def sandwich(self, m: int) -> RationalInterval:
        """Interval with endpoints p_m/q_m, p_{m+1}/q_{m+1} containing omega.

        The width is exactly 1/(q_m q_{m+1}).  Even-index convergents lie
        below omega, odd-index ones above.
        """
        if m < 0 or m + 1 > self._levels:
            raise DepthExhausted(
                f"sandwich level {m} needs depth {m + 1}"
                + ("" if self.exact is None else " strictly inside the exact expansion")
                + f"; have {self.depth} quotients -- expand deeper"
            )
        a = self.convergent(m)
        b = self.convergent(m + 1)
        return RationalInterval(a, b) if m % 2 == 0 else RationalInterval(b, a)

    def finest_sandwich(self) -> RationalInterval:
        return self.sandwich(self._levels - 1)

    @cached_property
    def bracket(self) -> tuple:
        """Fractions lo <= omega <= hi.

        (exact, exact) for a terminated rational, else the finest sandwich;
        every floor, divisor and float value of omega reads it.  Computed
        once per expansion: the fields it reads are frozen.
        """
        if self.exact is not None:
            return self.exact, self.exact
        box = self.finest_sandwich()
        return box.lo, box.hi

    def omega_float(self) -> float:
        """Float midpoint of the bracket (the exact value when rational)."""
        lo, hi = self.bracket
        return float((lo + hi) / 2)


def mul_big_float(big: int, x: float) -> float:
    """big * x with one exact rounding; +-inf instead of OverflowError.

    Plain int * float converts the integer first and blows up beyond
    1e308 even when the product itself is representable.
    """
    if big.bit_length() <= 1020:
        return big * x
    try:
        return float(Fraction(big) * Fraction(x))
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
    """Exact floor/ceil of exp(x)/divisor for rational x > 0.

    exp of a nonzero rational is transcendental, hence never an integer
    multiple of ``divisor``; interval evaluation at growing precision
    always settles the floor/ceil.
    """
    import mpmath

    # enough bits for the result plus the argument
    est_bits = int(float(x) / math.log(2)) + x.denominator.bit_length() + 64
    prec = max(est_bits, x.numerator.bit_length() + 64)
    for _ in range(8):
        old = mpmath.iv.prec
        try:
            mpmath.iv.prec = prec
            val = mpmath.iv.exp(
                mpmath.iv.mpf(x.numerator) / mpmath.iv.mpf(x.denominator)
            ) / mpmath.iv.mpf(divisor)
            f = mpmath.floor if mode == "floor" else mpmath.ceil
            lo = int(f(val.a))
            hi = int(f(val.b))
        finally:
            mpmath.iv.prec = old
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
    invariant lists are filled to min(depth, cap-limited length); the
    ``truncated`` flag is set whenever a cap fired.  A rule producing a
    quotient < 1 after clamping raises RuleDefect; exceeding ``bit_cap``
    truncates gracefully.
    """
    if depth < 1:
        raise ExpansionError("depth must be >= 1")
    target = min(depth, spec.depth_cap)
    hit_cap = depth > spec.depth_cap

    a_list: list = []
    p_list, q_list = [0], [1]
    p_prev, q_prev = 1, 0  # index -1
    m_list, mp_list = [1], [1]
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
        m_list.append(m_list[-1] * a)
        mp_list.append(mp_list[-1] * (a + 1))

    if not a_list:
        raise ExpansionError("expansion produced no quotients")
    return ContinuedFraction(
        spec=spec,
        quotients=tuple(a_list),
        p=tuple(p_list),
        q=tuple(q_list),
        M=tuple(m_list),
        Mprime=tuple(mp_list),
        astar=tuple(legendre_astar(a) for a in a_list),
        truncated=hit_cap,
        exact=spec.exact if len(a_list) == len(spec.head) else None,
    )


# ---------------------------------------------------------------------------
# exact comparisons against omega
# ---------------------------------------------------------------------------


def cmp_omega(cf: ContinuedFraction, target: Fraction) -> int:
    """Exact sign of omega - target (-1, 0, +1); 0 only for rational specs."""
    if cf.exact is not None:
        d = cf.exact - target
        return (d > 0) - (d < 0)
    box = cf.finest_sandwich()
    if target <= box.lo:
        return 1
    if target >= box.hi:
        return -1
    raise DepthExhausted(
        f"cannot separate omega from {target}; expand beyond depth {cf.depth}"
    )


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


def divisor_interval(cf: ContinuedFraction, q: int, p: int):
    """Exact rational enclosure (lo, hi) of the small divisor q*omega - p.

    Signed; lo <= q*omega - p <= hi with equality only for rational specs
    (or q = 0, where the value is the exact integer -p).
    """
    lo, hi = cf.bracket
    lo, hi = q * lo - p, q * hi - p
    return (lo, hi) if q > 0 else (hi, lo)


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
        f"expansion of depth {cf.depth} too shallow for box radius {box_radius};"
        " expand deeper"
    )


# ---------------------------------------------------------------------------
# nearest-integer lemma verification
# ---------------------------------------------------------------------------


def verify_nint_lemma(cf: ContinuedFraction, k_max: int):
    """Check |a q_k omega - a p_k| < 1/2 for k <= k_max, 1 <= a <= astar[k].

    Returns a list of (k, a, verdict) triples, all expected True.  When
    a_1 = 1 the frequency exceeds 1/2 and the level-0 primitive pair
    coincides with the level-1 convergent (q_0 = q_1 = 1, and the nearest
    integer to q_0*omega is p_1, not p_0); level 0 carries no separate
    multiple in that case and is skipped.
    """
    cf.require_depth(k_max + 1, f"verify_nint_lemma(k_max={k_max})")
    half = Fraction(1, 2)
    results = []
    for k in range(k_max + 1):
        if k == 0 and cf.quotients[0] == 1:
            continue
        qk, pk = cf.q[k], cf.p[k]
        for a in range(1, cf.astar[k] + 1):
            lo, hi = divisor_interval(cf, a * qk, a * pk)
            if -half < lo and hi < half:
                results.append((k, a, True))
            elif lo >= half or hi <= -half:
                results.append((k, a, False))
            else:
                raise DepthExhausted(
                    f"nint check unresolved at (k={k}, a={a}); expand deeper"
                )
    return results
