"""The frozen-record base against frozen dataclasses built from the same fields."""

import dataclasses

import numpy as np
import pytest

from smalldivlab import bounds, classify, cohom, contfrac, smalldiv
from smalldivlab._record import FrozenRecordError, Record
from smalldivlab.contfrac import ExpansionError, FrequencySpec, expand, parse_frequency

MODULES = (contfrac, classify, bounds, cohom, smalldiv)


def _record_classes() -> list:
    return [
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == module.__name__
    ]


def _instances(golden) -> list:
    """At least one instance of every record class, each from a real call."""
    rule = expand(parse_frequency("rule:exp-liouville(c=0.5,a1=1)"), 12)
    params = classify.kl_params(0.1, 0.5, 2)
    dioph = bounds.DiophGrowth(C=0.3, tau=1.0)
    modes = cohom.ModeMap({(1, 1): 0.5 + 0.25j, (-1, -1): 0.5 - 0.25j, (2, -1): 0.1})
    example = cohom.counterexample_modes(golden, 1.0, 0.1, 4)
    sums = smalldiv.partition_sums(golden, 0.2, 12)
    table = smalldiv.brjuno_pairs_up_to(golden, 12)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smalldiv, "_BLOCK_CELLS", 20)  # one row per block
        blocks = list(smalldiv._half_box(golden, 0.2, 6))
    return [
        golden.spec,
        rule.spec,
        FrequencySpec.rational(3, 7),
        golden,
        rule,
        classify.khintchine_constants(),
        params,
        classify.diophantine_constant(golden, 1.0, 20),
        classify.brjuno_partial_sum(golden, 10),
        classify.kl_membership(golden, params, 20),
        classify.kl_membership(rule, params, rule.depth),
        dioph,
        bounds.KLGrowth(beta_prime=params.beta_prime),
        bounds.brj1(golden, 0.3, 10, dioph),
        bounds.brj2(golden, 0.3, 10),
        smalldiv.verify_legendre(golden, 50),
        bounds.gamma_delta(golden, 1.0, 0.1),
        bounds.dioph_bound_rhs(0.3, 2.0, 0.1),
        bounds.dioph_bound_rhs(0.3, 1.0, 0.1),
        bounds.kl_bound_rhs(params, 0.1),
        modes,
        cohom.solve_modes(modes, golden),
        cohom.strip_norm(modes, 0.5, 16),
        example.alpha,
        example,
        *cohom.blowup_witness(golden, 1.0, 0.05, 0.1, 2),
        smalldiv.classify_index(1, 0, golden, table),
        smalldiv.classify_index(-2, -1, golden, table),
        smalldiv.classify_index(5, 1, golden, table),
        sums,
        table,
        *blocks,
    ]


def _twin_class(cls, cache: dict):
    """The frozen dataclass the record class stood for: same name, fields
    and defaults."""
    if cls not in cache:
        spec = []
        for name in cls._fields:
            if name in cls._defaults:
                spec.append((name, object, dataclasses.field(default=cls._defaults[name])))
            else:
                spec.append((name, object))
        cache[cls] = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    return cache[cls]


def _twin(value, cache: dict):
    """``value`` with every record in it replaced by its dataclass twin."""
    if isinstance(value, Record):
        fields = {name: _twin(getattr(value, name), cache) for name in value._fields}
        return _twin_class(type(value), cache)(**fields)
    if type(value) in (list, tuple):
        return type(value)(_twin(item, cache) for item in value)
    if type(value) is dict:
        return {_twin(key, cache): _twin(item, cache) for key, item in value.items()}
    return value


def _outcome(fn):
    try:
        return "value", fn()
    except (TypeError, ValueError) as exc:  # unhashable fields, ambiguous arrays
        return "raises", type(exc)


def _same_data(got, want) -> bool:
    """Equal plain data, with dict keys in the same order."""
    if isinstance(want, dict):
        return (
            type(got) is dict
            and list(got) == list(want)
            and all(_same_data(got[key], want[key]) for key in want)
        )
    if isinstance(want, (list, tuple)):
        return (
            type(got) is type(want)
            and len(got) == len(want)
            and all(_same_data(a, b) for a, b in zip(got, want))
        )
    if isinstance(want, np.ndarray):
        return np.array_equal(got, want)
    return got is want or got == want


def test_every_record_class_is_covered(golden):
    classes = _record_classes()
    assert len(classes) == 24
    assert {type(r) for r in _instances(golden)} == set(classes)


def test_records_behave_as_frozen_dataclasses(golden):
    cache = {}
    records = _instances(golden)
    twins = [_twin(r, cache) for r in records]
    for record, twin in zip(records, twins):
        assert type(twin).__name__ == type(record).__name__
        assert [f.name for f in dataclasses.fields(twin)] == list(record._fields)
        assert repr(record) == repr(twin)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))
        assert record != twin and twin != record
        assert _same_data(record._asdict(), dataclasses.asdict(twin)), type(record)
    for i, (a, ta) in enumerate(zip(records, twins)):
        for b, tb in zip(records[i:], twins[i:]):
            assert _outcome(lambda: a == b) == _outcome(lambda: ta == tb), (a, b)
            assert _outcome(lambda: a != b) == _outcome(lambda: ta != tb), (a, b)
        copy = a._replace()
        assert copy is not a and _outcome(lambda: copy == a) == _outcome(lambda: ta == ta)


def test_records_are_frozen(golden):
    for record in _instances(golden):
        name = record._fields[0]
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(FrozenRecordError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert getattr(record, name) is value
    # a cached property writes the instance dict, not through __setattr__
    cf = expand(FrequencySpec.golden(), 10)
    assert "bracket" not in vars(cf)
    assert cf.bracket == cf.sandwich(cf.depth - 1)
    assert cf.bracket is cf.bracket


def test_replace_validates_again():
    spec = FrequencySpec.golden()
    assert spec._replace(head=(2,)) == FrequencySpec.periodic((2,), (1,))
    with pytest.raises(ExpansionError, match="partial quotients must be integers >= 1"):
        spec._replace(head=(0,))
    with pytest.raises(ValueError, match="no \\(0, 0\\) mode"):
        cohom.ModeMap({(1, 0): 1.0})._replace(entries={(0, 0): 1.0})
    with pytest.raises(TypeError):
        spec._replace(not_a_field=1)


def test_constructor_arguments():
    cls = smalldiv.IndexClass
    assert cls("away", 3) == cls(kind="away", strip=3) == cls("away", strip=3, k=None)
    plain = {"kind": "const_type", "strip": None, "k": None, "a": None}
    assert cls("const_type")._asdict() == plain
    for args, kwargs in [
        ((), {}),  # missing kind
        (("away", 1, 2, 3, 4), {}),  # too many
        (("away",), {"kind": "away"}),  # given twice
        ((), {"kind": "away", "bogus": 1}),  # unknown name
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_class_definition_errors():
    class Point(Record):
        x: int
        y: int = 0

    assert repr(Point(1)).endswith(".Point(x=1, y=0)")  # the qualified name
    with pytest.raises(TypeError, match="subclasses record"):

        class Point3(Point):
            z: int = 0

    with pytest.raises(TypeError, match="without a default"):

        class Bad(Record):
            x: int = 0
            y: int
