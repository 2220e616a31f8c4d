"""Frozen records: one base class for the package's result and input types.

A subclass of :class:`Record` lists its fields as class annotations; a
class attribute of the same name is that field's default.  The base reads
the names once, when the subclass is created, and serves every record with
the same ``__init__``, ``==``, ``hash`` and ``repr``, so no method is
generated per class.  These behave as ``@dataclass(frozen=True)`` does:

* positional arguments and ``repr`` follow the annotation order;
* ``__post_init__``, when a record defines it, runs after the fields are
  set and may validate them (``_replace`` runs it again);
* assigning or deleting an attribute raises :class:`FrozenRecordError`,
  an ``AttributeError``; ``functools.cached_property`` still works, as it
  writes the instance ``__dict__`` directly;
* ``==`` holds only between instances of the same class with equal
  fields, and ``hash`` hashes the same tuple of fields.

A record may not subclass another record.
"""

from __future__ import annotations

import operator


class FrozenRecordError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    """Base of the frozen records; see the module docstring."""

    _fields: tuple = ()  # every field, in annotation order
    _defaults: dict = {}
    _key = staticmethod(lambda state: ())  # instance __dict__ -> field values

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for base in cls.__mro__[1:]:
            if base is not Record and issubclass(base, Record):
                raise TypeError(
                    f"record {cls.__name__} subclasses record {base.__name__}; "
                    "a record takes fields only from its own annotations"
                )
        fields = tuple(cls.__dict__.get("__annotations__", {}))
        defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        for before, name in zip(fields, fields[1:]):
            if before in defaults and name not in defaults:
                raise TypeError(
                    f"{cls.__name__}: field {name!r} without a default follows one with a default"
                )
        cls._fields = fields
        cls._defaults = defaults
        if len(fields) > 1:
            cls._key = staticmethod(operator.itemgetter(*fields))
        else:  # itemgetter of one name gives the value, not a 1-tuple
            cls._key = staticmethod(lambda state: tuple([state[name] for name in fields]))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, {len(args)} given")
        state = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in cls._defaults:
                state[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        self.__dict__.update(state)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; the base accepts any values."""

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self.__dict__) == other._key(other.__dict__)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self.__dict__))

    def __repr__(self) -> str:
        state = self.__dict__
        shown = ", ".join([f"{name}={state[name]!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def _asdict(self) -> dict:
        """The fields as a dict in field order.

        Records inside, also within lists, tuples and dicts, become dicts
        too, as the standard library's ``asdict`` gives them; those
        containers are rebuilt, other values are not copied.
        """
        state = self.__dict__
        return {name: _unpack(state[name]) for name in self._fields}

    def _replace(self, **changes):
        """A new record with ``changes`` applied; ``__post_init__`` runs again."""
        state = self.__dict__
        return type(self)(**{**{name: state[name] for name in self._fields}, **changes})


def _unpack(value):
    if isinstance(value, Record):
        return value._asdict()
    if type(value) in (list, tuple):
        return type(value)(map(_unpack, value))
    if type(value) is dict:
        return {_unpack(key): _unpack(item) for key, item in value.items()}
    return value
