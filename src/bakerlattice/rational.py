"""Exact-number helpers shared across the package.

Rational values travel through the public interfaces as strings of the form
"num/den" (or "num" for integers); these helpers centralize parsing,
formatting, rounding conventions, JSON preparation and the artifact writers.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from math import floor
from numbers import Rational
from operator import attrgetter
from pathlib import Path


class ConfigError(ValueError):
    """An input the program refuses; the command line exits 2 with one JSON
    line naming it."""


def check_keys(cfg, path: str, known, *forms) -> None:
    """Refuse ``cfg``, the config object at ``path`` ("" at the top), unless it
    is a JSON object whose keys lie in ``known`` or in one of ``forms``, key
    sets that each give one input another way, with at most one form used.
    The ConfigError starts with the key's path, and for an unknown key lists
    the known ones and names the closest if difflib finds one close."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object")
    keys = set(known).union(*forms)
    where = (path + ".") if path else ""
    for key in cfg:
        if key not in keys:
            import difflib  # only a refusal pays for the import

            near = difflib.get_close_matches(str(key), sorted(keys), n=1)
            hint = f", did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"{where}{key}: unknown key{hint} (known keys: {', '.join(sorted(keys))})")
    given = [next(k for k in cfg if k in form) for form in forms if not form.isdisjoint(cfg)]
    if len(given) > 1:
        raise ConfigError(f"{where}{given[1]}: conflicts with {given[0]!r}, give one or the other")


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class field:
    """A record field's default, made by ``default_factory()`` for each instance."""

    __slots__ = ("default_factory",)

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(*, frozen=False, eq=True):
    """Class decorator: a record of the class's own annotated fields, in order.

    It builds what the standard library's dataclass decorator builds for the
    same ``frozen`` and ``eq`` arguments: an ``__init__`` taking the fields
    positionally or by keyword, with class-level values and ``field``s as
    defaults, that ends in ``__post_init__`` if the class has one; the repr
    ``QualName(field=value, ...)``; under ``eq`` a field-wise ``__eq__``,
    and a field-wise hash if also ``frozen``.  A frozen record refuses
    assignment with ``FrozenRecordError``; ``object.__setattr__`` still
    works.  Instances keep their ``__dict__``.  The methods are closures,
    not generated source, so defining a record runs no ``exec``, and no
    command pays for importing that module and the ``inspect`` it loads,
    which were most of the package's own start-up.  ``to_jsonable`` reads
    ``__record_fields__``.
    """

    def decorate(cls):
        names = tuple(cls.__annotations__)  # its own only, from Python 3.10 on
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        n = len(names)
        post_init = hasattr(cls, "__post_init__")

        def bind(args, kwargs):
            """The fields after ``args``, from ``kwargs`` or their defaults, in order."""
            out = {}
            for name in names[len(args):]:
                if name in kwargs:
                    out[name] = kwargs.pop(name)
                elif name in defaults:
                    default = defaults[name]
                    out[name] = default.default_factory() if isinstance(default, field) else default
                else:
                    raise TypeError(f"{cls.__qualname__}() missing required argument: {name!r}")
            if len(args) > n or kwargs:
                raise TypeError(f"{cls.__qualname__}() takes the fields {names}, got {args!r} and {kwargs!r}")
            return out

        def __init__(self, *args, **kwargs):
            d = self.__dict__
            d.update(zip(names, args))
            if kwargs or len(args) != n:
                d.update(bind(args, kwargs))
            if post_init:
                self.__post_init__()

        if n == 1:  # a 1-tuple, so that hash and repr read as for more fields
            one = attrgetter(names[0])

            def values(self):
                return (one(self),)
        else:
            values = attrgetter(*names)

        def __repr__(self):
            shown = ", ".join(map("{}={!r}".format, names, values(self)))
            return f"{self.__class__.__qualname__}({shown})"

        cls.__init__ = __init__
        cls.__repr__ = __repr__
        if eq:
            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return values(self) == values(other)
                return NotImplemented

            def __hash__(self):
                return hash(values(self))

            cls.__eq__ = __eq__
            cls.__hash__ = __hash__ if frozen else None
        if frozen:
            def __setattr__(self, name, value):
                raise FrozenRecordError(f"cannot assign to field {name!r}")

            def __delattr__(self, name):
                raise FrozenRecordError(f"cannot delete field {name!r}")

            cls.__setattr__ = __setattr__
            cls.__delattr__ = __delattr__
        cls.__record_fields__ = names
        return cls

    return decorate


def parse_rational(value) -> Fraction:
    """Parse "num/den", "num", an int, or a decimal string into a Fraction.

    Floats are accepted for convenience and go through their shortest decimal
    representation, so 0.1 parses as 1/10 rather than the binary expansion.
    A zero denominator raises ValueError, as a malformed string does.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def parse_integer(value) -> int:
    """Parse an integer field: an int, an integral float, or a string such as "2".

    A non-integral number raises ValueError instead of being truncated.
    """
    q = parse_rational(value)
    if q.denominator != 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return q.numerator


def parse_integers(value) -> tuple[int, ...]:
    """Parse a list or tuple of integer fields; a string is not read digit by digit."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return tuple(parse_integer(c) for c in value)


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def nearest_integer(q) -> int:
    """Nearest integer to q, with exact half-integer ties resolved toward 0."""
    q = Fraction(q)
    if q < 0:
        return -nearest_integer(-q)
    base = floor(q)
    return base + 1 if q - base > Fraction(1, 2) else base


def to_jsonable(obj):
    """Recursively convert Fractions, tuples, and records for json.dumps."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, (int, float, str)):
        return obj
    names = getattr(obj, "__record_fields__", None)
    if names is not None and not isinstance(obj, type):
        return {name: to_jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, dict):
        return {_json_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (int, Fraction)):
        return format_rational(Fraction(key))
    if isinstance(key, tuple):
        return ",".join(_json_key(k) for k in key)
    return str(key)


def write_json(path, payload):
    """Sorted, indented JSON of ``to_jsonable(payload)`` with a final newline."""
    Path(path).write_text(json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n")


def write_csv(path, metadata: dict, columns, rows):
    """CSV artifact: one ``# key=value ...`` line of the scalar metadata, then columns and rows."""
    scalars = "".join(f" {k}={v}" for k, v in metadata.items() if isinstance(v, (str, int, float)))
    with open(path, "w", newline="") as fh:
        fh.write(f"#{scalars}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
