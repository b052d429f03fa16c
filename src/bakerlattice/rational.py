"""Exact-number helpers shared across the package.

Rational values travel through the public interfaces as strings of the form
"num/den" (or "num" for integers); these helpers centralize parsing,
formatting, rounding conventions, JSON preparation and the artifact writers.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from fractions import Fraction
from math import floor
from numbers import Rational
from pathlib import Path


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
    """Recursively convert Fractions, tuples, and dataclasses for json.dumps."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, (int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
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
