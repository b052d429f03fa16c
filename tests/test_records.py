"""rational.record against the standard library's dataclass, flag by flag."""

import dataclasses
from fractions import Fraction

import pytest

from bakerlattice.mixing import CorrelationReport
from bakerlattice.rational import FrozenRecordError, field, record, to_jsonable

FLAGS = [
    {"frozen": True, "eq": True},
    {"frozen": True, "eq": False},
    {"frozen": False, "eq": True},
    {"frozen": False, "eq": False},
]


def point_class(decorator, make_field, **flags):
    @decorator(**flags)
    class Point:
        x: int
        y: object = Fraction(1, 2)
        tags: dict = make_field(default_factory=dict)

        def __post_init__(self):
            object.__setattr__(self, "x", int(self.x))

    return Point


def pair_class(decorator, **flags):
    @decorator(**flags)
    class Pair:
        a: object
        b: object

    return Pair


CALLS = [
    ((1,), {}),
    (("7", 2), {}),
    ((1,), {"tags": {"k": 1}}),
    ((), {"x": 3, "y": Fraction(2, 3), "tags": {}}),
    ((1, 2, {"k": 1}), {}),
]


@pytest.mark.parametrize("flags", FLAGS)
def test_record_builds_what_dataclass_builds(flags):
    R = point_class(record, field, **flags)
    D = point_class(dataclasses.dataclass, dataclasses.field, **flags)
    for args, kwargs in CALLS:
        r, d = R(*args, **kwargs), D(*args, **kwargs)
        assert repr(r) == repr(d)
        assert vars(r) == vars(d)
        for other_args, other_kwargs in CALLS:
            assert (r == R(*other_args, **other_kwargs)) == (d == D(*other_args, **other_kwargs))
        assert (r == args) is False and (d == args) is False
    # each instance gets its own default dict; the class-level default is shared
    assert R(1).tags is not R(1).tags
    assert R(1).y is R(2).y
    assert R.__record_fields__ == ("x", "y", "tags")


@pytest.mark.parametrize("flags", FLAGS)
def test_record_hash_follows_the_dataclass_rules(flags):
    R, D = pair_class(record, **flags), pair_class(dataclasses.dataclass, **flags)
    assert (R.__hash__ is None) == (D.__hash__ is None)
    if flags["frozen"] and flags["eq"]:
        assert hash(R(1, Fraction(1, 3))) == hash(D(1, Fraction(1, 3))) == hash((1, Fraction(1, 3)))
    elif R.__hash__ is not None:
        r = R(1, 2)
        assert hash(r) == object.__hash__(r)


@pytest.mark.parametrize("flags", FLAGS)
def test_frozen_record_refuses_assignment(flags):
    r = point_class(record, field, **flags)(1)
    if flags["frozen"]:
        with pytest.raises(FrozenRecordError, match="cannot assign to field 'x'"):
            r.x = 2
        with pytest.raises(AttributeError):
            del r.y
        object.__setattr__(r, "x", 5)
        assert r.x == 5
    else:
        r.x = 2
        assert r.x == 2


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2, {}, 4), {}), ((1,), {"x": 2}), ((1,), {"z": 2})],
)
def test_record_refuses_the_calls_dataclass_refuses(args, kwargs):
    with pytest.raises(TypeError):
        point_class(dataclasses.dataclass, dataclasses.field)(*args, **kwargs)
    with pytest.raises(TypeError):
        point_class(record, field)(*args, **kwargs)


def test_to_jsonable_reads_the_record_fields():
    P = point_class(record, field, frozen=True)
    assert to_jsonable(P(1, Fraction(1, 3), {"k": (1, 2)})) == {"x": 1, "y": "1/3", "tags": {"k": [1, 2]}}
    assert to_jsonable(P) == str(P)


def test_correlation_reports_share_no_default_dict():
    a, b = CorrelationReport("M5", {}, 0), CorrelationReport("M5", {}, 0)
    a.gap_series[1] = 2
    assert b.gap_series == {} and a.metadata is not b.metadata and a.eps_scan is not b.eps_scan
