"""Tail-modeled observables: box averages, infinite-volume averages,
cell reduction, and site evolution."""

import itertools
import random
import re
import sys
import threading
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakerlattice import (
    Box,
    BoxFamily,
    CellObservable,
    LatticeSignal,
    WalkDistribution,
    box_average,
    box_average_product,
    box_signal,
    constant_observable,
    convolution_power,
    convolve,
    estimate_average,
    evolve_site,
    localized_observable,
    observable_from_config,
    observable_to_config,
    orthant_observable,
    periodic_observable,
    preset,
    product_average,
    reduce_to_site,
    sign_observable,
)
from bakerlattice import observables
from conftest import random_localized, random_periodic, random_site_observable, random_walk

TI = BoxFamily.translation_invariant
CENTERED = BoxFamily.centered_only


@pytest.fixture
def parity():
    return periodic_observable((2,), {(0,): 1, (1,): -1})


def brute_box_average(f, box):
    return sum(f.value(s) for s in box.sites()) / Fraction(box.size)


# ---------------------------------------------------------------------------
# box averages


def test_box_average_constant():
    f = constant_observable(2, Fraction(7, 2))
    assert box_average(f, Box.centered((3, -5), 4)) == Fraction(7, 2)


@pytest.mark.parametrize("r", range(1, 8))
def test_box_average_alternating(parity, r):
    # odd-length alternating sum: the leftover term has the sign of (-1)^r
    assert box_average(parity, Box.centered((0,), r)) == Fraction((-1) ** r, 2 * r + 1)


def test_box_average_period_two_approaches_mean():
    f = periodic_observable((2,), {(0,): 3, (1,): 5})
    for r in (10, 50, 200):
        avg = box_average(f, Box.centered((1,), r))
        assert abs(avg - 4) <= Fraction(1, 2 * r + 1)


def test_box_average_matches_brute_force_fast_paths():
    rng = random.Random(5)
    sign = sign_observable()
    for r in (3, 9):
        for center in ((0,), (4,), (-7,)):
            box = Box.centered(center, r)
            assert box_average(sign, box) == brute_box_average(sign, box)
    for _ in range(10):
        f = random_site_observable(rng, 1)
        g = random_site_observable(rng, 1)
        box = Box.centered((rng.randint(-3, 3),), rng.randint(1, 6))
        assert box_average_product(f, g, box) == sum(
            f.value(s) * g.value(s) for s in box.sites()
        ) / Fraction(box.size)


def test_periodic_product_box_sum_matches_brute_force():
    rng = random.Random(6)
    for dim in (1, 2):
        for _ in range(8):
            f = random_periodic(rng, dim)
            g = random_periodic(rng, dim)
            box = Box.centered(
                tuple(rng.randint(-4, 4) for _ in range(dim)), rng.randint(1, 5)
            )
            brute = sum(f.value(s) * g.value(s) for s in box.sites()) / Fraction(box.size)
            assert box_average_product(f, g, box) == brute


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 20))
def test_box_average_equals_kernel_convolution(seed, r):
    """Box averaging is convolution with the uniform box kernel, exactly."""
    rng = random.Random(seed)
    f = random_periodic(rng, 1)
    gamma = (rng.randint(-5, 5),)
    box = Box.centered(gamma, r)
    window = LatticeSignal.from_entries(1, {s: f.value(s) for s in box.sites()})
    conv = convolve(window, box_signal(1, r))
    assert conv[gamma] == box_average(f, box)


def test_periodic_box_average_uniform_rate():
    rng = random.Random(71)
    f = random_periodic(rng, 1, max_period=3)
    L = f.tail.backgrounds[(1,)].period[0]
    mean = f.analytic_average(TI(1))
    bound = f.sup_deviation(0)
    for _ in range(100):
        gamma = (rng.randint(-1000, 1000),)
        r = rng.randint(2, 40)
        avg = box_average(f, Box.centered(gamma, r))
        assert abs(avg - mean) <= Fraction(2 * 1 * (L - 1), 2 * r + 1) * bound + 0


# ---------------------------------------------------------------------------
# infinite-volume averages


def test_estimate_constant_outside_box():
    f = localized_observable(1, 2, Box.centered((0,), 2), {(0,): Fraction(9)})
    small = estimate_average(f, TI(1), [8])
    large = estimate_average(f, TI(1), [8, 64])
    assert small.value == 2 and large.value == 2
    assert large.uniformity_defect < small.uniformity_defect
    assert large.uniformity_defect == Fraction(7, 129)


def test_estimate_sign_centered_is_zero():
    est = estimate_average(sign_observable(), CENTERED(1), [4, 16, 64])
    assert est.value == 0
    assert est.uniformity_defect == Fraction(1, 129)


def test_estimate_sign_translation_invariant_diverges():
    est = estimate_average(sign_observable(), TI(1), [4, 16])
    assert est.value is None
    assert est.uniformity_defect == 2  # boxes far right average to +1, far left to -1


def test_orthant_average_analytic_cases():
    f = orthant_observable(
        1, {(1,): 3, (-1,): 3}, Box.centered((0,), 1), {(0,): Fraction(1)}
    )
    assert f.analytic_average(TI(1)) == 3  # equal constants converge either way
    assert sign_observable().analytic_average(CENTERED(1)) == 0
    assert sign_observable().analytic_average(TI(1)) is None


# ---------------------------------------------------------------------------
# cell observables and reduction


def test_reduce_strip_cell_single_site(third):
    # indicator of {0} x [0,1) x [q_{k-1}, q_k): one backward digit k
    k = 2
    values = {((0,), (k, a)): Fraction(1) for a in (1, 2, 3)}
    F = CellObservable(1, 1, values)
    reduced = reduce_to_site(F, third)
    table = reduced.tail.table.entries
    assert table == {(0,): Fraction(1, 3)}  # site 0 - beta^(2) = 0, value p_k


def test_reduce_expanding_cell_spreads_over_steps(third):
    # indicator of {0} x [q_{k-1}, q_k) x [0,1): one forward digit k
    k = 3
    values = {((0,), (b, k)): Fraction(1) for b in (1, 2, 3)}
    F = CellObservable(1, 1, values)
    table = reduce_to_site(F, third).tail.table.entries
    assert table == {
        (1,): Fraction(1, 9),  # via backward digit 1 (step -1)
        (0,): Fraction(1, 9),
        (-1,): Fraction(1, 9),
    }


def test_reduce_site_only_depth_zero_is_identity(third):
    F = CellObservable(1, 0, {((2,), ()): Fraction(5, 7)})
    reduced = reduce_to_site(F, third)
    assert reduced.value((2,)) == Fraction(5, 7)
    assert reduced.value((0,)) == 0


def test_reduce_constant_is_constant(third):
    F = CellObservable(1, 1, {}, default=Fraction(4, 3))
    reduced = reduce_to_site(F, third)
    for site in ((-2,), (0,), (9,)):
        assert reduced.value(site) == Fraction(4, 3)


def test_reduce_is_linear_and_bound_preserving(third):
    rng = random.Random(9)
    for _ in range(10):
        vals_a, vals_b = {}, {}
        for _ in range(6):
            key = (
                (rng.randint(-2, 2),),
                (rng.randint(1, 3), rng.randint(1, 3)),
            )
            vals_a[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            vals_b[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        A = CellObservable(1, 1, vals_a)
        B = CellObservable(1, 1, vals_b)
        combined = {k: vals_a.get(k, 0) + 3 * vals_b.get(k, 0) for k in {*vals_a, *vals_b}}  # A + 3B
        combo = reduce_to_site(CellObservable(1, 1, combined), third)
        ra, rb = reduce_to_site(A, third), reduce_to_site(B, third)
        for site in ((-3,), (-1,), (0,), (2,)):
            assert combo.value(site) == ra.value(site) + 3 * rb.value(site)
        assert reduce_to_site(A, third).sup_deviation(0) <= max(abs(v) for v in (A.default, *A.values.values()))


def test_reduce_deep_cell_exactly(third):
    # depth 12 reduces in one pass over its one explicit cell: the 24 digits
    # weigh 3^-24, and 12 backward steps of -1 move site 0 to site 12
    F = CellObservable(1, 12, {((0,), (1,) * 24): Fraction(1)})
    expected = localized_observable(1, 0, Box.spanning([(12,)], 1), {(12,): Fraction(1, 3**24)})
    assert reduce_to_site(F, third) == expected


def test_cell_evaluate_reads_digits(third):
    F = CellObservable(1, 1, {((0,), (2, 1)): Fraction(1)})
    from bakerlattice import PhasePoint

    # y1 in the first cell (forward digit 1), y2 in the second (backward digit 2)
    x = PhasePoint((0,), Fraction(1, 6), Fraction(1, 2))
    assert F.evaluate(x, third) == 1
    y = PhasePoint((0,), Fraction(1, 2), Fraction(1, 2))
    assert F.evaluate(y, third) == 0


# ---------------------------------------------------------------------------
# site evolution


def test_evolve_zero_steps_is_identity(third, parity):
    ev = evolve_site(parity, third, 0)
    for site in ((-2,), (0,), (5,)):
        assert ev.value(site) == parity.value(site)


@pytest.mark.parametrize("n", range(6))
def test_evolve_parity_eigenvalue(third, parity, n):
    ev = evolve_site(parity, third, n)
    for site in ((0,), (1,), (4,)):
        assert ev.value(site) == Fraction(-1, 3) ** n * parity.value(site)


def test_evolve_constant_stays_constant(third):
    ev = evolve_site(constant_observable(1, Fraction(5, 2)), third, 7)
    assert ev.analytic_average(TI(1)) == Fraction(5, 2)
    assert ev.sup_deviation(Fraction(5, 2)) == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3), st.integers(0, 3))
def test_evolve_semigroup(seed, m, n):
    rng = random.Random(seed)
    p = random_walk(rng, 1, max_support=3)
    f = random_site_observable(rng, 1)
    once = evolve_site(f, p, m + n)
    twice = evolve_site(evolve_site(f, p, m), p, n)
    for site in ((-4,), (-1,), (0,), (2,), (6,)):
        assert once.value(site) == twice.value(site)


def test_evolve_localized_brute_force_check(third):
    rng = random.Random(13)
    f = localized_observable(
        1, Fraction(1, 2), Box.centered((1,), 2), {(0,): Fraction(3), (2,): Fraction(-1)}
    )
    n = 3
    ev = evolve_site(f, third, n)
    pn = convolution_power(third, n)
    for site in ((-5,), (-2,), (0,), (3,), (8,)):
        expected = sum(w * f.value((site[0] + b[0],)) for b, w in pn.entries.items())
        assert ev.value(site) == expected
    # outside the dilated box the evolved function equals the constant
    assert ev.value((100,)) == Fraction(1, 2)


def test_orthant_constants_keyed_off_the_sign_patterns_are_refused():
    # a key 7 once became an eighth "orthant" whose constant reached bound() and the M5 gap
    box = Box((0,), (0,))
    with pytest.raises(ValueError, match=r"orthant constants key \[7\] is not a sign pattern in \{-1, 1\}\^1"):
        orthant_observable(1, {"1": "1", "-1": "-1", "7": "100"}, box, {"0": "1"})
    with pytest.raises(ValueError, match=r"orthant constants key \[0, 1\] is not a sign pattern"):
        orthant_observable(2, {"1,1": 1, "1,-1": 1, "-1,1": 1, "-1,-1": 1, "0,1": 5}, Box.centered((0, 0), 0), {})


def test_evolve_orthant_with_2d_walk_raises(lazy2d):
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    box = Box.centered((0, 0), 0)
    f = orthant_observable(2, {s: Fraction(s[0]) for s in signs}, box, {})
    with pytest.raises(ValueError, match="dimension 1"):
        evolve_site(f, lazy2d, 1)
    # equal constants are the boxed tail, which evolves in every dimension
    g = orthant_observable(2, {s: Fraction(1) for s in signs}, box, {(0, 0): Fraction(3)})
    assert evolve_site(g, lazy2d, 2) == evolve_site(localized_observable(2, 1, box, {(0, 0): 3}), lazy2d, 2)


def test_sign_evolution_runs_no_convolution(third, monkeypatch):
    # the sign function is its step background: the law's CDF alone evolves it;
    # a constant background with an empty table is its own evolution
    def refuse(*args):
        raise AssertionError("evolution convolved")

    monkeypatch.setattr(observables, "convolve", refuse)
    n = 1024
    pn = convolution_power(third, n)
    for f in (sign_observable(), localized_observable(1, Fraction(2, 3), Box((0,), (0,)), {})):
        ev = evolve_site(f, third, n)
        assert ev.tail.box == Box((-n,), (n,))
        for site in (-n - 2, -n - 1, -n, -n + 1, -700, -1, 0, 1, 333, n - 1, n, n + 1):
            assert ev.value((site,)) == direct_evolution(f, pn, (site,))


def test_evolve_sign_tail_is_exact(third):
    n = 4
    ev = evolve_site(sign_observable(), third, n)
    pn = convolution_power(third, n)
    sign = sign_observable()
    for site in range(-8, 9):
        expected = sum(w * sign.value((site + b[0],)) for b, w in pn.entries.items())
        assert ev.value((site,)) == expected


# ---------------------------------------------------------------------------
# average invariance under the dynamics


def av_invariance_check(f, p, n, family=None):
    """|Av(f evolved n steps) - Av(f)|: evolution preserves Av, so 0 for every exact tail."""
    if family is None:
        family = TI(f.dim)
    before = f.analytic_average(family)
    if before is None:
        raise ValueError("observable does not admit an analytic average for this family")
    after = evolve_site(f, p, n).analytic_average(family)
    return abs(after - before)


@pytest.mark.parametrize("n", range(11))
def test_av_invariance_periodic(third, parity, n):
    assert av_invariance_check(parity, third, n) == 0


def test_av_invariance_localized_and_constant(third):
    f = localized_observable(1, 3, Box.centered((0,), 1), {(0,): Fraction(-2)})
    assert av_invariance_check(f, third, 5) == 0
    assert av_invariance_check(constant_observable(1, 9), third, 8) == 0


# ---------------------------------------------------------------------------
# the centered-family counterexample inequality


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_sign_self_correlation_stays_near_one(third, n):
    sign = sign_observable()
    ev = evolve_site(sign, third, n)
    for r in (10, 100):
        avg = box_average_product(ev, sign, Box.centered((0,), r))
        assert avg >= 1 - Fraction(2 * n * third.max_step, 2 * r + 1)


# ---------------------------------------------------------------------------
# config round trips


def test_observable_config_round_trip():
    specs = [
        {"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}},
        {"kind": "constantOutsideBox", "constant": "2", "center": [0], "radius": 1, "table": {"0": "5/2"}},
        {"kind": "constantOutsideBox", "constant": "0", "box": {"lo": [-2], "hi": [2]}, "table": {"-2": "1"}},
        {"kind": "orthant", "constants": {"-1": "0", "1": "2"}, "box": {"lo": [1], "hi": [4]}, "table": {"4": "1"}},
        {"kind": "sign1d"},
        {
            "kind": "cell",
            "m": 1,
            "default": "0",
            "values": [{"site": [0], "back": [2], "fwd": [1], "value": "1/2"}],
        },
    ]
    for spec in specs:
        obs = observable_from_config(1, spec)
        regenerated = observable_from_config(1, observable_to_config(obs))
        if isinstance(obs, CellObservable):
            assert regenerated.values == obs.values
        else:
            for site in ((-3,), (0,), (2,)):
                assert regenerated.value(site) == obs.value(site)


def test_equal_orthant_constants_write_the_constant_outside_box_form():
    spec = {"kind": "constantOutsideBox", "constant": "1/2", "box": {"lo": [-1], "hi": [2]}, "table": {"0": "3"}}
    assert observable_to_config(observable_from_config(1, spec)) == spec
    box, table = Box((-1,), (2,)), {(0,): Fraction(3)}
    same = orthant_observable(1, {(-1,): Fraction(1, 2), (1,): Fraction(1, 2)}, box, table)
    assert observable_to_config(same) == spec
    differ = orthant_observable(1, {(-1,): Fraction(0), (1,): Fraction(1, 2)}, box, table)
    assert observable_to_config(differ) == {
        "kind": "orthant", "constants": {"-1": "0", "1": "1/2"}, "box": spec["box"], "table": spec["table"]
    }


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def boxes(draw, dim):
    """Boxes anywhere near the origin, of odd or even width per axis."""
    lo = draw(st.tuples(*[st.integers(-4, 4)] * dim))
    widths = draw(st.tuples(*[st.integers(0, 3)] * dim))
    return Box(lo, tuple(a + w for a, w in zip(lo, widths)))


@st.composite
def box_tables(draw, box, values=RATIONALS):
    sites = draw(st.lists(st.sampled_from(list(box.sites())), unique=True, max_size=box.size))
    return {s: draw(values) for s in sites}


@st.composite
def periodic_observables(draw, dim, values=RATIONALS, max_period=3):
    period = draw(st.tuples(*[st.integers(1, max_period)] * dim))
    cell = Box((0,) * dim, tuple(l - 1 for l in period)).sites()
    return periodic_observable(period, {r: draw(values) for r in cell})


@st.composite
def boxed_observables(draw, dim, values=RATIONALS):
    box = draw(boxes(dim))
    return localized_observable(dim, draw(values), box, draw(box_tables(box, values)))


@st.composite
def orthant_observables(draw, dim, values=RATIONALS):
    box = draw(boxes(dim))
    signs = Box((-1,) * dim, (1,) * dim).sites()
    constants = {s: draw(values) for s in signs if 0 not in s}
    return orthant_observable(dim, constants, box, draw(box_tables(box, values)))


@st.composite
def cell_observables(draw, dim, depth=1, digits=3):
    word = st.tuples(*[st.integers(1, digits)] * (2 * depth))
    site = st.tuples(*[st.integers(-2, 2)] * dim)
    values = draw(st.dictionaries(st.tuples(site, word), RATIONALS, max_size=6))
    return CellObservable(dim, depth, values, draw(RATIONALS))


@st.composite
def reduced_third_walk_observables(draw):
    return reduce_to_site(draw(cell_observables(1)), preset("third-walk"))


def config_observables(dim):
    kinds = [
        periodic_observables(dim),
        boxed_observables(dim),
        orthant_observables(dim),
        cell_observables(dim),
    ]
    if dim == 1:
        kinds += [st.just(sign_observable()), reduced_third_walk_observables(), evolved_signs()]
    return st.one_of(*kinds, evolved_observables(dim))


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_observable_config_round_trips_every_kind(dim, data):
    obs = data.draw(config_observables(dim))
    assert observable_from_config(dim, observable_to_config(obs)) == obs


def test_observable_config_rejects_box_of_wrong_dimension():
    with pytest.raises(ValueError, match="dimension"):
        observable_from_config(2, {"kind": "constantOutsideBox", "constant": "0", "center": [0], "table": {"0,5": "1"}})


def test_observable_config_rejects_period_of_wrong_dimension():
    with pytest.raises(ValueError, match="dimension 1, the walk has dimension 2"):
        observable_from_config(2, {"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}})


def test_periodic_table_key_of_wrong_dimension_is_rejected():
    with pytest.raises(ValueError, match="dimension 2, the period has dimension 1"):
        periodic_observable([2], {(0, 5): 1, (1, 7): -1})
    with pytest.raises(ValueError, match="dimension 1, the period has dimension 2"):
        periodic_observable([2, 2], {0: 1, 1: -1})


def test_table_keys_read_as_tuples_strings_or_ints_and_name_a_site_once():
    as_tuples = periodic_observable([2], {(0,): 1, (1,): -1})
    assert periodic_observable([2], {"0": 1, 1: -1}) == as_tuples
    assert periodic_observable(["2"], {"2": "1", "-1": "-1"}) == as_tuples
    box = Box((0, 0), (1, 1))
    assert localized_observable(2, 0, box, {"1,0": 2, (0, 1): 3}) == localized_observable(2, 0, box, {(1, 0): 2, (0, 1): 3})
    with pytest.raises(ValueError, match=re.escape("table: site [0] is named twice")):
        periodic_observable([3], {0: 1, (0,): 2, 1: 0, 2: 0})
    with pytest.raises(ValueError, match=re.escape("orthant constants: site [-1] is named twice")):
        orthant_observable(1, {(1,): 1, (-1,): 0, "-1": 2}, Box((0,), (0,)), {})


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize(
    "cfg, field, message",
    [
        ({"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1", "2": "5"}}, "table",
         "table: residue [0] of period [2] is named twice"),
        ({"kind": "periodic", "period": [2], "table": {"1": "1", "0": "-1", "+1": "5"}}, "table",
         "table: site [1] is named twice"),
        ({"kind": "constantOutsideBox", "constant": "0", "radius": 1, "table": {"1": "2", "1.0": "3"}}, "table",
         "constantOutsideBox table: site [1] is named twice"),
        ({"kind": "orthant", "constants": {"1": "1", "-1": "-1", "+1": "2"}, "radius": 1}, "constants",
         "orthant constants: site [1] is named twice"),
        ({"kind": "orthant", "constants": {"1": "1", "-1": "-1"}, "radius": 1, "table": {"0": "1", "-0": "2"}}, "table",
         "orthant table: site [0] is named twice"),
    ],
)
def test_a_table_naming_one_site_twice_is_rejected(cfg, field, message, reverse):
    # each once kept whichever value came last, so the answer hung on key order
    if reverse:
        cfg = {**cfg, field: dict(reversed(cfg[field].items()))}
    with pytest.raises(ValueError, match=re.escape(message)):
        observable_from_config(1, cfg)


@pytest.mark.parametrize(
    "cfg, name",
    [
        ({"kind": "orthant", "constants": {"1": "1", "-1": "-1", "0,1": "2"}}, "orthant constants"),
        ({"kind": "orthant", "constants": {"1": "1", "-1": "-1"}, "radius": 1, "table": {"0,1": "2"}}, "orthant table"),
        ({"kind": "cell", "m": 1, "values": [{"site": [], "back": [1], "fwd": [1], "value": "1"}]}, "cell site"),
    ],
)
def test_observable_config_rejects_sites_of_wrong_dimension(cfg, name):
    with pytest.raises(ValueError, match=f"{name} .* has dimension ., the walk has dimension 1"):
        observable_from_config(1, cfg)


def test_observable_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        observable_from_config(1, {"kind": "mystery"})


def test_box_basics():
    box = Box.centered((1, -1), 2)
    assert box.size == 25
    assert box.contains((3, 1)) and not box.contains((4, 0))
    assert box.dilate(1).size == 49
    with pytest.raises(ValueError):
        Box((1,), (0,))


# ---------------------------------------------------------------------------
# site evolution against the direct sum


@st.composite
def walks(draw, dim, reach):
    """Walks with up to four steps of length at most reach, drifted or not."""
    step = st.tuples(*[st.integers(-reach, reach)] * dim)
    sites = draw(st.lists(step, min_size=2, max_size=4, unique=True))
    raw = [draw(st.integers(1, 9)) for _ in sites]
    return WalkDistribution.from_weights(dim, {s: Fraction(w, sum(raw)) for s, w in zip(sites, raw)})


def hull(a: Box, b: Box) -> Box:
    """The least box containing both."""
    return Box(tuple(map(min, a.lo, b.lo)), tuple(map(max, a.hi, b.hi)))


def direct_evolution(f, pn, site):
    """sum_beta p^(n)_beta f(site + beta), one term per step of the law."""
    return sum(
        (w * f.value(tuple(a + b for a, b in zip(site, beta))) for beta, w in pn.entries.items()),
        Fraction(0),
    )


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_evolve_site_matches_direct_sum(dim, data):
    n = data.draw(st.integers(0, 6))
    p = data.draw(walks(dim, 2 if dim == 1 or n <= 3 else 1))
    kinds = [periodic_observables(dim), boxed_observables(dim)]
    if dim == 1:
        kinds.append(orthant_observables(1))
    f = data.draw(st.one_of(*kinds))
    ev = evolve_site(f, p, n)
    reach = n * p.max_step
    if f.tail.box is None:
        period = f.tail.backgrounds[(1,) * dim].period
        assert ev.tail.backgrounds[(1,) * dim].period == period
        window = Box((0,) * dim, tuple(l - 1 for l in period)).dilate(reach)
    else:
        box = f.tail.box
        if not f.tail.uniform:  # widened to the cut at 0
            box = Box((min(box.lo[0], 0),), (max(box.hi[0], -1),))
        assert ev.tail.box == box.dilate(reach)
        window = hull(box, Box.centered((0,) * dim, 0)).dilate(reach)
    pn = convolution_power(p, n)
    for site in window.dilate(2).sites():
        assert ev.value(site) == direct_evolution(f, pn, site)


# ---------------------------------------------------------------------------
# closed-form box sums against the direct site sum


@st.composite
def orthant_straddling_boxes(draw, dim):
    """Per axis: left of 0, right of 0 (0 included) or straddling 0."""
    lo, hi = [], []
    for _ in range(dim):
        side = draw(st.sampled_from(("neg", "pos", "straddle")))
        if side == "neg":
            b = draw(st.integers(-9, -1))
            a = draw(st.integers(b - 8, b))
        elif side == "pos":
            a = draw(st.integers(0, 9))
            b = draw(st.integers(a, a + 8))
        else:
            a, b = draw(st.integers(-9, -1)), draw(st.integers(0, 9))
        lo.append(a)
        hi.append(b)
    return Box(tuple(lo), tuple(hi))


@st.composite
def evolved_observables(draw, dim):
    kinds = [periodic_observables(dim), boxed_observables(dim)]
    if dim == 1:
        kinds.append(orthant_observables(1))
    f = draw(st.one_of(*kinds))
    return evolve_site(f, draw(walks(dim, 1)), draw(st.integers(0, 3)))


@st.composite
def evolved_signs(draw):
    return evolve_site(sign_observable(), draw(walks(1, 1)), draw(st.integers(0, 3)))


def summable_observables(dim):
    kinds = [
        periodic_observables(dim),
        boxed_observables(dim),
        orthant_observables(dim),
        evolved_observables(dim),
    ]
    if dim == 1:
        kinds.append(st.just(sign_observable()))
    return st.one_of(*kinds)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_box_sums_match_direct_site_sum(dim, data):
    f = data.draw(summable_observables(dim))
    g = data.draw(summable_observables(dim))
    box = data.draw(orthant_straddling_boxes(dim))
    assert box_average(f, box) == brute_box_average(f, box)
    assert box_average_product(f, g, box) == sum(
        f.value(s) * g.value(s) for s in box.sites()
    ) / Fraction(box.size)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_centred_box_sums_asked_in_any_order_match_direct_site_sum(dim, data):
    """A centred box takes a product's deviation corrections summed by radius,
    computed once for the last tails asked: singles and pairs asked in a
    random order, at random radii, must each still give the site sum."""
    obs = data.draw(st.lists(summable_observables(dim), min_size=2, max_size=3))
    radii = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    values = [{s: f.value(s) for s in Box.centered((0,) * dim, max(radii)).sites()} for f in obs]
    queries = [(i, j, r) for i in range(len(obs)) for j in (None, *range(len(obs))) for r in radii]
    for i, j, r in data.draw(st.permutations(queries)):
        box = Box.centered((0,) * dim, r)
        if j is None:
            got, want = box_average(obs[i], box), sum(values[i][s] for s in box.sites())
        else:
            got, want = box_average_product(obs[i], obs[j], box), sum(values[i][s] * values[j][s] for s in box.sites())
        assert got == want / Fraction(box.size)


def test_centred_box_sums_from_concurrent_threads_match_one_thread():
    """Threads asking for the box sums of different pairs share the memo of
    the last pair's corrections: each sum must still be its own pair's."""
    rng = random.Random(17)
    pairs = [(random_localized(rng, 2), random_site_observable(rng, 2)) for _ in range(6)]
    boxes = [Box.centered((0, 0), r) for r in range(7)]
    expected = [[box_average_product(f, g, box) for box in boxes] for f, g in pairs]
    wrong = []

    def ask(seed):
        draw = random.Random(seed)
        for _ in range(10000):
            i, r = draw.randrange(len(pairs)), draw.randrange(len(boxes))
            if box_average_product(*pairs[i], boxes[r]) != expected[i][r]:
                wrong.append((i, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def tail_values(t):
    """The values the tail takes: each background's over its cell (every
    orthant holds every residue beyond the box) and the values at the table's sites."""
    cells = [bg.value(r) for bg in t.backgrounds.values() for r in itertools.product(*map(range, bg.period))]
    return cells + [t.value(s) for s in t.table.nums]


def far_cell_means(observables, dim):
    """Direct mean of the product over one joint period cell in each orthant,
    placed beyond every deviation site."""
    tails = [o.tail for o in observables]
    period = [lcm(*(bg.period[i] for t in tails for bg in t.backgrounds.values())) for i in range(dim)]
    far = 1 + max((abs(c) for t in tails if t.box is not None for c in t.box.lo + t.box.hi), default=0)
    means = []
    for signs in itertools.product((-1, 1), repeat=dim):
        cell = Box(
            tuple(far if s > 0 else -far - l + 1 for s, l in zip(signs, period)),
            tuple(far + l - 1 if s > 0 else -far for s, l in zip(signs, period)),
        )
        means.append(sum(prod(o.value(site) for o in observables) for site in cell.sites()) / Fraction(cell.size))
    return means


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_product_average_matches_far_cell_sums(dim, data):
    observables = data.draw(st.lists(summable_observables(dim), min_size=1, max_size=2))
    means = far_cell_means(observables, dim)
    ti, centered = product_average(observables, TI(dim)), product_average(observables, CENTERED(dim))
    if len(set(means)) == 1:
        assert ti == centered == means[0]
    else:
        assert ti is None
        assert centered == sum(means) / Fraction(len(means))
    if len(observables) == 1:
        assert observables[0].analytic_average(TI(dim)) == ti


def window_box_sums(f, r, window):
    """Radius-r box sum of f centered at every site of the window, from prefix
    sums of the site values scaled to integers."""
    values = {x: Fraction(f.value(x)) for x in window.dilate(r).sites()}
    den = lcm(*(v.denominator for v in values.values()))
    subsets = [S for k in range(f.dim + 1) for S in itertools.combinations(range(f.dim), k)]
    prefix = {}
    for x, v in values.items():  # lexicographic: each x - e_S comes before x
        below = ((-1) ** (len(S) + 1) * prefix.get(tuple(c - (i in S) for i, c in enumerate(x)), 0) for S in subsets[1:])
        prefix[x] = int(v * den) + sum(below)
    return {
        center: Fraction(
            sum(
                (-1) ** len(S) * prefix.get(tuple(c - r - 1 if i in S else c + r for i, c in enumerate(center)), 0)
                for S in subsets
            ),
            den,
        )
        for center in window.sites()
    }


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_uniformity_defect_is_the_sup_over_every_center(dim, data):
    f = data.draw(st.one_of(summable_observables(dim), periodic_observables(dim, max_period=5)))
    r = data.draw(st.integers(0, 6 if dim == 1 else 3))
    span = Box.centered((0,) * dim, 0)
    if f.tail.box is not None:
        span = hull(span, f.tail.box)
    # a box further than 8 from 0 and the tail box on some axis lies in one
    # background, of period at most 5 there: the window holds every box sum
    averages = {c: s / Fraction((2 * r + 1) ** dim) for c, s in window_box_sums(f, r, span.dilate(r + 8)).items()}
    ti = estimate_average(f, TI(dim), [r])
    if ti.value is None:
        assert ti.uniformity_defect == max(averages.values()) - min(averages.values())
    else:
        assert ti.uniformity_defect == max(abs(a - ti.value) for a in averages.values())
    centered = estimate_average(f, CENTERED(dim), [0, r])
    assert centered.uniformity_defect == abs(averages[(0,) * dim] - centered.value)


@pytest.mark.parametrize("kind", ["periodic", "orthant"])
def test_uniformity_defect_of_a_long_period_or_a_wide_table(kind, monkeypatch):
    """Past the sizes drawn above, at r = 32: a (30, 30) periodic table,
    whose period cell of box sums takes no box sum at all, and a 21 x 21
    table with four orthant constants, whose box sums run at 44 centers per
    axis (those within one of a box face meeting a table coordinate or 0)."""
    rng, r = random.Random(12), 32
    if kind == "periodic":
        window = Box((0, 0), (29, 29))
        f = periodic_observable((30, 30), {s: rng.randint(-3, 3) for s in window.sites()})
    else:
        box = Box.centered((0, 0), 10)
        constants = {(1, 1): 1, (1, -1): 2, (-1, 1): -1, (-1, -1): 0}
        f = orthant_observable(2, constants, box, {s: rng.randint(-3, 3) for s in box.sites()})
        window = box.dilate(r + 8)
    centers = []
    orthant_parts = observables._orthant_parts
    monkeypatch.setattr(observables, "_orthant_parts", lambda box: centers.append(box) or orthant_parts(box))
    est = estimate_average(f, TI(2), [r])
    monkeypatch.undo()
    averages = [s / Fraction((2 * r + 1) ** 2) for s in window_box_sums(f, r, window).values()]
    if est.value is None:
        assert est.uniformity_defect == max(averages) - min(averages)
    else:
        assert est.uniformity_defect == max(abs(a - est.value) for a in averages)
    assert len(centers) == (0 if kind == "periodic" else 44**2)


def test_uniformity_defect_sees_the_sites_a_box_can_reach_past_its_breakpoint():
    # the greatest box sums center at (-5, 2) and (-6, 2); on axis 0, -5 is a
    # candidate only from the breakpoint -2, and its box meets (-6, 0) and
    # (-6, 4), 2r = 4 away from that breakpoint
    table = {(-4, 1): 2, (-5, 6): -1, (-6, 4): 2, (-6, 0): 1, (-2, 3): -2}
    f = localized_observable(2, 0, Box.spanning(table, 2), table)
    est = estimate_average(f, TI(2), [2])
    sums = window_box_sums(f, 2, Box.spanning(table, 2).dilate(3))
    assert est.uniformity_defect == max(abs(s) for s in sums.values()) / 25 == Fraction(1, 5)


def test_uniformity_defect_of_spread_sites_takes_linearly_many_box_sums(monkeypatch):
    """n table sites at (13s, -13s) with four orthant constants, r = 32: a
    box meets at most 5 of them, so the box sums grow like n, where the
    product of the per-axis candidates would take about (4n)^2."""
    constants = {(1, 1): 1, (1, -1): 2, (-1, 1): -1, (-1, -1): 0}
    orthant_parts = observables._orthant_parts
    counts = {}
    for n in (25, 50, 100):
        sites = {(13 * s, -13 * s): 1 + s % 3 for s in range(1, n + 1)}
        f = orthant_observable(2, constants, Box.spanning(sites, 2), sites)
        centers = []
        monkeypatch.setattr(observables, "_orthant_parts", lambda box: centers.append(box) or orthant_parts(box))
        estimate_average(f, TI(2), [32])
        counts[n] = len(centers)
    assert 5 * counts[50] < 11 * counts[25]
    assert 5 * counts[100] < 11 * counts[50]


def test_prefix_grids_of_spread_sites_grow_linearly(monkeypatch):
    """n table sites at (13s, -13s), r = 32: the deviations' prefix sums span
    only the buckets a box can lie in, so their cells grow like n, where one
    grid over every coordinate pair holds n^2."""
    prefix_grid = observables._prefix_grid
    cells = []

    def counted(sites):
        grid = prefix_grid(sites)
        cells.append(len(grid[1]))
        return grid

    monkeypatch.setattr(observables, "_prefix_grid", counted)
    totals = {}
    for n in (100, 400):
        sites = {(13 * s, -13 * s): 1 + s % 3 for s in range(1, n + 1)}
        f = localized_observable(2, 0, Box.spanning(sites, 2), sites)
        cells.clear()
        est = estimate_average(f, TI(2), [32])
        totals[n] = sum(cells)
        # a box holds at most five consecutive sites, at most 2 + 3 + 1 + 2 + 3
        assert est.uniformity_defect == Fraction(11, 65**2)
    assert totals[400] < 5 * totals[100]


def test_box_sum_of_huge_2d_box_is_closed_form():
    c = Fraction(2, 3)
    table = {(0, 0): Fraction(5), (-1, 2): Fraction(-1, 2), (3, -4): c}
    f = localized_observable(2, c, Box.centered((0, 0), 4), table)
    box = Box.centered((0, 0), 10**6)
    expected = c * box.size + sum(t - c for t in table.values())
    assert box_average(f, box) == expected / Fraction(box.size)
    # against a period-2 checkerboard: the constant part is c times the
    # number of sites of even coordinate sum, (|B| + 1) / 2 on this box
    checker = periodic_observable((2, 2), {(0, 0): 1, (1, 1): 1, (0, 1): 0, (1, 0): 0})
    even = (box.size + 1) // 2
    # of the table sites only (0, 0) is even and differs from c
    expected = c * even + (Fraction(5) - c)
    assert box_average_product(f, checker, box) == expected / Fraction(box.size)


# ---------------------------------------------------------------------------
# integer forms: exact sums on integer numerators

# coprime and growing denominators next to integers far past one machine word,
# so the integer forms' common denominators and numerators both get large
MIXED_DENOMINATORS = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(-7, 12)]),
    st.integers(0, 30).map(lambda k: Fraction(1, 5**k)),
    st.integers(-(10**40), 10**40).map(Fraction),
)


def mixed_denominator_observables(dim):
    return st.one_of(
        periodic_observables(dim, MIXED_DENOMINATORS),
        boxed_observables(dim, MIXED_DENOMINATORS),
        orthant_observables(dim, MIXED_DENOMINATORS),
    )


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_form_sums_equal_fraction_sums(dim, data):
    f = data.draw(mixed_denominator_observables(dim))
    g = data.draw(mixed_denominator_observables(dim))
    box = data.draw(orthant_straddling_boxes(dim))
    assert box_average(f, box) == brute_box_average(f, box)
    assert box_average_product(f, g, box) == sum(
        f.value(s) * g.value(s) for s in box.sites()
    ) / Fraction(box.size)
    means = far_cell_means([f, g], dim)
    ti, centered = product_average([f, g], TI(dim)), product_average([f, g], CENTERED(dim))
    if len(set(means)) == 1:
        assert ti == centered == means[0]
    else:
        assert ti is None
        assert centered == sum(means) / Fraction(len(means))
    center = data.draw(MIXED_DENOMINATORS)
    assert f.sup_deviation(center) == max(abs(v - center) for v in tail_values(f.tail))


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_box_sum_fraction_operations_do_not_grow_with_deviation_sites(monkeypatch):
    periodic = periodic_observable((2, 3), {r: Fraction(r[0] - r[1], 7) for r in Box((0, 0), (1, 2)).sites()})

    def fraction_operations(width):
        box = Box((0, 0), (width - 1, 9))
        f = localized_observable(2, Fraction(1, 2), box, {s: Fraction(s[0] + 1, s[1] + 2) for s in box.sites()})
        f.tail.den, periodic.tail.den  # built once per tail, before the sum
        count = 0

        def counted(method):
            def op(*args):
                nonlocal count
                count += 1
                return method(*args)

            return op

        with monkeypatch.context() as m:
            for name in ARITHMETIC:
                m.setattr(Fraction, name, counted(getattr(Fraction, name)))
            average = box_average_product(f, periodic, box.dilate(2))
        sites = box.dilate(2).sites()
        assert average == sum(f.value(s) * periodic.value(s) for s in sites) / Fraction(box.dilate(2).size)
        return count

    assert fraction_operations(1) == fraction_operations(100)  # 10 and 1,000 deviation sites


def test_evolution_fraction_operations_do_not_grow_with_deviation_sites(lazy2d, monkeypatch):
    n = 6
    pn = convolution_power(lazy2d, n)  # the law, before the count

    def fraction_operations(width):
        box = Box((0, 0), (width - 1, 9))
        f = localized_observable(2, Fraction(1, 2), box, {s: Fraction(s[0] + 1, s[1] + 2) for s in box.sites()})
        count = 0

        def counted(method):
            def op(*args):
                nonlocal count
                count += 1
                return method(*args)

            return op

        with monkeypatch.context() as m:
            for name in ARITHMETIC:
                m.setattr(Fraction, name, counted(getattr(Fraction, name)))
            ev = evolve_site(f, lazy2d, n)
        for site in ((0, 0), (width, 5), (-n, 0), (width + n, 9 + n)):
            assert ev.value(site) == direct_evolution(f, pn, site)
        return count

    assert fraction_operations(1) == fraction_operations(100)  # 10 and 1,000 deviation sites


def assert_reduced(signal):
    assert isinstance(signal, LatticeSignal)
    assert signal.den > 0 and 0 not in signal.nums.values() and gcd(signal.den, *signal.nums.values()) == 1


def drawn_site_functions(dim, data):
    """A config observable's site functions: itself, or a cell's reduction
    and square marginal, then the first of them evolved 0 to 3 steps."""
    obs = data.draw(config_observables(dim))
    walk = preset("third-walk" if dim == 1 else "lazy-2d")  # a step for each digit of the cells
    if isinstance(obs, CellObservable):
        site_functions = [reduce_to_site(obs, walk), observables.square_marginal(obs, walk)]
    else:
        site_functions = [obs]
    if dim == 1 or site_functions[0].tail.uniform:
        site_functions.append(evolve_site(site_functions[0], walk, data.draw(st.integers(0, 3))))
    return site_functions


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_cell_and_table_is_a_reduced_signal(dim, data):
    """Backgrounds and deviations are reduced signals as built, reduced and
    evolved: no stored deviation is 0, and a residue of value 0 is absent
    from its cell, yet counts among the values the tail takes."""
    for f in drawn_site_functions(dim, data):
        t = f.tail
        for signal in (t.table, *(bg.cell for bg in t.backgrounds.values())):
            assert_reduced(signal)
        assert all(t.box.contains(s) for s in t.table.nums) if t.box else not t.table.nums
        values = tail_values(t)
        assert f.extremes == (min(values), max(values))


def extremes_by_numerators(f):
    """The least and the greatest value of f, each deviation site read through
    ``Tail.numerators``: the reference for ``SiteObservable.extremes``."""
    t = f.tail
    values = [b + d for b, d in map(t.numerators, t.table.nums)]
    for bg in t._distinct.values():
        values += (v * (t.den // bg.cell.den) for v in bg.cell.nums.values())
        if len(bg.cell) < prod(bg.period):
            values.append(0)
    return Fraction(min(values), t.den), Fraction(max(values), t.den)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_extremes_equal_the_per_site_reading(dim, data):
    for f in drawn_site_functions(dim, data):
        assert f.extremes == extremes_by_numerators(f)


def test_a_residue_of_value_0_counts_among_the_extremes():
    f = periodic_observable((3,), {(0,): 0, (1,): 2, (2,): 5})
    assert (0,) not in f.tail.backgrounds[(1,)].cell.nums
    assert f.extremes == (0, 5)
    g = localized_observable(1, -1, Box((0,), (1,)), {(0,): 0, (1,): -3})
    assert g.extremes == (-3, 0)


def test_the_table_holds_deviations_and_a_site_at_the_background_is_not_stored():
    spec = {"kind": "constantOutsideBox", "constant": "1/2", "box": {"lo": [-1], "hi": [2]}, "table": {"0": "3", "2": "1/2"}}
    obs = observable_from_config(1, spec)
    assert obs.tail.table.entries == {(0,): Fraction(5, 2)}  # 3 - 1/2; site 2 is at the constant
    written = observable_to_config(obs)
    assert written == {**spec, "table": {"0": "3"}}
    assert observable_from_config(1, written) == obs
    assert len(sign_observable().tail.table) == 0  # the sign function is its step background


@pytest.mark.parametrize("dim", [1, 2])
def test_background_is_built_once_per_orthant(dim):
    signs = list(itertools.product((-1, 1), repeat=dim))
    box = Box.centered((0,) * dim, 1)
    tails = [
        orthant_observable(dim, {s: Fraction(k) for k, s in enumerate(signs)}, box, {(0,) * dim: 9}).tail,
        localized_observable(dim, Fraction(1, 2), box, {}).tail,
        periodic_observable((2,) * dim, {r: 1 for r in Box((0,) * dim, (1,) * dim).sites()}).tail,
    ]
    for t, distinct in zip(tails, (len(signs), 1, 1)):
        for form in (t, abs(t)):  # mapped once per distinct background
            assert len({id(form.backgrounds[s]) for s in signs}) == distinct
