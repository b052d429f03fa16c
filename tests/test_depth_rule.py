"""The one time rule, checked against independent enumeration.

A pair (F, G) at time n evolves F's reduction n - m_F - m_G steps, and a
cell G is read as itself.  Every value here is compared, by exact equality,
with the itinerary enumeration: F through ``itinerary_oracle``, a cell G by
pushing the strip of its backward digits and keeping the components whose
itinerary starts with its forward digits (``cell_integral``).
"""

from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakerlattice import (
    Box,
    BoxFamily,
    CellObservable,
    Evolution,
    LocalObservable,
    PartitionTable,
    Strip,
    WalkDistribution,
    estimate_average,
    implication_audit,
    itinerary_oracle,
    localized_observable,
    m1_report,
    m2_table,
    m4_report,
    periodic_observable,
    push_strip,
)
from bakerlattice.phase import cylinder_interval
from bakerlattice.rational import ConfigError

TI = BoxFamily.translation_invariant(1)


def cell_integral(F, site, back, fwd, p: WalkDistribution, n: int):
    """mu((F o T^n) 1_c) for the cell c = (site, back, fwd), by enumeration.

    The strip {site} x [0,1) x cylinder(back), pushed n >= len(fwd) steps,
    splits by itinerary; the components whose itinerary starts with fwd are
    the image of the cell, and F is integrated over each of them."""
    table = PartitionTable.from_walk(p)
    pushed = push_strip(Strip(site, *cylinder_interval(table, back)), p, n, table=table)
    return sum(
        (
            itinerary_oracle(F, Strip(c.site, c.lo, c.hi), p, 0)
            for c in pushed.components
            if c.word[: len(fwd)] == tuple(fwd)
        ),
        Fraction(0),
    )


def square_integral(F, alpha: int, p: WalkDistribution, n: int):
    """mu((F o T^n) 1_{square alpha}), by enumeration."""
    return itinerary_oracle(F, Strip.unit((alpha,)), p, n)


def box_integral(F, G, p: WalkDistribution, n: int, r: int):
    """mu_V((F o T^n) G) over the box [-r, r], by enumeration."""
    sites = range(-r, r + 1)
    if not isinstance(G, CellObservable):
        total = sum(G.value((a,)) * square_integral(F, a, p, n) for a in sites)
    else:
        m = G.depth
        total = sum(G.default * square_integral(F, a, p, n) for a in sites)
        for (site, word), value in G.values.items():
            if -r <= site[0] <= r:
                total += (value - G.default) * cell_integral(F, site, word[:m], word[m:], p, n)
    return total / (2 * r + 1)


def box_mean(G, p: WalkDistribution, r: int, center: int = 0):
    """mu_V(G) over the box [center - r, center + r], by enumeration."""
    return sum(square_integral(G, a, p, 0) for a in range(center - r, center + r + 1)) / (2 * r + 1)


def time_gap(F, av, p: WalkDistribution, t: int):
    """sup over alpha of |mu((F o T^t) 1_{square alpha}) - av|, by enumeration.

    A periodic F repeats with its period; any other F here departs from av
    only at sites in [-2, 2] (a cell's site, before its m backward steps), so
    the deviation is 0 beyond t + m steps of them."""
    if isinstance(F, CellObservable) or F.tail.box is not None:
        reach = (t + F.depth) * max(abs(s[0]) for s, _ in p.support)
        sites = range(-2 - reach, 3 + reach)
    else:
        sites = range(F.tail.backgrounds[(1,)].period[0])
    return max(abs(square_integral(F, a, p, t) - av) for a in sites)


def law(p: WalkDistribution, n: int) -> dict:
    """p^(n), from the itinerary heights of the unit square."""
    return push_strip(Strip.unit((0,)), p, n).site_masses()


# ---------------------------------------------------------------------------
# random inputs: 1-d walks with N <= 3 steps, depth <= 2, r <= 2

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def walks(draw):
    steps = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(steps), max_size=len(steps)))
    return WalkDistribution.from_weights(1, {(s,): Fraction(w, sum(weights)) for s, w in zip(steps, weights)})


def periodics():
    """(observable, average) of a periodic site observable."""
    tables = st.integers(1, 2).flatmap(lambda l: st.lists(RATIONALS, min_size=l, max_size=l))
    return tables.map(lambda t: (periodic_observable((len(t),), dict(enumerate(t))), sum(t) / len(t)))


def localized():
    table = st.dictionaries(st.integers(-2, 2), RATIONALS, max_size=3)
    return st.tuples(RATIONALS, table).map(
        lambda ct: (localized_observable(1, ct[0], Box((-2,), (2,)), ct[1]), ct[0])
    )


def cells(size: int):
    def of_depth(m):
        key = st.tuples(st.tuples(st.integers(-2, 2)), st.tuples(*[st.integers(1, size)] * (2 * m)))
        values = st.dictionaries(key, RATIONALS, min_size=1, max_size=3)
        return st.tuples(values, RATIONALS).map(lambda vd: (CellObservable(1, m, vd[0], vd[1]), vd[1]))

    return st.sampled_from([0, 1, 1, 2, 2]).flatmap(of_depth)


@st.composite
def cases(draw):
    p = draw(walks())
    observables = st.one_of(cells(p.size), cells(p.size), periodics(), localized())
    (f, av_f), (g, av_g) = draw(observables), draw(observables)
    offset = f.depth + g.depth
    strip = Strip((draw(st.integers(-2, 2)),), *sorted(draw(st.lists(
        st.sampled_from([Fraction(k, 4) for k in range(5)]), min_size=2, max_size=2, unique=True))))
    return {
        "p": p, "f": f, "av_f": av_f, "g": g, "av_g": av_g, "h": draw(periodics()),
        "local": LocalObservable.from_strip(strip, draw(RATIONALS.filter(bool))),
        "n": draw(st.integers(offset, offset + 2)), "r": draw(st.integers(0, 2)),
    }


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cases())
def test_reports_equal_the_enumeration(case):
    p, f, g, local, n, r = (case[k] for k in ("p", "f", "g", "local", "n", "r"))
    F, G = Evolution(f, p), Evolution(g, p)
    [(strip, weight)] = local.terms

    # correlate and M4: F against a strip, time n >= m_F
    assert m4_report(F, local, [n]).series[n] == weight * itinerary_oracle(f, strip, p, n)

    # M2 with F or G a cell; a time below m_F + m_G is refused
    assert m2_table(F, G, [n], [r]).series[(n, r)] == box_integral(f, g, p, n, r)
    if f.depth + g.depth:
        with pytest.raises(ConfigError, match="below the depth offset"):
            m2_table(F, G, [f.depth + g.depth - 1], [r])

    # M1: a periodic F against G, whose excess over a periodic background has no density
    h, _ = case["h"]
    background = g.tail.backgrounds[(1,)] if not isinstance(g, CellObservable) else None
    period = lcm(h.tail.backgrounds[(1,)].period[0], background.period[0] if background else 1)
    pn = law(p, n)
    evolved = {a: sum(w * h.value((a + b[0],)) for b, w in pn.items()) for a in range(period)}
    g_at = (lambda a: background.value((a,))) if background else (lambda a: g.default)
    expected = sum(evolved[a] * g_at(a) for a in range(period)) / period
    assert m1_report(Evolution(h, p), G, [n]).series[n] == expected

    # averages of a cell: its default, and the sup over every center of its box averages' distance to it
    if isinstance(g, CellObservable):
        est = estimate_average(G.marginal, TI, [r])
        sites = [site[0] for site, _ in g.values]
        centers = range(min(sites) - r - 1, max(sites) + r + 2)
        assert est.value == g.default
        assert est.uniformity_defect == max(abs(box_mean(g, p, r, c) - g.default) for c in centers)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_audit_rows_equal_the_enumeration(case):
    p, local, r = case["p"], case["local"], case["r"]
    globals_ = [(case["f"], case["av_f"]), (case["g"], case["av_g"])]
    # every pair of the two globals, (F, F) and (G, G) too, is at or past its offset
    deepest = max(obs.depth for obs, _ in globals_)
    n = max(case["n"], 2 * deepest)
    [(strip, weight)] = local.terms
    record = implication_audit([Evolution(obs, p) for obs, _ in globals_], [local], [n], [r], TI)
    assert record.ok
    gaps = {}  # (observable, t) -> gap(t)

    def gap(i, t):
        if (i, t) not in gaps:
            gaps[(i, t)] = time_gap(*globals_[i], p, t)
        return gaps[(i, t)]

    for row in record.m4_rows:
        obs, av = globals_[row.observable]
        assert row.deviation == abs(weight * itinerary_oracle(obs, strip, p, n) - av * local.mass())
        assert row.bound == gap(row.observable, n) * local.abs_mass()
    assert len(record.m2_rows) == 4
    for row in record.m2_rows:
        (f, av_f), (g, av_g) = globals_[row.observable], globals_[row.other]
        assert row.measured == abs(box_integral(f, g, p, n, r) - av_f * av_g)
        assert row.term1 == abs(av_f) * abs(box_mean(g, p, r) - av_g)
        in_box = range(-r, r + 1)
        if isinstance(g, CellObservable):
            # its default against F o T^n, its cells' image strips against F o T^(n - m_G)
            images = sum(
                abs(v - g.default) * prod(p.support[d - 1][1] for d in word)
                for (site, word), v in g.values.items()
                if site[0] in in_box
            )
            expected = gap(row.observable, n) * abs(g.default) + gap(row.observable, n - g.depth) * images / len(in_box)
        else:
            expected = gap(row.observable, n) * sum(abs(g.value((a,))) for a in in_box) / len(in_box)
        assert row.term3 == expected
