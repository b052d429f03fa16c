"""Correlation engine, mixing estimators, oracle equivalence, audits."""

import math
import random
from fractions import Fraction

import pytest

from bakerlattice import (
    Box,
    BoxFamily,
    CellObservable,
    Evolution,
    LocalObservable,
    Strip,
    WalkDistribution,
    box_average,
    box_average_product,
    constant_observable,
    evolve_site,
    implication_audit,
    itinerary_oracle,
    localized_observable,
    m1_report,
    m2_table,
    m4_report,
    m5_report,
    periodic_observable,
    rate_profile,
    reduce_to_site,
    sign_observable,
)
from bakerlattice import mixing
from bakerlattice.rational import ConfigError
from conftest import random_site_observable, random_strip, random_walk

TI = BoxFamily.translation_invariant
CENTERED = BoxFamily.centered_only


def m2_entry(f, g, p, n, box):
    """mu_V((F o T^n) G) over V = box x [0,1)^2, by the box sum of the evolved
    product: the direct reference for each entry of ``m2_table``."""
    return box_average_product(evolve_site(f, p, n), g, box)


@pytest.fixture
def parity():
    return periodic_observable((2,), {(0,): 1, (1,): -1})


# ---------------------------------------------------------------------------
# global-local correlations


def test_correlate_zero_steps_reads_site_value(third):
    rng = random.Random(2)
    f = random_site_observable(rng, 1)
    q = Strip((0,), Fraction(1, 8), Fraction(5, 8))
    g = LocalObservable.from_strip(q)
    assert m4_report(Evolution(f, third), g, [0]).series[0] == f.value((0,)) * q.height


@pytest.mark.parametrize("n", range(7))
def test_correlate_parity_unit_square(third, parity, n):
    g = LocalObservable.unit_square((0,))
    assert m4_report(Evolution(parity, third), g, [n]).series[n] == Fraction(-1, 3) ** n


def test_correlate_constant_with_zero_mean_local(third):
    f = constant_observable(1, 4)
    g = LocalObservable(
        (
            (Strip((0,), Fraction(0), Fraction(1, 2)), Fraction(1)),
            (Strip((2,), Fraction(0), Fraction(1, 2)), Fraction(-1)),
        )
    )
    assert g.mass() == 0
    assert m4_report(Evolution(f, third), g, range(5)).series == dict.fromkeys(range(5), 0)


# ---------------------------------------------------------------------------
# M5: uniform global-local gap


def test_m5_gap_constant_observable(third):
    f = constant_observable(1, Fraction(3, 7))
    assert m5_report(Evolution(f, third), range(8)).series == dict.fromkeys(range(8), 0)


@pytest.mark.parametrize("n", range(12))
def test_m5_gap_parity_exact_rate(third, parity, n):
    assert m5_report(Evolution(parity, third), [n]).series[n] == Fraction(1, 3**n)


def test_m5_gap_reducible_parity_never_decays(reducible, parity):
    assert m5_report(Evolution(parity, reducible), range(21)).series == dict.fromkeys(range(21), 1)


def test_m5_gap_monotone_for_third_walk(third, parity):
    gaps = list(m5_report(Evolution(parity, third), range(41)).series.values())
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_m5_gap_offset_bookkeeping(third, parity):
    # a depth-2 cell pairs with depth-2 strips: its gap at n is its reduction's at n - 4
    F = CellObservable(1, 2, {((0,), (1, 3, 2, 1)): Fraction(3), ((1,), (2, 2, 3, 3)): Fraction(-1)})
    cell, reduced = Evolution(F, third), Evolution(reduce_to_site(F, third), third)
    assert m5_report(cell, [10]).series[10] == m5_report(reduced, [6]).series[6]
    with pytest.raises(ValueError, match="below the depth offset"):
        m5_report(cell, [3])


def test_m5_gap_requires_analytic_average(third):
    with pytest.raises(ValueError, match="analytic average"):
        m5_report(Evolution(sign_observable(), third), [2], family=TI(1))


def test_m5_gap_invariant_under_support_translation(parity):
    base = WalkDistribution.from_weights(
        1, {(-1,): Fraction(1, 3), (0,): Fraction(1, 3), (1,): Fraction(1, 3)}
    )
    shifted = WalkDistribution.from_weights(
        1, {(0,): Fraction(1, 3), (1,): Fraction(1, 3), (2,): Fraction(1, 3)}
    )
    assert m5_report(Evolution(parity, base), range(8)).series == m5_report(Evolution(parity, shifted), range(8)).series


def test_m5_gap_checkerboard_2d(lazy2d):
    # the 2d alternating observable is an eigenvector with value p~(pi,pi) = -3/5
    checker = periodic_observable(
        (2, 2), {(0, 0): 1, (1, 1): 1, (0, 1): -1, (1, 0): -1}
    )
    assert m5_report(Evolution(checker, lazy2d), range(6)).series == {n: Fraction(3, 5) ** n for n in range(6)}


def test_m5_gap_is_supremum_over_strips(third, parity):
    """Every strip realizes at most the gap; a best strip attains it."""
    rng = random.Random(8)
    n = 3
    P = Evolution(parity, third)
    gap = m5_report(P, [n]).series[n]
    best = Fraction(0)
    for _ in range(40):
        q = random_strip(rng, 1)
        g = LocalObservable.from_strip(q)
        dev = abs(m4_report(P, g, [n]).series[n]) / g.abs_mass()
        best = max(best, dev)
        assert dev <= gap
    assert best == gap  # strips at any site reach |(-1/3)^n|


def test_m5_strip_value_independent_of_interval(third, parity):
    n = 4
    P = Evolution(parity, third)
    vals = set()
    for lo, hi in ((0, 1), (Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 7), Fraction(2, 7))):
        g = LocalObservable.from_strip(Strip((1,), lo, hi))
        vals.add(m4_report(P, g, [n]).series[n] / g.mass())
    assert len(vals) == 1


# ---------------------------------------------------------------------------
# M2: box-averaged global-global table


def test_m2_constants_factor(third):
    f = constant_observable(1, Fraction(2))
    g = constant_observable(1, Fraction(5, 2))
    rep = m2_table(Evolution(f, third), Evolution(g, third), (0, 1, 2), [1, 2], TI(1))
    assert all(v == Fraction(5) for v in rep.series.values())
    assert rep.target == Fraction(5)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_m2_sign_counterexample_lower_bound(third, n):
    sign = sign_observable()
    for r in (5, 50, 500):
        entry = m2_entry(sign, sign, third, n, Box.centered((0,), r))
        assert entry >= 1 - Fraction(2 * n, 2 * r + 1)


def test_m2_sign_scan_finds_no_certificate(third):
    sign = sign_observable()
    rep = m2_table(Evolution(sign, third), Evolution(sign, third), (1, 2, 3), [2, 8, 32], CENTERED(1))
    assert rep.target == 0
    assert rep.eps_scan["1/1000"] is None


def test_m2_periodic_pair_certificate(third, parity):
    other = periodic_observable((3,), {(0,): 1, (1,): 0, (2,): -1})
    rep = m2_table(
        Evolution(parity, third),
        Evolution(other, third),
        range(1, 16),
        [2, 8, 32, 128, 512],
        TI(1),
        eps_schedule=(Fraction(1, 10), Fraction(1, 1000)),
    )
    assert rep.target == 0
    assert rep.eps_scan["1/10"] is not None
    assert rep.eps_scan["1/1000"] is not None
    # deviations shrink along the diagonal
    assert abs(rep.series[(15, 512)]) < abs(rep.series[(1, 2)])


# ---------------------------------------------------------------------------
# M1: averaged product limit for periodic observables


def test_m1_site_constant_factorizes(third):
    f = constant_observable(1, Fraction(3))
    g = periodic_observable((2,), {(0,): 1, (1,): 5})
    assert m1_report(Evolution(f, third), Evolution(g, third), range(5)).series == dict.fromkeys(range(5), 3 * 3)


@pytest.mark.parametrize("n", range(8))
def test_m1_parity_pair_decays(third, parity, n):
    P = Evolution(parity, third)
    assert m1_report(P, P, [n]).series[n] == Fraction(-1, 3) ** n


def test_m1_reducible_even_indicator_fails_to_factor(reducible):
    E = Evolution(periodic_observable((2,), {(0,): 1, (1,): 0}), reducible)
    series = m1_report(E, E, range(1, 6)).series
    assert series == dict.fromkeys(range(1, 6), Fraction(1, 2))
    # the factorized target would be 1/4: mixing fails on the sublattice walk
    assert series[5] != Fraction(1, 4)


def test_m1_with_localized_second_observable(third, parity):
    g = localized_observable(1, Fraction(2), Box.centered((0,), 1), {(0,): Fraction(7)})
    series = m1_report(Evolution(parity, third), Evolution(g, third), range(4)).series
    assert series == dict.fromkeys(range(4), Fraction(2) * 0)  # c * Av(f)


def test_m1_not_computable_for_sign(third, parity):
    P, sign = Evolution(parity, third), Evolution(sign_observable(), third)
    assert not mixing.m1_computable(P, sign)
    with pytest.raises(ValueError, match="translation-invariant average"):
        m1_report(P, sign, [3])
    with pytest.raises(ValueError, match="periodic"):
        m1_report(sign, P, [1])


def test_m1_not_computable_is_decided_before_evolving(monkeypatch, third, parity):
    calls = []

    def counting(f, p, n):
        calls.append(n)
        return evolve_site(f, p, n)

    monkeypatch.setattr(mixing, "evolve_site", counting)
    P = Evolution(parity, third)
    with pytest.raises(ValueError, match="translation-invariant average"):
        m1_report(P, Evolution(sign_observable(), third), [3])
    assert calls == []
    assert m1_report(P, P, [3]).series[3] == Fraction(-1, 27)
    assert calls == [3]


# ---------------------------------------------------------------------------
# the itinerary oracle


def test_oracle_depth_zero_integral(third, parity):
    q = Strip((2,), Fraction(1, 4), Fraction(3, 4))
    assert itinerary_oracle(parity, q, third, 0) == parity.value((2,)) * q.height


def test_oracle_parity_hand_value(third, parity):
    assert itinerary_oracle(parity, Strip.unit((0,)), third, 3) == Fraction(-1, 27)


@pytest.mark.parametrize("seed", range(12))
def test_oracle_equals_correlation_engine(seed, third):
    rng = random.Random(seed)
    p = random_walk(rng, 1, max_support=3)
    f = random_site_observable(rng, 1)
    q = random_strip(rng, 1)
    n = rng.randint(0, 5)
    oracle = itinerary_oracle(f, q, p, n)
    engine = m4_report(Evolution(f, p), LocalObservable.from_strip(q), [n]).series[n]
    assert oracle == engine


def test_oracle_cell_integral_at_depth_zero(third):
    # the cell with backward digit 2 and forward digit 1 is the rectangle
    # {0} x [0, 1/3) x [1/3, 2/3); integrating over {0} x [0,1) x [0, 1/2)
    # picks up width 1/3 times the y2 overlap 1/6
    F = CellObservable(1, 1, {((0,), (2, 1)): Fraction(1)})
    q = Strip((0,), Fraction(0), Fraction(1, 2))
    assert itinerary_oracle(F, q, third, 0) == Fraction(1, 18)


def test_oracle_cell_observable_matches_reduction(third):
    """mu((F o T^n) 1_Q) for depth-m F equals the reduced correlation at n-m."""
    rng = random.Random(4)
    for m in (1, 2):
        for _ in range(8):
            values = {}
            for _ in range(rng.randint(1, 5)):
                key = ((rng.randint(-1, 1),), tuple(rng.randint(1, 3) for _ in range(2 * m)))
                values[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            F = CellObservable(1, m, values, default=Fraction(rng.randint(-1, 1)))
            reduced = Evolution(reduce_to_site(F, third), third)
            q = random_strip(rng, 1)
            g = LocalObservable.from_strip(q)
            times = (m, m + 1, m + 3)
            engine = m4_report(reduced, g, [n - m for n in times]).series
            as_read = m4_report(Evolution(F, third), g, times).series  # the depth rule evolves n - m steps
            for n in times:
                assert itinerary_oracle(F, q, third, n) == engine[n - m] == as_read[n]


def test_cell_oracle_over_budget_pushes_no_strip(third, monkeypatch):
    """The cell oracle refuses N^(n+2m) over budget before enumerating anything."""
    from bakerlattice import BudgetExceededError

    def no_push(*args, **kwargs):
        raise AssertionError("push_strip called")

    monkeypatch.setattr(mixing, "push_strip", no_push)
    F = CellObservable(1, 6, {((0,), (1,) * 12): Fraction(1)})
    q = Strip((0,), Fraction(0), Fraction(1))
    # N^n = 3^4 is within the budget of 10^7, N^(n+2m) = 3^16 is not
    with pytest.raises(BudgetExceededError, match=r"N\^\(n\+2m\) = 3\^16 exceeds the itinerary budget 10000000"):
        itinerary_oracle(F, q, third, 4)


def test_depth_one_cells_obey_offset_gap(third, parity):
    """Unit-mass depth-1 locals stay within the documented shifted gap."""
    from bakerlattice import PartitionTable
    from bakerlattice.phase import cylinder_interval

    table = PartitionTable.from_walk(third)
    n = 5
    P = Evolution(parity, third)
    gaps = m5_report(P, [n - 2, n - 1]).series
    bound = gaps[n - 2]  # the depth-1 pairing offset is 2
    achieved = Fraction(0)
    for k in range(1, 4):  # forward digit: y1 cell
        for b in range(1, 4):  # backward digit: y2 cylinder
            # one step maps the cell onto a full-width strip, exactly
            site = (third.support[k - 1][0][0],)
            lo, hi = cylinder_interval(table, (b,))
            w = table.cell_weight(k - 1)
            strip = Strip(site, table.cumulative[k - 1] + w * lo, table.cumulative[k - 1] + w * hi)
            mass = strip.height
            corr = m4_report(P, LocalObservable.from_strip(strip), [n - 1]).series[n - 1]
            dev = abs(corr) / mass
            achieved = max(achieved, dev)
            assert dev <= bound
    assert achieved == gaps[n - 1]


# ---------------------------------------------------------------------------
# rate extraction


def test_rate_profile_exponential():
    series = {n: Fraction(1, 3**n) for n in range(1, 12)}
    fit = rate_profile(series)
    assert not fit.floor
    assert fit.exponential_rate == pytest.approx(1.0986122886681098, abs=1e-6)


def test_rate_profile_polynomial():
    series = {n: Fraction(1, n) for n in range(1, 30)}
    fit = rate_profile(series)
    assert fit.polynomial_exponent == pytest.approx(1.0, abs=1e-2)


def test_rate_profile_exact_gaps_below_binary64_floor():
    # 3^-32 is about 5e-16: as floats every gap would sit at the 1e-14 floor
    fit = rate_profile({n: Fraction(1, 3**n) for n in range(32, 57)})
    assert not fit.floor and fit.points_used == 25
    assert fit.exponential_rate == pytest.approx(1.0986122886681098, abs=1e-6)


def test_rate_profile_keeps_every_exact_point():
    fit = rate_profile({n: Fraction(1, 3**n) for n in range(8, 33)})
    assert fit.points_used == 25
    assert fit.exponential_rate == pytest.approx(1.0986122886681098, abs=1e-6)


def test_rate_profile_float_floor():
    # Fraction(1e-15) is nonzero: read exactly, a float at rounding level
    # would count as a real deviation, so a float is refused instead
    with pytest.raises(TypeError, match="rate fitting takes exact values, got 1e-15"):
        rate_profile({n: 1e-15 for n in range(1, 8)})
    with pytest.raises(TypeError, match="exact values"):
        rate_profile({n: Fraction(1, 3**n) for n in range(1, 8)}, target=0.0)


def test_rate_profile_floor_flag():
    series = {n: Fraction(0) for n in range(1, 8)}
    fit = rate_profile(series)
    assert fit.floor and fit.exponential_rate is None


def test_rate_profile_fits_the_power_law_on_n_at_least_1():
    # n = 0 once sent log(0) into the power-law fit, a math domain error
    with_zero = rate_profile({n: Fraction(1, 3**n) for n in range(8)})
    without = rate_profile({n: Fraction(1, 3**n) for n in range(1, 8)})
    assert with_zero.points_used == 8
    assert with_zero.polynomial_exponent == without.polynomial_exponent
    assert abs(with_zero.exponential_rate - math.log(3)) < 1e-12
    one_positive = rate_profile({0: Fraction(1), 1: Fraction(1, 3), 2: Fraction(0), 3: Fraction(0)})
    assert one_positive.polynomial_exponent is None
    assert abs(one_positive.exponential_rate - math.log(3)) < 1e-12


def test_rate_profile_needs_points():
    with pytest.raises(ValueError):
        rate_profile({1: 1, 2: 1, 3: 1})


def test_rate_profile_accepts_report(third, parity):
    rep = m5_report(Evolution(parity, third), range(1, 10))
    fit = rate_profile(rep)
    assert fit.exponential_rate == pytest.approx(1.0986122886681098, abs=1e-6)


def test_rate_profile_refuses_a_report_without_a_target(third):
    # the sign has no translation-invariant average, so its M4 report has no
    # target; rate_profile once fitted it against the default target 0
    rep = m4_report(Evolution(sign_observable(), third), LocalObservable.unit_square((0,)), range(1, 10))
    assert rep.target is None
    with pytest.raises(ValueError, match="the M4 report has no target"):
        rate_profile(rep)
    # a plain mapping keeps its explicit target
    assert rate_profile(rep.series, Fraction(0)).points_used == 9


# ---------------------------------------------------------------------------
# implication audit


def test_audit_third_walk_suite(third, parity):
    other = periodic_observable((3,), {(0,): 2, (1,): 0, (2,): 1})
    locals_ = [
        LocalObservable.unit_square((0,)),
        LocalObservable.from_strip(Strip((1,), Fraction(0), Fraction(1, 2)), Fraction(-2)),
    ]
    record = implication_audit(
        [Evolution(parity, third), Evolution(other, third)], locals_, [1, 2, 4], [2, 8], TI(1)
    )
    assert record.ok
    assert record.m4_rows and record.m2_rows
    for row in record.m4_rows:
        assert row.deviation <= row.bound  # M5 => M4 (exact rationals)
    for row in record.m2_rows:
        assert row.measured <= row.bound  # the decomposition route bound
        assert row.term2 == 0


def test_audit_constant_rows_are_exactly_zero(third):
    c = constant_observable(1, Fraction(2))
    record = implication_audit(
        [Evolution(c, third)], [LocalObservable.unit_square((0,))], [1, 3], [2], TI(1)
    )
    for row in record.m4_rows:
        assert row.deviation == 0
    for row in record.m2_rows:
        assert row.measured == 0 and row.term1 == 0 and row.term3 == 0


def test_audit_zero_mean_locals_flag_m3(third, parity):
    g = LocalObservable(
        (
            (Strip((0,), Fraction(0), Fraction(1, 2)), Fraction(1)),
            (Strip((0,), Fraction(1, 2), Fraction(1)), Fraction(-1)),
        )
    )
    record = implication_audit([Evolution(parity, third)], [g], [1, 2], [2], TI(1))
    assert all(row.zero_mean for row in record.m4_rows)
    assert record.ok


def test_audit_skips_a_global_without_an_average_and_refuses_a_suite_of_them(third, parity):
    g = LocalObservable.unit_square((0,))
    sign, P = Evolution(sign_observable(), third), Evolution(parity, third)
    record = implication_audit([sign, P], [g], [1, 2], [2], TI(1))
    assert {row.observable for row in record.m4_rows} == {1}
    assert {(row.observable, row.other) for row in record.m2_rows} == {(1, 1)}
    with pytest.raises(ConfigError, match="under the translationInvariant family"):
        implication_audit([sign], [g], [1, 2], [2], TI(1))
    # an average of exactly 0 is an average
    assert parity.analytic_average(TI(1)) == 0
    assert implication_audit([P], [g], [1, 2], [2], TI(1)).m2_rows


def test_audit_and_m4_report_evolve_each_pair_once(monkeypatch, third, parity):
    calls = []

    def counting(f, p, n):
        calls.append((id(f), n))
        return evolve_site(f, p, n)

    monkeypatch.setattr(mixing, "evolve_site", counting)
    other = periodic_observable((3,), {(0,): 2, (1,): 0, (2,): 1})
    g = LocalObservable.unit_square((0,))
    implication_audit([Evolution(parity, third), Evolution(other, third)], [g, g], [1, 2, 4], [2, 8], TI(1))
    assert sorted(calls) == sorted((id(f), n) for f in (parity, other) for n in (1, 2, 4))


def test_audit_takes_each_global_box_mean_once(monkeypatch, third, parity):
    calls = []

    def counting(f, box):
        calls.append(box.size)
        return box_average(f, box)

    monkeypatch.setattr(mixing, "box_average", counting)
    other = periodic_observable((3,), {(0,): 2, (1,): 0, (2,): 1})
    g = LocalObservable.unit_square((0,))
    record = implication_audit([Evolution(parity, third), Evolution(other, third)], [g], [1, 2, 4], [2, 8], TI(1))
    # mu_V(G) and mu_V(|G|) for 2 globals and 2 radii, not once more per F
    assert len(calls) == 2 * 2 * 2
    assert len(record.m2_rows) == 2 * 2 * 3 * 2


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_reports_match_their_single_point_functions(dim, seed):
    rng = random.Random(seed)
    p = random_walk(rng, dim, reach=1)
    f, g = random_site_observable(rng, dim), random_site_observable(rng, dim)
    times = range(4)
    # a depth-1 cell carries its offset: its M5 series at n + 2 is its reduction's at n
    cell = CellObservable(dim, 1, {(random_strip(rng, dim).site, (rng.randint(1, p.size), rng.randint(1, p.size))): Fraction(2)})
    shifted = m5_report(Evolution(cell, p), range(2, 6))
    reduced = m5_report(Evolution(reduce_to_site(cell, p), p), times)
    m2 = m2_table(Evolution(f, p), Evolution(g, p), times, [1, 3])
    for n in times:
        assert shifted.series[n + 2] == reduced.series[n]
        for r in (1, 3):
            assert m2.series[(n, r)] == m2_entry(f, g, p, n, Box.centered((0,) * dim, r))


# ---------------------------------------------------------------------------
# report serialization


def test_m5_report_csv(tmp_path, third, parity):
    rep = m5_report(Evolution(parity, third), range(1, 6), metadata={"seed": 0})
    path = tmp_path / "m5.csv"
    rep.write_csv(path)
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "n,gap,target_zero"
    assert rows[1] == "1,1/3,0"
    assert rows[3] == "3,1/27,0"


def test_m2_report_csv_and_json(tmp_path, third, parity):
    rep = m2_table(Evolution(parity, third), Evolution(parity, third), (1, 2), [1, 2], TI(1))
    path = tmp_path / "m2.csv"
    rep.write_csv(path)
    header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "n,r,value,target,deviation"
    payload = rep.to_json_dict()
    assert payload["kind"] == "M2"
    assert "1,1" in payload["series"]


def test_m4_report_series(tmp_path, third, parity):
    g = LocalObservable.unit_square((0,))
    rep = m4_report(Evolution(parity, third), g, (0, 1, 2), TI(1))
    assert rep.series[1] == Fraction(-1, 3)
    assert rep.target == 0
    path = tmp_path / "m4.csv"
    rep.write_csv(path)
    header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "n,value,target,deviation"


def test_m1_report(third, parity):
    rep = m1_report(Evolution(parity, third), Evolution(parity, third), (1, 2, 3))
    assert rep.kind == "M1"
    assert rep.series[2] == Fraction(1, 9)
    assert rep.target == 0
