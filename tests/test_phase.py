"""Point dynamics, exact strip pushforward, and the Monte Carlo walk law."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakerlattice import (
    BudgetExceededError,
    PartitionTable,
    PhasePoint,
    Strip,
    WalkDistribution,
    convolution_power,
    inverse_step,
    push_strip,
    simulate_walk,
    step,
)
from bakerlattice.phase import _site_counts, cylinder_interval
from conftest import random_strip, random_walk


# ---------------------------------------------------------------------------
# single-step dynamics


def test_step_worked_example(third):
    x = PhasePoint((0,), Fraction(1, 2), Fraction(1, 5))
    y = step(x, third)
    assert y == PhasePoint((0,), Fraction(1, 2), Fraction(2, 5))


def test_step_left_boundary_belongs_to_cell(third):
    # y1 exactly at a cell boundary picks the right-hand (half-open) cell
    x = PhasePoint((0,), Fraction(1, 3), Fraction(0))
    y = step(x, third)
    assert y.site == (0,)  # cell k=2 carries step 0
    assert y.y1 == 0


def test_inverse_step_worked_example(third):
    x = PhasePoint((0,), Fraction(1, 2), Fraction(2, 5))
    assert inverse_step(x, third) == PhasePoint((0,), Fraction(1, 2), Fraction(1, 5))


def test_inverse_step_site_moves_by_selected_step(third):
    x = PhasePoint((5,), Fraction(0), Fraction(9, 10))  # y2 in the last cell
    y = inverse_step(x, third)
    assert y.site == (4,)  # last cell carries step +1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_step_round_trips_exactly(seed, dim):
    rng = random.Random(seed)
    p = random_walk(rng, dim)
    x = PhasePoint(
        tuple(rng.randint(-3, 3) for _ in range(dim)),
        Fraction(rng.randint(0, 119), 120),
        Fraction(rng.randint(0, 119), 120),
    )
    assert inverse_step(step(x, p), p) == x
    assert step(inverse_step(x, p), p) == x


def test_phase_point_rejects_out_of_range():
    with pytest.raises(ValueError):
        PhasePoint((0,), Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        PhasePoint((0,), Fraction(1, 2), Fraction(-1, 2))


# ---------------------------------------------------------------------------
# strip pushforward


def test_push_strip_depth_zero_is_identity(third):
    q = Strip((0,), Fraction(1, 4), Fraction(3, 4))
    pushed = push_strip(q, third, 0)
    assert len(pushed.components) == 1
    c = pushed.components[0]
    assert (c.site, c.lo, c.hi) == ((0,), Fraction(1, 4), Fraction(3, 4))


def test_push_strip_one_step_third_walk(third):
    q = Strip((0,), Fraction(0), Fraction(1, 2))
    pushed = push_strip(q, third, 1)
    assert sorted(c.site for c in pushed.components) == [(-1,), (0,), (1,)]
    assert all(c.height == Fraction(1, 6) for c in pushed.components)


def test_push_strip_heights_are_weight_products(third):
    q = Strip((0,), Fraction(0), Fraction(1, 3))
    pushed = push_strip(q, third, 3)
    for c in pushed.components:
        expected = q.height
        for digit in c.word:
            expected *= third.support[digit - 1][1]
        assert c.height == expected
        assert c.site == (sum(third.support[d - 1][0][0] for d in c.word),)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5))
def test_push_strip_conserves_measure_exactly(seed, n):
    rng = random.Random(seed)
    p = random_walk(rng, 1, max_support=3)
    q = random_strip(rng, 1)
    assert push_strip(q, p, n).total_height() == q.height


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5))
def test_push_strip_site_masses_equal_walk_law(seed, n):
    rng = random.Random(seed)
    p = random_walk(rng, 1, max_support=3)
    q = random_strip(rng, 1)
    displacements = {
        tuple(s - b for s, b in zip(site, q.site)): mass
        for site, mass in push_strip(q, p, n).site_masses().items()
    }
    assert displacements == convolution_power(p, n).entries


def test_push_strip_markov_refinement_widths(third):
    q = Strip((0,), Fraction(1, 7), Fraction(5, 7))
    pushed = push_strip(q, third, 1)
    for c in pushed.components:
        assert c.height / q.height == third.support[c.word[0] - 1][1]


def test_push_strip_budget_error(third):
    with pytest.raises(BudgetExceededError):
        push_strip(Strip.unit((0,)), third, 20)  # 3^20 > 10^7


def test_push_strip_enumeration_invariance(third):
    # a permuted partition is a conjugate system: same site masses exactly
    q = Strip((0,), Fraction(1, 5), Fraction(4, 5))
    default = push_strip(q, third, 4)
    permuted_walk = WalkDistribution(third.dim, tuple(third.support[k] for k in (2, 0, 1)))
    permuted = push_strip(q, permuted_walk, 4)
    assert default.site_masses() == permuted.site_masses()


def test_cylinder_interval_depth_one(third):
    table = PartitionTable.from_walk(third)
    assert cylinder_interval(table, (2,)) == (Fraction(1, 3), Fraction(2, 3))
    lo, hi = cylinder_interval(table, (1, 3))
    assert hi - lo == Fraction(1, 9)
    # word (b0, b1): outermost digit first, so the interval sits inside cell b0
    assert Fraction(0) <= lo < hi <= Fraction(1, 3)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_simulate_zero_steps_everything_at_origin(third):
    hist = simulate_walk(third, 0, 1000, seed=7)
    assert hist.counts == {(0,): 1000}


def test_simulate_is_deterministic_given_seed(third):
    a = simulate_walk(third, 3, 20000, seed=11)
    b = simulate_walk(third, 3, 20000, seed=11)
    assert a.counts == b.counts
    assert simulate_walk(third, 3, 20000, seed=12).counts != a.counts


def test_simulate_mean_matches_drift(drifted):
    n, samples = 6, 200000
    hist = simulate_walk(drifted, n, samples, seed=3)
    var_step = float(sum(w * s[0] ** 2 for s, w in drifted.support) - Fraction(1, 9))
    se = (n * var_step / samples) ** 0.5
    assert abs(hist.empirical_mean()[0] - n / 3) < 4 * se


def test_simulate_dyadic_walk_keeps_its_drift_past_binary64():
    # weights 1/2, 1/4 consume 1-2 bits of y1 per step, so n = 120 reads far
    # more than the 53 bits of one binary64 sample
    p = WalkDistribution.from_weights(1, {-1: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})
    n, samples = 120, 20000
    hist = simulate_walk(p, n, samples, seed=1)
    var_step = sum(w * s[0] ** 2 for s, w in p.support) - Fraction(1, 16)
    five_sigma = 5 * float(n * var_step / samples) ** 0.5
    assert abs(hist.empirical_mean()[0] - n / 4) < five_sigma


def test_simulate_2d_sites(lazy2d):
    hist = simulate_walk(lazy2d, 2, 5000, seed=5)
    assert all(len(site) == 2 for site in hist.counts)
    assert sum(hist.counts.values()) == 5000


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_site_counts_equal_unique_rows(dim):
    import numpy as np

    rng = np.random.default_rng(dim)
    near = [rng.integers(-4, 5, size=(m, dim)) for m in (1, 2, 7, 5000)]
    # coordinates across the whole int64 range, each row repeated
    far = np.repeat(rng.integers(-(2**63), 2**63 - 1, size=(50, dim)), 3, axis=0)
    for pos in [*near, far]:
        sites, counts = np.unique(pos, axis=0, return_counts=True)
        assert _site_counts(pos) == (sites.tolist(), counts.tolist())


def test_histogram_csv(tmp_path, third):
    hist = simulate_walk(third, 2, 1000, seed=1)
    path = tmp_path / "hist.csv"
    hist.write_csv(path, {"config_hash": "abc"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# seed=1")
    assert "site_0,count,empirical_p,exact_p" in lines
    assert any(line.endswith("1/9") for line in lines)  # exact p^(2) column


def test_strip_validation():
    with pytest.raises(ValueError):
        Strip((0,), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        Strip((0,), Fraction(-1, 2), Fraction(1, 2))
