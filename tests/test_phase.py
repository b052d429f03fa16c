"""Point dynamics, exact strip pushforward, and the Monte Carlo walk law."""

import hashlib
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
    preset,
    push_strip,
    simulate_walk,
    step,
)
from bakerlattice.phase import _cells, cylinder_interval
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


DYADIC = WalkDistribution.from_weights(1, {-1: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})
# the float bounds of this walk meet at 1.0: its second cell is empty in binary64
TINY = WalkDistribution.from_weights(1, {-1: 1 - Fraction(1, 2**60), 1: Fraction(1, 2**60)})
LAZY_3D = WalkDistribution.from_weights(
    3,
    {s: Fraction(1, 7) for s in [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]},
)
PIN_WALKS = {
    "third-walk": preset("third-walk"),
    "drifted-1d": preset("drifted-1d"),
    "lazy-2d": preset("lazy-2d"),
    "lazy-3d": LAZY_3D,
    "dyadic": DYADIC,
    "tiny": TINY,
}


def _counts_digest(counts: dict) -> str:
    return hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest()


# sha256 of the sorted (site, count) pairs; a histogram is a function of
# (walk, n, samples, seed) and STREAMS, and any change to the draws, the
# float recurrence of y1 or the cell rule moves it
@pytest.mark.parametrize(
    "walk, n, samples, seed, digest",
    [
        # the simulate shapes of the law-diagnostics benchmark
        ("lazy-2d", 16, 50000, 1, "d9f1cfaa8bef6809fa137b1188b4b13ea93007629e576e89b9f343905113bcfd"),
        ("dyadic", 120, 20000, 1, "07349dfbb5cb7f367b8d9500cc3ad198f43559921187b63e0a7b1274e4b5cebb"),
        # the 3-d 7-step lazy walk on simulate's defaults (4 steps, 10^5 samples, seed 0)
        ("lazy-3d", 4, 100000, 0, "5f00fbca98bf24b2dfb614d7ce9921f110e21522999f02da792e11048ff736fc"),
        # samples not a multiple of STREAMS: the first streams take one more
        ("lazy-3d", 7, 10003, 4, "14ad664baee2ace55c0b77508748a357372ffcd1006245f77f8aef1f37381a2d"),
        ("drifted-1d", 9, 10003, 2, "3ed94f1a15fc809b15c9857c1844318967e392973ef8b43f2f36e5814b5c0b86"),
        ("third-walk", 40, 10003, 5, "8e452a18b338f3ec47a0a014e766507233d7316c959af267fd6d4d6bb923e53e"),
        ("tiny", 40, 2000, 3, "52fdf51503d44091b35dc1b444358f0d9d5800bee71a6aa4f4715a80f5938c15"),
    ],
)
def test_simulate_histograms_are_pinned(walk, n, samples, seed, digest):
    assert _counts_digest(simulate_walk(PIN_WALKS[walk], n, samples, seed).counts) == digest


@pytest.mark.parametrize(
    "walk, n, samples, seed, counts",
    [
        # fewer samples than STREAMS: the last streams draw nothing
        ("third-walk", 3, 5, 7, {(-1,): 1, (0,): 1, (2,): 2, (3,): 1}),
        ("lazy-2d", 9, 7, 8, {(-2, -2): 2, (-1, 0): 1, (0, -2): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
        ("drifted-1d", 3, 5, 9, {(-1,): 1, (1,): 2, (3,): 2}),
        ("tiny", 40, 7, 3, {(-40,): 7}),
        (
            "lazy-3d", 3, 13, 6,
            {(-2, 0, -1): 1, (-1, -1, 1): 1, (0, 0, -1): 2, (0, 0, 0): 1, (0, 1, -1): 1, (0, 1, 2): 1,
             (0, 2, -1): 1, (1, -1, 1): 2, (1, 0, 0): 2, (1, 0, 2): 1},
        ),
        ("lazy-2d", 0, 7, 1, {(0, 0): 7}),
        ("dyadic", 0, 10003, 1, {(0,): 10003}),
    ],
)
def test_simulate_small_histograms_are_pinned(walk, n, samples, seed, counts):
    assert simulate_walk(PIN_WALKS[walk], n, samples, seed).counts == counts


def test_simulate_rejects_negative_steps(third):
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_walk(third, -3, 10, seed=0)


# float bounds [0, 0, 1/2, 1/2, 1]: 2^-1100 underflows to 0.0 and 1/2 + 2^-60 rounds to 1/2
COLLIDING = WalkDistribution.from_weights(
    1,
    {
        -1: Fraction(1, 2**1100),
        0: Fraction(1, 2) - Fraction(1, 2**1100),
        1: Fraction(1, 2**60),
        2: Fraction(1, 2) - Fraction(1, 2**60),
    },
)


@pytest.mark.parametrize("walk", [COLLIDING, TINY, DYADIC, LAZY_3D, preset("third-walk"), preset("lazy-2d")])
def test_cells_equal_searchsorted_at_every_float_bound(walk):
    import numpy as np

    bounds = np.array([float(q) for q in PartitionTable.from_walk(walk).cumulative])
    near = [np.nextafter(bounds, 0.0), bounds, np.nextafter(bounds, 1.0), [0.0, np.nextafter(1.0, 0.0)]]
    y = np.concatenate(near)
    y = y[(y >= 0.0) & (y < 1.0)]
    expected = np.searchsorted(bounds, y, side="right") - 1
    k = _cells(y, bounds[1:-1].tolist())
    assert k.dtype == np.intp and k.tolist() == expected.tolist()
    assert k.max() <= walk.size - 1


def test_colliding_walks_have_colliding_float_bounds():
    for walk, equal in [(COLLIDING, [0.0, 0.5]), (TINY, [1.0])]:
        bounds = [float(q) for q in PartitionTable.from_walk(walk).cumulative]
        assert [a for a, b in zip(bounds, bounds[1:]) if a == b] == equal


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
