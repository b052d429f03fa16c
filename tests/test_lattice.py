"""Exact-arithmetic core: convolution, moments, span, boundary defect."""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bakerlattice import (
    Box,
    DimensionMismatchError,
    LatticeSignal,
    WalkDistribution,
    a1_boundary_constant,
    a1_defect,
    convolution_power,
    convolve,
    drift,
    evolve_site,
    localized_observable,
    periodic_observable,
    sign_observable,
    span_check,
    preset,
)
from bakerlattice import lattice
from bakerlattice.lattice import _convolve_entries
from bakerlattice.rational import ConfigError
from conftest import nearest_neighbour_2d, random_signal, random_walk


def naive_convolve(a: dict, b: dict, dim: int) -> dict:
    """Independent reference convolution (plain double loop over dicts)."""
    out = {}
    for sa, va in a.items():
        for sb, vb in b.items():
            key = tuple(x + y for x, y in zip(sa, sb))
            out[key] = out.get(key, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def naive_power(p: WalkDistribution, n: int) -> dict:
    acc = {(0,) * p.dim: Fraction(1)}
    for _ in range(n):
        acc = naive_convolve(acc, dict(p.support), p.dim)
    return acc


# ---------------------------------------------------------------------------
# convolution


def test_convolve_delta_identity(third):
    a = third.signal()
    assert convolve(LatticeSignal.delta(1), a).entries == a.entries


def test_convolve_third_walk_hand_values(third):
    pp = convolve(third.signal(), third.signal())
    assert pp[(0,)] == Fraction(1, 3)
    assert pp[(2,)] == Fraction(1, 9)


def test_reflect_and_fold_hand_values():
    a = LatticeSignal.from_entries(
        2,
        {(1, -2): Fraction(1, 2), (-3, 0): Fraction(1, 3), (2, 2): Fraction(1, 6), (3, 1): Fraction(-1, 2)},
    )
    assert a.reflect().entries == {
        (-1, 2): Fraction(1, 2),
        (3, 0): Fraction(1, 3),
        (-2, -2): Fraction(1, 6),
        (-3, -1): Fraction(-1, 2),
    }
    # (1, -2) and (3, 1) share the residue (1, 1) and cancel exactly
    assert a.fold((2, 3)).entries == {(1, 0): Fraction(1, 3), (0, 2): Fraction(1, 6)}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_fold_keeps_mass_and_commutes_with_convolution(seed, dim):
    rng = random.Random(seed)
    a, b = random_signal(rng, dim), random_signal(rng, dim)
    period = tuple(rng.randint(1, 4) for _ in range(dim))
    assert a.fold(period).mass() == a.mass()
    assert a.reflect().reflect() == a
    assert convolve(a, b).fold(period) == convolve(a.fold(period), b.fold(period)).fold(period)


def test_convolve_dimension_mismatch(third, lazy2d):
    with pytest.raises(DimensionMismatchError):
        convolve(third.signal(), lazy2d.signal())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_convolve_mass_multiplicative(seed, dim):
    rng = random.Random(seed)
    a = random_walk(rng, dim).signal()
    b = random_walk(rng, dim).signal()
    assert convolve(a, b).mass() == a.mass() * b.mass() == 1


def test_convolution_power_base_cases(third):
    assert convolution_power(third, 0).entries == LatticeSignal.delta(1).entries
    assert convolution_power(third, 1).entries == third.signal().entries


def test_convolution_power_two_steps(third):
    p2 = convolution_power(third, 2)
    assert p2[(0,)] == Fraction(1, 3)
    assert p2[(1,)] == p2[(-1,)] == Fraction(2, 9)
    assert p2[(2,)] == p2[(-2,)] == Fraction(1, 9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(0, 8))
def test_convolution_power_matches_naive_oracle(seed, dim, n):
    p = random_walk(random.Random(seed), dim, max_support=5, reach=3)
    assert convolution_power(p, n).entries == naive_power(p, n)


SIGNED = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3), Fraction(5, 7)])


@st.composite
def signed_signals(draw, dim):
    """Empty, scattered, or filling a whole box (which always packs: w_a + w_b - 1 <= w_a w_b)."""
    shape = draw(st.sampled_from(["empty", "scattered", "box"]))
    if shape == "empty":
        return LatticeSignal(dim, {})
    if shape == "scattered":
        sites = st.tuples(*[st.integers(-3, 3)] * dim)
        return LatticeSignal.from_entries(dim, draw(st.dictionaries(sites, SIGNED, min_size=1, max_size=8)))
    corner = draw(st.tuples(*[st.integers(-3, 3)] * dim))
    widths = draw(st.tuples(*[st.integers(1, 4)] * dim))
    box = product(*(range(c, c + w) for c, w in zip(corner, widths)))
    return LatticeSignal.from_entries(dim, {s: draw(SIGNED) for s in box})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_convolve_equals_the_loop(data):
    dim = data.draw(st.integers(1, 2))
    a, b = data.draw(signed_signals(dim)), data.draw(signed_signals(dim))
    loop = {s: v for s, v in _convolve_entries(a.entries, b.entries).items() if v != 0}
    assert convolve(a, b).entries == loop


def test_packed_product_cancels_exactly():
    a = LatticeSignal.from_entries(1, {(0,): Fraction(1), (1,): Fraction(-1)})
    b = LatticeSignal.from_entries(1, {(0,): Fraction(1), (1,): Fraction(1)})
    assert convolve(a, b).entries == {(0,): 1, (2,): -1}  # (1 - x)(1 + x) = 1 - x^2


@pytest.mark.parametrize("dim", [1, 2])
def test_sparse_operands_convolve_without_packing(dim):
    far = 10**9
    a = LatticeSignal.from_entries(dim, {(-far,) * dim: Fraction(1, 2), (far,) + (3,) * (dim - 1): Fraction(-1, 3)})
    start = time.perf_counter()
    aa = convolve(a, a)
    assert time.perf_counter() - start < 1.0  # a packed box would hold about 10^9 slots or more
    assert aa.entries == {
        (-2 * far,) * dim: Fraction(1, 4),
        (0,) + (3 - far,) * (dim - 1): Fraction(-1, 3),
        (2 * far,) + (6,) * (dim - 1): Fraction(1, 9),
    }


@st.composite
def walks(draw):
    """Walks on Z^d, d <= 3, with positive rational weights; the lowest axis-0
    face often holds several sites, and then the recurrence's first row is
    the power of that face, one dimension down."""
    dim = draw(st.integers(1, 3))
    sites = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=2, max_size=5, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(sites), max_size=len(sites)))
    return WalkDistribution.from_weights(dim, {s: Fraction(w, sum(raw)) for s, w in zip(sites, raw)})


SQUARE = WalkDistribution.from_weights(2, dict.fromkeys(product((0, 1), repeat=2), Fraction(1, 4)))
# several sites on the lowest axis-0 face, and on that face's lowest axis-1 face
CORNER = WalkDistribution.from_weights(3, dict.fromkeys([(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)], Fraction(1, 4)))


@settings(max_examples=60, deadline=None)
@given(walks(), st.integers(0, 40))
@example(SQUARE, 9)
@example(CORNER, 5)
def test_recurrence_numerators_equal_the_loop(p, n):
    n = min(n, (40, 12, 5)[p.dim - 1])  # the loop's support grows like n^d
    step = p.signal()
    loop = {(0,) * p.dim: 1}
    for _ in range(n):
        loop = _convolve_entries(loop, step.nums)
    law = convolution_power.__wrapped__(p, n)
    assert law.nums == {s: v for s, v in loop.items() if v}
    assert law.den == step.den**n
    assert gcd(law.den, *law.nums.values()) == 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_signals_are_stored_reduced(data):
    dim = data.draw(st.integers(1, 2))
    a, b = data.draw(signed_signals(dim)), data.draw(signed_signals(dim))
    made = (a, b, convolve(a, b), a + b, a - b, a.fold((2,) * dim), a.reflect(), a.shift((1,) * dim))
    for s in made:
        assert LatticeSignal.from_entries(s.dim, s.entries) == s
        assert s.den > 0 and 0 not in s.nums.values() and gcd(s.den, *s.nums.values()) == 1


def test_third_walk_law_at_n_8192_is_the_trinomial(third):
    """16,385 sites of up to 13,000 bits, from the recurrence in well under a second."""
    n = 8192
    law = convolution_power.__wrapped__(third, n)
    assert law.mass() == 1
    for k in (0, 1, 2, 3, n // 2, n - 1, n, n + 1, 2 * n - 1, 2 * n):
        # the coefficient of x^k in (1 + x + x^2)^n, at site k - n, is the sum
        # over j of C(n, j) C(n - j, k - 2j) = n! / (j! (k - 2j)! (n - k + j)!)
        j = max(0, k - n)
        term = comb(n, j) * comb(n - j, k - 2 * j)
        closed = 0
        while term:
            closed += term
            term = term * (k - 2 * j) * (k - 2 * j - 1) // ((j + 1) * (n - k + j + 1))
            j += 1
        assert law[(k - n,)] == Fraction(closed, 3**n)


def test_lazy_2d_law_at_n_128_is_exact(lazy2d, monkeypatch):
    def loop(a, b):
        raise AssertionError("the dense law went through the loop")

    monkeypatch.setattr(lattice, "_convolve_entries", loop)
    n = 128
    law = convolution_power.__wrapped__(lazy2d, n)
    assert law.mass() == 1
    assert law[(n, 0)] == Fraction(1, 5**n)
    assert law[(n - 1, 0)] == law[(n - 1, 1)] == Fraction(n, 5**n)
    assert law.nums == {(-y, x): v for (x, y), v in law.nums.items()}


@pytest.mark.parametrize("n", range(11))
def test_power_mass_exactly_one(third, n):
    assert convolution_power(third, n).mass() == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_power_mass_exactly_one_random_walks(seed, dim):
    p = random_walk(random.Random(seed), dim)
    for n in range(11):
        assert convolution_power(p, n).mass() == 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5), st.integers(0, 5))
def test_power_semigroup(seed, m, n):
    p = random_walk(random.Random(seed), 1)
    lhs = convolution_power(p, m + n)
    rhs = convolve(convolution_power(p, m), convolution_power(p, n))
    assert lhs.entries == rhs.entries


@pytest.mark.parametrize("n", range(1, 11))
def test_power_drift_scales_linearly(drifted, n):
    pn = convolution_power(drifted, n)
    pn_walk = WalkDistribution.from_weights(1, pn.entries)
    assert drift(pn_walk) == (n * Fraction(1, 3),)


# ---------------------------------------------------------------------------
# drift


def test_drift_symmetric_walk_is_zero(third):
    assert drift(third) == (Fraction(0),)


def test_drift_single_step_distribution():
    p = WalkDistribution(1, (((1,), Fraction(1)),))
    assert drift(p) == (Fraction(1),)


def test_drift_biased_walk(drifted):
    assert drift(drifted) == (Fraction(1, 3),)


# ---------------------------------------------------------------------------
# span of step differences


def minor_gcd_full(p: WalkDistribution) -> bool:
    """Independent irreducibility oracle: gcd of all d x d difference minors is 1."""
    from math import gcd

    base = p.sites[0]
    rows = [tuple(a - b for a, b in zip(s, base)) for s in p.sites[1:]]
    d = p.dim
    if len(rows) < d:
        return False
    g = 0
    for combo in combinations(rows, d):
        g = gcd(g, abs(_det(combo)))
    return g == 1


def _det(rows) -> int:
    d = len(rows)
    if d == 1:
        return rows[0][0]
    if d == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(d):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def test_span_standard_basis_2d():
    p = WalkDistribution.from_weights(
        2, {(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3)}
    )
    assert span_check(p).full


def test_span_even_sublattice(reducible):
    verdict = span_check(reducible)
    assert not verdict.full
    assert verdict.basis == ((2,),)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_span_base_point_independence(seed, dim):
    """The differences from every support point reduce to the basis span_check reports."""
    p = random_walk(random.Random(seed), dim)
    bases = {
        tuple(map(tuple, lattice._hermite_basis([tuple(a - b for a, b in zip(s, base)) for s in p.sites], dim)))
        for base in p.sites
    }
    assert bases == {span_check(p).basis}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(-3, 3))
def test_span_translation_invariance(seed, dim, shift):
    p = random_walk(random.Random(seed), dim)
    translated = WalkDistribution.from_weights(
        dim, {tuple(c + shift for c in s): w for s, w in p.support}
    )
    assert span_check(p).verdict == span_check(translated).verdict
    assert span_check(p).basis == span_check(translated).basis


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_span_matches_minor_gcd_oracle(seed, dim):
    p = random_walk(random.Random(seed), dim)
    assert span_check(p).full == minor_gcd_full(p)


def test_span_reenumeration_invariance(third):
    shuffled = WalkDistribution.from_weights(
        1, {(1,): Fraction(1, 3), (-1,): Fraction(1, 3), (0,): Fraction(1, 3)}
    )
    assert shuffled.support == third.support  # lexicographic normalization
    assert span_check(shuffled) == span_check(third)


@pytest.mark.parametrize(
    "walk,witness",
    [
        (preset("reducible-1d"), (Fraction(1, 2),)),
        (preset("drifted-1d"), (Fraction(1, 2),)),
        (nearest_neighbour_2d(), (Fraction(1, 2), Fraction(1, 2))),
        (
            WalkDistribution.from_weights(2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}),
            (Fraction(1, 2), Fraction(1, 2)),
        ),
        (preset("third-walk"), None),
        (preset("lazy-2d"), None),
    ],
    ids=["reducible-1d", "drifted-1d", "nearest-neighbour-2d", "diagonal-2d", "third-walk", "lazy-2d"],
)
def test_span_witness_presets(walk, witness):
    verdict = span_check(walk)
    assert verdict.witness == witness
    assert verdict.full == (witness is None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_span_witness_is_exact(seed, dim):
    """None exactly on the full lattice; otherwise k in [0,1)^d, k != 0, k . (beta - beta0) in Z."""
    p = random_walk(random.Random(seed), dim)
    verdict = span_check(p)
    k = verdict.witness
    assert (k is None) == verdict.full == minor_gcd_full(p)
    if k is None:
        return
    assert len(k) == dim and all(isinstance(x, Fraction) and 0 <= x < 1 for x in k)
    assert any(k)
    base = p.sites[0]
    for site in p.sites:
        turns = sum((x * (a - b) for x, a, b in zip(k, site, base)), Fraction(0))
        assert turns.denominator == 1


# ---------------------------------------------------------------------------
# boundary defect


def brute_a1_defect(p: WalkDistribution, r: int) -> Fraction:
    """Literal double sum over boundary-crossing sites (reference oracle)."""
    from itertools import product

    side = 2 * r + 1
    reach = p.max_step

    def in_box(site):
        return all(-r <= c <= r for c in site)

    total = Fraction(0)
    for alpha in product(range(-r - reach, r + reach + 1), repeat=p.dim):
        inside = in_box(alpha)
        for beta, w in p.support:
            image = tuple(a + b for a, b in zip(alpha, beta))
            if inside and not in_box(image):
                total += w
            elif not inside and in_box(image):
                total += w
    return total / Fraction(side**p.dim)


def test_a1_defect_identity_walk_is_zero():
    p = WalkDistribution(1, (((0,), Fraction(1)),))
    assert a1_defect(p, 5) == 0


def test_a1_defect_third_walk_hand_value(third):
    assert a1_defect(third, 10) == Fraction(4, 63)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.sampled_from([3, 7]))
def test_a1_defect_matches_brute_force(seed, dim, r):
    p = random_walk(random.Random(seed), dim)
    assert a1_defect(p, r) == brute_a1_defect(p, r)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2), st.sampled_from([2, 5, 11, 30]))
def test_a1_defect_boundary_count_bound(seed, dim, r):
    p = random_walk(random.Random(seed), dim)
    side = 2 * r + 1
    lhs = a1_defect(p, r) * side**dim
    inf_moment = sum((w * max(abs(c) for c in s) for s, w in p.support), Fraction(0))
    assert lhs <= 2 * dim * side ** (dim - 1) * inf_moment


@pytest.mark.parametrize("name", ["third-walk", "drifted-1d", "reducible-1d", "lazy-2d"])
def test_a1_defect_times_r_bounded(name):
    p = preset(name)
    bound = a1_boundary_constant(p)
    for r in (10, 100, 1000):
        assert a1_defect(p, r) * r <= bound


# ---------------------------------------------------------------------------
# walk distribution contract


def test_walk_rejects_bad_weights():
    with pytest.raises(ValueError):
        WalkDistribution.from_weights(1, {(0,): Fraction(-1, 2), (1,): Fraction(3, 2)})
    with pytest.raises(ValueError):
        WalkDistribution.from_weights(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 3)})
    with pytest.raises(ValueError):
        WalkDistribution.from_weights(1, {(1,): 1})


def test_walk_support_is_lexicographic(third):
    assert third.sites == ((-1,), (0,), (1,))


def test_walk_json_round_trip(lazy2d):
    data = lazy2d.to_json_dict()
    assert data["support"][0]["p"] == "1/5"
    assert WalkDistribution.from_json_dict(data) == lazy2d
    # it reads what to_json_dict writes and nothing else
    with pytest.raises(ConfigError, match=r"^dims: unknown key, did you mean 'dim'\?"):
        WalkDistribution.from_json_dict({**data, "dims": 2})
    with pytest.raises(ConfigError, match=r"^support\[1\]\.weight: unknown key \(known keys: beta, p\)$"):
        WalkDistribution.from_json_dict({**data, "support": [data["support"][0], {**data["support"][1], "weight": "1"}]})


def test_cached_law_is_shared_and_never_mutated(third):
    law = convolution_power(third, 7)
    before = dict(law.entries)
    assert convolution_power(third, 7) is law
    assert law == convolution_power.__wrapped__(third, 7)
    for f in (
        sign_observable(),
        periodic_observable((2,), {(0,): 1, (1,): -1}),
        localized_observable(1, 1, Box.centered((0,), 2), {(1,): Fraction(3)}),
    ):
        evolve_site(f, third, 7)
    convolve(law, law)
    law.reflect()
    law.fold((3,))
    assert law.entries == before
    assert convolution_power(third, 7) is law
