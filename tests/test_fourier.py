"""Torus-side machinery: characters, kernels, norms, schedules, decay."""

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial, lcm, pi, sqrt
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bakerlattice import (
    AliasingError,
    FourierConfig,
    LatticeSignal,
    WalkDistribution,
    a_norm,
    box_signal,
    char_function,
    convolution_power,
    convolve,
    defect_signal,
    drift_removal,
    nowak_check,
    nowak_constant,
    periodic_pairing,
    preset,
    smallest_grid,
    sobolev_part,
    span_check,
)
from bakerlattice import embedding
from bakerlattice.embedding import NESTED_TAIL_CONSTANTS
from conftest import nearest_neighbour_2d, random_signal, random_walk

APERY = 1.2020569031595943  # zeta(3)


def _derivative_weighted(sig: LatticeSignal, axis: int, order: int) -> LatticeSignal:
    """Signal with entries (i alpha_axis)^order a_alpha, rational for even order:
    the transform of d^order a~."""
    assert order % 2 == 0
    sign = (-1) ** (order // 2)
    return LatticeSignal.reduced(sig.dim, {s: sign * s[axis] ** order * v for s, v in sig.nums.items()}, sig.den)


# ---------------------------------------------------------------------------
# characteristic functions


def test_char_delta_is_one():
    grid = char_function(LatticeSignal.delta(2), 8)
    assert np.allclose(grid.values, 1.0)


def test_char_third_walk_closed_form(third):
    grid = char_function(third.signal(), 64)
    theta = 2 * np.pi * np.arange(64) / 64
    assert np.allclose(grid.values, (1 + 2 * np.cos(theta)) / 3, atol=1e-12)
    assert grid.values[32] == pytest.approx(-1 / 3, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_char_is_one_at_zero_for_walks(seed, dim):
    p = random_walk(random.Random(seed), dim)
    grid = char_function(p.signal(), 8)
    assert grid.values[(0,) * dim] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_convolution_theorem_on_grid(seed, dim):
    rng = random.Random(seed)
    a = random_signal(rng, dim, radius=4)
    b = random_signal(rng, dim, radius=4)
    M = 32
    lhs = char_function(convolve(a, b), M).values
    rhs = char_function(a, M).values * char_function(b, M).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# norms and the embedding constant


def test_norms_on_delta_and_spike():
    d = LatticeSignal.delta(1)
    assert a_norm(d) == 1 and abs(d[(0,)]) + sobolev_part(d, 1) == 1.0
    spike = LatticeSignal.from_entries(1, {(2,): 1})
    assert a_norm(spike) == 1
    assert abs(spike[(0,)]) + sobolev_part(spike, 1) == 2.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(-5, 5))
def test_a_norm_translation_invariant(seed, shift):
    sig = random_signal(random.Random(seed), 1)
    assert a_norm(convolve(sig, LatticeSignal.from_entries(1, {(shift,): 1}))) == a_norm(sig)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_a_norm_equals_the_fraction_sum(seed, dim):
    sig = random_signal(random.Random(seed), dim)
    assert a_norm(sig) == sum((abs(v) for v in sig.entries.values()), Fraction(0))


def test_h_norm_brute_force_agreement():
    """The H^nu_bar norm |a_0| + sum_i sqrt(S_i), read from sobolev_part, against complex sums."""
    rng = random.Random(3)
    for dim in (1, 2):
        sig = random_signal(rng, dim, radius=4)
        nu_bar = dim // 2 + 1
        expected = abs(complex(sig[(0,) * dim]))
        for i in range(dim):
            expected += sqrt(
                sum(abs(complex(v)) ** 2 * s[i] ** (2 * nu_bar) for s, v in sig.entries.items())
            )
        assert abs(sig[(0,) * dim]) + sobolev_part(sig, nu_bar) == pytest.approx(expected, rel=1e-13)


def test_embedding_constant_values():
    assert nowak_constant(1) == pytest.approx(pi / sqrt(3), abs=1e-3)
    # collapsed nested sums have closed forms in low dimension
    assert nowak_constant(2) == pytest.approx(sqrt(4 * APERY), rel=1e-5)
    assert nowak_constant(3) == pytest.approx(2 * sqrt(4 * (pi**2 / 6 + APERY)), rel=1e-5)
    with pytest.raises(ValueError):
        nowak_constant(5)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_nested_tail_table_is_its_derivation(d):
    """The C_d table equals 2^d sum_{l <= 10^6} C(l+d-2, d-1) l^(-2 nu_bar) plus its integral tail."""
    nu_bar = d // 2 + 1
    limit = 10**6
    ls = np.arange(1, limit + 1, dtype=float)
    comb = np.ones_like(ls)
    for i in range(1, d):
        comb *= (ls + i - 1) / i
    partial = (2.0**d) * float(np.sum(comb * ls ** (-2.0 * nu_bar)))
    # integral comparison: C(x+d-2, d-1) <= (x+d-2)^(d-1) / (d-1)!
    decay = 2 * nu_bar - (d - 1)
    tail = (2.0**d) / factorial(d - 1) * ((limit + d - 2) / limit) ** (d - 1) * limit ** (1 - decay) / (decay - 1)
    assert NESTED_TAIL_CONSTANTS[d] == partial + tail


def test_embedding_names_are_the_fourier_names():
    from bakerlattice import embedding, fourier

    for name in ("a_norm", "nowak_constant", "nowak_check", "sobolev_part"):
        assert getattr(fourier, name) is getattr(embedding, name)


def test_embedding_check_random_signals():
    for dim in (1, 2, 3):
        assert nowak_check(LatticeSignal.delta(dim))
    rng = random.Random(17)
    for dim in (1, 2, 3):
        for _ in range(30):
            assert nowak_check(random_signal(rng, dim, radius=6))


def _decimal_sides(sig, order, constant):
    """a_norm and C (|a_0| + sum_i sqrt(S_i)) at 100 significant digits, in decimal."""
    with localcontext() as ctx:
        ctx.prec = 100
        dec = {s: Decimal(v.numerator) / v.denominator for s, v in sig.entries.items()}
        lhs = sum((abs(v) for v in dec.values()), Decimal(0))
        zero = abs(dec.get((0,) * sig.dim, Decimal(0)))
        sob = sum(
            (sum((v * v * s[i] ** (2 * order) for s, v in dec.items()), Decimal(0)).sqrt() for i in range(sig.dim)),
            Decimal(0),
        )
        return lhs, Decimal(constant) * (zero + sob)


exact_values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def exact_signals(draw):
    dim = draw(st.integers(1, 3))
    sites = st.tuples(*[st.integers(-6, 6)] * dim)
    entries = draw(st.dictionaries(sites, exact_values, min_size=1, max_size=6))
    return LatticeSignal.from_entries(dim, entries)


@settings(max_examples=200, deadline=None)
@given(exact_signals(), st.integers(1, 3), st.floats(0.05, 4.0), st.booleans())
def test_embedding_check_agrees_with_decimal(sig, order, scale, near):
    """Exact verdicts against a 100-digit evaluation, with C_d at a random value or next to the ratio."""
    lhs, rhs = _decimal_sides(sig, order, 1)
    constant = float(lhs / rhs) if near and rhs else scale
    with patch.object(embedding, "nowak_constant", lambda d: constant):
        verdict = nowak_check(sig, order)
    lhs, rhs = _decimal_sides(sig, order, constant)
    if abs(lhs - rhs) > Decimal(10) ** -90 * (1 + rhs):
        assert verdict == (lhs <= rhs)


K = 2**64  # u at site 1 and 1 at site K: (u + 1)^2 - (u^2 + K^2) = 2u + 1 - K^2
TINY = Fraction(1, 10**31)


def _pell_axes(k1: int, k2: int) -> dict:
    """Axis 1 with A_1^2 = T_1 - 1 at K = k1, axis 2 with A_2^2 = T_2 + 1 at K = k2, in units 2^-80.

    sqrt(T_1) + sqrt(T_2) - A_1 - A_2 is about 1/(2 A_1) - 1/(2 A_2): below
    2^-64 of a unit, so the 2^-64 brackets leave the sum undecided, while the
    fractional parts of both roots are far from 0.
    """
    u1, u2 = k1 * k1 // 2 - 1, k2 * k2 // 2
    unit = Fraction(1, 2**80)
    return {(1, 0): u1 * unit, (k1, 0): unit, (0, 1): u2 * unit, (0, k2): unit}


@pytest.mark.parametrize(
    "entries,constant,expected",
    [
        # 3/2 + 1 = sqrt(9/4 + 4): equality, and S = 25/4 is a rational square
        ({(1,): Fraction(3, 2), (2,): 1}, 1.0, True),
        # 8 + 3 = sqrt(64 + 36) + 1: one unit of the common denominator 10^31 above
        ({(1,): 8 * TINY, (2,): 3 * TINY}, 1.0, False),
        # u = K^2/2 - 1: A^2 = S - 1 in units 2^-127, so A is about 2e-77 below sqrt(S)
        ({(1,): Fraction(K * K // 2 - 1, 2**127), (K,): Fraction(1, 2**127)}, 1.0, True),
        # u = K^2/2: A^2 = S + 1, so A is about 2e-77 above sqrt(S)
        ({(1,): Fraction(K * K // 2, 2**127), (K,): Fraction(1, 2**127)}, 1.0, False),
        # a lone origin term: C |a_0| against |a_0|
        ({(0,): TINY}, 0.5, False),
        # two irrational roots whose sum is about 2e-60 above A, then below it
        (_pell_axes(2**40, 2**40 + 2), 1.0, True),
        (_pell_axes(2**40 + 2, 2**40), 1.0, False),
    ],
)
def test_embedding_check_at_and_next_to_equality(monkeypatch, entries, constant, expected):
    """Order 1 with C_d replaced, at or within 1e-30 of equality."""
    monkeypatch.setattr(embedding, "nowak_constant", lambda d: constant)
    sig = LatticeSignal.from_entries(len(next(iter(entries))), entries)
    assert nowak_check(sig, 1) is expected
    lhs, rhs = _decimal_sides(sig, 1, constant)
    assert abs(lhs - rhs) < Decimal(10) ** -30 and (lhs <= rhs) is expected


def test_embedding_check_equality_has_no_slack(monkeypatch):
    sig = LatticeSignal.from_entries(1, {(1,): Fraction(3, 2), (2,): 1})
    monkeypatch.setattr(embedding, "nowak_constant", lambda d: float(np.nextafter(1.0, 0.0)))
    assert not nowak_check(sig, 1)


# ---------------------------------------------------------------------------
# schedules


def test_config_eps_validation():
    with pytest.raises(ValueError):
        FourierConfig(1, Fraction(2, 5))
    with pytest.raises(ValueError):
        FourierConfig(1, 0)
    fc = FourierConfig(1, "1/10")
    assert fc.nu == 2
    assert fc.eps_proof_bound == Fraction(1, 25)
    assert not fc.eps_within_proof_bound
    assert FourierConfig(1, "1/30").eps_within_proof_bound


def test_radius_schedule_is_exact_ceiling():
    fc = FourierConfig(1, "1/10")
    assert fc.radius(1024) == 2  # 1024^(1/10) = 2 exactly
    assert fc.radius(1025) == 3  # just above an exact power
    assert fc.radius(1) == 1
    fc2 = FourierConfig(1, "1/4")
    assert [fc2.radius(n) for n in (16, 17, 81)] == [2, 3, 3]


def test_smallest_grid():
    assert smallest_grid(0) == 4
    assert smallest_grid(10) == 32
    assert smallest_grid(16) == 64


# ---------------------------------------------------------------------------
# defect signal


def test_defect_mass_zero_exactly(third):
    fc = FourierConfig(1, "1/10")
    g, _ = defect_signal(third, 4, fc, 16)
    assert g.mass() == 0


def test_defect_a_norm_matches_direct_rational(third):
    fc = FourierConfig(1, "1/10")
    g, norms = defect_signal(third, 4, fc, 16)
    # independent route: naive convolutions, then the plain absolute sum
    p4 = convolution_power(third, 4)
    direct = p4 - convolve(box_signal(1, fc.radius(4)), p4)
    assert g.entries == direct.entries
    exact = sum((abs(v) for v in direct.entries.values()), Fraction(0))
    assert norms.a_norm == pytest.approx(float(exact), rel=1e-14)


def test_defect_sobolev_matches_lattice_parseval():
    """The lattice-side Sobolev part against the grid quadrature of sum_i ||d_i^nu g~||_L2."""
    for name, n in (("third-walk", 8), ("third-walk", 64), ("lazy-2d", 6)):
        walk = preset(name)
        fc = FourierConfig(walk.dim, "1/10")
        g, norms = defect_signal(walk, n, fc, 256)
        quadrature = 0.0
        for axis in range(walk.dim):
            dd = char_function(_derivative_weighted(g, axis, fc.nu), 256).values
            quadrature += sqrt(float(np.mean(np.abs(dd) ** 2)))
        assert norms.sobolev == pytest.approx(quadrature, rel=1e-12)
        assert norms.bound == nowak_constant(walk.dim) * (abs(float(g[(0,) * walk.dim])) + norms.sobolev)


def test_a_defect_is_squared_once_for_its_sobolev_part_and_its_nowak_check(third):
    fc = FourierConfig(1, "1/10")
    g, _ = defect_signal(third, 16, fc, 64)  # takes the sums for the Sobolev part
    sums = embedding._sobolev_sums(g, fc.nu)
    assert embedding._sobolev_sums(g, fc.nu) is sums  # what nowak_check(g, fc.nu) reads, not squared again
    squares = {s: v * v for s, v in g.nums.items()}
    for signal, order in ((g, fc.nu + 1), (LatticeSignal(1, dict(g.nums), g.den), fc.nu)):  # another order, another signal
        assert embedding._sobolev_sums(signal, order) == (sum(v * s[0] ** (2 * order) for s, v in squares.items()),)


def test_defect_norms_decrease_and_respect_bound(third):
    fc = FourierConfig(1, "1/10")
    results = [defect_signal(third, n, fc, 1024) for n in (4, 16, 64, 256)]
    totals = [row.h_total for _, row in results]
    assert all(a > b for a, b in zip(totals, totals[1:]))
    for g, row in results:
        assert nowak_check(g, fc.nu)
        assert row.a_norm <= row.bound


def test_defect_grid_too_small_raises(third):
    fc = FourierConfig(1, "1/10")
    with pytest.raises(AliasingError):
        defect_signal(third, 64, fc, 64)


def test_derivative_weights_match_finite_differences(third):
    """Frequency-side derivative values against central differences."""
    fc = FourierConfig(1, "1/10")
    g, _ = defect_signal(third, 4, fc, 512)
    M = 512
    gt = char_function(g, M).values
    dd = char_function(_derivative_weighted(g, 0, 2), M).values
    h = 2 * pi / M
    fd = (np.roll(gt, -1) - 2 * gt + np.roll(gt, 1)) / h**2
    assert np.max(np.abs(fd - dd)) < 1e-3


# ---------------------------------------------------------------------------
# drift removal


def test_drift_removal_zero_drift_identity(third):
    removal = drift_removal(third, 9)  # delta = 0: the multiplier is exactly 1
    assert removal.delta == (0,) and removal.gradient_at_zero == (0,)


@pytest.mark.parametrize("n,delta", [(3, 1), (10, 3), (100, 33)])
def test_drift_removal_nearest_integer(drifted, n, delta):
    removal = drift_removal(drifted, n)
    assert removal.delta == (delta,)
    assert all(g <= removal.gradient_bound for g in removal.gradient_at_zero)


def test_drift_removal_deterministic_step_multiplier_is_one():
    # a point mass at +1, built as a record since from_weights refuses N = 1: delta = n
    # cancels the character exp(i theta)^n exactly, leaving the constant 1
    p = WalkDistribution(1, (((1,), Fraction(1)),))
    for n in (1, 4, 9):
        removal = drift_removal(p, n)
        assert removal.delta == (n,) and removal.gradient_at_zero == (0,)


def test_drift_removal_tie_toward_zero():
    p = WalkDistribution.from_weights(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    removal = drift_removal(p, 1)  # n v = 1/2 exactly
    assert removal.delta == (0,)
    assert removal.gradient_at_zero == (Fraction(1, 2),)



# ---------------------------------------------------------------------------
# spectral pairing for periodic functions


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_periodic_pairing_identity(third, n):
    pairing = periodic_pairing({(0,): Fraction(1), (1,): Fraction(-1)}, (2,), third, n)
    assert pairing.space_value == Fraction(-1, 3) ** n
    assert abs(complex(pairing.space_value) - pairing.spectral_value) < 1e-10
    # the space side is the unit-square global-local correlation
    from bakerlattice import Evolution, LocalObservable, m4_report, periodic_observable

    parity = periodic_observable((2,), {(0,): 1, (1,): -1})
    corr = m4_report(Evolution(parity, third), LocalObservable.unit_square((0,)), [n]).series[n]
    assert corr == pairing.space_value


def test_periodic_pairing_random_tables(third):
    rng = random.Random(23)
    for _ in range(10):
        L = rng.randint(1, 4)
        table = {(i,): Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for i in range(L)}
        n = rng.randint(0, 20)
        pairing = periodic_pairing(table, (L,), third, n)
        pn = convolution_power(third, n)
        direct = sum((table[(s[0] % L,)] * w for s, w in pn.entries.items()), Fraction(0))
        assert pairing.space_value == direct
        assert abs(complex(direct) - pairing.spectral_value) < 1e-10


# ---------------------------------------------------------------------------
# the torus witness and the box kernel's Taylor coefficients


@pytest.mark.parametrize(
    "walk",
    [preset("reducible-1d"), preset("drifted-1d"), nearest_neighbour_2d()],
    ids=["reducible-1d", "drifted-1d", "nearest-neighbour-2d"],
)
def test_span_witness_has_unit_modulus_on_the_grid(walk):
    """|p~(2 pi k)| = 1 at the grid index k M, with M a multiple of every denominator of k."""
    k = span_check(walk).witness
    M = 4 * lcm(*(x.denominator for x in k))
    index = tuple(int(x * M) for x in k)
    assert abs(char_function(walk.signal(), M).values[index]) == pytest.approx(1.0, abs=1e-12)
