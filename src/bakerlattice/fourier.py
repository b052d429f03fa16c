"""Harmonic analysis on the torus T^d for lattice signals.

Conventions.  The transform of a signal a is
a~(theta) = sum_alpha a_alpha exp(i alpha . theta), sampled on the uniform
grid theta in (2pi/M) {0, ..., M-1}^d.  All torus integrals use normalized
Haar measure, so L^1 and L^2 norms are plain grid means; M-point quadrature
integrates a trigonometric polynomial exactly as long as no nonzero
frequency of the integrand is a multiple of M (the aliasing rule), which is
what every "exact below bandwidth" contract below refers to.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

import numpy as np

# the coefficient inequality is numpy-free; it lives in .embedding and is re-exported
from .embedding import a_norm, nowak_check, nowak_constant, sobolev_part
from .lattice import (
    LatticeSignal,
    WalkDistribution,
    convolution_power,
    convolve,
    drift,
    origin,
)
from .rational import nearest_integer, parse_rational, record


class AliasingError(ValueError):
    """The grid is too coarse for the requested quadrature to be exact."""


@record(frozen=True, eq=False)
class TorusGrid:
    """Samples of a function on the uniform M^d grid of the torus."""

    dim: int
    points_per_axis: int
    values: np.ndarray

    def __post_init__(self):
        if self.points_per_axis < 3:
            raise ValueError("grid needs at least 3 points per axis")
        if self.values.shape != (self.points_per_axis,) * self.dim:
            raise ValueError("value array shape does not match the grid")


def smallest_grid(bandwidth: int) -> int:
    """Smallest power of two strictly larger than twice the bandwidth."""
    M = 4
    while M <= 2 * bandwidth:
        M *= 2
    return M


def char_function(a: LatticeSignal, grid_size: int) -> TorusGrid:
    """Sample a~ on the grid; exact up to rounding for any finite support.

    On grid points exp(i alpha theta_k) only depends on alpha mod M, so the
    samples are the scaled inverse FFT of the wrapped coefficient array.
    """
    M = int(grid_size)
    if M < 3:
        raise ValueError("grid needs at least 3 points per axis")
    arr = np.zeros((M,) * a.dim, dtype=complex)
    den = a.den
    for site, v in a.nums.items():
        idx = tuple(c % M for c in site)
        arr[idx] += complex(v / den)  # int / int rounds once, as float(Fraction) does
    values = np.fft.ifftn(arr) * (M**a.dim)
    return TorusGrid(a.dim, M, values)


# ---------------------------------------------------------------------------
# the box kernel


def box_signal(dim: int, r: int) -> LatticeSignal:
    """Uniform probability (2r+1)^-d on the centered box of radius r."""
    if r < 1:
        raise ValueError("box radius must be >= 1")
    return LatticeSignal(dim, dict.fromkeys(itertools.product(range(-r, r + 1), repeat=dim), 1), (2 * r + 1) ** dim)


# ---------------------------------------------------------------------------
# schedules


@record(frozen=True)
class FourierConfig:
    """Exponent bookkeeping for the defect-decay diagnostics.

    nu is the Sobolev derivative order max(2, floor(d/2)+1), at least the
    embedding order that ``nowak_check`` defaults to.  The box radius schedule is
    r_n = ceil(n^eps) (computed in integer arithmetic, no float powers).
    Hard requirement: 0 < eps < 1/3.  The sharper bound
    eps < 1/(2(5 nu + 2 + d/2)) that the decay *proof* needs is exposed as
    ``eps_proof_bound`` and reported, not enforced: the measured decay is
    meaningful for any eps below 1/3.  The walk dimension d must lie in
    1..4, where the embedding constant C_d is tabulated.
    """

    dim: int
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", parse_rational(self.eps))
        if not 0 < self.eps < Fraction(1, 3):
            raise ValueError(f"eps must lie in (0, 1/3), got {self.eps}")
        if not 1 <= self.dim <= 4:
            raise ValueError(f"walk dimension {self.dim} is outside 1..4, the dimensions with a tabulated constant C_d")

    @property
    def nu(self) -> int:
        return max(2, self.dim // 2 + 1)

    @property
    def eps_proof_bound(self) -> Fraction:
        return min(Fraction(1, 3), 1 / (2 * (5 * self.nu + 2 + Fraction(self.dim, 2))))

    @property
    def eps_within_proof_bound(self) -> bool:
        return self.eps < self.eps_proof_bound

    def radius(self, n: int) -> int:
        """r_n = ceil(n^eps), exactly: the least r with r^q >= n^p for eps = p/q."""
        if n < 1:
            raise ValueError("schedule index must be >= 1")
        p, q = self.eps.numerator, self.eps.denominator
        target = n**p
        r = 1
        while r**q < target:
            r += 1
        return r


# ---------------------------------------------------------------------------
# the defect signal p^(n) - q^(r_n) * p^(n) and its norms


@record(frozen=True, eq=False)
class DefectNorms:
    n: int
    r: int
    a_norm: float
    l1_grid: float
    sobolev: float
    bound: float

    @property
    def h_total(self) -> float:
        return self.l1_grid + self.sobolev


def _defect(p: WalkDistribution, n: int, r: int) -> LatticeSignal:
    """g = p^(n) - q^(r) * p^(n) = (delta_0 - q^(r)) * p^(n), exactly."""
    return convolve(LatticeSignal.delta(p.dim) - box_signal(p.dim, r), convolution_power(p, n))


def defect_signal(
    p: WalkDistribution, n: int, config: FourierConfig, grid_size: int
) -> tuple[LatticeSignal, DefectNorms]:
    """Exact g^(n) = p^(n) - q^(r_n) * p^(n), with its decay norms record.

    The recorded quantities are the exact l^1 coefficient norm, the grid
    L^1 norm of g~, the Sobolev part sum_i ||d_i^nu g~||_{L^2} read on the
    lattice side by Parseval (``sobolev_part``), and the embedding bound
    C_d (|g_0| + Sobolev) that ``nowak_check(g, config.nu)`` decides exactly.
    Since |g_0| <= int |g~|, the bound is never above C_d (L^1 + Sobolev).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = config.radius(n)
    g = _defect(p, n, r)
    radius = max(g.support_radius())
    M = int(grid_size)
    if M <= 2 * radius:
        raise AliasingError(f"grid {M} below the defect bandwidth {2 * radius + 1}")
    gt = char_function(g, M)
    l1 = float(np.mean(np.abs(gt.values)))
    sob = sobolev_part(g, config.nu)
    an = float(a_norm(g))
    bound = nowak_constant(p.dim) * (abs(float(g[origin(p.dim)])) + sob)
    return g, DefectNorms(n, r, an, l1, sob, bound)


# ---------------------------------------------------------------------------
# drift removal


@record(frozen=True, eq=False)
class DriftRemoval:
    """Multiplier bookkeeping for walks with nonzero mean step.

    delta is the componentwise nearest integer to n v (exact ties resolved
    toward zero), so |delta_i / n - v_i| <= 1/(2n); ``gradient_at_zero``
    holds the exact values |v_i - delta_i / n|.
    """

    n: int
    delta: tuple[int, ...]
    gradient_at_zero: tuple[Fraction, ...]

    @property
    def gradient_bound(self) -> Fraction:
        return Fraction(1, 2 * self.n)


def drift_removal(p: WalkDistribution, n: int) -> DriftRemoval:
    """The integer shift delta that removes n steps of drift, with its exact
    gradients: the multiplier exp(-i (delta . theta) / n) is 1 for a
    zero-drift walk."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v = drift(p)
    delta = tuple(nearest_integer(n * vi) for vi in v)
    return DriftRemoval(n, delta, tuple(abs(vi - Fraction(di, n)) for vi, di in zip(v, delta)))


# ---------------------------------------------------------------------------
# spectral correlation for periodic site functions


@record(frozen=True)
class PeriodicPairing:
    """Space-side and spectral-side values of sum_alpha conj(f_alpha) p^(n)_alpha."""

    space_value: Fraction
    spectral_value: complex


def periodic_pairing(table: dict, period, p: WalkDistribution, n: int) -> PeriodicPairing:
    """Pair a periodic site function with the n-step law, both ways.

    Space side: the exact sum of the table against p^(n) folded modulo the
    period.  Spectral side: the function is a finite combination of
    characters at frequencies 2 pi k / L, so the pairing is the sum over
    those frequencies of conj(c_k) p~(-theta_k)^n with c_k from the FFT of
    the period cell.  Every grid that is a multiple of the joint period
    picks up those frequencies alone, so the smallest one with at least 3
    points per axis is taken.
    """
    period = tuple(int(l) for l in period)
    base = lcm(*period)
    M = base * (-(-3 // base))
    dim = p.dim
    if len(period) != dim:
        raise ValueError("period tuple does not match the walk dimension")
    folded = convolution_power(p, n).fold(period)
    space = sum((table[r] * w for r, w in folded.entries.items()), Fraction(0))

    cell = np.zeros(period)
    for residue in np.ndindex(*period):
        cell[residue] = float(table[residue])
    tile = np.tile(cell, tuple(M // l for l in period))
    coeffs = np.fft.fftn(tile) / (M**dim)
    flipped = char_function(p.signal().reflect(), M).values  # p~(-theta)
    spectral = complex(np.sum(np.conj(coeffs) * flipped**n))
    return PeriodicPairing(space, spectral)
