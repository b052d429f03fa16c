"""Shared fixtures and random generators for the test suite."""

import random
from fractions import Fraction

import pytest

from bakerlattice import (
    Box,
    LatticeSignal,
    Strip,
    WalkDistribution,
    localized_observable,
    periodic_observable,
    preset,
)


@pytest.fixture
def third():
    return preset("third-walk")


@pytest.fixture
def drifted():
    return preset("drifted-1d")


@pytest.fixture
def reducible():
    return preset("reducible-1d")


@pytest.fixture
def lazy2d():
    return preset("lazy-2d")


def nearest_neighbour_2d() -> WalkDistribution:
    """Steps +-e1, +-e2, weight 1/4 each: the differences span the checkerboard sublattice."""
    quarter = Fraction(1, 4)
    return WalkDistribution.from_weights(2, {(1, 0): quarter, (-1, 0): quarter, (0, 1): quarter, (0, -1): quarter})


def random_walk(rng: random.Random, dim: int, max_support: int = 4, reach: int = 2) -> WalkDistribution:
    """Random finite-support walk with exact rational weights summing to 1."""
    n = rng.randint(2, max_support)
    sites = set()
    while len(sites) < n:
        sites.add(tuple(rng.randint(-reach, reach) for _ in range(dim)))
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    weights = {s: Fraction(w, total) for s, w in zip(sorted(sites), raw)}
    return WalkDistribution.from_weights(dim, weights)


def random_periodic(rng: random.Random, dim: int, max_period: int = 3):
    period = tuple(rng.randint(1, max_period) for _ in range(dim))
    table = {}
    for residue in _cell(period):
        table[residue] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return periodic_observable(period, table)


def random_localized(rng: random.Random, dim: int, radius: int = 2):
    box = Box.centered(tuple(rng.randint(-2, 2) for _ in range(dim)), radius)
    table = {}
    for site in box.sites():
        if rng.random() < 0.5:
            table[site] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    constant = Fraction(rng.randint(-3, 3))
    return localized_observable(dim, constant, box, table)


def random_site_observable(rng: random.Random, dim: int):
    if rng.random() < 0.5:
        return random_periodic(rng, dim)
    return random_localized(rng, dim)


def random_strip(rng: random.Random, dim: int, reach: int = 3) -> Strip:
    site = tuple(rng.randint(-reach, reach) for _ in range(dim))
    den = rng.randint(2, 12)
    lo = rng.randint(0, den - 2)
    hi = rng.randint(lo + 1, den - 1)
    return Strip(site, Fraction(lo, den), Fraction(hi, den))


def random_signal(rng: random.Random, dim: int, radius: int = 6, max_entries: int = 6) -> LatticeSignal:
    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        site = tuple(rng.randint(-radius, radius) for _ in range(dim))
        entries[site] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return LatticeSignal.from_entries(dim, entries)


def _cell(period):
    import itertools

    return itertools.product(*(range(l) for l in period))
