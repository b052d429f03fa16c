"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (run pytest with -s to see them) and
enforces its runtime limit.  Expected values are either hand-derived
rationals frozen here or recomputed on the fly by an independent route
(naive convolution chains, brute-force sums, scipy's chi-square).
"""

import random
import time
from fractions import Fraction
from math import pi, sqrt

import numpy as np
import pytest
from scipy import stats

from bakerlattice import (
    Box,
    BoxFamily,
    Evolution,
    FourierConfig,
    LocalObservable,
    a1_boundary_constant,
    a1_defect,
    box_average_product,
    char_function,
    convolution_power,
    defect_signal,
    drift_removal,
    estimate_average,
    evolve_site,
    itinerary_oracle,
    m4_report,
    m5_report,
    nowak_check,
    nowak_constant,
    periodic_observable,
    preset,
    push_strip,
    sign_observable,
    simulate_walk,
)
from conftest import random_signal, random_site_observable, random_strip, random_walk

TI = BoxFamily.translation_invariant
CENTERED = BoxFamily.centered_only


class criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number: int, description: str, limit_seconds: float):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"[criterion {self.number:2d}] {status} ({elapsed:6.2f}s < {self.limit:g}s) {self.description}")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def test_criterion_1_oracle_equivalence():
    with criterion(1, "itinerary oracle == correlation engine, 50 random rational configs", 5.0):
        rng = random.Random(20260809)
        for case in range(50):
            dim = rng.randint(1, 2)
            p = random_walk(rng, dim, max_support=4)
            f = random_site_observable(rng, dim)
            q = random_strip(rng, dim)
            n = rng.randint(0, 6)
            oracle = itinerary_oracle(f, q, p, n)
            engine = m4_report(Evolution(f, p), LocalObservable.from_strip(q), [n]).series[n]
            assert oracle == engine, f"case {case}: {oracle} != {engine}"


def test_criterion_2_fourier_identity():
    with criterion(2, "space-side pairing equals grid Parseval value to 1e-10, n <= 64", 2.0):
        from bakerlattice import periodic_pairing

        p = preset("third-walk")
        rng = random.Random(7)
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            L = rng.randint(1, 4)
            table = {(i,): Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(L)}
            pairing = periodic_pairing(table, (L,), p, n)
            assert abs(complex(pairing.space_value) - pairing.spectral_value) < 1e-10


def test_criterion_3_m5_exact_rate():
    with criterion(3, "m5 gap of the alternating observable is exactly 3^-n, n <= 20", 1.0):
        p = preset("third-walk")
        f = periodic_observable((2,), {(0,): 1, (1,): -1})
        gaps = m5_report(Evolution(f, p), range(21)).series
        for n in range(21):
            gap = gaps[n]
            assert gap == Fraction(1, 3**n)
            # independent oracle: naive convolution chain, direct sup over residues
            law = {(0,): Fraction(1)}
            for _ in range(n):
                nxt = {}
                for s, v in law.items():
                    for b, w in p.support:
                        key = (s[0] + b[0],)
                        nxt[key] = nxt.get(key, Fraction(0)) + v * w
                law = nxt
            sup = max(
                abs(sum(w * (-1) ** ((r + b[0]) % 2) for b, w in law.items()))
                for r in (0, 1)
            )
            assert sup == gap


def test_criterion_4_sign_counterexample():
    with criterion(4, "centered-family sign correlation >= 1 - 2n/(2r+1); averages as stated", 2.0):
        p = preset("third-walk")
        sign = sign_observable()
        assert estimate_average(sign, CENTERED(1), [16, 64]).value == 0
        est = estimate_average(sign, TI(1), [16, 64])
        assert est.value is None
        for n in range(1, 11):
            ev = evolve_site(sign, p, n)
            for r in (1, 10, 100, 1000, 10**4):
                entry = box_average_product(ev, sign, Box.centered((0,), r))
                assert entry >= 1 - Fraction(2 * n, 2 * r + 1)


def test_criterion_5_irreducibility_gate():
    with criterion(5, "sublattice walk: gap stuck at 1 and |p~(pi)| = 1; full walks stay below 1", 2.0):
        red = preset("reducible-1d")
        parity = periodic_observable((2,), {(0,): 1, (1,): -1})
        gaps = m5_report(Evolution(parity, red), range(21)).series
        for n in range(21):
            assert gaps[n] == 1
        grid = char_function(red.signal(), 512)
        assert abs(grid.values[256]) == pytest.approx(1.0, abs=1e-12)  # theta = pi
        for name, M in (("third-walk", 512), ("lazy-2d", 64)):
            walk = preset(name)
            g = char_function(walk.signal(), M)
            mod = np.abs(g.values)
            mod[(0,) * walk.dim] = 0.0
            assert np.max(mod) < 1.0


def test_criterion_6_coefficient_inequality():
    with criterion(6, "C_1 = pi/sqrt(3) to 1e-3; l1 <= C_d H at 200 random signals, d <= 3", 5.0):
        assert abs(nowak_constant(1) - pi / sqrt(3)) < 1e-3
        rng = random.Random(99)
        for dim in (1, 2, 3):
            for _ in range(200):
                assert nowak_check(random_signal(rng, dim, radius=6))


def test_criterion_7_defect_norm_decay():
    with criterion(7, "defect norms decrease over n in {4,...,1024} and obey the embedding bound", 30.0):
        p = preset("third-walk")
        fc = FourierConfig(1, "1/10")
        results = [defect_signal(p, n, fc, 4096) for n in (4, 16, 64, 256, 1024)]
        totals = [row.h_total for _, row in results]
        assert all(a > b for a, b in zip(totals, totals[1:]))
        for g, row in results:
            assert nowak_check(g, fc.nu)
            assert row.a_norm <= row.bound


def test_criterion_8_boundary_defect():
    with criterion(8, "r * boundary defect below the explicit step-count constant, all presets", 5.0):
        for name in ("third-walk", "drifted-1d", "reducible-1d", "lazy-2d"):
            p = preset(name)
            bound = a1_boundary_constant(p)
            for r in (10, 100, 1000):
                assert a1_defect(p, r) * r <= bound


def test_criterion_9_measure_preservation_and_walk_law():
    with criterion(9, "exact strip-height conservation x100; chi-square vs p^(4) at 5e5 samples", 20.0):
        rng = random.Random(31337)
        for _ in range(100):
            p = random_walk(rng, 1, max_support=3)
            q = random_strip(rng, 1)
            n = rng.randint(0, 6)
            assert push_strip(q, p, n).total_height() == q.height
        p = preset("third-walk")
        hist = simulate_walk(p, 4, 500000, seed=42)
        law = convolution_power(p, 4)
        chi2 = sum(
            (hist.counts.get(s, 0) - float(w) * 500000) ** 2 / (float(w) * 500000)
            for s, w in law.entries.items()
        )
        pvalue = stats.chi2.sf(chi2, len(law.entries) - 1)
        assert pvalue > 1e-3, f"chi-square p-value {pvalue}"


def test_criterion_10_drift_removal():
    with criterion(10, "drift multiplier gradient within 1/(2n); zero-drift multiplier exactly 1", 2.0):
        drifted = preset("drifted-1d")
        for n in (3, 10, 100):
            removal = drift_removal(drifted, n)
            for g in removal.gradient_at_zero:
                assert g <= removal.gradient_bound
        for name in ("third-walk", "lazy-2d"):
            p = preset(name)
            removal = drift_removal(p, 5)
            assert removal.delta == (0,) * p.dim and removal.gradient_at_zero == (0,) * p.dim
