#!/usr/bin/env python3
"""Five mixing notions on one walk, with exact rates.

The alternating site observable f(alpha) = (-1)^alpha is an eigenvector of
the site evolution: one step multiplies it by p~(pi) = -1/3.  Every mixing
estimator therefore has a closed-form answer here, which the library
reproduces as exact rationals, and the rate fitter recovers log 3.
"""

from fractions import Fraction
from math import log

from bakerlattice import (
    BoxFamily,
    Evolution,
    LocalObservable,
    m1_report,
    m2_table,
    m4_report,
    m5_report,
    periodic_observable,
    preset,
    rate_profile,
)

p = preset("third-walk")
parity = periodic_observable((2,), {(0,): 1, (1,): -1})
P = Evolution(parity, p)
family = BoxFamily.translation_invariant(1)
g = LocalObservable.unit_square((0,))

print("Global observable: f(alpha) = (-1)^alpha, Av(f) = 0")
print()

print("M4 (global-local): mu((f o T^n) 1_{S_0}) and M5 (uniform over strips):")
print(f"  {'n':>3} {'correlation':>14} {'m5 gap':>10}")
correlations, gaps = m4_report(P, g, range(9)).series, m5_report(P, range(9)).series
for n in range(9):
    print(f"  {n:>3} {str(correlations[n]):>14} {str(gaps[n]):>10}")
print()

fit = rate_profile(m5_report(P, range(1, 16)))
print(f"Fitted exponential decay rate: {fit.exponential_rate:.6f} (log 3 = {log(3):.6f})")
print()

print("M2 (global-global, box-averaged): entries converge jointly in n and r,")
print("and the eps-M scan certifies the joint limit on the computed grid:")
other = periodic_observable((3,), {(0,): 1, (1,): 0, (2,): -1})
report = m2_table(P, Evolution(other, p), range(1, 13), [2, 8, 32, 128], family,
                  eps_schedule=(Fraction(1, 10), Fraction(1, 1000)))
for (n, r) in [(1, 2), (4, 8), (8, 32), (12, 128)]:
    print(f"  n={n:>2} r={r:>3}: deviation {float(abs(report.series[(n, r)])):.2e}")
for eps, threshold in report.eps_scan.items():
    print(f"  eps = {eps}: joint threshold M = {threshold}")
print()

print("M1 (averaged product): Av((f o T^n) f) exists for periodic pairs and")
print("decays to Av(f)^2 = 0:")
for n, value in m1_report(P, P, range(6)).series.items():
    print(f"  n={n}: {value}")
