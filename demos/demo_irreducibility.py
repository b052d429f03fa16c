#!/usr/bin/env python3
"""Irreducibility as a mixing gate.

If the differences of the walk's steps only span a proper sublattice of
Z^d, some character of the lattice is invariant under the evolution and no
mixing notion can hold.  The walk with steps {0, +2} preserves the parity
of the site forever; on the torus side its characteristic function has
modulus 1 at theta = pi.
"""

import numpy as np

from bakerlattice import (
    Evolution,
    char_function,
    m5_report,
    periodic_observable,
    preset,
    span_check,
)

parity = periodic_observable((2,), {(0,): 1, (1,): -1})

for name in ("third-walk", "reducible-1d"):
    p = preset(name)
    verdict = span_check(p)
    print(f"{name}: span of step differences -> {verdict.verdict}", end="")
    if not verdict.full:
        print(f" (basis {verdict.basis})")
    else:
        print()
    gaps = m5_report(Evolution(parity, p), range(8)).series.values()
    print("  m5 gap of the parity observable:", ", ".join(str(g) for g in gaps))
    grid = char_function(p.signal(), 256)
    mod = np.abs(grid.values)
    mod[0] = 0
    print(f"  max |p~| off zero on a 256-grid: {mod.max():.12f}")
    print()

print("The span check returns the exact torus witness for the sublattice walk:")
(k,) = span_check(preset("reducible-1d")).witness
print(f"  k = {k} turns: k (beta - beta0) is an integer for every step, so |p~(2 pi k)| = 1")
print("  (theta = 2 pi k = pi: the parity character never decays, so the gap is stuck at 1)")
