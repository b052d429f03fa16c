#!/usr/bin/env python3
"""The torus-side decay machinery behind the uniform mixing rate.

The n-step law minus its own box average, g^(n) = p^(n) - q^(r_n) * p^(n),
controls how fast global-local correlations settle.  Its l^1 coefficient
norm is dominated by a dimensional constant times a grid-computable
L^1 + Sobolev norm of the transform; both sides are measured here along the
schedule r_n = ceil(n^eps).  The drift of a biased walk is removed on the
torus side by a unimodular multiplier whose gradient at 0 is at most 1/(2n).
"""

from bakerlattice import (
    FourierConfig,
    defect_signal,
    drift_removal,
    nowak_constant,
    preset,
)
from bakerlattice.svgplot import write_loglog_svg

p = preset("third-walk")
fc = FourierConfig(1, "1/10")
print(f"Schedule: eps = {fc.eps} (proof-grade bound would be {fc.eps_proof_bound}),")
print(f"Sobolev order nu = {fc.nu}, embedding constant C_1 = {nowak_constant(1):.4f}")
print()

print("Defect norms along n (grid 4096 points):")
print(f"  {'n':>5} {'r_n':>4} {'l1_grid':>10} {'sobolev':>9} {'l1+sob':>9} {'a_norm':>10} {'C_d bound':>10}")
rows = []
for n in (4, 16, 64, 256, 1024):
    _, norms = defect_signal(p, n, fc, 4096)
    rows.append(norms)
    print(
        f"  {norms.n:>5} {norms.r:>4} {norms.l1_grid:>10.3e} {norms.sobolev:>9.3e}"
        f" {norms.h_total:>9.3e} {norms.a_norm:>10.3e} {norms.bound:>10.3e}"
    )
print("The combined norm decreases monotonically and always dominates a_norm.")
write_loglog_svg(
    "defect_decay.svg",
    "defect norm decay",
    [r.n for r in rows],
    {"l1_grid": [r.l1_grid for r in rows], "sobolev": [r.sobolev for r in rows],
     "a_norm": [r.a_norm for r in rows]},
)
print("Wrote defect_decay.svg")
print()

drifted = preset("drifted-1d")
print("Drift removal for the biased walk (v = 1/3):")
for n in (3, 10, 100):
    removal = drift_removal(drifted, n)
    print(f"  n={n:>3}: delta = {removal.delta[0]:>2},"
          f" |gradient at 0| = {removal.gradient_at_zero[0]} <= 1/(2n) = {removal.gradient_bound}")
