"""The l^1 versus Sobolev coefficient inequality on Z^d, without numpy.

||a||_l1 <= C_d ||a~||_{H^nu_bar} with nu_bar = floor(d/2) + 1, where the
Sobolev norm is read on the lattice side by Parseval:
||a~||_{H^nu_bar} = |a_0| + sum_i (sum_alpha |alpha_i^nu_bar a_alpha|^2)^(1/2).
``fourier`` re-exports every name here; only this module is loaded by the
``nowak-test`` command.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, sqrt

from .lattice import LatticeSignal, origin

# Upper bounds for the nested sum over 0 < |b_1| <= ... <= |b_d| of
# b_d^(-2 nu_bar).  Collapsing the ordered tuples gives
# 2^d sum_l C(l+d-2, d-1) l^(-2 nu_bar); each value is that sum in float64
# truncated at l = 10^6, plus the comparison integral over the tail
# (C(x+d-2, d-1) <= (x+d-2)^(d-1) / (d-1)!), so it stays an upper bound.
# tests/test_fourier.py recomputes the derivation and asserts equality.
NESTED_TAIL_CONSTANTS = {
    1: 3.2898681336974525,
    2: 4.808227612638376,
    3: 11.38796388003928,
    4: 17.394352305545997,
}


def a_norm(a: LatticeSignal):
    """l^1 norm of the coefficients (the absolutely-convergent-series norm).

    Exact (a Fraction) when the signal is exact, float otherwise.
    """
    if a.is_exact:
        return sum((abs(v) for v in a.entries.values()), Fraction(0))
    return float(sum(abs(v) for v in a.entries.values()))


def h_norm(a: LatticeSignal, nu_bar: int) -> float:
    """|a_0| + sum_i (sum_alpha |alpha_i^nu_bar a_alpha|^2)^(1/2)."""
    if nu_bar < 1:
        raise ValueError("derivative order must be >= 1")
    zero = abs(complex(a[origin(a.dim)]))
    total = zero
    for i in range(a.dim):
        sq = sum(abs(complex(v)) ** 2 * s[i] ** (2 * nu_bar) for s, v in a.entries.items())
        total += sqrt(sq)
    return float(total)


def nowak_constant(d: int) -> float:
    """Constant C_d with ||a||_l1 <= C_d ||a~||_{H^nu_bar} on Z^d (d <= 4)."""
    if not 1 <= d <= 4:
        raise ValueError("constant table is precomputed for d <= 4 only")
    return max(1.0, factorial(d - 1) * sqrt(NESTED_TAIL_CONSTANTS[d]))


def nowak_check(a: LatticeSignal) -> bool:
    """Verify the l^1 versus Sobolev coefficient inequality for one signal."""
    nu_bar = a.dim // 2 + 1
    lhs = float(a_norm(a))
    rhs = nowak_constant(a.dim) * h_norm(a, nu_bar)
    return lhs <= rhs * (1 + 1e-12) + 1e-12
