"""The l^1 versus Sobolev coefficient inequality on Z^d, without numpy.

||a||_l1 <= C_d ||a~||_{H^nu_bar} with nu_bar = floor(d/2) + 1, where the
Sobolev norm is read on the lattice side by Parseval:
||a~||_{H^nu} = |a_0| + sum_i sqrt(S_i), S_i = sum_alpha alpha_i^(2 nu) a_alpha^2.
Each S_i is summed exactly over the integer numerators of the signal, so
``nowak_check`` decides the inequality with no tolerance.  ``fourier``
re-exports every name here; only this module is loaded by the ``nowak-test``
command.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, sqrt

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


def a_norm(a: LatticeSignal) -> Fraction:
    """Exact l^1 norm of the coefficients (the absolutely-convergent-series norm),
    summed over the integer numerators: one Fraction, not one per site."""
    return Fraction(sum(map(abs, a.nums.values())), a.den)


# the last (signal, order, sums), the signal held so that no other object takes
# its id: fourier-decay reads each defect's sums for sobolev_part and nowak_check
_last_sums: tuple = (None, 0, ())


def _sobolev_sums(a: LatticeSignal, order: int) -> tuple[int, ...]:
    """T_i = sum_alpha alpha_i^(2 order) n_alpha^2 over the numerators n_alpha
    of the signal, so that S_i = T_i / den^2."""
    global _last_sums
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    if _last_sums[0] is not a or _last_sums[1] != order:
        squares = {s: v * v for s, v in a.nums.items()}
        _last_sums = (a, order, tuple(sum(v * s[i] ** (2 * order) for s, v in squares.items()) for i in range(a.dim)))
    return _last_sums[2]


def sobolev_part(a: LatticeSignal, order: int) -> float:
    """sum_i ||d_i^order a~||_{L^2} = sum_i sqrt(S_i), from the exact S_i."""
    den2 = a.den * a.den
    return sum(sqrt(t / den2) for t in _sobolev_sums(a, order))


def nowak_constant(d: int) -> float:
    """Constant C_d with ||a||_l1 <= C_d ||a~||_{H^nu_bar} on Z^d (d <= 4)."""
    if not 1 <= d <= 4:
        raise ValueError("constant table is precomputed for d <= 4 only")
    return max(1.0, factorial(d - 1) * sqrt(NESTED_TAIL_CONSTANTS[d]))


def nowak_check(a: LatticeSignal, order: int | None = None) -> bool:
    """Decide ||a||_l1 <= C_d (|a_0| + sum_i sqrt(S_i)) exactly, with no tolerance.

    S_i is taken at the derivative ``order`` (default nu_bar) and C_d = p/q
    is the exact dyadic value of ``nowak_constant(d)``.  Over the common
    denominator the claim reads q sum|n_alpha| - p |n_0| <= p sum_i sqrt(T_i)
    in integers, and floor(2^k sqrt(T_i)) <= 2^k sqrt(T_i) < that floor + 1
    brackets the right side.  A perfect square T_i is bracketed exactly, so
    equality (possible only when every S_i is a rational square) passes in
    the first round; any other case differs by a nonzero amount, which
    doubling k resolves in finitely many rounds.
    """
    sums = _sobolev_sums(a, a.dim // 2 + 1 if order is None else order)
    p, q = nowak_constant(a.dim).as_integer_ratio()
    gap = q * sum(map(abs, a.nums.values())) - p * abs(a.nums.get(origin(a.dim), 0))
    k = 64
    while True:
        low = sum(isqrt(t << (2 * k)) for t in sums)
        if gap << k <= p * low:
            return True
        if gap << k >= p * (low + len(sums)):
            return False
        k *= 2
