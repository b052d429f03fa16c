"""Exact arithmetic on finitely supported functions over the lattice Z^d.

Walk distributions are finite probability vectors with exact rational
weights.  Signals are finitely supported rational functions on Z^d, so
convolutions, moments, drift and the boundary-defect computation stay
rational and tests can assert equalities instead of tolerances.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod, sqrt
from typing import Iterable, Mapping

from .rational import check_keys, format_rational, parse_integer, parse_integers, parse_rational, record

Site = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Operands live on lattices of different dimension."""


def _as_site(coords, dim: int | None = None) -> Site:
    site = tuple(int(c) for c in coords)
    if any(c != int(c) for c in coords):
        raise TypeError(f"lattice point must have integer coordinates: {coords!r}")
    if dim is not None and len(site) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got point {site}")
    return site


def origin(dim: int) -> Site:
    return (0,) * dim


@record(frozen=True, eq=True)
class LatticeSignal:
    """Finitely supported function on Z^d; exact zeros are never stored."""

    dim: int
    entries: dict

    @classmethod
    def from_entries(cls, dim: int, entries: Mapping) -> "LatticeSignal":
        clean = {}
        for coords, value in entries.items():
            if value == 0:
                continue
            clean[_as_site(coords, dim)] = value
        return cls(dim, clean)

    @classmethod
    def delta(cls, dim: int) -> "LatticeSignal":
        return cls(dim, {origin(dim): Fraction(1)})

    def __getitem__(self, coords) -> object:
        return self.entries.get(_as_site(coords, self.dim), 0)

    def __len__(self) -> int:
        return len(self.entries)

    def mass(self):
        return sum(self.entries.values())

    def support_radius(self) -> tuple[int, ...]:
        """Per-axis bound max |alpha_i| over the support (0 if empty)."""
        if not self.entries:
            return (0,) * self.dim
        return tuple(max(abs(s[i]) for s in self.entries) for i in range(self.dim))

    def shift(self, gamma) -> "LatticeSignal":
        g = _as_site(gamma, self.dim)
        return LatticeSignal(
            self.dim,
            {tuple(a + b for a, b in zip(s, g)): v for s, v in self.entries.items()},
        )

    def reflect(self) -> "LatticeSignal":
        """alpha -> a_{-alpha}: convolving with the reflection correlates."""
        return LatticeSignal(self.dim, {tuple(-c for c in s): v for s, v in self.entries.items()})

    def fold(self, period) -> "LatticeSignal":
        """Sum of the entries per residue class, keyed by residues in [0, period)."""
        out: dict = {}
        for s, v in self.entries.items():
            key = tuple(c % l for c, l in zip(s, period))
            out[key] = out.get(key, 0) + v
        return LatticeSignal.from_entries(self.dim, out)

    def scale(self, factor) -> "LatticeSignal":
        if factor == 0:
            return LatticeSignal(self.dim, {})
        return LatticeSignal(self.dim, {s: factor * v for s, v in self.entries.items()})

    def __add__(self, other: "LatticeSignal") -> "LatticeSignal":
        if self.dim != other.dim:
            raise DimensionMismatchError("signal dimensions differ")
        out = dict(self.entries)
        for s, v in other.entries.items():
            w = out.get(s, 0) + v
            if w == 0:
                out.pop(s, None)
            else:
                out[s] = w
        return LatticeSignal(self.dim, out)

    def __sub__(self, other: "LatticeSignal") -> "LatticeSignal":
        return self + other.scale(-1)


@record(frozen=True)
class WalkDistribution:
    """Finite-support step distribution {p_beta} on Z^d with rational weights.

    The support is kept in lexicographic order; this fixes the enumeration
    j -> beta^(j) used by the phase-space partition.  N = 1 is rejected by
    default (a single deterministic step carries no randomness) but can be
    allowed where only the characteristic function is needed.
    """

    dim: int
    support: tuple[tuple[Site, Fraction], ...]

    @classmethod
    def from_weights(cls, dim: int, weights: Mapping, allow_trivial: bool = False) -> "WalkDistribution":
        items = []
        for coords, w in weights.items():
            site = _as_site((coords,) if isinstance(coords, int) else coords, dim)
            weight = parse_rational(w)
            if weight <= 0:
                raise ValueError(f"weight for step {site} must be positive, got {weight}")
            items.append((site, weight))
        items.sort(key=lambda it: it[0])
        sites = [s for s, _ in items]
        if len(set(sites)) != len(sites):
            raise ValueError("support points must be pairwise distinct")
        total = sum(w for _, w in items)
        if total != 1:
            raise ValueError(f"weights must sum to 1 exactly, got {total}")
        if len(items) < 2 and not allow_trivial:
            raise ValueError("walk needs at least two active directions (N >= 2)")
        return cls(dim, tuple(items))

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def sites(self) -> tuple[Site, ...]:
        return tuple(s for s, _ in self.support)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, w in self.support)

    @property
    def max_step(self) -> int:
        """max |beta|_inf over the support."""
        return max(max(abs(c) for c in s) for s in self.sites)

    def signal(self) -> LatticeSignal:
        return LatticeSignal(self.dim, dict(self.support))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "support": [
                {"beta": list(site), "p": format_rational(w)} for site, w in self.support
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, allow_trivial: bool = False) -> "WalkDistribution":
        """The walk ``to_json_dict`` writes; a key it does not write is a ConfigError."""
        check_keys(data, "", {"dim", "support"})
        dim = parse_integer(data["dim"])
        weights = {}
        for k, entry in enumerate(data["support"]):
            check_keys(entry, f"support[{k}]", {"beta", "p"})
            weights[parse_integers(entry["beta"])] = parse_rational(entry["p"])
        return cls.from_weights(dim, weights, allow_trivial=allow_trivial)


# ---------------------------------------------------------------------------
# convolution
#
# Signals are multiplied in integer form: integer numerators over one
# common denominator, with Fractions built once, for the result.


def _integer_form(sig: LatticeSignal) -> tuple[dict, int]:
    """Common-denominator form (integer numerators, positive denominator)."""
    den = lcm(*{int(v.denominator) for v in sig.entries.values()})
    return {s: int(v.numerator) * (den // int(v.denominator)) for s, v in sig.entries.items()}, den


def _from_integer_form(dim: int, nums: dict, den: int) -> LatticeSignal:
    return LatticeSignal(dim, {s: Fraction(v, den) for s, v in nums.items() if v})


def _convolve_entries(a: dict, b: dict) -> dict:
    """site -> sum over sa + sb = site of a[sa] * b[sb], as a double loop."""
    out: dict = {}
    if len(a) > len(b):  # iterate the smaller outer dict
        a, b = b, a
    for sa, va in a.items():
        for sb, vb in b.items():
            key = tuple(x + y for x, y in zip(sa, sb))
            out[key] = out.get(key, 0) + va * vb
    return out


def _kronecker(a: dict, b: dict, n: int = 1) -> dict:
    """Integer numerators of a^(*n) * b for nonempty integer-valued a and b.

    Kronecker substitution (Harvey, J. Symb. Comput. 2009): each operand
    becomes one int with a byte-aligned slot of k bytes per site of the
    result's bounding box (row-major, last axis fastest), so the product is
    one multiply and the power one ``**``.  k bytes hold twice the bound
    (sum|a|)^n sum|b| on every |coefficient|, so no slot carries over.
    Negative entries are packed as a positive part minus a negative part;
    adding half a slot to every slot makes each result digit nonnegative
    before the bytes are read back.  The result is keyed lexicographically.

    Sparse operands, whose box has more slots than the double loop forms
    products (len(a) len(b) for n = 1, at most len(a) len(b) C(n+|a|-1, |a|)
    in n passes), go through _convolve_entries instead; n = 0 always does.
    """
    dim = len(next(iter(a)))
    lo = [n * min(s[i] for s in a) + min(s[i] for s in b) for i in range(dim)]
    hi = [n * max(s[i] for s in a) + max(s[i] for s in b) for i in range(dim)]
    widths = [h - l + 1 for l, h in zip(lo, hi)]
    slots = prod(widths)
    if slots > len(a) * len(b) * comb(n + len(a) - 1, len(a)):
        for _ in range(n):
            b = _convolve_entries(b, a)
        return b
    strides = [prod(widths[i + 1 :]) for i in range(dim)]
    k = (sum(map(abs, a.values())) ** n * sum(map(abs, b.values()))).bit_length() // 8 + 1

    def pack(x: dict) -> int:
        corner = [min(s[i] for s in x) for i in range(dim)]
        size = k * (1 + sum((max(s[i] for s in x) - corner[i]) * strides[i] for i in range(dim)))
        pos, neg = bytearray(size), bytearray(size)
        for s, v in x.items():
            o = k * sum((c - m) * w for c, m, w in zip(s, corner, strides))
            (pos if v > 0 else neg)[o : o + k] = abs(v).to_bytes(k, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    bias = 1 << (8 * k - 1)
    zero = bias.to_bytes(k, "little")
    data = (pack(a) ** n * pack(b) + int.from_bytes(zero * slots, "little")).to_bytes(k * slots, "little")
    out = {}
    sites = itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
    for site, o in zip(sites, range(0, k * slots, k)):
        digit = data[o : o + k]
        if digit != zero:
            out[site] = int.from_bytes(digit, "little") - bias
    return out


def convolve(a: LatticeSignal, b: LatticeSignal) -> LatticeSignal:
    """(a * b)_alpha = sum_beta a_beta b_{alpha-beta}, exactly."""
    if a.dim != b.dim:
        raise DimensionMismatchError("cannot convolve signals of different dimension")
    if not (a.entries and b.entries):
        return LatticeSignal(a.dim, {})
    na, da = _integer_form(a)
    nb, db = _integer_form(b)
    return _from_integer_form(a.dim, _kronecker(na, nb), da * db)


# Laws kept by convolution_power: the reports ask for the same (walk, n) once
# per report kind and per observable.
LAW_CACHE_SIZE = 64


@lru_cache(maxsize=LAW_CACHE_SIZE)
def convolution_power(p: WalkDistribution, n: int) -> LatticeSignal:
    """n-step law p^(n) (p^(0) = delta_0), exact: one packed power.

    The LAW_CACHE_SIZE most recent laws are cached and shared between
    callers, so callers must not mutate the returned ``entries``.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    nums, den = _integer_form(p.signal())
    return _from_integer_form(p.dim, _kronecker(nums, {origin(p.dim): 1}, n), den**n)


# ---------------------------------------------------------------------------
# moments and drift


def drift(p: WalkDistribution) -> tuple[Fraction, ...]:
    """Mean step v = sum_beta beta p_beta, exact per component."""
    return tuple(
        sum((w * s[i] for s, w in p.support), Fraction(0)) for i in range(p.dim)
    )


def moment(p: WalkDistribution, k: int) -> Fraction | float:
    """sum_beta |beta|^k p_beta with the Euclidean norm.

    Even k is exact: a ``Fraction`` summed from the rational |beta|^2 powers.
    Odd k is a float, because |beta| is irrational in general.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if k % 2 == 0:
        return sum(
            (w * Fraction(sum(c * c for c in s)) ** (k // 2) for s, w in p.support),
            Fraction(0),
        )
    return float(sum(float(w) * sqrt(sum(c * c for c in s)) ** k for s, w in p.support))


# ---------------------------------------------------------------------------
# irreducibility (span of step differences)


@record(frozen=True)
class SpanVerdict:
    """Outcome of the step-difference span computation.

    ``basis`` holds a Hermite-form basis (staircase rows, positive pivots)
    of the subgroup generated by {beta^(j) - beta^(j')}.  The subgroup is all
    of Z^d exactly when there are d rows, each with pivot 1.
    """

    full: bool
    basis: tuple[Site, ...]

    @property
    def verdict(self) -> str:
        return "FullLattice" if self.full else "Sublattice"

    @property
    def witness(self) -> tuple[Fraction, ...] | None:
        """A torus frequency k, in turns, that the walk leaves invariant.

        k lies in [0, 1)^d, is not 0, and k . b is an integer for every basis
        row b, hence for every step difference: |p~(2 pi k)| = 1 exactly.
        None exactly when the span is full.  k comes from back-substitution
        on the basis B: with a column that has no pivot, k is 1/2 at the first
        such column, 0 at the others, and B k = 0; otherwise B k = e_i for the
        first row i whose pivot is above 1.
        """
        if self.full:
            return None
        dim = len(self.basis[0])
        pivots = [next(j for j, x in enumerate(row) if x) for row in self.basis]
        k = [Fraction(0)] * dim
        rhs = [0] * len(pivots)
        free = [j for j in range(dim) if j not in pivots]
        if free:
            k[free[0]] = Fraction(1, 2)
        else:
            rhs[next(i for i, (row, c) in enumerate(zip(self.basis, pivots)) if row[c] > 1)] = 1
        for row, c, target in reversed(list(zip(self.basis, pivots, rhs))):
            known = sum((x * y for x, y in zip(row[c + 1 :], k[c + 1 :])), Fraction(0))
            k[c] = (target - known) / row[c]
        return tuple(x % 1 for x in k)


def _hermite_basis(rows: Iterable[Site], dim: int) -> list[list[int]]:
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    col = 0
    while work and col < dim:
        pivot_rows = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pivot_rows:
            col += 1
            continue
        while len(pivot_rows) > 1:
            pivot_rows.sort(key=lambda r: abs(r[col]))
            piv = pivot_rows[0]
            reduced = [piv]
            for row in pivot_rows[1:]:
                q = row[col] // piv[col]
                new = [x - q * y for x, y in zip(row, piv)]
                if new[col] != 0:
                    reduced.append(new)
                elif any(new):
                    rest.append(new)
            pivot_rows = reduced
        piv = pivot_rows[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = rest
        col += 1
    # reduce entries above each pivot for a canonical form
    for i in reversed(range(len(basis))):
        pcol = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            q = basis[k][pcol] // basis[i][pcol]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return basis


def span_check(p: WalkDistribution) -> SpanVerdict:
    """Decide whether the step differences generate all of Z^d.

    The differences are taken from the first support point; the subgroup
    generated by {beta^(j) - beta^(j')} is the same for every base j'.
    """
    if p.size < 2:
        raise ValueError("span check needs at least two support points")
    base = p.sites[0]
    rows = [tuple(a - b for a, b in zip(s, base)) for s in p.sites]
    basis = _hermite_basis(rows, p.dim)
    full = len(basis) == p.dim and all(
        next(x for x in row if x != 0) == 1 for row in basis
    )
    return SpanVerdict(full, tuple(tuple(r) for r in basis))


# ---------------------------------------------------------------------------
# box families (named here, so a config is checked without loading the observables)


TRANSLATION_INVARIANT = "translationInvariant"
CENTERED_ONLY = "centeredOnly"


@record(frozen=True)
class BoxFamily:
    """Exhaustive family of boxes determining the infinite-volume limit.

    The translation-invariant family contains boxes around every center; the
    centered-only family restricts to boxes around the origin, which accepts
    more observables as averageable but is blind to where mass sits.
    """

    dim: int
    kind: str

    def __post_init__(self):
        if self.kind not in (TRANSLATION_INVARIANT, CENTERED_ONLY):
            raise ValueError(f"unknown family kind {self.kind!r}")

    @classmethod
    def translation_invariant(cls, dim: int) -> "BoxFamily":
        return cls(dim, TRANSLATION_INVARIANT)

    @classmethod
    def centered_only(cls, dim: int) -> "BoxFamily":
        return cls(dim, CENTERED_ONLY)

    @property
    def translation_invariant_p(self) -> bool:
        return self.kind == TRANSLATION_INVARIANT


# ---------------------------------------------------------------------------
# boundary defect of centered boxes (compatibility of dynamics and averaging)


def a1_defect(p: WalkDistribution, r: int) -> Fraction:
    """Exact ratio mu(T V_r symdiff V_r) / mu(V_r) for V_r over the box B_{0,r}.

    Mass leaving the box under one step and mass entering it are counted per
    step beta; for a box of side 2r+1 both counts equal
    (2r+1)^d - prod_i max(0, 2r+1 - |beta_i|).
    """
    if r < 1:
        raise ValueError("box radius must be >= 1")
    side = 2 * r + 1
    volume = side**p.dim
    total = Fraction(0)
    for site, w in p.support:
        stay = 1
        for c in site:
            stay *= max(0, side - abs(c))
        total += w * 2 * (volume - stay)
    return total / volume


def a1_boundary_constant(p: WalkDistribution) -> Fraction:
    """Explicit constant bounding r * a1_defect(p, r) for every r >= 1."""
    return p.dim * sum((w * max(abs(c) for c in s) for s, w in p.support), Fraction(0))
