"""Exact arithmetic on finitely supported functions over the lattice Z^d.

Walk distributions are finite probability vectors with exact rational
weights.  Signals are finitely supported rational functions on Z^d, so
convolutions, drift and the boundary-defect computation stay
rational and tests can assert equalities instead of tolerances.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
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
    """Finitely supported rational function on Z^d: integer numerators over
    one positive denominator, reduced (no zero stored, and the denominator
    and the numerators have gcd 1), so equal signals are equal records.
    ``entries`` (site -> Fraction) is a view built on first read."""

    dim: int
    nums: dict  # site -> nonzero int
    den: int = 1

    @classmethod
    def reduced(cls, dim: int, nums: Mapping, den: int) -> "LatticeSignal":
        nums = {s: v for s, v in nums.items() if v}
        g = gcd(den, *nums.values())
        return cls(dim, {s: v // g for s, v in nums.items()} if g > 1 else nums, den // g)

    @classmethod
    def from_entries(cls, dim: int, entries: Mapping) -> "LatticeSignal":
        """Rational values keyed by site, over their least common denominator, which leaves them reduced."""
        values = {_as_site(coords, dim): Fraction(v) for coords, v in entries.items() if v != 0}
        den = lcm(*(v.denominator for v in values.values()))
        return cls(dim, {s: v.numerator * (den // v.denominator) for s, v in values.items()}, den)

    @classmethod
    def delta(cls, dim: int) -> "LatticeSignal":
        return cls(dim, {origin(dim): 1})

    @cached_property
    def entries(self) -> dict:
        return {s: Fraction(v, self.den) for s, v in self.nums.items()}

    def __getitem__(self, coords) -> Fraction:
        return Fraction(self.nums.get(_as_site(coords, self.dim), 0), self.den)

    def __len__(self) -> int:
        return len(self.nums)

    def mass(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.den)

    def support_radius(self) -> tuple[int, ...]:
        """Per-axis bound max |alpha_i| over the support (0 if empty)."""
        return tuple(max((abs(s[i]) for s in self.nums), default=0) for i in range(self.dim))

    def reflect(self) -> "LatticeSignal":
        """alpha -> a_{-alpha}: convolving with the reflection correlates."""
        return LatticeSignal(self.dim, {tuple(-c for c in s): v for s, v in self.nums.items()}, self.den)

    def fold(self, period) -> "LatticeSignal":
        """Sum of the entries per residue class, keyed by residues in [0, period)."""
        out: dict = {}
        for s, v in self.nums.items():
            key = tuple(c % l for c, l in zip(s, period))
            out[key] = out.get(key, 0) + v
        return LatticeSignal.reduced(self.dim, out, self.den)

    def __add__(self, other: "LatticeSignal") -> "LatticeSignal":
        if self.dim != other.dim:
            raise DimensionMismatchError("signal dimensions differ")
        den = lcm(self.den, other.den)
        mine, theirs = den // self.den, den // other.den
        out = {s: v * mine for s, v in self.nums.items()}
        for s, v in other.nums.items():
            out[s] = out.get(s, 0) + v * theirs
        return LatticeSignal.reduced(self.dim, out, den)

    def __sub__(self, other: "LatticeSignal") -> "LatticeSignal":
        return self + LatticeSignal(other.dim, {s: -v for s, v in other.nums.items()}, other.den)


@record(frozen=True)
class WalkDistribution:
    """Finite-support step distribution {p_beta} on Z^d with rational weights.

    The support is kept in lexicographic order; this fixes the enumeration
    j -> beta^(j) used by the phase-space partition.  N = 1 is rejected (a
    single deterministic step carries no randomness).
    """

    dim: int
    support: tuple[tuple[Site, Fraction], ...]

    @classmethod
    def from_weights(cls, dim: int, weights: Mapping) -> "WalkDistribution":
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
        if len(items) < 2:
            raise ValueError("walk needs at least two active directions (N >= 2)")
        return cls(dim, tuple(items))

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def sites(self) -> tuple[Site, ...]:
        return tuple(s for s, _ in self.support)

    @property
    def max_step(self) -> int:
        """max |beta|_inf over the support."""
        return max(max(abs(c) for c in s) for s in self.sites)

    def signal(self) -> LatticeSignal:
        return LatticeSignal.from_entries(self.dim, dict(self.support))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "support": [
                {"beta": list(site), "p": format_rational(w)} for site, w in self.support
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "WalkDistribution":
        """The walk ``to_json_dict`` writes; a key it does not write is a ConfigError."""
        check_keys(data, "", {"dim", "support"})
        dim = parse_integer(data["dim"])
        weights = {}
        for k, entry in enumerate(data["support"]):
            check_keys(entry, f"support[{k}]", {"beta", "p"})
            weights[parse_integers(entry["beta"])] = parse_rational(entry["p"])
        return cls.from_weights(dim, weights)


# ---------------------------------------------------------------------------
# convolution: the numerators multiply, and so do the denominators.  Kronecker
# substitution (Harvey, J. Symb. Comput. 2009) packs integer coefficients into
# one int, a byte-aligned slot of k bytes per site of a box, row-major.


def _convolve_entries(a: dict, b: dict) -> dict:
    """site -> sum over sa + sb = site of a[sa] * b[sb], as a double loop."""
    out: dict = {}
    for sa, va in a.items():
        for sb, vb in b.items():
            key = tuple(x + y for x, y in zip(sa, sb))
            out[key] = out.get(key, 0) + va * vb
    return out


def _slots(lo, hi) -> tuple[list[int], int]:
    """Row-major strides, last axis fastest, and slot count of the box [lo, hi]."""
    widths = [h - l + 1 for l, h in zip(lo, hi)]
    return [prod(widths[i + 1 :]) for i in range(len(widths))], prod(widths)


def _pack(x: dict, k: int, corner, strides) -> int:
    """x packed from the corner: positive entries minus negative ones."""
    offset = {s: k * sum((c - m) * w for c, m, w in zip(s, corner, strides)) for s in x}
    pos, neg = bytearray(k + max(offset.values())), bytearray(k + max(offset.values()))
    for s, v in x.items():
        (pos if v > 0 else neg)[offset[s] : offset[s] + k] = abs(v).to_bytes(k, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(data: bytes, k: int, sites, bias: int = 0) -> dict:
    """site -> its k-byte slot of data less bias, for the sites in slot order; zeros left out."""
    zero, slots = bias.to_bytes(k, "little"), range(0, len(data), k)
    return {s: int.from_bytes(d, "little") - bias for s, o in zip(sites, slots) if (d := data[o : o + k]) != zero}


def _kronecker(a: dict, b: dict) -> dict:
    """Integer numerators of a * b (nonempty, integer-valued), keyed
    lexicographically: one multiply of the packed operands.  k bytes hold
    twice sum|a| sum|b|, and half a slot added to each makes every digit
    nonnegative.  Sparse operands, whose box has more slots than the double
    loop forms products, take that loop."""
    a, b = sorted((a, b), key=len)
    dim = len(next(iter(a)))
    lo = [min(s[i] for s in a) + min(s[i] for s in b) for i in range(dim)]
    hi = [max(s[i] for s in a) + max(s[i] for s in b) for i in range(dim)]
    strides, slots = _slots(lo, hi)
    if slots > len(a) * len(b):
        return _convolve_entries(a, b)
    k = (sum(map(abs, a.values())) * sum(map(abs, b.values()))).bit_length() // 8 + 1
    product = prod(_pack(x, k, [min(s[i] for s in x) for i in range(dim)], strides) for x in (a, b))
    bias = 1 << (8 * k - 1)
    data = (product + int.from_bytes(bias.to_bytes(k, "little") * slots, "little")).to_bytes(k * slots, "little")
    return _unpack(data, k, itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))), bias)


def convolve(a: LatticeSignal, b: LatticeSignal) -> LatticeSignal:
    """(a * b)_alpha = sum_beta a_beta b_{alpha-beta}, exactly."""
    if a.dim != b.dim:
        raise DimensionMismatchError("cannot convolve signals of different dimension")
    if not (a.nums and b.nums):
        return LatticeSignal(a.dim, {})
    return LatticeSignal.reduced(a.dim, _kronecker(a.nums, b.nums), a.den * b.den)


def _power(a: dict, n: int) -> dict:
    """Integer numerators of a^(*n) for positive integer a, by J.C.P. Miller's
    recurrence (Knuth, TAOCP vol. 2, 4.7; Zeilberger 1995) along axis 0.

    With a = sum_k x^(lo + k) R_k over the other axes y, and B_j row lo n + j
    of the power, P (P^n)' = n P' P^n in x gives B_0 = R_0^n, the power of
    the lowest face one dimension down, and j R_0 B_j = sum_{k >= 1}
    ((n + 1) k - j) R_k B_{j-k}.  A row is one int packed over the power's
    box in y (a plain int in one dimension), so it evaluates B_j at
    y = 2^(8k stride): a term of R_k is a shift and a small multiply, sums
    are exact whatever their slots hold, and dividing by j R_0 is exact.  k
    bytes hold (sum a)^n, which bounds every coefficient, so rows read back.
    """
    lo0, dim = min(s[0] for s in a), len(next(iter(a)))
    lo, hi = ([n * f(s[i] for s in a) for i in range(1, dim)] for f in (min, max))
    strides, slots = _slots(lo, hi)
    k = (sum(a.values()) ** n).bit_length() // 8 + 1
    offset = {s: 8 * k * sum(c * w for c, w in zip(s[1:], strides)) for s in a}
    face = {s: v for s, v in a.items() if s[0] == lo0}
    low, base = min(offset.values()), min(offset[s] for s in face)
    r0 = sum(v << offset[s] - base for s, v in face.items())  # R_0 from its lowest slot
    terms: dict = {}  # step -> [(a_beta, shift of its monomial in R_step from the lowest)]
    for s, v in a.items():
        terms.setdefault(s[0] - lo0, []).append((v, offset[s] - low))
    del terms[0]
    rows = [_pack(_power({s[1:]: v for s, v in face.items()}, n) if dim > 1 else {(): r0**n}, k, lo, strides)]
    for j in range(1, n * max(s[0] - lo0 for s in a) + 1):
        total = 0
        for step, row_terms in terms.items():
            if step <= j and (prev := rows[j - step]):
                total += ((n + 1) * step - j) * sum(v * (prev << shift) for v, shift in row_terms)
        rows.append((total >> base - low) // (j * r0))
    if dim == 1:
        return {(n * lo0 + j,): b for j, b in enumerate(rows) if b}
    data = b"".join(row.to_bytes(k * slots, "little") for row in rows)
    return _unpack(data, k, itertools.product(range(n * lo0, n * lo0 + len(rows)), *map(range, lo, [h + 1 for h in hi])))


# Laws kept by convolution_power: the reports ask for the same (walk, n) once
# per report kind and per observable.
LAW_CACHE_SIZE = 64


@lru_cache(maxsize=LAW_CACHE_SIZE)
def convolution_power(p: WalkDistribution, n: int) -> LatticeSignal:
    """n-step law p^(n) (p^(0) = delta_0), exact: _power of the numerators of
    p, over den^n, reduced already (the numerators of p have content prime to
    den, and by Gauss's lemma so do those of p^(n)).  The LAW_CACHE_SIZE most
    recent laws are cached and shared, so callers must not mutate one."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    step = p.signal()
    return LatticeSignal(p.dim, _power(step.nums, n), step.den**n)


# ---------------------------------------------------------------------------
# drift


def drift(p: WalkDistribution) -> tuple[Fraction, ...]:
    """Mean step v = sum_beta beta p_beta, exact per component."""
    return tuple(
        sum((w * s[i] for s, w in p.support), Fraction(0)) for i in range(p.dim)
    )


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
