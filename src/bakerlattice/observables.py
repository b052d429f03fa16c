"""Global and local observables with exactly computable infinite-volume data.

A global observable here is a bounded site function carrying a *tail model*:
a periodic background on each orthant plus a finite deviation from it,
nonzero at finitely many sites (periodic: one background and no deviation;
constant outside a box: one constant background; orthant: a constant per
orthant).  The tail model is what makes suprema, box averages and
infinite-volume averages exact instead of sampled.  Cell observables refine
site functions by a finite amount of expanding/contracting coordinate
structure; they reduce exactly to site functions after composing with
enough forward steps.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import is_not, mod
from typing import Mapping

from .lattice import (
    BoxFamily,
    LatticeSignal,
    Site,
    WalkDistribution,
    convolution_power,
    convolve,
    origin,
)
from .phase import PartitionTable, PhasePoint
from .rational import check_keys, format_rational, parse_integer, parse_integers, parse_rational, record


# ---------------------------------------------------------------------------
# boxes


@record(frozen=True)
class Box:
    """Product of integer intervals [lo_i, hi_i] (inclusive)."""

    lo: Site
    hi: Site

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box bounds must share a dimension")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty box: lo={self.lo}, hi={self.hi}")

    @classmethod
    def centered(cls, center, radius: int) -> "Box":
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        c = tuple(int(v) for v in center)
        return cls(tuple(v - radius for v in c), tuple(v + radius for v in c))

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def size(self) -> int:
        out = 1
        for a, b in zip(self.lo, self.hi):
            out *= b - a + 1
        return out

    def contains(self, site: Site) -> bool:
        return all(a <= s <= b for a, s, b in zip(self.lo, site, self.hi))

    def sites(self):
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def dilate(self, amount: int) -> "Box":
        return Box(tuple(a - amount for a in self.lo), tuple(b + amount for b in self.hi))

    @classmethod
    def spanning(cls, sites, dim: int) -> "Box":
        pts = list(sites)
        if not pts:
            return cls(origin(dim), origin(dim))
        return cls(
            tuple(min(s[i] for s in pts) for i in range(dim)),
            tuple(max(s[i] for s in pts) for i in range(dim)),
        )


# ---------------------------------------------------------------------------
# tail models and site observables


@record(frozen=True)
class PeriodicTail:
    """A periodic site function, by its values on one period cell: a signal
    keyed by residues, so a residue of value 0 is absent from it."""

    period: tuple[int, ...]
    cell: LatticeSignal

    def numerator(self, site) -> int:
        """The value at the site, over ``cell.den``."""
        return self.cell.nums.get(tuple(map(mod, site, self.period)), 0)

    def value(self, site) -> Fraction:
        return Fraction(self.numerator(site), self.cell.den)

    def __abs__(self) -> "PeriodicTail":
        cell = self.cell
        return PeriodicTail(self.period, LatticeSignal(cell.dim, {r: abs(v) for r, v in cell.nums.items()}, cell.den))

    def evolve(self, pn):
        """The function alpha -> sum_beta pn_beta f(alpha + beta), on the cell;
        a constant is its own evolution, since a law has mass 1."""
        if prod(self.period) == 1:
            return self
        return PeriodicTail(self.period, convolve(self.cell, pn.fold(self.period).reflect()).fold(self.period))


@record(frozen=True)
class Tail:
    """A whole site function: a periodic background on each orthant plus a finite deviation.

    ``backgrounds`` maps each sign pattern in {-1,+1}^d (coordinate 0 counts
    as positive) to the PeriodicTail the function equals on that orthant
    away from the deviation; ``box`` is None exactly for a periodic
    function; ``table`` is the deviation, the function minus its background,
    a signal supported in ``box`` that stores no site where the two agree.
    Exact sums read the numerators over the tail's common denominator ``den``.
    """

    backgrounds: dict
    box: Box | None
    table: LatticeSignal

    @cached_property
    def uniform(self) -> bool:
        """One background on every orthant."""
        first, *rest = self.backgrounds.values()
        return all(bg == first for bg in rest)

    @cached_property
    def _distinct(self) -> dict:
        """id -> background, each distinct background once."""
        return {id(bg): bg for bg in self.backgrounds.values()}

    def _mapped(self, fn) -> dict:
        """The backgrounds with fn applied once per distinct one, so shared ones stay shared."""
        done = {k: fn(bg) for k, bg in self._distinct.items()}
        return {signs: done[id(bg)] for signs, bg in self.backgrounds.items()}

    @cached_property
    def den(self) -> int:
        """The least common denominator of the backgrounds and the deviation."""
        return lcm(self.table.den, *(bg.cell.den for bg in self._distinct.values()))

    @cached_property
    def _cells(self) -> dict:
        """signs -> (period, the background's cell numerators over ``den``)."""
        return self._mapped(lambda bg: (bg.period, {r: v * (self.den // bg.cell.den) for r, v in bg.cell.nums.items()}))

    def numerators(self, site) -> tuple[int, int]:
        """The background and the deviation at the site, over ``den``."""
        period, cell = self._cells[_signs(site)]
        return cell.get(tuple(map(mod, site, period)), 0), self.table.nums.get(site, 0) * (self.den // self.table.den)

    def value(self, site) -> Fraction:
        return Fraction(sum(self.numerators(site)), self.den)

    def __abs__(self) -> "Tail":
        """|f|: each background's absolute value, and the deviation that makes up the rest."""
        deviation = {s: abs(b + d) - abs(b) for s in self.table.nums for b, d in [self.numerators(s)]}
        return Tail(self._mapped(abs), self.box, LatticeSignal.reduced(self.table.dim, deviation, self.den))

    def evolve(self, pn):
        """The tail of alpha -> sum_beta pn_beta f(alpha + beta).

        Each background evolves on its cell, and the deviation goes through
        convolve(., pn.reflect()), which widens the box by the law's reach.
        Differing backgrounds evolve exactly only as constants in d = 1,
        where the step between them adds the jump times the law's CDF.
        """
        backgrounds = self._mapped(lambda bg: bg.evolve(pn))
        if self.box is None:
            return Tail(backgrounds, None, self.table)
        if not self.uniform and (self.box.dim != 1 or any(bg.period != (1,) for bg in self.backgrounds.values())):
            raise ValueError("differing backgrounds evolve exactly only as orthant constants in dimension 1")
        reach, law = max(pn.support_radius()), pn.reflect()
        table = convolve(self.table, law) if self.table.nums else self.table
        if self.uniform:
            return Tail(backgrounds, self.box.dilate(reach), table)
        # the step c_neg + (c_pos - c_neg) [alpha >= 0] evolves to c_neg plus the
        # jump times P(alpha + X >= 0), the CDF of the law of -X at alpha; the box
        # starts left of -reach, so a running sum of the law's numerators over
        # its sites is that CDF, and less the step it is the step's deviation
        jump = self.backgrounds[(1,)].value((0,)) - self.backgrounds[(-1,)].value((0,))
        box = Box((min(self.box.lo[0], 0),), (max(self.box.hi[0], -1),)).dilate(reach)
        step, mass = {}, 0
        for s in box.sites():
            mass += law.nums.get(s, 0)
            step[s] = jump.numerator * (mass - law.den * (s[0] >= 0))
        return Tail(self.backgrounds, box, table + LatticeSignal.reduced(1, step, jump.denominator * law.den))


def _signs(site: Site) -> tuple[int, ...]:
    return tuple(1 if c >= 0 else -1 for c in site)


def _constant_tail(dim: int, value) -> PeriodicTail:
    return PeriodicTail((1,) * dim, LatticeSignal.from_entries(dim, {origin(dim): value}))


def _everywhere(background: PeriodicTail) -> dict:
    """``background`` on every orthant."""
    return dict.fromkeys(itertools.product((-1, 1), repeat=len(background.period)), background)


def _tail(backgrounds: dict, box: Box | None, table: Mapping) -> Tail:
    """The tail over the backgrounds that takes the table's rational values at its sites, each inside the box."""
    for s in table:
        if box is None or not box.contains(s):
            raise ValueError(f"table site {s} outside the declared box")
    deviation = {s: v - backgrounds[_signs(s)].value(s) for s, v in table.items()}
    return Tail(backgrounds, box, LatticeSignal.from_entries(len(next(iter(backgrounds))), deviation))


@record(frozen=True)
class SiteObservable:
    dim: int
    tail: Tail

    depth = 0  # a site function has no digits: it is its own reduction

    def value(self, site):
        return self.tail.value(tuple(int(c) for c in site))

    @cached_property
    def means(self) -> list:
        """The mean of each orthant's background over one period cell."""
        return _orthant_means([self])

    @cached_property
    def extremes(self) -> tuple[Fraction, Fraction]:
        """The least and the greatest value: the values at the deviation and
        over each background's cell, where an absent residue stands for 0.
        Each numerator is scaled to ``den`` once; over one constant
        background c the deviation's values are c plus its least and greatest."""
        t = self.tail
        nums, scale, cells = t.table.nums, t.den // t.table.den, t._cells
        values = [v for _, cell in cells.values() for v in cell.values()]
        if any(len(cell) < prod(period) for period, cell in cells.values()):
            values.append(0)
        period, cell = cells[(1,) * self.dim]
        if t.uniform and prod(period) == 1 and nums:
            c = cell.get(origin(self.dim), 0)
            values += (c + min(nums.values()) * scale, c + max(nums.values()) * scale)
        else:
            for s, d in nums.items():
                period, cell = cells[_signs(s)]
                values.append(cell.get(tuple(map(mod, s, period)), 0) + d * scale)
        return Fraction(min(values), t.den), Fraction(max(values), t.den)

    def bound(self):
        lo, hi = self.extremes
        return max(-lo, hi)

    def analytic_average(self, family: BoxFamily):
        """Exact infinite-volume average, or None when the family's box
        averages have no common limit."""
        return _family_average(self.means, family)

    def sup_deviation(self, center):
        """Exact sup over all sites of |value - center|."""
        lo, hi = self.extremes
        return max(hi - center, center - lo)


def _site_table(dim: int, table: Mapping, name: str, owner: str = "walk") -> dict:
    """The table with rational values, each key read as a site: a tuple or
    list, an "i,j" string, or an int; a site named twice is an error."""
    if not isinstance(table, Mapping):
        raise TypeError(f"{name} must be an object, got {table!r}")
    out = {}
    for key, v in table.items():
        if isinstance(key, str):
            key = key.split(",")
        site = parse_integers(key if isinstance(key, (list, tuple)) else [key])
        if len(site) != dim:
            raise ValueError(f"{name} key {list(site)} has dimension {len(site)}, the {owner} has dimension {dim}")
        if site in out:
            raise ValueError(f"{name}: site {list(site)} is named twice")
        out[site] = parse_rational(v)
    return out


def periodic_observable(period, table: Mapping) -> SiteObservable:
    period = parse_integers(period)
    if any(l < 1 for l in period):
        raise ValueError(f"periods must be positive, got {list(period)}")
    residues = {}
    for site, v in _site_table(len(period), table, "table", "period").items():
        residue = tuple(c % l for c, l in zip(site, period))
        if residue in residues:
            raise ValueError(f"table: residue {list(residue)} of period {list(period)} is named twice")
        residues[residue] = v
    missing = [r for r in itertools.product(*(range(l) for l in period)) if r not in residues]
    if missing:
        raise ValueError(f"periodic table misses residues, e.g. {missing[0]}")
    background = PeriodicTail(period, LatticeSignal.from_entries(len(period), residues))
    return SiteObservable(len(period), _tail(_everywhere(background), None, {}))


def constant_observable(dim: int, value) -> SiteObservable:
    return SiteObservable(dim, _tail(_everywhere(_constant_tail(dim, parse_rational(value))), None, {}))


def localized_observable(dim: int, constant, box: Box, table: Mapping) -> SiteObservable:
    """Constant outside the box: one constant background on every orthant."""
    background = _everywhere(_constant_tail(dim, parse_rational(constant)))
    return SiteObservable(dim, _tail(background, box, _site_table(dim, table, "constantOutsideBox table")))


def orthant_observable(dim: int, constants: Mapping, box: Box, table: Mapping) -> SiteObservable:
    """Constant on each orthant outside the box, keyed by sign pattern."""
    constants = _site_table(dim, constants, "orthant constants")
    table = _site_table(dim, table, "orthant table")
    for key in constants:
        if any(c not in (-1, 1) for c in key):
            raise ValueError(f"orthant constants key {list(key)} is not a sign pattern in {{-1, 1}}^{dim}")
    shared = {c: _constant_tail(dim, c) for c in constants.values()}  # equal constants share a background
    backgrounds = {}
    for signs in itertools.product((-1, 1), repeat=dim):
        if signs not in constants:
            raise ValueError(f"missing orthant constant for signs {signs}")
        backgrounds[signs] = shared[constants[signs]]
    return SiteObservable(dim, _tail(backgrounds, box, table))


def sign_observable() -> SiteObservable:
    """The 1d sign function on sites: -1 for alpha < 0, +1 for alpha >= 0."""
    return orthant_observable(
        1,
        {(1,): Fraction(1), (-1,): Fraction(-1)},
        Box((0,), (0,)),
        {(0,): Fraction(1)},
    )


# ---------------------------------------------------------------------------
# box sums and averages


def _residue_count(rho: int, l: int, a: int, b: int) -> int:
    """Number of integers in [a, b] congruent to rho mod l."""
    return (b - rho) // l + (rho - a) // l + 1


def _orthant_parts(box: Box):
    """(signs, sub-box) for the at most 2^d pieces of the box cut at 0 on each axis."""
    axes = []
    for a, b in zip(box.lo, box.hi):
        sides = [(-1, a, min(b, -1))] if a < 0 else []
        if b >= 0:
            sides.append((1, max(a, 0), b))
        axes.append(sides)
    for sides in itertools.product(*axes):
        yield tuple(s for s, _, _ in sides), Box(tuple(a for _, a, _ in sides), tuple(b for _, _, b in sides))


def _periodic_box_sum(tails, box: Box) -> int:
    """Sum over the box of a product of periodic tails, by residue counting,
    over the product of their cells' denominators."""
    axes = []
    for i, (a, b) in enumerate(zip(box.lo, box.hi)):
        l = lcm(*(t.period[i] for t in tails))
        axes.append([(rho, c) for rho in range(l) if (c := _residue_count(rho, l, a, b))])
    total = 0
    for cell in itertools.product(*axes):
        residue = tuple(rho for rho, _ in cell)
        total += prod(t.numerator(residue) for t in tails) * prod(c for _, c in cell)
    return total


# the last (tails, corrections by site, corrections by sup-norm radius), the
# tails held so that no other object takes their ids: m2_table and
# implication_audit ask for one product at each radius of a schedule in turn
_last_corrections: tuple = ((), {}, {})


def _box_sum(observables, box: Box):
    """Exact sum over the box of the pointwise product of the observables.

    Each tail equals a periodic background on every orthant away from its
    finitely many deviation sites, so the sum is the backgrounds' sum plus
    a correction prod(b + d) - prod(b) at each deviation site in the box,
    with b and d each tail's background and deviation numerators there.
    The corrections are read once per tuple of tails, and a box centred at
    the origin adds those of the radii up to its own.  The sum runs on the
    numerators, each tail's over its ``den``, and divides once at the end.
    """
    global _last_corrections
    tails = [o.tail for o in observables]
    memo = _last_corrections  # read once: another thread may replace it meanwhile
    if len(memo[0]) != len(tails) or any(map(is_not, memo[0], tails)):
        reads = [(t._cells, t.table.nums, t.den // t.table.den) for t in tails]
        corrections, by_radius = {}, {}
        for s in {s for t in tails for s in t.table.nums}:
            signs, with_d, without_d = _signs(s), 1, 1
            for cells, nums, scale in reads:
                period, cell = cells[signs]
                b = cell.get(tuple(map(mod, s, period)), 0)
                with_d, without_d = with_d * (b + nums.get(s, 0) * scale), without_d * b
            corrections[s], r = with_d - without_d, max(map(abs, s))
            by_radius[r] = by_radius.get(r, 0) + corrections[s]
        memo = _last_corrections = (tuple(tails), corrections, by_radius)
    _, corrections, by_radius = memo
    r = box.hi[0]
    if box.lo == (-r,) * box.dim and box.hi == (r,) * box.dim:
        total = sum(c for radius, c in by_radius.items() if radius <= r)
    else:
        total = sum(c for s, c in corrections.items() if box.contains(s))
    return Fraction(total + _background_sum(tails, box), prod(t.den for t in tails))


def _background_sum(tails, box: Box) -> int:
    """Sum over the box of the product of the tails' backgrounds, each over
    its tail's ``den``: a residue count per orthant piece of the box, or over
    the whole box at once when every tail has one background."""
    total = 0
    for signs, part in [((1,) * box.dim, box)] if all(t.uniform for t in tails) else _orthant_parts(box):
        backgrounds = [t.backgrounds[signs] for t in tails]
        total += _periodic_box_sum(backgrounds, part) * prod(t.den // bg.cell.den for t, bg in zip(tails, backgrounds))
    return total


def product_average(observables, family: BoxFamily):
    """Exact infinite-volume average of the pointwise product, or None."""
    return _family_average(_orthant_means(observables), family)


def _orthant_means(observables) -> list:
    """Per orthant, the mean of the product of the backgrounds over one joint period cell."""
    dim = observables[0].dim
    means = []
    for signs in itertools.product((-1, 1), repeat=dim):
        backgrounds = [o.tail.backgrounds[signs] for o in observables]
        cell = Box(origin(dim), tuple(lcm(*(bg.period[i] for bg in backgrounds)) - 1 for i in range(dim)))
        den = prod(bg.cell.den for bg in backgrounds) * cell.size
        means.append(Fraction(_periodic_box_sum(backgrounds, cell), den))
    return means


def _family_average(means, family: BoxFamily):
    """The limit of the family's box averages, given the orthant means.

    Box averages tend, on each orthant, to that orthant's mean.
    Translation-invariant boxes can sit inside one orthant, so differing
    orthant means leave no limit; centered boxes weight every orthant equally.
    """
    if all(m == means[0] for m in means):
        return means[0]
    if family.translation_invariant_p:
        return None
    return sum(means) / Fraction(len(means))


def box_average(f: SiteObservable, box: Box):
    """(2r+1)^-d-normalized sum of f over the box; exact for exact tables."""
    return _box_sum([f], box) / Fraction(box.size)


def box_average_product(f: SiteObservable, g: SiteObservable, box: Box):
    """Normalized box sum of the pointwise product f*g."""
    return _box_sum([f, g], box) / Fraction(box.size)


# ---------------------------------------------------------------------------
# infinite-volume averages and their uniformity


@record(frozen=True)
class AverageEstimate:
    """Result of an infinite-volume average computation.

    ``value`` is the exact limit for the chosen family, or None.
    ``uniformity_defect`` is exact too: at the largest radius, the sup over
    every center of the family (the origin alone for the centered family)
    of |box average - value|; when the limit does not exist it is the
    spread (sup minus inf) of the box averages instead, which is the
    witness of nonconvergence.
    """

    value: object
    uniformity_defect: object


def _box_average_range(f: SiteObservable, r: int):
    """The least and the greatest radius-r box average of f over every center.

    The deviations are the tail's table, over the tail's ``den``.  With
    one background on every orthant, the background part of the box sum is
    periodic in the center: convolving the background's cell with the
    residue counts of [-r, r] along each axis in turn gives it on one period
    cell of centers, and without deviations that cell holds every value.
    Otherwise moving the center along axis i adds the slice that enters the
    box and drops the one that leaves.  Away from the breakpoints t (the
    deviations' coordinates, and 0 when the backgrounds differ) both slices
    are background, periodic with the joint period L_i, so between the
    centers t - r - 1 and t + r where a box face meets a breakpoint the sum
    is linear plus L_i-periodic, and it takes its extremes within L_i of
    them.  The sum is bounded, so an unbounded stretch has no linear part.
    Taking each axis in turn, the extremes lie among the candidates of
    ``_candidate_centers``.
    """
    tail, backgrounds = f.tail, f.tail.backgrounds
    den = tail.den * (2 * r + 1) ** f.dim  # of the box averages
    deviation = {s: v * (tail.den // tail.table.den) for s, v in tail.table.nums.items()}
    if tail.uniform:
        period, cell = tail._cells[(1,) * f.dim]
        cell = {c: cell.get(c, 0) for c in itertools.product(*map(range, period))}
        for i, l in enumerate(period):
            counts = [_residue_count(k, l, -r, r) for k in range(l)]
            cell = {c: sum(n * cell[(*c[:i], (c[i] + k) % l, *c[i + 1 :])] for k, n in enumerate(counts)) for c in cell}
        if not deviation:
            return Fraction(min(cell.values()), den), Fraction(max(cell.values()), den)
    # The box of center c lies in bucket (c - r) // (2r + 1): the sites whose
    # cell s // (2r + 1) is that bucket or the next one on every axis.  So
    # the deviations a box reaches have prefix sums over the grid of their
    # bucket's coordinates, and spread sites build no grid between them.
    side = 2 * r + 1
    buckets: dict = {}
    for s, d in deviation.items():
        for key in itertools.product(*((c // side - 1, c // side) for c in s)):
            buckets.setdefault(key, {})[s] = d
    grids = {key: _prefix_grid(sites) for key, sites in buckets.items()}
    signs = [prod(corner) for corner in itertools.product((1, -1), repeat=f.dim)]
    periods = [lcm(*(bg.period[i] for bg in backgrounds.values())) for i in range(f.dim)]
    totals = []
    for c in _candidate_centers(list(deviation), r, periods, [] if tail.uniform else [0]):
        if tail.uniform:
            total = cell[tuple(v % l for v, l in zip(c, period))]
        else:
            total = _background_sum([tail], Box.centered(c, r))
        grid = grids.get(tuple((v - r) // side for v in c))
        if grid:
            coords, prefix = grid
            # the ranks of the last deviation coordinates up to each box face, upper face first
            faces = [(bisect_right(cs, v + r) - 1, bisect_right(cs, v - r - 1) - 1) for cs, v in zip(coords, c)]
            total += sum(sign * prefix.get(corner, 0) for sign, corner in zip(signs, itertools.product(*faces)))
        totals.append(total)
    return Fraction(min(totals), den), Fraction(max(totals), den)


def _prefix_grid(deviation: dict) -> tuple[list, dict]:
    """The sorted coordinates of the sites on each axis, and the prefix sums of
    the deviations over the grid of those coordinates, indexed by rank."""
    coords = [sorted({s[i] for s in deviation}) for i in range(len(next(iter(deviation))))]
    grid = itertools.product(*(range(len(cs)) for cs in coords))
    prefix = {ranks: deviation.get(tuple(cs[j] for cs, j in zip(coords, ranks)), 0) for ranks in grid}
    for i in range(len(coords)):
        for ranks in prefix:  # lexicographic: ranks - e_i comes first
            prefix[ranks] += prefix.get((*ranks[:i], ranks[i] - 1, *ranks[i + 1 :]), 0)
    return coords, prefix


def _candidate_centers(sites, r: int, periods, extra, i: int = 0) -> list[tuple[int, ...]]:
    """The centers of ``_box_average_range``, by their coordinates on axes i, i + 1, ...

    On axis i they lie within l_i of a box face meeting a breakpoint t: a
    coordinate of ``sites``, or one of ``extra``.  Such a center lies within
    r + l_i of each t it comes from, so its box meets on axis i only the
    sites within 2r + l_i of those t, and with its coordinate on axis i
    fixed only those sites bend the sum along the later axes.
    """
    l = periods[i]
    span = {}  # candidate coordinate -> the least and the greatest t it comes from
    for t in sorted({*(s[i] for s in sites), *extra}):
        for v in (t - r - 1, t + r):
            for k in range(1 - l, l + 1):
                span.setdefault(v + k, [t, t])[1] = t
    if i + 1 == len(periods):  # the last axis: only the set of coordinates counts
        return [(v,) for v in span]
    sites = sorted(sites, key=lambda s: s[i])
    keys = [s[i] for s in sites]
    later = {}  # the slice of sites a box may meet -> their candidates on the later axes
    out = []
    for v, (a, b) in span.items():
        near = (bisect_left(keys, a - 2 * r - l), bisect_right(keys, b + 2 * r + l))
        if near not in later:
            later[near] = _candidate_centers(sites[near[0] : near[1]], r, periods, extra, i + 1)
        out.extend((v, *rest) for rest in later[near])
    return out


def estimate_average(f: SiteObservable, family: BoxFamily, radii) -> AverageEstimate:
    """Exact average of f for the family and its uniformity defect at max(radii)."""
    radii = [int(r) for r in radii]
    if not radii:
        raise ValueError("need a nonempty radii schedule")
    r_max = max(radii)
    value = f.analytic_average(family)
    if family.translation_invariant_p:
        samples = _box_average_range(f, r_max)
    else:
        samples = [box_average(f, Box.centered(origin(f.dim), r_max))]
    if value is None:
        return AverageEstimate(None, max(samples) - min(samples))
    return AverageEstimate(value, max(abs(s - value) for s in samples))


# ---------------------------------------------------------------------------
# cell observables and the stable reduction


@record(frozen=True)
class CellObservable:
    """Function of (site, m backward digits, m forward digits), m = ``depth``.

    Words are tuples of 1-based cell indices: the first ``depth`` entries are
    the contracting-coordinate digits (most recent arrival first), the last
    ``depth`` the expanding-coordinate digits (next departure first).  Keys
    absent from ``values`` take ``default``.  A cell observable stays a cell
    in every report: as the first observable F it is read through its
    reduction (``reduce_to_site``), as the second observable G through its
    square marginal (``square_marginal``) and the strips its cells map onto
    (``explicit_cells``); ``mixing.Evolution`` holds all three.
    """

    dim: int
    depth: int
    values: dict  # (site, word) -> value
    default: Fraction = Fraction(0)

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"cell depth m must be nonnegative, got {self.depth}")
        for (site, word), _ in self.values.items():
            if len(site) != self.dim:
                raise ValueError(f"cell site {list(site)} has dimension {len(site)}, the walk has dimension {self.dim}")
            if len(word) != 2 * self.depth:
                raise ValueError(
                    f"word {word} has length {len(word)}, expected {2 * self.depth}"
                )
            if any(d < 1 for d in word):
                raise ValueError("digits are 1-based cell indices")

    def bound(self):
        vals = [abs(self.default)] + [abs(v) for v in self.values.values()]
        return max(vals)

    def evaluate(self, x: PhasePoint, p: WalkDistribution) -> object:
        """Value at a phase point, by extracting digits from both coordinates."""
        table = PartitionTable.from_walk(p)

        def digits(y) -> tuple:
            out = []
            for _ in range(self.depth):
                k = table.locate(y)
                out.append(k + 1)
                y = (y - table.cumulative[k]) / table.cell_weight(k)
            return tuple(out)

        return self.values.get((x.site, digits(x.y2) + digits(x.y1)), self.default)


def explicit_cells(F: CellObservable, p: WalkDistribution):
    """Each explicit cell of F as (site, before, after, measure, excess):
    before is the site its m backward steps start from, after the site its m
    forward steps reach, measure its square measure w(back) w(fwd), and
    excess its value minus the default."""
    m = F.depth
    for (site, word), val in F.values.items():
        if any(d > p.size for d in word):
            raise ValueError(f"digit out of range for a walk with {p.size} directions")
        measure = prod((p.support[d - 1][1] for d in word), start=Fraction(1))
        yield site, _walked(site, word[:m], p, -1), _walked(site, word[m:], p, 1), measure, val - F.default


def _walked(site: Site, digits, p: WalkDistribution, sign: int) -> Site:
    """site moved by sign times the steps of the digits."""
    for d in digits:
        site = tuple(a + sign * b for a, b in zip(site, p.support[d - 1][0]))
    return site


def _default_plus(F: CellObservable, masses) -> SiteObservable:
    """The site function F.default plus each (site, mass) of ``masses``."""
    contrib: dict = {}
    for site, mass in masses:
        contrib[site] = contrib.get(site, 0) + mass
    deviation = LatticeSignal.from_entries(F.dim, contrib)
    background = _everywhere(_constant_tail(F.dim, F.default))
    return SiteObservable(F.dim, Tail(background, Box.spanning(deviation.nums, F.dim), deviation))


def reduce_to_site(F: CellObservable, p: WalkDistribution) -> SiteObservable:
    """The site function of F o T^m, for F of depth m: F's reduction, the role it plays as F.

    Composing F with m forward steps clears the backward digits; the result
    depends on the expanding coordinate only, and its square integral at
    site alpha collects every explicit cell whose m backward steps start at
    alpha, weighted by the cell's measure.  It is F's reduction, not F:
    evolved n - m steps it stands for F o T^n against a strip
    (``mixing.Evolution.at``), and its square integrals are not F's
    (``square_marginal``).  The cost is linear in the explicit cells times
    m, at any depth.
    """
    return _default_plus(F, ((before, w * e) for _, before, _, w, e in explicit_cells(F, p)))


def square_marginal(F: CellObservable, p: WalkDistribution) -> SiteObservable:
    """The site function alpha -> the integral of F over the square at alpha:
    the default, plus each explicit cell's excess times its measure at the
    cell's own site.  Its box averages are F's."""
    return _default_plus(F, ((site, w * e) for site, _, _, w, e in explicit_cells(F, p)))


# ---------------------------------------------------------------------------
# site evolution (the n-step reduction of F o T^n)


def evolve_site(f: SiteObservable, p: WalkDistribution, n: int) -> SiteObservable:
    """Site function alpha -> sum_beta p^(n)_beta f(alpha + beta), exactly,
    by ``Tail.evolve`` on the law p^(n)."""
    if n < 0:
        raise ValueError("evolution steps must be nonnegative")
    if f.dim != p.dim:
        raise ValueError("observable and walk dimensions differ")
    return SiteObservable(f.dim, f.tail.evolve(convolution_power(p, n)))


# ---------------------------------------------------------------------------
# config (de)serialization


def _box_from_config(dim: int, cfg: Mapping, background: str) -> Box:
    """The window of an observable whose background is ``cfg[background]``: ``box:
    {lo, hi}`` as written by observable_to_config, or ``center``/``radius``, not both."""
    check_keys(cfg, "", {"kind", background, "table"}, {"box"}, {"center", "radius"})
    if "box" in cfg:
        check_keys(cfg["box"], "box", {"lo", "hi"})
        box = Box(parse_integers(cfg["box"]["lo"]), parse_integers(cfg["box"]["hi"]))
    else:
        center = parse_integers(cfg.get("center", origin(dim)))
        box = Box.centered(center, parse_integer(cfg.get("radius", 0)))
    if box.dim != dim:
        raise ValueError(f"box of dimension {box.dim} for a {dim}-dimensional walk")
    return box


def observable_from_config(dim: int, cfg: Mapping):
    """The observable of a config object, the form observable_to_config
    writes; a key its kind does not read is a ConfigError that starts with
    the key's path within ``cfg``."""
    kind = cfg.get("kind")
    if kind == "periodic":
        check_keys(cfg, "", {"kind", "period", "table"})
        period = parse_integers(cfg["period"])
        if len(period) != dim:
            raise ValueError(f"period {list(period)} has dimension {len(period)}, the walk has dimension {dim}")
        return periodic_observable(period, cfg["table"])
    if kind == "constantOutsideBox":
        box = _box_from_config(dim, cfg, "constant")
        return localized_observable(dim, cfg["constant"], box, cfg.get("table", {}))
    if kind == "orthant":
        box = _box_from_config(dim, cfg, "constants")
        return orthant_observable(dim, cfg["constants"], box, cfg.get("table", {}))
    if kind == "sign1d":
        check_keys(cfg, "", {"kind"})
        if dim != 1:
            raise ValueError("sign1d needs a one-dimensional walk")
        return sign_observable()
    if kind == "cell":
        check_keys(cfg, "", {"kind", "m", "values", "default"})
        depth = parse_integer(cfg["m"])
        values = {}
        for k, rec in enumerate(cfg["values"]):
            check_keys(rec, f"values[{k}]", {"site", "back", "fwd", "value"})
            site = parse_integers(rec["site"])
            back, fwd = parse_integers(rec.get("back", ())), parse_integers(rec.get("fwd", ()))
            if not len(back) == len(fwd) == depth:
                raise ValueError(f"cell record {rec!r} needs m = {depth} back and fwd digits, got {len(back)} and {len(fwd)}")
            values[(site, back + fwd)] = parse_rational(rec["value"])
        return CellObservable(dim, depth, values, parse_rational(cfg.get("default", 0)))
    raise ValueError(f"unknown observable kind {kind!r}")


def _table_config(table: dict) -> dict:
    return {",".join(map(str, s)): format_rational(v) for s, v in sorted(table.items())}


def observable_to_config(obs) -> dict:
    """The config dict that observable_from_config reads; a boxed tail's
    backgrounds are constants, and its table names only the sites where it
    departs from them."""
    if isinstance(obs, CellObservable):
        return {
            "kind": "cell",
            "m": obs.depth,
            "default": format_rational(Fraction(obs.default)),
            "values": [
                {
                    "site": list(site),
                    "back": list(word[: obs.depth]),
                    "fwd": list(word[obs.depth :]),
                    "value": format_rational(Fraction(v)),
                }
                for (site, word), v in sorted(obs.values.items())
            ],
        }
    t = obs.tail
    if t.box is None:
        bg = next(iter(t.backgrounds.values()))
        cell = {r: bg.value(r) for r in itertools.product(*map(range, bg.period))}
        return {"kind": "periodic", "period": list(bg.period), "table": _table_config(cell)}
    constants = {signs: bg.value(signs) for signs, bg in t.backgrounds.items()}
    if t.uniform:
        head = {"kind": "constantOutsideBox", "constant": format_rational(Fraction(*set(constants.values())))}
    else:
        head = {"kind": "orthant", "constants": _table_config(constants)}
    table = _table_config({s: t.value(s) for s in t.table.nums})
    return {**head, "box": {"lo": list(t.box.lo), "hi": list(t.box.hi)}, "table": table}
