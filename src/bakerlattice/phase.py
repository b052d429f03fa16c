"""The baker-map lattice realizing a random walk on Z^d.

Phase space is Z^d x [0,1)^2.  One step stretches the first square
coordinate by the inverse weight of the partition cell it falls in,
contracts the second by that weight, and translates the lattice index by
the corresponding step.  Full-width horizontal strips decompose exactly
under iteration into itinerary-labeled strips, which is the ground truth
against which all correlation formulas are checked.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction

from .lattice import Site, WalkDistribution, convolution_power
from .rational import format_rational, parse_rational, record, write_csv

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """Itinerary enumeration would exceed the component budget, DEFAULT_BUDGET."""


def _check_unit(value, name: str):
    if not 0 <= value < 1:
        raise ValueError(f"{name} must lie in [0, 1), got {value}")


@record(frozen=True)
class PhasePoint:
    """A point (site; y1, y2): y1 is the expanding coordinate, y2 the contracting one."""

    site: Site
    y1: object
    y2: object

    def __post_init__(self):
        _check_unit(self.y1, "y1")
        _check_unit(self.y2, "y2")


@record(frozen=True)
class PartitionTable:
    """Cumulative cell boundaries 0 = q_0 < q_1 < ... < q_N = 1.

    Cell k (0-based) belongs to the k-th step of the walk's support, in the
    support's own order.
    """

    walk: WalkDistribution
    cumulative: tuple[Fraction, ...]

    @classmethod
    def from_walk(cls, p: WalkDistribution) -> "PartitionTable":
        bounds = [Fraction(0)]
        for _, w in p.support:
            bounds.append(bounds[-1] + w)
        if bounds[-1] != 1:
            raise ValueError("partition widths must sum to 1")
        return cls(p, tuple(bounds))

    @property
    def size(self) -> int:
        return self.walk.size

    def cell_step(self, k: int) -> Site:
        return self.walk.support[k][0]

    def cell_weight(self, k: int) -> Fraction:
        return self.walk.support[k][1]

    def locate(self, y) -> int:
        """0-based index k of the half-open cell [q_k, q_{k+1}) containing y."""
        _check_unit(y, "coordinate")
        return bisect_right(self.cumulative, y) - 1


def step(x: PhasePoint, p: WalkDistribution) -> PhasePoint:
    """One forward step; exact when the coordinates of x are rational."""
    table = PartitionTable.from_walk(p)
    k = table.locate(x.y1)
    q, w = table.cumulative[k], table.cell_weight(k)
    site = tuple(a + b for a, b in zip(x.site, table.cell_step(k)))
    return PhasePoint(site, (x.y1 - q) / w, w * x.y2 + q)


def inverse_step(x: PhasePoint, p: WalkDistribution) -> PhasePoint:
    """The unique preimage under ``step``; the cell is selected by y2."""
    table = PartitionTable.from_walk(p)
    k = table.locate(x.y2)
    q, w = table.cumulative[k], table.cell_weight(k)
    site = tuple(a - b for a, b in zip(x.site, table.cell_step(k)))
    return PhasePoint(site, w * x.y1 + q, (x.y2 - q) / w)


@record(frozen=True)
class Strip:
    """Full-width strip {site} x [0,1) x [lo, hi) with rational endpoints."""

    site: Site
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", parse_rational(self.lo))
        object.__setattr__(self, "hi", parse_rational(self.hi))
        if not (0 <= self.lo < self.hi <= 1):
            raise ValueError(f"strip interval must satisfy 0 <= lo < hi <= 1, got [{self.lo}, {self.hi})")

    @property
    def height(self) -> Fraction:
        return self.hi - self.lo

    @classmethod
    def unit(cls, site) -> "Strip":
        return cls(tuple(site), Fraction(0), Fraction(1))


@record(frozen=True)
class ItineraryComponent:
    word: tuple[int, ...]  # 1-based cell indices, first step first
    site: Site
    lo: Fraction
    hi: Fraction

    @property
    def height(self) -> Fraction:
        return self.hi - self.lo


@record(frozen=True)
class ItineraryPushforward:
    """Exact decomposition of the n-step image of a strip into N^n strips."""

    depth: int
    base: Strip
    components: tuple[ItineraryComponent, ...]

    def total_height(self) -> Fraction:
        return sum((c.height for c in self.components), Fraction(0))

    def site_masses(self) -> dict:
        """Height collected per site, divided by the base height.

        Summing the exact itinerary heights site by site must reproduce the
        n-step law of the walk; this is the strip-wise consistency check
        between the enumeration path and the convolution path.
        """
        masses: dict = {}
        h = self.base.height
        for c in self.components:
            masses[c.site] = masses.get(c.site, Fraction(0)) + c.height / h
        return masses


def push_strip(
    strip: Strip,
    p: WalkDistribution,
    n: int,
    table: PartitionTable | None = None,
) -> ItineraryPushforward:
    """Push a full-width strip forward n steps, exactly.

    The image of a strip of height h under one step consists of N strips,
    one per partition cell k, at site + step(k), with interval
    q_k + w_k * [lo, hi).  Raises BudgetExceededError when N^n would exceed
    DEFAULT_BUDGET (callers should switch to the convolution path instead).
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if table is None:
        table = PartitionTable.from_walk(p)
    if p.size**n > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"N^n = {p.size}^{n} exceeds the itinerary budget {DEFAULT_BUDGET}"
        )
    comps = [ItineraryComponent((), strip.site, strip.lo, strip.hi)]
    for _ in range(n):
        nxt = []
        for c in comps:
            for k in range(table.size):
                q, w = table.cumulative[k], table.cell_weight(k)
                nxt.append(
                    ItineraryComponent(
                        c.word + (k + 1,),
                        tuple(a + b for a, b in zip(c.site, table.cell_step(k))),
                        q + w * c.lo,
                        q + w * c.hi,
                    )
                )
        comps = nxt
    return ItineraryPushforward(n, strip, tuple(comps))


def cylinder_interval(table: PartitionTable, word) -> tuple[Fraction, Fraction]:
    """Half-open interval of the cylinder with digit word (outermost digit first).

    Digits are 1-based cell indices; the empty word gives [0, 1).
    """
    lo, hi = Fraction(0), Fraction(1)
    for digit in reversed(tuple(word)):
        k = digit - 1
        q, w = table.cumulative[k], table.cell_weight(k)
        lo, hi = q + w * lo, q + w * hi
    return lo, hi


# ---------------------------------------------------------------------------
# Monte Carlo check that the site process follows the prescribed walk


@record(frozen=True, eq=False)
class SiteHistogram:
    walk: WalkDistribution
    steps: int
    samples: int
    seed: int
    counts: dict  # Site -> int

    def empirical_mean(self) -> tuple[float, ...]:
        total = [0.0] * self.walk.dim
        for site, c in self.counts.items():
            for i, coord in enumerate(site):
                total[i] += coord * c
        return tuple(t / self.samples for t in total)

    def write_csv(self, path, metadata: dict | None = None):
        law = convolution_power(self.walk, self.steps)
        sites = sorted(set(self.counts) | set(law.nums))
        rows = []
        for site in sites:
            count = self.counts.get(site, 0)
            rows.append([*site, count, repr(count / self.samples), format_rational(law[site])])
        write_csv(
            path,
            {"seed": self.seed, "steps": self.steps, "samples": self.samples, **(metadata or {})},
            [f"site_{i}" for i in range(self.walk.dim)] + ["count", "empirical_p", "exact_p"],
            rows,
        )


# PCG64 child generators per simulation; the histogram depends on this count
STREAMS = 8


def simulate_walk(
    p: WalkDistribution,
    n: int,
    samples: int,
    seed: int,
) -> SiteHistogram:
    """Iterate the map on uniform random points of the origin square.

    Points use binary64 arithmetic (orbits only feed statistical checks; the
    exact machinery lives in the strip algebra).  Each step reads log2(1/w)
    bits of y1, so every step adds a fresh uniform digit at 2^-53 (lazy bits,
    after Knuth and Yao, 1976): the unread digits of a uniform point are
    uniform, so the law holds at any n.  Samples are split across
    ``STREAMS`` PCG64 child generators spawned from the seed and merged by
    summation, so the result is reproducible and order-independent.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if samples < 1:
        raise ValueError("need at least one sample")
    import numpy as np

    table = PartitionTable.from_walk(p)
    bounds = np.array([float(q) for q in table.cumulative])
    inner = bounds[1:-1].tolist()
    widths = np.array([float(table.cell_weight(k)) for k in range(table.size)])
    steps = [table.cell_step(k) for k in range(table.size)]
    axis_steps = [np.array(axis, dtype=np.int64) for axis in zip(*steps)]
    top = np.nextafter(1.0, 0.0)

    counts = Counter()
    children = np.random.SeedSequence(seed).spawn(STREAMS)
    base, extra = divmod(samples, STREAMS)
    for i, child in enumerate(children):
        m = base + (1 if i < extra else 0)
        if m == 0:
            continue
        rng = np.random.default_rng(child)
        y1 = rng.random(m)
        pos = [np.zeros(m, dtype=np.int64) for _ in range(p.dim)]
        for _ in range(n):
            k = _cells(y1, inner)
            for x, s in zip(pos, axis_steps):
                x += s[k]
            y1 = (y1 - bounds[k] + rng.random(m) * 2.0**-53) / widths[k]
            y1 = np.clip(y1, 0.0, top)
        counts.update(zip(*(x.tolist() for x in pos)))
    return SiteHistogram(p, n, samples, seed, {site: counts[site] for site in sorted(counts)})


def _cells(y1, inner):
    """Cell index of each y1 in [0, 1): how many of the inner bounds q_1 .. q_{N-1} it reaches.

    For the sorted bounds of a partition table this is
    ``searchsorted(bounds, y1, "right") - 1``, and it never exceeds N - 1,
    also where float bounds meet.
    """
    return sum(y1 >= q for q in inner)
