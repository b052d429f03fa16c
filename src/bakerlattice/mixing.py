"""Estimators for the five infinite-volume mixing notions.

Each notion is one report over the times ``n_list`` (``m5_report``,
``m4_report``, ``m2_table``, ``m1_report``), which takes each observable as
an ``Evolution`` and reads it through ``Evolution.at``, the one time rule.
A global-local correlation mu((F o T^n) g) for a finite weighted-strip
local observable g reduces exactly to sum_terms weight * height * (F o T^n
as a site function)(strip site); the brute-force itinerary enumeration
``itinerary_oracle`` provides an independent exact oracle for the same
quantity.  Global-global quantities are exact box averages of the evolved
product.  Everything stays rational when the inputs are rational; rate
extraction is the one float step.

Notions measured (t the time, V a box of the exhaustive family):
  M1  Av((F o T^t) G) -> Av(F) Av(G)           (average of the product exists)
  M2  mu_V((F o T^t) G) -> Av(F) Av(G)         (joint limit in t and V)
  M3  mu((F o T^t) g) -> 0 for mu(g) = 0
  M4  mu((F o T^t) g) -> Av(F) mu(g)
  M5  sup over g != 0 of |mu((F o T^t) g) - Av(F) mu(g)| / mu(|g|) -> 0
"""

from __future__ import annotations

from fractions import Fraction
from math import log
from numbers import Rational

from .lattice import WalkDistribution, origin
from .observables import (
    Box,
    BoxFamily,
    CellObservable,
    SiteObservable,
    box_average,
    box_average_product,
    constant_observable,
    evolve_site,
    explicit_cells,
    product_average,
    reduce_to_site,
    square_marginal,
)
from .phase import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PartitionTable,
    Strip,
    cylinder_interval,
    push_strip,
)
from .rational import ConfigError, field, format_rational, record, to_jsonable, write_csv


@record(frozen=True)
class LocalObservable:
    """Finite weighted combination of full-width strips."""

    terms: tuple[tuple[Strip, Fraction], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("local observable needs at least one strip term")
        dims = {len(strip.site) for strip, _ in self.terms}
        if len(dims) != 1:
            raise ValueError("strip sites must share a dimension")

    @property
    def dim(self) -> int:
        return len(self.terms[0][0].site)

    def mass(self) -> Fraction:
        return sum((w * s.height for s, w in self.terms), Fraction(0))

    def abs_mass(self) -> Fraction:
        return sum((abs(w) * s.height for s, w in self.terms), Fraction(0))

    @classmethod
    def unit_square(cls, site) -> "LocalObservable":
        return cls(((Strip.unit(site), Fraction(1)),))

    @classmethod
    def from_strip(cls, strip: Strip, weight=Fraction(1)) -> "LocalObservable":
        return cls(((strip, Fraction(weight)),))


class Evolution:
    """An observable as it was read, under the walk p: F o T^n as site functions.

    A site observable has depth 0 and is its own reduction; a depth-m cell
    observable's reduction is ``reduce_to_site``, the site function of
    F o T^m.  ``at`` is the one time rule of every report and of the audit.

    As the second observable G of a pair, a cell is read as itself, not as
    its reduction.  Its box averages, and its average, are those of its
    ``marginal``, the integral over each square.  Against F o T^n it is its
    ``base``, the default, plus its ``images``: T^m maps each explicit cell
    onto a full-width strip at the site its forward digits reach, of height
    the cell's measure w(back) w(fwd), which F meets m steps earlier.  A
    site observable is its own marginal and base and has no images.
    """

    def __init__(self, f, p: WalkDistribution):
        self.observable, self.p, self.depth = f, p, f.depth
        self._evolved = {}
        if isinstance(f, CellObservable):
            self.site = reduce_to_site(f, p)
            self.marginal = square_marginal(f, p)
            self.base = constant_observable(f.dim, f.default)
            self.images = tuple(
                (site, Strip(after, 0, w), e) for site, _, after, w, e in explicit_cells(f, p) if e
            )
        else:
            self.site = self.marginal = self.base = f
            self.images = ()

    def at(self, n: int, partner_depth: int) -> SiteObservable:
        """F o T^n against a second observable of depth m_G, as a site function:
        F's reduction evolved n - m_F - m_G steps, each step count once.

        A strip is of depth 0 (``correlate``, M4), M5 pairs F with strips of
        its own depth, and M2 with the second observable.  A time below
        m_F + m_G is refused.
        """
        steps = n - self.depth - partner_depth
        if steps < 0:
            name = "m" if not partner_depth else "2m" if partner_depth == self.depth else "m_F + m_G"
            raise ConfigError(f"time {n} is below the depth offset {name} = {n - steps}")
        if steps not in self._evolved:
            self._evolved[steps] = evolve_site(self.site, self.p, steps)
        return self._evolved[steps]

    def average(self, family: BoxFamily):
        return self.marginal.analytic_average(family)

    def images_in(self, box: Box):
        """The (strip, weight) images of the explicit cells whose site is in the box."""
        return [(strip, e) for site, strip, e in self.images if box.contains(site)]


# ---------------------------------------------------------------------------
# correlations


def _pair(ev: SiteObservable, terms):
    """mu(ev g) for a stable site function ev and the (strip, weight) terms of g."""
    return sum((w * s.height * ev.value(s.site) for s, w in terms), Fraction(0))


def m1_computable(F: Evolution, G: Evolution) -> bool:
    """M1's rules: F is periodic and G has an exact translation-invariant average."""
    return F.site.tail.box is None and G.average(BoxFamily.translation_invariant(G.site.dim)) is not None


def itinerary_oracle(F, Q: Strip, p: WalkDistribution, n: int):
    """Ground truth mu((F o T^n) 1_Q) by exact enumeration of the N^n strips.

    Accepts a site observable or a depth-m cell observable; for the latter
    each image strip is integrated cell by cell (forward digits weight the
    full-width coordinate by cylinder widths, backward digits intersect the
    strip interval with contracting cylinders).  Raises BudgetExceededError
    before anything is pushed when N^(n+2m) would exceed DEFAULT_BUDGET,
    10^7 (m = 0 for a site observable).
    """
    if not isinstance(F, (SiteObservable, CellObservable)):
        raise TypeError("oracle needs a site observable or a cell observable")
    m = F.depth if isinstance(F, CellObservable) else 0
    if p.size ** (n + 2 * m) > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"N^(n+2m) = {p.size}^{n + 2 * m} exceeds the itinerary budget {DEFAULT_BUDGET}"
        )
    table = PartitionTable.from_walk(p)
    pushed = push_strip(Q, p, n, table=table)
    if isinstance(F, SiteObservable):
        return sum((c.height * F.value(c.site) for c in pushed.components), Fraction(0))
    by_site: dict = {}
    for (site, word), value in F.values.items():
        by_site.setdefault(site, []).append((word[:m], word[m:], value - F.default))
    total = F.default * pushed.total_height()
    for comp in pushed.components:
        for back, fwd, excess in by_site.get(comp.site, ()):
            width = Fraction(1)
            for d in fwd:
                width *= table.cell_weight(d - 1)
            c_lo, c_hi = cylinder_interval(table, back)
            overlap = min(comp.hi, c_hi) - max(comp.lo, c_lo)
            if overlap > 0:
                total += excess * width * overlap
    return total


# ---------------------------------------------------------------------------
# reports


@record(eq=False)
class CorrelationReport:
    """Series of one mixing estimator plus everything needed to reproduce it."""

    kind: str  # M1 | M2 | M3 | M4 | M5
    series: dict  # M2: (n, r) -> value; others: n -> value
    target: object
    gap_series: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    eps_scan: dict = field(default_factory=dict)

    def deviations(self) -> dict:
        if self.target is None:
            return {}
        return {k: abs(v - self.target) for k, v in self.series.items()}

    def to_json_dict(self) -> dict:
        return to_jsonable(
            {
                "kind": self.kind,
                "target": self.target,
                "series": dict(sorted(self.series.items())),
                "gap_series": dict(sorted(self.gap_series.items())),
                "eps_scan": self.eps_scan,
                "metadata": self.metadata,
            }
        )

    def write_csv(self, path):
        devs = self.deviations()
        series = sorted(self.series.items())
        if self.kind == "M5":
            columns = ["n", "gap", "target_zero"]
            rows = [[n, _cell(v), 0] for n, v in series]
        elif self.kind == "M2":
            columns = ["n", "r", "value", "target", "deviation"]
            rows = [[n, r, _cell(v), _cell(self.target), _cell(devs.get((n, r)))] for (n, r), v in series]
        else:
            columns = ["n", "value", "target", "deviation"]
            rows = [[n, _cell(v), _cell(self.target), _cell(devs.get(n))] for n, v in series]
        write_csv(path, self.metadata, columns, rows)


def _cell(value):
    return "" if value is None else format_rational(value)


def m5_report(
    F: Evolution,
    n_list,
    family: BoxFamily | None = None,
    metadata: dict | None = None,
) -> CorrelationReport:
    """M5 gaps of F at the times ``n_list``: F against strips of its own
    depth m, so its reduction evolved n - 2m steps (``Evolution.at``)."""
    if family is None:
        family = BoxFamily.translation_invariant(F.site.dim)
    av = F.average(family)
    if av is None:
        raise ValueError("M5 gap needs an observable with an analytic average")
    series = {n: F.at(n, F.depth).sup_deviation(av) for n in n_list}
    return CorrelationReport(
        "M5",
        series,
        Fraction(0),
        gap_series=dict(series),
        metadata={"m_offset": F.depth, **(metadata or {})},
    )


def m4_report(
    F: Evolution,
    g: LocalObservable,
    n_list,
    family: BoxFamily | None = None,
    metadata: dict | None = None,
) -> CorrelationReport:
    """mu((F o T^n) g) at the times ``n_list``, for strips g (of depth 0): F's
    reduction evolved n - m steps, m the depth of F (``Evolution.at``).

    The gap at n is the sup deviation of that evolution times mu(|g|).
    """
    if family is None:
        family = BoxFamily.translation_invariant(F.site.dim)
    av = F.average(family)
    target = None if av is None else av * g.mass()
    evs = {n: F.at(n, 0) for n in n_list}
    series = {n: _pair(ev, g.terms) for n, ev in evs.items()}
    gaps = {}
    if av is not None:
        gaps = {n: ev.sup_deviation(av) * g.abs_mass() for n, ev in evs.items()}
    return CorrelationReport("M4", series, target, gap_series=gaps, metadata=metadata or {})


def m2_table(
    F: Evolution,
    G: Evolution,
    n_list,
    r_list,
    family: BoxFamily | None = None,
    eps_schedule=(Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)),
    metadata: dict | None = None,
) -> CorrelationReport:
    """Matrix of box averages mu_V((F o T^n) G) plus the eps-M certificate scan.

    An entry pairs F at time n with G by ``Evolution.at``: a site G through
    the box sum of its product with F's reduction evolved n - m_F steps; a
    cell G as itself, its default against that evolution and its in-box
    image strips against the one m_G steps shorter.  For each eps of the
    schedule, the scan looks for the smallest threshold M such that every
    computed entry with n >= M and box volume >= M deviates from Av(F) Av(G)
    by less than eps; ``None`` records that no threshold within the scanned
    grid certifies the joint limit (which is how the centered-family sign
    counterexample shows up).
    """
    dim = F.site.dim
    if family is None:
        family = BoxFamily.translation_invariant(dim)
    av_f, av_g = F.average(family), G.average(family)
    target = None if av_f is None or av_g is None else av_f * av_g
    series = {}
    for n in sorted(n_list):
        shifted, ev = F.at(n, G.depth), F.at(n, 0)  # the pair's offset is refused first
        for r in sorted(int(r) for r in r_list):
            box = Box.centered(origin(dim), r)
            series[(n, r)] = box_average_product(ev, G.base, box) + _pair(shifted, G.images_in(box)) / box.size
    scan = {}
    if target is not None:
        volumes = {(2 * r + 1) ** dim for _, r in series}
        thresholds = sorted({n for n, _ in series} | volumes)
        for eps in eps_schedule:
            found = None
            for M in thresholds:
                qualifying = [
                    abs(v - target)
                    for (n, r), v in series.items()
                    if n >= M and (2 * r + 1) ** dim >= M
                ]
                if qualifying and all(d < eps for d in qualifying):
                    found = M
                    break
            scan[format_rational(Fraction(eps))] = found
    return CorrelationReport("M2", series, target, metadata=metadata or {}, eps_scan=scan)


def m1_report(
    F: Evolution,
    G: Evolution,
    n_list,
    metadata: dict | None = None,
) -> CorrelationReport:
    """Av((F o T^n) G) at the times ``n_list``, for a periodic F (of depth 0).

    A cell G enters through its marginal: its finite excess has no density.
    Any other pair (``m1_computable``) is refused, naming the rule it breaks,
    before anything is evolved.
    """
    if not m1_computable(F, G):
        needs = "a periodic F" if F.site.tail.box is not None else "a G with an exact translation-invariant average"
        raise ValueError(f"M1 series needs {needs}")
    family = BoxFamily.translation_invariant(F.site.dim)
    target = F.average(family) * G.average(family)
    series = {n: product_average([F.at(n, 0), G.marginal], family) for n in n_list}
    return CorrelationReport("M1", series, target, metadata=metadata or {})


# ---------------------------------------------------------------------------
# rate extraction


@record(frozen=True)
class RateFit:
    """Least-squares decay rates of |value - target| in n and in log n."""

    exponential_rate: float | None  # value ~ exp(-rate * n)
    polynomial_exponent: float | None  # value ~ n^(-exponent)
    floor: bool
    points_used: int


def _log_deviation(v, target) -> float | None:
    """log |v - target| as log num - log den, None where v equals the target."""
    if not (isinstance(v, Rational) and isinstance(target, Rational)):
        raise TypeError(f"rate fitting takes exact values, got {v!r} against the target {target!r}")
    d = abs(Fraction(v) - Fraction(target))
    return log(d.numerator) - log(d.denominator) if d else None


def _slope(xs, ys) -> float:
    """The least-squares slope of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def rate_profile(series, target=Fraction(0)) -> RateFit:
    """Fit decay rates to a series n -> value against its target.

    Accepts a plain mapping or a CorrelationReport, whose own target is then
    used; a report without one (an observable with no average) is refused
    with a ValueError rather than fitted against a default.  Values equal to
    the target are treated as floor; a series with fewer than two points off
    the floor gets the floor flag instead of rates.
    The power law fits against log n, so only on the points with n >= 1; it
    is None when fewer than two of them remain.
    Values must be exact (ints or Fractions): a float raises TypeError
    instead of being read as the nonzero rational it rounds to.
    """
    if isinstance(series, CorrelationReport):
        if series.kind == "M2":
            raise ValueError("rate fitting needs a single-index series, not an M2 matrix")
        if series.target is None:
            raise ValueError(f"the {series.kind} report has no target: its observable has no average under the family")
        target = series.target
        series = series.series
    if len(series) < 4:
        raise ValueError("rate fitting needs at least 4 points")
    ns, logs = [], []
    for n, v in sorted(series.items()):
        log_d = _log_deviation(v, target)
        if log_d is not None:
            ns.append(float(n))
            logs.append(log_d)
    if len(ns) < 2:
        return RateFit(None, None, True, len(ns))
    positive = [(log(n), y) for n, y in zip(ns, logs) if n >= 1]
    polynomial = -_slope(*zip(*positive)) if len(positive) > 1 else None
    return RateFit(-_slope(ns, logs), polynomial, False, len(ns))


# ---------------------------------------------------------------------------
# implication audit: M5 => M4 => M3, and the M5 => M2 route


@record(frozen=True, eq=False)
class M4AuditRow:
    observable: int
    local: int
    n: int
    deviation: object
    bound: object
    zero_mean: bool

    @property
    def ok(self) -> bool:
        return self.deviation <= self.bound


@record(frozen=True, eq=False)
class M2AuditRow:
    observable: int
    other: int
    n: int
    r: int
    term1: object  # |Av F| * |mu_V(G) - Av G|
    term2: object  # decomposition defect (identically 0 for box families)
    term3: object  # gap * mu_V(|G|); a cell G's images take the gap m_G steps earlier
    measured: object

    @property
    def bound(self):
        return self.term1 + self.term2 + self.term3

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound


@record(eq=False)
class AuditRecord:
    m4_rows: tuple
    m2_rows: tuple
    metadata: dict

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.m4_rows) and all(r.ok for r in self.m2_rows)

    def write_csv(self, path):
        write_csv(
            path,
            self.metadata,
            ["n", "r", "term1", "term2", "term3", "bound", "measured"],
            [
                [row.n, row.r, *(_cell(v) for v in (row.term1, row.term2, row.term3, row.bound, row.measured))]
                for row in self.m2_rows
            ],
        )

    def to_json_dict(self) -> dict:
        return to_jsonable(
            {
                "ok": self.ok,
                "m4": [{**to_jsonable(r), "ok": r.ok} for r in self.m4_rows],
                "m2": [{**to_jsonable(r), "bound": r.bound, "ok": r.ok} for r in self.m2_rows],
                "metadata": self.metadata,
            }
        )


def implication_audit(
    evolutions: list[Evolution],
    locals_: list[LocalObservable],
    n_list,
    r_list,
    family: BoxFamily | None = None,
    metadata: dict | None = None,
) -> AuditRecord:
    """Numerical audit of the implication chain on a suite of observables.

    The globals are one or more Evolutions of site or cell observables under
    one walk, each taken as it was read and paired by ``Evolution.at``.
    With gap(t) the sup deviation of F o T^t from Av F, every M4 deviation
    must sit below gap(n) * mu(|g|) (M3 for zero-mean locals).  The M5-to-M2 route decomposes G over the squares of
    the box: with g_alpha = G 1_{square alpha} the deviation
    |mu_V((F o T^n) G) - Av F Av G| is dominated by
    |Av F| |mu_V(G) - Av G|  +  0  +  gap(n) * mu_V(|G|),
    the middle term being exactly zero here because the decomposition is
    exact on every box.  A cell G splits into its default d, met by
    F o T^n, and its in-box image strips, met by F o T^(n - m_G), so its
    last term is gap(n) |d| + gap(n - m_G) * (their mass in |G - d|) / |V|.
    All comparisons are exact for rational inputs.  The rows audit the
    reports' own numbers: the deviations and bounds of ``m4_report`` and the
    deviations of ``m2_table``.  Only the globals with an average under the
    family are audited, and a suite with none, which would check nothing,
    is refused with a ConfigError.
    """
    dim = evolutions[0].p.dim
    if family is None:
        family = BoxFamily.translation_invariant(dim)
    n_list = sorted(int(n) for n in n_list)
    r_list = sorted(int(r) for r in r_list)
    boxes = {r: Box.centered(origin(dim), r) for r in r_list}
    averages = [G.average(family) for G in evolutions]
    convergent = [i for i, av in enumerate(averages) if av is not None]
    if not convergent:
        raise ConfigError(f"audit needs a global observable with an average under the {family.kind} family, and none has one")
    # mu_V(G), mu_V(|base of G|) and the images' mass in |G| / |V| depend on neither F nor n;
    # each observable takes every radius in turn, so its box sums share one pass
    means = {}
    for gi in convergent:
        G = evolutions[gi]
        abs_base = SiteObservable(G.base.dim, abs(G.base.tail))
        mu_g = [box_average(G.marginal, box) for box in boxes.values()]
        mu_base = [box_average(abs_base, box) for box in boxes.values()]
        means[gi] = {
            r: (g, base, sum((abs(e) * s.height for s, e in G.images_in(box)), Fraction(0)) / box.size)
            for (r, box), g, base in zip(boxes.items(), mu_g, mu_base)
        }
    m4_rows = []
    m2_rows = []
    for fi in convergent:
        F, av_f = evolutions[fi], averages[fi]
        for gi, g in enumerate(locals_):
            m4 = m4_report(F, g, n_list, family)
            devs = m4.deviations()
            m4_rows.extend(M4AuditRow(fi, gi, n, devs[n], m4.gap_series[n], g.mass() == 0) for n in n_list)
        for gi in convergent:
            G = evolutions[gi]
            devs = m2_table(F, G, n_list, r_list, family, eps_schedule=()).deviations()
            for n in n_list:
                gap, image_gap = F.at(n, 0).sup_deviation(av_f), F.at(n, G.depth).sup_deviation(av_f)
                for r in r_list:
                    mu_g, mu_base, mu_images = means[gi][r]
                    term1, term3 = abs(av_f) * abs(mu_g - averages[gi]), gap * mu_base + image_gap * mu_images
                    m2_rows.append(M2AuditRow(fi, gi, n, r, term1, Fraction(0), term3, devs[(n, r)]))
    return AuditRecord(tuple(m4_rows), tuple(m2_rows), metadata or {})

