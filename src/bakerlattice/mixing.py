"""Estimators for the five infinite-volume mixing notions.

Global-local correlations mu((F o T^n) g) for a tail-modeled site function F
and a finite weighted-strip local observable g reduce exactly to
sum_terms weight * height * (n-step site evolution of F)(strip site); the
brute-force itinerary enumeration provides an independent exact oracle for
the same quantity.  Global-global quantities are exact box averages of the
evolved product.  Everything stays rational when the inputs are rational;
rate extraction is the one float step.

Notions measured (t the time, V a box of the exhaustive family):
  M1  Av((F o T^t) G) -> Av(F) Av(G)           (average of the product exists)
  M2  mu_V((F o T^t) G) -> Av(F) Av(G)         (joint limit in t and V)
  M3  mu((F o T^t) g) -> 0 for mu(g) = 0
  M4  mu((F o T^t) g) -> Av(F) mu(g)
  M5  sup over g != 0 of |mu((F o T^t) g) - Av(F) mu(g)| / mu(|g|) -> 0
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import log
from numbers import Rational

from .lattice import WalkDistribution, origin
from .observables import (
    NON_CONVERGENT,
    Box,
    BoxFamily,
    CellObservable,
    Sentinel,
    SiteObservable,
    box_average,
    box_average_product,
    evolve_site,
    product_average,
)
from .phase import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PartitionTable,
    Strip,
    cylinder_interval,
    push_strip,
)
from .rational import field, format_rational, record, to_jsonable, write_csv


# the requested limit is outside the analytic tail models
NOT_COMPUTABLE = Sentinel("NotComputable")


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


# ---------------------------------------------------------------------------
# correlations


def correlate_global_local(
    f: SiteObservable, g: LocalObservable, p: WalkDistribution, n: int
):
    """mu((F o T^n) g), exactly, through the n-step site evolution of f.

    The integral of a stable site function over a full-width strip only sees
    the strip's site and height, so the correlation is the weighted sum of
    the evolved values at the strip sites.
    """
    return _pair(evolve_site(f, p, n), g)


def _pair(ev: SiteObservable, g: LocalObservable):
    """mu(ev g) for a stable site function ev and a strip combination g."""
    return sum((w * s.height * ev.value(s.site) for s, w in g.terms), Fraction(0))


def m5_gap(
    f: SiteObservable,
    p: WalkDistribution,
    n: int,
    m_offset: int = 0,
    family: BoxFamily | None = None,
):
    """Exact sup over unit-mass strip observables of the M4 deviation at time n.

    The supremum over weighted strips of |mu((F o T^n) g) - Av(F) mu(g)| /
    mu(|g|) is attained on single strips and equals
    sup_alpha |(evolved f)(alpha) - Av(f)|, which the tail model makes exact.
    For a depth-m observable pair the gap reported at time n is the depth-0
    gap at n - 2m (m forward steps absorb the contracting digits of F, m
    backward steps those of g).
    """
    if m_offset < 0:
        raise ValueError("depth offset must be nonnegative")
    if n < 2 * m_offset:
        raise ValueError(f"time {n} is below the depth offset 2m = {2 * m_offset}")
    return m5_report(f, {n: evolve_site(f, p, n - 2 * m_offset)}, family, m_offset).series[n]


def m2_entry(
    f: SiteObservable, g: SiteObservable, p: WalkDistribution, n: int, box: Box
):
    """mu_V((F o T^n) G) over V = box x [0,1)^2, exactly."""
    return box_average_product(evolve_site(f, p, n), g, box)


def m1_computable(f: SiteObservable, g: SiteObservable) -> bool:
    """M1's rules: F is periodic and G has an exact translation-invariant average."""
    return f.tail.box is None and g.analytic_average(BoxFamily.translation_invariant(g.dim)) is not NON_CONVERGENT


def m1_limit(f: SiteObservable, g: SiteObservable, p: WalkDistribution, n: int):
    """Av((F o T^n) G) for periodic F, from the backgrounds of both tails.

    A G without an exact translation-invariant average is NOT_COMPUTABLE (a
    statement about the tail models, not a mixing failure); it is detected
    before anything is evolved.
    """
    if f.tail.box is not None:
        raise ValueError("M1 limit needs a periodic first observable")
    if not m1_computable(f, g):
        return NOT_COMPUTABLE
    return m1_report(f, g, {n: evolve_site(f, p, n)}).series[n]


def itinerary_oracle(
    F,
    Q: Strip,
    p: WalkDistribution,
    n: int,
    budget: int = DEFAULT_BUDGET,
):
    """Ground truth mu((F o T^n) 1_Q) by exact enumeration of the N^n strips.

    Accepts a site observable or a depth-m cell observable; for the latter
    each image strip is integrated cell by cell (forward digits weight the
    full-width coordinate by cylinder widths, backward digits intersect the
    strip interval with contracting cylinders).  Raises BudgetExceededError
    before anything is pushed when N^(n+2m) would exceed ``budget`` (m = 0
    for a site observable).
    """
    if not isinstance(F, (SiteObservable, CellObservable)):
        raise TypeError("oracle needs a site observable or a cell observable")
    m = F.depth if isinstance(F, CellObservable) else 0
    if p.size ** (n + 2 * m) > budget:
        raise BudgetExceededError(
            f"N^(n+2m) = {p.size}^{n + 2 * m} exceeds the itinerary budget {budget}"
        )
    table = PartitionTable.from_walk(p)
    pushed = push_strip(Q, p, n, budget=budget, table=table)
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
        if self.target is None or self.target is NON_CONVERGENT:
            return {}
        return {k: abs(v - self.target) for k, v in self.series.items()}

    def to_json_dict(self) -> dict:
        return to_jsonable(
            {
                "kind": self.kind,
                "target": None if self.target is NON_CONVERGENT else self.target,
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
    if value is None:
        return ""
    if value is NON_CONVERGENT:
        return "NonConvergent"
    return format_rational(value)


def m5_report(
    f: SiteObservable,
    evs: Mapping[int, SiteObservable],
    family: BoxFamily | None = None,
    m_offset: int = 0,
    metadata: dict | None = None,
) -> CorrelationReport:
    """M5 gaps of f over its evolutions ``evs``: time n -> f evolved n - 2m steps."""
    if family is None:
        family = BoxFamily.translation_invariant(f.dim)
    av = f.analytic_average(family)
    if av is NON_CONVERGENT:
        raise ValueError("M5 gap needs an observable with an analytic average")
    series = {n: ev.sup_deviation(av) for n, ev in evs.items()}
    return CorrelationReport(
        "M5",
        series,
        Fraction(0),
        gap_series=dict(series),
        metadata={"m_offset": m_offset, **(metadata or {})},
    )


def m4_report(
    f: SiteObservable,
    g: LocalObservable,
    evs: Mapping[int, SiteObservable],
    family: BoxFamily | None = None,
    metadata: dict | None = None,
) -> CorrelationReport:
    """mu((F o T^n) g) over the evolutions ``evs`` (n -> f evolved n - m steps, m the depth of F).

    The gap at n is the M5 gap of the evolution at n times mu(|g|).
    """
    if family is None:
        family = BoxFamily.translation_invariant(f.dim)
    av = f.analytic_average(family)
    target = None if av is NON_CONVERGENT else av * g.mass()
    series = {n: _pair(ev, g) for n, ev in evs.items()}
    gaps = {}
    if av is not NON_CONVERGENT:
        gaps = {n: ev.sup_deviation(av) * g.abs_mass() for n, ev in evs.items()}
    return CorrelationReport("M4", series, target, gap_series=gaps, metadata=metadata or {})


def m2_table(
    f: SiteObservable,
    g: SiteObservable,
    evs: Mapping[int, SiteObservable],
    r_list,
    family: BoxFamily | None = None,
    eps_schedule=(Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)),
    metadata: dict | None = None,
) -> CorrelationReport:
    """Matrix of box averages mu_V((F o T^n) G) plus the eps-M certificate scan.

    ``evs`` maps each time n to f evolved n steps.  For each eps of the
    schedule, the scan looks for the smallest threshold M such that every
    computed entry with n >= M and box volume >= M deviates from Av(F) Av(G)
    by less than eps; ``None`` records that no threshold within the scanned
    grid certifies the joint limit (which is how the centered-family sign
    counterexample shows up).
    """
    if family is None:
        family = BoxFamily.translation_invariant(f.dim)
    av_f, av_g = f.analytic_average(family), g.analytic_average(family)
    have_target = av_f is not NON_CONVERGENT and av_g is not NON_CONVERGENT
    target = av_f * av_g if have_target else NON_CONVERGENT
    series = {}
    for n in sorted(evs):
        for r in sorted(int(r) for r in r_list):
            series[(n, r)] = box_average_product(evs[n], g, Box.centered(origin(f.dim), r))
    scan = {}
    if have_target:
        volumes = {(2 * r + 1) ** f.dim for _, r in series}
        thresholds = sorted({n for n, _ in series} | volumes)
        for eps in eps_schedule:
            found = None
            for M in thresholds:
                qualifying = [
                    abs(v - target)
                    for (n, r), v in series.items()
                    if n >= M and (2 * r + 1) ** f.dim >= M
                ]
                if qualifying and all(d < eps for d in qualifying):
                    found = M
                    break
            scan[format_rational(Fraction(eps))] = found
    return CorrelationReport("M2", series, target, metadata=metadata or {}, eps_scan=scan)


def m1_report(
    f: SiteObservable,
    g: SiteObservable,
    evs: Mapping[int, SiteObservable],
    metadata: dict | None = None,
) -> CorrelationReport:
    """Av((F o T^n) G) over the evolutions ``evs`` (n -> f evolved n steps)."""
    if not m1_computable(f, g):
        raise ValueError("M1 series not computable for these tail models")
    family = BoxFamily.translation_invariant(f.dim)
    target = f.analytic_average(family) * g.analytic_average(family)
    series = {n: product_average([ev, g], family) for n, ev in evs.items()}
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

    Accepts a plain mapping or a CorrelationReport (whose own target is then
    used).  Values equal to the target are treated as floor; a series with
    fewer than two points off the floor gets the floor flag instead of rates.
    The power law fits against log n, so only on the points with n >= 1; it
    is None when fewer than two of them remain.
    Values must be exact (ints or Fractions): a float raises TypeError
    instead of being read as the nonzero rational it rounds to.
    """
    if isinstance(series, CorrelationReport):
        if series.kind == "M2":
            raise ValueError("rate fitting needs a single-index series, not an M2 matrix")
        target = series.target if series.target is not None else target
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
    term3: object  # gap * mu_V(|G|)
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
    p: WalkDistribution,
    globals_: list[SiteObservable],
    locals_: list[LocalObservable],
    n_list,
    r_list,
    family: BoxFamily | None = None,
    metadata: dict | None = None,
) -> AuditRecord:
    """Numerical audit of the implication chain on a suite of observables.

    M5 bounds M4 (and M3 for zero-mean locals): every correlation deviation
    must sit below gap * mu(|g|).  The M5-to-M2 route decomposes G over the
    squares of the box: with g_alpha = G 1_{square alpha} the deviation
    |mu_V((F o T^n) G) - Av F Av G| is dominated by
    |Av F| |mu_V(G) - Av G|  +  0  +  gap * mu_V(|G|),
    the middle term being exactly zero here because the decomposition is
    exact on every box.  All comparisons are exact for rational inputs.
    The rows audit the reports' own numbers: the gaps of ``m5_report``, the
    deviations and bounds of ``m4_report`` and the deviations of ``m2_table``.
    """
    if family is None:
        family = BoxFamily.translation_invariant(p.dim)
    n_list = sorted(int(n) for n in n_list)
    r_list = sorted(int(r) for r in r_list)
    boxes = {r: Box.centered(origin(p.dim), r) for r in r_list}
    averages = [G.analytic_average(family) for G in globals_]
    convergent = [i for i, av in enumerate(averages) if av is not NON_CONVERGENT]
    # mu_V(G) and mu_V(|G|) depend on neither F nor n
    means = {}
    for gi in convergent:
        G = globals_[gi]
        abs_G = SiteObservable(G.dim, G.tail.map(abs))
        means[gi] = {r: (box_average(G, box), box_average(abs_G, box)) for r, box in boxes.items()}
    m4_rows = []
    m2_rows = []
    for fi in convergent:
        f, av_f = globals_[fi], averages[fi]
        evs = {n: evolve_site(f, p, n) for n in n_list}
        gaps = m5_report(f, evs, family).series
        for gi, g in enumerate(locals_):
            m4 = m4_report(f, g, evs, family)
            devs = m4.deviations()
            m4_rows.extend(M4AuditRow(fi, gi, n, devs[n], m4.gap_series[n], g.mass() == 0) for n in n_list)
        for gi in convergent:
            m2 = m2_table(f, globals_[gi], evs, r_list, family, eps_schedule=())
            devs = m2.deviations()
            term1 = {r: abs(av_f) * abs(means[gi][r][0] - averages[gi]) for r in r_list}
            m2_rows.extend(
                M2AuditRow(fi, gi, n, r, term1[r], Fraction(0), gaps[n] * means[gi][r][1], devs[(n, r)])
                for n in n_list
                for r in r_list
            )
    return AuditRecord(tuple(m4_rows), tuple(m2_rows), metadata or {})

