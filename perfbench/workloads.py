"""The three benchmark workloads: generated configs, command lines and checks.

Every input the program sees comes from here, drawn from the benchmark seed.
The seed changes table values, strip bounds and the configs' own seeds; it
never changes a workload's shape (which commands run, how many observables,
locals, times and radii), so every seed does the same amount of work and
produces the same call counts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("audit-2d", "report-1d", "law-diagnostics")

# Reference walks, written out here rather than taken from the program's presets.
LAZY_2D = {(0, 0): Fraction(1, 5), (1, 0): Fraction(1, 5), (-1, 0): Fraction(1, 5),
           (0, 1): Fraction(1, 5), (0, -1): Fraction(1, 5)}
THIRD_WALK = {(-1,): Fraction(1, 3), (0,): Fraction(1, 3), (1,): Fraction(1, 3)}
# Dyadic weights: binary64 Monte Carlo runs out of bits after ~53/2 steps.
DYADIC_1D = {(-1,): Fraction(1, 2), (1,): Fraction(1, 4), (2,): Fraction(1, 4)}

# Defaults of the `correlate` command (cli._DEFAULT_CONFIG), restated.
CORRELATE_DEFAULT_N = [1, 2, 3, 4, 5, 6, 8, 10, 12]


@dataclass(frozen=True)
class Op:
    """One command invocation and the check its outputs must pass.

    ``known_fault`` names a fault of the program that makes the check fail on
    every run, on inputs that do not depend on the seed; such an operation is
    counted as failed without making the run incorrect.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable
    known_fault: str | None = None


def _q(value) -> str:
    return str(Fraction(value))


def _nonzero(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _strip_bounds(rng: random.Random) -> tuple[Fraction, Fraction]:
    lo, hi = sorted(rng.sample([Fraction(k, 4) for k in range(5)], 2))
    return lo, hi


def _write(config_dir: Path, name: str, config: dict) -> str:
    path = config_dir / f"{name}.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return str(path)


def audit_2d(rng: random.Random, config_dir: Path) -> list[Op]:
    constant = _nonzero(rng)
    box_sites = ((0, 0), (1, 0), (0, -1), (-1, 1))
    local_table = {f"{a},{b}": str(_nonzero(rng)) for a, b in box_sites}
    period = (2, 3)
    periodic_table = {(i, j): Fraction(_nonzero(rng)) for i in range(2) for j in range(3)}
    lo0, hi0 = _strip_bounds(rng)
    lo1, hi1 = _strip_bounds(rng)
    lo2, hi2 = _strip_bounds(rng)
    locals_ = [
        [((0, 0), lo0, hi0, Fraction(1))],
        [((1, -1), lo1, hi1, Fraction(_nonzero(rng))), ((-2, 0), lo2, hi2, Fraction(_nonzero(rng)))],
    ]
    n_list = [2, 3, 5, 6]
    r_list = [2, 4, 8, 16]
    config = {
        "walk": {"preset": "lazy-2d"},
        "observables": [
            {"kind": "constantOutsideBox", "constant": str(constant), "radius": 1, "table": local_table},
            {"kind": "periodic", "period": list(period),
             "table": {f"{i},{j}": _q(v) for (i, j), v in periodic_table.items()}},
        ],
        "locals": [
            {"terms": [{"site": list(s), "lo": _q(lo), "hi": _q(hi), "weight": _q(w)} for s, lo, hi, w in terms]}
            for terms in locals_
        ],
        "schedules": {"n_list": n_list, "r_list": r_list},
        "seed": rng.randrange(2**32),
    }
    path = _write(config_dir, "audit", config)
    check = partial(
        checks.audit_2d,
        walk=LAZY_2D,
        period=period,
        periodic_table=periodic_table,
        periodic_index=1,
        locals_=locals_,
        n_list=n_list,
        rows=(2 * 2 * len(n_list), 2 * 2 * len(n_list) * len(r_list)),
    )
    return [Op("audit", ("audit", "--config", path), check)]


def report_1d(rng: random.Random, config_dir: Path) -> list[Op]:
    amplitude = rng.choice((1, 2, 3))
    digits = lambda: [rng.randint(1, 3) for _ in range(2)]
    cell_values = [
        {"site": [site], "back": digits(), "fwd": digits(), "value": str(rng.randint(1, 3))}
        for site in (0, 1, -1)
    ]
    lo, hi = _strip_bounds(rng)
    lo2, hi2 = _strip_bounds(rng)
    n_list = [4, 8, 16, 32]
    config = {
        "walk": {"preset": "third-walk"},
        "family": "centeredOnly",
        "observables": [
            {"kind": "periodic", "period": [2], "table": {"0": str(amplitude), "1": str(-amplitude)}},
            {"kind": "sign1d"},
            {"kind": "constantOutsideBox", "constant": _q(Fraction(_nonzero(rng), 2)), "radius": 2,
             "table": {str(s): str(_nonzero(rng)) for s in (-2, 0, 1)}},
            {"kind": "cell", "m": 2, "values": cell_values},
        ],
        "locals": [
            {"terms": [{"site": [0]}]},
            {"terms": [
                {"site": [2], "lo": _q(lo), "hi": _q(hi), "weight": str(_nonzero(rng))},
                {"site": [-1], "lo": _q(lo2), "hi": _q(hi2), "weight": str(_nonzero(rng))},
            ]},
        ],
        "schedules": {"n_list": n_list, "r_list": [8, 32, 128, 512], "radii": [8, 64, 512]},
        "mixing_kinds": ["M5", "M4", "M2", "M1"],
        "seed": rng.randrange(2**32),
    }
    path = _write(config_dir, "report", config)
    report = Op(
        "mixing-report",
        ("mixing-report", "--config", path),
        partial(checks.report_1d, amplitude=amplitude, n_list=n_list, artifacts=50),
    )
    correlate = Op(
        "correlate",
        ("correlate", "--seed", str(rng.randrange(2**32))),
        partial(checks.correlate_default, n_list=CORRELATE_DEFAULT_N),
    )
    return [report, correlate]


def law_diagnostics(rng: random.Random, config_dir: Path) -> list[Op]:
    decay_1d = {"walk": {"preset": "third-walk"},
                "schedules": {"decay_n_list": [4, 16, 64, 256, 512]}, "seed": rng.randrange(2**32)}
    decay_2d = {"walk": {"preset": "lazy-2d"},
                "schedules": {"decay_n_list": [4, 8, 16, 24]}, "seed": rng.randrange(2**32)}
    sim = {"walk": {"preset": "lazy-2d"}, "steps": 16, "samples": 50_000, "seed": rng.randrange(2**32)}
    # The two fault operations use fixed inputs: they fail on every seed.
    dyadic = {
        "walk": {"dim": 1, "support": [{"beta": list(b), "p": _q(p)} for b, p in DYADIC_1D.items()]},
        "steps": 120,
        "samples": 20_000,
        "seed": 1,
    }
    deep_cell = {
        "observables": [{"kind": "cell", "m": 12,
                         "values": [{"site": [0], "back": [1] * 12, "fwd": [1] * 12, "value": "1"}]}],
    }
    seed_flag = ("--seed", str(rng.randrange(2**32)))
    return [
        Op("fourier-decay-1d", ("fourier-decay", "--config", _write(config_dir, "decay_1d", decay_1d)),
           partial(checks.fourier_decay, n_list=decay_1d["schedules"]["decay_n_list"])),
        Op("fourier-decay-2d", ("fourier-decay", "--config", _write(config_dir, "decay_2d", decay_2d)),
           partial(checks.fourier_decay, n_list=decay_2d["schedules"]["decay_n_list"])),
        Op("simulate-2d", ("simulate", "--config", _write(config_dir, "simulate_2d", sim)),
           partial(checks.simulate, walk=LAZY_2D, steps=sim["steps"], samples=sim["samples"])),
        Op("span-check", ("span-check", *seed_flag), checks.span_check),
        Op("a1-check", ("a1-check", *seed_flag), partial(checks.a1_check, walk=THIRD_WALK)),
        Op("nowak-test", ("nowak-test", *seed_flag), checks.nowak_test),
        Op("simulate-dyadic", ("simulate", "--config", _write(config_dir, "simulate_dyadic", dyadic)),
           partial(checks.simulate, walk=DYADIC_1D, steps=dyadic["steps"], samples=dyadic["samples"]),
           known_fault="binary64 y1 runs out of bits: the mean drifts far from n*drift"),
        Op("deep-cell", ("mixing-report", "--config", _write(config_dir, "deep_cell", deep_cell)),
           checks.config_error,
           known_fault="BudgetExceededError escapes as a traceback with exit 1, not a JSON error with exit 2"),
    ]


GENERATORS = {"audit-2d": audit_2d, "report-1d": report_1d, "law-diagnostics": law_diagnostics}


def build(workload: str, seed: int, config_dir: Path) -> list[Op]:
    """Write the workload's configs for this seed and return its operations."""
    config_dir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), config_dir)
