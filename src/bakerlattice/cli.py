"""Config-driven command line front end.

Every command reads one JSON config (or falls back to the bundled
third-walk defaults), writes its artifacts under --out, and prints a
one-line summary.  Exit codes: 0 success, 1 a checked assertion failed
(e.g. a norm inequality violated), 2 a ConfigError, reported as one JSON
line naming the field; 3 any other exception, which is a bug: ``run`` lets
it propagate, and ``main`` prints its traceback and then one JSON line
naming its type.  Each input has one way in, a config key, and an unknown,
misspelled or conflicting key exits 2.  So the config hash and seed that
every artifact embeds identify every input: identical inputs, identical bytes.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

# what every command runs; each command body imports its own layers, so a
# command loads only the modules it uses
from .lattice import (
    BoxFamily,
    LatticeSignal,
    WalkDistribution,
    a1_boundary_constant,
    a1_defect,
    origin,
    span_check,
)
from .presets import PRESETS, preset
from .rational import ConfigError, check_keys, format_rational, parse_integer, parse_integers, parse_rational
from .rational import write_csv, write_json

# the interpreter's own SHA-256, so that no command loads OpenSSL
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without builtin hashes
        from hashlib import sha256

MIXING_KINDS = ("M5", "M4", "M2", "M1")


def _integers(value) -> list[int]:
    return list(parse_integers(value))


def _kinds(value) -> list[str]:
    if not isinstance(value, list) or not value or not all(isinstance(k, str) and k.upper() in MIXING_KINDS for k in value):
        raise ValueError(f"must be a nonempty list of kinds among {list(MIXING_KINDS)}, got {value!r}")
    return [k.upper() for k in value]


# Every key of a config and of its `schedules`: its default, its parser (None:
# the value goes to its own reader below) and its least value, or a list's
# least entry (such a list must not be empty).  A default of None is worked
# out by the command that reads the key.
_KEYS = {
    "walk": ({"preset": "third-walk"}, None, None),
    "observables": ([{"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}}], None, None),
    "family": ("translationInvariant", None, None),
    "locals": ([], None, None),
    "seed": (0, parse_integer, 0),
    "samples": (100000, parse_integer, 1),
    "steps": (4, parse_integer, 0),
    "mixing_kinds": (["M5"], _kinds, None),
    "nowak_dims": ([1, 2, 3], _integers, None),
    "nowak_count": (200, parse_integer, None),
    "nowak_radius": (6, parse_integer, 0),
    "schedules.n_list": ([1, 2, 3, 4, 5, 6, 8, 10, 12], _integers, 0),
    "schedules.r_list": ([1, 2, 4, 8, 16, 32], _integers, 0),
    "schedules.radii": ([4, 8, 16, 32], _integers, 0),
    "schedules.eps": ("1/10", parse_rational, None),
    "schedules.decay_n_list": (None, _integers, 1),
    "schedules.a1_r_list": ([10, 100, 1000], _integers, 1),
    "schedules.grid": (None, parse_integer, None),
}
# the keys whose defaults the config hash leaves out, as it always has
_UNHASHED = {"locals", "nowak_dims", "nowak_count", "nowak_radius", "schedules.decay_n_list", "schedules.a1_r_list",
             "schedules.grid"}


def _merged(config) -> dict:
    """``config``, its keys checked, over the defaults that its hash covers."""
    check_keys(config, "", {name.partition(".")[0] for name in _KEYS})
    check_keys(config.get("schedules", {}), "schedules", {name[10:] for name in _KEYS if name.startswith("schedules.")})
    merged = {**config, "schedules": dict(config.get("schedules", {}))}
    for name, (default, _, _) in _KEYS.items():
        head, _, key = name.rpartition(".")
        if name not in _UNHASHED:
            (merged[head] if head else merged).setdefault(key, json.loads(json.dumps(default)))
    return merged


def _get(config: dict, name: str):
    """The value of key ``name`` (``schedules.<key>`` for a schedule) of the
    merged config: parsed, at least its least value and, for a list, with
    no entry repeated; or its default."""
    default, parse, least = _KEYS[name]
    head, _, key = name.rpartition(".")
    level = config[head] if head else config
    if key not in level and default is None:
        return None
    value = level.get(key, default)
    if parse is None:
        return value
    value = _parsed(parse, value, name)
    if isinstance(value, list) and len(set(value)) < len(value):
        raise ConfigError(f"{name} repeats an entry, got {value}")
    if least is None:
        return value
    if isinstance(value, list):
        if not value:
            raise ConfigError(f"{name} is empty")
        if min(value) < least:
            raise ConfigError(f"{name} entries must be >= {least}, got {value}")
    elif value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return value


def _walk_from_config(spec) -> WalkDistribution:
    check_keys(spec, "walk", (), {"preset"}, {"dim", "support"})
    if "preset" not in spec:
        return _parsed(WalkDistribution.from_json_dict, spec, "invalid walk")
    if not isinstance(spec["preset"], str) or spec["preset"] not in PRESETS:
        raise ConfigError(f"unknown preset {spec['preset']!r}")
    return preset(spec["preset"])


def _observables_from_config(config: dict, walk: WalkDistribution):
    """Each observable as it was read, under the walk (``mixing.Evolution``)."""
    from .mixing import Evolution
    from .observables import observable_from_config

    out = []
    for spec in _objects(config["observables"], "observables"):
        name = f"invalid observable {spec!r}"
        F = _parsed(lambda cfg: Evolution(observable_from_config(walk.dim, cfg), walk), spec, name)
        if walk.dim > 1 and not F.site.tail.uniform:
            raise ConfigError(f"{name}: orthant constants that differ evolve exactly only in dimension 1")
        out.append(F)
    if not out:
        raise ConfigError("config declares no observables")
    return out


def _locals_from_config(config: dict, walk: WalkDistribution):
    from . import mixing
    from .phase import Strip

    specs = _objects(_get(config, "locals"), "locals")
    if not specs:
        return [mixing.LocalObservable.unit_square(origin(walk.dim))]
    out = []
    for j, spec in enumerate(specs):
        check_keys(spec, f"locals[{j}]", {"terms"})
        terms = []
        for k, term in enumerate(_objects(spec.get("terms"), f"locals[{j}].terms")):
            name = f"locals[{j}].terms[{k}]"
            check_keys(term, name, {"site", "lo", "hi", "weight"})
            site = _parsed(parse_integers, term.get("site", origin(walk.dim)), f"{name}.site")
            if len(site) != walk.dim:
                raise ConfigError(f"{name}.site: {list(site)} has dimension {len(site)}, the walk has dimension {walk.dim}")
            lo = _parsed(parse_rational, term.get("lo", 0), f"{name}.lo")
            hi = _parsed(parse_rational, term.get("hi", 1), f"{name}.hi")
            weight = _parsed(parse_rational, term.get("weight", 1), f"{name}.weight")
            terms.append((_parsed(lambda bounds: Strip(site, *bounds), (lo, hi), name), weight))
        out.append(_parsed(mixing.LocalObservable, tuple(terms), f"locals[{j}].terms"))
    return out


def _parsed(parse, value, name: str):
    """parse(value), with a malformed value reported as a ConfigError naming its field."""
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _objects(value, name: str) -> list:
    """A config field that must be a list of JSON objects."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ConfigError(f"{name} must be a list of objects, got {value!r}")
    return value


def _meta(config: dict, command: str) -> dict:
    """What every artifact embeds: the command, the hash of the merged config and the seed."""
    digest = sha256(json.dumps(config, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return {"command": command, "config_hash": digest[:16], "seed": config["seed"]}


# ---------------------------------------------------------------------------
# command bodies (each returns (exit_code, summary line, payload of <command>.json))


def _cmd_span_check(config, walk, family, out_dir, plot):
    verdict = span_check(walk)
    payload = {
        **_meta(config, "span-check"),
        "verdict": verdict.verdict,
        "basis": [list(row) for row in verdict.basis],
        "walk": walk.to_json_dict(),
    }
    return 0, json.dumps({"verdict": verdict.verdict}), payload


def _cmd_simulate(config, walk, family, out_dir, plot):
    from .phase import simulate_walk

    steps, samples = _get(config, "steps"), _get(config, "samples")
    hist = simulate_walk(walk, steps, samples, config["seed"])
    meta = _meta(config, "simulate")
    hist.write_csv(out_dir / "histogram.csv", {"config_hash": meta["config_hash"]})
    payload = {
        **meta,
        "steps": steps,
        "samples": samples,
        "empirical_mean": list(hist.empirical_mean()),
        "sites_seen": len(hist.counts),
    }
    return 0, f"simulate: {samples} samples, {len(hist.counts)} sites", payload


def _write_reports(reports: dict, out_dir, plot: bool) -> list:
    """Write each report as <stem>.csv and <stem>.json, with an SVG of each M5
    series when asked; the names written.  Every report is computed before
    the first is written, so a refused time writes nothing."""
    written = []
    for stem, report in reports.items():
        report.write_csv(out_dir / f"{stem}.csv")
        write_json(out_dir / f"{stem}.json", report)
        written.extend([f"{stem}.csv", f"{stem}.json"])
        if plot and report.kind == "M5":
            from .svgplot import write_loglog_svg

            xs = sorted(report.series)
            gaps = [float(report.series[n]) for n in xs]
            title = f"M5 gap, observable {report.metadata['observable']}"
            write_loglog_svg(out_dir / f"{stem}.svg", title, xs, {"gap": gaps})
            written.append(f"{stem}.svg")
    return written


def _cmd_correlate(config, walk, family, out_dir, plot):
    from . import mixing

    observables = _observables_from_config(config, walk)
    locals_ = _locals_from_config(config, walk)
    n_list = _get(config, "schedules.n_list")
    meta = _meta(config, "correlate")
    written = _write_reports(
        {
            f"correlate_{i}_{j}": mixing.m4_report(
                F, g, n_list, family, metadata={**meta, "observable": i, "local": j, "m_offset": F.depth}
            )
            for i, F in enumerate(observables)
            for j, g in enumerate(locals_)
        },
        out_dir,
        plot,
    )
    payload = {**meta, "walk": walk.to_json_dict(), "artifacts": written}
    return 0, f"correlate: wrote {len(written)} artifacts", payload


def _cmd_mixing_report(config, walk, family, out_dir, plot):
    from . import mixing
    from .observables import estimate_average

    observables = _observables_from_config(config, walk)
    locals_ = _locals_from_config(config, walk)
    n_list = _get(config, "schedules.n_list")
    kinds = _get(config, "mixing_kinds")
    r_list = _get(config, "schedules.r_list") if "M2" in kinds else []
    radii = _get(config, "schedules.radii")
    meta = _meta(config, "mixing-report")
    # the reports share each observable's Evolution: each (observable, steps) is evolved once
    reports = {}
    averages = []
    for i, F in enumerate(observables):
        est = estimate_average(F.marginal, family, radii)
        averages.append(
            {
                "observable": i,
                "value": "NonConvergent" if est.value is None else est.value,
                "uniformity_defect": est.uniformity_defect,
            }
        )
        if est.value is None:
            continue
        if "M5" in kinds:
            reports[f"m5_{i}"] = mixing.m5_report(F, n_list, family, metadata={**meta, "observable": i})
        if "M4" in kinds:
            for j, g in enumerate(locals_):
                meta_ij = {**meta, "observable": i, "local": j}
                reports[f"m4_{i}_{j}"] = mixing.m4_report(F, g, n_list, family, metadata=meta_ij)
    for i, j in itertools.combinations_with_replacement(range(len(observables)), 2):
        F, G = observables[i], observables[j]
        pair = {**meta, "observables": f"{i},{j}"}
        if "M2" in kinds:
            reports[f"m2_{i}_{j}"] = mixing.m2_table(F, G, n_list, r_list, family, metadata=pair)
        if "M1" in kinds and mixing.m1_computable(F, G):
            reports[f"m1_{i}_{j}"] = mixing.m1_report(F, G, n_list, metadata=pair)
    written = _write_reports(reports, out_dir, plot)
    payload = {**meta, "kinds": kinds, "walk": walk.to_json_dict(), "averages": averages, "artifacts": written}
    return 0, f"mixing-report: kinds={','.join(kinds)}, {len(written)} artifacts", payload


def _cmd_fourier_decay(config, walk, family, out_dir, plot):
    from . import fourier

    eps = _get(config, "schedules.eps")
    try:
        fc = fourier.FourierConfig(walk.dim, eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the defect's support grows like (2n+1)^d and the torus grid like M^d
    # with M above twice the bandwidth; keep the default schedule short
    # above one dimension
    n_list = sorted(_get(config, "schedules.decay_n_list") or ([4, 16, 64, 256] if walk.dim == 1 else [4, 16, 64]))
    n_max = n_list[-1]
    bandwidth = n_max * walk.max_step + fc.radius(n_max)
    grid = _get(config, "schedules.grid")
    if grid is None:
        grid = fourier.smallest_grid(bandwidth)
    if grid <= 2 * bandwidth:
        raise ConfigError(
            f"grid {grid} is below the bandwidth {2 * bandwidth + 1} required for n_max={n_max}"
        )
    rows = []
    embedding_ok = True
    for n in n_list:
        g, norms = fourier.defect_signal(walk, n, fc, grid)
        rows.append(norms)
        embedding_ok = fourier.nowak_check(g, fc.nu) and embedding_ok
    meta = _meta(config, "fourier-decay")
    write_csv(
        out_dir / "decay.csv",
        meta,
        ["n", "r_n", "l1_grid", "sobolev", "a_norm", "bound"],
        [[row.n, row.r, repr(row.l1_grid), repr(row.sobolev), repr(row.a_norm), repr(row.bound)] for row in rows],
    )
    payload = {
        **meta,
        "eps": format_rational(eps),
        "eps_within_proof_bound": fc.eps_within_proof_bound,
        "eps_proof_bound": format_rational(fc.eps_proof_bound),
        "grid": grid,
        "rows": rows,
        "monotone": all(
            rows[i].h_total >= rows[i + 1].h_total for i in range(len(rows) - 1)
        ),
        "embedding_ok": embedding_ok,
    }
    if plot:
        from .svgplot import write_loglog_svg

        write_loglog_svg(
            out_dir / "decay.svg",
            "defect norm decay",
            [row.n for row in rows],
            {
                "l1_grid": [row.l1_grid for row in rows],
                "sobolev": [row.sobolev for row in rows],
                "a_norm": [row.a_norm for row in rows],
            },
        )
    code = 0 if payload["embedding_ok"] else 1
    return code, f"fourier-decay: monotone={payload['monotone']} embedding_ok={payload['embedding_ok']}", payload


def _cmd_nowak_test(config, walk, family, out_dir, plot):
    dims, count, radius = (_get(config, name) for name in ("nowak_dims", "nowak_count", "nowak_radius"))
    if count < 1 or not dims or not all(1 <= d <= 4 for d in dims):
        raise ConfigError(f"nowak-test needs nowak_count >= 1 and some nowak_dims in 1..4, got {count} and {dims}")
    import random

    from . import embedding

    rng = random.Random(config["seed"])
    failures = []
    for d in dims:
        for k in range(count):
            sig = _random_signal(rng, d, radius)
            if not embedding.nowak_check(sig):
                failures.append({"dim": d, "index": k})
    payload = {
        **_meta(config, "nowak-test"),
        "dims": dims,
        "count": count,
        "radius": radius,
        "constants": {str(d): embedding.nowak_constant(d) for d in dims},
        "failures": failures,
    }
    code = 0 if not failures else 1
    return code, f"nowak-test: {len(failures)} violations in {count * len(dims)} signals", payload


def _random_signal(rng, dim: int, radius: int) -> LatticeSignal:
    """Up to 6 sites in [-radius, radius]^dim, values n/m with |n| <= 9, 1 <= m <= 9."""
    entries = {}
    for _ in range(rng.randint(1, 6)):
        site = tuple(rng.randint(-radius, radius) for _ in range(dim))
        entries[site] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return LatticeSignal.from_entries(dim, entries)


def _cmd_a1_check(config, walk, family, out_dir, plot):
    r_list = _get(config, "schedules.a1_r_list")
    constant = a1_boundary_constant(walk)
    rows = []
    ok = True
    for r in r_list:
        ratio = a1_defect(walk, r)
        bound_ok = ratio * r <= constant
        ok = ok and bound_ok
        rows.append(
            {
                "r": r,
                "defect": format_rational(ratio),
                "defect_times_r": format_rational(ratio * r),
                "ok": bound_ok,
            }
        )
    payload = {
        **_meta(config, "a1-check"),
        "boundary_constant": format_rational(constant),
        "rows": rows,
        "ok": ok,
    }
    return (0 if ok else 1), f"a1-check: ok={ok} over r={r_list}", payload


def _cmd_audit(config, walk, family, out_dir, plot):
    from . import mixing

    observables = _observables_from_config(config, walk)
    locals_ = _locals_from_config(config, walk)
    record = mixing.implication_audit(
        observables,
        locals_,
        _get(config, "schedules.n_list"),
        _get(config, "schedules.r_list"),
        family,
        metadata=_meta(config, "audit"),
    )
    record.write_csv(out_dir / "audit.csv")
    summary = f"audit: ok={record.ok} ({len(record.m2_rows)} M2 rows, {len(record.m4_rows)} M4 rows)"
    return (0 if record.ok else 1), summary, record.to_json_dict()


_BODIES = {
    "span-check": _cmd_span_check,
    "simulate": _cmd_simulate,
    "correlate": _cmd_correlate,
    "mixing-report": _cmd_mixing_report,
    "fourier-decay": _cmd_fourier_decay,
    "nowak-test": _cmd_nowak_test,
    "a1-check": _cmd_a1_check,
    "audit": _cmd_audit,
}
COMMANDS = tuple(_BODIES)


def run(command: str, config: dict, out_dir, seed=None, plot=False) -> int:
    """Validate the config, execute one command, write its artifacts and its
    ``<command>.json`` summary, return the exit code."""
    try:
        if command not in _BODIES:
            raise ConfigError(f"unknown command {command!r}")
        config = _merged(config)
        if seed is not None:
            config["seed"] = seed
        walk = _walk_from_config(config["walk"])
        try:
            family = BoxFamily(walk.dim, config["family"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path under one
            raise ConfigError(f"--out: cannot create directory: {exc}") from exc
        config["seed"] = _get(config, "seed")
        code, summary, payload = _BODIES[command](config, walk, family, out, plot)
        write_json(out / f"{command.replace('-', '_')}.json", payload)
    except ConfigError as exc:
        return _refuse(str(exc))
    print(summary)
    return code


def _refuse(message: str) -> int:
    """Exit 2: one JSON line naming what was refused."""
    print(json.dumps({"error": {"exit": 2, "message": message}}), file=sys.stderr)
    return 2


_USAGE = f"""usage: bakerlattice [-h] [--config PATH] [--out DIR] [--seed INT] [--plot] command

Random-walk baker lattices: mixing estimators and torus diagnostics.

commands: {', '.join(COMMANDS)}

options:
  --config PATH  JSON experiment config (default: the third-walk defaults)
  --out DIR      output directory (default: artifacts)
  --seed INT     override the config seed
  --plot         also emit SVG plots
  -h, --help     show this help and exit"""

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_flag(arg: str) -> bool:
    """Whether ``arg`` is a flag rather than a value: it starts with a dash
    and is not a lone dash, a negative number or text with a space in it,
    the rule argparse kept."""
    return arg[:1] == "-" and arg != "-" and " " not in arg and not _NEGATIVE_NUMBER.match(arg)


def _read_argv(argv):
    """(command, config, out, seed, plot) from the command line, or None for
    -h/--help.  Each flag takes ``--flag value`` or ``--flag=value``, and
    the last of a repeated flag wins.  Refusals are ConfigErrors worded as
    argparse words them; a flag is spelled in full, and a bare ``--`` is an
    unrecognized argument."""
    command, config, out, seed, plot = None, None, Path("artifacts"), None, False
    extras = []
    args = iter(argv)
    for arg in args:
        if not _is_flag(arg):
            if command is not None:
                extras.append(arg)
            elif arg not in COMMANDS:
                raise ConfigError(f"argument command: invalid choice: {arg!r} (choose from {', '.join(COMMANDS)})")
            else:
                command = arg
            continue
        if arg in ("-h", "--help"):
            return None
        flag, eq, value = arg.partition("=")
        if flag == "--plot":
            if eq:
                raise ConfigError(f"argument --plot: ignored explicit argument {value!r}")
            plot = True
        elif flag in ("--config", "--out", "--seed"):
            if not eq:
                value = next(args, None)
                if value is None or _is_flag(value):
                    raise ConfigError(f"argument {flag}: expected one argument")
            if flag == "--seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise ConfigError(f"argument --seed: invalid int value: {value!r}") from None
            elif flag == "--config":
                config = Path(value)
            else:
                out = Path(value)
        else:
            extras.append(arg)
    if command is None:
        raise ConfigError("the following arguments are required: command")
    if extras:
        raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
    return command, config, out, seed, plot


def main(argv=None) -> int:
    try:
        opts = _read_argv(sys.argv[1:] if argv is None else argv)
        if opts is None:
            print(_USAGE)
            return 0
        command, config_path, out, seed, plot = opts
        config = {} if config_path is None else json.loads(config_path.read_text())
    except ConfigError as exc:
        return _refuse(str(exc))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        return _refuse(f"cannot read config: {exc}")
    try:
        return run(command, config, out, seed=seed, plot=plot)
    except Exception as exc:
        import traceback  # only a fault pays for the import

        traceback.print_exc()
        error = {"exit": 3, "type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"error": error}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
