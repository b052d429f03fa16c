"""Benchmark of bakerlattice's command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload audit-2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload law-diagnostics --seed 1 --counts-only

Each command runs in a fresh interpreter (``python3 -m bakerlattice``), as a
user runs it.  A run repeats whole rounds of its workload's commands until
``--seconds`` have passed, checks every output, and prints one JSON object
as its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced rounds and reports the per-layer metrics; ``--counts-only`` runs
one traced round and reports only its exact counts, sizes and ratios.

``setup_s`` and ``wall_s`` are given at reference speed: each measured time
is scaled by REFERENCE_S over the time a fixed reference computation
(reference.py) took around it, so that phases in which the whole machine runs
slower or faster cancel out.  The raw times are printed above the JSON line
and kept in .perfbench-out/<workload>/rounds.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

# Seconds the reference computation is taken to last: timings are reported
# as if the machine ran it in this time.  Fixed for good: changing it rescales
# every recorded setup_s and wall_s.
REFERENCE_S = 0.25
PROCESS_TIMEOUT_S = 120
HERE = Path(__file__).resolve().parent

# Functions each workload's traced round must reach, and ones it must not.
EXPECTED_CALLS = {
    "audit-2d": {"cli.run", "mixing.implication_audit", "observables.evolve_site",
                 "lattice.convolution_power", "observables.box_average_product"},
    "report-1d": {"cli.run", "mixing.m5_report", "mixing.m4_report", "mixing.m2_table", "mixing.m1_report",
                  "observables.estimate_average", "observables.reduce_to_site", "observables.evolve_site",
                  "lattice.convolution_power"},
    "law-diagnostics": {"cli.run", "fourier.defect_signal", "fourier.char_function", "fourier.nowak_check",
                        "phase.simulate_walk", "phase.SiteHistogram.write_csv", "lattice.convolution_power",
                        "lattice.convolve"},
}
EXPECTED_NO_CALLS = {"law-diagnostics": {"observables.evolve_site"}}

SIZE_METRICS = (  # (metric, traced function, span field, how spans combine, unit)
    ("lattice.convolution_power.support_sites", "lattice.convolution_power", "support_sites", "sum", "count"),
    ("lattice.convolution_power.den_bits", "lattice.convolution_power", "den_bits", "max", "bits"),
    ("observables.evolve_site.window_sites", "observables.evolve_site", "window_sites", "sum", "count"),
    ("observables.box_average_product.box_sites", "observables.box_average_product", "box_sites", "sum", "count"),
    ("phase.simulate_walk.point_steps", "phase.simulate_walk", "point_steps", "sum", "count"),
    ("fourier.char_function.grid_points", "fourier.char_function", "grid_points", "sum", "count"),
    ("cli.artifacts", "cli.run", "artifacts", "sum", "count"),
    ("cli.artifact_bytes", "cli.run", "artifact_bytes", "sum", "B"),
)
UNIQUE_METRICS = ("lattice.convolution_power", "observables.evolve_site")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program to measure, tracer out of step)."""


@dataclass
class OpRun:
    code: int
    seconds: float
    maxrss_kb: int
    fingerprint: str
    errors: list


# ---------------------------------------------------------------------------
# processes


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, env: dict, root: Path, stdout_path: Path, stderr_path: Path) -> tuple[int, float, int]:
    """Run one process to its end; return exit code, wall seconds and max RSS (KiB)."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=root)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def timed_process(argv: list, env: dict, root: Path, work: Path, what: str) -> float:
    """Wall seconds of a helper process that must succeed."""
    code, seconds, _ = spawn(argv, env, root, work / "helper.out", work / "helper.err")
    if code != 0:
        raise BenchmarkError(f"{what} failed: " + (work / "helper.err").read_text()[-500:])
    return seconds


def setup_seconds(env: dict, root: Path, work: Path) -> float:
    """Wall time of a fresh interpreter importing the package."""
    return timed_process([sys.executable, "-c", "import bakerlattice"], env, root, work, "import bakerlattice")


def reference_seconds(env: dict, root: Path, work: Path) -> float:
    """Wall time of one run of the fixed reference computation."""
    return timed_process([sys.executable, str(HERE / "reference.py")], env, root, work, "reference computation")


# ---------------------------------------------------------------------------
# rounds


def fingerprint(code: int, stdout: str, out: Path) -> str:
    digest = hashlib.sha256(f"{code}\n{stdout}".encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_round(ops, env, root, work, reference, trace_dir=None) -> list[OpRun]:
    """One pass over the workload's commands.

    With no ``reference`` the outputs are checked in full; otherwise each
    operation must reproduce the reference round's exit code, summary line
    and artifact bytes, and inherits its verdict.
    """
    runs = []
    for i, op in enumerate(ops):
        out = work / "ops" / op.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cli_args = [*op.argv, "--out", str(out)]
        if trace_dir is None:
            argv = [sys.executable, "-m", "bakerlattice", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir / f"{op.name}.jsonl"), *cli_args]
        stdout_path, stderr_path = work / f"{op.name}.stdout", work / f"{op.name}.stderr"
        code, seconds, rss = spawn(argv, env, root, stdout_path, stderr_path)
        stdout, stderr = stdout_path.read_text(), stderr_path.read_text()
        fp = fingerprint(code, stdout, out)
        if reference is None:
            try:
                errors = op.check(checks.Result(code, stdout, stderr, out))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errors = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        elif fp != reference[i].fingerprint:
            errors = ["outputs differ from the first round"]
        else:
            errors = reference[i].errors
        runs.append(OpRun(code, seconds, rss, fp, errors))
    return runs


def account(ops, rounds) -> tuple[bool, int, int]:
    """(correct, attempted, failed); failures of named known faults keep a run correct."""
    correct, attempted, failed = True, 0, 0
    for runs in rounds:
        for op, run in zip(ops, runs):
            attempted += 1
            if run.errors:
                failed += 1
                correct = correct and op.known_fault is not None
    for op, run in zip(ops, rounds[0]):
        if run.errors and op.known_fault is None:
            print(f"  FAIL {op.name}: " + "; ".join(run.errors[:3]), file=sys.stderr)
        elif run.errors:
            print(f"  known fault {op.name}: {op.known_fault}: {run.errors[0]}", file=sys.stderr)
        elif op.known_fault is not None:
            print(f"  known fault {op.name} no longer shows: {op.known_fault}", file=sys.stderr)
    return correct, attempted, failed


# ---------------------------------------------------------------------------
# per-layer aggregation


def layer_counts(workload: str, trace_dir: Path, ops) -> tuple[dict, dict]:
    """Exact counts, sizes and ratios of one traced round, and self seconds per function."""
    spans_by_op = {}
    for op in ops:
        path = trace_dir / f"{op.name}.jsonl"
        if not path.is_file():
            raise BenchmarkError(f"traced {op.name} wrote no spans; see {trace_dir.parent / (op.name + '.stderr')}")
        spans, missing = tracer.read_spans(path)
        if missing:
            print(f"  not traced (absent from the program): {', '.join(missing)}", file=sys.stderr)
        spans_by_op[op.name] = spans
    calls = {name: 0 for name in tracer.FUNCTIONS}
    self_s = {name: 0.0 for name in tracer.FUNCTIONS}
    distinct = {name: 0 for name in UNIQUE_METRICS}
    for spans in spans_by_op.values():
        own = tracer.self_times(spans)
        for span in spans:
            calls[span["name"]] += 1
            self_s[span["name"]] += own[span["id"]]
        for name in UNIQUE_METRICS:  # a cache inside one process can skip only repeats within it
            distinct[name] += len({s["key"] for s in spans if s["name"] == name and "key" in s})

    counts = {f"{name}.calls": (calls[name], "count") for name in tracer.FUNCTIONS}
    all_spans = [s for spans in spans_by_op.values() for s in spans]
    for metric, name, field, how, unit in SIZE_METRICS:
        values = [s[field] for s in all_spans if s["name"] == name and field in s]
        counts[metric] = ((max(values, default=0) if how == "max" else sum(values)), unit)
    for name in UNIQUE_METRICS:
        counts[f"{name}.distinct"] = (distinct[name], "count")
        counts[f"{name}.unique_share"] = (distinct[name] / calls[name] if calls[name] else 0.0, "ratio")

    absent = sorted(n for n in EXPECTED_CALLS[workload] if calls[n] == 0)
    present = sorted(n for n in EXPECTED_NO_CALLS.get(workload, ()) if calls[n] > 0)
    if absent or present:
        raise BenchmarkError(f"traced round of {workload}: no calls to {absent}, unexpected calls to {present}")
    return counts, self_s


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# one workload


def at_reference_speed(samples: list, refs: list) -> float:
    """Median of samples[k] rescaled by the reference times measured around it.

    ``refs[k]`` was measured just before ``samples[k]`` and ``refs[k + 1]``
    just after; the median of up to four references around each sample
    stands for the machine's speed at that moment.
    """
    return statistics.median(
        REFERENCE_S * x / statistics.median(refs[max(0, k - 1):k + 3]) for k, x in enumerate(samples))


def timed_run(workload, ops, env, root, work, seconds):
    """End-to-end metrics: rounds until ``seconds`` pass, each followed by a
    reference run and one set-up sample."""
    setup_seconds(env, root, work)  # the first import writes the bytecode caches
    rounds, refs, setups = [], [reference_seconds(env, root, work)], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(ops, env, root, work, rounds[0] if rounds else None))
        refs.append(reference_seconds(env, root, work))
        setups.append(setup_seconds(env, root, work))
    correct, attempted, failed = account(ops, rounds)

    walls = [sum(r.seconds for r in runs) for runs in rounds]
    setup_s = at_reference_speed(setups, refs)
    wall_s = at_reference_speed(walls, refs)
    peak_rss_mb = max(r.maxrss_kb for runs in rounds for r in runs) / 1024
    (work / "rounds.json").write_text(json.dumps({
        "reference_s": refs, "setup_s": setups,
        "rounds": [{op.name: run.seconds for op, run in zip(ops, runs)} for runs in rounds]}))
    for i, op in enumerate(ops):
        times = sorted(runs[i].seconds for runs in rounds)
        print(f"  {op.name:18} median {statistics.median(times):8.4f} s  min {times[0]:8.4f} s  max {times[-1]:8.4f} s")
    print(f"  measured: round median {statistics.median(walls):.4f} s, import median "
          f"{statistics.median(setups):.4f} s, reference median {statistics.median(refs):.4f} s")
    print(f"{workload}: setup_s={setup_s:.4f} s wall_s={wall_s:.4f} s peak_rss_mb={peak_rss_mb:.1f} MB "
          f"rounds={len(rounds)} attempted={attempted} failed={failed} correct={str(correct).lower()}")
    return correct, attempted, failed, {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def traced_run(workload, ops, env, root, work, seconds, counts_only):
    """Per-layer metrics: plain and traced rounds alternate until ``seconds``
    pass (one traced round only with ``counts_only``)."""
    rounds, plain_walls, traced_walls, layers = [], [], [], []
    start = time.perf_counter()
    while not layers or (not counts_only and time.perf_counter() - start < seconds):
        if not counts_only:
            rounds.append(run_round(ops, env, root, work, rounds[0] if rounds else None))
            plain_walls.append(sum(r.seconds for r in rounds[-1]))
        trace_dir = work / f"trace-{len(layers)}"
        trace_dir.mkdir()
        rounds.append(run_round(ops, env, root, work, rounds[0] if rounds else None, trace_dir))
        traced_walls.append(sum(r.seconds for r in rounds[-1]))
        layers.append(layer_counts(workload, trace_dir, ops))
    correct, attempted, failed = account(ops, rounds)

    counts = layers[0][0]
    metrics = {k: metric(v, u) for k, (v, u) in counts.items()}
    if any(c != counts for c, _ in layers):
        print("  traced rounds disagree on counts", file=sys.stderr)
        correct = False
    if counts_only:
        return correct, attempted, failed, metrics
    traced_wall = statistics.median(traced_walls)
    print(f"  {'function':38} {'calls':>7} {'self_s':>10} {'self_%':>7}  ({len(layers)} traced rounds)")
    for name in tracer.FUNCTIONS:
        own = statistics.median(s[name] for _, s in layers)
        metrics[f"{name}.self_pct"] = metric(100 * own / traced_wall, "%")
        print(f"  {name:38} {counts[f'{name}.calls'][0]:>7} {own:>10.4f} {100 * own / traced_wall:>7.2f}")
    metrics["trace.overhead_s"] = metric(traced_wall - statistics.median(plain_walls), "s")
    return correct, attempted, failed, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, counts_only: bool, root: Path):
    work = root / ".perfbench-out" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.build(workload, seed, work / "configs")
    env = child_env(root)
    if trace or counts_only:
        return traced_run(workload, ops, env, root, work, seconds, counts_only)
    return timed_run(workload, ops, env, root, work, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true", help="one traced round, exact counts only")
    opts = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bakerlattice" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/bakerlattice is missing", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if opts.workload == "all" else (opts.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, n_attempted, n_failed, found = run_workload(
                name, opts.seed, opts.seconds, bool(opts.trace), opts.counts_only, root)
            correct, attempted, failed = correct and ok, attempted + n_attempted, failed + n_failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in found.items()})
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
