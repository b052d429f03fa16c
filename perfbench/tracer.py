"""Spans around bakerlattice's public functions, recorded from outside the package.

``install`` replaces each wrapped function in every ``bakerlattice`` module
namespace that holds it, so calls made inside the package (``mixing`` calling
``evolve_site``, ``fourier`` calling ``convolution_power``) are traced too.
Spans stay in memory and are written as JSON lines by ``Tracer.write``.
Sizes are measured after a span ends, outside its duration.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from pathlib import Path

FUNCTIONS = (
    "lattice.convolution_power",
    "lattice.convolve",
    "observables.evolve_site",
    "observables.box_average",
    "observables.box_average_product",
    "observables.estimate_average",
    "observables.reduce_to_site",
    "mixing.implication_audit",
    "mixing.m5_gap",
    "mixing.correlate_global_local",
    "mixing.m2_table",
    "mixing.m4_report",
    "mixing.m5_report",
    "mixing.m1_report",
    "phase.simulate_walk",
    "phase.SiteHistogram.write_csv",
    "fourier.defect_signal",
    "fourier.char_function",
    "fourier.nowak_check",
    "cli.run",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _key(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _law_sizes(result, args, kwargs):
    walk, n = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "n")
    return {
        "support_sites": len(result.entries),
        "den_bits": max((v.denominator.bit_length() for v in result.entries.values()), default=0),
        "key": _key(walk.support, n),
    }


def _evolve_sizes(result, args, kwargs):
    f, walk, n = (_arg(args, kwargs, i, name) for i, name in enumerate(("f", "p", "n")))
    return {"window_sites": len(result.tail.table), "key": _key(f, walk.support, n)}


def _box_sizes(result, args, kwargs):
    return {"box_sites": _arg(args, kwargs, 2, "box").size}


def _simulate_sizes(result, args, kwargs):
    return {"point_steps": _arg(args, kwargs, 1, "n") * _arg(args, kwargs, 2, "samples")}


def _grid_sizes(result, args, kwargs):
    return {"grid_points": result.values.size}


def _artifact_sizes(result, args, kwargs):
    files = [p for p in Path(_arg(args, kwargs, 2, "out_dir")).rglob("*") if p.is_file()]
    return {"artifacts": len(files), "artifact_bytes": sum(p.stat().st_size for p in files)}


SIZERS = {
    "lattice.convolution_power": _law_sizes,
    "observables.evolve_site": _evolve_sizes,
    "observables.box_average_product": _box_sizes,
    "phase.simulate_walk": _simulate_sizes,
    "fourier.char_function": _grid_sizes,
    "cli.run": _artifact_sizes,
}


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"trace": self.trace_id, "id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            else:
                span["end"] = time.perf_counter()
                if sizer is not None:
                    span.update(sizer(result, args, kwargs))
                return result
            finally:
                self._stack.pop()
                # the parent's self time excludes this span up to here,
                # size measurement included
                span["covered_end"] = time.perf_counter()

        return traced

    def install(self) -> None:
        for module_name in sorted({name.split(".")[0] for name in FUNCTIONS}):
            importlib.import_module(f"bakerlattice.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "bakerlattice" or n.startswith("bakerlattice.")]
        for name in FUNCTIONS:
            module_name, *path = name.split(".")
            owner = sys.modules[f"bakerlattice.{module_name}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(name)
                continue
            traced = self.wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, path[-1], traced)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name in self.missing:
                fh.write(json.dumps({"trace": self.trace_id, "missing": name}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> tuple[list[dict], list[str]]:
    spans, missing = [], []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if "missing" in record:
            missing.append(record["missing"])
        else:
            spans.append(record)
    return spans, missing


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the intervals its child spans cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["covered_end"] - s["start"]
    return out
