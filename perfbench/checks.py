"""Independent checks of the artifacts each operation writes.

Expected values come from closed forms or from this file's own naive
arithmetic (dict convolution, direct site counts); nothing here imports the
program or compares against a stored copy of its output.  Every check returns
a list of error strings, empty when the operation's outputs are correct.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from pathlib import Path


@dataclass(frozen=True)
class Result:
    code: int
    stdout: str
    stderr: str
    out: Path


def _exit(res: Result, expected: int) -> list[str]:
    if res.code != expected:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {res.code}, expected {expected}: {tail[0][:200]}"]
    return []


def _load(path: Path):
    return json.loads(path.read_text())


def _series(path: Path) -> dict[int, Fraction]:
    return {int(n): Fraction(v) for n, v in _load(path)["series"].items()}


def _compare(name: str, got: dict, expected: dict) -> list[str]:
    if got == expected:
        return []
    wrong = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
    k = wrong[0]
    return [f"{name}: {len(wrong)} entries differ, e.g. at {k}: got {got.get(k)}, expected {expected.get(k)}"]


def law(walk: dict, n: int) -> dict:
    """p^(n) by n successive dict convolutions."""
    out = {tuple(0 for _ in next(iter(walk))): Fraction(1)}
    for _ in range(n):
        nxt: dict = {}
        for site, w in out.items():
            for step, p in walk.items():
                key = tuple(a + b for a, b in zip(site, step))
                nxt[key] = nxt.get(key, 0) + w * p
        out = nxt
    return out


def central_trinomial(n: int) -> int:
    """Coefficient of x^n in (1 + x + x^2)^n."""
    return sum(comb(n, 2 * k) * comb(2 * k, k) for k in range(n // 2 + 1))


# ---------------------------------------------------------------------------
# audit-2d


def audit_2d(res: Result, walk, period, periodic_table, periodic_index, locals_, n_list, rows) -> list[str]:
    errors = _exit(res, 0)
    if errors:
        return errors
    data = _load(res.out / "audit.json")
    m4, m2 = data["m4"], data["m2"]
    if (len(m4), len(m2)) != rows:
        errors.append(f"audit has {len(m4)} M4 and {len(m2)} M2 rows, expected {rows}")
    if data["ok"] is not True or not all(r["ok"] for r in m4 + m2):
        errors.append("audit reports a row that is not ok")
    for r in m4:
        if not Fraction(r["deviation"]) <= Fraction(r["bound"]):
            errors.append(f"M4 row {r['observable']},{r['local']},n={r['n']}: deviation above bound")
    for r in m2:
        terms = Fraction(r["term1"]) + Fraction(r["term2"]) + Fraction(r["term3"])
        if terms != Fraction(r["bound"]) or not Fraction(r["measured"]) <= terms:
            errors.append(f"M2 row {r['observable']},{r['other']},n={r['n']},r={r['r']}: bound does not hold")

    average = sum(periodic_table.values()) / len(periodic_table)
    got, expected = {}, {}
    for r in m4:
        if r["observable"] == periodic_index:
            got[(r["local"], r["n"])] = (Fraction(r["deviation"]), Fraction(r["bound"]))
    for n in n_list:
        pn = law(walk, n)
        evolved = {
            res_: sum(w * periodic_table[tuple((a + b) % l for a, b, l in zip(res_, beta, period))]
                      for beta, w in pn.items())
            for res_ in periodic_table
        }
        gap = max(abs(v - average) for v in evolved.values())
        for j, terms in enumerate(locals_):
            corr = sum(w * (hi - lo) * evolved[tuple(c % l for c, l in zip(site, period))]
                       for site, lo, hi, w in terms)
            mass = sum(w * (hi - lo) for _, lo, hi, w in terms)
            abs_mass = sum(abs(w) * (hi - lo) for _, lo, hi, w in terms)
            expected[(j, n)] = (abs(corr - average * mass), gap * abs_mass)
    return errors + _compare("periodic M4 rows (deviation, bound)", got, expected)


# ---------------------------------------------------------------------------
# report-1d


def report_1d(res: Result, amplitude, n_list, artifacts) -> list[str]:
    errors = _exit(res, 0)
    if errors:
        return errors
    written = _load(res.out / "mixing_report.json")["artifacts"]
    if len(written) != artifacts:
        errors.append(f"{len(written)} artifacts listed, expected {artifacts}")
    errors += [f"listed artifact {name} missing" for name in written if not (res.out / name).is_file()]
    third = Fraction(1, 3)
    errors += _compare("M5 gap of the alternating observable",
                       _series(res.out / "m5_0.json"), {n: amplitude * third**n for n in n_list})
    errors += _compare("M5 gap of sign1d", _series(res.out / "m5_1.json"), {n: Fraction(1) for n in n_list})
    errors += _compare("M4 of sign1d against the unit square",
                       _series(res.out / "m4_1_0.json"), {n: central_trinomial(n) * third**n for n in n_list})
    errors += _compare("M1 of the alternating pair",
                       _series(res.out / "m1_0_0.json"), {n: amplitude**2 * (-third) ** n for n in n_list})
    return errors


def correlate_default(res: Result, n_list) -> list[str]:
    """Default config: alternating +-1 observable against the unit square."""
    errors = _exit(res, 0)
    if errors:
        return errors
    return _compare("default correlation series",
                    _series(res.out / "correlate_0_0.json"), {n: Fraction(-1, 3) ** n for n in n_list})


# ---------------------------------------------------------------------------
# law-diagnostics


def fourier_decay(res: Result, n_list) -> list[str]:
    errors = _exit(res, 0)
    if errors:
        return errors
    data = _load(res.out / "fourier_decay.json")
    if [row["n"] for row in data["rows"]] != sorted(n_list):
        errors.append(f"rows cover n={[row['n'] for row in data['rows']]}, expected {sorted(n_list)}")
    if data["embedding_ok"] is not True:
        errors.append("embedding_ok is not true")
    errors += [f"n={row['n']}: a_norm {row['a_norm']} above bound {row['bound']}"
               for row in data["rows"] if not row["a_norm"] <= row["bound"]]
    return errors


def span_check(res: Result) -> list[str]:
    errors = _exit(res, 0)
    if errors:
        return errors
    verdict = _load(res.out / "span_check.json")["verdict"]
    return [] if verdict == "FullLattice" else [f"span-check verdict {verdict}, expected FullLattice"]


def a1_check(res: Result, walk) -> list[str]:
    """Compare each 1-d boundary defect with a count over the sites near the box."""
    errors = _exit(res, 0)
    if errors:
        return errors
    reach = max(abs(s[0]) for s in walk)
    for row in _load(res.out / "a1_check.json")["rows"]:
        r = row["r"]
        moved = Fraction(0)
        for (beta,), p in walk.items():
            for a in range(-r - reach, r + reach + 1):
                inside, lands_inside = -r <= a <= r, -r <= a + beta <= r
                if inside != lands_inside:  # leaves the box, or enters it
                    moved += p
        if Fraction(row["defect"]) != moved / (2 * r + 1):
            errors.append(f"r={r}: defect {row['defect']}, direct count {moved / (2 * r + 1)}")
    return errors


def nowak_test(res: Result) -> list[str]:
    errors = _exit(res, 0)
    if errors:
        return errors
    failures = _load(res.out / "nowak_test.json")["failures"]
    return [f"{len(failures)} coefficient-inequality violations"] if failures else []


def simulate(res: Result, walk, steps, samples) -> list[str]:
    """Empirical mean within 5 sigma of n * drift, per coordinate."""
    errors = _exit(res, 0)
    if errors:
        return errors
    with open(res.out / "histogram.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    total = sum(int(row["count"]) for row in rows)
    if total != samples:
        errors.append(f"histogram holds {total} samples, expected {samples}")
    mean = _load(res.out / "simulate.json")["empirical_mean"]
    dim = len(next(iter(walk)))
    for i in range(dim):
        drift = sum(p * s[i] for s, p in walk.items())
        var = sum(p * s[i] ** 2 for s, p in walk.items()) - drift**2
        sigma = sqrt(steps * var / samples)
        if abs(mean[i] - float(steps * drift)) > 5 * sigma:
            errors.append(f"coordinate {i}: mean {mean[i]} is not within 5 sigma ({5 * sigma:.4g}) "
                          f"of n*drift = {float(steps * drift)}")
    return errors


def config_error(res: Result) -> list[str]:
    """Invalid configuration: exit 2 and exactly one JSON error line, no traceback."""
    errors = _exit(res, 2)
    lines = [line for line in res.stderr.splitlines() if line.strip()]
    if "Traceback" in res.stderr:
        errors.append("stderr holds a traceback")
    try:
        if len(lines) != 1 or json.loads(lines[0])["error"]["exit"] != 2:
            errors.append(f"stderr has {len(lines)} lines, expected one JSON error line")
    except (ValueError, KeyError, TypeError):
        errors.append("stderr line is not a JSON error")
    return errors
