"""Package imports: each command loads only its own layers, exact commands
start without numpy, and every exported name resolves lazily."""

import ast
import importlib
import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

import bakerlattice

SRC = str(Path(bakerlattice.__file__).resolve().parents[1])
ROOT = Path(SRC).parent


def fresh_python(code, tmp_path):
    """Run ``code`` in a new interpreter that imports this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


# prints whether numpy is loaded and which bakerlattice submodules are, by short name
REPORT = (
    "import json, sys\n"
    "loaded = sorted(m.removeprefix('bakerlattice.') for m in sys.modules if m.startswith('bakerlattice.'))\n"
    "print(json.dumps(['numpy' in sys.modules, loaded]))\n"
)

# what `import bakerlattice.cli` loads, and so what every command starts from
CLI_MODULES = {"cli", "lattice", "presets", "rational"}


def package_modules(tmp_path, statement):
    """The bakerlattice submodules a fresh interpreter has loaded after ``statement``."""
    proc = fresh_python(f"{statement}\n{REPORT}", tmp_path)
    return set(json.loads(proc.stdout.splitlines()[-1])[1])


def command_statement(tmp_path, command, config=None):
    """Python code that runs one CLI command and prints its exit code."""
    argv = [command, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return f"from bakerlattice import cli\ncode = cli.main({argv!r})\nprint(code)"


def command_run(tmp_path, command, config=None):
    """Run one CLI command in a fresh interpreter: its exit code, whether numpy
    got loaded, and the bakerlattice submodules loaded."""
    proc = fresh_python(f"{command_statement(tmp_path, command, config)}\n{REPORT}", tmp_path)
    code, report = proc.stdout.splitlines()[-2:]
    numpy_loaded, modules = json.loads(report)
    return int(code), numpy_loaded, set(modules)


def run_command(tmp_path, command, config=None):
    """Run one CLI command in a fresh interpreter: its exit code and whether numpy got loaded."""
    return list(command_run(tmp_path, command, config)[:2])


@pytest.mark.parametrize("statement", ["import bakerlattice", "import bakerlattice.cli"])
def test_import_leaves_numpy_unloaded(tmp_path, statement):
    proc = fresh_python(f"import sys\n{statement}\nprint('numpy' in sys.modules)\n", tmp_path)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("statement, modules", [("import bakerlattice", set()), ("import bakerlattice.cli", CLI_MODULES)])
def test_import_loads_no_layer_it_does_not_run(tmp_path, statement, modules):
    assert package_modules(tmp_path, statement) == modules


@pytest.mark.parametrize(
    "command, layers",
    [
        ("span-check", set()),
        ("a1-check", set()),
        ("nowak-test", {"embedding"}),
        ("fourier-decay", {"embedding", "fourier"}),
        ("simulate", {"phase"}),
        ("correlate", {"mixing", "observables", "phase"}),
        ("mixing-report", {"mixing", "observables", "phase"}),
        ("audit", {"mixing", "observables", "phase"}),
    ],
)
def test_each_command_loads_only_its_layers(tmp_path, command, layers):
    code, _, modules = command_run(tmp_path, command)
    assert code == 0
    assert modules == CLI_MODULES | layers


EXACT_COMMANDS = [
    ("audit", None),
    ("correlate", None),
    ("span-check", None),
    ("a1-check", None),
    ("mixing-report", {"family": "centeredOnly"}),
    ("nowak-test", None),
    ("mixing-report", None),
]


@pytest.mark.parametrize("command, config", EXACT_COMMANDS)
def test_exact_commands_run_without_numpy(tmp_path, command, config):
    assert run_command(tmp_path, command, config) == [0, False]


# prints whether dataclasses is loaded: records are rational.record classes,
# so no method is made by exec and start-up does not import inspect
DATACLASSES = "import sys\nprint('dataclasses' in sys.modules)\n"


def test_cli_import_leaves_dataclasses_unloaded(tmp_path):
    proc = fresh_python(f"import bakerlattice.cli\n{DATACLASSES}", tmp_path)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command, config", EXACT_COMMANDS)
def test_exact_commands_leave_dataclasses_unloaded(tmp_path, command, config):
    proc = fresh_python(f"{command_statement(tmp_path, command, config)}\n{DATACLASSES}", tmp_path)
    assert proc.stdout.splitlines()[-2:] == ["0", "False"]


# prints which of OpenSSL's _hashlib, argparse and the gettext and locale it
# imports are loaded: the config hash is the interpreter's builtin SHA-256,
# and cli reads the command line itself
STARTUP = "import sys\nprint(sorted({'_hashlib', 'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"


@pytest.mark.parametrize("command, config", [*EXACT_COMMANDS, ("fourier-decay", None)])
def test_commands_load_neither_openssl_nor_argparse(tmp_path, command, config):
    proc = fresh_python(f"{command_statement(tmp_path, command, config)}\n{STARTUP}", tmp_path)
    assert proc.stdout.splitlines()[-2:] == ["0", "[]"]


def test_the_config_hash_falls_back_to_hashlib(tmp_path):
    # a build without the builtin hash modules hashes through hashlib, to the same digest
    proc = fresh_python(
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from bakerlattice import cli\n"
        "import hashlib\n"
        "assert cli.main(['span-check', '--out', 'out']) == 0\n"
        "print(cli.sha256 is hashlib.sha256, json.load(open('out/span_check.json'))['config_hash'])\n",
        tmp_path,
    )
    assert proc.stdout.splitlines()[-1] == "True 482dd339c6505bf2"


# prints whether difflib is loaded: the config key check imports it only to
# name the known key nearest a refused one
DIFFLIB = "import sys\nprint('difflib' in sys.modules)\n"


@pytest.mark.parametrize("config, code, loaded", [(None, "0", "False"), ({"schedules": {"n_lsit": [99]}}, "2", "True")])
def test_difflib_loads_only_for_a_refused_key(tmp_path, config, code, loaded):
    statement = command_statement(tmp_path, "correlate", config)
    proc = fresh_python(f"import bakerlattice.cli\n{DIFFLIB}{statement}\n{DIFFLIB}", tmp_path)
    lines = proc.stdout.splitlines()
    assert [lines[0], *lines[-2:]] == ["False", code, loaded]


def test_rate_fit_of_an_m5_report_leaves_numpy_unloaded(tmp_path):
    proc = fresh_python(
        "import sys\n"
        "from bakerlattice import Evolution, m5_report, periodic_observable, preset, rate_profile\n"
        "parity, p = periodic_observable((2,), {(0,): 1, (1,): -1}), preset('third-walk')\n"
        "fit = rate_profile(m5_report(Evolution(parity, p), range(1, 10)))\n"
        "print(round(fit.exponential_rate, 6), 'numpy' in sys.modules)\n",
        tmp_path,
    )
    assert proc.stdout.split() == ["1.098612", "False"]


def test_span_witness_leaves_numpy_unloaded(tmp_path):
    proc = fresh_python(
        "import sys\n"
        "from bakerlattice import preset, span_check\n"
        "print(span_check(preset('reducible-1d')).witness, 'numpy' in sys.modules)\n",
        tmp_path,
    )
    assert proc.stdout.strip() == "(Fraction(1, 2),) False"


@pytest.mark.parametrize("command", ["fourier-decay", "simulate"])
def test_float_commands_import_numpy_themselves(tmp_path, command):
    assert run_command(tmp_path, command) == [0, True]


def test_every_export_resolves():
    for name in bakerlattice.__all__:
        getattr(bakerlattice, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from bakerlattice import *", namespace)
    assert set(bakerlattice.__all__) <= namespace.keys()
    assert namespace["defect_signal"] is bakerlattice.defect_signal


def test_fourier_names_are_the_fourier_objects():
    from bakerlattice import fourier

    assert bakerlattice.char_function is bakerlattice.fourier.char_function is fourier.char_function


def test_every_export_is_its_defining_module_object():
    for name in bakerlattice.__all__:
        module = importlib.import_module(f"bakerlattice.{bakerlattice._MODULE_OF[name]}")
        value = getattr(bakerlattice, name)
        assert value is getattr(module, name), name
        if hasattr(value, "__qualname__"):  # a function or a class names where it is defined
            assert value.__module__ == module.__name__, name


def test_dir_lists_every_export_before_it_is_read(tmp_path):
    proc = fresh_python("import bakerlattice\nprint(sorted(set(bakerlattice.__all__) - set(dir(bakerlattice))))\n", tmp_path)
    assert proc.stdout.strip() == "[]"


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'bakerlattice' has no attribute 'no_such_name'"):
        bakerlattice.no_such_name


def test_fourier_name_imports_in_a_fresh_interpreter(tmp_path):
    proc = fresh_python(
        "from bakerlattice import defect_signal\n"
        "from bakerlattice.fourier import defect_signal as direct\n"
        "print(defect_signal is direct)\n",
        tmp_path,
    )
    assert proc.stdout.strip() == "True"


# the config writer: nothing in the package calls it, but a config must
# round-trip every observable kind, and it is the way back
UNCALLED_EXPORTS = {"observable_to_config"}


def names_read():
    """(names, attribute names) read by the package, the demos and the
    acceptance criteria; an import of a name is not a use of it."""
    files = [*(ROOT / "src" / "bakerlattice").glob("*.py"), *(ROOT / "demos").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    names, attributes = set(), set()
    for path in files:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_export_has_a_caller():
    """Each exported name is read by the package, a demo or an acceptance criterion."""
    names, attributes = names_read()
    assert sorted(set(bakerlattice.__all__) - names - attributes - UNCALLED_EXPORTS) == []


# a cell's value at a phase point: the tests' reference for what a cell observable reads
UNCALLED_MEMBERS = {"CellObservable.evaluate"}


def test_every_member_has_a_caller():
    """Each public method or property of an exported class is read as an
    attribute by the package, a demo or an acceptance criterion."""
    _, attributes = names_read()
    members = {
        f"{name}.{member}"
        for name in bakerlattice.__all__
        if isinstance(cls := getattr(bakerlattice, name), type)
        for member, value in vars(cls).items()
        if not member.startswith("_") and isinstance(value, (FunctionType, property, cached_property, classmethod, staticmethod))
    }
    assert sorted(m for m in members - UNCALLED_MEMBERS if m.partition(".")[2] not in attributes) == []


def test_the_readme_library_tour_runs(tmp_path):
    """The README's "Library tour" block runs as written in a new interpreter,
    so the tour cannot name a function the package no longer has."""
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    assert "assert" in code
    proc = fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
