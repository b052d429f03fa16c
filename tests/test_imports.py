"""Package imports: exact commands start without numpy, fourier names resolve lazily."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bakerlattice

SRC = str(Path(bakerlattice.__file__).resolve().parents[1])


def fresh_python(code, tmp_path):
    """Run ``code`` in a new interpreter that imports this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def run_command(tmp_path, command, config=None):
    """Run one CLI command in a fresh interpreter: its exit code and whether numpy got loaded."""
    argv = [command, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    proc = fresh_python(
        "import json, sys\n"
        "from bakerlattice import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n",
        tmp_path,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("statement", ["import bakerlattice", "import bakerlattice.cli"])
def test_import_leaves_numpy_unloaded(tmp_path, statement):
    proc = fresh_python(f"import sys\n{statement}\nprint('numpy' in sys.modules)\n", tmp_path)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "command, config",
    [
        ("audit", None),
        ("correlate", None),
        ("span-check", None),
        ("a1-check", None),
        ("mixing-report", {"family": "centeredOnly"}),
        ("nowak-test", None),
        ("mixing-report", None),
    ],
)
def test_exact_commands_run_without_numpy(tmp_path, command, config):
    assert run_command(tmp_path, command, config) == [0, False]


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
