"""Command line front end: exit codes, artifacts, determinism."""

import argparse
import contextlib
import copy
import filecmp
import functools
import hashlib
import io
import itertools
import json
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bakerlattice import BoxFamily, cli, evolve_site, mixing, observables
from bakerlattice.cli import main, run
from bakerlattice.embedding import nowak_constant
from bakerlattice.observables import SiteObservable
from bakerlattice.presets import PRESETS
from bakerlattice.rational import parse_integers


def read_json(path):
    return json.loads(path.read_text())


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


# ---------------------------------------------------------------------------
# exit codes and validation


def test_span_check_preset(tmp_path, capsys):
    code = run("span-check", {"walk": {"preset": "third-walk"}}, tmp_path / "out")
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"verdict": "FullLattice"}
    payload = read_json(tmp_path / "out" / "span_check.json")
    assert payload["verdict"] == "FullLattice"
    assert "config_hash" in payload and "seed" in payload


def test_span_check_sublattice(tmp_path, capsys):
    code = run("span-check", {"walk": {"preset": "reducible-1d"}}, tmp_path / "out")
    assert code == 0
    assert read_json(tmp_path / "out" / "span_check.json")["verdict"] == "Sublattice"


def test_invalid_weights_exit_2_no_artifacts(tmp_path, capsys):
    config = {
        "walk": {
            "dim": 1,
            "support": [{"beta": [0], "p": "-1/2"}, {"beta": [1], "p": "3/2"}],
        }
    }
    out = tmp_path / "out"
    code = run("span-check", config, out)
    assert code == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit"] == 2


def test_unknown_preset_exit_2(tmp_path, capsys):
    assert run("span-check", {"walk": {"preset": "nope"}}, tmp_path / "o") == 2


def test_bad_eps_exit_2(tmp_path, capsys):
    for schedules, field in (({"eps": "2/5"}, "eps"), ({"eps": "abc"}, "schedules.eps"), ({"grid": "x"}, "schedules.grid")):
        config = {"schedules": {**schedules, "decay_n_list": [4]}}
        assert run("fourier-decay", config, tmp_path / "o") == 2
        assert one_error_line(capsys).startswith(field)


@pytest.mark.parametrize("grid", [64, 0])
def test_undersized_grid_exit_2(tmp_path, capsys, grid):
    # an explicit 0 is a grid, not a request for the automatic one
    config = {"schedules": {"decay_n_list": [64], "grid": grid}}
    assert run("fourier-decay", config, tmp_path / "o") == 2


DEPTH_12_CELL = {"kind": "cell", "m": 12, "values": [{"site": [0], "back": [1] * 12, "fwd": [1] * 12, "value": "1"}]}


def test_deep_cell_below_the_depth_offset_exit_2(tmp_path, capsys):
    # any depth reduces; the default n_list starts below 2m = 24
    assert run("mixing-report", {"observables": [DEPTH_12_CELL]}, tmp_path / "o") == 2
    assert "time 1 is below the depth offset 2m = 24" in one_error_line(capsys)


def test_deep_cell_m5_series_at_the_depth_offset(tmp_path, capsys):
    config = {"observables": [DEPTH_12_CELL], "schedules": {"n_list": [24, 25]}}
    assert run("mixing-report", config, tmp_path / "o") == 0
    rows = (tmp_path / "o" / "m5_0.csv").read_text().splitlines()[2:]
    assert rows == [f"24,{Fraction(1, 3**24)},0", f"25,{Fraction(1, 3**25)},0"]


def one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])["error"]
    assert payload["exit"] == 2
    return payload["message"]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_unknown_family_exit_2_on_every_command(tmp_path, capsys, command):
    # checked up front, also by the commands that never read a family
    assert run(command, {"family": "bogus"}, tmp_path / "o") == 2
    assert not (tmp_path / "o").exists()
    assert one_error_line(capsys) == "unknown family kind 'bogus'"


@pytest.mark.parametrize("site", [[1, 5], []])
def test_local_site_of_wrong_dimension_exit_2(tmp_path, capsys, site):
    config = {"locals": [{"terms": [{"site": site}]}], "schedules": {"n_list": [1, 2]}}
    assert run("correlate", config, tmp_path / "o") == 2
    message = one_error_line(capsys)
    assert f"dimension {len(site)}" in message and "dimension 1" in message


@pytest.mark.parametrize(
    "text, message",
    [
        ('[["seed", 1]]', "config must be a JSON object"),
        ('"abc"', "config must be a JSON object"),
        ('{"schedules": [["n_list", [1]]]}', "schedules must be a JSON object"),
    ],
)
def test_config_not_an_object_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["correlate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert one_error_line(capsys) == message
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("back, fwd", [([1, 1], []), ([1], [1, 2]), ([], [])])
def test_cell_record_word_lengths_exit_2(tmp_path, capsys, back, fwd):
    record = {"site": [0], "back": back, "fwd": fwd, "value": "1"}
    assert run("correlate", {"observables": [{"kind": "cell", "m": 1, "values": [record]}]}, tmp_path / "o") == 2
    message = one_error_line(capsys)
    assert f"cell record {record!r} needs m = 1 back and fwd digits, got {len(back)} and {len(fwd)}" in message


def test_empty_decay_schedule_exit_2(tmp_path, capsys):
    assert run("fourier-decay", {"schedules": {"decay_n_list": []}}, tmp_path / "o") == 2
    assert "decay_n_list" in one_error_line(capsys)


@pytest.mark.parametrize(
    "command, name",
    [
        ("correlate", "n_list"),
        ("mixing-report", "n_list"),
        ("mixing-report", "r_list"),
        ("audit", "n_list"),
        ("audit", "r_list"),
        ("a1-check", "a1_r_list"),
    ],
)
def test_empty_schedule_exit_2(tmp_path, capsys, command, name):
    # an empty schedule checks nothing, so it is a config error, not a pass
    config = {"schedules": {name: []}, "mixing_kinds": ["M5", "M2"]}
    assert run(command, config, tmp_path / "o") == 2
    assert not any((tmp_path / "o").iterdir())
    assert one_error_line(capsys) == f"schedules.{name} is empty"


@pytest.mark.parametrize(
    "command, name, values",
    [
        ("mixing-report", "radii", [-3]),
        ("mixing-report", "r_list", [-2, 4]),
        ("audit", "r_list", [-2, 4]),
        ("correlate", "n_list", [-1]),
        ("fourier-decay", "decay_n_list", [-4]),
        ("fourier-decay", "decay_n_list", [0]),
        ("a1-check", "a1_r_list", [-1]),
        ("a1-check", "a1_r_list", [0]),
    ],
)
def test_schedule_entry_below_its_limit_exit_2(tmp_path, capsys, command, name, values):
    config = {"schedules": {name: values}, "mixing_kinds": ["M5", "M2"]}
    assert run(command, config, tmp_path / "o") == 2
    assert not any((tmp_path / "o").iterdir())
    assert one_error_line(capsys).startswith(f"schedules.{name} ")


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("audit", {"schedules": {"n_list": [2, 2, 3], "r_list": [4, 4]}}, "schedules.n_list repeats an entry, got [2, 2, 3]"),
        ("audit", {"schedules": {"r_list": [4, 4]}}, "schedules.r_list repeats an entry, got [4, 4]"),
        ("correlate", {"schedules": {"n_list": [2, 2]}}, "schedules.n_list repeats an entry, got [2, 2]"),
        ("mixing-report", {"schedules": {"radii": [8, 8]}}, "schedules.radii repeats an entry, got [8, 8]"),
        ("mixing-report", {"mixing_kinds": ["M5", "m5"]}, "mixing_kinds repeats an entry, got ['M5', 'M5']"),
        ("fourier-decay", {"schedules": {"decay_n_list": [4, 4, 16]}}, "schedules.decay_n_list repeats an entry, got [4, 4, 16]"),
        ("a1-check", {"schedules": {"a1_r_list": [10, 10]}}, "schedules.a1_r_list repeats an entry, got [10, 10]"),
        ("nowak-test", {"nowak_dims": [1, 1]}, "nowak_dims repeats an entry, got [1, 1]"),
    ],
)
def test_a_list_with_a_repeated_entry_exit_2(tmp_path, capsys, command, config, message):
    # a report's series is keyed by time, so a repeated time once vanished
    # from it, while audit wrote its rows once per repeat
    assert run(command, config, tmp_path / "o") == 2
    assert not any((tmp_path / "o").iterdir())
    assert one_error_line(capsys) == message


@pytest.mark.parametrize(
    "config, field",
    [({"seed": -1}, "seed"), ({"steps": -2}, "steps"), ({"samples": 0}, "samples"), ({"steps": 1.5}, "steps")],
)
def test_simulate_invalid_fields_exit_2(tmp_path, capsys, monkeypatch, config, field):
    def no_sampling(*args):
        raise AssertionError("the walk was sampled from an invalid config")

    monkeypatch.setattr("bakerlattice.phase.simulate_walk", no_sampling)
    assert run("simulate", config, tmp_path / "o") == 2
    assert not any((tmp_path / "o").iterdir())
    assert one_error_line(capsys).startswith(field)


@pytest.mark.parametrize("config", [{"nowak_count": -3}, {"nowak_count": 0}, {"nowak_dims": []}])
def test_nowak_test_without_signals_exit_2(tmp_path, capsys, config):
    assert run("nowak-test", config, tmp_path / "o") == 2
    assert "nowak-test needs nowak_count >= 1 and some nowak_dims" in one_error_line(capsys)


@pytest.mark.parametrize(
    "config, field",
    [
        ({"nowak_dims": "12"}, "nowak_dims"),
        ({"nowak_dims": 2}, "nowak_dims"),
        ({"nowak_dims": [5]}, "nowak_dims"),
        ({"nowak_dims": [0, 1]}, "nowak_dims"),
        ({"nowak_dims": [1.5]}, "nowak_dims"),
        ({"nowak_radius": -1}, "nowak_radius"),
        ({"nowak_count": "2.5"}, "nowak_count"),
        ({"seed": -1}, "seed"),
    ],
)
def test_nowak_test_invalid_fields_exit_2(tmp_path, capsys, monkeypatch, config, field):
    def no_draw(*args):
        raise AssertionError("a signal was drawn from an invalid config")

    monkeypatch.setattr(cli, "_random_signal", no_draw)
    assert run("nowak-test", config, tmp_path / "o") == 2
    assert not any((tmp_path / "o").iterdir())
    assert field in one_error_line(capsys)


@pytest.mark.parametrize("command", ["mixing-report", "correlate", "audit"])
def test_2d_walk_with_the_default_1d_observable_exit_2(tmp_path, capsys, command):
    assert run(command, {"walk": {"preset": "lazy-2d"}}, tmp_path / "o") == 2
    message = one_error_line(capsys)
    assert message.startswith("invalid observable")
    assert "period [2] has dimension 1, the walk has dimension 2" in message


def test_periodic_table_key_of_wrong_dimension_exit_2(tmp_path, capsys):
    config = {"observables": [{"kind": "periodic", "period": [2], "table": {"0,5": "1", "1,7": "-1"}}]}
    assert run("correlate", config, tmp_path / "o") == 2
    assert "dimension 2, the period has dimension 1" in one_error_line(capsys)


@pytest.mark.parametrize("command", ["mixing-report", "correlate", "audit"])
def test_cell_site_of_wrong_dimension_exit_2(tmp_path, capsys, command):
    cell = {"kind": "cell", "m": 1, "values": [{"site": [0, 1], "back": [1], "fwd": [1], "value": "1"}]}
    assert run(command, {"observables": [cell]}, tmp_path / "o") == 2
    assert "cell site [0, 1] has dimension 2, the walk has dimension 1" in one_error_line(capsys)


DIGIT_BEYOND_THE_WALK = {"kind": "cell", "m": 1, "values": [{"site": [0], "back": [4], "fwd": [1], "value": "1"}]}
ORTHANT_OFF_THE_SIGNS = {"kind": "orthant", "constants": {"1": "1", "-1": "-1", "7": "100"}, "box": {"lo": [0], "hi": [0]},
                         "table": {"0": "1"}}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"observables": [5]}, "observables must be a list of objects, got [5]"),
        ({"observables": "abc"}, "observables must be a list of objects, got 'abc'"),
        ({"observables": [{"kind": "periodic", "period": [2], "table": [1, 2]}]}, "table must be an object, got [1, 2]"),
        ({"locals": [{"terms": [5]}]}, "locals[0].terms must be a list of objects, got [5]"),
        ({"locals": [5]}, "locals must be a list of objects, got [5]"),
        ({"locals": {"a": 1}}, "locals must be a list of objects, got {'a': 1}"),
        ({"observables": [{"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1", "2": "5"}}]},
         "table: residue [0] of period [2] is named twice"),
        ({"observables": [{"kind": "periodic", "period": [2], "table": {"2": "5", "0": "1", "1": "-1"}}]},
         "table: residue [0] of period [2] is named twice"),
        ({"observables": [{"kind": "constantOutsideBox", "constant": "0", "radius": 1, "table": {"1": "2", "1.0": "3"}}]},
         "constantOutsideBox table: site [1] is named twice"),
        ({"observables": [{"kind": "orthant", "constants": {"1": "1", "-1": "-1", "+1": "2"}, "radius": 1}]},
         "orthant constants: site [1] is named twice"),
        ({"locals": [{"terms": [{"lo": "abc"}]}]}, "locals[0].terms[0].lo: "),
        ({"locals": [{"terms": [{}]}, {"terms": [{}, {"hi": [1]}]}]},
         "locals[1].terms[1].hi: cannot interpret [1] as a rational number"),
        ({"locals": [{"terms": [{"weight": "1/0"}]}]}, "locals[0].terms[0].weight: zero denominator in '1/0'"),
        ({"locals": [{"terms": [{"lo": "3/4", "hi": "1/4"}]}]},
         "locals[0].terms[0]: strip interval must satisfy 0 <= lo < hi <= 1, got [3/4, 1/4)"),
        ({"locals": [{"terms": []}]}, "locals[0].terms: local observable needs at least one strip term"),
        ({"observables": [DIGIT_BEYOND_THE_WALK]},
         f"invalid observable {DIGIT_BEYOND_THE_WALK!r}: digit out of range for a walk with 3 directions"),
        ({"observables": [ORTHANT_OFF_THE_SIGNS]},
         f"invalid observable {ORTHANT_OFF_THE_SIGNS!r}: orthant constants key [7] is not a sign pattern in {{-1, 1}}^1"),
    ],
)
def test_malformed_observable_and_local_specs_exit_2(tmp_path, capsys, config, message):
    # the first four once ended in an AttributeError traceback with exit 1; the
    # tables naming a site twice ran with exit 0 on whichever value came last,
    # and the locals' fields and the cell digit went unnamed, through run's catch-all;
    # an orthant constant keyed 7 ran with exit 0 and an M5 gap of 100
    assert run("correlate", config, tmp_path / "o") == 2
    assert message in one_error_line(capsys)


CELL_RECORD = {"site": [0], "back": [1], "fwd": [1], "value": "1"}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("correlate", {"schedules": {"n_list": "12"}}, "schedules.n_list: expected a list of integers, got '12'"),
        ("fourier-decay", {"schedules": {"decay_n_list": "48"}}, "schedules.decay_n_list: expected a list of integers"),
        ("correlate", {"walk": {"preset": "lazy-2d"}, "observables": [{"kind": "periodic", "period": "23", "table": {}}]},
         "expected a list of integers, got '23'"),
        ("correlate", {"locals": [{"terms": [{"site": "10"}]}]}, "locals[0].terms[0].site: expected a list of integers, got '10'"),
        ("correlate", {"observables": [{"kind": "constantOutsideBox", "constant": "0", "center": "0", "radius": 1}]},
         "expected a list of integers, got '0'"),
        ("correlate", {"observables": [{"kind": "constantOutsideBox", "constant": "0", "box": {"lo": "0", "hi": [1]}}]},
         "expected a list of integers, got '0'"),
        ("correlate", {"observables": [{"kind": "cell", "m": 1, "values": [{**CELL_RECORD, "site": "0"}]}]},
         "expected a list of integers, got '0'"),
        ("correlate", {"observables": [{"kind": "cell", "m": 1, "values": [{**CELL_RECORD, "back": "1"}]}]},
         "expected a list of integers, got '1'"),
    ],
)
def test_string_integer_lists_exit_2(tmp_path, capsys, command, config, message):
    # each string was once read one character at a time: n = 1, 2 or site (1, 0)
    assert run(command, config, tmp_path / "o") == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("kinds", ["M5", ["M5", "M3"], [5], []])
def test_invalid_mixing_kinds_exit_2(tmp_path, capsys, kinds):
    assert run("mixing-report", {"mixing_kinds": kinds}, tmp_path / "o") == 2
    assert "mixing_kinds" in one_error_line(capsys)
    assert not (tmp_path / "o" / "mixing_report.json").exists()


@pytest.mark.parametrize("command", ["mixing-report", "correlate", "audit"])
def test_localized_table_key_of_wrong_dimension_exit_2(tmp_path, capsys, command):
    spec = {"kind": "constantOutsideBox", "constant": "0", "radius": 1, "table": {"0,1": "2"}}
    assert run(command, {"observables": [spec]}, tmp_path / "o") == 2
    message = one_error_line(capsys)
    assert message.startswith("invalid observable")
    assert "constantOutsideBox table key [0, 1] has dimension 2, the walk has dimension 1" in message


ZERO_DENOMINATOR_WALK = {"dim": 1, "support": [{"beta": [0], "p": "1/0"}, {"beta": [1], "p": "1/2"}]}
ZERO_PERIOD = {"kind": "periodic", "period": [0], "table": {"0": "1"}}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("span-check", {"walk": ZERO_DENOMINATOR_WALK}, "zero denominator in '1/0'"),
        ("correlate", {"observables": [{"kind": "periodic", "period": [2], "table": {"0": "1/0", "1": "1"}}]},
         "zero denominator in '1/0'"),
        ("fourier-decay", {"schedules": {"eps": "1/0"}}, "zero denominator in '1/0'"),
        ("correlate", {"observables": [ZERO_PERIOD]}, "periods must be positive, got [0]"),
        ("mixing-report", {"observables": [ZERO_PERIOD]}, "periods must be positive, got [0]"),
        ("mixing-report", {"observables": [{"kind": "cell", "m": -1, "values": [], "default": "1/2"}]},
         "cell depth m must be nonnegative, got -1"),
    ],
)
def test_degenerate_numbers_in_the_config_exit_2(tmp_path, capsys, command, config, message):
    # each of these once escaped as ZeroDivisionError, or ran with a negative depth
    assert run(command, config, tmp_path / "o") == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("name", [[1, 2], {}, 3])
def test_a_preset_that_names_no_preset_exit_2(tmp_path, capsys, name):
    # a list or an object once escaped as TypeError: unhashable type
    assert run("span-check", {"walk": {"preset": name}}, tmp_path / "o") == 2
    assert f"unknown preset {name!r}" in one_error_line(capsys)


FRACTIONAL_PERIOD = {"observables": [{"kind": "periodic", "period": [2.7], "table": {"0": "1", "1": "-1"}}]}
FRACTIONAL_N_LIST = {"schedules": {"n_list": [1.5, 2]}}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("correlate", FRACTIONAL_PERIOD, "expected an integer, got 2.7"),
        ("mixing-report", FRACTIONAL_PERIOD, "expected an integer, got 2.7"),
        ("correlate", FRACTIONAL_N_LIST, "schedules.n_list: expected an integer, got 1.5"),
        ("audit", FRACTIONAL_N_LIST, "schedules.n_list: expected an integer, got 1.5"),
    ],
)
def test_fractional_integer_fields_exit_2(tmp_path, capsys, command, config, message):
    # int() once truncated these to period 2 and n = 1
    assert run(command, config, tmp_path / "o") == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_integer_fields_read_ints_integral_floats_and_strings(tmp_path, capsys):
    spec = {"kind": "periodic", "table": {"0": "1", "1": "-1"}}
    plain = {"observables": [{**spec, "period": [2]}], "schedules": {"n_list": [1, 2]}}
    spelled = {"observables": [{**spec, "period": ["2"]}], "schedules": {"n_list": ["1", 2.0]}}
    for name, config in (("plain", plain), ("spelled", spelled)):
        assert run("correlate", config, tmp_path / name) == 0
    rows = [(tmp_path / name / "correlate_0_0.csv").read_text().splitlines()[1:] for name in ("plain", "spelled")]
    assert rows[0] == rows[1]


def test_parse_integers_reads_lists_and_tuples_only():
    assert parse_integers(["1", 2.0, 3]) == parse_integers((1, 2, 3)) == (1, 2, 3)
    for value in ("12", 12, None, {"0": 1}):
        with pytest.raises(TypeError, match="expected a list of integers"):
            parse_integers(value)


def test_json_float_table_values_parse_exactly(tmp_path, capsys):
    # a JSON number reads as its decimal value, as walk weights do, not as binary64
    config = {
        "observables": [{"kind": "periodic", "period": [2], "table": {"0": 0.1, "1": -0.1}}],
        "schedules": {"n_list": [1, 2]},
    }
    assert run("mixing-report", config, tmp_path / "o") == 0
    rows = (tmp_path / "o" / "m5_0.csv").read_text().splitlines()[2:]
    assert rows == ["1,1/30,0", "2,1/90,0"]


DEPTH_2_CELL = {"kind": "cell", "m": 2, "values": [{"site": [0], "back": [1, 2], "fwd": [3, 1], "value": "1"}]}


def test_m5_time_below_the_depth_offset_exit_2(tmp_path, capsys):
    config = {"observables": [DEPTH_2_CELL], "schedules": {"n_list": [3, 8], "radii": [4]}}
    assert run("mixing-report", config, tmp_path / "o") == 2
    assert "time 3 is below the depth offset 2m = 4" in one_error_line(capsys)


# an orthant whose constants differ evolves exactly only in d = 1 (Tail.evolve); the
# CLI refuses it up front, on a tail that is not Tail.uniform
ORTHANT_2D = {"kind": "orthant", "constants": {"1,1": "1", "1,-1": "0", "-1,1": "0", "-1,-1": "0"}}
ORTHANT_2D_CONFIG = {"walk": {"preset": "lazy-2d"}, "observables": [ORTHANT_2D]}


def refused(tmp_path, capsys, command, config):
    """The message of the one JSON error line that ``main`` prints when
    ``command`` refuses ``config`` read from a file with exit 2."""
    assert main([command, "--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "o")]) == 2
    return one_error_line(capsys)


@pytest.mark.parametrize("family", ["translationInvariant", "centeredOnly"])
@pytest.mark.parametrize("command", ["correlate", "mixing-report", "audit"])
def test_2d_orthant_with_differing_constants_exit_2(tmp_path, capsys, command, family):
    # refused up front; mixing-report and audit under translationInvariant once
    # exited 0 with a NonConvergent average or without the observable
    message = refused(tmp_path, capsys, command, {**ORTHANT_2D_CONFIG, "family": family})
    assert message == f"invalid observable {ORTHANT_2D!r}: orthant constants that differ evolve exactly only in dimension 1"


def test_fourier_decay_on_a_5d_walk_exit_2_before_any_law(tmp_path, capsys, monkeypatch):
    # C_d is tabulated for d <= 4: such a walk once exited 3 with a
    # traceback, and only after every law of its schedule was computed
    from bakerlattice import fourier

    monkeypatch.setattr(fourier, "defect_signal", lambda *args: pytest.fail("a law was computed"))
    walk = {"dim": 5, "support": [{"beta": [0] * 5, "p": "1/2"}, {"beta": [1, 0, 0, 0, 0], "p": "1/2"}]}
    message = refused(tmp_path, capsys, "fourier-decay", {"walk": walk, "schedules": {"decay_n_list": [1]}})
    assert message == "walk dimension 5 is outside 1..4, the dimensions with a tabulated constant C_d"


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("nowak-test", [["seed", 1]], "config must be a JSON object"),
        ("span-check", "abc", "config must be a JSON object"),
        ("mixing-report", {"observables": [{"kind": "cell", "m": 1, "values": [{**CELL_RECORD, "back": [1, 1], "fwd": []}]}]},
         "needs m = 1 back and fwd digits, got 2 and 0"),
        ("correlate", {"walk": {"preset": "lazy-2d"}, "observables": [{"kind": "periodic", "period": "23", "table": {}}]},
         "period"),
        # a boolean step is not the step 1, as no boolean is an integer field
        ("span-check", {"walk": {"dim": 1, "support": [{"beta": [0], "p": "1/2"}, {"beta": [True], "p": "1/2"}]}},
         "invalid walk: booleans are not rationals"),
    ],
)
def test_refused_config_files_exit_2_naming_the_field(tmp_path, capsys, command, config, field):
    assert field in refused(tmp_path, capsys, command, config)


PERIODIC = {"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}}
BOXED = {"kind": "constantOutsideBox", "constant": "0", "box": {"lo": [0], "hi": [1]}, "table": {"0": "1"}}


@pytest.mark.parametrize(
    "command, config, key, hint",
    [
        ("correlate", {"schedules": {"n_lsit": [99]}}, "schedules.n_lsit", "did you mean 'n_list'?"),
        ("mixing-report", {"mixing_kind": ["M2"]}, "mixing_kind", "did you mean 'mixing_kinds'?"),
        ("mixing-report", {"famly": "centeredOnly"}, "famly", "did you mean 'family'?"),
        ("mixing-report", {"locals": [{"terms": [{"hgh": "1/2"}]}]}, "locals[0].terms[0].hgh",
         "(known keys: hi, lo, site, weight)"),
        ("mixing-report", {"locals": [{"terms": [{}, {"wieght": "2"}]}]}, "locals[0].terms[1].wieght",
         "did you mean 'weight'?"),
        ("mixing-report", {"locals": [{"terms": [{}], "term": [{}]}]}, "locals[0].term", "did you mean 'terms'?"),
        ("mixing-report", {"observables": [{**PERIODIC, "colour": "red"}]}, "colour", "(known keys: kind, period, table)"),
        ("correlate", {"observables": [{"kind": "sign1d", "period": [2]}]}, "period", "(known keys: kind)"),
        ("correlate", {"observables": [{"kind": "cell", "m": 1, "values": [{**CELL_RECORD, "valeu": "2"}]}]},
         "values[0].valeu", "did you mean 'value'?"),
        ("correlate", {"observables": [{**BOXED, "box": {"lo": [0], "hi": [1], "high": [2]}}]}, "box.high",
         "(known keys: hi, lo)"),
        ("span-check", {"walk": {"dim": 1, "support": [{"beta": [0], "p": "1/2"}, {"beta": [1], "q": "1/2"}]}},
         "support[1].q", "(known keys: beta, p)"),
        ("span-check", {"walk": {"presett": "lazy-2d"}}, "walk.presett", "did you mean 'preset'?"),
        # the grid belongs in `schedules`
        ("fourier-decay", {"grid": 1024}, "grid", "schedules"),
    ],
)
def test_an_unknown_key_exit_2_naming_it(tmp_path, capsys, command, config, key, hint):
    # most of these once ran with exit 0 on the defaults; none named the key
    message = refused(tmp_path, capsys, command, config)
    assert f"{key}: unknown key" in message and hint in message
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("span-check", {"walk": {"preset": "lazy-2d", "dim": 1}}, "walk.dim: conflicts with 'preset'"),
        ("span-check", {"walk": {"support": [], "preset": "lazy-2d"}}, "walk.support: conflicts with 'preset'"),
        ("correlate", {"observables": [{**BOXED, "radius": 2}]}, "radius: conflicts with 'box'"),
        ("correlate", {"observables": [{"kind": "orthant", "constants": {"1": "1", "-1": "-1"}, "center": [0],
                                        "box": {"lo": [0], "hi": [1]}}]}, "center: conflicts with 'box'"),
    ],
)
def test_two_forms_of_one_input_exit_2(tmp_path, capsys, command, config, message):
    # the preset, and the box, once won silently over the other form
    assert message in refused(tmp_path, capsys, command, config)


def test_the_dict_form_of_family_exit_2(tmp_path, capsys):
    # {"kind": ...} was a second, undocumented way to name the family
    message = refused(tmp_path, capsys, "correlate", {"family": {"kind": "centeredOnly"}})
    assert message == "unknown family kind {'kind': 'centeredOnly'}"


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_the_default_config_hash_is_pinned(tmp_path, capsys, command):
    # the hash covers the config merged over the same defaults as it always has
    assert run(command, {}, tmp_path) == 0
    payload = read_json(tmp_path / f"{command.replace('-', '_')}.json")
    assert payload.get("metadata", payload)["config_hash"] == "482dd339c6505bf2"


def test_the_grid_enters_the_config_hash(tmp_path, capsys):
    hashes = set()
    for grid in (1024, 4096):
        assert run("fourier-decay", {"schedules": {"decay_n_list": [4, 16], "grid": grid}}, tmp_path / str(grid)) == 0
        payload = read_json(tmp_path / str(grid) / "fourier_decay.json")
        assert payload["grid"] == grid
        hashes.add(payload["config_hash"])
    assert len(hashes) == 2


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_written_walk_reads_back_as_a_config_walk(tmp_path, capsys, name):
    # the package's own output never trips the key check
    assert run("span-check", {"walk": {"preset": name}}, tmp_path / "a") == 0
    walk = read_json(tmp_path / "a" / "span_check.json")["walk"]
    assert run("span-check", {"walk": walk}, tmp_path / "b") == 0
    assert read_json(tmp_path / "b" / "span_check.json")["walk"] == walk


@pytest.mark.parametrize("seed", ["abc", 1.5, [1], -3, True])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_bad_seed_exit_2_on_every_command(tmp_path, capsys, command, seed):
    # every command writes the seed into its artifacts, so every command reads it
    assert run(command, {"seed": seed}, tmp_path / "o") == 2
    assert not any((tmp_path / "o").iterdir())
    assert one_error_line(capsys).startswith("seed")


def test_each_observable_and_time_is_evolved_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(f, p, n):
        calls.append((id(f), n))
        return evolve_site(f, p, n)

    monkeypatch.setattr("bakerlattice.observables.evolve_site", counting)
    monkeypatch.setattr(mixing, "evolve_site", counting)
    config = {
        "observables": [
            {"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}},
            {"kind": "constantOutsideBox", "constant": "1/2", "radius": 1, "table": {"0": "2", "1": "-1"}},
            DEPTH_2_CELL,
        ],
        "locals": [
            {"terms": [{"site": [0]}]},
            {"terms": [{"site": [1], "lo": "1/4", "hi": "3/4", "weight": "-2"}, {"site": [-1]}]},
        ],
        "schedules": {"n_list": [4, 6, 8], "r_list": [2, 8], "radii": [8]},
        "mixing_kinds": ["M5", "M4", "M2", "M1"],
    }
    assert run("mixing-report", config, tmp_path / "report") == 0
    artifacts = set(read_json(tmp_path / "report" / "mixing_report.json")["artifacts"])
    assert {"m5_2.csv", "m4_2_1.csv", "m2_1_2.csv", "m1_0_2.csv"} <= artifacts
    # a pair at time n evolves F's reduction n - m_F - m_G steps: the depth-2
    # cell n - 2 = 2, 4, 6 steps for M4 and M2 against a site G, and
    # n - 4 = 0, 2, 4 steps for M5 and for M2 against itself; each site
    # observable n = 4, 6, 8 steps, and n - 2 = 2 more for M2 against the cell
    assert len(set(calls)) == len(calls)
    assert sorted(Counter(i for i, _ in calls).values()) == [4, 4, 4]
    calls.clear()
    assert run("correlate", config, tmp_path / "correlate") == 0
    assert len(set(calls)) == len(calls) == 3 * 3


def test_m1_pairs_without_an_exact_average_are_skipped(tmp_path, capsys):
    config = {
        "observables": [{"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}}, {"kind": "sign1d"}],
        "schedules": {"n_list": [1, 2], "r_list": [1], "radii": [4]},
        "mixing_kinds": ["M1"],
    }
    assert run("mixing-report", config, tmp_path / "o") == 0
    assert read_json(tmp_path / "o" / "mixing_report.json")["artifacts"] == ["m1_0_0.csv", "m1_0_0.json"]


def test_a_missing_target_is_one_empty_cell_and_one_null_across_commands(tmp_path, capsys):
    # the sign has no translation-invariant average, so no report pairing it
    # has a target; the M2 CSV once wrote "NonConvergent" where M4 left it empty
    config = {"observables": [{"kind": "sign1d"}, PERIODIC], "mixing_kinds": ["M5", "M4", "M2", "M1"],
              "schedules": {"n_list": [1, 2], "r_list": [1, 2], "radii": [4]}}
    without = []
    for command in ("correlate", "mixing-report"):
        out = tmp_path / command
        assert run(command, config, out) == 0
        for name in read_json(out / f"{command.replace('-', '_')}.json")["artifacts"]:
            if not name.endswith(".csv"):
                continue
            stem, rows = name[:-4], [l.split(",") for l in (out / name).read_text().splitlines()[1:]]
            if "target" not in rows[0]:
                continue
            cells = {row[rows[0].index("target")] for row in rows[1:]}
            target = read_json(out / f"{stem}.json")["target"]
            if target is None:
                assert cells == {""}, stem
                without.append(stem)
            else:
                assert "" not in cells, stem
    # mixing-report writes no M5 or M4 report of an observable without an average
    assert sorted(without) == ["correlate_0_0", "m2_0_0", "m2_0_1"]
    assert read_json(tmp_path / "mixing-report" / "mixing_report.json")["averages"][0]["value"] == "NonConvergent"


def test_m1_report_errors_are_not_swallowed(tmp_path, capsys, monkeypatch):
    # a fault inside a layer escapes as itself, not relabelled as a refused config
    def failing(*args, **kwargs):
        raise ValueError("m1 report failed")

    monkeypatch.setattr(mixing, "m1_report", failing)
    config = {"schedules": {"n_list": [1, 2], "r_list": [1], "radii": [4]}, "mixing_kinds": ["M1"]}
    with pytest.raises(ValueError, match="^m1 report failed$"):
        run("mixing-report", config, tmp_path / "o")
    assert capsys.readouterr().err == ""


def test_a_fault_that_escapes_a_command_exits_3(tmp_path, capsys, monkeypatch):
    # main, not run, maps it: the traceback, then one JSON line naming its type
    def failing(*args, **kwargs):
        raise ZeroDivisionError("injected fault")

    monkeypatch.setattr(mixing, "evolve_site", failing)
    assert main(["correlate", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert json.loads(err.splitlines()[-1]) == {
        "error": {"exit": 3, "type": "ZeroDivisionError", "message": "injected fault"}
    }


# ---------------------------------------------------------------------------
# artifacts


def test_mixing_report_m5_rows(tmp_path, capsys):
    config = {"schedules": {"n_list": [1, 2, 3, 4], "radii": [4, 8]}}
    out = tmp_path / "out"
    assert run("mixing-report", config, out) == 0
    rows = [
        line.split(",")
        for line in (out / "m5_0.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert rows[0] == ["n", "gap", "target_zero"]
    for n, gap, _ in rows[1:]:
        assert Fraction(gap) == Fraction(1, 3 ** int(n))


def test_mixing_report_all_kinds(tmp_path, capsys):
    config = {
        "observables": [
            {"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}},
            {"kind": "periodic", "period": [1], "table": {"0": "2"}},
        ],
        "schedules": {"n_list": [1, 2, 3], "r_list": [1, 2], "radii": [4]},
        "mixing_kinds": ["M5", "M4", "M2", "M1"],
    }
    out = tmp_path / "out"
    assert run("mixing-report", config, out) == 0
    payload = read_json(out / "mixing_report.json")
    names = set(payload["artifacts"])
    assert {"m5_0.csv", "m4_0_0.csv", "m2_0_1.csv", "m1_0_1.csv"} <= names


@pytest.mark.parametrize("seed", [0, 6, 13])
def test_uniformity_defect_is_the_sup_over_every_center(tmp_path, capsys, seed):
    # f = [x and y both even] at r = 15: a box centered at odd (x, y) holds
    # 16 x 16 even sites of its 31 x 31, the most above the mean 1/4
    config = {
        "walk": {"preset": "lazy-2d"},
        "observables": [{"kind": "periodic", "period": [2, 2], "table": {"0,0": "1", "0,1": "0", "1,0": "0", "1,1": "0"}}],
        "schedules": {"radii": [15]},
        "seed": seed,
    }
    out = tmp_path / "out"
    assert run("mixing-report", config, out) == 0
    averages = read_json(out / "mixing_report.json")["averages"]
    assert averages == [{"observable": 0, "value": "1/4", "uniformity_defect": "63/3844"}]


def test_simulate_artifacts(tmp_path, capsys):
    config = {"samples": 20000, "steps": 3, "seed": 9}
    out = tmp_path / "out"
    assert run("simulate", config, out) == 0
    lines = (out / "histogram.csv").read_text().splitlines()
    header = next(l for l in lines if l.startswith("site_0"))
    assert header == "site_0,count,empirical_p,exact_p"
    assert read_json(out / "simulate.json")["samples"] == 20000


def test_correlate_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("correlate", {"schedules": {"n_list": [0, 1, 2]}}, out) == 0
    data = (out / "correlate_0_0.csv").read_text()
    assert "n,value,target,deviation" in data


def test_fourier_decay_artifacts_and_plot(tmp_path, capsys):
    config = {"schedules": {"decay_n_list": [4, 16, 64], "eps": "1/10", "grid": 512}}
    out = tmp_path / "out"
    assert run("fourier-decay", config, out, plot=True) == 0
    payload = read_json(out / "fourier_decay.json")
    assert payload["monotone"] and payload["embedding_ok"]
    assert payload["eps_within_proof_bound"] is False
    text = (out / "decay.csv").read_text()
    assert text.splitlines()[1] == "n,r_n,l1_grid,sobolev,a_norm,bound"
    assert (out / "decay.svg").read_text().startswith("<svg")


def test_nowak_command(tmp_path, capsys):
    config = {"nowak_dims": [1, 2], "nowak_count": 25, "seed": 4}
    out = tmp_path / "out"
    assert run("nowak-test", config, out) == 0
    payload = read_json(out / "nowak_test.json")
    assert payload["failures"] == []
    assert float(payload["constants"]["1"]) == pytest.approx(1.8138, abs=1e-3)
    assert payload["constants"] == {"1": nowak_constant(1), "2": nowak_constant(2)}


def test_a1_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("a1-check", {"walk": {"preset": "lazy-2d"}}, out) == 0
    payload = read_json(out / "a1_check.json")
    assert payload["ok"] and len(payload["rows"]) == 3


def test_audit_command(tmp_path, capsys):
    config = {"schedules": {"n_list": [1, 2], "r_list": [2, 4]}}
    out = tmp_path / "out"
    assert run("audit", config, out) == 0
    header = next(
        l for l in (out / "audit.csv").read_text().splitlines() if not l.startswith("#")
    )
    assert header == "n,r,term1,term2,term3,bound,measured"
    assert read_json(out / "audit.json")["ok"] is True


def test_audit_with_no_average_under_the_family_exit_2_writing_nothing(tmp_path, capsys):
    # the sign has no translation-invariant average, so nothing is left to
    # audit; this once exited 0 with ok=True and a header-only audit.csv
    config = {"observables": [{"kind": "sign1d"}]}
    message = refused(tmp_path, capsys, "audit", config)
    assert message == "audit needs a global observable with an average under the translationInvariant family, and none has one"
    assert list((tmp_path / "o").iterdir()) == []
    # beside one with an average, the sign is skipped, as before
    out = tmp_path / "both"
    assert run("audit", {"observables": [{"kind": "sign1d"}, PERIODIC]}, out) == 0
    assert {row["observable"] for row in read_json(out / "audit.json")["m4"]} == {1}


AUDIT_2D = {
    "walk": {"preset": "lazy-2d"},
    "observables": [
        {"kind": "constantOutsideBox", "constant": "2", "radius": 1,
         "table": {"0,0": "1", "1,0": "-3", "0,-1": "2", "-1,1": "1"}},
        {"kind": "periodic", "period": [2, 3],
         "table": {"0,0": "1", "0,1": "-2", "0,2": "3", "1,0": "-1", "1,1": "2", "1,2": "-3"}},
    ],
    "locals": [
        {"terms": [{"site": [0, 0], "lo": "0", "hi": "1/2", "weight": "1"}]},
        {"terms": [{"site": [1, -1], "lo": "1/4", "hi": "3/4", "weight": "2"},
                   {"site": [-2, 0], "lo": "0", "hi": "1", "weight": "-1"}]},
    ],
    "schedules": {"n_list": [1, 2, 3, 4], "r_list": [2, 4]},
}


def _count_cache_fills(monkeypatch) -> Counter:
    """Count the fills of SiteObservable's cached ``means`` and ``extremes`` from now on."""
    fills = Counter()
    for name in ("means", "extremes"):
        def counting(self, _fill=getattr(SiteObservable, name).func, _name=name):
            fills[_name] += 1
            return _fill(self)

        prop = functools.cached_property(counting)
        prop.__set_name__(SiteObservable, name)
        monkeypatch.setattr(SiteObservable, name, prop)
    return fills


def test_audit_takes_each_average_and_m5_gap_once(tmp_path, capsys, monkeypatch):
    # 2 globals, 2 locals, 4 times: the means of each F, and the extremes of
    # each evolution (F, n); the M4 gaps and the M2 targets reuse them
    fills = _count_cache_fills(monkeypatch)
    assert run("audit", AUDIT_2D, tmp_path / "out") == 0
    assert fills == {"means": 2, "extremes": 2 * 4}


def test_audit_reduces_each_cell_once(tmp_path, capsys, monkeypatch):
    # the audit takes the Evolutions the config reader built: one reduction
    # and one square marginal per cell
    calls = Counter()
    for name in ("reduce_to_site", "square_marginal"):
        def counting(*args, _take=getattr(mixing, name), _name=name):
            calls[_name] += 1
            return _take(*args)

        monkeypatch.setattr(mixing, name, counting)
    cell = {"kind": "cell", "m": 1, "values": [{"site": [0], "back": [1], "fwd": [2], "value": "1"}]}
    config = {"observables": [cell, {"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}}],
              "schedules": {"n_list": [2, 3, 4]}}
    assert run("audit", config, tmp_path / "out") == 0
    assert calls == {"reduce_to_site": 1, "square_marginal": 1}

REPORT_1D = {
    "walk": {"preset": "third-walk"},
    "family": "centeredOnly",
    "observables": [
        {"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}},
        {"kind": "sign1d"},
        {"kind": "constantOutsideBox", "constant": "-3/2", "radius": 2, "table": {"-2": "-3", "0": "2", "1": "-1"}},
        {"kind": "cell", "m": 2, "values": [
            {"site": [0], "back": [1, 3], "fwd": [2, 1], "value": "3"},
            {"site": [1], "back": [3, 3], "fwd": [3, 1], "value": "1"},
            {"site": [-1], "back": [2, 2], "fwd": [1, 3], "value": "1"},
        ]},
    ],
    "locals": [
        {"terms": [{"site": [0]}]},
        {"terms": [{"site": [2], "lo": "1/4", "hi": "1", "weight": "3"},
                   {"site": [-1], "lo": "3/4", "hi": "1", "weight": "3"}]},
    ],
    "schedules": {"n_list": [4, 8, 16, 32], "r_list": [2, 4, 8, 16], "radii": [4, 8, 16]},
    "mixing_kinds": ["M5", "M4", "M2", "M1"],
}


def test_mixing_report_takes_each_average_and_m5_gap_once(tmp_path, capsys, monkeypatch):
    # 4 observables, 2 locals, 4 times; a pair at time n evolves F's
    # reduction n - m_F - m_G steps, so the cell one, of depth m = 2, evolves
    # n - 2m steps for M5 (strips of its own depth), n - m for M4 and for M2
    # against a site G, and n - 2m for M2 against itself; each site F evolves
    # n steps, and n - m for M2 against the cell:
    # - means: one fill per observable, read from its marginal (a site
    #   observable's is itself), which every family's average, the M4, M2
    #   and M1 targets and M1's rules read;
    # - extremes: one per evolution whose gap a report takes, 4 * 4 for M5
    #   and 4 more for the cell observable's M4 gaps, shared by both locals;
    #   the 3 * 4 evolutions M2 adds against the cell take no gap
    fills = _count_cache_fills(monkeypatch)
    assert run("mixing-report", REPORT_1D, tmp_path / "out") == 0
    assert fills == {"means": 4, "extremes": 4 * 4 + 4}


def test_correlate_takes_each_average_and_gap_once(tmp_path, capsys, monkeypatch):
    # 4 observables, 2 locals, 4 times: both locals share each observable's
    # means and each evolution's extremes
    fills = _count_cache_fills(monkeypatch)
    assert run("correlate", REPORT_1D, tmp_path / "out") == 0
    assert fills == {"means": 4, "extremes": 4 * 4}


def _artifact_digest(out: Path) -> str:
    """sha256 over the sorted (name, bytes) of every file in ``out``."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


REPORT_1D_SITE = {**REPORT_1D, "observables": REPORT_1D["observables"][:3]}


@pytest.mark.parametrize(
    "command, config, digest",
    [
        ("correlate", AUDIT_2D, "2dc0db9a6c54381fef857f2810580d80d5b3ca8c89005f7a50a117fda23e02d5"),
        ("mixing-report", AUDIT_2D, "d32e3294bbfd9b66de9a1fc93650f2b60af48c47b9dc72c26f32cfd7d3e513dc"),
        ("audit", AUDIT_2D, "4c3566038e1c9113aeeea8065fab42e950311baaf07eb3127b56d3a2fdd6eb12"),
        ("correlate", REPORT_1D_SITE, "421d9ceed8d0431f1b829383ae807eb66e09829c3cbcd89b91c760cd2f9110c9"),
        ("mixing-report", REPORT_1D_SITE, "c5aa25b474ed0dfb27511d4943b29b517c496daf0a0e871f6956719bb1421aae"),
        ("audit", REPORT_1D_SITE, "d4b4284c28d6f2f4749239809336ae77474d751d3476b0b25d6a8ed538c55f68"),
    ],
    ids=["correlate-audit2d", "report-audit2d", "audit-audit2d", "correlate-report1d", "report-report1d", "audit-report1d"],
)
def test_report_bytes_are_pinned(tmp_path, capsys, command, config, digest):
    # every artifact of the site-observable reports, byte for byte
    assert run(command, config, tmp_path / "out") == 0
    assert _artifact_digest(tmp_path / "out") == digest


def test_cell_observable_through_cli(tmp_path, capsys):
    config = {
        "observables": [
            {
                "kind": "cell",
                "m": 1,
                "values": [
                    {"site": [0], "back": [k], "fwd": [a], "value": "1"}
                    for k in (1, 2, 3)
                    for a in (1, 2, 3)
                ],
            }
        ],
        "schedules": {"n_list": [2, 3], "radii": [4]},
    }
    out = tmp_path / "out"
    assert run("mixing-report", config, out) == 0
    payload = read_json(out / "mixing_report.json")
    assert payload["averages"][0]["value"] == "0"  # box indicator averages to zero


DEPTH_1_CELL = {"kind": "cell", "m": 1, "default": "1/2", "values": [
    {"site": [0], "back": [1], "fwd": [2], "value": "3"},
    {"site": [1], "back": [3], "fwd": [1], "value": "-2"},
    {"site": [-1], "back": [2], "fwd": [3], "value": "1"},
]}
HALF_STRIP = {"site": [0], "lo": "1/4", "hi": "3/4"}


def test_cell_observable_rows_match_the_itinerary_oracle(tmp_path, capsys):
    # a depth-m F correlates at time n as its reduction evolved n - m steps,
    # in correlate and in mixing-report's M4 and M2 rows alike; mixing-report
    # also pairs the cell with itself in M2, which refuses n = 1 < 2m
    from bakerlattice import Strip, itinerary_oracle, preset

    third = preset("third-walk")
    F = observables.observable_from_config(1, DEPTH_1_CELL)
    G = {0: 1, 1: -1}  # the parity observable, by residue
    config = {
        "observables": [DEPTH_1_CELL, {"kind": "periodic", "period": [2], "table": {"0": "1", "1": "-1"}}],
        "locals": [{"terms": [HALF_STRIP]}],
        "schedules": {"n_list": [1, 2, 3], "r_list": [1, 2]},
        "mixing_kinds": ["M4", "M2"],
    }
    strip = Strip((0,), Fraction(1, 4), Fraction(3, 4))
    oracle = {n: itinerary_oracle(F, strip, third, n) for n in (1, 2, 3)}
    assert run("correlate", config, tmp_path / "c") == 0
    assert run("mixing-report", config, tmp_path / "refused") == 2
    assert one_error_line(capsys) == "time 1 is below the depth offset 2m = 2"
    assert not (tmp_path / "refused" / "m4_0_0.json").exists()
    config["schedules"]["n_list"] = [2, 3]
    assert run("mixing-report", config, tmp_path / "r") == 0
    assert {int(n): Fraction(v) for n, v in read_json(tmp_path / "c" / "correlate_0_0.json")["series"].items()} == oracle
    assert {int(n): Fraction(v) for n, v in read_json(tmp_path / "r" / "m4_0_0.json")["series"].items()} == {
        n: oracle[n] for n in (2, 3)
    }
    m2 = read_json(tmp_path / "r" / "m2_0_1.json")["series"]
    for n in (2, 3):
        for r in (1, 2):
            box_sum = sum(G[a % 2] * itinerary_oracle(F, Strip.unit((a,)), third, n) for a in range(-r, r + 1))
            assert Fraction(m2[f"{n},{r}"]) == box_sum / (2 * r + 1)


def test_audit_m4_rows_of_a_cell_match_the_itinerary_oracle(tmp_path, capsys):
    # the audit pairs a depth-1 F with the strip at n - 1 steps, and with
    # itself in M2 at n - 2, so n = 1 is refused
    from bakerlattice import Strip, itinerary_oracle, preset

    F = observables.observable_from_config(1, DEPTH_1_CELL)
    strip = Strip((0,), Fraction(1, 4), Fraction(3, 4))
    config = {"observables": [DEPTH_1_CELL], "locals": [{"terms": [HALF_STRIP]}], "schedules": {"n_list": [2, 3], "r_list": [0, 1]}}
    assert run("audit", config, tmp_path / "o") == 0
    rows = read_json(tmp_path / "o" / "audit.json")["m4"]
    deviations = {n: abs(itinerary_oracle(F, strip, preset("third-walk"), n) - Fraction(1, 2) * strip.height) for n in (2, 3)}
    assert {row["n"]: Fraction(row["deviation"]) for row in rows} == deviations
    config["schedules"]["n_list"] = [1, 2]
    assert run("audit", config, tmp_path / "refused") == 2
    assert one_error_line(capsys) == "time 1 is below the depth offset 2m = 2"


def test_a_cell_read_as_g_is_the_cell_itself(tmp_path, capsys):
    # mu_V(G) over the unit square at 0: the default 1/2 plus the excess
    # 3 - 1/2 of the one cell there, times its measure 1/9
    config = {
        "observables": [{"kind": "periodic", "period": [1], "table": {"0": "1"}}, DEPTH_1_CELL],
        "schedules": {"n_list": [2, 3], "r_list": [0]},
        "mixing_kinds": ["M2"],
    }
    assert run("mixing-report", config, tmp_path / "o") == 0
    series = read_json(tmp_path / "o" / "m2_0_1.json")["series"]
    assert series == {"2,0": "7/9", "3,0": "7/9"}
    assert Fraction(7, 9) == Fraction(1, 2) + (3 - Fraction(1, 2)) / 9


def test_a_cell_s_uniformity_defect_comes_from_its_square_marginal(tmp_path, capsys):
    # each cell's square holds 1 * 1/9; the reduction would put both at site 1 (2/9)
    two_cells = {"kind": "cell", "m": 1, "values": [
        {"site": [0], "back": [1], "fwd": [2], "value": "1"},
        {"site": [2], "back": [3], "fwd": [2], "value": "1"},
    ]}
    config = {"observables": [two_cells], "schedules": {"n_list": [2], "radii": [0]}}
    assert run("mixing-report", config, tmp_path / "o") == 0
    averages = read_json(tmp_path / "o" / "mixing_report.json")["averages"]
    assert averages == [{"observable": 0, "value": "0", "uniformity_defect": "1/9"}]


@pytest.mark.parametrize(
    "command, kinds", [("correlate", ["M5"]), ("mixing-report", ["M4"]), ("mixing-report", ["M2", "M1"])]
)
def test_cell_observable_time_below_its_depth_exit_2(tmp_path, capsys, command, kinds):
    # M2 pairs the cell with itself: the pair's offset is m_F + m_G = 2m
    config = {"observables": [DEPTH_1_CELL], "schedules": {"n_list": [0, 1]}, "mixing_kinds": kinds}
    assert run(command, config, tmp_path / "o") == 2
    offset = "2m = 2" if "M2" in kinds else "m = 1"
    assert one_error_line(capsys) == f"time 0 is below the depth offset {offset}"


# ---------------------------------------------------------------------------
# determinism


def test_artifacts_are_byte_identical_across_runs(tmp_path, capsys):
    config = {
        "seed": 123,
        "samples": 5000,
        "schedules": {"n_list": [1, 2, 3], "r_list": [1, 2], "radii": [4, 8]},
        "mixing_kinds": ["M5", "M2"],
    }
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    commands = ("simulate", "mixing-report", "nowak-test", "a1-check", "correlate", "audit", "fourier-decay")
    for command in commands:
        assert run(command, config, out_a) == 0
        assert run(command, config, out_b) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
    # every CSV: one "# key=value ..." metadata line, then the column row
    csvs = {name for name in files_a if name.endswith(".csv")}
    assert {"histogram.csv", "m5_0.csv", "m2_0_0.csv", "correlate_0_0.csv", "audit.csv", "decay.csv"} <= csvs
    for name in csvs:
        lines = (out_a / name).read_text().splitlines()
        assert [l for l in lines if l.startswith("#")] == lines[:1], name
        assert "config_hash=" in lines[0] and "seed=123" in lines[0], name
        assert lines[1].split(",")[0] in ("n", "site_0"), name


def test_seed_flag_overrides_config(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run("simulate", {"seed": 1, "samples": 5000}, out_a, seed=2)
    run("simulate", {"seed": 2, "samples": 5000}, out_b)
    a = (out_a / "histogram.csv").read_text()
    b = (out_b / "histogram.csv").read_text()
    assert a.splitlines()[0] == b.splitlines()[0]  # identical seed line


# ---------------------------------------------------------------------------
# argv entry point


def test_main_with_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {"walk": {"preset": "third-walk"}})
    code = main(["span-check", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0


def test_main_rejects_missing_config_file(tmp_path, capsys):
    code = main(
        ["span-check", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_main_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b"\xff\xfe{")
    assert main(["span-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert one_error_line(capsys).startswith("cannot read config: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["audit", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["audit", "--budget", "5"], "unrecognized arguments: --budget 5"),
        (["fourier-decay", "--grid", "64"], "unrecognized arguments: --grid 64"),
        # --out is a flag, not the value of --seed
        (["audit", "--seed"], "argument --seed: expected one argument"),
        ([], "the following arguments are required: command"),
    ],
)
def test_refused_command_line_is_one_json_line(tmp_path, capsys, argv, message):
    # a refused command line keeps the exit-2 contract: no usage text, one JSON line
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_an_out_that_cannot_be_a_directory_exit_2(tmp_path, capsys, out):
    # both once ended in exit 3, with a FileExistsError or NotADirectoryError
    # traceback from the mkdir
    (tmp_path / "file").write_text("kept")
    assert main(["span-check", "--out", str(tmp_path / out)]) == 2
    assert one_error_line(capsys).startswith("--out: cannot create directory: ")
    assert (tmp_path / "file").read_text() == "kept"


def argparse_reader(argv):
    """The argparse parser the command line was once read with, as the oracle
    of ``cli._read_argv``: the same tuple, or a ConfigError."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise cli.ConfigError(message)

    parser = Parser(prog="bakerlattice")
    parser.add_argument("command", choices=cli.COMMANDS)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=Path("artifacts"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--plot", action="store_true")
    opts = parser.parse_args(argv)
    return opts.command, opts.config, opts.out, opts.seed, opts.plot


@pytest.mark.parametrize(
    "argv",
    [
        ["audit"],
        ["--out", "o", "--config", "c.json", "--seed", "3", "correlate"],
        ["--plot", "span-check", "--out", "o"],
        ["audit", "--out=o", "--config=c.json", "--seed=7"],
        ["audit", "--out=a=b", "--config", "x=y"],
        ["audit", "--seed", "-5"],
        ["audit", "--seed=-5", "--out", "-"],
        ["audit", "--out", "-a b"],
        ["audit", "--seed", "1", "--out", "a", "--seed", "2", "--out", "b"],
        ["audit", "--config", "a.json", "--config=b.json"],
        ["audit", "--plot", "--seed", "4", "--plot"],
        ["--seed", "+8", "audit", "--plot"],
    ],
)
def test_the_reader_reads_what_argparse_read(argv):
    assert cli._read_argv(argv) == argparse_reader(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--plot"],
        ["frobnicate"],
        ["-5"],
        ["audit", "correlate"],
        ["audit", "--seed", "x"],
        ["audit", "--seed", "1.5"],
        ["audit", "--seed"],
        ["audit", "--seed", "--out", "x"],
        ["audit", "--out", "--help"],
        ["audit", "--config", "-x"],
        ["audit", "--budget", "5"],
        ["audit", "--budget=5"],
        ["audit", "-x"],
        ["audit", "--plot=yes"],
        ["--seed", "x", "frobnicate"],
        ["--budget", "frobnicate"],
    ],
)
def test_the_reader_refuses_what_argparse_refused(capsys, argv):
    with pytest.raises(cli.ConfigError) as refused:
        argparse_reader(argv)
    assert main(argv) == 2
    # the same words, up to how the list of choices is quoted
    message = one_error_line(capsys)
    assert message.partition(" (choose from")[0] == str(refused.value).partition(" (choose from")[0]


@pytest.mark.parametrize(
    "argv, extra",
    [(["audit", "--conf", "c.json"], "--conf c.json"), (["audit", "--"], "--"), (["--", "audit"], "--")],
)
def test_abbreviated_flags_and_a_bare_double_dash_are_refused(capsys, argv, extra):
    # argparse took --conf for --config and -- as the end of the flags; the
    # reader takes each flag as spelled in full only
    argparse_reader(argv)
    assert main(argv) == 2
    assert one_error_line(capsys) == f"unrecognized arguments: {extra}"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["audit", "--seed", "3", "--help", "--budget"], ["--budget", "-h"]])
def test_help_prints_the_usage_and_returns_0(tmp_path, capsys, monkeypatch, argv):
    # argparse printed its help and raised SystemExit(0); main returns 0
    # without reading the rest of the command line, and runs nothing
    with pytest.raises(SystemExit):
        argparse_reader(argv)
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: bakerlattice ") and err == ""
    assert all(command in out for command in cli.COMMANDS)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# fuzzed configs: an accepted config runs, a malformed value in it ends in an
# exit code, and a near-miss key in it is refused

VALUES = st.sampled_from(["0", "1", "-1", "1/2", "3/4", "-2/3", 0, 1, -1, 2, -2])
STRIP_BOUNDS = ["0", "1/4", "1/3", "1/2", 1, "3/4", 0, "2/3"]


def subset(draw, items: dict) -> dict:
    """The items whose keys are drawn, each half the time: optional keys left out."""
    return {k: v for k, v in items.items() if draw(st.booleans())}


@st.composite
def accepted_configs(draw):
    """A config that correlate and mixing-report accept, and audit too when
    some observable has an average under the family, over each form a key
    takes: a preset or a written walk, every observable kind, a box given as
    {lo, hi} or by center and radius, optional keys left out."""
    name = draw(st.sampled_from(sorted(PRESETS)))
    walk = PRESETS[name]()
    dim = walk.dim
    sites = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)

    def key(site):
        return ",".join(map(str, site))

    def boxed(kind, background):
        center, radius = draw(sites), draw(st.integers(0, 2))
        form = draw(st.sampled_from(["box", "center and radius", "center", "radius", "neither"]))
        if form == "box":
            where = {"box": {"lo": [c - radius for c in center], "hi": [c + radius for c in center]}}
        else:
            center, radius = (center if "center" in form else [0] * dim), (radius if "radius" in form else 0)
            where = {k: v for k, v in (("center", center), ("radius", radius)) if k in form}
        box = list(itertools.product(*(range(c - radius, c + radius + 1) for c in center)))
        table = {key(s): draw(VALUES) for s in draw(st.lists(st.sampled_from(box), max_size=3, unique=True))}
        if kind == "orthant":  # constants that differ evolve exactly only in dimension 1
            shared = draw(VALUES)
            value = {key(signs): shared if dim > 1 else draw(VALUES) for signs in itertools.product((-1, 1), repeat=dim)}
        else:
            value = draw(VALUES)
        return {"kind": kind, background: value, **where, **subset(draw, {"table": table})}

    def periodic():
        period = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
        return {"kind": "periodic", "period": period,
                "table": {key(r): draw(VALUES) for r in itertools.product(*map(range, period))}}

    def cell():
        m = draw(st.integers(0, 1))
        digits = st.lists(st.integers(1, walk.size), min_size=m, max_size=m)
        records = [{"site": draw(sites), **{k: draw(digits) for k in ("back", "fwd") if m or draw(st.booleans())},
                    "value": draw(VALUES)} for _ in range(draw(st.integers(0, 2)))]
        return {"kind": "cell", "m": m, "values": records, **subset(draw, {"default": draw(VALUES)})}

    makers = [periodic, cell, lambda: boxed("constantOutsideBox", "constant"), lambda: boxed("orthant", "constants")]
    if dim == 1:
        makers.append(lambda: {"kind": "sign1d"})
    observables = [draw(st.sampled_from(makers))() for _ in range(draw(st.integers(1, 2)))]

    def term():
        lo, hi = sorted(draw(st.lists(st.sampled_from(STRIP_BOUNDS), min_size=2, max_size=2, unique_by=Fraction)), key=Fraction)
        return subset(draw, {"site": draw(sites), "lo": lo, "hi": hi, "weight": draw(VALUES.filter(lambda v: Fraction(v)))})

    schedule = st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True)
    # times from 2 on: the depth offsets of two depth-1 cells add up to 2, and
    # the default times start at 1
    times = {"n_list": draw(st.lists(st.integers(2, 5), min_size=1, max_size=3, unique=True))}
    deep = any(o.get("m") for o in observables)
    schedules = {**(times if deep else subset(draw, times)), **subset(draw, {"r_list": draw(schedule), "radii": draw(schedule)})}
    return {
        "walk": draw(st.sampled_from([{"preset": name}, walk.to_json_dict()])),
        "observables": observables,
        **({"schedules": schedules} if deep else subset(draw, {"schedules": schedules})),
        **subset(draw, {
            "locals": [{"terms": [term() for _ in range(draw(st.integers(1, 2)))]} for _ in range(draw(st.integers(1, 2)))],
            "family": draw(st.sampled_from(["translationInvariant", "centeredOnly"])),
            "mixing_kinds": draw(st.lists(st.sampled_from(["M5", "M4", "M2", "M1", "m4"]), min_size=1, max_size=3, unique_by=str.upper)),
            "seed": draw(st.integers(0, 2**32)),
        }),
    }


# a misspelled key of each level, as a typo would give it
NEAR_MISSES = {"top": "famly", "schedules": "n_lsit", "walk": "supprt", "support": "pp", "observable": "tabel",
               "cell record": "valeu", "box": "hgih", "local": "term", "term": "wieght"}


def near_miss_places(config: dict) -> list:
    """(level, object) for every object of the config at each level."""
    observables, locals_ = config["observables"], config.get("locals", [])
    places = {
        "top": [config],
        "schedules": [config["schedules"]] if "schedules" in config else [],
        "walk": [config["walk"]],
        "support": config["walk"].get("support", []),
        "observable": observables,
        "cell record": [r for o in observables if o["kind"] == "cell" for r in o["values"]],
        "box": [o["box"] for o in observables if "box" in o],
        "local": locals_,
        "term": [t for local in locals_ for t in local["terms"]],
    }
    return [(level, place) for level, objects in places.items() for place in objects]


def run_quietly(command, config):
    """(exit code, stderr lines, files written) of ``run`` on the config."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(command, config, out)  # an exception escaping run fails the test here
        return code, err.getvalue().splitlines(), {p.name for p in Path(out).iterdir()}


# values a typo or a wrong type would give, each refused or read at any place,
# and keys a typo would give a table (or any object)
MALFORMED = st.sampled_from(["abc", "1/0", "", "+1", "1.0", None, [1, 2], [1, 2, 3], [], {}, {"x": 1}, -1, 0, 1.5, True])
BAD_KEYS = st.sampled_from(["+1", "1.0", "-0", "x", "", "1,", "1,2,3"])


def node_paths(value, path=()):
    """The paths (keys and indices) to every value of a config, objects and lists included, the config first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from node_paths(item, (*path, key))


def plant_malformed(config: dict, data) -> dict:
    """A copy of the config with one drawn value (a leaf, an object or a list)
    replaced by a malformed one, or one key of a drawn object renamed."""
    planted = copy.deepcopy(config)
    paths = list(node_paths(config))
    objects = [path for path in paths if isinstance(functools.reduce(lambda v, k: v[k], path, config), dict)]
    if data.draw(st.booleans()):
        node = functools.reduce(lambda v, k: v[k], data.draw(st.sampled_from(objects)), planted)
        if node:
            node[data.draw(BAD_KEYS)] = node.pop(data.draw(st.sampled_from(sorted(node))))
            event("malformed: a renamed key")
            return planted
    *path, last = data.draw(st.sampled_from(paths[1:]))
    parent = functools.reduce(lambda v, k: v[k], path, planted)
    event(f"malformed: {'an object or list' if isinstance(parent[last], (dict, list)) else 'a leaf'} replaced")
    parent[last] = data.draw(MALFORMED)
    return planted


def has_an_average(config) -> bool:
    """Whether some observable of the config has an average under its family."""
    config = cli._merged(config)
    walk = cli._walk_from_config(config["walk"])
    family = BoxFamily(walk.dim, config["family"])
    return any(F.average(family) is not None for F in cli._observables_from_config(config, walk))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["correlate", "mixing-report", "audit"]), accepted_configs(), st.data())
def test_fuzzed_configs_end_in_an_exit_code(command, config, data):
    code, lines, written = run_quietly(command, config)
    if command == "audit" and not has_an_average(config):
        # nothing to audit: refused in one JSON line, with nothing written
        assert code == 2 and len(lines) == 1 and not written
        assert json.loads(lines[0])["error"]["message"].startswith("audit needs a global observable with an average")
        event("audit: no average")
    else:
        # each audit row is a triangle inequality: exit 1 there could only mean a wrong bound
        assert code in ((0,) if command == "audit" else (0, 1)), lines
        assert f"{command.replace('-', '_')}.json" in written
    # a malformed value or key anywhere ends in an exit code too, and a refusal in one JSON line
    code, lines, written = run_quietly(command, plant_malformed(config, data))
    assert code in ((0, 2) if command == "audit" else (0, 1, 2))
    if code == 2:
        assert len(lines) == 1 and json.loads(lines[0])["error"]["exit"] == 2
    else:
        assert f"{command.replace('-', '_')}.json" in written
    # a near-miss key is refused wherever it sits, before any work, in one JSON line naming it
    for i, (level, _) in enumerate(near_miss_places(config)):
        planted = copy.deepcopy(config)
        near_miss_places(planted)[i][1][NEAR_MISSES[level]] = "1"
        code, lines, written = run_quietly(command, planted)
        assert code == 2 and len(lines) == 1 and not written
        error = json.loads(lines[0])["error"]
        assert error["exit"] == 2 and f"{NEAR_MISSES[level]}: unknown key" in error["message"]
        event(f"near-miss: {level}")
