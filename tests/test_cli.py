import contextlib
import inspect
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccl import (RuleSpec, TransitionRecord, classify_eca, coefficient_classification, detect_spikes,
                 interesting_initial_conditions, least_squares_fit,
                 rank_rules, transition_record)
from ccl.cli import _PARAMS, main
from ccl.svgplot import MARGIN
from oracles import two_level_clusters

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"

# Every config key of every subcommand with its default, as manifest.json
# records it.
DEFAULTS = {
    "classify": {"colors": 2, "ic": [1], "rules": None, "sample_size": None,
                 "seed": 0, "split_levels": 1, "steps": 200},
    "transition": {"blocks": 4, "colors": 2, "count": 10, "n": 20,
                   "profile_blocks": 12, "profile_steps": 600,
                   "rules": None, "scan": 30, "seed": 0, "t_block": 75,
                   "threshold": 1.0, "top": 4},
    "profile": {"colors": 2, "ic_count": 32, "normalize": False, "q": 3.0,
                "rule": None, "seed": 0, "steps": 150},
    "tm-search": {"budget": 100000, "colors": 3, "exhaustive": False,
                  "sample_size": 1000, "seed": 0, "states": 2, "steps": 200,
                  "top": 20},
    "sample": {"colors": 2, "kind": "CA", "sample_size": 100, "seed": 0,
               "states": 2},
}

# A small config of each subcommand that runs; one bad key added to it must
# be the only reason a run fails.
SMALL = {
    "classify": {"rules": [30], "steps": 10},
    "transition": {"rules": [22], "n": 3, "t_block": 10, "blocks": 2,
                   "top": 1, "count": 2, "scan": 4, "profile_steps": 20,
                   "profile_blocks": 2},
    "profile": {"rule": 22, "ic_count": 4, "steps": 20},
    "tm-search": {"states": 1, "colors": 2, "sample_size": 5, "steps": 20},
    "sample": {"sample_size": 5},
}


def flags(config):
    """The command-line flags that set each key of ``config``."""
    argv = []
    for key, value in config.items():
        if isinstance(value, list):
            value = ",".join(map(str, value))
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


SMALL_TRANSITION = ["transition", *flags(SMALL["transition"])]


def read_tree(root):
    return {
        p.name: p.read_bytes() for p in sorted(Path(root).iterdir())
        if p.is_file()
    }


def test_classify_explicit_rules(tmp_path):
    out = tmp_path / "run"
    code = main(["classify", "--rules", "30,45,90", "--steps", "60",
                 "--out", str(out), "--create"])
    assert code == 0
    lines = (out / "classification.csv").read_text().splitlines()
    assert lines[0] == "rule,kind,colors,c_raw,c_compressed,cluster"
    assert len(lines) == 4
    assert {p.name for p in out.iterdir()} == {
        "classification.csv", "classification.json", "ranking.svg",
        "manifest.json", "compressor.cfg",
    }
    doc = json.loads((out / "classification.json").read_text())
    schema = json.loads((SCHEMAS / "classification.schema.json").read_text())
    jsonschema.validate(doc, schema)
    svg = (out / "ranking.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_missing_output_dir_is_io_error(tmp_path):
    out = tmp_path / "not" / "there"
    assert main(["classify", "--rules", "30", "--out", str(out)]) == 3
    assert main(["classify", "--rules", "30", "--steps", "20",
                 "--out", str(out), "--create"]) == 0
    assert out.is_dir()


def test_config_error_before_missing_output_dir(tmp_path, capsys):
    """A bad config aimed at a missing ``--out`` is a config error, and no
    directory is made."""
    out = tmp_path / "missing"
    assert main(["tm-search", "--states", "10", "--colors", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ccl: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("top", ["0", "20"])
def test_tm_search_negative_steps_exit_2_before_any_machine_runs(
        tmp_path, capsys, monkeypatch, top):
    """The search of rule numbers checks ``steps`` itself, also where it
    keeps no row."""
    def run(*machine):
        raise AssertionError("a machine was run")

    monkeypatch.setattr("ccl.automaton._run", run)
    assert main(["tm-search", "--steps", "-1", "--top", top,
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "ccl: steps must be >= 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--states", "10"], "the reached measure takes at most 9 states"),
    (["--steps", "-1"], "steps must be >= 0"),
], ids=["states-10", "steps-negative"])
def test_tm_search_refused_before_it_draws(tmp_path, capsys, monkeypatch,
                                           flags, message):
    """The measure's limits are checked before the sample is drawn, which
    for a million machines takes seconds."""
    def draw(*args):
        raise AssertionError("the sample was drawn")

    monkeypatch.setattr("ccl.cli.sample_rule_space", draw)
    assert main(["tm-search", *flags, "--sample-size", "1000000",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"ccl: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_bad_rule_list_is_config_error(tmp_path):
    assert main(["classify", "--rules", "30,x", "--out", str(tmp_path)]) == 2


def test_rule_out_of_range_is_config_error(tmp_path):
    assert main(["classify", "--rules", "300", "--out", str(tmp_path)]) == 2


def test_transition_needs_two_blocks(tmp_path):
    assert main(["transition", "--rules", "22", "--blocks", "1",
                 "--out", str(tmp_path)]) == 2


def test_transition_without_rules_sweeps_all_256_ecas(tmp_path,
                                                       monkeypatch):
    """With no ``rules``, the sweep gets the 256 binary rules in order.
    The stand-in refuses after recording them, so no sweep runs."""
    swept = []

    def refuse(specs, *args, **kwargs):
        swept.extend(specs)
        raise ValueError("recorded")

    monkeypatch.setattr("ccl.cli.coefficient_classification", refuse)
    assert main(["transition", "--out", str(tmp_path)]) == 2
    assert swept == [RuleSpec.eca(n) for n in range(256)]


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 40, "bogus": 1}))
    assert main(["classify", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, config, message", [
    ("classify", {"steps": None}, "steps must be an integer, not null"),
    ("classify", {"steps": True}, "steps must be an integer, not true"),
    ("classify", {"steps": 1.7}, "steps must be an integer, not 1.7"),
    ("classify", {"colors": 11, "sample_size": 5},
     "at most 10 colors, not 11"),
    ("transition", {"threshold": None},
     "threshold must be a number, not null"),
    ("classify", {"rules": [None]}, "rules must be a list of integers"),
    ("classify", {"ic": [None], "rules": [30]},
     "ic must be a list of integers, not [null]"),
    ("classify", {"rules": [30.9]}, "not [30.9]"),
    ("classify", {"rules": [True]}, "not [true]"),
    ("profile", {**SMALL["profile"], "normalize": "no"},
     'normalize must be true or false, not "no"'),
    ("tm-search", {**SMALL["tm-search"], "exhaustive": "false"},
     "exhaustive must be true or false"),
    ("transition", {**SMALL["transition"], "top": -1}, "top must be >= 0"),
    ("tm-search", {**SMALL["tm-search"], "top": -1}, "top must be >= 0"),
    ("profile", {**SMALL["profile"], "q": float("nan")},
     "q must be finite, not NaN"),
    ("profile", {**SMALL["profile"], "q": float("inf")},
     "q must be finite, not Infinity"),
    ("transition", {**SMALL["transition"], "threshold": float("inf")},
     "threshold must be finite, not Infinity"),
    ("transition", {**SMALL["transition"], "threshold": float("-inf")},
     "threshold must be finite, not -Infinity"),
    ("profile", {**SMALL["profile"], "q": -1.0}, "q must be >= 0"),
    ("classify", {"rules": [30, 30]}, "repeats a rule number"),
    ("classify", {"colors": 11, "rules": [5], "steps": 5},
     "at most 10 colors, not 11"),
    ("profile", {**SMALL["profile"], "rule": 10, "colors": 11},
     "at most 10 colors, not 11"),
    ("transition", {**SMALL["transition"], "rules": [5], "colors": 11},
     "at most 10 colors, not 11"),
    ("classify", {"colors": 300, "rules": [5]}, "at most 10 colors, not 300"),
    ("classify", '{"rules": [1' + "0" * 5000 + "]}",
     "config file holds an integer with more digits than can be read"),
    ("classify", b"\xff{}", "config file is not UTF-8 text"),
    ("sample", {"seed": -5}, "seed must be >= 0"),
    ("sample", {"kind": "ca"}, "kind must be CA or TM, not 'ca'"),
    ("classify", '{"steps": ', "config file is not valid JSON"),
    ("classify", "[" * 100000 + "]" * 100000,
     "config file is not valid JSON: maximum recursion depth"),
    ("classify", [30], "config file must hold a JSON object"),
    ("classify", {"colors": 3},
     "3-color space needs an explicit rule list or sample_size"),
    ("transition", {"colors": 3},
     "non-binary sweeps need an explicit rule list"),
    ("classify", {"rules": [30], "steps": -1}, "steps must be >= 0"),
    ("profile", {"rule": 30, "ic_count": 0},
     "need at least one initial condition"),
], ids=["steps-null", "steps-true", "steps-float", "colors-11-sampled",
        "threshold-null", "rules-item-null", "ic-item-null",
        "rules-item-float", "rules-item-true", "normalize-string",
        "exhaustive-string", "transition-top-negative",
        "tm-search-top-negative", "q-nan", "q-infinity",
        "threshold-infinity", "threshold-minus-infinity", "q-negative",
        "rules-repeated", "classify-colors-11", "profile-colors-11",
        "transition-colors-11", "classify-colors-300",
        "rules-item-5001-digits", "config-not-utf-8", "seed-negative",
        "sample-kind-lowercase", "config-not-json", "config-nested-deep",
        "config-array",
        "classify-colors-3-no-rules", "transition-colors-3-no-rules",
        "classify-steps-negative", "profile-ic-count-0"])
def test_bad_config_values_exit_2_with_one_line(tmp_path, capsys,
                                                evolutions, command, config,
                                                message):
    """The run is rejected for the one bad value, before a single evolution
    is computed.  A string config is the file's text, a bytes config its
    bytes."""
    cfg = tmp_path / "run.json"
    if isinstance(config, bytes):
        cfg.write_bytes(config)
    else:
        cfg.write_text(config if isinstance(config, str)
                       else json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--create"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ccl: ") and err.count("\n") == 1
    assert message in err
    if isinstance(config, bytes):
        assert err.endswith(f"{cfg}\n")
    assert not out.exists()
    assert evolutions == []


def test_missing_config_file_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    out = tmp_path / "out"
    assert main(["classify", "--config", str(cfg), "--out", str(out),
                 "--create"]) == 2
    assert capsys.readouterr().err == f"ccl: config file not found: {cfg}\n"
    assert not out.exists()


def _wrong_type_cases():
    """(command, key, value) for each value among null, true, 1.7, "x" and
    {} that does not have the key's JSON type.  "x" is kept for the string
    keys too: it is no rule list and no machine kind."""
    for command, params in DEFAULTS.items():
        for key, default in params.items():
            for value in (None, True, 1.7, "x", {}):
                if value is None and default is None:
                    continue
                if value is True and isinstance(default, bool):
                    continue
                if value == 1.7 and isinstance(default, float):
                    continue
                label = json.dumps(value).strip('"')
                yield pytest.param(command, key, value,
                                   id=f"{command}-{key}-{label}")


@pytest.mark.parametrize("command", list(SMALL))
def test_small_configs_run(tmp_path, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(SMALL[command]))
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command, key, value", _wrong_type_cases())
def test_every_key_rejects_a_wrong_json_type(tmp_path, capsys, command, key,
                                             value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**SMALL[command], key: value}))
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ccl: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["tm-search", "--sample-size", "5", "--top", "-1"], "top must be >= 0"),
    (["transition", "--rules", "22,30,90", "--top", "-1"], "top must be >= 0"),
    (["transition", "--rules", "22", "--blocks", "1"], "at least two blocks"),
    (["transition", "--rules", "22", "--n", "1"],
     "at least two initial conditions"),
    ([*SMALL_TRANSITION, "--count", "0"], "count must be >= 1"),
    ([*SMALL_TRANSITION, "--profile-steps", "21"],
     "positive multiple of blocks"),
    ([*SMALL_TRANSITION, "--profile-steps", "0"],
     "positive multiple of blocks"),
    ([*SMALL_TRANSITION, "--top", "0", "--count", "0"], "count must be >= 1"),
    (["profile", "--rule", "22", "--q", "nan"], "q must be finite, not NaN"),
    (["profile", "--rule", "22", "--q", "-1"], "q must be >= 0"),
    (["transition", "--rules", "22,22", "--top", "2"],
     "repeats a rule number"),
    (["classify", "--colors", "11", "--rules", "5,10", "--steps", "5"],
     "at most 10 colors, not 11"),
    (["tm-search", "--states", "2000", "--colors", "2", "--exhaustive"],
     "over 8000**4000 machines exceeds the budget of 100000"),
    (["sample", "--seed=-5", "--sample-size", "5"], "seed must be >= 0"),
    (["tm-search", "--states", "2", "--colors", "1000"],
     "cannot sample a space of more than 10**4300 rules"),
    (["classify", "--rules", "30,90", "--threads", "0"],
     "worker count must be >= 1"),
], ids=["tm-search-top", "transition-top", "transition-blocks",
        "transition-n", "transition-count-0", "transition-profile-steps-21",
        "transition-profile-steps-0", "transition-top-0-count-0", "q-nan",
        "q-negative", "transition-rules-repeated", "classify-colors-11",
        "tm-search-2000-states-exhaustive", "sample-seed-negative",
        "tm-search-space-too-large", "threads-0"])
def test_bad_flag_values_exit_2_before_writing(tmp_path, capsys, evolutions,
                                               argv, message):
    """The run is rejected for the one bad value, before a single evolution
    is computed."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ccl: ") and err.count("\n") == 1
    assert message in err
    assert list(tmp_path.iterdir()) == []
    assert evolutions == []


def _json_value(default):
    """Mostly a value of the JSON type of ``default`` in a small range, so
    that most runs reach the computation; now and then one of another
    type."""
    if isinstance(default, bool):
        fitting = st.booleans()
    elif isinstance(default, float):
        fitting = st.sampled_from([-1.0, 0.0, 0.5, 3.0])
    elif isinstance(default, str):
        fitting = st.sampled_from(["CA", "TM", "tm", "x"])
    elif isinstance(default, list):
        fitting = st.lists(st.integers(-2, 6), max_size=3)
    elif default is None:
        fitting = st.integers(-2, 6) | st.lists(st.integers(-2, 6),
                                                min_size=1, max_size=3)
    else:
        fitting = st.integers(-2, 6)
    return st.one_of(fitting, fitting, fitting,
                     st.sampled_from([None, 1.5, "x", {}]))


@st.composite
def _configs(draw):
    command = draw(st.sampled_from(list(SMALL)))
    keys = draw(st.lists(st.sampled_from(sorted(DEFAULTS[command])),
                         max_size=3, unique=True))
    config = dict(SMALL[command])
    for key in keys:
        config[key] = draw(_json_value(DEFAULTS[command][key]))
    if draw(st.integers(0, 9)) == 0:
        config["bogus"] = 1
    return command, config


@settings(max_examples=150, deadline=None)
@given(_configs(), st.booleans())
def test_any_config_exits_cleanly_and_writes_all_or_nothing(run, create):
    """With ``create``, ``--out`` does not exist yet and ``--create`` is
    given: a failed run must not leave the directory behind."""
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "run.json"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [command, "--config", cfg, "--out", out]
        if create:
            argv.append("--create")
        else:
            os.mkdir(out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        written = os.listdir(out) if os.path.isdir(out) else None
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        assert "manifest.json" in written
    else:
        assert err.getvalue().startswith("ccl: ")
        assert err.getvalue().count("\n") == 1
        assert written == (None if create else [])


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    (tmp_path / "ranking.svg").mkdir()
    assert main(["classify", "--rules", "30", "--steps", "10",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ccl: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["ranking.svg"]


def test_failed_temporary_write_lands_no_file(tmp_path, capsys):
    # The last temporary file cannot be opened, so no earlier one is renamed.
    (tmp_path / "manifest.json.tmp").mkdir()
    assert main(["classify", "--rules", "30", "--steps", "10",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ccl: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json.tmp"]


@pytest.mark.parametrize("argv", [
    ["classify", "--rules", "30", "--steps", "10"],
    ["transition", "--rules", "22,30", "--n", "3", "--t-block", "5",
     "--blocks", "2", "--top", "1", "--scan", "4", "--profile-steps", "8",
     "--profile-blocks", "2"],
])
def test_memory_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                            argv):
    def grid(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("ccl.classify._grid", grid)
    monkeypatch.setattr("ccl.transition._grid", grid)
    out = tmp_path / "new"
    assert main(argv + ["--out", str(out), "--create"]) == 3
    err = capsys.readouterr().err
    assert err == "ccl: out of memory\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, steps", [
    (["classify", "--steps", str(10 ** 21)], 10 ** 21),
    (["profile", "--rule", "30", "--ic-count", "2", "--steps", str(10 ** 20)],
     10 ** 20),
    (["transition", "--rules", "30", "--t-block", str(10 ** 20)],
     10 ** 20 * _PARAMS["transition"]["blocks"].default),
], ids=["classify", "profile", "transition"])
def test_window_too_large_to_represent_exits_3_with_one_line(tmp_path, capsys,
                                                             argv, steps):
    """A window wider than ``sys.maxsize`` cells is a resource failure, like
    running out of memory; the one line names the run's step count."""
    out = tmp_path / "new"
    assert main(argv + ["--out", str(out), "--create"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ccl: ") and err.count("\n") == 1
    assert f"ccl: {steps} steps need a window of " in err
    assert not out.exists()


def test_manifest_is_written_last(tmp_path, monkeypatch):
    landed = []
    replace = os.replace

    def recording_replace(src, dst):
        replace(src, dst)
        landed.append(os.path.basename(dst))

    monkeypatch.setattr(os, "replace", recording_replace)
    assert main([*SMALL_TRANSITION, "--out", str(tmp_path)]) == 0
    assert landed == [
        "coefficients.csv", "coefficients.json", "profile-22.svg",
        "profile-22.csv", "interesting_ics.json", "compressor.cfg",
        "manifest.json"]
    assert sorted(landed) == sorted(p.name for p in tmp_path.iterdir())


@pytest.mark.parametrize("argv, given", [
    (["classify", "--rules", "30,90", "--steps", "20", "--split-levels",
      "2", "--seed", "3"],
     {"rules": "30,90", "steps": 20, "split_levels": 2, "seed": 3}),
    (["transition", "--rules", "22", "--n", "3", "--t-block", "10",
      "--blocks", "2", "--top", "1", "--count", "2", "--scan", "4",
      "--profile-steps", "20", "--profile-blocks", "2", "--threshold", "2"],
     {"rules": "22", "n": 3, "t_block": 10, "blocks": 2, "top": 1,
      "count": 2, "scan": 4, "profile_steps": 20, "profile_blocks": 2,
      "threshold": 2.0}),
    (["profile", "--rule", "22", "--ic-count", "4", "--steps", "20",
      "--normalize", "--q", "2"],
     {"rule": 22, "ic_count": 4, "steps": 20, "normalize": True, "q": 2.0}),
    (["tm-search", "--states", "1", "--colors", "2", "--sample-size", "5",
      "--steps", "20", "--top", "3", "--exhaustive", "--budget", "50"],
     {"states": 1, "colors": 2, "sample_size": 5, "steps": 20, "top": 3,
      "exhaustive": True, "budget": 50}),
    (["sample", "--kind", "TM", "--colors", "3", "--states", "1",
      "--sample-size", "5", "--seed", "2"],
     {"kind": "TM", "colors": 3, "states": 1, "sample_size": 5, "seed": 2}),
], ids=list(DEFAULTS))
def test_manifest_records_every_parameter(tmp_path, argv, given):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["parameters"] == {**DEFAULTS[argv[0]], **given}


# (command, key, library function, parameter) for every CLI default that a
# library function also declares.
LIBRARY_DEFAULTS = [
    *[("transition", key, fn, key)
      for fn in (coefficient_classification, transition_record)
      for key in ("n", "t_block", "blocks")],
    *[("transition", key, interesting_initial_conditions, parameter)
      for key, parameter in (("count", "count"), ("profile_steps", "t"),
                             ("profile_blocks", "blocks"), ("scan", "m"))],
    ("classify", "steps", classify_eca, "steps"),
    ("classify", "split_levels", classify_eca, "split_levels"),
    ("classify", "split_levels", rank_rules, "split_levels"),
    ("profile", "q", detect_spikes, "q"),
]


@pytest.mark.parametrize(
    "command, key, function, parameter", LIBRARY_DEFAULTS,
    ids=[f"{c}-{k}-{f.__name__}" for c, k, f, _ in LIBRARY_DEFAULTS])
def test_cli_defaults_match_the_library(command, key, function, parameter):
    library = inspect.signature(function).parameters[parameter].default
    assert _PARAMS[command][key].default == library


COMMON_OPTIONS = ["-h", "--help", "--config", "--out", "--create", "--seed",
                  "--threads"]


@pytest.mark.parametrize("command, options", [
    ("classify", ["--rules", "--steps", "--colors", "--sample-size",
                  "--split-levels"]),
    ("transition", ["--rules", "--n", "--t-block", "--blocks", "--top",
                    "--count", "--scan", "--profile-steps",
                    "--profile-blocks", "--threshold"]),
    ("profile", ["--rule", "--ic-count", "--steps", "--normalize", "--q"]),
    ("tm-search", ["--states", "--colors", "--sample-size", "--steps",
                   "--top", "--exhaustive", "--budget"]),
    ("sample", ["--kind", "--colors", "--states", "--sample-size"]),
])
def test_help_lists_the_options(capsys, command, options):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = []
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):
            invocation = line.strip().split("  ")[0]
            listed += [part.split()[0] for part in invocation.split(", ")]
    assert listed == COMMON_OPTIONS + options


@pytest.mark.parametrize("command", list(SMALL))
def test_threads_help_names_the_commands_that_use_workers(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("--threads N worker processes (default 1) for classify, "
            "transition and profile; tm-search and sample run in one "
            "process") in help_text


def test_null_accepted_where_the_default_is_unset(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rules": [30, 90], "steps": 30,
                               "sample_size": None}))
    assert main(["classify", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rules": [30, 90], "steps": 40}))
    out = tmp_path / "out"
    assert main(["classify", "--config", str(cfg), "--steps", "60",
                 "--out", str(out), "--create"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["steps"] == 60
    assert manifest["parameters"]["rules"] == [30, 90]
    assert manifest["compressor"]["id"] == "deflate-l6w15s0m8"
    assert manifest["tool"] == "ccl"


def test_every_run_records_the_pinned_compressor(tmp_path):
    """compressor.cfg, the manifest's compressor block and the id in each
    report name the one pinned raw-DEFLATE setting, byte for byte."""
    classify, trans = tmp_path / "classify", tmp_path / "transition"
    assert main(["classify", "--rules", "30,90", "--steps", "20",
                 "--out", str(classify), "--create"]) == 0
    assert main([*SMALL_TRANSITION, "--out", str(trans), "--create"]) == 0
    for out in (classify, trans):
        assert (out / "compressor.cfg").read_bytes() == (
            b"# raw DEFLATE (RFC 1951) compressor parameters\n"
            b"level = 6\n"
            b"window_bits = -15\n"
            b"mem_level = 8\n"
            b"strategy = 0\n")
        manifest = (out / "manifest.json").read_text()
        assert (
            '  "compressor": {\n'
            '    "id": "deflate-l6w15s0m8",\n'
            '    "level": 6,\n'
            '    "mem_level": 8,\n'
            '    "strategy": 0,\n'
            '    "window_bits": -15\n'
            '  },\n') in manifest
    for report in (classify / "classification.json",
                   trans / "coefficients.json"):
        doc = json.loads(report.read_text())
        assert doc["parameters"]["compressor"] == "deflate-l6w15s0m8"
    assert ("compressed length by rank (t=20, deflate-l6w15s0m8)</text>"
            in (classify / "ranking.svg").read_text())


def test_full_eca_classify_uses_the_configured_ic(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ic": [1, 0, 1, 1], "steps": 20}))
    out = tmp_path / "out"
    assert main(["classify", "--config", str(cfg),
                 "--out", str(out), "--create"]) == 0
    doc = json.loads((out / "classification.json").read_text())
    assert doc["parameters"]["init"] == [1, 0, 1, 1]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["ic"] == [1, 0, 1, 1]
    want = rank_rules(
        [RuleSpec.eca(n) for n in range(256)], (1, 0, 1, 1), 20)
    assert doc["entries"] == [
        {"rule": e.rule.rule_number, "kind": "CA", "colors": 2,
         "c_raw": e.c_raw, "c_compressed": e.c_compressed,
         "cluster": e.cluster} for e in want]


# With 30, 90, 110 the high cluster holds rule 30 alone, so only adding
# rule 0 gives the second split something to cut; one rule has no high
# cluster at all.
@pytest.mark.parametrize("rules, cluster_ids", [
    ((30,), [0]),
    ((30, 90, 110), [0, 1]),
    ((0, 30, 90, 110), [0, 1, 2]),
])
def test_rule_list_classify_splits_two_levels(tmp_path, rules, cluster_ids):
    assert main(["classify", "--rules", ",".join(map(str, rules)),
                 "--steps", "20", "--split-levels", "2",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "classification.json").read_text())
    got = {e["rule"]: e["cluster"] for e in doc["entries"]}
    flat = rank_rules([RuleSpec.eca(n) for n in rules], (1,), 20)
    want = two_level_clusters([e.c_compressed for e in flat])
    assert got == {e.rule.rule_number: i for e, i in zip(flat, want)}
    assert sorted(set(got.values())) == cluster_ids


def test_outputs_identical_across_thread_counts(tmp_path):
    args = ["classify", "--rules", "0,30,90,110,150,204", "--steps", "80"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a), "--create", "--threads", "1"]) == 0
    assert main(args + ["--out", str(b), "--create", "--threads", "4"]) == 0
    assert read_tree(a) == read_tree(b)


def test_worker_error_is_one_config_error(tmp_path, capfd, pool_path):
    # IC (2,) is refused inside each worker, by the first cell it evolves.
    config = tmp_path / "ic.json"
    config.write_text('{"ic": [2]}')
    errors = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["classify", "--config", str(config), "--out", str(out),
                     "--create", "--threads", threads]) == 2
        errors.append(capfd.readouterr().err)
        assert not out.exists()
    assert pool_path == ["fork"]
    assert errors == ["ccl: cell values must be integers in [0, 2)\n"] * 2
    assert multiprocessing.active_children() == []


def test_no_threads_flag_runs_serially_whatever_the_environment(
        tmp_path, monkeypatch, chunked_pools):
    monkeypatch.setenv("CCL_THREADS", "2")
    assert main(["classify", "--rules", "30,90", "--steps", "40",
                 "--out", str(tmp_path)]) == 0
    assert chunked_pools == []


def test_transition_single_rule_outputs(tmp_path):
    code = main(["transition", "--rules", "109", "--n", "4", "--t-block",
                 "30", "--blocks", "3", "--scan", "8", "--profile-steps",
                 "90", "--profile-blocks", "3", "--top", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {"coefficients.csv", "coefficients.json", "profile-109.svg",
            "profile-109.csv", "interesting_ics.json"} <= names
    lines = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert lines[0] == "rule,kind,colors,coefficient,cluster"
    assert lines[1].startswith("109,CA,2,")
    doc = json.loads((tmp_path / "interesting_ics.json").read_text())
    schema = json.loads(
        (SCHEMAS / "interesting_ics.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    assert doc["rules"][0]["rule"] == 109
    profile_lines = (tmp_path / "profile-109.csv").read_text().splitlines()
    assert profile_lines[0] == "ic,score"
    assert len(profile_lines) == 9
    coeff_doc = json.loads((tmp_path / "coefficients.json").read_text())
    jsonschema.validate(
        coeff_doc,
        json.loads((SCHEMAS / "coefficients.schema.json").read_text()),
    )


# Adding 0.0 turns -0.0 into 0.0: the two tie, and which one ``min``
# returns depends on the order it sees them in.
@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300).map(lambda v: v + 0.0),
                min_size=2, max_size=12))
def test_transition_plot_spans_the_fit_at_every_x(S_c):
    """The y-axis labels of a transition plot are the least and the greatest
    of S_c and of the fitted line at every x, whichever way the line runs."""
    intercept, slope = fit = least_squares_fit(S_c)
    ranking = (TransitionRecord(RuleSpec.eca(22), tuple(S_c), fit, 0),)
    ys = [*S_c, *(intercept + slope * x for x in range(1, len(S_c) + 1))]
    with tempfile.TemporaryDirectory() as out, mock.patch(
            "ccl.cli.coefficient_classification", return_value=ranking):
        assert main(["transition", "--rules", "22", "--top", "0",
                     "--out", out]) == 0
        svg = Path(out, "profile-22.svg").read_text()
    labels = re.findall(f'<text x="{MARGIN - 4}" [^>]*>([^<]*)</text>', svg)
    assert labels == [f"{min(ys):.2f}", f"{max(ys):.2f}"]


def test_profile_command_outputs(tmp_path):
    code = main(["profile", "--rule", "22", "--ic-count", "10", "--steps",
                 "60", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "profile-22.csv").read_text().splitlines()
    assert lines[0] == "ic,length"
    assert len(lines) == 11
    doc = json.loads((tmp_path / "spikes.json").read_text())
    assert doc["rule"] == 22 and doc["q"] == 3.0
    assert (tmp_path / "profile-22.svg").exists()


def test_normalization_divides_by_steps(tmp_path):
    """Each ``profile --normalize`` value is the raw length divided by
    ``--steps``."""
    args = ["profile", "--rule", "30", "--ic-count", "5", "--steps", "40",
            "--create"]
    assert main([*args, "--out", str(tmp_path / "raw")]) == 0
    assert main([*args, "--normalize", "--out", str(tmp_path / "norm")]) == 0
    raw, norm = ((tmp_path / d / "profile-30.csv").read_text().splitlines()
                 for d in ("raw", "norm"))
    assert len(raw) == len(norm) == 6
    for a, b in zip(raw[1:], norm[1:]):
        ic, length = a.split(",")
        assert b == f"{ic},{format(int(length) / 40, '.12g')}"


def test_warning_is_set_unless_the_coefficient_clears_the_threshold(
        tmp_path):
    """A scanned rule is flagged when its coefficient does not exceed
    ``--threshold``: at the coefficient itself, but not just below it."""
    small = SMALL["transition"]
    coefficient = interesting_initial_conditions(
        RuleSpec.eca(22), small["count"], small["profile_steps"],
        small["profile_blocks"], small["scan"]).coefficient
    for threshold, warning in [(coefficient, True),
                               (math.nextafter(coefficient, -math.inf),
                                False)]:
        out = tmp_path / repr(threshold)
        assert main([*SMALL_TRANSITION, f"--threshold={threshold!r}",
                     "--out", str(out), "--create"]) == 0
        doc = json.loads((out / "interesting_ics.json").read_text())
        [scan] = doc["rules"]
        assert scan["coefficient"] == coefficient
        assert doc["threshold"] == scan["threshold"] == threshold
        assert scan["warning"] is warning


def test_profile_needs_a_rule(tmp_path):
    assert main(["profile", "--out", str(tmp_path)]) == 2


def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["sample", "--kind", "TM", "--colors", "3", "--states", "2",
            "--sample-size", "25", "--seed", "9", "--create"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "rules.json").read_bytes() == (b / "rules.json").read_bytes()
    doc = json.loads((a / "rules.json").read_text())
    assert len(doc["rules"]) == 25
    assert doc["rules"] == sorted(doc["rules"])


def test_sample_seed_changes_the_draw(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["sample", "--kind", "CA", "--colors", "3", "--sample-size",
            "30", "--create"]
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(b)]) == 0
    assert (a / "rules.json").read_bytes() != (b / "rules.json").read_bytes()


def test_tm_search_deterministic_top_list(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["tm-search", "--sample-size", "60", "--steps", "60", "--top",
            "10", "--seed", "1", "--create"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "tm_top.csv").read_bytes() == (b / "tm_top.csv").read_bytes()
    lines = (a / "tm_top.csv").read_text().splitlines()
    assert lines[0] == "rule,states,colors,c_raw,c_compressed"
    assert len(lines) == 11


def test_tm_search_exhaustive_over_budget(tmp_path):
    assert main(["tm-search", "--exhaustive", "--out", str(tmp_path)]) == 2


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "ccl.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("ccl ")


# A fresh interpreter imports ccl and, given arguments, runs them through
# ``main``; its last line says whether numpy was loaded.
_NUMPY_PROBE = """\
import sys
import ccl, ccl.cli
code = 0
if sys.argv[1:]:
    try:
        code = ccl.cli.main(sys.argv[1:])
    except SystemExit as exc:  # --version and --help end in argparse
        code = exc.code
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv, code, loads_numpy", [
    ([], 0, False),
    (["tm-search", "--states", "2", "--colors", "2", "--sample-size", "20",
      "--steps", "20", "--out", "{out}", "--create"], 0, False),
    (["sample", "--out", "{out}", "--create"], 0, False),
    (["--version"], 0, False),
    (["--help"], 0, False),
    (["tm-search", "--states", "10", "--colors", "3", "--out", "{out}"],
     2, False),
    (["classify", "--colors", "11", "--rules", "5", "--steps", "5",
      "--out", "{out}", "--create"], 2, False),
    # The control: a run that evolves a CA loads numpy.
    (["classify", "--rules", "30", "--steps", "10", "--out", "{out}",
      "--create"], 0, True),
], ids=["import", "tm-search", "sample", "version", "help", "tm-search-2",
        "classify-2", "classify"])
def test_numpy_is_loaded_only_by_runs_that_evolve_a_ca(tmp_path, argv, code,
                                                       loads_numpy):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE,
         *(a.format(out=tmp_path / "out") for a in argv)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{code} {loads_numpy}"


# The same for three standard modules that cost ~4 ms to import together,
# and for the record generator ``dataclasses`` and its ``inspect``.
_STDLIB_PROBE = """\
import sys
import ccl, ccl.cli
if sys.argv[1:]:
    ccl.cli.main(sys.argv[1:])
print(*sorted({"dataclasses", "decimal", "fractions", "inspect",
               "statistics"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv, loaded", [
    ([], ""),
    (["tm-search", "--out", "{out}", "--create"], ""),
    # The control: spike detection takes a median, and numpy, which a CA
    # run imports, loads inspect.
    (["profile", "--rule", "22", "--ic-count", "5", "--steps", "20",
      "--out", "{out}", "--create"], "decimal fractions inspect statistics"),
], ids=["import", "tm-search", "profile"])
def test_fractions_and_statistics_are_loaded_only_by_their_users(
        tmp_path, argv, loaded):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_PROBE,
         *(a.format(out=tmp_path / "out") for a in argv)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == loaded


# A fresh interpreter runs the console script's ``entry()``; at exit it
# prints how many OS threads the process still has.
_THREAD_PROBE = """\
import atexit, os, sys
atexit.register(lambda: print(len(os.listdir("/proc/self/task"))))
from ccl.cli import entry
sys.argv = ["ccl", *sys.argv[1:]]
entry()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and at least two CPUs")
def test_console_script_leaves_one_thread(tmp_path):
    """ccl runs no BLAS code, so the console script keeps numpy's OpenBLAS
    from starting threads that the grid's fork would run beside."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    # OpenBLAS falls back on the other two when its own variable is unset.
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, "classify", "--rules", "30",
         "--steps", "10", "--threads", "1", "--out", str(tmp_path)],
        env={**env, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"
