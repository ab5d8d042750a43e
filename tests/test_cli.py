import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccl import (RuleSpec, classify_eca, cluster_1d,
                 coefficient_classification, complexity,
                 interesting_initial_conditions, rank_rules,
                 transition_coefficient, transition_record, with_clusters)
from ccl.cli import _PARAMS, main

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


@pytest.fixture
def evolutions(monkeypatch):
    """The arguments of every CA evolution run during the test, recorded
    by a stand-in for ``evolve_ca`` in ``ccl.complexity``, the one module
    that evolves a CA for a measurement."""
    evolved = []
    evolve = complexity.evolve_ca

    def counting_evolve(*args, **kwargs):
        evolved.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(complexity, "evolve_ca", counting_evolve)
    return evolved


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


def test_bad_rule_list_is_config_error(tmp_path):
    assert main(["classify", "--rules", "30,x", "--out", str(tmp_path)]) == 2


def test_rule_out_of_range_is_config_error(tmp_path):
    assert main(["classify", "--rules", "300", "--out", str(tmp_path)]) == 2


def test_transition_needs_two_blocks(tmp_path):
    assert main(["transition", "--rules", "22", "--blocks", "1",
                 "--out", str(tmp_path)]) == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 40, "bogus": 1}))
    assert main(["classify", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, config", [
    ("classify", {"steps": None}),
    ("classify", {"steps": True}),
    ("classify", {"steps": 1.7}),
    ("classify", {"colors": 11, "sample_size": 5}),
    ("transition", {"threshold": None}),
    ("classify", {"rules": [None]}),
    ("classify", {"ic": [None], "rules": [30]}),
    ("classify", {"rules": [30.9]}),
    ("classify", {"rules": [True]}),
    ("profile", {**SMALL["profile"], "normalize": "no"}),
    ("tm-search", {**SMALL["tm-search"], "exhaustive": "false"}),
    ("transition", {**SMALL["transition"], "top": -1}),
    ("tm-search", {**SMALL["tm-search"], "top": -1}),
    ("profile", {**SMALL["profile"], "q": float("nan")}),
    ("profile", {**SMALL["profile"], "q": float("inf")}),
    ("transition", {**SMALL["transition"], "threshold": float("inf")}),
    ("transition", {**SMALL["transition"], "threshold": float("-inf")}),
    ("profile", {**SMALL["profile"], "q": -1.0}),
    ("classify", {"rules": [30, 30]}),
    ("classify", {"colors": 11, "rules": [5], "steps": 5}),
    ("profile", {**SMALL["profile"], "rule": 10, "colors": 11}),
    ("transition", {**SMALL["transition"], "rules": [5], "colors": 11}),
], ids=["steps-null", "steps-true", "steps-float", "colors-11-sampled",
        "threshold-null", "rules-item-null", "ic-item-null",
        "rules-item-float", "rules-item-true", "normalize-string",
        "exhaustive-string", "transition-top-negative",
        "tm-search-top-negative", "q-nan", "q-infinity",
        "threshold-infinity", "threshold-minus-infinity", "q-negative",
        "rules-repeated", "classify-colors-11", "profile-colors-11",
        "transition-colors-11"])
def test_bad_config_values_exit_2_with_one_line(tmp_path, capsys,
                                                evolutions, command, config):
    """The run is rejected before a single evolution is computed."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--create"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ccl: ") and err.count("\n") == 1
    assert not out.exists()
    assert evolutions == []


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


@pytest.mark.parametrize("argv", [
    ["tm-search", "--sample-size", "5", "--top", "-1"],
    ["transition", "--rules", "22,30,90", "--top", "-1"],
    ["transition", "--rules", "22", "--blocks", "1"],
    ["transition", "--rules", "22", "--n", "1"],
    [*SMALL_TRANSITION, "--count", "0"],
    [*SMALL_TRANSITION, "--profile-steps", "21"],
    [*SMALL_TRANSITION, "--profile-steps", "0"],
    [*SMALL_TRANSITION, "--top", "0", "--count", "0"],
    ["profile", "--rule", "22", "--q", "nan"],
    ["profile", "--rule", "22", "--q", "-1"],
    ["transition", "--rules", "22,22", "--top", "2"],
    ["classify", "--colors", "11", "--rules", "5,10", "--steps", "5"],
], ids=["tm-search-top", "transition-top", "transition-blocks",
        "transition-n", "transition-count-0", "transition-profile-steps-21",
        "transition-profile-steps-0", "transition-top-0-count-0", "q-nan",
        "q-negative", "transition-rules-repeated", "classify-colors-11"])
def test_bad_flag_values_exit_2_before_writing(tmp_path, capsys, evolutions,
                                               argv):
    """The run is rejected before a single evolution is computed."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ccl: ") and err.count("\n") == 1
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
    assert {p.name for p in tmp_path.iterdir()} == {
        "classification.csv", "classification.json", "ranking.svg"}


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
      for fn in (coefficient_classification, transition_record,
                 transition_coefficient)
      for key in ("n", "t_block", "blocks")],
    *[("transition", key, interesting_initial_conditions, parameter)
      for key, parameter in (("count", "count"), ("profile_steps", "t"),
                             ("profile_blocks", "blocks"), ("scan", "m"),
                             ("threshold", "threshold"))],
    ("classify", "steps", classify_eca, "steps"),
    ("classify", "split_levels", classify_eca, "split_levels"),
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
    want = with_clusters(rank_rules(
        [RuleSpec.eca(n) for n in range(256)], (1, 0, 1, 1), 20))
    assert doc["entries"] == json.loads(want.to_json())["entries"]


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
    flat = with_clusters(rank_rules([RuleSpec.eca(n) for n in rules], (1,),
                                    20))
    high = [e for e in flat.entries if e.cluster == 1]
    values = [e.c_compressed for e in high]
    ids = cluster_1d(values, min(2, len(set(values)))) if values else []
    want = {e.rule.rule_number: 0 for e in flat.entries if e.cluster == 0}
    want.update({e.rule.rule_number: 1 + i for e, i in zip(high, ids)})
    assert got == want
    assert sorted(set(got.values())) == cluster_ids


def test_outputs_identical_across_thread_counts(tmp_path):
    args = ["classify", "--rules", "0,30,90,110,150,204", "--steps", "80"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a), "--create", "--threads", "1"]) == 0
    assert main(args + ["--out", str(b), "--create", "--threads", "4"]) == 0
    assert read_tree(a) == read_tree(b)


def test_threads_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CCL_THREADS", "3")
    assert main(["classify", "--rules", "30,90", "--steps", "40",
                 "--out", str(tmp_path)]) == 0
    monkeypatch.setenv("CCL_THREADS", "zebra")
    assert main(["classify", "--rules", "30,90", "--steps", "40",
                 "--out", str(tmp_path)]) == 2


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
