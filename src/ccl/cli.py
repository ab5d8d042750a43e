"""Command-line orchestration: classification sweeps, transition-coefficient
sweeps, per-rule profiles, and Turing-machine searches, driven by flags
and/or a JSON config file.

Every run drops a manifest.json beside its reports recording the exact
parameters and compressor pin; rerunning with the same config and seed
reproduces every output file byte for byte regardless of thread count.
Exit codes: 0 success, 2 invalid configuration, 3 I/O failure.
"""

import argparse
import json
import os
import sys

from . import __version__
from .automaton import CA, TM, RuleSpec
from .classify import _classify, sample_rule_space
from .complexity import DEFAULT_COMPRESSOR, tm_complexity
from .svgplot import profile_svg, ranking_svg, transition_svg
from .transition import (coefficient_classification, detect_spikes,
                         ic_profile, interesting_initial_conditions)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(Exception):
    pass


_DEFAULTS = {
    "classify": {
        "colors": 2, "steps": 200, "rules": None, "sample_size": None,
        "seed": 0, "split_levels": 1, "ic": [1],
    },
    "transition": {
        "colors": 2, "rules": None, "n": 20, "t_block": 75, "blocks": 4,
        "top": 4, "count": 10, "scan": 30, "profile_steps": 600,
        "profile_blocks": 12, "threshold": 1.0, "seed": 0,
    },
    "profile": {
        "colors": 2, "rule": None, "ic_count": 32, "steps": 150,
        "normalize": False, "q": 3.0, "seed": 0,
    },
    "tm-search": {
        "states": 2, "colors": 3, "sample_size": 1000, "steps": 200,
        "top": 20, "seed": 0, "exhaustive": False, "budget": 100000,
    },
    "sample": {
        "kind": "CA", "colors": 2, "states": 2, "sample_size": 100,
        "seed": 0,
    },
}


# Keys whose config-file value must be a JSON integer, and those that take
# any JSON number.  null is accepted only where the default is null (unset).
_INT_KEYS = frozenset({
    "colors", "states", "steps", "sample_size", "seed", "split_levels", "n",
    "t_block", "blocks", "top", "count", "scan", "profile_steps",
    "profile_blocks", "rule", "ic_count", "budget",
})
_NUMBER_KEYS = frozenset({"threshold", "q"})


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_type(key, value, default):
    """Reject a config value of the wrong JSON type instead of coercing it
    (``true`` or ``1.7`` for an integer key or list item, ``null`` for a
    set one).  A ``rules`` value that is not a list is parsed as on the
    command line."""
    if value is None and default is None:
        return
    if key in _INT_KEYS:
        ok, what = _is_int(value), "an integer"
    elif key in _NUMBER_KEYS:
        ok, what = _is_int(value) or isinstance(value, float), "a number"
    elif key == "ic" or (key == "rules" and isinstance(value, list)):
        ok = isinstance(value, list) and all(map(_is_int, value))
        what = "a list of integers"
    else:
        return
    if not ok:
        raise ConfigError(f"{key} must be {what}, not {json.dumps(value)}")


def _load_config(command, path, overrides):
    cfg = dict(_DEFAULTS[command])
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            _check_type(key, value, cfg[key])
            cfg[key] = value
    for key, value in overrides.items():
        if value is not None and value is not False:
            cfg[key] = value
    return cfg


def _parse_rules(value):
    if value is None:
        return None
    if isinstance(value, list):
        return value
    try:
        return [int(tok) for tok in str(value).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad rule list {value!r}") from exc


def _resolve_threads(flag_value):
    value = flag_value
    if value is None:
        env = os.environ.get("CCL_THREADS")
        if env is not None:
            try:
                value = int(env)
            except ValueError as exc:
                raise ConfigError(f"bad CCL_THREADS value {env!r}") from exc
    if value is None:
        return 1
    if value < 1:
        raise ConfigError("thread count must be >= 1")
    return value


def _ensure_outdir(path, create):
    if not os.path.isdir(path):
        if not create:
            raise OSError(f"output directory does not exist: {path}")
        os.makedirs(path, exist_ok=True)


def _write(outdir, name, text):
    with open(os.path.join(outdir, name), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(text)


def _write_manifest(outdir, command, params, compressor):
    doc = {
        "tool": "ccl",
        "version": __version__,
        "command": command,
        "parameters": params,
        "compressor": compressor.as_dict(),
    }
    _write(outdir, "manifest.json", json.dumps(doc, indent=2,
                                               sort_keys=True) + "\n")


def cmd_classify(cfg, outdir, threads, compressor):
    rules = _parse_rules(cfg["rules"])
    colors = int(cfg["colors"])
    if rules is not None:
        specs = [RuleSpec(CA, colors, r) for r in rules]
    elif cfg["sample_size"] is not None:
        specs = sample_rule_space(CA, colors, 1, int(cfg["sample_size"]),
                                  int(cfg["seed"]))
    elif colors == 2:
        specs = [RuleSpec.eca(r) for r in range(256)]
    else:
        raise ConfigError(
            f"{colors}-color space needs an explicit rule list or "
            "sample_size"
        )
    report = _classify(specs, cfg["ic"], int(cfg["steps"]), compressor,
                       threads, cfg["split_levels"])
    _write(outdir, "classification.csv", report.to_csv())
    _write(outdir, "classification.json", report.to_json())
    _write(outdir, "ranking.svg", ranking_svg(report))


def cmd_transition(cfg, outdir, threads, compressor):
    blocks = int(cfg["blocks"])
    n = int(cfg["n"])
    if blocks < 2:
        raise ConfigError("blocks must be >= 2 (a line needs two points)")
    if n < 2:
        raise ConfigError("n must be >= 2")
    rules = _parse_rules(cfg["rules"])
    colors = int(cfg["colors"])
    if rules is None:
        if colors != 2:
            raise ConfigError("non-binary sweeps need an explicit rule list")
        rules = list(range(256))
    specs = [RuleSpec(CA, colors, r) for r in rules]
    report = coefficient_classification(
        specs, n, int(cfg["t_block"]), blocks, config=compressor,
        threads=threads,
    )
    _write(outdir, "coefficients.csv", report.to_csv())
    _write(outdir, "coefficients.json", report.to_json())
    for rec in report.records:
        _write(outdir, f"profile-{rec.rule.rule_number}.svg",
               transition_svg(rec))
    threshold = float(cfg["threshold"])
    chosen = [rec.rule for rec in report.records[: int(cfg["top"])]]
    results = []
    for rule in chosen:
        found = interesting_initial_conditions(
            rule, int(cfg["count"]), int(cfg["profile_steps"]),
            int(cfg["profile_blocks"]), int(cfg["scan"]), threshold,
            config=compressor, threads=threads,
        )
        results.append(found)
        lines = ["ic,score"]
        for j, score in enumerate(found.profile):
            lines.append(f"{j},{format(score, '.12g')}")
        _write(outdir, f"profile-{rule.rule_number}.csv",
               "\n".join(lines) + "\n")
    _write(outdir, "interesting_ics.json", json.dumps(
        {"threshold": threshold, "rules": [f.to_dict() for f in results]},
        indent=2) + "\n")


def cmd_profile(cfg, outdir, threads, compressor):
    if cfg["rule"] is None:
        raise ConfigError("profile needs --rule")
    rule = RuleSpec(CA, int(cfg["colors"]), int(cfg["rule"]))
    profile = ic_profile(rule, int(cfg["ic_count"]), int(cfg["steps"]),
                         bool(cfg["normalize"]), compressor, threads)
    spikes = detect_spikes(profile, float(cfg["q"]))
    lines = ["ic,length"]
    for j, value in enumerate(profile.lengths):
        cell = format(value, ".12g") if profile.normalized else str(value)
        lines.append(f"{j},{cell}")
    _write(outdir, f"profile-{rule.rule_number}.csv", "\n".join(lines) + "\n")
    _write(outdir, f"profile-{rule.rule_number}.svg",
           profile_svg(profile, f"rule {rule.rule_number} profile "
                                f"(t={profile.steps})", spikes))
    _write(outdir, "spikes.json", json.dumps(
        {"rule": rule.rule_number, "q": float(cfg["q"]), "spikes": spikes},
        indent=2) + "\n")


def cmd_tm_search(cfg, outdir, threads, compressor):
    states = int(cfg["states"])
    colors = int(cfg["colors"])
    steps = int(cfg["steps"])
    space = RuleSpec(TM, colors, 0, states).space_size
    if cfg["exhaustive"]:
        if space > int(cfg["budget"]):
            raise ConfigError(
                f"exhaustive search over {space} machines exceeds the "
                f"budget of {cfg['budget']}"
            )
        specs = [RuleSpec(TM, colors, r, states) for r in range(space)]
    else:
        specs = sample_rule_space(TM, colors, states,
                                  int(cfg["sample_size"]), int(cfg["seed"]))
    estimates = [tm_complexity(r, steps, compressor) for r in specs]
    ranked = sorted(
        zip(specs, estimates),
        key=lambda p: (-p[1].compressed_length, p[0].rule_number),
    )[: int(cfg["top"])]
    lines = ["rule,states,colors,c_raw,c_compressed"]
    for rule, est in ranked:
        lines.append(f"{rule.rule_number},{rule.states},{rule.colors},"
                     f"{est.raw_length},{est.compressed_length}")
    _write(outdir, "tm_top.csv", "\n".join(lines) + "\n")


def cmd_sample(cfg, outdir, threads, compressor):
    kind = str(cfg["kind"]).upper()
    if kind not in (CA, TM):
        raise ConfigError(f"kind must be CA or TM, not {cfg['kind']!r}")
    specs = sample_rule_space(kind, int(cfg["colors"]), int(cfg["states"]),
                              int(cfg["sample_size"]), int(cfg["seed"]))
    doc = {
        "kind": kind,
        "colors": int(cfg["colors"]),
        "states": specs[0].states,
        "seed": int(cfg["seed"]),
        "rules": [r.rule_number for r in specs],
    }
    _write(outdir, "rules.json", json.dumps(doc, indent=2) + "\n")


_COMMANDS = {
    "classify": cmd_classify,
    "transition": cmd_transition,
    "profile": cmd_profile,
    "tm-search": cmd_tm_search,
    "sample": cmd_sample,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON file with run parameters")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    common.add_argument("--create", action="store_true",
                        help="create the output directory if missing")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="sampling seed")
    common.add_argument("--threads", type=int, metavar="N",
                        help="worker threads (or env CCL_THREADS; default 1)")

    parser = argparse.ArgumentParser(
        prog="ccl",
        description="Classify cellular automata and small Turing machines "
                    "by the compressed length of their evolutions.",
    )
    parser.add_argument("--version", action="version",
                        version=f"ccl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="rank a rule space by compressed length")
    p.add_argument("--rules", help="comma-separated rule numbers")
    p.add_argument("--steps", type=int)
    p.add_argument("--colors", type=int)
    p.add_argument("--sample-size", type=int, dest="sample_size")
    p.add_argument("--split-levels", type=int, dest="split_levels",
                   choices=(1, 2))

    p = sub.add_parser("transition", parents=[common],
                       help="transition-coefficient sweep")
    p.add_argument("--rules", help="comma-separated rule numbers")
    p.add_argument("--n", type=int, help="initial conditions per exponent")
    p.add_argument("--t-block", type=int, dest="t_block")
    p.add_argument("--blocks", type=int)
    p.add_argument("--top", type=int,
                   help="how many top rules get an interesting-IC scan")
    p.add_argument("--count", type=int, help="interesting ICs per rule")
    p.add_argument("--scan", type=int, help="ICs scanned for jumps")
    p.add_argument("--profile-steps", type=int, dest="profile_steps",
                   help="total runtime of the interesting-IC scan")
    p.add_argument("--profile-blocks", type=int, dest="profile_blocks")
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("profile", parents=[common],
                       help="compressed-length profile of one rule")
    p.add_argument("--rule", type=int)
    p.add_argument("--ic-count", type=int, dest="ic_count")
    p.add_argument("--steps", type=int)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--q", type=float, help="spike threshold in MADs")

    p = sub.add_parser("tm-search", parents=[common],
                       help="rank sampled Turing machines by state-reach "
                            "complexity")
    p.add_argument("--states", type=int)
    p.add_argument("--colors", type=int)
    p.add_argument("--sample-size", type=int, dest="sample_size")
    p.add_argument("--steps", type=int)
    p.add_argument("--top", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--budget", type=int)

    p = sub.add_parser("sample", parents=[common],
                       help="draw a seeded rule sample")
    p.add_argument("--kind")
    p.add_argument("--colors", type=int)
    p.add_argument("--states", type=int)
    p.add_argument("--sample-size", type=int, dest="sample_size")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key in _DEFAULTS[command]
    }
    try:
        cfg = _load_config(command, args.config, overrides)
        threads = _resolve_threads(args.threads)
        compressor = DEFAULT_COMPRESSOR
        _ensure_outdir(args.out, args.create)
        _COMMANDS[command](cfg, args.out, threads, compressor)
        compressor.save(os.path.join(args.out, "compressor.cfg"))
        _write_manifest(args.out, command, cfg, compressor)
    except ConfigError as exc:
        print(f"ccl: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"ccl: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"ccl: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
