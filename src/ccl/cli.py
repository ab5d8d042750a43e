"""Command-line orchestration: classification sweeps, transition-coefficient
sweeps, per-rule profiles, and Turing-machine searches, driven by flags
and/or a JSON config file.

Each subcommand renders plain report dicts through the one CSV and the one
JSON renderer, and one writer lands the texts, with manifest.json (exact
parameters and compressor pin) last; rerunning with the same config and seed
reproduces every output byte regardless of worker count.  Exit codes: 0
success; 2 a refusal, a ``ValueError`` in the library and CLI alike; 3 an
I/O or resource failure (out of memory, or a window too large to represent).
"""

import argparse
import json
import math
import os
import sys

from . import __version__
from .automaton import CA, TM, RuleSpec
from .classify import rank_rules, sample_rule_space
from .complexity import COMPRESSOR, _reached_limits, _tm_search
from .svgplot import plot_svg
from .transition import (_scan_block, coefficient_classification,
                         detect_spikes, ic_profile,
                         interesting_initial_conditions)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


class _Param:
    """One run parameter: its default; its JSON type, named only where the
    default is null; its least value, set only where nothing downstream
    checks it before the work; and the extra ``add_argument`` keywords of
    its flag, or ``flag=False`` for a key that only a config file can set."""

    def __init__(self, default, kind=None, minimum=None, flag=True,
                 **flag_kw):
        self.default = default
        kind = kind or type(default)
        self.kinds = kind if isinstance(kind, tuple) else (kind,)
        self.minimum = minimum
        self.flag_kw = flag_kw if flag else None


def _table(**params):
    return {key: p if isinstance(p, _Param) else _Param(p)
            for key, p in params.items()}


# One table per subcommand, in flag order; ``seed`` is shared by all five.
# A ``rules`` value is a list of rule numbers, or a string or one number
# parsed as on the command line.
_SEED = _table(seed=_Param(0, minimum=0, metavar="U64",
                          help="sampling seed"))
_RULES = _Param(None, (list, str, int), help="comma-separated rule numbers")
_PARAMS = {
    "classify": _table(
        rules=_RULES, steps=200, colors=2, sample_size=_Param(None, int),
        split_levels=_Param(1, choices=(1, 2)), ic=_Param([1], flag=False),
    ),
    "transition": _table(
        rules=_RULES,
        n=_Param(20, help="initial conditions per exponent"),
        t_block=75, blocks=4,
        top=_Param(4, minimum=0,
                   help="how many top rules get an interesting-IC scan"),
        count=_Param(10, help="interesting ICs per rule"),
        scan=_Param(30, help="ICs scanned for jumps"),
        profile_steps=_Param(600,
                             help="total runtime of the interesting-IC scan"),
        profile_blocks=12, threshold=1.0, colors=_Param(2, flag=False),
    ),
    "profile": _table(
        rule=_Param(None, int), ic_count=32, steps=150, normalize=False,
        q=_Param(3.0, minimum=0, help="spike threshold in MADs"),
        colors=_Param(2, flag=False),
    ),
    "tm-search": _table(
        states=2, colors=3, sample_size=1000, steps=200,
        top=_Param(20, minimum=0), exhaustive=False, budget=100000,
    ),
    "sample": _table(kind="CA", colors=2, states=2, sample_size=100),
}

_TYPE_NAMES = {list: "a list of integers", str: "a string",
               int: "an integer", float: "a number", bool: "true or false"}


def _has_type(value, kinds):
    """Whether a JSON value is one of ``kinds``: a bool is not a number, an
    integer is also a float, and list items must be integers."""
    if isinstance(value, bool):
        return bool in kinds
    if isinstance(value, list):
        return list in kinds and all(_has_type(v, (int,)) for v in value)
    if isinstance(value, int):
        return int in kinds or float in kinds
    return isinstance(value, kinds)


def _check(key, value, param):
    """Reject a value of the wrong JSON type instead of coercing it
    (``true`` or ``1.7`` for an integer key or list item, ``null`` for a
    set one), a non-finite number, or one below the key's minimum."""
    if value is None and param.default is None:
        return
    if not _has_type(value, param.kinds):
        what = " or ".join(_TYPE_NAMES[k] for k in param.kinds)
        raise ValueError(f"{key} must be {what}, not {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, not {json.dumps(value)}")
    if param.minimum is not None and value < param.minimum:
        raise ValueError(f"{key} must be >= {param.minimum}")


def _int(text):
    """A JSON integer, refused past Python's integer-string limit."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("config file holds an integer with more digits "
                         "than can be read") from None


def _load_config(command, path, flags):
    """Defaults of ``command``, then the config file, then the flags that
    were given; every value given is checked against its key's entry."""
    params = {**_PARAMS[command], **_SEED}
    loaded = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh, parse_int=_int)
        except FileNotFoundError as exc:
            raise ValueError(f"config file not found: {path}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"config file is not UTF-8 text: {path}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
    cfg = {key: param.default for key, param in params.items()}
    given = [(key, value) for key, value in flags.items()
             if key in params and value is not None]
    for key, value in [*loaded.items(), *given]:
        if key not in params:
            raise ValueError(f"unknown config key {key!r} for {command}")
        _check(key, value, params[key])
        cfg[key] = value
    return cfg


def _parse_rules(value):
    if value is None:
        return None
    try:
        rules = value if isinstance(value, list) else [
            int(tok) for tok in str(value).split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad rule list {value!r}") from exc
    if len(set(rules)) < len(rules):
        raise ValueError(f"rule list {value!r} repeats a rule number")
    return rules


def _write(outdir, files, create):
    """Land ``files`` (name -> text) in ``outdir``, created if missing and
    ``create`` is set, all or nothing: a directory in the way is refused, and
    every text goes to a temporary name before any is renamed, in order."""
    if create:
        os.makedirs(outdir, exist_ok=True)
    elif not os.path.isdir(outdir):
        raise OSError(f"output directory does not exist: {outdir}")
    paths = [os.path.join(outdir, name) for name in files]
    for path in filter(os.path.isdir, paths):
        raise IsADirectoryError(f"output path is a directory: {path}")
    try:
        for path, text in zip(paths, files.values()):
            with open(path + ".tmp", "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for path in paths:
            os.replace(path + ".tmp", path)
    finally:
        for tmp in filter(os.path.lexists, [p + ".tmp" for p in paths]):
            os.remove(tmp)


def _csv(columns, rows):
    """CSV text: the header ``columns`` (comma-separated names), then one
    line per row dict with those keys' values.  A float is written with
    ``.12g``, anything else with ``str``: 3-color rule numbers pass 10**12,
    where ``.12g`` would round them."""
    names = columns.split(",")
    lines = [columns]
    for row in rows:
        values = [row[name] for name in names]
        lines.append(",".join(format(v, ".12g") if isinstance(v, float)
                              else str(v) for v in values))
    return "\n".join(lines) + "\n"


def _json(doc, sort_keys=False):
    return json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"


def cmd_classify(cfg, threads):
    rules = _parse_rules(cfg["rules"])
    colors = cfg["colors"]
    if rules is None and cfg["sample_size"] is not None:
        rules = sample_rule_space(CA, colors, 1, cfg["sample_size"],
                                  cfg["seed"])
    elif rules is None:
        if colors != 2:
            raise ValueError(f"{colors}-color space needs an explicit rule "
                             "list or sample_size")
        rules = range(256)
    ranking = rank_rules([RuleSpec(CA, colors, r) for r in rules], cfg["ic"],
                         cfg["steps"], threads, cfg["split_levels"])
    entries = [{"rule": e.rule.rule_number, "kind": e.rule.kind,
                "colors": e.rule.colors, "c_raw": e.c_raw,
                "c_compressed": e.c_compressed, "cluster": e.cluster}
               for e in ranking]
    parameters = {"steps": cfg["steps"], "init": cfg["ic"],
                  "compressor": COMPRESSOR["id"]}
    clusters = {}
    for x, e in enumerate(entries):
        clusters.setdefault(e["cluster"], []).append((x, e["c_compressed"]))
    return {"classification.csv": _csv(
                "rule,kind,colors,c_raw,c_compressed,cluster", entries),
            "classification.json": _json({"parameters": parameters,
                                          "entries": entries}),
            "ranking.svg": plot_svg(
                f"compressed length by rank (t={cfg['steps']}, "
                f"{COMPRESSOR['id']})",
                dots=[(clusters[c], c, 2.0) for c in sorted(clusters)])}


def cmd_transition(cfg, threads):
    rules = _parse_rules(cfg["rules"])
    if rules is None:
        if cfg["colors"] != 2:
            raise ValueError("non-binary sweeps need an explicit rule list")
        rules = list(range(256))
    specs = [RuleSpec(CA, cfg["colors"], r) for r in rules]
    # The scan's checks run before the sweep, which can take seconds.
    _scan_block(cfg["count"], cfg["profile_steps"], cfg["profile_blocks"],
                cfg["scan"])
    ranking = coefficient_classification(
        specs, cfg["n"], cfg["t_block"], cfg["blocks"], threads=threads,
    )
    entries = [{"rule": rec.rule.rule_number, "kind": rec.rule.kind,
                "colors": rec.rule.colors, "n": cfg["n"],
                "t_block": cfg["t_block"], "blocks": cfg["blocks"],
                "S_c": list(rec.S_c), "intercept": rec.fit[0],
                "coefficient": rec.C, "cluster": rec.cluster}
               for rec in ranking]
    parameters = {"n": cfg["n"], "t_block": cfg["t_block"],
                  "blocks": cfg["blocks"], "compressor": COMPRESSOR["id"]}
    files = {"coefficients.csv": _csv("rule,kind,colors,coefficient,cluster",
                                      entries),
             "coefficients.json": _json({"parameters": parameters,
                                         "entries": entries})}
    for rec in ranking:
        intercept, slope = rec.fit
        ends = (1, len(rec.S_c))
        files[f"profile-{rec.rule.rule_number}.svg"] = plot_svg(
            f"rule {rec.rule.rule_number}: S_c and fit "
            f"(C={format(rec.C, '.4g')})",
            lines=[([(x, intercept + slope * x) for x in ends], 1)],
            dots=[(list(enumerate(rec.S_c, 1)), 0, 3.0)])
    threshold = float(cfg["threshold"])
    scans = []
    for rec in ranking[: cfg["top"]]:
        found = interesting_initial_conditions(
            rec.rule, cfg["count"], cfg["profile_steps"],
            cfg["profile_blocks"], cfg["scan"], threads=threads,
        )
        scans.append({"rule": rec.rule.rule_number, "ics": list(found.ics),
                      "profile": list(found.profile),
                      "coefficient": found.coefficient,
                      "threshold": threshold,
                      "warning": not found.coefficient > threshold})
        files[f"profile-{rec.rule.rule_number}.csv"] = _csv(
            "ic,score", [{"ic": j, "score": v}
                         for j, v in enumerate(found.profile)])
    files["interesting_ics.json"] = _json({"threshold": threshold,
                                           "rules": scans})
    return files


def cmd_profile(cfg, threads):
    if cfg["rule"] is None:
        raise ValueError("profile needs --rule")
    rule = RuleSpec(CA, cfg["colors"], cfg["rule"])
    profile = ic_profile(rule, cfg["ic_count"], cfg["steps"], threads=threads)
    if cfg["normalize"]:
        profile = tuple(v / cfg["steps"] for v in profile)
    spikes = detect_spikes(profile, float(cfg["q"]))
    return {
        f"profile-{rule.rule_number}.csv": _csv(
            "ic,length", [{"ic": j, "length": v}
                          for j, v in enumerate(profile)]),
        f"profile-{rule.rule_number}.svg": plot_svg(
            f"rule {rule.rule_number} profile (t={cfg['steps']})",
            lines=[(list(enumerate(profile)), 0)],
            dots=[([(j, profile[j]) for j in spikes], 1, 3.0)]),
        "spikes.json": _json({"rule": rule.rule_number, "q": float(cfg["q"]),
                              "spikes": spikes}),
    }


def cmd_tm_search(cfg, threads):
    states, colors = cfg["states"], cfg["colors"]
    shape = RuleSpec(TM, colors, 0, states)
    if cfg["exhaustive"] and shape._space_exceeds(cfg["budget"]):
        base, digits = shape._space
        raise ValueError(
            f"exhaustive search over {base}**{digits} machines exceeds "
            f"the budget of {cfg['budget']}"
        )
    # The measure's limits are checked before a draw that can take seconds.
    _reached_limits(states, cfg["steps"])
    if cfg["exhaustive"]:
        numbers = range(shape.space_size)
    else:
        numbers = sample_rule_space(TM, colors, states, cfg["sample_size"],
                                    cfg["seed"])
    top = _tm_search(states, colors, numbers, cfg["steps"], cfg["top"])
    entries = [{"rule": n, "states": states, "colors": colors, "c_raw": raw,
                "c_compressed": -c} for c, n, raw in top]
    return {"tm_top.csv": _csv("rule,states,colors,c_raw,c_compressed",
                               entries)}


def cmd_sample(cfg, threads):
    numbers = sample_rule_space(cfg["kind"], cfg["colors"], cfg["states"],
                                cfg["sample_size"], cfg["seed"])
    doc = {"kind": cfg["kind"], "colors": cfg["colors"],
           "states": cfg["states"] if cfg["kind"] == TM else 1,
           "seed": cfg["seed"], "rules": numbers}
    return {"rules.json": _json(doc)}


_COMMANDS = {
    "classify": (cmd_classify, "rank a rule space by compressed length"),
    "transition": (cmd_transition, "transition-coefficient sweep"),
    "profile": (cmd_profile, "compressed-length profile of one rule"),
    "tm-search": (cmd_tm_search, "rank sampled Turing machines by "
                                 "state-reach complexity"),
    "sample": (cmd_sample, "draw a seeded rule sample"),
}


def _add_flags(parser, params):
    """One ``--key-with-dashes`` flag per parameter that has one: a switch
    for a bool, else a value of the parameter's type."""
    for key, param in params.items():
        if param.flag_kw is None:
            continue
        kw = dict(param.flag_kw)
        kind = param.kinds[0]
        if kind is bool:
            kw.update(action="store_true", default=None)
        elif kind in (int, float):
            kw["type"] = kind
        parser.add_argument("--" + key.replace("_", "-"), **kw)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON file with run parameters")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    common.add_argument("--create", action="store_true",
                        help="create the output directory if missing")
    _add_flags(common, _SEED)
    common.add_argument("--threads", type=int, default=1, metavar="N", help=(
        "worker processes (default 1) for classify, transition and "
        "profile; tm-search and sample run in one process"))

    parser = argparse.ArgumentParser(
        prog="ccl",
        description="Classify cellular automata and small Turing machines "
                    "by the compressed length of their evolutions.",
    )
    parser.add_argument("--version", action="version",
                        version=f"ccl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        _add_flags(sub.add_parser(command, parents=[common], help=text),
                   _PARAMS[command])
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.command, args.config, vars(args))
        if args.threads < 1:
            raise ValueError("worker count must be >= 1")
        files = _COMMANDS[args.command][0](cfg, args.threads)
        files["compressor.cfg"] = (
            "# raw DEFLATE (RFC 1951) compressor parameters\n" + "".join(
                f"{key} = {value}\n" for key, value in COMPRESSOR.items()
                if key != "id"))
        files["manifest.json"] = _json({
            "tool": "ccl", "version": __version__, "command": args.command,
            "parameters": cfg, "compressor": COMPRESSOR,
        }, sort_keys=True)
        _write(args.out, files, args.create)
    except ValueError as exc:
        print(f"ccl: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, MemoryError, OverflowError) as exc:  # numpy's too
        print(f"ccl: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entry():
    # ccl runs no BLAS code, and _grid forks after importing numpy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entry()
