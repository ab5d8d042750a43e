"""Independent re-computation of numbers in one job's output tree.

This module shares no code with ccl.  It has its own CA runner (numpy
table lookup with a background that follows the rule), its own Turing
machine runner, its own Gray-code initial conditions, and calls zlib
directly with the pinned raw-DEFLATE parameters.  It checks the structure
of every report of a job and recomputes a few of its compressed lengths
and coefficients, so a wrong number is caught at any seed, not only at
the seeds whose output digest is recorded in golden.json.
"""

import csv
import json
import math
import zlib
from pathlib import Path

import numpy as np

PINNED = {"level": 6, "window_bits": -15, "mem_level": 8, "strategy": 0}


def deflate_length(data):
    co = zlib.compressobj(PINNED["level"], zlib.DEFLATED,
                          PINNED["window_bits"], PINNED["mem_level"],
                          PINNED["strategy"])
    return len(co.compress(data) + co.flush())


def gray_ic(n):
    """Cells of initial condition ``n``: the Gray code of n, most
    significant bit first, then a 1; number 0 is the single 1."""
    if n == 0:
        return [1]
    return [int(b) for b in format(n ^ (n >> 1), f"0{n.bit_length()}b")] + [1]


def ca_encoding(colors, rule, init, steps, width):
    """ASCII rows (one digit per cell, newline after each row) of a
    radius-1 CA run from ``init`` centred in ``width`` cells."""
    k = colors
    table = np.array([(rule // k ** i) % k for i in range(k ** 3)],
                     dtype=np.int64)
    rows = np.zeros((steps + 1, width + 1), dtype=np.uint8)
    off = (width - len(init)) // 2
    row = np.zeros(width + 2, dtype=np.int64)
    row[1 + off:1 + off + len(init)] = init
    rows[0, :width] = row[1:-1]
    bg = 0
    for t in range(1, steps + 1):
        row[0] = row[-1] = bg
        row[1:-1] = table[row[:-2] * k * k + row[1:-1] * k + row[2:]]
        rows[t, :width] = row[1:-1]
        bg = int(table[bg * (k * k + k + 1)])
    rows[:, :width] += ord("0")
    rows[:, width] = ord("\n")
    return rows.tobytes()


def tm_reached_encoding(states, colors, rule, steps):
    """ASCII digits of the distinct-states-reached count at steps 0..steps
    of a Turing machine started in state 0 on a blank tape, then a
    newline.  The rule number's base-2sk digits, most significant first,
    give the action for (state, colour) in order state*k + colour; digit
    d = new_state*2k + new_colour*2 + (0 to move right, 1 to move left)."""
    k = colors
    base = 2 * states * k
    digits = []
    n = rule
    for _ in range(states * k):
        n, d = divmod(n, base)
        digits.append(d)
    actions = digits[::-1]
    tape, head, state, reached = {}, 0, 0, {0}
    out = [1]
    for _ in range(steps):
        d = actions[state * k + tape.get(head, 0)]
        state = d // (2 * k)
        tape[head] = (d % (2 * k)) // 2
        head += 1 if d % 2 == 0 else -1
        reached.add(state)
        out.append(len(reached))
    return bytes(ord("0") + v for v in out) + b"\n"


def transition_coefficient(rule, n, t_block, blocks):
    """Least-squares slope, over runtimes b*t_block (b = 1..blocks), of the
    mean absolute difference of compressed lengths between initial
    conditions i and i+1 (i = 1..n-1), divided by the runtime; every
    condition runs in one window sized for the longest and each runtime
    is a row prefix of one evolution."""
    steps = t_block * blocks
    inits = [gray_ic(j) for j in range(1, n + 1)]
    width = max(len(ic) for ic in inits) + 2 * (steps + 1)
    lengths = []
    for ic in inits:
        enc = ca_encoding(2, rule, ic, steps, width)
        lengths.append([deflate_length(enc[:(width + 1) * (b * t_block + 1)])
                        for b in range(1, blocks + 1)])
    seq = [sum(abs(lengths[i + 1][b] - lengths[i][b]) for i in range(n - 1))
           / (n - 1) / ((b + 1) * t_block) for b in range(blocks)]
    return float(np.polyfit(np.arange(1, blocks + 1), seq, 1)[0])


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_common(command, out):
    cfg = {}
    for line in (out / "compressor.cfg").read_text().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            cfg[key.strip()] = int(value)
    if cfg != PINNED:
        return f"compressor.cfg holds {cfg}, not the pinned {PINNED}"
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest.get("command") != command:
        return f"manifest.json names command {manifest.get('command')!r}"
    return None


def _check_classify(opts, out):
    colors = int(opts.get("--colors", 2))
    steps = int(opts["--steps"])
    rules = ([int(r) for r in opts["--rules"].split(",")] if "--rules" in opts
             else list(range(256)))
    rows = _rows(out / "classification.csv")
    if sorted(int(r["rule"]) for r in rows) != sorted(rules):
        return "classification.csv does not hold exactly the requested rules"
    keys = [(int(r["c_compressed"]), int(r["rule"])) for r in rows]
    if keys != sorted(keys):
        return "classification.csv is not sorted by compressed length"
    width = 1 + 2 * (steps + 1)
    for r in (rows[0], rows[len(rows) // 2], rows[-1]):
        enc = ca_encoding(colors, int(r["rule"]), [1], steps, width)
        got = (int(r["colors"]), int(r["c_raw"]), int(r["c_compressed"]))
        if got != (colors, len(enc), deflate_length(enc)):
            return (f"rule {r['rule']}: (colors, c_raw, c_compressed) = {got}, "
                    f"oracle {(colors, len(enc), deflate_length(enc))}")
    if not (out / "ranking.svg").is_file():
        return "ranking.svg missing"
    return None


def _check_transition(opts, out):
    rules = sorted(int(r) for r in opts["--rules"].split(","))
    n, t_block, blocks = (int(opts[k]) for k in ("--n", "--t-block", "--blocks"))
    top, scan = int(opts["--top"]), int(opts["--scan"])
    rows = _rows(out / "coefficients.csv")
    if sorted(int(r["rule"]) for r in rows) != rules:
        return "coefficients.csv does not hold exactly the requested rules"
    coeffs = [float(r["coefficient"]) for r in rows]
    if coeffs != sorted(coeffs, reverse=True):
        return "coefficients.csv is not sorted by coefficient"
    for r in (rows[0], rows[-1]):
        want = transition_coefficient(int(r["rule"]), n, t_block, blocks)
        if not math.isclose(float(r["coefficient"]), want, rel_tol=1e-9,
                            abs_tol=1e-9):
            return (f"rule {r['rule']}: coefficient {r['coefficient']}, "
                    f"oracle {want!r}")
    doc = json.loads((out / "interesting_ics.json").read_text())
    scanned = [d["rule"] for d in doc["rules"]]
    if scanned != [int(r["rule"]) for r in rows[:top]]:
        return f"interesting_ics.json scans rules {scanned}, not the top {top}"
    for d in doc["rules"]:
        if len(d["profile"]) != scan or not all(0 <= j < scan for j in d["ics"]):
            return f"rule {d['rule']}: interesting-IC scan has the wrong shape"
        if not (out / f"profile-{d['rule']}.csv").is_file():
            return f"profile-{d['rule']}.csv missing"
    for rule in rules:
        if not (out / f"profile-{rule}.svg").is_file():
            return f"profile-{rule}.svg missing"
    return None


def _check_tm_search(opts, out):
    states, colors, steps = (int(opts[k]) for k in ("--states", "--colors",
                                                    "--steps"))
    rows = _rows(out / "tm_top.csv")
    if len(rows) != min(20, int(opts["--sample-size"])):
        return f"tm_top.csv has {len(rows)} rows"
    keys = [(-int(r["c_compressed"]), int(r["rule"])) for r in rows]
    if keys != sorted(keys):
        return "tm_top.csv is not sorted by compressed length"
    for r in rows:
        enc = tm_reached_encoding(states, colors, int(r["rule"]), steps)
        got = (int(r["states"]), int(r["colors"]), int(r["c_raw"]),
               int(r["c_compressed"]))
        want = (states, colors, len(enc), deflate_length(enc))
        if got != want:
            return f"machine {r['rule']}: {got}, oracle {want}"
    return None


_CHECKS = {"classify": _check_classify, "transition": _check_transition,
           "tm-search": _check_tm_search}


def check(argv, out):
    """Problem found in the output tree ``out`` of the ccl job run with
    ``argv`` (a subcommand followed by flag/value pairs), or None."""
    out = Path(out)
    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    try:
        return _check_common(command, out) or _CHECKS[command](opts, out)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
