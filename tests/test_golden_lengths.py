"""Exact compressed lengths pinned by golden data.

The acceptance tests check memberships and orderings, which an off-by-one
row in a block prefix or a different zlib build can leave intact.  This
file pins the lengths themselves: every ECA at t=200 from IC 0, the block
prefix lengths of five rules at the coefficient-sweep and interesting-IC
settings, the first 16 hex digits of the sha256 of every ECA's
coefficient-sweep lengths table (so a failure names the rules whose lengths
changed), a seeded 3-colour sample, and the compressed reached and raw
state sequences of a seeded sample of 2- to 4-state machines.  It also pins
the sha256 of every file that one small command-line run of each subcommand
writes, so a change to how a report is rendered shows here and not only in
the benchmark.

Re-record (only when lengths change on purpose) with

    PYTHONPATH=src python tests/test_golden_lengths.py
"""

import hashlib
import json
import tempfile
import zlib
from pathlib import Path

from ccl import (CA, TM, RuleSpec, compressed_length, encode_sequence,
                 initial_condition, state_sequence, tm_complexity)
from ccl.classify import sample_rule_space
from ccl.cli import main
from ccl.complexity import COMPRESSOR, _grid

GOLDEN = Path(__file__).resolve().parent / "golden_lengths.json"
PREFIX_RULES = (22, 30, 73, 109, 110)
# (name, IC numbers, t_block, blocks): the coefficient sweep and the
# interesting-IC scan at their default settings.
SWEEPS = (("coefficient", range(1, 21), 75, 4),
          ("interesting", range(0, 30), 50, 12))
STEPS = 200
K3_SEED, K3_SIZE = 0, 10
# (states, colors) shapes of the Turing-machine sample, TM_SIZE machines each.
TM_SHAPES = tuple((s, k) for s in (2, 3, 4) for k in (2, 3))
TM_SEED, TM_SIZE = 0, 50
# One small run per subcommand, named by its key in "outputs".  The
# 3-colour sample has rule numbers above 10**12, the normalized profile
# writes floats to its CSV, and the 3-state search ranks ties among
# machines that reach up to three states.
OUTPUT_RUNS = {
    "classify": ["classify", "--rules", "0,30,90,110", "--steps", "20",
                 "--split-levels", "2"],
    "classify-k3": ["classify", "--colors", "3", "--sample-size", "3",
                    "--steps", "10", "--seed", "7"],
    "transition": ["transition", "--rules", "22,30", "--n", "3",
                   "--t-block", "10", "--blocks", "2", "--top", "2",
                   "--count", "2", "--scan", "4", "--profile-steps", "20",
                   "--profile-blocks", "2"],
    "profile": ["profile", "--rule", "22", "--ic-count", "4", "--steps",
                "20"],
    "profile-normalized": ["profile", "--rule", "30", "--ic-count", "5",
                           "--steps", "20", "--normalize"],
    "tm-search": ["tm-search", "--states", "2", "--colors", "2",
                  "--sample-size", "20", "--steps", "20", "--top", "5"],
    "tm-search-3": ["tm-search", "--states", "3", "--colors", "2",
                    "--sample-size", "1000", "--steps", "100", "--seed", "7"],
    "sample": ["sample", "--kind", "TM", "--colors", "3", "--sample-size",
               "5"],
}


def coefficient_grid():
    """The ``_grid`` arguments of the coefficient sweep of all 256 ECA at
    its default settings, and its lengths tables, computed at the worker
    count of criterion 07, which shares them."""
    _, ics, t_block, blocks = SWEEPS[0]
    args = ([RuleSpec.eca(r) for r in range(256)],
            [initial_condition(j) for j in ics], t_block, blocks)
    return args, _grid(*args, threads=4)


def compute(coefficient_tables=None):
    """The golden document; ``coefficient_tables`` are the 256 tables of
    :func:`coefficient_grid`, computed here when not given."""
    if coefficient_tables is None:
        coefficient_tables = coefficient_grid()[1]
    doc = {
        "zlib_runtime_version": zlib.ZLIB_RUNTIME_VERSION,
        "compressor": COMPRESSOR["id"],
        "eca_t200": _t200([RuleSpec.eca(r) for r in range(256)]),
    }
    for name, ics, t_block, blocks in SWEEPS:
        tables = _grid([RuleSpec.eca(r) for r in PREFIX_RULES],
                       [initial_condition(j) for j in ics], t_block, blocks,
                       threads=2)
        doc[f"prefix_{name}"] = {
            str(r): table for r, table in zip(PREFIX_RULES, tables)}
    doc["coefficient_sha256"] = {
        str(r): hashlib.sha256(json.dumps(t).encode()).hexdigest()[:16]
        for r, t in enumerate(coefficient_tables)}
    k3 = sample_rule_space(CA, 3, 1, K3_SIZE, K3_SEED)
    doc["k3_t200"] = dict(zip(map(str, k3),
                              _t200([RuleSpec(CA, 3, n) for n in k3])))
    doc["tm_t200"] = {
        f"{s},{k},{n}": _tm_lengths(RuleSpec(TM, k, n, s))
        for s, k in TM_SHAPES
        for n in sample_rule_space(TM, k, s, TM_SIZE, TM_SEED)
    }
    doc["outputs"] = {name: _output_digests(argv)
                      for name, argv in OUTPUT_RUNS.items()}
    return doc


def _t200(rules):
    """Compressed length of each rule run for STEPS steps from IC 0, the
    ``ca_complexity`` of each, read off one grid on 2 worker processes."""
    tables = _grid(rules, [initial_condition(0)], STEPS, 1, threads=2)
    return [table[0][0] for table in tables]


def _output_digests(argv):
    """sha256 of each file the command line ``argv`` writes, by name."""
    with tempfile.TemporaryDirectory() as out:
        if main([*argv, "--out", out]) != 0:
            raise RuntimeError(f"ccl {' '.join(argv)} failed")
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).iterdir())}


def _tm_lengths(spec):
    """Raw and compressed length of the "reached" measure, then of the raw
    state sequence."""
    est = tm_complexity(spec, STEPS)
    raw = encode_sequence(state_sequence(spec, STEPS))
    return [est.raw_length, est.compressed_length, len(raw),
            compressed_length(raw)]


def test_lengths_match_golden(coefficient_sweep):
    want = json.loads(GOLDEN.read_text())
    got = compute(coefficient_sweep[1])
    recorded, running = want["zlib_runtime_version"], zlib.ZLIB_RUNTIME_VERSION
    for key in want:
        if key == "zlib_runtime_version":
            continue
        assert got[key] == want[key], (
            f"{key} differs from {GOLDEN.name} (recorded with zlib "
            f"{recorded}, running zlib {running})"
        )


def _dump(doc):
    """JSON with one line per top-level value or per rule."""
    def value(v):
        if not isinstance(v, dict):
            return json.dumps(v)
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(x)}"
                           for k, x in v.items())
        return "{\n" + rows + "\n }"
    body = ",\n".join(f" {json.dumps(k)}: {value(v)}" for k, v in doc.items())
    return "{\n" + body + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dump(compute()))
