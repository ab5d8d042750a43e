"""Phase-transition machinery over Gray-coded initial conditions.

A rule is probed by evolving it from consecutive numbered initial
conditions (which differ by a single cell) and watching how the compressed
length of the evolution jumps.  The characteristic exponent summarizes one
sweep, its growth across longer runtimes is fitted by a line, and the slope
of that line -- the transition coefficient -- ranks rules by how sensitive
they are to their initial condition.

All initial conditions of one sweep share a common window (sized for the
longest condition and the full runtime), and every runtime block is
measured as a row prefix of the same evolution.  Both choices remove
compressor artifacts that have nothing to do with the dynamics: varying
window widths or restarts at different widths can shift match lengths
inside the compressor and fake jumps between otherwise identical regimes.
Each evolution is compressed once, as one incremental DEFLATE stream, and
the length of every block prefix is read off at its row boundary; the
lengths equal one-shot compression of each prefix byte for byte.

Every sweep -- a profile, an exponent, a transition sequence, a scan --
fills one table of lengths (initial conditions by runtime blocks); exponents
and spikes come from one aggregation and one neighbour-rise rule over it.
"""

import json
import math
import statistics
from dataclasses import dataclass

from .classify import _parallel_map, cluster_1d
from .complexity import (COMPRESSOR, _encoded_evolution,
                         prefix_compressed_lengths)
from .initcond import initial_condition


@dataclass(frozen=True)
class IcProfile:
    """Compressed length of a rule's evolution for each initial condition
    number 0..len(lengths)-1, all measured in a common window."""

    rule: object
    steps: int
    lengths: tuple
    normalized: bool


@dataclass(frozen=True)
class TransitionRecord:
    """One rule's characteristic-exponent sequence over growing runtimes,
    its fitted line, and the coefficient C (= fitted slope)."""

    rule: object
    n: int
    t_block: int
    blocks: int
    S_c: tuple
    fit: tuple  # (intercept, slope)

    @property
    def C(self):
        return self.fit[1]

    def to_dict(self):
        return {
            "rule": self.rule.rule_number,
            "kind": self.rule.kind,
            "colors": self.rule.colors,
            "n": self.n,
            "t_block": self.t_block,
            "blocks": self.blocks,
            "S_c": list(self.S_c),
            "intercept": self.fit[0],
            "coefficient": self.C,
        }


@dataclass(frozen=True)
class InterestingIcs:
    """Initial-condition numbers with the sharpest profile jumps for one
    rule, together with the aggregated per-condition score profile;
    ``warning`` is set when the rule's transition coefficient does not
    clear the phase-transition threshold."""

    rule: object
    ics: tuple
    profile: tuple
    coefficient: float
    threshold: float
    warning: bool

    def to_dict(self):
        return {
            "rule": self.rule.rule_number,
            "ics": list(self.ics),
            "profile": list(self.profile),
            "coefficient": self.coefficient,
            "threshold": self.threshold,
            "warning": self.warning,
        }


def _window_width(ic_numbers, steps):
    longest = max(len(initial_condition(j)) for j in ic_numbers)
    return longest + 2 * (steps + 1)


def _prefix_lengths(rule, ic_number, t_block, blocks, width):
    """Compressed length of the first 1 + b*t_block rows of one evolution,
    for b = 1..blocks.  Row-major encoding makes each block a byte prefix
    of the full encoding, so the encoding goes once through one incremental
    DEFLATE stream and each length is read off at its row boundary."""
    enc = _encoded_evolution(rule, initial_condition(ic_number),
                             t_block * blocks, width)
    stride = width + 1
    return prefix_compressed_lengths(
        enc, [stride * (b * t_block + 1) for b in range(1, blocks + 1)])


def _sweep(rule, numbers, t_block, blocks, threads=None):
    """Lengths table of one sweep: for each initial-condition number, the
    ``_prefix_lengths`` of its evolution, all in one window sized for the
    longest condition and the full runtime."""
    width = _window_width(numbers, t_block * blocks)
    return _parallel_map(
        lambda j: _prefix_lengths(rule, j, t_block, blocks, width), numbers,
        threads)


def _rises(values):
    """How far each value rises above either neighbour, or 0.0."""
    padded = [math.inf, *values, math.inf]
    return [max(0.0, v - padded[j], v - padded[j + 2])
            for j, v in enumerate(values)]


def _scan_block(count, t, blocks, m):
    """Checked runtime block of an interesting-IC scan."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if m < 3:
        raise ValueError("need at least three initial conditions to rank")
    if blocks < 2:
        raise ValueError("need at least two blocks")
    if t < blocks or t % blocks:
        raise ValueError("t must be a positive multiple of blocks")
    return t // blocks


def _exponents(table, divisors):
    """Characteristic exponent of each column of a lengths table (rows:
    consecutive initial conditions, columns: runtime blocks): the mean
    absolute difference between successive rows, divided by that column's
    divisor."""
    out = []
    for b, divisor in enumerate(divisors):
        diffs = [abs(hi[b] - lo[b]) for lo, hi in zip(table, table[1:])]
        out.append(sum(diffs) / len(diffs) / divisor)
    return out


def ic_profile(rule, m, steps, normalize=False, threads=None):
    """Compressed length of ``rule``'s evolution from initial conditions
    0..m-1, each run for ``steps`` steps in the common window."""
    if m < 1:
        raise ValueError("need at least one initial condition")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    table = _sweep(rule, range(m), steps, 1, threads)
    lengths = [row[0] for row in table]
    if normalize:
        lengths = [c / steps for c in lengths]
    return IcProfile(rule, steps, tuple(lengths), normalize)


def detect_spikes(profile, q=3.0):
    """Indices whose profile value rises above an adjacent neighbor by more
    than ``q`` times the MAD of the successive differences.

    The median absolute deviation is taken over the signed differences, so
    a handful of isolated jumps does not inflate the scale estimate.  Only
    upward excursions count: the foot of a spike falls by the same amount
    its peak rises, and reporting it would double every event.
    """
    if not q >= 0:
        raise ValueError("q must be >= 0")
    vals = list(profile.lengths) if isinstance(profile, IcProfile) else list(profile)
    if len(vals) < 2:
        return []
    diffs = [hi - lo for lo, hi in zip(vals, vals[1:])]
    med = statistics.median(diffs)
    mad = statistics.median(abs(d - med) for d in diffs)
    return [j for j, rise in enumerate(_rises(vals)) if rise > q * mad]


def _exponent_sequence(rule, n, t_block, blocks, threads=None):
    """Characteristic exponents over initial conditions 1..n at runtimes
    t_block, 2*t_block, ..., blocks*t_block, from one sweep."""
    if n < 2:
        raise ValueError("need at least two initial conditions")
    if t_block < 1:
        raise ValueError("t_block must be >= 1")
    table = _sweep(rule, range(1, n + 1), t_block, blocks, threads)
    return _exponents(table, [b * t_block for b in range(1, blocks + 1)])


def characteristic_exponent(rule, n, steps):
    """Mean absolute successive difference of compressed lengths over
    initial conditions 1..n, divided by the runtime ``steps``.  Values
    above 1 signal a phase transition."""
    return _exponent_sequence(rule, n, steps, 1)[0]


def transition_sequence(rule, n, t_block, blocks, threads=None):
    """Characteristic exponents of ``rule`` at runtimes t_block, 2*t_block,
    ..., blocks*t_block, all measured inside the full-runtime window, so
    each initial condition is evolved and encoded only once."""
    if blocks < 2:
        raise ValueError("need at least two blocks to see a trend")
    return _exponent_sequence(rule, n, t_block, blocks, threads)


def least_squares_fit(seq):
    """Ordinary least squares line through (1, seq[0]), (2, seq[1]), ...;
    returns (intercept, slope)."""
    ys = [float(y) for y in seq]
    m = len(ys)
    if m < 2:
        raise ValueError("need at least two points to fit a line")
    xbar = (m + 1) / 2
    ybar = sum(ys) / m
    sxx = sum((i + 1 - xbar) ** 2 for i in range(m))
    sxy = sum((i + 1 - xbar) * (ys[i] - ybar) for i in range(m))
    slope = sxy / sxx
    return ybar - slope * xbar, slope


def transition_coefficient(rule, n=20, t_block=75, blocks=4, threads=None):
    """Slope of the least-squares line through the transition sequence."""
    return transition_record(rule, n, t_block, blocks, threads).C


def transition_record(rule, n=20, t_block=75, blocks=4, threads=None):
    """Full record for one rule: S_c, fitted line, coefficient."""
    seq = transition_sequence(rule, n, t_block, blocks, threads=threads)
    return TransitionRecord(rule, n, t_block, blocks, tuple(seq),
                            least_squares_fit(seq))


def interesting_initial_conditions(rule, count=10, t=600, blocks=12, m=30,
                                   threshold=1.0, threads=None):
    """The ``count`` initial-condition numbers at which the rule's profile
    jumps hardest, scanned over conditions 0..m-1 run up to ``t`` steps in
    ``blocks`` runtime blocks.

    Each condition's per-block lengths are step-normalized and averaged, so
    a jump must persist across runtimes to score.  A condition qualifies on
    the rise over either neighbor, ranked by size, returned ascending.
    Rules whose transition coefficient (over the same sweep) does not
    exceed ``threshold`` get a best-effort list and ``warning=True``.
    """
    t_block = _scan_block(count, t, blocks, m)
    per_ic = _sweep(rule, range(m), t_block, blocks, threads)
    agg = [
        sum(per_ic[j][b] / ((b + 1) * t_block) for b in range(blocks)) / blocks
        for j in range(m)
    ]
    ranked = sorted((-rise, j) for j, rise in enumerate(_rises(agg))
                    if rise > 0)
    ics = tuple(sorted(j for _, j in ranked[:count]))

    # Coefficient over the same sweep (conditions 1..m-1), reusing lengths.
    runtimes = [b * t_block for b in range(1, blocks + 1)]
    seq = _exponents(per_ic[1:], runtimes)
    coeff = least_squares_fit(seq)[1]
    return InterestingIcs(rule, ics, tuple(agg), coeff, threshold,
                          warning=not coeff > threshold)


@dataclass(frozen=True)
class CoefficientReport:
    """Transition coefficients for a rule set, sorted descending, with a
    largest-gap clustering of the coefficient values."""

    records: tuple
    clusters: tuple

    def to_csv(self):
        lines = ["rule,kind,colors,coefficient,cluster"]
        for rec, cl in zip(self.records, self.clusters):
            lines.append(
                f"{rec.rule.rule_number},{rec.rule.kind},{rec.rule.colors},"
                f"{format(rec.C, '.12g')},{cl}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self):
        doc = {
            "parameters": {
                "n": self.records[0].n,
                "t_block": self.records[0].t_block,
                "blocks": self.records[0].blocks,
                "compressor": COMPRESSOR["id"],
            },
            "entries": [
                dict(rec.to_dict(), cluster=cl)
                for rec, cl in zip(self.records, self.clusters)
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def coefficient_classification(rules, n=20, t_block=75, blocks=4,
                               threads=None):
    """Rank a rule set by transition coefficient (largest first) and split
    the coefficients into two groups at the largest gap."""
    rules = list(rules)
    if not rules:
        raise ValueError("rule set must be non-empty")
    records = _parallel_map(
        lambda r: transition_record(r, n, t_block, blocks), rules, threads)
    records.sort(key=lambda rec: (-rec.C, rec.rule.rule_number))
    k = min(2, len(set(rec.C for rec in records)))
    ids = cluster_1d([rec.C for rec in records], k)
    return CoefficientReport(tuple(records), tuple(ids))
