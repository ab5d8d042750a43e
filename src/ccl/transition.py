"""Phase-transition machinery over Gray-coded initial conditions.

A rule is probed by evolving it from consecutive numbered initial
conditions (which differ by a single cell) and watching how the compressed
length of the evolution jumps.  The characteristic exponent summarizes one
sweep, its growth across longer runtimes is fitted by a line, and the slope
of that line -- the transition coefficient -- ranks rules by how sensitive
they are to their initial condition.

Every sweep -- a profile, an exponent, a transition sequence, a scan, a
coefficient classification -- is one measurement grid
(``complexity._grid``): rules by initial conditions by runtime blocks, all
in a common window sized for the longest condition and the full runtime,
each runtime block a row prefix of the same evolution.  Both choices remove
compressor artifacts that have nothing to do with the dynamics: varying
window widths or restarts at different widths can shift match lengths
inside the compressor and fake jumps between otherwise identical regimes.
Exponents and spikes come from one aggregation and one neighbour-rise rule
over a rule's table of lengths (initial conditions by runtime blocks).
"""

import math
from collections import namedtuple

from .classify import cluster_1d
from .complexity import _grid
from .initcond import initial_condition


class TransitionRecord(namedtuple("TransitionRecord", "rule S_c fit")):
    """One rule's characteristic-exponent sequence over growing runtimes,
    its fitted line (intercept, slope), and the coefficient C (= fitted
    slope)."""

    __slots__ = ()

    @property
    def C(self):
        return self.fit[1]


InterestingIcs = namedtuple("InterestingIcs", "ics profile coefficient")
InterestingIcs.__doc__ = """Initial-condition numbers with the sharpest
profile jumps for one rule, its aggregated score profile and its transition
coefficient."""


def _sweep(rules, numbers, t_block, blocks, threads=None):
    """The grid of ``rules`` over initial conditions ``numbers``."""
    return _grid(rules, [initial_condition(j) for j in numbers], t_block,
                 blocks, threads)


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


def _exponents(table, t_block):
    """Characteristic exponent of each column of a lengths table (rows:
    consecutive initial conditions, column b: runtime (b+1)*t_block): the
    mean absolute difference between successive rows, divided by that
    column's runtime."""
    out = []
    for b in range(len(table[0])):
        diffs = [abs(hi[b] - lo[b]) for lo, hi in zip(table, table[1:])]
        out.append(sum(diffs) / len(diffs) / ((b + 1) * t_block))
    return out


def ic_profile(rule, m, steps, threads=None):
    """Tuple of the compressed lengths of ``rule``'s evolution from initial
    conditions 0..m-1, each run for ``steps`` steps in the common window."""
    if m < 1:
        raise ValueError("need at least one initial condition")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    [table] = _sweep([rule], range(m), steps, 1, threads)
    return tuple(row[0] for row in table)


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
    vals = list(profile)
    if len(vals) < 2:
        return []
    import statistics  # ~1 ms plus fractions; only spikes need it
    diffs = [hi - lo for lo, hi in zip(vals, vals[1:])]
    med = statistics.median(diffs)
    mad = statistics.median(abs(d - med) for d in diffs)
    return [j for j, rise in enumerate(_rises(vals)) if rise > q * mad]


def _exponent_sequences(rules, n, t_block, blocks, threads=None):
    """Characteristic exponents of each rule over initial conditions 1..n
    at runtimes t_block, 2*t_block, ..., blocks*t_block, from one grid."""
    if n < 2:
        raise ValueError("need at least two initial conditions")
    if t_block < 1:
        raise ValueError("t_block must be >= 1")
    return [_exponents(table, t_block)
            for table in _sweep(rules, range(1, n + 1), t_block, blocks,
                                threads)]


def characteristic_exponent(rule, n, steps):
    """Mean absolute successive difference of compressed lengths over
    initial conditions 1..n, divided by the runtime ``steps``.  Values
    above 1 signal a phase transition."""
    return _exponent_sequences([rule], n, steps, 1)[0][0]


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


def transition_record(rule, n=20, t_block=75, blocks=4, threads=None):
    """The :class:`TransitionRecord` of one rule.  ``S_c`` is its transition
    sequence: the characteristic exponents over initial conditions 1..n at
    runtimes t_block, 2*t_block, ..., blocks*t_block, each a row prefix of
    one evolution per condition.  ``C`` is the transition coefficient, the
    slope of the least-squares line ``fit`` through ``S_c``."""
    return coefficient_classification([rule], n, t_block, blocks,
                                      threads).records[0]


def interesting_initial_conditions(rule, count=10, t=600, blocks=12, m=30,
                                   threads=None):
    """The ``count`` initial-condition numbers at which the rule's profile
    jumps hardest, scanned over conditions 0..m-1 run up to ``t`` steps in
    ``blocks`` runtime blocks.

    Each condition's per-block lengths are step-normalized and averaged, so
    a jump must persist across runtimes to score.  A condition qualifies on
    the rise over either neighbor, ranked by size, returned ascending.
    ``coefficient`` is the rule's transition coefficient over the same
    sweep; a rule without a phase transition gets a best-effort list.
    """
    t_block = _scan_block(count, t, blocks, m)
    [per_ic] = _sweep([rule], range(m), t_block, blocks, threads)
    agg = [
        sum(per_ic[j][b] / ((b + 1) * t_block) for b in range(blocks)) / blocks
        for j in range(m)
    ]
    ranked = sorted((-rise, j) for j, rise in enumerate(_rises(agg))
                    if rise > 0)
    ics = tuple(sorted(j for _, j in ranked[:count]))

    # Coefficient over the same sweep (conditions 1..m-1), reusing lengths.
    coeff = least_squares_fit(_exponents(per_ic[1:], t_block))[1]
    return InterestingIcs(ics, tuple(agg), coeff)


CoefficientReport = namedtuple("CoefficientReport", "records clusters")
CoefficientReport.__doc__ = """Transition coefficients for a rule set, sorted
descending, with a largest-gap clustering of the coefficient values."""


def coefficient_classification(rules, n=20, t_block=75, blocks=4,
                               threads=None):
    """Rank a rule set by transition coefficient (largest first) and split
    the coefficients into two groups at the largest gap."""
    rules = list(rules)
    if not rules:
        raise ValueError("rule set must be non-empty")
    if blocks < 2:
        raise ValueError("need at least two blocks to see a trend")
    seqs = _exponent_sequences(rules, n, t_block, blocks, threads)
    records = [TransitionRecord(rule, tuple(seq), least_squares_fit(seq))
               for rule, seq in zip(rules, seqs)]
    records.sort(key=lambda rec: (-rec.C, rec.rule.rule_number))
    ids = cluster_1d(rec.C for rec in records)
    return CoefficientReport(tuple(records), tuple(ids))
