"""Ranking and clustering of rule spaces by compressed length.

Sorting rules by the compressed length of their evolutions orders them
roughly from trivial to chaotic; a one-dimensional largest-gap split of
those lengths recovers the simple/complex behavioral divide.
"""

import random
import sys
from collections import namedtuple

from .automaton import CA, TM, RuleSpec
from .complexity import _grid, _raw_length


ClassificationEntry = namedtuple("ClassificationEntry",
                                 "rule c_raw c_compressed cluster")


def rank_rules(rules, init, steps, threads=None, split_levels=1):
    """The rules' :class:`ClassificationEntry` tuple, ranked by compressed
    length, ascending with ties by rule number, and clustered in two at the
    largest gap; ``split_levels=2`` splits the high cluster again: ids 0, 1, 2.

    The lengths are the grid of one initial condition and one block of
    ``steps``, whose cells come back in input order, so worker processes
    never change the report.
    """
    if split_levels not in (1, 2):
        raise ValueError("split_levels must be 1 or 2")
    rules = list(rules)
    if not rules:
        raise ValueError("rule set must be non-empty")
    init = tuple(init)
    grid = _grid(rules, [init], steps, 1, threads)
    ranked = sorted(zip((table[0][0] for table in grid), rules),
                    key=lambda p: (p[0], p[1].rule_number))
    lengths = [c for c, _ in ranked]
    ids = cluster_1d(lengths)
    if split_levels == 2 and 1 in ids:
        # ascending lengths put cluster 1 at the end of the ranking
        cut = ids.index(1)
        ids[cut:] = [1 + i for i in cluster_1d(lengths[cut:])]
    c_raw = _raw_length(init, steps)
    return tuple(ClassificationEntry(r, c_raw, c, i)
                 for (c, r), i in zip(ranked, ids))


def cluster_1d(values):
    """Split numbers in two at the largest gap in sorted order, the
    leftmost one on a tie: id 0 below the cut, 1 above, in input order.
    Every id is 0 when all values are equal."""
    vals = list(values)
    if not vals:
        raise ValueError("values must be non-empty")
    distinct = sorted(set(vals))
    if len(distinct) == 1:
        return [0] * len(vals)
    cut = max(range(len(distinct) - 1),
              key=lambda i: distinct[i + 1] - distinct[i])
    return [int(v > distinct[cut]) for v in vals]


def classify_eca(steps=200, threads=None, split_levels=1):
    """Rank all 256 binary rules from the single black cell and split the
    compressed lengths into a low (simple, periodic) and a high (chaotic,
    complex) cluster; ``split_levels`` as in :func:`rank_rules`.
    """
    return rank_rules([RuleSpec.eca(n) for n in range(256)], (1,), steps,
                      threads, split_levels)


def sample_rule_space(kind, colors, states, size, seed):
    """Seeded uniform sample (without replacement) of rule numbers from one
    machine space, sorted; a space of more than 10**4300 rules, whose
    numbers Python cannot print, is refused."""
    if size < 1:
        raise ValueError("sample size must be >= 1")
    states = states if kind == TM else 1
    shape = RuleSpec(kind, colors, 0, states)
    digits = sys.int_info.default_max_str_digits
    if shape._space_exceeds(10 ** digits):
        raise ValueError(
            f"cannot sample a space of more than 10**{digits} rules")
    if not shape._space_exceeds(size - 1):
        raise ValueError(
            f"sample size {size} exceeds space size {shape.space_size}")
    rng, n = random.Random(seed), shape.space_size
    if n <= sys.maxsize:
        numbers = rng.sample(range(n), size)
    else:  # a range this long has no len: random.sample's large-n branch
        numbers = set()
        while len(numbers) < size:
            numbers.add(rng.randrange(n))
    return sorted(numbers)
