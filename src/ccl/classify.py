"""Ranking and clustering of rule spaces by compressed length.

Sorting rules by the compressed length of their evolutions orders them
roughly from trivial to chaotic; a one-dimensional largest-gap split of
those lengths recovers the simple/complex behavioral divide.
"""

import json
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .automaton import CA, TM, RuleSpec
from .complexity import COMPRESSOR, ca_complexity


@dataclass(frozen=True)
class ClassificationEntry:
    rule: RuleSpec
    c_raw: int
    c_compressed: int
    cluster: int


@dataclass(frozen=True)
class ClassificationReport:
    """Per-rule compressed lengths with cluster assignments, sorted by
    compressed length ascending (ties by rule number); cluster ids are
    dense from 0 and ordered by cluster mean."""

    entries: tuple
    steps: int
    init: tuple

    def to_csv(self):
        lines = ["rule,kind,colors,c_raw,c_compressed,cluster"]
        for e in self.entries:
            lines.append(
                f"{e.rule.rule_number},{e.rule.kind},{e.rule.colors},"
                f"{e.c_raw},{e.c_compressed},{e.cluster}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self):
        doc = {
            "parameters": {
                "steps": self.steps,
                "init": list(self.init),
                "compressor": COMPRESSOR["id"],
            },
            "entries": [
                {
                    "rule": e.rule.rule_number,
                    "kind": e.rule.kind,
                    "colors": e.rule.colors,
                    "c_raw": e.c_raw,
                    "c_compressed": e.c_compressed,
                    "cluster": e.cluster,
                }
                for e in self.entries
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def cluster_members(self, cluster):
        return [e.rule.rule_number for e in self.entries if e.cluster == cluster]


def _parallel_map(fn, items, threads):
    """``[fn(x) for x in items]`` on up to ``threads`` worker threads, never
    more than there are CPUs or items; results keep the input order."""
    items = list(items)
    workers = min(threads or 1, os.cpu_count() or 1, len(items))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def rank_rules(rules, init, steps, threads=None):
    """One entry per rule with its compressed length, ascending.

    Worker threads (if any) evaluate rules independently; results are
    gathered by index, so the report never depends on completion order.
    """
    rules = list(rules)
    if not rules:
        raise ValueError("rule set must be non-empty")
    init = tuple(int(c) for c in init)
    estimates = _parallel_map(lambda r: ca_complexity(r, init, steps),
                              rules, threads)
    pairs = sorted(
        zip(rules, estimates),
        key=lambda p: (p[1].compressed_length, p[0].rule_number),
    )
    entries = tuple(
        ClassificationEntry(r, est.raw_length, est.compressed_length, 0)
        for r, est in pairs
    )
    return ClassificationReport(entries, steps, init)


def cluster_1d(values, k):
    """Split numbers into ``k`` clusters by cutting the k-1 largest gaps in
    sorted order (equivalent to 1-D single-linkage agglomeration).

    Ties on gap size cut at the leftmost position.  Returned ids follow the
    input order; id 0 is the cluster with the smallest mean.
    """
    vals = list(values)
    if not vals:
        raise ValueError("values must be non-empty")
    if not 1 <= k <= len(set(vals)):
        raise ValueError("cluster count out of range")
    order = sorted(range(len(vals)), key=lambda i: (vals[i], i))
    svals = [vals[i] for i in order]
    gaps = sorted(
        ((-(svals[i + 1] - svals[i]), i) for i in range(len(svals) - 1))
    )
    cutset = {i for _, i in gaps[: k - 1]}
    out = [0] * len(vals)
    seg = 0
    for pos, idx in enumerate(order):
        out[idx] = seg
        if pos in cutset:
            seg += 1
    return out


def _recluster(report, k, only_cluster=None, base=0):
    """Re-run cluster_1d over (a subset of) a report's entries, returning new
    entries with ids offset by ``base``; an empty subset changes nothing."""
    entries = report.entries
    picked = [i for i, e in enumerate(entries)
              if only_cluster is None or e.cluster == only_cluster]
    if not picked:
        return entries
    values = [entries[i].c_compressed for i in picked]
    ids = cluster_1d(values, min(k, len(set(values))))
    relabel = {i: base + c for i, c in zip(picked, ids)}
    return tuple(
        ClassificationEntry(e.rule, e.c_raw, e.c_compressed,
                            relabel.get(i, e.cluster))
        for i, e in enumerate(entries)
    )


def with_clusters(report, k=2):
    """Cluster a ranked report's compressed lengths into (at most) ``k``
    largest-gap groups; fewer when there are not enough distinct values."""
    return ClassificationReport(_recluster(report, k), report.steps,
                                report.init)


def _classify(rules, init, steps, threads, split_levels):
    """The one classification path of :func:`classify_eca` and the CLI:
    rank, cluster, and with ``split_levels=2`` split the high cluster."""
    if split_levels not in (1, 2):
        raise ValueError("split_levels must be 1 or 2")
    report = with_clusters(rank_rules(rules, init, steps, threads))
    if split_levels == 2:
        report = ClassificationReport(
            _recluster(report, 2, only_cluster=1, base=1), report.steps,
            report.init)
    return report


def classify_eca(steps=200, threads=None, split_levels=1):
    """Rank all 256 binary rules from the single black cell and split the
    compressed lengths into a low (simple, periodic) and a high (chaotic,
    complex) cluster.

    ``split_levels=2`` additionally splits the high cluster in two, giving
    dense ids 0 (low), 1, and 2 (highest).
    """
    return _classify([RuleSpec.eca(n) for n in range(256)], (1,), steps,
                     threads, split_levels)


def sample_rule_space(kind, colors, states, size, seed):
    """Seeded uniform sample (without replacement) of rule numbers from one
    machine space, returned as RuleSpecs sorted by rule number."""
    if size < 1:
        raise ValueError("sample size must be >= 1")
    states = states if kind == TM else 1
    space = RuleSpec(kind, colors, 0, states).space_size
    if size > space:
        raise ValueError(f"sample size {size} exceeds space size {space}")
    if space > sys.maxsize:
        raise ValueError(
            f"cannot sample a space of more than {sys.maxsize} rules; "
            "give an explicit rule list"
        )
    rng = random.Random(seed)
    numbers = sorted(rng.sample(range(space), size))
    return [RuleSpec(kind, colors, n, states) for n in numbers]
