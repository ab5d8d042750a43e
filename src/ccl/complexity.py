"""Canonical serialization and compressed-length measurement.

The compressed length of a machine's evolution, under a fixed lossless
compressor, is the computable stand-in for its program-size complexity.
Everything here is pinned for byte-exact reproducibility: one canonical
byte encoding, one raw-DEFLATE parameter set, lengths in bytes.
"""

import os
import zlib
from collections import namedtuple
from functools import partial

from .automaton import (TM, RuleSpec, _evolve_bits, _first_visits,
                        evolve_ca, reached_states_sequence)

# The pinned raw-DEFLATE (RFC 1951) parameters: a negative window_bits
# selects a headerless stream.  All shipped reference results were produced
# under this one set, and every report records its id.
COMPRESSOR = {"level": 6, "window_bits": -15, "mem_level": 8, "strategy": 0,
              "id": "deflate-l6w15s0m8"}


_DIGITS = bytes(range(10))  # the values 0..9; _ASCII maps each to its digit
_ASCII = bytes.maketrans(_DIGITS, b"0123456789")


class ComplexityEstimate(namedtuple("ComplexityEstimate",
                                    "raw_length compressed_length")):
    __slots__ = ()

    @property
    def ratio(self):
        from fractions import Fraction  # ~3 ms with decimal; ratios only
        return Fraction(self.compressed_length, self.raw_length)


def _compressobj():
    c = COMPRESSOR
    return zlib.compressobj(c["level"], zlib.DEFLATED, c["window_bits"],
                            c["mem_level"], c["strategy"])


def deflate(data):
    """Raw DEFLATE stream of ``data`` under the pinned compressor."""
    co = _compressobj()
    return co.compress(data) + co.flush()


def compressed_length(data):
    """Length in bytes of the raw DEFLATE stream for ``data``."""
    return len(deflate(data))


def prefix_compressed_lengths(data, ends):
    """``[compressed_length(data[:e]) for e in ends]`` from one stream.

    ``data`` is fed once, in order, to a single compressor; at each end the
    bytes emitted so far plus the flush of a copy of the compressor state
    give the prefix's length; the last end flushes the stream itself.
    DEFLATE output does not depend on how its input is split, so every
    length equals one-shot compression of the prefix byte for byte.
    ``ends`` must be ascending.
    """
    co = _compressobj()
    view = memoryview(data)
    emitted = prev = 0
    out = []
    ends = list(ends)
    for i, end in enumerate(ends, 1):
        if end < prev:
            raise ValueError("prefix ends must be non-negative and ascending")
        emitted += len(co.compress(view[prev:end]))
        last = i == len(ends)
        out.append(emitted + len((co if last else co.copy()).flush()))
        prev = end
    return out


def encode_diagram(diagram):
    """Canonical byte form of a space-time diagram: row-major, one ASCII
    digit byte (0x30 + value) per cell, 0x0A after each row."""
    cells = diagram.cells
    if cells.size and cells.max() > 9:
        raise ValueError("canonical encoding supports cell values 0..9 only")
    import numpy as np
    out = np.empty((cells.shape[0], cells.shape[1] + 1), dtype=np.uint8)
    out[:, :-1] = cells + ord("0")
    out[:, -1] = ord("\n")
    return out.tobytes()


def encode_sequence(values):
    """Canonical byte form of a flat value sequence (a one-row diagram)."""
    values = list(values)  # bytes() of a numpy array reads its raw buffer
    try:
        raw = bytes(values)
    except (TypeError, ValueError):  # not a byte, so no digit either
        raw = b"\xff"
    if raw.translate(None, _DIGITS):
        raise ValueError("canonical encoding supports values 0..9 only")
    return raw.translate(_ASCII) + b"\n"


def _parallel_map(fn, items, workers):
    """``[fn(x) for x in items]`` on up to ``workers`` forked worker
    processes, never more than there are CPUs or items; results keep the
    input order, and a worker's exception is raised here.  ``fn`` must be
    picklable.  Runs serially where ``fork`` is unavailable or a pool
    cannot start."""
    workers = min(workers or 1, os.cpu_count() or 1, len(items))
    if workers > 1:
        import multiprocessing  # 15-22 ms with its pool; only a pool needs it
        try:
            pool = multiprocessing.get_context("fork").Pool(workers)
        except (ValueError, OSError):
            pass
        else:
            with pool:
                return pool.map(fn, items)
    return [fn(x) for x in items]


def _group(steps, width, ends, cells):
    """[(i, lengths)] of a :func:`_grid` group of cells (i, rule, IC)."""
    memo, out = {}, []  # binary: reads -> {number & reads: lengths}
    for i, rule, ic in cells:
        n = rule.rule_number
        known = [m[n & r] for r, m in memo.items() if n & r in m]
        if not known:
            diagram = evolve_ca(rule, ic, steps, width=width)
            known = [prefix_compressed_lengths(encode_diagram(diagram), ends)]
            if (reads := diagram._reads) is not None:
                memo.setdefault(reads, {})[n & reads] = known[0]
        out.append((i, list(known[0])))
    return out


def _grid(rules, ics, t_block, blocks, threads=None):
    """The one measurement: for each rule, its table of compressed lengths,
    one row per initial condition in ``ics`` and one column per runtime
    b*t_block, b = 1..blocks.

    All cells share one window, sized for the longest condition and the
    full runtime; each evolution is compressed once and read off at its
    block row boundaries.  A cell's group, (colors, condition, rule number
    masked to the neighborhoods row 0 reads, or whole for k > 2), fixes
    row 1, so it holds every cell that could share the cell's diagram (see
    ``automaton``).  Whole groups map over ``threads`` worker processes.
    A Turing machine, more than 10 colors or negative steps are refused
    before any evolving, so a group cannot pass a machine off as a CA.
    """
    steps = t_block * blocks
    for rule in rules:
        if rule.kind == TM:
            raise ValueError("evolve_ca needs a CA rule")
        if rule.colors > 10:
            raise ValueError("canonical encoding supports at most 10 colors, "
                             f"not {rule.colors}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    width = max(map(len, ics)) + 2 * (steps + 1)
    ends = [(width + 1) * (b * t_block + 1) for b in range(1, blocks + 1)]
    ics = [tuple(ic) for ic in ics]
    row0 = {ic: _evolve_bits(0, ic, min(steps, 1), width)[1] for ic in ics}
    groups = {}
    for i, (rule, ic) in enumerate((r, ic) for r in rules for ic in ics):
        n = rule.rule_number & (row0[ic] if rule.colors == 2 else -1)
        groups.setdefault((rule.colors, ic, n), []).append((i, rule, ic))
    import numpy  # every cell needs it; loaded here, forked workers inherit it
    # Freeing 1 MiB lifts glibc's heap trim threshold: cells reuse the heap.
    numpy.empty(1 << 20, numpy.uint8)
    out = [c for _, c in sorted(cell for group in _parallel_map(partial(
        _group, steps, width, ends), list(groups.values()), threads)
        for cell in group)]
    return [out[i:i + len(ics)] for i in range(0, len(out), len(ics))]


def _raw_length(init, steps):
    """Bytes in the encoding of the one-cell grid of ``init`` run for
    ``steps``: (width + 1) * (steps + 1), width = len(init) + 2*(steps + 1)."""
    return (len(init) + 2 * (steps + 1) + 1) * (steps + 1)


def ca_complexity(rule, init, steps):
    """Evolve, encode, compress: the one-cell grid.  ``raw_length`` is the
    encoding's length, (width + 1) * (steps + 1) bytes."""
    init = tuple(init)
    [[[comp]]] = _grid([rule], [init], steps, 1)
    return ComplexityEstimate(_raw_length(init, steps), comp)


def _reached_limits(states, steps):
    """Refuse a "reached" run before it starts: each count is one digit, so
    at most 9 states, and ``steps`` must be >= 0."""
    if states > 9:
        raise ValueError("the reached measure takes at most 9 states")
    if steps < 0:
        raise ValueError("steps must be >= 0")


def tm_complexity(rule, steps):
    """Compress a Turing machine's state usage over time: the cumulative
    distinct-state count per step.  A machine of more than 9 states is
    refused before it is run."""
    _reached_limits(rule.states, steps)
    data = encode_sequence(reached_states_sequence(rule, steps))
    return ComplexityEstimate(len(data), compressed_length(data))


def _tm_search(states, colors, numbers, steps, top):
    """The least ``top`` rows (-compressed length, number, raw length) of
    machines ``numbers`` of one shape.  A run is fixed by the action digits
    it reads, in read order: a machine is run only if no earlier run read
    the same.  Its first visits fix its sequence; each distinct one is
    measured once per call, on a RuleSpec built then.  Too many states or
    negative steps run no machine."""
    import heapq  # only a search needs it
    _reached_limits(states, steps)
    base, last = 2 * states * colors, states * colors - 1
    # Inner node {None: place value of the digit read next, digit: node},
    # leaf: first visits.  A run that reads a digit reads action 0 first;
    # one that reads none leaves the tree as it is.
    memo, root = {}, {None: base ** last}

    def rows():
        for n in numbers:
            key = root
            while type(key) is dict:
                key = key.get(n // key[None] % base)
            if key is None:
                key = _first_visits(states, colors, n, steps, read := {})
                places, node = [base ** (last - i) for i in read], root
                for place, then in zip(places, places[1:] + [0]):
                    node = node.setdefault(n // place % base,
                                           {None: then} if then else key)
            est = memo.get(key)
            if est is None:
                est = memo[key] = tm_complexity(
                    RuleSpec(TM, colors, n, states), steps)
            yield -est.compressed_length, n, est.raw_length
    return heapq.nsmallest(top, rows())
