"""Slow, per-step reference machines used only by the tests.

Each oracle decodes its rule number from the documented digit layout on its
own, one cell or one step at a time, so that the package's fast runners
(the bit-parallel binary CA kernel, which steps a row by the rule's two
centre-split functions, the byte-row kernel for more colors, and the
Turing-machine state runner) are checked against code that shares none of
their tables or loops.
``neighborhoods`` lists the neighborhood indices a ``ca_step`` reads, the
oracle of the bit kernel's ``reads`` mask.
``mirror`` reflects a CA rule left to right, which reverses the columns of
every evolution from the reversed initial condition.
``gray_derivate`` and ``gray_integrate`` are the paper's digit-wise
definitions of the Gray-code numbering of initial conditions, and
``damerau_levenshtein`` is the edit distance the Gray-code tests measure
neighbouring initial conditions with.
``two_level_clusters`` is the two-level largest-gap split, built from two
plain :func:`ccl.cluster_1d` calls.
"""

from dataclasses import dataclass

import numpy as np

from ccl import CA, TM, RuleSpec, cluster_1d


def neighborhoods(row, rule, background=0):
    """The base-k index l*k*k + c*k + r of each cell's neighborhood
    (l, c, r) in one synchronous update of ``row`` by a radius-1 CA rule.

    Cells just outside the row are taken to hold ``background`` (0 by
    default).  The indices are the digits of the rule number a step reads.
    """
    if rule.kind != CA:
        raise ValueError("a CA step needs a CA rule")
    row = [int(c) for c in row]
    if len(row) < 3:
        raise ValueError("row must hold at least 3 cells")
    k = rule.colors
    if not all(0 <= c < k for c in row):
        raise ValueError(f"cell values must lie in [0, {k})")
    if not 0 <= background < k:
        raise ValueError(f"background must lie in [0, {k})")
    padded = [background] + row + [background]
    return [l * k * k + c * k + r
            for l, c, r in zip(padded, padded[1:], padded[2:])]


def ca_step(row, rule, background=0):
    """Apply one synchronous update of a radius-1 CA rule to a row.

    Cells just outside the row are taken to hold ``background`` (0 by
    default).  Output has the same length as the input.  The image of the
    neighborhood (l, c, r) is base-k digit l*k*k + c*k + r of the rule
    number.
    """
    k = rule.colors
    return np.array([rule.rule_number // k ** i % k
                     for i in neighborhoods(row, rule, background)],
                    dtype=np.uint8)


def mirror(rule):
    """The CA rule whose image of the neighborhood (l, c, r) is ``rule``'s
    image of (r, c, l), built digit by digit from the rule number."""
    k = rule.colors
    number = 0
    for l in range(k):
        for c in range(k):
            for r in range(k):
                image = rule.rule_number // k ** (r * k * k + c * k + l) % k
                number += image * k ** (l * k * k + c * k + r)
    return RuleSpec.ca(k, number)


@dataclass(frozen=True)
class TmConfiguration:
    """Tape (sparse map position -> color, 0 elsewhere), head position, and
    machine state."""

    tape: dict
    head: int
    state: int


BLANK_TM = TmConfiguration(tape={}, head=0, state=0)


def tm_step(cfg, rule):
    """One Turing-machine step: read, write, move, switch state.

    The rule number written in base 2*s*k has s*k digits, most significant
    first; digit state*k + color is new_state*(2k) + new_color*2 + (0 to
    move right, 1 to move left).
    """
    if rule.kind != TM:
        raise ValueError("expected a TM rule")
    s, k = rule.states, rule.colors
    base = 2 * s * k
    color = cfg.tape.get(cfg.head, 0)
    position = s * k - 1 - (cfg.state * k + color)
    digit = rule.rule_number // base ** position % base
    new_state, rest = divmod(digit, 2 * k)
    new_color, left = divmod(rest, 2)
    tape = dict(cfg.tape)
    if new_color:
        tape[cfg.head] = new_color
    else:
        tape.pop(cfg.head, None)
    return TmConfiguration(tape, cfg.head + (-1 if left else 1), new_state)


def damerau_levenshtein(u, v):
    """Edit distance counting single-element insertions, deletions,
    substitutions, and adjacent transpositions (restricted variant).

    Standard dynamic program over a (len(u)+1) x (len(v)+1) table; the
    transposition case reaches back two rows and two columns.
    """
    u = list(u)
    v = list(v)
    m, n = len(u), len(v)
    prev2 = None
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            cost = 0 if u[i - 1] == v[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (
                i > 1
                and j > 1
                and u[i - 1] == v[j - 2]
                and u[i - 2] == v[j - 1]
            ):
                cur[j] = min(cur[j], prev2[j - 2] + 1)
        prev2, prev = prev, cur
    return prev[n]


def gray_derivate(n):
    """Gray code word for ``n``: keep the leading binary digit, then emit the
    mod-2 sum of each adjacent digit pair.  Returns a list of bits, most
    significant first; ``[0]`` for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [0]
    digits = [int(ch) for ch in bin(n)[2:]]
    out = [digits[0]]
    for i in range(1, len(digits)):
        out.append((digits[i - 1] + digits[i]) % 2)
    return out


def gray_integrate(bits):
    """Inverse of :func:`gray_derivate`: running mod-2 prefix sums of the code
    word read back as binary digits."""
    bits = list(bits)
    if not bits:
        raise ValueError("bit sequence must be non-empty")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("sequence may contain only bits")
    n = 0
    acc = 0
    for b in bits:
        acc = (acc + b) % 2
        n = 2 * n + acc
    return n


def two_level_clusters(values):
    """Cluster ids, in input order, of a largest-gap split of ``values``
    whose high cluster is split again: 0 for the low cluster and 1 + the
    id of the second split for the high one."""
    ids = cluster_1d(values)
    high = [v for v, i in zip(values, ids) if i == 1]
    second = iter(cluster_1d(high) if high else [])
    return [1 + next(second) if i else 0 for i in ids]
