"""Deterministic simulation of 1-D nearest-neighbor cellular automata and
small Turing machines.

Cellular automata run on a finite window wide enough that the radius-1
light cone never reaches the boundary, so the result is bit-identical to an
evolution on an unbounded tape.  Cells outside the window hold a uniform
background value that itself follows the rule (the image of the all-same
neighborhood), which keeps odd rules -- those that map the all-zero
neighborhood to a nonzero color -- free of artificial boundary wedges.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

CA = "CA"
TM = "TM"


@dataclass(frozen=True)
class RuleSpec:
    """Identifies one machine: a k-color radius-1 CA or an s-state k-color
    Turing machine, by its rule number."""

    kind: str
    colors: int
    rule_number: int
    states: int = 1

    def __post_init__(self):
        if self.kind not in (CA, TM):
            raise ValueError(f"unknown machine kind {self.kind!r}")
        if self.colors < 2:
            raise ValueError("colors must be >= 2")
        if self.kind == CA and self.states != 1:
            raise ValueError("CA rules have states = 1")
        if self.kind == TM and self.states < 1:
            raise ValueError("states must be >= 1")
        if self.rule_number < 0 or not self._space_exceeds(self.rule_number):
            base, digits = self._space
            raise ValueError(
                f"rule_number {self.rule_number} outside the "
                f"{base}**{digits}-rule space"
            )

    @property
    def _space(self):
        """(base, digits): rule numbers have ``digits`` digits in ``base``."""
        if self.kind == CA:
            return self.colors, self.colors ** 3
        return 2 * self.states * self.colors, self.states * self.colors

    @property
    def space_size(self):
        """Number of distinct rules of this shape."""
        base, digits = self._space
        return base ** digits

    def _space_exceeds(self, n):
        """Whether the space holds more than ``n`` rules.  The size has
        millions of digits at 300 colors; as 2**(digits*(b-1)) <= size <
        2**(digits*b) for a base of b bits, it is built only for an ``n`` of
        more than digits*(b-1) bits, and then has at most twice n's bits."""
        base, digits = self._space
        return (int(n).bit_length() <= digits * (base.bit_length() - 1)
                or n < base ** digits)

    @classmethod
    def eca(cls, number):
        """Binary radius-1 CA (rules 0..255)."""
        return cls(CA, 2, number)

    @classmethod
    def ca(cls, colors, number):
        return cls(CA, colors, number)

    @classmethod
    def tm(cls, states, colors, number):
        return cls(TM, colors, number, states)


@dataclass(frozen=True, eq=False)
class SpaceTimeDiagram:
    """Dense grid of cell values; row 0 is the initial condition, row j the
    state after j steps."""

    width: int
    cells: np.ndarray  # shape (rows, width), dtype uint8

    def __post_init__(self):
        if self.cells.ndim != 2 or self.cells.shape[1] != self.width:
            raise ValueError("cells must be a 2-D array of the stated width")

    @property
    def rows(self):
        return self.cells.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SpaceTimeDiagram):
            return NotImplemented
        return self.width == other.width and np.array_equal(
            self.cells, other.cells
        )


def _rule_table(rule):
    """Base-k digits of the rule number, entry n giving the image of the
    neighborhood whose base-k index is n."""
    table = np.zeros(rule.colors ** 3, dtype=np.uint8)
    n, i = rule.rule_number, 0
    while n:  # only the digits the number has; the rest stay 0
        n, table[i] = divmod(n, rule.colors)
        i += 1
    return table


def _evolve_lookup(rule, init, steps, width):
    """Table-lookup evolution for any k; one numpy pass per step."""
    k = rule.colors
    table = _rule_table(rule)
    out = np.zeros((steps + 1, width), dtype=np.uint8)
    off = (width - len(init)) // 2
    out[0, off : off + len(init)] = init
    bg = 0
    row = out[0].astype(np.int64)
    padded = np.empty(width + 2, dtype=np.int64)
    for j in range(steps):
        padded[0] = padded[-1] = bg
        padded[1:-1] = row
        idx = padded[:-2] * (k * k) + padded[1:-1] * k + padded[2:]
        row = table[idx].astype(np.int64)
        out[j + 1] = row
        bg = int(table[bg * (k * k + k + 1)])
    return out


def _evolve_bits(rule_number, init, steps, width):
    """Binary-rule evolution on Python integers, one bit per cell.

    Each of the eight neighborhood patterns contributes one mask term, so a
    step is a handful of word-wide boolean operations regardless of width.
    Returns the list of row integers (bit i = cell i).
    """
    x = 0
    off = (width - len(init)) // 2
    for i, c in enumerate(init):
        if c:
            x |= 1 << (off + i)
    mask = (1 << width) - 1
    outs = [(rule_number >> p) & 1 for p in range(8)]
    rows = [x]
    bg = 0
    for _ in range(steps):
        left = ((x << 1) & mask) | bg
        right = (x >> 1) | (bg << (width - 1))
        y = 0
        for p in range(8):
            if outs[p]:
                l, c, r = (p >> 2) & 1, (p >> 1) & 1, p & 1
                term = (
                    (left if l else ~left)
                    & (x if c else ~x)
                    & (right if r else ~right)
                )
                y |= term
        x = y & mask
        bg = outs[7] if bg else outs[0]
        rows.append(x)
    return rows


def _bits_to_cells(rows, width):
    """Cell array of row integers (bit i = cell i), one row per integer."""
    nbytes = (width + 7) // 8
    packed = np.frombuffer(
        b"".join(x.to_bytes(nbytes, "little") for x in rows), dtype=np.uint8
    ).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def evolve_ca(rule, init, steps, width=None):
    """Evolve ``rule`` from ``init`` (centered on a zero background) for
    ``steps`` steps.

    The window defaults to ``len(init) + 2*(steps+1)`` cells so that edge
    effects cannot occur; a wider ``width`` may be requested, which leaves
    every cell value unchanged and merely pads the rows.
    """
    if rule.kind != CA:
        raise ValueError("evolve_ca needs a CA rule")
    if rule.colors > 256:
        raise ValueError("evolve_ca supports at most 256 colors")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    cells = list(init)
    if not cells:
        raise ValueError("initial condition must be non-empty")
    # ``in range`` compares a non-int by value: 1.0 and uint8 1 pass, while
    # 1.7 and "1" are refused instead of truncated or parsed.
    if not all(c in range(rule.colors) for c in cells):
        raise ValueError(
            f"cell values must be integers in [0, {rule.colors})")
    cells = [int(c) for c in cells]
    min_width = len(cells) + 2 * (steps + 1)
    if width is None:
        width = min_width
    elif width < min_width:
        raise ValueError(f"width must be >= {min_width}")
    if rule.colors == 2:
        grid = _bits_to_cells(
            _evolve_bits(rule.rule_number, cells, steps, width), width
        )
    else:
        grid = _evolve_lookup(rule, cells, steps, width)
    return SpaceTimeDiagram(width, grid)


def _run(rule):
    """Yield the state of ``rule`` at each step 0, 1, ... from the blank
    tape; end once the state can never change again.

    Digit state*k + color of the rule number in base 2*s*k (s*k digits,
    most significant first) is new_state*(2k) + new_color*2 + (0 if the
    head moves right else 1).  The run ends when the head is on a cell it
    has never left (so blank) and the (state, blank) action keeps the state
    and moves away from all cells left so far, as it then does forever.
    At step 0 no cell has been left, so either move counts.
    """
    if rule.kind != TM:
        raise ValueError("expected a TM rule")
    k, n = rule.colors, rule.rule_number
    base, last = 2 * rule.states * k, rule.states * k - 1
    actions, tape, head, state = {}, {}, 0, 0
    lo, hi = 1, -1  # the cells the head has left: none yet
    while True:
        yield state
        i = state * k + tape.get(head, 0)
        if i not in actions:
            d = n // base ** (last - i) % base
            actions[i] = (d // (2 * k), d // 2 % k, 1 - d % 2 * 2)
        new_state, tape[head], move = actions[i]
        if new_state == state and (head > hi if move > 0 else head < lo):
            return
        lo, hi = min(lo, head), max(hi, head)
        head += move
        state = new_state


def reached_states_sequence(rule, steps):
    """Run ``rule`` from the blank tape and report, for each step j in
    0..steps, how many distinct states have been visited so far.

    The sequence starts at 1 (the start state), never decreases, and is
    bounded by the state count.  It is the object whose compressed length
    stands in for the machine's complexity.  The count steps up by one at
    the first occurrence of each state in :func:`state_sequence`, so the
    run stops once every state has occurred.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    firsts = {}
    for step, state in zip(range(steps + 1), _run(rule)):
        firsts.setdefault(state, step)
        if len(firsts) == rule.states:
            break
    out = []
    for count, end in enumerate([*firsts.values(), steps + 1]):
        out += [count] * (end - len(out))
    return out


def state_sequence(rule, steps):
    """The raw state occupied at each step 0..steps of ``rule`` run from
    the blank tape; a settled state is repeated to the last step."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = list(islice(_run(rule), steps + 1))
    return out + out[-1:] * (steps + 1 - len(out))
