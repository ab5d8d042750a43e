"""Deterministic simulation of 1-D nearest-neighbor cellular automata and
small Turing machines.

Cellular automata run on a finite window wide enough that the radius-1
light cone never reaches the boundary, so the result is bit-identical to an
evolution on an unbounded tape.  Cells outside the window hold a uniform
background value that itself follows the rule (the image of the all-same
neighborhood), which keeps odd rules -- those that map the all-zero
neighborhood to a nonzero color -- free of artificial boundary wedges.

Both kernels step every row.  The binary kernel also reports which of the
eight neighborhoods rows 0..steps-1 read.  With the rule's images on them
they fix the diagram: a rule with the same images there steps row 0 to the
same row 1, which then reads the same neighborhoods, and so on by
induction.  Every row reads the background's own neighborhood at its
margin.
"""

import operator
from collections import namedtuple
from itertools import islice

CA = "CA"
TM = "TM"


class RuleSpec(namedtuple("RuleSpec", "kind colors rule_number states",
                          defaults=(1,))):
    """Identifies one machine: a k-color radius-1 CA or an s-state k-color
    Turing machine, by its rule number."""

    __slots__ = ()

    def __new__(cls, kind, colors, rule_number, states=1):
        ints = {"colors": colors, "states": states, "rule_number": rule_number}
        for name, value in ints.items():
            try:  # numpy integers become ints, which never overflow
                ints[name] = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        self = super().__new__(cls, kind, **ints)
        if self.kind not in (CA, TM):
            raise ValueError(f"kind must be CA or TM, not {self.kind!r}")
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
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace is checked too
        return cls(*iterable)

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


class SpaceTimeDiagram:
    """Dense grid of cell values; row 0 is the initial condition, row j the
    state after j steps."""

    # cells: (rows, width) uint8, read-only from evolve_ca; _reads: the
    # read mask of a binary evolution (see _evolve_bits), else None
    __slots__ = ("_cells", "_reads")

    def __init__(self, width, cells, _reads=None):
        if cells.ndim != 2 or cells.shape[1] != width:
            raise ValueError("cells must be a 2-D array of the stated width")
        self._cells, self._reads = cells, _reads

    cells = property(lambda self: self._cells)
    width = property(lambda self: self._cells.shape[1])
    rows = property(lambda self: self._cells.shape[0])

    def __eq__(self, other):
        if not isinstance(other, SpaceTimeDiagram):
            return NotImplemented
        a, b = self.cells, other.cells  # the shape holds the width
        return a.shape == b.shape and bool((a == b).all())

    def __repr__(self):
        return f"SpaceTimeDiagram(width={self.width!r}, cells={self.cells!r})"


def _rule_table(rule):
    """Base-k digits of the rule number, byte n giving the image of the
    neighborhood whose base-k index is n."""
    table = bytearray(rule.colors ** 3)
    n, i = rule.rule_number, 0
    while n:  # only the digits the number has; the rest stay 0
        n, table[i] = divmod(n, rule.colors)
        i += 1
    return bytes(table)


# The 16 two-input boolean functions on bit rows, indexed by truth table:
# bit 2*l + r of the index is the image of (l, r).
_BOOL2 = (
    lambda l, r: 0, lambda l, r: ~(l | r), lambda l, r: ~l & r,
    lambda l, r: ~l, lambda l, r: l & ~r, lambda l, r: ~r,
    lambda l, r: l ^ r, lambda l, r: ~(l & r), lambda l, r: l & r,
    lambda l, r: ~(l ^ r), lambda l, r: r, lambda l, r: ~l | r,
    lambda l, r: l, lambda l, r: l | ~r, lambda l, r: l | r,
    lambda l, r: -1,
)


def _centre_split(rule_number):
    """(g0, g1): the binary rule's images of the outer cells (l, r) when
    the centre cell is 0 and when it is 1, as functions on bit rows."""
    return tuple(_BOOL2[sum(((rule_number >> (4 * l + 2 * c + r)) & 1)
                            << (2 * l + r) for l in (0, 1) for r in (0, 1))]
                 for c in (0, 1))


def _evolve_bits(rule_number, init, steps, width):
    """Binary-rule evolution on Python integers, one bit per cell.

    Every row is stepped: each cell takes g0 or g1 of its outer cells (see
    :func:`_centre_split`) as its centre is 0 or 1, so a step is a few
    word-wide boolean operations regardless of width.  Returns the list of
    row integers (bit i = cell i) and ``reads``, bit p set if pattern p
    occurs in rows 0..steps-1: row 0 has 0 at its margin, and a nonzero
    term proves its own pattern.  A rule with this one's images on them
    evolves the same rows, by induction.
    """
    x = 0
    off = (width - len(init)) // 2
    for i, c in enumerate(init):
        if c:
            x |= 1 << (off + i)
    mask = (1 << width) - 1
    g0, g1 = _centre_split(rule_number)
    unread = [(1 << p, (p >> 2) & 1, (p >> 1) & 1, p & 1) for p in range(1, 8)]
    rows, bg, reads = [x], 0, min(steps, 1)
    for _ in range(steps):
        left = ((x << 1) & mask) | bg
        right = (x >> 1) | (bg << (width - 1))
        for b, l, c, r in unread:  # only until all eight have been read
            if ((left if l else ~left) & (x if c else ~x)
                    & (right if r else ~right)):
                reads |= b
                unread = [u for u in unread if not reads & u[0]]
        f0 = g0(left, right)
        x = (f0 ^ (x & (f0 ^ g1(left, right)))) & mask
        rows.append(x)
        bg = (rule_number >> (7 if bg else 0)) & 1
    return rows, reads


def _bits_to_cells(rows, width):
    """Cell array of row integers (bit i = cell i), one row per integer."""
    import numpy as np  # 80-100 ms; only a run that builds an array needs it
    nbytes = (width + 7) // 8
    packed = np.frombuffer(
        b"".join(x.to_bytes(nbytes, "little") for x in rows), dtype=np.uint8
    ).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def _evolve_bytes(rule, init, steps, width):
    """Evolution for any k > 2 on ``bytes`` rows, one cell per byte.

    For k <= 6 a step reads the row and its two one-cell shifts as
    big-endian integers L, C and R; k*k*L + k*C + R holds each cell's
    neighborhood index in its own byte, as k**3 <= 256 leaves no carries,
    and one ``translate`` maps the indices to images.  Larger k index the
    table with numpy.  Every row is stepped, as keying a row to find a
    shift-repeat costs more than this step.  Returns the list of rows.
    """
    k = rule.colors
    table = _rule_table(rule)
    off = (width - len(init)) // 2
    row = bytes(off) + bytes(init) + bytes(width - off - len(init))
    if k ** 3 <= 256:
        images = table.ljust(256, b"\0")
        mask, top = (1 << 8 * width) - 1, 8 * (width - 1)

        def cells(row, bg):
            c = int.from_bytes(row, "big")
            l, r = (c >> 8) | (bg << top), ((c << 8) & mask) | bg
            return (k * k * l + k * c + r).to_bytes(width, "big").translate(
                images)
    else:
        import numpy as np
        images = np.frombuffer(table, dtype=np.uint8)

        def cells(row, bg):
            edge = bytes((bg,))
            a = np.frombuffer(edge + row + edge, np.uint8).astype(np.intp)
            return images[(a[:-2] * k + a[1:-1]) * k + a[2:]].tobytes()

    rows, bg = [row], 0
    for _ in range(steps):
        row, bg = cells(row, bg), table[bg * (k * k + k + 1)]
        rows.append(row)
    return rows


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
        rows, reads = _evolve_bits(rule.rule_number, cells, steps, width)
        grid = _bits_to_cells(rows, width)
    else:
        import numpy as np
        rows, reads = b"".join(_evolve_bytes(rule, cells, steps, width)), None
        grid = np.frombuffer(rows, np.uint8).reshape(steps + 1, width)
    grid.flags.writeable = False  # read-only for every color class
    return SpaceTimeDiagram(width, grid, reads)


def _tm(rule, steps):
    """The runner's arguments for a TM rule run for ``steps`` >= 0."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if rule.kind != TM:
        raise ValueError("expected a TM rule")
    return rule.states, rule.colors, rule.rule_number


def _run(states, colors, number, actions=None):
    """Yield the state of machine ``number`` of the (states, colors) space
    at each step 0, 1, ... from the blank tape; end once the state can
    never change again.  ``actions``, if given, gains each action read,
    keyed by its digit's index, in read order.

    Digit state*k + color of the rule number in base 2*s*k (s*k digits,
    most significant first) is new_state*(2k) + new_color*2 + (0 if the
    head moves right else 1).  The run ends when the head is on a cell it
    has never left (so blank) and the (state, blank) action keeps the state
    and moves away from all cells left so far, as it then does forever.
    At step 0 no cell has been left, so either move counts.
    """
    k, base, last = colors, 2 * states * colors, states * colors - 1
    actions, tape, head, state = ({} if actions is None else actions), {}, 0, 0
    lo, hi = 1, -1  # the cells the head has left: none yet
    while True:
        yield state
        i = state * k + tape.get(head, 0)
        if i not in actions:
            d = number // base ** (last - i) % base
            actions[i] = (d // (2 * k), d // 2 % k, 1 - d % 2 * 2)
        new_state, tape[head], move = actions[i]
        if new_state == state and (head > hi if move > 0 else head < lo):
            return
        lo, hi = (head if head < lo else lo), (head if head > hi else hi)
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
    out = []
    for count, end in enumerate([*_first_visits(*_tm(rule, steps), steps),
                                 steps + 1]):
        out += [count] * (end - len(out))
    return out


def _first_visits(states, colors, number, steps, actions=None):
    """The step at which machine ``number`` of the (states, colors) space
    first visits each state in 0..steps, from the blank tape; for one
    ``steps`` they fix the reached sequence.  ``actions`` is ``_run``'s."""
    firsts = {}
    run = islice(_run(states, colors, number, actions), steps + 1)
    for step, state in enumerate(run):
        if state not in firsts:
            firsts[state] = step
            if len(firsts) == states:
                break
    return tuple(firsts.values())


def state_sequence(rule, steps):
    """The raw state occupied at each step 0..steps of ``rule`` run from
    the blank tape; a settled state is repeated to the last step."""
    out = list(islice(_run(*_tm(rule, steps)), steps + 1))
    return out + out[-1:] * (steps + 1 - len(out))
