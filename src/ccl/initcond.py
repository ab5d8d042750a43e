"""Gray-code numbering of initial conditions.

Consecutive code words differ in exactly one bit, so walking the initial
conditions in numbering order changes a single cell at a time.  Every
condition carries a trailing 1 so that distinct numbers never alias once
embedded on an infinite zero background.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class InitialCondition:
    """A finite, non-empty run of cell values placed on a zero background."""

    cells: tuple

    def __post_init__(self):
        if len(self.cells) == 0:
            raise ValueError("initial condition must be non-empty")
        if any(not isinstance(c, int) or c < 0 for c in self.cells):
            raise ValueError("cells must be non-negative integers")

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


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


def initial_condition(n):
    """Initial condition number ``n``: its Gray code word with a 1 appended.
    Number 0 is the single black cell."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return InitialCondition((1,))
    return InitialCondition(tuple(gray_derivate(n)) + (1,))


def initial_condition_number(ic):
    """Recover the number of an initial condition; inverse of
    :func:`initial_condition`."""
    cells = tuple(ic)
    if not cells:
        raise ValueError("initial condition must be non-empty")
    if cells == (1,):
        return 0
    if cells[0] == 0 or cells[-1] != 1:
        raise ValueError("initial condition must start and end in 1")
    return gray_integrate(cells[:-1])
