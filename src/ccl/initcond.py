"""Gray-code numbering of initial conditions.

Consecutive code words differ in exactly one bit, so walking the initial
conditions in numbering order changes a single cell at a time.  Every
condition ends in a 1, so distinct numbers never alias on a zero background.
"""


def initial_condition(n):
    """Cells of initial condition ``n``: the binary digits of its Gray code
    ``n ^ (n >> 1)``, then a 1.  Number 0 is the single black cell."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return (1,)
    return tuple(map(int, bin(n ^ (n >> 1))[2:])) + (1,)


def initial_condition_number(ic):
    """Inverse of :func:`initial_condition`: the running XOR of the cells
    before the last 1, read back as binary digits."""
    cells = tuple(ic)
    if not cells:
        raise ValueError("initial condition must be non-empty")
    if cells[0] == 0 or cells[-1] != 1:
        raise ValueError("initial condition must start and end in 1")
    if any(c not in (0, 1) for c in cells):
        raise ValueError("sequence may contain only bits")
    n = bit = 0
    for c in cells[:-1]:
        bit ^= int(c)
        n = 2 * n + bit
    return n
