"""Canonical serialization and compressed-length measurement.

The compressed length of a machine's evolution, under a fixed lossless
compressor, is the computable stand-in for its program-size complexity.
Everything here is pinned for byte-exact reproducibility: one canonical
byte encoding, one raw-DEFLATE parameter set, lengths in bytes.
"""

import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .automaton import evolve_ca, reached_states_sequence, state_sequence

# The pinned raw-DEFLATE (RFC 1951) parameters: a negative window_bits
# selects a headerless stream.  All shipped reference results were produced
# under this one set, and every report records its id.
COMPRESSOR = {"level": 6, "window_bits": -15, "mem_level": 8, "strategy": 0,
              "id": "deflate-l6w15s0m8"}


_DIGITS = bytes(range(10))  # the values 0..9; _ASCII maps each to its digit
_ASCII = bytes.maketrans(_DIGITS, b"0123456789")


@dataclass(frozen=True)
class ComplexityEstimate:
    raw_length: int
    compressed_length: int
    ratio: Fraction


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
    give the prefix's length.  DEFLATE output does not depend on how its
    input is split, so every length equals one-shot compression of the
    prefix byte for byte.  ``ends`` must be ascending.
    """
    co = _compressobj()
    view = memoryview(data)
    emitted = prev = 0
    out = []
    for end in ends:
        if end < prev:
            raise ValueError("prefix ends must be non-negative and ascending")
        emitted += len(co.compress(view[prev:end]))
        out.append(emitted + len(co.copy().flush()))
        prev = end
    return out


def encode_diagram(diagram):
    """Canonical byte form of a space-time diagram: row-major, one ASCII
    digit byte (0x30 + value) per cell, 0x0A after each row."""
    cells = diagram.cells
    if cells.size and cells.max() > 9:
        raise ValueError("canonical encoding supports cell values 0..9 only")
    out = np.empty((cells.shape[0], cells.shape[1] + 1), dtype=np.uint8)
    out[:, :-1] = cells + ord("0")
    out[:, -1] = ord("\n")
    return out.tobytes()


def encode_sequence(values):
    """Canonical byte form of a flat value sequence (a one-row diagram)."""
    values = list(values)  # bytes() of a numpy array reads its raw buffer
    try:
        raw = bytes(values)
    except ValueError:  # a value outside 0..255, so no digit either
        raw = b"\xff"
    if raw.translate(None, _DIGITS):
        raise ValueError("canonical encoding supports values 0..9 only")
    return raw.translate(_ASCII) + b"\n"


def _estimate(data):
    raw = len(data)
    comp = compressed_length(data)
    return ComplexityEstimate(raw, comp, Fraction(comp, raw) if raw else Fraction(0))


def _encoded_evolution(rule, init, steps, width=None):
    """Canonical encoding of a CA evolution; a rule with more colors than
    the encoding has digits is refused before it is evolved."""
    if rule.colors > 10:
        raise ValueError("canonical encoding supports at most 10 colors, "
                         f"not {rule.colors}")
    return encode_diagram(evolve_ca(rule, init, steps, width=width))


def ca_complexity(rule, init, steps):
    """Evolve, encode, compress.  ``raw_length`` is exactly
    (width + 1) * (steps + 1) bytes."""
    return _estimate(_encoded_evolution(rule, init, steps))


def tm_complexity(rule, steps, sequence="reached"):
    """Compress a Turing machine's state usage over time: ``"reached"``
    (default) feeds the cumulative distinct-state count per step,
    ``"states"`` the raw state at each step.  A machine with more states
    than the measure has digits for is refused before it is run.
    """
    if sequence == "reached":
        run, most = reached_states_sequence, 9
    elif sequence == "states":
        run, most = state_sequence, 10
    else:
        raise ValueError("sequence must be 'reached' or 'states'")
    if rule.states > most:
        raise ValueError(f"the {sequence} measure takes at most {most} states")
    return _estimate(encode_sequence(run(rule, steps)))
