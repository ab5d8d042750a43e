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


@dataclass(frozen=True)
class CompressorConfig:
    """Pinned raw-DEFLATE (RFC 1951) parameters.

    ``window_bits`` is negative, which selects a headerless stream; the
    default level 6 with the dynamic-Huffman strategy is the set under
    which all shipped reference results were produced.  Change it and
    rankings may shift, which is why every report records ``config_id``.
    """

    level: int = 6
    window_bits: int = -15
    mem_level: int = 8
    strategy: int = 0

    def __post_init__(self):
        # The ranges zlib accepts; window_bits is negative for a raw stream.
        for name, low, high in (("level", 0, 9), ("window_bits", -15, -9),
                                ("mem_level", 1, 9), ("strategy", 0, 4)):
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} must be in {low}..{high}")

    @property
    def config_id(self):
        return (
            f"deflate-l{self.level}w{-self.window_bits}"
            f"s{self.strategy}m{self.mem_level}"
        )

    def as_dict(self):
        return {
            "level": self.level,
            "window_bits": self.window_bits,
            "mem_level": self.mem_level,
            "strategy": self.strategy,
            "id": self.config_id,
        }

    def to_text(self):
        return (
            "# raw DEFLATE (RFC 1951) compressor parameters\n"
            f"level = {self.level}\n"
            f"window_bits = {self.window_bits}\n"
            f"mem_level = {self.mem_level}\n"
            f"strategy = {self.strategy}\n"
        )

    @classmethod
    def from_text(cls, text):
        fields = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = map(str.strip, line.partition("="))
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown compressor parameter {key!r}")
            fields[key] = int(value)
        return cls(**fields)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())


DEFAULT_COMPRESSOR = CompressorConfig()


@dataclass(frozen=True)
class ComplexityEstimate:
    raw_length: int
    compressed_length: int
    ratio: Fraction


def _compressobj(config):
    return zlib.compressobj(
        config.level,
        zlib.DEFLATED,
        config.window_bits,
        config.mem_level,
        config.strategy,
    )


def deflate(data, config=DEFAULT_COMPRESSOR):
    """Compress ``data`` to a raw DEFLATE stream under the pinned config."""
    co = _compressobj(config)
    return co.compress(data) + co.flush()


def compressed_length(data, config=DEFAULT_COMPRESSOR):
    """Length in bytes of the raw DEFLATE stream for ``data``."""
    return len(deflate(data, config))


def prefix_compressed_lengths(data, ends, config=DEFAULT_COMPRESSOR):
    """``[compressed_length(data[:e]) for e in ends]`` from one stream.

    ``data`` is fed once, in order, to a single compressor; at each end the
    bytes emitted so far plus the flush of a copy of the compressor state
    give the prefix's length.  DEFLATE output does not depend on how its
    input is split, so every length equals one-shot compression of the
    prefix byte for byte.  ``ends`` must be ascending.
    """
    co = _compressobj(config)
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
    values = list(values)
    if any(v < 0 or v > 9 for v in values):
        raise ValueError("canonical encoding supports values 0..9 only")
    return bytes(ord("0") + v for v in values) + b"\n"


def _estimate(data, config):
    raw = len(data)
    comp = compressed_length(data, config)
    return ComplexityEstimate(raw, comp, Fraction(comp, raw) if raw else Fraction(0))


def ca_complexity(rule, init, steps, config=DEFAULT_COMPRESSOR):
    """Evolve, encode, compress.  ``raw_length`` is exactly
    (width + 1) * (steps + 1) bytes."""
    return _estimate(encode_diagram(evolve_ca(rule, init, steps)), config)


def tm_complexity(rule, steps, config=DEFAULT_COMPRESSOR, sequence="reached"):
    """Compress a Turing machine's state usage over time.

    ``sequence`` selects what is measured: ``"reached"`` (default) feeds the
    cumulative distinct-state count per step, ``"states"`` the raw state at
    each step.
    """
    if sequence == "reached":
        seq = reached_states_sequence(rule, steps)
    elif sequence == "states":
        seq = state_sequence(rule, steps)
    else:
        raise ValueError("sequence must be 'reached' or 'states'")
    return _estimate(encode_sequence(seq), config)
