"""Fixed-point words and the affine maps that tie codes to physical values.

Python ints are unbounded, so widths are enforced by validation instead of
masking; every word knows its own bit width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_BITS = 32


def round_half_away(x: float) -> int:
    """Round to the nearest integer, ties away from zero (not banker's)."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


@dataclass(frozen=True)
class FixedWord:
    """Unsigned integer constrained to fit in `bits`."""

    value: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"word width must be 1..{MAX_BITS}, got {self.bits}")
        if not 0 <= self.value < (1 << self.bits):
            raise ValueError(f"value {self.value} does not fit in {self.bits} bits")


@dataclass(frozen=True)
class DomainMap:
    """Affine correspondence between reals in [lo, hi] and codes 0 .. 2^bits - 1.

    Code 0 maps to lo, the top code to hi.
    """

    lo: float
    hi: float
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"map width must be 1..{MAX_BITS}, got {self.bits}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def top(self) -> int:
        return (1 << self.bits) - 1


def quantize_code(x: float, dmap: DomainMap) -> int:
    """Nearest code for x; values outside [lo, hi] clamp to the end codes."""
    top = dmap.top
    return min(max(round_half_away((x - dmap.lo) / (dmap.hi - dmap.lo) * top), 0), top)


def quantize(x: float, dmap: DomainMap) -> FixedWord:
    """quantize_code(x, dmap) as a word of dmap.bits."""
    return FixedWord(quantize_code(x, dmap), dmap.bits)
