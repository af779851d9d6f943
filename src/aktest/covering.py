"""Dyadic covers of the integer gap grid.

After rank reduction every coordinate is a gap index: each axis has m gaps
(m a power of two), numbered 0..m-1, and -1 marks a coordinate outside the
span. Per axis, level l (1..log2 m) splits the m gaps into 2^l aligned runs
of m / 2^l gaps each; the covering family is the set of products of one run
per axis. Every gap lies in exactly one run per level, so every in-span
cell lies in exactly log2(m)^d family rectangles.

A family rectangle has one id, an integer code. On each axis, run t of level
l has the heap number 2^l + t, an axis id in 2..2m-1 (0 and 1 name no run).
The code is the mixed-radix number of the dim axis ids in base 2m, the
first axis most significant, so codes sort as the per-axis (level, run)
pairs do lexicographically. EMPTY_CODE stands for "outside the span".
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Final, Mapping, Sequence

import numpy as np

from .errors import InvalidInput

EMPTY_CODE: Final = -1

# Largest cover the int64 id encoding supports: d * log2(2m - 2) must fit.
_ENCODE_BIT_CAP = 62

# Samples per block of the per-sample passes after each RNG draw: an int64
# or float temporary of one block (256 KB) stays in a core's L2 cache.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class CoverFamily:
    """The dyadic covering family of a grid of m gaps on each of dim axes."""

    m: int
    dim: int

    def __post_init__(self):
        for name, value, low in (("m", self.m, 2), ("dim", self.dim, 1)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidInput(f"{name} must be an int, got {value!r}")
            if value < low:
                raise InvalidInput(f"{name} must be >= {low}, got {value}")
        if self.m & (self.m - 1):
            raise InvalidInput(f"m must be a power of two, got {self.m}")
        if self.dim * self.per_axis_count.bit_length() > _ENCODE_BIT_CAP:
            raise InvalidInput(
                f"cover too large to encode ids: {self.dim} axes of "
                f"{self.per_axis_count} intervals each exceed the int64 id space"
            )

    @property
    def levels(self) -> int:
        return self.m.bit_length() - 1

    @property
    def per_axis_count(self) -> int:
        """Number of intervals in one axis family: 2 + 4 + ... + m = 2m - 2."""
        return 2 * self.m - 2

    @property
    def rects_per_point(self) -> int:
        """How many family rectangles contain any given span point."""
        return self.levels**self.dim

    # ---- gap geometry ------------------------------------------------------

    def _codes(self, per_axis: Sequence[Sequence[int]]) -> list[int]:
        """The codes of all rectangles with one of the given axis ids on
        each axis, in the order of their tuples of axis ids."""
        codes = [0]
        for axis_ids in per_axis:
            codes = [code * 2 * self.m + a for code in codes for a in axis_ids]
        return codes

    def gap_ranges(self, code: int) -> tuple[range, ...]:
        """The gaps a family rectangle spans, one range per axis."""
        code, space = operator.index(code), (2 * self.m) ** self.dim
        if not 0 <= code < space:
            raise InvalidInput(f"code {code} out of range 0..{space - 1}")
        ranges = []
        for _ in range(self.dim):
            code, axis_id = divmod(code, 2 * self.m)
            if axis_id < 2:
                raise InvalidInput(f"axis id {axis_id} names no family interval")
            width = self.m >> (axis_id.bit_length() - 1)
            start = axis_id * width - self.m
            ranges.append(range(start, start + width))
        return tuple(reversed(ranges))

    def containing_intervals(self, gap: int) -> list[int]:
        """The axis ids of the one run per level that holds the given gap."""
        if not 0 <= gap < self.m:
            raise InvalidInput(f"gap {gap} out of range 0..{self.m - 1}")
        return [(1 << lv) + gap // (self.m >> lv) for lv in range(1, self.levels + 1)]

    def containing_ids(self, gaps: Sequence[int]) -> list[int]:
        """The codes of all family rectangles containing a cell (levels^d of
        them); none when any axis is outside the span (-1)."""
        if len(gaps) != self.dim:
            raise InvalidInput("gap tuple has wrong number of axes")
        if min(gaps) < 0:
            return []
        return self._codes([self.containing_intervals(gap) for gap in gaps])

    def axis_membership_count(self, gap: int) -> int:
        """Brute-force count of axis intervals holding a gap (should be levels)."""
        count = 0
        for level in range(1, self.levels + 1):
            width = self.m >> level
            for t in range(1 << level):
                if t * width <= gap < (t + 1) * width:
                    count += 1
        return count

    # ---- induced distribution ----------------------------------------------

    def induced_distribution(
        self, mass: Mapping[tuple[int, ...], float]
    ) -> dict[int, float]:
        """Exact induced measure over family codes plus EMPTY_CODE.

        ``mass`` maps gap tuples to their mass. Each cell inside the span
        spreads its mass uniformly over the levels^d rectangles containing
        it; a tuple with -1 on any axis goes to EMPTY_CODE. For desk-scale
        exact checks of the codes ``sample_ids_encoded`` draws.
        """
        out: dict[int, float] = {}
        share = 1.0 / self.rects_per_point
        for gaps, w in mass.items():
            codes = self.containing_ids(gaps)
            if not codes:
                out[EMPTY_CODE] = out.get(EMPTY_CODE, 0.0) + w
                continue
            for code in codes:
                out[code] = out.get(code, 0.0) + w * share
        return out

    # ---- box decomposition ------------------------------------------------

    def decompose_axis_gaps(self, a: int, b: int) -> list[int]:
        """Canonical dyadic cover of the gap range [a, b), as axis ids.

        Greedy largest aligned block; at most 2 blocks per level, so at most
        2 * levels intervals, and the blocks tile [a, b) exactly in order.
        """
        if not 0 <= a < b <= self.m:
            raise InvalidInput(f"need 0 <= a < b <= {self.m}, got a={a} b={b}")
        out: list[int] = []
        top = self.m >> 1  # widest family interval spans m/2 gaps
        while a < b:
            align = min(a & -a, top) if a else top
            fit = 1 << ((b - a).bit_length() - 1)
            width = min(align, fit)
            out.append((self.m + a) // width)  # 2^level + a // width
            a += width
        return out

    def decompose_grid_rect(self, lo: Sequence[int], hi: Sequence[int]) -> list[int]:
        """Decompose the gap box [lo_j, hi_j) per axis into family rectangles.

        The box must span at least one gap on every axis. The output codes
        name pairwise disjoint rectangles that tile the box's cells exactly,
        at most (2 log2 m)^d of them.
        """
        if len(lo) != self.dim or len(hi) != self.dim:
            raise InvalidInput("box dimension mismatch")
        try:
            bounds = [(operator.index(a), operator.index(b)) for a, b in zip(lo, hi)]
        except TypeError:
            raise InvalidInput(f"box bounds must be gap indices: {lo}, {hi}") from None
        return self._codes([self.decompose_axis_gaps(a, b) for a, b in bounds])

    # ---- sampling ---------------------------------------------------------

    def sample_ids_encoded(
        self, gaps: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized induced outcomes from per-axis gap indices.

        gaps: (n, d) int array, -1 marking "outside the span" on that axis.
        Returns (n,) codes of heap-numbered axis ids (the module's one id),
        EMPTY_CODE for any row with an outside axis: int32 while the code
        space fits 31 bits, dim * bit_length(2m - 2) <= 31, else int64. One
        uniform level draw per axis per row, consumed regardless of
        emptiness so the rng stream depends only on n. The int32 levels are
        the int64 draw's stream; gap + m must fit the gaps' dtype.
        """
        gaps = np.asarray(gaps)
        if gaps.ndim != 2 or gaps.shape[1] != self.dim:
            raise InvalidInput("gaps must have shape (n, d)")
        n = gaps.shape[0]
        levels = rng.integers(1, self.levels + 1, size=(n, self.dim), dtype=np.int32)
        digit = self.per_axis_count.bit_length()  # base 2m = 2^digit
        codes = np.zeros(n, dtype=np.int32 if self.dim * digit <= 31 else np.int64)
        for s in range(0, n, _BLOCK):
            code = codes[s : s + _BLOCK]
            empty = np.zeros(len(code), dtype=bool)
            for level, gap in zip(levels[s : s + _BLOCK].T, gaps[s : s + _BLOCK].T):
                # axis id 2^level + run of an in-span gap; -1 rows are empty
                code <<= digit
                code += np.right_shift(gap + self.m, self.levels - level)
                empty |= gap < 0
            code[empty] = EMPTY_CODE
        return codes
