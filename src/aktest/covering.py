"""Dyadic covers of the integer gap grid.

After rank reduction every coordinate is a gap index: each axis has m gaps
(m a power of two), numbered 0..m-1, and -1 marks a coordinate outside the
span. Per axis, level l (1..log2 m) splits the m gaps into 2^l aligned runs
of m / 2^l gaps each; the covering family is the set of products of one run
per axis. Every gap lies in exactly one run per level, so every in-span
cell lies in exactly log2(m)^d family rectangles.

Family rectangles are identified by a (level, index) pair per axis, with
levels counted from 1 (coarsest, 2 runs) to log2(m) (finest, m runs). The
EMPTY sentinel stands for "outside the span" in induced outcomes; the int64
code path uses EMPTY_CODE for it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Final, Mapping, Sequence

import numpy as np

from .errors import InvalidInput

EMPTY: Final = "empty"

AxisInterval = tuple[int, int]  # (level, index)
RectId = tuple[AxisInterval, ...]  # one (level, index) per axis

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

    def gap_ranges(self, rect_id: RectId) -> tuple[range, ...]:
        """The gaps a family rectangle spans, one range per axis."""
        if len(rect_id) != self.dim:
            raise InvalidInput("id has wrong number of axes")
        ranges = []
        for level, index in rect_id:
            if not 1 <= level <= self.levels:
                raise InvalidInput(f"level {level} out of range 1..{self.levels}")
            if not 0 <= index < (1 << level):
                raise InvalidInput(f"index {index} out of range at level {level}")
            width = self.m >> level
            ranges.append(range(index * width, (index + 1) * width))
        return tuple(ranges)

    def containing_intervals(self, gap: int) -> list[AxisInterval]:
        """The one interval per level whose gap run holds the given gap."""
        if not 0 <= gap < self.m:
            raise InvalidInput(f"gap {gap} out of range 0..{self.m - 1}")
        return [
            (level, gap // (self.m >> level)) for level in range(1, self.levels + 1)
        ]

    def containing_ids(self, gaps: Sequence[int]) -> list[RectId]:
        """All family rectangles containing a cell (levels^d of them); none
        when any axis is outside the span (-1)."""
        if len(gaps) != self.dim:
            raise InvalidInput("gap tuple has wrong number of axes")
        if min(gaps) < 0:
            return []
        per_axis = [self.containing_intervals(gap) for gap in gaps]
        return [tuple(combo) for combo in itertools.product(*per_axis)]

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
    ) -> dict[object, float]:
        """Exact induced measure over family ids plus EMPTY.

        ``mass`` maps gap tuples to their mass. Each cell inside the span
        spreads its mass uniformly over the levels^d rectangles containing
        it; a tuple with -1 on any axis goes to EMPTY. Intended for
        desk-scale exact checks of ``sample_ids_encoded``.
        """
        out: dict[object, float] = {}
        share = 1.0 / self.rects_per_point
        for gaps, w in mass.items():
            ids = self.containing_ids(gaps)
            if not ids:
                out[EMPTY] = out.get(EMPTY, 0.0) + w
                continue
            for rect_id in ids:
                out[rect_id] = out.get(rect_id, 0.0) + w * share
        return out

    # ---- box decomposition ------------------------------------------------

    def decompose_axis_gaps(self, a: int, b: int) -> list[AxisInterval]:
        """Canonical dyadic cover of the gap range [a, b).

        Greedy largest aligned block; at most 2 blocks per level, so at most
        2 * levels intervals, and the blocks tile [a, b) exactly in order.
        """
        if not 0 <= a < b <= self.m:
            raise InvalidInput(f"need 0 <= a < b <= {self.m}, got a={a} b={b}")
        out: list[AxisInterval] = []
        top = self.m >> 1  # widest family interval spans m/2 gaps
        while a < b:
            align = min(a & -a, top) if a else top
            fit = 1 << ((b - a).bit_length() - 1)
            width = min(align, fit)
            level = self.levels - width.bit_length() + 1
            out.append((level, a // width))
            a += width
        return out

    def decompose_grid_rect(
        self, lo: Sequence[int], hi: Sequence[int]
    ) -> list[RectId]:
        """Decompose the gap box [lo_j, hi_j) per axis into family rectangles.

        The box must span at least one gap on every axis. The output
        rectangles are pairwise disjoint, tile the box's cells exactly, and
        number at most (2 log2 m)^d.
        """
        if len(lo) != self.dim or len(hi) != self.dim:
            raise InvalidInput("box dimension mismatch")
        try:
            bounds = [(operator.index(a), operator.index(b)) for a, b in zip(lo, hi)]
        except TypeError:
            raise InvalidInput(f"box bounds must be gap indices: {lo}, {hi}") from None
        per_axis = [self.decompose_axis_gaps(a, b) for a, b in bounds]
        return [tuple(combo) for combo in itertools.product(*per_axis)]

    # ---- integer id encoding (sampling fast path) -------------------------

    def decode_flat(self, flat: int) -> AxisInterval:
        """Per-axis flat int in [0, 2m - 2), offset(level) + index with
        offset(level) = 2^level - 2, back to (level, index)."""
        level = 1
        while (1 << (level + 1)) - 2 <= flat:
            level += 1
        return level, flat - ((1 << level) - 2)

    def sample_ids_encoded(
        self, gaps: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized induced outcomes from per-axis gap indices.

        gaps: (n, d) int array, -1 marking "outside the span" on that axis.
        Returns (n,) int64 codes; EMPTY_CODE for any row with an outside
        axis. One uniform level draw per axis per row, consumed regardless
        of emptiness so the rng stream depends only on n; the levels are
        int32, the same stream as an int64 draw, and gap + m must fit the
        gaps' dtype.
        """
        gaps = np.asarray(gaps)
        if gaps.ndim != 2 or gaps.shape[1] != self.dim:
            raise InvalidInput("gaps must have shape (n, d)")
        n = gaps.shape[0]
        levels = rng.integers(1, self.levels + 1, size=(n, self.dim), dtype=np.int32)
        base = np.int64(self.per_axis_count)
        offset = 0  # the flat offsets, -2 per axis, in mixed radix
        for _ in range(self.dim):
            offset = offset * int(base) + 2
        codes = np.zeros(n, dtype=np.int64)
        for s in range(0, n, _BLOCK):
            code = codes[s : s + _BLOCK]
            empty = np.zeros(len(code), dtype=bool)
            for level, gap in zip(levels[s : s + _BLOCK].T, gaps[s : s + _BLOCK].T):
                # (gap + m) >> (L - level) is 2^level + the run index of an
                # in-span gap; the rows with a gap of -1 are EMPTY.
                code *= base
                code += np.right_shift(gap + self.m, self.levels - level)
                empty |= gap < 0
            code -= offset
            code[empty] = EMPTY_CODE
        return codes

    def decode_id(self, code: int):
        """Inverse of sample_ids_encoded for one code."""
        if code == EMPTY_CODE:
            return EMPTY
        base = self.per_axis_count
        flats = []
        for _ in range(self.dim):
            flats.append(int(code % base))
            code //= base
        return tuple(self.decode_flat(f) for f in reversed(flats))
