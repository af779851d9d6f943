"""Dyadic grid coverings of generic sample-point grids.

A grid on m+1 per-axis values (m a power of two) carries, per axis, log2(m)
levels of intervals: level l splits the m inter-value gaps into 2^l equal
runs. The covering family is the set of products of one interval per axis.
Intervals are half-open [left, right) in value space, except the last
interval of each level, which is closed; every point of the span therefore
lies in exactly one interval per level per axis, hence in exactly
log2(m)^d family rectangles.

Family rectangles are identified by a (level, index) pair per axis, with
levels counted from 1 (coarsest, 2 intervals) to log2(m) (finest, m
intervals). The EMPTY sentinel stands for "outside the span" in induced
outcomes; the integer-encoded fast path uses -1 for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Final, Sequence

import numpy as np

from .distributions import DiscreteGridDistribution
from .errors import InvalidInput
from .geometry import AxisRectangle

EMPTY: Final = "empty"

AxisInterval = tuple[int, int]  # (level, index)
RectId = tuple[AxisInterval, ...]  # one (level, index) per axis

EMPTY_CODE: Final = -1

# Largest grid the int64 id encoding supports: d * log2(2m - 2) must fit.
_ENCODE_BIT_CAP = 62


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SamplePointGrid:
    """Per-axis sorted coordinates of a generic point set of size m + 1."""

    axis_values: tuple[tuple[float, ...], ...]

    def __init__(self, axis_values: Sequence[Sequence[float]]):
        vals = tuple(tuple(float(v) for v in ax) for ax in axis_values)
        if not vals:
            raise InvalidInput("grid needs at least one axis")
        sizes = {len(ax) for ax in vals}
        if len(sizes) != 1:
            raise InvalidInput(f"axes have mixed sizes {sorted(sizes)}")
        (size,) = sizes
        if size < 3 or not _is_power_of_two(size - 1):
            raise InvalidInput(
                f"grid needs (power of two) + 1 >= 3 values per axis, got {size}"
            )
        for j, ax in enumerate(vals):
            if any(a >= b for a, b in zip(ax, ax[1:])):
                raise InvalidInput(f"axis {j} values are not strictly increasing")
        object.__setattr__(self, "axis_values", vals)

    @property
    def dim(self) -> int:
        return len(self.axis_values)

    @cached_property
    def axis_arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only float64 copies of ``axis_values``, one per axis."""
        arrays = tuple(np.array(ax, dtype=float) for ax in self.axis_values)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    @property
    def m(self) -> int:
        """Number of inter-value gaps per axis (a power of two)."""
        return len(self.axis_values[0]) - 1

    @property
    def levels(self) -> int:
        return (self.m).bit_length() - 1


@dataclass(frozen=True)
class CoverFamily:
    """The dyadic covering family of a sample-point grid."""

    grid: SamplePointGrid

    def __post_init__(self):
        if self.dim * self._axis_code_bits() > _ENCODE_BIT_CAP:
            raise InvalidInput(
                f"grid too large to encode ids: {self.dim} axes of {self.per_axis_count}"
                " intervals each exceed the int64 id space"
            )

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def levels(self) -> int:
        return self.grid.levels

    @property
    def per_axis_count(self) -> int:
        """Number of intervals in one axis family: 2 + 4 + ... + m = 2m - 2."""
        return 2 * self.m - 2

    @property
    def rects_per_point(self) -> int:
        """How many family rectangles contain any given span point."""
        return self.levels**self.dim

    def _axis_code_bits(self) -> int:
        return int(self.per_axis_count).bit_length()

    # ---- interval geometry ----------------------------------------------

    def interval_bounds(self, axis: int, level: int, index: int) -> tuple[float, float, bool]:
        """(left, right, right_closed) of one family interval in value space."""
        self._check_axis_level(axis, level)
        width = self.m >> level
        if not 0 <= index < (1 << level):
            raise InvalidInput(f"index {index} out of range at level {level}")
        vals = self.grid.axis_values[axis]
        right_closed = index == (1 << level) - 1
        return vals[index * width], vals[(index + 1) * width], right_closed

    def intervals(self, axis: int, level: int) -> list[tuple[float, float]]:
        """All (left, right) value pairs of one level on one axis."""
        self._check_axis_level(axis, level)
        width = self.m >> level
        vals = self.grid.axis_values[axis]
        return [
            (vals[t * width], vals[(t + 1) * width]) for t in range(1 << level)
        ]

    def _check_axis_level(self, axis: int, level: int) -> None:
        if not 0 <= axis < self.dim:
            raise InvalidInput(f"axis {axis} out of range")
        if not 1 <= level <= self.levels:
            raise InvalidInput(f"level {level} out of range 1..{self.levels}")

    def id_bounds(self, rect_id: RectId) -> AxisRectangle:
        """The family rectangle for an id, as a closed AxisRectangle.

        The closed box loses the half-open boundary convention; it is meant
        for reporting and for mass computations where boundaries carry no
        mass.
        """
        if len(rect_id) != self.dim:
            raise InvalidInput("id has wrong number of axes")
        lo, hi = [], []
        for axis, (level, index) in enumerate(rect_id):
            left, right, _ = self.interval_bounds(axis, level, index)
            lo.append(left)
            hi.append(right)
        return AxisRectangle(lo, hi)

    # ---- point membership ------------------------------------------------

    def gaps_of_points(self, pts: np.ndarray) -> np.ndarray:
        """Effective gap indices: (n, d) coordinates -> (n, d) gaps.

        Gap t is [v_t, v_{t+1}); the top value belongs to the last gap
        (closed right end), and a coordinate outside the span maps to -1.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InvalidInput("points must have shape (n, d)")
        gaps = np.empty(pts.shape, dtype=np.int64)
        for j in range(self.dim):
            vals = self.grid.axis_arrays[j]
            e = np.searchsorted(vals, pts[:, j], side="right") - 1
            e[pts[:, j] == vals[-1]] = self.m - 1
            e[(pts[:, j] < vals[0]) | (pts[:, j] > vals[-1])] = -1
            gaps[:, j] = e
        return gaps

    def containing_intervals(self, axis: int, gap: int) -> list[AxisInterval]:
        """The one interval per level whose gap run holds the given gap."""
        if not 0 <= gap < self.m:
            raise InvalidInput(f"gap {gap} out of range 0..{self.m - 1}")
        return [
            (level, gap // (self.m >> level)) for level in range(1, self.levels + 1)
        ]

    def containing_ids(self, z: Sequence[float]) -> list[RectId]:
        """All family rectangles containing a span point (levels^d of them)."""
        (gaps,) = self.gaps_of_points([z]).tolist()
        if min(gaps) < 0:
            return []
        per_axis = [self.containing_intervals(j, gap) for j, gap in enumerate(gaps)]
        return [tuple(combo) for combo in itertools.product(*per_axis)]

    def axis_membership_count(self, axis: int, gap: int) -> int:
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
        self, dist: DiscreteGridDistribution
    ) -> dict[object, float]:
        """Exact induced measure over family ids plus EMPTY.

        Each atom inside the span spreads its mass uniformly over the
        levels^d rectangles containing it; atoms outside the span go to
        EMPTY. Intended for desk-scale exact checks, not the sampling path.
        """
        if dist.dim != self.dim:
            raise InvalidInput("distribution dimension mismatch")
        out: dict[object, float] = {}
        share = 1.0 / self.rects_per_point
        for idx, w in dist.mass.items():
            point = dist.point_of(idx)
            ids = self.containing_ids(point)
            if not ids:
                out[EMPTY] = out.get(EMPTY, 0.0) + w
                continue
            for rect_id in ids:
                out[rect_id] = out.get(rect_id, 0.0) + w * share
        return out

    # ---- grid-aligned decomposition ---------------------------------------

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

    def decompose_grid_rect(self, rect: AxisRectangle) -> list[RectId]:
        """Decompose a grid-aligned rectangle into family rectangles.

        Every endpoint of ``rect`` must be exactly a grid value, and the
        rectangle must span at least one gap on every axis. The output
        rectangles are pairwise interior-disjoint, tile ``rect`` exactly on
        the grid-cell algebra, and number at most (2 log2 m)^d.
        """
        if rect.dim != self.dim:
            raise InvalidInput("rectangle dimension mismatch")
        per_axis: list[list[AxisInterval]] = []
        for j in range(self.dim):
            vals = self.grid.axis_values[j]
            try:
                a = vals.index(rect.lo[j])
                b = vals.index(rect.hi[j])
            except ValueError:
                raise InvalidInput(
                    f"rectangle endpoint on axis {j} is not a grid value"
                ) from None
            if a == b:
                raise InvalidInput(
                    f"rectangle is degenerate on axis {j}; it spans no grid gap"
                )
            per_axis.append(self.decompose_axis_gaps(a, b))
        return [tuple(combo) for combo in itertools.product(*per_axis)]

    # ---- integer id encoding (sampling fast path) -------------------------

    def encode_flat(self, level: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Per-axis interval -> flat int in [0, 2m - 2): offset(level) + index."""
        return (1 << level) - 2 + index

    def decode_flat(self, flat: int) -> AxisInterval:
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
        of emptiness so the rng stream depends only on n.
        """
        gaps = np.asarray(gaps)
        if gaps.ndim != 2 or gaps.shape[1] != self.dim:
            raise InvalidInput("gaps must have shape (n, d)")
        n = gaps.shape[0]
        levels = rng.integers(1, self.levels + 1, size=(n, self.dim))
        base = np.int64(self.per_axis_count)
        code = np.zeros(n, dtype=np.int64)
        empty = np.zeros(n, dtype=bool)
        offset = 0  # the encode_flat offsets, -2 per axis, in mixed radix
        for j in range(self.dim):
            level, gap = levels[:, j], gaps[:, j]
            code *= base
            code += np.left_shift(1, level)
            # An arithmetic shift keeps -1 negative; those rows are EMPTY.
            code += np.right_shift(gap, self.levels - level)
            empty |= gap < 0
            offset = offset * int(base) + 2
        code -= offset
        code[empty] = EMPTY_CODE
        return code

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
