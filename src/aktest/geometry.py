"""Axis-aligned rectangle algebra and point-set combinatorics.

Everything here is exact: rectangles are products of closed intervals with
float endpoints, and all predicates are plain comparisons. No tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInput

Point = tuple[float, ...]

# Result size cap for erdos_szekeres_threshold, in bits. (n-1)^(2^d) is exact
# integer arithmetic, but the exponent doubles per dimension; past this the
# number is no longer a usable quantity.
_PSI_BIT_CAP = 1 << 20


@dataclass(frozen=True)
class AxisRectangle:
    """Product of closed intervals ``[lo[j], hi[j]]``, one per axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        if len(lo) != len(hi) or not lo:
            raise InvalidInput("lo and hi must be nonempty and equally long")
        if any(a > b for a, b in zip(lo, hi)):
            raise InvalidInput(f"empty rectangle: lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, z: Sequence[float]) -> bool:
        """Closed containment of a point."""
        if len(z) != self.dim:
            raise InvalidInput(f"point has dim {len(z)}, rectangle has {self.dim}")
        return all(a <= v <= b for a, v, b in zip(self.lo, z, self.hi))

    def contains_rect(self, other: "AxisRectangle") -> bool:
        if other.dim != self.dim:
            raise InvalidInput("dimension mismatch")
        return all(
            a <= oa and ob <= b
            for a, oa, ob, b in zip(self.lo, other.lo, other.hi, self.hi)
        )

    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v


def rect_from_points(x: Sequence[float], y: Sequence[float]) -> AxisRectangle:
    """The minimal closed rectangle containing both points.

    ``rect_from_points(x, y)`` has per-axis bounds ``[min(x_j, y_j),
    max(x_j, y_j)]``; it is symmetric in its arguments, and degenerate axes
    (where the points agree) are allowed.
    """
    if len(x) != len(y) or not len(x):
        raise InvalidInput("points must be nonempty and equally long")
    lo = tuple(min(a, b) for a, b in zip(x, y))
    hi = tuple(max(a, b) for a, b in zip(x, y))
    return AxisRectangle(lo, hi)


def is_generic(points: Iterable[Sequence[float]]) -> bool:
    """True when no two points share a coordinate on any axis."""
    pts = [tuple(p) for p in points]
    if not pts:
        return True
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise InvalidInput("points have mixed dimensions")
    return all(len({p[j] for p in pts}) == len(pts) for j in range(d))


def decompose_complement(
    outer: AxisRectangle, inner: AxisRectangle
) -> list[AxisRectangle]:
    """Carve ``outer \\ inner`` into at most ``2 * dim`` rectangles.

    Axis by axis: the slab left of ``inner`` and the slab right of ``inner``
    are emitted (when they have positive width), then the middle slab is
    narrowed to ``inner``'s interval on that axis and the next axis is
    processed. The output rectangles are pairwise interior-disjoint, their
    union together with ``inner`` is exactly ``outer``, and zero-width slabs
    are dropped.
    """
    if not outer.contains_rect(inner):
        raise InvalidInput("inner rectangle is not contained in outer")
    pieces: list[AxisRectangle] = []
    lo, hi = list(outer.lo), list(outer.hi)
    for j in range(outer.dim):
        if lo[j] < inner.lo[j]:
            left_hi = hi.copy()
            left_hi[j] = inner.lo[j]
            pieces.append(AxisRectangle(tuple(lo), tuple(left_hi)))
        if inner.hi[j] < hi[j]:
            right_lo = lo.copy()
            right_lo[j] = inner.hi[j]
            pieces.append(AxisRectangle(tuple(right_lo), tuple(hi)))
        lo[j], hi[j] = inner.lo[j], inner.hi[j]
    return pieces


def find_dominating_triple(
    points: Iterable[Sequence[float]],
) -> tuple[Point, Point, Point] | None:
    """Search for points x, y, z with z strictly inside rect(x, y).

    Exhaustive over all ordered-pair/third-point combinations. The points
    must be generic (no two share a coordinate on any axis, by float
    equality; InvalidInput otherwise), so closed containment of a distinct
    third point already implies strict per-axis interiority. Returns the
    first triple found (a deterministic function of the input order) or
    None. Any generic set of at least 2^(2^(d-1)) + 1 points contains such
    a triple.
    """
    pts = [tuple(float(v) for v in p) for p in points]
    if not is_generic(pts):
        raise InvalidInput("dominating-triple search requires a generic point set")
    for x, y in itertools.combinations(pts, 2):
        box = rect_from_points(x, y)
        for z in pts:
            if z is x or z is y:
                continue
            if box.contains(z):
                return (x, y, z)
    return None


def erdos_szekeres_threshold(n: int, d: int) -> int:
    """psi(n, d) = (n - 1)^(2^d) + 1, exact integer arithmetic.

    The smallest set size guaranteeing a monotone-in-every-axis subset of
    size n in d dimensions. Raises OverflowError when the exact value would
    exceed the package bit cap (the exponent doubles with every dimension).
    """
    if n < 2 or d < 1:
        raise InvalidInput(f"require n >= 2 and d >= 1, got n={n} d={d}")
    base = n - 1
    exponent = 1 << d if d < 64 else None
    if exponent is None or base.bit_length() * exponent > _PSI_BIT_CAP:
        raise OverflowError(
            f"psi({n}, {d}) needs more than {_PSI_BIT_CAP} bits; refusing to materialize"
        )
    return base**exponent + 1
