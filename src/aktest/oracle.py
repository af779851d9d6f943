"""Exact A_k distance oracles and pair-mass quantities at desk scale.

The A_k distance between two measures is the maximum, over families of at
most k rectangles whose covered support sets are pairwise disjoint, of the
summed absolute mass discrepancies. For finite supports the search space
reduces to support-canonical rectangles (hulls of covered support subsets),
which these oracles enumerate exhaustively, with explicit size caps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteGridDistribution
from .errors import CapExceeded, InvalidInput
from .geometry import AxisRectangle, Point, rect_from_points

MAX_SUPPORT = 64
MAX_CANDIDATE_RECTS = 200_000
MAX_K = 8


@dataclass(frozen=True)
class RectangleFamily:
    """A family of rectangles, flagged when pairwise support-disjoint."""

    rects: tuple[AxisRectangle, ...]
    disjoint: bool

    def __len__(self) -> int:
        return len(self.rects)


def _cover_mask(rect: AxisRectangle, points: list[Point]) -> int:
    mask = 0
    for i, pt in enumerate(points):
        if rect.contains(pt):
            mask |= 1 << i
    return mask


def _union_support(
    p: DiscreteGridDistribution, q: DiscreteGridDistribution
) -> tuple[list[Point], list[float], list[float]]:
    if p.dim != q.dim:
        raise InvalidInput("distributions have different dimensions")
    atoms: dict[Point, list[float]] = {}
    for dist, side in ((p, 0), (q, 1)):
        for idx, w in dist.mass.items():
            pt = dist.point_of(idx)
            atoms.setdefault(pt, [0.0, 0.0])[side] += w
    points = sorted(atoms)
    pw = [atoms[pt][0] for pt in points]
    qw = [atoms[pt][1] for pt in points]
    return points, pw, qw


def ak_distance_bruteforce(
    p: DiscreteGridDistribution, q: DiscreteGridDistribution, k: int
) -> tuple[float, RectangleFamily]:
    """Exact A_k distance with a witness family, by exhaustive search.

    Enumerates all support-canonical rectangles (per-axis bounds drawn from
    support coordinates), deduplicates by covered support set, and runs a
    branch-and-bound search over families of at most k rectangles with
    pairwise disjoint covered sets. Raises CapExceeded when the instance is
    beyond the exact-search caps.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if k > MAX_K:
        raise CapExceeded(f"k={k} exceeds the exact-search cap {MAX_K}")
    points, pw, qw = _union_support(p, q)
    n = len(points)
    if n > MAX_SUPPORT:
        raise CapExceeded(f"{n} support points exceed the cap {MAX_SUPPORT}")
    d = p.dim
    axis_coords = [sorted({pt[j] for pt in points}) for j in range(d)]
    n_rects = 1
    for coords in axis_coords:
        u = len(coords)
        n_rects *= u * (u + 1) // 2
    if n_rects > MAX_CANDIDATE_RECTS:
        raise CapExceeded(
            f"{n_rects} candidate rectangles exceed the cap {MAX_CANDIDATE_RECTS}"
        )

    # Dedupe rectangles by covered support set; the discrepancy only depends
    # on the set, and the hull of the set is a canonical representative.
    by_mask: dict[int, AxisRectangle] = {}
    axis_pairs = [
        [(a, b) for a, b in itertools.combinations_with_replacement(coords, 2)]
        for coords in axis_coords
    ]
    for bounds in itertools.product(*axis_pairs):
        rect = AxisRectangle([b[0] for b in bounds], [b[1] for b in bounds])
        mask = _cover_mask(rect, points)
        if mask:
            by_mask.setdefault(mask, rect)

    def mask_value(mask: int) -> float:
        total = 0.0
        i = 0
        mm = mask
        while mm:
            if mm & 1:
                total += pw[i] - qw[i]
            mm >>= 1
            i += 1
        return abs(total)

    candidates = sorted(
        ((mask_value(m), m, r) for m, r in by_mask.items()),
        key=lambda t: -t[0],
    )
    values = [c[0] for c in candidates]
    best_value = 0.0
    best_rects: tuple[AxisRectangle, ...] = ()

    def search(start: int, used: int, acc: float, chosen: list, left: int):
        nonlocal best_value, best_rects
        if acc > best_value:
            best_value = acc
            best_rects = tuple(c[2] for c in chosen)
        if left == 0 or start >= len(candidates):
            return
        # optimistic bound: take the next `left` largest values outright
        if acc + sum(values[start : start + left]) <= best_value:
            return
        for i in range(start, len(candidates)):
            val, mask, rect = candidates[i]
            if acc + val * left <= best_value:
                break
            if used & mask:
                continue
            chosen.append(candidates[i])
            search(i + 1, used | mask, acc + val, chosen, left - 1)
            chosen.pop()

    search(0, 0, 0.0, [], k)
    return best_value, RectangleFamily(best_rects, disjoint=True)


def ak_distance_1d(
    p: DiscreteGridDistribution, q: DiscreteGridDistribution, k: int
) -> float:
    """Exact A_k distance in one dimension by dynamic programming, O(k n).

    Over the sorted union support an optimal family is k intervals of
    contiguous atoms. With S the prefix sums of p - q, the best value
    dp_j[i] over the first i atoms with j intervals is the running maximum
    over i of dp_{j-1}[i] and +-S_i + max_{l <= i} (dp_{j-1}[l-1] -+ S_{l-1}).
    """
    if p.dim != 1 or q.dim != 1:
        raise InvalidInput("the DP oracle handles one-dimensional inputs only")
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    _, pw, qw = _union_support(p, q)
    prefix = np.concatenate(([0.0], np.cumsum(np.subtract(pw, qw))))
    signed = np.stack([prefix, -prefix])
    dp = np.zeros(len(prefix))
    for _ in range(k):
        best = np.maximum.accumulate(dp - signed, axis=1)
        ends = (signed[:, 1:] + best[:, :-1]).max(axis=0)
        dp[1:] = np.maximum(dp[1:], ends)
        dp = np.maximum.accumulate(dp)
    return float(dp[-1])


def expected_pair_mass(dist: DiscreteGridDistribution) -> float:
    """E_{x,y ~ D} [D(rect(x, y))] by exact enumeration over support pairs.

    For any distribution on a generic point set this is at least
    constant_mass_bound(d).
    """
    total = dist.total_mass
    if total <= 0:
        raise InvalidInput("zero measure")
    items = [(dist.point_of(idx), w / total) for idx, w in sorted(dist.mass.items())]
    exp = 0.0
    for (x, wx), (y, wy) in itertools.product(items, repeat=2):
        box = rect_from_points(x, y)
        exp += wx * wy * dist.mass_of(box) / total
    return exp


def constant_mass_bound(d: int) -> float:
    """beta_d = (2^(2^(d-1)) + 1)^(-3): the dominating-pair mass lower bound."""
    if not 1 <= d <= 3:
        raise InvalidInput(f"constant_mass_bound supports d in 1..3, got {d}")
    return float((2 ** (2 ** (d - 1)) + 1)) ** -3
