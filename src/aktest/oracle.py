"""Exact A_k distance oracles and pair-mass quantities at desk scale.

The A_k distance between two measures is the maximum, over families of at
most k rectangles whose covered support sets are pairwise disjoint, of the
summed absolute mass discrepancies. For finite supports only the covered
support set of a rectangle matters, and every such set is covered by a
rectangle whose per-axis bounds are support coordinates; the brute force
enumerates those exhaustively, with explicit size caps.
"""

from __future__ import annotations

import itertools

import numpy as np

from .distributions import DiscreteGridDistribution
from .errors import CapExceeded, InvalidInput
from .geometry import AxisRectangle, Point, rect_from_points

MAX_SUPPORT = 64
MAX_CANDIDATE_RECTS = 200_000
MAX_K = 8
# Relative slack on the brute force's remaining-mass bound; the float sums it
# compares are within about (MAX_SUPPORT + 2 MAX_K) 2^-53 of the total.
_REM_SLACK = 1e-9


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
) -> tuple[float, tuple[AxisRectangle, ...]]:
    """Exact A_k distance with a witness family, by exhaustive search.

    Enumerates every rectangle whose per-axis bounds are support
    coordinates, as uint64 bit sets of the support points it covers, and
    keeps one rectangle per covered set: the first in enumeration order
    (lexicographic in the per-axis (lo, hi) pairs), which need not be the
    set's bounding box. A branch-and-bound search then picks at most k
    candidates with pairwise disjoint covered sets. Raises CapExceeded when
    the instance is beyond the exact-search caps.
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

    # Per axis, every (lo, hi) pair of coordinates in the order of
    # combinations_with_replacement, and the points inside [lo, hi] as a
    # uint64 bit set (bit i = point i). Their ANDs over the axes, in the
    # order of itertools.product, are the rectangles' covered sets.
    pts = np.array(points, dtype=float).reshape(n, d)
    bit = np.uint64(1) << np.arange(n, dtype=np.uint64)
    bounds, masks = [], np.array([~np.uint64(0)])
    for j, coords in enumerate(axis_coords):
        c = np.array(coords)
        lo, hi = (c[i] for i in np.triu_indices(len(c)))
        inside = (lo[:, None] <= pts[:, j]) & (pts[:, j] <= hi[:, None])
        bounds.append((lo, hi))
        axis_masks = (inside * bit).sum(axis=1, dtype=np.uint64)
        masks = (masks[:, None] & axis_masks).ravel()

    # The discrepancy only depends on the covered set, so keep each nonempty
    # set once, at its first rectangle, in order of first appearance.
    nonempty = np.flatnonzero(masks)
    _, first = np.unique(masks[nonempty], return_index=True)
    rect_index = nonempty[np.sort(first)]
    cand = masks[rect_index]

    # Each set's |sum of p - q| and sum of |p - q|, added point by point
    # in index order.
    delta = np.subtract(pw, qw)
    signed = np.zeros(len(cand))
    spread = np.zeros(len(cand))
    for i in range(n):
        hit = (cand & bit[i]).astype(bool)
        signed += np.where(hit, delta[i], 0.0)
        spread += np.where(hit, abs(delta[i]), 0.0)
    order = np.argsort(-np.abs(signed), kind="stable")
    values = np.abs(signed)[order].tolist()
    cand_masks = cand[order].tolist()
    cand_spread = spread[order].tolist()
    rect_index = rect_index[order]
    # Disjoint sets drawn from the unused points add at most the unused
    # points' sum of |p - q| (triangle inequality). The float sums behind
    # that bound are off by far less than _REM_SLACK of the total, so the
    # slack keeps it from cutting a branch that would raise the best value.
    # When every |p - q| is an integer multiple of one power of two and
    # those integers sum below 2^53, every sum here is exact: no slack.
    total_spread = float(np.abs(delta).sum())
    ratios = [abs(x).as_integer_ratio() for x in delta.tolist()]
    den = max((b for _, b in ratios), default=1)
    exact = sum(a * (den // b) for a, b in ratios) < 1 << 53
    slack = 0.0 if exact else _REM_SLACK * total_spread
    best_value = 0.0
    best: tuple[int, ...] = ()

    def search(
        start: int, used: int, acc: float, rem: float, chosen: list, left: int
    ):
        nonlocal best_value, best
        if acc > best_value:
            best_value = acc
            best = tuple(chosen)
        if left == 0 or start >= len(values):
            return
        # optimistic bound: the unused mass, or the next `left` largest values
        if acc + min(rem + slack, sum(values[start : start + left])) <= best_value:
            return
        for i in range(start, len(values)):
            val = values[i]
            if acc + val * left <= best_value:
                break
            if used & cand_masks[i]:
                continue
            chosen.append(i)
            search(
                i + 1,
                used | cand_masks[i],
                acc + val,
                rem - cand_spread[i],
                chosen,
                left - 1,
            )
            chosen.pop()

    search(0, 0, 0.0, total_spread, [], k)

    def rect(i: int) -> AxisRectangle:
        pos = np.unravel_index(rect_index[i], [len(lo) for lo, _ in bounds])
        return AxisRectangle(
            [lo[f] for (lo, _), f in zip(bounds, pos)],
            [hi[f] for (_, hi), f in zip(bounds, pos)],
        )

    return best_value, tuple(map(rect, best))


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
