"""Flattening (split distributions) and the robust l2 closeness tester.

A sample access is a callable ``access(n, rng) -> 1-d array of n codes``
of any sortable dtype. Counts are always array pairs: the sorted distinct
codes of a draw and their int64 counts. A split never expands them: the
split elements' counts move into one int64 piece vector per side, laid
out by the split map, so both sides' pieces line up slot for slot and no
piece needs a code. All randomness flows through the generator the caller
passes in, so runs are reproducible and order-independent of wall-clock
effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidInput

SampleAccess = Callable[[int, np.random.Generator], np.ndarray]

_ROBUST_CONST = 4.0  # c_r in m = ceil(c_r sqrt(b) / eps^2)
_FLATTEN_CONST = 2.0  # c_f in m0 = min(s/100, ceil(c_f eps^(-4/3)))
_REPEATS = 3  # odd, so some side of the threshold always holds a majority of runs
_DRAW_CAP = 1 << 23  # largest Poisson mean robust_l2_test draws per side in one array


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of a closeness test. reject holds iff statistic >= threshold.

    z_values holds the statistic of each boosting repeat that ran, in run
    order; statistic is one of them.
    """

    accept: bool
    statistic: float
    threshold: float
    samples_used: int
    z_values: tuple[float, ...]

    @property
    def decision(self) -> str:
        return "accept" if self.accept else "reject"


def l2_collision_statistic(counts_p: Mapping, counts_q: Mapping) -> float:
    """Z = sum over elements of (X_i - Y_i)^2 - X_i - Y_i.

    Under Poissonized sampling with budget m per side, E[Z] = m^2 ||p - q||_2^2.
    Elements absent from both sides contribute zero, so iterating the union
    of observed elements is exact. This is the reference the array form
    of the statistic is checked against.
    """
    z = 0
    for key in counts_p.keys() | counts_q.keys():
        x = counts_p.get(key, 0)
        y = counts_q.get(key, 0)
        z += (x - y) * (x - y) - x - y
    return float(z)


def _z_from_arrays(
    uids_p: np.ndarray, counts_p: np.ndarray, uids_q: np.ndarray, counts_q: np.ndarray
) -> int:
    """l2_collision_statistic over sorted, distinct codes per side, as an int.

    Z = sum X^2 + sum Y^2 - 2 sum XY - sum X - sum Y, where the cross term
    runs over the codes both sides hold. A stable sort of the two sorted
    runs is one merge, and a shared code lands in two adjacent slots, the
    p side first; only the codes are merged, not the counts.
    """
    keys = np.concatenate([uids_p, uids_q])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    shared = np.flatnonzero(keys[1:] == keys[:-1])
    cross = counts_p[order[shared]] @ counts_q[order[shared + 1] - len(uids_p)]
    z = counts_p @ counts_p + counts_q @ counts_q - 2 * cross
    return int(z - counts_p.sum() - counts_q.sum())


def _z_of_pieces(pieces_p: np.ndarray, pieces_q: np.ndarray) -> int:
    """Z over two piece vectors of one split map, whose slots line up."""
    gap = pieces_p - pieces_q
    return int(gap @ gap - pieces_p.sum() - pieces_q.sum())


@dataclass(frozen=True, eq=False)
class SplitMap:
    """Elementwise split multiplicities from a flattening multiset.

    Element i is split into a_i = 1 + (occurrences of i in the multiset)
    pieces. ``elements`` holds the sorted distinct elements that occurred
    and ``counts`` their occurrences; ``multiplicity`` is the same map as a
    dict, for ``a`` and ``pushforward``. The sum of a_i over a base domain
    of size n is n + |multiset|.
    """

    elements: np.ndarray
    counts: np.ndarray

    @cached_property
    def multiplicity(self) -> dict:
        return dict(zip(self.elements.tolist(), self.counts.tolist()))

    def a(self, elem) -> int:
        return 1 + int(self.multiplicity.get(elem, 0))

    @property
    def flattening_size(self) -> int:
        return int(self.counts.sum())

    @property
    def max_parts(self) -> int:
        return 1 + (int(self.counts.max()) if len(self.counts) else 0)

    @cached_property
    def piece_start(self) -> np.ndarray:
        """Where element i's a_i adjacent pieces start, then the piece count."""
        return np.concatenate([[0], np.cumsum(1 + self.counts)])

    # ---- exact pushforward -------------------------------------------------

    def pushforward(self, masses: Mapping) -> dict:
        """Split measure: mass(i, j) = mass(i) / a_i for j = 1..a_i.

        Works with any mass values supporting division by int (floats,
        fractions.Fraction for exact-arithmetic checks).
        """
        out = {}
        for elem, w in masses.items():
            parts = self.a(elem)
            share = w / parts
            for j in range(1, parts + 1):
                out[(elem, j)] = share
        return out

    # ---- sampling-side application ------------------------------------------

    def split_counts_arrays(
        self, uids: np.ndarray, counts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Redistribute the observed counts of sorted, distinct codes
        multinomially over the split pieces.

        That is equivalent in distribution to splitting each sample
        independently, since the uniform piece choices within one element
        are exchangeable. Returns a copy of the counts with every split
        element's count zeroed, and the int64 piece vector: piece j + 1 of
        ``elements[i]`` is at ``piece_start[i] + j``, so both sides of a
        test, which share the map, line up slot for slot. Unobserved
        elements' pieces hold 0.

        The multinomial split runs as a chain of binomials, vectorised over
        the split elements present: piece j of an element with a parts takes
        Bin(remaining, 1 / (a - j + 1)) of what the earlier pieces left, and
        the last piece takes the rest.
        """
        pieces = np.zeros(self.piece_start[-1], dtype=np.int64)
        pos = np.searchsorted(uids, self.elements)
        found = np.flatnonzero(pos < len(uids))
        found = found[uids[pos[found]] == self.elements[found]]
        pos, a, first = pos[found], 1 + self.counts[found], self.piece_start[found]
        left = counts[pos]  # a fancy index copies
        counts = counts.copy()
        counts[pos] = 0
        live = np.arange(len(pos))
        for j in range(int(a.max(initial=1)) - 1):
            live = live[a[live] > j + 1]
            draw = rng.binomial(left[live], 1.0 / (a[live] - j))
            pieces[first[live] + j] = draw
            left[live] -= draw
        pieces[first + a - 1] = left
        return counts, pieces


def build_split_map(samples) -> SplitMap:
    """Split map of a flattening multiset, a 1-d array-like of sortable elements."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise InvalidInput("a flattening multiset must be 1-d")
    uids, counts = np.unique(samples, return_counts=True)
    return SplitMap(uids, counts.astype(np.int64))


def _draw_counts(
    access: SampleAccess, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n samples; their sorted distinct codes and int64 counts.

    np.unique's result from one sort, with no flattened or cast copy; the
    unsorted draw is freed before the run starts are found.
    """
    samples = np.asarray(access(n, rng))
    if samples.ndim != 1:
        raise InvalidInput("sample accesses must return 1-d codes")
    ordered = np.sort(samples)
    del samples
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return ordered[starts], np.diff(starts, append=len(ordered))


def robust_l2_test(
    p_access: SampleAccess,
    q_access: SampleAccess,
    b: float,
    eps: float,
    rng: np.random.Generator,
    *,
    split: SplitMap | None = None,
) -> TestVerdict:
    """Poissonized l2 closeness test robust to an l2-norm bound b.

    Budget m = ceil(c_r sqrt(b) / eps^2) per side per repetition; rejects
    when the collision statistic reaches m^2 eps^2 / 2, which separates
    ||p - q||_2 = 0 from ||p - q||_2 >= eps whenever max(||p||_2^2,
    ||q||_2^2) <= b. The test is boosted by a majority vote of up to
    ``_REPEATS`` runs and stops once one side of the threshold holds a
    majority: with three, after two runs that agree. The runs made draw
    what they would draw if all three ran, so the verdict is the median
    run's, bit for bit, and samples_used counts only the draws made. The
    verdict statistic is the majority side's Z nearest the threshold (the
    median Z when three ran), so "reject iff statistic >= threshold" is
    preserved under boosting.

    With a ``split`` map, Z is that of the split distributions: each
    side's draw is split by ``split.split_counts_arrays``, and Z is the
    unsplit codes' Z plus the piece vectors' sum (P_p - P_q)^2 - P_p - P_q.
    """
    if b <= 0 or not math.isfinite(b):
        raise InvalidInput(f"norm bound b must be positive and finite, got {b}")
    if eps <= 0 or not math.isfinite(eps):
        raise InvalidInput(f"accuracy must be positive and finite, got {eps}")
    m = math.ceil(_ROBUST_CONST * math.sqrt(b) / (eps * eps))
    if m > _DRAW_CAP:
        raise InvalidInput(
            f"l2 test needs Poi({m}) draws per side, above _DRAW_CAP = {_DRAW_CAP}"
        )
    threshold = m * m * eps * eps / 2.0
    split = build_split_map([]) if split is None else split
    z_values = []
    rejects = 0
    used = 0
    while max(rejects, len(z_values) - rejects) <= _REPEATS // 2:
        sides, pieces = [], []
        for access in (p_access, q_access):
            n = int(rng.poisson(m))
            used += n
            uids, counts = _draw_counts(access, n, rng)
            counts, piece = split.split_counts_arrays(uids, counts, rng)
            sides += [uids, counts]
            pieces.append(piece)
        z_values.append(float(_z_from_arrays(*sides) + _z_of_pieces(*pieces)))
        rejects += z_values[-1] >= threshold
    reject = rejects > _REPEATS // 2
    majority = [z for z in z_values if (z >= threshold) == reject]
    statistic = min(majority) if reject else max(majority)
    return TestVerdict(
        accept=not reject,
        statistic=statistic,
        threshold=threshold,
        samples_used=used,
        z_values=tuple(z_values),
    )


def flatten_closeness(
    p_access: SampleAccess,
    q_access: SampleAccess,
    s: int,
    eps: float,
    rng: np.random.Generator,
) -> TestVerdict:
    """Closeness test after flattening with a mixture multiset.

    Draws Poi(m0) flattening samples from (p + q) / 2 with
    m0 = max(1, min(floor(s / 100), ceil(c_f eps^(-4/3)))), splits both
    distributions by the resulting multiset, and runs robust_l2_test at
    accuracy eps / sqrt(3) with norm bound b = 40 / m0. Distinguishes p = q
    from "some s light elements carry squared discrepancy eps^2" with
    constant probability; total budget Theta(max(eps^(-4/3),
    eps^(-2) / sqrt(s))).
    """
    if s < 1:
        raise InvalidInput(f"light-element count s must be >= 1, got {s}")
    if eps <= 0:
        raise InvalidInput(f"accuracy must be positive, got {eps}")
    cap = _FLATTEN_CONST * eps ** (-4.0 / 3.0)
    if not math.isfinite(cap):
        raise InvalidInput(f"flattening budget overflows at eps={eps}")
    m0 = max(1, min(s // 100, math.ceil(cap)))
    n_flat = int(rng.poisson(m0))
    n_from_p = int(rng.binomial(n_flat, 0.5)) if n_flat else 0
    flattening = np.concatenate(
        [p_access(n_from_p, rng), q_access(n_flat - n_from_p, rng)]
    )
    split = build_split_map(flattening)
    verdict = robust_l2_test(
        p_access,
        q_access,
        b=40.0 / m0,
        eps=eps / math.sqrt(3.0),
        rng=rng,
        split=split,
    )
    return replace(verdict, samples_used=verdict.samples_used + n_flat)
