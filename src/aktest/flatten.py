"""Flattening (split distributions) and the robust l2 closeness tester.

A sample access is a callable ``access(n, rng) -> 1-d array of n codes``.
Counts are always array pairs: the sorted distinct codes of a draw and
their int64 counts. ``robust_l2_test`` takes codes of any sortable dtype;
``flatten_closeness`` needs integer codes, because split pieces are keyed
by arithmetic on them. All randomness flows through the generator the
caller passes in, so runs are reproducible and order-independent of
wall-clock effects.
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
) -> float:
    """l2_collision_statistic over sorted, distinct codes per side.

    Z = sum X^2 + sum Y^2 - 2 sum XY - sum X - sum Y, where the cross term
    runs over the codes both sides hold. A stable sort of the two sorted
    runs is one merge, and a shared code lands in two adjacent slots, the
    p side first.
    """
    keys = np.concatenate([uids_p, uids_q])
    values = np.concatenate([counts_p, counts_q]).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    shared = np.flatnonzero(ordered[1:] == ordered[:-1])
    cross = values[order[shared]] @ values[order[shared + 1]]
    return float(values @ values - 2 * cross - values.sum())


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
        """Redistribute observed counts of sorted, distinct integer codes
        multinomially over the split pieces.

        That is equivalent in distribution to splitting each sample
        independently, since the uniform piece choices within one element
        are exchangeable. Split pieces are encoded as uid * max_parts +
        (j - 1); both sides of a test share the map, hence the encoding, so
        joint keys line up. The output is sorted by code and may hold pieces
        with count 0. Raises InvalidInput when a piece code would overflow
        int64.

        The multinomial split runs as a chain of binomials, vectorised over
        the split elements present: piece j of an element with a parts takes
        Bin(remaining, 1 / (a - j + 1)) of what the earlier pieces left, and
        the last piece takes the rest.
        """
        parts = self.max_parts
        if parts == 1 or not len(uids):
            return uids.astype(np.int64), counts
        # uids are sorted, so the two ends bound every piece code.
        if uids[0] < -(2**63 // parts) or uids[-1] > (2**63 - parts) // parts:
            raise InvalidInput(
                f"split codes overflow int64: codes span [{uids[0]}, {uids[-1]}]"
                f" with {parts} pieces per element"
            )
        codes = uids.astype(np.int64) * parts
        pos = np.minimum(np.searchsorted(uids, self.elements), len(uids) - 1)
        found = uids[pos] == self.elements
        pos, a = pos[found], 1 + self.counts[found]
        if not len(pos):
            return codes, counts
        # Output slots: element i of uids takes reps[i] adjacent slots from
        # start[i]; slot start[i] + j holds piece j + 1, coded uid * parts + j.
        reps = np.ones(len(uids), dtype=np.int64)
        reps[pos] = a
        start = np.cumsum(reps) - reps
        owner = np.repeat(np.arange(len(uids)), reps)
        piece = np.arange(len(owner)) - start[owner]
        out = counts[owner]
        first = start[pos]
        left = counts[pos].astype(np.int64)
        live = np.arange(len(pos))
        for j in range(int(a.max()) - 1):
            live = live[a[live] > j + 1]
            draw = rng.binomial(left[live], 1.0 / (a[live] - j))
            out[first[live] + j] = draw
            left[live] -= draw
        out[first + a - 1] = left
        return codes[owner] + piece, out


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
    counts_transform: Callable | None = None,
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

    ``counts_transform(uids, counts, rng)`` post-processes each side's
    count arrays before the statistic (the flattening step plugs in here).
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
    z_values = []
    rejects = 0
    used = 0
    while max(rejects, len(z_values) - rejects) <= _REPEATS // 2:
        sides = []
        for access in (p_access, q_access):
            n = int(rng.poisson(m))
            used += n
            uids, counts = _draw_counts(access, n, rng)
            if counts_transform is not None:
                uids, counts = counts_transform(uids, counts, rng)
            sides += [uids, counts]
        z_values.append(_z_from_arrays(*sides))
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
        counts_transform=split.split_counts_arrays,
    )
    return replace(verdict, samples_used=verdict.samples_used + n_flat)
