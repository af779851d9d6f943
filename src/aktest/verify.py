"""Named invariant suites behind the `verify` CLI subcommand.

Each suite re-checks one cluster of exact or statistical facts the tester
rests on, at desk scale, and reports one line per check. Suites return
plain results instead of raising so a failing check still lets the rest
of its suite run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .covering import CoverFamily
from .flatten import SplitMap, build_split_map
from .geometry import (
    AxisRectangle,
    decompose_complement,
    erdos_szekeres_threshold,
    find_dominating_triple,
    is_generic,
    rect_from_points,
)
from .hardness import (
    VARIANT_R,
    VARIANT_T,
    SquareEdgeGadget,
    law_fit,
    order_tuple_distribution_distance,
    order_tuple_laws,
    sample_order_tuple_cells,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---- covering ---------------------------------------------------------------


def run_covering_suite(seed: int = 0, rects_per_case: int = 100) -> list[CheckResult]:
    """Counting, membership, and decomposition facts of the dyadic cover."""
    rng = np.random.default_rng((seed, 0xC0))
    results = []
    for m, d in itertools.product((4, 8, 16), (1, 2, 3)):
        cover = CoverFamily(m, d)
        per_axis = len({iv for g in range(m) for iv in cover.containing_intervals(g)})
        results.append(
            _check(
                f"family-size m={m} d={d}",
                per_axis == 2 * m - 2 and cover.per_axis_count == 2 * m - 2,
                f"per-axis rectangles {per_axis}, expected {2 * m - 2}",
            )
        )
        counts = {cover.axis_membership_count(g) for g in range(m)}
        results.append(
            _check(
                f"membership m={m} d={d}",
                counts == {cover.levels},
                f"per-axis membership counts {sorted(counts)}, expected "
                f"{{{cover.levels}}} (so every cell lies in exactly "
                f"{cover.levels}^{d} rectangles)",
            )
        )
        cap = (2 * cover.levels) ** d
        worst = 0
        failures = 0
        for _ in range(rects_per_case):
            lo = [int(rng.integers(0, m)) for _ in range(d)]
            hi = [int(rng.integers(a, m)) + 1 for a in lo]
            pieces = cover.decompose_grid_rect(lo, hi)
            worst = max(worst, len(pieces))
            target = set(itertools.product(*map(range, lo, hi)))
            seen: set[tuple[int, ...]] = set()
            ok = len(pieces) <= cap
            for piece in pieces:
                cells = set(itertools.product(*cover.gap_ranges(piece)))
                if seen & cells:
                    ok = False
                seen |= cells
            if seen != target or not ok:
                failures += 1
        results.append(
            _check(
                f"decomposition m={m} d={d}",
                failures == 0,
                f"{rects_per_case} random grid rectangles, worst piece count "
                f"{worst} (cap {cap}), {failures} partition failures",
            )
        )
    return results


# ---- square-edge gadgets ----------------------------------------------------


def run_square_edge_suite(seed: int = 0) -> list[CheckResult]:
    """Exact T-versus-R quadrant-mass identities on the diamond."""
    results = []
    t = SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_T)
    r = SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_R)
    worst = 0.0
    for _, a, b, _ in SquareEdgeGadget((0.0, 0.0), 1.0, "MIX").edges():
        for u in np.linspace(0.0, 1.0, 251)[:-1]:
            pt = (a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))
            for quad in (1, 2, 3, 4):
                gap = abs(t.quadrant_mass(pt, quad) - r.quadrant_mass(pt, quad))
                worst = max(worst, gap)
    results.append(
        _check(
            "quadrant-equality sweep",
            worst <= 1e-12,
            f"1000 on-support points x 4 quadrants, max |T - R| = {worst:.3g}",
        )
    )
    half = (0.5, 0.5)
    results.append(
        _check(
            "upper-right corner mass",
            t.quadrant_mass(half, 1) == 0.0 and r.quadrant_mass(half, 1) == 0.0,
            "open quadrant beyond (0.5, 0.5) is empty under both variants",
        )
    )
    top = (0.0, 1.0)
    tm, rm = t.quadrant_mass(top, 2), r.quadrant_mass(top, 2)
    results.append(
        _check(
            "top-vertex lower-left mass",
            abs(tm - 0.5) <= 1e-12 and abs(rm - 0.5) <= 1e-12,
            f"T {tm:.12f}, R {rm:.12f}, expected 0.5 each",
        )
    )
    rng = np.random.default_rng((seed, 0x5E))
    pts = t.sample(100_000, rng)
    on = np.abs(np.abs(pts[:, 0]) + np.abs(pts[:, 1]) - 1.0) < 1e-12
    upper_left = (pts[:, 0] < 0) & (pts[:, 1] > 0)
    frac = float(upper_left.mean())
    results.append(
        _check(
            "sampler support and balance",
            bool(on.all()) and abs(frac - 0.5) < 0.01,
            f"all 1e5 draws on the diamond, upper-left share {frac:.4f}",
        )
    )
    return results


# ---- order tuples -----------------------------------------------------------


def run_order_tuple_suite(seed: int = 0, trials: int = 1_000_000) -> list[CheckResult]:
    """Exact order-tuple laws match for up to 3 samples and split at 4; the
    gadget sampler fits the m = 4 laws with `trials` tuples per world."""
    results = []
    fit_laws = order_tuple_laws(4)
    for m in (1, 2, 3, 4):
        tv = order_tuple_distribution_distance(m, fit_laws if m == 4 else None)
        want = Fraction(15, 64) if m == 4 else Fraction(0)
        results.append(
            _check(
                f"tuple-law {'gap' if m == 4 else 'match'} m={m}",
                tv == want,
                f"exact TV {tv}, expected {want}",
            )
        )
    cells = sample_order_tuple_cells(4, trials, np.random.default_rng((seed, 0x07)))
    for world, world_cells, law in zip(("yes", "no"), cells, fit_laws):
        z, df, outside = law_fit(world_cells, law)
        results.append(
            _check(
                f"sampler fit m=4 {world} world",
                outside == 0 and z <= 4.0,
                f"{trials} tuples on {len(law[0])} exact cells: chi-square z "
                f"{z:+.2f} (at most 4) on {df} df, {outside} draws off the support",
            )
        )
    return results


# ---- dominating triples -----------------------------------------------------


def run_ramsey_suite(seed: int = 0, trials: int = 1000) -> list[CheckResult]:
    """Threshold formula values and the planar dominating-triple facts."""
    results = []
    results.append(
        _check(
            "threshold values",
            erdos_szekeres_threshold(3, 1) == 5
            and erdos_szekeres_threshold(3, 2) == 17,
            "psi(3,1) = 5 and psi(3,2) = 17",
        )
    )
    rng = np.random.default_rng((seed, 0xE5))
    missing = 0
    for _ in range(trials):
        pts = rng.random((5, 2))
        while not is_generic(pts):
            pts = rng.random((5, 2))
        if find_dominating_triple(pts) is None:
            missing += 1
    results.append(
        _check(
            "five generic points dominate",
            missing == 0,
            f"{trials} random generic 5-point planar sets, {missing} without "
            "a dominating triple",
        )
    )
    witness = [(1.0, 2.0), (2.0, 4.0), (3.0, 1.0), (4.0, 3.0)]
    results.append(
        _check(
            "four-point witness",
            find_dominating_triple(witness) is None,
            "the staircase 4-point set has no dominating triple",
        )
    )
    return results


# ---- complement carving -----------------------------------------------------


def _carve_hits(probes: np.ndarray, rects: list[AxisRectangle]) -> np.ndarray:
    """How many of the closed rectangles hold each (n, d) probe."""
    hits = np.zeros(len(probes), dtype=np.int64)
    for rect in rects:
        hits += ((probes >= rect.lo) & (probes <= rect.hi)).all(axis=1)
    return hits


def run_carve_suite(seed: int = 0, trials: int = 1000) -> list[CheckResult]:
    """outer minus inner splits into at most 2d disjoint rectangles."""
    rng = np.random.default_rng((seed, 0xCA))
    results = []
    for d in (1, 2, 3):
        worst = 0
        failures = 0
        for _ in range(trials):
            lo = rng.random(d)
            hi = lo + 0.1 + rng.random(d)
            outer = AxisRectangle(lo, hi)
            a = lo + rng.random(d) * (hi - lo)
            b = lo + rng.random(d) * (hi - lo)
            inner = rect_from_points(a, b)
            pieces = decompose_complement(outer, inner)
            worst = max(worst, len(pieces))
            probes = lo + rng.random((200, d)) * (hi - lo)
            hits = _carve_hits(probes, [inner, *pieces])
            failures += int(np.count_nonzero(hits != 1))
            if len(pieces) > 2 * d:
                failures += 1
        results.append(
            _check(
                f"carving d={d}",
                failures == 0,
                f"{trials} random pairs, worst piece count {worst} (cap {2 * d}), "
                f"{failures} partition violations over 200 probes each",
            )
        )
    return results


# ---- split distributions ----------------------------------------------------


def _exact_l1(p: dict, q: dict) -> Fraction:
    keys = set(p) | set(q)
    return sum((abs(p.get(x, 0) - q.get(x, 0)) for x in keys), Fraction(0))


def _exact_l2_sq(split: SplitMap, masses: dict) -> Fraction:
    out = Fraction(0)
    for elem, mass in masses.items():
        a = split.a(elem)
        out += Fraction(mass, 1) ** 2 / a
    return out


def run_split_suite(seed: int = 0) -> list[CheckResult]:
    """Flattening facts: l1 preserved, l2 shrinks, expected l2^2 <= 1/m0."""
    rng = np.random.default_rng((seed, 0x5F))
    results = []
    domain = list(range(12))

    def random_masses() -> dict:
        weights = [int(w) for w in rng.integers(0, 20, size=len(domain))]
        total = max(1, sum(weights))
        return {x: Fraction(w, total) for x, w in zip(domain, weights) if w}

    l1_bad = 0
    mono_bad = 0
    for _ in range(100):
        p, q = random_masses(), random_masses()
        multiset = [int(x) for x in rng.integers(0, len(domain), size=30)]
        split = build_split_map(multiset)
        bigger = build_split_map(
            multiset + [int(x) for x in rng.integers(0, len(domain), size=20)]
        )
        ps, qs = split.pushforward(p), split.pushforward(q)
        if _exact_l1(ps, qs) != _exact_l1(p, q):
            l1_bad += 1
        if _exact_l2_sq(bigger, p) > _exact_l2_sq(split, p):
            mono_bad += 1
    results.append(
        _check(
            "l1 preservation",
            l1_bad == 0,
            f"100 random (p, q, multiset) triples, {l1_bad} exact mismatches",
        )
    )
    results.append(
        _check(
            "l2 monotone in the multiset",
            mono_bad == 0,
            f"100 nested multiset pairs, {mono_bad} norm increases",
        )
    )

    m0 = 40
    trials = 4000
    weights = rng.dirichlet(np.ones(64))
    sq_norms = np.empty(trials)
    for t in range(trials):
        counts = rng.poisson(m0 * weights)
        a = 1.0 + counts
        sq_norms[t] = float(np.sum(weights**2 / a))
    mean = float(sq_norms.mean())
    stderr = float(sq_norms.std(ddof=1) / math.sqrt(trials))
    exact = float(
        np.sum(weights * -np.expm1(-m0 * weights)) / m0
    )
    ok = mean <= 1.1 / m0 and abs(mean - exact) <= 4 * stderr and exact <= 1.0 / m0
    results.append(
        _check(
            "expected split l2^2",
            ok,
            f"Monte-Carlo mean {mean:.6f} vs closed form {exact:.6f} "
            f"(stderr {stderr:.6f}), bound 1/m0 = {1 / m0:.6f}",
        )
    )
    return results


SUITES = {
    "covering": run_covering_suite,
    "square-edge": run_square_edge_suite,
    "order-tuples": run_order_tuple_suite,
    "ramsey": run_ramsey_suite,
    "carve": run_carve_suite,
    "split": run_split_suite,
}
