"""Exact A_k oracles and the dominating-pair mass bounds."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from aktest import (
    AxisRectangle,
    CapExceeded,
    DiscreteGridDistribution,
    InvalidInput,
    ak_distance_1d,
    ak_distance_bruteforce,
    constant_mass_bound,
    expected_pair_mass,
    is_generic,
    make_instance,
)
from aktest.families import _random_edges, _strip_histogram_access


def delta(*coords):
    return DiscreteGridDistribution.from_atoms({tuple(coords): 1.0})


def four_atom_pair():
    p = DiscreteGridDistribution.from_atoms({(0.0, 0.0): 0.5, (1.0, 1.0): 0.5})
    q = DiscreteGridDistribution.from_atoms({(0.0, 1.0): 0.5, (1.0, 0.0): 0.5})
    return p, q


def random_dyadic_pair(rng, n_atoms=6):
    """d=1 measures with masses in multiples of 1/64, so sums are float-exact."""
    pts = np.sort(rng.choice(np.arange(64), size=n_atoms, replace=False)).astype(float)
    pw = rng.integers(0, 16, size=n_atoms) / 64.0
    qw = rng.integers(0, 16, size=n_atoms) / 64.0
    p = DiscreteGridDistribution.from_atoms({(x,): w for x, w in zip(pts, pw)})
    q = DiscreteGridDistribution.from_atoms({(x,): w for x, w in zip(pts, qw)})
    return p, q


def assert_support_disjoint(p, q, family):
    """No support point of p or q lies in two witness rectangles."""
    support = {d.point_of(idx) for d in (p, q) for idx in d.mass}
    for pt in support:
        assert sum(rect.contains(pt) for rect in family) <= 1


def test_point_masses_1d():
    p, q = delta(1.0), delta(2.0)
    value, family = ak_distance_bruteforce(p, q, 1)
    assert value == 1.0
    assert len(family) == 1
    value, family = ak_distance_bruteforce(p, q, 2)
    assert value == 2.0
    assert len(family) == 2
    assert_support_disjoint(p, q, family)


def test_four_atom_hand_values():
    p, q = four_atom_pair()
    assert ak_distance_bruteforce(p, q, 1)[0] == 0.5
    assert ak_distance_bruteforce(p, q, 2)[0] == 1.0
    assert ak_distance_bruteforce(p, q, 3)[0] == 1.5
    assert ak_distance_bruteforce(p, q, 4)[0] == 2.0


def test_equal_distributions_have_zero_distance():
    p, _ = four_atom_pair()
    value, family = ak_distance_bruteforce(p, p, 3)
    assert value == 0.0
    assert len(family) == 0


def test_witness_recomputes_to_the_value():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, q = random_dyadic_pair(rng)
        k = int(rng.integers(1, 5))
        value, family = ak_distance_bruteforce(p, q, k)
        assert len(family) <= k
        assert_support_disjoint(p, q, family)
        recomputed = sum(abs(p.mass_of(r) - q.mass_of(r)) for r in family)
        assert recomputed == value


def test_distance_is_monotone_in_k():
    rng = np.random.default_rng(11)
    p, q = random_dyadic_pair(rng, n_atoms=8)
    values = [ak_distance_bruteforce(p, q, k)[0] for k in range(1, 6)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_dp_matches_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p, q = random_dyadic_pair(rng)
        for k in (1, 2, 3, 4):
            assert ak_distance_1d(p, q, k) == ak_distance_bruteforce(p, q, k)[0]


def test_dp_saturates_at_l1():
    rng = np.random.default_rng(17)
    p, q = random_dyadic_pair(rng, n_atoms=5)
    pts = sorted({pt for d in (p, q) for idx in d.mass for pt in [d.point_of(idx)]})
    l1 = sum(
        abs(
            p.mass_of(AxisRectangle(pt, pt)) - q.mass_of(AxisRectangle(pt, pt))
        )
        for pt in pts
    )
    assert ak_distance_1d(p, q, 5) == l1
    assert ak_distance_1d(p, q, 8) == l1


def quadratic_dp(deltas, k):
    """The O(k n^2) form of the DP: every last interval l..i, summed from i back."""
    prev = [0.0] * (len(deltas) + 1)
    for _ in range(k):
        cur = [0.0] * len(prev)
        for i in range(1, len(prev)):
            cur[i] = max(cur[i - 1], prev[i - 1])
            run = 0.0
            for l in range(i, 0, -1):
                run += deltas[l - 1]
                cur[i] = max(cur[i], prev[l - 1] + abs(run))
        prev = cur
    return prev[-1]


def test_dp_matches_quadratic_form_on_non_dyadic_masses():
    # prefix sums round differently from runs summed backwards, so the two
    # agree to a few ulps of the total mass, not bit for bit
    rng = np.random.default_rng(71)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 7))
        xs = np.arange(n, dtype=float)
        pw, qw = rng.random(n), rng.random(n) * (rng.random(n) < 0.7)
        p = DiscreteGridDistribution.from_atoms({(x,): w for x, w in zip(xs, pw)})
        q = DiscreteGridDistribution.from_atoms({(x,): w for x, w in zip(xs, qw)})
        expected = quadratic_dp(list(pw - qw), k)
        assert ak_distance_1d(p, q, k) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_dp_input_guards():
    p, q = four_atom_pair()
    with pytest.raises(InvalidInput):
        ak_distance_1d(p, q, 2)  # two-dimensional
    a, b = delta(1.0), delta(2.0)
    with pytest.raises(InvalidInput):
        ak_distance_1d(a, b, 0)


def test_bruteforce_caps():
    p, q = four_atom_pair()
    with pytest.raises(CapExceeded):
        ak_distance_bruteforce(p, q, 9)
    big = DiscreteGridDistribution.from_atoms(
        {(float(i),): 1.0 / 65 for i in range(65)}
    )
    with pytest.raises(CapExceeded):
        ak_distance_bruteforce(big, delta(0.5), 2)


def reference_bruteforce(p, q, k):
    """The brute force in its plain form: a Python cover mask per rectangle,
    the first rectangle of each covered set kept, and a search pruned only
    by the next `left` values. Returns (value, witness rectangles)."""
    atoms = {}
    for side, dist in enumerate((p, q)):
        for idx, w in dist.mass.items():
            atoms.setdefault(dist.point_of(idx), [0.0, 0.0])[side] += w
    points = sorted(atoms)
    axis_pairs = [
        itertools.combinations_with_replacement(sorted({pt[j] for pt in points}), 2)
        for j in range(p.dim)
    ]
    by_mask = {}
    for bounds in itertools.product(*axis_pairs):
        rect = AxisRectangle([b[0] for b in bounds], [b[1] for b in bounds])
        mask = sum(1 << i for i, pt in enumerate(points) if rect.contains(pt))
        if mask:
            by_mask.setdefault(mask, rect)

    def value(mask):
        total = 0.0
        for i, pt in enumerate(points):
            if mask >> i & 1:
                total += atoms[pt][0] - atoms[pt][1]
        return abs(total)

    candidates = sorted(
        ((value(m), m, r) for m, r in by_mask.items()), key=lambda t: -t[0]
    )
    values = [c[0] for c in candidates]
    best = [0.0, ()]

    def search(start, used, acc, chosen, left):
        if acc > best[0]:
            best[:] = [acc, tuple(c[2] for c in chosen)]
        if left == 0 or acc + sum(values[start : start + left]) <= best[0]:
            return
        for i in range(start, len(candidates)):
            val, mask, _ = candidates[i]
            if acc + val * left <= best[0]:
                break
            if not used & mask:
                chosen.append(candidates[i])
                search(i + 1, used | mask, acc + val, chosen, left - 1)
                chosen.pop()

    search(0, 0, 0.0, [], k)
    return best[0], best[1]


def bruteforce_matching_reference(p, q, k):
    """ak_distance_bruteforce, asserted equal to the reference bit for bit."""
    value, family = ak_distance_bruteforce(p, q, k)
    ref_value, ref_rects = reference_bruteforce(p, q, k)
    assert value.hex() == ref_value.hex()
    assert family == ref_rects
    return value


def random_planar_pair(rng, n, side):
    """n atoms on a side x side lattice, non-dyadic masses, q often zero."""
    cells = rng.choice(side * side, size=n, replace=False)
    pts = [(float(c // side), float(c % side)) for c in cells]
    pw, qw = rng.random(n), rng.random(n) * (rng.random(n) < 0.6)
    p = DiscreteGridDistribution.from_atoms(dict(zip(pts, pw)))
    q = DiscreteGridDistribution.from_atoms(dict(zip(pts, qw)))
    return p, q


def test_bruteforce_matches_the_plain_search_on_non_dyadic_masses():
    rng = np.random.default_rng(83)
    for _ in range(30):
        p, q = random_planar_pair(rng, int(rng.integers(16, 25)), 8)
        bruteforce_matching_reference(p, q, int(rng.integers(1, 9)))


def test_bruteforce_keeps_ulp_improvements_when_the_bound_is_tight():
    # With few atoms A_k often equals the l1 distance, so many families tie
    # in exact arithmetic and differ only in rounding; the plain search keeps
    # the first family that rounds highest, and the remaining-mass bound must
    # not cut it (its slack is what keeps these equal).
    rng = np.random.default_rng(0)
    for _ in range(150):
        p, q = random_planar_pair(rng, int(rng.integers(3, 12)), 4)
        bruteforce_matching_reference(p, q, int(rng.integers(1, 9)))


def test_bruteforce_matches_the_plain_search_on_pinned_instances():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "exact_instances.json"
    pinned = json.loads(path.read_text())
    for inst in pinned["instances"]:
        p, q = (
            DiscreteGridDistribution.from_atoms(
                {tuple(map(float, pt)): w / 64 for pt, w in zip(inst["points"], ws)}
            )
            for ws in (inst["p_weights"], inst["q_weights"])
        )
        assert bruteforce_matching_reference(p, q, pinned["k"]) == inst["value_x64"] / 64


def test_hist_far_strips_on_a_grid_are_at_distance_one():
    # hist-far's own draw: k random strips, p uniform over them and q twice
    # as heavy on alternate strips. Each strip becomes one column of 8 atoms
    # (its midpoint along, 8 cell centers across); the masses stay dyadic,
    # so the l1 distance 1 is exact and the k strips attain it.
    k = 8
    for seed in range(3):
        inst = make_instance("hist-far", k, 0.5, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        edges = _random_edges(k, rng)
        axis, parity = int(rng.integers(2)), int(rng.integers(2))
        p_masses = np.full(k, 1.0 / k)
        q_masses = np.where(np.arange(k) % 2 == parity, 2.0 / k, 0.0)
        for masses, access in ((p_masses, inst.p_access), (q_masses, inst.q_access)):
            draws = (
                draw(500, np.random.default_rng(1))
                for draw in (_strip_histogram_access(edges, masses, axis), access)
            )
            assert np.array_equal(*draws)
        mids = (edges[:-1] + edges[1:]) / 2
        across = (np.arange(8) + 0.5) / 8

        def grid(masses):
            atoms = {}
            for mid, w in zip(mids, masses):
                for c in across:
                    atoms[(mid, c) if axis == 0 else (c, mid)] = w / 8
            return DiscreteGridDistribution.from_atoms(atoms)

        p, q = grid(p_masses), grid(q_masses)
        assert len(p.mass) == 64
        assert ak_distance_bruteforce(p, q, k)[0] == 1.0


def test_constant_mass_bounds():
    assert constant_mass_bound(1) == (2**1 + 1) ** -3 == 1 / 27
    assert constant_mass_bound(2) == (2**2 + 1) ** -3 == 1 / 125
    assert constant_mass_bound(3) == (2**4 + 1) ** -3
    with pytest.raises(InvalidInput):
        constant_mass_bound(4)
    with pytest.raises(InvalidInput):
        constant_mass_bound(0)


def test_expected_pair_mass_beats_the_bound():
    rng = np.random.default_rng(19)
    for d in (1, 2):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            pts = rng.random((n, d))
            while not is_generic(pts):
                pts = rng.random((n, d))
            w = rng.dirichlet(np.ones(n))
            dist = DiscreteGridDistribution.from_atoms(
                {tuple(pt): float(wi) for pt, wi in zip(pts, w)}
            )
            assert expected_pair_mass(dist) >= constant_mass_bound(d)


def test_expected_pair_mass_point_mass_is_one():
    assert expected_pair_mass(delta(0.5)) == 1.0
