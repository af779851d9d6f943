"""Exact A_k oracles and the dominating-pair mass bounds."""

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
)


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


def test_point_masses_1d():
    p, q = delta(1.0), delta(2.0)
    value, family = ak_distance_bruteforce(p, q, 1)
    assert value == 1.0
    assert len(family) == 1
    value, family = ak_distance_bruteforce(p, q, 2)
    assert value == 2.0
    assert family.disjoint


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
        assert family.disjoint
        recomputed = sum(abs(p.mass_of(r) - q.mass_of(r)) for r in family.rects)
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
