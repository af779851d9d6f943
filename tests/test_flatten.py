"""Flattening, split distributions, and the robust l2 closeness test."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from aktest import (
    InvalidInput,
    SplitMap,
    build_split_map,
    flatten_closeness,
    l2_collision_statistic,
    robust_l2_test,
)
from aktest.flatten import _ROBUST_CONST, _draw_counts, _z_from_arrays
from aktest.flatten import TestVerdict as Verdict  # a Test* name would be collected


def test_split_map_single_occurrence():
    split = build_split_map([0])
    assert split.a(0) == 2
    assert split.a(1) == 1
    assert split.max_parts == 2


def test_split_map_empty_multiset_is_identity():
    split = build_split_map([])
    assert all(split.a(i) == 1 for i in range(4))
    assert split.pushforward({0: 0.5, 3: 0.5}) == {(0, 1): 0.5, (3, 1): 0.5}


def test_split_map_repeated_element():
    split = build_split_map([2, 2])
    assert (split.a(0), split.a(1), split.a(2)) == (1, 1, 3)
    assert split.flattening_size == 2


def test_split_map_takes_any_sortable_elements():
    assert build_split_map(["a", "a"]).a("a") == 3


def test_pushforward_shares():
    split = build_split_map([0])
    pushed = split.pushforward({0: 0.5, 1: 0.5})
    assert pushed == {(0, 1): 0.25, (0, 2): 0.25, (1, 1): 0.5}


def test_pushforward_preserves_l1_exactly():
    rng = np.random.default_rng(41)
    for _ in range(25):
        p = {i: Fraction(int(w), 64) for i, w in enumerate(rng.integers(0, 9, 8)) if w}
        q = {i: Fraction(int(w), 64) for i, w in enumerate(rng.integers(0, 9, 8)) if w}
        split = build_split_map([int(x) for x in rng.integers(0, 8, 12)])
        ps, qs = split.pushforward(p), split.pushforward(q)
        before = sum(abs(p.get(i, Fraction(0)) - q.get(i, Fraction(0))) for i in range(8))
        after = sum(
            abs(ps.get(key, Fraction(0)) - qs.get(key, Fraction(0)))
            for key in set(ps) | set(qs)
        )
        assert after == before


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 5), max_size=20),
    st.lists(st.integers(1, 10), min_size=6, max_size=6),
)
def test_split_l2_never_grows(multiset, weights):
    total = sum(weights)
    masses = {i: Fraction(w, total) for i, w in enumerate(weights)}
    split = build_split_map(multiset)
    pushed = split.pushforward(masses)
    before = sum(w * w for w in masses.values())
    after = sum(w * w for w in pushed.values())
    assert after <= before


def test_split_counts_arrays_encoding():
    rng = np.random.default_rng(53)
    split = build_split_map(np.array([1, 1, 4]))
    uids = np.array([0, 1, 4], dtype=np.int64)
    counts = np.array([5, 30, 12], dtype=np.int64)
    out_u, out_c = split.split_counts_arrays(uids, counts, rng)
    assert list(out_u) == sorted(out_u)
    parts = split.max_parts
    totals = {}
    for code, c in zip(out_u, out_c):
        elem, piece = int(code) // parts, int(code) % parts + 1
        assert 1 <= piece <= split.a(elem)
        totals[elem] = totals.get(elem, 0) + int(c)
    assert totals == {0: 5, 1: 30, 4: 12}


def test_split_counts_arrays_reject_code_overflow():
    # 16 parts per element: uid * 16 + j wraps int64 for uid = 2**60
    rng = np.random.default_rng(57)
    split = build_split_map(np.array([2**60] * 15, dtype=np.int64))
    assert split.max_parts == 16
    counts = np.array([3, 4], dtype=np.int64)
    with pytest.raises(InvalidInput):
        split.split_counts_arrays(np.array([0, 2**60], dtype=np.int64), counts, rng)
    with pytest.raises(InvalidInput):
        split.split_counts_arrays(np.array([-(2**60), 0], dtype=np.int64), counts, rng)
    # the largest uid whose pieces still fit: its last piece is 2**63 - 1
    top = (2**63 - 16) // 16
    split = build_split_map(np.array([top] * 15, dtype=np.int64))
    out_u, out_c = split.split_counts_arrays(np.array([0, top], dtype=np.int64), counts, rng)
    assert out_u[-1] == 2**63 - 1 and np.all(np.diff(out_u) > 0)
    assert out_c.sum() == counts.sum()


def split_totals(split, out_u, out_c):
    """Per-element totals and per-piece counts of a split array pair."""
    parts = split.max_parts
    totals, pieces = {}, {}
    for code, c in zip(out_u.tolist(), out_c.tolist()):
        elem, piece = divmod(code, parts)
        totals[elem] = totals.get(elem, 0) + c
        pieces.setdefault(elem, [0] * split.a(elem))[piece] += c
    return totals, pieces


def test_split_counts_arrays_pieces_are_uniform():
    rng = np.random.default_rng(61)
    # element 2 has 4 parts, element 5 has 20, element 9 is in the multiset
    # but unobserved, elements 0 and 7 are not split
    split = build_split_map(np.array([2, 2, 2] + [5] * 19 + [9]))
    uids = np.array([0, 2, 5, 7], dtype=np.int64)
    counts = np.array([13, 40_000, 60_000, 1], dtype=np.int64)
    out_u, out_c = split.split_counts_arrays(uids, counts, rng)
    assert np.all(np.diff(out_u) > 0)
    totals, pieces = split_totals(split, out_u, out_c)
    assert totals == {0: 13, 2: 40_000, 5: 60_000, 7: 1}
    assert pieces[0] == [13] and pieces[7] == [1]
    assert len(pieces[2]) == 4 and len(pieces[5]) == 20
    assert chisquare(pieces[2]).pvalue > 0.01
    assert chisquare(pieces[5]).pvalue > 0.01


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 30), max_size=40),
    st.dictionaries(st.integers(0, 30), st.integers(0, 50), max_size=20),
    st.integers(0, 2**32 - 1),
)
def test_split_counts_arrays_conserve_counts(multiset, observed, seed):
    split = build_split_map(np.array(multiset, dtype=np.int64))
    uids = np.array(sorted(observed), dtype=np.int64)
    counts = np.array([observed[u] for u in sorted(observed)], dtype=np.int64)
    out_u, out_c = split.split_counts_arrays(uids, counts, np.random.default_rng(seed))
    assert np.all(np.diff(out_u) > 0) and np.all(out_c >= 0)
    totals, pieces = split_totals(split, out_u, out_c)
    assert totals == observed
    assert all(len(p) == split.a(elem) for elem, p in pieces.items())


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(-1, 40), st.integers(0, 30)),
    st.dictionaries(st.integers(-1, 40), st.integers(0, 30)),
)
def test_array_statistic_matches_dict_statistic(counts_p, counts_q):
    def arrays(counts):
        keys = sorted(counts)
        return np.array(keys, dtype=np.int64), np.array(
            [counts[k] for k in keys], dtype=np.int64
        )

    z = _z_from_arrays(*arrays(counts_p), *arrays(counts_q))
    assert z == l2_collision_statistic(counts_p, counts_q)


@pytest.mark.parametrize(
    "counts_p, counts_q, dtype",
    [
        ({}, {}, np.int64),
        ({}, {3: 2, 5: 1}, np.int64),
        ({3: 2, 5: 1}, {}, np.int64),
        ({1: 4, 2: 1}, {3: 2, 7: 5}, np.int64),  # disjoint
        ({1: 4, 2: 1, 9: 3}, {1: 4, 2: 1, 9: 3}, np.int64),  # identical
        ({"a": 2, "c": 1}, {"b": 3, "c": 4, "d": 1}, str),
        ({}, {"b": 3}, str),
    ],
)
def test_array_statistic_edge_cases(counts_p, counts_q, dtype):
    def arrays(counts):
        keys = sorted(counts)
        return np.array(keys, dtype=dtype), np.array(
            [counts[k] for k in keys], dtype=np.int64
        )

    z = _z_from_arrays(*arrays(counts_p), *arrays(counts_q))
    assert z == l2_collision_statistic(counts_p, counts_q)


def test_collision_statistic_hand_values():
    assert l2_collision_statistic({"a": 2}, {"b": 2}) == 4.0
    assert l2_collision_statistic({"a": 1, "b": 1}, {"a": 1, "b": 1}) == -4.0
    assert l2_collision_statistic({}, {}) == 0.0


def test_collision_statistic_unbiased():
    # p, q disjoint point masses, budget m = 20: E[Z] = m^2 ||p - q||_2^2 = 800
    rng = np.random.default_rng(59)
    trials = 20_000
    x = rng.poisson(20.0, size=trials)
    y = rng.poisson(20.0, size=trials)
    z = (x * x - x) + (y * y - y)  # no shared elements: cross terms vanish
    direct = [
        l2_collision_statistic({0: int(a)} if a else {}, {1: int(b)} if b else {})
        for a, b in zip(x[:50], y[:50])
    ]
    assert direct == [float((a - b) ** 2 - a - b + 2 * a * b) for a, b in zip(x[:50], y[:50])]
    mean = z.mean()
    sem = z.std(ddof=1) / np.sqrt(trials)
    assert abs(mean - 800.0) < 3 * sem


def test_robust_l2_parameter_validation():
    rng = np.random.default_rng(0)
    access = lambda n, r: r.integers(0, 10, size=n)
    with pytest.raises(InvalidInput):
        robust_l2_test(access, access, b=0.0, eps=0.5, rng=rng)
    with pytest.raises(InvalidInput):
        robust_l2_test(access, access, b=1.0, eps=0.0, rng=rng)
    # m = 4 * 10^8 per side is over the draw cap; refused before any draw
    state = rng.bit_generator.state
    with pytest.raises(InvalidInput, match="_DRAW_CAP"):
        robust_l2_test(access, access, b=1.0, eps=1e-4, rng=rng)
    assert rng.bit_generator.state == state


def test_robust_l2_budget_and_threshold():
    rng = np.random.default_rng(61)
    access = lambda n, r: r.integers(0, 100, size=n)
    verdict = robust_l2_test(access, access, b=4.0, eps=0.5, rng=rng)
    # m = ceil(c_r sqrt(b) / eps^2) = 32, threshold = m^2 eps^2 / 2 = 128
    assert verdict.threshold == 128.0
    assert verdict.accept == (verdict.statistic < verdict.threshold)


def test_robust_l2_accepts_equal():
    rng = np.random.default_rng(67)
    access = lambda n, r: r.integers(0, 100, size=n)
    accepted = sum(
        robust_l2_test(access, access, b=0.02, eps=0.5, rng=rng).accept
        for _ in range(400)
    )
    assert accepted >= 280  # >= 0.70


def test_robust_l2_rejects_disjoint_point_masses():
    rng = np.random.default_rng(71)
    p = lambda n, r: np.zeros(n, dtype=np.int64)
    q = lambda n, r: np.ones(n, dtype=np.int64)
    # ||p - q||_2 = sqrt(2) >= eps and the norms are bounded by b = 1
    rejected = sum(
        not robust_l2_test(p, q, b=1.0, eps=0.5, rng=rng).accept for _ in range(400)
    )
    assert rejected >= 280


def test_robust_l2_dict_accesses_work_too():
    rng = np.random.default_rng(73)
    p = lambda n, r: ["x"] * n
    q = lambda n, r: ["y"] * n
    verdict = robust_l2_test(p, q, b=1.0, eps=0.5, rng=rng)
    assert not verdict.accept


def three_repeat_l2_test(p_access, q_access, b, eps, rng, *, counts_transform=None):
    """robust_l2_test without the early stop: always three runs, median Z."""
    m = math.ceil(_ROBUST_CONST * math.sqrt(b) / (eps * eps))
    threshold = m * m * eps * eps / 2.0
    z_values = []
    used = 0
    for _ in range(3):
        sides = []
        for access in (p_access, q_access):
            n = int(rng.poisson(m))
            used += n
            uids, counts = _draw_counts(access, n, rng)
            if counts_transform is not None:
                uids, counts = counts_transform(uids, counts, rng)
            sides += [uids, counts]
        z_values.append(_z_from_arrays(*sides))
    statistic = float(np.median(z_values))
    return Verdict(statistic < threshold, statistic, threshold, used, tuple(z_values))


def check_early_stop(verdict, reference):
    """verdict stops once two runs agree and otherwise matches reference."""
    ran = len(verdict.z_values)
    z, threshold = verdict.z_values, verdict.threshold
    assert ran == (2 if (z[0] >= threshold) == (z[1] >= threshold) else 3)
    assert z == reference.z_values[:ran]
    assert verdict.accept == reference.accept
    assert verdict.threshold == reference.threshold
    assert verdict.statistic in z
    assert (verdict.statistic >= threshold) == (not verdict.accept)
    if ran == 3:
        assert verdict.statistic == reference.statistic
        assert verdict.samples_used == reference.samples_used
    else:
        assert verdict.statistic == (max(z) if verdict.accept else min(z))
        assert verdict.samples_used < reference.samples_used


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(0, 6),
    st.floats(0.3, 1.0),
    st.floats(0.02, 1.0),
    st.lists(st.integers(0, 45), max_size=30),
)
def test_robust_l2_early_stop_matches_three_repeats(seed, dom, shift, eps, b, multiset):
    p = lambda n, r: r.integers(0, dom, size=n)
    q = lambda n, r: r.integers(0, dom, size=n) + (r.random(n) < 0.5) * shift
    transform = build_split_map(np.array(multiset, dtype=np.int64)).split_counts_arrays
    for counts_transform in (None, transform):
        args = (p, q, b, eps)
        verdict = robust_l2_test(
            *args, np.random.default_rng(seed), counts_transform=counts_transform
        )
        reference = three_repeat_l2_test(
            *args, np.random.default_rng(seed), counts_transform=counts_transform
        )
        check_early_stop(verdict, reference)


def test_robust_l2_runs_the_third_repeat_only_on_a_split_vote():
    # m = 16 per side and threshold 32; E[Z] = m^2 ||p - q||^2 = 8, and Z
    # spreads widely enough at this m that some votes split
    p = lambda n, r: r.integers(0, 4, size=n)
    q = lambda n, r: r.integers(0, 4, size=n) + (r.random(n) < 0.5)
    ran = []
    for seed in range(40):
        verdict = robust_l2_test(p, q, b=1.0, eps=0.5, rng=np.random.default_rng(seed))
        reference = three_repeat_l2_test(p, q, 1.0, 0.5, np.random.default_rng(seed))
        check_early_stop(verdict, reference)
        ran.append(len(verdict.z_values))
    assert 2 in ran and 3 in ran


def test_flatten_closeness_validation():
    rng = np.random.default_rng(0)
    access = lambda n, r: r.integers(0, 10, size=n)
    with pytest.raises(InvalidInput):
        flatten_closeness(access, access, s=0, eps=0.5, rng=rng)
    with pytest.raises(InvalidInput):
        flatten_closeness(access, access, s=100, eps=-1.0, rng=rng)


def test_flatten_closeness_accepts_equal():
    rng = np.random.default_rng(79)
    access = lambda n, r: r.integers(0, 10_000, size=n)
    accepted = 0
    for _ in range(200):
        verdict = flatten_closeness(access, access, s=10_000, eps=0.3, rng=rng)
        accepted += verdict.accept
        assert verdict.samples_used > 0
    assert accepted >= 160  # >= 0.8


def test_flatten_closeness_rejects_planted_discrepancy():
    # 100 light elements carry all the squared discrepancy: on a domain of
    # 200 elements, p is uniform and q doubles/empties alternating elements
    # among the first 100, so sum (p_i - q_i)^2 = 100 (1/200)^2 = (1/20)^2.
    rng = np.random.default_rng(83)
    n_dom = 200
    p_w = np.full(n_dom, 1.0 / n_dom)
    q_w = p_w.copy()
    q_w[0:100:2] = 2.0 / n_dom
    q_w[1:100:2] = 0.0
    p = lambda n, r: r.choice(n_dom, size=n, p=p_w)
    q = lambda n, r: r.choice(n_dom, size=n, p=q_w)
    rejected = 0
    for _ in range(200):
        verdict = flatten_closeness(p, q, s=100, eps=0.05, rng=rng)
        rejected += not verdict.accept
    assert rejected >= 160
