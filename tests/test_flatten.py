"""Flattening, split distributions, and the robust l2 closeness test."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from aktest.covering import EMPTY_CODE
from aktest.flatten import _ROBUST_CONST, _draw_counts, _z_from_arrays, _z_of_pieces
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
    assert split.piece_start.tolist() == [0, 3, 5]  # 3 pieces of 1, then 2 of 4
    uids = np.array([0, 1, 4], dtype=np.int64)
    counts = np.array([5, 30, 12], dtype=np.int64)
    rest, pieces = split.split_counts_arrays(uids, counts, rng)
    assert rest.tolist() == [5, 0, 0] and counts.tolist() == [5, 30, 12]
    assert pieces.dtype == np.int64 and len(pieces) == 5
    assert pieces[:3].sum() == 30 and pieces[3:].sum() == 12


def split_totals(split, uids, rest, pieces):
    """Per-element totals of a split draw, and the pieces of each split
    element, which hold nothing for an element the draw lacks."""
    totals = dict(zip(uids.tolist(), rest.tolist()))
    start = split.piece_start.tolist()
    per_elem = {}
    for i, elem in enumerate(split.elements.tolist()):
        per_elem[elem] = pieces[start[i] : start[i + 1]].tolist()
        if elem in totals:
            assert totals[elem] == 0
            totals[elem] = sum(per_elem[elem])
        else:
            assert per_elem[elem] == [0] * split.a(elem)
    return totals, per_elem


def test_split_counts_arrays_pieces_are_uniform():
    rng = np.random.default_rng(61)
    # element 2 has 4 parts, element 5 has 20, element 9 is in the multiset
    # but unobserved, elements 0 and 7 are not split
    split = build_split_map(np.array([2, 2, 2] + [5] * 19 + [9]))
    uids = np.array([0, 2, 5, 7], dtype=np.int64)
    counts = np.array([13, 40_000, 60_000, 1], dtype=np.int64)
    rest, pieces = split.split_counts_arrays(uids, counts, rng)
    assert rest.tolist() == [13, 0, 0, 1]
    totals, per_elem = split_totals(split, uids, rest, pieces)
    assert totals == {0: 13, 2: 40_000, 5: 60_000, 7: 1}
    assert len(per_elem[2]) == 4 and len(per_elem[5]) == 20
    assert chisquare(per_elem[2]).pvalue > 0.01
    assert chisquare(per_elem[5]).pvalue > 0.01


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
    rest, pieces = split.split_counts_arrays(uids, counts, np.random.default_rng(seed))
    assert np.all(rest >= 0) and np.all(pieces >= 0)
    assert len(pieces) == len(split.elements) + len(multiset)
    totals, per_elem = split_totals(split, uids, rest, pieces)
    assert totals == observed
    assert all(len(p) == split.a(elem) for elem, p in per_elem.items())


def expanded_split(split, uids, counts, rng):
    """The split as piece codes uid * max_parts + j, sorted, with a count
    per piece: the expanded form whose statistic the piece vectors must
    reproduce, from the same binomial chain in the same order."""
    parts = split.max_parts
    if parts == 1 or not len(uids):
        return uids.astype(np.int64), counts
    codes = uids.astype(np.int64) * parts
    pos = np.minimum(np.searchsorted(uids, split.elements), len(uids) - 1)
    found = uids[pos] == split.elements
    pos, a = pos[found], 1 + split.counts[found]
    if not len(pos):
        return codes, counts
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


def merged_z(uids_p, counts_p, uids_q, counts_q):
    """Z by a stable argsort of both sides' concatenation: a shared code
    lands in two adjacent slots, the p side first."""
    keys = np.concatenate([uids_p, uids_q])
    values = np.concatenate([counts_p, counts_q]).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    shared = np.flatnonzero(ordered[1:] == ordered[:-1])
    cross = values[order[shared]] @ values[order[shared + 1]]
    return float(values @ values - 2 * cross - values.sum())


def count_arrays(counts, dtype=np.int64):
    keys = sorted(counts)
    return np.array(keys, dtype=dtype), np.array([counts[k] for k in keys], dtype=np.int64)


def split_z(split, counts_p, counts_q, rng):
    """Z of two split draws as robust_l2_test forms it."""
    sides, pieces = [], []
    for uids, counts in (counts_p, counts_q):
        counts, piece = split.split_counts_arrays(uids, counts, rng)
        sides += [uids, counts]
        pieces.append(piece)
    return float(_z_from_arrays(*sides) + _z_of_pieces(*pieces))


codes = st.integers(-3, 30)  # EMPTY_CODE and other negative codes included


@settings(max_examples=100, deadline=None)
@given(
    st.lists(codes, max_size=40),
    st.dictionaries(codes, st.integers(0, 60), max_size=20),
    st.dictionaries(codes, st.integers(0, 60), max_size=20),
    st.sampled_from([np.int32, np.int64]),
    st.integers(0, 2**32 - 1),
)
@example([], {}, {}, np.int32, 0)  # nothing split, nothing drawn
@example([4, 4, 9], {}, {}, np.int64, 1)  # empty draws
@example([4, 4, 9], {1: 3, 2: 5}, {3: 4}, np.int64, 2)  # split elements not drawn
@example([EMPTY_CODE, -3, -3, 7], {EMPTY_CODE: 9, -3: 40, 7: 1}, {-3: 2}, np.int32, 3)
def test_split_statistic_matches_the_expanded_split(multiset, counts_p, counts_q, dtype, seed):
    split = build_split_map(np.array(multiset, dtype=dtype))
    sides = [count_arrays(counts, dtype) for counts in (counts_p, counts_q)]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    z = split_z(split, *sides, ours)
    expanded = [expanded_split(split, *side, theirs) for side in sides]
    assert z == merged_z(*expanded[0], *expanded[1])
    assert ours.bit_generator.state == theirs.bit_generator.state
    # the split reads only the order of the codes: codes far past any piece
    # code's int64 range split the same
    far = build_split_map(np.array(multiset, dtype=np.int64) * 2**57)
    again = np.random.default_rng(seed)
    wide = [(uids.astype(np.int64) * 2**57, counts) for uids, counts in sides]
    assert split_z(far, *wide, again) == z
    assert again.bit_generator.state == ours.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(-1, 40), st.integers(0, 30)),
    st.dictionaries(st.integers(-1, 40), st.integers(0, 30)),
)
def test_array_statistic_matches_dict_statistic(counts_p, counts_q):
    z = _z_from_arrays(*count_arrays(counts_p), *count_arrays(counts_q))
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
    z = _z_from_arrays(*count_arrays(counts_p, dtype), *count_arrays(counts_q, dtype))
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


def three_repeat_l2_test(p_access, q_access, b, eps, rng, *, split=None, draws):
    """robust_l2_test without the early stop, and with the expanded split:
    always three runs, median Z. Appends the draws of each run to draws."""
    m = math.ceil(_ROBUST_CONST * math.sqrt(b) / (eps * eps))
    threshold = m * m * eps * eps / 2.0
    split = build_split_map([]) if split is None else split
    z_values = []
    for _ in range(3):
        sides = []
        draws.append(0)
        for access in (p_access, q_access):
            n = int(rng.poisson(m))
            draws[-1] += n
            uids, counts = _draw_counts(access, n, rng)
            sides += expanded_split(split, uids, counts, rng)
        z_values.append(merged_z(*sides))
    statistic = float(np.median(z_values))
    used = sum(draws[-3:])
    return Verdict(statistic < threshold, statistic, threshold, used, tuple(z_values))


def check_early_stop(verdict, reference, draws):
    """verdict stops once two runs agree and otherwise matches reference,
    whose three runs drew draws."""
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
    else:
        assert verdict.statistic == (max(z) if verdict.accept else min(z))
    assert verdict.samples_used == reference.samples_used - sum(draws[ran:])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(0, 6),
    st.floats(0.3, 1.0),
    st.floats(0.02, 1.0),
    st.lists(st.integers(0, 45), max_size=30),
)
# a skipped third run that would have drawn nothing
@example(seed=10193364, dom=2, shift=0, eps=0.75, b=0.0625, multiset=[])
def test_robust_l2_early_stop_matches_three_repeats(seed, dom, shift, eps, b, multiset):
    p = lambda n, r: r.integers(0, dom, size=n)
    q = lambda n, r: r.integers(0, dom, size=n) + (r.random(n) < 0.5) * shift
    for split in (None, build_split_map(np.array(multiset, dtype=np.int64))):
        args = (p, q, b, eps)
        verdict = robust_l2_test(*args, np.random.default_rng(seed), split=split)
        draws = []
        reference = three_repeat_l2_test(
            *args, np.random.default_rng(seed), split=split, draws=draws
        )
        check_early_stop(verdict, reference, draws)


def test_robust_l2_runs_the_third_repeat_only_on_a_split_vote():
    # m = 16 per side and threshold 32; E[Z] = m^2 ||p - q||^2 = 8, and Z
    # spreads widely enough at this m that some votes split
    p = lambda n, r: r.integers(0, 4, size=n)
    q = lambda n, r: r.integers(0, 4, size=n) + (r.random(n) < 0.5)
    ran = []
    for seed in range(40):
        verdict = robust_l2_test(p, q, b=1.0, eps=0.5, rng=np.random.default_rng(seed))
        draws = []
        reference = three_repeat_l2_test(
            p, q, 1.0, 0.5, np.random.default_rng(seed), draws=draws
        )
        check_early_stop(verdict, reference, draws)
        ran.append(len(verdict.z_values))
    assert 2 in ran and 3 in ran


def test_flatten_closeness_validation():
    rng = np.random.default_rng(0)
    access = lambda n, r: r.integers(0, 10, size=n)
    with pytest.raises(InvalidInput):
        flatten_closeness(access, access, s=0, eps=0.5, rng=rng)
    with pytest.raises(InvalidInput):
        flatten_closeness(access, access, s=100, eps=-1.0, rng=rng)


def test_wrong_length_code_draws_are_refused():
    # n // 2 codes would give Z from half the draws while samples_used
    # counts all n; the flattening multiset is held to the same check
    full = lambda n, r: r.integers(0, 10, size=n)
    half = lambda n, r: r.integers(0, 10, size=n // 2)
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInput, match="shape"):
        robust_l2_test(half, full, b=1.0, eps=0.5, rng=rng)
    with pytest.raises(InvalidInput, match="shape"):
        _draw_counts(lambda n, r: np.zeros((n, 1)), 5, rng)
    calls = []

    def long_once(n, r):  # one code too many in the first draw, the multiset's
        calls.append(n)
        return r.integers(0, 10, size=n + (len(calls) == 1))

    with pytest.raises(InvalidInput, match="shape"):
        flatten_closeness(long_once, full, s=10_000, eps=0.3, rng=rng)
    assert len(calls) == 1


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
