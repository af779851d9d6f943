"""Dyadic covering families over the integer gap grid."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from aktest import EMPTY_CODE, CoverFamily, InvalidInput
from aktest.covering import _BLOCK

# Sample counts around the edges of the per-sample passes' blocks
BLOCK_EDGES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]


def cover_1d():
    return CoverFamily(4, 1)


def test_cover_family_validation():
    bad = [
        (3, 1),  # not a power of two
        (12, 2),
        (1, 1),  # m < 2
        (0, 1),
        (-4, 1),
        (4, 0),  # d < 1
        (4, -1),
        (4.0, 1),  # not ints
        (4, 1.0),
        ("4", 1),
        (True, 1),
        (4, True),
        (np.int64(4), 1),
        (256, 7),  # 7 axes of 510 intervals need 63 bits
    ]
    for m, d in bad:
        with pytest.raises(InvalidInput):
            CoverFamily(m, d)
    assert CoverFamily(2, 1).levels == 1


def test_level_structure_m4():
    cover = cover_1d()
    assert (cover.m, cover.dim) == (4, 1)
    assert cover.levels == 2
    assert cover.per_axis_count == 6
    assert cover.rects_per_point == 2
    # axis ids are heap numbers: 2^level + index
    assert cover.gap_ranges(3) == (range(2, 4),)
    assert cover.gap_ranges(6) == (range(2, 3),)
    assert [cover.gap_ranges(4 + t) for t in range(4)] == [
        (range(t, t + 1),) for t in range(4)
    ]
    assert cover.gap_ranges(np.int64(2)) == (range(0, 2),)
    for bad in [0, 1, 8, EMPTY_CODE]:  # no interval, past the top, outside
        with pytest.raises(InvalidInput):
            cover.gap_ranges(bad)
    # in base 2m = 8: an axis id below 2 on either axis names no interval
    assert CoverFamily(4, 2).gap_ranges(8 * 3 + 6) == (range(2, 4), range(2, 3))
    for bad in [8 * 1 + 6, 8 * 3 + 0, 8 * 8]:
        with pytest.raises(InvalidInput):
            CoverFamily(4, 2).gap_ranges(bad)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_heap_codes_sort_as_the_level_index_tuples(data):
    # The premise that keeps the sampled stream and every statistic fixed:
    # codes order rectangles as their per-axis (level, index) pairs do.
    d, m = data.draw(st.sampled_from([(1, 4), (2, 8), (3, 16), (4, 2**14), (31, 2)]))
    cover = cover_at(d, m)
    interval = st.integers(1, cover.levels).flatmap(
        lambda level: st.tuples(st.just(level), st.integers(0, 2**level - 1))
    )
    ids = data.draw(st.lists(st.tuples(*[interval] * d), min_size=2, max_size=6))
    heap = [[2**level + index for level, index in i] for i in ids]
    codes = [cover._codes([[axis_id] for axis_id in h])[0] for h in heap]
    for a, b in itertools.combinations(range(len(ids)), 2):
        assert (codes[a] < codes[b]) == (ids[a] < ids[b])
        assert (codes[a] == codes[b]) == (ids[a] == ids[b])
    assert min(codes) > EMPTY_CODE
    # the codes of a product of sorted axis id lists come out sorted (on
    # at most three axes, so that the product stays small)
    per_axis = [sorted({h[j] for h in heap}) for j in range(min(d, 3))]
    product = cover._codes(per_axis)
    assert product == sorted(set(product))
    assert len(product) == np.prod([len(axis_ids) for axis_ids in per_axis])


def test_membership_count_equals_levels():
    for m in (4, 8, 16):
        cover = CoverFamily(m, 1)
        for gap in range(m):
            assert cover.axis_membership_count(gap) == cover.levels
            intervals = cover.containing_intervals(gap)
            assert len(intervals) == cover.levels
            assert all(gap in cover.gap_ranges(i)[0] for i in intervals)


def test_containing_ids_count_is_levels_to_the_d():
    assert cover_1d().containing_ids((0,)) == [2, 4]
    rng = np.random.default_rng(2)
    for d in (1, 2, 3):
        cover = CoverFamily(8, d)
        gaps = tuple(int(g) for g in rng.integers(0, 8, size=d))
        ids = cover.containing_ids(gaps)
        assert len(ids) == cover.levels**d == cover.rects_per_point
        for rect_id in ids:
            assert all(g in r for g, r in zip(gaps, cover.gap_ranges(rect_id)))


def test_containing_ids_empty_outside_span():
    assert cover_1d().containing_ids((-1,)) == []
    assert CoverFamily(4, 2).containing_ids((0, -1)) == []
    with pytest.raises(InvalidInput):
        cover_1d().containing_ids((4,))  # past the last gap


def test_decompose_family_rect_is_itself():
    pieces = cover_1d().decompose_grid_rect((0,), (2,))
    assert pieces == [2]


def test_decompose_full_span_m4():
    pieces = cover_1d().decompose_grid_rect((0,), (4,))
    assert pieces == [2, 3]


def test_decompose_unaligned_run():
    # gaps 0..2 need one level-1 and one level-2 interval
    pieces = cover_1d().decompose_grid_rect((0,), (3,))
    assert pieces == [2, 6]


def test_decompose_rejects_non_grid_endpoints():
    cover = cover_1d()
    boxes = [((0.5,), (2,)), ((1,), (1,)), ((2,), (1,)), ((-1,), (2,)), ((0,), (5,))]
    for lo, hi in boxes:
        with pytest.raises(InvalidInput):
            cover.decompose_grid_rect(lo, hi)
    with pytest.raises(InvalidInput):
        cover.decompose_grid_rect((0, 0), (1, 1))  # dimension mismatch


def test_decompose_partitions_cells_exactly():
    rng = np.random.default_rng(9)
    for d in (1, 2):
        cover = CoverFamily(8, d)
        for _ in range(40):
            lo = [int(rng.integers(0, 8)) for _ in range(d)]
            hi = [int(rng.integers(a + 1, 9)) for a in lo]
            pieces = cover.decompose_grid_rect(lo, hi)
            assert len(pieces) <= (2 * cover.levels) ** d
            seen = set()
            for piece in pieces:
                cells = set(itertools.product(*cover.gap_ranges(piece)))
                assert not (seen & cells)
                seen |= cells
            assert seen == set(itertools.product(*map(range, lo, hi)))


def test_induced_distribution_point_mass():
    induced = cover_1d().induced_distribution({(0,): 1.0})
    assert induced == {2: 0.5, 4: 0.5}


def test_induced_distribution_outside_goes_to_empty():
    induced = cover_1d().induced_distribution({(-1,): 0.25, (0,): 0.75})
    assert induced[EMPTY_CODE] == 0.25
    assert sum(induced.values()) == pytest.approx(1.0)


def test_induced_mass_identity_on_family_rects():
    # p^F(id) * levels^d recovers p(R) exactly for every family rectangle
    rng = np.random.default_rng(23)
    cover = CoverFamily(8, 2)
    mass = {}
    for _ in range(12):
        gaps = tuple(int(g) for g in rng.integers(0, 8, size=2))
        mass[gaps] = mass.get(gaps, 0.0) + float(rng.integers(1, 8)) / 16.0
    induced = cover.induced_distribution(mass)
    axis_ids = range(2, 2 * cover.m)
    for code in cover._codes([axis_ids, axis_ids]):
        ranges = cover.gap_ranges(code)
        direct = sum(
            w for gaps, w in mass.items() if all(g in r for g, r in zip(gaps, ranges))
        )
        assert induced.get(code, 0.0) * cover.rects_per_point == pytest.approx(
            direct, abs=1e-12
        )


def test_sample_ids_encoded_matches_containment():
    rng = np.random.default_rng(29)
    cover = CoverFamily(4, 2)
    gaps = rng.integers(0, 4, size=(2000, 2))
    codes = cover.sample_ids_encoded(gaps, rng)
    for row, code in zip(gaps.tolist(), codes.tolist()):
        assert code in cover.containing_ids(row)
        assert all(g in r for g, r in zip(row, cover.gap_ranges(code)))
    # every family rectangle came back
    assert len(set(codes.tolist())) == cover.per_axis_count**2


def test_sample_ids_encoded_empty_rows():
    cover = cover_1d()
    rng = np.random.default_rng(31)
    gaps = np.array([[-1], [0], [-1]])
    codes = cover.sample_ids_encoded(gaps, rng)
    assert codes[0] == EMPTY_CODE and codes[2] == EMPTY_CODE
    assert codes[1] != EMPTY_CODE


def reference_codes(cover, gaps, rng):
    """The unblocked encode that sample_ids_encoded must reproduce bit for bit."""
    n = len(gaps)
    levels = rng.integers(1, cover.levels + 1, size=(n, cover.dim))
    base = 2 * cover.m
    code = np.zeros(n, dtype=np.int64)
    empty = np.zeros(n, dtype=bool)
    for j in range(cover.dim):
        level, gap = levels[:, j], gaps[:, j]
        code = code * base + np.left_shift(1, level)  # heap number 2^level + run
        code += np.right_shift(gap, cover.levels - level)
        empty |= gap < 0
    code[empty] = EMPTY_CODE
    return code


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_sample_ids_encoded_blocks_match_the_unblocked_encode(n, d):
    cover = CoverFamily(64, d)
    gaps = np.random.default_rng(n + d).integers(-1, 64, size=(n, d))  # -1: outside
    for layout in (gaps, np.asfortranarray(gaps)):
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        codes = cover.sample_ids_encoded(layout, ours)
        assert np.array_equal(codes, reference_codes(cover, gaps, theirs))
        assert ours.random() == theirs.random()
    assert n < 100 or 0 < np.mean(codes == EMPTY_CODE) < 0.1


# Codes are int32 exactly when d * bit_length(2m - 2) <= 31: at d = 2 that is
# 30 bits at m = 2^14 and 32 at m = 2^15; at d = 1 and m = 2^30 the top code
# is 2^31 - 1.
@pytest.mark.parametrize(
    "d, m, dtype", [(2, 2**14, np.int32), (2, 2**15, np.int64), (1, 2**30, np.int32)]
)
def test_code_dtype_follows_the_code_space(d, m, dtype):
    cover = CoverFamily(m, d)
    gaps = np.random.default_rng(m).integers(-1, m, size=(1000, d))
    gaps[0] = m - 1  # the top gap on every axis, at the top level, is the top code
    for layout in (gaps, gaps.astype(np.int32)):
        ours, theirs = np.random.default_rng(d), np.random.default_rng(d)
        codes = cover.sample_ids_encoded(layout, ours)
        assert codes.dtype == dtype
        assert np.array_equal(codes, reference_codes(cover, gaps, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_sampled_ids_match_exact_induced_distribution():
    # chi-squared goodness of fit of the sampling path against the exact
    # induced measure of a 3-cell distribution, 10^4 draws
    rng = np.random.default_rng(37)
    cover = cover_1d()
    mass = {(0,): 0.25, (1,): 0.25, (3,): 0.5}
    exact = cover.induced_distribution(mass)

    n = 10_000
    cells = np.array(list(mass))
    gaps = cells[rng.choice(len(cells), size=n, p=list(mass.values()))]
    codes = cover.sample_ids_encoded(gaps, rng)
    observed = {}
    for code in codes.tolist():
        observed[code] = observed.get(code, 0) + 1

    keys = sorted(exact)
    expected = np.array([exact[k] * n for k in keys])
    got = np.array([observed.get(k, 0) for k in keys], dtype=float)
    assert set(observed) <= set(keys)
    _, pvalue = stats.chisquare(got, expected)
    assert pvalue > 0.001


def test_id_space_cap():
    # m = 1024 has 2046 intervals per axis
    with pytest.raises(InvalidInput):
        CoverFamily(1024, 7)
    # five axes still fit in the int64 id space
    CoverFamily(1024, 5)


@functools.cache
def cover_at(d, m):
    return CoverFamily(m, d)


# (d, m) pairs near the 62-bit code cap: d * bit_length(2m - 2) is 62, 45, 60
CAP_PAIRS = [(31, 2), (15, 4), (4, 2**14)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CAP_PAIRS), st.integers(0, 2**32 - 1))
def test_encoded_ids_round_trip_at_the_code_cap(pair, seed):
    d, m = pair
    cover = cover_at(d, m)
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, m, size=(4, d))
    gaps[0] = m - 1  # the top gap on every axis gives the largest codes
    codes = cover.sample_ids_encoded(gaps, rng)
    assert int(codes.max()) < 2**62
    for row, code in zip(gaps.tolist(), codes.tolist()):
        assert code in cover.containing_ids(row)
        assert all(g in r for g, r in zip(row, cover.gap_ranges(code)))


def test_code_cap_is_62_bits():
    cover = cover_at(31, 2)
    assert cover.dim * cover.per_axis_count.bit_length() == 62
    with pytest.raises(InvalidInput):
        cover_at(7, 256)  # 7 axes of 510 intervals need 63 bits
