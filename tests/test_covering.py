"""Dyadic covering families over sample-point grids."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from aktest import (
    EMPTY,
    EMPTY_CODE,
    AxisRectangle,
    CoverFamily,
    DiscreteGridDistribution,
    InvalidInput,
    SamplePointGrid,
)


def cover_1d(values=(1.0, 2.0, 3.0, 4.0, 5.0)):
    return CoverFamily(SamplePointGrid([values]))


def test_grid_size_validation():
    with pytest.raises(InvalidInput):
        SamplePointGrid([(1.0, 2.0)])  # too small
    with pytest.raises(InvalidInput):
        SamplePointGrid([(1.0, 2.0, 3.0, 4.0)])  # 3 gaps, not a power of two
    with pytest.raises(InvalidInput):
        SamplePointGrid([(1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0, 5.0)])
    with pytest.raises(InvalidInput):
        SamplePointGrid([(1.0, 1.0, 2.0)])
    grid = SamplePointGrid([(0.0, 1.0, 3.0)])
    assert grid.m == 2 and grid.levels == 1


def test_level_structure_m4():
    cover = cover_1d()
    assert cover.levels == 2
    assert cover.per_axis_count == 6
    assert cover.rects_per_point == 2
    assert cover.intervals(0, 1) == [(1.0, 3.0), (3.0, 5.0)]
    assert cover.intervals(0, 2) == [(1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)]


def test_interval_bounds_are_half_open_except_last():
    cover = cover_1d()
    lo, hi, closed = cover.interval_bounds(0, 2, 0)
    assert (lo, hi, closed) == (1.0, 2.0, False)
    lo, hi, closed = cover.interval_bounds(0, 2, 3)
    assert (lo, hi, closed) == (4.0, 5.0, True)
    lo, hi, closed = cover.interval_bounds(0, 1, 1)
    assert (lo, hi, closed) == (3.0, 5.0, True)


def test_gaps_of_points():
    cover = cover_1d()
    pts = np.array([[0.5], [1.0], [1.5], [3.0], [4.9], [5.0], [5.1]])
    gaps = cover.gaps_of_points(pts)
    # outside the span maps to -1; the top grid value joins the last gap
    assert list(gaps[:, 0]) == [-1, 0, 0, 2, 3, 3, -1]


def test_membership_count_equals_levels():
    for m in (4, 8, 16):
        values = tuple(float(v) for v in range(m + 1))
        cover = CoverFamily(SamplePointGrid([values]))
        for gap in range(m):
            assert cover.axis_membership_count(0, gap) == cover.levels
            assert len(cover.containing_intervals(0, gap)) == cover.levels


def test_containing_ids_count_is_levels_to_the_d():
    rng = np.random.default_rng(2)
    for d in (1, 2, 3):
        axes = [tuple(np.sort(rng.random(9))) for _ in range(d)]
        cover = CoverFamily(SamplePointGrid(axes))
        z = [float(np.mean(ax[:2])) for ax in axes]
        ids = cover.containing_ids(z)
        assert len(ids) == cover.levels**d == cover.rects_per_point
        for rect_id in ids:
            assert cover.id_bounds(rect_id).contains(z)


def test_containing_ids_empty_outside_span():
    cover = cover_1d()
    assert cover.containing_ids((0.0,)) == []
    assert cover.containing_ids((6.0,)) == []


def test_decompose_family_rect_is_itself():
    cover = cover_1d()
    pieces = cover.decompose_grid_rect(AxisRectangle((1.0,), (3.0,)))
    assert pieces == [((1, 0),)]


def test_decompose_full_span_m4():
    cover = cover_1d()
    pieces = cover.decompose_grid_rect(AxisRectangle((1.0,), (5.0,)))
    assert sorted(pieces) == [((1, 0),), ((1, 1),)]


def test_decompose_unaligned_run():
    # gaps 0..2 (values v1..v4) need one level-1 and one level-2 interval
    cover = cover_1d()
    pieces = cover.decompose_grid_rect(AxisRectangle((1.0,), (4.0,)))
    assert sorted(pieces) == [((1, 0),), ((2, 2),)]


def test_decompose_rejects_non_grid_endpoints():
    cover = cover_1d()
    with pytest.raises(InvalidInput):
        cover.decompose_grid_rect(AxisRectangle((1.5,), (3.0,)))
    with pytest.raises(InvalidInput):
        cover.decompose_grid_rect(AxisRectangle((2.0,), (2.0,)))  # degenerate


def test_decompose_partitions_cells_exactly():
    rng = np.random.default_rng(9)
    for d in (1, 2):
        axes = [tuple(np.sort(rng.random(9))) for _ in range(d)]
        cover = CoverFamily(SamplePointGrid(axes))
        for _ in range(40):
            lo_idx = [int(rng.integers(0, 8)) for _ in range(d)]
            hi_idx = [int(rng.integers(lo + 1, 9)) for lo in lo_idx]
            rect = AxisRectangle(
                [axes[j][lo_idx[j]] for j in range(d)],
                [axes[j][hi_idx[j]] for j in range(d)],
            )
            pieces = cover.decompose_grid_rect(rect)
            assert len(pieces) <= (2 * cover.levels) ** d
            seen = set()
            for piece in pieces:
                cells = set(
                    itertools.product(
                        *(
                            range(idx << (cover.levels - lv), (idx + 1) << (cover.levels - lv))
                            for lv, idx in piece
                        )
                    )
                )
                assert not (seen & cells)
                seen |= cells
            target = set(
                itertools.product(*(range(a, b) for a, b in zip(lo_idx, hi_idx)))
            )
            assert seen == target


def test_induced_distribution_point_mass():
    cover = cover_1d()
    dist = DiscreteGridDistribution.from_atoms({(1.5,): 1.0})
    induced = cover.induced_distribution(dist)
    assert induced == {((1, 0),): 0.5, ((2, 0),): 0.5}


def test_induced_distribution_outside_goes_to_empty():
    cover = cover_1d()
    dist = DiscreteGridDistribution.from_atoms({(0.5,): 0.25, (1.5,): 0.75})
    induced = cover.induced_distribution(dist)
    assert induced[EMPTY] == 0.25
    assert sum(induced.values()) == pytest.approx(1.0)


def test_induced_mass_identity_on_family_rects():
    # p^F(id) * levels^d recovers p(R) exactly for every family rectangle
    rng = np.random.default_rng(23)
    axes = [tuple(np.sort(rng.random(9))) for _ in range(2)]
    cover = CoverFamily(SamplePointGrid(axes))
    atoms = {}
    for _ in range(12):
        x = float(rng.uniform(axes[0][0], axes[0][-1]))
        y = float(rng.uniform(axes[1][0], axes[1][-1]))
        atoms[(x, y)] = float(rng.integers(1, 8)) / 16.0
    dist = DiscreteGridDistribution.from_atoms(atoms)
    induced = cover.induced_distribution(dist)
    share = cover.rects_per_point
    for lx in range(1, cover.levels + 1):
        for ix in range(len(cover.intervals(0, lx))):
            for ly in range(1, cover.levels + 1):
                for iy in range(len(cover.intervals(1, ly))):
                    rect_id = ((lx, ix), (ly, iy))
                    direct = dist.mass_of(cover.id_bounds(rect_id))
                    assert induced.get(rect_id, 0.0) * share == pytest.approx(
                        direct, abs=1e-12
                    )


def test_encode_decode_flat_round_trip():
    cover = cover_1d((0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
    for level in range(1, cover.levels + 1):
        for index in range(len(cover.intervals(0, level))):
            flat = cover.encode_flat(np.array([level]), np.array([index]))[0]
            assert 0 <= flat < cover.per_axis_count
            assert cover.decode_flat(int(flat)) == (level, index)


def test_sample_ids_encoded_matches_containment():
    rng = np.random.default_rng(29)
    axes = [tuple(np.sort(rng.random(5))) for _ in range(2)]
    cover = CoverFamily(SamplePointGrid(axes))
    pts = np.column_stack(
        [rng.uniform(ax[0], ax[-1], size=200) for ax in axes]
    )
    gaps = cover.gaps_of_points(pts)
    codes = cover.sample_ids_encoded(gaps, rng)
    for pt, code in zip(pts, codes):
        rect_id = cover.decode_id(int(code))
        assert rect_id in cover.containing_ids(pt)


def test_sample_ids_encoded_empty_rows():
    cover = cover_1d()
    rng = np.random.default_rng(31)
    gaps = np.array([[-1], [0], [-1]])
    codes = cover.sample_ids_encoded(gaps, rng)
    assert codes[0] == EMPTY_CODE and codes[2] == EMPTY_CODE
    assert codes[1] != EMPTY_CODE
    assert cover.decode_id(EMPTY_CODE) == EMPTY


def test_sampled_ids_match_exact_induced_distribution():
    # chi-squared goodness of fit of the sampling path against the exact
    # induced measure of a 3-atom distribution, 10^4 draws
    rng = np.random.default_rng(37)
    cover = cover_1d()
    dist = DiscreteGridDistribution.from_atoms({(1.2,): 0.25, (2.5,): 0.25, (4.5,): 0.5})
    exact = cover.induced_distribution(dist)

    n = 10_000
    pts = dist.sample(n, rng)
    gaps = cover.gaps_of_points(pts)
    codes = cover.sample_ids_encoded(gaps, rng)
    observed = {}
    for code in codes:
        key = cover.decode_id(int(code))
        observed[key] = observed.get(key, 0) + 1

    keys = sorted(exact, key=repr)
    expected = np.array([exact[k] * n for k in keys])
    got = np.array([observed.get(k, 0) for k in keys], dtype=float)
    assert set(observed) <= set(keys)
    _, pvalue = stats.chisquare(got, expected)
    assert pvalue > 0.001


def test_id_space_cap():
    values = tuple(float(v) for v in range(1025))  # m = 1024, 2046 intervals/axis
    with pytest.raises(InvalidInput):
        CoverFamily(SamplePointGrid([values] * 7))
    # five axes still fit in the int64 id space
    CoverFamily(SamplePointGrid([values] * 5))


@functools.cache
def cover_at(d, m):
    return CoverFamily(SamplePointGrid([tuple(float(v) for v in range(m + 1))] * d))


# (d, m) pairs near the 62-bit code cap: d * bit_length(2m - 2) is 62, 45, 60
CAP_PAIRS = [(31, 2), (15, 4), (4, 2**14)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CAP_PAIRS), st.integers(0, 2**32 - 1))
def test_encoded_ids_round_trip_at_the_code_cap(pair, seed):
    d, m = pair
    cover = cover_at(d, m)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, m, size=(4, d))
    pts[0] = rng.integers(0, m + 1, size=d)  # grid values, the top one included
    codes = cover.sample_ids_encoded(cover.gaps_of_points(pts), rng)
    assert int(codes.max()) < 2**62
    for pt, code in zip(pts, codes):
        assert cover.decode_id(int(code)) in cover.containing_ids(pt)


def test_code_cap_is_62_bits():
    cover = cover_at(31, 2)
    assert cover.dim * cover.per_axis_count.bit_length() == 62
    with pytest.raises(InvalidInput):
        cover_at(7, 256)  # 7 axes of 510 intervals need 63 bits
