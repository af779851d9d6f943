"""Rectangle primitives: containment, carving, and the Ramsey threshold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aktest import (
    AxisRectangle,
    InvalidInput,
    decompose_complement,
    erdos_szekeres_threshold,
    find_dominating_triple,
    is_generic,
    rect_from_points,
)
from aktest.verify import _carve_hits


def test_rect_from_points_spans_both_orders():
    r = rect_from_points((1.0, 2.0), (3.0, 5.0))
    assert r.lo == (1.0, 2.0)
    assert r.hi == (3.0, 5.0)
    assert r.volume() == 6.0
    # swapping coordinates per axis spans the same box
    assert rect_from_points((3.0, 2.0), (1.0, 5.0)) == r


def test_rect_containment_is_closed():
    r = AxisRectangle((0.0, 0.0), (1.0, 2.0))
    assert r.contains((0.0, 0.0))
    assert r.contains((1.0, 2.0))
    assert r.contains((0.5, 1.0))
    assert not r.contains((1.0, 2.1))
    assert not r.contains((-0.1, 0.0))


def test_rect_rejects_empty_interval_and_dim_mismatch():
    with pytest.raises(InvalidInput):
        AxisRectangle((1.0,), (0.0,))
    with pytest.raises(InvalidInput):
        AxisRectangle((0.0, 0.0), (1.0,))
    with pytest.raises(InvalidInput):
        AxisRectangle((0.0, 0.0), (1.0, 2.0)).contains((0.5,))


def test_contains_rect():
    outer = AxisRectangle((0.0, 0.0), (4.0, 4.0))
    assert outer.contains_rect(AxisRectangle((1.0, 0.0), (3.0, 4.0)))
    assert outer.contains_rect(outer)
    assert not outer.contains_rect(AxisRectangle((1.0, 1.0), (5.0, 3.0)))


def test_complement_interval():
    outer = AxisRectangle((0.0,), (10.0,))
    inner = AxisRectangle((2.0,), (5.0,))
    pieces = decompose_complement(outer, inner)
    assert sorted((p.lo[0], p.hi[0]) for p in pieces) == [(0.0, 2.0), (5.0, 10.0)]


def test_complement_frame():
    outer = AxisRectangle((0.0, 0.0), (4.0, 4.0))
    inner = AxisRectangle((1.0, 1.0), (3.0, 3.0))
    pieces = decompose_complement(outer, inner)
    assert len(pieces) == 4
    assert sum(p.volume() for p in pieces) == 12.0
    # pairwise interior-disjoint: every pair overlaps in zero volume
    for i, a in enumerate(pieces):
        for b in pieces[i + 1 :]:
            overlap = math.prod(
                max(0.0, min(ahi, bhi) - max(alo, blo))
                for alo, ahi, blo, bhi in zip(a.lo, a.hi, b.lo, b.hi)
            )
            assert overlap == 0.0


def test_complement_of_itself_is_empty():
    r = AxisRectangle((0.0, 1.0), (2.0, 3.0))
    assert decompose_complement(r, r) == []


def test_complement_requires_containment():
    with pytest.raises(InvalidInput):
        decompose_complement(
            AxisRectangle((0.0,), (1.0,)), AxisRectangle((0.5,), (2.0,))
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_complement_carve_counts_and_volume(d, seed):
    rng = np.random.default_rng(seed)
    lo = rng.random(d)
    hi = lo + 0.5 + rng.random(d)
    outer = AxisRectangle(lo, hi)
    inner = rect_from_points(
        lo + rng.random(d) * (hi - lo), lo + rng.random(d) * (hi - lo)
    )
    pieces = decompose_complement(outer, inner)
    assert len(pieces) <= 2 * d
    covered = sum(p.volume() for p in pieces) + inner.volume()
    assert covered == pytest.approx(outer.volume(), rel=1e-12)


def test_carve_hits_match_scalar_containment():
    # Half the probes sit on piece boundaries, where closed pieces overlap.
    rng = np.random.default_rng(37)
    for trial in range(300):
        d = 1 + trial % 3
        lo = rng.random(d)
        hi = lo + 0.1 + rng.random(d)
        inner = rect_from_points(
            lo + rng.random(d) * (hi - lo), lo + rng.random(d) * (hi - lo)
        )
        rects = [inner, *decompose_complement(AxisRectangle(lo, hi), inner)]
        probes = lo + rng.random((40, d)) * (hi - lo)
        for j in range(d):
            edges = [v for r in rects for v in (r.lo[j], r.hi[j])]
            probes[::2, j] = rng.choice(edges, size=20)
        scalar = [sum(r.contains(z) for r in rects) for z in probes]
        assert _carve_hits(probes, rects).tolist() == scalar


def test_is_generic():
    assert is_generic([(0.0, 1.0), (2.0, 3.0), (4.0, 0.5)])
    assert not is_generic([(0.0, 1.0), (0.0, 2.0)])  # shared x
    assert not is_generic([(0.0, 1.0), (2.0, 1.0)])  # shared y


def test_dominating_triple_on_a_chain():
    triple = find_dominating_triple(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    assert triple is not None
    x, y, z = triple
    assert rect_from_points(x, y).contains(z)


def test_staircase_has_no_dominating_triple():
    staircase = [(1.0, 2.0), (2.0, 4.0), (3.0, 1.0), (4.0, 3.0)]
    assert find_dominating_triple(staircase) is None


def test_five_random_generic_points_always_dominate():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = rng.random((5, 2))
        while not is_generic(pts):
            pts = rng.random((5, 2))
        assert find_dominating_triple(pts) is not None


def test_triple_search_requires_generic_flag():
    # a shared coordinate on either axis is refused, even where a triple exists
    shared_x = [(0.0, 1.0), (0.0, 2.0), (1.0, 3.0)]
    shared_y = [(1.0, 1.0), (2.0, 2.0), (3.0, 2.0)]
    for pts in (shared_x, shared_y):
        with pytest.raises(InvalidInput, match="generic"):
            find_dominating_triple(pts)
    assert find_dominating_triple([]) is None


def test_erdos_szekeres_values():
    assert erdos_szekeres_threshold(3, 1) == 5
    assert erdos_szekeres_threshold(3, 2) == 17
    assert erdos_szekeres_threshold(4, 2) == 3**4 + 1
    for d in range(1, 6):
        assert erdos_szekeres_threshold(2, d) == 2


def test_erdos_szekeres_exact_big_integers():
    # (n-1)^(2^d) + 1 stays exact far past float precision
    v = erdos_szekeres_threshold(11, 5)
    assert v == 10**32 + 1
    assert v % 10 == 1


def test_erdos_szekeres_guards():
    with pytest.raises(InvalidInput):
        erdos_szekeres_threshold(1, 1)
    with pytest.raises(InvalidInput):
        erdos_szekeres_threshold(3, 0)
    with pytest.raises(OverflowError):
        erdos_szekeres_threshold(3, 64)
    with pytest.raises(OverflowError):
        erdos_szekeres_threshold(3, 20)  # exponent 2^20 alone exceeds the bit cap


@given(st.integers(2, 6), st.integers(1, 3))
def test_erdos_szekeres_monotone(n, d):
    assert erdos_szekeres_threshold(n + 1, d) >= erdos_szekeres_threshold(n, d)
    assert erdos_szekeres_threshold(n, d) == (n - 1) ** (2**d) + 1


def test_volume_matches_product():
    r = AxisRectangle((0.0, -1.0, 2.0), (2.0, 1.0, 2.5))
    assert r.volume() == pytest.approx(2.0 * 2.0 * 0.5)
    assert math.prod(h - l for l, h in zip(r.lo, r.hi)) == r.volume()
