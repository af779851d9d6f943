"""Lower-bound machinery: gadgets, order tuples, hard instances, obfuscation."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from aktest import (
    AxisRectangle,
    HardInstance,
    InvalidInput,
    MonotoneMap,
    ak_distance_bruteforce,
    gap_ratio_tv,
    gen_hard_instance,
    order_tuple_distribution_distance,
    sample_monotone_map,
)
from aktest.hardness import (
    VARIANT_MIX,
    VARIANT_R,
    VARIANT_T,
    SquareEdgeGadget,
    SquareSpec,
    _DIR_A,
    _DIR_B,
    _TUPLE_BLOCK,
    _VARIANTS,
    _encode_tuples,
    law_fit,
    order_tuple_laws,
    sample_order_tuple_cells,
)

UNIT = SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_T)


def test_edge_inventory():
    t_edges = {name: w for name, _, _, w in UNIT.edges()}
    assert t_edges == {"UL": 0.5, "LR": 0.5}
    r_edges = {name: w for name, _, _, w in SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_R).edges()}
    assert r_edges == {"LL": 0.5, "UR": 0.5}
    mix = SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_MIX)
    assert {w for _, _, _, w in mix.edges()} == {0.25}
    assert len(mix.edges()) == 4


def test_gadget_validation():
    with pytest.raises(InvalidInput):
        SquareEdgeGadget((0.0, 0.0), 0.0, VARIANT_T)
    with pytest.raises(InvalidInput):
        SquareEdgeGadget((0.0, 0.0), 1.0, "diag")


def test_rect_mass_hand_values():
    whole = AxisRectangle((-1.0, -1.0), (1.0, 1.0))
    left = AxisRectangle((-1.0, -1.0), (0.0, 1.0))
    upper_left = AxisRectangle((-1.0, 0.0), (0.0, 1.0))
    for variant in (VARIANT_T, VARIANT_R, VARIANT_MIX):
        g = SquareEdgeGadget((0.0, 0.0), 1.0, variant)
        assert g.rect_mass(whole) == pytest.approx(1.0)
        assert g.rect_mass(left) == pytest.approx(0.5)
    assert UNIT.rect_mass(upper_left) == pytest.approx(0.5)  # the whole UL edge
    r = SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_R)
    assert r.rect_mass(upper_left) == pytest.approx(0.0)


def test_on_support():
    assert UNIT.on_support((-0.5, 0.5))
    assert UNIT.on_support((0.25, -0.75))
    assert not UNIT.on_support((0.0, 0.0))
    assert not UNIT.on_support((0.5, 0.6))


def test_quadrant_masses_on_the_upper_right_edge():
    r = SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_R)
    a = (0.5, 0.5)
    assert UNIT.quadrant_mass(a, 1) == 0.0
    assert r.quadrant_mass(a, 1) == 0.0
    # T and R agree on every quadrant of every support point
    for quad in (1, 2, 3, 4):
        assert UNIT.quadrant_mass(a, quad) == pytest.approx(r.quadrant_mass(a, quad))


def test_quadrant_masses_at_the_top_vertex():
    r = SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_R)
    top = (0.0, 1.0)
    assert UNIT.quadrant_mass(top, 2) == pytest.approx(0.5)
    assert r.quadrant_mass(top, 2) == pytest.approx(0.5)


def test_quadrant_equality_sweep():
    r = SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_R)
    mix = SquareEdgeGadget((0.0, 0.0), 1.0, VARIANT_MIX)
    for _, a, b, _ in mix.edges():
        for u in np.linspace(0.0, 1.0, 26)[:-1]:
            pt = (a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))
            for quad in (1, 2, 3, 4):
                assert abs(UNIT.quadrant_mass(pt, quad) - r.quadrant_mass(pt, quad)) <= 1e-12


def test_quadrant_mass_guards():
    with pytest.raises(InvalidInput):
        UNIT.quadrant_mass((0.2, 0.2), 1)  # off support
    with pytest.raises(InvalidInput):
        UNIT.quadrant_mass((0.5, 0.5), 5)


def test_gadget_sampling():
    rng = np.random.default_rng(3)
    mix = SquareEdgeGadget((0.5, 0.5), 0.5, VARIANT_MIX)
    pts = mix.sample(20_000, rng)
    assert pts.shape == (20_000, 2)
    dist = np.abs(pts[:, 0] - 0.5) + np.abs(pts[:, 1] - 0.5)
    assert np.abs(dist - 0.5).max() < 1e-12
    upper_left = ((pts[:, 0] < 0.5) & (pts[:, 1] > 0.5)).mean()
    assert abs(upper_left - 0.25) < 0.02
    assert mix.sample(0, rng).shape == (0, 2)


def stable_rank_codes(pts, labels):
    """Reference tuple codes: per-axis 0-based ranks from a stable argsort,
    then the labels, in the digit layout of _encode_tuples."""
    n, m, _ = pts.shape
    ranks = np.empty((n, m, 2), dtype=np.int64)
    for axis in range(2):
        order = np.argsort(pts[:, :, axis], axis=1, kind="stable")
        np.put_along_axis(ranks[:, :, axis], order, np.arange(m)[None, :], axis=1)
    codes = np.zeros(n, dtype=np.int64)
    for rank in np.moveaxis(ranks, 2, 1).reshape(n, 2 * m).T:
        codes = codes * m + rank
    for label in np.asarray(labels).T:
        codes = codes * 2 + label
    return codes


def test_order_tuple_example():
    # P at (1, 5), Q at (3, 2): sigma_x = (0, 1), sigma_y = (1, 0), labels (0, 1)
    pts = np.array([[[1.0, 5.0], [3.0, 2.0]]])
    code = 0b_01_10_01  # sigma_x, sigma_y, labels: two base-m=2 digits each
    assert _encode_tuples(pts, np.array([[0, 1]]), 2).tolist() == [code]


def test_order_tuple_invariant_under_monotone_maps():
    # small additive terms keep apply() faithful to the order at float
    # precision (huge sampled lam3 values would collapse nearby points)
    rng = np.random.default_rng(5)
    gadget = SquareEdgeGadget((0.5, 0.5), 0.5, VARIANT_MIX)
    fx = MonotoneMap(lam1=1.2, lam2=3.0, log_lam3=math.log(7.0), scale=16.0)
    fy = MonotoneMap(lam1=0.4, lam2=0.1, log_lam3=-math.inf, scale=16.0)
    labels = np.array([[i % 2 for i in range(5)]])
    for _ in range(25):
        pts = gadget.sample(5, rng)
        mapped = np.array([[fx.apply(x), fy.apply(y)] for x, y in pts])
        plain = stable_rank_codes(pts[None], labels)
        assert np.array_equal(stable_rank_codes(mapped[None], labels), plain)
        assert np.array_equal(_encode_tuples(mapped[None], labels, 5), plain)


def test_order_tuple_distance_validation():
    for m in (0, 5):
        with pytest.raises(InvalidInput):
            order_tuple_distribution_distance(m)
        with pytest.raises(InvalidInput):
            order_tuple_laws(m)
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInput):
        sample_order_tuple_cells(0, 2000, rng)
    with pytest.raises(InvalidInput):
        sample_order_tuple_cells(9, 2000, rng)
    with pytest.raises(InvalidInput):
        sample_order_tuple_cells(2, 999, rng)


def test_order_tuple_laws_match_then_split():
    for m in (1, 2, 3):
        assert order_tuple_distribution_distance(m) == Fraction(0)
    assert order_tuple_distribution_distance(4) == Fraction(15, 64)
    for m in (1, 2, 3, 4):
        (y_codes, y_counts), (n_codes, n_counts) = order_tuple_laws(m)
        cells = math.factorial(m) * 2**m  # of the arrangement of {u_i, 1 - u_i}
        assert y_counts.sum() == 4**m * 2**m * cells  # edges x labels x cells
        assert n_counts.sum() == 2 * 2**m * 2**m * cells  # orientation x labels x edges
        for codes in (y_codes, n_codes):
            assert codes.dtype == np.int64
            assert np.all(np.diff(codes) > 0)
    (y_codes, _), (n_codes, _) = order_tuple_laws(4)
    assert (len(y_codes), len(n_codes)) == (8448, 6528)


@pytest.mark.parametrize("m", [3, 4])
def test_sampler_fits_the_exact_laws(m):
    cells = sample_order_tuple_cells(m, 100_000, np.random.default_rng((61, m)))
    for world_cells, law in zip(cells, order_tuple_laws(m)):
        z, _, outside = law_fit(world_cells, law)
        assert outside == 0 and z <= 4.0


def whole_array_gadget_points(centers, radius, codes, rng, comp=None):
    """The gadget sampler with every draw made whole and int64, as it was
    before the draws were blocked: the reference for the stream."""
    n = len(codes)
    coin = rng.integers(2, size=n)
    edge = rng.integers(2, size=n)
    u = rng.random(n)
    edge = 2 * np.where(codes != 2, codes, edge) + coin
    if comp is not None:
        edge += 4 * comp
    centers = np.asarray(centers, dtype=float).reshape(-1, 1, 2)
    a = (centers + radius * _DIR_A).reshape(-1, 2)
    span = (centers + radius * _DIR_B).reshape(-1, 2) - a
    return span[edge] * u[:, None] + a[edge]


def whole_array_order_tuple_cells(m, trials, rng):
    def world(codes, labels):
        pts = whole_array_gadget_points((0.5, 0.5), 0.5, codes.reshape(-1), rng)
        return _encode_tuples(pts.reshape(trials, m, 2), labels, m)

    labels = rng.integers(2, size=(trials, m))
    yes_cells = world(np.full((trials, m), 2), labels)
    labels = rng.integers(2, size=(trials, m))
    orient = rng.integers(2, size=(trials, 1))
    return yes_cells, world(labels ^ orient, labels)


@pytest.mark.parametrize("trials", [1000, _TUPLE_BLOCK + 1, 1001])
@pytest.mark.parametrize("m", range(1, 9))
def test_blocked_tuple_sampler_is_the_whole_array_stream(m, trials):
    ours, theirs = (np.random.default_rng((71, m, trials)) for _ in range(2))
    got = sample_order_tuple_cells(m, trials, ours)
    want = whole_array_order_tuple_cells(m, trials, theirs)
    for got_cells, want_cells in zip(got, want):
        assert got_cells.dtype == np.int64
        assert np.array_equal(got_cells, want_cells)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("k", [32, 2048])  # edge rows fit int8, then need int16
def test_hard_instance_sampler_is_the_whole_array_stream(k):
    inst = gen_hard_instance(k, 3, 0.5, False, np.random.default_rng(73))
    n = 2 * _TUPLE_BLOCK + 3
    for side in ("p", "q"):
        ours, theirs = (np.random.default_rng((79, k)) for _ in range(2))
        got = inst.sampler(side)(n, ours)
        masses = np.array([sq.mass for sq in inst.squares])
        comp = theirs.choice(len(masses), size=n, p=masses / masses.sum())
        centers = np.array([inst.center(sq) for sq in inst.squares])
        variants = [inst.gadget(sq, side).variant for sq in inst.squares]
        codes = np.array([_VARIANTS.index(v) for v in variants])
        want = whole_array_gadget_points(centers, inst.radius, codes[comp], theirs, comp)
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_hard_instance_sampler_draws_nothing_for_no_points():
    inst = gen_hard_instance(32, 3, 0.5, False, np.random.default_rng(73))
    rng = np.random.default_rng(83)
    rng.integers(0, 5, size=3)  # three 32-bit words leave half of a 64-bit output
    state = rng.bit_generator.state
    assert inst.sampler("p")(0, rng).shape == (0, 2)
    assert rng.bit_generator.state == state


def test_tuple_sampler_memory_is_bounded_per_tuple():
    # Whole-array draws held about 154 bytes per tuple (int64 draws, the
    # point array and its transposed copy); the blocked sampler about 41.
    trials = 1 << 19
    tracemalloc.start()
    try:
        sample_order_tuple_cells(4, trials, np.random.default_rng(83))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / trials <= 64


def test_fit_rejects_the_other_worlds_law():
    yes_cells, no_cells = sample_order_tuple_cells(4, 100_000, np.random.default_rng(67))
    yes_law, no_law = order_tuple_laws(4)
    assert law_fit(yes_cells, no_law)[2] > 0
    # every no-world tuple is possible in the yes world: the counts must tell
    z, _, outside = law_fit(no_cells, yes_law)
    assert outside == 0 and z > 4.0


@pytest.mark.parametrize("m", range(1, 9))
def test_encode_tuples_matches_scalar_order_tuples(m):
    rng = np.random.default_rng((43, m))
    pts = rng.random((300, m, 2))
    labels = rng.integers(2, size=(300, m))
    assert np.array_equal(_encode_tuples(pts, labels, m), stable_rank_codes(pts, labels))


def test_encode_tuples_ranks_ties_stably():
    rng = np.random.default_rng(47)
    m = 5
    pts = rng.integers(0, 3, size=(500, m, 2)).astype(float)
    labels = np.zeros((500, m), dtype=np.int64)
    assert np.array_equal(_encode_tuples(pts, labels, m), stable_rank_codes(pts, labels))


def test_hard_instance_sampler_matches_per_point_formula():
    inst = gen_hard_instance(32, 2, 1.0, False, np.random.default_rng(53))
    for side in ("p", "q"):
        got = inst.sampler(side)(500, np.random.default_rng((59, side == "q")))
        rng = np.random.default_rng((59, side == "q"))
        masses = np.array([sq.mass for sq in inst.squares])
        comp = rng.choice(len(masses), size=500, p=masses / masses.sum())
        coin = rng.integers(2, size=500)
        hi_bit = rng.integers(2, size=500)
        u = rng.random(500)
        for i, sq_index in enumerate(comp):
            edges = inst.gadget(inst.squares[sq_index], side).edges()
            pick = coin[i] if len(edges) == 2 else 2 * hi_bit[i] + coin[i]
            _, a, b, _ = edges[pick]
            want = [a[j] + u[i] * (b[j] - a[j]) for j in range(2)]
            assert got[i].tolist() == want


def test_gen_hard_instance_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInput):
        gen_hard_instance(8, 4, 1.0, False, rng)  # m >= k/2
    with pytest.raises(InvalidInput):
        gen_hard_instance(8, 2, 1.5, False, rng)
    with pytest.raises(InvalidInput):
        gen_hard_instance(0, 1, 1.0, False, rng)


def test_gen_hard_instance_structure():
    rng = np.random.default_rng(11)
    inst = gen_hard_instance(64, 4, 0.5, False, rng)
    assert inst.r == 8 == len(inst.squares)
    assert inst.radius == 0.5 / 8
    expected_total = 0.0
    for sq in inst.squares:
        if sq.heavy:
            assert sq.mass == 1.0 / 4
            assert sq.p_variant == sq.q_variant == VARIANT_MIX
        else:
            assert sq.mass == 0.5 / 64
            assert {sq.p_variant, sq.q_variant} == {VARIANT_T, VARIANT_R}
        expected_total += sq.mass
    assert inst.total_mass == pytest.approx(expected_total)

    equal = gen_hard_instance(64, 4, 0.5, True, rng)
    assert all(
        sq.p_variant == sq.q_variant == VARIANT_MIX
        for sq in equal.squares
        if not sq.heavy
    )


def test_hard_instance_sampler_stays_on_square_edges():
    rng = np.random.default_rng(13)
    inst = gen_hard_instance(32, 2, 1.0, False, rng)
    for side in ("p", "q"):
        pts = inst.sampler(side)(2000, rng)
        idx = np.floor(pts[:, 0] * inst.r).astype(int)
        centers = (idx + 0.5) / inst.r
        dist = np.abs(pts[:, 0] - centers) + np.abs(pts[:, 1] - centers)
        assert np.abs(dist - inst.radius).max() < 1e-12
    with pytest.raises(InvalidInput):
        inst.sampler("r")


def assert_interiors_disjoint(rects):
    """No two boxes share an interior point: on some axis they meet at most
    on a boundary."""
    for a, b in itertools.combinations(rects, 2):
        assert any(max(a.lo[j], b.lo[j]) >= min(a.hi[j], b.hi[j]) for j in range(2))


def one_light_instance():
    return HardInstance(
        k=8,
        m=1,
        eps=1.0,
        r=2,
        equal_case=False,
        squares=(
            SquareSpec(0, True, VARIANT_MIX, VARIANT_MIX, 1.0),
            SquareSpec(1, False, VARIANT_T, VARIANT_R, 0.125),
        ),
    )


def test_ak_lower_bound_hand_instance():
    # One oriented light square of mass eps/k = 1/8: each of its four
    # quadrant boxes sees a one-sided discrepancy of mass/2, so the raw
    # total is 2 * mass = 1/4, normalized by M = 9/8 to 2/9.
    inst = one_light_instance()
    bound, discrepancy, family = inst.ak_lower_bound()
    assert bound == pytest.approx(2.0 / 9.0)
    assert discrepancy == 0.25
    assert len(family) == 4
    # the four quadrant boxes tile the light square [1/2, 1]^2
    assert_interiors_disjoint(family)
    square = AxisRectangle((0.5, 0.5), (1.0, 1.0))
    assert all(square.contains_rect(box) for box in family)
    assert sum(box.volume() for box in family) == square.volume()


def test_ak_lower_bound_is_zero_for_equal():
    rng = np.random.default_rng(19)
    inst = gen_hard_instance(16, 1, 1.0, True, rng)
    bound, discrepancy, family = inst.ak_lower_bound()
    assert bound == discrepancy == 0.0
    assert len(family) == 0


def test_ak_lower_bound_respects_the_rectangle_budget():
    squares = tuple(
        SquareSpec(i, False, VARIANT_T, VARIANT_R, 1.0 / 16) for i in range(4)
    )
    inst = HardInstance(k=8, m=1, eps=1.0, r=4, equal_case=False, squares=squares)
    bound, _, family = inst.ak_lower_bound()
    assert len(family) == 8  # k // 4 = 2 squares x 4 boxes
    assert_interiors_disjoint(family)
    assert bound == pytest.approx((2.0 / 16) * 2 / inst.total_mass)


def test_discretized_instance_matches_the_bound():
    # coarsest lattice: the exact brute-force A_8 equals the light square's
    # l1 mass 1/4, which the four witness boxes already achieve
    inst = one_light_instance()
    p, q, meta = inst.to_distributions(cells_per_square=2)
    assert p.total_mass == q.total_mass == inst.total_mass
    value, _ = ak_distance_bruteforce(p, q, 8)
    assert value == 0.25
    assert inst.ak_lower_bound()[1] == value


@pytest.mark.parametrize("k,m", [(8, 1), (16, 1), (16, 3)])
@pytest.mark.parametrize("cells", [2, 4])
def test_planted_bound_holds_on_the_exact_pushforward(k, m, cells):
    # the unnormalized sum is what the pushforward must reach: at eps 0.1
    # and 0.9, bound * total_mass rounds an ulp above A_8; the witness must
    # fit in 8 boxes, since A_8 can be below the bound of a larger family
    for seed in range(4):
        for eps in (1.0, 0.5, 0.1, 0.9):
            inst = gen_hard_instance(k, m, eps, False, np.random.default_rng(seed))
            p, q, _ = inst.to_distributions(cells_per_square=cells)
            _, discrepancy, witness = inst.ak_lower_bound()
            assert len(witness) <= 8
            assert discrepancy <= ak_distance_bruteforce(p, q, 8)[0]


def test_to_distributions_equal_case_sides_agree():
    rng = np.random.default_rng(23)
    inst = gen_hard_instance(16, 1, 0.5, True, rng)
    p, q, meta = inst.to_distributions()
    assert p.axes == q.axes
    assert p.mass == q.mass
    assert meta["equal_case"] is True
    assert meta["total_mass"] == inst.total_mass
    assert len(meta["squares"]) == inst.r
    assert p.total_mass == pytest.approx(inst.total_mass)


def test_to_distributions_validates_cell_count():
    inst = one_light_instance()
    with pytest.raises(InvalidInput):
        inst.to_distributions(cells_per_square=3)
    with pytest.raises(InvalidInput):
        inst.to_distributions(cells_per_square=0)


@pytest.mark.parametrize(
    "inst, cells",
    [
        (one_light_instance(), 2),
        (gen_hard_instance(16, 1, 1.0, False, np.random.default_rng(29)), 4),
        (gen_hard_instance(32, 3, 0.5, False, np.random.default_rng(31)), 6),
        (gen_hard_instance(24, 2, 0.5, True, np.random.default_rng(37)), 8),
    ],
)
def test_lattice_rounding_is_the_pushforward_of_the_sampler(inst, cells):
    # Snapping each sampled point to its cell's top-left lattice vertex must
    # hit exactly the atoms of to_distributions, at their normalized masses.
    n = 100_000
    denom = inst.r * cells
    for side, dist in zip(("p", "q"), inst.to_distributions(cells)[:2]):
        pts = inst.sampler(side)(n, np.random.default_rng((41, cells, side == "q")))
        snapped = np.column_stack(
            [np.floor(pts[:, 0] * denom), np.ceil(pts[:, 1] * denom)]
        ).astype(np.int64)
        cells_hit, counts = np.unique(snapped, axis=0, return_counts=True)
        atoms = {
            tuple(round(v * denom) for v in dist.point_of(idx)): w
            for idx, w in dist.mass.items()
        }
        assert set(map(tuple, cells_hit.tolist())) == set(atoms)
        prob = np.array([atoms[tuple(cell)] for cell in cells_hit.tolist()])
        prob /= dist.total_mass
        z = (counts - n * prob) / np.sqrt(n * prob * (1 - prob))
        assert np.abs(z).max() <= 6.0


def test_monotone_map_closed_form():
    f = MonotoneMap(lam1=0.0, lam2=1.0, log_lam3=math.log(2.0), scale=20.0)
    # f(x) = exp(x e^0 + 1) + 2
    assert f.apply(0.0) == pytest.approx(math.e + 2.0)
    assert f.apply(1.0) == pytest.approx(math.exp(2.0) + 2.0)
    with pytest.raises(InvalidInput):
        f.apply(-0.1)
    with pytest.raises(InvalidInput):
        f.apply(1.5)


def test_monotone_map_is_strictly_increasing():
    # materialized values can collapse when lam3 dwarfs exp(g) in binary64,
    # so strict monotonicity is witnessed in log space: a finite log_gap
    # certifies f(y) > f(x) exactly
    rng = np.random.default_rng(29)
    for _ in range(5):
        f = sample_monotone_map(20.0, rng)
        xs = np.sort(rng.random(200))
        gaps = [f.log_gap(float(a), float(b)) for a, b in zip(xs, xs[1:])]
        assert all(math.isfinite(g) for g in gaps)
    # with a modest additive term the materialized values are ordered too
    small = MonotoneMap(lam1=1.2, lam2=3.0, log_lam3=math.log(7.0), scale=16.0)
    ys = [small.apply(x / 200.0) for x in range(201)]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_monotone_map_overflow_reporting():
    huge_slope = MonotoneMap(lam1=0.0, lam2=800.0, log_lam3=-math.inf, scale=1e12)
    with pytest.raises(OverflowError):
        huge_slope.apply(1.0)
    huge_offset = MonotoneMap(lam1=0.0, lam2=0.0, log_lam3=800.0, scale=1e12)
    with pytest.raises(OverflowError, match="additive"):
        huge_offset.apply(0.0)
    # log-space accessors still work where apply cannot
    assert huge_slope.log_gap(0.0, 1.0) > 700


def test_log_gap_matches_direct_computation():
    f = MonotoneMap(lam1=1.0, lam2=0.5, log_lam3=0.0, scale=20.0)
    direct = math.log(f.apply(0.8) - f.apply(0.3))
    assert f.log_gap(0.3, 0.8) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(InvalidInput):
        f.log_gap(0.8, 0.3)


def test_triple_coords_match_materialized_values():
    f = MonotoneMap(lam1=0.5, lam2=1.5, log_lam3=math.log(3.0), scale=20.0)
    a, b, c = 0.1, 0.5, 0.9
    fa, fb, fc = f.apply(a), f.apply(b), f.apply(c)
    got = f.triple_coords(a, b, c)
    assert got[0] == pytest.approx(math.log(math.log((fc - fa) / (fb - fa))), rel=1e-9)
    assert got[1] == pytest.approx(math.log(fb - fa), rel=1e-12)
    assert got[2] == pytest.approx(math.log(fa), rel=1e-12)
    with pytest.raises(InvalidInput):
        f.triple_coords(0.5, 0.5, 0.9)


def test_sample_monotone_map_parameter_ranges():
    rng = np.random.default_rng(31)
    w = 50.0
    loglog = math.log(math.log(w))
    log3 = math.log(w) ** 3
    for _ in range(100):
        f = sample_monotone_map(w, rng)
        assert loglog <= f.lam1 <= 2 * loglog
        assert 0.0 <= f.lam2 <= log3
        assert f.log_lam3 <= 2 * log3
    with pytest.raises(InvalidInput):
        sample_monotone_map(10.0, rng)  # below e^e


def test_sample_monotone_map_size_one_matches_size_none():
    # one stream: size=1 draws the same lam1, lam2, u as size=None
    triple = (0.1, 0.5, 0.9)
    for seed in (0, 37):
        one = sample_monotone_map(1e6, np.random.default_rng(seed))
        many = sample_monotone_map(1e6, np.random.default_rng(seed), 1)
        assert np.ndim(one.lam1) == 0 and np.shape(many.lam1) == (1,)
        assert (many.lam1[0], many.lam2[0]) == (one.lam1, one.lam2)
        assert many.log_lam3[0] == pytest.approx(one.log_lam3, rel=1e-15)
        got = np.column_stack(many.triple_coords(*triple))
        assert got.shape == (1, 3)
        assert np.allclose(got[0], one.triple_coords(*triple), rtol=1e-12)


def test_many_maps_broadcast_like_one_map_each():
    rng = np.random.default_rng(3)
    maps = sample_monotone_map(20.0, rng, 6)
    coords = maps.triple_coords(0.1, 0.5, 0.9)
    gaps = maps.log_gap(0.2, 0.7)
    for i in range(6):
        one = MonotoneMap(maps.lam1[i], maps.lam2[i], maps.log_lam3[i], 20.0)
        assert [c[i] for c in coords] == list(one.triple_coords(0.1, 0.5, 0.9))
        assert gaps[i] == one.log_gap(0.2, 0.7)


def test_many_maps_validation():
    rng = np.random.default_rng(0)
    maps = sample_monotone_map(1e6, rng, 10)
    with pytest.raises(InvalidInput):
        maps.triple_coords(0.5, 0.4, 0.9)
    with pytest.raises(InvalidInput):
        maps.triple_coords(0.1, 0.5, 1.1)
    with pytest.raises(InvalidInput):
        sample_monotone_map(2.0, rng, 10)
    # one map in the batch whose additive term overflows fails them all
    log_lam3 = np.zeros(3)
    log_lam3[1] = 800.0
    wide = MonotoneMap(np.zeros(3), np.zeros(3), log_lam3, 1e12)
    with pytest.raises(OverflowError, match="additive"):
        wide.apply(0.5)


@pytest.mark.parametrize(
    "scale, triple_one, triple_two, tv",
    [
        (1e3, (0.0, 0.2, 0.9), (0.0, 0.7, 0.9), 0.6780733),
        (1e6, (0.0, 0.2, 0.9), (0.0, 0.7, 0.9), 0.4796569),
        (1e12, (0.0, 0.2, 0.9), (0.0, 0.7, 0.9), 0.3775210),
        (1e12, (0.0, 0.4, 1.0), (0.0, 0.6, 1.0), 0.1221674),
    ],
)
def test_gap_ratio_tv_pins_exact_values(scale, triple_one, triple_two, tv):
    assert gap_ratio_tv(scale, triple_one, triple_two) == pytest.approx(tv, rel=1e-6)


def test_gap_ratio_tv_meets_the_log_log_limit():
    # for large W the two laws are uniforms of width log log W shifted by
    # |log((c - b) / (c' - b'))|, so the maps hide the ratio at 1 / log log W
    w = 1e100
    limit = abs(math.log(0.6 / 0.4)) / math.log(math.log(w))
    assert gap_ratio_tv(w, (0.0, 0.4, 1.0), (0.0, 0.6, 1.0)) == pytest.approx(
        limit, abs=1e-9
    )


def test_gap_ratio_tv_is_symmetric_and_translation_invariant():
    t1, t2 = (0.0, 0.2, 0.9), (0.0, 0.7, 0.9)
    for w in (1e3, 1e12):
        assert gap_ratio_tv(w, t1, t2) == gap_ratio_tv(w, t2, t1)
        assert gap_ratio_tv(w, t1, t1) == 0.0
        # the gap ratio depends on the triple's differences only
        assert gap_ratio_tv(w, t1, (0.1, 0.3, 1.0)) < 1e-9


def test_gap_ratio_tv_validation():
    t = (0.0, 0.5, 1.0)
    with pytest.raises(InvalidInput, match="e\\^e"):
        gap_ratio_tv(math.exp(math.e), t, t)
    with pytest.raises(InvalidInput):
        gap_ratio_tv(1e6, t, (0.0, 0.9, 0.5))
    with pytest.raises(InvalidInput):
        gap_ratio_tv(1e6, (0.2, 0.5, 1.2), t)
    # a gap of 1e-13 leaves log log A at rounding noise, not increasing
    with pytest.raises(InvalidInput, match="strictly increasing"):
        gap_ratio_tv(1e6, t, (0.0, 0.5, 0.5 + 1e-13))


def test_gap_ratio_tv_law_matches_the_sampled_maps():
    # the sampled maps' log log A fits the CDF (psi^-1(x) - L) / L that
    # gap_ratio_tv integrates; sqrt(n) KS < 1.95 is its 0.1 % level
    w, triple, n = 1e6, (0.0, 0.2, 0.9), 200_000
    draws = np.sort(
        sample_monotone_map(w, np.random.default_rng(5), n).triple_coords(*triple)[0]
    )
    loglog = math.log(math.log(w))
    lam = np.linspace(loglog, 2 * loglog, 1 << 16)
    psi = MonotoneMap(lam, 0.0, 0.0, w).triple_coords(*triple)[0]
    cdf = (np.interp(draws, psi, lam) - loglog) / loglog
    steps = np.arange(n + 1) / n
    ks = max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max())
    assert math.sqrt(n) * ks < 1.95
