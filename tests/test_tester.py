"""The end-to-end closeness tester and its budget formulas."""

import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aktest.flatten
from aktest import (
    InvalidInput,
    TesterConfig,
    ak_closeness_test,
    consistency_satisfied,
    flatten_set_count,
    hypothesis_equivalence_test,
    kappa,
    make_instance,
    sample_budget,
    tv_histogram_test,
)
from aktest.cli import check_constants
from aktest.covering import _BLOCK, CoverFamily
from aktest.flatten import _draw_counts, flatten_closeness
from aktest.tester import (
    _BATCH_CAP,
    _CONSTANT_KEYS,
    LadderLookup,
    RunPlan,
    _bounded_int32,
    _choice_index,
    _padded_size,
    prepare,
)
from test_covering import BLOCK_EDGES, reference_codes
from test_flatten import check_early_stop, three_repeat_l2_test


def uniform_access(d=1):
    def access(n, rng):
        return rng.random((n, d))

    return access


def cheap_config(**overrides):
    """Tiny budgets end to end: huge kappa makes the inner test trivial."""
    base = dict(k=4, d=1, eps=1.0, c_kappa=1e4, s_multiplier=1.0)
    base.update(overrides)
    return TesterConfig(**base)


def test_config_validation():
    with pytest.raises(InvalidInput):
        TesterConfig(k=1, d=1, eps=1.0)
    with pytest.raises(InvalidInput):
        TesterConfig(k=4, d=0, eps=1.0)
    with pytest.raises(InvalidInput):
        TesterConfig(k=4, d=1, eps=0.0)
    with pytest.raises(InvalidInput):
        TesterConfig(k=4, d=1, eps=2.1)
    with pytest.raises(InvalidInput):
        TesterConfig(k=4, d=1, eps=1.0, mode="fast")
    with pytest.raises(InvalidInput):
        TesterConfig(k=4, d=1, eps=1.0, c_kappa=0.0)
    with pytest.raises(InvalidInput):
        TesterConfig(k=4, d=1, eps=1.0, s_multiplier=-1.0)
    with pytest.raises(InvalidInput):
        TesterConfig(k=4.0, d=1, eps=1.0)  # k must be an int, not a float


def test_config_takes_numpy_scalars_as_python_numbers():
    config = TesterConfig(k=np.int64(8), d=np.int32(2), eps=np.float32(1.0))
    assert (config.k, config.d, config.eps) == (8, 2, 1.0)
    assert (type(config.k), type(config.d), type(config.eps)) == (int, int, float)
    assert config == TesterConfig(k=8, d=2, eps=1.0)
    assert TesterConfig.practical(np.uint8(4), np.int64(1), np.float64(0.5)).eps == 0.5
    for bad in (dict(k=np.int64(1)), dict(d=np.int64(0)), dict(eps=np.float32(2.5))):
        with pytest.raises(InvalidInput):
            TesterConfig(**{"k": 4, "d": 1, "eps": 1.0, **bad})


@pytest.mark.parametrize("field", ["k", "d", "eps"])
def test_config_refuses_bools(field):
    # True is the int 1 to Python, but it is no dimension or accuracy
    with pytest.raises(InvalidInput, match=f"^{field} must be a number"):
        TesterConfig(**{"k": 4, "d": 1, "eps": 1.0, field: True})


@pytest.mark.parametrize("name", sorted(_CONSTANT_KEYS))
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_every_constant_must_be_positive_and_finite(name, value):
    with pytest.raises(InvalidInput, match=f"^{name} must be a positive real"):
        TesterConfig(k=4, d=1, eps=1.0, **{name: value})
    with pytest.raises(InvalidInput, match=name):
        TesterConfig.practical(4, 1, 1.0, **{name: value})
    TesterConfig(k=4, d=1, eps=1.0, **{name: 0.5})


def test_alpha_exponent_defaults():
    assert TesterConfig(k=4, d=3, eps=1.0).alpha_d == 1.0
    assert TesterConfig(k=4, d=3, eps=1.0, alpha=2.5).alpha_d == 2.5
    # paper default: d^2 2^(2^(d+1))
    assert TesterConfig.paper(4, 1, 1.0).alpha_d == 16.0
    assert TesterConfig.paper(4, 2, 1.0).alpha_d == 4 * 2**8
    assert TesterConfig.paper(4, 3, 1.0).alpha_d == 9 * 2**16
    with pytest.raises(InvalidInput):
        TesterConfig.paper(4, 9, 1.0).alpha_d  # tower exceeds float range


def test_sample_budget_reference_value():
    config = TesterConfig(k=128, d=1, eps=1.0, alpha=1.0)
    assert sample_budget(config) == 565


def test_sample_budget_scaling():
    base = TesterConfig(k=16, d=2, eps=1.0, alpha=1.0)
    doubled = TesterConfig(k=16, d=2, eps=1.0, alpha=1.0, budget_multiplier=4.0)
    assert sample_budget(doubled) == math.ceil(4 * 2.0 ** (6 / 7 * 4 + 2 / 3) * 16)
    assert sample_budget(doubled) >= 4 * sample_budget(base) - 4
    # at eps = 1 the exponent alpha does not touch the budget
    for a in (1.0, 16.0, 1024.0):
        assert sample_budget(
            TesterConfig(k=16, d=2, eps=1.0, alpha=a)
        ) == sample_budget(base)


def test_sample_budget_cap():
    with pytest.raises(InvalidInput):
        sample_budget(
            TesterConfig(k=128, d=1, eps=1.0, alpha=1.0, budget_multiplier=1e40)
        )
    # paper-mode exponents at small eps overflow by design
    with pytest.raises(InvalidInput):
        sample_budget(TesterConfig.paper(128, 2, 0.5))


def test_kappa_reference_value():
    config = TesterConfig(k=16, d=1, eps=2.0, alpha=1.0, c_kappa=1.0)
    # c 2^-d (log2 k)^-3d (eps/4)^2a m^2 / k^3 = (1/2)(1/64)(1/4) 10^4 / 4096
    assert kappa(config, 100) == 0.00476837158203125
    assert kappa(config, 200) == 4 * kappa(config, 100)
    with pytest.raises(InvalidInput):
        kappa(config, 0)


def test_kappa_scales_linearly_in_its_constant():
    small = TesterConfig(k=8, d=2, eps=0.5, alpha=1.0, c_kappa=0.01)
    large = TesterConfig(k=8, d=2, eps=0.5, alpha=1.0, c_kappa=0.03)
    assert kappa(large, 50) == pytest.approx(3 * kappa(small, 50), rel=1e-15)


def test_consistency_condition():
    config = TesterConfig(k=4, d=1, eps=1.0)
    assert not consistency_satisfied(config, 10, 0.0)
    assert not consistency_satisfied(config, 10, -1.0)
    assert consistency_satisfied(config, 10, 1.0)  # bound = max(1, 1/2) = 1
    assert not consistency_satisfied(config, 10, 1e-9)


def test_flatten_set_count_formula():
    config = TesterConfig(k=8, d=2, eps=1.0, s_multiplier=1.0)
    assert flatten_set_count(config, 85) == math.ceil(8 * math.log2(85) ** 2)
    assert flatten_set_count(config, 1) == 1  # log2(1) = 0 floors at 1
    scaled = TesterConfig(k=8, d=2, eps=1.0, s_multiplier=1000.0)
    assert flatten_set_count(scaled, 85) == math.ceil(8000 * math.log2(85) ** 2)
    with pytest.raises(InvalidInput):
        flatten_set_count(config, 0)


def test_practical_profile_loads_and_overrides():
    config = TesterConfig.practical(8, 2, 1.0)
    assert (config.c_kappa, config.s_multiplier) == (0.015, 1000.0)
    assert TesterConfig.practical(8, 2, 1.0, c_kappa=0.5).c_kappa == 0.5
    # the profile leaves alpha unset, and practical mode's exponent is 1
    assert config.alpha is None and config.alpha_d == 1.0


def test_practical_profile_rejects_unknown_keys():
    # the analysis constants c_r and c_f are not options
    for bad in ({"c_kappa": 0.01, "mystery": 2.0}, {"robust_const": 4.0}):
        with pytest.raises(InvalidInput, match="unknown constants"):
            check_constants(bad)
    assert check_constants({"c_kappa": 1}) == {"c_kappa": 1.0}


def test_paper_mode_consistency_gate():
    config = TesterConfig.paper(8, 1, 1.0)
    with pytest.raises(InvalidInput, match="consistency"):
        ak_closeness_test(
            uniform_access(), uniform_access(), config, np.random.default_rng(0)
        )


def test_end_to_end_result_fields():
    config = cheap_config()
    result = ak_closeness_test(
        uniform_access(), uniform_access(), config, np.random.default_rng(7)
    )
    assert result.budget == sample_budget(config)
    assert result.kappa == kappa(config, result.budget)
    assert result.flatten_sets == flatten_set_count(config, result.budget)
    assert result.grid_values >= 3
    assert (result.grid_values - 1) & (result.grid_values - 2) == 0  # 2^a + 1
    assert result.grid_values >= result.batch_size
    assert result.samples_used >= result.batch_size
    assert result.accept == (result.statistic < result.threshold)
    assert result.decision in ("accept", "reject")


def test_seeded_runs_are_reproducible():
    config = cheap_config()
    a = ak_closeness_test(
        uniform_access(), uniform_access(), config, np.random.default_rng(42)
    )
    b = ak_closeness_test(
        uniform_access(), uniform_access(), config, np.random.default_rng(42)
    )
    assert a == b


def test_batch_cap_refuses_before_any_draw():
    calls = []

    def access(n, rng):
        calls.append(n)
        raise AssertionError(f"drew a batch of {n} points")

    config = cheap_config(budget_multiplier=1e9)  # m near 8e9, below _BUDGET_CAP
    assert sample_budget(config) > _BATCH_CAP
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match="_BATCH_CAP"):
            ak_closeness_test(access, access, config, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 1 << 20


def test_access_shape_is_checked():
    config = cheap_config()
    bad = lambda n, rng: rng.random((n, 3))
    with pytest.raises(InvalidInput, match="must return"):
        ak_closeness_test(bad, uniform_access(), config, np.random.default_rng(7))


def test_empty_batch_is_reported():
    # budget 2 means Poi(1) per side; some seed in range drains both
    config = TesterConfig(k=2, d=1, eps=2.0, c_kappa=1e4)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        try:
            ak_closeness_test(uniform_access(), uniform_access(), config, rng)
        except InvalidInput as err:
            assert "empty" in str(err)
            return
    pytest.fail("no seed produced an empty mixture batch")


def test_l2_draw_cap_stops_a_shrunken_flattening():
    # s_multiplier 0.5 leaves a one-point flattening, so the l2 test would
    # need Poi(m) draws per side far above the cap, several GB of codes
    inst = make_instance("uniform-equal", 8, 1.0, np.random.default_rng(0))
    config = TesterConfig.practical(8, 2, 1.0, s_multiplier=0.5)
    started = time.perf_counter()
    with pytest.raises(InvalidInput, match="_DRAW_CAP"):
        ak_closeness_test(
            inst.p_access, inst.q_access, config, np.random.default_rng(0)
        )
    assert time.perf_counter() - started < 10


def test_verdict_invariant_under_monotone_reparametrization():
    maps = [lambda x: x**3, lambda x: np.expm1(2.0 * x), lambda x: np.arctan(x)]

    def mapped_access(d):
        inner = uniform_access(d)

        def access(n, rng):
            pts = inner(n, rng)
            return np.column_stack([maps[j](pts[:, j]) for j in range(d)])

        return access

    config = cheap_config(k=4, d=2, eps=1.0)
    for trial in range(10):
        rng1 = np.random.default_rng((11, trial))
        rng2 = np.random.default_rng((11, trial))
        plain = ak_closeness_test(uniform_access(2), uniform_access(2), config, rng1)
        mapped = ak_closeness_test(mapped_access(2), mapped_access(2), config, rng2)
        assert mapped == plain  # bit-for-bit, statistic included


def test_tv_histogram_doubles_the_accuracy():
    tv_rng, ak_rng = np.random.default_rng(3), np.random.default_rng(3)
    via_tv = tv_histogram_test(
        uniform_access(), uniform_access(), cheap_config(eps=0.4), tv_rng
    )
    direct = ak_closeness_test(
        uniform_access(), uniform_access(), cheap_config(eps=0.8), ak_rng
    )
    assert via_tv == direct


def test_tv_histogram_caps_vacuous_accuracies():
    tv_rng, ak_rng = np.random.default_rng(3), np.random.default_rng(3)
    capped = tv_histogram_test(
        uniform_access(), uniform_access(), cheap_config(eps=1.5), tv_rng
    )
    direct = ak_closeness_test(
        uniform_access(), uniform_access(), cheap_config(eps=2.0), ak_rng
    )
    assert capped == direct


def test_hypothesis_equivalence_accepts_identical_hypotheses():
    def labeled(n, rng):
        x = rng.random((n, 2))
        return x, (x[:, 0] < 0.5).astype(int)

    config = cheap_config(k=4, d=2, eps=1.0)
    result = hypothesis_equivalence_test(
        labeled, labeled, config, np.random.default_rng(9)
    )
    # the delegate runs at accuracy eps / 2
    assert result.kappa == kappa(cheap_config(k=4, d=2, eps=0.5), result.budget)
    assert result.accept


def test_hypothesis_equivalence_checks_label_shapes():
    def bad(n, rng):
        return rng.random((n, 2)), np.zeros((n, 2))

    config = cheap_config(k=4, d=2, eps=1.0)
    with pytest.raises(InvalidInput, match="labeled access"):
        hypothesis_equivalence_test(bad, bad, config, np.random.default_rng(9))


def reference_positions(ladder, x, rng):
    """The two-search rank draw that LadderLookup.positions must reproduce."""
    ladder = np.sort(ladder)
    left = np.searchsorted(ladder, x, side="left")
    right = np.searchsorted(ladder, x, side="right")
    return left + rng.integers(0, right - left + 1)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ladders_and_queries(draw):
    # a few distinct values, repeated, so ladders carry heavy ties
    pool = draw(st.lists(finite, min_size=1, max_size=8, unique=True))
    ladder = draw(st.lists(st.sampled_from(pool) | finite, min_size=1, max_size=40))
    lo, hi = min(ladder), max(ladder)
    with np.errstate(over="ignore"):
        edges = [lo - 1.0, hi + 1.0, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
    query = st.sampled_from(ladder + edges + [-np.inf, np.inf]) | finite
    return np.array(ladder), np.array(draw(st.lists(query, max_size=60)), dtype=float)


@settings(max_examples=300, deadline=None)
@given(ladders_and_queries(), st.integers(0, 2**32 - 1))
def test_ladder_lookup_matches_two_searches(case, seed):
    ladder, x = case
    lookup = LadderLookup(ladder)
    left, ties = lookup(x)
    ordered = np.sort(ladder)
    assert np.array_equal(left, np.searchsorted(ordered, x, side="left"))
    assert np.array_equal(ties, np.searchsorted(ordered, x, side="right") - left)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(lookup.positions(x, ours), reference_positions(ladder, x, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize(
    "ladder",
    [
        (np.arange(88) % 32 + 0.5) / 32,  # lattice: every query ties
        np.random.default_rng(1).random(279),  # continuous: bucket scan
        2.0 ** -np.arange(60.0),  # uneven spread: binary-search fallback
        np.array([-1e308, 0.0, 1e308]),  # span overflows a float
        np.array([0.25] * 5),  # one distinct value
    ],
)
def test_ladder_lookup_on_each_path(ladder):
    rng = np.random.default_rng(3)
    x = np.concatenate(
        [ladder, rng.choice(ladder, 500), rng.normal(size=500), [-np.inf, np.inf]]
    )
    ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(
        LadderLookup(ladder).positions(x, ours), reference_positions(ladder, x, theirs)
    )
    assert ours.bit_generator.state == theirs.bit_generator.state


@st.composite
def bucket_edge_ladders(draw):
    """Dyadic ladders whose values sit exactly on bucket edges, plus one
    bucket filled with ``fill`` values, and the degenerate spans."""
    depth = LadderLookup._MAX_DEPTH
    fill = draw(st.sampled_from([1, depth, depth + 1, "one value", "overflow"]))
    if fill == "one value":
        return np.array([draw(finite)] * draw(st.integers(1, 4))), None
    if fill == "overflow":  # hi - lo is +inf
        return np.array([-1e308, draw(st.floats(-1.0, 1.0)), 1e308]), None
    extra = draw(st.integers(0, 30))
    n = 2 + fill + extra  # distinct values, which fix the bucket count
    buckets = min(1 << (16 * n).bit_length(), LadderLookup._MAX_BUCKETS)
    full = draw(st.integers(1, buckets - 2))
    edges = draw(
        st.lists(
            st.integers(1, buckets - 1).filter(lambda e: e != full),
            min_size=extra,
            max_size=extra,
            unique=True,
        )
    )
    # j / 16 is the bucket coordinate: lo at 0, hi at the top edge
    j = [0, 16 * buckets] + [16 * full + s for s in range(fill)] + [16 * e for e in edges]
    lo = draw(st.sampled_from([0.0, -3.0, 1024.0]))
    step = 2.0 ** draw(st.sampled_from([-40, -4, 0, 20]))
    values = lo + np.array(j, dtype=float) * step
    ladder = np.concatenate([values, draw(st.lists(st.sampled_from(values), max_size=20))])
    return ladder, fill


@settings(max_examples=200, deadline=None)
@given(bucket_edge_ladders(), st.integers(0, 2**32 - 1), st.data())
def test_ladder_lookup_on_bucket_edges(case, seed, data):
    ladder, fill = case
    lookup = LadderLookup(ladder)
    if fill is not None:  # a bucket past _MAX_DEPTH falls back to the search
        assert (lookup._rank is None) == (fill > LadderLookup._MAX_DEPTH)
    values = np.unique(ladder)
    with np.errstate(over="ignore"):
        near = [np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
        between = values[:-1] / 2 + values[1:] / 2
        outside = [values[0] - 1.0, values[-1] + 1.0, -np.inf, np.inf]
    pool = np.concatenate([values, *near, between, outside])
    inside = st.floats(values[0], values[-1])  # mostly buckets without a value
    x = data.draw(st.lists(st.sampled_from(pool) | inside | finite, max_size=80))
    x = np.array(x + [-np.inf, np.inf])
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(lookup.positions(x, ours), reference_positions(ladder, x, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state
    if fill is None:
        return
    # the same ladder as a cdf: choice counts the cdf values <= u
    cdf = np.sort(ladder)
    cdf = (cdf - cdf[0]) / (cdf[-1] - cdf[0])  # exact: dyadic values
    with np.errstate(over="ignore"):
        u = (x - values[0]) / (values[-1] - values[0])
    masses = np.diff(cdf, prepend=0.0)
    index = _choice_index(masses)
    drawn = index(u)
    assert drawn.dtype == np.int64
    assert np.array_equal(drawn, cdf.searchsorted(u, side="right"))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(index(ours.random(len(x))), theirs.choice(len(masses), len(x), p=masses))
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_ladder_lookup_construction_memory():
    # 1094 distinct values hash into 2^15 buckets. The rank and start
    # tables take 12 bytes per bucket; their temporaries must stay small.
    ladder = np.random.default_rng(0).random(1094)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lookup = LadderLookup(ladder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lookup._rank) == 1 << 15
    assert (peak - base) / len(lookup._rank) <= 24


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_positions_across_block_edges(n):
    # ties in the second and last blocks only, and infinite queries
    rng = np.random.default_rng(n)
    ladder = rng.random(279)
    x = rng.normal(size=n)
    for i in {_BLOCK + 3, n - 1} & set(range(n)):
        x[i] = ladder[i % len(ladder)]
    x[n // 3 : n // 3 + 1] = -np.inf
    x[n // 2 : n // 2 + 1] = np.inf
    ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(
        LadderLookup(ladder).positions(x, ours), reference_positions(ladder, x, theirs)
    )
    assert ours.bit_generator.state == theirs.bit_generator.state


def ladders_and_points(case, n, d, rng):
    """Per-axis batch ladders and (n, d) fresh points for one tie layout."""
    if case == "lattice":  # every point ties
        ladders = [(rng.integers(0, 32, 88) + 0.5) / 32 for _ in range(d)]
        return ladders, (rng.integers(0, 32, (n, d)) + 0.5) / 32
    # 2^5 + 1 values fill the padded ladder, so a point above them all
    # lands past the top gap
    ladders = [rng.random(33 if case == "edges" else 279) for _ in range(d)]
    x = rng.random((n, d))
    if case == "some-blocks":  # ties in the second and last blocks only
        for i in {_BLOCK + 3, n - 1} & set(range(n)):
            x[i] = [ladder[i % len(ladder)] for ladder in ladders]
    if case == "edges":  # below, above and tied with the top of the span
        for j, ladder in enumerate(ladders):
            x[j::4, j] = -0.5
            x[j + 1 :: 4, j] = 1.5
            x[j + 2 :: 4, j] = ladder.max()
    return ladders, x


def ladder_plan(ladders) -> RunPlan:
    """A plan over given per-axis batch ladders; encode reads only those."""
    n = len(ladders[0])
    return RunPlan(
        m=n,
        kappa=1.0,
        s=1,
        batch_size=n,
        lookups=tuple(LadderLookup(ladder) for ladder in ladders),
        cover=CoverFamily(_padded_size(n) - 1, len(ladders)),
    )


@pytest.mark.parametrize("case", ["lattice", "continuous", "some-blocks", "edges"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_encoded_access_blocks_match_an_unblocked_reference(case, d, n):
    ladders, x = ladders_and_points(case, n, d, np.random.default_rng(10 * n + d))
    plan = ladder_plan(ladders)
    cover = plan.cover
    access = plan.encode(lambda n, rng: x)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    codes = access(n, ours)
    gaps = np.empty((n, d), dtype=np.int64)
    for j, ladder in enumerate(ladders):
        gap = reference_positions(ladder, x[:, j], theirs) - 1
        gap[gap > cover.m - 1] = -1
        gaps[:, j] = gap
    assert np.array_equal(codes, reference_codes(cover, gaps, theirs))
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_int32_draws_are_the_int64_stream(n, pending):
    # The tester draws cover levels, lattice points and tie slots as int32.
    # numpy spends one 32-bit word per try on a bound below 2^32 whatever
    # the output dtype, so the values and the generator state must equal
    # those of the int64 draw, also with a half word pending.
    ties = np.random.default_rng(n).integers(1, 9, size=n)
    draws = [
        lambda rng, dtype: rng.integers(1, 12, size=(n, 2), dtype=dtype),
        lambda rng, dtype: rng.integers(0, 32, size=(n, 2), dtype=dtype),
        lambda rng, dtype: rng.integers(0, ties.astype(dtype), dtype=dtype),
    ]
    for draw in draws:
        narrow, wide = np.random.default_rng(7), np.random.default_rng(7)
        if pending:  # three 32-bit words leave half of a 64-bit output
            for rng in (narrow, wide):
                rng.integers(0, 5, size=3)
            assert narrow.bit_generator.state["has_uint32"] == 1
        values = draw(narrow, np.int32)
        assert values.dtype == np.int32
        assert np.array_equal(values, draw(wide, np.int64))
        assert narrow.bit_generator.state == wide.bit_generator.state


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("high", [11, 2**31 + 1])
def test_bounded_int32_is_numpys_array_bound_draw(bit_generator, pending, high):
    # Bounds up to 2^31 reject up to a third of the words; bounds of 2 to
    # 10 hardly ever do. Values, and the generator's next draws, must equal
    # numpy's whole-array call, also with a half word pending, for empty
    # draws, and for calls split into chunks.
    for seed in range(4):
        bounds = np.random.default_rng(seed).integers(2, high, size=2000, dtype=np.uint64)
        ours, theirs = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if pending:  # three 32-bit words leave half of a 64-bit output
            for rng in (ours, theirs):
                rng.integers(0, 5, size=3)
        chunks = np.split(bounds, [0, 1, 700, 700, 1999])
        drawn = np.concatenate([_bounded_int32(ours, chunk) for chunk in chunks])
        assert drawn.dtype == np.int32
        assert np.array_equal(drawn, theirs.integers(0, bounds, dtype=np.int32))
        assert np.array_equal(ours.integers(0, 2**63, size=5), theirs.integers(0, 2**63, size=5))
        assert ours.random() == theirs.random()


def test_bounded_int32_rejects_like_numpy():
    # 2^31 - 2^29 + 1 rejects a word with probability about 1/4 ...
    bounds = np.full(3000, 2**31 - 2**29 + 1, dtype=np.uint64)
    ours, theirs = np.random.default_rng(1), np.random.default_rng(1)
    assert np.array_equal(_bounded_int32(ours, bounds), theirs.integers(0, bounds, dtype=np.int32))
    assert ours.bit_generator.state == theirs.bit_generator.state
    # ... and so the words drawn exceed the bounds by the rejections
    words = np.random.default_rng(1).integers(0, 2**32, size=3000, dtype=np.uint32)
    low = (words * bounds) & 0xFFFFFFFF
    assert (low < (2**32 - bounds) % bounds).sum() > 500
    empty = np.random.default_rng(1)
    assert _bounded_int32(empty, bounds[:0]).shape == (0,)
    assert empty.bit_generator.state == np.random.default_rng(1).bit_generator.state


@pytest.mark.parametrize(
    "family, k, bound", [("hist-equal", 16, 36), ("uniform-equal", 8, 32)]
)
def test_fresh_draw_peak_bytes_per_sample(family, k, bound):
    # One count of fresh encoded samples: points, int32 gaps and levels,
    # int32 codes and their sorted copy, never all at once; the tie slots
    # are drawn one block at a time, with no full-length bounds.
    rng = np.random.default_rng((202, 0))
    instance = make_instance(family, k, 1.0, rng)
    batch = instance.p_access(279, rng)
    access = ladder_plan(batch.T).encode(instance.p_access)
    n = 1 << 19
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _draw_counts(access, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / n <= bound


@pytest.mark.parametrize("k", [2, 16, 128])
def test_choice_index_is_rng_choice(k):
    rng = np.random.default_rng(k)
    masses = rng.dirichlet(np.ones(k))
    masses[::3] = 0.0  # zero masses, the first one included, tie in the cdf
    masses /= masses.sum()
    index = _choice_index(masses)
    for n in BLOCK_EDGES:
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        drawn = index(ours.random(n))
        assert np.array_equal(drawn, theirs.choice(k, size=n, p=masses))
        assert drawn.dtype == np.int64
        assert ours.bit_generator.state == theirs.bit_generator.state
    # choice's own formula on uniforms that hit the cdf exactly, where a
    # zero mass must never be drawn
    cdf = masses.cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0)])
    u = u[u < 1.0]  # rng.random draws from [0, 1)
    assert np.array_equal(index(u), cdf.searchsorted(u, side="right"))
    assert masses[index(u)].all()


# Trial 0 of each benchmark cell, drawn with the acceptance gate's generators:
# family, k, budget multiplier, gate seed, then statistic and threshold (hex),
# samples_used, batch_size and the Z of each repeat. Any change to the RNG
# stream of the families or the tester moves these. Each trial stops after two
# agreeing repeats; their Z are the first two that three repeats would draw.
GATE_PINS = [
    ("uniform-equal", 8, 1.0, 201, "0x1.c7b0000000000p+13", "0x1.f716a4800ca47p+15", 1169249, 88, (14582, -6518)),
    ("hist-equal", 16, 1.0, 202, "-0x1.29e0000000000p+13", "0x1.54c9241060290p+16", 2838512, 279, (-9532, -12734)),
    ("hist-far", 16, 4.0, 204, "0x1.f174000000000p+15", "0x1.2549ec72db79ep+14", 332609, 1043, (63674, 70166)),
]


@pytest.mark.parametrize("pin", GATE_PINS, ids=[pin[0] for pin in GATE_PINS])
def test_gate_streams_are_pinned(pin):
    family, k, multiplier, seed, statistic, threshold, samples, batch, z_values = pin
    rng = np.random.default_rng((seed, 0))
    instance = make_instance(family, k, 1.0, rng)
    config = TesterConfig.practical(k, 2, 1.0, budget_multiplier=multiplier)
    result = ak_closeness_test(instance.p_access, instance.q_access, config, rng)
    assert result.statistic.hex() == statistic
    assert result.threshold.hex() == threshold
    assert (result.samples_used, result.batch_size) == (samples, batch)
    assert result.z_values == z_values


def recorded(fn, results):
    """fn, appending each of its results to ``results``."""

    def wrapped(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    return wrapped


@pytest.mark.parametrize("pin", GATE_PINS, ids=[pin[0] for pin in GATE_PINS])
def test_stages_compose_to_the_tester(pin):
    # prepare, then the flattening test on the plan's two encoded accesses,
    # is the tester bit for bit, generator state included; samples_used is
    # the batch plus the flattening multiset plus the l2 draws
    family, k, multiplier, seed = pin[:4]
    config = TesterConfig.practical(k, 2, 1.0, budget_multiplier=multiplier)
    rng, staged = np.random.default_rng((seed, 0)), np.random.default_rng((seed, 0))
    instance = make_instance(family, k, 1.0, rng)
    result = ak_closeness_test(instance.p_access, instance.q_access, config, rng)
    instance = make_instance(family, k, 1.0, staged)
    splits, l2_verdicts = [], []
    with pytest.MonkeyPatch.context() as patch:
        for name, out in [("build_split_map", splits), ("robust_l2_test", l2_verdicts)]:
            patch.setattr(aktest.flatten, name, recorded(getattr(aktest.flatten, name), out))
        plan = prepare(instance.p_access, instance.q_access, config, staged)
        p_codes, q_codes = plan.encode(instance.p_access), plan.encode(instance.q_access)
        verdict = flatten_closeness(p_codes, q_codes, plan.s, math.sqrt(plan.kappa), staged)
    assert rng.bit_generator.state == staged.bit_generator.state
    assert (result.accept, result.statistic, result.threshold, result.z_values) == (
        verdict.accept,
        verdict.statistic,
        verdict.threshold,
        verdict.z_values,
    )
    assert (result.budget, result.kappa, result.flatten_sets) == (plan.m, plan.kappa, plan.s)
    assert (result.batch_size, result.grid_values) == (plan.batch_size, plan.cover.m + 1)
    [split], [l2] = splits, l2_verdicts
    assert result.samples_used == plan.batch_size + split.flattening_size + l2.samples_used
    assert result.samples_used == plan.batch_size + verdict.samples_used


def test_prepare_refuses_before_any_fresh_draw():
    # paper-mode consistency and _BATCH_CAP refuse before the batch draw, an
    # empty batch right after it, so no refusal follows a fresh encoded draw
    calls = []

    def access(n, rng):
        calls.append(n)
        return rng.random((n, 1))

    for config, match in [
        (TesterConfig.paper(8, 1, 1.0), "consistency"),
        (cheap_config(budget_multiplier=1e9), "_BATCH_CAP"),
    ]:
        with pytest.raises(InvalidInput, match=match):
            prepare(access, access, config, np.random.default_rng(0))
    assert calls == []
    config = TesterConfig(k=2, d=1, eps=2.0, c_kappa=1e4)  # Poi(1) per side
    for seed in range(200):
        calls.clear()
        try:
            prepare(access, access, config, np.random.default_rng(seed))
        except InvalidInput as err:
            assert "empty" in str(err)
            assert calls == [0, 0]  # the two batch draws, and nothing else
            return
    pytest.fail("no seed produced an empty mixture batch")


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["uniform-equal", "hist-equal", "hist-far"]),
    st.sampled_from([4, 8]),
    st.sampled_from([4.0, 6.0, 8.0, 16.0]),
)
def test_early_stop_keeps_the_three_repeat_verdict(seed, family, k, multiplier):
    config = TesterConfig.practical(k, 2, 1.0, budget_multiplier=multiplier)

    def run():
        rng = np.random.default_rng(seed)
        instance = make_instance(family, k, 1.0, rng)
        return ak_closeness_test(instance.p_access, instance.q_access, config, rng)

    result = run()
    draws = []
    with pytest.MonkeyPatch.context() as patch:
        reference_l2 = functools.partial(three_repeat_l2_test, draws=draws)
        patch.setattr(aktest.flatten, "robust_l2_test", reference_l2)
        reference = run()
    check_early_stop(result, reference, draws)
    assert (result.budget, result.batch_size, result.kappa) == (
        reference.budget,
        reference.batch_size,
        reference.kappa,
    )


def test_ladder_lookup_rejects_bad_ladders():
    for ladder in ([], [[1.0, 2.0]], [0.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(InvalidInput, match="ladder"):
            LadderLookup(np.array(ladder))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_batch_coordinates_are_rejected(bad):
    def access(n, rng):
        pts = rng.random((n, 2))
        pts[: min(n, 1), 1] = bad
        return pts

    config = cheap_config(k=4, d=2)
    with pytest.raises(InvalidInput, match="non-finite"):
        ak_closeness_test(access, uniform_access(2), config, np.random.default_rng(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_fresh_coordinates_are_rejected(bad):
    def finite_only_in_the_batch():
        calls = []

        def access(n, rng):
            pts = rng.random((n, 2))
            if calls:  # every draw after the batch
                pts[: min(n, 1), 0] = bad
            calls.append(n)
            return pts

        return access

    config = cheap_config(k=4, d=2)
    with pytest.raises(InvalidInput, match="non-finite"):
        ak_closeness_test(
            finite_only_in_the_batch(),
            finite_only_in_the_batch(),
            config,
            np.random.default_rng(5),
        )
