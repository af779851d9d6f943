"""The end-to-end A_k closeness tester and its two reduction front-ends.

Pipeline: ``prepare`` -> ``flatten_closeness`` -> ``robust_l2_test``.
``prepare`` draws a Poissonized batch from the even mixture of the two
accesses and plans the run: the batch's rank ladders (with padding, the
integer ladder 1..2^a + 1) and the dyadic cover of that grid. The plan's
``encode`` maps fresh samples to induced cover-rectangle codes; the
flattening test splits the coded pair by a mixture multiset and runs the
l2 collision test on the split pair, at accuracy sqrt(kappa) overall.

Everything after the batch draw consumes only comparisons against batch
coordinates, so strictly monotone per-axis transforms of all inputs leave
the verdict bit-for-bit unchanged for a fixed seed.

Per fresh sample of a d-dimensional test, the full-length arrays are:

- the points, (n, d) float64, 8d bytes, freed after the last axis lookup;
- the (n, d) int32 gap matrix, 4d bytes: rank counts plus tie slots;
- the (n, d) int32 cover levels, 4d bytes;
- the (n,) codes, 4 bytes (int32 up to 31 code bits, else int64), and
  their sorted copy in the count stage, which splits the distinct codes.

Every int32 draw is the int64 draw's stream: numpy draws a bound below
2^32 with one 32-bit word per try whatever the output dtype. A batch of at
most ``_BATCH_CAP`` points keeps every rank, gap and gap + m below 2^31.
The stream does not depend on blocking: the points and the cover levels
are one whole-array call each, and the tie slots, drawn block by block,
continue numpy's array-bound draw as one whole-array call would. The
deterministic work (rank-table lookup, exact compares, code arithmetic)
runs over blocks of ``_BLOCK`` samples, whose temporaries stay in a core's
L2 cache; only the shift from rank positions to gaps is one in-place pass
over each gap column. The cover alone marks gaps outside its span empty.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .covering import _BLOCK, CoverFamily
from .errors import InvalidInput
from .flatten import SampleAccess, TestVerdict, flatten_closeness

PointAccess = Callable[[int, np.random.Generator], np.ndarray]

_PRACTICAL_PROFILE = {"c_kappa": 0.015, "s_multiplier": 1000.0}  # calibrated
_BUDGET_CAP = 1 << 40
_BATCH_CAP = 1 << 30  # largest batch: ranks, gaps and gap + m stay int32
_ALPHA_CONST = 1.0  # paper-mode exponent alpha = _ALPHA_CONST d^2 2^(2^(d+1))
_CONSISTENCY_CONST = 1.0  # C in the budget/kappa consistency condition


@dataclass(frozen=True)
class TesterConfig:
    """Instance parameters plus the constants profile of one test run.

    In paper mode the accuracy exponent alpha defaults to d^2 * 2^(2^(d+1))
    and the budget/kappa consistency condition is enforced (it fails for
    every desk-scale input; paper mode is for formula inspection unless
    alpha is overridden). Practical mode starts from the calibrated
    constants in _PRACTICAL_PROFILE.
    """

    k: int
    d: int
    eps: float
    mode: str = "practical"
    c_kappa: float = 1.0
    alpha: float | None = None
    s_multiplier: float = 1.0
    budget_multiplier: float = 1.0

    def __post_init__(self):
        for name in ("k", "d", "eps"):  # True is an int, but no k, d or eps
            if isinstance(getattr(self, name), bool):
                raise InvalidInput(f"{name} must be a number, got a bool")
        if not isinstance(self.k, numbers.Integral) or self.k < 2:
            raise InvalidInput(f"k must be an integer >= 2, got {self.k}")
        if not isinstance(self.d, numbers.Integral) or self.d < 1:
            raise InvalidInput(f"d must be an integer >= 1, got {self.d}")
        if not (isinstance(self.eps, numbers.Real) and 0 < self.eps <= 2):
            raise InvalidInput(f"eps must be in (0, 2], got {self.eps}")
        # numpy scalars in, Python numbers stored
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "eps", float(self.eps))
        if self.mode not in ("paper", "practical"):
            raise InvalidInput(f"mode must be paper or practical, got {self.mode!r}")
        for name in sorted(_CONSTANT_KEYS):
            v = getattr(self, name)
            if name == "alpha" and v is None:
                continue  # the mode's default exponent
            if not (math.isfinite(v) and v > 0):
                raise InvalidInput(f"{name} must be a positive real, got {v}")

    @property
    def alpha_d(self) -> float:
        """The accuracy exponent in effect."""
        if self.alpha is not None:
            return self.alpha
        if self.mode == "practical":
            return 1.0
        try:
            tower = math.ldexp(1.0, 2 ** (self.d + 1))
        except OverflowError:
            raise InvalidInput(
                f"default exponent exceeds float range at d={self.d}; "
                "pass an explicit alpha"
            ) from None
        return _ALPHA_CONST * self.d * self.d * tower

    @classmethod
    def paper(cls, k: int, d: int, eps: float, **overrides) -> "TesterConfig":
        return cls(k=k, d=d, eps=eps, mode="paper", **overrides)

    @classmethod
    def practical(cls, k: int, d: int, eps: float, **overrides) -> "TesterConfig":
        profile = {**_PRACTICAL_PROFILE, **overrides}
        return cls(k=k, d=d, eps=eps, mode="practical", **profile)


_CONSTANT_KEYS = {f.name for f in fields(TesterConfig)} - {"k", "d", "eps", "mode"}


@dataclass(frozen=True)
class AkTestResult(TestVerdict):
    """Verdict plus the run's derived quantities.

    samples_used counts every point drawn from the two accesses (batch,
    flattening, and the l2 draws of the repeats that ran).
    """

    kappa: float
    budget: int
    batch_size: int
    grid_values: int
    flatten_sets: int


def sample_budget(config: TesterConfig) -> int:
    """Batch size m = ceil(C' k^(6/7) eps^(-2a/3) (log2 k)^d 2^(d/3)),
    with C' the budget_multiplier."""
    a = config.alpha_d
    value = (
        config.budget_multiplier
        * config.k ** (6.0 / 7.0)
        * config.eps ** (-2.0 * a / 3.0)
        * math.log2(config.k) ** config.d
        * 2.0 ** (config.d / 3.0)
    )
    if not math.isfinite(value) or value > _BUDGET_CAP:
        raise InvalidInput(
            f"sample budget {value:.3g} is not usable; lower alpha or the "
            "constants (paper-mode exponents are astronomical by design)"
        )
    return max(1, math.ceil(value))


def kappa(config: TesterConfig, m: int) -> float:
    """Accuracy target kappa = c 2^(-d) (log2 k)^(-3d) (eps/4)^(2a) m^2/k^3."""
    if m < 1:
        raise InvalidInput(f"budget m must be >= 1, got {m}")
    a = config.alpha_d
    return (
        config.c_kappa
        * 2.0 ** (-config.d)
        * math.log2(config.k) ** (-3.0 * config.d)
        * (config.eps / 4.0) ** (2.0 * a)
        * float(m)
        * float(m)
        / float(config.k) ** 3
    )


def consistency_satisfied(config: TesterConfig, m: int, kap: float) -> bool:
    """Whether m >= C max(kappa^(-2/3), kappa^(-1)/sqrt(k)) holds."""
    if kap <= 0:
        return False
    bound = _CONSISTENCY_CONST * max(
        kap ** (-2.0 / 3.0), 1.0 / (kap * math.sqrt(config.k))
    )
    return m >= bound


def flatten_set_count(config: TesterConfig, m: int) -> int:
    """Light-element parameter s = ceil(k (log2 m)^d), with its multiplier."""
    if m < 1:
        raise InvalidInput(f"budget m must be >= 1, got {m}")
    return max(
        1, math.ceil(config.s_multiplier * config.k * math.log2(m) ** config.d)
    )


def _padded_size(n: int) -> int:
    """Smallest (power of two) + 1 that is >= max(3, n)."""
    return 1 + (1 << (max(n, 3) - 2).bit_length())


class LadderLookup:
    """Exact rank lookup of query values against one axis of the batch.

    ``_count(x)`` gives per query the number of ladder values strictly
    below it, exactly what ``searchsorted`` left gives, including for +-inf
    queries, and finds the queries equal to a ladder value on the way.
    NaN has no rank and must be rejected by the caller.

    A monotone function of the value hashes the distinct ladder values
    into 16 buckets per value: values in an earlier bucket are below the
    query, values in a later one above it. ``rank[b]`` counts the ladder
    values below bucket b, or is -1 if b holds one; only queries reading
    -1 compare exactly, with at most ``depth`` values from ``start[b]``,
    and only they can tie. Too uneven a spread for small buckets falls
    back to one binary search over the distinct values.
    """

    _MAX_DEPTH = 8  # most distinct values one bucket may hold
    _MAX_BUCKETS = 1 << 16  # bounds the two tables at 12 * 2^16 bytes

    def __init__(self, ladder):
        ladder = np.asarray(ladder, dtype=float)
        if ladder.ndim != 1 or not len(ladder) or not np.isfinite(ladder).all():
            raise InvalidInput("a ladder is a non-empty 1-d array of finite values")
        values, left, ties = np.unique(
            np.sort(ladder), return_index=True, return_counts=True
        )
        # One entry past the top value: NaN, which no query passes or equals.
        self._values = np.append(values, np.nan)
        self._left = np.append(left, len(ladder)).astype(np.int32)
        self._slots = (ties + 1).astype(np.int32)  # a tied query's slot count
        self._rank = None
        buckets = min(1 << (16 * len(values)).bit_length(), self._MAX_BUCKETS)
        lo = values[0]
        with np.errstate(over="ignore", divide="ignore"):
            scale = buckets / (values[-1] - lo)
        if not 0.0 < scale < math.inf:  # one distinct value, or a span past float
            return
        bucket = np.minimum(((values - lo) * scale).astype(np.intp), buckets - 1)
        counts = np.bincount(bucket, minlength=buckets).astype(np.int32)
        self._depth = int(counts.max())
        if self._depth > self._MAX_DEPTH:
            return
        self._start = np.cumsum(counts, dtype=np.intp) - counts  # values below b
        self._rank = np.where(counts > 0, -1, self._left[self._start])
        self._lo, self._scale, self._top = lo, scale, buckets - 1

    def _count(self, x: np.ndarray, out: np.ndarray | None = None):
        """int32 counts of ladder values < x, into ``out`` if given; the
        queries compared exactly; their value indices."""
        if out is None:
            out = np.empty(len(x), dtype=np.int32)
        walk = slice(None)  # all queries, or those whose bucket holds a value
        if self._rank is None:
            i = np.searchsorted(self._values[:-1], x)
        else:
            with np.errstate(over="ignore"):  # an overflow to +-inf clips
                t = (x - self._lo) * self._scale
            np.clip(t, 0, self._top, out=t)
            i = t.astype(np.intp)  # the bucket, then the distinct value
            if 2 * np.count_nonzero(self._rank[i[:256]] < 0) <= len(i[:256]):
                np.take(self._rank, i, out=out, mode="clip")
                walk = np.flatnonzero(out < 0)  # most of the first 256 read a count
                i = i[walk]
            np.take(self._start, i, out=i, mode="clip")
            xw, v = x[walk], t[: len(i)]  # v: t's memory, for the value gathers
            for _ in range(self._depth):
                i += np.take(self._values, i, out=v, mode="clip") < xw
        out[walk] = np.take(self._left, i, mode="clip")
        return out, walk, i

    def positions(
        self, x: np.ndarray, rng: np.random.Generator, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rank positions: the strictly-smaller count plus a uniform draw
        over the ties, ``rng.integers(0, ties + 1)``, written into ``out``
        (an int32 array of len(x)) when one is given, else into a new one.

        A query tied with t ladder values lands in a uniform slot among the
        t + 1 around them: its rank under an independent infinitesimal
        jitter of every point. This continuous-jitter lift stands in for
        the paper's assumption that every coordinate has a continuous CDF.

        The counts and the slots are found one block of queries at a time.
        numpy draws nothing for a bound of 1, so only the queries with
        ties > 0 draw, and a block without ties draws nothing; numpy's
        array-bound draws, made block by block, continue the stream of one
        whole-array ``rng.integers(0, ties + 1, dtype=np.int32)`` call.
        """
        if out is None:
            out = np.empty(len(x), dtype=np.int32)
        for s in range(0, len(x), _BLOCK):
            block = slice(s, s + _BLOCK)
            _, walk, i = self._count(x[block], out[block])
            hit = np.flatnonzero(self._values[i] == x[block][walk])
            if len(hit):  # an empty array-bound draw still costs about 10 us
                at = hit if isinstance(walk, slice) else walk[hit]
                out[s + at] += rng.integers(0, self._slots[i[hit]], dtype=np.int32)
        return out


def _choice_index(masses) -> Callable[[np.ndarray], np.ndarray]:
    """Uniforms to indices, the map behind ``rng.choice(k, size=n, p=masses)``.

    numpy's choice draws ``u = rng.random(n)`` and returns
    ``cdf.searchsorted(u, side="right")``, with ``cdf = masses.cumsum()``
    divided by its last entry: the count of cdf values <= u, which is the
    count of their predecessors nextafter(c, -inf) < u. A LadderLookup of
    the predecessors gives it block by block, so ``index(rng.random(n))``
    is that choice bit for bit and leaves the generator in the same state.
    """
    cdf = np.asarray(masses, dtype=float).cumsum()
    cdf /= cdf[-1]
    lookup = LadderLookup(np.nextafter(cdf, -np.inf))

    def index(u: np.ndarray) -> np.ndarray:
        out = np.empty(len(u), dtype=np.int64)
        for s in range(0, len(u), _BLOCK):
            out[s : s + _BLOCK] = lookup._count(u[s : s + _BLOCK])[0]
        return out

    return index


def _draw(access: PointAccess, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n points from an access, checked to be an (n, d) array of finite values."""
    pts = np.asarray(access(n, rng), dtype=float)
    if pts.shape != (n, d):
        raise InvalidInput(f"access must return shape {(n, d)}, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidInput("access returned non-finite coordinates")
    return pts


@dataclass(frozen=True, eq=False)
class RunPlan:
    """The batch stage's hand-off: budget m, accuracy kappa, light-element
    count s, the batch size, one LadderLookup per batch axis and the cover
    of the padded grid. ``encode`` is the one reader of ladders and cover.
    """

    m: int
    kappa: float
    s: int
    batch_size: int
    lookups: tuple[LadderLookup, ...]
    cover: CoverFamily

    def encode(self, access: PointAccess) -> SampleAccess:
        """A point access as an access of induced cover-rectangle codes.

        A fresh coordinate's gap is its rank position among the batch
        values, the strictly-smaller count plus a uniform draw over its ties
        (LadderLookup.positions), minus one. The cover maps gap -1 (below
        the grid) and gaps past the padded ladder to the empty outcome.
        """
        d = self.cover.dim

        def codes(n: int, rng: np.random.Generator) -> np.ndarray:
            columns = np.ascontiguousarray(_draw(access, n, d, rng).T)
            gaps = np.empty((d, n), dtype=np.int32).T  # contiguous columns
            for j, lookup in enumerate(self.lookups):
                lookup.positions(columns[j], rng, out=gaps[:, j])
                gaps[:, j] -= 1
            del columns  # free the points before the level draw
            return self.cover.sample_ids_encoded(gaps, rng)

        return codes


def prepare(
    p_access: PointAccess,
    q_access: PointAccess,
    config: TesterConfig,
    rng: np.random.Generator,
) -> RunPlan:
    """The batch stage: budgets, a Poissonized mixture batch, its ladders.

    Every refusal (the paper-mode consistency condition, ``_BATCH_CAP``, an
    empty batch) is raised here, before any fresh sample is drawn.
    """
    m = sample_budget(config)
    kap = kappa(config, m)
    if config.mode == "paper" and not consistency_satisfied(config, m, kap):
        raise InvalidInput(
            "paper-mode consistency condition m >= C max(kappa^(-2/3), "
            f"kappa^(-1)/sqrt(k)) fails at m={m}, kappa={kap:.3g}; override "
            "alpha or the constants, or use practical mode"
        )
    d = config.d
    n_p = int(rng.poisson(m / 2.0))
    n_q = int(rng.poisson(m / 2.0))
    if n_p + n_q > _BATCH_CAP:
        raise InvalidInput(
            f"a batch of {n_p + n_q} points exceeds _BATCH_CAP = {_BATCH_CAP}; "
            "lower budget_multiplier or the constants"
        )
    batch = np.vstack([_draw(p_access, n_p, d, rng), _draw(q_access, n_q, d, rng)])
    if not len(batch):
        raise InvalidInput(
            "the mixture batch came back empty; the accesses produce no "
            "samples at this budget"
        )
    return RunPlan(
        m=m,
        kappa=kap,
        s=flatten_set_count(config, m),
        batch_size=len(batch),
        lookups=tuple(LadderLookup(column) for column in batch.T),
        cover=CoverFamily(_padded_size(len(batch)) - 1, d),
    )


def ak_closeness_test(
    p_access: PointAccess,
    q_access: PointAccess,
    config: TesterConfig,
    rng: np.random.Generator,
) -> AkTestResult:
    """Decide p = q versus A_k distance >= eps from sample access alone.

    Accepts with probability >= 2/3 when p = q; rejects with probability
    >= 2/3 when the A_k distance is at least eps (paper-mode guarantee;
    practical mode trades the guarantee's constants for desk-scale budgets
    and is validated empirically on planted families).
    """
    plan = prepare(p_access, q_access, config, rng)
    p_codes, q_codes = plan.encode(p_access), plan.encode(q_access)
    verdict = flatten_closeness(p_codes, q_codes, plan.s, math.sqrt(plan.kappa), rng)
    return AkTestResult(
        **vars(replace(verdict, samples_used=verdict.samples_used + plan.batch_size)),
        kappa=plan.kappa,
        budget=plan.m,
        batch_size=plan.batch_size,
        grid_values=plan.cover.m + 1,
        flatten_sets=plan.s,
    )


def tv_histogram_test(
    p_access: PointAccess,
    q_access: PointAccess,
    config: TesterConfig,
    rng: np.random.Generator,
) -> AkTestResult:
    """Total-variation closeness for k-histograms on a shared partition.

    When both distributions are piecewise constant over one unknown
    partition into k rectangles, d_TV = half the A_k distance, so testing
    at accuracy 2 eps_tv decides d_TV <= 0 versus >= eps_tv. config.eps is
    read as eps_tv. Values above 1 are vacuous for a total variation, but
    the delegate still runs at the capped accuracy 2.
    """
    inner = replace(config, eps=min(2.0 * config.eps, 2.0))
    return ak_closeness_test(p_access, q_access, inner, rng)


LabeledPointAccess = Callable[
    [int, np.random.Generator], tuple[np.ndarray, np.ndarray]
]


def _label_pushforward(h_access: LabeledPointAccess, d: int) -> PointAccess:
    sentinel = -1.0

    def access(n: int, rng: np.random.Generator) -> np.ndarray:
        x, labels = h_access(n, rng)
        x = np.asarray(x, dtype=float)
        labels = np.asarray(labels)
        if x.shape != (n, d) or labels.shape != (n,):
            raise InvalidInput(
                f"labeled access must return ((n, {d}), (n,)) arrays, got "
                f"{x.shape} and {labels.shape}"
            )
        return np.where(labels[:, None].astype(bool), x, sentinel)

    return access


def hypothesis_equivalence_test(
    h1_access: LabeledPointAccess,
    h2_access: LabeledPointAccess,
    config: TesterConfig,
    rng: np.random.Generator,
) -> AkTestResult:
    """Equivalence of two k-rectangle-union hypotheses from labeled draws.

    Each access yields (x, label) with x uniform on the cube; positive
    points pass through, negative ones collapse to the sentinel at
    (-1, ..., -1). Disagreement mass eps between the hypotheses leaves an
    A_k gap of at least eps/2 between the pushforwards, so the delegate
    runs at accuracy config.eps / 2.
    """
    inner = replace(config, eps=config.eps / 2.0)
    return ak_closeness_test(
        _label_pushforward(h1_access, config.d),
        _label_pushforward(h2_access, config.d),
        inner,
        rng,
    )
