"""Lower-bound machinery: edge gadgets, order tuples, hard instances, maps.

The basic gadget is a 45-degree square (diamond) with vertices at
center +- radius * e1 and center +- radius * e2. Variant T is uniform on
the upper-left and lower-right edges, variant R on the lower-left and
upper-right edges, MIX on all four. For any point a on the diamond, T and
R put exactly equal mass on each open quadrant at a, which is what makes
pairs built from them hard to tell apart from few samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .distributions import DiscreteGridDistribution
from .errors import InvalidInput
from .geometry import AxisRectangle
from .tester import _choice_index

VARIANT_T = "T"
VARIANT_R = "R"
VARIANT_MIX = "MIX"
# A variant's position here is its code in _gadget_points.
_VARIANTS = (VARIANT_T, VARIANT_R, VARIANT_MIX)

_EDGE_NAMES = ("UL", "LR", "LL", "UR")
# Unit offsets of each edge's endpoints from the center: UL runs from the
# left vertex to the top vertex, and so on; every edge is traversed with
# increasing x.
_DIR_A = np.array([(-1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0)])
_DIR_B = np.array([(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (1.0, 0.0)])

_VARIANT_EDGES = {
    VARIANT_T: (0, 1),
    VARIANT_R: (2, 3),
    VARIANT_MIX: (0, 1, 2, 3),
}

_ON_SUPPORT_TOL = 1e-9

# Quadrant sign conventions at a base point: 1 = {x > ax, y > ay},
# 2 = {x < ax, y < ay}, 3 = {x > ax, y < ay}, 4 = {x < ax, y > ay}.
_QUADRANT_SIGNS = {1: (1, 1), 2: (-1, -1), 3: (1, -1), 4: (-1, 1)}


@dataclass(frozen=True)
class SquareEdgeGadget:
    """Uniform measure on two or four edges of a diamond."""

    center: tuple[float, float]
    radius: float
    variant: str

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidInput(f"radius must be positive, got {self.radius}")
        if self.variant not in _VARIANT_EDGES:
            raise InvalidInput(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    def edges(self) -> list[tuple[str, tuple[float, float], tuple[float, float], float]]:
        """(name, start, end, weight) per edge of this variant."""
        cx, cy = self.center
        out = []
        idxs = _VARIANT_EDGES[self.variant]
        w = 1.0 / len(idxs)
        for e in idxs:
            ax, ay = _DIR_A[e]
            bx, by = _DIR_B[e]
            out.append(
                (
                    _EDGE_NAMES[e],
                    (cx + self.radius * ax, cy + self.radius * ay),
                    (cx + self.radius * bx, cy + self.radius * by),
                    w,
                )
            )
        return out

    def on_support(self, a: Sequence[float]) -> bool:
        dx = abs(float(a[0]) - self.center[0])
        dy = abs(float(a[1]) - self.center[1])
        return abs(dx + dy - self.radius) <= _ON_SUPPORT_TOL * max(1.0, self.radius)

    def rect_mass(self, rect: AxisRectangle) -> float:
        """Exact mass inside a closed rectangle (arc-length fractions).

        Edges are never axis-parallel, so open and closed boundaries give
        the same measure.
        """
        if rect.dim != 2:
            raise InvalidInput("gadgets live in the plane")
        total = 0.0
        for _, a, b, w in self.edges():
            total += w * _edge_fraction_in_rect(a, b, rect)
        return total

    def quadrant_mass(self, a: Sequence[float], quadrant: int) -> float:
        """Exact mass of one open quadrant at a point a on the support."""
        if quadrant not in _QUADRANT_SIGNS:
            raise InvalidInput(f"quadrant must be 1..4, got {quadrant}")
        if not self.on_support(a):
            raise InvalidInput(f"point {tuple(a)} is not on the gadget support")
        sx, sy = _QUADRANT_SIGNS[quadrant]
        ax, ay = float(a[0]), float(a[1])
        inf = math.inf
        lo = (ax if sx > 0 else -inf, ay if sy > 0 else -inf)
        hi = (inf if sx > 0 else ax, inf if sy > 0 else ay)
        return self.rect_mass(AxisRectangle(lo, hi))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n iid points, shape (n, 2)."""
        edge = _gadget_edges(np.full(n, _VARIANTS.index(self.variant)), rng)
        return _gadget_points(self.center, self.radius, edge, rng.random(n))


def _edge_fraction_in_rect(
    a: tuple[float, float], b: tuple[float, float], rect: AxisRectangle
) -> float:
    u_lo, u_hi = 0.0, 1.0
    for j in range(2):
        c0, dc = a[j], b[j] - a[j]
        lo, hi = rect.lo[j], rect.hi[j]
        if dc == 0.0:
            if not lo <= c0 <= hi:
                return 0.0
            continue
        t1, t2 = (lo - c0) / dc, (hi - c0) / dc
        if dc < 0:
            t1, t2 = t2, t1
        u_lo = max(u_lo, t1)
        u_hi = min(u_hi, t2)
    return max(0.0, u_hi - u_lo)


def _gadget_edges(
    codes: np.ndarray, rng: np.random.Generator, comp: np.ndarray | None = None
) -> np.ndarray:
    """Each point's row in the (center, edge) tables of _gadget_points.

    codes: each point's variant as its index in _VARIANTS; comp: each
    point's center, when there are several. Two fair-bit draws of size n
    are consumed regardless of the variant mix, keeping the stream shape
    data-independent: the coin picks the edge within a pair, and the
    second bit picks MIX's pair. The edge index is 2 (variant, or that bit
    for MIX) + coin [+ 4 comp], stored in the narrowest integer type that
    holds it.
    """
    top = 3 if comp is None else 4 * int(comp.max(initial=0)) + 3
    widths = (np.int8, np.int16, np.int32, np.int64)
    dtype = next(t for t in widths if top <= np.iinfo(t).max)
    coin = _fair_bits(len(codes), rng, dtype)
    edge = _fair_bits(len(codes), rng, dtype)  # the MIX variant's edge-pair bit
    np.copyto(edge, codes, where=codes != 2)
    edge *= 2
    edge += coin
    if comp is not None:
        edge += 4 * comp
    return edge


def _fair_bits(n: int, rng: np.random.Generator, dtype) -> np.ndarray:
    """rng.integers(2, size=n) stored as dtype, drawn _TUPLE_BLOCK values
    at a time as int32: numpy spends one 32-bit word per value below 2^32
    whatever the output dtype, so the values and the stream are those of
    the single int64 draw."""
    out = np.empty(n, dtype=dtype)
    for start in range(0, n, _TUPLE_BLOCK):
        block = out[start : start + _TUPLE_BLOCK]
        block[:] = rng.integers(2, size=len(block), dtype=np.int32)
    return out


def _gadget_points(
    centers, radius: float, edge: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Gadget points from their _gadget_edges rows and positions u in [0, 1).

    centers is one center, or a (c, 2) array of them that the edge rows
    index. Nothing is drawn here, so a caller may map the points of one
    _gadget_edges call in blocks, drawing each block's u as it goes:
    rng.random spends one 64-bit word per value, so consecutive block
    draws concatenate to the single draw of the whole.

    A point is a + u * (b - a) on its edge [a, b]; a and b - a are tabled
    once per (center, edge) and gathered per point. u's buffer is reused
    for the second gather.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 1, 2)
    a = (centers + radius * _DIR_A).reshape(-1, 2)
    span = (centers + radius * _DIR_B).reshape(-1, 2) - a
    out = np.take(span, edge, axis=0)
    out *= u[:, None]
    for j in range(2):
        # u is spent, so its buffer takes the gathered offsets. edge is in
        # range by construction; mode="clip" only avoids the temporary copy
        # that mode="raise" makes of an out= array.
        out[:, j] += np.take(a[:, j], edge, out=u, mode="clip")
    return out


# ---- order tuples ----------------------------------------------------------


# Both order-tuple worlds draw from the diamond inscribed in the unit square
# and label each point P or Q by a fair coin. The yes world draws every point
# from the even mixture; the no world flips one coin per tuple and gives
# variant T to one label and R to the other.
_TUPLE_CENTER = (0.5, 0.5)
_TUPLE_RADIUS = 0.5
_TUPLE_BLOCK = 1 << 15  # tuples per sampled block; also values per fair-bit draw


def order_tuple_laws(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Exact order-tuple laws of the yes and no worlds: the sorted
    _encode_tuples codes of each support, with int64 weights.

    Edges have slope +-1 and equal spans on both axes, so with u a point's
    position along its edge, x = ax + u and y is u, u - 1, -u or 1 - u (in
    radius units). Comparing two points is then u_i < u_j, u_i + u_j < 1 or
    a constant, so the order tuple is constant on each of the m! 2^m
    equal-volume cells of the arrangement of {u_i, 1 - u_i}.
    """
    if not 1 <= m <= 4:  # m = 5 would enumerate about 8 * 10^6 configurations
        raise InvalidInput(f"exact laws need m in 1..4, got {m}")
    # A cell fixes the order of the |u_i - 1/2| and each u_i's side of 1/2.
    perms = np.array(list(itertools.permutations(range(1, m + 1))))
    signs = np.array(list(itertools.product((-1, 1), repeat=m)))
    u = 0.5 + (perms[:, None] * signs[None]).reshape(-1, m) / (2 * (m + 1))
    a = np.add(_TUPLE_CENTER, _TUPLE_RADIUS * _DIR_A)
    span = np.add(_TUPLE_CENTER, _TUPLE_RADIUS * _DIR_B) - a

    def law(edges: np.ndarray, labels: np.ndarray):
        pts = a[edges][:, None] + span[edges][:, None] * u[None, :, :, None]
        codes = _encode_tuples(pts.reshape(-1, m, 2), np.repeat(labels, len(u), 0), m)
        return np.unique(codes, return_counts=True)

    # Yes world: labels are independent of the points, so they are added
    # to the label-free codes instead of being enumerated.
    edges = np.array(list(itertools.product(range(4), repeat=m)))
    order, counts = law(edges, np.zeros_like(edges))
    yes = ((order[:, None] + np.arange(1 << m)).ravel(), np.repeat(counts, 1 << m))
    # No world: orientation bit, m labels, m edge-within-variant bits.
    flags = np.array(list(itertools.product((0, 1), repeat=2 * m + 1)))
    orient, labels, bits = flags[:, :1], flags[:, 1 : m + 1], flags[:, m + 1 :]
    return yes, law(bits + 2 * (labels ^ orient), labels)


def order_tuple_distribution_distance(
    m: int, laws: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None
) -> Fraction:
    """Exact TV between the two worlds' order-tuple laws: the paper's claim
    is 0 for m <= 3 samples and 15/64 at m = 4. laws, when given, are
    order_tuple_laws(m), already built by the caller."""
    if laws is None:
        laws = order_tuple_laws(m)
    (y_codes, y_counts), (n_codes, n_counts) = laws
    y_total, n_total = int(y_counts.sum()), int(n_counts.sum())
    codes, inverse = np.unique(np.concatenate([y_codes, n_codes]), return_inverse=True)
    diff = np.zeros(len(codes), dtype=np.int64)
    np.add.at(diff, inverse, np.concatenate([y_counts * n_total, -n_counts * y_total]))
    return Fraction(int(np.abs(diff).sum()), 2 * y_total * n_total)


def sample_order_tuple_cells(
    m: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """_encode_tuples codes of `trials` sampled tuples from each world.

    Per world, the labels and the gadget edges are drawn whole and stored
    as int8; the points are then drawn, mapped and encoded _TUPLE_BLOCK
    tuples at a time. Every draw is a fixed-size run of one kind (fair
    bits at one 32-bit word each, uniforms at one 64-bit word each), so
    the blocks consume the stream exactly as whole-array draws would, and
    memory stays about 40 bytes per tuple.
    """
    if not 1 <= m <= 8:
        raise InvalidInput(f"tuple size m must be in 1..8, got {m}")
    if trials < 1000:
        raise InvalidInput("need at least 1000 trials for a stable estimate")

    def world(codes: np.ndarray, labels: np.ndarray) -> np.ndarray:
        edge = _gadget_edges(codes, rng)
        cells = np.empty(trials, dtype=np.int64)
        for start in range(0, trials, _TUPLE_BLOCK):
            rows = slice(start, start + _TUPLE_BLOCK)
            block = edge[rows.start * m : rows.stop * m]
            u = rng.random(len(block))
            pts = _gadget_points(_TUPLE_CENTER, _TUPLE_RADIUS, block, u)
            cells[rows] = _encode_tuples(pts.reshape(-1, m, 2), labels[rows], m)
        return cells

    labels = _fair_bits(trials * m, rng, np.int8).reshape(trials, m)  # 0 = P, 1 = Q
    yes_cells = world(np.full(trials * m, 2, dtype=np.int8), labels)
    labels = _fair_bits(trials * m, rng, np.int8).reshape(trials, m)
    # orient 0: P draws T, Q draws R
    orient = _fair_bits(trials, rng, np.int8).reshape(trials, 1)
    return yes_cells, world((labels ^ orient).reshape(-1), labels)


def law_fit(
    cells: np.ndarray, law: tuple[np.ndarray, np.ndarray]
) -> tuple[float, int, int]:
    """Chi-square fit of sampled codes to a (sorted codes, counts) law.
    Returns the Wilson-Hilferty z of Pearson's X^2 over runs of adjacent
    codes pooled to expect five draws each, its degrees of freedom, and
    the number of draws outside the law's support."""
    codes, counts = law
    seen, seen_counts = np.unique(cells, return_counts=True)
    pos = np.minimum(np.searchsorted(codes, seen), len(codes) - 1)
    inside = codes[pos] == seen
    observed = np.bincount(pos[inside], seen_counts[inside], minlength=len(codes))
    expected = counts * (len(cells) / counts.sum())
    bins, b, acc = np.empty(len(codes), dtype=np.int64), 0, 0.0
    for i, e in enumerate(expected.tolist()):
        bins[i], acc = b, acc + e
        if acc >= 5.0:
            b, acc = b + 1, 0.0
    if acc and b:  # a short last bin joins the one before
        bins[bins == b] = b - 1
    exp_b = np.bincount(bins, weights=expected)
    x2 = float(((np.bincount(bins, weights=observed) - exp_b) ** 2 / exp_b).sum())
    df = len(exp_b) - 1
    h = 2.0 / (9.0 * df)
    z = ((x2 / df) ** (1.0 / 3.0) - (1.0 - h)) / math.sqrt(h)
    return z, df, int(seen_counts[~inside].sum())


def _encode_tuples(pts: np.ndarray, labels: np.ndarray, m: int) -> np.ndarray:
    """Encode (sigma_x, sigma_y, labels) of each tuple as one int64.

    sigma holds 0-based stable ranks: point i ranks above every earlier
    point with a coordinate <= its own and every later point with a
    smaller one, which is where a stable sort puts it.
    """
    code = np.zeros(pts.shape[0], dtype=np.int64)
    for cols in np.ascontiguousarray(pts.transpose(2, 1, 0)):  # [axis, t]
        for i, xi in enumerate(cols):
            code *= m
            for j, xj in enumerate(cols):
                if j < i:
                    code += xj <= xi
                elif j > i:
                    code += xj < xi
    for t in range(m):
        code *= 2
        code += labels[:, t]
    return code


# ---- hard instances --------------------------------------------------------


@dataclass(frozen=True)
class SquareSpec:
    """One diagonal square of a hard instance."""

    index: int
    heavy: bool
    p_variant: str
    q_variant: str
    mass: float  # per-side mass carried by this square


@dataclass(frozen=True)
class HardInstance:
    """A planted pair of edge-gadget measures on diagonal squares.

    Square i occupies [i/r, (i+1)/r]^2 with an inscribed diamond gadget.
    Heavy squares (probability m/k each, mass 1/m) carry the even mixture
    on both sides; light squares (mass eps/k) carry the even mixture on
    both sides in the equal case and opposite pure variants in the far
    case. Both sides always have identical total mass.
    """

    k: int
    m: int
    eps: float
    r: int
    equal_case: bool
    squares: tuple[SquareSpec, ...]

    @property
    def radius(self) -> float:
        return 0.5 / self.r

    def center(self, square: SquareSpec) -> tuple[float, float]:
        c = (square.index + 0.5) / self.r
        return (c, c)

    def gadget(self, square: SquareSpec, side: str) -> SquareEdgeGadget:
        variant = square.p_variant if side == "p" else square.q_variant
        return SquareEdgeGadget(self.center(square), self.radius, variant)

    @property
    def total_mass(self) -> float:
        return float(sum(sq.mass for sq in self.squares))

    def sampler(self, side: str):
        """A sample access drawing iid points from this side, normalized."""
        if side not in ("p", "q"):
            raise InvalidInput("side must be 'p' or 'q'")
        gadgets = [self.gadget(sq, side) for sq in self.squares]
        centers = np.array([g.center for g in gadgets])
        codes = np.array([_VARIANTS.index(g.variant) for g in gadgets])
        masses = np.array([sq.mass for sq in self.squares], dtype=float)
        square_of = _choice_index(masses / masses.sum())

        def access(n: int, rng: np.random.Generator) -> np.ndarray:
            comp = square_of(rng.random(n))
            edge = _gadget_edges(codes[comp], rng, comp)
            return _gadget_points(centers, self.radius, edge, rng.random(n))

        return access

    def ak_lower_bound(self) -> tuple[float, float, tuple[AxisRectangle, ...]]:
        """Certified A_k discrepancy: normalized, as summed, and its witness.

        Sums the exact per-quadrant one-sided discrepancies over the light
        squares (four sub-rectangles each, returned as the witness); the
        bound of the normalized pair divides that sum by the common total
        mass. The sum itself is the bound for the unnormalized measures of
        ``to_distributions``; compare that with an exact oracle, since
        multiplying the normalized bound back can round an ulp above it.
        Only as many squares as fit within k rectangles are counted, which
        keeps the bound valid for any k. Zero in the equal case.
        """
        oriented = [
            sq for sq in self.squares if not sq.heavy and sq.p_variant != sq.q_variant
        ]
        rects: list[AxisRectangle] = []
        total = 0.0
        for sq in oriented[: self.k // 4]:
            cx, cy = self.center(sq)
            gp = self.gadget(sq, "p")
            gq = self.gadget(sq, "q")
            for quadrant in (4, 1, 2, 3):  # UL, UR, LL, LR
                sx, sy = _QUADRANT_SIGNS[quadrant]
                xs = sorted((cx, cx + sx * self.radius))
                ys = sorted((cy, cy + sy * self.radius))
                box = AxisRectangle((xs[0], ys[0]), (xs[1], ys[1]))
                diff = abs(gp.rect_mass(box) - gq.rect_mass(box)) * sq.mass
                if diff > 0:
                    rects.append(box)
                    total += diff
        mass = self.total_mass
        bound = total / mass if mass > 0 else 0.0
        return bound, total, tuple(rects)

    def to_distributions(
        self, cells_per_square: int = 8
    ) -> tuple[DiscreteGridDistribution, DiscreteGridDistribution, dict]:
        """Exact lattice rounding to the discrete spec format.

        Each edge of each gadget is a 45-degree segment; on the per-square
        c x c sub-lattice (c even) it crosses exactly c/2 cells with equal
        arc mass, and each cell's mass moves to the cell's top-left vertex.
        This is an exact pushforward of the measure, not a sample.
        """
        c = int(cells_per_square)
        if c < 2 or c % 2:
            raise InvalidInput("cells_per_square must be an even number >= 2")
        denom = self.r * c
        half = c // 2
        atoms_p: dict[tuple[int, int], float] = {}
        atoms_q: dict[tuple[int, int], float] = {}
        for sq in self.squares:
            mid = sq.index * c + half  # lattice coordinate of the center, both axes
            for side, atoms in (("p", atoms_p), ("q", atoms_q)):
                edges = _VARIANT_EDGES[self.gadget(sq, side).variant]
                cell_mass = sq.mass * (1.0 / len(edges)) / half
                for e in edges:
                    x0, y0 = (int(v) for v in mid + half * _DIR_A[e])
                    rising = _DIR_B[e][1] > _DIR_A[e][1]
                    for t in range(half):
                        key = (x0 + t, y0 + t + 1 if rising else y0 - t)
                        atoms[key] = atoms.get(key, 0.0) + cell_mass
        def to_dist(atoms: dict[tuple[int, int], float]) -> DiscreteGridDistribution:
            return DiscreteGridDistribution.from_atoms(
                {(ix / denom, iy / denom): w for (ix, iy), w in atoms.items()}
            )
        meta = {
            "equal_case": self.equal_case,
            "k": self.k,
            "m": self.m,
            "eps": self.eps,
            "r": self.r,
            "cells_per_square": c,
            "total_mass": self.total_mass,
            "squares": [asdict(sq) for sq in self.squares],
        }
        return to_dist(atoms_p), to_dist(atoms_q), meta


_SQUARE_FRACTION = 0.125  # diagonal squares per unit of k


def gen_hard_instance(
    k: int,
    m: int,
    eps: float,
    equal_case: bool,
    rng: np.random.Generator,
) -> HardInstance:
    """Draw a hard instance with r = ceil(k / 8) squares.

    Requires m < k/2 so heavy squares stay a minority and the light-square
    witness family (four rectangles each) fits within k rectangles.
    """
    if k < 1 or m < 1:
        raise InvalidInput(f"k and m must be positive, got k={k} m={m}")
    if not 0 < eps <= 1:
        raise InvalidInput(f"eps must be in (0, 1], got {eps}")
    if not m < k / 2:
        raise InvalidInput(f"need m < k/2 for a valid instance, got m={m} k={k}")
    r = math.ceil(_SQUARE_FRACTION * k)
    squares = []
    for i in range(r):
        heavy = bool(rng.random() < m / k)
        if heavy:
            p_var = q_var = VARIANT_MIX
            mass = 1.0 / m
        else:
            mass = eps / k
            if equal_case:
                p_var = q_var = VARIANT_MIX
            elif rng.random() < 0.5:
                p_var, q_var = VARIANT_T, VARIANT_R
            else:
                p_var, q_var = VARIANT_R, VARIANT_T
        squares.append(SquareSpec(i, heavy, p_var, q_var, mass))
    return HardInstance(k, m, float(eps), r, equal_case, tuple(squares))


# ---- monotone obfuscation maps ---------------------------------------------

_MIN_W = math.exp(math.e)


def _log_log(scale: float) -> float:
    """log log W, the lower end of lam1's range; requires W > e^e."""
    if not scale > _MIN_W:
        raise InvalidInput(f"scale must exceed e^e = {_MIN_W:.4f}, got {scale}")
    return math.log(math.log(scale))


@dataclass(frozen=True)
class MonotoneMap:
    """x -> exp(x * exp(lam1)) * exp(lam2) + lam3 on the domain [0, 1].

    Each parameter is a float for one map, or an array of equal length for
    n maps; every method then broadcasts over the maps.

    lam3 is stored as its logarithm: its sampling range [0, exp(2 log^3 W)]
    exceeds float range for W beyond about 1200, so the map is evaluated in
    log space wherever possible and materializing f(x) itself raises
    OverflowError with the offending magnitude.
    """

    lam1: float | np.ndarray
    lam2: float | np.ndarray
    log_lam3: float | np.ndarray
    scale: float  # the W the parameters were drawn for

    def _g(self, x: float):
        if not 0.0 <= x <= 1.0:
            raise InvalidInput(f"map domain is [0, 1], got {x}")
        return x * np.exp(self.lam1) + self.lam2

    def apply(self, x: float):
        g = self._g(x)
        top = math.log(np.finfo(float).max)
        if np.max(g) > top:
            raise OverflowError(f"exp({np.max(g):.6g}) exceeds float range")
        if np.max(self.log_lam3) > top:
            raise OverflowError(
                f"additive term exp({np.max(self.log_lam3):.6g}) exceeds float range"
            )
        return np.exp(g) + np.exp(self.log_lam3)

    def log_gap(self, x: float, y: float):
        """log(f(y) - f(x)) for x < y, stable at any scale."""
        gx, gy = self._g(x), self._g(y)
        if not np.all(gx < gy):
            raise InvalidInput(f"need x < y, got {x} >= {y}")
        return gy + np.log1p(-np.exp(gx - gy))

    def triple_coords(self, a: float, b: float, c: float) -> tuple:
        """(log log A, log B, log C) for the gap ratio A, gap B, offset C.

        A = (f(c) - f(a)) / (f(b) - f(a)) > 1, B = f(b) - f(a), C = f(a).
        All three are computed in log space; TV comparisons between maps
        are invariant under these per-coordinate monotone changes.
        """
        if not a < b < c:
            raise InvalidInput(f"need a < b < c, got {(a, b, c)}")
        gab = self.log_gap(a, b)
        log_ratio = self.log_gap(a, c) - gab
        if np.any(log_ratio <= 0):
            raise InvalidInput("gap ratio rounded to <= 1; triple too degenerate")
        return np.log(log_ratio), gab, np.logaddexp(self._g(a), self.log_lam3)


def sample_monotone_map(
    scale: float, rng: np.random.Generator, size: int | None = None
) -> MonotoneMap:
    """Draw map parameters for obfuscation strength W = scale.

    lam1 ~ U[log log W, 2 log log W], lam2 ~ U[0, log^3 W],
    lam3 ~ U[0, exp(2 log^3 W)] (stored in log space). Requires W > e^e.
    size follows numpy: None draws one map, an int that many maps at once.
    """
    loglog = _log_log(scale)
    log3 = math.log(scale) ** 3
    lam1 = rng.uniform(loglog, 2 * loglog, size)
    lam2 = rng.uniform(0.0, log3, size)
    with np.errstate(divide="ignore"):  # u == 0 -> lam3 == 0 is legal
        log_lam3 = 2.0 * log3 + np.log(rng.random(size))
    return MonotoneMap(lam1, lam2, log_lam3, float(scale))


_TV_GRID = 1 << 12  # lam1 grid intervals; 2^12 and 2^18 agree to 1e-8


def gap_ratio_tv(
    scale: float,
    triple_one: tuple[float, float, float],
    triple_two: tuple[float, float, float],
) -> float:
    """Exact TV between the laws of log log A of two triples at one scale.

    log log A = psi(lam1): lam2 cancels in the gap ratio and lam3 does not
    enter it. psi is increasing and lam1 ~ U[L, 2L] with L = log log W, so
    the law's CDF is (psi^-1(x) - L) / L. Each CDF is linear between
    psi's values on one lam1 grid, so both are linear between the merged
    breakpoints and their TV is summed exactly (a finer grid moves it by
    about 1e-8). This is a lower bound on the TV between the triples'
    joint (log log A, log B, log C) laws, and for large W it tends to
    |log((c - b) / (c' - b'))| / L.
    """
    loglog = _log_log(scale)
    lam = np.linspace(loglog, 2.0 * loglog, _TV_GRID + 1)
    flat = MonotoneMap(lam, 0.0, 0.0, float(scale))
    psi = [flat.triple_coords(*triple)[0] for triple in (triple_one, triple_two)]
    if not all(np.all(np.diff(p) > 0) for p in psi):
        raise InvalidInput("log log A is not strictly increasing in lam1")
    x = np.union1d(*psi)
    # np.interp clips to lam's ends outside a table: CDF 0 below, 1 above
    gap = np.interp(x, psi[0], lam) - np.interp(x, psi[1], lam)
    return 0.5 * float(np.abs(np.diff(gap)).sum()) / loglog
