"""Discrete grid-supported measures and Poissonized sampling.

A DiscreteGridDistribution is a nonnegative measure on a finite product grid:
per-axis sorted coordinate arrays plus a sparse map from index tuples to mass.
Total mass 1 is not required (hard instances are measures with mass Theta(1));
``normalized()`` reports whether it holds.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput
from .geometry import AxisRectangle, Point
from .tester import _choice_index

_NORMALIZATION_TOL = 1e-12


def _grid_index(idx, i) -> int:
    """i as an int: Python and numpy integers pass; bools, floats and
    strings raise InvalidInput."""
    try:
        if not isinstance(i, bool):
            return operator.index(i)
    except TypeError:
        pass
    raise InvalidInput(f"index {tuple(idx)!r} must hold integers, got {i!r}")


@dataclass(frozen=True, eq=False)
class DiscreteGridDistribution:
    """Sparse nonnegative measure on a product grid.

    axes: per-axis strictly increasing coordinate tuples.
    mass: index tuple -> weight, as a mapping or as (index, weight) pairs
    whose repeated indices accumulate; indices must be integers (not bools)
    in range, weights finite and >= 0. The mass dict is owned by the
    instance; don't mutate it.
    """

    axes: tuple[tuple[float, ...], ...]
    mass: dict[tuple[int, ...], float]

    def __init__(
        self,
        axes: Sequence[Sequence[float]],
        mass: Mapping[Sequence[int], float] | Iterable[tuple[Sequence[int], float]],
    ):
        axes_t = tuple(tuple(float(v) for v in ax) for ax in axes)
        if not axes_t or any(not ax for ax in axes_t):
            raise InvalidInput("need at least one axis, each with coordinates")
        for j, ax in enumerate(axes_t):
            if any(a >= b for a, b in zip(ax, ax[1:])):
                raise InvalidInput(f"axis {j} is not strictly increasing")
        d = len(axes_t)
        mass_t: dict[tuple[int, ...], float] = {}
        for idx, w in mass.items() if isinstance(mass, Mapping) else mass:
            idx_t = tuple(_grid_index(idx, i) for i in idx)
            if len(idx_t) != d:
                raise InvalidInput(f"index {idx_t} has wrong dimension (expected {d})")
            if any(i < 0 or i >= len(axes_t[j]) for j, i in enumerate(idx_t)):
                raise InvalidInput(f"index {idx_t} out of range for the axes")
            w = float(w)
            if not np.isfinite(w) or w < 0:
                raise InvalidInput(f"mass at {idx_t} must be finite and >= 0, got {w}")
            mass_t[idx_t] = mass_t.get(idx_t, 0.0) + w
        object.__setattr__(self, "axes", axes_t)
        object.__setattr__(self, "mass", mass_t)

    @classmethod
    def from_atoms(cls, atoms: Mapping[Sequence[float], float]) -> "DiscreteGridDistribution":
        """Build axes from the atom coordinates themselves."""
        pts = [tuple(float(v) for v in p) for p in atoms]
        if not pts:
            raise InvalidInput("no atoms")
        d = len(pts[0])
        axes = [sorted({p[j] for p in pts}) for j in range(d)]
        lookup = [{v: i for i, v in enumerate(ax)} for ax in axes]
        mass = {
            tuple(lookup[j][p[j]] for j in range(d)): w
            for p, w in zip(pts, atoms.values())
        }
        return cls(axes, mass)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def total_mass(self) -> float:
        return float(sum(self.mass.values()))

    def normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= _NORMALIZATION_TOL

    def point_of(self, idx: Sequence[int]) -> Point:
        return tuple(self.axes[j][i] for j, i in enumerate(idx))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(points (n, d), weights (n,)) in lexicographic index order."""
        items = sorted(self.mass.items())
        pts = np.array([self.point_of(idx) for idx, _ in items], dtype=float)
        w = np.array([w for _, w in items], dtype=float)
        return pts.reshape(len(items), self.dim), w

    def mass_of(self, rect: AxisRectangle) -> float:
        """Measure of a closed rectangle (exact comparisons)."""
        if rect.dim != self.dim:
            raise InvalidInput("rectangle dimension mismatch")
        pts, w = self._arrays
        inside = np.ones(len(w), dtype=bool)
        for j in range(self.dim):
            inside &= (pts[:, j] >= rect.lo[j]) & (pts[:, j] <= rect.hi[j])
        return float(w[inside].sum())

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n iid draws from the normalized measure, shape (n, d)."""
        pts, w = self._arrays
        with np.errstate(over="ignore"):  # an overflowing total is refused below
            total = w.sum()
        if total <= 0:
            raise InvalidInput("cannot sample from a zero measure")
        if not np.isfinite(total):
            raise InvalidInput(f"cannot sample: total mass overflows to {total}")
        return pts[self._atom_of(rng.random(n))]

    @cached_property
    def _atom_of(self):
        """Uniforms to atom indices, as ``rng.choice`` with the normalized weights."""
        _, w = self._arrays
        return _choice_index(w / w.sum())


def _json_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{key} must be a JSON integer, got {value!r}")
    return value


def load_distribution_spec(path: str) -> DiscreteGridDistribution:
    """Read the distribution-spec file format.

    Structure: {"dim": d, "axes": [[...], ...], "mass": [{"idx": [...],
    "w": ...}, ...], "normalized": bool}. Coordinates and weights are
    decimal strings in the file and parse to binary64 (plain JSON floats).
    "dim" and the "idx" entries must be JSON integers, not bools, fractions
    or strings; rows with the same "idx" accumulate. "normalized" must be a
    JSON boolean; true is validated against the actual total mass.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read distribution spec {path}: {exc}") from exc
    try:
        dim = _json_int("dim", raw["dim"])
        axes = [[float(v) for v in axis] for axis in raw["axes"]]
        # The rows go to the constructor unmerged: a dict keyed here would
        # fold index 1.0 or true into an earlier 1 before the index check.
        rows = [(tuple(row["idx"]), float(row["w"])) for row in raw["mass"]]
        normalized = raw["normalized"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed distribution spec {path}: {exc}") from exc
    if not isinstance(normalized, bool):
        raise InvalidInput(f"normalized must be true or false, got {normalized!r}")
    if len(axes) != dim:
        raise InvalidInput(f"spec says dim={dim} but has {len(axes)} axes")
    dist = DiscreteGridDistribution(axes, rows)
    if normalized and not dist.normalized():
        raise InvalidInput(
            f"spec {path} claims normalized=true but total mass is {dist.total_mass!r}"
        )
    return dist


def save_distribution_spec(
    dist: DiscreteGridDistribution, path: str, *, normalized: bool | None = None
) -> None:
    """Write the distribution spec format with a deterministic row order."""
    if normalized is None:
        normalized = dist.normalized()
    doc = {
        "dim": dist.dim,
        "axes": [list(ax) for ax in dist.axes],
        "mass": [
            {"idx": list(idx), "w": w} for idx, w in sorted(dist.mass.items())
        ],
        "normalized": normalized,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
