"""Planted instance families for experiments and calibration runs.

Every family yields a FamilyInstance: two sample accesses plus whatever
is known exactly about their A_k distance. Instance-level randomness
(partition widths, gadget orientations) comes from the generator passed
to make_instance; the accesses then consume only the rng handed to them
at test time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covering import _BLOCK
from .errors import InvalidInput
from .hardness import gen_hard_instance
from .tester import _choice_index

PointAccess = Callable[[int, np.random.Generator], np.ndarray]

_UNIFORM_SIDE = 32


@dataclass(frozen=True)
class FamilyInstance:
    """One planted pair of distributions with sample access."""

    family: str
    k: int
    d: int
    eps: float
    p_access: PointAccess
    q_access: PointAccess
    planted_distance: float  # proven A_k lower bound (0 means p = q)


def _uniform_lattice_access(side: int) -> PointAccess:
    def access(n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, side, size=(n, 2), dtype=np.int32)
        pts = np.add(idx.T, 0.5, out=np.empty((2, n)))  # (idx + 0.5) / side
        pts /= side
        return pts.T

    return access


def _strip_histogram_access(
    edges: np.ndarray, masses: np.ndarray, axis: int
) -> PointAccess:
    widths = np.diff(edges)
    strip_of = _choice_index(masses)

    def access(n: int, rng: np.random.Generator) -> np.ndarray:
        # rng.choice(k, size=n, p=masses), then the offset along the strip,
        # then the coordinate across it: three whole draws, in this order
        u = rng.random(n)
        pts = np.empty((2, n))
        along = pts[axis]
        rng.random(out=along)
        rng.random(out=pts[1 - axis])
        for s in range(0, n, _BLOCK):
            comp = strip_of(u[s : s + _BLOCK])
            block = along[s : s + _BLOCK]
            block *= widths[comp]
            block += edges[comp]
        return pts.T

    return access


def _random_edges(k: int, rng: np.random.Generator) -> np.ndarray:
    """k strip widths, each at least half the even split."""
    widths = 0.5 / k + rng.dirichlet(np.ones(k)) * 0.5
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    edges[-1] = 1.0
    return edges


def make_instance(
    family: str, k: int, eps: float, rng: np.random.Generator
) -> FamilyInstance:
    """Draw one instance of a named family (all families are planar)."""
    if family == "uniform-equal":
        access = _uniform_lattice_access(_UNIFORM_SIDE)
        return FamilyInstance(family, k, 2, eps, access, access, 0.0)

    if family == "hist-equal":
        edges = _random_edges(k, rng)
        masses = rng.dirichlet(np.ones(k))
        axis = int(rng.integers(2))
        access = _strip_histogram_access(edges, masses, axis)
        return FamilyInstance(family, k, 2, eps, access, access, 0.0)

    if family == "hist-far":
        # Common k-strip partition; p is uniform over strips and q doubles
        # alternating strips, so sum_i |p_i - q_i| = 1 exactly and the k
        # strips witness A_k >= 1 regardless of the random widths.
        if k < 2 or k % 2:
            raise InvalidInput(f"hist-far needs an even k >= 2, got {k}")
        edges = _random_edges(k, rng)
        axis = int(rng.integers(2))
        parity = int(rng.integers(2))
        p_masses = np.full(k, 1.0 / k)
        q_masses = np.where(np.arange(k) % 2 == parity, 2.0 / k, 0.0)
        return FamilyInstance(
            family,
            k,
            2,
            eps,
            _strip_histogram_access(edges, p_masses, axis),
            _strip_histogram_access(edges, q_masses, axis),
            1.0,
        )

    if family in ("hard-equal", "hard-far"):
        heavy = max(1, k // 4)
        instance = gen_hard_instance(
            k, heavy, min(eps, 1.0), family == "hard-equal", rng
        )
        planted = 0.0 if instance.equal_case else instance.ak_lower_bound()[0]
        return FamilyInstance(
            family,
            k,
            2,
            eps,
            instance.sampler("p"),
            instance.sampler("q"),
            planted,
        )

    raise InvalidInput(
        f"unknown family {family!r}; known: {', '.join(FAMILY_NAMES)}"
    )


FAMILY_NAMES = ("uniform-equal", "hist-equal", "hist-far", "hard-equal", "hard-far")
