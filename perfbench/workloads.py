"""The benchmark's workloads: seeded job lists built from the gate's cells.

A workload's setup builds its whole job list (configs, planted instances,
per-trial generators, exact inputs and their references); running a job
does only the work being measured. Seed 0 reproduces the acceptance gate's
own inputs. A tester workload with seed s runs gate trials s*J .. s*J+J-1
of its cell, where J is the job-list size, so every seed reads disjoint
trials of the gate's stream ``default_rng((gate_seed, trial))``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import aktest
from aktest import verify
from aktest.families import make_instance

_HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Outcome:
    """What one job produced: a bit-exact key, its verdict, its sample count."""

    key: tuple
    correct: bool
    samples: int


@dataclass(frozen=True)
class Job:
    job_id: str
    run: Callable  # run(tracer or None) -> Outcome


def _timed(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(name):
        return fn(*args, **kwargs)


# ---- tester cells -----------------------------------------------------------


@dataclass(frozen=True)
class TesterCell:
    """One acceptance-gate cell: family, k, budget multiplier, trial stream."""

    family: str
    k: int
    budget_multiplier: float
    gate_seed: int
    trials: int  # job-list size
    floor: float = 0.60  # the gate's accept (equal) or reject (far) rate
    criterion04: bool = False  # one of the two cells criterion 04 runs

    def setup(self, seed: int, smoke: bool) -> list[Job]:
        config = aktest.TesterConfig.practical(
            self.k, 2, 1.0, budget_multiplier=self.budget_multiplier
        )
        count = 1 if smoke else self.trials
        jobs = []
        for trial in range(seed * count, (seed + 1) * count):
            rng = np.random.default_rng((self.gate_seed, trial))
            instance = make_instance(self.family, self.k, 1.0, rng)
            jobs.append(Job(f"trial-{trial}", _trial_runner(config, instance, rng, trial)))
        return jobs


def _trial_runner(config, instance, rng_after_instance, trial):
    expect_accept = instance.planted_distance == 0.0

    def run(tracer) -> Outcome:
        rng = copy.deepcopy(rng_after_instance)
        p, q = instance.p_access, instance.q_access
        if tracer is None:
            result = aktest.ak_closeness_test(p, q, config, rng)
        else:

            def points(args, pts):
                tracer.add("families.points", len(pts))

            p = tracer.wrap("families.draw", p, points)
            q = tracer.wrap("families.draw", q, points)
            with tracer.span("tester.trial"):
                result = aktest.ak_closeness_test(p, q, config, rng)
            tracer.add("tester.samples", result.samples_used)
            tracer.add("tester.batch_points", result.batch_size)
            tracer.add("tester.grid_values", result.grid_values)
        key = (
            trial,
            result.accept,
            result.statistic.hex(),
            result.threshold.hex(),
            result.samples_used,
            result.batch_size,
            result.grid_values,
        )
        return Outcome(key, result.accept == expect_accept, result.samples_used)

    return run


# ---- exact oracles and verify suites ---------------------------------------

_GATE_SUITES = {
    "covering": dict(seed=0, rects_per_case=56),
    "split": dict(seed=0),
    "order-tuples": dict(seed=0, trials=1_000_000),
    "ramsey": dict(seed=0, trials=1000),
    "carve": dict(seed=0, trials=1000),
    "square-edge": dict(seed=0),
}
_SMOKE_SUITES = {
    "covering": dict(seed=0, rects_per_case=2),
    "split": dict(seed=0),
    "order-tuples": dict(seed=0, trials=5000),
    "ramsey": dict(seed=0, trials=20),
    "carve": dict(seed=0, trials=20),
    "square-edge": dict(seed=0),
}


def ak_1d_reference(deltas: list[float], k: int) -> float:
    """Largest sum of |run sum| over at most k disjoint runs of deltas.

    An O(k n) DP that is independent of the library's O(k n^2) one: each
    run is open with a + or - sign, since |x| = max(x, -x). Used as the
    reference value of the n = 512 job.
    """
    neg_inf = float("-inf")
    closed = [0.0] * (k + 1)  # at most j runs, none open
    plus = [neg_inf] * (k + 1)  # j runs, the last open with sign +
    minus = [neg_inf] * (k + 1)
    for x in deltas:
        before = [max(c, p, m) for c, p, m in zip(closed, plus, minus)]
        plus = [neg_inf] + [max(plus[j], before[j - 1]) + x for j in range(1, k + 1)]
        minus = [neg_inf] + [max(minus[j], before[j - 1]) - x for j in range(1, k + 1)]
        closed = before
    return max(closed + plus + minus)


def _line_distribution(xs, weights):
    return aktest.DiscreteGridDistribution.from_atoms(
        {(float(x),): float(w) for x, w in zip(xs, weights)}
    )


def _crosscheck_set(rng: np.random.Generator, count: int) -> list:
    """Criterion 07's generator: six dyadic atoms on 0..63, k in 1..4."""
    pairs = []
    while len(pairs) < count:
        pts = np.sort(rng.choice(np.arange(64), size=6, replace=False)).astype(float)
        pw = rng.integers(0, 16, size=6) / 64.0
        qw = rng.integers(0, 16, size=6) / 64.0
        if pw.sum() == 0 or qw.sum() == 0:
            continue
        k = int(rng.integers(1, 5))
        pairs.append((_line_distribution(pts, pw), _line_distribution(pts, qw), k))
    return pairs


@dataclass(frozen=True)
class ExactSet:
    """Oracle cross-checks, pinned brute-force instances, the DP, the suites."""

    crosscheck_seed: int = 29  # criterion 07's generator seed
    crosscheck_pairs: int = 100
    dp_atoms: int = 512
    dp_k: int = 8
    floor: float = 1.0
    criterion04: bool = False

    def setup(self, seed: int, smoke: bool) -> list[Job]:
        rng = np.random.default_rng(
            self.crosscheck_seed if seed == 0 else (self.crosscheck_seed, seed)
        )
        pairs = _crosscheck_set(rng, 10 if smoke else self.crosscheck_pairs)
        jobs = [Job("crosscheck-1d", _crosscheck_runner(pairs))]

        pinned = json.loads((_HERE / "exact_instances.json").read_text())
        for i, inst in enumerate(pinned["instances"][: 1 if smoke else None]):
            p = aktest.DiscreteGridDistribution.from_atoms(
                {tuple(map(float, pt)): w / 64 for pt, w in zip(inst["points"], inst["p_weights"])}
            )
            q = aktest.DiscreteGridDistribution.from_atoms(
                {tuple(map(float, pt)): w / 64 for pt, w in zip(inst["points"], inst["q_weights"])}
            )
            jobs.append(
                Job(f"planar-bf-{i}", _bruteforce_runner(p, q, pinned["k"], inst["value_x64"] / 64))
            )

        n = 64 if smoke else self.dp_atoms
        dp_rng = np.random.default_rng((self.dp_atoms, seed))
        xs = np.arange(n, dtype=float)
        pw = dp_rng.integers(0, 16, size=n) / 1024.0  # dyadic: every sum is exact
        qw = dp_rng.integers(0, 16, size=n) / 1024.0
        reference = ak_1d_reference([float(a - b) for a, b in zip(pw, qw)], self.dp_k)
        jobs.append(
            Job(
                f"dp1d-n{n}",
                _dp_runner(_line_distribution(xs, pw), _line_distribution(xs, qw), self.dp_k, reference),
            )
        )

        params = _SMOKE_SUITES if smoke else _GATE_SUITES
        for suite, kwargs in params.items():
            jobs.append(Job(f"verify-{suite}", _suite_runner(suite, kwargs)))
        return jobs


def _crosscheck_runner(pairs):
    def run(tracer) -> Outcome:
        key = []
        agree = True
        for p, q, k in pairs:
            value, _ = _timed(tracer, "oracle.bruteforce", aktest.ak_distance_bruteforce, p, q, k)
            fast = _timed(tracer, "oracle.dp1d", aktest.ak_distance_1d, p, q, k)
            agree &= fast == value
            key.append(value.hex())
        return Outcome(tuple(key), agree, 1)

    return run


def _bruteforce_runner(p, q, k, reference):
    def run(tracer) -> Outcome:
        value, _ = _timed(tracer, "oracle.bruteforce", aktest.ak_distance_bruteforce, p, q, k)
        return Outcome((value.hex(),), value == reference, 1)

    return run


def _dp_runner(p, q, k, reference):
    def run(tracer) -> Outcome:
        value = _timed(tracer, "oracle.dp1d", aktest.ak_distance_1d, p, q, k)
        return Outcome((value.hex(),), value == reference, 1)

    return run


def _suite_runner(suite, kwargs):
    fn = verify.SUITES[suite]

    def run(tracer) -> Outcome:
        checks = _timed(tracer, f"verify.{suite}", fn, **kwargs)
        failed = sum(not c.passed for c in checks)
        if tracer is not None:
            tracer.add("verify.checks_failed", failed)
        key = tuple((c.name, c.passed, c.detail) for c in checks)
        return Outcome(key, failed == 0, 1)

    return run


WORKLOADS = {
    "uniform-equal-k8": TesterCell("uniform-equal", 8, 1.0, 201, trials=5, criterion04=True),
    "hist-equal-k16": TesterCell("hist-equal", 16, 1.0, 202, trials=4, criterion04=True),
    "hist-far-k16-x4": TesterCell("hist-far", 16, 4.0, 204, trials=10),
    "exact": ExactSet(),
}
