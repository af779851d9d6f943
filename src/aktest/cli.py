"""Command-line surface: test, oracle, gen-hard, experiment, verify.

Exit codes follow the convention: 0 for accept/success, 1 for reject (or
a failing verify suite, or an experiment with error rows), 2 for usage
and parse errors.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from .distributions import load_distribution_spec, save_distribution_spec
from .errors import InvalidInput
from .families import FAMILY_NAMES, make_instance
from .hardness import gen_hard_instance
from .oracle import ak_distance_bruteforce
from .tester import _CONSTANT_KEYS, TesterConfig, ak_closeness_test
from .verify import SUITES

RESULTS_SCHEMA = "akr2"
CSV_HEADER = (
    "schema,trial,seed,family,k,d,eps,m,verdict,statistic,threshold,"
    "samples_used,error,wall_ms"
)
# the fields of an `aktest test` report taken from the result, in order
REPORT_FIELDS = (
    "decision",
    "statistic",
    "threshold",
    "z_values",
    "kappa",
    "samples_used",
    "budget",
    "batch_size",
    "grid_values",
    "flatten_sets",
)
# experiment sweep axes, family outermost: what each value must be, and
# the default value
SWEEP_AXES = {
    "family": (FAMILY_NAMES, "uniform-equal"),
    "k": (int, 8),
    "eps": (float, 1.0),
    "budget_multiplier": (float, 1.0),
}


def _config_maker(mode: str):
    """The TesterConfig constructor of a constants mode, paper or practical."""
    return TesterConfig.practical if mode == "practical" else TesterConfig.paper


@click.group()
def main():
    """Closeness testing of multidimensional distributions in A_k distance."""


@main.command("test")
@click.argument("p_spec", type=click.Path(exists=True, dir_okay=False))
@click.argument("q_spec", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", required=True, type=int, help="Rectangle budget of the distance.")
@click.option("--eps", required=True, type=float, help="Accuracy parameter in (0, 2].")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--mode",
    type=click.Choice(["paper", "practical"]),
    default="practical",
    show_default=True,
)
@click.option(
    "--constants",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file overriding the constants profile.",
)
def cmd_test(p_spec, q_spec, k, eps, seed, mode, constants):
    """Test whether two distribution specs are equal or eps-far in A_k."""
    try:
        p = load_distribution_spec(p_spec)
        q = load_distribution_spec(q_spec)
        if p.dim != q.dim:
            raise InvalidInput(
                f"dimension mismatch: {p_spec} is {p.dim}-dimensional, "
                f"{q_spec} is {q.dim}-dimensional"
            )
        overrides = {}
        if constants is not None:
            with open(constants, "r", encoding="utf-8") as fh:
                overrides = check_constants(json.load(fh))
        config = _config_maker(mode)(k, p.dim, eps, **overrides)
        result = ak_closeness_test(
            p.sample, q.sample, config, np.random.default_rng(seed)
        )
    except (InvalidInput, json.JSONDecodeError, UnicodeDecodeError) as err:
        raise click.UsageError(str(err)) from err
    report = {name: getattr(result, name) for name in REPORT_FIELDS}
    report.update(k=k, d=p.dim, eps=eps, seed=seed, mode=mode)
    click.echo(json.dumps(report))
    sys.exit(0 if result.accept else 1)


@main.command("oracle")
@click.argument("p_spec", type=click.Path(exists=True, dir_okay=False))
@click.argument("q_spec", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", required=True, type=int)
def cmd_oracle(p_spec, q_spec, k):
    """Exact A_k distance of two small distribution specs, with a witness."""
    try:
        p = load_distribution_spec(p_spec)
        q = load_distribution_spec(q_spec)
        value, witness = ak_distance_bruteforce(p, q, k)
    except InvalidInput as err:
        raise click.UsageError(str(err)) from err
    click.echo(
        json.dumps(
            {
                "value": value,
                "k": k,
                "witness": [{"lo": list(r.lo), "hi": list(r.hi)} for r in witness],
            }
        )
    )


@main.command("gen-hard")
@click.option("--k", required=True, type=int)
@click.option("--m", required=True, type=int, help="Heavy-square budget, m < k/2.")
@click.option("--eps", required=True, type=float)
@click.option("--case", required=True, type=click.Choice(["equal", "far"]))
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--out",
    required=True,
    type=click.Path(file_okay=False),
    help="Directory for p.json, q.json, meta.json.",
)
@click.option("--cells-per-square", type=int, default=8, show_default=True)
def cmd_gen_hard(k, m, eps, case, seed, out, cells_per_square):
    """Generate a planted hard instance and write it as spec files."""
    rng = np.random.default_rng(seed)
    try:
        instance = gen_hard_instance(k, m, eps, case == "equal", rng)
        p, q, meta = instance.to_distributions(cells_per_square)
        bound, discrepancy, witness = instance.ak_lower_bound()
    except InvalidInput as err:
        raise click.UsageError(str(err)) from err
    meta["seed"] = seed
    meta["ak_lower_bound"] = bound
    meta["ak_discrepancy"] = discrepancy
    meta["witness_rectangles"] = len(witness)
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_distribution_spec(p, out_dir / "p.json", normalized=False)
        save_distribution_spec(q, out_dir / "q.json", normalized=False)
        with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as err:
        raise click.UsageError(str(err)) from err
    click.echo(
        json.dumps(
            {
                "out": str(out_dir),
                "case": case,
                "squares": len(meta["squares"]),
                "heavy": sum(1 for s in meta["squares"] if s["heavy"]),
                "ak_lower_bound": bound,
            }
        )
    )


def _number(key: str, value, kind: type):
    """An experiment config value as int or float, or a usage error.

    An int must be a JSON integer and a float any JSON number: strings,
    booleans and fractions are refused, not converted.
    """
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        what = "an integer" if kind is int else "a JSON number"
        raise InvalidInput(f"{key} must be a number ({what}), got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an int beyond float range
        raise InvalidInput(f"{key} must be a number in float range") from exc


def check_constants(profile) -> dict:
    """A constants profile of known keys as floats, for ``test --constants``
    and an experiment's ``constants``; TesterConfig checks the ranges."""
    if not isinstance(profile, dict):
        raise InvalidInput("constants profile must be a JSON object")
    unknown = set(profile) - _CONSTANT_KEYS
    if unknown:
        raise InvalidInput(f"unknown constants in profile: {sorted(unknown)}")
    return {key: _number(f"constant {key}", v, float) for key, v in profile.items()}


def _axis_values(spec: dict, axis: str) -> list:
    """A sweep axis's values, a scalar or a list in the config, each a
    family name, an int or a float as SWEEP_AXES says, or a usage error."""
    kind, default = SWEEP_AXES[axis]
    values = spec.get(axis, default)
    values = values if isinstance(values, list) else [values]
    if kind is not FAMILY_NAMES:
        return [_number(axis, value, kind) for value in values]
    unknown = [value for value in values if value not in FAMILY_NAMES]
    if unknown:
        raise InvalidInput(
            f"unknown family {unknown[0]!r}; known: {', '.join(FAMILY_NAMES)}"
        )
    return values


def _run_trial(seed: int, mode: str, constants: dict, trial: int, cell: dict) -> dict:
    """One trial of a sweep cell; module-level so worker processes can load it."""
    rng = np.random.default_rng((seed, trial))
    row = dict.fromkeys(CSV_HEADER.split(","), "")
    row.update(schema=RESULTS_SCHEMA, trial=trial, seed=seed, verdict="error")
    row.update((axis, value) for axis, value in cell.items() if axis in row)
    start = time.perf_counter()
    try:
        instance = make_instance(cell["family"], cell["k"], cell["eps"], rng)
        row["d"] = instance.d
        overrides = {**constants, "budget_multiplier": cell["budget_multiplier"]}
        config = _config_maker(mode)(cell["k"], instance.d, cell["eps"], **overrides)
        result = ak_closeness_test(instance.p_access, instance.q_access, config, rng)
        row.update(
            m=result.budget,
            verdict=result.decision,
            statistic=result.statistic,
            threshold=result.threshold,
            samples_used=result.samples_used,
        )
    except Exception as err:  # error rows must not abort the sweep
        row["error"] = f"{type(err).__name__}: {err}"
    row["wall_ms"] = f"{(time.perf_counter() - start) * 1000.0:.3f}"
    return row


@main.command("experiment")
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--trials", type=int, default=None, help="Override the config's count.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_experiment(config_file, out, trials, jobs):
    """Run a seeded trial sweep from a JSON config and append a results CSV.

    Sweep axes: family, k, eps, budget_multiplier (scalars or non-empty
    lists); seed, trials and k must be JSON integers, eps and
    budget_multiplier JSON numbers. The constants object is checked like
    `test --constants` (keys, types and ranges) before any trial runs, and
    may not hold the sweep axis budget_multiplier. Rows are deterministic
    given (config, seed) except the wall_ms column; jobs only changes the
    schedule, never the rows. A trial that raises becomes
    a verdict=error row carrying the exception text; the sweep still
    writes every row, the sidecar and the summary, then exits 1. An
    existing file is only appended to when its header is this version's.
    """
    try:
        with open(config_file, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise InvalidInput("experiment config must be a JSON object")
        known = {*SWEEP_AXES, "trials", "seed", "mode", "constants", "out"}
        unknown = set(spec) - known
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
        if "seed" not in spec:
            raise InvalidInput("experiment config must pin a seed")
        seed = _number("seed", spec["seed"], int)
        if seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {seed}")
        n_trials = spec.get("trials", 0) if trials is None else trials
        n_trials = _number("trials", n_trials, int)
        if n_trials < 1:
            raise InvalidInput("trial count must be >= 1")
        if not isinstance(spec.get("out", ""), str):
            raise InvalidInput(f"out must be a string path, got {spec['out']!r}")
        out_path = Path(out if out is not None else spec.get("out", "results.csv"))
        is_new = not out_path.exists() or out_path.stat().st_size == 0
        if not is_new:
            with open(out_path, "r", encoding="utf-8", newline="") as fh:
                header = fh.readline().rstrip("\r\n")
            if header != CSV_HEADER:
                raise InvalidInput(
                    f"{out_path} starts with header {header!r}, not the"
                    f" {RESULTS_SCHEMA} header {CSV_HEADER!r}; write to a new file"
                )
        constants = check_constants(spec.get("constants", {}))
        if "budget_multiplier" in constants:
            raise InvalidInput(
                "budget_multiplier is a sweep axis; set it at the top level of"
                " the config, not in constants"
            )
        # range-check the mode and the profile once, on a valid instance, so
        # that they are usage errors and a bad k stays its own cell's error row
        mode = spec.get("mode", "practical")
        TesterConfig(k=2, d=1, eps=1.0, mode=mode, **constants)
        axes = {axis: _axis_values(spec, axis) for axis in SWEEP_AXES}
        cells = [dict(zip(axes, cell)) for cell in itertools.product(*axes.values())]
        if not cells:
            raise InvalidInput("every sweep axis needs at least one value")
    except (InvalidInput, json.JSONDecodeError, UnicodeDecodeError, OSError) as err:
        raise click.UsageError(str(err)) from err

    # trials n_trials * i .. n_trials * (i + 1) - 1 run cell i
    run = functools.partial(_run_trial, seed, mode, constants)
    trial_cells = [cell for cell in cells for _ in range(n_trials)]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run, range(len(trial_cells)), trial_cells))
    else:
        rows = list(map(run, range(len(trial_cells)), trial_cells))

    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "a", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, CSV_HEADER.split(","), lineterminator="\n")
            if is_new:
                writer.writeheader()
            writer.writerows(rows)
        snapshot = out_path.with_name(out_path.name + ".config.json")
        with open(snapshot, "w", encoding="utf-8") as fh:
            json.dump(
                {**spec, "trials": n_trials, "out": str(out_path)},
                fh,
                indent=1,
                sort_keys=True,
            )
            fh.write("\n")
    except OSError as err:
        raise click.UsageError(str(err)) from err

    for i, cell in enumerate(cells):
        block = rows[i * n_trials : (i + 1) * n_trials]
        accepts = sum(r["verdict"] == "accept" for r in block)
        errors = sum(r["verdict"] == "error" for r in block)
        rate = accepts / n_trials
        half = 1.96 * math.sqrt(max(rate * (1 - rate), 1e-12) / n_trials)
        samples = [r["samples_used"] for r in block if r["verdict"] != "error"]
        mean_samples = sum(samples) / len(samples) if samples else 0.0
        click.echo(
            f"{cell['family']} k={cell['k']} eps={cell['eps']}"
            f" x{cell['budget_multiplier']}: accept {accepts}/{n_trials} "
            f"({rate:.2f} +- {half:.2f}), mean samples {mean_samples:.0f}"
            + (f", errors {errors}" if errors else "")
        )
    click.echo(f"rows appended to {out_path}")
    failures = sum(r["verdict"] == "error" for r in rows)
    if failures:
        click.echo(f"warning: {failures} error rows", err=True)
        sys.exit(1)


@main.command("verify")
@click.argument("suite", type=str)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def cmd_verify(suite, seed):
    """Run a named invariant suite (or `all`) and report each check."""
    if suite != "all" and suite not in SUITES:
        raise click.UsageError(
            f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}, all"
        )
    names = sorted(SUITES) if suite == "all" else [suite]
    all_passed = True
    for name in names:
        for check in SUITES[name](seed=seed):
            flag = "PASS" if check.passed else "FAIL"
            click.echo(f"[{flag}] {name}/{check.name}: {check.detail}")
            all_passed &= check.passed
    sys.exit(0 if all_passed else 1)


if __name__ == "__main__":
    main()
