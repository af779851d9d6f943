"""The command line entry points, driven through click's test runner."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aktest import DiscreteGridDistribution, save_distribution_spec
from aktest.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_four_atoms(tmp_path):
    """Interleaved point masses on a line: A_j distance is j / 2."""
    p = DiscreteGridDistribution.from_atoms({(0.0,): 0.5, (2.0,): 0.5})
    q = DiscreteGridDistribution.from_atoms({(1.0,): 0.5, (3.0,): 0.5})
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    save_distribution_spec(p, p_path, normalized=True)
    save_distribution_spec(q, q_path, normalized=True)
    return p_path, q_path


def write_constants(tmp_path, **values):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(values))
    return path


def gen_hard(runner, tmp_path, case, seed=5, name="inst"):
    out = tmp_path / name
    result = runner.invoke(
        main,
        [
            "gen-hard",
            "--k", "8",
            "--m", "1",
            "--eps", "1.0",
            "--case", case,
            "--seed", str(seed),
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    return out, json.loads(result.output)


def test_gen_hard_equal_case(runner, tmp_path):
    out, summary = gen_hard(runner, tmp_path, "equal")
    assert summary["case"] == "equal"
    assert 0 <= summary["heavy"] <= summary["squares"]
    assert summary["ak_lower_bound"] == 0.0
    assert (out / "p.json").read_bytes() == (out / "q.json").read_bytes()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 5
    assert meta["witness_rectangles"] == 0
    assert meta["ak_discrepancy"] == 0.0
    assert sum(1 for s in meta["squares"] if s["heavy"]) == summary["heavy"]


def test_gen_hard_is_reproducible(runner, tmp_path):
    first, _ = gen_hard(runner, tmp_path, "far", seed=9, name="a")
    second, _ = gen_hard(runner, tmp_path, "far", seed=9, name="b")
    for name in ("p.json", "q.json", "meta.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_gen_hard_far_case(runner, tmp_path):
    out, summary = gen_hard(runner, tmp_path, "far")
    assert summary["ak_lower_bound"] > 0.0
    assert (out / "p.json").read_bytes() != (out / "q.json").read_bytes()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["witness_rectangles"] > 0
    assert meta["ak_discrepancy"] == pytest.approx(
        meta["ak_lower_bound"] * meta["total_mass"]
    )


def test_gen_hard_rejects_large_heavy_budget(runner, tmp_path):
    result = runner.invoke(
        main,
        ["gen-hard", "--k", "8", "--m", "4", "--eps", "1.0",
         "--case", "far", "--seed", "0", "--out", str(tmp_path / "x")],
    )
    assert result.exit_code == 2


def test_test_round_trip_accepts_generated_equal_pair(runner, tmp_path):
    out, _ = gen_hard(runner, tmp_path, "equal")
    constants = write_constants(tmp_path, c_kappa=1e5, s_multiplier=0.01)
    result = runner.invoke(
        main,
        ["test", str(out / "p.json"), str(out / "q.json"),
         "--k", "8", "--eps", "1.0", "--seed", "3",
         "--constants", str(constants)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["decision"] == "accept"
    assert report["d"] == 2
    assert report["mode"] == "practical"
    assert report["statistic"] < report["threshold"]
    assert report["samples_used"] >= report["batch_size"]
    assert len(report["z_values"]) in (2, 3)
    assert report["statistic"] in report["z_values"]


@pytest.mark.parametrize("value", [0, -1])
def test_test_rejects_nonpositive_constants(runner, tmp_path, value):
    out, _ = gen_hard(runner, tmp_path, "equal")
    constants = write_constants(tmp_path, c_kappa=value)
    result = runner.invoke(
        main,
        ["test", str(out / "p.json"), str(out / "q.json"),
         "--k", "8", "--eps", "1.0", "--constants", str(constants)],
    )
    assert result.exit_code == 2, result.output
    assert "c_kappa must be a positive real" in result.output


# Strictly increasing on the lattice coordinates below, so equal
# coordinates stay equal and distinct ones keep their order.
MONOTONE_MAPS = [
    lambda v: v,
    lambda v: v**3 - 7.0,
    lambda v: 2.0**v,
    np.arctan,
    lambda v: 1e6 + 0.25 * v,
]


def run_test_command(tmp_path, atoms, fx, fy, seed):
    paths = []
    for name, column in (("p", 2), ("q", 3)):
        weights = {(fx(a[0]), fy(a[1])): a[column] for a in atoms if a[column]}
        total = sum(weights.values())
        dist = DiscreteGridDistribution.from_atoms(
            {pt: w / total for pt, w in weights.items()}
        )
        path = tmp_path / f"{name}.json"
        save_distribution_spec(dist, path, normalized=True)
        paths.append(str(path))
    result = CliRunner().invoke(
        main, ["test", *paths, "--k", "4", "--eps", "1.0", "--seed", str(seed)]
    )
    assert result.exit_code in (0, 1), result.output
    return result.exit_code, json.loads(result.output)


@settings(max_examples=8, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4)
        ),
        min_size=2,
        max_size=6,
        unique_by=lambda atom: atom[:2],
    ),
    st.sampled_from(MONOTONE_MAPS),
    st.sampled_from(MONOTONE_MAPS),
    st.integers(0, 2**16),
)
def test_tied_coordinates_keep_their_verdict_under_monotone_maps(
    atoms, fx, fy, seed
):
    assume(any(a[2] for a in atoms) and any(a[3] for a in atoms))
    assume(
        len({a[0] for a in atoms}) < len(atoms)
        or len({a[1] for a in atoms}) < len(atoms)
    )
    with tempfile.TemporaryDirectory() as tmp:
        plain = run_test_command(Path(tmp), atoms, lambda v: v, lambda v: v, seed)
        warped = run_test_command(Path(tmp), atoms, fx, fy, seed)
    assert warped == plain


def test_test_rejects_dimension_mismatch(runner, tmp_path):
    p_path, _ = write_four_atoms(tmp_path)
    planar = DiscreteGridDistribution.from_atoms({(0.0, 0.0): 1.0})
    q_path = tmp_path / "planar.json"
    save_distribution_spec(planar, q_path, normalized=True)
    result = runner.invoke(
        main, ["test", str(p_path), str(q_path), "--k", "2", "--eps", "1.0"]
    )
    assert result.exit_code == 2
    assert "dimension mismatch" in result.output


def test_test_rejects_malformed_spec(runner, tmp_path):
    p_path, q_path = write_four_atoms(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"bogus": 1}))
    result = runner.invoke(
        main, ["test", str(p_path), str(broken), "--k", "2", "--eps", "1.0"]
    )
    assert result.exit_code == 2


def test_test_rejects_a_spec_whose_total_mass_overflows(runner, tmp_path):
    p_path, _ = write_four_atoms(tmp_path)
    huge = DiscreteGridDistribution.from_atoms({(0.0,): 1e308, (1.0,): 1e308})
    q_path = tmp_path / "huge.json"
    save_distribution_spec(huge, q_path, normalized=False)
    result = runner.invoke(
        main, ["test", str(p_path), str(q_path), "--k", "2", "--eps", "1.0"]
    )
    assert result.exit_code == 2
    assert "total mass" in result.output


@pytest.mark.parametrize(
    "field, value",
    [
        ("axes", 5),
        ("axes", [[1.0, "x"]]),
        ("normalized", "false"),
        ("dim", 1.9),  # not read as dim 1
        ("mass", [{"idx": [1.7], "w": 1.0}]),  # not read as index 1
    ],
    ids=[
        "axes-not-a-list",
        "coordinate-not-a-number",
        "normalized-not-a-boolean",
        "dim-not-an-integer",
        "index-not-an-integer",
    ],
)
def test_malformed_specs_are_usage_errors(runner, tmp_path, field, value):
    p_path, q_path = write_four_atoms(tmp_path)
    spec = json.loads(q_path.read_text())
    spec[field] = value
    q_path.write_text(json.dumps(spec))
    for command in (["test", "--eps", "1.0"], ["oracle"]):
        result = runner.invoke(main, [*command, str(p_path), str(q_path), "--k", "2"])
        assert result.exit_code == 2, result.output


def test_negative_seeds_are_usage_errors(runner, tmp_path):
    # numpy refuses them with a traceback and exit 1, which `test` uses for
    # a reject verdict
    p_path, q_path = write_four_atoms(tmp_path)
    out = tmp_path / "hard"
    commands = [
        ["test", str(p_path), str(q_path), "--k", "2", "--eps", "1.0"],
        ["gen-hard", "--k", "8", "--m", "1", "--eps", "1.0", "--case", "far",
         "--out", str(out)],
        ["verify", "ramsey"],
    ]
    for command in commands:
        result = runner.invoke(main, [*command, "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output
    assert not out.exists()


def test_oracle_reports_value_and_witness(runner, tmp_path):
    p_path, q_path = write_four_atoms(tmp_path)
    result = runner.invoke(main, ["oracle", str(p_path), str(q_path), "--k", "2"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["value"] == 1.0
    assert report["k"] == 2
    assert len(report["witness"]) == 2
    for rect in report["witness"]:
        assert len(rect["lo"]) == 1 and rect["lo"] <= rect["hi"]


def experiment_config(tmp_path, **overrides):
    spec = {
        "family": ["uniform-equal", "hist-far"],
        "k": 4,
        "eps": 1.0,
        "trials": 2,
        "seed": 13,
        "constants": {"c_kappa": 1e5, "s_multiplier": 0.01},
    }
    spec.update(overrides)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(spec))
    return path


HEADER = (
    "schema,trial,seed,family,k,d,eps,m,verdict,statistic,threshold,"
    "samples_used,error,wall_ms"
)


def test_experiment_writes_csv_and_sidecar(runner, tmp_path):
    config = experiment_config(tmp_path)
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 1 + 4  # two combos, two trials each
    trials = [int(line.split(",")[1]) for line in lines[1:]]
    assert trials == [0, 1, 2, 3]
    sidecar = json.loads((tmp_path / "results.csv.config.json").read_text())
    assert sidecar["seed"] == 13
    assert "rows appended to" in result.output
    assert "uniform-equal" in result.output and "hist-far" in result.output


def strip_wall_ms(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_experiment_rows_do_not_depend_on_jobs(runner, tmp_path):
    config = experiment_config(tmp_path)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    first = runner.invoke(main, ["experiment", str(config), "--out", str(serial)])
    second = runner.invoke(
        main, ["experiment", str(config), "--out", str(parallel), "--jobs", "2"]
    )
    assert first.exit_code == 0 and second.exit_code == 0
    assert strip_wall_ms(serial) == strip_wall_ms(parallel)


def test_experiment_appends_without_repeating_the_header(runner, tmp_path):
    config = experiment_config(tmp_path)
    out = tmp_path / "results.csv"
    for _ in range(2):
        result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
        assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines.count(HEADER) == 1
    assert len(lines) == 1 + 8


def test_experiment_error_rows_round_trip(runner, tmp_path):
    # k=0 fails building the instance; k=4 builds it, then the negative
    # budget multiplier of the sweep fails the config. Both messages
    # contain a comma.
    config = experiment_config(
        tmp_path, family="hist-far", k=[0, 4], trials=1, budget_multiplier=-1.0
    )
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "errors 1" in result.output
    assert (tmp_path / "results.csv.config.json").exists()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["verdict"] for row in rows] == ["error", "error"]
    assert {row["schema"] for row in rows} == {"akr2"}
    assert rows[0]["d"] == "" and rows[1]["d"] == "2"
    assert rows[0]["error"] == "InvalidInput: hist-far needs an even k >= 2, got 0"
    assert rows[1]["error"] == (
        "InvalidInput: budget_multiplier must be a positive real, got -1.0"
    )
    assert rows[0]["samples_used"] == rows[1]["samples_used"] == ""
    assert all(float(row["wall_ms"]) >= 0 for row in rows)


def test_experiment_refuses_a_file_with_another_header(runner, tmp_path):
    config = experiment_config(tmp_path)
    out = tmp_path / "results.csv"
    old = "schema,trial,seed,family,k,d,eps,m,verdict,statistic,threshold,wall_ms\n"
    out.write_text(old)
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 2
    assert "header" in result.output
    assert out.read_text() == old


def test_experiment_validates_its_config(runner, tmp_path):
    bad_family = experiment_config(tmp_path, family="gaussian")
    assert runner.invoke(main, ["experiment", str(bad_family)]).exit_code == 2
    no_seed = json.loads(experiment_config(tmp_path).read_text())
    del no_seed["seed"]
    path = tmp_path / "no_seed.json"
    path.write_text(json.dumps(no_seed))
    assert runner.invoke(main, ["experiment", str(path)]).exit_code == 2
    unknown = experiment_config(tmp_path, typo=1)
    assert runner.invoke(main, ["experiment", str(unknown)]).exit_code == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"seed": "x"},
        {"seed": [1, 2]},
        {"trials": "many"},
        {"k": "eight"},
        {"k": [4, float("inf")]},
        {"eps": [1.0, None]},
        {"budget_multiplier": "double"},
        {"seed": True},  # not run as seed 1
        {"out": 5},
        {"k": 4.7},  # not run as k = 4
        {"seed": "12"},  # not run as seed 12
        {"eps": "1.0"},
    ],
)
def test_experiment_refuses_non_numeric_values(runner, tmp_path, overrides):
    # a value that is not a number of its kind is a usage error before any
    # trial runs; a number out of range stays its own cell's error row
    config = experiment_config(tmp_path, **overrides)
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 2, result.output
    expected = "must be a string" if "out" in overrides else "must be a number"
    assert expected in result.output
    assert not out.exists()


def test_experiment_refuses_a_negative_seed(runner, tmp_path):
    config = experiment_config(tmp_path, seed=-1)
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "seed must be >= 0" in result.output
    assert not out.exists()


def test_experiment_refuses_a_nul_byte_out_path(runner, tmp_path, monkeypatch):
    # open() raises ValueError on such a path, so it is refused before any trial
    config = experiment_config(tmp_path, out="a\u0000b", trials=1, k=8)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("aktest.cli._run_trial", lambda *a: pytest.fail("trial ran"))
    result = runner.invoke(main, ["experiment", str(config)])
    assert result.exit_code == 2, result.output
    assert "NUL byte" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["experiment.json"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_refuses_jobs_below_one(runner, tmp_path, jobs):
    config = experiment_config(tmp_path)
    out = tmp_path / "results.csv"
    result = runner.invoke(
        main, ["experiment", str(config), "--out", str(out), "--jobs", jobs]
    )
    assert result.exit_code == 2, result.output
    assert "--jobs" in result.output
    assert not out.exists()


@pytest.mark.parametrize("axis", ["k", "family"])
def test_experiment_refuses_an_empty_sweep_axis(runner, tmp_path, axis):
    # an empty axis runs no trial; a header-only CSV would look like a run
    config = experiment_config(tmp_path, **{axis: []})
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "at least one value" in result.output
    assert not out.exists()


def test_experiment_refuses_an_unknown_mode(runner, tmp_path):
    config = experiment_config(tmp_path, mode="exact")
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "mode must be paper or practical" in result.output
    assert not out.exists()


def test_experiment_refuses_budget_multiplier_in_constants(runner, tmp_path):
    # the sweep value would silently replace it, so it must be set at the top
    config = experiment_config(
        tmp_path, constants={"c_kappa": 1e5, "budget_multiplier": 4.0}
    )
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "top level" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "constants",
    [
        {"c_kappa": 1e5, "bogus": 1},
        {"consistency_const": 1e9},
        {"c_prime": 1.0},
        {"c_kappa": "large"},
        {"s_multiplier": None},
        [1.0],
        {"robust_const": 4.0},  # an analysis constant, not an option
        {"s_multiplier": 0},
        {"c_kappa": -1.0},
        {"c_kappa": 10**400},  # an int beyond float range
    ],
)
def test_experiment_checks_constants_like_the_test_command(
    runner, tmp_path, constants
):
    config = experiment_config(tmp_path, constants=constants)
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert not out.exists()
    # the test command refuses the same profile
    p_path, q_path = write_four_atoms(tmp_path)
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(constants))
    result = runner.invoke(
        main,
        ["test", str(p_path), str(q_path), "--k", "2", "--eps", "1.0",
         "--constants", str(path)],
    )
    assert result.exit_code == 2, result.output


def test_verify_runs_a_named_suite(runner):
    result = runner.invoke(main, ["verify", "ramsey", "--seed", "1"])
    assert result.exit_code == 0, result.output
    lines = [line for line in result.output.splitlines() if line]
    assert lines and all(line.startswith("[PASS] ramsey/") for line in lines)


def test_verify_rejects_unknown_suites(runner):
    assert runner.invoke(main, ["verify", "nonesuch"]).exit_code == 2


def test_experiment_writes_cells_in_product_order(runner, tmp_path):
    # family is the outermost axis: trials 0-1, 2-3, 4-5 and 6-7 are the
    # cells (uniform-equal, x1), (uniform-equal, x4), (hist-far, x1), (hist-far, x4)
    config = experiment_config(tmp_path, budget_multiplier=[1.0, 4.0])
    out = tmp_path / "results.csv"
    result = runner.invoke(main, ["experiment", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["trial"]) for row in rows] == list(range(8))
    families = ["uniform-equal"] * 4 + ["hist-far"] * 4
    assert [row["family"] for row in rows] == families
    budgets = [int(row["m"]) for row in rows]
    small, large = budgets[0], budgets[2]
    assert small < large
    assert budgets == [small, small, large, large] * 2
    labels = [
        (family, f"x{mult}")
        for family in ("uniform-equal", "hist-far")
        for mult in (1.0, 4.0)
    ]
    summary = result.output.splitlines()[:4]
    for line, (family, mult) in zip(summary, labels):
        assert line.startswith(f"{family} k=4 eps=1.0 {mult}: accept ")


def test_gen_hard_refuses_an_unwritable_out(runner, tmp_path):
    # exit 1 would read as a reject verdict
    blocker = tmp_path / "afile"
    blocker.write_text("")
    result = runner.invoke(
        main,
        ["gen-hard", "--k", "8", "--m", "1", "--eps", "1.0", "--case", "far",
         "--out", str(blocker / "x")],
    )
    assert result.exit_code == 2, result.output
    assert blocker.read_text() == ""


@pytest.mark.parametrize("which", ["config", "spec", "constants"])
def test_non_utf8_input_files_are_usage_errors(runner, tmp_path, which):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    p_path, q_path = write_four_atoms(tmp_path)
    if which == "config":
        command = ["experiment", str(bad), "--out", str(tmp_path / "results.csv")]
    elif which == "spec":
        command = ["test", str(p_path), str(bad), "--k", "2", "--eps", "1.0"]
    else:
        command = ["test", str(p_path), str(q_path), "--k", "2", "--eps", "1.0",
                   "--constants", str(bad)]
    result = runner.invoke(main, command)
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "results.csv").exists()
