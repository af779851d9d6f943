"""Sparse grid measures, labeled samples, and the distribution spec files."""

import json

import numpy as np
import pytest

from aktest import (
    AxisRectangle,
    DiscreteGridDistribution,
    InvalidInput,
    load_distribution_spec,
    save_distribution_spec,
)


def quarter_uniform():
    return DiscreteGridDistribution.from_atoms(
        {(1.0, 1.0): 0.25, (1.0, 2.0): 0.25, (2.0, 1.0): 0.25, (2.0, 2.0): 0.25}
    )


def test_from_atoms_builds_sorted_axes():
    d = DiscreteGridDistribution.from_atoms({(2.0, 0.5): 0.3, (1.0, 3.0): 0.7})
    assert d.axes == ((1.0, 2.0), (0.5, 3.0))
    assert d.mass == {(1, 2): 0.3, (0, 0): 0.7} or d.mass == {(1, 0): 0.3, (0, 1): 0.7}
    assert d.point_of((1, 0)) == (2.0, 0.5)


def test_rect_masses_on_the_quarter_grid():
    d = quarter_uniform()
    assert d.total_mass == 1.0
    assert d.normalized()
    assert d.mass_of(AxisRectangle((1.0, 1.0), (2.0, 2.0))) == 1.0
    assert d.mass_of(AxisRectangle((1.0, 1.0), (1.0, 2.0))) == 0.5  # one column
    assert d.mass_of(AxisRectangle((1.5, 1.5), (1.9, 1.9))) == 0.0
    assert d.mass_of(AxisRectangle((2.0, 2.0), (3.0, 3.0))) == 0.25  # closed corner
    empty = DiscreteGridDistribution([(0.0, 1.0)], {})
    assert empty.mass_of(AxisRectangle((0.0,), (1.0,))) == 0.0


def test_constructor_validation():
    with pytest.raises(InvalidInput):
        DiscreteGridDistribution([(1.0, 1.0)], {(0,): 1.0})  # axis not increasing
    with pytest.raises(InvalidInput):
        DiscreteGridDistribution([(0.0, 1.0)], {(2,): 1.0})  # index out of range
    with pytest.raises(InvalidInput):
        DiscreteGridDistribution([(0.0, 1.0)], {(0,): -0.1})
    with pytest.raises(InvalidInput):
        DiscreteGridDistribution([(0.0, 1.0)], {(0, 0): 1.0})  # wrong arity
    with pytest.raises(InvalidInput):
        DiscreteGridDistribution([(0.0, 1.0)], {(0,): float("nan")})


@pytest.mark.parametrize("i", [1.7, 1.0, np.float64(1.0), True, np.True_, "1"])
def test_constructor_refuses_non_integer_indices(i):
    # int(i) used to read 1.7 and True as index 1
    with pytest.raises(InvalidInput, match="must hold integers"):
        DiscreteGridDistribution([(0.0, 1.0)], {(i,): 1.0})
    for ok in (1, np.int64(1), np.uint8(1)):
        mass = DiscreteGridDistribution([(0.0, 1.0)], {(ok,): 1.0}).mass
        assert mass == {(1,): 1.0} and type(next(iter(mass))[0]) is int


def test_duplicate_indices_accumulate():
    d = DiscreteGridDistribution([(0.0, 1.0)], {(0,): 0.25})
    assert d.mass[(0,)] == 0.25
    merged = DiscreteGridDistribution.from_atoms({(0.0,): 0.25})
    assert merged.total_mass == 0.25


def test_sample_shape_and_support():
    d = quarter_uniform()
    rng = np.random.default_rng(3)
    pts = d.sample(500, rng)
    assert pts.shape == (500, 2)
    assert set(map(tuple, pts)) <= {(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)}
    state = rng.bit_generator.state
    assert d.sample(0, rng).shape == (0, 2)
    assert rng.bit_generator.state == state


def test_sampling_zero_measure_fails():
    d = DiscreteGridDistribution([(0.0, 1.0)], {})
    with pytest.raises(InvalidInput):
        d.sample(1, np.random.default_rng(0))


def test_sampling_a_measure_whose_total_overflows_fails():
    # each weight is finite, their sum is not
    d = DiscreteGridDistribution([(0.0, 1.0)], {(0,): 1e308, (1,): 1e308})
    with pytest.raises(InvalidInput, match="total mass"):
        d.sample(1, np.random.default_rng(0))


def test_spec_round_trip_is_byte_identical(tmp_path):
    d = DiscreteGridDistribution.from_atoms(
        {(0.25, 0.75): 0.125, (0.5, 0.1): 0.375, (0.75, 0.9): 0.5}
    )
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_distribution_spec(d, first)
    loaded = load_distribution_spec(first)
    assert loaded.axes == d.axes
    assert loaded.mass == d.mass
    save_distribution_spec(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_spec_rows_are_sorted(tmp_path):
    d = DiscreteGridDistribution(
        [(0.0, 1.0), (0.0, 1.0)], {(1, 1): 0.5, (0, 1): 0.25, (1, 0): 0.25}
    )
    path = tmp_path / "spec.json"
    save_distribution_spec(d, path)
    doc = json.loads(path.read_text())
    assert [row["idx"] for row in doc["mass"]] == [[0, 1], [1, 0], [1, 1]]
    assert doc["normalized"] is True


def test_spec_normalized_flag_is_checked(tmp_path):
    path = tmp_path / "lie.json"
    path.write_text(
        json.dumps(
            {
                "dim": 1,
                "axes": [[0.0, 1.0]],
                "mass": [{"idx": [0], "w": 0.4}],
                "normalized": True,
            }
        )
    )
    with pytest.raises(InvalidInput):
        load_distribution_spec(path)


def test_spec_malformed_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInput):
        load_distribution_spec(bad)

    bad.write_text(json.dumps({"dim": 2, "axes": [[0.0]], "mass": [], "normalized": False}))
    with pytest.raises(InvalidInput):
        load_distribution_spec(bad)

    bad.write_text(
        json.dumps(
            {
                "dim": 1,
                "axes": [[0.0]],
                "mass": [{"idx": [0], "w": "heavy"}],
                "normalized": False,
            }
        )
    )
    with pytest.raises(InvalidInput):
        load_distribution_spec(bad)


@pytest.mark.parametrize(
    "dim, idx",
    [
        (1, [1.7]),  # not read as index 1
        (1, [1.0]),
        (1, [True]),
        (1, ["1"]),
        (1.9, [1]),  # not read as dim 1
        (True, [1]),
        ("1", [1]),
    ],
)
def test_spec_dim_and_idx_must_be_json_integers(tmp_path, dim, idx):
    # the loader checks dim; the index check is the constructor's
    message = "must hold integers" if type(dim) is int else "must be a JSON integer"
    path = tmp_path / "spec.json"
    doc = {
        "dim": dim,
        "axes": [[0.0, 1.0]],
        "mass": [{"idx": idx, "w": 1.0}],
        "normalized": True,
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInput, match=message):
        load_distribution_spec(path)
    doc.update(dim=1, mass=[{"idx": [1], "w": 1.0}])
    path.write_text(json.dumps(doc))
    assert load_distribution_spec(path).mass == {(1,): 1.0}
    # a row equal as a dict key to an earlier integer row is still checked
    doc.update(mass=[{"idx": [1], "w": 0.5}, {"idx": [1.0], "w": 0.5}])
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInput, match="must hold integers"):
        load_distribution_spec(path)


def test_spec_duplicate_rows_accumulate(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        json.dumps(
            {
                "dim": 1,
                "axes": [[0.0, 1.0]],
                "mass": [{"idx": [1], "w": 0.25}, {"idx": [1], "w": 0.25}],
                "normalized": False,
            }
        )
    )
    assert load_distribution_spec(path).mass == {(1,): 0.5}
