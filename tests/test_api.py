"""The package's public export list."""

import aktest

REMOVED = (
    "EMPTY",
    "LabeledSample",
    "OrderTuple",
    "P_LABEL",
    "PointSet",
    "Q_LABEL",
    "RankedSampleSet",
    "RectangleFamily",
    "SamplePointGrid",
    "TvEstimate",
    "build_grid",
    "discrepancy_density",
    "hypothesis_equivalence_test",
    "load_practical_constants",
    "mixture_half",
    "obfuscation_tv",
    "order_tuple",
    "random_pair_discrepancy",
    "rank_transform",
    "sample_poisson",
    "tv_histogram_test",
    "union_volume",
)


def test_all_names_resolve_sorted_and_unique():
    assert all(hasattr(aktest, name) for name in aktest.__all__)
    assert aktest.__all__ == sorted(aktest.__all__)
    assert len(set(aktest.__all__)) == len(aktest.__all__)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in aktest.__all__
        assert not hasattr(aktest, name)
