"""Closeness testing of multidimensional distributions in A_k distance.

The library decides, from sample access alone, whether two distributions
on R^d are identical or far in A_k distance (the largest total mass
difference witnessed by k disjoint axis-aligned rectangles), with sample
budgets sublinear in k. Alongside the tester it ships exact brute-force
oracles, planted-instance generators for both directions of the problem,
and the lower-bound gadget machinery, so every statistical claim can be
checked at desk scale.
"""

from .covering import EMPTY_CODE, CoverFamily
from .distributions import (
    DiscreteGridDistribution,
    load_distribution_spec,
    save_distribution_spec,
)
from .errors import CapExceeded, InvalidInput
from .families import FAMILY_NAMES, FamilyInstance, make_instance
from .flatten import (
    SplitMap,
    TestVerdict,
    build_split_map,
    flatten_closeness,
    l2_collision_statistic,
    robust_l2_test,
)
from .geometry import (
    AxisRectangle,
    decompose_complement,
    erdos_szekeres_threshold,
    find_dominating_triple,
    is_generic,
    rect_from_points,
)
from .hardness import (
    HardInstance,
    MonotoneMap,
    SquareEdgeGadget,
    gap_ratio_tv,
    gen_hard_instance,
    order_tuple_distribution_distance,
    sample_monotone_map,
)
from .oracle import (
    ak_distance_1d,
    ak_distance_bruteforce,
    constant_mass_bound,
    expected_pair_mass,
)
from .tester import (
    AkTestResult,
    TesterConfig,
    ak_closeness_test,
    consistency_satisfied,
    flatten_set_count,
    kappa,
    sample_budget,
)

__version__ = "0.1.0"

__all__ = [
    "AkTestResult",
    "AxisRectangle",
    "CapExceeded",
    "CoverFamily",
    "DiscreteGridDistribution",
    "EMPTY_CODE",
    "FAMILY_NAMES",
    "FamilyInstance",
    "HardInstance",
    "InvalidInput",
    "MonotoneMap",
    "SplitMap",
    "SquareEdgeGadget",
    "TestVerdict",
    "TesterConfig",
    "ak_closeness_test",
    "ak_distance_1d",
    "ak_distance_bruteforce",
    "build_split_map",
    "consistency_satisfied",
    "constant_mass_bound",
    "decompose_complement",
    "erdos_szekeres_threshold",
    "expected_pair_mass",
    "find_dominating_triple",
    "flatten_closeness",
    "flatten_set_count",
    "gap_ratio_tv",
    "gen_hard_instance",
    "is_generic",
    "kappa",
    "l2_collision_statistic",
    "load_distribution_spec",
    "make_instance",
    "order_tuple_distribution_distance",
    "rect_from_points",
    "robust_l2_test",
    "sample_budget",
    "sample_monotone_map",
    "save_distribution_spec",
]
