"""Order distances of finite distance matrices and the split systems
behind them, in exact rational arithmetic.

The package computes the order distance of a distance matrix (three
engines: the defining double sum, a penalized Kendall formulation over the
induced rankings, and a fast path for circular input), extracts midpath
split systems, and analyzes split systems for compatibility, circularity,
linear independence, flatness, closedness and orderliness.
"""

from .circular import (
    CircularOrdering,
    NotCircularError,
    evaluate_circular_distance,
    fits_on_ordering,
    interval_weight_map,
    is_circular_split_system,
    kalmanson_check,
    maximum_circular_splits,
    order_distance_circular,
    recover_circular_ordering,
)
from .compat import (
    SixPointWitness,
    XTree,
    four_point_check,
    incompatible_pair,
    is_compatible,
    is_compatible_pair,
    is_ultrametric,
    six_point_witness,
    splits_from_xtree,
    xtree_from_compatible,
)
from .core import (
    DistanceMatrix,
    GroundSet,
    OrderParams,
    PreconditionError,
    Rational,
    Split,
    WeightedSplitSystem,
    as_rational,
    generate_distance,
    restrict_split_system,
    split_metric,
)
from .flatlab import (
    AllowablePair,
    CounterexampleFound,
    DependentBasisError,
    FLAT_FIXTURE_NAMES,
    NoCounterexampleFound,
    OrderlyVerdict,
    allowable_splits,
    express_in_basis,
    flat_fixture,
    is_closed,
    is_linearly_independent,
    is_maximum_flat,
    orderly_test,
    pairwise_separation_check,
    split_rank,
)
from .formats import (
    FormatError,
    format_distance_matrix,
    format_rational,
    format_split_system,
    parse_distance_matrix,
    parse_split_system,
)
from .generators import (
    index_ground,
    random_allowable_pair,
    random_binary_tree_system,
    random_distance_matrix,
    random_maximum_circular_system,
    random_maximum_flat_system,
    random_two_valued_matrix,
)
from .order import (
    MidpathDecomposition,
    PairPartition,
    midpath_split_system,
    order_distance_eq1,
    order_distance_kendall,
    pair_partition,
    two_split_instance,
    two_split_order_values,
)
from .rankings import (
    PartialRanking,
    kendall_counts,
    kendall_penalized,
    ranking_from_distance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Rational",
    "as_rational",
    "GroundSet",
    "Split",
    "DistanceMatrix",
    "WeightedSplitSystem",
    "OrderParams",
    "PreconditionError",
    "split_metric",
    "generate_distance",
    "restrict_split_system",
    # formats
    "FormatError",
    "parse_distance_matrix",
    "format_distance_matrix",
    "parse_split_system",
    "format_split_system",
    "format_rational",
    # rankings
    "PartialRanking",
    "ranking_from_distance",
    "kendall_counts",
    "kendall_penalized",
    # order
    "PairPartition",
    "MidpathDecomposition",
    "pair_partition",
    "midpath_split_system",
    "order_distance_eq1",
    "order_distance_kendall",
    "two_split_order_values",
    "two_split_instance",
    # compat
    "is_compatible_pair",
    "incompatible_pair",
    "is_compatible",
    "XTree",
    "xtree_from_compatible",
    "splits_from_xtree",
    "four_point_check",
    "is_ultrametric",
    "SixPointWitness",
    "six_point_witness",
    # circular
    "NotCircularError",
    "CircularOrdering",
    "maximum_circular_splits",
    "interval_weight_map",
    "kalmanson_check",
    "fits_on_ordering",
    "recover_circular_ordering",
    "is_circular_split_system",
    "evaluate_circular_distance",
    "order_distance_circular",
    # flatlab
    "DependentBasisError",
    "split_rank",
    "is_linearly_independent",
    "express_in_basis",
    "is_closed",
    "pairwise_separation_check",
    "is_maximum_flat",
    "AllowablePair",
    "allowable_splits",
    "CounterexampleFound",
    "NoCounterexampleFound",
    "OrderlyVerdict",
    "orderly_test",
    "flat_fixture",
    "FLAT_FIXTURE_NAMES",
    # generators
    "index_ground",
    "random_binary_tree_system",
    "random_maximum_circular_system",
    "random_allowable_pair",
    "random_maximum_flat_system",
    "random_distance_matrix",
    "random_two_valued_matrix",
]
