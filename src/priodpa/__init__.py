"""Priority algorithms, adversaries and advice codecs for disjoint path
allocation on paths, trees and the 3x3 grid."""

from .graphs import (
    GridGraph,
    Instance,
    InvalidParameterError,
    InvalidRequestError,
    InvalidTreeError,
    PathGraph,
    PriodpaError,
    PropertyViolation,
    Request,
    Solution,
    TreeGraph,
    gain,
    instance_from_json,
    instance_hash,
    instance_to_json,
    load_instance,
    ratio,
    validate_solution,
)
from .engine import (
    AdviceExhaustedError,
    AdversaryOutcome,
    AdviceTape,
    AdviceWriter,
    Decision,
    GreedyAlgorithm,
    IllegalAcceptanceError,
    InvalidOrderError,
    PriorityAlgorithm,
    PriorityOrder,
    RunResult,
    Session,
    decode_run,
    encode_run,
    run,
)
from .oracle import (
    InstanceTooLargeError,
    OracleResult,
    brute_force_opt,
    greediest_opt,
    max_allocatable,
)
from .paths import greedy_path_algorithm, greedy_paths, right_end_order
from .lwdpa import (
    PabParams,
    adversary_play_lwdpa,
    encode_lwdpa_advice,
    greedy_lwdpa,
    greedy_lwdpa_algorithm,
    lwdpa_order,
)
from .trees import (
    cat_order,
    encode_cat_advice,
    greedy_cat,
    greedy_cat_algorithm,
    pack_s4,
    sigma,
    tree_adversary,
    tree_advice_bound,
)
from .reduction import (
    binary_entropy,
    entropy_lower_bound,
    fig9_tree,
    run_guess,
    run_tguess,
)
from .grid import (
    distance3_pairs,
    exhaustive_verify_3x3,
    grid_adversary,
    grid_battery,
)
from .battery import battery
from .report import RatioReport, render

__all__ = [name for name in dir() if not name.startswith("_")]
