"""Solvers, approximation algorithms and generators for projection games.

Importing the package loads only `core`.  Every other name below is
imported from its home module on first use and then kept here, so a
process loads only the algorithms it calls (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

from .core import (
    Assignment,
    BudgetExceeded,
    Component,
    DuplicateEdge,
    IndexOutOfRange,
    InfeasibleParams,
    InstanceStats,
    LabelCoverError,
    ProjectionGame,
    ShapeMismatch,
    SolveReport,
    SymbolOutOfRange,
    TableLengthMismatch,
    build_game,
    compute_stats,
    connected_components,
    lift_assignment,
    value,
)

# the names each other module exports through the package
_EXPORTS = {
    "exact": (
        "InvalidDecomposition", "TreeDecomposition", "brute_force_opt",
        "exact_decomposition", "heuristic_decomposition", "is_satisfiable",
        "tree_dp_solve", "validate_decomposition",
    ),
    "approx": (
        "NotInSigmaStar", "SigmaStarCache", "UniformAssumptionViolated",
        "best_of", "compute_sigma_star", "divide_and_conquer",
        "greedy_assignment", "know_neighbors_neighbors", "know_your_neighbors",
        "satisfy_one_neighbor",
    ),
    "smooth": (
        "SmoothnessReport", "default_mu", "measure_smoothness", "smooth_approx",
        "smooth_exact",
    ),
    "planar": (
        "BakerPartition", "InvalidSchemeParameter", "PlanarityCheckFailed",
        "baker_partition", "euler_planarity_ok", "ptas", "residual_game",
    ),
    "reductions": (
        "COLOR_PAIRS", "ColoringExtraction", "ColoringGraph", "GenerationFailed",
        "MatrixTiling", "ThreeColMaps", "TilingMaps", "TilingSolution",
        "brute_force_tiling", "build_coloring_graph", "build_matrix_tiling",
        "extract_coloring", "extract_tiling", "from_matrix_tiling",
        "from_planar_3col", "gen_coloring_graph", "gen_matrix_tiling",
        "gen_planar_grid", "gen_random_satisfiable", "gen_smooth",
        "validate_tiling_solution",
    ),
}
# each name's home module; a module's own name is its home
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | {"core", *_HOME}
)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _import_module(f"{__name__}.{module}")
    found = home if name == module else getattr(home, name)
    globals()[name] = found
    return found


def __dir__():
    return sorted(set(globals()) | set(__all__))
