"""The package namespace: what `import labelcover` loads and exports."""

import importlib
import json
import os
import subprocess
import sys

import labelcover as lc

from conftest import FIXTURES, SRC

# every public name of the package, by the module it comes from
EXPORTS = {
    "core": (
        "Assignment", "BudgetExceeded", "Component", "DuplicateEdge",
        "IndexOutOfRange", "InfeasibleParams", "InstanceStats", "LabelCoverError",
        "ProjectionGame", "ShapeMismatch", "SolveReport", "SymbolOutOfRange",
        "TableLengthMismatch", "build_game", "compute_stats",
        "connected_components", "lift_assignment", "value",
    ),
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
# the modules themselves are public names too
PUBLIC = sorted({*EXPORTS, *(name for names in EXPORTS.values() for name in names)})


def _fresh(script: str):
    """What a script prints as JSON, run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'labelcover')"


def test_import_loads_only_core_and_dir_lists_every_name():
    got = _fresh(f"""
import labelcover
core_only = {_LOADED}
public = [n for n in dir(labelcover) if not n.startswith("_")]
after_dir = {_LOADED}
import labelcover.cli
print(json.dumps([core_only, public, after_dir, {_LOADED}]))
""")
    core_only, public, after_dir, with_cli = got
    assert core_only == after_dir == ["labelcover", "labelcover.core"]
    assert public == PUBLIC
    assert with_cli == [
        "labelcover", "labelcover.cli", "labelcover.core", "labelcover.formats",
        "labelcover.reductions", "labelcover.smooth",
    ]


def test_commands_load_the_modules_they_call():
    tiny1, smooth1 = FIXTURES / "tiny1.lc", FIXTURES / "smooth1.lc"
    got = _fresh(f"""
import contextlib, io
from labelcover.cli import main
loaded = []
for argv in (["smooth", "measure", {str(smooth1)!r}], ["stats", {str(tiny1)!r}],
             ["approx", "best", {str(tiny1)!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    loaded.append({_LOADED})
print(json.dumps(loaded))
""")
    solvers = {"labelcover.approx", "labelcover.exact", "labelcover.planar"}
    measure, stats, best = (set(modules) & solvers for modules in got)
    assert measure == stats == set()
    assert best == {"labelcover.approx"}


def test_each_name_is_its_home_module_s_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"labelcover.{module}")
        assert getattr(lc, module) is home
        for name in names:
            assert getattr(lc, name) is getattr(home, name), name
            assert name in vars(lc), name  # kept after its first use


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from labelcover import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_a_sigma_star_cache_offers_its_three_fields_and_good():
    cache = lc.compute_sigma_star(lc.build_game(1, 1, 2, 2, [(0, 0)], [(0, 1)]))
    public = [name for name in dir(cache) if not name.startswith("_")]
    assert public == ["good", "h_star_argmax", "h_star_max", "sigma_star"]


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(lc, "no_such_name")
