import random
from fractions import Fraction
from itertools import combinations, product, repeat
from time import perf_counter

import pytest

import labelcover as lc
from labelcover import formats
from labelcover.reductions import _draws, _shuffle

from conftest import fixture_text


# --- independent oracles -----------------------------------------------------

def exhaustive_3coloring(g: lc.ColoringGraph):
    """Try every coloring outright; None if no proper one exists."""
    for colors in product(range(3), repeat=g.vertex_count):
        if all(colors[u] != colors[v] for u, v in g.edges):
            return colors
    return None


def k_graph(n):
    return lc.build_coloring_graph(n, list(combinations(range(n), 2)))


# --- 3-coloring reduction ------------------------------------------------------

def test_3col_triangle():
    game, _ = lc.from_planar_3col(k_graph(3))
    assert (game.a_count, game.b_count, game.edge_count) == (3, 3, 6)
    assert lc.is_satisfiable(game)
    _, val = lc.brute_force_opt(game)
    assert val == 6
    assert exhaustive_3coloring(k_graph(3)) is not None


def test_3col_single_edge_graph():
    g = lc.build_coloring_graph(2, [(0, 1)])
    game, maps = lc.from_planar_3col(g)
    assert game.sigma_a == 6 and game.sigma_b == 3
    assert game.edge_count == 2
    assert lc.is_satisfiable(game)
    assert len(maps.color_pairs) == 6
    assert len(set(maps.color_pairs)) == 6


def test_3col_k4_and_k5_unsatisfiable():
    for n in (4, 5):
        g = k_graph(n)
        game, _ = lc.from_planar_3col(g)
        assert exhaustive_3coloring(g) is None
        assert not lc.is_satisfiable(game)


def test_3col_preserves_planarity_bound():
    graph, _ = lc.gen_coloring_graph(3, 3, Fraction(4, 5), seed=2)
    game, _ = lc.from_planar_3col(graph)
    assert lc.euler_planarity_ok(game)


def test_extract_coloring_proper():
    g = k_graph(3)
    game, _ = lc.from_planar_3col(g)
    phi, val = lc.brute_force_opt(game)
    assert val == game.edge_count
    ext = lc.extract_coloring(g, game, phi)
    assert ext.proper
    assert len(set(ext.coloring)) == 3
    assert exhaustive_3coloring(g) is not None


def test_extract_coloring_violations():
    g = k_graph(3)
    game, _ = lc.from_planar_3col(g)
    bad = lc.Assignment((0,) * 3, (0,) * 3)
    ext = lc.extract_coloring(g, game, bad)
    assert not ext.proper
    assert ext.violated_edges


def test_extract_coloring_single_edge_distinct():
    g = lc.build_coloring_graph(2, [(0, 1)])
    game, _ = lc.from_planar_3col(g)
    phi, val = lc.brute_force_opt(game)
    assert val == 2
    ext = lc.extract_coloring(g, game, phi)
    assert ext.proper
    assert ext.coloring[0] != ext.coloring[1]


def all_graphs_up_to(n_max):
    """All non-isomorphic simple graphs on 1..n_max vertices."""
    import itertools

    out = []
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = frozenset(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
            canon = min(
                tuple(sorted(
                    tuple(sorted((perm[u], perm[v]))) for u, v in edges
                ))
                for perm in itertools.permutations(range(n))
            )
            if canon in seen:
                continue
            seen.add(canon)
            out.append(lc.build_coloring_graph(n, sorted(edges)))
    return out


def test_3col_equivalence_small_graphs():
    graphs = all_graphs_up_to(4)
    assert len(graphs) == 1 + 2 + 4 + 11
    for g in graphs:
        game, _ = lc.from_planar_3col(g)
        colorable = exhaustive_3coloring(g) is not None
        if game.edge_count == 0:
            assert colorable
            continue
        assert lc.is_satisfiable(game) == colorable


# --- matrix tiling reduction -----------------------------------------------------

def singleton_tiling(k=2, pair=(1, 1), coord_max=2):
    return lc.build_matrix_tiling(k, coord_max, [{pair}] * (k * k))


def test_tiling_reduction_counts():
    for k in (2, 3):
        t = lc.gen_matrix_tiling(k, 2, 0.5, seed=k)
        game, _ = lc.from_matrix_tiling(t)
        assert game.a_count + game.b_count == 3 * k * k - 2 * k
        assert game.edge_count == 4 * k * k - 4 * k
        assert game.sigma_a == 4 and game.sigma_b == 4
        assert lc.euler_planarity_ok(game)


def test_tiling_constant_cells_satisfiable():
    t = singleton_tiling()
    game, _ = lc.from_matrix_tiling(t)
    assert lc.is_satisfiable(game)
    sol, opt = lc.brute_force_tiling(t)
    assert opt == 4
    assert lc.validate_tiling_solution(t, sol) == []


def test_validate_tiling_solution_names_each_violation():
    full = {(x, y) for x in (1, 2) for y in (1, 2)}
    t = lc.build_matrix_tiling(2, 2, [{(1, 1)}] + [full] * 3)
    cases = [
        (((1, 1),) * 3, ["expected 4 cells, got 3"]),
        (((2, 2), None, None, None), ["cell (1, 1): pair (2, 2) not in its set"]),
        (((1, 1), (2, 1), None, None),
         ["row 1: cells 1 and 2 disagree in first coordinate"]),
        (((1, 1), None, (1, 2), None),
         ["column 1: cells 1 and 2 disagree in second coordinate"]),
    ]
    for cells, want in cases:
        assert lc.validate_tiling_solution(t, lc.TilingSolution(cells)) == want


def test_tiling_one_incompatible_cell():
    cells = [{(1, 1)}] * 3 + [{(2, 2)}]
    t = lc.build_matrix_tiling(2, 2, cells)
    _, opt = lc.brute_force_tiling(t)
    assert opt == 3


def test_tiling_empty_cell_forces_wildcard():
    cells = [set(), {(1, 1)}, {(1, 1)}, {(1, 1)}]
    t = lc.build_matrix_tiling(2, 2, cells)
    sol, opt = lc.brute_force_tiling(t)
    assert sol.cells[0] is None
    assert opt <= 3


def test_tiling_budget():
    t = lc.gen_matrix_tiling(3, 2, 0.9, seed=0)
    with pytest.raises(lc.BudgetExceeded):
        lc.brute_force_tiling(t, budget=10)


def test_tiling_dual_oracle_properties():
    # first property: a full tiling selection makes the game satisfiable,
    # and vice versa (zero violated edges extract to zero wildcards).
    # second property, in the direction the extraction argument proves:
    # an assignment violating u edges yields a tiling with at most 2u
    # wildcards, so the tiling optimum is at least k^2 - 2(m - gopt).
    for seed in range(6):
        k = 2 if seed % 2 else 3
        t = lc.gen_matrix_tiling(k, 2, 0.4, seed=seed, solvable=(seed % 3 == 0))
        game, _ = lc.from_matrix_tiling(t)
        _, topt = lc.brute_force_tiling(t)
        _, gopt = lc.brute_force_opt(game)
        m = game.edge_count
        assert (topt == k * k) == (gopt == m)
        assert topt >= k * k - 2 * (m - gopt)


def test_tiling_second_property_literal_lower_bound_is_not_implied():
    # the proven inequality does not bound the game optimum from below:
    # here one wildcard suffices for the tiling yet two game edges fail
    cells = [{(1, 1)}, {(1, 1)}, {(2, 2)}, {(1, 1)}]
    t = lc.build_matrix_tiling(2, 2, cells)
    game, _ = lc.from_matrix_tiling(t)
    _, topt = lc.brute_force_tiling(t)
    _, gopt = lc.brute_force_opt(game)
    assert topt == 3
    assert 2 * gopt < 2 * game.edge_count - (4 - topt)
    # the proven direction still holds
    assert topt >= 4 - 2 * (game.edge_count - gopt)


def test_extract_tiling_zero_wildcards_on_satisfying():
    t = singleton_tiling()
    game, _ = lc.from_matrix_tiling(t)
    phi, val = lc.brute_force_opt(game)
    assert val == game.edge_count
    sol = lc.extract_tiling(t, game, phi)
    assert sol.chosen_count() == 4
    assert lc.validate_tiling_solution(t, sol) == []


def test_extract_tiling_single_violation():
    # cell (1,1) may pick (1,2): its row edge stays satisfied, its column
    # edge breaks, so exactly one violated edge and at most two wildcards
    cells = [{(1, 1), (1, 2)}, {(1, 1)}, {(1, 1)}, {(1, 1)}]
    t = lc.build_matrix_tiling(2, 2, cells)
    game, maps = lc.from_matrix_tiling(t)
    phi, val = lc.brute_force_opt(game)
    assert val == game.edge_count
    a_labels = list(phi.a_labels)
    a_labels[0] = maps.pair_symbol(1, 2)
    moved = lc.Assignment(tuple(a_labels), phi.b_labels)
    unsat = game.edge_count - lc.value(game, moved)
    assert unsat == 1
    sol = lc.extract_tiling(t, game, moved)
    assert lc.validate_tiling_solution(t, sol) == []
    assert 4 - sol.chosen_count() <= 2 * unsat



def _misshapen(game):
    """Assignments that do not fit game: a side one label short, a label -1."""
    a, b = (0,) * game.a_count, (0,) * game.b_count
    return (
        lc.Assignment(a[1:], b), lc.Assignment(a, b[1:]),
        lc.Assignment((-1, *a[1:]), b), lc.Assignment(a, (-1, *b[1:])),
    )


@pytest.mark.parametrize("source, reduce, extract", [
    (k_graph(3), lc.from_planar_3col, lc.extract_coloring),
    (singleton_tiling(), lc.from_matrix_tiling, lc.extract_tiling),
], ids=["coloring", "tiling"])
def test_extract_rejects_misshapen_assignment(source, reduce, extract):
    game, _ = reduce(source)
    for phi in _misshapen(game):
        with pytest.raises(lc.ShapeMismatch):
            extract(source, game, phi)

def test_extract_tiling_random_assignments_valid():
    t = lc.gen_matrix_tiling(3, 2, 0.5, seed=9, solvable=True)
    game, _ = lc.from_matrix_tiling(t)
    rng = random.Random(1)
    for _ in range(50):
        phi = lc.Assignment(
            tuple(rng.randrange(game.sigma_a) for _ in range(game.a_count)),
            tuple(rng.randrange(game.sigma_b) for _ in range(game.b_count)),
        )
        sol = lc.extract_tiling(t, game, phi)
        assert lc.validate_tiling_solution(t, sol) == []
        unsat = game.edge_count - lc.value(game, phi)
        assert 9 - sol.chosen_count() <= 2 * unsat


# --- the draw helper against the stdlib -------------------------------------------

def draw_bounds():
    """1..300, and 2^k - 1, 2^k, 2^k + 1 up to 2^40: draws of one 32-bit
    word and of two, accepted with every rate from about one half to 1."""
    yield from range(1, 301)
    for k in range(9, 41):
        yield from (2 ** k - 1, 2 ** k, 2 ** k + 1)


def test_draws_equal_randrange_word_for_word():
    bounds = list(draw_bounds())
    for seed in (0, 1, 7, 2 ** 40 + 3):
        for n in bounds:
            mine, ref = random.Random(seed * 1000 + n), random.Random(seed * 1000 + n)
            assert _draws(mine, repeat(n, 50)) == [ref.randrange(n) for _ in range(50)], n
            assert mine.getstate() == ref.getstate(), n
        # mixed bounds, as a shuffle draws them
        mixed = random.Random(seed).choices(bounds, k=2000)
        mine, ref = random.Random(seed), random.Random(seed)
        assert _draws(mine, mixed) == [ref.randrange(n) for n in mixed]
        assert mine.getstate() == ref.getstate()
        assert _draws(mine, ()) == [] and mine.getstate() == ref.getstate()


def test_shuffle_equals_stdlib_shuffle():
    for seed in range(12):
        for length in range(0, 70):
            mine, ref = random.Random(seed), random.Random(seed)
            x, y = list(range(length)), list(range(length))
            _shuffle(mine, x)
            ref.shuffle(y)
            assert x == y and mine.getstate() == ref.getstate(), (seed, length)


# --- generators -------------------------------------------------------------------

def test_gen_random_planted_value():
    for seed in range(8):
        g, plant = lc.gen_random_satisfiable(7, 5, 3, 2, 2, seed=seed)
        assert lc.value(g, plant) == g.edge_count
        assert min(len(e) for e in g.b_edges) >= 1


def test_gen_random_uniform_flag():
    g, plant = lc.gen_random_satisfiable(6, 6, 4, 2, 3, seed=4, uniform=True)
    assert lc.compute_stats(g).uniform_p == 2
    assert lc.value(g, plant) == g.edge_count


def test_gen_random_golden_bytes():
    g, _ = lc.gen_random_satisfiable(8, 8, 4, 2, 3, seed=42)
    assert formats.emit_labelcover(g) == fixture_text("random_seed42.lc")
    gu, _ = lc.gen_random_satisfiable(8, 8, 4, 2, 3, seed=42, uniform=True)
    assert formats.emit_labelcover(gu) == fixture_text("random_seed42_uniform.lc")


def test_gen_random_infeasible_params():
    with pytest.raises(lc.InfeasibleParams):
        lc.gen_random_satisfiable(3, 2, 2, 2, 5, seed=0)
    with pytest.raises(lc.InfeasibleParams):
        lc.gen_random_satisfiable(3, 3, 3, 2, 2, seed=0, uniform=True)


def test_gen_smooth_meets_target():
    g, report, plant = lc.gen_smooth(3, 8, 3, 4, 8, Fraction(1, 4), seed=6)
    assert report.mu <= Fraction(1, 4)
    assert report.mu == lc.measure_smoothness(g).mu
    assert lc.value(g, plant) == g.edge_count


def test_gen_smooth_trivial_target_never_rejects():
    g, report, plant = lc.gen_smooth(3, 6, 3, 3, 6, Fraction(1), seed=1)
    assert report.mu <= 1
    assert lc.value(g, plant) == g.edge_count


def test_gen_smooth_golden_bytes(smooth1):
    game, plant = smooth1
    g, _, p = lc.gen_smooth(4, 12, 3, 7, 12, Fraction(1, 12), seed=0)
    assert formats.emit_labelcover(g) == formats.emit_labelcover(game)
    assert p == plant


def test_gen_smooth_rejection_failure():
    with pytest.raises(lc.GenerationFailed):
        lc.gen_smooth(2, 2, 3, 2, 2, Fraction(0), seed=0, max_tries=50)


def test_gen_grid_shapes():
    g, plant = lc.gen_planar_grid(1, 2, 2, 2, seed=0)
    assert g.edge_count == 1
    g3, plant3 = lc.gen_planar_grid(3, 3, 3, 2, seed=5)
    assert lc.value(g3, plant3) == g3.edge_count
    assert lc.euler_planarity_ok(g3)


def test_gen_grid_golden_bytes():
    g, _ = lc.gen_planar_grid(4, 4, 3, 2, seed=7)
    assert formats.emit_labelcover(g) == fixture_text("grid4x4_seed7.lc")


def test_generated_games_pass_build_game():
    """The planted generators skip build_game's checks: every game they
    return must be one build_game accepts and returns unchanged, with int
    pairs as edges and int tuples as tables."""
    games = []
    for seed in range(6):
        games.append(lc.gen_random_satisfiable(7, 5, 3, 2, 2, seed=seed)[0])
        games.append(lc.gen_random_satisfiable(6, 6, 4, 2, 3, seed=seed, uniform=True)[0])
        games.append(lc.gen_smooth(3, 8, 3, 4, 8, Fraction(1, 2), seed=seed)[0])
        games.append(lc.gen_smooth(4, 6, 1, 2, 3, Fraction(1), seed=seed)[0])
        for rows, cols, k_a in ((1, 1, 2), (1, 2, 1), (3, 4, 1), (4, 3, 3)):
            games.append(lc.gen_planar_grid(rows, cols, k_a, 2, seed=seed)[0])
        # too few A ends to reach every B vertex: the isolated-B repair runs
        for n_a, n_b, degree, uniform in ((2, 9, 1, False), (3, 12, 2, True)):
            g, _ = lc.gen_random_satisfiable(n_a, n_b, 4, 2, degree, seed=seed, uniform=uniform)
            assert n_a * degree < n_b and all(g.b_edges)
            games.append(g)
        games.append(lc.gen_smooth(2, 7, 2, 2, 2, Fraction(1), seed=seed)[0])
    assert any(g.edge_count == 0 for g in games)
    for g in games:
        fields = (g.a_count, g.b_count, g.sigma_a, g.sigma_b, g.edges, g.projections)
        assert lc.build_game(*fields) == g
        assert type(g.edges) is tuple and type(g.projections) is tuple
        for edge, table in zip(g.edges, g.projections):
            assert type(edge) is tuple and len(edge) == 2 and type(table) is tuple
            assert all(type(x) is int for x in (*edge, *table))


def test_gen_coloring_graph_proper_and_planar():
    graph, coloring = lc.gen_coloring_graph(4, 4, Fraction(2, 3), seed=3)
    assert graph.claimed_planar
    for u, v in graph.edges:
        assert coloring[u] != coloring[v]
    game, _ = lc.from_planar_3col(graph)
    assert lc.is_satisfiable(game)


def test_generators_planar_by_networkx():
    nx = pytest.importorskip("networkx")

    def planar(vertex_count, edges):
        graph = nx.Graph()
        graph.add_nodes_from(range(vertex_count))
        graph.add_edges_from(edges)
        return nx.check_planarity(graph)[0]

    def game_planar(game):
        return planar(game.vertex_count, ((a, game.a_count + b) for a, b in game.edges))

    rng = random.Random(0)
    for seed in range(16):
        rows, cols = rng.randint(1, 14), rng.randint(1, 14)
        game, _ = lc.gen_planar_grid(rows, cols, 2, 2, seed=seed)
        assert game_planar(game), (rows, cols)
        keep = Fraction(1) if seed % 2 else Fraction(3, 4)
        graph, _ = lc.gen_coloring_graph(rows, cols, keep, seed=seed)
        assert planar(graph.vertex_count, graph.edges), (rows, cols, keep)
        assert game_planar(lc.from_planar_3col(graph)[0])
    # the oracle is not vacuous: K_{3,3} is not planar
    k33, _ = lc.gen_random_satisfiable(3, 3, 2, 2, 3, seed=0)
    assert not game_planar(k33)


def test_gen_matrix_tiling_solvable_plant():
    t = lc.gen_matrix_tiling(3, 2, 0.3, seed=12, solvable=True)
    _, opt = lc.brute_force_tiling(t)
    assert opt == 9


def test_generators_reject_non_positive_dimensions():
    for rows, cols in ((-1, 2), (2, 0), (0, 0)):
        with pytest.raises(lc.InfeasibleParams):
            lc.gen_coloring_graph(rows, cols, Fraction(3, 4), seed=0)
    for size, coords in ((3, 0), (0, 3), (-2, 2)):
        with pytest.raises(lc.InfeasibleParams):
            lc.gen_matrix_tiling(size, coords, 0.5, seed=0, solvable=True)


def test_generators_reject_probabilities_outside_unit_interval():
    with pytest.raises(lc.InfeasibleParams, match=r"^keep must be in \[0, 1\], got 2$"):
        lc.gen_coloring_graph(2, 2, Fraction(2), seed=0)
    with pytest.raises(lc.InfeasibleParams, match=r"^density must be in \[0, 1\], got -1$"):
        lc.gen_matrix_tiling(2, 2, Fraction(-1), seed=0)
    for bad in (Fraction(-1, 3), 1.5, float("nan")):
        with pytest.raises(lc.InfeasibleParams, match="^keep must"):
            lc.gen_coloring_graph(3, 3, bad, seed=1)
        with pytest.raises(lc.InfeasibleParams, match="^density must"):
            lc.gen_matrix_tiling(3, 3, bad, seed=1, solvable=True)
    # the ends of the interval are kept: every candidate edge, or none
    assert len(lc.gen_coloring_graph(2, 2, 1, seed=0)[0].edges) == 5
    assert not lc.gen_coloring_graph(2, 2, 0, seed=0)[0].edges
    assert all(lc.gen_matrix_tiling(2, 2, Fraction(1), seed=0).cells)


def test_gen_smooth_rejects_mu_target_outside_unit_interval_before_drawing():
    # no row set meets a target below 0, so with a budget of 10^9 tries a
    # generator that drew first would not return; above 1 it would succeed
    for bad, shown in ((Fraction(-1), "-1"), (Fraction(5, 4), "5/4")):
        with pytest.raises(lc.InfeasibleParams,
                           match=rf"^mu_target must be in \[0, 1\], got {shown}$"):
            lc.gen_smooth(4, 4, 4, 2, 2, bad, seed=0, max_tries=10**9)


def test_build_coloring_graph_rejects_a_negative_vertex_count():
    for count in (-1, -2):
        with pytest.raises(lc.IndexOutOfRange,
                           match="^vertex count must be nonnegative$"):
            lc.build_coloring_graph(count, [])
    assert lc.build_coloring_graph(0, []).vertex_count == 0


NOT_INTEGERS = (0.7, 1.9, 2.0, "2", None, Fraction(1), 1 + 0j)


def test_builders_read_integers_like_build_game():
    """A count, endpoint, table entry or coordinate that is not an integer
    raises the package's own class, as does an edge or pair that is not
    two values; every message is one line.  bool is an integer."""
    for x in NOT_INTEGERS:
        calls = [
            (lc.IndexOutOfRange, "^vertex count must be an integer",
             lambda: lc.build_game(x, 1, 2, 1, [], [])),
            (lc.IndexOutOfRange, "^vertex count must be an integer",
             lambda: lc.build_game(1, x, 2, 1, [], [])),
            (lc.SymbolOutOfRange, "^alphabet size must be an integer",
             lambda: lc.build_game(1, 1, x, 1, [], [])),
            (lc.SymbolOutOfRange, "^alphabet size must be an integer",
             lambda: lc.build_game(1, 1, 2, x, [], [])),
            (lc.IndexOutOfRange, "^edge 0: endpoints must be integers$",
             lambda: lc.build_game(3, 3, 2, 2, [(x, 1)], [(0, 1)])),
            (lc.SymbolOutOfRange, "^edge 0: table entries must be integers$",
             lambda: lc.build_game(3, 3, 2, 2, [(0, 1)], [(0, x)])),
            (lc.IndexOutOfRange, "^vertex count must be an integer",
             lambda: lc.build_coloring_graph(x, [])),
            (lc.IndexOutOfRange, "^edge 1: endpoints must be integers$",
             lambda: lc.build_coloring_graph(3, [(0, 1), (x, 1)])),
            (lc.IndexOutOfRange, "^edge 0: endpoints must be integers$",
             lambda: lc.build_coloring_graph(3, [(0, x)])),
            (lc.InfeasibleParams, "^grid size must be an integer",
             lambda: lc.build_matrix_tiling(x, 2, [[(1, 1)]])),
            (lc.InfeasibleParams, "^coordinate range must be an integer",
             lambda: lc.build_matrix_tiling(1, x, [[(1, 1)]])),
            (lc.InfeasibleParams, "^cell 1: pairs must be two integers$",
             lambda: lc.build_matrix_tiling(2, 2, [[(1, 1)], [(x, 1)], [], []])),
            (lc.InfeasibleParams, "^cell 0: pairs must be two integers$",
             lambda: lc.build_matrix_tiling(1, 2, [[(1, 1), (1, x)]])),
        ]
        for cls, message, call in calls:
            with pytest.raises(cls, match=message) as err:
                call()
            assert "\n" not in str(err.value), (x, message)
    for edge in ((0, 1, 2), (0,), ()):
        with pytest.raises(lc.IndexOutOfRange,
                           match=f"^edge 0: {len(edge)} endpoints, expected 2$"):
            lc.build_coloring_graph(3, [edge])
        with pytest.raises(lc.InfeasibleParams, match="^cell 0: pairs must be two integers$"):
            lc.build_matrix_tiling(1, 3, [[edge]])
    g = lc.build_coloring_graph(True, [])
    assert g.vertex_count == 1 and type(g.vertex_count) is int
    assert lc.build_coloring_graph(2, [(False, True)]).edges == ((0, 1),)
    t = lc.build_matrix_tiling(True, 2, [[(True, 2)]])
    assert (t.grid_size, t.cells) == (1, (frozenset({(1, 2)}),))
    game = lc.build_game(True, True, 2, True, [(False, 0)], [(0, False)])
    assert (game.a_count, game.sigma_b, game.edges) == (1, 1, ((0, 0),))
    assert lc.compute_stats(game).h_max == 1


def test_gen_smooth_rejects_an_empty_a_alphabet_before_drawing():
    # drawing this graph takes most of a second; the check comes first
    t0 = perf_counter()
    with pytest.raises(lc.InfeasibleParams, match="^alphabets must be nonempty$"):
        lc.gen_smooth(200000, 100000, 0, 2, 4, 1, seed=0)
    assert perf_counter() - t0 < 0.1
    # the graph's shape errors still come before it
    with pytest.raises(lc.InfeasibleParams, match="^both sides need at least one vertex$"):
        lc.gen_smooth(0, 4, 0, 2, 4, 1, seed=0)
    with pytest.raises(lc.InfeasibleParams, match=r"^degree must be in \[1, 3\]$"):
        lc.gen_smooth(2, 3, 0, 2, 4, 1, seed=0)
