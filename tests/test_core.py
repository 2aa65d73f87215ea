import ast
import dataclasses
import json
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import labelcover as lc
from labelcover.exact import _rooted_walk
from labelcover.planar import _bfs_levels
from test_approx import sweep_games
from test_derived_oracle import oracle_connected_components


def identity_edge_game():
    return lc.build_game(1, 1, 2, 2, [(0, 0)], [(0, 1)])


# --- independent oracles -------------------------------------------------

def naive_value(game, a_labels, b_labels):
    return sum(
        1
        for (a, b), table in zip(game.edges, game.projections)
        if table[a_labels[a]] == b_labels[b]
    )


def naive_neighbor_sets(game):
    na = [set() for _ in range(game.a_count)]
    nb = [set() for _ in range(game.b_count)]
    for a, b in game.edges:
        na[a].add(b)
        nb[b].add(a)
    return na, nb


def naive_two_hop(game, a):
    na, nb = naive_neighbor_sets(game)
    out = set()
    for b in na[a]:
        out |= nb[b]
    return out


def naive_edges_touching(game, a_side_set, b_side_set):
    """|E(S)| by direct set expansion."""
    return sum(
        1 for a, b in game.edges if a in a_side_set or b in b_side_set
    )


def random_game(seed, n_a=4, n_b=4, k_a=3, k_b=2, p=0.6):
    """Random instance built directly, independent of the generators."""
    rng = random.Random(seed)
    edges = [
        (a, b) for a in range(n_a) for b in range(n_b) if rng.random() < p
    ]
    if not edges:
        edges = [(0, 0)]
    tables = [
        tuple(rng.randrange(k_b) for _ in range(k_a)) for _ in edges
    ]
    return lc.build_game(n_a, n_b, k_a, k_b, edges, tables)


# --- build_game ----------------------------------------------------------

def test_build_smallest_instance():
    g = identity_edge_game()
    assert g.edge_count == 1
    assert g.a_neighbors == ((0,),)


def test_build_symbol_out_of_range_names_edge():
    with pytest.raises(lc.SymbolOutOfRange) as err:
        lc.build_game(1, 1, 2, 2, [(0, 0)], [(0, 2)])
    assert "edge 0" in str(err.value)


def test_build_index_out_of_range_names_edge():
    with pytest.raises(lc.IndexOutOfRange) as err:
        lc.build_game(1, 1, 2, 2, [(0, 1)], [(0, 1)])
    assert "edge 0" in str(err.value)


def test_build_duplicate_edge():
    with pytest.raises(lc.DuplicateEdge) as err:
        lc.build_game(1, 2, 2, 2, [(0, 0), (0, 1), (0, 0)], [(0, 1)] * 3)
    assert "edge 2" in str(err.value)


def test_build_table_length_mismatch():
    with pytest.raises(lc.TableLengthMismatch) as err:
        lc.build_game(1, 1, 3, 2, [(0, 0)], [(0, 1)])
    assert "edge 0" in str(err.value)


def test_build_rejects_non_integer_values():
    # int() would truncate 0.7 to endpoint 0 and 1.5 to symbol 1
    with pytest.raises(lc.IndexOutOfRange) as err:
        lc.build_game(1, 1, 2, 2, [(0.7, 0)], [(0, 1)])
    assert "edge 0" in str(err.value)
    with pytest.raises(lc.IndexOutOfRange) as err:
        lc.build_game(1, 2, 2, 2, [(0, 0), (0, "1")], [(0, 1), (1, 0)])
    assert "edge 1" in str(err.value)
    with pytest.raises(lc.SymbolOutOfRange) as err:
        lc.build_game(1, 1, 2, 2, [(0, 0)], [(0, 1.5)])
    assert "edge 0" in str(err.value)


def test_build_game_at_scale_checks_the_last_edge():
    g, _ = lc.gen_random_satisfiable(2000, 1000, 8, 3, 5, seed=21)
    fields = (g.a_count, g.b_count, g.sigma_a, g.sigma_b)
    assert g.edge_count == 10_000
    assert lc.build_game(*fields, g.edges, g.projections) == g
    last = g.edge_count - 1
    b, table = g.edges[last][1], g.projections[last]
    for error, edges, tables in (
        (lc.SymbolOutOfRange, g.edges, (*g.projections[:last], (*table[:-1], g.sigma_b))),
        (lc.IndexOutOfRange, (*g.edges[:last], (g.a_count, b)), g.projections),
        (lc.DuplicateEdge, (*g.edges[:last], g.edges[0]), g.projections),
    ):
        with pytest.raises(error, match=r"^edge 9999: "):
            lc.build_game(*fields, edges, tables)


def test_build_tiny1_matches_golden_stats(tiny1):
    game, _, golden = tiny1
    st = lc.compute_stats(game)
    assert list(st.a_degree) == golden["a_degree"]
    assert list(map(len, game.b_edges)) == golden["b_degree"]
    assert [list(x) for x in st.n2] == golden["n2"]
    assert list(st.sigma_b_max) == golden["sigma_b_max"]
    assert list(st.p_max_e) == golden["p_max_e"]
    assert str(st.p_bar_max) == golden["p_bar_max"]
    assert list(st.h) == golden["h"] and st.h_max == golden["h_max"]
    assert list(st.e_n) == golden["e_n"] and st.e_n_max == golden["e_n_max"]
    assert st.uniform_p == golden["uniform_p"]


# --- value ---------------------------------------------------------------

def test_value_identity_satisfied():
    g = identity_edge_game()
    assert lc.value(g, lc.Assignment((0,), (0,))) == 1


def test_value_identity_mismatch():
    g = identity_edge_game()
    assert lc.value(g, lc.Assignment((0,), (1,))) == 0


def test_value_shape_mismatch():
    g = identity_edge_game()
    with pytest.raises(lc.ShapeMismatch):
        lc.value(g, lc.Assignment((0, 0), (0,)))
    with pytest.raises(lc.ShapeMismatch):
        lc.value(g, lc.Assignment((2,), (0,)))


def test_value_planted_tiny1(tiny1):
    game, plant, golden = tiny1
    assert lc.value(game, plant) == golden["planted_value"] == game.edge_count


def test_value_invariant_under_edge_reorder():
    for seed in range(5):
        g = random_game(seed)
        rng = random.Random(100 + seed)
        perm = list(range(g.edge_count))
        rng.shuffle(perm)
        g2 = lc.build_game(
            g.a_count,
            g.b_count,
            g.sigma_a,
            g.sigma_b,
            [g.edges[i] for i in perm],
            [g.projections[i] for i in perm],
        )
        phi = lc.Assignment(
            tuple(rng.randrange(g.sigma_a) for _ in range(g.a_count)),
            tuple(rng.randrange(g.sigma_b) for _ in range(g.b_count)),
        )
        assert lc.value(g, phi) == lc.value(g2, phi)


# --- compute_stats -------------------------------------------------------

def test_stats_bijective_tables():
    g = lc.build_game(2, 2, 2, 2, [(0, 0), (1, 1)], [(0, 1), (1, 0)])
    st = lc.compute_stats(g)
    assert st.uniform_p == 1
    assert st.p_bar_max == Fraction(1)


def test_stats_constant_projection():
    g = lc.build_game(1, 1, 3, 2, [(0, 0)], [(0, 0, 0)])
    st = lc.compute_stats(g)
    assert st.sigma_b_max == (0,)
    assert st.p_max_e == (3,)
    assert st.uniform_p is None


def test_stats_against_naive_set_expansion(tiny1):
    game = tiny1[0]
    games = [game] + [random_game(s) for s in range(10)]
    for g in games:
        st = lc.compute_stats(g)
        for a in range(g.a_count):
            two_hop = naive_two_hop(g, a)
            assert set(st.n2[a]) == two_hop
            assert st.h[a] == naive_edges_touching(g, two_hop, set())
            na, _ = naive_neighbor_sets(g)
            assert st.e_n[a] == naive_edges_touching(g, set(), na[a])
        assert st.h_max == max(st.h, default=0)
        assert st.e_n_max == max(st.e_n, default=0)


def set_stats(game):
    """(h, h_max, n2) by the set definition: each two-hop set as a set of
    A vertices, h as the sum of A degrees over it."""
    na, nb = naive_neighbor_sets(game)
    degree = [len(bs) for bs in na]
    n2 = tuple(
        tuple(sorted(set().union(*(nb[b] for b in na[a]))))
        for a in range(game.a_count)
    )
    h = tuple(sum(degree[ap] for ap in two_hop) for two_hop in n2)
    return h, max(h, default=0), n2


def test_stats_h_and_n2_equal_the_set_definition_on_sweep():
    # the sweep's A degrees fit in three bit planes, so dense random games
    # (A degrees up to 38) and a hub are added, and the games without edges
    games = list(sweep_games(320))
    games += [random_game(s, n_a=30, n_b=40, k_a=3, k_b=2, p=0.3 + s / 20)
              for s in range(12)]
    games += [
        lc.build_game(1, 70, 2, 2, [(0, b) for b in range(70)], [(0, 1)] * 70),
        lc.build_game(3, 2, 2, 2, [], []),  # edgeless
        lc.build_game(0, 3, 2, 2, [], []),  # no A vertices
        lc.build_game(3, 0, 2, 2, [], []),  # no B vertices
        lc.build_game(0, 0, 1, 1, [], []),
        # A vertices 1 and 3 and B vertices 1 and 2 are isolated
        lc.build_game(4, 3, 2, 2, [(0, 0), (2, 0)], [(0, 1)] * 2),
    ]
    assert len(games) == 340
    for i, g in enumerate(games):
        st = lc.compute_stats(g)
        h, h_max, n2 = set_stats(g)
        assert (st.h, st.h_max) == (h, h_max), f"game {i}"
        assert st.n2 == n2 and n2 == st.n2 and tuple(st.n2) == n2, f"game {i}"
    assert max(max(lc.compute_stats(g).a_degree, default=0) for g in games) == 70


def test_n2_view_reads_like_the_tuple():
    g = random_game(3, n_a=9, n_b=7, p=0.3)
    want = set_stats(g)[2]
    st = lc.compute_stats(g)
    view = st.n2
    assert not isinstance(view, tuple) and len(view) == len(want) == 9
    for a in range(-len(want), len(want)):
        assert view[a] == want[a]
    assert view[2] is view[2]  # built once, then kept
    for cut in (slice(None), slice(1, 4), slice(None, None, -1),
                slice(-3, None, 2), slice(5, 1), slice(-100, 100)):
        assert view[cut] == want[cut]
    for bad in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            view[bad]
    assert list(view) == list(want) and tuple(reversed(view)) == want[::-1]
    assert view == want and want == view and not view != want
    assert view != list(want) and view != want[:-1]
    assert view == lc.compute_stats(g).n2
    assert want[4] in view and view.index(want[4]) == want.index(want[4])
    assert hash(view) == hash(want)
    assert st == dataclasses.replace(st, n2=want)
    assert hash(st) == hash(dataclasses.replace(st, n2=want))
    unread = lc.compute_stats(g)
    for copy in (pickle.loads(pickle.dumps(view)), pickle.loads(pickle.dumps(unread)).n2):
        assert copy == want and tuple(copy) == want
    assert json.dumps(list(view)) == json.dumps([list(x) for x in want])


def test_stats_identities_random_sweep():
    for seed in range(30):
        g = random_game(seed, n_a=5, n_b=5)
        st = lc.compute_stats(g)
        assert sum(st.a_degree) == sum(map(len, g.b_edges)) == g.edge_count
        for a in range(g.a_count):
            assert st.h[a] >= st.e_n[a] >= st.a_degree[a]


def test_sigma_b_max_is_first_most_preimages():
    """sigma_b_max[b] is the smallest B symbol with the most preimages
    summed over b's edges, and p_max_e counts them, for small and large
    alphabets alike."""
    shapes = [(3, 2), (2, 5), (6, 6), (40, 50)]
    for seed in range(20):
        k_a, k_b = shapes[seed % len(shapes)]
        g = random_game(seed, n_a=5, n_b=4, k_a=k_a, k_b=k_b)
        st = lc.compute_stats(g)
        for b in range(g.b_count):
            totals = [
                sum(g.projections[e].count(s) for e in g.b_edges[b])
                for s in range(k_b)
            ]
            assert st.sigma_b_max[b] == totals.index(max(totals))
        for e, (_, b) in enumerate(g.edges):
            assert st.p_max_e[e] == g.projections[e].count(st.sigma_b_max[b])


def test_pbar_max_at_least_one_on_planted():
    for seed in range(10):
        g, plant = lc.gen_random_satisfiable(5, 5, 3, 2, 2, seed=seed)
        st = lc.compute_stats(g)
        assert st.p_bar_max >= 1
        assert lc.value(g, plant) == g.edge_count


def test_uniform_flag_set_and_counterexample():
    g, _ = lc.gen_random_satisfiable(5, 5, 4, 2, 2, seed=9, uniform=True)
    assert lc.compute_stats(g).uniform_p == 2
    bad = lc.build_game(1, 1, 3, 2, [(0, 0)], [(0, 0, 1)])
    assert lc.compute_stats(bad).uniform_p is None
    # the generator without the flag produces an unbalanced table somewhere
    g2, _ = lc.gen_random_satisfiable(5, 5, 4, 2, 2, seed=9, uniform=False)
    assert lc.compute_stats(g2).uniform_p is None


def test_game_carries_adjacency():
    g = lc.build_game(2, 2, 2, 2, [(0, 0), (0, 1), (1, 1)], [(0, 1)] * 3)
    assert g.a_neighbors == ((0, 1), (1,))
    assert g.b_neighbors == ((0,), (0, 1))


# --- connected components ------------------------------------------------

def test_components_connected_game(tiny1):
    game = tiny1[0]
    comps = lc.connected_components(game)
    assert len(comps) == 1
    assert comps[0].game.edges == game.edges


def test_components_two_disjoint_edges():
    g = lc.build_game(2, 2, 2, 2, [(0, 0), (1, 1)], [(0, 1), (1, 0)])
    comps = lc.connected_components(g)
    assert len(comps) == 2
    assert all(c.game.edge_count == 1 for c in comps)


def test_components_isolated_vertices():
    g = lc.build_game(2, 2, 2, 2, [(0, 0)], [(0, 1)])
    comps = lc.connected_components(g)
    assert len(comps) == 3
    sizes = sorted((c.game.a_count, c.game.b_count) for c in comps)
    assert sizes == [(0, 1), (1, 0), (1, 1)]


def test_components_lifted_optima_match_whole():
    # three blocks, solved independently, must recombine to the whole optimum
    for seed in range(5):
        rng = random.Random(seed)
        edges, tables = [], []
        for block in range(3):
            for a in range(2):
                for b in range(2):
                    if rng.random() < 0.8:
                        edges.append((block * 2 + a, block * 2 + b))
                        tables.append(tuple(rng.randrange(2) for _ in range(2)))
        g = lc.build_game(6, 6, 2, 2, edges, tables)
        comps = lc.connected_components(g)
        parts = [lc.brute_force_opt(c.game)[0] for c in comps]
        lifted = lc.lift_assignment(g, comps, parts)
        _, whole = lc.brute_force_opt(g)
        assert lc.value(g, lifted) == whole


# --- the shared breadth-first search, against networkx ------------------

def walk_sweep_games(count):
    """Seeded sparse games: many components, isolated vertices, edgeless
    games and games with no A (or no B) vertex."""
    rng = random.Random(29)
    for _ in range(count):
        n_a, n_b = rng.choice((0, 1, 2, 5, 9)), rng.choice((0, 1, 3, 6, 10))
        pairs = [(a, b) for a in range(n_a) for b in range(n_b)]
        edges = rng.sample(pairs, min(len(pairs), rng.choice((0, 1, 3, 8, 14))))
        yield lc.build_game(n_a, n_b, 2, 2, edges, [(0, 1)] * len(edges))


def test_bfs_levels_and_components_match_networkx():
    """Each vertex's BFS level is its distance from the smallest vertex of
    its component, and the components are the oracle's."""
    nx = pytest.importorskip("networkx")
    games = list(walk_sweep_games(300))
    assert any(g.a_count == 0 for g in games) and any(not g.edges for g in games)
    for g in games:
        graph = nx.Graph((a, g.a_count + b) for a, b in g.edges)
        graph.add_nodes_from(range(g.vertex_count))
        levels = _bfs_levels(g)
        for comp in nx.connected_components(graph):
            dist = nx.single_source_shortest_path_length(graph, min(comp))
            assert all(levels[v] == dist[v] for v in comp)
        assert len(levels) == g.vertex_count
        assert lc.connected_components(g) == oracle_connected_components(g)


def random_links(rng, nbags):
    """Links on ``nbags`` bags: a tree, a forest whose other trees bag 0
    cannot reach, or a random link set that may close cycles."""
    kind = rng.randrange(3)
    if kind < 2:
        links = [(i, rng.randrange(i)) for i in range(1, nbags)
                 if kind == 0 or rng.random() < 0.7]
    else:
        links = [(rng.randrange(nbags), rng.randrange(nbags))
                 for _ in range(rng.randrange(2 * nbags))]
    return tuple((j, i) if rng.random() < 0.5 else (i, j) for i, j in links)


def test_rooted_walk_matches_networkx():
    """Each bag bag 0 reaches is listed once, after its parent, a bag
    linked to it; on links without a cycle the parent is one step nearer
    bag 0.  A bag off the walk has parent -1."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(30)
    cyclic = unreached = 0
    for _ in range(400):
        nbags = rng.randint(1, 12)
        links = random_links(rng, nbags)
        graph = nx.MultiGraph(links)
        graph.add_nodes_from(range(nbags))
        _, parent, order = _rooted_walk(nbags, links)
        dist = nx.single_source_shortest_path_length(graph, 0)
        assert order[0] == 0 and sorted(order) == sorted(dist)
        rank = {bag: r for r, bag in enumerate(order)}
        forest = len(links) == nbags - nx.number_connected_components(graph)
        assert parent[0] == -1
        for bag in range(1, nbags):
            p = parent[bag]
            if bag not in dist:
                assert p == -1
            else:
                assert graph.has_edge(p, bag) and rank[p] < rank[bag]
                assert not forest or dist[p] == dist[bag] - 1
        cyclic += not forest
        unreached += len(order) < nbags
    assert cyclic >= 50 and unreached >= 50


def test_rooted_walk_is_breadth_first_on_cyclic_links():
    # where the links close cycles a bag has several linked bags nearer
    # bag 0; the walk takes one of them, in nondecreasing distance order
    nx = pytest.importorskip("networkx")
    _, parent, order = _rooted_walk(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
    assert order == [0, 1, 5, 2, 4, 3] and parent == [-1, 0, 1, 2, 5, 0]
    rng = random.Random(31)
    for _ in range(200):
        nbags = rng.randint(1, 12)
        links = random_links(rng, nbags)
        _, parent, order = _rooted_walk(nbags, links)
        graph = nx.MultiGraph(links)
        graph.add_node(0)
        dist = nx.single_source_shortest_path_length(graph, 0)
        assert [dist[bag] for bag in order] == sorted(dist.values())
        assert all(dist[parent[bag]] == dist[bag] - 1 for bag in order[1:])


# --- runtime dependencies ------------------------------------------------

def test_runtime_imports_only_the_standard_library():
    """Every module of the package imports only the standard library and
    itself (numpy, scipy and networkx may serve the tests, not the code)."""
    package = Path(lc.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                (path.name, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"labelcover"}
            ]
    assert foreign == []
