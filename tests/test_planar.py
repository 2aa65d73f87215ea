import math
import random
from fractions import Fraction
from time import perf_counter

import pytest

import labelcover as lc
from conftest import fixture_text
from labelcover.formats import parse_labelcover
from labelcover.planar import _bfs_levels


def path_game_identity(n_edges=4):
    """Alternating path with identity tables: all-zeros satisfies everything."""
    # vertices alternate a0, b0, a1, b1, ... along the path
    edges = []
    for i in range(n_edges):
        a = (i + 1) // 2
        b = i // 2
        edges.append((a, b))
    n_a = (n_edges + 2) // 2
    n_b = (n_edges + 1) // 2
    return lc.build_game(n_a, n_b, 2, 2, edges, [(0, 1)] * n_edges)


def planted_path_game(n_edges, seed):
    edges = []
    for i in range(n_edges):
        edges.append(((i + 1) // 2, i // 2))
    n_a = (n_edges + 2) // 2
    n_b = (n_edges + 1) // 2
    rng = random.Random(seed)
    a_opt = [rng.randrange(3) for _ in range(n_a)]
    b_opt = [rng.randrange(2) for _ in range(n_b)]
    tables = []
    for a, b in edges:
        t = [rng.randrange(2) for _ in range(3)]
        t[a_opt[a]] = b_opt[b]
        tables.append(tuple(t))
    return lc.build_game(n_a, n_b, 3, 2, edges, tables)


# --- baker partition ---------------------------------------------------------

def test_baker_h1_single_class():
    g = path_game_identity(3)
    part = lc.baker_partition(g, 1)
    assert part.classes == (frozenset(range(g.edge_count)),)
    td = part.decompositions[0]
    assert td.width == 0  # residual graph is edgeless


def test_baker_path_levels_alternate():
    g = path_game_identity(4)
    part = lc.baker_partition(g, 2)
    # BFS from a0: levels a0=0, b0=1, a1=2, b1=3, a2=4; edge i has min
    # endpoint level i, so classes alternate along the path
    assert part.classes[0] == {0, 2}
    assert part.classes[1] == {1, 3}
    for i, cls in enumerate(part.classes):
        res = lc.residual_game(g, cls)
        assert lc.validate_decomposition(res, part.decompositions[i]) == []
        assert part.decompositions[i].width <= 1


def test_baker_grid_partition_covers_all():
    g, _ = lc.gen_planar_grid(4, 4, 2, 2, seed=1)
    part = lc.baker_partition(g, 3)
    seen = set()
    for cls in part.classes:
        assert not (cls & seen)
        seen |= cls
    assert seen == set(range(g.edge_count))
    for i, cls in enumerate(part.classes):
        res = lc.residual_game(g, cls)
        assert lc.validate_decomposition(res, part.decompositions[i]) == []


def test_baker_partition_property_sweep():
    for seed in range(6):
        g, _ = lc.gen_planar_grid(2 + seed % 3, 3, 2, 2, seed=seed)
        for h in (1, 2, 3, 5):
            part = lc.baker_partition(g, h)
            assert sorted(e for cls in part.classes for e in cls) == list(
                range(g.edge_count)
            )
            assert len(part.residuals) == len(part.decompositions) == h
            for cls, res, td in zip(
                part.classes, part.residuals, part.decompositions
            ):
                assert res == lc.residual_game(g, cls)
                assert lc.validate_decomposition(res, td) == []


def test_baker_residual_components_span_few_levels():
    # deleting a class leaves components whose BFS levels differ by < h
    g, _ = lc.gen_planar_grid(4, 5, 2, 2, seed=6)
    for h in (2, 3):
        part = lc.baker_partition(g, h)
        for cls in part.classes:
            res = lc.residual_game(g, cls)
            for comp in lc.connected_components(res):
                levels = [part.levels[a] for a in comp.a_vertices]
                levels += [part.levels[g.a_count + b] for b in comp.b_vertices]
                assert max(levels) - min(levels) < h


# --- ptas ----------------------------------------------------------------------

def test_ptas_identity_path_exact():
    g = path_game_identity(4)
    _, opt = lc.brute_force_opt(g)
    rep = lc.ptas(g, Fraction(1))
    assert dict(rep.breakdown)["h"] == 2
    assert rep.satisfied == opt == g.edge_count
    assert rep.guarantee_ratio_of_opt == Fraction(1, 2)


def test_ptas_half_guarantee_on_planted_paths():
    for seed in range(5):
        g = planted_path_game(5, seed)
        _, opt = lc.brute_force_opt(g)
        rep = lc.ptas(g, Fraction(1))
        assert rep.satisfied >= math.ceil(Fraction(opt, 2))


def test_ptas_grid_two_thirds():
    g, plant = lc.gen_planar_grid(3, 3, 3, 2, seed=11)
    _, opt = lc.brute_force_opt(g)
    assert opt == g.edge_count  # planted
    rep = lc.ptas(g, Fraction(1, 2))
    assert dict(rep.breakdown)["h"] == 3
    assert rep.satisfied >= math.ceil(Fraction(2 * opt, 3))


def test_ptas_on_coloring_reduction():
    # 3-colorable planar source with at most 6 vertices: optimum is |E|
    cycle = lc.build_coloring_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    game, _ = lc.from_planar_3col(cycle)
    assert lc.is_satisfiable(game)
    rep = lc.ptas(game, Fraction(1, 3))
    assert dict(rep.breakdown)["h"] == 4
    assert rep.satisfied >= math.ceil(Fraction(3 * game.edge_count, 4))


def test_ptas_pigeonhole_invariant():
    # max residual DP value over classes is at least (1 - 1/h) * OPT
    for seed in range(4):
        g, _ = lc.gen_planar_grid(2, 3, 2, 2, seed=seed)
        _, opt = lc.brute_force_opt(g)
        for h in (2, 3):
            part = lc.baker_partition(g, h)
            best_dp = 0
            for i in range(h):
                res = lc.residual_game(g, part.classes[i])
                _, dp_val = lc.tree_dp_solve(res, part.decompositions[i])
                best_dp = max(best_dp, dp_val)
            assert h * best_dp >= (h - 1) * opt


def test_ptas_guarantee_is_certified_lower_bound():
    for seed in range(4):
        g, _ = lc.gen_planar_grid(3, 3, 2, 2, seed=seed)
        rep = lc.ptas(g, Fraction(1, 2))
        assert rep.satisfied >= rep.guarantee


def test_ptas_planarity_check_and_override():
    g, _ = lc.gen_random_satisfiable(5, 5, 2, 2, 5, seed=2)  # complete bipartite
    assert not lc.euler_planarity_ok(g)
    with pytest.raises(lc.PlanarityCheckFailed):
        lc.ptas(g, Fraction(1))
    rep = lc.ptas(g, Fraction(1), force_nonplanar=True)
    assert rep.satisfied == lc.value(g, rep.assignment)


def test_ptas_handles_disconnected_instances():
    # two disjoint planted grids glued into one instance
    g1, _ = lc.gen_planar_grid(2, 2, 2, 2, seed=1)
    g2, _ = lc.gen_planar_grid(2, 2, 2, 2, seed=2)
    edges = list(g1.edges) + [
        (a + g1.a_count, b + g1.b_count) for a, b in g2.edges
    ]
    tables = list(g1.projections) + list(g2.projections)
    g = lc.build_game(
        g1.a_count + g2.a_count,
        g1.b_count + g2.b_count,
        2, 2, edges, tables,
    )
    _, opt = lc.brute_force_opt(g)
    rep = lc.ptas(g, Fraction(1))
    assert rep.satisfied >= math.ceil(Fraction(opt, 2))


def test_ptas_h_override():
    g, _ = lc.gen_planar_grid(2, 3, 2, 2, seed=3)
    rep = lc.ptas(g, Fraction(1), h_override=4)
    assert dict(rep.breakdown)["h"] == 4
    assert rep.guarantee_ratio_of_opt == Fraction(3, 4)


def test_ptas_rejects_bad_epsilon():
    g, _ = lc.gen_planar_grid(2, 2, 2, 2, seed=0)
    with pytest.raises(ValueError):
        lc.ptas(g, Fraction(3, 2))


def certificate_games():
    for seed in range(6):
        yield lc.gen_planar_grid(2 + seed % 3, 2 + seed // 2, 3, 2, seed=seed)[0]
    for seed in range(4):
        graph, _ = lc.gen_coloring_graph(2 + seed % 2, 2 + seed // 2, Fraction(3, 4), seed)
        yield lc.from_planar_3col(graph)[0]
    for seed in range(40):
        # odd seeds: tables redrawn at random, most games unsatisfiable
        rng = random.Random(seed)
        n_a, n_b = rng.randint(1, 6), rng.randint(1, 6)
        k_a, k_b = rng.randint(1, 3), rng.randint(1, 3)
        g, _ = lc.gen_random_satisfiable(n_a, n_b, k_a, k_b, rng.randint(1, min(n_b, 2)), seed)
        if seed % 2:
            tables = [tuple(rng.randrange(k_b) for _ in range(k_a)) for _ in g.edges]
            g = lc.build_game(n_a, n_b, k_a, k_b, g.edges, tables)
        if lc.euler_planarity_ok(g):
            yield g


def test_ptas_certificate_property():
    # every report's count is its assignment's value and at least its
    # guarantee; where brute force runs, DP equals it and ptas keeps its ratio
    checked = 0
    for g in certificate_games():
        try:
            _, opt = lc.brute_force_opt(g, budget=20_000)
        except lc.BudgetExceeded:
            opt = None
        else:
            phi, val = lc.tree_dp_solve(g, lc.heuristic_decomposition(g))
            assert val == opt == lc.value(g, phi)
            checked += 1
        for eps in (Fraction(1), Fraction(1, 2)):
            rep = lc.ptas(g, eps)
            h = dict(rep.breakdown)["h"]
            assert rep.satisfied == lc.value(g, rep.assignment)
            assert rep.guarantee <= rep.satisfied
            if opt is not None:
                assert h * rep.satisfied >= (h - 1) * opt
    assert checked >= 30


# --- ptas caps the class count at the BFS depth ------------------------------

def unclamped_ptas(game, h):
    """ptas's assignment, value and guarantee with all h classes solved
    per component, as ptas did before it capped h at the BFS depth."""
    comps = lc.connected_components(game)
    winners, certified = [], 0
    for comp in comps:
        sub = comp.game
        if sub.edge_count == 0:
            winners.append(lc.Assignment((0,) * sub.a_count, (0,) * sub.b_count))
            continue
        part = lc.baker_partition(sub, h)
        best_phi, best_val, best_dp = None, -1, 0
        for res, td in zip(part.residuals, part.decompositions):
            phi, dp_val = lc.tree_dp_solve(res, td)
            if lc.value(sub, phi) > best_val:
                best_phi, best_val, best_dp = phi, lc.value(sub, phi), dp_val
        winners.append(best_phi)
        certified += best_dp
    phi = lc.lift_assignment(game, comps, winners)
    return phi, lc.value(game, phi), Fraction(certified)


def capped_games():
    for rows, cols, seed in ((2, 3, 1), (3, 3, 2), (1, 5, 3), (4, 2, 4)):
        yield lc.gen_planar_grid(rows, cols, 3, 2, seed=seed)[0]
    graph, _ = lc.gen_coloring_graph(2, 3, Fraction(3, 4), 5)
    yield lc.from_planar_3col(graph)[0]
    yield parse_labelcover(fixture_text("grid4x4_seed7.lc"))
    yield parse_labelcover(fixture_text("tiny1.lc"))
    g1, _ = lc.gen_planar_grid(1, 2, 2, 2, seed=6)
    g2, _ = lc.gen_planar_grid(3, 3, 2, 2, seed=7)
    yield lc.build_game(  # two components of different depths
        g1.a_count + g2.a_count, g1.b_count + g2.b_count, 2, 2,
        list(g1.edges) + [(a + g1.a_count, b + g1.b_count) for a, b in g2.edges],
        list(g1.projections) + list(g2.projections),
    )


def test_ptas_capped_classes_equal_every_class():
    # past the BFS depth every class is empty and leaves the whole
    # component, so capping h there changes no output field
    for i, g in enumerate(capped_games()):
        depth = max(_bfs_levels(g))
        for h in range(1, depth + 7):
            rep = lc.ptas(g, Fraction(1), force_nonplanar=True, h_override=h)
            got = rep.assignment, rep.satisfied, rep.guarantee
            assert got == unclamped_ptas(g, h), (i, h)
            assert rep.breakdown == (("h", h),)
            assert rep.guarantee_ratio_of_opt == Fraction(h - 1, h)


def test_ptas_huge_h_ends_fast():
    for name in ("tiny1.lc", "grid4x4_seed7.lc"):
        g = parse_labelcover(fixture_text(name))
        want = unclamped_ptas(g, max(_bfs_levels(g)) + 6)
        for eps, h in ((Fraction(1, 2), 10**12), (Fraction(1, 10**6), None)):
            t0 = perf_counter()
            rep = lc.ptas(g, eps, h_override=h)
            assert perf_counter() - t0 < 1, (name, eps, h)
            assert (rep.assignment, rep.satisfied, rep.guarantee) == want, name
            assert rep.breakdown == (("h", h or 10**6 + 1),)
