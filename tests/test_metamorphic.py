"""Relabeling relations: renumbering a game's A vertices, B vertices, each
vertex's symbols and its edges changes none of the quantities the
algorithms certify.

That makes an oracle at any size, where the naive references cannot go
(Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 2018).  Assignments are not
compared: ties break to the smallest index, and a relabeling moves it.
"""

import random
import re
from fractions import Fraction

import pytest

import labelcover as lc


def relabel(game, rng):
    """``game`` with its A vertices, its B vertices, each vertex's symbols
    and its edge order permuted by ``rng``; the tables are rewritten so that
    edge (a, b) with table T becomes (pa[a], pb[b]) with T'[alpha_a[s]] =
    beta_b[T[s]]."""

    def perm(n):
        p = list(range(n))
        rng.shuffle(p)
        return p

    pa, pb = perm(game.a_count), perm(game.b_count)
    alpha = [perm(game.sigma_a) for _ in range(game.a_count)]
    beta = [perm(game.sigma_b) for _ in range(game.b_count)]
    rows = []
    for (a, b), table in zip(game.edges, game.projections):
        new = [0] * game.sigma_a
        for s, t in enumerate(table):
            new[alpha[a][s]] = beta[b][t]
        rows.append(((pa[a], pb[b]), tuple(new)))
    rng.shuffle(rows)
    return lc.build_game(
        game.a_count, game.b_count, game.sigma_a, game.sigma_b,
        [edge for edge, _ in rows], [table for _, table in rows],
    )


def invariants(game):
    """What no relabeling may change: sigma*'s largest h_star, its
    per-vertex admissible counts and its per-key h_star and good two-hop
    sizes, best_of's guarantee, and the stats it builds on."""
    st = lc.compute_stats(game)
    cache = lc.compute_sigma_star(game, st)
    guarantee = lc.best_of(game, st, cache).guarantee
    good = [cache.good(a, s) for a, symbols in enumerate(cache.sigma_star) for s in symbols]
    return {
        "h_star_max": cache.h_star_max,
        "admissible": sorted(map(len, cache.sigma_star)),
        "h_star": sorted(h for _, _, h in good),
        "n2_star": sorted(len(n2) for _, n2, _ in good),
        "guarantee": guarantee,
        "p_bar_max": st.p_bar_max,
        "h_max": st.h_max,
        "e_n_max": st.e_n_max,
        "uniform_p": st.uniform_p,
        "h": sorted(st.h),
    }


def test_relabel_is_a_relabeling():
    # same shape and degrees, another numbering, still satisfiable; the
    # same rng state gives the same game
    g, _ = lc.gen_random_satisfiable(30, 20, 4, 2, 3, seed=4)
    r = relabel(g, random.Random(1))
    assert (r.a_count, r.b_count, r.sigma_a, r.sigma_b, r.edge_count) == (
        g.a_count, g.b_count, g.sigma_a, g.sigma_b, g.edge_count)
    assert sorted(map(len, r.a_edges)) == sorted(map(len, g.a_edges))
    assert sorted(map(len, r.b_edges)) == sorted(map(len, g.b_edges))
    assert r.edges != g.edges and r.projections != g.projections
    assert lc.is_satisfiable(r)
    assert relabel(g, random.Random(1)) == r


def test_relabeling_keeps_sigma_star_and_best_of_on_a_large_sparse_game():
    # 10,000 edges: far past the naive references, which enumerate symbol
    # tuples; two relabelings each
    g, _ = lc.gen_random_satisfiable(2000, 1000, 8, 3, 5, seed=21)
    assert g.edge_count == 10_000
    want = invariants(g)
    assert want["h_star_max"] > 0 and want["guarantee"] > 0
    rng = random.Random(7)
    for _ in range(2):
        assert invariants(relabel(g, rng)) == want


def random_tables(game, rng):
    """``game``'s graph and alphabets with every table drawn afresh: no
    plant, so the game may be unsatisfiable."""
    tables = [tuple(rng.randrange(game.sigma_b) for _ in range(game.sigma_a))
              for _ in game.edges]
    return lc.build_game(game.a_count, game.b_count, game.sigma_a, game.sigma_b,
                         game.edges, tables)


def _small_games():
    rng = random.Random(2027)
    planted = []
    for i in range(8):
        seed = rng.randrange(1 << 30)
        planted.append((seed, lc.gen_random_satisfiable(6, 5, 3, 2, 2, seed=seed)[0]))
        yield planted[-1][1]
        yield lc.gen_random_satisfiable(6, 4, 4, 2, 2, seed=seed, uniform=True)[0]
        yield lc.gen_planar_grid(2, 3 + i % 2, 3, 2, seed=seed)[0]
        coloring, _ = lc.gen_coloring_graph(2, 2, 0.6, seed=seed)
        if coloring.edges:
            yield lc.from_planar_3col(coloring)[0]
    for seed, game in planted:
        yield random_tables(game, random.Random(seed))


@pytest.mark.parametrize("i, game", list(enumerate(_small_games())))
def test_relabeling_keeps_the_optimum_on_small_games(i, game):
    want = invariants(game), lc.brute_force_opt(game)[1], lc.is_satisfiable(game)
    rng = random.Random(i)
    for _ in range(2):
        r = relabel(game, rng)
        assert (invariants(r), lc.brute_force_opt(r)[1], lc.is_satisfiable(r)) == want


def test_small_games_include_unsatisfiable_ones():
    assert {lc.is_satisfiable(g) for g in _small_games()} == {False, True}


def test_relabeling_keeps_the_tree_dp_optimum_on_an_unplanted_grid():
    # 10x10 grid, 180 edges, 3^50 A assignments: beyond brute force; each
    # relabeling gets its own min-fill decomposition
    g = random_tables(lc.gen_planar_grid(10, 10, 3, 2, seed=5)[0], random.Random(5))
    phi, want = lc.tree_dp_solve(g, lc.heuristic_decomposition(g))
    assert 0 < want < g.edge_count and lc.value(g, phi) == want
    rng = random.Random(3)
    for _ in range(2):
        r = relabel(g, rng)
        phi, got = lc.tree_dp_solve(r, lc.heuristic_decomposition(r))
        assert got == want and lc.value(r, phi) == want


def test_relabeling_keeps_satisfiability_and_smoothness_on_smooth_games():
    # below a loose target the pairs' collision fractions differ, so a
    # measure that skips some symbol pairs reads another maximum after a
    # relabeling
    for seed, shape in enumerate(((4, 12, 3, 7, 12, Fraction(1, 12)),
                                  (4, 12, 3, 7, 12, Fraction(1, 2)),
                                  (6, 10, 4, 5, 6, Fraction(1)),
                                  (5, 8, 3, 4, 8, Fraction(1, 2)))):
        g, report, _ = lc.gen_smooth(*shape, seed=seed)
        want = lc.is_satisfiable(g), report.mu
        rng = random.Random(seed)
        for _ in range(2):
            r = relabel(g, rng)
            assert (lc.is_satisfiable(r), lc.measure_smoothness(r).mu) == want


# --- decompositions: link order, link orientation and bag numbering -----
# On a tree every bag's parent from bag 0 is unique, so neither the order
# nor the orientation of the links, nor the numbers of the bags below the
# root, can change an edge's owner, a bag's first-best state or any
# violation; the DP sums its children's values, so their order picks
# nothing either.

def reorient(td, rng):
    """``td`` with its links shuffled and each flipped at random."""
    links = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in td.tree]
    rng.shuffle(links)
    return lc.TreeDecomposition(td.bags, tuple(links))


def renumber(td, rng):
    """``td`` with every bag but the root moved to a new index."""
    p = list(range(1, len(td.bags)))
    rng.shuffle(p)
    p = [0] + p
    bags = [None] * len(td.bags)
    for i, bag in enumerate(td.bags):
        bags[p[i]] = bag
    return lc.TreeDecomposition(tuple(bags), tuple((p[i], p[j]) for i, j in td.tree))


def _decomposed_games():
    rng = random.Random(2029)
    for seed in range(4):
        grid = lc.gen_planar_grid(3 + seed % 2, 4, 3, 2, seed=seed)[0]
        yield random_tables(grid, rng) if seed % 2 else grid
        coloring, _ = lc.gen_coloring_graph(2, 3, Fraction(3, 4), seed=seed)
        yield lc.from_planar_3col(coloring)[0]
        planted = lc.gen_random_satisfiable(7, 5, 3, 2, 2, seed=seed)[0]
        yield random_tables(planted, rng) if seed % 2 else planted


def test_tree_dp_ignores_link_order_orientation_and_bag_numbers():
    rng = random.Random(1)
    for game in _decomposed_games():
        td = lc.heuristic_decomposition(game)
        want = lc.tree_dp_solve(game, td)
        assert lc.value(game, want[0]) == want[1]
        for _ in range(3):
            moved = reorient(td, rng)
            assert lc.validate_decomposition(game, moved) == []
            assert lc.tree_dp_solve(game, moved) == want
            assert lc.tree_dp_solve(game, renumber(moved, rng)) == want


def test_violations_ignore_link_order_and_orientation():
    # random bags over a few vertices outside the game too, on trees,
    # forests and link sets that close cycles
    rng = random.Random(2)
    kinds = set()
    for _ in range(300):
        n_a, n_b = rng.randint(0, 4), rng.randint(0, 4)
        pairs = [(a, b) for a in range(n_a) for b in range(n_b)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        game = lc.build_game(n_a, n_b, 2, 2, edges, [(0, 1)] * len(edges))
        n, nbags = game.vertex_count, rng.randint(1, 6)
        bags = tuple(frozenset(rng.sample(range(-1, n + 1), rng.randint(0, n + 2)))
                     for _ in range(nbags))
        links = [(i, rng.randrange(i)) for i in range(1, nbags) if rng.random() < 0.9]
        links += [(rng.randrange(nbags), rng.randrange(nbags))
                  for _ in range(rng.random() < 0.4)]
        td = lc.TreeDecomposition(bags, tuple(links))
        want = lc.validate_decomposition(game, td)
        kinds.update(re.match(r"tree|bag|condition \d", v)[0] for v in want)
        for _ in range(2):
            assert lc.validate_decomposition(game, reorient(td, rng)) == want
    assert kinds == {"tree", "bag", "condition 1", "condition 2", "condition 3"}
