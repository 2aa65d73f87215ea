import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import labelcover as lc
from labelcover import exact
from labelcover.core import Assignment, BudgetExceeded, ProjectionGame, _adjacency
from labelcover.exact import (
    EXACT_DECOMPOSITION_LIMIT,
    InvalidDecomposition,
    TreeDecomposition,
    _eliminate,
    _exact_order,
    _rooted_walk,
    validate_decomposition,
)


def naive_value(game, a_labels, b_labels):
    return sum(
        1
        for (a, b), table in zip(game.edges, game.projections)
        if table[a_labels[a]] == b_labels[b]
    )


def brute_both_sides(game):
    """Fully independent oracle: enumerate both sides outright."""
    best_val = -1
    for al in product(range(game.sigma_a), repeat=game.a_count):
        for bl in product(range(game.sigma_b), repeat=game.b_count):
            best_val = max(best_val, naive_value(game, al, bl))
    return best_val


def random_game(seed, n_a=3, n_b=3, k_a=3, k_b=2, p=0.6):
    rng = random.Random(seed)
    edges = [(a, b) for a in range(n_a) for b in range(n_b) if rng.random() < p]
    if not edges:
        edges = [(0, 0)]
    tables = [tuple(rng.randrange(k_b) for _ in range(k_a)) for _ in edges]
    return lc.build_game(n_a, n_b, k_a, k_b, edges, tables)


def path_game(k_a=2, k_b=2, tables=None):
    """a0 - b0 - a1: two edges."""
    edges = [(0, 0), (1, 0)]
    if tables is None:
        tables = [tuple(range(k_b)) + (0,) * (k_a - k_b)] * 2
    return lc.build_game(2, 1, k_a, k_b, edges, tables)


# --- brute force ----------------------------------------------------------

def test_brute_single_edge():
    g = lc.build_game(1, 1, 2, 2, [(0, 0)], [(0, 1)])
    phi, val = lc.brute_force_opt(g)
    assert val == 1 and lc.value(g, phi) == 1


def test_brute_tiny1_planted(tiny1):
    game, _, _ = tiny1
    phi, val = lc.brute_force_opt(game)
    assert val == game.edge_count
    assert lc.value(game, phi) == val


def test_brute_matches_double_enumeration():
    for seed in range(20):
        g = random_game(seed)
        phi, val = lc.brute_force_opt(g)
        assert lc.value(g, phi) == val
        assert val == brute_both_sides(g)


def test_brute_lexicographic_tie_break():
    # constant tables: every assignment satisfies everything, so the
    # all-zeros assignment must be returned
    g = lc.build_game(2, 2, 2, 2, [(0, 0), (1, 1)], [(0, 0), (0, 0)])
    phi, val = lc.brute_force_opt(g)
    assert val == 2
    assert phi == lc.Assignment((0, 0), (0, 0))


def test_brute_budget_exceeded():
    g, _ = lc.gen_random_satisfiable(10, 5, 4, 2, 2, seed=1)
    with pytest.raises(lc.BudgetExceeded):
        lc.brute_force_opt(g, budget=1000)


def test_brute_against_coloring_reduction():
    # diamond (K4 minus an edge) is 3-colorable, K4 itself needs 4 colors
    diamond = lc.build_coloring_graph(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    )
    dgame, _ = lc.from_planar_3col(diamond)
    _, dval = lc.brute_force_opt(dgame)
    assert dval == dgame.edge_count
    k4 = lc.build_coloring_graph(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )
    game, _ = lc.from_planar_3col(k4)
    _, val = lc.brute_force_opt(game)
    assert val < game.edge_count
    assert not lc.is_satisfiable(game)
    wheel = lc.build_coloring_graph(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)],
    )
    wgame, _ = lc.from_planar_3col(wheel)
    # planar but not 3-colorable: the satisfiability oracle must agree
    assert not lc.is_satisfiable(wgame)
    with pytest.raises(lc.BudgetExceeded):
        lc.brute_force_opt(wgame, budget=100_000)


def test_is_satisfiable_matches_brute():
    for seed in range(20):
        g = random_game(seed, k_b=3)
        _, val = lc.brute_force_opt(g)
        assert lc.is_satisfiable(g) == (val == g.edge_count)


# --- decomposition validation ----------------------------------------------

def test_validate_single_bag():
    g = path_game()
    td = lc.TreeDecomposition((frozenset({0, 1, 2}),), ())
    assert lc.validate_decomposition(g, td) == []
    assert td.width == 2


def test_validate_path_decomposition():
    g = path_game()
    # global ids: a0=0, a1=1, b0=2
    td = lc.TreeDecomposition((frozenset({0, 2}), frozenset({2, 1})), ((0, 1),))
    assert lc.validate_decomposition(g, td) == []
    assert td.width == 1


def test_validate_reports_missing_edge():
    g = path_game()
    td = lc.TreeDecomposition((frozenset({0, 2}), frozenset({1})), ((0, 1),))
    bad = lc.validate_decomposition(g, td)
    assert any("condition 2" in v and "edge 1" in v and "a1" in v for v in bad)


def test_validate_reports_coverage_and_connectivity():
    g = path_game()
    td = lc.TreeDecomposition((frozenset({0, 2}), frozenset({2})), ((0, 1),))
    bad = lc.validate_decomposition(g, td)
    assert any("condition 1" in v and "a1" in v for v in bad)
    td2 = lc.TreeDecomposition(
        (frozenset({0, 2}), frozenset({1}), frozenset({0, 2, 1})),
        ((0, 1), (1, 2)),
    )
    bad2 = lc.validate_decomposition(g, td2)
    assert any("condition 3" in v for v in bad2)


def test_validate_reports_bag_vertex_outside_game():
    g = path_game()  # global ids 0..2
    td = lc.TreeDecomposition(
        (frozenset({0, 2, -1}), frozenset({2, 1, 3, 7})), ((0, 1),)
    )
    assert lc.validate_decomposition(g, td) == [
        "bag 0: vertex -1 is not in the game",
        "bag 1: vertex 3 is not in the game",
        "bag 1: vertex 7 is not in the game",
    ]
    with pytest.raises(lc.InvalidDecomposition):
        lc.tree_dp_solve(g, td)


def scan_validate(game, td):
    """The scan-based validator the index-based one replaced, kept verbatim
    as an oracle for bags that name only game vertices."""
    name = lambda v: f"a{v}" if v < game.a_count else f"b{v - game.a_count}"
    violations = []
    nbags = len(td.bags)
    if nbags == 0:
        if game.vertex_count > 0:
            violations.append("tree: no bags but graph has vertices")
        return violations
    for i, j in td.tree:
        if not (0 <= i < nbags and 0 <= j < nbags):
            violations.append(f"tree: edge ({i}, {j}) references a missing bag")
            return violations
    if len(td.tree) != nbags - 1:
        violations.append(
            f"tree: {len(td.tree)} edges on {nbags} bags, expected {nbags - 1}"
        )
    tadj = [[] for _ in range(nbags)]
    for i, j in td.tree:
        tadj[i].append(j)
        tadj[j].append(i)
    seen = [False] * nbags
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for w in tadj[u]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        first = seen.index(False)
        violations.append(f"tree: bag {first} not reachable from bag 0")
        return violations

    covered = set().union(*td.bags) if td.bags else set()
    for v in range(game.vertex_count):
        if v not in covered:
            violations.append(f"condition 1: vertex {name(v)} not in any bag")

    for idx, (a, b) in enumerate(game.edges):
        gb = game.a_count + b
        if not any(a in bag and gb in bag for bag in td.bags):
            violations.append(
                f"condition 2: edge {idx} ({name(a)}, {name(gb)}) not "
                f"contained in any bag"
            )

    for v in range(game.vertex_count):
        holders = [i for i, bag in enumerate(td.bags) if v in bag]
        if len(holders) <= 1:
            continue
        holder_set = set(holders)
        comp = {holders[0]}
        stack = [holders[0]]
        while stack:
            u = stack.pop()
            for w in tadj[u]:
                if w in holder_set and w not in comp:
                    comp.add(w)
                    stack.append(w)
        if comp != holder_set:
            violations.append(
                f"condition 3: bags containing {name(v)} are not "
                f"connected in the tree"
            )
    return violations


def mutations(td, rng):
    """The decomposition itself plus broken copies of it."""
    bags, tree = list(td.bags), list(td.tree)
    nbags = len(bags)
    yield td
    yield lc.TreeDecomposition((), ())
    for _ in range(3):
        i = rng.randrange(nbags)
        if bags[i]:
            v = rng.choice(sorted(bags[i]))
            dropped = bags[:i] + [bags[i] - {v}] + bags[i + 1:]
            yield lc.TreeDecomposition(tuple(dropped), td.tree)
    for k in range(len(tree)):
        yield lc.TreeDecomposition(td.bags, tuple(tree[:k] + tree[k + 1:]))
        i, j = tree[k]
        missing = tree[:k] + [(i, nbags + rng.randrange(2))] + tree[k + 1:]
        yield lc.TreeDecomposition(td.bags, tuple(missing))
    for _ in range(3):
        # any link added to a tree closes a cycle; i == j is a self loop
        extra = (rng.randrange(nbags), rng.randrange(nbags))
        yield lc.TreeDecomposition(td.bags, tuple(tree + [extra]))
        if tree:
            k = rng.randrange(len(tree))
            swapped = tree[:k] + tree[k + 1:] + [extra]
            yield lc.TreeDecomposition(td.bags, tuple(swapped))


def test_validate_matches_scan_oracle_on_mutations():
    rng = random.Random(2024)
    checked = invalid = 0
    for seed in range(40):
        g = random_game(seed, n_a=1 + seed % 4, n_b=1 + seed % 3, p=0.5)
        tds = [lc.heuristic_decomposition(g), lc.exact_decomposition(g)]
        for td in tds:
            for bad in mutations(td, rng):
                got = lc.validate_decomposition(g, bad)
                assert got == scan_validate(g, bad), (seed, bad)
                checked += 1
                invalid += bool(got)
    assert invalid > checked // 2


def permuted(td, rng, root=None):
    """td with its bag indices shuffled; bag ``root`` (if given) becomes
    bag 0, the root of the validation walk and of the DP."""
    n = len(td.bags)
    new = list(range(n))
    rng.shuffle(new)
    if root is not None:
        k = new.index(0)
        new[root], new[k] = 0, new[root]
    bags = [None] * n
    for i, bag in enumerate(td.bags):
        bags[new[i]] = bag
    tree = tuple((new[i], new[j]) for i, j in td.tree)
    return lc.TreeDecomposition(tuple(bags), tree)


def middle_drops(td, rng, limit):
    """Copies of td with one vertex dropped from a holder that links two
    other holders of it, so its holders fall apart; up to ``limit``."""
    tadj = [[] for _ in td.bags]
    for i, j in td.tree:
        tadj[i].append(j)
        tadj[j].append(i)
    middles = [
        (i, v)
        for i, bag in enumerate(td.bags)
        for v in sorted(bag)
        if sum(v in td.bags[j] for j in tadj[i]) >= 2
    ]
    for i, v in rng.sample(middles, min(limit, len(middles))):
        bags = list(td.bags)
        bags[i] = bags[i] - {v}
        yield lc.TreeDecomposition(tuple(bags), td.tree)


def test_validate_matches_scan_oracle_at_scale():
    # Baker residuals of the planar benchmark's grid shapes, rooted at a
    # leaf bag, each with vertices cut out of the middle of their holders
    rng = random.Random(22)
    checked = only_condition_3 = 0
    for r, c, k_a, k_b in ((20, 20, 3, 2), (12, 12, 6, 4)):
        g = lc.gen_planar_grid(r, c, k_a, k_b, seed=r * c)[0]
        part = lc.baker_partition(g, 3)
        for res, td in zip(part.residuals, part.decompositions):
            degree = [0] * len(td.bags)
            for i, j in td.tree:
                degree[i] += 1
                degree[j] += 1
            leaf = rng.choice([i for i, d in enumerate(degree) if d == 1])
            td = permuted(td, rng, root=leaf)
            assert lc.validate_decomposition(res, td) == scan_validate(res, td) == []
            for bad in middle_drops(td, rng, 8):
                got = lc.validate_decomposition(res, bad)
                assert got and got == scan_validate(res, bad)
                checked += 1
                only_condition_3 += all(m.startswith("condition 3:") for m in got)
    assert only_condition_3 == checked == 48


# --- heuristic and exact decompositions -------------------------------------

def test_heuristic_edgeless():
    g = lc.build_game(2, 2, 2, 2, [], [])
    td = lc.heuristic_decomposition(g)
    assert lc.validate_decomposition(g, td) == []
    assert td.width == 0


def test_heuristic_tree_width_one():
    # bipartite path a0-b0-a1-b1-a2 (a tree)
    g = lc.build_game(
        3, 2, 2, 2,
        [(0, 0), (1, 0), (1, 1), (2, 1)],
        [(0, 1)] * 4,
    )
    td = lc.heuristic_decomposition(g)
    assert lc.validate_decomposition(g, td) == []
    assert td.width == 1
    assert max(len(b) for b in td.bags) <= 2


def test_heuristic_grid_width_bounded():
    g, _ = lc.gen_planar_grid(4, 4, 2, 2, seed=3)
    td = lc.heuristic_decomposition(g)
    assert lc.validate_decomposition(g, td) == []
    assert td.width <= 6


def test_exact_decomposition_optimal_on_small_graphs():
    g, _ = lc.gen_planar_grid(3, 3, 2, 2, seed=5)
    td = lc.exact_decomposition(g)
    assert lc.validate_decomposition(g, td) == []
    heur = lc.heuristic_decomposition(g)
    assert td.width <= heur.width


# --- capped subset DP against the uncapped one it replaced ---------------------
# The oracle is _exact_order as it was before the upper-bound cap, kept
# verbatim apart from its name.

def oracle_exact_order(n: int, adj: list[list[int]]) -> list[int]:
    """Minimum-width elimination order by dynamic programming over subsets.

    The width of eliminating v after the set S is the number of vertices
    outside S reachable from v through S; minimising the maximum over all
    orders yields the true treewidth.  Exponential in n, so only used for
    tiny graphs.
    """
    masks = [0] * n
    for v in range(n):
        for u in adj[v]:
            masks[v] |= 1 << u

    def reach(flood: int) -> int:
        out = 0
        while flood:
            low = flood & -flood
            out |= masks[low.bit_length() - 1]
            flood ^= low
        return out

    def elim_degree(v: int, eliminated: int) -> int:
        # grow never overlaps flood, so the loop ends when nothing is new
        flood = 1 << v
        grow = masks[v] & eliminated
        while grow:
            flood |= grow
            grow = reach(flood) & eliminated & ~flood
        return bin(reach(flood) & ~eliminated & ~(1 << v)).count("1")

    full = (1 << n) - 1
    cost = {0: 0}
    choice: dict[int, int] = {}
    subsets_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1 << n):
        subsets_by_size[bin(s).count("1")].append(s)
    for size in range(1, n + 1):
        for s in subsets_by_size[size]:
            best = None
            best_v = -1
            m = s
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                prev = s ^ low
                cand = max(cost[prev], elim_degree(v, prev))
                if best is None or cand < best:
                    best, best_v = cand, v
            cost[s] = best
            choice[s] = best_v

    order_rev = []
    s = full
    while s:
        v = choice[s]
        order_rev.append(v)
        s ^= 1 << v
    return list(reversed(order_rev))


def order_width(adj: list[list[int]], order: list[int]) -> int:
    """The width of eliminating the vertices in ``order``: the most alive
    neighbours any vertex has in the filled graph when it goes."""
    work = [set(nbrs) for nbrs in adj]
    width = -1
    for v in order:
        width = max(width, len(work[v]))
        for u in work[v]:
            work[u] |= work[v]
            work[u] -= {u, v}
    return width


def test_capped_exact_order_matches_oracle_on_every_small_graph():
    # every labelled graph of at most 5 vertices, at every bound from the
    # treewidth (the tightest cap) up to n - 1
    graphs = 0
    for n in range(6):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for bits in range(1 << len(pairs)):
            adj: list[list[int]] = [[] for _ in range(n)]
            for i, (u, v) in enumerate(pairs):
                if bits >> i & 1:
                    adj[u].append(v)
                    adj[v].append(u)
            want = oracle_exact_order(n, adj)
            for bound in range(order_width(adj, want), n):
                assert _exact_order(n, adj, bound) == want, (n, adj, bound)
            graphs += 1
    assert graphs == 1 + 1 + 2 + 8 + 64 + 1024


def test_capped_exact_order_matches_oracle_on_seeded_graphs():
    # random graphs of 6-12 vertices (20 of each size, then more of 6-9,
    # where the oracle is cheap) at the treewidth and at n - 1, then
    # exact_decomposition (capped at the min-fill width) on bipartite
    # games, small grids and their baker_partition residuals
    for seed in range(320):
        rng = random.Random(seed)
        n = 6 + seed % (7 if seed < 140 else 4)
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        adj: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            for u in range(v):
                if rng.random() < p:
                    adj[u].append(v)
                    adj[v].append(u)
        want = oracle_exact_order(n, adj)
        for bound in (order_width(adj, want), n - 1):
            assert _exact_order(n, adj, bound) == want, (seed, bound)

    def oracle_decomposition(g):
        order = iter(oracle_exact_order(g.vertex_count, _adjacency(g)))
        return _eliminate(g, lambda fills: next(order))

    games = []
    for seed in range(60):
        rng = random.Random(seed)
        n_a = rng.randint(1, 6)
        n_b = rng.randint(1, EXACT_DECOMPOSITION_LIMIT - n_a)
        games.append(lc.gen_random_satisfiable(n_a, n_b, 2, 2, rng.randint(1, n_b), seed)[0])
    for r, c in ((2, 2), (2, 3), (3, 3), (4, 5), (6, 6)):
        g, _ = lc.gen_planar_grid(r, c, 3, 2, seed=r * c)
        games.append(g)
        for h in (2, 3):
            games += lc.baker_partition(g, h).residuals
    small = [g for g in games if g.vertex_count <= EXACT_DECOMPOSITION_LIMIT]
    assert len(small) >= 75
    for g in small:
        assert lc.exact_decomposition(g) == oracle_decomposition(g)


# --- min-fill against the full rescan it replaced ---------------------------
# The oracle is heuristic_decomposition as it was before the lazy heap: it
# rescans and rescores every alive vertex at every step.  _eliminate and
# _min_fill_pick are kept verbatim apart from their names.

def oracle_eliminate(game: ProjectionGame, pick) -> TreeDecomposition:
    """Eliminate every vertex, emitting its bag and linking the bags.

    ``pick(work, alive)`` names the next vertex to eliminate; ``work[v]``
    holds v's alive neighbors in the filled graph.  Each vertex's bag is
    itself plus those neighbors, which then become a clique; the bag's
    parent is the bag of the member eliminated earliest after it.  Bags
    with no later members are chained so the result is a single tree.
    """
    n = game.vertex_count
    if n == 0:
        return TreeDecomposition((frozenset(),), ())
    work = [set(s) for s in _adjacency(game)]
    alive = set(range(n))
    pos = [0] * n
    bags: list[frozenset[int]] = []
    higher: list[set[int]] = []
    for step in range(n):
        v = pick(work, alive)
        alive.remove(v)
        pos[v] = step
        nbrs = work[v]
        for u in nbrs:
            work[u].discard(v)
            work[u] |= nbrs
            work[u].discard(u)
        bags.append(frozenset(nbrs | {v}))
        higher.append(nbrs)

    edges = []
    roots = []
    for i, nbrs in enumerate(higher):
        if nbrs:
            edges.append((i, min(pos[u] for u in nbrs)))
        else:
            roots.append(i)
    edges += zip(roots, roots[1:])
    return TreeDecomposition(tuple(bags), tuple(edges))


def oracle_min_fill_pick(work: list[set[int]], alive: set[int]) -> int:
    """The alive vertex needing the fewest fill edges, smallest on ties.

    A vertex's count stops once it cannot beat the best so far, and the
    scan stops at the first vertex needing none.
    """
    best_v, best_fill = -1, len(alive) ** 2  # more than any vertex needs
    for v in sorted(alive):
        nbrs = list(work[v])
        fill = 0
        for i, u in enumerate(nbrs):
            wu = work[u]
            for w in nbrs[i + 1:]:
                if w not in wu:
                    fill += 1
            if fill >= best_fill:
                break
        else:
            if fill == 0:
                return v
            best_v, best_fill = v, fill
    return best_v


def oracle_heuristic_decomposition(game: ProjectionGame) -> TreeDecomposition:
    return oracle_eliminate(game, oracle_min_fill_pick)


def min_fill_oracle_games():
    for seed in range(300):
        # odd seeds: dense games, every A vertex on most of B
        rng = random.Random(seed)
        n_a, n_b = rng.randint(1, 14), rng.randint(1, 14)
        degree = rng.randint(max(1, n_b - 3), n_b) if seed % 2 else rng.randint(1, min(3, n_b))
        yield lc.gen_random_satisfiable(n_a, n_b, 2, 2, degree, seed)[0]
    sources = [lc.gen_planar_grid(r, c, 3, 2, seed=r * c)[0]
               for r, c in ((2, 3), (5, 7), (12, 9), (20, 20), (30, 30))]
    for r, c in ((4, 5), (8, 8)):
        graph, _ = lc.gen_coloring_graph(r, c, Fraction(3, 4), seed=r + c)
        sources.append(lc.from_planar_3col(graph)[0])
    for g in sources:
        if g.vertex_count <= 200:
            yield g
        for h in (2, 3, 4, 5):
            yield from lc.baker_partition(g, h).residuals
    # unthinned grids, a hub on every B vertex of a grid, and double stars
    # (each leaf also on one or two of three more A vertices): here fill
    # edges close triangles at vertices outside the eliminated neighborhood
    for r in (10, 20):
        yield lc.gen_planar_grid(r, r, 3, 2, seed=r)[0]
    grid = lc.gen_planar_grid(12, 12, 3, 2, seed=12)[0]
    hub = tuple((grid.a_count, b) for b in range(grid.b_count))
    yield lc.build_game(grid.a_count + 1, grid.b_count, 3, 2, grid.edges + hub,
                        grid.projections + ((0, 1, 0),) * len(hub))
    for leaves, shares in ((30, 1), (24, 2)):
        edges = [(0, b) for b in range(leaves)]
        edges += [(1 + (b + j) % 3, b) for b in range(leaves) for j in range(shares)]
        yield lc.build_game(4, leaves, 2, 2, edges, [(0, 1)] * len(edges))
    yield lc.build_game(3, 4, 2, 2, [], [])
    yield lc.build_game(1, 0, 1, 1, [], [])
    yield lc.build_game(0, 1, 1, 1, [], [])
    yield lc.build_game(0, 0, 1, 1, [], [])


def test_min_fill_matches_oracle_sweep():
    count = 0
    for g in min_fill_oracle_games():
        td = lc.heuristic_decomposition(g)
        assert td == oracle_heuristic_decomposition(g)
        assert lc.validate_decomposition(g, td) == []
        count += 1
    assert count > 400


def test_min_fill_on_a_hub_is_not_quadratic():
    # each leaf elimination changes the centre's neighborhood; rescoring
    # the centre against its remaining leaves from scratch took about 20 s
    import time

    n = 5000
    g = lc.build_game(1, n, 2, 2, [(0, b) for b in range(n)], [(b % 2, 1) for b in range(n)])
    start = time.process_time()
    td = lc.heuristic_decomposition(g)
    spent = time.process_time() - start
    assert td.width == 1 and len(td.bags) == n + 1
    assert spent < 1.0


# --- tree DP ----------------------------------------------------------------

def test_dp_single_bag_equals_brute(tiny1):
    game = tiny1[0]
    td = lc.TreeDecomposition((frozenset(range(game.vertex_count)),), ())
    phi, val = lc.tree_dp_solve(game, td)
    assert val == lc.brute_force_opt(game)[1]
    assert lc.value(game, phi) == val


def test_dp_path_width_one():
    g = path_game(tables=[(0, 1), (1, 0)])
    td = lc.TreeDecomposition((frozenset({0, 2}), frozenset({2, 1})), ((0, 1),))
    phi, val = lc.tree_dp_solve(g, td)
    assert val == lc.brute_force_opt(g)[1]
    assert lc.value(g, phi) == val


def test_dp_invalid_decomposition_raises():
    g = path_game()
    td = lc.TreeDecomposition((frozenset({0, 2}),), ())
    with pytest.raises(lc.InvalidDecomposition):
        lc.tree_dp_solve(g, td)


def test_dp_equals_brute_on_random_sweep():
    for seed in range(15):
        g = random_game(seed, n_a=3, n_b=3, k_a=3, k_b=3)
        td = lc.heuristic_decomposition(g)
        phi, val = lc.tree_dp_solve(g, td)
        assert val == lc.brute_force_opt(g)[1]
        assert lc.value(g, phi) == val


def test_dp_on_min_fill_certificate_property():
    # planted games, sparse and dense, and (odd seeds) the same graphs with
    # tables redrawn at random, mostly unsatisfiable: wherever brute force
    # runs, the DP's count is its assignment's value and the optimum, and
    # it satisfies every edge of a planted game
    checked = 0
    for seed in range(120):
        rng = random.Random(seed)
        n_a, n_b = rng.randint(1, 6), rng.randint(1, 6)
        k_a, k_b = rng.randint(1, 3), rng.randint(1, 3)
        g, _ = lc.gen_random_satisfiable(n_a, n_b, k_a, k_b, rng.randint(1, n_b), seed)
        if seed % 2:
            tables = [tuple(rng.randrange(k_b) for _ in range(k_a)) for _ in g.edges]
            g = lc.build_game(n_a, n_b, k_a, k_b, g.edges, tables)
        try:
            _, opt = lc.brute_force_opt(g, budget=20_000)
        except BudgetExceeded:
            continue
        phi, val = lc.tree_dp_solve(g, lc.heuristic_decomposition(g))
        assert val == opt == lc.value(g, phi), seed
        if seed % 2 == 0:
            assert val == g.edge_count, seed
        checked += 1
    assert checked >= 100


def test_dp_value_independent_of_decomposition():
    for seed in range(8):
        g = random_game(seed, n_a=4, n_b=3)
        td1 = lc.heuristic_decomposition(g)
        td2 = lc.exact_decomposition(g)
        td3 = lc.TreeDecomposition((frozenset(range(g.vertex_count)),), ())
        vals = {lc.tree_dp_solve(g, td)[1] for td in (td1, td2, td3)}
        assert len(vals) == 1


def test_dp_state_cap_boundary():
    # the cap bounds exactly the typed states of every bag, summed
    for seed in range(6):
        g = random_game(seed, n_a=4, n_b=3)
        td = lc.heuristic_decomposition(g)
        states = sum(
            prod(g.sigma_a if v < g.a_count else g.sigma_b for v in bag)
            for bag in td.bags
        )
        phi, val = lc.tree_dp_solve(g, td, state_cap=states)
        assert lc.value(g, phi) == val
        with pytest.raises(lc.BudgetExceeded):
            lc.tree_dp_solve(g, td, state_cap=states - 1)


def test_dp_state_cap():
    g = random_game(3, n_a=4, n_b=4)
    td = lc.TreeDecomposition((frozenset(range(g.vertex_count)),), ())
    with pytest.raises(lc.BudgetExceeded):
        lc.tree_dp_solve(g, td, state_cap=10)


def test_dp_edge_net_count_is_one():
    # in a valid decomposition the bags holding both endpoints of an edge
    # form a subtree, so they outnumber the tree links among them by one
    for seed in range(10):
        g = random_game(seed, n_a=4, n_b=4)
        td = lc.heuristic_decomposition(g)
        assert lc.validate_decomposition(g, td) == []
        for a, b in g.edges:
            gb = g.a_count + b
            plus = sum(1 for bag in td.bags if a in bag and gb in bag)
            minus = sum(
                1
                for i, j in td.tree
                if a in td.bags[i] & td.bags[j] and gb in td.bags[i] & td.bags[j]
            )
            assert plus - minus == 1


# --- the DP against the one it replaced ------------------------------------
# The oracle is tree_dp_solve as it was before each edge was owned by one
# bag: it counts an edge at every bag holding both endpoints and subtracts
# it once per tree link.  Kept verbatim apart from its name.

def oracle_tree_dp_solve(
    game: ProjectionGame,
    td: TreeDecomposition,
    state_cap: int | None = None,
    return_stats: bool = False,
):
    """Exact optimum by dynamic programming over a tree decomposition.

    Bags are processed bottom-up from the root (bag 0).  A bag state is a
    typed assignment of its vertices (A members draw from the A alphabet,
    B members from the B alphabet).  The value of a state is the edges
    inside the bag it satisfies, plus for every child the best compatible
    child state minus the edges inside the shared intersection, so each
    edge is counted net exactly once.  The optimal assignment is recovered
    by storing each child's argmax per intersection assignment and
    backtracking from the root maximizer.

    Returns (assignment, value), plus a stats dict with the enumerated
    state count when ``return_stats`` is set.
    """
    violations = validate_decomposition(game, td)
    if violations:
        raise InvalidDecomposition("; ".join(violations))

    if game.vertex_count == 0:
        phi = Assignment((), ())
        return (phi, 0, {"states": 0}) if return_stats else (phi, 0)

    tadj, parent, order = _rooted_walk(len(td.bags), td.tree)
    post = order[::-1]  # children before parents

    bag_vertices = [sorted(bag) for bag in td.bags]
    kd = [
        [game.sigma_a if v < game.a_count else game.sigma_b for v in verts]
        for verts in bag_vertices
    ]
    holders = [{i for i, bag in enumerate(td.bags) if v in bag}
               for v in range(game.vertex_count)]
    bag_edges: list[list[tuple[int, int, int]]] = [[] for _ in td.bags]
    for e, (a, b) in enumerate(game.edges):
        gb = game.a_count + b
        for i in holders[a] & holders[gb]:
            bag_edges[i].append((e, a, gb))

    def sat_inside(verts, labels, edge_list):
        lab = dict(zip(verts, labels))
        count = 0
        for e, ga, gb in edge_list:
            if game.projections[e][lab[ga]] == lab[gb]:
                count += 1
        return count

    states = 0
    # per non-root bag: its sorted vertices shared with the parent, and the
    # argmax full state (with its value) per restriction to them
    up: dict[int, list[int]] = {}
    child_best: dict[int, dict[tuple[int, ...], tuple[int, tuple[int, ...]]]] = {}

    for i in post:
        verts = bag_vertices[i]
        radix = kd[i]
        states += prod(radix)
        if state_cap is not None and states > state_cap:
            raise BudgetExceeded(f"DP state count exceeded {state_cap}")
        children = [w for w in tadj[i] if parent[w] == i]
        shared_edges = {}
        for w in children:
            inter_set = set(up[w])
            shared_edges[w] = [
                (e, ga, gb) for (e, ga, gb) in bag_edges[i]
                if ga in inter_set and gb in inter_set
            ]
        table: dict[tuple[int, ...], int] = {}
        pos_of = {v: idx for idx, v in enumerate(verts)}

        for state in product(*(range(k) for k in radix)):
            val = sat_inside(verts, state, bag_edges[i])
            ok = True
            for w in children:
                restr = tuple(state[pos_of[v]] for v in up[w])
                entry = child_best[w].get(restr)
                if entry is None:
                    ok = False
                    break
                val += entry[0] - sat_inside(verts, state, shared_edges[w])
            if ok:
                table[state] = val

        if parent[i] != -1:
            up[i] = sorted(td.bags[i] & td.bags[parent[i]])
            idxs = [pos_of[v] for v in up[i]]
            best: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
            for state, val in table.items():
                restr = tuple(state[j] for j in idxs)
                cur = best.get(restr)
                if cur is None or val > cur[0]:
                    best[restr] = (val, state)
            child_best[i] = best

    # post ends at the root, bag 0; max keeps the first best state
    best_state, best_val = max(table.items(), key=lambda item: item[1])

    a_labels = [0] * game.a_count
    b_labels = [0] * game.b_count

    def record(bag_idx, state):
        for v, s in zip(bag_vertices[bag_idx], state):
            if v < game.a_count:
                a_labels[v] = s
            else:
                b_labels[v - game.a_count] = s

    stack = [(0, best_state)]
    while stack:
        i, state = stack.pop()
        record(i, state)
        pos_of = {v: idx for idx, v in enumerate(bag_vertices[i])}
        for w in tadj[i]:
            if parent[w] == i:
                restr = tuple(state[pos_of[v]] for v in up[w])
                stack.append((w, child_best[w][restr][1]))

    phi = Assignment(tuple(a_labels), tuple(b_labels))
    if return_stats:
        return phi, best_val, {"states": states}
    return phi, best_val


def duplicated(td):
    """td under a copy of its root bag, with a leaf copy of every bag."""
    n = len(td.bags)
    bags = (td.bags[0],) + td.bags + td.bags
    tree = (
        ((0, 1),)
        + tuple((i + 1, j + 1) for i, j in td.tree)
        + tuple((i + 1, n + 1 + i) for i in range(n))
    )
    return lc.TreeDecomposition(bags, tree)


def leaf_copy(td):
    """td with a copy of its first leaf bag hung under that leaf: the
    copy's edges have a second holder, later in any preorder."""
    degree = [0] * len(td.bags)
    for i, j in td.tree:
        degree[i] += 1
        degree[j] += 1
    leaf = degree.index(min(degree))
    return lc.TreeDecomposition(td.bags + (td.bags[leaf],), td.tree + ((leaf, len(td.bags)),))


def dp_oracle_cases():
    # permuted decompositions root the walk at any bag, not at min-fill's
    # bag 0, so each edge's first holder in preorder moves
    shuffle = random.Random(22)
    for seed in range(300):
        # odd seeds: dense games with redrawn tables, most unsatisfiable
        rng = random.Random(seed)
        lo = 1 + seed % 2
        n_a, n_b = rng.randint(lo, 4), rng.randint(lo, 4)
        k_a, k_b = rng.randint(lo, 3), rng.randint(lo, 3)
        degree = n_b if seed % 2 else rng.randint(1, n_b)
        g, _ = lc.gen_random_satisfiable(n_a, n_b, k_a, k_b, degree, seed)
        if seed % 2:
            tables = [tuple(rng.randrange(k_b) for _ in range(k_a)) for _ in g.edges]
            g = lc.build_game(n_a, n_b, k_a, k_b, g.edges, tables)
        heur = lc.heuristic_decomposition(g)
        single = lc.TreeDecomposition((frozenset(range(g.vertex_count)),), ())
        yield from ((g, td) for td in (heur, single, duplicated(heur)))
        yield g, permuted(heur, shuffle)
        yield g, permuted(leaf_copy(heur), shuffle)
        if g.vertex_count <= EXACT_DECOMPOSITION_LIMIT:
            yield g, lc.exact_decomposition(g)
    grids = [lc.gen_planar_grid(r, c, 2, 2, seed=r * c)[0] for r, c in ((3, 3), (4, 5), (7, 8))]
    graph, _ = lc.gen_coloring_graph(4, 5, Fraction(3, 4), 0)
    for g in grids + [lc.from_planar_3col(graph)[0]]:
        part = lc.baker_partition(g, 3)
        yield from zip(part.residuals, part.decompositions)
    # residuals shaped like the planar benchmark's 5/3 and 6/4 grids: mixed
    # radices, and links of two or more positions that are not a prefix
    for r, c, k_a, k_b in ((6, 7, 5, 3), (10, 10, 5, 3), (7, 7, 6, 4), (12, 12, 6, 4)):
        g = lc.gen_planar_grid(r, c, k_a, k_b, seed=r * c)[0]
        for h in (2, 3):
            part = lc.baker_partition(g, h)
            yield from zip(part.residuals, part.decompositions)
            for res, td in zip(part.residuals, part.decompositions):
                yield res, permuted(leaf_copy(td), shuffle)
    for g in (lc.build_game(2, 3, 2, 2, [], []), lc.build_game(0, 0, 1, 1, [], [])):
        yield g, lc.heuristic_decomposition(g)
        yield g, duplicated(lc.heuristic_decomposition(g))


def test_dp_matches_oracle_sweep():
    count = 0
    for g, td in dp_oracle_cases():
        got = lc.tree_dp_solve(g, td)
        assert got == oracle_tree_dp_solve(g, td)
        assert lc.value(g, got[0]) == got[1]
        count += 1
    assert count > 1000


def test_dp_matches_oracle_when_the_memo_empties_mid_call(monkeypatch):
    # a budget of 8 entries empties the memo at nearly every store, so
    # readers and leaf results are rebuilt within a call
    cleared = 0

    def counting_clear(memo):
        nonlocal cleared
        cleared += 1
        dict.clear(memo)

    monkeypatch.setattr(exact, "_GATHER_CODES", 8)
    monkeypatch.setattr(exact._Memo, "clear", counting_clear)
    for g, td in dp_oracle_cases():
        assert lc.tree_dp_solve(g, td) == oracle_tree_dp_solve(g, td)
    assert cleared > 1000


def star_of_stars():
    """Three A centres, each with B leaves under constant tables, in a
    decomposition whose leaf bags {a, b} hang under a centre's bag, under
    the root or under a bag {a0, b9} that holds their B end: leaf bags
    share a memo key under different parents, or differ only in the
    position of the vertex they share."""
    ones, zeros = (1, 1, 1), (0, 0, 0)
    edges = [(0, b) for b in range(4)] + [(1, b) for b in range(4, 8)] + [(2, 8), (0, 9), (3, 9)]
    tables = [ones, zeros, ones, ones, zeros, ones, ones, zeros, ones, zeros, ones]
    g = lc.build_game(4, 10, 3, 2, edges, tables)
    bags = [frozenset({0, 1, 2}), frozenset({0}), frozenset({1}), frozenset({0, 4 + 9})]
    tree = [(0, 1), (0, 2), (1, 3)]
    for a, b in edges[:9] + [(3, 9)]:
        tree.append(({0: 1, 1: 2, 2: 0, 3: 3}[a], len(bags)))
        bags.append(frozenset({a, 4 + b}))
    return g, TreeDecomposition(tuple(bags), tuple(tree))


def test_dp_leaf_memo_on_a_star_of_stars(monkeypatch):
    g, td = star_of_stars()
    assert validate_decomposition(g, td) == []
    stored = []
    keep = exact._Memo.keep

    def recording_keep(memo, key, *rest):
        stored.append(key[0] == "leaf")
        return keep(memo, key, *rest)

    monkeypatch.setattr(exact._Memo, "keep", recording_keep)
    phi, val = lc.tree_dp_solve(g, td)
    # every A label ties, so each takes the first best, 0; each B label is
    # its table's constant, but b9's two tables tie and it takes 0
    assert phi == Assignment((0, 0, 0, 0), (1, 0, 1, 1, 0, 1, 1, 0, 1, 0))
    assert val == g.edge_count - 1 == lc.value(g, phi)
    assert (phi, val) == oracle_tree_dp_solve(g, td)
    # ten leaf bags, three keys (two tables at the shared A end, and one at
    # the shared B end): the other seven are memo hits
    assert sum(stored) == 3
    # memo hits still count their states toward the cap
    states = sum(prod(3 if v < g.a_count else 2 for v in bag) for bag in td.bags)
    assert lc.tree_dp_solve(g, td, state_cap=states) == (phi, val)
    with pytest.raises(lc.BudgetExceeded):
        lc.tree_dp_solve(g, td, state_cap=states - 1)


def test_dp_star_with_many_leaf_bags():
    # one bag per leaf, all under the centre's bag: the root sums 100000
    # child factors, past the depth at which nested iterators overflow the
    # C stack
    n = 100_000
    g = lc.build_game(
        1, n, 3, 2, [(0, b) for b in range(n)], [(b % 2, b // 2 % 2, 1) for b in range(n)]
    )
    bags = (frozenset({0}),) + tuple(frozenset({0, 1 + b}) for b in range(n))
    td = lc.TreeDecomposition(bags, tuple((0, 1 + b) for b in range(n)))
    phi, val = lc.tree_dp_solve(g, td)
    assert val == lc.brute_force_opt(g)[1] == lc.value(g, phi)


def test_dp_wide_bag_memory_is_a_few_bag_lists():
    # one bag of 3**11 states owning 30 edges: the value and code lists in
    # memory at once stay a few, not one per owned edge
    import sys
    import tracemalloc

    rng = random.Random(7)
    edges = [(a, b) for a in range(5) for b in range(6)]
    tables = [tuple(rng.randrange(3) for _ in range(3)) for _ in edges]
    g = lc.build_game(5, 6, 3, 3, edges, tables)
    td = lc.TreeDecomposition((frozenset(range(11)),), ())
    tracemalloc.start()
    try:
        got = lc.tree_dp_solve(g, td)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == oracle_tree_dp_solve(g, td)
    assert peak < 8 * sys.getsizeof([0] * 3**11)


# --- satisfiability through the shared walk ---------------------------------
# The oracle is is_satisfiable as it was before it became a call into
# core._extensions, kept verbatim apart from its name.

def oracle_is_satisfiable(game: ProjectionGame, budget: int | None = None) -> bool:
    """Decide whether some assignment satisfies every edge.

    Backtracks over B labels, pruning any branch that leaves some A vertex
    without a consistent symbol.  ``budget`` caps the number of (vertex,
    symbol) trials.
    """
    full = (1 << game.sigma_a) - 1
    a_mask = [full] * game.a_count
    pre = game.preimage_masks
    bs = [b for b in range(game.b_count) if game.b_edges[b]]
    trials = 0

    def dfs(i: int) -> bool:
        nonlocal trials
        if i == len(bs):
            return True
        b = bs[i]
        for sb in range(game.sigma_b):
            trials += 1
            if budget is not None and trials > budget:
                raise BudgetExceeded(f"satisfiability search exceeded {budget} trials")
            touched = []
            ok = True
            for e in game.b_edges[b]:
                a = game.edges[e][0]
                new = a_mask[a] & pre[e][sb]
                if new == 0:
                    ok = False
                    break
                touched.append((a, a_mask[a]))
                a_mask[a] = new
            if ok and dfs(i + 1):
                return True
            for a, old in reversed(touched):
                a_mask[a] = old
        return False

    return dfs(0)


def sat_outcome(fn, game, budget):
    try:
        return fn(game, budget=budget)
    except lc.BudgetExceeded as exc:
        return ("budget", str(exc))


def test_is_satisfiable_matches_oracle_at_every_budget():
    answers = []
    for i in range(120):
        rng = random.Random(2000 + i)
        n_a, n_b = 1 + i % 4, rng.randint(3, 7)
        k_a, k_b = rng.randint(2, 4), rng.randint(2, 4)
        degree = rng.randint((n_b + 1) // 2, n_b)
        game, _ = lc.gen_random_satisfiable(n_a, n_b, k_a, k_b, degree, seed=i)
        if i % 2:  # redrawn tables: most of these games are unsatisfiable
            tables = [tuple(rng.randrange(k_b) for _ in range(k_a)) for _ in game.edges]
            game = lc.build_game(n_a, n_b, k_a, k_b, game.edges, tables)
        budget = 1
        while True:
            want = sat_outcome(oracle_is_satisfiable, game, budget)
            assert sat_outcome(lc.is_satisfiable, game, budget) == want
            if want in (True, False):
                break
            budget += 1
        assert lc.is_satisfiable(game) == want
        answers.append(want)
    assert answers.count(False) >= 40 and answers.count(True) >= 40
