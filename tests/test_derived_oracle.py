"""Derived games and planted generators against their earlier forms.

The ``oracle_*`` functions below are ``connected_components``,
``residual_game``, ``gen_random_satisfiable``, ``gen_planar_grid``,
``gen_smooth`` and ``extract_tiling`` as they stood before components and
residuals were carved by one ``core._subgame`` and the generators drew
their plants through one ``reductions._planted``.  The generator oracles
draw with ``random.Random.randrange`` and ``shuffle``, so they also pin the
current code's ``getrandbits`` draws (``reductions._draws``) to the stdlib
stream.  ``oracle_bipartite_graph`` is ``_bipartite_graph`` before its
isolated-B repair became one draw per isolated B vertex, and
``oracle_gen_matrix_tiling`` is ``gen_matrix_tiling`` before it drew
through ``_draws``.  ``OracleTilingMaps``, ``oracle_tiling_layout``,
``oracle_from_matrix_tiling`` and ``oracle_layout_extract_tiling`` are the
tiling reduction as it stood when it numbered cells and connectors through
two dictionaries keyed by doubled coordinates.  On seeded sweeps the
current code must return an ``==`` result or raise the same error (class
and message).
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import labelcover as lc
from labelcover import formats, planar, reductions
from labelcover.core import (
    Assignment,
    Component,
    InfeasibleParams,
    _adjacency,
    _draw_threshold,
    _majority_b_symbol,
    build_game,
    check_assignment,
)
from labelcover.reductions import (
    GenerationFailed,
    TilingSolution,
    _bipartite_graph,
)
from labelcover.smooth import measure_smoothness


def oracle_connected_components(game):
    n = game.vertex_count
    comp_of = [-1] * n
    adj = _adjacency(game)
    comps = 0
    for start in range(n):
        if comp_of[start] != -1:
            continue
        stack = [start]
        comp_of[start] = comps
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if comp_of[v] == -1:
                    comp_of[v] = comps
                    stack.append(v)
        comps += 1

    out = []
    for c in range(comps):
        a_verts = [a for a in range(game.a_count) if comp_of[a] == c]
        b_verts = [
            b for b in range(game.b_count) if comp_of[game.a_count + b] == c
        ]
        a_local = {a: i for i, a in enumerate(a_verts)}
        b_local = {b: i for i, b in enumerate(b_verts)}
        eids = [i for i, (a, _) in enumerate(game.edges) if comp_of[a] == c]
        sub = build_game(
            len(a_verts),
            len(b_verts),
            game.sigma_a,
            game.sigma_b,
            [(a_local[game.edges[i][0]], b_local[game.edges[i][1]]) for i in eids],
            [game.projections[i] for i in eids],
        )
        out.append(
            Component(sub, tuple(a_verts), tuple(b_verts), tuple(eids))
        )
    return out


def oracle_residual_game(game, removed):
    keep = [i for i in range(game.edge_count) if i not in removed]
    return build_game(
        game.a_count,
        game.b_count,
        game.sigma_a,
        game.sigma_b,
        [game.edges[i] for i in keep],
        [game.projections[i] for i in keep],
    )


def oracle_bipartite_graph(rng, n_a, n_b, degree):
    if n_a < 1 or n_b < 1:
        raise InfeasibleParams("both sides need at least one vertex")
    if not 1 <= degree <= n_b:
        raise InfeasibleParams(f"degree must be in [1, {n_b}]")
    edges = []
    adjacent = [set() for _ in range(n_a)]
    for a in range(n_a):
        for b in sorted(rng.sample(range(n_b), degree)):
            edges.append((a, b))
            adjacent[a].add(b)
    b_deg = [0] * n_b
    for _, b in edges:
        b_deg[b] += 1
    for b in range(n_b):
        if b_deg[b]:
            continue
        free = [a for a in range(n_a) if len(adjacent[a]) < n_b]
        a = free[rng.randrange(len(free))]
        edges.append((a, b))
        adjacent[a].add(b)
    return edges


def oracle_gen_matrix_tiling(grid_size, coord_max, density, seed, solvable=False):
    if grid_size < 1 or coord_max < 1:
        raise InfeasibleParams("grid size and coordinate range must be positive")
    rng = random.Random(seed)
    density = _draw_threshold(density)
    cells = []
    row_val = [rng.randrange(1, coord_max + 1) for _ in range(grid_size)]
    col_val = [rng.randrange(1, coord_max + 1) for _ in range(grid_size)]
    for i in range(grid_size):
        for j in range(grid_size):
            members = {
                (x, y)
                for x in range(1, coord_max + 1)
                for y in range(1, coord_max + 1)
                if rng.random() < density
            }
            if solvable:
                members.add((row_val[i], col_val[j]))
            cells.append(members)
    return lc.build_matrix_tiling(grid_size, coord_max, cells)


def oracle_gen_random_satisfiable(n_a, n_b, k_a, k_b, degree, seed, uniform=False):
    if k_a < 1 or k_b < 1:
        raise InfeasibleParams("alphabets must be nonempty")
    if uniform and k_a % k_b:
        raise InfeasibleParams("uniform tables need k_b to divide k_a")
    rng = random.Random(seed)
    edges = _bipartite_graph(rng, n_a, n_b, degree)
    a_opt = [rng.randrange(k_a) for _ in range(n_a)]
    b_opt = [rng.randrange(k_b) for _ in range(n_b)]
    tables = []
    for a, b in edges:
        if uniform:
            pool = [s for s in range(k_b) for _ in range(k_a // k_b)]
            pool.remove(b_opt[b])
            rng.shuffle(pool)
            table = pool[: a_opt[a]] + [b_opt[b]] + pool[a_opt[a]:]
        else:
            table = [rng.randrange(k_b) for _ in range(k_a)]
            table[a_opt[a]] = b_opt[b]
        tables.append(tuple(table))
    game = build_game(n_a, n_b, k_a, k_b, edges, tables)
    return game, Assignment(tuple(a_opt), tuple(b_opt))


def oracle_gen_smooth(n_a, n_b, k_a, k_b, degree, mu_target, seed, max_tries=2000):
    if k_b < 2 or degree < k_b:
        raise InfeasibleParams("needs degree >= k_b >= 2")
    rng = random.Random(seed)
    edges = _bipartite_graph(rng, n_a, n_b, degree)
    a_nbrs = [[] for _ in range(n_a)]
    for a, b in edges:
        a_nbrs[a].append(b)
    a_opt = [rng.randrange(k_a) for _ in range(n_a)]
    b_opt = [rng.randrange(k_b) for _ in range(n_b)]

    rows_per_a = []
    for a in range(n_a):
        nbrs = a_nbrs[a]
        d = len(nbrs)
        limit = mu_target * d
        planted_row = [b_opt[b] for b in nbrs]
        for _ in range(max_tries):
            rows = [
                [rng.randrange(k_b) for _ in range(d)] for _ in range(k_a)
            ]
            rows[a_opt[a]] = planted_row
            ok = True
            for s in range(k_a):
                for s2 in range(s + 1, k_a):
                    coll = sum(1 for p in range(d) if rows[s][p] == rows[s2][p])
                    if coll > limit:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                break
        else:
            raise GenerationFailed(
                f"vertex a{a}: no row set under mu = {mu_target} in {max_tries} tries"
            )
        rows_per_a.append(rows)

    pos_in_a = {}
    counters = [0] * n_a
    for e, (a, b) in enumerate(edges):
        pos_in_a[e] = counters[a]
        counters[a] += 1
    tables = [
        tuple(rows_per_a[a][s][pos_in_a[e]] for s in range(k_a))
        for e, (a, b) in enumerate(edges)
    ]
    game = build_game(n_a, n_b, k_a, k_b, edges, tables)
    report = measure_smoothness(game)
    return game, report, Assignment(tuple(a_opt), tuple(b_opt))


def oracle_gen_planar_grid(rows, cols, k_a, k_b, seed):
    if rows < 1 or cols < 1:
        raise InfeasibleParams("grid needs positive dimensions")
    if k_a < 1 or k_b < 1:
        raise InfeasibleParams("alphabets must be nonempty")
    rng = random.Random(seed)
    a_index = {}
    b_index = {}
    for r in range(rows):
        for c in range(cols):
            if (r + c) % 2 == 0:
                a_index[(r, c)] = len(a_index)
            else:
                b_index[(r, c)] = len(b_index)
    edges = []
    for r in range(rows):
        for c in range(cols):
            if (r, c) not in a_index:
                continue
            a = a_index[(r, c)]
            for rr, cc in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
                if (rr, cc) in b_index:
                    edges.append((a, b_index[(rr, cc)]))
    n_a, n_b = len(a_index), len(b_index)
    a_opt = [rng.randrange(k_a) for _ in range(n_a)]
    b_opt = [rng.randrange(k_b) for _ in range(n_b)]
    tables = []
    for a, b in edges:
        table = [rng.randrange(k_b) for _ in range(k_a)]
        table[a_opt[a]] = b_opt[b]
        tables.append(tuple(table))
    game = build_game(n_a, n_b, k_a, k_b, edges, tables)
    return game, Assignment(tuple(a_opt), tuple(b_opt))


@dataclass(frozen=True)
class OracleTilingMaps:
    cell_vertex: dict[tuple[int, int], int]
    connector_vertex: dict[tuple[int, int], int]
    coord_max: int

    def pair_symbol(self, x: int, y: int) -> int:
        return (x - 1) * self.coord_max + (y - 1)

    def symbol_pair(self, s: int) -> tuple[int, int]:
        return s // self.coord_max + 1, s % self.coord_max + 1

    @property
    def square_symbol(self) -> int:  # conflict marker for the high side
        return self.coord_max

    @property
    def diamond_symbol(self) -> int:  # conflict marker for the low side
        return self.coord_max + 1


def oracle_tiling_layout(t):
    """Vertex numbering and the canonical edge list (as doubled coords)."""
    k = t.grid_size
    cell_vertex = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            cell_vertex[(2 * i, 2 * j)] = (i - 1) * k + (j - 1)
    connector_vertex = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if j < k:
                connector_vertex[(2 * i, 2 * j + 1)] = len(connector_vertex)
            if i < k:
                connector_vertex[(2 * i + 1, 2 * j)] = len(connector_vertex)
    edges = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            cell = (2 * i, 2 * j)
            for conn in (
                (2 * i - 1, 2 * j),  # up
                (2 * i, 2 * j - 1),  # left
                (2 * i, 2 * j + 1),  # right
                (2 * i + 1, 2 * j),  # down
            ):
                if conn in connector_vertex:
                    edges.append((cell, conn))
    return OracleTilingMaps(cell_vertex, connector_vertex, t.coord_max), edges


def oracle_from_matrix_tiling(t):
    if t.grid_size < 2:
        raise InfeasibleParams("tiling reduction needs a grid of size at least 2")
    maps, layout_edges = oracle_tiling_layout(t)
    k = t.grid_size
    nn = t.coord_max
    game_edges = []
    tables = []
    for (cx, cy), (zx, zy) in layout_edges:
        cell_idx = maps.cell_vertex[(cx, cy)]
        table = []
        cell_set = t.cells[cell_idx]
        for s in range(nn * nn):
            x, y = maps.symbol_pair(s)
            if (x, y) in cell_set:
                table.append(x - 1 if cx == zx else y - 1)
            elif cx >= zx and cy >= zy:
                table.append(maps.square_symbol)
            else:
                table.append(maps.diamond_symbol)
        game_edges.append((cell_idx, maps.connector_vertex[(zx, zy)]))
        tables.append(tuple(table))
    game = build_game(
        k * k,
        2 * k * (k - 1),
        nn * nn,
        nn + 2,
        game_edges,
        tables,
    )
    return game, maps


def oracle_layout_extract_tiling(t, game, phi):
    check_assignment(game, phi)
    maps, _ = oracle_tiling_layout(t)
    bad_connectors = {
        b
        for (a, b), table in zip(game.edges, game.projections)
        if table[phi.a_labels[a]] != phi.b_labels[b]
    }
    # cell i (row-major) is A vertex i
    return TilingSolution(tuple(
        None
        if any(game.edges[e][1] in bad_connectors for e in eids)
        else maps.symbol_pair(sa)
        for eids, sa in zip(game.a_edges, phi.a_labels)
    ))


def oracle_extract_tiling(t, game, phi):
    check_assignment(game, phi)
    k, n = t.grid_size, t.coord_max
    sat = [
        table[phi.a_labels[a]] == phi.b_labels[b]
        for (a, b), table in zip(game.edges, game.projections)
    ]
    bad_connectors = {
        game.edges[e][1] for e in range(game.edge_count) if not sat[e]
    }
    cells = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            cell_idx = (i - 1) * k + (j - 1)
            nbr_connectors = {
                game.edges[e][1] for e in game.a_edges[cell_idx]
            }
            if nbr_connectors & bad_connectors:
                cells.append(None)
            else:
                sa = phi.a_labels[cell_idx]
                cells.append((sa // n + 1, sa % n + 1))
    return TilingSolution(tuple(cells))


def outcome(f, *args, **kwargs):
    """f's result, or its error as (class, message)."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def sparse_3col_game(rows, cols, keep, seed):
    graph, _ = lc.gen_coloring_graph(rows, cols, keep, seed)
    return lc.from_planar_3col(graph)[0]


def derived_games():
    """Games with isolated vertices, many components, or both."""
    rng = random.Random(16)
    games = [
        build_game(0, 0, 1, 1, [], []),
        build_game(3, 2, 2, 2, [], []),
        build_game(4, 4, 1, 1, [(i, i) for i in range(4)], [(0,)] * 4),
    ]
    for seed in range(30):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        games.append(sparse_3col_game(rows, cols, Fraction(1, 4), seed))
    for seed in range(30):
        n_a, n_b = rng.randint(1, 8), rng.randint(1, 8)
        k_a, k_b = rng.randint(1, 4), rng.randint(1, 3)
        pairs = [(a, b) for a in range(n_a) for b in range(n_b) if rng.random() < 0.2]
        rng.shuffle(pairs)
        tables = [tuple(rng.randrange(k_b) for _ in range(k_a)) for _ in pairs]
        games.append(build_game(n_a, n_b, k_a, k_b, pairs, tables))
    return games


def test_components_match_oracle():
    many = 0
    for game in derived_games():
        comps = lc.connected_components(game)
        assert comps == oracle_connected_components(game)
        many = max(many, len(comps))
    assert many >= 20


def test_residuals_match_oracle():
    rng = random.Random(7)
    for game in derived_games():
        for _ in range(3):
            removed = frozenset(i for i in range(game.edge_count) if rng.random() < 0.4)
            assert planar.residual_game(game, removed) == oracle_residual_game(game, removed)
        assert planar.residual_game(game, frozenset()) == game


def test_gen_random_satisfiable_matches_oracle():
    rng = random.Random(1)
    errors = 0
    for seed in range(300):
        args = [rng.randint(0, hi) for hi in (10, 10, 6, 4, 5)]
        for uniform in (False, True):
            got = outcome(lc.gen_random_satisfiable, *args, seed=seed, uniform=uniform)
            assert got == outcome(oracle_gen_random_satisfiable, *args, seed=seed, uniform=uniform)
            errors += isinstance(got[0], type)
    assert 0 < errors < 600


def test_gen_planar_grid_matches_oracle():
    rng = random.Random(2)
    errors = 0
    for seed in range(300):
        args = [rng.randint(0, hi) for hi in (7, 7, 4, 4)]
        got = outcome(lc.gen_planar_grid, *args, seed=seed)
        assert got == outcome(oracle_gen_planar_grid, *args, seed=seed)
        errors += isinstance(got[0], type)
    assert 0 < errors < 300


def test_gen_smooth_matches_oracle():
    rng = random.Random(3)
    kinds = set()
    for seed in range(300):
        args = [rng.randint(lo, hi) for lo, hi in ((0, 9), (0, 9), (0, 4), (1, 4), (1, 6))]
        mu = Fraction(rng.randint(0, 4), 4)
        tries = rng.choice([1, 5, 50])
        got = outcome(lc.gen_smooth, *args, mu, seed=seed, max_tries=tries)
        want = outcome(oracle_gen_smooth, *args, mu, seed=seed, max_tries=tries)
        if want[0] is ValueError:  # the oracle's randrange(k_a) at k_a = 0
            want = InfeasibleParams, "alphabets must be nonempty"
        assert got == want
        kinds.add(got[0] if isinstance(got[0], type) else lc.ProjectionGame)
    assert {lc.ProjectionGame, GenerationFailed, InfeasibleParams} <= kinds


#: alphabet sizes at and past a power of two, so that draws reject one
#: value or many (kB = 16 draws 5 bits and keeps about half of them)
WIDE = (5, 7, 8, 9, 16, 17)


def test_gen_random_satisfiable_wide_alphabets_match_oracle():
    rng = random.Random(5)
    uniform_games = 0
    for seed, (k_a, k_b) in enumerate(product(WIDE, repeat=2)):
        n_a, n_b = rng.randint(1, 12), rng.randint(1, 12)
        args = n_a, n_b, k_a, k_b, rng.randint(1, n_b)
        for uniform in (False, True):
            got = outcome(lc.gen_random_satisfiable, *args, seed=seed, uniform=uniform)
            assert got == outcome(oracle_gen_random_satisfiable, *args, seed=seed, uniform=uniform)
            uniform_games += uniform and isinstance(got[0], lc.ProjectionGame)
    assert uniform_games >= 6


def test_gen_planar_grid_wide_alphabets_match_oracle():
    rng = random.Random(6)
    for seed, (k_a, k_b) in enumerate(product(WIDE, repeat=2)):
        args = rng.randint(1, 7), rng.randint(1, 7), k_a, k_b
        assert outcome(lc.gen_planar_grid, *args, seed=seed) == outcome(
            oracle_gen_planar_grid, *args, seed=seed
        )


def test_gen_smooth_wide_alphabets_match_oracle():
    rng = random.Random(7)
    kinds = set()
    for seed, (k_a, k_b) in enumerate(product(WIDE, repeat=2)):
        degree = rng.randint(k_b, k_b + 3)
        args = rng.randint(1, 4), rng.randint(degree, degree + 4), k_a, k_b, degree
        mu = Fraction(rng.randint(1, 3), 4)
        tries = rng.choice([5, 50])
        got = outcome(lc.gen_smooth, *args, mu, seed=seed, max_tries=tries)
        assert got == outcome(oracle_gen_smooth, *args, mu, seed=seed, max_tries=tries)
        kinds.add(got[0] if isinstance(got[0], type) else lc.ProjectionGame)
    assert {lc.ProjectionGame, GenerationFailed} <= kinds


def test_gen_matrix_tiling_matches_oracle():
    rng = random.Random(8)
    for seed in range(120):
        args = rng.randint(-1, 4), rng.choice((-1, 0, 1, 2, 3) + WIDE)
        density = rng.choice([Fraction(1, 3), 0.5, 1])
        solvable = seed % 2 == 1
        assert outcome(lc.gen_matrix_tiling, *args, density, seed, solvable) == outcome(
            oracle_gen_matrix_tiling, *args, density, seed, solvable
        )


def test_bipartite_graph_matches_oracle():
    """Edges and the generator's state after them, on sweeps with many
    isolated B vertices and with games where the repair fills an A vertex
    (the oracle's ``free`` then drops it, but only after the last draw)."""
    rng = random.Random(9)
    filled = isolated = 0
    shapes = [(rng.randint(0, 4), rng.randint(0, 8), rng.randint(0, 6)) for _ in range(400)]
    shapes += [(rng.randint(1, 30), rng.randint(50, 400), rng.randint(1, 2)) for _ in range(60)]
    for seed, shape in enumerate(shapes):
        mine, ref = random.Random(seed), random.Random(seed)
        got = outcome(_bipartite_graph, mine, *shape)
        assert got == outcome(oracle_bipartite_graph, ref, *shape), shape
        assert mine.getstate() == ref.getstate()
        if isinstance(got, list):
            n_a, n_b, degree = shape
            isolated += len(got) - n_a * degree
            a_deg = [a for a, _ in got]
            filled += degree < n_b and any(a_deg.count(a) == n_b for a in range(n_a))
    assert filled >= 10 and isolated >= 5000


def test_gen_random_satisfiable_many_isolated_b_matches_oracle():
    args = 200, 4000, 2, 2, 1
    got = lc.gen_random_satisfiable(*args, seed=0)
    assert got == oracle_gen_random_satisfiable(*args, seed=0)
    assert oracle_bipartite_graph(random.Random(0), 200, 4000, 1) == list(got[0].edges)
    assert got[0].edge_count > 3700


def test_isolated_b_repair_linear():
    start = time.process_time()
    game, plant = lc.gen_random_satisfiable(2000, 40000, 2, 2, 1, seed=0)
    spent = time.process_time() - start
    assert all(game.b_edges) and lc.value(game, plant) == game.edge_count
    assert spent < 1.0, f"{spent:.2f} s of CPU for 40,000 B vertices"


def test_extract_tiling_matches_oracle():
    rng = random.Random(4)
    kinds = set()
    for seed in range(60):
        size, coord_max = rng.randint(2, 4), rng.randint(1, 3)
        t = lc.gen_matrix_tiling(size, coord_max, Fraction(1, 2), seed, solvable=seed % 2 == 1)
        game, maps = lc.from_matrix_tiling(t)
        random_phi = Assignment(
            tuple(rng.randrange(game.sigma_a) for _ in range(game.a_count)),
            tuple(rng.randrange(game.sigma_b) for _ in range(game.b_count)),
        )
        # each cell labelled by one of its own pairs, each connector by majority
        a_labels = tuple(
            maps.pair_symbol(*min(cell)) if cell else 0 for cell in t.cells
        )
        b_labels = tuple(
            _majority_b_symbol(game, b, a_labels) for b in range(game.b_count)
        )
        phis = [random_phi, Assignment(a_labels, b_labels)]
        for phi in phis:
            sol = reductions.extract_tiling(t, game, phi)
            assert sol == oracle_extract_tiling(t, game, phi)
            kinds.update(c is None for c in sol.cells)
    assert kinds == {True, False}


def planted_tiling_assignment(t, game, seed):
    """The satisfying assignment of a solvable ``gen_matrix_tiling(...,
    seed, solvable=True)``: its plant is the first 2 grid_size draws of
    ``random.Random(seed)`` (see ``oracle_gen_matrix_tiling``)."""
    rng = random.Random(seed)
    k, n = t.grid_size, t.coord_max
    rows = [rng.randrange(1, n + 1) for _ in range(k)]
    cols = [rng.randrange(1, n + 1) for _ in range(k)]
    a_labels = tuple((x - 1) * n + (y - 1) for x in rows for y in cols)
    b_labels = tuple(
        game.projections[eids[0]][a_labels[game.edges[eids[0]][0]]]
        for eids in game.b_edges
    )
    return Assignment(a_labels, b_labels)


def test_tiling_reduction_matches_layout_oracle_on_sweep():
    """Game bytes, the symbol code and extraction against the doubled-
    coordinate layout, over k 2-6, coordinates 1-4, densities 0, 1/2 and
    1, solvable or not, on the planted, all-zero and random assignments."""
    rng = random.Random(33)
    seed = 0
    wildcards = set()
    for k, n, density, solvable in product(
        range(2, 7), range(1, 5), (0, Fraction(1, 2), 1), (False, True)
    ):
        seed += 1
        t = lc.gen_matrix_tiling(k, n, density, seed, solvable=solvable)
        game, maps = lc.from_matrix_tiling(t)
        ref_game, ref_maps = oracle_from_matrix_tiling(t)
        assert formats.emit_labelcover(game) == formats.emit_labelcover(ref_game)
        assert game == ref_game
        for s in range(n * n):
            assert maps.symbol_pair(s) == ref_maps.symbol_pair(s)
            assert maps.pair_symbol(*maps.symbol_pair(s)) == s
        for x, y in product(range(1, n + 1), repeat=2):
            assert maps.pair_symbol(x, y) == ref_maps.pair_symbol(x, y)
        assert (maps.square_symbol, maps.diamond_symbol) == (
            ref_maps.square_symbol, ref_maps.diamond_symbol
        )
        phis = [
            Assignment((0,) * game.a_count, (0,) * game.b_count),
            Assignment(
                tuple(rng.randrange(game.sigma_a) for _ in range(game.a_count)),
                tuple(rng.randrange(game.sigma_b) for _ in range(game.b_count)),
            ),
        ]
        if solvable:
            phis.append(planted_tiling_assignment(t, game, seed))
            assert lc.value(game, phis[-1]) == game.edge_count
        for phi in phis:
            sol = reductions.extract_tiling(t, game, phi)
            assert sol == oracle_layout_extract_tiling(t, ref_game, phi)
            assert sol == oracle_extract_tiling(t, ref_game, phi)
            assert lc.validate_tiling_solution(t, sol) == []
            wildcards.add(sol.chosen_count() == k * k)
    assert wildcards == {True, False}
    t = lc.build_matrix_tiling(1, 2, [{(1, 1)}])
    assert outcome(lc.from_matrix_tiling, t) == outcome(oracle_from_matrix_tiling, t)


def test_components_linear_on_perfect_matching():
    n = 8000
    game = build_game(n, n, 1, 1, [(i, i) for i in range(n)], [(0,)] * n)
    start = time.process_time()
    comps = lc.connected_components(game)
    spent = time.process_time() - start
    assert len(comps) == n and comps[-1].edge_indices == (n - 1,)
    assert spent < 2.0, f"{spent:.2f} s of CPU for {n} components"
