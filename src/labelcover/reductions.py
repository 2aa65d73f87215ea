"""Instance generators: two reductions with solution extractors, planted
random / smooth / planar generators, and a tiling brute-force oracle.

The 3-coloring reduction turns a graph into a game whose A side is the
edge set (labeled by ordered color pairs) and whose B side is the vertex
set (labeled by colors); the game is satisfiable exactly when the graph
is 3-colorable, and the game graph is planar whenever the input is.

The tiling reduction encodes a square grid of cell sets into a planar
game on the grid's cells and the connectors between adjacent cells; cell
labels are coordinate pairs, connector labels are coordinates plus two
conflict markers, and any assignment violating few edges reads back as a
tiling solution with few wildcards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from operator import eq, index

from .core import (
    Assignment,
    BudgetExceeded,
    DuplicateEdge,
    IndexOutOfRange,
    InfeasibleParams,
    LabelCoverError,
    ProjectionGame,
    _draw_threshold,
    _int,
    _int_rows,
    build_game,
    check_assignment,
)
from .smooth import SmoothnessReport, measure_smoothness


class GenerationFailed(LabelCoverError):
    """Rejection sampling exhausted its retry budget."""


# ---------------------------------------------------------------------------
# 3-coloring reduction

COLORS = 3
#: Ordered pairs of distinct colors; index i is the A symbol i.
COLOR_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
)


@dataclass(frozen=True)
class ColoringGraph:
    """A simple undirected graph given as an oriented edge list.

    Edge tuples keep their orientation: (u, v) is never swapped, so the
    reduction's first/second projections are well defined.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    claimed_planar: bool = False


def build_coloring_graph(
    vertex_count: int, edges, claimed_planar: bool = False
) -> ColoringGraph:
    vertex_count = _int(vertex_count, IndexOutOfRange, "vertex count")
    if vertex_count < 0:
        raise IndexOutOfRange("vertex count must be nonnegative")
    edges = _int_rows(edges, IndexOutOfRange, "endpoints")
    seen = set()
    for i, edge in enumerate(edges):
        if len(edge) != 2:
            raise IndexOutOfRange(f"edge {i}: {len(edge)} endpoints, expected 2")
        u, v = edge
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise IndexOutOfRange(f"edge {i}: endpoint ({u}, {v}) out of range")
        if u == v:
            raise IndexOutOfRange(f"edge {i}: self loop at {u}")
        if (u, v) in seen or (v, u) in seen:
            raise DuplicateEdge(f"edge {i}: duplicate pair ({u}, {v})")
        seen.add((u, v))
    return ColoringGraph(vertex_count, edges, claimed_planar)


@dataclass(frozen=True)
class ThreeColMaps:
    """Index maps for the 3-coloring reduction.

    A vertex i is source edge i; B vertex j is source vertex j.  A symbol
    i is COLOR_PAIRS[i]; a B symbol is the color itself.
    """

    color_pairs: tuple[tuple[int, int], ...]


def from_planar_3col(g: ColoringGraph) -> tuple[ProjectionGame, ThreeColMaps]:
    """Game whose satisfying assignments are the proper 3-colorings of g.

    Every source edge becomes an A vertex carrying an ordered color pair;
    its two game edges project the pair onto its first component at the
    source tail and its second at the source head.  Satisfying both forces
    the endpoints' colors to be the pair's distinct components.
    """
    first = tuple(p[0] for p in COLOR_PAIRS)
    second = tuple(p[1] for p in COLOR_PAIRS)
    edges = []
    tables = []
    for i, (u, v) in enumerate(g.edges):
        edges.append((i, u))
        tables.append(first)
        edges.append((i, v))
        tables.append(second)
    game = build_game(
        len(g.edges), g.vertex_count, len(COLOR_PAIRS), COLORS, edges, tables
    )
    return game, ThreeColMaps(COLOR_PAIRS)


@dataclass(frozen=True)
class ColoringExtraction:
    coloring: tuple[int, ...]
    violated_edges: tuple[int, ...]
    proper: bool


def extract_coloring(
    g: ColoringGraph, game: ProjectionGame, phi: Assignment
) -> ColoringExtraction:
    """Read a coloring off the B labels.

    A fully satisfying assignment yields a proper 3-coloring; otherwise
    the partial coloring comes with the violated game edge indices.
    """
    check_assignment(game, phi)
    violated = tuple(
        i
        for i, ((a, b), table) in enumerate(zip(game.edges, game.projections))
        if table[phi.a_labels[a]] != phi.b_labels[b]
    )
    coloring = phi.b_labels
    proper = not violated and all(
        coloring[u] != coloring[v] for u, v in g.edges
    )
    return ColoringExtraction(coloring, violated, proper)


# ---------------------------------------------------------------------------
# Matrix tiling reduction

@dataclass(frozen=True)
class MatrixTiling:
    """A grid of candidate coordinate-pair sets.

    ``cells`` is row-major over a grid_size x grid_size grid; every member
    pair uses 1-based coordinates in [1, coord_max].
    """

    grid_size: int
    coord_max: int
    cells: tuple[frozenset[tuple[int, int]], ...]


def build_matrix_tiling(grid_size: int, coord_max: int, cells) -> MatrixTiling:
    grid_size = _int(grid_size, InfeasibleParams, "grid size")
    coord_max = _int(coord_max, InfeasibleParams, "coordinate range")
    if grid_size < 1 or coord_max < 1:
        raise InfeasibleParams("grid size and coordinate range must be positive")
    cells = list(cells)
    if len(cells) != grid_size * grid_size:
        raise InfeasibleParams(f"expected {grid_size * grid_size} cells, got {len(cells)}")
    for idx, c in enumerate(cells):
        try:
            cells[idx] = frozenset((index(x), index(y)) for x, y in c)
        except (TypeError, ValueError):
            raise InfeasibleParams(f"cell {idx}: pairs must be two integers") from None
        for x, y in cells[idx]:
            if not (1 <= x <= coord_max and 1 <= y <= coord_max):
                raise InfeasibleParams(f"cell {idx}: pair ({x}, {y}) out of range")
    return MatrixTiling(grid_size, coord_max, tuple(cells))


@dataclass(frozen=True)
class TilingSolution:
    """One pair or the wildcard (None) per cell, row-major."""

    cells: tuple[tuple[int, int] | None, ...]

    def chosen_count(self) -> int:
        return sum(1 for c in self.cells if c is not None)


def validate_tiling_solution(t: MatrixTiling, sol: TilingSolution) -> list[str]:
    """Violations of membership and the row/column agreement constraints."""
    k = t.grid_size
    out = []
    if len(sol.cells) != k * k:
        return [f"expected {k * k} cells, got {len(sol.cells)}"]
    for idx, chosen in enumerate(sol.cells):
        if chosen is not None and chosen not in t.cells[idx]:
            i, j = divmod(idx, k)
            out.append(f"cell ({i + 1}, {j + 1}): pair {chosen} not in its set")
    for i in range(k):
        for j in range(k - 1):
            left, right = sol.cells[i * k + j], sol.cells[i * k + j + 1]
            if left is not None and right is not None and left[0] != right[0]:
                out.append(
                    f"row {i + 1}: cells {j + 1} and {j + 2} disagree in first "
                    f"coordinate"
                )
    for i in range(k - 1):
        for j in range(k):
            top, bottom = sol.cells[i * k + j], sol.cells[(i + 1) * k + j]
            if top is not None and bottom is not None and top[1] != bottom[1]:
                out.append(
                    f"column {j + 1}: cells {i + 1} and {i + 2} disagree in second "
                    f"coordinate"
                )
    return out


@dataclass(frozen=True)
class TilingMaps:
    """The tiling reduction's symbol code.

    Cell (i, j) (1-based) is A vertex (i-1) grid_size + (j-1).  Connectors
    are numbered cell by cell in row-major order, each cell's right
    connector before its down one.  A symbol (x-1) coord_max + (y-1) is the
    pair (x, y); B symbols are the coordinates 0..coord_max-1, then the
    square marker coord_max and the diamond marker coord_max + 1.
    """

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


def _tiling_edges(k: int):
    """Each game edge as (cell, connector, same row, connector above or
    left of the cell), cell by cell in row-major order and, per cell, to
    the up, left, right and down connector."""
    down = [0] * k  # the down connector of the cell above, by column
    count = 0
    for i in range(k):
        for j in range(k):
            cell = i * k + j
            if i:
                yield cell, down[j], False, True
            if j:
                yield cell, right, True, True
            if j < k - 1:
                right, count = count, count + 1
                yield cell, right, True, False
            if i < k - 1:
                down[j], count = count, count + 1
                yield cell, down[j], False, False


def from_matrix_tiling(t: MatrixTiling) -> tuple[ProjectionGame, TilingMaps]:
    """Planar game encoding the tiling constraints.

    For an edge between a cell and an adjacent connector: a pair inside
    the cell's set projects to its first coordinate on the same-row
    connector and to its second on the same-column connector; a pair
    outside the set projects to one of two conflict markers chosen by
    which side of the connector the cell lies on, so two adjacent cells
    cannot both escape their sets through a shared connector.

    The game has grid_size^2 A vertices, 2 grid_size (grid_size - 1) B
    vertices, and 4 grid_size^2 - 4 grid_size edges.
    """
    if t.grid_size < 2:
        raise InfeasibleParams("tiling reduction needs a grid of size at least 2")
    k, nn = t.grid_size, t.coord_max
    maps = TilingMaps(nn)
    pairs = [maps.symbol_pair(s) for s in range(nn * nn)]
    game_edges = []
    tables = []
    for cell, conn, same_row, low in _tiling_edges(k):
        cell_set = t.cells[cell]
        marker = maps.square_symbol if low else maps.diamond_symbol
        tables.append(tuple(
            (x - 1 if same_row else y - 1) if (x, y) in cell_set else marker
            for x, y in pairs
        ))
        game_edges.append((cell, conn))
    return build_game(k * k, 2 * k * (k - 1), nn * nn, nn + 2, game_edges, tables), maps


def extract_tiling(
    t: MatrixTiling, game: ProjectionGame, phi: Assignment
) -> TilingSolution:
    """Read a valid tiling solution off a (possibly bad) game assignment.

    A cell keeps its label's pair when every edge touching the cell's
    connectors is satisfied, and becomes the wildcard otherwise.  Each
    unsatisfied edge touches the connector sets of at most two cells, so
    the wildcard count is at most twice the number of unsatisfied edges.
    """
    check_assignment(game, phi)
    maps = TilingMaps(t.coord_max)
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


def brute_force_tiling(
    t: MatrixTiling, budget: int | None = None
) -> tuple[TilingSolution, int]:
    """Exhaustive tiling optimum (most non-wildcard cells).

    Cells are decided row-major, candidates in sorted-pair order with the
    wildcard last, so the first solution attaining the optimum is the
    lexicographically smallest.  ``budget`` caps the product of candidate
    counts.
    """
    k = t.grid_size
    if budget is not None:
        space = 1
        for c in t.cells:
            space *= len(c) + 1
            if space > budget:
                raise BudgetExceeded(
                    f"tiling search space exceeds budget {budget}"
                )
    candidates = [sorted(c) + [None] for c in t.cells]
    chosen: list[tuple[int, int] | None] = [None] * (k * k)
    best_sol: list[tuple[int, int] | None] = list(chosen)
    best_cnt = -1

    def dfs(idx: int, count: int):
        nonlocal best_cnt, best_sol
        if count + (k * k - idx) <= best_cnt:
            return
        if idx == k * k:
            if count > best_cnt:
                best_cnt = count
                best_sol = list(chosen)
            return
        i, j = divmod(idx, k)
        for cand in candidates[idx]:
            if cand is not None:
                if j > 0:
                    left = chosen[idx - 1]
                    if left is not None and left[0] != cand[0]:
                        continue
                if i > 0:
                    top = chosen[idx - k]
                    if top is not None and top[1] != cand[1]:
                        continue
            chosen[idx] = cand
            dfs(idx + 1, count + (cand is not None))
        chosen[idx] = None

    dfs(0, 0)
    return TilingSolution(tuple(best_sol)), best_cnt


# ---------------------------------------------------------------------------
# Planted generators: each draws every endpoint and table entry in range
# from parameters it has checked, with distinct pairs per A vertex (the
# isolated-B repair only adds new pairs), so it skips build_game's checks.

def _draws(rng, bounds):
    """``[rng.randrange(n) for n in bounds]`` word for word (every n >= 1):
    CPython 3.11's ``Random._randbelow`` written out, which draws
    ``getrandbits(n.bit_length())`` and redraws while the value is >= n."""
    getrandbits, out = rng.getrandbits, []
    for n in bounds:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def _shuffle(rng, x):
    """``rng.shuffle(x)``: the same swaps from the same words."""
    for i, j in zip(range(len(x) - 1, 0, -1), _draws(rng, range(len(x), 1, -1))):
        x[i], x[j] = x[j], x[i]


def _graph_shape(n_a, n_b, degree):
    """Raise InfeasibleParams unless ``_bipartite_graph`` can draw this shape."""
    if n_a < 1 or n_b < 1:
        raise InfeasibleParams("both sides need at least one vertex")
    if not 1 <= degree <= n_b:
        raise InfeasibleParams(f"degree must be in [1, {n_b}]")


def _bipartite_graph(rng, n_a, n_b, degree):
    """Each A vertex samples ``degree`` distinct B vertices; each isolated B
    vertex then gets one edge to a uniform A vertex.  (No A vertex is joined
    to every B vertex while an isolated one is left, so all are eligible.)"""
    _graph_shape(n_a, n_b, degree)
    edges = [(a, b) for a in range(n_a) for b in sorted(rng.sample(range(n_b), degree))]
    isolated = sorted(set(range(n_b)).difference(b for _, b in edges))
    edges += zip(_draws(rng, repeat(n_a, len(isolated))), isolated)
    return edges


def _planted(rng, n_a, n_b, k_a, k_b, edges, uniform=False):
    """Draw a planted labelling, then one table per edge that it satisfies,
    as ``(tables, plant)``.  A table is uniform random with the planted
    entry overridden, or with ``uniform`` a shuffled balanced many-to-one
    map (k_b | k_a) with the planted entry inserted at the planted A symbol.
    """
    a_labels = tuple(_draws(rng, repeat(k_a, n_a)))
    b_labels = tuple(_draws(rng, repeat(k_b, n_b)))
    if not uniform:
        # the tables' draws follow one another, so they are drawn at once
        flat = _draws(rng, repeat(k_b, k_a * len(edges)))
        for e, (a, b) in enumerate(edges):
            flat[e * k_a + a_labels[a]] = b_labels[b]
        return tuple(zip(*[iter(flat)] * k_a)), Assignment(a_labels, b_labels)
    tables = []
    for a, b in edges:
        table = [s for s in range(k_b) for _ in range(k_a // k_b)]
        table.remove(b_labels[b])
        _shuffle(rng, table)
        table.insert(a_labels[a], b_labels[b])
        tables.append(tuple(table))
    return tuple(tables), Assignment(a_labels, b_labels)


def gen_random_satisfiable(
    n_a: int,
    n_b: int,
    k_a: int,
    k_b: int,
    degree: int,
    seed: int,
    uniform: bool = False,
) -> tuple[ProjectionGame, Assignment]:
    """Seeded random instance with a planted all-satisfying assignment.

    Tables are uniform random, then overridden so the planted labels
    satisfy every edge.  With ``uniform`` set, every table is a balanced
    many-to-one map (requires k_b | k_a) and the plant is inserted inside
    the balanced layout, so preimage sizes stay equal everywhere.

    The same seed gives the same game: ``randrange`` and ``shuffle`` draws
    come from ``getrandbits`` rejection (``_draws``), which is their stream
    on CPython 3.11; ``sample`` and ``random()`` are the stdlib's.
    """
    if k_a < 1 or k_b < 1:
        raise InfeasibleParams("alphabets must be nonempty")
    if uniform and k_a % k_b:
        raise InfeasibleParams("uniform tables need k_b to divide k_a")
    rng = random.Random(seed)
    edges = _bipartite_graph(rng, n_a, n_b, degree)
    tables, plant = _planted(rng, n_a, n_b, k_a, k_b, edges, uniform)
    return ProjectionGame(n_a, n_b, k_a, k_b, tuple(edges), tables), plant


def gen_smooth(
    n_a: int,
    n_b: int,
    k_a: int,
    k_b: int,
    degree: int,
    mu_target: Fraction,
    seed: int,
    max_tries: int = 2000,
) -> tuple[ProjectionGame, SmoothnessReport, Assignment]:
    """Planted instance whose measured smoothness is at most mu_target.

    B labels are planted first; each A vertex redraws its per-symbol
    projection rows until every pair of rows agrees on at most a
    mu_target fraction of its edges, with the planted symbol's row pinned
    to the planted B labels.  Rejection failure raises GenerationFailed;
    mu_target must be in [0, 1], else InfeasibleParams before any draw.
    Seeded draws as in ``gen_random_satisfiable``: same seed, same game.
    """
    if k_b < 2 or degree < k_b:
        raise InfeasibleParams("needs degree >= k_b >= 2")
    mu_target = _in_unit("mu_target", mu_target)
    _graph_shape(n_a, n_b, degree)
    if k_a < 1:
        raise InfeasibleParams("alphabets must be nonempty")
    rng = random.Random(seed)
    edges = _bipartite_graph(rng, n_a, n_b, degree)
    a_nbrs = [[] for _ in range(n_a)]
    for a, b in edges:
        a_nbrs[a].append(b)
    _, plant = _planted(rng, n_a, n_b, k_a, k_b, ())
    columns = []
    for a, nbrs in enumerate(a_nbrs):
        d = len(nbrs)
        limit = mu_target * d
        planted_row = [plant.b_labels[b] for b in nbrs]
        for _ in range(max_tries):
            rows = list(zip(*[iter(_draws(rng, repeat(k_b, k_a * d)))] * d))
            rows[plant.a_labels[a]] = planted_row
            if not any(
                sum(map(eq, r, r2)) > limit for r, r2 in combinations(rows, 2)
            ):
                break
        else:
            raise GenerationFailed(
                f"vertex a{a}: no row set under mu = {mu_target} in {max_tries} tries"
            )
        columns.append(zip(*rows))
    # a's p-th edge in edge order reads the p-th entry of every row
    tables = tuple(next(columns[a]) for a, _ in edges)
    game = ProjectionGame(n_a, n_b, k_a, k_b, tuple(edges), tables)
    return game, measure_smoothness(game), plant


def gen_planar_grid(
    rows: int, cols: int, k_a: int, k_b: int, seed: int
) -> tuple[ProjectionGame, Assignment]:
    """Planted game on a grid graph, A and B cells alternating by parity.

    Grid graphs are planar, so the result always passes the edge-count
    sanity bound.  Seeded draws as in ``gen_random_satisfiable``.
    """
    if rows < 1 or cols < 1:
        raise InfeasibleParams("grid needs positive dimensions")
    if k_a < 1 or k_b < 1:
        raise InfeasibleParams("alphabets must be nonempty")
    rng = random.Random(seed)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    a_index = {rc: i for i, rc in enumerate(rc for rc in cells if sum(rc) % 2 == 0)}
    b_index = {rc: i for i, rc in enumerate(rc for rc in cells if sum(rc) % 2)}
    edges = [
        (a, b_index[nb])
        for (r, c), a in a_index.items()
        for nb in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c))
        if nb in b_index
    ]
    n_a, n_b = len(a_index), len(b_index)
    tables, plant = _planted(rng, n_a, n_b, k_a, k_b, edges)
    return ProjectionGame(n_a, n_b, k_a, k_b, tuple(edges), tables), plant


def _in_unit(name: str, p: Fraction | float) -> Fraction | float:
    """p, or InfeasibleParams naming ``name`` when p is outside [0, 1]."""
    if not 0 <= p <= 1:
        raise InfeasibleParams(f"{name} must be in [0, 1], got {p}")
    return p


def gen_coloring_graph(
    rows: int, cols: int, keep: Fraction | float, seed: int
) -> tuple[ColoringGraph, tuple[int, ...]]:
    """Random subgraph of a triangulated grid: planar and 3-colorable.

    Grid edges plus one anti-diagonal per unit square; the coloring
    (r + 2c) mod 3 is proper for the full graph, hence for any subgraph.
    Each candidate edge is kept independently with probability ``keep``.
    Raises InfeasibleParams unless rows and cols are positive and ``keep``
    is in [0, 1].
    """
    if rows < 1 or cols < 1:
        raise InfeasibleParams(f"grid must be at least 1x1, got {rows}x{cols}")
    rng = random.Random(seed)
    idx = lambda r, c: r * cols + c
    candidates = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                candidates.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                candidates.append((idx(r, c), idx(r + 1, c)))
            if r + 1 < rows and c + 1 < cols:
                candidates.append((idx(r, c + 1), idx(r + 1, c)))
    keep = _draw_threshold(_in_unit("keep", keep))
    edges = [e for e in candidates if rng.random() < keep]
    coloring = tuple((r + 2 * c) % 3 for r in range(rows) for c in range(cols))
    return build_coloring_graph(rows * cols, edges, claimed_planar=True), coloring


def gen_matrix_tiling(
    grid_size: int,
    coord_max: int,
    density: Fraction | float,
    seed: int,
    solvable: bool = False,
) -> MatrixTiling:
    """Random cell sets; with ``solvable``, a full valid selection is
    planted (one shared row value per row, column value per column).
    Raises InfeasibleParams unless grid_size and coord_max are positive and
    ``density`` is in [0, 1]."""
    if grid_size < 1 or coord_max < 1:
        raise InfeasibleParams("grid size and coordinate range must be positive")
    rng = random.Random(seed)
    density = _draw_threshold(_in_unit("density", density))
    cells = []
    # randrange(1, coord_max + 1) is 1 + randrange(coord_max)
    row_val = [1 + r for r in _draws(rng, repeat(coord_max, grid_size))]
    col_val = [1 + r for r in _draws(rng, repeat(coord_max, grid_size))]
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
    return build_matrix_tiling(grid_size, coord_max, cells)
