"""Ground-truth solvers: exhaustive search and tree-decomposition DP.

``brute_force_opt`` is the oracle every approximation bound is checked
against at desk scale.  ``tree_dp_solve`` solves a game exactly given any
valid tree decomposition of its constraint graph; decompositions come from
a min-fill heuristic or, on very small graphs, an exact elimination-order
search.  Both run through one elimination routine, ``_eliminate``, which
emits each vertex's bag as it eliminates it; only the rule that picks the
next vertex differs.  Min-fill picks the vertex needing the fewest fill
edges, the smallest index on ties, from a lazily invalidated heap;
``_eliminate`` keeps every fill exact and incremental through triangle
counts.  Validation is one breadth-first walk (``core._walk``) of the
bag tree, ``_rooted_walk``, that finds each vertex's top bag;
``tree_dp_solve`` reuses it and the edge owners read off the tops.
The DP counts each edge once, at the bag nearest the root that holds both
endpoints.  It codes a bag state as an integer, its mixed-radix index,
and sums a bag's values from lists read by an ``itemgetter`` at the codes
of the digits at fixed positions.  One bounded per-call memo keeps those
readers per (radix, positions) and each childless bag's result per
(radix, restriction positions, owned edges).
The exact search caps its subset costs at the min-fill width.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, repeat
from math import prod
from operator import add, itemgetter

from .core import (
    Assignment,
    BudgetExceeded,
    LabelCoverError,
    ProjectionGame,
    _adjacency,
    _extensions,
    _majority_b_symbol,
    _walk,
)


class InvalidDecomposition(LabelCoverError):
    """The supplied tree decomposition fails one of the three conditions."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags over the global vertex numbering plus a tree on them.

    Global numbering: A vertex a is a, B vertex b is a_count + b.  The
    tree is rooted at bag 0 by convention.  A valid decomposition names
    only game vertices, covers every vertex, contains both endpoints of
    every edge in some bag, and keeps the bags containing any fixed vertex
    connected in the tree.
    """

    bags: tuple[frozenset[int], ...]
    tree: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(bag) for bag in self.bags), default=0) - 1


def _vertex_name(game: ProjectionGame, v: int) -> str:
    if v < game.a_count:
        return f"a{v}"
    return f"b{v - game.a_count}"


def _rooted_walk(nbags: int, tree: tuple[tuple[int, int], ...]):
    """Link lists, breadth-first parents (-1 at the root and off the tree)
    and breadth-first order of the bags reachable from bag 0."""
    tadj: list[list[int]] = [[] for _ in range(nbags)]
    for i, j in tree:
        tadj[i].append(j)
        tadj[j].append(i)
    order, parent, _ = _walk(tadj, (0,))
    return tadj, parent, order


def validate_decomposition(game: ProjectionGame, td: TreeDecomposition) -> list[str]:
    """Return a list of violations; empty iff the decomposition is valid.

    Each entry names the violated condition and a witness.  The tree
    itself is checked first (indices, edge count, connectivity), then
    every bag vertex must be a game vertex; the three decomposition
    conditions are reported as conditions 1 to 3.

    One breadth-first walk of the bags from bag 0 checks all three.  A
    bag is a top of vertex v when it holds v and its parent does not; v's
    holders are connected in a tree iff v has exactly one top, and then
    the first holder in the walk, ``top[v]``, is it.  For two vertices
    whose holders are connected, some bag holds both iff the later of
    their tops in the walk does (two subtrees meet iff one's top lies in
    the other, and the walk reaches a bag after all its ancestors).
    Vertices with two or more tops, and all of condition 3 when the links
    close a cycle, are settled by a scan of their holders.
    """
    return _validated(game, td)[0]


def _validated(game: ProjectionGame, td: TreeDecomposition):
    """``validate_decomposition``'s violations, plus the rooted walk and,
    per edge, the bag that owns it: its first holder in the walk, read
    only when there are no violations (None where the checks stopped
    first)."""
    violations: list[str] = []
    bags = td.bags
    nbags = len(bags)
    if nbags == 0:
        if game.vertex_count > 0:
            violations.append("tree: no bags but graph has vertices")
        return violations, None, None
    for i, j in td.tree:
        if not (0 <= i < nbags and 0 <= j < nbags):
            violations.append(f"tree: edge ({i}, {j}) references a missing bag")
            return violations, None, None
    cyclic = len(td.tree) != nbags - 1
    if cyclic:
        violations.append(
            f"tree: {len(td.tree)} edges on {nbags} bags, expected {nbags - 1}"
        )
    walk = _rooted_walk(nbags, td.tree)
    tadj, parent, order = walk
    if len(order) < nbags:  # the first bag off the walk: its parent is -1
        violations.append(f"tree: bag {parent.index(-1, 1)} not reachable from bag 0")
        return violations, walk, None

    n = game.vertex_count
    named = frozenset().union(*bags)
    if named and (min(named) < 0 or max(named) >= n):
        outside = sorted((i, v) for i, bag in enumerate(bags) for v in bag if not 0 <= v < n)
        violations += (f"bag {i}: vertex {v} is not in the game" for i, v in outside)
        bags = [frozenset(v for v in bag if 0 <= v < n) for bag in bags]

    # top[v]: the walk's rank of v's first holder; split: vertices with
    # a second top, whose holders are not connected through parent links
    top = [-1] * n
    split = set()
    for r, i in enumerate(order):
        p = parent[i]
        for v in bags[i] - bags[p] if r else bags[i]:
            if top[v] < 0:
                top[v] = r
            else:
                split.add(v)
    if -1 in top:
        violations += (f"condition 1: vertex {_vertex_name(game, v)} not in any bag"
                       for v in range(n) if top[v] < 0)
    holders: dict[int, list[int]] = {v: [] for v in split}
    if split:
        for i, bag in enumerate(bags):
            for v in split.intersection(bag):
                holders[v].append(i)

    # an edge is held iff the later top of its ends holds both, unless an
    # end is split; a missing end's top (-1) names a bag without it
    a, edges = game.a_count, game.edges
    owner = [order[max(top[u], top[a + b])] for u, b in edges]
    unheld = [e for e, (u, b), i in zip(count(), edges, owner)
              if u not in bags[i] or a + b not in bags[i]]
    for e in unheld:
        u, w = edges[e][0], a + edges[e][1]
        if not (u in split and any(w in bags[i] for i in holders[u])
                or w in split and any(u in bags[i] for i in holders[w])):
            violations.append(
                f"condition 2: edge {e} ({_vertex_name(game, u)}, "
                f"{_vertex_name(game, w)}) not contained in any bag"
            )

    for v in sorted(split):
        if cyclic:  # the links hold more than the walk's parent links
            local = {u: k for k, u in enumerate(holders[v])}
            adj = [[local[w] for w in tadj[u] if w in local] for u in holders[v]]
            if len(_walk(adj, (0,))[0]) == len(adj):
                continue
        violations.append(
            f"condition 3: bags containing {_vertex_name(game, v)} are not "
            f"connected in the tree"
        )
    return violations, walk, owner


def _eliminate(game: ProjectionGame, pick) -> TreeDecomposition:
    """Eliminate every vertex, emitting its bag and linking the bags.

    ``work[v]`` holds v's alive neighbors in the filled graph and ``tri[v]``
    the edges among them (the triangles through v), so v's fill is
    C(deg v, 2) - tri[v].  The constraint graph is bipartite: every ``tri``
    starts at 0.  Eliminating x drops x from each neighbor u, with the
    |N(u) & N(x)| triangles through both, then adds each missing pair
    (u, w) of N(x) in turn, one triangle at u, w and each common neighbor.
    No other count moves.  ``pick(fills)`` names the next vertex; ``fills``
    yields (fill, v) for every vertex whose counts moved at the last
    elimination (all at the first).  A bag is its vertex plus the vertex's
    neighbors; its parent is the bag of the member eliminated earliest
    after it.  Bags with no later members are chained into a single tree.
    """
    n = game.vertex_count
    if n == 0:
        return TreeDecomposition((frozenset(),), ())
    work = [set(s) for s in _adjacency(game)]
    tri = [0] * n
    changed = range(n)
    pos = [0] * n
    bags: list[frozenset[int]] = []
    higher: list[set[int]] = []
    for step in range(n):
        x = pick((len(work[u]) * (len(work[u]) - 1) // 2 - tri[u], u) for u in changed)
        pos[x] = step
        nbrs = work[x]
        changed = set(nbrs)
        for u in nbrs:
            work[u].discard(x)
            tri[u] -= len(work[u] & nbrs)
        for u in nbrs if len(nbrs) * (len(nbrs) - 1) > 2 * tri[x] else ():  # x has fill
            wu = work[u]
            for w in nbrs - wu - {u}:
                common = wu & work[w]
                tri[u] += len(common)
                tri[w] += len(common)
                for z in common:
                    tri[z] += 1
                changed |= common
                wu.add(w)
                work[w].add(u)
        bags.append(frozenset(nbrs | {x}))
        higher.append(nbrs)

    edges = [(i, min(map(pos.__getitem__, nbrs))) for i, nbrs in enumerate(higher) if nbrs]
    roots = [i for i, nbrs in enumerate(higher) if not nbrs]
    edges += zip(roots, roots[1:])
    return TreeDecomposition(tuple(bags), tuple(edges))


def _exact_order(n: int, adj: list[list[int]], bound: int) -> list[int]:
    """Minimum-width elimination order by dynamic programming over subsets.

    The width of eliminating v after the set S is the number of vertices
    outside S reachable from v through S; minimising the maximum over all
    orders yields the true treewidth.  Exponential in n, so only used for
    tiny graphs.  ``bound`` is the width of some elimination order: costs
    are capped at bound + 1 and a predecessor whose cost cannot beat the
    best so far is not extended (the upper-bound pruning of Bodlaender,
    Fomin, Koster, Kratsch & Thilikos, "On exact algorithms for
    treewidth", 2012).  No cost on the path that rebuilds the order
    exceeds the treewidth, so each first minimiser there, and the order,
    is the one the uncapped search picks.
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
    cost = [0] * (1 << n)
    choice = [-1] * (1 << n)
    subsets_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1 << n):
        subsets_by_size[bin(s).count("1")].append(s)
    for size in range(1, n + 1):
        for s in subsets_by_size[size]:
            best = bound + 1
            m = s
            while m:
                low = m & -m
                m ^= low
                prev = s ^ low
                if cost[prev] < best:
                    v = low.bit_length() - 1
                    cand = max(cost[prev], elim_degree(v, prev))
                    if cand < best:
                        best = cand
                        choice[s] = v
            cost[s] = best

    order_rev = []
    s = full
    while s:
        v = choice[s]
        order_rev.append(v)
        s ^= 1 << v
    return list(reversed(order_rev))


EXACT_DECOMPOSITION_LIMIT = 12


def heuristic_decomposition(game: ProjectionGame) -> TreeDecomposition:
    """Min-fill decomposition of the game's constraint graph.

    Each step eliminates the alive vertex whose neighbors miss the fewest
    edges of a clique (its fill), the smallest index on ties.  Fills are
    exact: ``_eliminate`` keeps each as C(deg v, 2) minus the triangles
    through v (all 0 at the start: the graph is bipartite) and hands over
    those that moved.  A heap of (fill, vertex) with lazy invalidation gets
    an entry only for a fill that changed.  Always valid; no width
    optimality promised.
    """
    fill = [-1] * game.vertex_count  # current count, -1 once eliminated
    heap: list[tuple[int, int]] = []

    def pick(fills) -> int:
        for f, v in fills:
            if f != fill[v]:
                fill[v] = f
                heappush(heap, (f, v))
        while True:
            f, v = heappop(heap)
            if f == fill[v]:
                fill[v] = -1
                return v

    return _eliminate(game, pick)


def exact_decomposition(game: ProjectionGame) -> TreeDecomposition:
    """Minimum-width decomposition; only feasible for very small graphs."""
    n = game.vertex_count
    if n > EXACT_DECOMPOSITION_LIMIT:
        raise BudgetExceeded(
            f"exact decomposition limited to {EXACT_DECOMPOSITION_LIMIT} vertices"
        )
    bound = heuristic_decomposition(game).width
    order = iter(_exact_order(n, _adjacency(game), bound))
    return _eliminate(game, lambda fills: next(order))


def brute_force_opt(
    game: ProjectionGame, budget: int | None = None
) -> tuple[Assignment, int]:
    """Exhaustive optimum over A-side assignments.

    For a fixed A assignment the best B labels decompose per vertex (each
    b independently takes the symbol satisfying the most incident edges),
    so only the A side is enumerated.  Among maximizers the result is the
    lexicographically smallest (a_labels, then b_labels); B ties break to
    the smallest symbol.  A vertices without edges keep label 0.

    ``budget`` caps the number of enumerated A assignments; exceeding it
    raises BudgetExceeded before any work is done.
    """
    active = [a for a in range(game.a_count) if game.a_edges[a]]
    if budget is not None and game.sigma_a ** len(active) > budget:
        raise BudgetExceeded(
            f"{game.sigma_a}^{len(active)} A assignments exceed budget {budget}"
        )

    m = game.edge_count
    ka, kb = game.sigma_a, game.sigma_b
    counts = [[0] * kb for _ in range(game.b_count)]
    best_per_b = [0] * game.b_count
    total = 0
    best_val = -1
    best_labels: tuple[int, ...] = ()

    proj = game.projections
    a_eids = game.a_edges
    edges = game.edges
    labels = [0] * game.a_count
    done = False

    def assign(a: int, sym: int) -> int:
        """Apply labels[a] = sym to the counts; return total delta."""
        delta = 0
        for e in a_eids[a]:
            b = edges[e][1]
            sb = proj[e][sym]
            c = counts[b]
            c[sb] += 1
            if c[sb] > best_per_b[b]:
                delta += c[sb] - best_per_b[b]
                best_per_b[b] = c[sb]
        return delta

    def unassign(a: int, sym: int):
        for e in a_eids[a]:
            b = edges[e][1]
            sb = proj[e][sym]
            c = counts[b]
            c[sb] -= 1
            if c[sb] + 1 == best_per_b[b]:
                best_per_b[b] = max(c)

    def dfs(i: int):
        nonlocal total, best_val, best_labels, done
        if done:
            return
        if i == len(active):
            if total > best_val:
                best_val = total
                best_labels = tuple(labels)
                if best_val == m:
                    done = True
            return
        a = active[i]
        for sym in range(ka):
            labels[a] = sym
            delta = assign(a, sym)
            total += delta
            dfs(i + 1)
            total -= delta
            unassign(a, sym)
            if done:
                return
        labels[a] = 0

    dfs(0)

    b_labels = tuple(
        _majority_b_symbol(game, b, best_labels) for b in range(game.b_count)
    )
    phi = Assignment(best_labels, b_labels)
    return phi, best_val


def is_satisfiable(game: ProjectionGame, budget: int | None = None) -> bool:
    """Decide whether some assignment satisfies every edge.

    Backtracks over B labels with ``core._extensions``, pruning any branch
    that leaves some A vertex without a consistent symbol.  ``budget`` caps
    the number of (vertex, symbol) trials.
    """
    bs = [b for b in range(game.b_count) if game.b_edges[b]]
    return next(_extensions(game, bs, budget=budget), None) is not None


_GATHER_CODES = 1 << 16  # most entries a _Memo holds


class _Memo(dict):
    """``tree_dp_solve``'s per-call memo; an entry that would take it past
    ``_GATHER_CODES`` entries empties it first.  A missing (radix,
    positions) key gets every state's mixed-radix code of its digits at
    positions and an ``itemgetter`` reading a sequence at those codes."""

    held = 0

    def keep(self, key: tuple, value, entries: int):
        if self.held + entries > _GATHER_CODES:
            self.clear()
            self.held = 0
        self[key] = value
        self.held += entries
        return value

    def __missing__(self, key: tuple[tuple[int, ...], tuple[int, ...]]):
        radix, positions = key
        weight, m, codes = [0] * len(radix), 1, [0]
        for p in reversed(positions):
            weight[p], m = m, m * radix[p]
        # prepend digits last to first; one outside positions repeats the block
        for r, w in zip(reversed(radix), reversed(weight)):
            codes = [d * w + c for d in range(r) for c in codes] if w else codes * r
        codes = tuple(codes)  # the itemgetter holds this tuple, not a copy
        read = itemgetter(*codes) if len(codes) > 1 else lambda seq: (seq[0],)
        return self.keep(key, (codes, read), len(codes))


def tree_dp_solve(
    game: ProjectionGame, td: TreeDecomposition, state_cap: int | None = None
) -> tuple[Assignment, int]:
    """Exact optimum by dynamic programming over a tree decomposition.

    Bags are processed children first, from the breadth-first walk's
    order (root bag 0) reversed.  A bag state is a typed assignment of its
    sorted vertices (A members draw from the A alphabet, B members from
    the B alphabet), coded as its mixed-radix index in ``product`` order,
    the last vertex fastest.  Each edge is owned by the bag nearest the
    root that holds both endpoints, its first holder in that order, and
    is counted there only; validation hands over that owner, the later
    in that order of the two endpoints' top bags, one lookup per edge.  The
    value of a state is the owned edges it satisfies plus, for every
    child, the best child value over the child states that agree with it
    on their shared vertices.  Each term reads a list at every state's
    code of its digits at fixed positions: a table's 0/1 list over an
    owned edge's two digits, or a child's best-value list over its
    restriction code.  Each bag keeps its first-best value and state index
    per restriction code to its parent, the root its first-best state;
    the assignment decodes those indices in the walk's order, each bag's
    at the labels its parent gave their shared vertices.

    A ``_Memo`` keeps the readers of those codes, and a childless bag's
    best values and indices per (radix, restriction positions, owned
    edges), all they depend on.  A bag read from it still counts its
    states toward ``state_cap``, the bound on states over all bags.
    """
    violations, walk, owner = _validated(game, td)
    if violations:
        raise InvalidDecomposition("; ".join(violations))
    if game.vertex_count == 0:
        return Assignment((), ()), 0

    nbags = len(td.bags)
    _, parent, order = walk
    a, ka, kb = game.a_count, game.sigma_a, game.sigma_b
    kind = [ka] * a + [kb] * game.b_count
    verts = [sorted(bag) for bag in td.bags]
    # per bag: the positions of the vertices it shares with its parent, and
    # per child and owned edge a term (j, positions) reading peak[j], a
    # child's best values or, at nbags + its id, an edge table's 0/1 list
    up: list[tuple[int, ...]] = [()] * nbags
    terms: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(nbags)]
    for w in order[1:]:
        p, pb = parent[w], td.bags[parent[w]]
        up[w] = tuple([k for k, v in enumerate(verts[w]) if v in pb])
        terms[p].append((w, tuple([bisect_left(verts[p], v) for v in verts[w] if v in pb])))
    ids = {t: nbags + k for k, t in enumerate(dict.fromkeys(game.projections))}
    for (va, b), j, i in zip(game.edges, map(ids.__getitem__, game.projections), owner):
        terms[i].append((j, (bisect_left(verts[i], va), bisect_left(verts[i], a + b))))
    inner = {parent[w] for w in order[1:]}  # the bags with a child

    # per bag: the first-best value and state index per restriction code
    peak = [[]] * nbags + [[int(t[x] == y) for x in range(ka) for y in range(kb)] for t in ids]
    arg = [[]] * nbags
    memo = _Memo()
    states = 0
    for i in reversed(order):
        radix = tuple([kind[v] for v in verts[i]])
        states += prod(radix)
        if state_cap is not None and states > state_cap:
            raise BudgetExceeded(f"DP state count exceeded {state_cap}")
        # "leaf" sets these keys apart from the (radix, positions) keys
        key = None if i in inner else ("leaf", radix, up[i], *terms[i])
        if key in memo:
            peak[i], arg[i] = memo[key]
            continue
        vals = ()  # a fresh list per summed term, so no iterator nests
        for j, positions in terms[i]:
            got = memo[radix, positions][1](peak[j])
            vals = list(map(add, vals, got)) if vals else got
        codes = memo[radix, up[i]][0]
        best, at = [-1] * (codes[-1] + 1), [0] * (codes[-1] + 1)
        for s, val, c in zip(count(), vals or repeat(0), codes):
            if val > best[c]:
                best[c], at[c] = val, s
        peak[i], arg[i] = best, at
        if key:
            memo.keep(key, (best, at), 2 * len(best))

    labels = [0] * game.vertex_count
    for i in order:
        c = 0
        for v in map(verts[i].__getitem__, up[i]):
            c = c * kind[v] + labels[v]
        s = arg[i][c]
        for v in reversed(verts[i]):
            s, labels[v] = divmod(s, kind[v])
    return Assignment(tuple(labels[:a]), tuple(labels[a:])), peak[0][0]
