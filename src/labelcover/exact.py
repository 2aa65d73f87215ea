"""Ground-truth solvers: exhaustive search and tree-decomposition DP.

``brute_force_opt`` is the oracle every approximation bound is checked
against at desk scale.  ``tree_dp_solve`` solves a game exactly given any
valid tree decomposition of its constraint graph; decompositions come from
a min-fill heuristic or, on very small graphs, an exact elimination-order
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
    Assignment,
    BudgetExceeded,
    LabelCoverError,
    ProjectionGame,
    _majority_b_symbol,
)


class InvalidDecomposition(LabelCoverError):
    """The supplied tree decomposition fails one of the three conditions."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags over the global vertex numbering plus a tree on them.

    Global numbering: A vertex a is a, B vertex b is a_count + b.  The
    tree is rooted at bag 0 by convention.  A valid decomposition covers
    every vertex, contains both endpoints of every edge in some bag, and
    keeps the bags containing any fixed vertex connected in the tree.
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


def validate_decomposition(game: ProjectionGame, td: TreeDecomposition) -> list[str]:
    """Return a list of violations; empty iff the decomposition is valid.

    Each entry names the violated condition and a witness.  The tree
    itself is checked first (indices, edge count, connectivity); the three
    decomposition conditions are reported as conditions 1 to 3.
    """
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
            violations.append(
                f"condition 1: vertex {_vertex_name(game, v)} not in any bag"
            )

    for idx, (a, b) in enumerate(game.edges):
        gb = game.a_count + b
        if not any(a in bag and gb in bag for bag in td.bags):
            violations.append(
                f"condition 2: edge {idx} ({_vertex_name(game, a)}, "
                f"{_vertex_name(game, gb)}) not contained in any bag"
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
                f"condition 3: bags containing {_vertex_name(game, v)} are not "
                f"connected in the tree"
            )
    return violations


def _game_adjacency(game: ProjectionGame) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(game.vertex_count)]
    for a, b in game.edges:
        adj[a].add(game.a_count + b)
        adj[game.a_count + b].add(a)
    return adj


def _min_fill_order(n: int, adj: list[set[int]]) -> list[int]:
    """Elimination order picking the vertex needing fewest fill edges.

    Ties break toward the smallest index.  The working graph gains the
    fill edges as vertices are eliminated.
    """
    work = [set(s) for s in adj]
    alive = set(range(n))
    order = []
    for _ in range(n):
        best_v, best_fill = -1, None
        for v in sorted(alive):
            nbrs = [u for u in work[v] if u in alive]
            fill = 0
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    if nbrs[j] not in work[nbrs[i]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nbrs = [u for u in work[best_v] if u in alive]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                work[nbrs[i]].add(nbrs[j])
                work[nbrs[j]].add(nbrs[i])
        alive.remove(best_v)
        order.append(best_v)
    return order


def _exact_order(n: int, adj: list[set[int]]) -> list[int]:
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

    def elim_degree(v: int, eliminated: int) -> int:
        flood = 1 << v
        grow = masks[v] & eliminated
        while grow:
            nxt = flood | grow
            if nxt == flood:
                break
            flood = nxt
            reach = 0
            m = flood
            while m:
                low = m & -m
                reach |= masks[low.bit_length() - 1]
                m ^= low
            grow = reach & eliminated & ~flood
        reach = 0
        m = flood
        while m:
            low = m & -m
            reach |= masks[low.bit_length() - 1]
            m ^= low
        return bin(reach & ~eliminated & ~(1 << v)).count("1")

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


def _decomposition_from_order(
    n: int, adj: list[set[int]], order: list[int]
) -> TreeDecomposition:
    """Build bags from elimination cliques and link them into a tree.

    Each vertex's bag is itself plus its not-yet-eliminated neighbors in
    the filled graph; the bag's parent is the bag of the member eliminated
    earliest after it.  Bags with no later members are chained so the
    result is a single tree.
    """
    if n == 0:
        return TreeDecomposition((frozenset(),), ())
    work = [set(s) for s in adj]
    pos = {v: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    higher: list[list[int]] = []
    for v in order:
        nbrs = [u for u in work[v] if pos[u] > pos[v]]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                work[nbrs[i]].add(nbrs[j])
                work[nbrs[j]].add(nbrs[i])
        bags.append(frozenset([v] + nbrs))
        higher.append(nbrs)

    edges = []
    roots = []
    for i, nbrs in enumerate(higher):
        if nbrs:
            parent = min(pos[u] for u in nbrs)
            edges.append((i, parent))
        else:
            roots.append(i)
    for r1, r2 in zip(roots, roots[1:]):
        edges.append((r1, r2))
    return TreeDecomposition(tuple(bags), tuple(edges))


EXACT_DECOMPOSITION_LIMIT = 12


def heuristic_decomposition(game: ProjectionGame) -> TreeDecomposition:
    """Min-fill decomposition of the game's constraint graph.

    Always valid; no width optimality promised.
    """
    n = game.vertex_count
    adj = _game_adjacency(game)
    return _decomposition_from_order(n, adj, _min_fill_order(n, adj))


def exact_decomposition(game: ProjectionGame) -> TreeDecomposition:
    """Minimum-width decomposition; only feasible for very small graphs."""
    n = game.vertex_count
    if n > EXACT_DECOMPOSITION_LIMIT:
        raise BudgetExceeded(
            f"exact decomposition limited to {EXACT_DECOMPOSITION_LIMIT} vertices"
        )
    adj = _game_adjacency(game)
    return _decomposition_from_order(n, adj, _exact_order(n, adj))


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
    if best_val < 0:
        best_val = 0
        best_labels = tuple(labels)

    b_labels = tuple(
        _majority_b_symbol(game, b, best_labels) for b in range(game.b_count)
    )
    phi = Assignment(best_labels, b_labels)
    return phi, best_val


def is_satisfiable(game: ProjectionGame, budget: int | None = None) -> bool:
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


def tree_dp_solve(
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

    nbags = len(td.bags)
    tadj = [[] for _ in range(nbags)]
    for i, j in td.tree:
        tadj[i].append(j)
        tadj[j].append(i)

    parent = [-1] * nbags
    post = []
    seen = [False] * nbags
    seen[0] = True
    order_stack = [0]
    while order_stack:
        u = order_stack.pop()
        post.append(u)
        for w in tadj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                order_stack.append(w)
    post.reverse()  # children before parents

    bag_vertices = [sorted(bag) for bag in td.bags]
    kd = [
        [game.sigma_a if v < game.a_count else game.sigma_b for v in verts]
        for verts in bag_vertices
    ]
    bag_edges = []
    for bag in td.bags:
        inside = [
            (e, a, game.a_count + b)
            for e, (a, b) in enumerate(game.edges)
            if a in bag and game.a_count + b in bag
        ]
        bag_edges.append(inside)

    def sat_inside(verts, labels, edge_list):
        lab = dict(zip(verts, labels))
        count = 0
        for e, ga, gb in edge_list:
            if game.projections[e][lab[ga]] == lab[gb]:
                count += 1
        return count

    states = 0
    # per bag: dict of full state -> value, and per (bag, restriction) argmax
    tables: dict[int, dict[tuple[int, ...], int]] = {}
    child_best: dict[int, dict[tuple[int, ...], tuple[int, tuple[int, ...]]]] = {}

    for i in post:
        verts = bag_vertices[i]
        radix = kd[i]
        nstates = 1
        for k in radix:
            nstates *= k
        states += nstates
        if state_cap is not None and states > state_cap:
            raise BudgetExceeded(f"DP state count exceeded {state_cap}")
        children = [w for w in tadj[i] if parent[w] == i]
        shared = {}
        shared_edges = {}
        for w in children:
            inter = sorted(td.bags[i] & td.bags[w])
            shared[w] = inter
            inter_set = set(inter)
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
                restr = tuple(state[pos_of[v]] for v in shared[w])
                entry = child_best[w].get(restr)
                if entry is None:
                    ok = False
                    break
                val += entry[0] - sat_inside(verts, state, shared_edges[w])
            if ok:
                table[state] = val
        tables[i] = table

        if parent[i] != -1:
            inter = sorted(td.bags[i] & td.bags[parent[i]])
            idxs = [pos_of[v] for v in inter]
            best: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
            for state, val in table.items():
                restr = tuple(state[j] for j in idxs)
                cur = best.get(restr)
                if cur is None or val > cur[0]:
                    best[restr] = (val, state)
            child_best[i] = best

    root_table = tables[0]
    best_state, best_val = None, None
    for state, val in root_table.items():
        if best_val is None or val > best_val:
            best_state, best_val = state, val

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
                restr = tuple(state[pos_of[v]] for v in sorted(td.bags[i] & td.bags[w]))
                stack.append((w, child_best[w][restr][1]))

    phi = Assignment(tuple(a_labels), tuple(b_labels))
    if return_stats:
        return phi, best_val, {"states": states}
    return phi, best_val
