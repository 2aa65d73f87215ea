"""Projection-game (Label Cover) instances and their derived statistics.

A projection game is a bipartite constraint graph between an A side and a
B side, each with its own integer alphabet.  Every edge (a, b) carries a
total table mapping each A symbol to a B symbol; an assignment satisfies
the edge when the table maps a's label to b's label.  The goal is to
satisfy as many edges as possible.

Everything here is immutable after construction and safe to share between
threads; all operations are pure functions.  The label-selection kernels
every solver shares live here too: ``_propagate``, ``_consistent_masks``,
``_extensions`` (the pruning walk over B-side labellings),
``_best_a_symbol`` and ``_majority_b_symbol``; ``_adjacency`` gives the
global-numbering neighbor lists and ``_walk`` the one breadth-first
search, which components, Baker's levels and bag trees read.
Every solver builds its ``SolveReport`` through ``_report``, and every
sub-game (a component or a planar residual) is carved by ``_subgame``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import islice
from operator import index, or_
from time import perf_counter


class LabelCoverError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRange(LabelCoverError):
    """An edge endpoint is outside the declared vertex range."""


class DuplicateEdge(LabelCoverError):
    """The same (a, b) pair appears twice in the edge list."""


class TableLengthMismatch(LabelCoverError):
    """A projection table does not have exactly one entry per A symbol."""


class SymbolOutOfRange(LabelCoverError):
    """A projection table entry is not a valid B symbol."""


class ShapeMismatch(LabelCoverError):
    """An assignment does not fit the game it is evaluated against."""


class BudgetExceeded(LabelCoverError):
    """An enumeration would exceed the caller-supplied budget."""


class InfeasibleParams(LabelCoverError):
    """Generator parameters do not admit a well-formed instance."""


class InvalidSchemeParameter(LabelCoverError, ValueError):
    """A scheme parameter (planar epsilon or h, smooth mu or c1) is out of range."""


@dataclass(frozen=True)
class ProjectionGame:
    """A validated projection-game instance.

    Vertices are integer indices: A-side 0..a_count-1, B-side
    0..b_count-1.  Symbols are integer indices into the two alphabets.
    ``edges`` is the canonical identity of the edge set: all per-edge data
    (``projections``, statistics, solver reports) is aligned to its order.

    Where a single global vertex numbering is needed (tree decompositions,
    BFS layerings), A vertices keep their indices and B vertex j becomes
    a_count + j.
    """

    a_count: int
    b_count: int
    sigma_a: int
    sigma_b: int
    edges: tuple[tuple[int, int], ...]
    projections: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def vertex_count(self) -> int:
        return self.a_count + self.b_count

    @cached_property
    def a_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each A vertex, in edge order."""
        out = [[] for _ in range(self.a_count)]
        for i, (a, _) in enumerate(self.edges):
            out[a].append(i)
        return tuple(tuple(x) for x in out)

    @cached_property
    def b_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each B vertex, in edge order."""
        out = [[] for _ in range(self.b_count)]
        for i, (_, b) in enumerate(self.edges):
            out[b].append(i)
        return tuple(tuple(x) for x in out)

    @cached_property
    def a_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted B neighbors of each A vertex."""
        return tuple(
            tuple(sorted(self.edges[i][1] for i in eids)) for eids in self.a_edges
        )

    @cached_property
    def b_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted A neighbors of each B vertex."""
        return tuple(
            tuple(sorted(self.edges[i][0] for i in eids)) for eids in self.b_edges
        )

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def preimage_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per edge, per B symbol, the bitmask of A symbols mapping to it."""
        out = []
        for table in self.projections:
            masks = [0] * self.sigma_b
            for sa, sb in enumerate(table):
                masks[sb] |= 1 << sa
            out.append(tuple(masks))
        return tuple(out)


@dataclass(frozen=True)
class Assignment:
    """Labels for every vertex of a game; the universal solution currency."""

    a_labels: tuple[int, ...]
    b_labels: tuple[int, ...]


def _int_rows(rows, error, what: str) -> tuple[tuple[int, ...], ...]:
    """Rows as int tuples by ``operator.index`` (0.7 is not 0), or ``error``."""
    out = []
    for i, row in enumerate(rows):
        try:
            out.append(tuple(map(index, row)))
        except TypeError:
            raise error(f"edge {i}: {what} must be integers") from None
    return tuple(out)


def _int(value, error, what: str) -> int:
    """value by ``operator.index`` (2.0 is not 2), or ``error``."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def build_game(
    a_count: int,
    b_count: int,
    sigma_a: int,
    sigma_b: int,
    edges,
    projections,
) -> ProjectionGame:
    """Validate raw instance data and return an immutable game.

    Raises IndexOutOfRange, DuplicateEdge, TableLengthMismatch or
    SymbolOutOfRange, each naming the offending edge index; a value that
    is not an integer raises IndexOutOfRange as a count or endpoint (as
    does an edge that is not a pair), SymbolOutOfRange as a size or entry.
    After the size checks and the int coercion (edges, then tables), one
    pass checks the edges in order, so the error named is the first bad
    edge's.  Computes nothing beyond validation.
    """
    a_count, b_count = (_int(n, IndexOutOfRange, "vertex count") for n in (a_count, b_count))
    if a_count < 0 or b_count < 0:
        raise IndexOutOfRange("vertex counts must be nonnegative")
    sigma_a, sigma_b = (_int(k, SymbolOutOfRange, "alphabet size") for k in (sigma_a, sigma_b))
    if sigma_a < 1 or sigma_b < 1:
        raise SymbolOutOfRange("alphabet sizes must be positive")
    edges = _int_rows(edges, IndexOutOfRange, "endpoints")
    projections = _int_rows(projections, SymbolOutOfRange, "table entries")
    m = len(edges)
    if len(projections) != m:
        raise TableLengthMismatch(
            f"{m} edges but {len(projections)} projection tables"
        )
    _check_edges(a_count, b_count, sigma_a, sigma_b, edges, projections)
    return ProjectionGame(a_count, b_count, sigma_a, sigma_b, edges, projections)


def _check_edges(a_count, b_count, sigma_a, sigma_b, edges, projections):
    """Raise the error of the first bad edge, checked one at a time."""
    seen = set()
    for i, edge in enumerate(edges):
        if len(edge) != 2:
            raise IndexOutOfRange(f"edge {i}: {len(edge)} endpoints, expected 2")
        a, b = edge
        if not (0 <= a < a_count and 0 <= b < b_count):
            raise IndexOutOfRange(f"edge {i}: endpoint ({a}, {b}) out of range")
        if (a, b) in seen:
            raise DuplicateEdge(f"edge {i}: duplicate pair ({a}, {b})")
        seen.add((a, b))
        table = projections[i]
        if len(table) != sigma_a:
            raise TableLengthMismatch(
                f"edge {i}: table has {len(table)} entries, expected {sigma_a}"
            )
        for s in table:
            if not 0 <= s < sigma_b:
                raise SymbolOutOfRange(f"edge {i}: table entry {s} not a B symbol")


def check_assignment(game: ProjectionGame, phi: Assignment) -> None:
    """Raise ShapeMismatch unless phi is structurally valid for game."""
    if len(phi.a_labels) != game.a_count or len(phi.b_labels) != game.b_count:
        raise ShapeMismatch(
            f"assignment shape ({len(phi.a_labels)}, {len(phi.b_labels)}) does not "
            f"match game ({game.a_count}, {game.b_count})"
        )
    for s in phi.a_labels:
        if not 0 <= s < game.sigma_a:
            raise ShapeMismatch(f"A label {s} out of range")
    for s in phi.b_labels:
        if not 0 <= s < game.sigma_b:
            raise ShapeMismatch(f"B label {s} out of range")


def value(game: ProjectionGame, phi: Assignment) -> int:
    """Exact number of edges whose table maps phi(a) to phi(b)."""
    check_assignment(game, phi)
    sat = 0
    for (a, b), table in zip(game.edges, game.projections):
        if table[phi.a_labels[a]] == phi.b_labels[b]:
            sat += 1
    return sat


def _propagate(game: ProjectionGame, a: int, sa: int) -> list[int | None]:
    """The B labels that anchoring a at sa forces; None off a's neighbors."""
    labels: list[int | None] = [None] * game.b_count
    for e in game.a_edges[a]:
        labels[game.edges[e][1]] = game.projections[e][sa]
    return labels


def _lowest_bit(mask: int) -> int:
    """The smallest symbol in a nonzero symbol mask."""
    return (mask & -mask).bit_length() - 1


def _consistent_masks(game: ProjectionGame, b_labels, aps) -> list[int]:
    """For each listed A vertex, the bitmask of its symbols consistent with
    every labeled neighbor: the AND of its preimage masks over the edges
    whose B label is not None."""
    pre = game.preimage_masks
    edges = game.edges
    full = (1 << game.sigma_a) - 1
    out = []
    for ap in aps:
        mask = full
        for e in game.a_edges[ap]:
            sb = b_labels[edges[e][1]]
            if sb is not None:
                mask &= pre[e][sb]
        out.append(mask)
    return out


def _extensions(game: ProjectionGame, bs, watched=None, budget: int | None = None):
    """Walk the labellings of the B vertices ``bs`` depth first in
    ``itertools.product`` order, keeping each A vertex's consistent-symbol
    mask (as ``_consistent_masks`` gives it).  A (vertex, symbol) trial that
    empties the mask of a watched A vertex (``watched[a]`` true; all when
    None) is undone and its subtree skipped.  Each complete labelling is
    yielded as live lists ``(b_labels, a_masks)``, None off ``bs``, and
    ``budget`` caps the trials.
    """
    pre, edges, b_edges = game.preimage_masks, game.edges, game.b_edges
    watch = watched or [True] * game.a_count
    b_labels: list[int | None] = [None] * game.b_count
    a_masks = [(1 << game.sigma_a) - 1] * game.a_count
    nxt = [0] * len(bs)
    logs: list[list[tuple[int, int]]] = []
    trials = i = 0
    while True:
        if i == len(bs):
            yield b_labels, a_masks
        elif nxt[i] < game.sigma_b:
            b, sb = bs[i], nxt[i]
            nxt[i] += 1
            trials += 1
            if budget is not None and trials > budget:
                raise BudgetExceeded(f"satisfiability search exceeded {budget} trials")
            log = []
            for e in b_edges[b]:
                a = edges[e][0]
                new = a_masks[a] & pre[e][sb]
                if not new and watch[a]:
                    break
                log.append((a, a_masks[a]))
                a_masks[a] = new
            else:
                b_labels[b] = sb
                logs.append(log)
                i += 1
                continue
            for a, old in log:
                a_masks[a] = old
            continue
        else:
            nxt[i] = 0
        if i == 0:
            return
        i -= 1
        for a, old in logs.pop():
            a_masks[a] = old


def _best_a_symbol(game: ProjectionGame, a: int, b_labels, mask: int | None = None) -> int:
    """The symbol of a (restricted to the bits of mask, when given) that
    satisfies the most of a's edges under b_labels, smallest index on ties.
    A None B label matches nothing."""
    rows = [(game.projections[e], b_labels[game.edges[e][1]]) for e in game.a_edges[a]]
    best_s, best_cnt = 0, -1
    for s in range(game.sigma_a):
        if mask is None or mask >> s & 1:
            cnt = 0
            for table, sb in rows:
                if table[s] == sb:
                    cnt += 1
            if cnt > best_cnt:
                best_s, best_cnt = s, cnt
    return best_s


def _majority_b_symbol(game: ProjectionGame, b: int, a_labels) -> int:
    """The symbol most of b's edges map to under a_labels, smallest index on
    ties.  A None A label casts no vote."""
    scores = [0] * game.sigma_b
    for e in game.b_edges[b]:
        sa = a_labels[game.edges[e][0]]
        if sa is not None:
            scores[game.projections[e][sa]] += 1
    return scores.index(max(scores))


def _draw_threshold(p) -> float:
    """A float q such that ``rng.random() < q`` exactly when
    ``rng.random() < p``, for a rational p, so each draw is a float compare
    instead of a Fraction one.  random() returns k / 2**53 for an integer
    k, and k / 2**53 < p exactly when k < ceil(p * 2**53); that bound,
    clamped to [0, 2**53], over 2**53 is an exact float.  A float p is
    returned as it is."""
    if isinstance(p, float):
        return p
    return min(max(math.ceil(Fraction(p) * 2**53), 0), 2**53) / 2**53


def _adjacency(game: ProjectionGame) -> list[list[int]]:
    """Neighbors of every vertex in the global numbering, in edge order."""
    adj: list[list[int]] = [[] for _ in range(game.vertex_count)]
    for a, b in game.edges:
        adj[a].append(game.a_count + b)
        adj[game.a_count + b].append(a)
    return adj


def _walk(adj, roots):
    """Breadth-first search of the graph with neighbor lists ``adj`` from
    each of ``roots`` not yet reached, in that order: the reached vertices
    in visiting order, each vertex's parent (-1 at a root) and its distance
    from its root, both -1 for vertices not reached."""
    parent = [-1] * len(adj)
    dist = [-1] * len(adj)
    order = []
    for r in roots:
        if dist[r] < 0:
            dist[r] = 0
            order.append(r)
            for u in islice(order, len(order) - 1, None):  # reads appends too
                d = dist[u] + 1
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v], parent[v] = d, u
                        order.append(v)
    return order, parent, dist


def _degree_sum(degrees):
    """A function from a bitset of vertices to the sum of their ``degrees``:
    over k, 2**k times its popcount in plane k, the vertices with bit k set."""
    planes = [(k, int("".join(str(d >> k & 1) for d in reversed(degrees)), 2))
              for k in range(max(degrees, default=0).bit_length())]
    return lambda members: sum((members & p).bit_count() << k for k, p in planes)


class _TupleView(Sequence):
    """A read-only tuple whose entry i is built by ``_build(i)`` on first
    read and kept; ``==`` to the tuple of its entries, and hashes like it."""

    def __init__(self, size):
        self._memo = [None] * size

    def __len__(self):
        return len(self._memo)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        if self._memo[i] is None:
            i = range(len(self))[i]
            self._memo[i] = self._build(i)
        return self._memo[i]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (tuple, _TupleView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))


class _TwoHop(_TupleView):
    """``InstanceStats.n2``, each entry built on first read and kept."""

    def __init__(self, a_neighbors, b_neighbors):
        super().__init__(len(a_neighbors))
        self._a, self._b = a_neighbors, b_neighbors

    def _build(self, a):
        return tuple(sorted(set().union(*map(self._b.__getitem__, self._a[a]))))


@dataclass(frozen=True)
class InstanceStats:
    """Every derived quantity the solvers consume.

    ``n2`` holds the two-hop A neighborhood of each A vertex (neighbors of
    neighbors, which includes the vertex itself whenever it has an edge) as
    a sorted tuple; it is a read-only ``Sequence`` view that builds each
    entry on first read and keeps it, ``==`` to the tuple of those tuples,
    and hashes and pickles like it.  ``h`` counts the edges touching that
    set; ``e_n`` those touching the direct neighborhood.  ``sigma_b_max`` is
    the B symbol with the largest total preimage over incident edges
    (smallest index on ties), ``p_max_e`` the per-edge preimage size under
    it, ``p_bar_max`` the exact mean of those sizes.  ``uniform_p`` is the
    common preimage size when every table splits its alphabet evenly, else None.
    """

    a_degree: tuple[int, ...]
    n2: Sequence[tuple[int, ...]]
    sigma_b_max: tuple[int, ...]
    p_max_e: tuple[int, ...]
    p_bar_max: Fraction
    h: tuple[int, ...]
    h_max: int
    e_n: tuple[int, ...]
    e_n_max: int
    uniform_p: int | None


def compute_stats(game: ProjectionGame) -> InstanceStats:
    """Populate InstanceStats for a game.  Pure, no caching."""
    a_deg = tuple(len(x) for x in game.a_edges)
    b_deg = tuple(len(x) for x in game.b_edges)

    a_nbrs, b_nbrs = game.a_neighbors, game.b_neighbors

    # the B symbol with the most table entries over b's edges
    tables = game.projections
    sigma_b_max = []
    for eids in game.b_edges:
        counts = [0] * game.sigma_b
        for e in eids:
            for sb in tables[e]:
                counts[sb] += 1
        sigma_b_max.append(counts.index(max(counts)))
    sigma_b_max = tuple(sigma_b_max)

    p_max_e = tuple(
        map(tuple.count, tables, [sigma_b_max[b] for _, b in game.edges])
    )
    m = game.edge_count
    p_bar_max = Fraction(sum(p_max_e), m) if m else Fraction(0)

    e_n = tuple(sum(map(b_deg.__getitem__, nbrs)) for nbrs in a_nbrs)
    members = [sum(1 << a for a in nbrs) for nbrs in b_nbrs]  # A bitset per B vertex
    two_hop = (reduce(or_, map(members.__getitem__, nbrs), 0) for nbrs in a_nbrs)
    h = tuple(map(_degree_sum(a_deg), two_hop))
    h_max = max(h, default=0)
    e_n_max = max(e_n, default=0)

    uniform_p: int | None = None
    if m and game.sigma_a % game.sigma_b == 0:
        want = game.sigma_a // game.sigma_b
        if all(
            mask.bit_count() == want
            for masks in game.preimage_masks
            for mask in masks
        ):
            uniform_p = want

    return InstanceStats(
        a_degree=a_deg,
        n2=_TwoHop(a_nbrs, b_nbrs),
        sigma_b_max=sigma_b_max,
        p_max_e=p_max_e,
        p_bar_max=p_bar_max,
        h=h,
        h_max=h_max,
        e_n=e_n,
        e_n_max=e_n_max,
        uniform_p=uniform_p,
    )


@dataclass(frozen=True)
class Component:
    """One connected component of a game, with maps back to the original.

    ``a_vertices``/``b_vertices``/``edge_indices`` give, for each local
    index, the original index it came from.
    """

    game: ProjectionGame
    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]


def connected_components(game: ProjectionGame) -> list[Component]:
    """Split a game into its connected components.

    Isolated vertices become single-vertex components.  Components are
    ordered by their smallest global vertex; edge order inside a component
    follows the original edge order, so lifting sub-assignments back
    preserves value additively.
    """
    order, parent, _ = _walk(_adjacency(game), range(game.vertex_count))
    comp_of = [0] * len(order)
    comps = 0
    for v in order:  # a root's whole component follows it
        comps += parent[v] < 0
        comp_of[v] = comps - 1

    a_verts, b_verts, eids = ([[] for _ in range(comps)] for _ in range(3))
    for a in range(game.a_count):
        a_verts[comp_of[a]].append(a)
    for b in range(game.b_count):
        b_verts[comp_of[game.a_count + b]].append(b)
    for i, (a, _) in enumerate(game.edges):
        eids[comp_of[a]].append(i)
    return [
        Component(_subgame(game, es, av, bv), tuple(av), tuple(bv), tuple(es))
        for av, bv, es in zip(a_verts, b_verts, eids)
    ]


def _subgame(game: ProjectionGame, eids, a_verts=None, b_verts=None) -> ProjectionGame:
    """The game on the distinct edges ``eids`` of the valid ``game``, in that
    order: over all of game's vertices, or over ``a_verts`` and ``b_verts``
    (which hold both ends of every such edge) renumbered in their order.
    Those preconditions keep it valid, so it skips ``build_game``'s checks."""
    edges = tuple(game.edges[i] for i in eids)
    if a_verts is not None:
        a_local = {a: i for i, a in enumerate(a_verts)}
        b_local = {b: i for i, b in enumerate(b_verts)}
        edges = tuple((a_local[a], b_local[b]) for a, b in edges)
    counts = ((game.a_count, game.b_count) if a_verts is None
              else (len(a_verts), len(b_verts)))
    tables = tuple(game.projections[i] for i in eids)
    return ProjectionGame(*counts, game.sigma_a, game.sigma_b, edges, tables)


def lift_assignment(
    game: ProjectionGame,
    components: list[Component],
    assignments: list[Assignment],
) -> Assignment:
    """Recombine per-component assignments into one for the whole game."""
    a_labels = [0] * game.a_count
    b_labels = [0] * game.b_count
    for comp, phi in zip(components, assignments):
        for local, orig in enumerate(comp.a_vertices):
            a_labels[orig] = phi.a_labels[local]
        for local, orig in enumerate(comp.b_vertices):
            b_labels[orig] = phi.b_labels[local]
    return Assignment(tuple(a_labels), tuple(b_labels))


@dataclass(frozen=True)
class SolveReport:
    """What a solver produced and what it promised.

    ``guarantee`` is an exact rational lower bound on the satisfied count
    that the algorithm's analysis certifies for this instance whenever its
    preconditions held (for the approximation algorithms: instance
    satisfiability).  ``guarantee_ratio_of_opt`` is set by solvers whose
    promise is relative to the unknown optimum (the planar scheme).
    ``breakdown`` carries per-subalgorithm values for combined solvers,
    and ``parts`` the sub-reports themselves.  ``satisfied`` always equals
    ``value(game, assignment)``, and ``elapsed`` is wall-clock seconds
    from the solver's start to the report.
    """

    assignment: Assignment
    satisfied: int
    algorithm: str
    guarantee: Fraction
    elapsed: float
    guarantee_ratio_of_opt: Fraction | None = None
    breakdown: tuple[tuple[str, int], ...] | None = None
    parts: tuple[SolveReport, ...] = ()


def _report(game, phi, algorithm, guarantee, t0, **fields) -> SolveReport:
    """The report for phi, timed from the solver's start ``t0`` (a
    ``perf_counter`` reading); ``fields`` are SolveReport's optional ones."""
    return SolveReport(
        assignment=phi,
        satisfied=value(game, phi),
        algorithm=algorithm,
        guarantee=guarantee,
        elapsed=perf_counter() - t0,
        **fields,
    )
