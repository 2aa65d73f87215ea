"""Polynomial-time approximation algorithms for satisfiable games.

Five algorithms, each certifying an exact rational lower bound on the
number of edges it satisfies whenever the instance is satisfiable, plus a
selector that runs all five and keeps the best.  The bounds interlock:
whatever the instance's shape, at least one of them is within a
4 * (a_count * sigma_a)^(1/4) factor of the edge count (see best_of).

All tie-breaking is smallest-index-wins so runs are bit-reproducible.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import and_, or_
from time import perf_counter

from .core import (
    Assignment,
    IndexOutOfRange,
    InstanceStats,
    LabelCoverError,
    ProjectionGame,
    SolveReport,
    _best_a_symbol,
    _consistent_masks,
    _degree_sum,
    _lowest_bit,
    _propagate,
    _report,
    compute_stats,
    value,
)


class NotInSigmaStar(LabelCoverError):
    """The requested anchor symbol is not admissible for its vertex."""


class UniformAssumptionViolated(LabelCoverError):
    """A uniform-variant algorithm was run on a nonuniform instance."""


class _GoodSets(Mapping):
    """A read-only map from each admissible (a, s) to one of its good sets,
    built on read by ``build`` from the key's blocks: per B neighbour b of
    a, in order, the block (b, good edges, their A ends) of b's label.
    ``index`` maps each key to its blocks' positions in ``blocks``."""

    def __init__(self, index, blocks, build):
        self.index, self.blocks, self._build = index, blocks, build

    def __getitem__(self, key):
        return self._build([self.blocks[i] for i in self.index[key]])

    def __iter__(self):
        return iter(self.index)

    def __len__(self):
        return len(self.index)


@dataclass(frozen=True)
class SigmaStarCache:
    """Admissible anchor symbols and their good-edge neighborhoods.

    A symbol s is admissible for vertex a when anchoring a at s and
    propagating to a's neighborhood leaves every two-hop vertex a
    consistent choice against every B vertex; on a satisfiable instance
    the all-satisfying label of a is always admissible.  For each
    admissible (a, s) the cache holds the neighbors reachable through at
    least one good edge (preimage size at most ``threshold``, the exact
    2 * p_bar_max), the good two-hop set, the number of edges touching it
    (``h_star``), and the good-edge set itself (``e_star``, as edge
    indices).  ``compute_sigma_star`` says how it evaluates them.

    ``threshold``, ``sigma_star``, ``h_star`` and its maximum are computed
    up front.  ``n_star``, ``n2_star`` and ``e_star`` are read-only
    ``Mapping`` views over the admissible keys, in the order of
    ``h_star``: each value is built from the good-edge blocks when it is
    read, and an inadmissible key raises KeyError.  A view equals a dict
    with the same items, but is not a ``dict``.
    """

    threshold: Fraction
    sigma_star: tuple[tuple[int, ...], ...]
    n_star: Mapping[tuple[int, int], tuple[int, ...]]
    n2_star: Mapping[tuple[int, int], tuple[int, ...]]
    h_star: dict[tuple[int, int], int]
    e_star: Mapping[tuple[int, int], frozenset[int]]
    h_star_max: int
    h_star_argmax: tuple[int, int] | None


def compute_sigma_star(
    game: ProjectionGame, stats: InstanceStats | None = None
) -> SigmaStarCache:
    """Evaluate the admissibility definition exactly for every (a, symbol).

    A symbol s is kept for a iff for every B vertex b there is some B
    symbol t such that every two-hop vertex a' adjacent to b still has a
    candidate: the intersection of a's propagated preimages at a' with the
    preimage of t on (a', b) is nonempty.  B vertices with no two-hop
    member adjacent are vacuously fine.

    The test itself is ``_admissible``, run here for every A vertex; its
    evaluation order, equal to that definition:

    - Reach fields: a two-hop vertex's candidates reach, across each of its
      edges, the B symbols they map to.  Packed one kB-bit field per B
      vertex, some t works for every b iff the AND of the members' reach
      fields has no empty field; for b in N(a) that field is b's
      propagated label.
    - Summaries: a member sharing one B vertex b with a has its preimage of
      b's label as its candidates.  So each B vertex keeps, per symbol t,
      the AND of its A neighbours' reach fields at their preimages of t (0
      when one is empty), all kB built in one sweep when b is first met; a
      trial ANDs deg(a) of them and runs the carry test.
    - Multi-shared correction, for a trial that passes: a member sharing
      two or more B vertices with a has the AND of those preimages as its
      candidates.  An empty one drops the anchor, and a nonempty one's
      reach fields, memoised per (vertex, candidates) for this call, are
      ANDed in too; they lie inside the summary terms (reach is monotone).
    - Integer good-edge test: popcount <= 2 * sum(p_max_e) // |E| is
      ``<= threshold`` without Fractions.  Each block (b, t) keeps the good
      edges at b under symbol t and the bitset of their A ends; an anchor's
      good edges are the disjoint union of its deg(a) blocks (b, table_ab[s]),
      so the cache keeps only the blocks and each key's block positions, and
      ``h_star`` sums degrees over the OR of the ends by bit planes.
    """
    stats = stats if stats is not None else compute_stats(game)
    # finish the test first, so its memos are freed before the output grows
    admissible_sets = [tuple(symbols) for symbols in
                       _admissible(game, range(game.a_count))]
    pre, edges, kb = game.preimage_masks, game.edges, game.sigma_b
    limit = 2 * sum(stats.p_max_e) // max(game.edge_count, 1)
    # block b * kb + t: B vertex b's good edges under symbol t, their A ends
    blocks = []
    for b, eids in enumerate(game.b_edges):
        for t in range(kb):
            hit = tuple(e for e in eids if pre[e][t].bit_count() <= limit)
            blocks.append((b, hit, sum(1 << edges[e][0] for e in hit)))
    degree_sum = _degree_sum(stats.a_degree)

    index: dict[tuple[int, int], tuple[int, ...]] = {}
    h_star: dict[tuple[int, int], int] = {}
    for a, admissible in enumerate(admissible_sets):
        nbrs = game.a_neighbors[a]
        tables = [game.projections[game.edge_index[(a, b)]] for b in nbrs]
        for sa in admissible:
            ids = index[(a, sa)] = tuple(b * kb + table[sa]
                                         for b, table in zip(nbrs, tables))
            h_star[(a, sa)] = degree_sum(reduce(or_, (blocks[i][2] for i in ids), 0))

    argmax = max(h_star, key=h_star.__getitem__, default=None)  # first of the best
    return SigmaStarCache(
        threshold=2 * stats.p_bar_max,
        sigma_star=tuple(admissible_sets),
        n_star=_GoodSets(index, blocks, _n_star),
        n2_star=_GoodSets(index, blocks, _n2_star),
        h_star=h_star,
        e_star=_GoodSets(index, blocks, _e_star),
        h_star_max=h_star[argmax] if argmax is not None else 0,
        h_star_argmax=argmax,
    )


def _n_star(blocks):
    return tuple(b for b, hit, _ in blocks if hit)


def _n2_star(blocks):
    ends, out = reduce(or_, (ends for _, _, ends in blocks), 0), []
    while ends:  # the lowest set bit first, so in increasing order
        out.append(_lowest_bit(ends))
        ends &= ends - 1
    return tuple(out)


def _e_star(blocks):
    return frozenset(chain.from_iterable(hit for _, hit, _ in blocks))


def _admissible(game: ProjectionGame, anchors, symbols=None):
    """Yield, for each A vertex in ``anchors``, an iterator over its
    admissible symbols among ``symbols`` (default: all), in increasing
    order; a symbol is tested when the iterator reaches it.

    A B vertex's summary is built, all kB entries at once, when a call
    first meets it, so a call for one anchor touches only N(a) and the
    neighbours of N(a).  Entries hold the whole test of a two-hop vertex
    that shares one B vertex with the anchor.  A trial that passes their
    carry test is corrected for each one that shares more (``_joint_fields``):
    its mask there, the AND of its preimages, lies inside each of them, so
    by monotonicity of reach the entry terms it is ANDed with change nothing.
    The anchor needs no correction: its mask holds sa, and all its fields lie
    on N(a), where each of its preimages reaches the propagated label alone.
    """
    tried = range(game.sigma_a) if symbols is None else symbols
    full_b = (1 << game.sigma_b) - 1
    every = (1 << game.sigma_b * game.b_count) - 1
    low = every // full_b * (full_b >> 1)  # every bit below each field's top
    singles: dict[int, tuple] = {}  # A vertex -> its one-symbol reach fields
    hoods: dict[int, tuple] = {}  # B vertex -> (summary, members, rows)
    reach: dict[int, int] = {}  # (A vertex, candidates) -> reach fields

    def trials(a):
        nbrs = game.a_neighbors[a]
        tables = [game.projections[game.edge_index[(a, b)]] for b in nbrs]
        hood = [hoods.get(b) or _hood(game, b, hoods, every, singles) for b in nbrs]
        once = twice = 0  # A vertices next to one, and to two or more, of N(a)
        for _, members, _ in hood:
            twice |= once & members
            once |= members
        twice &= ~(1 << a)
        shared = None
        for sa in tried:
            fields = every
            for (summary, _, _), table in zip(hood, tables):
                fields &= summary[table[sa]]
                if not fields:
                    break
            # adding ``low`` carries into a field's top bit iff a lower bit is set
            ok = (fields & low) + low | fields | low == every
            if ok and twice:
                if shared is None:
                    flags = f"{twice:0{game.a_count}b}"[::-1]  # flags[ap] is bit ap
                    shared = [[(ap, row) for ap, row in rows if flags[ap] == "1"]
                              for _, _, rows in hood]
                fields = _joint_fields(game, shared, tables, sa, fields, singles, reach)
                ok = (fields & low) + low | fields | low == every
            if ok:
                yield sa

    for a in anchors:
        yield trials(a)


def _joint_fields(game, shared, tables, sa, fields, singles, reach) -> int:
    """``fields`` ANDed with the reach fields of each two-hop vertex's mask
    over the B vertices it shares with the anchor (``shared``: per B
    neighbour of the anchor, its (vertex, preimages) rows); 0 as soon as a
    mask empties.  Reach fields are ORs of ``_hood``'s one-symbol fields."""
    ka = game.sigma_a
    masks: dict[int, int] = {}
    for rows, table in zip(shared, tables):
        sb = table[sa]
        for ap, row in rows:
            mask = masks.get(ap, -1) & row[sb]
            if not mask:
                return 0
            masks[ap] = mask
    for ap, mask in masks.items():
        key = ap << ka | mask
        r = reach.get(key)
        if r is None:
            one, r, rest = singles[ap], 0, mask
            while rest:
                r |= one[_lowest_bit(rest)]
                rest &= rest - 1
            reach[key] = r
        fields &= r
    return fields


def _hood(game: ProjectionGame, b: int, hoods, every: int, singles):
    """B vertex b's summary, its A neighbours as a bitset and its (A end,
    preimages) rows; stored in ``hoods``.  Entry t ANDs over b's edges (ap, b)
    the OR of ap's one-symbol fields (``every`` cut to what s maps to on each
    edge of ap, per symbol s; kept in ``singles``) over ap's preimage of t."""
    pre, edges, kb = game.preimage_masks, game.edges, game.sigma_b
    summary, rows, members = [every] * kb, [], 0
    for e in game.b_edges[b]:
        ap = edges[e][0]
        rows.append((ap, pre[e]))
        members |= 1 << ap
        if (one := singles.get(ap)) is None:
            cuts = [(kb * edges[x][1], game.projections[x]) for x in game.a_edges[ap]]
            base = every ^ sum(((1 << kb) - 1) << shift for shift, _ in cuts)
            one = singles[ap] = []
            for s in range(game.sigma_a):  # faster than a sum over a generator
                x = base
                for shift, table in cuts:
                    x |= 1 << shift + table[s]
                one.append(x)
        r = [0] * kb
        for s, t in enumerate(game.projections[e]):
            r[t] |= one[s]
        summary = list(map(and_, summary, r))
    return hoods.setdefault(b, (summary, members, rows))


def _check_anchor(game: ProjectionGame, a0: int) -> None:
    if not 0 <= a0 < game.a_count:
        raise IndexOutOfRange(
            f"anchor a{a0} out of range for {game.a_count} A vertices"
        )


def satisfy_one_neighbor(game: ProjectionGame) -> SolveReport:
    """Give every A vertex the zero symbol; let each B vertex match one edge.

    Each B vertex with at least one edge is satisfied along its
    smallest-index incident edge, so the value is at least the number of
    non-isolated B vertices (the full B count on instances without
    isolated vertices).
    """
    t0 = perf_counter()
    a_labels = (0,) * game.a_count
    b_labels = []
    covered = 0
    for b in range(game.b_count):
        eids = game.b_edges[b]
        if eids:
            b_labels.append(game.projections[min(eids)][0])
            covered += 1
        else:
            b_labels.append(0)
    phi = Assignment(a_labels, tuple(b_labels))
    return _report(game, phi, "one-neighbor", Fraction(covered), t0)


def greedy_assignment(
    game: ProjectionGame, stats: InstanceStats | None = None
) -> SolveReport:
    """Preimage-greedy labels: B takes the heaviest symbol, A responds.

    Every B vertex takes the symbol whose preimages over its incident
    edges are largest in total; every A vertex then takes the symbol
    satisfying the most incident edges.  The averaging argument over A
    symbols certifies at least |E| * p_bar_max / sigma_a satisfied edges.
    """
    t0 = perf_counter()
    stats = stats if stats is not None else compute_stats(game)
    b_labels = stats.sigma_b_max
    a_labels = tuple(_best_a_symbol(game, a, b_labels) for a in range(game.a_count))
    guarantee = Fraction(sum(stats.p_max_e), game.sigma_a)
    return _report(game, Assignment(a_labels, b_labels), "greedy", guarantee, t0)


def know_your_neighbors(
    game: ProjectionGame,
    a0: int | None = None,
    sigma_a0: int | None = None,
    stats: InstanceStats | None = None,
    cache: SigmaStarCache | None = None,
) -> SolveReport:
    """Anchor a0 at an admissible symbol and satisfy its whole neighborhood.

    Propagating the anchor fixes every neighbor of a0; admissibility
    guarantees every two-hop vertex keeps a consistent symbol, so every
    edge touching the neighborhood of a0 is satisfied: at least
    e_n(a0) edges.  ``a0=None`` anchors the A vertex with the largest
    e_n, smallest index on ties; ``sigma_a0=None`` takes a0's smallest
    admissible symbol.  Raises IndexOutOfRange unless 0 <= a0 < a_count.
    """
    t0 = perf_counter()
    stats = stats if stats is not None else compute_stats(game)
    if a0 is None:
        a0 = max(range(game.a_count), key=lambda a: (stats.e_n[a], -a), default=0)
    _check_anchor(game, a0)
    if cache is not None:
        admissible = iter(cache.sigma_star[a0])
    else:  # test a0 alone, and only as far as the answer needs
        asked = (range(game.sigma_a) if sigma_a0 is None
                 else (sigma_a0,) if 0 <= sigma_a0 < game.sigma_a else ())
        admissible = next(_admissible(game, [a0], asked))
    if sigma_a0 is None:
        sigma_a0 = next(admissible, None)
        if sigma_a0 is None:
            raise NotInSigmaStar(f"no admissible symbol for a{a0}")
    elif sigma_a0 not in admissible:
        raise NotInSigmaStar(f"symbol {sigma_a0} is not admissible for a{a0}")

    propagated = _propagate(game, a0, sigma_a0)
    n2 = stats.n2[a0]
    a_labels = [0] * game.a_count
    for ap, mask in zip(n2, _consistent_masks(game, propagated, n2)):
        a_labels[ap] = _lowest_bit(mask) if mask else 0
    b_labels = tuple(0 if sb is None else sb for sb in propagated)
    phi = Assignment(tuple(a_labels), b_labels)
    return _report(game, phi, "kyn", Fraction(stats.e_n[a0]), t0)


def _kynn_single(game, stats, a0, s0, scope, pinned_empty_skips):
    """One anchored pass: propagate, score B symbols over the scope,
    then let every A vertex respond inside its candidate set.

    Returns the pass's Assignment, or None when a candidate set is empty
    and ``pinned_empty_skips`` asks to skip this anchor.
    """
    pre = game.preimage_masks
    full = (1 << game.sigma_a) - 1

    n2 = stats.n2[a0]
    s_mask = [full] * game.a_count
    for ap, mask in zip(n2, _consistent_masks(game, _propagate(game, a0, s0), n2)):
        if mask == 0 and pinned_empty_skips:
            return None
        s_mask[ap] = mask

    scope_set = set(scope)
    b_labels = []
    edges = game.edges
    for eids in game.b_edges:
        rows = [(pre[e], s_mask[edges[e][0]]) for e in eids if edges[e][0] in scope_set]
        scores = [
            sum((row[sb] & mask).bit_count() for row, mask in rows)
            for sb in range(game.sigma_b)
        ]
        b_labels.append(scores.index(max(scores)))

    a_labels = tuple(
        _best_a_symbol(game, a, b_labels, s_mask[a] or full)
        for a in range(game.a_count)
    )
    return Assignment(a_labels, tuple(b_labels))


def know_neighbors_neighbors(
    game: ProjectionGame,
    a0: int | None = None,
    stats: InstanceStats | None = None,
    cache: SigmaStarCache | None = None,
    uniform: bool = False,
) -> SolveReport:
    """Try every anchor symbol for a0 and keep the best resulting pass.

    In the canonical variant the anchors range over the admissible set of
    a0 and the pass scores B symbols over the good two-hop set; the best
    pass satisfies at least h_star(a0, s) / (2 * p_bar_max) edges for
    every anchor s it tried.  The uniform variant requires evenly
    splitting tables, ranges over the whole alphabet, skips anchors that
    empty some candidate set, and certifies h(a0) / uniform_p.  ``a0=None``
    anchors the first vertex of ``h_star_argmax`` (0 when there is none),
    or in the uniform variant the vertex with the largest h, smallest
    index on ties.  Raises IndexOutOfRange unless 0 <= a0 < a_count.
    """
    t0 = perf_counter()
    stats = stats if stats is not None else compute_stats(game)
    if a0 is None and uniform:
        a0 = max(range(game.a_count), key=lambda a: (stats.h[a], -a), default=0)
    elif a0 is None:
        cache = cache if cache is not None else compute_sigma_star(game, stats)
        a0 = cache.h_star_argmax[0] if cache.h_star_argmax is not None else 0
    _check_anchor(game, a0)

    best, best_val = None, -1
    if uniform:
        if stats.uniform_p is None:
            raise UniformAssumptionViolated(
                "instance tables do not split evenly; use the canonical variant"
            )
        for s0 in range(game.sigma_a):
            out = _kynn_single(game, stats, a0, s0, stats.n2[a0], True)
            if out is None:
                continue
            val = value(game, out)
            if val > best_val:
                best, best_val = out, val
        guarantee = Fraction(stats.h[a0], stats.uniform_p)
    else:
        cache = cache if cache is not None else compute_sigma_star(game, stats)
        guarantee = Fraction(0)
        for s0 in cache.sigma_star[a0]:
            out = _kynn_single(game, stats, a0, s0, cache.n2_star[(a0, s0)], False)
            val = value(game, out)
            if val > best_val:
                best, best_val = out, val
            if stats.p_bar_max > 0:
                bound = Fraction(cache.h_star[(a0, s0)]) / (2 * stats.p_bar_max)
                guarantee = max(guarantee, bound)

    if best is None:
        best = Assignment((0,) * game.a_count, (0,) * game.b_count)
        guarantee = Fraction(0)
    return _report(game, best, "kynn-uniform" if uniform else "kynn", guarantee, t0)


def divide_and_conquer(
    game: ProjectionGame,
    stats: InstanceStats | None = None,
    cache: SigmaStarCache | None = None,
    uniform: bool = False,
) -> SolveReport:
    """Greedily carve off fully-satisfiable neighborhoods.

    While some anchor still has enough live edges in its (good)
    neighborhood region, claim the region, satisfy every edge inside it by
    propagating the anchor, and retire its vertices.  The canonical
    variant anchors on admissible (vertex, symbol) pairs with live good
    edges at least |E|^2 / (16 nA nB) and certifies
    |E|^3 / (64 nA nB (h_star_max + e_n_max)); the uniform variant anchors
    on vertices with live region edges at least |E|^2 / (4 nA nB) and
    certifies |E|^3 / (8 nA nB h_max).
    """
    t0 = perf_counter()
    stats = stats if stats is not None else compute_stats(game)
    n_a, n_b, m = game.a_count, game.b_count, game.edge_count
    a_labels = [0] * n_a
    b_labels = [0] * n_b

    def finish(guarantee: Fraction) -> SolveReport:
        phi = Assignment(tuple(a_labels), tuple(b_labels))
        return _report(game, phi, "dnc-uniform" if uniform else "dnc", guarantee, t0)

    if m == 0 or n_a == 0 or n_b == 0:
        return finish(Fraction(0))

    # a key's region is the disjoint union of its blocks: in the uniform
    # variant the B vertices of N(a) with all their edges, else the good
    # blocks of compute_sigma_star
    if uniform:
        keys: list[tuple[int, int | None]] = [(a, None) for a in range(n_a)]
        key_blocks, block_edges = game.a_neighbors, game.b_edges
        factor = 4
        guarantee = (
            Fraction(m**3, 8 * n_a * n_b * stats.h_max)
            if stats.h_max
            else Fraction(0)
        )
    else:
        cache = cache if cache is not None else compute_sigma_star(game, stats)
        index = cache.e_star.index
        keys, key_blocks = list(index), list(index.values())
        block_edges = [hit for _, hit, _ in cache.e_star.blocks]
        factor = 16
        denom = cache.h_star_max + stats.e_n_max
        guarantee = Fraction(m**3, 64 * n_a * n_b * denom) if denom else Fraction(0)

    edge_blocks: list[list[int]] = [[] for _ in range(m)]
    for i, eids in enumerate(block_edges):
        for e in eids:
            edge_blocks[e].append(i)
    live = [len(eids) for eids in block_edges]  # live edges per block
    edge_alive = [True] * m
    in_vp = [False] * (n_a + n_b)
    incident = game.a_edges + game.b_edges  # by global vertex

    def retire(vertices_global):
        for v in vertices_global:
            if in_vp[v]:
                continue
            in_vp[v] = True
            for e in incident[v]:
                if edge_alive[e]:
                    edge_alive[e] = False
                    for i in edge_blocks[e]:
                        live[i] -= 1

    # live counts only fall, so a key the scan has passed stays ineligible
    # and each round's scan resumes at the last chosen key
    pos, scale, need = 0, factor * n_a * n_b, m * m
    while True:
        while pos < len(keys):
            count = sum(map(live.__getitem__, key_blocks[pos]))
            if count > 0 and scale * count >= need:
                break
            pos += 1
        if pos == len(keys):
            break
        a, sa = keys[pos]

        if uniform:
            p_b = [b for b in game.a_neighbors[a] if not in_vp[n_a + b]]
            p_a = [ap for ap in stats.n2[a] if not in_vp[ap]]
            others = [ap for ap in p_a if ap != a]
            # try anchors until the whole region propagates; an
            # unsatisfiable region just keeps its default labels
            for try_sa in range(game.sigma_a):
                blab = _propagate(game, a, try_sa)
                for b in game.a_neighbors[a]:
                    if in_vp[n_a + b]:
                        blab[b] = None
                masks = _consistent_masks(game, blab, others)
                if all(masks):
                    for b in p_b:
                        b_labels[b] = blab[b]
                    for ap, mask in zip(others, masks):
                        a_labels[ap] = _lowest_bit(mask)
                    if not in_vp[a]:
                        a_labels[a] = try_sa
                    break
        else:
            p_b = [b for b in cache.n_star[(a, sa)] if not in_vp[n_a + b]]
            p_a = [ap for ap in cache.n2_star[(a, sa)] if not in_vp[ap]]
            propagated = _propagate(game, a, sa)
            for b in p_b:
                b_labels[b] = propagated[b]
            if not in_vp[a]:
                a_labels[a] = sa
            others = [ap for ap in p_a if ap != a]
            for ap, mask in zip(others, _consistent_masks(game, propagated, others)):
                if mask:
                    a_labels[ap] = _lowest_bit(mask)

        retire([n_a + b for b in p_b] + list(p_a))

    return finish(guarantee)


def best_of(
    game: ProjectionGame,
    stats: InstanceStats | None = None,
    cache: SigmaStarCache | None = None,
) -> SolveReport:
    """Run all five algorithms and return the best report.

    The report keeps every sub-report in ``parts``, in breakdown order.

    On a satisfiable instance the combined value is at least
    |E| / (4 * (a_count * sigma_a)^(1/4)).  Derivation: write nB for the
    B-side size, p for p_bar_max, h for h_star_max, EN for e_n_max, and
    D = 64 nA nB (h + EN) for the divide-and-conquer denominator.  The
    five certified bounds are nB, |E| p / kA, EN, h / (2p), |E|^3 / D.
    If h >= EN then D <= 128 nA nB h and the product of bounds one, two,
    four and five is at least |E|^4 / (256 nA kA); if EN > h then
    D <= 128 nA nB EN and the product of bounds one, two, three and five
    is at least |E|^4 p / (128 nA kA), with p >= 1 on satisfiable
    instances.  The maximum of four numbers is at least their geometric
    mean, so in both cases some bound is at least
    |E| / (256 nA kA)^(1/4) >= |E| / (4 (nA kA)^(1/4)).
    """
    t0 = perf_counter()
    stats = stats if stats is not None else compute_stats(game)
    cache = cache if cache is not None else compute_sigma_star(game, stats)

    reports = [satisfy_one_neighbor(game), greedy_assignment(game, stats)]
    if game.a_count and game.edge_count:
        # an anchor with no admissible symbol (only on unsatisfiable games)
        # leaves kyn out of the selection
        with suppress(NotInSigmaStar):
            reports.append(know_your_neighbors(game, None, None, stats, cache))
    if cache.h_star_argmax is not None:
        reports.append(know_neighbors_neighbors(game, None, stats, cache))
    reports.append(divide_and_conquer(game, stats, cache))

    winner = max(reports, key=lambda rep: rep.satisfied)  # first of the best
    return _report(
        game,
        winner.assignment,
        f"best({winner.algorithm})",
        max(rep.guarantee for rep in reports),
        t0,
        breakdown=tuple((rep.algorithm, rep.satisfied) for rep in reports),
        parts=tuple(reports),
    )
