"""Polynomial-time approximation algorithms for satisfiable games.

Five algorithms, each certifying an exact rational lower bound on the
number of edges it satisfies whenever the instance is satisfiable, plus a
selector that runs all five and keeps the best.  The bounds interlock:
whatever the instance's shape, at least one of them is within a
4 * (a_count * sigma_a)^(1/4) factor of the edge count (see best_of).

All tie-breaking is smallest-index-wins so runs are bit-reproducible.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import and_
from time import perf_counter

from .core import (
    Assignment,
    IndexOutOfRange,
    InstanceStats,
    LabelCoverError,
    ProjectionGame,
    SolveReport,
    _TupleView,
    _best_a_symbol,
    _consistent_masks,
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


@dataclass(frozen=True)
class SigmaStarCache:
    """Admissible anchor symbols and the good-edge reads of their keys.

    A symbol s is admissible for vertex a when anchoring a at s and
    propagating to a's neighborhood leaves every two-hop vertex a
    consistent choice against every B vertex; on a satisfiable instance
    the all-satisfying label of a is always admissible.  An edge is good
    under an anchor when its preimage of the propagated label has at most
    2 * p_bar_max symbols.  ``compute_sigma_star`` says how the cache is
    evaluated.

    ``h_star_max`` and ``h_star_argmax`` are computed up front.
    ``sigma_star`` runs the admissibility test for an A vertex the first
    time its entry is read and keeps the answer; it is ``==`` to the tuple
    of the admissible tuples and hashes like it.  ``good(a, s)`` reads one
    admissible key.
    """

    sigma_star: Sequence[tuple[int, ...]]
    h_star_max: int
    h_star_argmax: tuple[int, int] | None

    def good(self, a: int, s: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The good B neighbours of a, in ``a_neighbors`` order, the good
        two-hop set (the A ends of the good edges), sorted, and ``h_star``,
        the number of edges touching that set, for the admissible key
        (a, s).  Tests vertex a if it is not yet tested, and no other.
        Raises IndexOutOfRange unless 0 <= a < a_count, NotInSigmaStar if
        s is not admissible for a, and TypeError if this cache is not the
        result of ``compute_sigma_star``."""
        anchors = _anchors(self)
        _check_anchor(len(anchors), a)
        if s not in anchors[a]:
            raise NotInSigmaStar(f"symbol {s} is not admissible for a{a}")
        ids, h = anchors.entries[(a, s)]
        blocks = anchors.blocks
        n_star = tuple(blocks[i][0] for i in ids if blocks[i][1])
        return n_star, tuple(sorted(anchors.ends(ids))), h


def compute_sigma_star(
    game: ProjectionGame, stats: InstanceStats | None = None
) -> SigmaStarCache:
    """The admissibility definition, evaluated exactly for every (a, symbol)
    that is read.

    A symbol s is kept for a iff for every B vertex b there is some B
    symbol t such that every two-hop vertex a' adjacent to b still has a
    candidate: the intersection of a's propagated preimages at a' with the
    preimage of t on (a', b) is nonempty.  B vertices with no two-hop
    member adjacent are vacuously fine.

    Built here: the good-edge blocks and the largest ``h_star`` with its
    first key in (a, s) order.  Each block (b, t) keeps only the good edges
    at b under symbol t (popcount <= 2 * sum(p_max_e) // |E|, which is
    ``<= 2 * p_bar_max`` without Fractions).  An anchor's good edges are
    the disjoint union of its deg(a) blocks (b, table_ab[s]), its good
    two-hop set is the set of their A ends, and ``h_star`` sums degrees
    over that set.  Since h_star(a, s) <= h(a) (``InstanceStats.h``), the
    maximum is found by testing vertices in order of falling h(a),
    smallest index on ties, until no untested vertex can reach or tie the
    best key.

    Built on read: every other vertex's admissible symbols, by the test in
    ``_Admissibility``, with their keys' block positions and ``h_star``;
    ``good`` builds a key's sets from its blocks.  The test's memos are
    pure functions of the game, shared by every read and dropped once
    every vertex is tested, so the order of reads changes no value.
    """
    stats = stats if stats is not None else compute_stats(game)
    pre, kb = game.preimage_masks, game.sigma_b
    limit = 2 * sum(stats.p_max_e) // max(game.edge_count, 1)
    # block b * kb + t: B vertex b's good edges under symbol t
    blocks = [(b, tuple(e for e in eids if pre[e][t].bit_count() <= limit))
              for b, eids in enumerate(game.b_edges) for t in range(kb)]
    anchors = _SigmaStar(game, blocks, stats.a_degree)

    best, argmax = 0, None  # the first of the best key in (a, s) order
    for a in sorted(range(game.a_count), key=stats.h.__getitem__, reverse=True):
        h_a = stats.h[a]
        if argmax is not None and (h_a < best or h_a == best and a > argmax[0]):
            break  # no key of a, or of any vertex after it, can win
        for sa in anchors[a]:
            h = anchors.entries[(a, sa)][1]
            if argmax is None or h > best or h == best and (a, sa) < argmax:
                best, argmax = h, (a, sa)
    return SigmaStarCache(sigma_star=anchors, h_star_max=best, h_star_argmax=argmax)


class _SigmaStar(_TupleView):
    """``SigmaStarCache.sigma_star``: each A vertex's admissible symbols,
    tested on first read and kept.  ``SigmaStarCache.good`` reads
    ``blocks`` (B vertex, good edges) and ``a_ends``, the A end of every
    edge.  A read also files each admissible key's block positions and
    ``h_star`` in ``entries``; once every vertex is read the test, its
    memos and the game are dropped."""

    def __init__(self, game, blocks, a_degree):
        super().__init__(game.a_count)
        self.blocks, self.entries, self._unread = blocks, {}, game.a_count
        self.a_ends = [a for a, _ in game.edges]
        held = (game, _Admissibility(game), a_degree) if game.a_count else (None,) * 3
        self._game, self._test, self._a_degree = held

    def _build(self, a):
        game, degree, kb = self._game, self._a_degree, self._game.sigma_b
        symbols = tuple(self._test.symbols(a))
        nbrs = game.a_neighbors[a]
        tables = [game.projections[game.edge_index[(a, b)]] for b in nbrs]
        for sa in symbols:  # block b * kb + table_ab[sa] per b in N(a)
            ids = tuple(b * kb + table[sa] for b, table in zip(nbrs, tables))
            h = sum(map(degree.__getitem__, self.ends(ids)))
            self.entries[(a, sa)] = ids, h
        self._unread -= 1
        if not self._unread:
            self._game = self._test = self._a_degree = None
        return symbols

    def ends(self, ids):
        """The set of A ends of the good edges in blocks ``ids``."""
        blocks = self.blocks
        return set(map(self.a_ends.__getitem__,
                       chain.from_iterable(blocks[i][1] for i in ids)))


def _anchors(cache: SigmaStarCache) -> _SigmaStar:
    """The ``sigma_star`` of a cache that ``compute_sigma_star`` built,
    whose blocks ``good`` and ``divide_and_conquer`` read; TypeError for any
    other cache."""
    if not isinstance(cache.sigma_star, _SigmaStar):
        raise TypeError("cache must be the result of compute_sigma_star(game, stats)")
    return cache.sigma_star


class _Admissibility:
    """The admissibility test, one A vertex at a time, with the memos every
    vertex it tests shares: ``hoods`` (B vertex -> summary, members, rows),
    ``singles`` (A vertex -> one-symbol reach fields) and ``reach``
    ((A vertex, candidates) -> reach fields).  Its evaluation order, equal
    to the definition in ``compute_sigma_star``:

    - Reach fields: a two-hop vertex's candidates reach, across each of its
      edges, the B symbols they map to.  Packed one kB-bit field per B
      vertex, some t works for every b iff the AND of the members' reach
      fields has no empty field; for b in N(a) that field is b's
      propagated label.
    - Summaries: a member sharing one B vertex b with a has its preimage of
      b's label as its candidates.  So each B vertex keeps, per symbol t,
      the AND of its A neighbours' reach fields at their preimages of t (0
      when one is empty), all kB built in one sweep (``_hood``) when b is
      first met; a trial ANDs deg(a) of them and runs the carry test.  A
      test of one vertex thus touches only N(a) and the neighbours of N(a).
    - Multi-shared correction, for a trial that passes: a member sharing
      two or more B vertices with a has the AND of those preimages as its
      candidates (``_joint_fields``).  An empty one drops the anchor, and a
      nonempty one's reach fields are ANDed in too; they lie inside the
      summary terms (reach is monotone), so the terms they are ANDed with
      change nothing.  The anchor needs no correction: its mask holds sa,
      and all its fields lie on N(a), where each of its preimages reaches
      the propagated label alone.
    """

    def __init__(self, game: ProjectionGame):
        full_b = (1 << game.sigma_b) - 1
        self.game = game
        self.every = (1 << game.sigma_b * game.b_count) - 1
        # every bit below each field's top
        self.low = self.every // full_b * (full_b >> 1)
        self.singles: dict[int, list] = {}
        self.hoods: dict[int, tuple] = {}
        self.reach: dict[int, int] = {}

    def symbols(self, a: int):
        """Yield a's admissible symbols in increasing order; a symbol is
        tested when the iterator reaches it."""
        game, every, low, singles = self.game, self.every, self.low, self.singles
        nbrs = game.a_neighbors[a]
        tables = [game.projections[game.edge_index[(a, b)]] for b in nbrs]
        hood = [self.hoods.get(b) or _hood(game, b, self.hoods, every, singles)
                for b in nbrs]
        once = twice = 0  # A vertices next to one, and to two or more, of N(a)
        for _, members, _ in hood:
            twice |= once & members
            once |= members
        twice &= ~(1 << a)
        shared = None
        for sa in range(game.sigma_a):
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
                fields = _joint_fields(game, shared, tables, sa, fields, singles,
                                       self.reach)
                ok = (fields & low) + low | fields | low == every
            if ok:
                yield sa


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


def _check_anchor(a_count: int, a0: int) -> None:
    if not 0 <= a0 < a_count:
        raise IndexOutOfRange(f"anchor a{a0} out of range for {a_count} A vertices")


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
    _check_anchor(game.a_count, a0)
    if cache is not None:
        admissible = iter(cache.sigma_star[a0])
    else:  # test a0 alone, and only as far as the answer needs
        admissible = _Admissibility(game).symbols(a0)
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
    index on ties.  Raises IndexOutOfRange unless 0 <= a0 < a_count.  The
    canonical variant reads each anchor through ``cache.good``, so a given
    ``cache`` must be the result of ``compute_sigma_star(game, stats)``;
    any other raises TypeError once a0 has an admissible symbol.
    """
    t0 = perf_counter()
    stats = stats if stats is not None else compute_stats(game)
    if a0 is None and uniform:
        a0 = max(range(game.a_count), key=lambda a: (stats.h[a], -a), default=0)
    elif a0 is None:
        cache = cache if cache is not None else compute_sigma_star(game, stats)
        a0 = cache.h_star_argmax[0] if cache.h_star_argmax is not None else 0
    _check_anchor(game.a_count, a0)

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
            _, n2_star, h_star = cache.good(a0, s0)
            out = _kynn_single(game, stats, a0, s0, n2_star, False)
            val = value(game, out)
            if val > best_val:
                best, best_val = out, val
            if stats.p_bar_max > 0:
                bound = Fraction(h_star) / (2 * stats.p_bar_max)
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
    certifies |E|^3 / (8 nA nB h_max).  A given ``cache`` must be the
    result of ``compute_sigma_star(game, stats)``, whose good-edge blocks
    the canonical variant reads; any other raises TypeError.
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
        block_edges, factor = game.b_edges, 4
        guarantee = (
            Fraction(m**3, 8 * n_a * n_b * stats.h_max)
            if stats.h_max
            else Fraction(0)
        )
    else:
        cache = cache if cache is not None else compute_sigma_star(game, stats)
        block_edges, factor = [hit for _, hit in _anchors(cache).blocks], 16
        denom = cache.h_star_max + stats.e_n_max
        guarantee = Fraction(m**3, 64 * n_a * n_b * denom) if denom else Fraction(0)

    edge_blocks: list[list[int]] = [[] for _ in range(m)]
    for i, eids in enumerate(block_edges):
        for e in eids:
            edge_blocks[e].append(i)
    live = [len(eids) for eids in block_edges]  # live edges per block
    b_live = list(map(len, game.b_edges))  # live edges per B vertex
    edges = game.edges
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
                    b_live[edges[e][1]] -= 1

    # live counts only fall, so one scan in key order finds every claim: a
    # key it has passed stays ineligible, and a claimed key is tried again;
    # only a key whose count passes is tested for admissibility
    scale, need = factor * n_a * n_b, m * m
    for a in range(n_a):
        # a key counts one block of each b in N(a), a subset of b's live
        # edges, and counts only fall: below the threshold the scan would
        # pass every key of a with no admissibility test and no claim
        if scale * sum(map(b_live.__getitem__, game.a_neighbors[a])) < need:
            continue
        sa, counts = 0, _live_counts(game, a, live, uniform)
        while sa < len(counts):
            count = counts[sa]
            if not (count and scale * count >= need
                    and (uniform or sa in cache.sigma_star[a])):
                sa += 1
                continue
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
                n_star, n2_star, _ = cache.good(a, sa)
                p_b = [b for b in n_star if not in_vp[n_a + b]]
                p_a = [ap for ap in n2_star if not in_vp[ap]]
                propagated = _propagate(game, a, sa)
                for b in p_b:
                    b_labels[b] = propagated[b]
                if not in_vp[a]:
                    a_labels[a] = sa
                others = [ap for ap in p_a if ap != a]
                masks = _consistent_masks(game, propagated, others)
                for ap, mask in zip(others, masks):
                    if mask:
                        a_labels[ap] = _lowest_bit(mask)

            retire([n_a + b for b in p_b] + list(p_a))
            counts = _live_counts(game, a, live, uniform)

    return finish(guarantee)


def _live_counts(game: ProjectionGame, a: int, live, uniform: bool) -> list[int]:
    """The live edges in the region of each of a's keys, in key order: one
    key in the uniform variant (every block b in N(a)), else one per symbol
    s (the good blocks b * kB + table_ab[s] over b in N(a))."""
    if uniform:
        return [sum(map(live.__getitem__, game.a_neighbors[a]))]
    kb, per_b = game.sigma_b, []
    for e in game.a_edges[a]:
        first = kb * game.edges[e][1]  # b's blocks, one per B symbol
        per_b.append(list(map(live[first:first + kb].__getitem__, game.projections[e])))
    return list(map(sum, zip(*per_b))) if per_b else [0] * game.sigma_a


def best_of(
    game: ProjectionGame,
    stats: InstanceStats | None = None,
    cache: SigmaStarCache | None = None,
) -> SolveReport:
    """Run all five algorithms and return the best report.

    The report keeps every sub-report in ``parts``, in breakdown order.
    A given ``cache`` must be the result of ``compute_sigma_star(game,
    stats)``; any other raises TypeError.

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
