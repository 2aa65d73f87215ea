import math
import pickle
import random
from fractions import Fraction
from itertools import chain
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

import labelcover as lc
from labelcover import approx
from labelcover.approx import SigmaStarCache
from labelcover.core import (
    Assignment,
    InstanceStats,
    ProjectionGame,
    SolveReport,
    _consistent_masks,
    _lowest_bit,
    _propagate,
    _report,
    compute_stats,
)


def single_edge_game():
    return lc.build_game(1, 1, 2, 2, [(0, 0)], [(0, 1)])


def planted(seed, n_a=6, n_b=6, k_a=3, k_b=2, degree=2, uniform=False):
    return lc.gen_random_satisfiable(
        n_a, n_b, k_a, k_b, degree, seed=seed, uniform=uniform
    )


def random_unplanted(seed, n_a=4, n_b=4, k_a=3, k_b=3, p=0.6):
    rng = random.Random(seed)
    edges = [(a, b) for a in range(n_a) for b in range(n_b) if rng.random() < p]
    if not edges:
        edges = [(0, 0)]
    tables = [tuple(rng.randrange(k_b) for _ in range(k_a)) for _ in edges]
    return lc.build_game(n_a, n_b, k_a, k_b, edges, tables)


# --- independent admissible-set oracle -------------------------------------

def naive_preimage(game, e, sb):
    return {sa for sa in range(game.sigma_a) if game.projections[e][sa] == sb}


def naive_sigma_star(game):
    """Direct set-based transliteration of the admissibility definition."""
    na = [set() for _ in range(game.a_count)]
    nb = [set() for _ in range(game.b_count)]
    eidx = {}
    for e, (a, b) in enumerate(game.edges):
        na[a].add(b)
        nb[b].add(a)
        eidx[(a, b)] = e
    out = []
    for a in range(game.a_count):
        n2 = set()
        for b in na[a]:
            n2 |= nb[b]
        keep = []
        for sa in range(game.sigma_a):
            def s_set(ap):
                cur = set(range(game.sigma_a))
                for b2 in na[ap] & na[a]:
                    want = game.projections[eidx[(a, b2)]][sa]
                    cur &= naive_preimage(game, eidx[(ap, b2)], want)
                return cur

            ok = True
            for b in range(game.b_count):
                members = n2 & nb[b]
                if not members:
                    continue
                if not any(
                    all(s_set(ap) & naive_preimage(game, eidx[(ap, b)], sb)
                        for ap in members)
                    for sb in range(game.sigma_b)
                ):
                    ok = False
                    break
            if ok:
                keep.append(sa)
        out.append(tuple(keep))
    return tuple(out)


def test_sigma_star_single_edge_vacuous():
    g = single_edge_game()
    cache = lc.compute_sigma_star(g)
    assert cache.sigma_star == ((0, 1),)


def test_sigma_star_contains_plant():
    for seed in range(20):
        g, plant = planted(seed)
        cache = lc.compute_sigma_star(g)
        for a in range(g.a_count):
            assert plant.a_labels[a] in cache.sigma_star[a]


def test_sigma_star_counterexample_two_a_one_b():
    # a1's constant table kills the anchor symbol whose image it cannot hit
    g = lc.build_game(2, 1, 2, 2, [(0, 0), (1, 0)], [(0, 1), (0, 0)])
    cache = lc.compute_sigma_star(g)
    assert cache.sigma_star[0] == (0,)
    assert cache.sigma_star[1] == (0, 1)


def test_sigma_star_matches_naive_oracle():
    games = [single_edge_game()]
    games += [planted(s)[0] for s in range(6)]
    games += [random_unplanted(s) for s in range(6)]
    for g in games:
        assert lc.compute_sigma_star(g).sigma_star == naive_sigma_star(g)


def reference_sigma_star(game, stats=None):
    """An earlier compute_sigma_star, kept as a differential oracle: one
    propagation and one consistent-mask pass over the whole two-hop set per
    anchor, then a per-symbol scan of every B vertex.  Returns the dict that
    ``read_back`` makes of a cache: per admissible key, the good B
    neighbours, two-hop set, h_star and good-edge set."""
    stats = stats if stats is not None else lc.compute_stats(game)
    pre = game.preimage_masks
    eidx = game.edge_index
    threshold = 2 * stats.p_bar_max

    sigma_star = []
    n_star = {}
    n2_star = {}
    h_star = {}
    e_star = {}

    for a in range(game.a_count):
        nbrs = game.a_neighbors[a]
        n2 = stats.n2[a]
        n2_set = set(n2)
        cand_bs = sorted({b for ap in n2 for b in game.a_neighbors[ap]})
        admissible = []
        for sa in range(game.sigma_a):
            propagated = _propagate(game, a, sa)
            s_mask = dict(zip(n2, _consistent_masks(game, propagated, n2)))
            ok = True
            for b in cand_bs:
                members = [ap for ap in game.b_neighbors[b] if ap in n2_set]
                if not members:
                    continue
                if not any(
                    all(s_mask[ap] & pre[eidx[(ap, b)]][sb] for ap in members)
                    for sb in range(game.sigma_b)
                ):
                    ok = False
                    break
            if not ok:
                continue
            admissible.append(sa)

            good_b = []
            good_two_hop = set()
            good_edges = set()
            for b in nbrs:
                sb = propagated[b]
                hits = [
                    ap
                    for ap in game.b_neighbors[b]
                    if pre[eidx[(ap, b)]][sb].bit_count() <= threshold
                ]
                if hits:
                    good_b.append(b)
                    good_two_hop.update(hits)
                    good_edges.update(eidx[(ap, b)] for ap in hits)
            n_star[(a, sa)] = tuple(good_b)
            n2_star[(a, sa)] = tuple(sorted(good_two_hop))
            h_star[(a, sa)] = sum(stats.a_degree[ap] for ap in good_two_hop)
            e_star[(a, sa)] = frozenset(good_edges)
        sigma_star.append(tuple(admissible))

    h_star_max = 0
    argmax = None
    for a in range(game.a_count):
        for sa in sigma_star[a]:
            if argmax is None or h_star[(a, sa)] > h_star_max:
                h_star_max = h_star[(a, sa)]
                argmax = (a, sa)
    return {
        "threshold": threshold,
        "sigma_star": tuple(sigma_star),
        "n_star": n_star,
        "n2_star": n2_star,
        "h_star": h_star,
        "e_star": e_star,
        "h_star_max": h_star_max if argmax is not None else 0,
        "h_star_argmax": argmax,
    }


def good_edges(game, cache, a, s):
    """The good-edge set of the admissible key (a, s), from the blocks that
    define it: per B neighbour b, block b * kB + table_ab[s] holds b's good
    edges under the label the anchor propagates to b."""
    blocks, kb = cache.sigma_star.blocks, game.sigma_b
    got = set()
    for b in game.a_neighbors[a]:
        block = blocks[b * kb + game.projections[game.edge_index[(a, b)]][s]]
        assert block[0] == b
        got.update(block[1])
    return frozenset(got)


def read_back(game, stats, cache):
    """The oracles' dict of a compute_sigma_star result: ``good`` for every
    admissible key in (a, s) order, each key's good edges from the blocks,
    and the threshold the blocks are cut at."""
    keys = [(a, s) for a, symbols in enumerate(cache.sigma_star) for s in symbols]
    good = [cache.good(*key) for key in keys]
    return {
        "threshold": 2 * stats.p_bar_max,
        "sigma_star": tuple(cache.sigma_star),
        "n_star": {key: got[0] for key, got in zip(keys, good)},
        "n2_star": {key: got[1] for key, got in zip(keys, good)},
        "h_star": {key: got[2] for key, got in zip(keys, good)},
        "e_star": {key: good_edges(game, cache, *key) for key in keys},
        "h_star_max": cache.h_star_max,
        "h_star_argmax": cache.h_star_argmax,
    }


def matches(game, cache, want):
    """Whether ``cache`` reads back as the oracle dict ``want``."""
    return read_back(game, lc.compute_stats(game), cache) == want


# (n_a, n_b, k_a, k_b, degree): sparse, dense (B degree far above A
# degree), one-symbol A or B alphabets, a lone A vertex
SWEEP_SHAPES = [
    (6, 6, 3, 2, 2), (8, 5, 4, 3, 2), (10, 3, 3, 2, 2), (16, 3, 4, 3, 3),
    (12, 2, 5, 4, 2), (5, 8, 1, 3, 3), (7, 4, 4, 1, 2), (1, 4, 3, 2, 4),
    (9, 9, 2, 2, 1), (14, 4, 6, 5, 3),
]


def sweep_games(count):
    """Seeded planted games; every odd one with redrawn tables (mostly
    unsatisfiable), every fifth with isolated A and B vertices added."""
    rng = random.Random(2024)
    for i in range(count):
        n_a, n_b, k_a, k_b, degree = SWEEP_SHAPES[i % len(SWEEP_SHAPES)]
        g, _ = lc.gen_random_satisfiable(
            n_a, n_b, k_a, k_b, degree, seed=rng.randrange(1 << 30)
        )
        tables = g.projections
        if i % 2:
            tables = [tuple(rng.randrange(k_b) for _ in t) for t in tables]
        extra_a, extra_b = (2, 1) if i % 5 == 0 else (0, 0)
        yield lc.build_game(
            n_a + extra_a, n_b + extra_b, k_a, k_b, g.edges, tables
        )
    yield lc.build_game(3, 2, 2, 2, [], [])
    yield lc.build_game(0, 0, 1, 1, [], [])


def test_sigma_star_equals_reference_on_sweep():
    games = list(sweep_games(320))
    assert len(games) >= 300
    unsat = 0
    for i, g in enumerate(games):
        st_ = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st_)
        assert read_back(g, st_, cache) == reference_sigma_star(g, st_), f"game {i}"
        unsat += g.a_count > 0 and not all(cache.sigma_star)
    assert unsat >= 100



def _outcome(call):
    """A report's visible fields, or the error a call raised."""
    try:
        rep = call()
    except lc.LabelCoverError as exc:
        return type(exc), str(exc)
    return rep.assignment, rep.satisfied, rep.guarantee, rep.algorithm


def test_default_anchors_equal_the_explicit_ones_on_sweep():
    # kyn anchors the first vertex of largest e_n; kynn the first vertex of
    # h_star_argmax (0 without one), or in the uniform variant the first
    # vertex of largest h; the first index of a maximum is the tie rule
    uniform = (planted(seed, k_a=4, uniform=True)[0] for seed in range(40))
    seen = [0, 0, 0]
    for i, g in enumerate(chain(sweep_games(320), uniform)):
        st_ = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st_)
        kyn_a0 = st_.e_n.index(max(st_.e_n)) if g.a_count else 0
        kynn_a0 = cache.h_star_argmax[0] if cache.h_star_argmax else 0
        uni_a0 = st_.h.index(max(st_.h)) if g.a_count else 0
        pairs = [
            (lambda: lc.know_your_neighbors(g),
             lambda: lc.know_your_neighbors(g, kyn_a0, None)),
            (lambda: lc.know_neighbors_neighbors(g),
             lambda: lc.know_neighbors_neighbors(g, kynn_a0)),
            (lambda: lc.know_neighbors_neighbors(g, uniform=True),
             lambda: lc.know_neighbors_neighbors(g, uni_a0, uniform=True)),
        ]
        for j, (implicit, explicit) in enumerate(pairs):
            want = _outcome(explicit)
            assert _outcome(implicit) == want, f"game {i}"
            seen[j] += not isinstance(want[0], type)
    assert min(seen) >= 60


def test_kyn_without_cache_tests_its_anchor_alone():
    # with no cache, kyn runs the admissibility test for a0 only; it must
    # accept and reject exactly the symbols of the whole cache, and with no
    # symbol it takes the smallest one there
    checked = rejected = 0
    for i, g in enumerate(sweep_games(320)):
        st_ = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st_)
        for a0 in range(g.a_count):
            if not cache.sigma_star[a0]:
                with pytest.raises(lc.NotInSigmaStar, match="no admissible symbol"):
                    lc.know_your_neighbors(g, a0, None, st_)
            else:
                first = lc.know_your_neighbors(g, a0, None, st_)
                assert first.assignment == lc.know_your_neighbors(
                    g, a0, cache.sigma_star[a0][0], st_, cache
                ).assignment
            for s in (-1, *range(g.sigma_a), g.sigma_a):
                if s not in cache.sigma_star[a0]:
                    with pytest.raises(lc.NotInSigmaStar):
                        lc.know_your_neighbors(g, a0, s, st_)
                    with pytest.raises(lc.NotInSigmaStar):
                        lc.know_your_neighbors(g, a0, s, st_, cache)
                    rejected += 1
                    continue
                got = lc.know_your_neighbors(g, a0, s, st_)
                want = lc.know_your_neighbors(g, a0, s, st_, cache)
                assert (got.assignment, got.satisfied, got.guarantee) == (
                    want.assignment, want.satisfied, want.guarantee
                ), f"game {i} a{a0} s{s}"
                checked += 1
    assert checked > 1000 and rejected > 1000


# --- the shared-mask sigma* (the previous code) as an oracle ----------------

def shared_mask_sigma_star(game: ProjectionGame, stats: InstanceStats | None = None):
    """An earlier compute_sigma_star with its ``_admissible``,
    ``_shared_masks`` and ``_reach_fields``, kept as a differential oracle:
    per anchor symbol, every two-hop mask is cut by the shared edges, then
    the reach fields of every two-hop vertex are ANDed.  Returns the same
    dict as ``reference_sigma_star``."""
    stats = stats if stats is not None else compute_stats(game)
    pre, edges, kb = game.preimage_masks, game.edges, game.sigma_b
    m, cap = game.edge_count, 2 * sum(stats.p_max_e)
    # per B vertex: each symbol's good edges
    good = [
        [[e for e in eids if pre[e][t].bit_count() * m <= cap] for t in range(kb)]
        for eids in game.b_edges
    ]

    sigma_star: list[tuple[int, ...]] = []
    n_star: dict[tuple[int, int], tuple[int, ...]] = {}
    n2_star: dict[tuple[int, int], tuple[int, ...]] = {}
    h_star: dict[tuple[int, int], int] = {}
    e_star: dict[tuple[int, int], frozenset[int]] = {}

    for a, admissible in enumerate(shared_mask_admissible(game, stats, range(game.a_count))):
        nbrs = game.a_neighbors[a]
        tables = [game.projections[game.edge_index[(a, b)]] for b in nbrs]
        for sa in admissible:
            good_b = []
            good_edges: set[int] = set()
            for b, table in zip(nbrs, tables):
                hit = good[b][table[sa]]
                if hit:
                    good_b.append(b)
                    good_edges.update(hit)
            good_two_hop = {edges[e][0] for e in good_edges}
            n_star[(a, sa)] = tuple(good_b)
            n2_star[(a, sa)] = tuple(sorted(good_two_hop))
            h_star[(a, sa)] = sum(stats.a_degree[ap] for ap in good_two_hop)
            e_star[(a, sa)] = frozenset(good_edges)
        sigma_star.append(admissible)

    h_star_max = 0
    argmax: tuple[int, int] | None = None
    for a in range(game.a_count):
        for sa in sigma_star[a]:
            if argmax is None or h_star[(a, sa)] > h_star_max:
                h_star_max = h_star[(a, sa)]
                argmax = (a, sa)
    return {
        "threshold": 2 * stats.p_bar_max,
        "sigma_star": tuple(sigma_star),
        "n_star": n_star,
        "n2_star": n2_star,
        "h_star": h_star,
        "e_star": e_star,
        "h_star_max": h_star_max if argmax is not None else 0,
        "h_star_argmax": argmax,
    }


def shared_mask_admissible(game: ProjectionGame, stats: InstanceStats, anchors):
    """Yield the admissible symbols of each A vertex in ``anchors``, in
    increasing order; reach fields are memoised per (two-hop vertex, mask)."""
    pre, edges, ka, kb = game.preimage_masks, game.edges, game.sigma_a, game.sigma_b
    full_a, full_b = (1 << ka) - 1, (1 << kb) - 1
    every = (1 << kb * game.b_count) - 1  # one kb-bit field per B vertex
    low = every // full_b * (full_b >> 1)  # every bit below each field's top
    # per B vertex: each edge's A end and preimages
    rows = [[(edges[e][0], pre[e]) for e in eids] for eids in game.b_edges]
    reach: dict[int, int] = {}
    for a in anchors:
        shared = [(game.projections[game.edge_index[(a, b)]], rows[b])
                  for b in game.a_neighbors[a]]
        symbols = []
        for sa in range(ka):
            masks = dict.fromkeys(stats.n2[a], full_a)
            if not _shared_masks(shared, sa, masks):
                continue
            fields = every
            for ap, mask in masks.items():
                key = ap << ka | mask
                r = reach.get(key)
                if r is None:
                    r = reach[key] = _reach_fields(game, ap, mask, every)
                fields &= r
            # adding ``low`` carries into a field's top bit iff a lower bit is set
            if (fields & low) + low | fields | low == every:
                symbols.append(sa)
        yield tuple(symbols)


def _shared_masks(shared, sa: int, masks: dict[int, int]) -> bool:
    """AND each two-hop mask with its preimages under the anchor's labels on
    the shared B vertices; False as soon as a mask empties."""
    for table, members in shared:
        sb = table[sa]
        for ap, row in members:
            x = masks[ap] & row[sb]
            if not x:
                return False
            masks[ap] = x
    return True


def _reach_fields(game: ProjectionGame, ap: int, mask: int, every: int) -> int:
    """``every`` with the field of each B neighbor b of ap cut down to the
    B symbols that the symbols in ``mask`` map to across edge (ap, b)."""
    pre, edges, kb = game.preimage_masks, game.edges, game.sigma_b
    r = every
    for e in game.a_edges[ap]:
        missed = sum(1 << t for t, p in enumerate(pre[e]) if not p & mask)
        r ^= missed << kb * edges[e][1]
    return r


def dense_games(count):
    """Seeded games with random tables on most A-B pairs, so that two-hop
    vertices often share two or more B vertices with the anchor."""
    rng = random.Random(7)
    for seed in range(count):
        n_a, n_b = rng.randint(2, 6), rng.randint(2, 5)
        k_a, k_b = rng.randint(2, 5), rng.randint(2, 3)
        yield random_unplanted(seed, n_a, n_b, k_a, k_b, p=0.8)


def test_sigma_star_equals_shared_mask_oracle_on_sweep():
    for i, g in enumerate(list(sweep_games(320)) + list(dense_games(600))):
        st_ = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st_)
        assert read_back(g, st_, cache) == shared_mask_sigma_star(g, st_), f"game {i}"


# --- the lazy summaries (the previous _hood) as an oracle --------------------

def lazy_hood(game: ProjectionGame, b: int, hoods):
    """The previous ``_hood``, kept verbatim as a differential oracle: B
    vertex b's summary, its A neighbours as a bitset and its (A end,
    preimages) rows; stored in ``hoods``.  The summary holds, per B symbol,
    0 when the symbol has an empty preimage on some edge at b, else None
    until ``lazy_summary_entry`` builds it."""
    pre, kb = game.preimage_masks, game.sigma_b
    rows = [(game.edges[e][0], pre[e]) for e in game.b_edges[b]]
    members = 0
    for ap, _ in rows:
        members |= 1 << ap
    summary = [None if all(row[t] for _, row in rows) else 0 for t in range(kb)]
    hood = hoods[b] = summary, members, rows
    return hood


def lazy_summary_entry(game: ProjectionGame, rows, t: int, every: int, singles) -> int:
    """The previous ``_summary_entry``, verbatim: the AND over a B vertex's
    (A end ap, preimages) ``rows`` of the reach fields of ap's preimage of
    t, each nonempty."""
    g = every
    for ap, row in rows:
        g &= lazy_reach_fields(game, ap, row[t], every, singles)
    return g


def lazy_reach_fields(game: ProjectionGame, ap: int, mask: int, every: int, singles) -> int:
    """The previous ``_reach_fields``, verbatim: ``every`` with the field of
    each B neighbor b of ap cut down to the B symbols that the symbols in
    the nonempty ``mask`` map to across edge (ap, b).  That is the OR of the
    fields of the one-symbol masks inside ``mask``, each built on first use
    and kept in ``singles``."""
    entry = singles.get(ap)
    if entry is None:
        kb, edges = game.sigma_b, game.edges
        full_b = (1 << kb) - 1
        base, cuts = every, []
        for e in game.a_edges[ap]:
            shift = kb * edges[e][1]
            base ^= full_b << shift
            cuts.append((shift, game.projections[e]))
        entry = singles[ap] = base, cuts, [None] * game.sigma_a
    base, cuts, one = entry
    r = 0
    while mask:
        s = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        x = one[s]
        if x is None:
            x = base
            for shift, table in cuts:
                x |= 1 << shift + table[s]
            one[s] = x
        r |= x
    return r


def test_summary_sweep_equals_the_lazy_summaries_on_sweep():
    # every B vertex's summary, members and rows, and every one-symbol
    # field, equal the lazy ones with every entry built
    dead = built = 0
    for i, g in enumerate(chain(sweep_games(320), dense_games(600))):
        every = (1 << g.sigma_b * g.b_count) - 1
        hoods, singles, lazy, lazy_singles = {}, {}, {}, {}
        for b in range(g.b_count):
            summary, members, rows = approx._hood(g, b, hoods, every, singles)
            want, want_members, want_rows = lazy_hood(g, b, lazy)
            dead += want.count(0)  # a symbol with an empty preimage at b
            want = [lazy_summary_entry(g, want_rows, t, every, lazy_singles)
                    if entry is None else entry for t, entry in enumerate(want)]
            assert hoods[b] == (summary, members, rows), (i, b)
            assert (summary, members, rows) == (want, want_members, want_rows), (i, b)
            built += len(summary)
        assert singles.keys() == {a for a in range(g.a_count) if g.a_edges[a]}
        for ap, one in singles.items():
            assert one == [lazy_reach_fields(g, ap, 1 << s, every, lazy_singles)
                           for s in range(g.sigma_a)], (i, ap)
    assert dead > 4000 and built > 9000


def test_sigma_star_drops_empty_joint_mask():
    # a1 shares b0, b1, b2 with a0; anchoring a0 at 0 labels all three 0,
    # and a1's preimages of 0 there, {0, 1}, {1, 2} and {0, 2}, meet
    # pairwise but not all together, so a0's symbol 0 is not admissible
    g = lc.build_game(
        2, 3, 3, 2,
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)],
        [(0, 1, 1), (0, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0)],
    )
    pre = g.preimage_masks
    a1_masks = [pre[g.edge_index[(1, b)]][0] for b in range(3)]
    assert all(x & y for x in a1_masks for y in a1_masks)
    assert a1_masks[0] & a1_masks[1] & a1_masks[2] == 0
    cache = lc.compute_sigma_star(g)
    assert 0 not in cache.sigma_star[0]
    assert matches(g, cache, shared_mask_sigma_star(g))
    assert cache.sigma_star == naive_sigma_star(g)


def test_sigma_star_drops_joint_mask_reach_conflict():
    # a1 shares b0 and b1 with a0; anchoring a0 at 0 labels both 0, and
    # a1's preimages there, {0, 1} and {1, 2}, leave it only symbol 1,
    # which maps to 1 at b2; a2 shares b0 alone, keeps {0}, and maps it
    # to 0 at b2, so no label of b2 suits both and 0 is not admissible
    g = lc.build_game(
        3, 3, 3, 2,
        [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)],
        [(0, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0),
         (0, 1, 1), (0, 0, 0)],
    )
    pre = g.preimage_masks
    p0, p1 = (pre[g.edge_index[(1, b)]][0] for b in (0, 1))
    assert p0 & p1 not in (0, p0, p1)
    cache = lc.compute_sigma_star(g)
    assert 0 not in cache.sigma_star[0]
    assert matches(g, cache, shared_mask_sigma_star(g))
    assert cache.sigma_star == naive_sigma_star(g)


@st.composite
def small_games(draw):
    n_a, n_b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    k_a, k_b = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    edges = [
        (a, b) for a in range(n_a) for b in range(n_b) if draw(st.booleans())
    ]
    symbol = st.integers(0, k_b - 1)
    tables = [
        draw(st.lists(symbol, min_size=k_a, max_size=k_a)) for _ in edges
    ]
    return lc.build_game(n_a, n_b, k_a, k_b, edges, tables)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(small_games())
def test_sigma_star_equals_reference_property(g):
    assert matches(g, lc.compute_sigma_star(g), reference_sigma_star(g))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(small_games())
def test_sigma_star_equals_shared_mask_oracle_property(g):
    assert matches(g, lc.compute_sigma_star(g), shared_mask_sigma_star(g))


def test_good_edge_boundary_is_inclusive():
    # b0's tables give p_max_e = (1, 4, 1), so 2 * p_bar_max = 2 * 6/3 = 4.
    # Anchoring a0 at 1 labels b0 with 0, whose preimage on edge 1 (a
    # constant table) has exactly 4 symbols: the edge sits on the bound.
    g = lc.build_game(
        3, 1, 4, 2, [(0, 0), (1, 0), (2, 0)],
        [(1, 0, 1, 1), (0, 0, 0, 0), (0, 1, 1, 1)],
    )
    cache = lc.compute_sigma_star(g)
    threshold = 2 * lc.compute_stats(g).p_bar_max
    assert threshold == 4
    assert g.preimage_masks[1][0].bit_count() == threshold
    assert 1 in cache.sigma_star[0]
    assert good_edges(g, cache, 0, 1) == frozenset({0, 1, 2})
    assert cache.good(0, 1)[1] == (0, 1, 2)


def test_good_b_neighbours_skip_a_neighbour_without_good_edges():
    # p_max_e = (1, 1, 1, 1, 4), so 2 * p_bar_max = 16/5: the constant
    # table's one edge at b1 is never good, and no anchor of a0 has b1 in N*
    ident = (0, 1, 2, 3)
    g = lc.build_game(4, 2, 4, 4, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)],
                      [ident] * 4 + [(0, 0, 0, 0)])
    cache = lc.compute_sigma_star(g)
    assert cache.sigma_star[0] == ident
    for s in ident:
        assert cache.good(0, s) == ((0,), (0, 1, 2, 3), 5)
        assert good_edges(g, cache, 0, s) == frozenset(range(4))
    assert matches(g, cache, reference_sigma_star(g))


def test_sigma_star_good_sets_consistent():
    for seed in range(8):
        g, _ = planted(seed)
        st = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st)
        for a in range(g.a_count):
            for sa in cache.sigma_star[a]:
                nstar, n2star, hstar = cache.good(a, sa)
                assert set(nstar) <= set(g.a_neighbors[a])
                assert set(n2star) <= set(st.n2[a])
                assert hstar == sum(st.a_degree[ap] for ap in n2star)


def test_good_equals_the_reference_dicts_on_sweep():
    # good(a, s) reads the reference's good B neighbours, good two-hop set
    # and h_star for each admissible key, equal on every read, and the
    # blocks its good-edge set; a pickled cache reads the same
    keys = 0
    for i, g in enumerate(sweep_games(320)):
        st_ = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st_)
        ref = reference_sigma_star(g, st_)
        for key in ref["n_star"]:
            want = ref["n_star"][key], ref["n2_star"][key], ref["h_star"][key]
            assert cache.good(*key) == cache.good(*key) == want, (i, key)
            assert good_edges(g, cache, *key) == ref["e_star"][key], (i, key)
            keys += 1
        assert read_back(g, st_, pickle.loads(pickle.dumps(cache))) == ref, f"game {i}"
    assert keys > 3000


# --- sigma* built on read -----------------------------------------------------

def _tested(cache):
    """The A vertices whose admissibility test has run."""
    return [a for a, symbols in enumerate(cache.sigma_star._memo) if symbols is not None]


def test_lazy_sigma_star_in_any_read_order_equals_the_reference_on_sweep():
    # shuffled vertex reads, the argmax's key first, or dnc first: each
    # leaves a cache that reads back as the reference, and the last read
    # drops the test
    rng = random.Random(5)
    partial = 0
    for i, g in enumerate(sweep_games(320)):
        st_ = lc.compute_stats(g)
        ref = reference_sigma_star(g, st_)
        order = list(range(g.a_count))
        rng.shuffle(order)
        shuffled = lc.compute_sigma_star(g, st_)
        for a in order:
            assert shuffled.sigma_star[a] == ref["sigma_star"][a], (i, a)
        assert shuffled.sigma_star._test is None
        assert read_back(g, st_, shuffled) == ref, f"game {i}"

        argmax_first = lc.compute_sigma_star(g, st_)
        if ref["h_star_argmax"] is not None:
            key = argmax_first.h_star_argmax
            assert argmax_first.good(*key) == (
                ref["n_star"][key], ref["n2_star"][key], ref["h_star"][key]), i
            assert good_edges(g, argmax_first, *key) == ref["e_star"][key], i
        assert read_back(g, st_, argmax_first) == ref, f"game {i}"

        dnc_first = lc.compute_sigma_star(g, st_)
        lc.divide_and_conquer(g, st_, dnc_first)
        partial += len(_tested(dnc_first)) < g.a_count
        assert read_back(g, st_, dnc_first) == ref, f"game {i}"
    assert partial >= 100


def _argmax_case(g):
    cache, ref = lc.compute_sigma_star(g), reference_sigma_star(g)
    want = max(ref["h_star"], key=ref["h_star"].__getitem__)
    assert cache.h_star_argmax == want
    assert cache.h_star_max == ref["h_star"][want]
    return cache


def test_h_star_argmax_ties_go_to_the_first_key():
    # a0 and a1 share b0 under identity tables: equal h, and every key ties
    # on h* = 2, so the first key wins
    cache = _argmax_case(lc.build_game(2, 1, 2, 2, [(0, 0), (1, 0)], [(0, 1)] * 2))
    assert cache.h_star_argmax == (0, 0) and cache.h_star_max == 2
    # h = (4, 3, 5): a2 is tested first and its best h* is 4, which only
    # ties h(a0); so a0 must still be tested, and its tie (0, 1) wins
    g = lc.build_game(
        3, 3, 3, 3, [(0, 1), (0, 2), (1, 0), (2, 0), (2, 2)],
        [(1, 2, 0), (0, 1, 0), (2, 2, 2), (1, 1, 2), (2, 2, 1)],
    )
    assert lc.compute_stats(g).h == (4, 3, 5)
    cache = _argmax_case(g)
    assert cache.good(2, 2)[2] == cache.h_star_max == 4
    assert cache.h_star_argmax == (0, 1)


def test_h_star_argmax_skips_a_top_anchor_without_symbols():
    # a0 and a1 hold b0 and b1 with crossed tables, so neither has an
    # admissible symbol though both have the largest h; a2 alone wins
    g = lc.build_game(
        3, 3, 2, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)],
        [(0, 1), (0, 1), (0, 1), (1, 0), (0, 1)],
    )
    st_ = lc.compute_stats(g)
    assert st_.h[0] == st_.h[1] == st_.h_max > st_.h[2]
    cache = _argmax_case(g)
    assert cache.sigma_star[:2] == ((), ())
    assert cache.h_star_argmax == (2, 0)


def test_h_star_argmax_equals_the_reference_on_random_ties():
    # many small games where several anchors tie on the largest h*, or
    # the vertex of largest h is not the argmax's
    ties = later = 0
    for seed in range(400):
        g = random_unplanted(seed) if seed % 2 else planted(seed, k_a=2, degree=1)[0]
        ref = reference_sigma_star(g)
        if ref["h_star_argmax"] is None:
            continue
        cache = _argmax_case(g)
        best = [key for key, h in ref["h_star"].items() if h == ref["h_star_max"]]
        ties += len({a for a, _ in best}) > 1
        st_ = lc.compute_stats(g)
        later += st_.h.index(st_.h_max) != cache.h_star_argmax[0]
    assert ties >= 100 and later >= 30


def test_best_of_tests_few_anchors():
    g, _ = lc.gen_random_satisfiable(800, 400, 8, 3, 5, seed=7)
    st_ = lc.compute_stats(g)
    cache = lc.compute_sigma_star(g, st_)
    rep = lc.best_of(g, st_, cache)
    assert rep.satisfied >= rep.guarantee
    assert 0 < len(_tested(cache)) <= 0.15 * g.a_count


def test_a_hand_built_cache_is_refused_where_blocks_are_read():
    """An ``==`` cache that compute_sigma_star did not build serves kyn,
    which reads only sigma*, but good, kynn, dnc and best_of, which read
    its good-edge blocks, refuse it."""
    g, _ = lc.gen_random_satisfiable(8, 5, 4, 3, 2, seed=3)
    st_ = lc.compute_stats(g)
    ref = reference_sigma_star(g, st_)
    hand = SigmaStarCache(ref["sigma_star"], ref["h_star_max"], ref["h_star_argmax"])
    assert hand == lc.compute_sigma_star(g, st_)
    lc.know_your_neighbors(g, None, None, st_, hand)
    want = r"^cache must be the result of compute_sigma_star\(game, stats\)$"
    with pytest.raises(TypeError, match=want):
        hand.good(*hand.h_star_argmax)
    for solver in (lc.know_neighbors_neighbors, lc.divide_and_conquer, lc.best_of):
        with pytest.raises(TypeError, match=want):
            solver(g, stats=st_, cache=hand)


def test_sigma_star_view_is_faithful_to_a_tuple():
    for i, g in enumerate(sweep_games(120)):
        view, want = lc.compute_sigma_star(g).sigma_star, reference_sigma_star(g)["sigma_star"]
        if g.a_count:
            assert view[-1] == want[-1] and view[::-2] == want[::-2], i
        with pytest.raises(IndexError):
            view[g.a_count]
        assert hash(view) == hash(want) and view == want and want == view, i
        assert view != list(want) and len(view) == len(want), i


def test_good_refuses_bad_keys_and_tests_no_other_vertex_on_sweep():
    # (-1, 0) names no vertex: it must not wrap to the last one; an
    # inadmissible key may test its own vertex, and no other
    refused = 0
    for i, g in enumerate(sweep_games(120)):
        cache, admissible = lc.compute_sigma_star(g), reference_sigma_star(g)["sigma_star"]
        for a in (-1, g.a_count):
            tested = _tested(cache)
            with pytest.raises(lc.IndexOutOfRange, match=(
                    rf"^anchor a{a} out of range for {g.a_count} A vertices$")):
                cache.good(a, 0)
            assert _tested(cache) == tested, (i, a)
            refused += 1
        for a in range(g.a_count):
            for s in (-1, *range(g.sigma_a), g.sigma_a):
                if s in admissible[a]:
                    continue
                tested = sorted({*_tested(cache), a})
                with pytest.raises(lc.NotInSigmaStar, match=(
                        rf"^symbol {s} is not admissible for a{a}$")):
                    cache.good(a, s)
                assert _tested(cache) == tested, (i, a, s)
                refused += 1
    assert refused > 1000


def test_partly_read_cache_survives_a_pickle_round_trip():
    # the copy carries the memos of the vertices read so far and reads
    # back as the reference
    partial = 0
    for i, g in enumerate(sweep_games(60)):
        st_ = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st_)
        copy = pickle.loads(pickle.dumps(cache))
        assert _tested(copy) == _tested(cache), f"game {i}"
        partial += len(_tested(copy)) < g.a_count
        ref = reference_sigma_star(g, st_)
        assert read_back(g, st_, copy) == ref == read_back(g, st_, cache), f"game {i}"
        assert copy.sigma_star._test is None and cache.sigma_star._test is None
    assert partial >= 20


def test_cache_and_best_of_leave_no_cycle_holding_the_game():
    import gc
    import weakref

    g, _ = planted(3)
    alive = weakref.ref(g)
    gc.collect()
    gc.disable()
    try:
        st_ = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st_)
        lc.best_of(g, st_, cache)
        lc.know_your_neighbors(g)
        del g, st_, cache
        assert alive() is None
    finally:
        gc.enable()


# --- satisfy one neighbor ---------------------------------------------------

def test_one_neighbor_star():
    g = lc.build_game(
        1, 3, 2, 2, [(0, 0), (0, 1), (0, 2)], [(0, 1), (1, 1), (0, 0)]
    )
    rep = lc.satisfy_one_neighbor(g)
    assert rep.satisfied >= 3


def test_one_neighbor_single_edge():
    rep = lc.satisfy_one_neighbor(single_edge_game())
    assert rep.satisfied == 1


def test_one_neighbor_tiny1_golden(tiny1):
    game, _, golden = tiny1
    rep = lc.satisfy_one_neighbor(game)
    assert rep.satisfied == golden["one_neighbor_value"]
    assert rep.satisfied >= game.b_count


# --- greedy -----------------------------------------------------------------

def test_greedy_constant_tables_tight():
    edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
    g = lc.build_game(2, 2, 3, 2, edges, [(0, 0, 0)] * 4)
    rep = lc.greedy_assignment(g)
    assert rep.satisfied == g.edge_count
    assert rep.guarantee == Fraction(g.edge_count * 3, 3)


def test_greedy_bijective_half():
    g, _ = planted(3, k_a=2, k_b=2, uniform=True)
    rep = lc.greedy_assignment(g)
    assert rep.satisfied >= math.ceil(g.edge_count / 2)


def test_greedy_bound_sweep():
    for seed in range(60):
        g, _ = planted(seed, n_a=5 + seed % 10, n_b=4 + seed % 6,
                       k_a=2 + seed % 4, k_b=2, degree=1 + seed % 3)
        st = lc.compute_stats(g)
        rep = lc.greedy_assignment(g, st)
        bound = Fraction(g.edge_count) * st.p_bar_max / g.sigma_a
        assert rep.satisfied >= math.ceil(bound)


# --- know your neighbors ------------------------------------------------------

def test_kyn_star_satisfies_everything():
    g = lc.build_game(
        1, 3, 2, 2, [(0, 0), (0, 1), (0, 2)], [(0, 1), (1, 1), (0, 0)]
    )
    rep = lc.know_your_neighbors(g, 0, 0)
    assert rep.satisfied == g.edge_count


def test_kyn_single_edge():
    rep = lc.know_your_neighbors(single_edge_game(), 0, 0)
    assert rep.satisfied == 1


def test_kyn_tiny1_at_argmax(tiny1):
    game, plant, golden = tiny1
    st = lc.compute_stats(game)
    a0 = max(range(game.a_count), key=lambda a: (st.e_n[a], -a))
    rep = lc.know_your_neighbors(game, a0, plant.a_labels[a0], st)
    assert rep.satisfied >= golden["e_n_max"]


def test_kyn_rejects_inadmissible_symbol():
    g = lc.build_game(2, 1, 2, 2, [(0, 0), (1, 0)], [(0, 1), (0, 0)])
    with pytest.raises(lc.NotInSigmaStar):
        lc.know_your_neighbors(g, 0, 1)


def test_kyn_bound_sweep():
    for seed in range(30):
        g, plant = planted(seed)
        st = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st)
        a0 = max(range(g.a_count), key=lambda a: (st.e_n[a], -a))
        rep = lc.know_your_neighbors(g, a0, plant.a_labels[a0], st, cache)
        assert rep.satisfied >= st.e_n_max


# --- know your neighbors' neighbors ------------------------------------------

def test_kynn_single_edge():
    rep = lc.know_neighbors_neighbors(single_edge_game(), 0)
    assert rep.satisfied == 1
    assert rep.satisfied >= rep.guarantee


def test_kynn_uniform_complete_bipartite():
    g, _ = lc.gen_random_satisfiable(2, 2, 2, 2, 2, seed=8, uniform=True)
    st = lc.compute_stats(g)
    assert st.uniform_p == 1
    rep = lc.know_neighbors_neighbors(g, 0, st, uniform=True)
    assert rep.guarantee == Fraction(st.h[0], st.uniform_p)
    assert rep.satisfied >= rep.guarantee


def test_kynn_uniform_requires_uniform_instance(tiny1):
    game = tiny1[0]
    with pytest.raises(lc.UniformAssumptionViolated):
        lc.know_neighbors_neighbors(game, 0, uniform=True)


def test_kynn_nonuniform_bound_sweep():
    for seed in range(40):
        g, _ = planted(seed, n_a=4 + seed % 8, n_b=4 + seed % 5,
                       k_a=2 + seed % 4, k_b=2, degree=1 + seed % 3)
        st = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st)
        if cache.h_star_argmax is None:
            continue
        a0 = cache.h_star_argmax[0]
        rep = lc.know_neighbors_neighbors(g, a0, st, cache)
        assert Fraction(rep.satisfied) >= rep.guarantee
        assert rep.guarantee >= Fraction(cache.h_star_max) / (2 * st.p_bar_max)


def test_kynn_uniform_and_canonical_agree_on_uniform_instances():
    for seed in range(10):
        g, _ = planted(seed, k_a=4, k_b=2, uniform=True)
        st = lc.compute_stats(g)
        a0 = max(range(g.a_count), key=lambda a: (st.h[a], -a))
        bound = Fraction(st.h[a0], st.uniform_p)
        uni = lc.know_neighbors_neighbors(g, a0, st, uniform=True)
        canon = lc.know_neighbors_neighbors(g, a0, st)
        assert uni.satisfied >= bound
        assert canon.satisfied >= bound


# --- divide and conquer --------------------------------------------------------

def test_dnc_single_edge():
    rep = lc.divide_and_conquer(single_edge_game())
    assert rep.satisfied == 1


def test_dnc_disjoint_blocks_fully_collected():
    # disjoint planted complete-bipartite blocks: every block qualifies
    rng = random.Random(4)
    edges, tables = [], []
    for block in range(3):
        for a in range(2):
            for b in range(2):
                edges.append((block * 2 + a, block * 2 + b))
    a_opt = [rng.randrange(2) for _ in range(6)]
    b_opt = [rng.randrange(2) for _ in range(6)]
    for a, b in edges:
        t = [rng.randrange(2) for _ in range(2)]
        t[a_opt[a]] = b_opt[b]
        tables.append(tuple(t))
    g = lc.build_game(6, 6, 2, 2, edges, tables)
    rep = lc.divide_and_conquer(g)
    assert rep.satisfied == g.edge_count


def test_dnc_bound_sweep():
    for seed in range(40):
        g, _ = planted(seed, n_a=4 + seed % 8, n_b=4 + seed % 5,
                       k_a=2 + seed % 4, k_b=2, degree=1 + seed % 3)
        st = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st)
        rep = lc.divide_and_conquer(g, st, cache)
        assert Fraction(rep.satisfied) >= rep.guarantee


def test_dnc_uniform_bound_sweep():
    for seed in range(20):
        g, _ = planted(seed, k_a=4, k_b=2, uniform=True)
        st = lc.compute_stats(g)
        rep = lc.divide_and_conquer(g, st, uniform=True)
        m, na, nb = g.edge_count, g.a_count, g.b_count
        assert rep.guarantee == Fraction(m**3, 8 * na * nb * st.h_max)
        assert Fraction(rep.satisfied) >= rep.guarantee


def oracle_divide_and_conquer(
    game: ProjectionGame,
    stats: InstanceStats | None = None,
    uniform: bool = False,
) -> SolveReport:
    """An earlier divide_and_conquer, kept as a differential oracle: it
    lists, per edge, every key whose region holds it, and decrements each
    of those keys' live counts when the edge dies.  The canonical variant
    takes its keys, regions and good sets from ``reference_sigma_star``."""
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

    if uniform:
        keys: list[tuple[int, int | None]] = [(a, None) for a in range(n_a)]
        regions = {}
        for a in range(n_a):
            regions[(a, None)] = frozenset(
                e for b in game.a_neighbors[a] for e in game.b_edges[b]
            )
        factor = 4
        guarantee = (
            Fraction(m**3, 8 * n_a * n_b * stats.h_max)
            if stats.h_max
            else Fraction(0)
        )
    else:
        ref = reference_sigma_star(game, stats)
        keys = [
            (a, sa) for a in range(n_a) for sa in ref["sigma_star"][a]
        ]
        regions = ref["e_star"]
        factor = 16
        denom = ref["h_star_max"] + stats.e_n_max
        guarantee = Fraction(m**3, 64 * n_a * n_b * denom) if denom else Fraction(0)

    owners: list[list[int]] = [[] for _ in range(m)]
    for ki, key in enumerate(keys):
        for e in regions[key]:
            owners[e].append(ki)
    live = [len(regions[key]) for key in keys]
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
                    for ki in owners[e]:
                        live[ki] -= 1

    # live counts only fall, so a key the scan has passed stays ineligible
    # and each round's scan resumes at the last chosen key
    pos = 0
    while True:
        while pos < len(keys) and not (
            factor * n_a * n_b * live[pos] >= m * m and live[pos] > 0
        ):
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
            p_b = [b for b in ref["n_star"][(a, sa)] if not in_vp[n_a + b]]
            p_a = [ap for ap in ref["n2_star"][(a, sa)] if not in_vp[ap]]
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


def _dnc_fields(rep):
    return rep.assignment, rep.satisfied, rep.guarantee, rep.algorithm


def test_dnc_equals_owner_list_oracle_on_sweep():
    # canonical on every sweep game, the unsatisfiable and edgeless ones
    # too, with and without a cache; a cache dnc and best_of have read
    # stays equal to a fresh one
    games = list(sweep_games(320))
    assert len(games) == 322
    claimed = 0
    for i, g in enumerate(games):
        st_ = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st_)
        want = _dnc_fields(oracle_divide_and_conquer(g, st_))
        assert _dnc_fields(lc.divide_and_conquer(g, st_, cache)) == want, f"game {i}"
        assert _dnc_fields(lc.divide_and_conquer(g)) == want, f"game {i}"
        lc.best_of(g, st_, cache)
        fresh = lc.compute_sigma_star(g, st_)
        assert read_back(g, st_, cache) == read_back(g, st_, fresh), f"game {i}"
        claimed += any(want[0].b_labels)
    assert claimed >= 100


def test_dnc_uniform_equals_owner_list_oracle():
    claimed = 0
    for seed in range(40):
        g, _ = planted(seed, k_a=4, uniform=True)
        st_ = lc.compute_stats(g)
        want = _dnc_fields(oracle_divide_and_conquer(g, st_, uniform=True))
        got = lc.divide_and_conquer(g, st_, uniform=True)
        assert _dnc_fields(got) == want, f"seed {seed}"
        claimed += got.satisfied > 0
    assert claimed == 40


@pytest.mark.parametrize("uniform, shape, seed", [
    (False, (800, 400, 8, 3, 5), 5),
    (True, (400, 200, 6, 3, 4), 3),
])
def test_dnc_scans_only_vertices_that_can_reach_the_threshold(
    monkeypatch, uniform, shape, seed
):
    # a vertex whose B neighbours hold too few live edges has no key that
    # passes, so dnc skips it without counting its keys: 104 and 64 counts
    # here, against 852 and 432 with one per vertex and one per claim
    calls = []
    counts = approx._live_counts
    monkeypatch.setattr(approx, "_live_counts",
                        lambda *args: calls.append(args[1]) or counts(*args))
    g, _ = lc.gen_random_satisfiable(*shape, seed=seed, uniform=uniform)
    rep = lc.divide_and_conquer(g, uniform=uniform)
    assert rep.satisfied >= rep.guarantee > 0
    assert 0 < len(calls) < g.a_count / 4


def test_sigma_star_memory_is_linear_on_a_sparse_game():
    # the good-edge blocks keep their edges only; an |A|-bit set of A ends
    # per (B vertex, symbol) block made the eager part grow as |A| x |B|
    # (a 5.0 MB peak here; 2.1 MB with edges only)
    import tracemalloc

    g, _ = lc.gen_random_satisfiable(4000, 2000, 8, 3, 5, seed=7)
    st_ = lc.compute_stats(g)
    for name in ("a_edges", "b_edges", "a_neighbors", "b_neighbors",
                 "edge_index", "preimage_masks"):
        getattr(g, name)  # the game's cached properties, built before
    tracemalloc.start()
    try:
        cache = lc.compute_sigma_star(g, st_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(block[1]) for block in cache.sigma_star.blocks) == 59_865
    assert peak < 3_000_000


def test_sigma_star_and_best_of_memory_is_a_few_blocks():
    # on a dense game the per-key good sets come to 266,417 edge entries
    # over 400 keys; sigma* keeps only the per-(B vertex, symbol) blocks,
    # at most kB * |E| = 16,000 entries, and dnc counts over them
    import tracemalloc

    g, _ = lc.gen_random_satisfiable(400, 60, 10, 4, 10, seed=11)
    st_ = lc.compute_stats(g)
    tracemalloc.start()
    try:
        cache = lc.compute_sigma_star(g, st_)
        rep = lc.best_of(g, st_, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.satisfied >= rep.guarantee
    assert sum(len(good_edges(g, cache, a, s)) for a, symbols in enumerate(cache.sigma_star)
               for s in symbols) > 200_000
    assert peak < 4_000_000


# --- best of -------------------------------------------------------------------

def test_best_single_edge():
    rep = lc.best_of(single_edge_game())
    assert rep.satisfied == 1


def test_best_tiny1_golden(tiny1):
    game, _, golden = tiny1
    rep = lc.best_of(game)
    assert rep.algorithm == golden["best_algorithm"]
    assert rep.satisfied == golden["best_value"]


def test_best_dominates_components():
    for seed in range(15):
        g, _ = planted(seed)
        rep = lc.best_of(g)
        assert rep.breakdown is not None
        assert rep.satisfied == max(v for _, v in rep.breakdown)


def test_best_deterministic():
    g, _ = planted(11)
    r1 = lc.best_of(g)
    r2 = lc.best_of(g)
    assert r1.assignment == r2.assignment
    assert r1.satisfied == r2.satisfied
    assert r1.algorithm == r2.algorithm


def test_best_quartic_bound_small_sweep():
    for seed in range(25):
        g, _ = planted(seed, n_a=4 + seed % 10, n_b=4 + seed % 7,
                       k_a=2 + seed % 5, k_b=2, degree=1 + seed % 3)
        rep = lc.best_of(g)
        m = g.edge_count
        assert 256 * rep.satisfied**4 * g.a_count * g.sigma_a >= m**4


def test_all_algorithms_structurally_valid_on_unsatisfiable_inputs():
    for seed in range(10):
        g = random_unplanted(seed)
        st = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st)
        reports = [
            lc.satisfy_one_neighbor(g),
            lc.greedy_assignment(g, st),
            lc.divide_and_conquer(g, st, cache),
            lc.best_of(g, st, cache),
        ]
        if cache.h_star_argmax is not None:
            reports.append(
                lc.know_neighbors_neighbors(g, cache.h_star_argmax[0], st, cache)
            )
        for rep in reports:
            assert rep.satisfied == lc.value(g, rep.assignment)


def approx_reports(g, st_, cache):
    """Every approximation report on g: the five algorithms (kyn at each
    anchor's smallest admissible symbol, kynn at every anchor), the
    uniform variants when tables split evenly, and best_of."""
    reports = [
        lc.satisfy_one_neighbor(g),
        lc.greedy_assignment(g, st_),
        lc.divide_and_conquer(g, st_, cache),
        lc.best_of(g, st_, cache),
    ]
    for a0 in range(g.a_count):
        if cache.sigma_star[a0]:
            reports.append(lc.know_your_neighbors(
                g, a0, cache.sigma_star[a0][0], st_, cache))
        reports.append(lc.know_neighbors_neighbors(g, a0, st_, cache))
        if st_.uniform_p is not None:
            reports.append(lc.know_neighbors_neighbors(g, a0, st_, uniform=True))
    if st_.uniform_p is not None:
        reports.append(lc.divide_and_conquer(g, st_, uniform=True))
    return reports


def test_approx_certificate_property():
    # every report's count is the value of its assignment, and on the
    # planted (satisfiable) games it meets the certified guarantee; the
    # sweep's even games keep their planted tables
    games = [(g, i % 2 == 0) for i, g in enumerate(sweep_games(320))]
    games += [(planted(s, k_a=4, k_b=2, uniform=True)[0], True) for s in range(20)]
    algorithms = set()
    uniform_games = 0
    for i, (g, satisfiable) in enumerate(games):
        st_ = lc.compute_stats(g)
        cache = lc.compute_sigma_star(g, st_)
        uniform_games += st_.uniform_p is not None
        for rep in approx_reports(g, st_, cache):
            algorithms.add(rep.algorithm.split("(")[0])
            assert rep.satisfied == lc.value(g, rep.assignment), (i, rep.algorithm)
            if satisfiable:
                assert rep.satisfied >= rep.guarantee, (i, rep.algorithm)
    assert algorithms == {"one-neighbor", "greedy", "kyn", "kynn", "kynn-uniform",
                          "dnc", "dnc-uniform", "best"}
    assert uniform_games >= 20
