import math
import random
from fractions import Fraction
from itertools import product
from time import perf_counter

import pytest

import labelcover as lc
from labelcover.core import (
    Assignment,
    BudgetExceeded,
    ProjectionGame,
    SolveReport,
    _best_a_symbol,
    _consistent_masks,
    _majority_b_symbol,
    value,
)
from labelcover.smooth import DEFAULT_ENUM_CAP, default_mu


def naive_mu(game):
    """O(|A| k^2 d) recomputation straight from the definition."""
    worst = Fraction(0)
    for a in range(game.a_count):
        eids = game.a_edges[a]
        if not eids or game.sigma_a < 2:
            continue
        for s in range(game.sigma_a):
            for s2 in range(game.sigma_a):
                if s == s2:
                    continue
                coll = sum(
                    1
                    for e in eids
                    if game.projections[e][s] == game.projections[e][s2]
                )
                worst = max(worst, Fraction(coll, len(eids)))
    return worst


def test_measure_identity_is_unique_game():
    g = lc.build_game(2, 2, 2, 2, [(0, 0), (1, 1)], [(0, 1), (1, 0)])
    rep = lc.measure_smoothness(g)
    assert rep.mu == 0
    assert rep.witness is None


def test_measure_constant_tables():
    g = lc.build_game(1, 1, 3, 2, [(0, 0)], [(0, 0, 0)])
    rep = lc.measure_smoothness(g)
    assert rep.mu == 1
    assert rep.witness == (0, 0, 1)


def test_measure_matches_naive(smooth1):
    game, _ = smooth1
    assert lc.measure_smoothness(game).mu == naive_mu(game)
    for seed in range(6):
        g, _, _ = lc.gen_smooth(3, 6, 3, 4, 6, Fraction(1, 2), seed=seed)
        assert lc.measure_smoothness(g).mu == naive_mu(g)


def test_default_mu_floor():
    g = lc.build_game(2, 2, 2, 2, [(0, 0), (1, 1)], [(0, 1), (1, 0)])
    assert lc.default_mu(g) == Fraction(1, 1)  # unique game, min degree 1


def test_observation_pinning_on_planted(smooth1):
    # with strictly more than mu*d planted neighbors visible, only the
    # planted symbol stays consistent
    game, plant = smooth1
    rep = lc.measure_smoothness(game)
    rng = random.Random(0)
    full = (1 << game.sigma_a) - 1
    for a in range(game.a_count):
        eids = game.a_edges[a]
        need = math.floor(rep.mu * len(eids)) + 1
        for _ in range(5):
            sample = rng.sample(eids, need)
            mask = full
            for e in sample:
                b = game.edges[e][1]
                mask &= game.preimage_masks[e][plant.b_labels[b]]
            assert mask == 1 << plant.a_labels[a]


# --- randomized exact solver -------------------------------------------------

def test_smooth_exact_unique_game_full_sample():
    # planted bijective tables; with c1 * mu >= 1 every vertex is sampled,
    # so the enumeration must hit a satisfying assignment
    rng = random.Random(2)
    a_opt = [rng.randrange(3) for _ in range(2)]
    b_opt = [rng.randrange(3) for _ in range(4)]
    perms = []
    edges = []
    for a in range(2):
        for b in range(4):
            edges.append((a, b))
            p = list(range(3))
            rng.shuffle(p)
            swap = p.index(b_opt[b])
            p[swap], p[a_opt[a]] = p[a_opt[a]], b_opt[b]
            perms.append(tuple(p))
    g = lc.build_game(2, 4, 3, 3, edges, perms)
    assert lc.measure_smoothness(g).mu == 0
    assert lc.value(g, lc.Assignment(tuple(a_opt), tuple(b_opt))) == g.edge_count
    phi = lc.smooth_exact(g, mu=Fraction(1, 4), c1=4, seed=0)
    assert phi is not None
    assert lc.value(g, phi) == g.edge_count


def test_smooth_exact_statistical(smooth1):
    game, _ = smooth1
    successes = 0
    for seed in range(20):
        try:
            phi = lc.smooth_exact(game, mu=Fraction(1, 12), c1=4, seed=seed)
        except lc.BudgetExceeded:
            phi = None
        if phi is not None:
            assert lc.value(game, phi) == game.edge_count
            successes += 1
    assert successes >= 10


def test_smooth_exact_empty_sample_returns_none():
    # two A vertices disagree on the zero row, so the fallback completion
    # cannot satisfy every edge when nothing is sampled
    g = lc.build_game(2, 1, 2, 2, [(0, 0), (1, 0)], [(0, 1), (1, 0)])
    assert lc.is_satisfiable(g)
    hit = False
    for seed in range(50):
        rng = random.Random(seed)
        if rng.random() >= 0.02:  # same draw smooth_exact will make
            phi = lc.smooth_exact(g, mu=Fraction(1, 100), c1=2, seed=seed)
            assert phi is None
            hit = True
            break
    assert hit


def test_smooth_exact_budget():
    game, _, _ = lc.gen_smooth(2, 10, 2, 4, 10, Fraction(1, 2), seed=1)
    with pytest.raises(lc.BudgetExceeded):
        lc.smooth_exact(game, mu=Fraction(1), c1=4, seed=0, enum_cap=10)


def test_smooth_solvers_reject_parameters_out_of_range(smooth1):
    game, _ = smooth1
    for mu in (Fraction(-1), Fraction(-1, 12), Fraction(3, 2)):
        with pytest.raises(lc.InvalidSchemeParameter, match=r"^mu must be in \[0, 1\]"):
            lc.smooth_exact(game, mu=mu)
        with pytest.raises(lc.InvalidSchemeParameter, match=r"^mu must be in \[0, 1\]"):
            lc.smooth_approx(game, mu=mu)
    # each message names the parameter at fault, also with mu left to default
    for mu in (Fraction(1, 12), None):
        with pytest.raises(lc.InvalidSchemeParameter) as exc:
            lc.smooth_exact(game, mu=mu, c1=-4)
        assert str(exc.value) == "c1 must be at least 0, got -4"
    from labelcover import core, planar
    assert lc.InvalidSchemeParameter is core.InvalidSchemeParameter
    assert planar.InvalidSchemeParameter is core.InvalidSchemeParameter
    # the ends of the ranges are accepted
    lc.smooth_exact(game, mu=Fraction(0), c1=0)
    lc.smooth_approx(game, mu=Fraction(0))


# --- deterministic approximation ----------------------------------------------

def test_smooth_approx_regime_one_exact():
    g, _ = lc.gen_random_satisfiable(3, 4, 3, 3, 2, seed=5)
    rep = lc.smooth_approx(g, mu=Fraction(1, 2))
    assert dict(rep.breakdown)["regime"] == 1
    assert rep.satisfied == lc.brute_force_opt(g)[1]
    assert rep.satisfied >= math.ceil(g.edge_count / 4)


def test_smooth_approx_regime_two_star_heavy():
    rng = random.Random(7)
    edges = [(a, a % 2) for a in range(8)]
    tables = []
    b_opt = [rng.randrange(3) for _ in range(2)]
    for a, b in edges:
        t = rng.sample(range(3), 2)  # distinct entries: no collisions
        if b_opt[b] not in t:
            t[rng.randrange(2)] = b_opt[b]
        tables.append(tuple(t))
    g = lc.build_game(8, 2, 2, 3, edges, tables)
    assert Fraction(g.a_count, g.edge_count) >= Fraction(1, 4)
    rep = lc.smooth_approx(g, mu=Fraction(1, 5))
    assert dict(rep.breakdown)["regime"] == 2
    assert rep.satisfied >= g.a_count


def test_smooth_approx_regime_three_bounds(smooth1):
    game, _ = smooth1
    mu = Fraction(1, 12)
    rep = lc.smooth_approx(game, mu=mu)
    bd = dict(rep.breakdown)
    assert bd["regime"] == 3
    m, n_a, n_b = game.edge_count, game.a_count, game.b_count
    assert rep.satisfied >= math.ceil(Fraction(m, 4))
    # growth bound on the greedy sample, with c1 = 1/4
    m_bound = math.ceil(
        8 * mu * n_b * (1 + Fraction(n_a, m * mu))
        / (Fraction(3, 4) - mu - Fraction(n_a, m))
    )
    assert bd["b_star"] <= m_bound


def test_smooth_approx_terminates_and_valid_on_unsatisfiable():
    # unsatisfiable-ish random tables still produce a structurally valid report
    rng = random.Random(3)
    edges = [(a, b) for a in range(3) for b in range(6)]
    tables = [tuple(rng.randrange(4) for _ in range(3)) for _ in edges]
    g = lc.build_game(3, 6, 3, 4, edges, tables)
    rep = lc.smooth_approx(g, mu=Fraction(1, 6))
    assert rep.satisfied == lc.value(g, rep.assignment)


# --- pruned walks against the unpruned enumerations ----------------------------
# The two oracles are the solvers as they were before the B* walks went
# through core._extensions, kept verbatim apart from their names: they
# enumerate every B* labelling with itertools.product.

def oracle_smooth_exact(
    game: ProjectionGame,
    mu: Fraction | None = None,
    c1: Fraction | int = 4,
    seed: int = 0,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Assignment | None:
    """Randomized exact solver for smooth satisfiable instances.

    Samples each B vertex into B* independently with probability c1 * mu,
    then walks every assignment to B*.  A vertices consistent with exactly
    one symbol are pinned; the rest take the symbol matching the most
    sampled edges.  Unsampled B vertices take the majority symbol under
    the completed A labels.  The first fully satisfying assignment wins;
    None means the sample missed.

    When every A vertex has degree at least c * log(a_count) / mu the
    sample pins the whole A side with probability at least 1/2 for a
    suitable constant c1, making the miss probability at most 1/2.
    """
    if mu is None:
        mu = default_mu(game)
    rng = random.Random(seed)
    p = min(Fraction(1), Fraction(c1) * mu)
    bstar = [b for b in range(game.b_count) if rng.random() < p]

    total = game.sigma_b ** len(bstar)
    if total > enum_cap:
        raise BudgetExceeded(
            f"{game.sigma_b}^{len(bstar)} sampled-side assignments exceed cap {enum_cap}"
        )

    m = game.edge_count
    all_a = range(game.a_count)
    for labels in product(range(game.sigma_b), repeat=len(bstar)):
        bstar_labels: list[int | None] = [None] * game.b_count
        for b, s in zip(bstar, labels):
            bstar_labels[b] = s
        a_labels = tuple(
            mask.bit_length() - 1
            if mask.bit_count() == 1
            else _best_a_symbol(game, a, bstar_labels)
            for a, mask in enumerate(_consistent_masks(game, bstar_labels, all_a))
        )
        b_labels = tuple(
            _majority_b_symbol(game, b, a_labels) if s is None else s
            for b, s in enumerate(bstar_labels)
        )
        phi = Assignment(a_labels, b_labels)
        if value(game, phi) == m:
            return phi
    return None


def oracle_smooth_approx(
    game: ProjectionGame,
    mu: Fraction | None = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> SolveReport:
    """Deterministic constant-factor solver for smooth satisfiable games.

    Three regimes: (i) mu >= 1/4: enumerate every B assignment and take
    the best A response, which is exact; (ii) a_count >= |E| / 4: give
    every B vertex a symbol with nonempty preimages on all its edges and
    match each A vertex to one of its edges, satisfying at least a_count
    edges; (iii) otherwise greedily grow B*, always adding the B vertex
    adjacent to the most unsaturated vertices, until saturated vertices
    (more than mu * degree of their neighbors inside B*) carry at least
    |E| / 4 edge endpoints, then enumerate B* assignments, pin saturated
    vertices when uniquely determined (skipping the assignment otherwise),
    and complete B by majority.  On satisfiable instances the output
    satisfies at least |E| / 4 edges in every regime.
    """
    t0 = perf_counter()
    if mu is None:
        mu = default_mu(game)
    m = game.edge_count
    n_a = game.a_count
    guarantee = Fraction(m, 4)

    def report(phi, regime, extra=()):
        return SolveReport(
            assignment=phi,
            satisfied=value(game, phi),
            algorithm="smooth-approx",
            guarantee=guarantee,
            elapsed=perf_counter() - t0,
            breakdown=(("regime", regime),) + tuple(extra),
        )

    if m == 0:
        return report(Assignment((0,) * n_a, (0,) * game.b_count), 0)

    if mu >= Fraction(1, 4):
        total = game.sigma_b ** game.b_count
        if total > enum_cap:
            raise BudgetExceeded(
                f"{game.sigma_b}^{game.b_count} B assignments exceed cap {enum_cap}"
            )
        best_phi, best_val = None, -1
        for b_labels in product(range(game.sigma_b), repeat=game.b_count):
            a_labels = tuple(_best_a_symbol(game, a, b_labels) for a in range(n_a))
            phi = Assignment(a_labels, b_labels)
            val = value(game, phi)
            if val > best_val:
                best_phi, best_val = phi, val
        return report(best_phi, 1)

    if Fraction(n_a, m) >= Fraction(1, 4):
        b_labels = []
        for b in range(game.b_count):
            best_s, best_cnt = 0, -1
            for s in range(game.sigma_b):
                cnt = sum(
                    1 for e in game.b_edges[b] if game.preimage_masks[e][s]
                )
                if cnt > best_cnt:
                    best_s, best_cnt = s, cnt
            b_labels.append(best_s)
        a_labels = []
        for a in range(n_a):
            sym = 0
            for e in game.a_edges[a]:
                mask = game.preimage_masks[e][b_labels[game.edges[e][1]]]
                if mask:
                    sym = (mask & -mask).bit_length() - 1
                    break
            a_labels.append(sym)
        return report(Assignment(tuple(a_labels), tuple(b_labels)), 2)

    # regime (iii): greedy B* of saturated coverage, then enumeration
    c1 = Fraction(1, 4)
    deg = [len(e) for e in game.a_edges]
    in_bstar = [False] * game.b_count
    hits = [0] * n_a
    saturated = [False] * n_a
    sat_degree_sum = 0
    bstar: list[int] = []
    while sat_degree_sum < c1 * m and len(bstar) < game.b_count:
        best_b, best_gain = -1, -1
        for b in range(game.b_count):
            if in_bstar[b]:
                continue
            gain = sum(1 for ap in game.b_neighbors[b] if not saturated[ap])
            if gain > best_gain:
                best_b, best_gain = b, gain
        in_bstar[best_b] = True
        bstar.append(best_b)
        for ap in game.b_neighbors[best_b]:
            hits[ap] += 1
            if not saturated[ap] and hits[ap] > mu * deg[ap]:
                saturated[ap] = True
                sat_degree_sum += deg[ap]

    total = game.sigma_b ** len(bstar)
    if total > enum_cap:
        raise BudgetExceeded(
            f"{game.sigma_b}^{len(bstar)} B* assignments exceed cap {enum_cap}"
        )

    sat_list = [a for a in range(n_a) if saturated[a]]
    best_phi, best_val = None, -1
    for labels in product(range(game.sigma_b), repeat=len(bstar)):
        lab: list[int | None] = [None] * game.b_count
        for b, s in zip(bstar, labels):
            lab[b] = s
        masks = _consistent_masks(game, lab, sat_list)
        if any(mask.bit_count() != 1 for mask in masks):
            continue
        pinned: list[int | None] = [None] * n_a
        for a, mask in zip(sat_list, masks):
            pinned[a] = mask.bit_length() - 1
        b_labels = tuple(_majority_b_symbol(game, b, pinned) for b in range(game.b_count))
        a_labels = tuple(0 if s is None else s for s in pinned)
        phi = Assignment(a_labels, b_labels)
        val = value(game, phi)
        if val > best_val:
            best_phi, best_val = phi, val
    if best_phi is None:
        best_phi = Assignment((0,) * n_a, (0,) * game.b_count)
    return report(best_phi, 3, (("b_star", len(bstar)),))


def sweep_games(count=100):
    """Seeded small games with 1-4 A vertices; every odd one has its tables
    redrawn at random, which makes most of those unsatisfiable."""
    for i in range(count):
        rng = random.Random(1000 + i)
        n_a, n_b = 1 + i % 4, rng.randint(2, 8)
        k_a, k_b = rng.randint(2, 4), rng.randint(2, 3)
        game, _ = lc.gen_random_satisfiable(
            n_a, n_b, k_a, k_b, rng.randint(1, n_b), seed=i
        )
        if i % 2:
            tables = [tuple(rng.randrange(k_b) for _ in range(k_a)) for _ in game.edges]
            game = lc.build_game(n_a, n_b, k_a, k_b, game.edges, tables)
        yield game


# mu 1/6 makes regime (iii) leave some A vertices next to B* unsaturated,
# whose masks must not prune
SWEEP_MUS = (
    Fraction(0), Fraction(1, 12), Fraction(1, 6), Fraction(1, 4), Fraction(1, 2), None
)


def outcome(fn):
    try:
        return fn()
    except BudgetExceeded as exc:
        return ("budget", str(exc))


def test_smooth_exact_matches_unpruned_enumeration():
    hits = misses = 0
    for game in sweep_games():
        for mu in SWEEP_MUS:
            for seed in range(3):
                kw = dict(mu=mu, c1=2, seed=seed, enum_cap=800)
                want = outcome(lambda: oracle_smooth_exact(game, **kw))
                assert outcome(lambda: lc.smooth_exact(game, **kw)) == want
                hits += isinstance(want, Assignment)
                misses += want is None
    assert hits >= 100 and misses >= 100


def test_smooth_approx_matches_unpruned_enumeration():
    regimes = set()
    unsatisfiable_regime_one = 0
    for game in sweep_games():
        for mu in SWEEP_MUS:
            want = outcome(lambda: oracle_smooth_approx(game, mu=mu, enum_cap=800))
            got = outcome(lambda: lc.smooth_approx(game, mu=mu, enum_cap=800))
            if isinstance(want, tuple):
                assert got == want
                continue
            assert (got.assignment, got.satisfied, got.guarantee, got.breakdown) == (
                want.assignment, want.satisfied, want.guarantee, want.breakdown
            )
            regime = dict(want.breakdown)["regime"]
            regimes.add(regime)
            # regime (i) is exact, so a short count means no labelling
            # satisfies every edge and the full-product fallback ran
            unsatisfiable_regime_one += regime == 1 and want.satisfied < game.edge_count
    assert regimes == {1, 2, 3}
    assert unsatisfiable_regime_one >= 50


def test_smooth_approx_regime_one_checks_cap_before_walk():
    # the all-zero labelling satisfies every edge, so the walk would stop
    # at its first leaf; the cap still refuses the 2^10 labellings first
    edges = [(a, b) for a in range(2) for b in range(10)]
    g = lc.build_game(2, 10, 2, 2, edges, [(0, 0)] * len(edges))
    with pytest.raises(BudgetExceeded) as exc:
        lc.smooth_approx(g, mu=Fraction(1), enum_cap=1023)
    assert str(exc.value) == "2^10 B assignments exceed cap 1023"
    assert oracle_smooth_approx(g, mu=Fraction(1), enum_cap=1024).satisfied == 20
    assert lc.smooth_approx(g, mu=Fraction(1), enum_cap=1024).satisfied == 20


@pytest.mark.parametrize("tables,satisfiable", [
    ([(0, 1), (1, 0), (0, 1)], True),
    ([(0, 0), (1, 1), (0, 1)], False),  # b0 must be both 0 and 1
])
def test_smooth_approx_regime_one_isolated_vertices(tables, satisfiable):
    # one game with an edgeless B vertex (b1), one with an edgeless A
    # vertex (a2); the unsatisfiable tables take the full-product fallback
    for a_count, b_count, edges in ((2, 3, [(0, 0), (1, 0), (1, 2)]),
                                    (3, 2, [(0, 0), (1, 0), (1, 1)])):
        g = lc.build_game(a_count, b_count, 2, 2, edges, tables)
        for mu in (Fraction(1, 4), Fraction(1)):
            want = oracle_smooth_approx(g, mu=mu)
            got = lc.smooth_approx(g, mu=mu)
            assert dict(got.breakdown)["regime"] == 1
            assert (got.assignment, got.satisfied) == (want.assignment, want.satisfied)
            assert (got.satisfied == 3) == satisfiable


# --- certificates --------------------------------------------------------------

def planted_smooth_games():
    """Seeded satisfiable games: random planted tables, unique (mu 0)
    smooth games of degree 4, and mu-smooth games of high A degree."""
    for seed in range(60):
        rng = random.Random(seed)
        if seed % 3 == 0:
            n_a, n_b = rng.randint(1, 8), rng.randint(2, 8)
            k_a, k_b, deg = rng.randint(2, 4), rng.randint(2, 3), rng.randint(1, n_b)
            yield lc.gen_random_satisfiable(n_a, n_b, k_a, k_b, deg, seed=seed)[0]
        elif seed % 3 == 1:
            n_a, n_b, k_a = rng.randint(2, 8), rng.randint(4, 8), rng.randint(2, 3)
            yield lc.gen_smooth(n_a, n_b, k_a, 4, 4, Fraction(0), seed=seed)[0]
        else:
            n_a, n_b, k_a, k_b = rng.randint(2, 4), rng.randint(8, 12), 3, 5
            mu = Fraction(rng.randint(1, 2), 8)
            yield lc.gen_smooth(n_a, n_b, k_a, k_b, rng.randint(8, n_b), mu, seed=seed)[0]


def test_smooth_solvers_certificate_property():
    # every smooth_approx count is its assignment's value and, on the
    # satisfiable games (the planted ones and the sweep's even ones, each
    # mu-smooth for every mu tried), at least |E| / 4 in every regime; a
    # smooth_exact answer satisfies every edge
    regimes = set()
    exact_hits = 0
    games = [(g, True) for g in planted_smooth_games()]
    games += [(g, i % 2 == 0) for i, g in enumerate(sweep_games(40))]
    for g, satisfiable in games:
        mu0 = lc.measure_smoothness(g).mu
        for mu in (None, mu0, max(mu0, Fraction(1, 4))):
            try:
                rep = lc.smooth_approx(g, mu=mu)
            except BudgetExceeded:
                continue
            assert rep.satisfied == value(g, rep.assignment)
            assert rep.guarantee == Fraction(g.edge_count, 4)
            if satisfiable:
                assert rep.satisfied >= rep.guarantee
                regimes.add(dict(rep.breakdown)["regime"])
        for seed in range(3):
            try:
                phi = lc.smooth_exact(g, mu=mu0, seed=seed)
            except BudgetExceeded:
                continue
            if phi is not None:
                assert value(g, phi) == g.edge_count
                exact_hits += 1
    assert regimes == {1, 2, 3}
    assert exact_hits >= 50
