"""Smoothness measurement and the two sub-exponential solvers.

An instance is mu-smooth when any two distinct A symbols project to the
same B symbol on at most a mu fraction of each A vertex's edges; mu = 0
is a unique game.  Smoothness lets a small sampled or greedily chosen
subset of B pin down most of the A side: once more than mu * degree of a
vertex's neighbors carry satisfying labels, only one A symbol can satisfy
all of those edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from time import perf_counter

from .core import (
    Assignment,
    BudgetExceeded,
    InvalidSchemeParameter,
    ProjectionGame,
    SolveReport,
    _best_a_symbol,
    _draw_threshold,
    _extensions,
    _lowest_bit,
    _majority_b_symbol,
    _report,
    value,
)

DEFAULT_ENUM_CAP = 200_000


@dataclass(frozen=True)
class SmoothnessReport:
    """The measured smoothness: the instance is mu-smooth exactly for
    mu >= ``mu``.  ``witness`` is the (vertex, symbol, symbol) triple
    attaining the maximum collision fraction, smallest-first on ties."""

    mu: Fraction
    witness: tuple[int, int, int] | None


def measure_smoothness(game: ProjectionGame) -> SmoothnessReport:
    """Exact maximum collision fraction by full triple loop."""
    mu = Fraction(0)
    witness = None
    for a in range(game.a_count):
        eids = game.a_edges[a]
        if eids and game.sigma_a >= 2:
            d = len(eids)
            for s in range(game.sigma_a):
                for s2 in range(s + 1, game.sigma_a):
                    coll = sum(
                        1
                        for e in eids
                        if game.projections[e][s] == game.projections[e][s2]
                    )
                    frac = Fraction(coll, d)
                    if frac > mu:
                        mu = frac
                        witness = (a, s, s2)
    return SmoothnessReport(mu=mu, witness=witness)


def _check_enum_cap(game: ProjectionGame, n: int, what: str, enum_cap: int) -> None:
    """Raise BudgetExceeded when labelling n B vertices, ``what`` in the
    message, gives more than enum_cap assignments."""
    if game.sigma_b ** n > enum_cap:
        raise BudgetExceeded(f"{game.sigma_b}^{n} {what} exceed cap {enum_cap}")


def default_mu(game: ProjectionGame, report: SmoothnessReport | None = None) -> Fraction:
    """Measured smoothness, floored at one over the minimum A degree.

    The floor keeps the sampling probability positive on unique games.
    """
    report = report if report is not None else measure_smoothness(game)
    degs = [len(e) for e in game.a_edges if e]
    floor = Fraction(1, min(degs)) if degs else Fraction(1)
    return max(report.mu, floor)


def _mu(game: ProjectionGame, mu: Fraction | None) -> Fraction:
    """``mu``, or ``default_mu(game)`` when it is None; InvalidSchemeParameter
    outside [0, 1]."""
    if mu is None:
        return default_mu(game)
    if not 0 <= mu <= 1:
        raise InvalidSchemeParameter(f"mu must be in [0, 1], got {mu}")
    return mu


def smooth_exact(
    game: ProjectionGame,
    mu: Fraction | None = None,
    c1: Fraction | int = 4,
    seed: int = 0,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Assignment | None:
    """Randomized exact solver for smooth satisfiable instances.

    Samples each B vertex into B* independently with probability c1 * mu,
    then walks the assignments to B* in odometer order, pruning prefixes
    that leave an A vertex no symbol consistent with its sampled edges.
    A vertices consistent with exactly one symbol are pinned; the rest
    take the symbol matching the most sampled edges.  Unsampled B vertices
    take the majority symbol under the completed A labels.  The first
    fully satisfying assignment wins; None means the sample missed.
    Raises InvalidSchemeParameter for mu outside [0, 1] or c1 < 0.

    When every A vertex has degree at least c * log(a_count) / mu the
    sample pins the whole A side with probability at least 1/2 for a
    suitable constant c1, making the miss probability at most 1/2.
    """
    mu = _mu(game, mu)
    if c1 < 0:
        raise InvalidSchemeParameter(f"c1 must be at least 0, got {c1}")
    rng = random.Random(seed)
    p = min(Fraction(1), Fraction(c1) * mu)
    cut = _draw_threshold(p)
    bstar = [b for b in range(game.b_count) if rng.random() < cut]

    _check_enum_cap(game, len(bstar), "sampled-side assignments", enum_cap)

    m = game.edge_count
    for bstar_labels, masks in _extensions(game, bstar):
        a_labels = tuple(
            mask.bit_length() - 1
            if mask.bit_count() == 1
            else _best_a_symbol(game, a, bstar_labels)
            for a, mask in enumerate(masks)
        )
        b_labels = tuple(
            _majority_b_symbol(game, b, a_labels) if s is None else s
            for b, s in enumerate(bstar_labels)
        )
        phi = Assignment(a_labels, b_labels)
        if value(game, phi) == m:
            return phi
    return None


def smooth_approx(
    game: ProjectionGame,
    mu: Fraction | None = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> SolveReport:
    """Deterministic constant-factor solver for smooth satisfiable games.

    Three regimes: (i) mu >= 1/4: walk the B assignments in product order,
    pruning every prefix that leaves an A vertex no consistent symbol, to
    the first one satisfying every edge, and take the best A response,
    which is exact; only when the walk finds none (the game is
    unsatisfiable) enumerate every B assignment and keep the first with
    the most satisfied edges; (ii) a_count >= |E| / 4: give every B vertex
    a symbol with nonempty preimages on all its edges and match each A
    vertex to one of its edges, satisfying at least a_count edges; (iii)
    otherwise greedily grow B*, always adding the B vertex adjacent to the
    most unsaturated vertices, until saturated vertices (more than
    mu * degree of their neighbors inside B*) carry at least |E| / 4 edge
    endpoints, then enumerate B* assignments, pin saturated vertices when
    uniquely determined (skipping the assignment otherwise, and pruning B*
    prefixes that empty a saturated vertex's mask), and complete B by
    majority.  On satisfiable instances the output satisfies at least
    |E| / 4 edges in every regime.  mu outside [0, 1] raises
    InvalidSchemeParameter.
    """
    t0 = perf_counter()
    mu = _mu(game, mu)
    m = game.edge_count
    n_a = game.a_count
    guarantee = Fraction(m, 4)

    def report(phi, regime, extra=()):
        breakdown = (("regime", regime),) + tuple(extra)
        return _report(game, phi, "smooth-approx", guarantee, t0, breakdown=breakdown)

    if m == 0:
        return report(Assignment((0,) * n_a, (0,) * game.b_count), 0)

    if mu >= Fraction(1, 4):
        _check_enum_cap(game, game.b_count, "B assignments", enum_cap)
        # A labelling satisfies every edge exactly when every A vertex keeps
        # a consistent symbol, so the walk's first leaf is where the product
        # loop below would stop; that loop is left for unsatisfiable games.
        for b_labels, _ in _extensions(game, range(game.b_count)):
            b_labels = tuple(b_labels)
            a_labels = tuple(_best_a_symbol(game, a, b_labels) for a in range(n_a))
            return report(Assignment(a_labels, b_labels), 1)
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
            counts = [
                sum(1 for e in game.b_edges[b] if game.preimage_masks[e][s])
                for s in range(game.sigma_b)
            ]
            b_labels.append(counts.index(max(counts)))
        a_labels = []
        for a in range(n_a):
            sym = 0
            for e in game.a_edges[a]:
                mask = game.preimage_masks[e][b_labels[game.edges[e][1]]]
                if mask:
                    sym = _lowest_bit(mask)
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

    _check_enum_cap(game, len(bstar), "B* assignments", enum_cap)

    sat_list = [a for a in range(n_a) if saturated[a]]
    best_phi, best_val = None, -1
    for _, masks in _extensions(game, bstar, watched=saturated):
        if any(masks[a].bit_count() != 1 for a in sat_list):
            continue
        pinned = [masks[a].bit_length() - 1 if saturated[a] else None for a in range(n_a)]
        b_labels = tuple(_majority_b_symbol(game, b, pinned) for b in range(game.b_count))
        a_labels = tuple(0 if s is None else s for s in pinned)
        phi = Assignment(a_labels, b_labels)
        val = value(game, phi)
        if val > best_val:
            best_phi, best_val = phi, val
    if best_phi is None:
        best_phi = Assignment((0,) * n_a, (0,) * game.b_count)
    return report(best_phi, 3, (("b_star", len(bstar)),))
