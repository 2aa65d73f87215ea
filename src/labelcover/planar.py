"""Layered edge partition and the approximation scheme for planar games.

The scheme deletes one of h edge classes at a time, solves each thinned
game exactly by tree-decomposition DP, and keeps the best assignment
re-measured on the full edge set.  Some class intersects the optimum's
satisfied edges in at most a 1/h fraction, so the best thinned optimum is
within 1 - 1/h of the true one.  Classes come from BFS levels: an edge
joins the class of its smaller endpoint level mod h, so removing a class
cuts the graph into slabs spanning fewer than h consecutive levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from .core import (
    Assignment,
    InvalidSchemeParameter,
    LabelCoverError,
    ProjectionGame,
    SolveReport,
    _adjacency,
    _report,
    _subgame,
    _walk,
    connected_components,
    lift_assignment,
    value,
)
from .exact import (
    EXACT_DECOMPOSITION_LIMIT,
    TreeDecomposition,
    exact_decomposition,
    heuristic_decomposition,
    tree_dp_solve,
)


class PlanarityCheckFailed(LabelCoverError):
    """The instance graph fails the edge-count planarity sanity bound."""


def euler_planarity_ok(game: ProjectionGame) -> bool:
    """Necessary (not sufficient) planarity condition: |E| <= 3n - 6."""
    n = game.vertex_count
    if n < 3:
        return True
    return game.edge_count <= 3 * n - 6


@dataclass(frozen=True)
class BakerPartition:
    """Edge classes plus each thinned game and its tree decomposition.

    ``classes[i]`` holds the edge indices of class i + 1; the classes are
    disjoint and cover the edge set.  ``residuals[i]`` is the game with
    class i + 1 removed (``residual_game``), and ``decompositions[i]`` is a
    decomposition of it.  ``levels`` records the BFS level used for every
    global vertex.
    """

    h: int
    classes: tuple[frozenset[int], ...]
    residuals: tuple[ProjectionGame, ...]
    decompositions: tuple[TreeDecomposition, ...]
    levels: tuple[int, ...]


def _bfs_levels(game: ProjectionGame) -> list[int]:
    """BFS level of every global vertex, from the smallest of each component."""
    return _walk(_adjacency(game), range(game.vertex_count))[2]


def residual_game(game: ProjectionGame, removed: frozenset[int]) -> ProjectionGame:
    """The game with the given edge indices deleted, order preserved."""
    return _subgame(game, [i for i in range(game.edge_count) if i not in removed])


def baker_partition(game: ProjectionGame, h: int) -> BakerPartition:
    """Split edges into h classes by BFS level and decompose each residue.

    BFS starts at vertex 0 (and at the smallest vertex of any further
    component).  An edge whose smaller endpoint level is L lands in class
    (L mod h) + 1.  Each thinned game is kept in ``residuals`` and gets
    an exact minimum-width decomposition when the graph is tiny, else a
    min-fill one.  The decompositions are not validated here:
    ``tree_dp_solve`` checks each one before its DP reads it.
    """
    if h < 1:
        raise InvalidSchemeParameter(f"h must be at least 1, got {h}")
    levels = _bfs_levels(game)
    classes: list[set[int]] = [set() for _ in range(h)]
    for i, (a, b) in enumerate(game.edges):
        low = min(levels[a], levels[game.a_count + b])
        classes[low % h].add(i)

    frozen = tuple(frozenset(c) for c in classes)
    residuals = tuple(residual_game(game, cls) for cls in frozen)
    small = game.vertex_count <= EXACT_DECOMPOSITION_LIMIT
    decompose = exact_decomposition if small else heuristic_decomposition
    return BakerPartition(
        h=h,
        classes=frozen,
        residuals=residuals,
        decompositions=tuple(decompose(res) for res in residuals),
        levels=tuple(levels),
    )


def ptas(
    game: ProjectionGame,
    epsilon: Fraction,
    force_nonplanar: bool = False,
    h_override: int | None = None,
) -> SolveReport:
    """Approximation scheme: best thinned-exact assignment over h classes.

    h = ceil(1 + 1/epsilon).  Components are solved separately and the
    per-component winners recombined; each candidate is evaluated on the
    full edge set, so the result is at least the best thinned optimum,
    which is at least OPT * (1 - 1/h) >= OPT / (1 + epsilon).

    The output assignment is correct for any graph; planarity only keeps
    the decomposition widths (hence the running time) small, so the Euler
    sanity check can be overridden.  Raises InvalidSchemeParameter when
    epsilon (without h_override) is outside (0, 1] or h is below 1.
    """
    t0 = perf_counter()
    if h_override is None and not 0 < epsilon <= 1:
        raise InvalidSchemeParameter(f"epsilon must be in (0, 1], got {epsilon}")
    if not force_nonplanar and not euler_planarity_ok(game):
        raise PlanarityCheckFailed(
            f"{game.edge_count} edges on {game.vertex_count} vertices breaks the "
            f"planar edge bound; pass force_nonplanar to run anyway"
        )
    h = h_override if h_override is not None else math.ceil(1 + 1 / epsilon)
    if h < 1:
        raise InvalidSchemeParameter(f"h must be at least 1, got {h}")

    comps = connected_components(game)
    winners = []
    certified = 0
    for comp in comps:
        sub = comp.game
        if sub.edge_count == 0:
            winners.append(
                Assignment((0,) * sub.a_count, (0,) * sub.b_count)
            )
            continue
        # a class past the last BFS level is empty and leaves the whole
        # component, so only the first such class can win: cap h there
        part = baker_partition(sub, min(h, max(_bfs_levels(sub)) + 2))
        best_phi, best_val, best_dp = None, -1, 0
        for res, td in zip(part.residuals, part.decompositions):
            phi, dp_val = tree_dp_solve(res, td)
            full_val = value(sub, phi)
            if full_val > best_val:
                best_phi, best_val, best_dp = phi, full_val, dp_val
        winners.append(best_phi)
        certified += best_dp
    return _report(
        game,
        lift_assignment(game, comps, winners),
        "ptas",
        Fraction(certified),
        t0,
        guarantee_ratio_of_opt=Fraction(h - 1, h),
        breakdown=(("h", h),),
    )
