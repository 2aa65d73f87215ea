"""Every solver's output on a fixed set of seeded games, pinned by digest.

Each record holds the sha256 of the assignment a solver returned, its
satisfied count and its certified guarantee.  Half of the games have their
tables redrawn at random after planting, so most of those are
unsatisfiable and the solvers run off their analysed path.

The fixture was recorded from the code before the label-selection kernels
were shared; its ``ptas`` and ``tree-dp-exact`` records were added from the
code before the tree DP coded its states as integers.  To record it again
(only when an output change is intended) run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import labelcover as lc

GOLDEN = Path(__file__).parent / "fixtures" / "algorithm_golden.json"

# n_a, n_b, k_a, k_b, degree, uniform tables, small enough for the
# exponential solvers
SHAPES = [
    (5, 4, 3, 2, 2, False, True),
    (6, 5, 3, 2, 2, False, True),
    (4, 6, 3, 3, 3, False, True),
    (6, 6, 4, 2, 3, True, True),
    (5, 5, 4, 2, 2, True, True),
    (6, 6, 3, 3, 5, False, True),
    (4, 6, 2, 2, 5, False, True),
    (5, 6, 4, 2, 5, True, True),
    (30, 15, 4, 2, 3, False, False),
    (40, 20, 6, 3, 4, True, False),
]
SMOOTH_SEEDS = (0, 1, 2, 3)


def _redraw(game, seed, uniform):
    """The same graph with every table drawn again at random."""
    rng = random.Random(seed)
    tables = []
    for _ in game.edges:
        if uniform:
            table = [s for s in range(game.sigma_b)
                     for _ in range(game.sigma_a // game.sigma_b)]
            rng.shuffle(table)
        else:
            table = [rng.randrange(game.sigma_b) for _ in range(game.sigma_a)]
        tables.append(tuple(table))
    return lc.build_game(game.a_count, game.b_count, game.sigma_a,
                         game.sigma_b, game.edges, tables)


def golden_games():
    """(name, game, uniform, small) for every game the fixture covers."""
    out = []
    for i, (n_a, n_b, k_a, k_b, degree, uniform, small) in enumerate(SHAPES):
        game, _ = lc.gen_random_satisfiable(
            n_a, n_b, k_a, k_b, degree, seed=100 + i, uniform=uniform
        )
        out.append((f"g{i}-planted", game, uniform, small))
        out.append((f"g{i}-redrawn", _redraw(game, 200 + i, uniform), uniform, small))
    return out


def _digest(phi):
    text = json.dumps([list(phi.a_labels), list(phi.b_labels)])
    return hashlib.sha256(text.encode()).hexdigest()


def _record(fn):
    try:
        out = fn()
    except lc.LabelCoverError as exc:
        return {"error": type(exc).__name__}
    if isinstance(out, lc.SolveReport):
        rec = {
            "assignment": _digest(out.assignment),
            "satisfied": out.satisfied,
            "guarantee": str(out.guarantee),
        }
        if out.breakdown:
            rec["breakdown"] = [list(x) for x in out.breakdown]
        return rec
    if out is None:
        return {"found": False}
    phi, val = out if isinstance(out, tuple) else (out, None)
    return {"assignment": _digest(phi), "satisfied": val}


def game_records(game, uniform, small):
    """Label -> record for every solver run on one game."""
    st = lc.compute_stats(game)
    cache = lc.compute_sigma_star(game, st)
    runs = {
        "one-neighbor": lambda: lc.satisfy_one_neighbor(game),
        "greedy": lambda: lc.greedy_assignment(game, st),
        "dnc": lambda: lc.divide_and_conquer(game, st, cache),
        "dnc-uniform": lambda: lc.divide_and_conquer(game, st, uniform=True),
        "best": lambda: lc.best_of(game, st, cache),
    }
    for a0 in range(game.a_count):
        for s in cache.sigma_star[a0][:1]:
            runs[f"kyn-a{a0}"] = (
                lambda a0=a0, s=s: lc.know_your_neighbors(game, a0, s, st, cache)
            )
        runs[f"kynn-a{a0}"] = (
            lambda a0=a0: lc.know_neighbors_neighbors(game, a0, st, cache)
        )
        if uniform:
            runs[f"kynn-uniform-a{a0}"] = (
                lambda a0=a0: lc.know_neighbors_neighbors(game, a0, st, uniform=True)
            )
    runs["smooth-approx-mu1/16"] = lambda: lc.smooth_approx(game, Fraction(1, 16))
    if small:
        runs["smooth-approx-mu1/4"] = lambda: lc.smooth_approx(game, Fraction(1, 4))
        runs["brute-force"] = lambda: lc.brute_force_opt(game)
        runs["tree-dp"] = lambda: lc.tree_dp_solve(
            game, lc.heuristic_decomposition(game)
        )
        runs["tree-dp-exact"] = lambda: lc.tree_dp_solve(
            game, lc.exact_decomposition(game)
        )
        for eps in (Fraction(1), Fraction(1, 2)):
            runs[f"ptas-eps{eps}"] = lambda eps=eps: lc.ptas(
                game, eps, force_nonplanar=True
            )
        for seed in SMOOTH_SEEDS:
            runs[f"smooth-exact-s{seed}"] = lambda seed=seed: lc.smooth_exact(
                game, mu=Fraction(1, 8), seed=seed
            )
        runs["smooth-exact-default-mu"] = lambda: lc.smooth_exact(game)
    return {label: _record(fn) for label, fn in runs.items()}


def all_records():
    """"game/label" -> record over every golden game."""
    return {
        f"{name}/{label}": rec
        for name, game, uniform, small in golden_games()
        for label, rec in game_records(game, uniform, small).items()
    }


def test_every_solver_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = all_records()
    assert got.keys() == golden.keys()
    for key in golden:
        assert got[key] == golden[key], key


def test_golden_covers_every_smooth_regime_and_unsatisfiable_games():
    golden = json.loads(GOLDEN.read_text())
    regimes = {
        dict(map(tuple, rec["breakdown"]))["regime"]
        for key, rec in golden.items()
        if "/smooth-approx" in key and "breakdown" in rec
    }
    assert regimes == {1, 2, 3}
    unsat = [
        name for name, game, _, small in golden_games()
        if small and golden[f"{name}/brute-force"]["satisfied"] < game.edge_count
    ]
    assert len(unsat) >= 4


if __name__ == "__main__":
    records = all_records()
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}"
        for key in sorted(records)
    ) + "\n}\n")
