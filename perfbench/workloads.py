"""Seeded inputs and command lists for the four workloads.

Each builder writes its inputs under ``perfbench/work/<workload>/`` with
the library's own generators and emitters (that is the timed set-up) and
returns the commands of one pass.  Paths are relative to the checkout
root, which is the working directory while the benchmark runs, so the
same seed gives byte-identical command output in any checkout.

Checks are made lazily (``Cmd.make_check``) after set-up timing ends:
they parse the written files with the benchmark's own evaluator.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import evaluate as ev

WORK = Path("perfbench") / "work"


@dataclass
class Cmd:
    cid: str
    argv: list[str]
    make_check: Callable[[], Callable[[str, dict], None]]
    # files the command writes; their bytes are part of its output digest
    outs: tuple[str, ...] = ()


class _Files:
    """Writes inputs and parses each written game once for the checks."""

    def __init__(self, workload: str):
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._games: dict[str, ev.Game] = {}

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return str(path)

    def game(self, path: str) -> ev.Game:
        if path not in self._games:
            self._games[path] = ev.Game(Path(path).read_text())
        return self._games[path]


# CPU seconds of the benchmark's own bookkeeping inside the builders,
# which run.py leaves out of setup_s
untimed_cpu = 0.0


@contextlib.contextmanager
def untimed():
    global untimed_cpu
    t0 = time.process_time()
    try:
        yield
    finally:
        untimed_cpu += time.process_time() - t0


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1 << 30)


# ---------------------------------------------------------------------------
# approx: `approx best` on planted random games of several shapes

APPROX_SHAPES = (
    [(100, 50, 6, 3, 4)] * 3
    + [(200, 100, 6, 3, 4)] * 3
    + [(400, 200, 8, 3, 5)] * 3
    + [(800, 400, 8, 3, 5), (400, 60, 10, 4, 10)]
)
APPROX_UNIFORM = [(200, 100, 6, 3, 4)] * 2
APPROX_TOY = [(20, 10, 4, 2, 3), (30, 8, 6, 3, 5)]
APPROX_TOY_UNIFORM = [(20, 10, 6, 3, 3)]


def approx(lc, seed: int, toy: bool) -> list[Cmd]:
    files = _Files("approx")
    seeds = _seeds("approx", seed)
    shapes = APPROX_TOY if toy else APPROX_SHAPES
    uniform = APPROX_TOY_UNIFORM if toy else APPROX_UNIFORM
    cmds = []
    for i, (shape, uni) in enumerate(
        [(s, False) for s in shapes] + [(s, True) for s in uniform]
    ):
        game, _ = lc.gen_random_satisfiable(*shape, seed=next(seeds), uniform=uni)
        path = files.write(f"g{i:02d}.lc", lc.formats.emit_labelcover(game))
        cmds.append(Cmd(
            f"approx-best-{i:02d}",
            ["approx", "best", path, "--json"],
            lambda p=path: ev.approx_best(files.game(p), p),
        ))
    return cmds


# ---------------------------------------------------------------------------
# planar: `ptas` on planted grids and one reduced 3-coloring game

# rows, cols, kA, kB, eps
PLANAR_GRIDS = [
    (10, 10, 3, 2, Fraction(1, 2)),
    (20, 20, 3, 2, Fraction(1, 2)),
    (30, 30, 3, 2, Fraction(1, 2)),
    (20, 20, 3, 2, Fraction(1, 4)),
    (10, 10, 5, 3, Fraction(1, 4)),
    (12, 12, 6, 4, Fraction(1, 2)),
]
PLANAR_COLGRAPH = (8, 8)
PLANAR_TOY_GRIDS = [
    (4, 4, 3, 2, Fraction(1, 2)),
    (4, 4, 3, 2, Fraction(1, 4)),
    (3, 3, 5, 3, Fraction(1, 4)),
]
PLANAR_TOY_COLGRAPH = (3, 3)


def planar(lc, seed: int, toy: bool) -> list[Cmd]:
    files = _Files("planar")
    seeds = _seeds("planar", seed)
    inputs = []
    for i, (r, c, ka, kb, eps) in enumerate(PLANAR_TOY_GRIDS if toy else PLANAR_GRIDS):
        game, _ = lc.gen_planar_grid(r, c, ka, kb, seed=next(seeds))
        inputs.append((f"grid{i}-{r}x{c}", game, eps))
    rows, cols = PLANAR_TOY_COLGRAPH if toy else PLANAR_COLGRAPH
    graph, _ = lc.gen_coloring_graph(rows, cols, Fraction(3, 4), next(seeds))
    game, _ = lc.from_planar_3col(graph)
    inputs.append((f"3col-{rows}x{cols}", game, Fraction(1, 2)))
    cmds = []
    for name, game, eps in inputs:
        path = files.write(f"{name}.lc", lc.formats.emit_labelcover(game))
        cmds.append(Cmd(
            f"ptas-{name}-eps{eps.numerator}_{eps.denominator}",
            ["ptas", path, "--eps", str(eps), "--json"],
            lambda p=path, e=eps: ev.ptas(files.game(p), p, e),
        ))
    return cmds


# ---------------------------------------------------------------------------
# smooth: the acceptance suite's smooth designs, ten solver seeds each

# n_a, n_b, k_a, k_b, degree, mu, generator seed (tests/test_acceptance.py)
SMOOTH_DESIGNS = [
    (1, 12, 3, 7, 12, Fraction(1, 12), 21),
    (1, 12, 3, 7, 12, Fraction(1, 12), 22),
    (1, 12, 2, 7, 12, Fraction(1, 12), 23),
    (1, 12, 3, 7, 12, Fraction(1, 12), 24),
    (2, 7, 2, 3, 7, Fraction(2, 5), 25),
    (2, 7, 2, 3, 7, Fraction(2, 5), 26),
    (2, 7, 3, 3, 7, Fraction(2, 5), 27),
    (3, 7, 3, 3, 7, Fraction(63, 100), 28),
    (3, 8, 3, 3, 8, Fraction(55, 100), 29),
    (4, 8, 3, 3, 8, Fraction(7, 10), 30),
]
SMOOTH_C1 = 4
# For each design whose sampling probability c1 * mu is below one, the
# ten solver seeds are drawn from --seed to a fixed profile of sampled-set
# sizes |B*|, and only seeds whose first hit lies in a fixed band of the
# kB^|B*| labellings are kept.  A solve walks B* labellings until the
# first that extends to a satisfying assignment, so its work is the
# position of that hit: anywhere from 1 to kB^|B*|.  Free draws made the
# work of a pass spread by 0.12-0.26 (quartile distance over median)
# between seeds; the profile and band fix it.  Sizes above 5 are left out
# because one such solve outweighs the rest of the pass, and kB^|B*| past
# the default enumeration cap ends in BudgetExceeded.
SMOOTH_BSTAR_PROFILE = (2, 3, 3, 4, 4, 4, 4, 5, 5, 5)
SMOOTH_HIT_BAND = (Fraction(1, 5), Fraction(3, 10))
SMOOTH_TOY = ([SMOOTH_DESIGNS[2], SMOOTH_DESIGNS[6]], (2, 3))


def _bstar(solver_seed: int, n_b: int, p: Fraction) -> list[int]:
    """B* that ``smooth exact --seed`` samples: each B vertex in order,
    independently, with probability p (its documented sampling rule)."""
    rng = random.Random(solver_seed)
    return [b for b in range(n_b) if rng.random() < p]


def _first_hit(game: ev.Game, bstar: list[int]) -> int:
    """How many B* labellings ``smooth exact`` walks, counting in mixed
    radix from all zeros, up to the first that extends to a satisfying
    assignment.  For a game with one A vertex that is the first labelling
    equal to some A symbol's projection row on B*."""
    assert game.na == 1, "the hit position is worked out for one A vertex"
    table = {b: t for _, b, t in game.edges}
    return 1 + min(
        sum(table[b][s] * game.kb ** (len(bstar) - 1 - i) for i, b in enumerate(bstar))
        for s in range(game.ka)
    )


def _solver_seeds(seeds, game: ev.Game, p: Fraction, profile) -> list[int]:
    if p >= 1:
        return [next(seeds) for _ in profile]
    lo, hi = SMOOTH_HIT_BAND
    want = sorted(profile)
    out = []
    while want:
        s = next(seeds)
        bstar = _bstar(s, game.nb, p)
        k = len(bstar)
        if k in want and lo <= Fraction(_first_hit(game, bstar), game.kb ** k) < hi:
            want.remove(k)
            out.append((k, s))
    return [s for _, s in sorted(out)]


def smooth(lc, seed: int, toy: bool) -> list[Cmd]:
    files = _Files("smooth")
    seeds = _seeds("smooth", seed)
    designs, profile = SMOOTH_TOY if toy else (SMOOTH_DESIGNS, SMOOTH_BSTAR_PROFILE)
    cmds = []
    for n_a, n_b, k_a, k_b, degree, mu, gseed in designs:
        game, _, _ = lc.gen_smooth(n_a, n_b, k_a, k_b, degree, mu, seed=gseed)
        name = f"d{gseed}"
        path = files.write(f"{name}.lc", lc.formats.emit_labelcover(game))
        p = min(Fraction(1), SMOOTH_C1 * mu)
        with untimed():
            solver_seeds = _solver_seeds(seeds, files.game(path), p, profile)
        for s in solver_seeds:
            cmds.append(Cmd(
                f"smooth-exact-{name}-s{s}",
                ["smooth", "exact", path, "--json", "--mu", str(mu),
                 "--c1", str(SMOOTH_C1), "--seed", str(s)],
                lambda p=path, s=s: ev.smooth_exact(files.game(p), p, s),
            ))
        cmds.append(Cmd(
            f"smooth-approx-{name}",
            ["smooth", "approx", path, "--json", "--mu", str(mu)],
            lambda p=path: ev.smooth_approx(files.game(p), p),
        ))
        cmds.append(Cmd(
            f"smooth-measure-{name}",
            ["smooth", "measure", path, "--json"],
            lambda p=path: ev.smooth_measure(files.game(p), p),
        ))
    return cmds


# ---------------------------------------------------------------------------
# cli-corpus: many small commands over a six-game corpus

CORPUS_SHAPES = [
    (20, 10, 4, 2, 3),
    (50, 25, 5, 3, 3),
    (100, 50, 6, 3, 4),
    (150, 75, 6, 3, 4),
    (200, 100, 6, 3, 4),
    (400, 200, 8, 3, 5),
]
CORPUS_TINY = [(4, 3, 3, 2, 2), (5, 4, 3, 2, 2)]
CORPUS_ALGOS = ("one-neighbor", "greedy", "kyn", "kynn", "dnc")
# (3col rows, cols), (tiling size, coords)
CORPUS_ROUNDTRIP = ((4, 4), (3, 3))
CORPUS_TOY = ([(20, 10, 4, 2, 3), (30, 15, 4, 2, 3)], ((3, 3), (2, 2)))


def cli_corpus(lc, seed: int, toy: bool) -> list[Cmd]:
    files = _Files("cli-corpus")
    seeds = _seeds("cli-corpus", seed)
    shapes, ((rows, cols), (size, coords)) = (
        CORPUS_TOY if toy else (CORPUS_SHAPES, CORPUS_ROUNDTRIP)
    )
    fmt = lc.formats
    cmds = []
    corpus = []
    for i, shape in enumerate(shapes):
        game, plant = lc.gen_random_satisfiable(*shape, seed=next(seeds))
        path = files.write(f"corpus/c{i}.lc", fmt.emit_labelcover(game))
        plant_path = files.write(f"plant/c{i}.assign", fmt.emit_assignment(plant))
        corpus.append(path)
        labels = (plant.a_labels, plant.b_labels)
        cmds.append(Cmd(f"stats-c{i}", ["stats", path, "--json"],
                        lambda p=path: ev.stats(files.game(p), p)))
        cmds.append(Cmd(f"verify-c{i}", ["verify", path, plant_path, "--json"],
                        lambda p=path, lab=labels: ev.verify(files.game(p), p, *lab)))
        for algo in CORPUS_ALGOS:
            cmds.append(Cmd(f"approx-{algo}-c{i}", ["approx", algo, path, "--json"],
                            lambda p=path: ev.approx_algo(files.game(p), p)))
    cmds.append(Cmd("bench", ["bench", str(files.dir / "corpus")],
                    lambda: ev.bench({p: files.game(p) for p in corpus})))

    for i, shape in enumerate(CORPUS_TINY):
        game, _ = lc.gen_random_satisfiable(*shape, seed=next(seeds))
        path = files.write(f"tiny/t{i}.lc", fmt.emit_labelcover(game))
        for method in ("exact", "dp"):
            cmds.append(Cmd(f"solve-{method}-t{i}", ["solve", method, path, "--json"],
                            lambda p=path, i=i: ev.solve(files.game(p), p, f"opt-t{i}")))

    rt = files.dir / "rt"
    rt.mkdir()
    graph, game3, asg3 = (str(rt / n) for n in ("g.colgraph", "g.lc", "g.assign"))
    tiling, gamet, asgt = (str(rt / n) for n in ("t.tiling", "t.lc", "t.assign"))
    cmds += [
        Cmd("gen-3col", ["gen", "3col", "--rows", str(rows), "--cols", str(cols),
                         "--seed", str(next(seeds)), "--out", graph],
            lambda: ev.gen_colgraph(graph, rows * cols), (graph,)),
        Cmd("reduce-3col", ["reduce", "3col", graph, "--out", game3],
            lambda: ev.reduce_3col(graph, game3), (game3,)),
        Cmd("solve-dp-3col", ["solve", "dp", game3, "--json"],
            lambda: ev.solve_planted(game3, asg3)),
        Cmd("extract-3col", ["reduce", "3col", graph, "--extract", asg3, "--json"],
            lambda: ev.extract_3col(graph)),
        Cmd("gen-tiling", ["gen", "tiling", "--size", str(size), "--coords", str(coords),
                           "--solvable", "--seed", str(next(seeds)), "--out", tiling],
            lambda: ev.gen_tiling(tiling, size), (tiling,)),
        Cmd("reduce-tiling", ["reduce", "tiling", tiling, "--out", gamet],
            lambda: ev.reduce_tiling(tiling, gamet), (gamet,)),
        Cmd("solve-dp-tiling", ["solve", "dp", gamet, "--json"],
            lambda: ev.solve_planted(gamet, asgt)),
        Cmd("extract-tiling", ["reduce", "tiling", tiling, "--extract", asgt, "--json"],
            lambda: ev.extract_tiling(tiling)),
    ]
    return cmds


WORKLOADS = {
    "approx": approx,
    "planar": planar,
    "smooth": smooth,
    "cli-corpus": cli_corpus,
}
