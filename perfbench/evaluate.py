"""Independent output checks for the benchmark.

Nothing here imports labelcover: instances are parsed from the text files
the commands read, and every claim a command prints is recounted from
those files.  A failed check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


class CheckFailed(Exception):
    """A command's output contradicts the independent recount."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rows(text: str, header: str) -> list[list[int]]:
    lines = [
        ln.split() for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    require(bool(lines) and " ".join(lines[0]) == header, f"missing {header!r} header")
    return [[int(x) for x in ln] for ln in lines[1:]]


class Game:
    """A `labelcover v1` instance: sizes plus (a, b, table) per edge."""

    def __init__(self, text: str):
        rows = _rows(text, "labelcover v1")
        self.na, self.nb, self.ka, self.kb, self.m = rows[0]
        require(len(rows) == 1 + self.m, "edge count does not match size line")
        self.edges = [(r[0], r[1], tuple(r[2:])) for r in rows[1:]]
        self.digest = hashlib.sha256(text.encode()).hexdigest()

    def recount(self, a_labels, b_labels) -> int:
        require(
            len(a_labels) == self.na and len(b_labels) == self.nb,
            "assignment shape does not match the instance",
        )
        require(
            all(0 <= s < self.ka for s in a_labels)
            and all(0 <= s < self.kb for s in b_labels),
            "assignment label out of range",
        )
        return sum(1 for a, b, t in self.edges if t[a_labels[a]] == b_labels[b])

    def smoothness(self) -> Fraction:
        """Largest fraction of a vertex's edges on which two symbols collide."""
        per_a: list[list[tuple[int, ...]]] = [[] for _ in range(self.na)]
        for a, _, t in self.edges:
            per_a[a].append(t)
        mu = Fraction(0)
        for tables in per_a:
            if not tables:
                continue
            for s in range(self.ka):
                for s2 in range(s + 1, self.ka):
                    coll = sum(1 for t in tables if t[s] == t[s2])
                    mu = max(mu, Fraction(coll, len(tables)))
        return mu


def parse_colgraph(text: str) -> tuple[int, list[tuple[int, int]]]:
    rows = _rows(text, "colgraph v1")
    n, m, _ = rows[0]
    require(len(rows) == 1 + m, "colgraph edge count does not match size line")
    return n, [(r[0], r[1]) for r in rows[1:]]


def parse_tiling(text: str) -> tuple[int, list[set[tuple[int, int]]]]:
    rows = _rows(text, "matrixtiling v1")
    k, _ = rows[0]
    require(len(rows) == 1 + k * k, "tiling cell count does not match size line")
    cells = []
    for r in rows[1:]:
        cells.append({(r[3 + 2 * p], r[4 + 2 * p]) for p in range(r[2])})
    return k, cells


def emit_assignment(a_labels, b_labels) -> str:
    """The `assign v1` text for labels read off a report."""
    a = " ".join(str(x) for x in a_labels)
    b = " ".join(str(x) for x in b_labels)
    return f"assign v1\n{a}\n{b}\n"


def _labels(payload) -> tuple[list[int], list[int]]:
    asg = payload["assignment"]
    return asg["a_labels"], asg["b_labels"]


def check_report(payload: dict, game: Game, path: str) -> int:
    """Checks every solver report shares; returns the recounted value."""
    require(payload["instance"] == path, "report names another instance")
    require(payload["instance_digest"] == game.digest, "instance digest differs from the file")
    require(payload["edges"] == game.m, "edge count differs from the file")
    sat = game.recount(*_labels(payload))
    require(payload["satisfied"] == sat, f"satisfied {payload['satisfied']} but recount is {sat}")
    require(Fraction(sat) >= Fraction(payload["guarantee"]), "satisfied below the guarantee")
    return sat


# ---------------------------------------------------------------------------
# per-command checks: each takes the command's stdout and raises on a defect


def approx_best(game: Game, path: str):
    def check(out: str, ctx: dict) -> None:
        p = json.loads(out)
        sat = check_report(p, game, path)
        require(p["algorithm"].startswith("best("), "not a best-of report")
        # satisfied >= |E| / (4 (nA kA)^(1/4)), in integers
        require(256 * sat**4 * game.na * game.ka >= game.m**4, "quartic guarantee violated")
    return check


def approx_algo(game: Game, path: str):
    def check(out: str, ctx: dict) -> None:
        check_report(json.loads(out), game, path)
    return check


def ptas(game: Game, path: str, eps: Fraction):
    """Planted inputs have OPT = |E|, so the scheme keeps (h-1)/h of |E|."""
    h = math.ceil(1 + 1 / eps)

    def check(out: str, ctx: dict) -> None:
        p = json.loads(out)
        sat = check_report(p, game, path)
        require(dict(p["breakdown"]).get("h") == h, "wrong number of edge classes")
        require(Fraction(p["guarantee_ratio_of_opt"]) == Fraction(h - 1, h), "wrong ratio")
        require(sat * h >= (h - 1) * game.m, "ptas below (h-1)/h of the planted optimum")
    return check


def smooth_exact(game: Game, path: str, seed: int):
    def check(out: str, ctx: dict) -> None:
        p = json.loads(out)
        require(p["instance"] == path and p["instance_digest"] == game.digest, "wrong instance")
        require(p["seed"] == seed, "seed not echoed")
        require(p["found"] == ("assignment" in p), "found flag disagrees with payload")
        if p["found"]:
            require(game.recount(*_labels(p)) == game.m, "returned assignment misses an edge")
    return check


def smooth_approx(game: Game, path: str):
    def check(out: str, ctx: dict) -> None:
        sat = check_report(json.loads(out), game, path)
        require(4 * sat >= game.m, "smooth approx below |E|/4")
    return check


def smooth_measure(game: Game, path: str):
    mu = game.smoothness()

    def check(out: str, ctx: dict) -> None:
        p = json.loads(out)
        require(p["instance_digest"] == game.digest, "wrong instance")
        require(Fraction(p["mu"]) == mu, f"measured mu {p['mu']} but recount is {mu}")
    return check


def stats(game: Game, path: str):
    def check(out: str, ctx: dict) -> None:
        p = json.loads(out)
        require(p["instance_digest"] == game.digest, "wrong instance")
        got = (p["a_count"], p["b_count"], p["sigma_a"], p["sigma_b"], p["edges"])
        require(got == (game.na, game.nb, game.ka, game.kb, game.m), "sizes differ from the file")
    return check


def verify(game: Game, path: str, a_labels, b_labels):
    want = game.recount(a_labels, b_labels)

    def check(out: str, ctx: dict) -> None:
        p = json.loads(out)
        require(p["instance_digest"] == game.digest, "wrong instance")
        require(p["satisfied"] == want, "verify count differs from the recount")
        require(p["satisfies_all"] == (want == game.m), "satisfies_all flag wrong")
    return check


def bench(games: dict[str, Game]):
    """`bench` JSONL: every run record recounts its fraction and bound."""
    def check(out: str, ctx: dict) -> None:
        lines = [json.loads(x) for x in out.splitlines()]
        summary = lines[-1]
        require(summary["record"] == "summary", "bench output lacks a summary")
        require(summary["instances"] == len(games), "bench saw another corpus")
        seen = set()
        for rec in lines[:-1]:
            game = games[rec["instance"]]
            seen.add(rec["instance"])
            require(rec["instance_digest"] == game.digest, "wrong instance digest")
            require(rec["edges"] == game.m, "edge count differs from the file")
            sat = rec["satisfied"]
            require(Fraction(rec["fraction"]) == Fraction(sat, game.m), "fraction wrong")
            require(Fraction(sat) >= Fraction(rec["guarantee"]), "below guarantee")
            if rec["algorithm"] == "best":
                require(256 * sat**4 * game.na * game.ka >= game.m**4, "quartic guarantee violated")
        require(seen == set(games), "bench skipped an instance")
    return check


def solve(game: Game, path: str, key: str):
    """`solve exact` and `solve dp` on one game must agree."""
    def check(out: str, ctx: dict) -> None:
        sat = check_report(json.loads(out), game, path)
        prev = ctx.setdefault(key, sat)
        require(prev == sat, f"solvers disagree on {path}: {prev} vs {sat}")
    return check


def solve_planted(path: str, assign_out: str):
    """`solve dp` on a reduction of a solvable source must satisfy every
    edge; the checked labels are written to ``assign_out`` for the
    extraction command that follows."""
    def check(out: str, ctx: dict) -> None:
        with open(path) as fh:
            game = Game(fh.read())
        p = json.loads(out)
        sat = check_report(p, game, path)
        require(sat == game.m, "reduction of a solvable source not fully satisfied")
        with open(assign_out, "w") as fh:
            fh.write(emit_assignment(*_labels(p)))
    return check


def gen_colgraph(path: str, n: int):
    def check(out: str, ctx: dict) -> None:
        with open(path) as fh:
            got, _ = parse_colgraph(fh.read())
        require(got == n, "generated colgraph has the wrong vertex count")
    return check


def gen_tiling(path: str, k: int):
    def check(out: str, ctx: dict) -> None:
        with open(path) as fh:
            got, cells = parse_tiling(fh.read())
        require(got == k and all(cells), "generated tiling has the wrong shape")
    return check


def reduce_3col(src: str, path: str):
    """3col game: one A vertex per source edge, two edges each."""
    def check(out: str, ctx: dict) -> None:
        with open(src) as fh:
            n, edges = parse_colgraph(fh.read())
        with open(path) as fh:
            game = Game(fh.read())
        shape = (game.na, game.nb, game.ka, game.kb, game.m)
        require(shape == (len(edges), n, 6, 3, 2 * len(edges)), "3col game has the wrong shape")
    return check


def reduce_tiling(src: str, path: str):
    def check(out: str, ctx: dict) -> None:
        with open(src) as fh:
            k, _ = parse_tiling(fh.read())
        with open(path) as fh:
            game = Game(fh.read())
        require(
            (game.na, game.nb, game.m) == (k * k, 2 * k * (k - 1), 4 * k * k - 4 * k),
            "tiling game has the wrong shape",
        )
    return check


def extract_3col(src: str):
    def check(out: str, ctx: dict) -> None:
        with open(src) as fh:
            _, edges = parse_colgraph(fh.read())
        p = json.loads(out)
        col = p["coloring"]
        require(p["proper"] and not p["violated_edges"], "extraction reports a violation")
        require(all(col[u] != col[v] for u, v in edges), "extracted coloring is not proper")
        require(all(0 <= c < 3 for c in col), "extracted color out of range")
    return check


def extract_tiling(src: str):
    def check(out: str, ctx: dict) -> None:
        with open(src) as fh:
            k, cells = parse_tiling(fh.read())
        p = json.loads(out)
        chosen = [tuple(c) if c else None for c in p["cells"]]
        require(not p["violations"], "extraction reports a violation")
        require(p["chosen"] == k * k and all(chosen), "full tiling expected from a full solution")
        for idx, pair in enumerate(chosen):
            i, j = divmod(idx, k)
            require(pair in cells[idx], f"cell {idx} pair not in its set")
            require(j == 0 or chosen[idx - 1][0] == pair[0], "row disagreement")
            require(i == 0 or chosen[idx - k][1] == pair[1], "column disagreement")
    return check
