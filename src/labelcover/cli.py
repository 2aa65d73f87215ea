"""Command-line surface: generators, solvers, verification, benchmarks.

Every command is deterministic byte for byte (per seed where seeded);
wall-clock timings are only emitted under --timings so default output
stays reproducible.  Exit codes: 0 success, 2 parse error or unreadable
input, 3 budget exceeded, 1 other errors (an unwritable output included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core import (
    BudgetExceeded,
    LabelCoverError,
    ProjectionGame,
    SolveReport,
    compute_stats,
    value,
)
from . import approx
from . import exact
from . import formats
from . import planar as planar_mod
from . import reductions
from . import smooth as smooth_mod


def _frac_str(x: Fraction | None):
    return None if x is None else str(Fraction(x))


def _digest(game: ProjectionGame) -> str:
    return hashlib.sha256(formats.emit_labelcover(game).encode()).hexdigest()


class _UnreadableInput(Exception):
    """An input file or corpus could not be read (exit code 2)."""


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UnreadableInput(exc) from exc


def _load_game(path: str) -> ProjectionGame:
    return formats.parse_labelcover(_read_text(path))


def _write_or_print(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _report_payload(args, path, game, rep, extra=None):
    payload = {
        "tool": "labelcover",
        "version": __version__,
        "command": list(args.argv),
        "instance": path,
        "instance_digest": _digest(game),
        "algorithm": rep.algorithm,
        "satisfied": rep.satisfied,
        "edges": game.edge_count,
        "guarantee": _frac_str(rep.guarantee),
        "guarantee_ratio_of_opt": _frac_str(rep.guarantee_ratio_of_opt),
        "breakdown": dict(rep.breakdown) if rep.breakdown else None,
        "seed": rep.seed,
        "assignment": {
            "a_labels": list(rep.assignment.a_labels),
            "b_labels": list(rep.assignment.b_labels),
        },
    }
    if extra:
        payload.update(extra)
    if args.timings:
        payload["elapsed"] = rep.elapsed
    return payload


def _emit_report(args, path, game, rep, extra=None):
    if args.json:
        print(json.dumps(_report_payload(args, path, game, rep, extra)))
    else:
        print(f"algorithm: {rep.algorithm}")
        print(f"satisfied = {rep.satisfied} / {game.edge_count}")
        print(f"guarantee >= {rep.guarantee}")
        if rep.guarantee_ratio_of_opt is not None:
            print(f"guarantee ratio of optimum: {rep.guarantee_ratio_of_opt}")
        if rep.breakdown:
            for name, val in rep.breakdown:
                print(f"  {name}: {val}")
        if args.timings:
            print(f"elapsed: {rep.elapsed:.6f}s")


def _add_common(sub):
    sub.add_argument("--json", action="store_true", help="machine readable output")
    sub.add_argument("--seed", type=int, default=0, help="generator/solver seed")
    sub.add_argument(
        "--enum-cap",
        type=int,
        default=smooth_mod.DEFAULT_ENUM_CAP,
        help="cap on enumerated assignments for exponential phases",
    )
    sub.add_argument(
        "--timings", action="store_true", help="include wall-clock in output"
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="labelcover",
        description="Projection-game (Label Cover) solvers and generators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("gen", help="generate instances")
    gsubs = p.add_subparsers(dest="kind", required=True)

    g = gsubs.add_parser("random", help="planted random instance")
    g.add_argument("--na", type=int, required=True)
    g.add_argument("--nb", type=int, required=True)
    g.add_argument("--ka", type=int, required=True)
    g.add_argument("--kb", type=int, required=True)
    g.add_argument("--degree", type=int, required=True)
    g.add_argument("--uniform", action="store_true")
    g.add_argument("--out")
    g.add_argument("--plant-out")
    _add_common(g)

    g = gsubs.add_parser("smooth", help="planted smooth instance")
    g.add_argument("--na", type=int, required=True)
    g.add_argument("--nb", type=int, required=True)
    g.add_argument("--ka", type=int, required=True)
    g.add_argument("--kb", type=int, required=True)
    g.add_argument("--degree", type=int, required=True)
    g.add_argument("--mu", type=Fraction, required=True)
    g.add_argument("--out")
    g.add_argument("--plant-out")
    _add_common(g)

    g = gsubs.add_parser("grid", help="planted planar grid instance")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--ka", type=int, required=True)
    g.add_argument("--kb", type=int, required=True)
    g.add_argument("--out")
    g.add_argument("--plant-out")
    _add_common(g)

    g = gsubs.add_parser("3col", help="random planar 3-colorable graph")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--keep", type=Fraction, default=Fraction(3, 4))
    g.add_argument("--out")
    _add_common(g)

    g = gsubs.add_parser("tiling", help="random matrix tiling")
    g.add_argument("--size", type=int, required=True)
    g.add_argument("--coords", type=int, required=True)
    g.add_argument("--density", type=Fraction, default=Fraction(1, 2))
    g.add_argument("--solvable", action="store_true")
    g.add_argument("--out")
    _add_common(g)

    p = subs.add_parser("stats", help="instance statistics")
    p.add_argument("instance")
    _add_common(p)

    p = subs.add_parser("solve", help="exact solvers")
    ssubs = p.add_subparsers(dest="method", required=True)
    s = ssubs.add_parser("exact", help="brute force oracle")
    s.add_argument("instance")
    s.add_argument("--budget", type=int, default=None)
    _add_common(s)
    s = ssubs.add_parser("dp", help="tree-decomposition dynamic program")
    s.add_argument("instance")
    s.add_argument("--td", help="decomposition file (default: min-fill heuristic)")
    _add_common(s)

    p = subs.add_parser("approx", help="approximation algorithms")
    p.add_argument(
        "algorithm",
        choices=["one-neighbor", "greedy", "kyn", "kynn", "dnc", "best"],
    )
    p.add_argument("instance")
    p.add_argument("--a0", type=int, default=None, help="anchor vertex")
    p.add_argument("--sigma", type=int, default=None, help="anchor symbol (kyn)")
    p.add_argument("--uniform", action="store_true", help="uniform variants")
    _add_common(p)

    p = subs.add_parser("smooth", help="smooth-game algorithms")
    msubs = p.add_subparsers(dest="method", required=True)
    s = msubs.add_parser("measure", help="measure smoothness")
    s.add_argument("instance")
    _add_common(s)
    s = msubs.add_parser("exact", help="randomized exact solver")
    s.add_argument("instance")
    s.add_argument("--mu", type=Fraction, default=None)
    s.add_argument("--c1", type=Fraction, default=Fraction(4))
    _add_common(s)
    s = msubs.add_parser("approx", help="deterministic constant factor")
    s.add_argument("instance")
    s.add_argument("--mu", type=Fraction, default=None)
    _add_common(s)

    p = subs.add_parser("ptas", help="planar approximation scheme")
    p.add_argument("instance")
    p.add_argument("--eps", type=Fraction, required=True)
    p.add_argument("--force-nonplanar", action="store_true")
    p.add_argument("--h-override", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("reduce", help="instance reductions")
    rsubs = p.add_subparsers(dest="kind", required=True)
    r = rsubs.add_parser("3col", help="3-coloring graph to game")
    r.add_argument("input")
    r.add_argument("--out")
    r.add_argument("--extract", help="assignment file to pull a coloring from")
    _add_common(r)
    r = rsubs.add_parser("tiling", help="matrix tiling to game")
    r.add_argument("input")
    r.add_argument("--out")
    r.add_argument("--extract", help="assignment file to pull a tiling from")
    _add_common(r)

    p = subs.add_parser("verify", help="evaluate an assignment")
    p.add_argument("instance")
    p.add_argument("assignment")
    _add_common(p)

    p = subs.add_parser("bench", help="run the approximation suite on a corpus")
    p.add_argument("corpus", help="directory of .lc files")
    p.add_argument("--out", help="write JSONL records here instead of stdout")
    _add_common(p)

    return parser


def _cmd_gen(args) -> int:
    if args.kind == "random":
        game, plant = reductions.gen_random_satisfiable(
            args.na, args.nb, args.ka, args.kb, args.degree, args.seed,
            uniform=args.uniform,
        )
    elif args.kind == "smooth":
        game, report, plant = reductions.gen_smooth(
            args.na, args.nb, args.ka, args.kb, args.degree, args.mu, args.seed
        )
        if not args.json:
            print(f"# measured smoothness: {report.mu}", file=sys.stderr)
    elif args.kind == "grid":
        game, plant = reductions.gen_planar_grid(
            args.rows, args.cols, args.ka, args.kb, args.seed
        )
    elif args.kind == "3col":
        graph, _ = reductions.gen_coloring_graph(
            args.rows, args.cols, args.keep, args.seed
        )
        _write_or_print(formats.emit_coloring_graph(graph), args.out)
        return 0
    else:
        tiling = reductions.gen_matrix_tiling(
            args.size, args.coords, args.density, args.seed,
            solvable=args.solvable,
        )
        _write_or_print(formats.emit_matrix_tiling(tiling), args.out)
        return 0
    _write_or_print(formats.emit_labelcover(game), args.out)
    if args.plant_out:
        Path(args.plant_out).write_text(formats.emit_assignment(plant))
    return 0


def _cmd_stats(args) -> int:
    game = _load_game(args.instance)
    st = compute_stats(game)
    payload = {
        "instance": args.instance,
        "instance_digest": _digest(game),
        "a_count": game.a_count,
        "b_count": game.b_count,
        "sigma_a": game.sigma_a,
        "sigma_b": game.sigma_b,
        "edges": game.edge_count,
        "h_max": st.h_max,
        "e_n_max": st.e_n_max,
        "p_bar_max": _frac_str(st.p_bar_max),
        "uniform_p": st.uniform_p,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    return 0


def _cmd_solve(args) -> int:
    from time import perf_counter

    game = _load_game(args.instance)
    t0 = perf_counter()
    if args.method == "exact":
        phi, val = exact.brute_force_opt(game, args.budget)
        name = "brute-force"
    else:
        td = (
            formats.parse_td(_read_text(args.td))
            if args.td
            else exact.heuristic_decomposition(game)
        )
        phi, val = exact.tree_dp_solve(game, td)
        name = "tree-dp"
    rep = SolveReport(
        assignment=phi,
        satisfied=val,
        algorithm=name,
        guarantee=Fraction(val),
        elapsed=perf_counter() - t0,
    )
    _emit_report(args, args.instance, game, rep)
    return 0


def _cmd_approx(args) -> int:
    game = _load_game(args.instance)
    st = compute_stats(game)
    if args.algorithm == "one-neighbor":
        rep = approx.satisfy_one_neighbor(game)
    elif args.algorithm == "greedy":
        rep = approx.greedy_assignment(game, st)
    elif args.algorithm == "kyn":
        cache = approx.compute_sigma_star(game, st)
        a0 = approx._kyn_anchor(st) if args.a0 is None else args.a0
        approx._check_anchor(game, a0)
        sigma = args.sigma
        if sigma is None:
            if not cache.sigma_star[a0]:
                raise approx.NotInSigmaStar(f"no admissible symbol for a{a0}")
            sigma = cache.sigma_star[a0][0]
        rep = approx.know_your_neighbors(game, a0, sigma, st, cache)
    elif args.algorithm == "kynn":
        if args.uniform:
            a0 = args.a0
            if a0 is None:
                a0 = max(range(game.a_count), key=lambda a: (st.h[a], -a), default=0)
            rep = approx.know_neighbors_neighbors(game, a0, st, uniform=True)
        else:
            cache = approx.compute_sigma_star(game, st)
            a0 = args.a0
            if a0 is None:
                a0 = (
                    cache.h_star_argmax[0]
                    if cache.h_star_argmax is not None
                    else 0
                )
            rep = approx.know_neighbors_neighbors(game, a0, st, cache)
    elif args.algorithm == "dnc":
        rep = approx.divide_and_conquer(game, st, uniform=args.uniform)
    else:
        rep = approx.best_of(game, st)
    _emit_report(args, args.instance, game, rep)
    return 0


def _cmd_smooth(args) -> int:
    game = _load_game(args.instance)
    if args.method == "measure":
        report = smooth_mod.measure_smoothness(game)
        payload = {
            "instance": args.instance,
            "instance_digest": _digest(game),
            "mu": _frac_str(report.mu),
            "witness": list(report.witness) if report.witness else None,
        }
        if args.json:
            print(json.dumps(payload))
        else:
            print(f"mu = {report.mu}")
            if report.witness:
                a, s, s2 = report.witness
                print(f"witness: a{a} symbols {s}, {s2}")
        return 0
    if args.method == "exact":
        phi = smooth_mod.smooth_exact(
            game, mu=args.mu, c1=args.c1, seed=args.seed, enum_cap=args.enum_cap
        )
        if args.json:
            payload = {
                "instance": args.instance,
                "instance_digest": _digest(game),
                "found": phi is not None,
                "seed": args.seed,
            }
            if phi is not None:
                payload["assignment"] = {
                    "a_labels": list(phi.a_labels),
                    "b_labels": list(phi.b_labels),
                }
            print(json.dumps(payload))
        elif phi is None:
            print("no satisfying assignment found for this seed")
        else:
            print(f"satisfied = {value(game, phi)} / {game.edge_count}")
        return 0
    rep = smooth_mod.smooth_approx(game, mu=args.mu, enum_cap=args.enum_cap)
    _emit_report(args, args.instance, game, rep)
    return 0


def _cmd_ptas(args) -> int:
    game = _load_game(args.instance)
    rep = planar_mod.ptas(
        game,
        args.eps,
        force_nonplanar=args.force_nonplanar,
        h_override=args.h_override,
    )
    _emit_report(args, args.instance, game, rep)
    return 0


def _cmd_reduce(args) -> int:
    if args.kind == "3col":
        graph = formats.parse_coloring_graph(_read_text(args.input))
        game, _ = reductions.from_planar_3col(graph)
        if args.extract:
            phi = formats.parse_assignment(_read_text(args.extract))
            ext = reductions.extract_coloring(graph, game, phi)
            if args.json:
                print(json.dumps({
                    "proper": ext.proper,
                    "coloring": list(ext.coloring),
                    "violated_edges": list(ext.violated_edges),
                }))
            else:
                print(f"proper: {ext.proper}")
                print("coloring:", " ".join(str(c) for c in ext.coloring))
                if ext.violated_edges:
                    print("violated edges:", " ".join(map(str, ext.violated_edges)))
            return 0
    else:
        tiling = formats.parse_matrix_tiling(_read_text(args.input))
        game, _ = reductions.from_matrix_tiling(tiling)
        if args.extract:
            phi = formats.parse_assignment(_read_text(args.extract))
            sol = reductions.extract_tiling(tiling, game, phi)
            bad = reductions.validate_tiling_solution(tiling, sol)
            if args.json:
                print(json.dumps({
                    "cells": [list(c) if c else None for c in sol.cells],
                    "chosen": sol.chosen_count(),
                    "violations": bad,
                }))
            else:
                print(f"chosen cells: {sol.chosen_count()} of {len(sol.cells)}")
                for line in bad:
                    print(f"violation: {line}")
            return 0
    _write_or_print(formats.emit_labelcover(game), args.out)
    return 0


def _cmd_verify(args) -> int:
    game = _load_game(args.instance)
    phi = formats.parse_assignment(_read_text(args.assignment))
    sat = value(game, phi)
    if args.json:
        print(
            json.dumps(
                {
                    "instance": args.instance,
                    "instance_digest": _digest(game),
                    "satisfied": sat,
                    "edges": game.edge_count,
                    "satisfies_all": sat == game.edge_count,
                }
            )
        )
    else:
        print(f"satisfied = {sat} / {game.edge_count}")
    return 0


BENCH_ALGOS = ("one-neighbor", "greedy", "kyn", "kynn", "dnc", "best")


def _cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise _UnreadableInput(f"corpus {args.corpus} is not a directory")
    paths = sorted(corpus.glob("*.lc"))
    sink = open(args.out, "w") if args.out else sys.stdout
    close = args.out is not None
    worst: dict[str, Fraction | None] = {name: None for name in BENCH_ALGOS}
    worst_norm: dict[str, float | None] = {name: None for name in BENCH_ALGOS}
    try:
        for path in paths:
            game = formats.parse_labelcover(_read_text(path))
            digest = _digest(game)
            st = compute_stats(game)
            # passing stats and sigma* in keeps them out of every elapsed
            best = approx.best_of(game, st, approx.compute_sigma_star(game, st))
            reports = {rep.algorithm: rep for rep in best.parts}
            reports["best"] = best
            for name in BENCH_ALGOS:
                rep = reports.get(name)
                if rep is None:
                    continue
                frac = (
                    Fraction(rep.satisfied, game.edge_count)
                    if game.edge_count
                    else Fraction(1)
                )
                if worst[name] is None or frac < worst[name]:
                    worst[name] = frac
                # satisfied fraction scaled by the quartic guarantee target
                norm = float(frac) * (game.a_count * game.sigma_a) ** 0.25
                if worst_norm[name] is None or norm < worst_norm[name]:
                    worst_norm[name] = norm
                record = {
                    "record": "run",
                    "instance": str(path),
                    "instance_digest": digest,
                    "algorithm": name,
                    "satisfied": rep.satisfied,
                    "edges": game.edge_count,
                    "fraction": str(frac),
                    "quartic_ratio": norm,
                    "guarantee": _frac_str(rep.guarantee),
                }
                if args.timings:
                    record["elapsed"] = rep.elapsed
                sink.write(json.dumps(record) + "\n")
        summary = {
            "record": "summary",
            "instances": len(paths),
            "worst_fraction": {
                name: (str(v) if v is not None else None)
                for name, v in worst.items()
            },
            # the combined algorithm promises worst_quartic_ratio >= 1/4
            "worst_quartic_ratio": worst_norm,
        }
        sink.write(json.dumps(summary) + "\n")
    finally:
        if close:
            sink.close()
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    handlers = {
        "gen": _cmd_gen,
        "stats": _cmd_stats,
        "solve": _cmd_solve,
        "approx": _cmd_approx,
        "smooth": _cmd_smooth,
        "ptas": _cmd_ptas,
        "reduce": _cmd_reduce,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.cmd](args)
    except formats.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _UnreadableInput as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except LabelCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
