"""Command-line surface: generators, solvers, verification, benchmarks.

Every command is deterministic byte for byte (per seed where seeded);
wall-clock timings are only emitted under --timings so default output
stays reproducible.  Exit codes: 0 success, 2 usage error, parse error or
unreadable input, 3 budget exceeded, 1 other errors (an unwritable output
and running out of memory included), 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from . import __version__
from .core import (
    BudgetExceeded,
    LabelCoverError,
    ProjectionGame,
    _report,
    compute_stats,
    value,
)
from . import formats
from . import reductions
from . import smooth as smooth_mod


def _frac_str(x: Fraction | None):
    return None if x is None else str(Fraction(x))


class _UnreadableInput(Exception):
    """An input file or corpus could not be read (exit code 2)."""


def _read_text(path) -> str:
    """A file's text, as UTF-8 whatever the locale, with universal newlines."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UnreadableInput(exc) from exc


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_game(path) -> tuple[ProjectionGame, Callable[[], str]]:
    """Read a `labelcover v1` file: its game, and a function giving the
    game's digest, the sha256 of its canonical text.  A file read in bulk
    is that text, so its own bytes are hashed; any other is re-emitted."""
    text = _read_text(path)
    game, canonical = formats._read_labelcover(text)
    if canonical:
        return game, lambda: _sha256(text)
    return game, lambda: _sha256(formats.emit_labelcover(game))


def _write_or_print(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _path_text(path) -> str:
    """A path as reports print it: its bytes read as UTF-8, whatever
    encoding the locale decoded argv with."""
    return os.fsencode(path).decode("utf-8", "surrogateescape")


def _instance(args, digest) -> dict:
    return {"instance": _path_text(args.instance), "instance_digest": digest()}


def _labels(phi) -> dict:
    return {"a_labels": list(phi.a_labels), "b_labels": list(phi.b_labels)}


def _emit(args, payload, lines):
    """Print payload() as one JSON line under --json, else the text lines;
    payload is a function so text output never computes a digest."""
    if args.json:
        print(json.dumps(payload()))
    else:
        print("\n".join(lines))


def _emit_report(args, game, digest, rep):
    lines = [
        f"algorithm: {rep.algorithm}",
        f"satisfied = {rep.satisfied} / {game.edge_count}",
        f"guarantee >= {rep.guarantee}",
    ]
    if rep.guarantee_ratio_of_opt is not None:
        lines.append(f"guarantee ratio of optimum: {rep.guarantee_ratio_of_opt}")
    lines += [f"  {name}: {val}" for name, val in rep.breakdown or ()]
    if args.timings:
        lines.append(f"elapsed: {rep.elapsed:.6f}s")
    _emit(args, lambda: {
        "tool": "labelcover",
        "version": __version__,
        "command": list(args.argv),
        **_instance(args, digest),
        "algorithm": rep.algorithm,
        "satisfied": rep.satisfied,
        "edges": game.edge_count,
        "guarantee": _frac_str(rep.guarantee),
        "guarantee_ratio_of_opt": _frac_str(rep.guarantee_ratio_of_opt),
        "breakdown": dict(rep.breakdown) if rep.breakdown else None,
        "seed": None,
        "assignment": _labels(rep.assignment),
        **({"elapsed": rep.elapsed} if args.timings else {}),
    }, lines)


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
        Path(args.plant_out).write_text(formats.emit_assignment(plant), encoding="utf-8")
    return 0


def _cmd_stats(args) -> int:
    game, digest = _load_game(args.instance)
    st = compute_stats(game)
    payload = {
        **_instance(args, digest),
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
    _emit(args, lambda: payload, [f"{key}: {val}" for key, val in payload.items()])
    return 0


def _cmd_solve(args) -> int:
    from . import exact

    game, digest = _load_game(args.instance)
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
    _emit_report(args, game, digest, _report(game, phi, name, Fraction(val), t0))
    return 0


def _cmd_approx(args) -> int:
    from . import approx

    game, digest = _load_game(args.instance)
    st = None if args.algorithm == "one-neighbor" else compute_stats(game)
    if args.algorithm == "one-neighbor":
        rep = approx.satisfy_one_neighbor(game)
    elif args.algorithm == "greedy":
        rep = approx.greedy_assignment(game, st)
    elif args.algorithm == "kyn":
        rep = approx.know_your_neighbors(game, args.a0, args.sigma, st)
    elif args.algorithm == "kynn":
        rep = approx.know_neighbors_neighbors(game, args.a0, st, uniform=args.uniform)
    elif args.algorithm == "dnc":
        rep = approx.divide_and_conquer(game, st, uniform=args.uniform)
    else:
        rep = approx.best_of(game, st)
    _emit_report(args, game, digest, rep)
    return 0


def _cmd_smooth(args) -> int:
    game, digest = _load_game(args.instance)
    if args.method == "measure":
        report = smooth_mod.measure_smoothness(game)
        lines = [f"mu = {report.mu}"]
        if report.witness:
            lines.append("witness: a{} symbols {}, {}".format(*report.witness))
        _emit(args, lambda: {
            **_instance(args, digest),
            "mu": _frac_str(report.mu),
            "witness": list(report.witness) if report.witness else None,
        }, lines)
        return 0
    if args.method == "exact":
        phi = smooth_mod.smooth_exact(
            game, mu=args.mu, c1=args.c1, seed=args.seed, enum_cap=args.enum_cap
        )
        found = phi is not None
        _emit(args, lambda: {
            **_instance(args, digest),
            "found": found,
            "seed": args.seed,
            **({"assignment": _labels(phi)} if found else {}),
        }, [
            f"satisfied = {value(game, phi)} / {game.edge_count}" if found
            else "no satisfying assignment found for this seed"
        ])
        return 0
    rep = smooth_mod.smooth_approx(game, mu=args.mu, enum_cap=args.enum_cap)
    _emit_report(args, game, digest, rep)
    return 0


def _cmd_ptas(args) -> int:
    from . import planar

    game, digest = _load_game(args.instance)
    rep = planar.ptas(
        game,
        args.eps,
        force_nonplanar=args.force_nonplanar,
        h_override=args.h_override,
    )
    _emit_report(args, game, digest, rep)
    return 0


def _cmd_reduce(args) -> int:
    if args.json and not args.extract:
        # a usage error, exiting 2 with the command's usage like argparse's own
        words = ("reduce", args.kind)
        _parser(words).leaves[words].error(
            "argument --json: only allowed with argument --extract"
        )
    if args.kind == "3col":
        graph = formats.parse_coloring_graph(_read_text(args.input))
        game, _ = reductions.from_planar_3col(graph)
        if args.extract:
            phi = formats.parse_assignment(_read_text(args.extract))
            ext = reductions.extract_coloring(graph, game, phi)
            payload = {
                "proper": ext.proper,
                "coloring": list(ext.coloring),
                "violated_edges": list(ext.violated_edges),
            }
            lines = [
                f"proper: {ext.proper}",
                "coloring: " + " ".join(map(str, ext.coloring)),
            ]
            if ext.violated_edges:
                lines.append("violated edges: " + " ".join(map(str, ext.violated_edges)))
    else:
        tiling = formats.parse_matrix_tiling(_read_text(args.input))
        game, _ = reductions.from_matrix_tiling(tiling)
        if args.extract:
            phi = formats.parse_assignment(_read_text(args.extract))
            sol = reductions.extract_tiling(tiling, game, phi)
            bad = reductions.validate_tiling_solution(tiling, sol)
            payload = {
                "cells": [list(c) if c else None for c in sol.cells],
                "chosen": sol.chosen_count(),
                "violations": bad,
            }
            lines = [f"chosen cells: {sol.chosen_count()} of {len(sol.cells)}"]
            lines += [f"violation: {line}" for line in bad]
    if not args.extract:
        text = formats.emit_labelcover(game)
    elif args.json:
        text = json.dumps(payload) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    game, digest = _load_game(args.instance)
    phi = formats.parse_assignment(_read_text(args.assignment))
    sat = value(game, phi)
    _emit(args, lambda: {
        **_instance(args, digest),
        "satisfied": sat,
        "edges": game.edge_count,
        "satisfies_all": sat == game.edge_count,
    }, [f"satisfied = {sat} / {game.edge_count}"])
    return 0


BENCH_ALGOS = ("one-neighbor", "greedy", "kyn", "kynn", "dnc", "best")


def _cmd_bench(args) -> int:
    from . import approx

    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise _UnreadableInput(f"corpus {args.corpus} is not a directory")
    paths = sorted(corpus.glob("*.lc"))
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    worst: dict[str, Fraction | None] = {name: None for name in BENCH_ALGOS}
    worst_norm: dict[str, float | None] = {name: None for name in BENCH_ALGOS}
    try:
        for path in paths:
            game, digest = _load_game(path)
            instance_digest = digest()
            st = compute_stats(game)
            # stats and sigma*'s eager part (blocks, h_star argmax) are built
            # outside every elapsed; an algorithm that reads an untested
            # anchor's admissible set (kyn, dnc) counts that test in its own
            # elapsed
            best = approx.best_of(game, st, approx.compute_sigma_star(game, st))
            # parts come in BENCH_ALGOS order, without any that did not run
            for rep in (*best.parts, best):
                name = "best" if rep is best else rep.algorithm
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
                    "instance": _path_text(path),
                    "instance_digest": instance_digest,
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
        if sink is not sys.stdout:
            sink.close()
    return 0


def _typed(kind, low=None):
    """argparse type for a flag that kind (int or Fraction) reads; a value it
    refuses (such as 1/0) or one below low is a usage error."""
    def read(text: str):
        try:
            value = kind(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return read


_rational, _cap = _typed(Fraction), _typed(int, low=0)


def _required_ints(*flags):
    return tuple((flag, {"type": int, "required": True}) for flag in flags)


_FLAG = {"action": "store_true"}
_INSTANCE = ("instance", {})
_OUT = ("--out", {})
_PLANT_OUT = ("--plant-out", {})
_SIZES = _required_ints("--na", "--nb", "--ka", "--kb", "--degree")
_GRID = _required_ints("--rows", "--cols")
_MU = ("--mu", {"type": _rational, "default": None})
_A0 = ("--a0", {"type": int, "default": None, "help": "anchor vertex"})
_UNIFORM = ("--uniform", {**_FLAG, "help": "uniform variants"})
# listed after each command's own rows, so they come last in usage and --help
_JSON = ("--json", {**_FLAG, "help": "machine readable output"})
_QUIET = ("--json", {**_FLAG, "help": "omit the stderr '# measured smoothness' line"})
_SEED = ("--seed", {"type": int, "default": 0, "help": "generator/solver seed"})
_ENUM_CAP = ("--enum-cap", {
    "type": _cap,
    "default": smooth_mod.DEFAULT_ENUM_CAP,
    "help": "cap on enumerated assignments for exponential phases",
})
_TIMINGS = ("--timings", {**_FLAG, "help": "include wall-clock in output"})

# (name, help, dest of its sub-commands or None, handler, rows): rows are
# (flag, add_argument kwargs), or (name, help, rows) under a sub-command dest
_COMMANDS = (
    ("gen", "generate instances", "kind", _cmd_gen, (
        ("random", "planted random instance",
         (*_SIZES, ("--uniform", _FLAG), _OUT, _PLANT_OUT, _SEED)),
        ("smooth", "planted smooth instance",
         (*_SIZES, ("--mu", {"type": _rational, "required": True}),
          _OUT, _PLANT_OUT, _QUIET, _SEED)),
        ("grid", "planted planar grid instance",
         (*_GRID, *_required_ints("--ka", "--kb"), _OUT, _PLANT_OUT, _SEED)),
        ("3col", "random planar 3-colorable graph",
         (*_GRID, ("--keep", {"type": _rational, "default": Fraction(3, 4)}),
          _OUT, _SEED)),
        ("tiling", "random matrix tiling",
         (*_required_ints("--size", "--coords"),
          ("--density", {"type": _rational, "default": Fraction(1, 2)}),
          ("--solvable", _FLAG), _OUT, _SEED)),
    )),
    ("stats", "instance statistics", None, _cmd_stats, (_INSTANCE, _JSON)),
    ("solve", "exact solvers", "method", _cmd_solve, (
        ("exact", "brute force oracle",
         (_INSTANCE, ("--budget", {"type": _cap, "default": None}),
          _JSON, _TIMINGS)),
        ("dp", "tree-decomposition dynamic program",
         (_INSTANCE, ("--td", {
             "help": "decomposition file (default: min-fill heuristic)"
         }), _JSON, _TIMINGS)),
    )),
    ("approx", "approximation algorithms", "algorithm", _cmd_approx, (
        ("one-neighbor", "one edge per B vertex", (_INSTANCE, _JSON, _TIMINGS)),
        ("greedy", "preimage-greedy labels", (_INSTANCE, _JSON, _TIMINGS)),
        ("kyn", "know your neighbors", (_INSTANCE, _A0, ("--sigma", {
            "type": int, "default": None, "help": "anchor symbol (kyn)"
        }), _JSON, _TIMINGS)),
        ("kynn", "know your neighbors' neighbors",
         (_INSTANCE, _A0, _UNIFORM, _JSON, _TIMINGS)),
        ("dnc", "divide and conquer", (_INSTANCE, _UNIFORM, _JSON, _TIMINGS)),
        ("best", "best of the five", (_INSTANCE, _JSON, _TIMINGS)),
    )),
    ("smooth", "smooth-game algorithms", "method", _cmd_smooth, (
        ("measure", "measure smoothness", (_INSTANCE, _JSON)),
        ("exact", "randomized exact solver",
         (_INSTANCE, _MU, ("--c1", {"type": _rational, "default": Fraction(4)}),
          _JSON, _SEED, _ENUM_CAP)),
        ("approx", "deterministic constant factor",
         (_INSTANCE, _MU, _JSON, _ENUM_CAP, _TIMINGS)),
    )),
    ("ptas", "planar approximation scheme", None, _cmd_ptas, (
        _INSTANCE,
        ("--eps", {"type": _rational, "required": True}),
        ("--force-nonplanar", _FLAG),
        ("--h-override", {"type": int, "default": None}),
        _JSON, _TIMINGS,
    )),
    ("reduce", "instance reductions", "kind", _cmd_reduce, (
        ("3col", "3-coloring graph to game",
         (("input", {}), _OUT, ("--extract", {
             "help": "assignment file to pull a coloring from"
         }), _JSON)),
        ("tiling", "matrix tiling to game",
         (("input", {}), _OUT, ("--extract", {
             "help": "assignment file to pull a tiling from"
         }), _JSON)),
    )),
    ("verify", "evaluate an assignment", None, _cmd_verify,
     (_INSTANCE, ("assignment", {}), _JSON)),
    ("bench", "run the approximation suite on a corpus", None, _cmd_bench, (
        ("corpus", {"help": "directory of .lc files"}),
        ("--out", {"help": "write JSONL records here instead of stdout"}),
        _TIMINGS,
    )),
)


def _add_rows(parser, rows):
    for flag, kwargs in rows:
        parser.add_argument(flag, **kwargs)


# the words that name each runnable command, such as ("stats",) or
# ("smooth", "exact"): the keys of _parser().leaves
_WORDS = frozenset(
    words
    for name, _, dest, _, rows in _COMMANDS
    for words in ([(name, sub[0]) for sub in rows] if dest else [(name,)])
)


@functools.cache
def _parser(words: tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """The CLI parser, built from _COMMANDS on first use and reused.  Its
    `leaves` map each runnable command's words to that command's own
    parser.  Given a command's words, it builds only that command's
    branch, whose parsers are those of the whole tree."""
    parser = argparse.ArgumentParser(
        prog="labelcover",
        description="Projection-game (Label Cover) solvers and generators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.leaves = {}
    commands = parser.add_subparsers(dest="cmd", required=True)
    for name, help_text, dest, handler, rows in _COMMANDS:
        if words[:1] not in ((), (name,)):
            continue
        command = commands.add_parser(name, help=help_text)
        # each leaf sets the values the routing levels above it set, so
        # that it parses its own argv to the same namespace
        routing = {"cmd": name, "handler": handler}
        if dest is None:
            command.set_defaults(**routing)
            parser.leaves[(name,)] = command
            _add_rows(command, rows)
            continue
        subs = command.add_subparsers(dest=dest, required=True)
        for sub_name, sub_help, sub_rows in rows:
            if words[1:] not in ((), (sub_name,)):
                continue
            leaf = subs.add_parser(sub_name, help=sub_help)
            leaf.set_defaults(**routing, **{dest: sub_name})
            parser.leaves[name, sub_name] = leaf
            _add_rows(leaf, sub_rows)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, parsed once where it can be.

    The nested parse reads argv three times for a command such as `smooth
    exact`: each routing level classifies every remaining string before
    handing it on.  So argv that opens with a command's words goes straight
    to that command's parser, whose namespace is the nested parse's, and
    only that command's branch of the tree is built.  The whole tree parses
    when no command's words open argv (--help, --version, a missing or
    unknown command), when the command leaves arguments over (the top-level
    usage reports them), and when a string opens with "--=", which the top
    level rejects as ambiguous before any command sees it; so help, version
    and error text are its own.  The command's own errors (a bad value, a
    missing positional, -h) come from the same parser either way.
    """
    words = tuple(argv[:1]) if tuple(argv[:1]) in _WORDS else tuple(argv[:2])
    if words in _WORDS and not any(arg.startswith("--=") for arg in argv):
        leaf = _parser(words).leaves[words]
        args, rest = leaf.parse_known_args(argv[len(words):])
        if not rest:
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse_args(argv)
    args.argv = argv
    # output files this command creates, removed if it exits with an error
    created = [
        path for path in (getattr(args, "out", None), getattr(args, "plant_out", None))
        if path and not os.path.lexists(path)
    ]
    code = 1  # what an exception no clause below names exits with
    try:
        code = args.handler(args)
    except (MemoryError, KeyboardInterrupt) as exc:
        interrupted = isinstance(exc, KeyboardInterrupt)
        print("interrupted" if interrupted else "error: out of memory", file=sys.stderr)
        code = 130 if interrupted else 1
    except formats.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = 2
    except _UnreadableInput as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        code = 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        code = 3
    except LabelCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    finally:
        if code:
            for path in created:
                with contextlib.suppress(OSError):
                    os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
