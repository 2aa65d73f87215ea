"""labelcover benchmark: seeded workloads run through the real CLI.

    python3 perfbench/run.py --workload approx --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Each workload runs in its own process as a closed loop with one client:
``labelcover.cli.main(argv)`` is called in-process with stdout captured,
and the next command starts when the previous one returns.  Passes over
the workload's commands repeat while the next one is likely to end within
``--seconds``.  Command and set-up times are CPU seconds scaled by a
reference workload run next to them (see REF_UNIT_S below).  Every output is checked by perfbench/evaluate.py and digested; at the
default seed the digests must match perfbench/manifest.json.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of one traced set-up and pass
(perfbench/tracer.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 5
# The host's speed for interpreter work drifts by tens of percent within
# seconds and between minutes (other tenants share its cores and caches),
# and CPU time drifts with it.  So every command is followed by a fixed
# reference workload, and its CPU time is divided by the geometric mean
# of the reference times just before and after it, then multiplied by
# REF_UNIT_S: it reads as CPU seconds on a host where one unit of the
# reference takes REF_UNIT_S (its median on the 2-vCPU Xeon host this
# was tuned on).  Longer commands get more reference units, so that the
# reference samples the host over a comparable stretch of time.
REF_NODES = 600
REF_UNIT_S = 0.009
REF_UNITS_MAX = 6
MANIFEST = HERE / "manifest.json"
OUT = Path("perfbench") / "out"


def _import_labelcover():
    """Fresh import of the checkout's package; returns it and the CPU
    seconds taken."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m == "labelcover" or m.startswith("labelcover.")]:
        del sys.modules[name]
    t0 = time.process_time()
    import labelcover
    import labelcover.cli  # noqa: F401
    elapsed = time.process_time() - t0
    if Path(labelcover.__file__).resolve().parent != ROOT / "src" / "labelcover":
        raise ImportError(f"labelcover imported from {labelcover.__file__}, not this checkout")
    return labelcover, elapsed


def _reference(units: int) -> float:
    """CPU seconds per unit of fixed interpreter work shaped like the
    program's: a seeded random graph in dicts of sets, and for every
    vertex the multiset of its two-hop neighbours."""
    t0 = time.process_time()
    for _ in range(units):
        rng = random.Random(REF_NODES)
        adj = {v: set() for v in range(REF_NODES)}
        for _ in range(4 * REF_NODES):
            a, b = rng.randrange(REF_NODES), rng.randrange(REF_NODES)
            adj[a].add(b)
            adj[b].add(a)
        for v in range(REF_NODES):
            seen: dict[int, int] = {}
            for u in adj[v]:
                for w in adj[u]:
                    seen[w] = seen.get(w, 0) + 1
    return (time.process_time() - t0) / units


def _ref_units(cpu: float) -> int:
    return max(1, min(REF_UNITS_MAX, round(cpu / (4 * REF_UNIT_S))))


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


class Runner:
    """Runs commands one after another and records what each produced."""

    def __init__(self, lc, checks, expected, corrupt=None):
        self.cli = lc.cli  # main is looked up per call, so tracing sees it
        self.checks = checks
        self.expected = expected  # cid -> digest every run must reproduce
        self.corrupt = corrupt  # test hook: (cid, stdout) -> stdout
        self.failures: dict[str, str] = {}  # "kind:cid" -> first detail seen
        self.failed = {"exit": 0, "check": 0, "digest": 0}

    def run(self, cmds, tracer=None):
        """Returns per command its CPU seconds on the reference host, its
        wall seconds and its output digest; failures accumulate on self."""
        cpu, walls, digests, ctx = [], [], {}, {}
        ref = _reference(1)
        for cmd in cmds:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.cmd = cmd.cid
            rc, exc = None, None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(cmd.argv))
            except (Exception, SystemExit) as e:  # a crash is a failed command
                exc = e
            c = time.process_time() - c0
            walls.append(time.perf_counter() - t0)
            ref_after = _reference(_ref_units(c))
            cpu.append(c * REF_UNIT_S / math.sqrt(ref * ref_after))
            ref = ref_after
            stdout = out.getvalue()
            if self.corrupt is not None:
                stdout = self.corrupt(cmd.cid, stdout)
            digest = hashlib.sha256(stdout.encode())
            for path in cmd.outs:
                digest.update(b"\0" + path.encode() + b"\0")
                with contextlib.suppress(OSError):
                    digest.update(Path(path).read_bytes())
            digests[cmd.cid] = digest.hexdigest()
            if exc is not None or rc != 0:
                self._fail(cmd.cid, "exit", f"rc={rc} exc={exc!r} stderr={err.getvalue()[-200:]!r}")
                continue
            try:
                self.checks[cmd.cid](stdout, ctx)
            except Exception as e:  # malformed output fails the check too
                self._fail(cmd.cid, "check", f"{type(e).__name__}: {e}")
                continue
            want = self.expected.setdefault(cmd.cid, digests[cmd.cid])
            if want != digests[cmd.cid]:
                self._fail(cmd.cid, "digest", "output bytes differ from the reference")
        if tracer is not None:
            tracer.cmd = None
        return cpu, walls, digests

    def _fail(self, cid, kind, detail):
        self.failed[kind] += 1
        self.failures.setdefault(f"{kind}:{cid}", detail)


def _tail(lat):
    """Latency at the highest percentile with at least ten samples beyond
    it, with that percentile.  None for passes under 40 commands, where
    that percentile would sit below p75 and say nothing about the tail."""
    if len(lat) < 40:
        return None
    idx = len(lat) - 11
    return sorted(lat)[idx], 100.0 * (idx + 1) / len(lat)


def _setup(name, seed, toy):
    """One set-up, a fresh import plus writing the inputs; returns the
    package, the commands and its CPU seconds on the reference host."""
    before = _reference(1)
    lc, t_import = _import_labelcover()
    t0, u0 = time.process_time(), workloads.untimed_cpu
    cmds = WORKLOADS[name](lc, seed, toy)
    cpu = t_import + time.process_time() - t0 - (workloads.untimed_cpu - u0)
    return lc, cmds, cpu * REF_UNIT_S / math.sqrt(before * _reference(_ref_units(cpu)))


def per_layer(tracer: Tracer, cmds, untraced_wall: float, traced_wall: float) -> dict:
    fn = tracer.by_function()
    counts = tracer.counts

    def self_s(*names):
        return sum(fn[n][1] for n in names if n in fn)

    def calls(*names):
        return sum(fn[n][0] for n in names if n in fn)

    def prefixed(prefix):
        return [n for n in fn if n.startswith(prefix)]

    exact_calls = calls("smooth.smooth_exact")
    algos = ("approx.satisfy_one_neighbor", "approx.greedy_assignment",
             "approx.know_your_neighbors", "approx.know_neighbors_neighbors",
             "approx.divide_and_conquer")
    reduce_fns = ("reductions.from_planar_3col", "reductions.from_matrix_tiling",
                  "reductions.extract_coloring", "reductions.extract_tiling",
                  "reductions.validate_tiling_solution", "reductions.build_coloring_graph",
                  "reductions.build_matrix_tiling")
    values = {
        "approx.sigma_star_s": (self_s("approx.compute_sigma_star"), "s"),
        "approx.sigma_star_calls": (calls("approx.compute_sigma_star"), "count"),
        "approx.admissible_ratio": (
            counts["admissible"] / counts["anchor_slots"] if counts["anchor_slots"] else 0.0,
            "ratio"),
        "approx.algos_s": (self_s(*algos), "s"),
        "approx.best_of_self_s": (self_s("approx.best_of"), "s"),
        "core.stats_s": (self_s("core.compute_stats"), "s"),
        "core.build_game_s": (self_s("core.build_game"), "s"),
        "core.components_s": (self_s("core.connected_components"), "s"),
        "core.value_s": (self_s("core.value"), "s"),
        "core.value_calls": (calls("core.value"), "count"),
        "formats.parse_s": (self_s(*prefixed("formats.parse_")), "s"),
        "formats.emit_s": (self_s(*prefixed("formats.emit_")), "s"),
        "formats.emit_calls": (calls(*prefixed("formats.emit_")), "count"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "planar.partition_self_s": (self_s("planar.baker_partition"), "s"),
        "planar.residual_s": (self_s("planar.residual_game"), "s"),
        "planar.ptas_self_s": (self_s("planar.ptas"), "s"),
        "exact.validate_s": (self_s("exact.validate_decomposition"), "s"),
        "exact.validate_calls": (calls("exact.validate_decomposition"), "count"),
        "exact.dp_s": (self_s("exact.tree_dp_solve"), "s"),
        "exact.dp_states": (counts["dp_states"], "count"),
        "exact.td_width_max": (counts["td_width_max"], "count"),
        "exact.brute_force_s": (self_s("exact.brute_force_opt"), "s"),
        "exact.decomp_s": (
            self_s("exact.heuristic_decomposition", "exact.exact_decomposition"), "s"),
        "smooth.exact_s": (self_s("smooth.smooth_exact"), "s"),
        "smooth.enum_assignments": (
            tracer.leaf_calls_under("core.value", "smooth.smooth_exact"), "count"),
        "smooth.hit_ratio": (counts["smooth_hits"] / exact_calls if exact_calls else 0.0, "ratio"),
        "smooth.approx_s": (self_s("smooth.smooth_approx"), "s"),
        "smooth.measure_s": (self_s("smooth.measure_smoothness"), "s"),
        "reductions.reduce_s": (self_s(*reduce_fns), "s"),
        "reductions.gen_s": (self_s(*prefixed("reductions.gen_")), "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.cover_ratio": (sum(tracer.root_seconds(c.cid) for c in cmds) / traced_wall, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(args) -> int:
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "commit": _git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
    }
    try:
        lc, cmds, setup_s = _setup(args.workload, args.seed, args.toy)
    except ImportError as exc:
        print(f"cannot import labelcover from this checkout: {exc}", file=sys.stderr)
        return 2
    checks = {c.cid: c.make_check() for c in cmds}
    expected: dict[str, str] = {}
    if args.seed == DEFAULT_SEED and not args.toy and not args.write_manifest:
        manifest = json.loads(MANIFEST.read_text())
        expected = dict(manifest["workloads"][args.workload])
        if set(expected) != {c.cid for c in cmds}:
            print("manifest does not list this workload's commands", file=sys.stderr)
            return 2
    runner = Runner(lc, checks, expected)

    setup_times = [setup_s]
    passes, attempted = 0, 0
    by_cmd: dict[str, list[float]] = {c.cid: [] for c in cmds}
    by_cmd_wall: dict[str, list[float]] = {c.cid: [] for c in cmds}
    budget = args.seconds / 2 if args.trace else args.seconds
    t_start = t_pass = time.perf_counter()
    pass_s = 0.0
    # a pass starts only if it is likely to end within the budget
    while not passes or t_pass - t_start + pass_s < budget:
        if passes and len(setup_times) < SETUP_REPS:
            # Repeat set-up between passes, spread over the run.  It writes
            # the same files; commands go to the fresh import.
            lc, _, setup_s = _setup(args.workload, args.seed, args.toy)
            runner.cli = lc.cli
            setup_times.append(setup_s)
        t0 = time.perf_counter()
        cpu, walls, digests = runner.run(cmds)
        t_pass = time.perf_counter()
        pass_s = t_pass - t0
        passes += 1
        attempted += len(cpu)
        for c, t, w in zip(cmds, cpu, walls):
            by_cmd[c.cid].append(t)
            by_cmd_wall[c.cid].append(w)
    while len(setup_times) < SETUP_REPS:
        lc, _, setup_s = _setup(args.workload, args.seed, args.toy)
        runner.cli = lc.cli
        setup_times.append(setup_s)
    # A command's time is its median over the run's passes, in CPU seconds
    # on the reference host.  The commands are single-threaded,
    # deterministic and CPU bound; wall time would also count the time
    # the process waits for a core on a shared host.
    cmd_cpu = {cid: statistics.median(t) for cid, t in by_cmd.items()}
    cmd_wall = {cid: statistics.median(t) for cid, t in by_cmd_wall.items()}
    wall = sum(cmd_cpu.values())
    tail = _tail(list(cmd_cpu.values()))

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # the overhead compares wall time with the pass just before, so
        # that both sides are single passes close in time
        untraced_wall = sum(walls)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.cmd = "setup"
            WORKLOADS[args.workload](lc, args.seed, args.toy)
            _, walls, digests = runner.run(cmds, tracer)
        finally:
            tracer.remove()
        attempted += len(walls)
        metrics = per_layer(tracer, cmds, untraced_wall, sum(walls))
        tracer.write(f"{stem}.spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cmd_p50_s": {"value": statistics.median(cmd_cpu.values()), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    failed = sum(runner.failed.values())
    record.update({
        "loadavg_end": _loadavg(),
        "passes": passes, "commands_per_pass": len(cmds), "samples": passes * len(cmds),
        "setup_s_samples": setup_times,
        "fail_ratio": failed / attempted,
        "fail": runner.failed, "failures": runner.failures,
        "cmd_tail_s": tail and {
            "value": tail[0], "percentile": tail[1], "samples": passes * len(cmds)},
        "wall_clock": {"wall_s": sum(cmd_wall.values()),
                       "cmd_p50_s": statistics.median(cmd_wall.values())},
        "cmd_cpu_s": cmd_cpu,
        "cmd_samples_s": by_cmd,
        "cmd_wall_samples_s": by_cmd_wall,
        "digests": digests, "metrics": metrics,
    })
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.write_manifest:
        manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {
            "seed": DEFAULT_SEED, "workloads": {}}
        manifest["workloads"][args.workload] = digests
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")

    summary = {k: record[k] for k in ("workload", "seed", "passes", "samples", "fail_ratio",
                                      "fail", "cmd_tail_s", "wall_clock", "commit", "python", "nproc",
                                      "loadavg_start", "loadavg_end")}
    print(json.dumps(summary))
    for key in list(runner.failures)[:10]:
        print(f"FAIL {key}: {runner.failures[key]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and peak RSS are its own."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        argv += ["--toy"] * args.toy + ["--write-manifest"] * args.write_manifest
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--write-manifest", action="store_true",
                   help="record this run's output digests as the default-seed reference")
    args = p.parse_args(argv)
    if args.write_manifest and (args.seed != DEFAULT_SEED or args.toy):
        p.error(f"--write-manifest records the full-size run at seed {DEFAULT_SEED}")
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
