"""Self-test of the benchmark itself, at toy sizes (about ten seconds).

    python3 perfbench/selftest.py

1. Every workload passes every check, traced and untraced, and prints
   exactly the metrics BENCHMARK.json names.
2. A flipped label in one output of each workload fails the independent
   check, and a reformatted but equivalent output fails the digest gate.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import evaluate as ev  # noqa: E402
import run  # noqa: E402
from workloads import WORK, WORKLOADS  # noqa: E402

SEED = 5


def _run(argv, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_clean_runs(spec) -> None:
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace), "--toy"], ROOT)
            assert proc.returncode == 0, (name, trace, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (name, trace, proc.stdout)
            want = {m["name"] for m in spec[key]}
            assert set(result["metrics"]) == want, (name, trace, set(result["metrics"]) ^ want)
        print(f"ok   {name}: toy run passes every check, traced and untraced")


def _flip_label(stdout: str) -> str:
    """Change one A label so that the recounted value changes."""
    payload = json.loads(stdout)
    game = ev.Game(Path(payload["instance"]).read_text())
    labels = payload["assignment"]["a_labels"]
    before = game.recount(labels, payload["assignment"]["b_labels"])
    for i in range(len(labels)):
        for s in range(game.ka):
            old, labels[i] = labels[i], s
            if game.recount(labels, payload["assignment"]["b_labels"]) != before:
                return json.dumps(payload)
            labels[i] = old
    raise AssertionError("no single label flip changes this output's value")


def _reformat(stdout: str) -> str:
    return json.dumps(json.loads(stdout), indent=1) + "\n"


def check_corruption_caught() -> None:
    lc, _ = run._import_labelcover()
    for name, build in WORKLOADS.items():
        cmds = build(lc, SEED, True)
        checks = {c.cid: c.make_check() for c in cmds}
        expected: dict[str, str] = {}
        outputs: dict[str, str] = {}
        clean = run.Runner(lc, checks, expected,
                         corrupt=lambda cid, out: outputs.setdefault(cid, out))
        clean.run(cmds)
        assert clean.failures == {}, (name, clean.failures)
        target = next(cid for cid, out in outputs.items() if '"assignment"' in out)
        for how, corrupt, kind in (("flipped label", _flip_label, "check"),
                                   ("reformatted output", _reformat, "digest")):
            bad = run.Runner(lc, checks, dict(expected),
                           corrupt=lambda cid, out: corrupt(out) if cid == target else out)
            bad.run(cmds)
            assert list(bad.failures) == [f"{kind}:{target}"], (name, how, bad.failures)
            print(f"ok   {name}: {how} in {target} counts as fail.{kind}")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = _run(["--workload", "approx", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    last = proc.stdout.splitlines()[-1] if proc.stdout.strip() else ""
    assert proc.returncode != 0 and '"correct"' not in last, (proc.returncode, proc.stdout)
    print(f"ok   bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    check_clean_runs(spec)
    check_corruption_caught()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
