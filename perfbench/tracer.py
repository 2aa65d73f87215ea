"""Spans around every public labelcover function, recorded from outside.

Tracer.install() replaces each module-global binding of a public
function in every loaded ``labelcover.*`` module with a timing wrapper,
so calls from the CLI and calls between modules (``best_of`` into
``compute_sigma_star``, ``ptas`` into ``tree_dp_solve``, ``smooth_exact``
into ``value``) are all seen.  Private helpers are not wrapped: their time
is self time of the public function that called them.

Spans stay in memory as tuples.  Calls to the hot leaf functions in
LEAVES are not kept one by one but summed per enclosing span, so memory
grows with the number of non-leaf calls only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

LEAVES = frozenset({"core.value", "core.check_assignment"})


def _sigma_star(counts, args, result):
    game = args[0]
    counts["admissible"] += sum(len(s) for s in result.sigma_star)
    counts["anchor_slots"] += game.a_count * game.sigma_a


def _tree_dp(counts, args, result):
    game, td = args[0], args[1]
    for bag in td.bags:
        states = 1
        for v in bag:
            states *= game.sigma_a if v < game.a_count else game.sigma_b
        counts["dp_states"] += states
    counts["td_width_max"] = max(counts["td_width_max"], td.width)


def _smooth_exact(counts, args, result):
    counts["smooth_hits"] += result is not None


# Counters read off arguments and return values, outside the timed span.
OBSERVERS = {
    "approx.compute_sigma_star": _sigma_star,
    "exact.tree_dp_solve": _tree_dp,
    "smooth.smooth_exact": _smooth_exact,
}


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id, command id, self seconds)
        self.spans: list[tuple | None] = []
        # (enclosing span id, leaf name) -> [calls, total seconds, self seconds]
        self.leaves: dict[tuple, list] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.cmd: str | None = None
        # frames: [seconds spent in children, nearest span id]
        self.stack: list[list] = [[0.0, None]]
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        spans, leaves, stack, clock = self.spans, self.leaves, self.stack, time.perf_counter
        if name in LEAVES:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    parent[0] += dt
                    agg = leaves.get((parent[1], name))
                    if agg is None:
                        agg = leaves[(parent[1], name)] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[0]
            return leaf

        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                spans[sid] = (sid, name, t0, t1, parent[1], tracer.cmd, t1 - t0 - frame[0])
            if observe is not None:
                observe(tracer.counts, args, result)
            return result
        return span

    def install(self) -> None:
        """Wrap every public function bound in a loaded labelcover module."""
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "labelcover" and not modname.startswith("labelcover."):
                continue
            for attr, val in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(val, types.FunctionType)
                    or not val.__module__.startswith("labelcover.")
                ):
                    continue
                if val not in wrappers:
                    name = f"{val.__module__.rsplit('.', 1)[1]}.{val.__name__}"
                    wrappers[val] = self._wrap(val, name)
                setattr(mod, attr, wrappers[val])
                self._saved.append((mod, attr, val))

    def remove(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def by_function(self) -> dict[str, list]:
        """name -> [calls, self seconds], spans and leaf sums together."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, name, t0, t1, parent, cmd, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        for (_, name), (calls, _, self_s) in self.leaves.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def leaf_calls_under(self, leaf: str, parent_name: str) -> int:
        names = {s[0]: s[1] for s in self.spans}
        return sum(
            agg[0]
            for (sid, name), agg in self.leaves.items()
            if name == leaf and names.get(sid) == parent_name
        )

    def root_seconds(self, cmd: str) -> float:
        """Inclusive time of the spans a command opened at top level; it
        equals the sum of the self times of everything beneath them."""
        return sum(s[3] - s[2] for s in self.spans if s[5] == cmd and s[4] is None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, cmd, self_s in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "cmd": cmd, "self_s": self_s,
                }) + "\n")
            for (sid, name), (calls, total, self_s) in self.leaves.items():
                fh.write(json.dumps({
                    "leaf": name, "parent": sid, "calls": calls,
                    "total_s": total, "self_s": self_s,
                }) + "\n")
