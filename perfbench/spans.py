"""Span tracer that times netcontract's layers from outside the package.

`install` wraps every public function of the package (the names
`netcontract` exports, plus `cli.dispatch`) at every module namespace that
binds it, so nested calls such as `stabilization.balance` or
`metzler.perron_pair` open spans too.  A span is named `<module>.<function>`;
its self time is its duration minus the time of its child spans.  Spans are
aggregated in memory by (parent, name) and `uninstall` restores the
original functions.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self._patches: list[tuple] = []
        self.edges: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> [calls, total_s, self_s]
        self.counts: dict = defaultdict(int)  # exact work counts besides calls

    def reset(self) -> None:
        self.edges.clear()
        self.counts.clear()

    def wrap(self, name, fn, on_args=None, on_result=None):
        """Return `fn` wrapped in a span; hooks run outside the timed interval."""
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_args is not None:
                args = on_args(args)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - frame[1]
                stack.pop()
                parent = None
                if stack:
                    parent = stack[-1][0]
                    stack[-1][2] += total
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += total
                edge[2] += total - frame[2]
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name):
        """Work counters read from the arguments or results of some layers."""
        counts = self.counts
        if name == "balancing.balance":
            def sweeps(args, res):
                counts["balancing.sweeps"] += res.iterations
            return None, sweeps
        if name == "hierarchy.jacobian_sup_estimate":
            def points(args, res):
                counts["hierarchy.sample_points"] += res.sample_count
            return None, points
        if name == "matrixio.read_matrix":
            def size(args, res):
                counts["matrixio.read_matrix.bytes"] += os.path.getsize(args[0])
            return None, size
        if name == "integrate.rk4":
            def field(args):
                # The right-hand side fhn.simulate builds is the network field.
                if getattr(args[0], "__module__", None) == "netcontract.fhn":
                    return (self.wrap("fhn.field", args[0]),) + tuple(args[1:])
                return args

            def steps(args, res):
                counts["integrate.rk4.steps"] += len(res[0]) - 1
            return field, steps
        return None, None

    def install(self, package) -> None:
        from netcontract import cli

        targets = {fn: f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                   for attr, fn in vars(package).items()
                   if inspect.isfunction(fn) and not attr.startswith("_")}
        targets[cli.dispatch] = "cli.dispatch"
        wrappers = {fn: self.wrap(name, fn, *self._hooks(name))
                    for fn, name in targets.items()}
        prefix = package.__name__ + "."
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != package.__name__ and not modname.startswith(prefix):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._patches.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def snapshot(self) -> tuple[dict, dict, dict]:
        """Per-span self seconds, exact counts (calls and work), call tree."""
        self_s: dict = defaultdict(float)
        counts: dict = dict(self.counts)
        tree = {}
        for (parent, name), (calls, total, own) in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            self_s[name] += own
            counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + calls
            tree[f"{parent or '-'} > {name}"] = {"calls": calls, "total_s": total,
                                                 "self_s": own}
        return dict(self_s), counts, tree
