"""Span tracing of wordbound's layers from outside the program.

``Tracer.install`` wraps functions of the wordbound modules and replaces
every module attribute that refers to them, so names another module
imported by value (``experiments.ball``, ``girth.ball``, ``cli.girth_op``,
...) are traced too; ``uninstall`` puts the originals back.

Three depths are used on separate passes, so that tracing the group law
(millions of calls) does not inflate the times of the layers above it, and
tracing ``contains`` does not inflate the ``mul`` that calls it:

* ``coarse``   -- every public function of groups, gensets, metric, girth,
  experiments, reports and cli, the BFS and bidirectional kernels behind
  ``word_length``, and each ``DEFAULT_RUNS`` entry.  Every span is kept.
* ``mul``      -- ``mul`` of every group class, plus the three search
  kernels so that multiplications can be attributed to them.
* ``contains`` -- ``contains`` of every group class.

Group-law spans are aggregated per name, since a pass makes millions.  Per
name the tracer keeps calls, inclusive time (for layer functions the
outermost calls only, so recursion is not counted twice; for the group law
every call), self time (inclusive minus the time child spans cover) and a
measure: nodes stored by a search, or the time of outermost ``contains``
calls (a product's ``contains`` calls its factors').
"""

from __future__ import annotations

import inspect
import sys
import time

from wordbound import experiments, groups, metric

MODULES = ("groups", "gensets", "metric", "girth", "experiments", "reports", "cli")
SEARCHES = {"metric.ball", "metric._length_bfs", "metric._length_bidirectional"}
KERNELS = ("_length_bfs", "_length_bidirectional")


def _nodes(key, result):
    """New nodes a search stored: its visited set minus the start points."""
    if key == "metric.ball":
        return len(result.table) - 1
    if key == "metric._length_bfs":
        return result.explored - 1
    return result.explored - 2


class Tracer:
    def __init__(self, depth):
        self.depth = depth
        self.keep = depth == "coarse"
        self.stack = []  # frames: [child ns, key, span id]
        self.stats = {}  # key -> [calls, inclusive ns, self ns, measure]
        self.active = {}
        self.spans = []  # (key, start ns, end ns, parent span id)
        self.search_muls = 0
        self._patches = []

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0, 0, 0])
        stack, active, spans, keep = self.stack, self.active, self.spans, self.keep
        active.setdefault(key, 0)
        clock = time.perf_counter_ns
        search = key in SEARCHES

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            if keep:
                spans.append(None)
            frame = [0, key, sid]
            stack.append(frame)
            active[key] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                active[key] -= 1
                if parent is not None:
                    parent[0] += d
                stat[0] += 1
                if not active[key]:
                    stat[1] += d
                stat[2] += d - frame[0]
                if keep:
                    spans[sid] = (key, t0, t0 + d, parent[2] if parent is not None else None)
            if search:
                stat[3] += _nodes(key, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_law(self, key, fn, kind):
        """Lean wrapper for the group law: aggregated, no span list."""
        stat = self.stats.setdefault(key, [0, 0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self
        is_mul = kind == "mul"

        def traced(*args):
            parent = stack[-1] if stack else None
            if is_mul and parent is not None and parent[1] in SEARCHES:
                tracer.search_muls += 1
            frame = [0, kind]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                d = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[0] += d
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                if parent is None or parent[1] != kind:
                    stat[3] += d

        traced.__wrapped__ = fn
        return traced

    def _patch(self, obj, name, value):
        if isinstance(obj, dict):
            self._patches.append((obj, name, obj[name]))
            obj[name] = value
        else:
            self._patches.append((obj, name, obj.__dict__[name]))
            setattr(obj, name, value)

    def install(self):
        mods = {m: sys.modules.get("wordbound." + m) for m in MODULES}
        mods = {m: mod for m, mod in mods.items() if mod is not None}
        wrapped = {}  # id(original) -> wrapper
        if self.depth == "coarse":
            for m, mod in mods.items():
                for name, fn in list(vars(mod).items()):
                    if (
                        inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__
                        and (not name.startswith("_") or (m == "metric" and name in KERNELS))
                        and not inspect.isgeneratorfunction(fn)
                    ):
                        wrapped[id(fn)] = self._wrap(f"{m}.{name}", fn)
            for name, fn in list(experiments.DEFAULT_RUNS.items()):
                self._patch(experiments.DEFAULT_RUNS, name, self._wrap(f"experiments.run.{name}", fn))
        else:
            op = self.depth
            if op == "mul":
                for name in ("ball",) + KERNELS:
                    fn = vars(metric)[name]
                    wrapped[id(fn)] = self._wrap(f"metric.{name}", fn)
            for cls in vars(groups).values():
                if inspect.isclass(cls) and issubclass(cls, groups.Group) and op in vars(cls):
                    key = f"groups.{op}.{cls.family}"
                    self._patch(cls, op, self._wrap_law(key, vars(cls)[op], op))
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(mod, name, wrapped[id(value)])
        return self

    def uninstall(self):
        for obj, name, value in reversed(self._patches):
            if isinstance(obj, dict):
                obj[name] = value
            else:
                setattr(obj, name, value)
        self._patches.clear()

    def calls(self, key):
        return self.stats.get(key, [0])[0]

    def seconds(self, key, field=1):
        return self.stats.get(key, [0, 0, 0, 0])[field] / 1e9

    def measure(self, key):
        return self.stats.get(key, [0, 0, 0, 0])[3]
