"""Span tracing of the package's public functions, installed from outside ``src``.

``Tracer.install`` wraps every public function of the traced modules and
patches each module attribute that refers to one, including the names other
``spacetimeq`` modules import (``pdm.apply`` is ``channels.apply``), so that
nested calls are spanned too. A span is ``(name, start_ns, end_ns, parent,
op)``; the runner opens one ``op`` span per op, so the spans of an op share
its id. Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("linalg", "channels", "pdm", "histories", "cv_wigner", "gaussian", "timecrystal", "cli")
KINDS = ("calls", "self_s", "total_s", "zero_ratio")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.zero_results: Counter = Counter()  # float results that were exactly 0.0
        self._stack: list[int] = []
        self._op = -1
        self._patched: list = []

    def install(self, package) -> None:
        """Wrap the public functions of ``TRACED_MODULES`` wherever the package refers to them."""
        modules = [m for name, m in sys.modules.items() if name.startswith(package.__name__ + ".")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            if short not in TRACED_MODULES:
                continue
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock, zeros = self.spans, self._stack, time.perf_counter_ns, self.zero_results
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op < 0:  # outside an op, e.g. in its oracle check
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer._op)
            if isinstance(result, float) and result == 0.0:
                zeros[name] += 1
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(("op", time.perf_counter_ns(), None, -1, op_id))

    def end_op(self) -> None:
        idx = self._stack.pop()
        name, start, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent, op_id)
        self._op = -1

    def layer_metrics(self, names, n_ops: int) -> dict:
        """Per-op means of calls, self time and outermost total time for ``names``.

        A name is ``<module>.<function>.<kind>`` or ``<module>.<kind>``, the
        latter summed over the module's functions; kind is one of ``KINDS``.
        Names that are not of this form are skipped.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total_ns[name] += end - start
        by_module = defaultdict(list)
        for name in calls:
            by_module[name.partition(".")[0]].append(name)

        out = {}
        for metric in names:
            target, _, kind = metric.rpartition(".")
            if kind not in KINDS:
                continue
            fns = [target] if "." in target else by_module.get(target, [])
            n_calls = sum(calls[f] for f in fns)
            if kind == "calls":
                out[metric] = n_calls / n_ops
            elif kind == "self_s":
                out[metric] = sum(self_ns[f] for f in fns) / 1e9 / n_ops
            elif kind == "total_s":
                out[metric] = sum(total_ns[f] for f in fns) / 1e9 / n_ops
            else:
                out[metric] = sum(self.zero_results[f] for f in fns) / n_calls if n_calls else 0.0
        return out

    def coverage(self) -> float:
        """Share of op wall time spent inside a traced call."""
        op_ns = sum(end - start for name, start, end, _, _ in self.spans if name == "op")
        op_idx = {i for i, span in enumerate(self.spans) if span[0] == "op"}
        inside = sum(end - start for _, start, end, parent, _ in self.spans if parent in op_idx)
        return inside / op_ns if op_ns else 0.0

    def write(self, path, meta: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**meta, "fields": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
