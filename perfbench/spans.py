"""Spans around tricert's public functions, installed from outside the program.

Every function in the `__all__` of the traced modules, except the per-point
primitives in UNTRACED, is replaced by a wrapper in every tricert module that
refers to it, so `tricert.cli.adaptive_scan` and `tricert.verify.krawczyk_cycle`
are traced as well as the definitions.  So are the `evaluate` and
`initial_seed` methods of the claim classes.  A
span is (name, start_ns, end_ns, parent index); spans stay in memory until
`write`.  Self time is a span's duration minus that of its direct children.
`intervals` is not traced: its operations are timed by micro units instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

TRACED_MODULES = ("dynamics", "verify", "scan", "render", "cli")
# per-point primitives: their cost is timed by micro units, and wrapping
# them would move their time out of their callers' self time
UNTRACED = {"dynamics.eval_f", "dynamics.eval_f2", "dynamics.float_f"}
CLAIM_METHODS = ("evaluate", "initial_seed")


def _status_is(result, name: str) -> bool:
    return result.status.name == name


# per traced function: counters derived from its return value
OUTCOMES = {
    "dynamics.krawczyk_cycle": lambda r: {"certified": r[0].name == "CERTIFIED"},
    "dynamics.interval_newton_fixed": lambda r: {"certified": _status_is(r, "CERTIFIED")},
    "verify.parabolic_excluded": lambda r: {"true": _status_is(r[0], "TRUE")},
    "verify.multiplier_im_excludes_zero": lambda r: {"true": _status_is(r[0], "TRUE")},
    "verify.boundary_disjoint": lambda r: {"segments": r.effort},
    "verify.count_fixed_points": lambda r: {"segments": r[0].segments if r[0] else 0},
    "scan.adaptive_scan": lambda r: {
        "leaves": len(r.leaves),
        "u_leaves": sum(_status_is(leaf, "UNDETERMINED") for leaf in r.leaves),
    },
    "scan.serialize": lambda r: {"bytes": len(r)},
    "render.write_ppm": lambda r: {"bytes": len(r)},
}


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        outcome = OUTCOMES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if outcome is not None:
                for key, value in outcome(result).items():
                    counters[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> set[str]:
        """Wrap the public functions; returns the traced names."""
        modules = {short: importlib.import_module(f"tricert.{short}")
                   for short in TRACED_MODULES}
        loaded = [m for key, m in sys.modules.items()
                  if key == "tricert" or key.startswith("tricert.")]
        names = set()
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                name = f"{short}.{attr}"
                if not inspect.isfunction(fn) or name in UNTRACED:
                    continue
                wrapper = self.wrap(name, fn)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                names.add(name)
            for cls in list(vars(module).values()):
                if not (inspect.isclass(cls) and cls.__module__ == module.__name__
                        and "evaluate" in vars(cls)):
                    continue
                for method in CLAIM_METHODS:
                    fn = vars(cls).get(method)
                    if inspect.isfunction(fn):
                        name = f"{short}.{cls.__name__}.{method}"
                        setattr(cls, method, self.wrap(name, fn))
                        names.add(name)
        return names

    def totals(self, first: int = 0) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name, over the spans from `first`."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for index in range(first, len(self.spans)):
            name, start, end, _parent = self.spans[index]
            calls[name] += 1
            self_s[name] += (end - start - child_ns[index]) / 1e9
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
