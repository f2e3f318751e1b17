"""Span recorder for the traced run, kept outside the package.

install() wraps every public function and public method that the layer
modules define, at every module binding through which another layer calls
it (susy.hyp1f1 and specfun.hyp1f1 are the same function reached through two
names; both are replaced). Each call records one span: name, start, end,
parent span and the op it belongs to. Spans stay in memory; self time and
per-name totals are computed after the run.

Layers are discovered, not listed function by function, so a function that
a later change renames or deletes simply stops producing spans; metrics
that ask for it report it as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("specfun", "gridops", "susy", "painleve", "ladder", "coherent",
          "serialize", "cli")

# Calls whose arguments identify the object they build; the waste counts
# (builds per distinct key) need the key of every call.
KEYED = ("susy.build_system", "coherent.measure_fn")


class SpanRecorder:
    """Records spans while installed; install() and uninstall() pair up."""

    def __init__(self, package: str = "susyosc"):
        self.package = package
        self.spans = []          # [name, start, end, parent, op]
        self.keys = []           # (span index, key) for KEYED calls
        self.op = -1
        self.missing_layers = []
        self.wrapped = set()     # span names wrapped by the last install()
        self._stack = []
        self._restore = []       # (owner, attribute, original)

    # -- installation --------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, function) for every public callable."""
        found = []
        for layer in LAYERS:
            modname = "%s.%s" % (self.package, layer)
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing_layers.append(layer)
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    found.append(("%s.%s" % (layer, name), None, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            found.append(("%s.%s.%s" % (layer, name, meth), obj, meth, fn))
        return found

    def install(self):
        if self._restore:
            raise RuntimeError("span recorder is already installed")
        self.missing_layers, self.wrapped = [], set()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for span_name, owner, attr, fn in self._targets():
            wrapper = self._wrap(span_name, fn)
            self.wrapped.add(span_name)
            if owner is not None:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, binding, fn))
                        setattr(mod, binding, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, span_name: str, fn):
        spans, stack, keys = self.spans, self._stack, self.keys
        clock = time.perf_counter
        signature = inspect.signature(fn) if span_name in KEYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.append((idx, repr(dict(bound.arguments))))
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(s[2] - s[1]) - _covered(children.get(i, ()), s[1], s[2])
            for i, s in enumerate(spans)]


def aggregate(spans) -> dict:
    """name -> {"calls", "self_s", "total_s"} over every recorded span."""
    table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span[2] - span[1]
    return dict(table)


def builds_per_key(spans, keys, name: str, scope_of=lambda op: 0) -> float:
    """Calls of `name` divided by the distinct keys it was called with.

    Keys are counted per scope: an in-process cache could only serve calls
    in the same process, so the cli workload counts them per op (one process
    each) and the in-process workloads over the whole run. 0.0 when `name`
    was never called.
    """
    seen = set()
    calls = 0
    for idx, key in keys:
        span = spans[idx]
        if span[0] == name:
            calls += 1
            seen.add((scope_of(span[4]), key))
    return calls / len(seen) if seen else 0.0


def write_spans(recorder: SpanRecorder, path: str):
    """Raw spans as JSON: a name table plus [name, start, end, parent, op] rows."""
    names = sorted({span[0] for span in recorder.spans})
    index = {name: i for i, name in enumerate(names)}
    rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in recorder.spans]
    with open(path, "w") as fh:
        json.dump({"names": names, "columns": ["name", "start", "end", "parent", "op"],
                   "spans": rows}, fh)
