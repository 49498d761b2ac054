"""Outside-in tracer for mmreg's layer modules.

`Tracer.install()` replaces every public function of the layer modules with a
timing wrapper, at every mmreg namespace that binds it: `graphreg.solve`,
`learn.solve` and `mmreg.solve` each get their own wrapper around the same
function, so a span knows both the function it times and the binding it was
called through. Spans stay in memory until `summary()` folds them into
per-function totals at the end of the run.

A span's self time is its duration minus the durations of the spans it
caused. Parents are tracked per thread, so spans started on a worker thread
of `evaluation.run_benchmark` are roots of their own.
"""

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = ("volume", "metrics", "graphreg", "learn", "evaluation", "cli")
PACKAGE = "mmreg"


def _train_class_counts(bound, result):
    rows = result.manifest_rows
    return {
        "cccp_iters": len(rows),
        "constraints_added": sum(sum(r["working_set_sizes"]) for r in rows),
    }


# function name -> callable(bound arguments, result) -> {counter: number}
COUNTERS = {
    "volume.ffd_evaluate": lambda b, r: {"points": len(b["points_mm"])},
    "metrics.feature_table": lambda b, r: {
        "pairs": b["grid"].n_nodes * b["label_space"].n_labels},
    "graphreg.solve": lambda b, r: {"node_labels": b["instance"].unaries.size},
    "learn.train_class": _train_class_counts,
    "volume.read_volume": lambda b, r: {"bytes": r.data.nbytes},
    "volume.read_mask": lambda b, r: {"bytes": r.labels.nbytes},
    "volume.read_field": lambda b, r: {"bytes": r.dense.nbytes},
    "volume.write_volume": lambda b, r: {"bytes": b["vol"].data.nbytes},
    "volume.write_mask": lambda b, r: {"bytes": b["mask"].labels.nbytes},
    "volume.write_field": lambda b, r: {"bytes": b["fld"].dense.nbytes},
}


class Tracer:
    def __init__(self):
        self.spans = []            # (span id, parent id, name, site, start, end)
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []         # (namespace, attribute, original)

    def install(self):
        """Wrap the layer modules' public functions wherever mmreg binds them."""
        importlib.import_module(f"{PACKAGE}.cli")
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        names = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    names[obj] = f"{layer}.{attr}"
        for ns in namespaces:
            site_prefix = ns.__name__.removeprefix(PACKAGE).lstrip(".") or PACKAGE
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in names:
                    name = names[obj]
                    wrapper = self._wrap(obj, name, f"{site_prefix}.{attr}")
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, site):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, site, start, end))
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    for key, value in counter(bound.arguments, result).items():
                        self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def summary(self):
        """Per function: calls, inclusive and self seconds; per binding site:
        calls and inclusive seconds; plus the accumulated counters."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        funcs = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        sites = defaultdict(lambda: {"calls": 0, "total_s": 0.0})
        for span_id, _, name, site, start, end in self.spans:
            dur = end - start
            f = funcs[name]
            f["calls"] += 1
            f["total_s"] += dur
            f["self_s"] += dur - child_time[span_id]
            s = sites[site]
            s["calls"] += 1
            s["total_s"] += dur
        return {"functions": dict(funcs), "sites": dict(sites), "counts": dict(self.counts)}
