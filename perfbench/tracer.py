"""Per-layer tracing from the benchmark's side of the API.

`Tracer.install` replaces every public energylab function by a timing wrapper in
each energylab module that holds a reference to it (the defining module and
every module that bound it with `from .x import y`), and wraps the public
methods of the package's classes on the class itself.  Private helpers are not
wrapped, so their time lands in the self time of their public caller.

A span is one wrapped call: its id, the id of the span that caused it, the
item it belongs to, the function and its start and end.  Self time is the
span's duration minus the durations of its child spans.  Spans stay in memory
(up to `span_cap`; later ones are only aggregated) and `dump` writes them at
the end of a run.  Nothing under src/ changes: uninstall restores every
original attribute.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from functools import cached_property

import numpy as np

MODULES = ("group", "setfun", "energy", "gowers", "structure", "constructors",
           "verify", "cli")

# Sub-layers named in the benchmark's per-layer metrics.  A function of a
# module that is not listed falls into "<module>.other", except in the energy,
# constructors and cli layers, which are not split.
_SPLITS = {
    "group": {
        "transform": {"fourier_array", "inverse_fourier_array", "fourier", "inverse_fourier",
                      "complex_correlate", "parseval_residual"},
        "index": {f"GroupSpec.{name}" for name in ("add_indices", "sub_indices", "shift_perm",
                                                   "decode", "encode", "add", "sub", "neg",
                                                   "check_index")},
    },
    "setfun": {
        "slice_tuples": {"count_nonempty_slice_tuples", "tuple_sumset_sum",
                         "delta_sumset_size", "delta_pairs_direct"},
        "correlate": {"set_correlate", "set_convolve", "correlate", "convolve"},
        "sumset": {"sumset", "difference_set"},
        "set_algebra": {"GSet.slice1", "GSet.translate", "GSet.shift_minus", "GSet.intersect",
                        "GSet.int_mask", "GSet.from_int_mask", "GSet.negate", "GSet.union",
                        "GSet.difference"},
    },
    "gowers": {
        "pair_u3": {"gowers_pair_u3"},
        "u": {"gowers_u", "gowers_normalized", "gowers_normalized_monotonicity"},
    },
    "structure": {
        "scan": {"connectedness_gamma", "gowers_connectedness_gamma", "extract_connected_subset",
                 "small_doubling_subset_oracle", "min_slice_energy_ratio",
                 "extraction_step_cap", "connected_extraction_gamma_floor"},
    },
    "verify": {
        "identity": {"run_identity_suite"},
        "inequality": {"run_inequality_suite"},
        "ratio": {"run_ratio_report"},
        "algorithms": {"run_algorithm_audits"},
    },
}
_DEFAULT_SUB = {"structure": "greedy"}

# Subset scans enumerate every subset of their first argument.
_EXHAUSTIVE = {"connectedness_gamma", "gowers_connectedness_gamma", "extract_connected_subset",
               "small_doubling_subset_oracle"}


def layer_of(module: str, qualname: str) -> str:
    """Metric group of a public function, e.g. ('setfun', 'sumset') -> 'setfun.sumset'."""
    for sub, names in _SPLITS.get(module, {}).items():
        if qualname in names:
            return f"{module}.{sub}"
    if module in _SPLITS:
        return f"{module}.{_DEFAULT_SUB.get(module, 'other')}"
    return module


def _support(x) -> int:
    """Support size of a set (its cardinality) or of a function's value array."""
    card = getattr(x, "card", None)
    if card is not None:
        return card
    values = getattr(x, "values", x)
    return int(np.count_nonzero(np.asarray(values)))


def _pair_count(args, kwargs) -> int:
    f, g = [*args, *kwargs.values()][:2]
    return _support(f) * _support(g)


def _mask_count(args, kwargs) -> int:
    return 1 << [*args, *kwargs.values()][0].card


class Stat:
    """Aggregate of one function's spans."""

    __slots__ = ("calls", "self_s", "incl_s", "work", "budget_errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.work = 0
        self.budget_errors = 0


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.active = False
        self.item = -1
        self.wall_s = 0.0          # wall time of the traced regions
        self.top_s = 0.0           # inclusive time of spans with no parent
        self.stats: dict[str, Stat] = {}
        self.layers: dict[str, str] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []
        self._budget_error: type | tuple = ()   # set by install

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        from energylab.setfun import BudgetError

        self._budget_error = BudgetError
        pkg = importlib.import_module("energylab")
        mods = {name: importlib.import_module(f"energylab.{name}") for name in MODULES}
        classes = {obj for mod in mods.values() for name, obj in vars(mod).items()
                   if not name.startswith("_") and inspect.isclass(obj)
                   and obj.__module__.startswith("energylab.")}
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            self._wrap_class(cls)
        wrappers: dict[int, object] = {}
        for mod in [pkg, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("energylab."):
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    w = wrappers[id(obj)] = self._wrap(obj, obj.__module__.split(".")[1],
                                                       obj.__name__)
                self._patched.append((mod, name, obj))
                setattr(mod, name, w)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap_class(self, cls) -> None:
        module = cls.__module__.split(".")[1]
        if issubclass(cls, BaseException):
            return
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") or isinstance(attr, (property, cached_property)):
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(attr.__func__, module, qual))
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(attr.__func__, module, qual))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(attr, module, qual)
            else:
                continue
            self._patched.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def _wrap(self, fn, module: str, qual: str):
        key = f"{module}.{qual}"
        stat = self.stats.setdefault(key, Stat())
        self.layers[key] = layer_of(module, qual)
        if qual in _EXHAUSTIVE:
            work = _mask_count
        elif self.layers[key] == "setfun.correlate":
            work = _pair_count
        else:
            work = None
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if work is not None:
                stat.work += work(args, kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except tracer._budget_error as err:
                if not getattr(err, "_perfbench_counted", False):
                    err._perfbench_counted = True
                    stat.budget_errors += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.incl_s += dur
                stat.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_s += dur
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((sid, parent, tracer.item, key, t0, t1))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------------

    def group_totals(self) -> dict[str, Stat]:
        out: dict[str, Stat] = {}
        for key, st in self.stats.items():
            agg = out.setdefault(self.layers[key], Stat())
            agg.calls += st.calls
            agg.self_s += st.self_s
            agg.incl_s += st.incl_s
            agg.work += st.work
            agg.budget_errors += st.budget_errors
        return out

    def dump(self, path) -> None:
        names = sorted(self.stats)
        index = {k: i for i, k in enumerate(names)}
        payload = {
            "functions": [{"name": k, "layer": self.layers[k], "calls": self.stats[k].calls,
                           "self_s": self.stats[k].self_s, "incl_s": self.stats[k].incl_s}
                          for k in names],
            "wall_s": self.wall_s,
            "spans_dropped": self.dropped,
            "span_fields": ["id", "parent", "item", "function", "start", "end"],
            "spans": [(sid, parent, item, index[key], t0, t1)
                      for sid, parent, item, key, t0, t1 in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
