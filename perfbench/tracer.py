"""A tracer that wraps the public functions of every admpoisson module.

Calls into the `scalars` and `tensors` primitives are counters with
accumulated time (a span per scalar operation would swamp memory); calls
into the other modules are spans (id, parent id, layer, name, start, end,
time spent in directly nested counters), kept in memory and written out when
the run ends.  A layer's self time is its spans' durations minus what their
child spans and counters cover, plus its counters' own self time.
"""

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "fileformat", "scalars", "tensors", "algebras",
          "representations", "matched", "bialgebras", "yangbaxter",
          "ooperators", "search")
COUNTER_LAYERS = ("scalars", "tensors")
ARITH = ("Scalar.__add__", "Scalar.__sub__", "Scalar.__mul__",
         "Scalar.__truediv__", "Scalar.__neg__")
_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__truediv__",
            "__neg__", "__eq__", "__bool__", "__hash__", "__str__")
# exact checkers a search runs on each candidate
EXACT_CHECKS = ("algebras.check_adm_poisson", "algebras.check_poisson",
                "ooperators.check_o_operator", "ooperators.check_pre_adm_poisson",
                "yangbaxter.ybe_operator")


class Tracer:
    def __init__(self):
        self.stack = []              # frames: [child_s, counted_s, span_id]
        self.spans = []              # (id, parent, layer, name, t0, t1, counted_s)
        self.calls = Counter()       # "layer.name" -> calls
        self.counter_self = defaultdict(float)   # layer -> self seconds
        self.stats = Counter()       # observer totals

    # ------------------------------------------------------------ wrapping

    def counter(self, layer, name, fn):
        stack, calls, selfs = self.stack, self.calls, self.counter_self
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            frame = [0.0, 0.0, None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                el = perf_counter() - t0
                stack.pop()
                calls[key] += 1
                selfs[layer] += el - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += el
                    parent[1] += el
        return counted

    def _enter(self):
        sid = len(self.spans)
        self.spans.append(None)      # reserve the id; filled on exit
        parent = self.stack[-1][2] if self.stack else None
        frame = [0.0, 0.0, sid]
        self.stack.append(frame)
        return sid, parent, frame, perf_counter()

    def _exit(self, layer, name, sid, parent, frame, t0):
        t1 = perf_counter()
        self.stack.pop()
        self.calls[f"{layer}.{name}"] += 1
        self.spans[sid] = (sid, parent, layer, name, t0, t1, frame[1])
        if self.stack:
            self.stack[-1][0] += t1 - t0

    def span(self, layer, name, fn, observe=None):
        if inspect.isgeneratorfunction(fn):
            return self._span_gen(layer, name, fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            state = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, name, *state)
            if observe is not None:
                observe(self.stats, args, result)
            return result
        return spanned

    def _span_gen(self, layer, name, fn):
        """Each resumption of the generator is one span."""
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    state = self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(layer, name, *state)
                    yield item
            finally:
                it.close()
        return spanned

    # ------------------------------------------------------------ results

    def as_dict(self):
        return {"spans": [s for s in self.spans if s is not None],
                "calls": dict(self.calls), "counter_self": dict(self.counter_self),
                "stats": dict(self.stats)}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh)


def self_times(spans):
    """Per-layer self time of a span list: each span's duration minus the
    union of its children's intervals and minus its directly nested counter
    time.  Spans are (id, parent, layer, name, t0, t1, counted_s)."""
    children = defaultdict(list)
    for sid, parent, _layer, _name, t0, t1, _c in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = defaultdict(float)
    for sid, _parent, layer, _name, t0, t1, counted in spans:
        covered, end = 0.0, t0
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out[layer] += (t1 - t0) - covered - counted
    return out


def summarize(traces):
    """Per-layer metrics from one or more dumped traces (dicts)."""
    calls, selfs, stats = Counter(), defaultdict(float), Counter()
    catalog_s, exact = 0.0, 0
    for tr in traces:
        spans = [tuple(s) for s in tr["spans"]]
        calls.update(tr["calls"])
        stats.update(tr["stats"])
        for layer, s in tr["counter_self"].items():
            selfs[layer] += s
        for layer, s in self_times(spans).items():
            selfs[layer] += s
        by_id = {s[0]: s for s in spans}
        for sid, parent, layer, name, t0, t1, _c in spans:
            key = f"{layer}.{name}"
            if key == "search.adm_catalog_indices" and (
                    parent is None or by_id[parent][3] != "adm_catalog_indices"):
                catalog_s += t1 - t0
            if key in EXACT_CHECKS and parent is not None and by_id[parent][2] == "search":
                exact += 1
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    m["scalars.validations"] = calls.get("scalars.check_characteristic", 0)
    m["scalars.arith_ops"] = sum(calls.get(f"scalars.{k}", 0) for k in ARITH)
    m["algebras.sweep_fraction"] = (stats["adm_triples_evaluated"] / stats["adm_triples_total"]
                                    if stats["adm_triples_total"] else 0.0)
    m["fileformat.bytes_in"] = stats["bytes_in"]
    m["fileformat.bytes_out"] = stats["bytes_out"]
    m["search.catalog_s"] = catalog_s
    m["search.exact_checks"] = exact
    m["search.candidates"] = exact + stats["vectorized_rows"]
    return m


# ---------------------------------------------------------------- install

def _observe_adm(stats, args, report):
    n = args[0].n
    stats["adm_triples_total"] += n ** 3
    if report.holds:
        stats["adm_triples_evaluated"] += n ** 3
    else:
        i, j, k = report.witness[1]
        stats["adm_triples_evaluated"] += (i * n + j) * n + k + 1


def _observe_parse(stats, args, result):
    stats["bytes_in"] += len(args[0].encode("utf-8"))


def _observe_print(stats, args, result):
    stats["bytes_out"] += len(result.encode("utf-8"))


def _observe_mask(stats, args, result):
    stats["vectorized_rows"] += len(result)


OBSERVERS = {
    "algebras.check_adm_poisson": _observe_adm,
    "fileformat.parse_file": _observe_parse,
    "fileformat.print_file": _observe_print,
    "search.adm_mask_dim2_gf5": _observe_mask,
}


def install(tracer):
    """Wrap every public function and method of the admpoisson modules and
    rebind the names other modules imported with `from .x import f`."""
    mods = {layer: importlib.import_module(f"admpoisson.{layer}") for layer in LAYERS}
    wrapped = {}                 # id(original) -> wrapper

    def wrap(layer, name, fn):
        if id(fn) not in wrapped:
            if layer in COUNTER_LAYERS:
                wrapped[id(fn)] = tracer.counter(layer, name, fn)
            else:
                wrapped[id(fn)] = tracer.span(layer, name, fn,
                                              OBSERVERS.get(f"{layer}.{name}"))
        return wrapped[id(fn)]

    for layer, mod in mods.items():
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                setattr(mod, attr, wrap(layer, val.__name__, val))
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                for mname, mval in list(vars(val).items()):
                    if mname.startswith("_") and mname not in _DUNDERS:
                        continue
                    if mname.startswith("__") and mname != "__init__" \
                            and layer not in COUNTER_LAYERS:
                        continue
                    qual = f"{val.__name__}.{mname}"
                    if isinstance(mval, classmethod):
                        setattr(val, mname, classmethod(wrap(layer, qual, mval.__func__)))
                    elif inspect.isfunction(mval):
                        setattr(val, mname, wrap(layer, qual, mval))
    package = importlib.import_module("admpoisson")
    for mod in list(mods.values()) + [package]:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and id(val) in wrapped:
                setattr(mod, attr, wrapped[id(val)])
    return tracer
