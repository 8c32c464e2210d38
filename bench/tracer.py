"""Outside-in tracer for the traced benchmark run.

It wraps momentsum's public functions and class methods from the outside
and adds nothing to ``src/``.  Each call becomes a span (name, parent, op,
start, end); self time is the span's duration minus its children's.  Every
call is aggregated; the first ``span_cap`` spans are also kept in memory
and written out at the end.

Every span carries the op's id and its path tag (exact or float), so the
per-layer numbers can be split by path.

Names are ``<layer>.<function>`` and ``<layer>.<class alias>.<method>``;
methods of KernelK and WeightSpec take the layer's own namespace
(``kernels.mellin``, ``weights.log_gamma``).

Functions that other modules imported by name (``applications
.laplace_quadrature``, ``cli.moment_sum``) and functions held in
module-level dicts are patched too, or nested calls would go uncounted.
"""

import contextlib
import importlib
import inspect
import json
import warnings
from collections import Counter
from time import perf_counter

CLASS_ALIAS = {"KernelK": "", "WeightSpec": "", "EntireE": "entire",
               "OmegaDomain": "omega"}

# (outer, inner): calls of inner made while outer is active
INSIDE = (("kernels.mellin", "weights.log_gamma"),
          ("applications.multisum", "transforms.laplace_quadrature"))


class Tracer:
    def __init__(self, span_cap=50_000):
        self.span_cap = span_cap
        self.stats = {}            # name -> [calls, self_s]
        self.spans = []
        self.dropped = 0
        self.stack = []            # frames: [child_time, span_id, layer]
        self.active = Counter()
        self.counts = Counter()    # derived counters (see _after / INSIDE)
        self.errors = Counter()    # layer -> exceptions leaving the layer
        self.warnings = Counter()  # layer -> warnings raised inside the layer
        self.op = None
        self.path = None           # path tag of the current op
        self.by_path = {}          # (path, name) -> [calls, self_s]
        self._next = 0
        self._patches = []
        self._inside = {inner: outer for outer, inner in INSIDE}

    # -- instrumentation ---------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tr = self
        if name in tr.stats:
            raise ValueError(f"two traced callables share the span name {name}")
        stats = tr.stats[name] = [0, 0.0]
        outer = tr._inside.get(name)

        def traced(*args, **kwargs):
            sid = tr._next
            tr._next += 1
            parent = tr.stack[-1][1] if tr.stack else None
            frame = [0.0, sid, layer]
            tr.stack.append(frame)
            tr.active[name] += 1
            if outer is not None and tr.active[outer]:
                tr.counts[f"{outer}>{name}"] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr._error(layer, exc)
                raise
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                tr.active[name] -= 1
                dur = t1 - t0
                self_t = dur - frame[0]
                if tr.stack:
                    tr.stack[-1][0] += dur
                stats[0] += 1
                stats[1] += self_t
                per_path = tr.by_path.setdefault((tr.path, name), [0, 0.0])
                per_path[0] += 1
                per_path[1] += self_t
                if len(tr.spans) < tr.span_cap:
                    tr.spans.append((sid, parent, tr.op, tr.path, name, t0, t1, self_t))
                else:
                    tr.dropped += 1
            tr._after(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _error(self, layer, exc):
        """Count an exception once per layer it leaves: raised out of a span
        whose caller is not in the same layer.  Exceptions a layer raises
        and handles itself (the Pade walk's DegenerateDenominator) are
        retries inside the layer, not errors of it."""
        caller = self.stack[-2][2] if len(self.stack) > 1 else None
        if caller == layer:
            return
        seen = getattr(exc, "_bench_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._bench_layers = seen
            except AttributeError:
                pass
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1

    def _after(self, name, result):
        if name == "transforms.pade_continue":
            if result.pole_on_ray:
                self.warnings["transforms"] += 1     # PoleOnRayWarning
            else:
                self.counts["pade.accepted"] += 1
        elif name == "transforms.laplace_quadrature":
            self.counts["laplace.neval"] += result.panels

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, ms, layers):
        """Wrap the public functions and methods of each layer module."""
        mods = {layer: importlib.import_module(f"{ms.__name__}.{layer}")
                for layer in layers}
        originals = {}                       # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(obj, f"{layer}.{attr}", layer)
                    originals[id(obj)] = (obj, w)
                    self._set(mod, attr, w)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        # aliases: names imported elsewhere and dict-held references
        for mod in [ms] + list(mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = originals.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._patches.append((obj, key, val))
                            obj[key] = hit[1]

    def _wrap_class(self, cls, layer):
        alias = CLASS_ALIAS.get(cls.__name__, cls.__name__.lower())
        prefix = f"{layer}.{alias}." if alias else f"{layer}."
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = prefix + attr
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name, layer))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- warnings ------------------------------------------------------------------

    @contextlib.contextmanager
    def record_warnings(self):
        """Count warnings per layer of the innermost span instead of
        printing them.  Inside, every warning is delivered (filter
        "always"); warnings the program itself ignores or turns into errors
        are unaffected, because its own filters take precedence.
        PoleOnRayWarning is counted from pade_continue's result instead,
        since the continuation walk silences it."""
        with warnings.catch_warnings():
            warnings.simplefilter("always")

            def show(message, category, *args, **kwargs):
                if category.__name__ != "PoleOnRayWarning":
                    self.warnings[self.stack[-1][2] if self.stack else "bench"] += 1

            warnings.showwarning = show
            yield self

    # -- output ----------------------------------------------------------------------

    def write(self, path, header):
        """Header line, one line per aggregated name, then the kept spans."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "spans_kept": len(self.spans),
                                 "spans_dropped": self.dropped}) + "\n")
            for name, (calls, self_s) in sorted(self.stats.items()):
                if calls:
                    fh.write(json.dumps({"name": name, "calls": calls,
                                         "self_s": self_s}) + "\n")
            for sid, parent, op, path, name, t0, t1, self_t in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "path": path, "name": name, "start": t0,
                                     "end": t1, "self_s": self_t}) + "\n")
