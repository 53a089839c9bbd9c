"""Span tracing of the shellsym layers, installed from outside the package.

The tracer wraps the public functions (and public classmethods) of each
layer module and rebinds every name in the package that refers to them, so
calls made through another module's namespace are traced too: ``symbols``
imports ``apply_normal_ode`` by name, and ``sl_check`` reaches
``ellipticity_check`` through its module global.  In ``cli`` only ``main`` is
wrapped, so its self time is the front end's own work: argument and config
parsing, CSV formatting and writing.

Spans (name, start, end, parent, error flag) go into flat integer arrays
while a pass runs and are written out once, when the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "symbols", "polymat", "layers", "reduced", "geometry")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _array_key(*arrays) -> bytes:
    return b"".join(np.asarray(a).tobytes() for a in arrays)


# Counters taken at a span boundary: hook(tracer, args, kwargs).
def _ellipticity_key(tr, args, kwargs):
    system, point = _arg(args, kwargs, 0, "system"), _arg(args, kwargs, 1, "point")
    n_angles = args[2] if len(args) > 2 else kwargs.get("n_angles", 360)
    defaults = system.symbol_gen.__defaults__ or ()
    tr.keys["symbols.ellipticity_check"].add((
        system.name, _array_key(*defaults), n_angles,
        _array_key(point.a_cov, point.b_cov, point.b_mixed, point.christoffel)))


def _layer_modes_key(tr, args, kwargs):
    b = tuple(float(x) for x in _arg(args, kwargs, 0, "b"))
    tr.keys["layers.build_layer_modes"].add(
        (b, _array_key(_arg(args, kwargs, 1, "a_membrane")),
         float(_arg(args, kwargs, 2, "xi1"))))


def _solve_modes(tr, args, kwargs):
    tr.counts["reduced.solve.modes"] += _arg(args, kwargs, 1, "load").coeffs.size


def _probe_modes(tr, args, kwargs):
    tr.counts["reduced.sensitivity_probe.modes_solved"] += \
        2 * _arg(args, kwargs, 0, "op").n_modes + 1


def _variable_symbol_bytes(tr, args, kwargs):
    # computed: the (n_quad, 2N+1) complex weight, phase and product arrays
    modes = _arg(args, kwargs, 1, "field").coeffs.size
    tr.counts["reduced.apply_variable_symbol.bytes"] += \
        3 * 16 * int(_arg(args, kwargs, 2, "n_quad")) * modes


def _energy_points(tr, args, kwargs):
    n1, n2 = _arg(args, kwargs, 0, "u").shape
    tr.counts["geometry.energy_forms.points"] += n1 * n2
    # computed: 20 metric and 6 displacement doubles read per point, plus
    # 4 strain tensors (4 doubles) and 4 strain vectors (3 doubles) written
    tr.counts["geometry.energy_forms.bytes"] += 8 * (20 + 6 + 16 + 12) * n1 * n2


HOOKS = {
    "symbols.ellipticity_check": _ellipticity_key,
    "layers.build_layer_modes": _layer_modes_key,
    "reduced.solve": _solve_modes,
    "reduced.sensitivity_probe": _probe_modes,
    "reduced.apply_variable_symbol": _variable_symbol_bytes,
    "geometry.energy_forms": _energy_points,
}


class Tracer:
    """Wraps the layer functions while installed and records their spans."""

    def __init__(self):
        self.span_names: list = []
        self._ids: dict = {}
        self.start, self.end = array("q"), array("q")
        self.parent, self.name = array("q"), array("q")
        self.error = array("b")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self.pass_marks: list = []     # (first span, end span) of each traced pass
        self._restore: list = []
        self._targets = self._collect()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    @staticmethod
    def _collect() -> list:
        """(span name, owner class or None, attribute, original) to wrap."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"shellsym.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (layer != "cli" or attr == "main"):
                    out.append((f"{layer}.{attr}", None, attr, obj))
                elif inspect.isclass(obj):
                    for cattr, cobj in vars(obj).items():
                        if isinstance(cobj, classmethod) and not cattr.startswith("_"):
                            out.append((f"{layer}.{attr}.{cattr}", obj, cattr, cobj))
        return out

    def _wrap(self, span_name: str, fn):
        nid = self._name_id(span_name)
        hook = HOOKS.get(span_name)
        start, end, parent, name, error = (self.start, self.end, self.parent,
                                           self.name, self.error)
        stack, clock = self.stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            name.append(nid)
            error.append(0)
            end.append(0)
            stack.append(i)
            if hook is not None:
                hook(tracer, args, kwargs)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
        return wrapper

    def install(self):
        """Wrap every target and rebind each package name that refers to one."""
        wrapped = {}
        for span_name, owner, attr, original in self._targets:
            if owner is None:
                wrapped[id(original)] = self._wrap(span_name, original)
            else:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, classmethod(self._wrap(span_name, original.__func__)))
        modules = [m for n, m in sys.modules.items()
                   if n == "shellsym" or n.startswith("shellsym.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])
                elif isinstance(val, dict):        # e.g. the CLI dispatch table
                    for key, item in val.items():
                        if id(item) in wrapped:
                            self._restore.append((val, key, item))
                            val[key] = wrapped[id(item)]

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def begin_pass(self):
        self.pass_marks.append([len(self.start), None])

    def end_pass(self):
        self.pass_marks[-1][1] = len(self.start)

    def run_job(self, job_name: str, fn):
        """Call ``fn`` as the root span ``job.<job_name>`` of its layer spans."""
        return self._wrap(f"job.{job_name}", fn)()

    # -----------------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        error = np.frombuffer(self.error, dtype=np.int8)
        dur = end - start
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return start, end, parent, name, error, dur, dur - child

    def metrics(self) -> dict:
        """Per-layer numbers of the traced passes.

        Counts are means per pass, times are medians over passes of per-pass
        sums, shares are ratios of totals over all traced passes.
        """
        _, _, parent, name, error, dur, self_t = self._arrays()
        n_names, passes = len(self.span_names), len(self.pass_marks)
        calls, total, own = (np.zeros((passes, n_names)) for _ in range(3))
        for p, (lo, hi) in enumerate(self.pass_marks):
            ids = name[lo:hi]
            calls[p] = np.bincount(ids, minlength=n_names)
            total[p] = np.bincount(ids, weights=dur[lo:hi], minlength=n_names)
            own[p] = np.bincount(ids, weights=self_t[lo:hi], minlength=n_names)
        out = {}
        for i, span in enumerate(self.span_names):
            out[f"{span}.calls"] = float(calls[:, i].mean())
            out[f"{span}.total_ms"] = float(np.median(total[:, i])) / 1e6
            out[f"{span}.self_ms"] = float(np.median(own[:, i])) / 1e6
        layer_of = np.array([s.split(".")[0] for s in self.span_names] + ["job"])
        # exceptions that leave a layer: raised out of a span whose parent is
        # a job or a span of another layer
        raised = np.flatnonzero(error == 1)
        outer = np.where(parent[raised] >= 0, name[np.maximum(parent[raised], 0)], -1)
        leaving = layer_of[name[raised]] != layer_of[outer]
        errors = Counter(layer_of[name[raised][leaving]].tolist())
        for layer in LAYERS:
            in_layer = layer_of[:n_names] == layer
            out[f"{layer}.self_ms"] = float(np.median(own[:, in_layer].sum(axis=1))) / 1e6
            out[f"{layer}.errors"] = errors.get(layer, 0) / passes

        def total_calls(span):
            return out.get(f"{span}.calls", 0.0) * passes

        def share(num, den):
            return num / den if den else 0.0

        counts, keys = self.counts, self.keys
        out["symbols.ellipticity_check.distinct_share"] = share(
            len(keys["symbols.ellipticity_check"]),
            total_calls("symbols.ellipticity_check"))
        out["layers.build_layer_modes.distinct_share"] = share(
            len(keys["layers.build_layer_modes"]), total_calls("layers.build_layer_modes"))
        out["reduced.solve.modes"] = counts["reduced.solve.modes"] / passes
        out["reduced.sensitivity_probe.useful_share"] = share(
            total_calls("reduced.sensitivity_probe"),
            counts["reduced.sensitivity_probe.modes_solved"])
        out["reduced.apply_variable_symbol.bytes"] = \
            counts["reduced.apply_variable_symbol.bytes"] / passes
        energy = self._ids.get("geometry.energy_forms")
        out["geometry.energy_forms.ns_per_point"] = share(
            total[:, energy].sum() if energy is not None else 0.0,
            counts["geometry.energy_forms.points"])
        out["geometry.energy_forms.bytes"] = counts["geometry.energy_forms.bytes"] / passes
        return out

    def write(self, path: Path):
        """Gzipped tab-separated spans: id, parent, name, start_ns, end_ns, error.

        The first line lists the [first, end) span ids of each traced pass.
        """
        start, end, parent, name, error, _, _ = self._arrays()
        names = self.span_names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# passes " + json.dumps(self.pass_marks) + "\n")
            fh.write("id\tparent\tname\tstart_ns\tend_ns\terror\n")
            for lo in range(0, start.size, 100_000):
                hi = min(lo + 100_000, start.size)
                fh.write("".join(
                    f"{i}\t{p}\t{names[n]}\t{a}\t{b}\t{e}\n"
                    for i, p, n, a, b, e in zip(
                        range(lo, hi), parent[lo:hi].tolist(), name[lo:hi].tolist(),
                        start[lo:hi].tolist(), end[lo:hi].tolist(),
                        error[lo:hi].tolist())))
