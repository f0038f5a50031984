"""Traced mode: wrap the package's functions from outside and record spans.

Every wrapped function is rebound wherever the package holds a reference to
it (``from .x import y`` copies the binding into each consumer module), and
the ``TensorField`` evaluation methods are wrapped on the class.  Each call
records a span (function, parent span, command, start, end) in memory; the
spans are written once, when the run ends.  A direct recursive call (the
scalar evaluator walks its tree through itself) folds into the outer span, so
``calls`` counts calls made from outside the function.

Self time is a span's duration minus the time its child spans cover.  Calls
whose arguments can be keyed (a field and a point) also count distinct keys
per command, which gives the share of evaluations a per-point cache could not
avoid.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# name -> measures reported for it; "s" is inclusive time, "self_s" self time.
_HOT = ("calls", "distinct_ratio", "self_s")
FUNCTIONS = {
    "expressions.evaluate_jet2": ("calls", "self_s", "constant_share"),
    "expressions.evaluate": ("calls", "self_s"),
    "expressions.parse_expression": ("calls", "self_s"),
    "charts.TensorField.evaluate": ("calls",),
    "charts.TensorField.evaluate_with_grads": ("calls", "self_s"),
    "charts.TensorField.evaluate_with_jets": ("calls", "self_s"),
    "charts.sample_points": ("s",),
    "charts.sample_points_grouped": ("s",),
    "charts.validate_structure": ("s",),
    "geometry.christoffel": _HOT,
    "geometry.riemann": _HOT,
    "geometry.covariant_derivative_affinor": _HOT,
    "geometry.h_tensor": ("calls",),
    "geometry.weight_fit": _HOT,
    "geometry.normality_tensor": _HOT,
    "geometry.lie_bracket": _HOT,
    "geometry.classify": ("s",),
    "nullity.fit_nullity": ("calls", "s"),
    "nullity.check_generalized": ("s",),
    "sewing.build_product": ("s",),
    "sewing.sew": ("s",),
    "sewing.verify_f_structure": ("s",),
    "sewing.verify_lift_laws": ("s",),
    "sewing.extrinsic_report": ("s",),
    "sewing.verify_sewing_theorems": ("s",),
    "manifold_io.load_manifold": ("s",),
    "manifold_io.save_manifold": ("s",),
    "cli.cmd_verify": ("s",),
    "cli.cmd_nullity": ("s",),
    "cli.cmd_sew": ("s",),
}
FIELD_POINT = "charts.field_point"
UNITS = {"calls": "count", "self_s": "s", "s": "s", "distinct_ratio": "ratio", "constant_share": "ratio"}


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric the tracer yields."""
    names = [(f"{fn}.{m}", UNITS[m]) for fn, measures in FUNCTIONS.items() for m in measures]
    names.append((f"{FIELD_POINT}.distinct_ratio", "ratio"))
    names.append(("manifold_io.bytes", "bytes"))
    return names


def _point_key(point) -> bytes:
    return np.asarray(point, dtype=float).tobytes()


class Tracer:
    def __init__(self) -> None:
        self.names = list(FUNCTIONS)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.constant = [0] * n
        self.bytes = 0
        self.keyed: dict[str, int] = {}     # group -> keyed calls
        self.distinct: dict[str, int] = {}  # group -> distinct keys, summed over commands
        self._seen: dict[str, set] = {}
        self._active = [0] * n
        self._stack: list[list] = []
        self._command = -1
        self._fields: dict[int, int] = {}
        self._field_refs: list = []
        self._field_ids: dict = {}
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_command = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._wrappers: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- per-command distinct keys ---------------------------------------

    def begin_command(self, index: int) -> None:
        self._command = index
        self._seen = {}
        self._fields = {}
        self._field_refs = []
        self._field_ids = {}

    def _field(self, tf) -> int:
        """Identify a field by its component expressions, not by object id:
        some consumers build equal fields afresh on every call."""
        fid = self._fields.get(id(tf))
        if fid is None:
            self._field_refs.append(tf)  # keeps the id from being reused within the command
            content = (tf.chart.coords, tf.upper, tf.lower, tf.components)
            fid = self._field_ids.setdefault(content, len(self._field_ids))
            self._fields[id(tf)] = fid
        return fid

    def _structure(self, struct) -> tuple:
        return tuple(self._field(tf) for tf in (struct.metric, struct.phi, struct.xi, struct.eta))

    def _keyer(self, name: str):
        if name.startswith("charts.TensorField."):
            return FIELD_POINT, lambda a: (self._field(a[0]), _point_key(a[1]))
        if name in ("geometry.christoffel", "geometry.riemann"):
            return name, lambda a: (self._field(a[0]), _point_key(a[1]))
        if name == "geometry.lie_bracket":
            return name, lambda a: (self._field(a[0]), self._field(a[1]), _point_key(a[2]))
        if FUNCTIONS[name] == _HOT:
            return name, lambda a: (self._structure(a[0]), _point_key(a[1]))
        return None, None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        index = self.names.index(name)
        group, keyer = self._keyer(name)
        if group is not None:
            self.keyed.setdefault(group, 0)
            self.distinct.setdefault(group, 0)
        num = sys.modules["sewcells.expressions"].Num if name == "expressions.evaluate_jet2" else None
        path_arg = {"manifold_io.load_manifold": 0, "manifold_io.save_manifold": 1}.get(name)
        stack, active = self._stack, self._active
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        fns, parents, commands = self.span_fn, self.span_parent, self.span_command
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == index:
                return fn(*args, **kwargs)
            if keyer is not None:
                key = keyer(args)
                seen = self._seen.setdefault(group, set())
                self.keyed[group] += 1
                if key not in seen:
                    seen.add(key)
                    self.distinct[group] += 1
            if num is not None and type(args[0]) is num:
                self.constant[index] += 1
            span = len(starts)
            fns.append(index)
            parents.append(stack[-1][2] if stack else -1)
            commands.append(self._command)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0, span]
            stack.append(frame)
            active[index] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[index] -= 1
                duration = t1 - t0
                starts[span] = t0
                ends[span] = t1
                calls[index] += 1
                self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not active[index]:
                    total_s[index] += duration
                if path_arg is not None:
                    path = args[path_arg] if len(args) > path_arg else kwargs["path"]
                    self.bytes += os.path.getsize(path)

        return traced

    def install(self) -> None:
        """Rebind every wrapped function in every sewcells module that holds it."""
        modules = [m for key, m in sys.modules.items() if key == "sewcells" or key.startswith("sewcells.")]
        tensor_field = sys.modules["sewcells.charts"].TensorField
        for name in self.names:
            module, _, attr = name.partition(".")
            if attr.startswith("TensorField."):
                method = attr.split(".")[1]
                original = tensor_field.__dict__[method]
                wrapper = self._wrappers.get(name) or self._wrappers.setdefault(name, self._wrap(name, original))
                self._patches.append((tensor_field, method, original))
                setattr(tensor_field, method, wrapper)
                continue
            original = getattr(sys.modules[f"sewcells.{module}"], attr)
            wrapper = self._wrappers.get(name) or self._wrappers.setdefault(name, self._wrap(name, original))
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, binding, original = self._patches.pop()
            setattr(owner, binding, original)

    # -- results ---------------------------------------------------------

    def metrics(self, sweeps: int) -> dict[str, float]:
        """Per-layer numbers per sweep (counts and times divided by ``sweeps``)."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            for measure in FUNCTIONS[name]:
                if measure == "calls":
                    value = self.calls[i] / sweeps
                elif measure == "self_s":
                    value = self.self_s[i] / sweeps
                elif measure == "s":
                    value = self.total_s[i] / sweeps
                elif measure == "constant_share":
                    value = self.constant[i] / self.calls[i] if self.calls[i] else 0.0
                else:
                    value = self._ratio(name)
                out[f"{name}.{measure}"] = value
        out[f"{FIELD_POINT}.distinct_ratio"] = self._ratio(FIELD_POINT)
        out["manifold_io.bytes"] = self.bytes / sweeps
        return out

    def _ratio(self, group: str) -> float:
        keyed = self.keyed.get(group, 0)
        return self.distinct[group] / keyed if keyed else 0.0

    def called(self) -> set[str]:
        return {name for i, name in enumerate(self.names) if self.calls[i]}

    def write(self, path: Path) -> None:
        """Write the recorded spans (one row per call) as a NumPy archive."""
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.span_fn, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            command=np.frombuffer(self.span_command, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
