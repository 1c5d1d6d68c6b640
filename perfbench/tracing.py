"""Spans around the calls into each layer of flatpencil, installed from outside.

Callers inside the package import by name (``from .geometry import
levi_civita``), so a layer function is bound in several module namespaces.
``Tracer.install`` replaces every module attribute bound to the original
function with one wrapper, so every call site is seen.  Spans (layer, start,
end, parent span, op index) stay in memory and are written out at the end.
A layer's self time is its span duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer, module, functions aggregated into it); timed with spans.
TIMED_LAYERS = [
    ("cli.main", "cli", ["main"]),
    ("pencilio.load", "pencilio", ["load_pencil", "load_frobenius"]),
    ("pencilio.dump", "pencilio", ["dump_pencil", "dump_frobenius"]),
    ("exprparse.parse_expr", "exprparse", ["parse_expr"]),
    ("geometry.levi_civita", "geometry", ["levi_civita"]),
    ("geometry.check_flat_pencil", "geometry", ["check_flat_pencil"]),
    ("geometry.is_flat", "geometry", ["is_flat"]),
    ("geometry.check_quasihomogeneous", "geometry", ["check_quasihomogeneous"]),
    ("qpoly.exact_divide", "qpoly", ["exact_divide"]),
    ("linalg.sym_det", "linalg", ["sym_det"]),
    ("linalg.sym_adjugate", "linalg", ["sym_adjugate"]),
    ("linalg.solve", "linalg", ["exact_linsolve", "solve_affine", "nullspace", "mat_inverse"]),
    ("identity.zero", "identity", ["is_zero_identity"]),
    ("frobenius.check_wdvv", "frobenius", ["check_wdvv"]),
    ("frobenius.intersection_form", "frobenius", ["intersection_form"]),
    ("frobenius.to_flat_pencil", "frobenius", ["to_flat_pencil"]),
    ("reconstruction.delta_tensor", "reconstruction", ["delta_tensor"]),
    ("reconstruction.normalize_flat_coordinates", "reconstruction", ["normalize_flat_coordinates"]),
    ("reconstruction.check_delta_properties", "reconstruction", ["check_delta_properties"]),
    ("reconstruction.multiplication", "reconstruction", ["multiplication"]),
    ("reconstruction.recover_potential", "reconstruction", ["recover_potential"]),
    ("reconstruction.reconstruct_frobenius", "reconstruction", ["reconstruct_frobenius"]),
    ("coxeter.arnold_metric", "coxeter", ["arnold_metric"]),
    ("coxeter.rewrite_in_generators", "coxeter", ["rewrite_in_generators"]),
    ("coxeter.saito_metric", "coxeter", ["saito_metric"]),
    ("coxeter.saito_flat_coordinates", "coxeter", ["saito_flat_coordinates"]),
    ("coxeter.coxeter_pencil", "coxeter", ["coxeter_pencil"]),
    ("loopspace.recursion_step", "loopspace", ["recursion_step"]),
    ("loopspace.bracket_from_metric", "loopspace", ["bracket_from_metric"]),
    ("loopspace.virasoro_check", "loopspace", ["virasoro_check"]),
]
# (layer, module, class, method); too hot for spans, so only counted.
COUNTED_LAYERS = [
    ("qpoly.mul", "qpoly", "QPoly", "__mul__"),
    ("qpoly.ratfunc", "qpoly", "RatFunc", "__init__"),
]

# The per-layer metrics, with unit and direction; BENCHMARK.json lists the same.
PER_LAYER = [
    ("geometry.levi_civita.calls", "count", "lower"),
    ("geometry.levi_civita.self_s", "s", "lower"),
    ("geometry.levi_civita.distinct_ratio", "ratio", "higher"),
    ("geometry.levi_civita.out_terms", "count", "lower"),
    ("geometry.check_flat_pencil.self_s", "s", "lower"),
    ("geometry.is_flat.self_s", "s", "lower"),
    ("geometry.check_quasihomogeneous.self_s", "s", "lower"),
    ("qpoly.mul.calls", "count", "lower"),
    ("qpoly.ratfunc.calls", "count", "lower"),
    ("qpoly.exact_divide.calls", "count", "lower"),
    ("qpoly.exact_divide.self_s", "s", "lower"),
    ("qpoly.exact_divide.success_ratio", "ratio", "higher"),
    ("linalg.sym_det.calls", "count", "lower"),
    ("linalg.sym_det.self_s", "s", "lower"),
    ("linalg.sym_adjugate.calls", "count", "lower"),
    ("linalg.sym_adjugate.self_s", "s", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("identity.zero.calls", "count", "lower"),
    ("identity.zero.self_s", "s", "lower"),
    ("exprparse.parse_expr.calls", "count", "lower"),
    ("exprparse.parse_expr.self_s", "s", "lower"),
    ("pencilio.load.self_s", "s", "lower"),
    ("pencilio.dump.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("frobenius.check_wdvv.self_s", "s", "lower"),
    ("frobenius.intersection_form.self_s", "s", "lower"),
    ("frobenius.to_flat_pencil.self_s", "s", "lower"),
    ("reconstruction.delta_tensor.calls", "count", "lower"),
    ("reconstruction.delta_tensor.self_s", "s", "lower"),
    ("reconstruction.normalize_flat_coordinates.self_s", "s", "lower"),
    ("reconstruction.check_delta_properties.self_s", "s", "lower"),
    ("reconstruction.multiplication.self_s", "s", "lower"),
    ("reconstruction.recover_potential.self_s", "s", "lower"),
    ("reconstruction.reconstruct_frobenius.self_s", "s", "lower"),
    ("coxeter.arnold_metric.self_s", "s", "lower"),
    ("coxeter.rewrite_in_generators.self_s", "s", "lower"),
    ("coxeter.saito_metric.self_s", "s", "lower"),
    ("coxeter.saito_flat_coordinates.self_s", "s", "lower"),
    ("coxeter.coxeter_pencil.self_s", "s", "lower"),
    ("loopspace.recursion_step.calls", "count", "lower"),
    ("loopspace.recursion_step.self_s", "s", "lower"),
    ("loopspace.bracket_from_metric.self_s", "s", "lower"),
    ("loopspace.virasoro_check.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self) -> None:
        self.layers = [name for name, _m, _f in TIMED_LAYERS]
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.counts = {name: [0] for name, *_rest in COUNTED_LAYERS}
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = -1
        self.lc_keys: set[str] = set()
        self.lc_out_terms = 0
        self.div_success = 0

    def _observe(self, layer: str):
        if layer == "geometry.levi_civita":
            def observe(args, result):
                self.lc_keys.add(repr([[str(x) for x in row] for row in args[0].g]))
                self.lc_out_terms += sum(
                    len(x.num.terms) + len(x.den.terms) for k in result.gamma for row in k for x in row
                )
            return observe
        if layer == "qpoly.exact_divide":
            def observe(args, result):
                self.div_success += result is not None
            return observe
        return None

    def _timed(self, idx: int, fn):
        clock = time.perf_counter
        spans, stack, calls, self_s = self.spans, self.stack, self.calls, self.self_s
        observe = self._observe(self.layers[idx])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, clock(), 0.0, stack[-1][0] if stack else -1, self.op]
            frame = [len(spans), 0.0]
            spans.append(rec)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[2] = end
                dur = end - rec[1]
                self_s[idx] += dur - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    @staticmethod
    def _counted(cell: list, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each layer function in every flatpencil module."""
        modules = [m for name, m in list(sys.modules.items()) if name == "flatpencil" or name.startswith("flatpencil.")]
        for idx, (layer, modname, funcs) in enumerate(TIMED_LAYERS):
            owner = importlib.import_module(f"flatpencil.{modname}")
            for fname in funcs:
                original = getattr(owner, fname)
                wrapper = self._timed(idx, original)
                bound = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{layer}: {modname}.{fname} is not bound anywhere")
        for layer, modname, cls_name, method in COUNTED_LAYERS:
            cls = getattr(importlib.import_module(f"flatpencil.{modname}"), cls_name)
            setattr(cls, method, self._counted(self.counts[layer], getattr(cls, method)))

    def metrics(self) -> dict:
        """Per-layer totals: calls and self time per timed layer, and the ratios."""
        out: dict = {}
        for idx, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = self.calls[idx]
            out[f"{layer}.self_s"] = self.self_s[idx]
        for layer, cell in self.counts.items():
            out[f"{layer}.calls"] = cell[0]
        lc_calls = out["geometry.levi_civita.calls"]
        out["geometry.levi_civita.distinct_ratio"] = len(self.lc_keys) / lc_calls if lc_calls else 0.0
        out["geometry.levi_civita.out_terms"] = self.lc_out_terms
        div_calls = out["qpoly.exact_divide.calls"]
        out["qpoly.exact_divide.success_ratio"] = self.div_success / div_calls if div_calls else 0.0
        return out

    def write_spans(self, path, op_ids: list[str]) -> None:
        """Spans as [layer index, start s, end s, parent span or -1, op index]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"layers": self.layers, "ops": op_ids, "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
