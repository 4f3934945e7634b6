"""Spans and counts at mclab's module boundaries, recorded from outside.

``Tracer.install`` replaces public functions and methods with wrappers;
``Tracer.uninstall`` puts the originals back.  A module-level function is
replaced wherever an ``mclab`` module binds it (``cli`` calls ``build_sl``
through its own globals, ``mcfields`` calls ``sparse_nullspace`` through
the ``linalg`` module attribute), and a method on its class.  Each wrapper
records a span (layer, job, start, end, parent span) plus counts taken
from the call's arguments and result.  A call made while the same wrapper
is already open records no span, so recursive calls count once
(outermost only).  Spans stay in memory until the caller writes them out.

``poly`` and ``rootsys`` are not wrapped: ``poly`` is called once per term
by every layer above it, and wrapping it would distort the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _nullspace_counts(fn, args, kwargs, result) -> dict:
    arg = _bound(fn, args, kwargs)
    rows, ncols = arg["rows"], arg["ncols"]
    bits = 0
    for r in rows:
        for v in r.values():
            bits = max(bits, v.numerator.bit_length(),
                       v.denominator.bit_length())
    for vec in result:
        for v in vec:
            bits = max(bits, v.numerator.bit_length(),
                       v.denominator.bit_length())
    return {"rows": len(rows), "cols": ncols,
            "nnz": sum(len(r) for r in rows), "nullity": len(result),
            "max_coeff_bits": bits}


@dataclass(frozen=True)
class Target:
    layer: str                  # span name, "<module>.<stage>"
    module: str                 # mclab module that defines the callable
    attr: str                   # "func" or "Class.method"
    counts: Callable | None = None
    span: bool = True           # False: count calls only, record no span


TARGETS = [
    Target("cli.emit", "mclab.cli", "emit"),
    Target("hessenberg.enumerate", "mclab.hessenberg", "enumerate_all",
           lambda fn, a, k, r: {"sets": len(r)}),
    Target("hessenberg.analyze", "mclab.hessenberg", "analyze"),
    Target("liealg.build", "mclab.liealg", "build_sl",
           lambda fn, a, k, r: {"structure_constants": len(r.c)}),
    Target("liealg.build", "mclab.liealg", "build_sp",
           lambda fn, a, k, r: {"structure_constants": len(r.c)}),
    Target("liealg.frame", "mclab.liealg", "Chart.frame_components"),
    Target("liealg.adjoint", "mclab.liealg", "adjoint_of_point"),
    Target("linalg.nullspace", "mclab.linalg", "sparse_nullspace",
           _nullspace_counts),
    Target("linalg.rref", "mclab.linalg", "rref"),
    Target("mcfields.solve", "mclab.mcfields", "solve_mc",
           lambda fn, a, k, r: {"solution_dim": r.dimension}),
    Target("mcfields.assemble", "mclab.mcfields", "McSystem.block_rows",
           lambda fn, a, k, r: {"degree": _bound(fn, a, k)["degree"]}),
    Target("mcfields.assemble", "mclab.mcfields",
           "McSystem.unknown_monomials",
           lambda fn, a, k, r: {"unknowns": len(r)}),
    Target("mcfields.brackets", "mclab.mcfields",
           "McSolution.compute_brackets"),
    Target("mcfields.compare", "mclab.mcfields", "compare_with_normalizer"),
    Target("mcfields.tau_basis", "mclab.mcfields", "tau_basis"),
    Target("mcfields.summary", "mclab.mcfields", "McSolution.algebra_summary"),
    Target("fields.bracket", "mclab.fields", "PolyVectorField.bracket"),
    Target("fields.to_coordinate", "mclab.fields",
           "PolyVectorField.to_coordinate", span=False),
    Target("polybasis.build", "mclab.polybasis", "build_basis"),
    Target("polybasis.verify", "mclab.polybasis", "verify_against_oracle"),
    Target("hessdefs.equations", "mclab.hessdefs", "defining_equations"),
    Target("hessdefs.certificate", "mclab.hessdefs", "smoothness_certificate"),
]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[dict] = []
        self.calls: dict[str, int] = {}    # count-only targets
        self.missing: list[str] = []       # "<module>.<attr>" not found
        self.job: str | None = None
        self._stack: list[dict] = []
        self._open: set[int] = set()
        self._patches: list[tuple[object, str, object, bool]] = []

    # ---- installation -------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for t in self.targets:
            try:
                mod = importlib.import_module(t.module)
            except ModuleNotFoundError:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            owner_name, _, name = t.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            wrapper = self._wrap(t, original)
            if owner_name:
                self._patch(owner, name, original, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if mname != "mclab" and not mname.startswith("mclab."):
                    continue
                for gname, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, gname, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original, name in vars(owner)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original, had = self._patches.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # ---- recording -----------------------------------------------------------
    def _wrap(self, target: Target, fn):
        tracer = self
        key = id(target)

        if not target.span:
            def counting(*args, **kwargs):
                tracer.calls[target.layer] = tracer.calls.get(target.layer, 0) + 1
                return fn(*args, **kwargs)
            counting.__wrapped__ = fn
            return counting

        def wrapper(*args, **kwargs):
            if key in tracer._open:
                return fn(*args, **kwargs)
            span = {"name": target.layer, "job": tracer.job,
                    "id": len(tracer.spans),
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "children_s": 0.0}
            tracer.spans.append(span)
            tracer._stack.append(span)
            tracer._open.add(key)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._open.discard(key)
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1]["children_s"] += span["end"] - span["start"]
            if target.counts is not None:
                t0 = time.perf_counter()
                span.update(target.counts(fn, args, kwargs, result))
                if tracer._stack:    # counting is not the parent's own work
                    tracer._stack[-1]["children_s"] += time.perf_counter() - t0
            return result
        wrapper.__wrapped__ = fn
        return wrapper


def self_seconds(span: dict) -> float:
    """A span's duration minus the time its child spans cover."""
    return span["end"] - span["start"] - span["children_s"]


# Per-layer metrics: name -> (unit, wrapped layer it is taken from).
LAYER_METRICS = {
    "cli.emit_s": ("s", "cli.emit"),
    "cli.output_bytes": ("bytes", "cli.emit"),
    "hessenberg.enumerate_s": ("s", "hessenberg.enumerate"),
    "hessenberg.sets": ("count", "hessenberg.enumerate"),
    "hessenberg.analyze_s": ("s", "hessenberg.analyze"),
    "liealg.build_s": ("s", "liealg.build"),
    "liealg.structure_constants": ("count", "liealg.build"),
    "liealg.frame_s": ("s", "liealg.frame"),
    "liealg.adjoint_s": ("s", "liealg.adjoint"),
    "linalg.nullspace_s": ("s", "linalg.nullspace"),
    "linalg.nullspace_calls": ("count", "linalg.nullspace"),
    "linalg.nullspace_rows": ("count", "linalg.nullspace"),
    "linalg.nullspace_cols": ("count", "linalg.nullspace"),
    "linalg.nullspace_nnz": ("count", "linalg.nullspace"),
    "linalg.nullity": ("count", "linalg.nullspace"),
    "linalg.max_coeff_bits": ("bits", "linalg.nullspace"),
    "linalg.nullspace_useful_share": ("ratio", "linalg.nullspace"),
    "linalg.rref_s": ("s", "linalg.rref"),
    "linalg.rref_calls": ("count", "linalg.rref"),
    "mcfields.solve_s": ("s", "mcfields.solve"),
    "mcfields.assemble_s": ("s", "mcfields.assemble"),
    "mcfields.blocks": ("count", "mcfields.assemble"),
    "mcfields.unknowns": ("count", "mcfields.assemble"),
    "mcfields.solution_dim": ("count", "mcfields.solve"),
    "mcfields.brackets_s": ("s", "mcfields.brackets"),
    "mcfields.compare_s": ("s", "mcfields.compare"),
    "mcfields.tau_basis_s": ("s", "mcfields.tau_basis"),
    "mcfields.summary_s": ("s", "mcfields.summary"),
    "fields.bracket_s": ("s", "fields.bracket"),
    "fields.bracket_calls": ("count", "fields.bracket"),
    "fields.to_coordinate_calls": ("count", "fields.to_coordinate"),
    "polybasis.build_s": ("s", "polybasis.build"),
    "polybasis.verify_s": ("s", "polybasis.verify"),
    "hessdefs.equations_s": ("s", "hessdefs.equations"),
    "hessdefs.certificate_s": ("s", "hessdefs.certificate"),
    "trace.overhead_share": ("ratio", None),
}


def layer_values(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """Per-layer metric values over every span recorded; metrics whose
    layer has a missing wrapped name are left out, not set to zero."""
    by_layer: dict[str, list[dict]] = {}
    for s in tracer.spans:
        by_layer.setdefault(s["name"], []).append(s)

    def total(layer, key=None):
        spans = by_layer.get(layer, [])
        if key is None:
            return sum(self_seconds(s) for s in spans)
        return sum(s.get(key, 0) for s in spans)

    null = by_layer.get("linalg.nullspace", [])
    values = {
        "cli.emit_s": total("cli.emit"),
        "cli.output_bytes": output_bytes,
        "hessenberg.enumerate_s": total("hessenberg.enumerate"),
        "hessenberg.sets": total("hessenberg.enumerate", "sets"),
        "hessenberg.analyze_s": total("hessenberg.analyze"),
        "liealg.build_s": total("liealg.build"),
        "liealg.structure_constants":
            total("liealg.build", "structure_constants"),
        "liealg.frame_s": total("liealg.frame"),
        "liealg.adjoint_s": total("liealg.adjoint"),
        "linalg.nullspace_s": total("linalg.nullspace"),
        "linalg.nullspace_calls": len(null),
        "linalg.nullspace_rows": total("linalg.nullspace", "rows"),
        "linalg.nullspace_cols": total("linalg.nullspace", "cols"),
        "linalg.nullspace_nnz": total("linalg.nullspace", "nnz"),
        "linalg.nullity": total("linalg.nullspace", "nullity"),
        "linalg.max_coeff_bits": max((s["max_coeff_bits"] for s in null),
                                     default=0),
        "linalg.nullspace_useful_share":
            (sum(1 for s in null if s["nullity"]) / len(null)) if null else 0.0,
        "linalg.rref_s": total("linalg.rref"),
        "linalg.rref_calls": len(by_layer.get("linalg.rref", [])),
        "mcfields.solve_s": total("mcfields.solve"),
        "mcfields.assemble_s": total("mcfields.assemble"),
        "mcfields.blocks": sum(1 for s in by_layer.get("mcfields.assemble", [])
                               if "degree" in s),
        "mcfields.unknowns": total("mcfields.assemble", "unknowns"),
        "mcfields.solution_dim": total("mcfields.solve", "solution_dim"),
        "mcfields.brackets_s": total("mcfields.brackets"),
        "mcfields.compare_s": total("mcfields.compare"),
        "mcfields.tau_basis_s": total("mcfields.tau_basis"),
        "mcfields.summary_s": total("mcfields.summary"),
        "fields.bracket_s": total("fields.bracket"),
        "fields.bracket_calls": len(by_layer.get("fields.bracket", [])),
        "fields.to_coordinate_calls":
            tracer.calls.get("fields.to_coordinate", 0),
        "polybasis.build_s": total("polybasis.build"),
        "polybasis.verify_s": total("polybasis.verify"),
        "hessdefs.equations_s": total("hessdefs.equations"),
        "hessdefs.certificate_s": total("hessdefs.certificate"),
    }
    missing_layers = {t.layer for t in tracer.targets
                      if f"{t.module}.{t.attr}" in tracer.missing}
    return {k: v for k, v in values.items()
            if LAYER_METRICS[k][1] not in missing_layers}


def block_table(tracer: Tracer) -> list[dict]:
    """One row per ``sparse_nullspace`` call, in call order, with the
    degree of the block assembled just before it in the same job."""
    rows = []
    degree = {}
    for s in tracer.spans:
        if s["name"] == "mcfields.assemble" and "degree" in s:
            degree[s["job"]] = s["degree"]
        elif s["name"] == "linalg.nullspace":
            rows.append({"job": s["job"], "degree": degree.get(s["job"]),
                         "cols": s["cols"], "rows": s["rows"],
                         "nnz": s["nnz"], "nullity": s["nullity"],
                         "seconds": s["end"] - s["start"]})
    return rows
