"""Spans recorded around calls into crepcond's public functions.

crepcond has no tracing of its own, so the benchmark wraps the functions it
wants to see: every module-level binding of a target function inside the
``crepcond`` package is replaced by a wrapper that records a span (name,
start, end, parent span, op) and, for a few functions, a small payload read
from the call (output bytes, resolver iterations, certificate samples).
The callables of every problem built after :meth:`Tracer.install` (and of
the problems passed to it) are wrapped the same way, which covers the
problem-supplied ``jacobian``, ``residual``, charts and retractions.

Spans are kept in memory in flat arrays and written out by
:meth:`Tracer.dump` when the run ends.  Per-layer metrics are derived from
them by :func:`layer_metrics`.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (home module, attribute, span name).  Functions that share a span name
# count as one layer; a span nested inside a span of the same name is not
# added to that name's time again.
TARGETS = [
    ("crepcond.linalg", "numerical_rank", "linalg.numerical_rank"),
    ("crepcond.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("crepcond.linalg", "complement_basis", "linalg.complement_basis"),
    ("crepcond.linalg", "orthonormalize", "linalg.orthonormalize"),
    ("crepcond.linalg", "spectral_norm", "linalg.spectral_norm"),
    ("crepcond.linalg", "min_norm_solve", "linalg.min_norm_solve"),
    ("crepcond.crep", "evaluate_blocks", "blocks.assemble"),
    ("crepcond.crep", "chart_blocks", "blocks.assemble"),
    ("crepcond.crep", "certify_crep", "certify"),
    ("crepcond.crep", "condition_numbers_from_blocks", "kappa"),
    ("crepcond.crep", "solution_map_derivative", "kappa.dh_pipeline"),
    ("crepcond.crep", "fcre_solution_derivative", "kappa.dh_fcre"),
    ("crepcond.crep", "solution_map_derivative_minnorm", "oracle.dh_minnorm"),
    ("crepcond.empirical", "constrained_nearest_solution", "resolve"),
    ("crepcond.empirical", "empirical_condition", "empirical.condition"),
    ("crepcond.empirical", "finite_difference_check", "empirical.fd_check"),
    ("crepcond.tensor", "multilinear_multiply", "tensor.multilinear_multiply"),
    ("crepcond.tucker", "build_tucker_crep", "tucker.build"),
    ("crepcond.tucker", "closed_form_kappa_factor", "tucker.closed_form"),
    ("crepcond.tucker", "closed_form_kappa_core", "tucker.closed_form"),
    ("crepcond.tucker", "expected_kappa_all", "tucker.closed_form"),
    ("crepcond.problems", "polar_problem", "problems.build"),
    ("crepcond.problems", "matrix_factorization_problem", "problems.build"),
    ("crepcond.problems", "linearized_problem", "problems.build"),
    ("crepcond.cli", "cmd_analyze", "cli.analyze"),
    ("crepcond.cli", "write_report", "cli.write"),
]

# Builders whose returned (problem, point) gets its callables wrapped.
BUILDERS = {"tucker.build", "problems.build"}

PROBLEM_FIELDS = {
    "residual": "blocks.residual",
    "jacobian": "blocks.jacobian",
    "x_chart": "blocks.chart",
    "y_chart": "blocks.chart",
    "z_chart": "blocks.chart",
    "x_retract": "blocks.retract",
    "y_retract": "blocks.retract",
    "z_retract": "blocks.retract",
}


def _nbytes(result) -> int:
    if isinstance(result, (tuple, list)):
        return sum(_nbytes(r) for r in result)
    return int(getattr(result, "nbytes", 0))


def _svd_payload(args, kwargs, result):
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    return (1 if (compute_uv and full) else 0, _nbytes(result))


PAYLOADS = {
    "linalg.svd": _svd_payload,
    "blocks.jacobian": lambda a, k, r: (_nbytes(r),),
    "resolve": lambda a, k, r: (int(r.iterations), 1 if r.converged else 0),
    "certify": lambda a, k, r: (int(r.samples_checked), int(r.resolve_failures)),
}


class Tracer:
    """In-memory span recorder; one per process, created by the caller."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")
        self.payload: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.current_op = -1
        self.n_ops = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, name: str) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.nested.append(1 if self._depth[name] else 0)
        self._depth[name] += 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float, t1: float) -> None:
        self._stack.pop()
        self._depth[name] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        payload = PAYLOADS.get(name)
        wrap_problem = name in BUILDERS

        def traced(*args, **kwargs):
            idx = self._open(name_id, name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0, perf_counter())
            if payload is not None:
                self.payload[idx] = payload(args, kwargs, result)
            if wrap_problem:
                self.wrap_problem(result[0])
            return result

        return traced

    def wrap_problem(self, problem) -> None:
        for field, name in PROBLEM_FIELDS.items():
            setattr(problem, field, self.wrap(name, getattr(problem, field)))

    def install(self, problems=()) -> None:
        """Wrap every crepcond binding of the targets, numpy's SVD and lstsq,
        and the callables of the already-built ``problems``."""
        import numpy.linalg

        for home, attr, name in TARGETS:
            module = sys.modules.get(home)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "crepcond" or mod_name.startswith("crepcond.")) and mod is not None:
                    if mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapper)
        # numpy.linalg.norm(a, 2) reaches the SVD through the private module
        # namespace, so patch that binding too when it exists.
        namespaces = [numpy.linalg, getattr(numpy.linalg, "_linalg", None)]
        for attr, name in (("svd", "linalg.svd"), ("lstsq", "linalg.lstsq")):
            original = numpy.linalg.__dict__[attr]
            wrapper = self.wrap(name, original)
            for ns in namespaces:
                if ns is not None and ns.__dict__.get(attr) is original:
                    setattr(ns, attr, wrapper)
        for problem in problems:
            self.wrap_problem(problem)

    def begin_op(self) -> int:
        """Open the root span of a new op; returns its op number."""
        self.current_op = self.n_ops
        self.n_ops += 1
        idx = self._open(self._name_id("op"), "op")
        self.start[idx] = perf_counter()
        return self.current_op

    def end_op(self) -> None:
        idx = self._stack[-1]
        self._close(idx, "op", self.start[idx], perf_counter())
        self.current_op = -1

    def merge(self, child: dict) -> None:
        """Append spans dumped by a child process under the current op span.

        Both processes read CLOCK_MONOTONIC through ``perf_counter``, so the
        child's timestamps need no shifting."""
        base = len(self.start)
        root = self._stack[-1]
        for n, t0, t1, p, nested in zip(
            child["name"], child["start"], child["end"], child["parent"], child["nested"]
        ):
            self.name.append(self._name_id(child["names"][n]))
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(root if p < 0 else base + p)
            self.op.append(self.current_op)
            self.nested.append(nested)
        for i, value in child["payload"].items():
            self.payload[base + int(i)] = tuple(value)

    def as_dict(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "nested": list(self.nested),
            "payload": {str(k): list(v) for k, v in self.payload.items()},
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics.

LINALG_HELPERS = (
    "numerical_rank",
    "kernel_basis",
    "complement_basis",
    "orthonormalize",
    "spectral_norm",
    "min_norm_solve",
)


def exact_counts(tracer: Tracer, ops) -> dict:
    """Counts that must repeat exactly for the same ops on the same inputs:
    calls per span name plus the summed integer payloads."""
    ops = set(ops)
    counts: Counter = Counter()
    for idx, name_id in enumerate(tracer.name):
        if tracer.op[idx] not in ops:
            continue
        name = tracer.names[name_id]
        counts[f"{name}.calls"] += 1
        pl = tracer.payload.get(idx)
        if pl is None:
            continue
        if name == "linalg.svd":
            counts["linalg.svd.full_calls"] += pl[0]
            counts["linalg.svd.out_bytes"] += pl[1]
        elif name == "blocks.jacobian":
            counts["blocks.jacobian.out_bytes"] += pl[0]
        elif name == "certify":
            counts["certify.samples_checked"] += pl[0]
            counts["certify.samples"] += pl[0] + pl[1]
        elif name == "resolve":
            side = _resolve_side(tracer, idx)
            for prefix in ("resolve", f"resolve.{side}"):
                counts[f"{prefix}.iterations"] += pl[0]
                counts[f"{prefix}.converged"] += pl[1]
                if prefix != "resolve":
                    counts[f"{prefix}.calls"] += 1
    return dict(counts)


def _resolve_side(tracer: Tracer, idx: int) -> str:
    """``certify`` when a resolve span runs under a certification span,
    ``validate`` otherwise (empirical validation or a direct call)."""
    certify_id = tracer._ids.get("certify")
    p = tracer.parent[idx]
    while p >= 0:
        if tracer.name[p] == certify_id:
            return "certify"
        p = tracer.parent[p]
    return "validate"


def span_times(tracer: Tracer, ops) -> tuple[dict, dict]:
    """Inclusive time of outermost spans and self time, summed per name."""
    ops = set(ops)
    inclusive: defaultdict = defaultdict(float)
    child_time: defaultdict = defaultdict(float)
    resolve_id = tracer._ids.get("resolve")
    for idx in range(len(tracer.start)):
        if tracer.op[idx] not in ops:
            continue
        dur = tracer.end[idx] - tracer.start[idx]
        name = tracer.names[tracer.name[idx]]
        if not tracer.nested[idx]:
            inclusive[name] += dur
        if tracer.name[idx] == resolve_id:
            inclusive[f"resolve.{_resolve_side(tracer, idx)}"] += dur
        p = tracer.parent[idx]
        if p >= 0:
            child_time[p] += dur
    self_time: defaultdict = defaultdict(float)
    for idx in range(len(tracer.start)):
        if tracer.op[idx] in ops:
            name = tracer.names[tracer.name[idx]]
            self_time[name] += tracer.end[idx] - tracer.start[idx] - child_time.get(idx, 0.0)
    return dict(inclusive), dict(self_time)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, timed_ops, counted_ops, extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics: times per op over ``timed_ops``, counts per op
    over ``counted_ops``.  ``extra`` supplies the values measured outside
    the spans (CLI import time, report bytes, tracing overhead).  Returns
    the metrics and the exact counts they were derived from."""
    n_t = max(len(timed_ops), 1)
    n_c = max(len(counted_ops), 1)
    incl, selft = span_times(tracer, timed_ops)
    c = exact_counts(tracer, counted_ops)

    def per_op_s(name):
        return incl.get(name, 0.0) / n_t

    def per_op_count(key):
        return c.get(key, 0) / n_c

    m = {
        "linalg.svd.calls": per_op_count("linalg.svd.calls"),
        "linalg.svd.full_calls": per_op_count("linalg.svd.full_calls"),
        "linalg.svd.s": per_op_s("linalg.svd"),
        "linalg.svd.out_mb": per_op_count("linalg.svd.out_bytes") / 1e6,
    }
    for helper in LINALG_HELPERS:
        m[f"linalg.{helper}.calls"] = per_op_count(f"linalg.{helper}.calls")
        m[f"linalg.{helper}.s"] = per_op_s(f"linalg.{helper}")
    m.update({
        "linalg.lstsq.calls": per_op_count("linalg.lstsq.calls"),
        "linalg.lstsq.s": per_op_s("linalg.lstsq"),
        "blocks.assemble.calls": per_op_count("blocks.assemble.calls"),
        "blocks.assemble.s": per_op_s("blocks.assemble"),
        "blocks.jacobian.calls": per_op_count("blocks.jacobian.calls"),
        "blocks.jacobian.s": per_op_s("blocks.jacobian"),
        "blocks.jacobian.out_mb": per_op_count("blocks.jacobian.out_bytes") / 1e6,
        "tensor.multilinear_multiply.calls": per_op_count("tensor.multilinear_multiply.calls"),
        "blocks.charts.s": per_op_s("blocks.chart"),
        "blocks.retract.s": per_op_s("blocks.retract"),
        "blocks.residual.calls": per_op_count("blocks.residual.calls"),
        "certify.calls": per_op_count("certify.calls"),
        "certify.s": per_op_s("certify"),
        "certify.self_s": selft.get("certify", 0.0) / n_t,
        "certify.samples_checked_ratio": _ratio(c.get("certify.samples_checked", 0), c.get("certify.samples", 0)),
    })
    for prefix in ("resolve", "resolve.certify", "resolve.validate"):
        m[f"{prefix}.calls"] = per_op_count(f"{prefix}.calls")
        m[f"{prefix}.s"] = per_op_s(prefix)
        m[f"{prefix}.iterations"] = per_op_count(f"{prefix}.iterations")
        m[f"{prefix}.converged_ratio"] = _ratio(c.get(f"{prefix}.converged", 0), c.get(f"{prefix}.calls", 0))
    m.update({
        "kappa.s": per_op_s("kappa"),
        "kappa.dh_pipeline.s": per_op_s("kappa.dh_pipeline"),
        "kappa.dh_fcre.s": per_op_s("kappa.dh_fcre"),
        "oracle.dh_minnorm.s": per_op_s("oracle.dh_minnorm"),
        "empirical.condition.s": per_op_s("empirical.condition"),
        "empirical.fd_check.s": per_op_s("empirical.fd_check"),
        "tucker.build.s": per_op_s("tucker.build"),
        "tucker.closed_form.s": per_op_s("tucker.closed_form"),
        "cli.analyze_s": (incl.get("cli.analyze", 0.0) - incl.get("cli.write", 0.0)) / n_t,
        "cli.write_s": per_op_s("cli.write"),
    })
    m.update(extra)
    return m, c
