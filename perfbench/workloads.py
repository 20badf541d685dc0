"""The four benchmark workloads.

Each workload generates its inputs from the benchmark seed, runs one op per
call to :meth:`op`, and checks the answer with :mod:`gates` in :meth:`check`.
Ops are grouped in cycles of ``cycle`` ops of different kinds; the timed
loop only stops at a cycle boundary, so every run has the same mix of op
kinds.  The first ``counted_ops`` ops are run twice in a traced run, and
their counts must repeat exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import crepcond
from crepcond import crep, empirical, problems, tucker
from crepcond.tensor import tensor_to_obj

import gates


class OpFailed(RuntimeError):
    """The library reported failure for an op (not a wrong answer)."""


# Failures the library signals by raising; they count toward the failed ops.
FAILURES = (
    OpFailed,
    crepcond.RankHypothesisError,
    crepcond.InconsistentSystemError,
    crepcond.CertificationError,
    crepcond.ResolveFailure,
)


class Workload:
    cycle = 1
    counted_ops = 1
    tracer = None
    # Generated instances left out of the pool because the library failed
    # on them at set-up (see LinearizedBatch).
    pool_failures = 0

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result, kappa_scale: float = 1.0) -> None:
        raise NotImplementedError

    def problems(self) -> list:
        """Problems built during set-up, whose callables a tracer must wrap."""
        return []

    def extra_metrics(self, ops) -> dict:
        """Per-layer metrics measured outside the spans, for the given ops."""
        return {"cli.import_s": 0.0, "cli.report_bytes": 0.0}


class TuckerXval(Workload):
    """``cross_validate(point, n_cert_samples=2)`` on order-3 Tucker points of
    shape (8, 8, 8) and multilinear rank (3, 3, 3), so n_res = 512.  At about
    1.4 s per op a 26 s run holds 17 to 20 ops; (10, 10, 10) holds six, which
    leaves the 90th percentile at the mercy of one slow op."""

    SHAPE = (8, 8, 8)
    RANKS = (3, 3, 3)
    POOL = 16

    def __init__(self, seed: int, workdir: Path):
        self.points = [tucker.random_tucker_point(self.SHAPE, self.RANKS, (seed, j)) for j in range(self.POOL)]
        self.references = [gates.closed_form_kappas(p.core, p.shape) for p in self.points]
        self.warm_point = tucker.random_tucker_point((4, 4, 3), (2, 2, 2), (seed, self.POOL))

    def warm_up(self) -> None:
        tucker.cross_validate(self.warm_point, n_cert_samples=2)

    def op(self, i: int):
        return tucker.cross_validate(self.points[i % self.POOL], n_cert_samples=2, seed=i)

    def check(self, i: int, result, kappa_scale: float = 1.0) -> None:
        ref = self.references[i % self.POOL]
        for entry in result.entries:
            gates.check_closed_form(f"op {i} {entry.variable}", entry.kappa_general * kappa_scale, ref[entry.variable])
        gates.check_closed_form(f"op {i} all", result.kappa_all_general * kappa_scale, ref["all"])


class LinearizedBatch(Workload):
    """``condition_numbers(n_samples=2)`` plus the min-norm oracle on one
    ``random_linearized_blocks`` instance (dims <= 12) per op.

    Set-up draws instances ``(seed, 0), (seed, 1), ...`` and certifies each
    exactly as its op will (same ``n_samples`` and certification seed).  An
    instance whose certificate fails is left out of the pool and counted in
    ``pool_failures``.  About 1 to 2 in 1000 draws fail, with "latent variable
    left the trust region": the resolver moves z past its absolute trust
    radius of 0.5, either because the nearest solution really lies that far
    (one latent variable with a large sensitivity) or because a nearly
    rank-deficient latent block makes its min-norm z steps large.  The count
    is reported, so the failures stay visible, while every timed op
    completes."""

    POOL = 512
    counted_ops = 64

    def __init__(self, seed: int, workdir: Path):
        self.instances = []
        self.pool_failures = 0
        draw = 0
        while len(self.instances) < self.POOL:
            blocks = problems.random_linearized_blocks((seed, draw))
            problem, point = problems.linearized_problem(blocks.j_x, blocks.j_y, blocks.j_z)
            if crep.certify_crep(problem, point, n_samples=2, seed=draw).passed:
                self.instances.append((blocks, problem, point, draw))
            else:
                self.pool_failures += 1
            draw += 1

    def problems(self) -> list:
        return [problem for _, problem, _, _ in self.instances]

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int):
        blocks, problem, point, draw = self.instances[i % self.POOL]
        report = crep.condition_numbers(problem, point, n_samples=2, seed=draw)
        if not report.certificate.passed:
            raise OpFailed("; ".join(report.certificate.messages))
        return report, crep.solution_map_derivative_minnorm(blocks)

    def check(self, i: int, result, kappa_scale: float = 1.0) -> None:
        report, dh_oracle = result
        gates.check_oracle(f"op {i}", report.dh, dh_oracle, report.kappa_y * kappa_scale)


class ResolveValidate(Workload):
    """Perturb-and-resolve validation: per cycle, ``empirical_condition`` with
    16 samples on matrix_factorization(20, 15, 5), with 32 samples on Tucker
    (6, 5, 4)/(3, 3, 2) output U1, and one ``finite_difference_check`` at
    step 1e-4, alternating between the two problems.  Each cycle takes a new
    pair of seeded instances, so a run averages over several of them."""

    POOL = 8
    cycle = 3
    counted_ops = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cases = {"mf": [], "tucker": []}
        for j in range(self.POOL):
            problem, point = problems.matrix_factorization_problem(20, 15, 5, seed=1000 * seed + j)
            dh = crep.solution_map_derivative(crep.evaluate_blocks(problem, point))
            self.cases["mf"].append((problem, point, float(np.linalg.norm(dh, 2))))
            tp = tucker.random_tucker_point((6, 5, 4), (3, 3, 2), (seed, j))
            problem, point = tucker.build_tucker_crep(tucker.TuckerCrepConfig(tp, 0))
            self.cases["tucker"].append((problem, point, gates.closed_form_kappas(tp.core, tp.shape)["U1"]))

    def problems(self) -> list:
        return [problem for cases in self.cases.values() for problem, _, _ in cases]

    def warm_up(self) -> None:
        for kind in ("mf", "tucker"):
            problem, point, _ = self.cases[kind][0]
            empirical.empirical_condition(problem, point, radius=1e-4 * problem.scale, n_samples=1, seed=0)

    def _case(self, i: int):
        c, k = divmod(i, self.cycle)
        kind = ("mf", "tucker", "mf" if c % 2 == 0 else "tucker")[k]
        return k, kind, self.cases[kind][c % self.POOL]

    def op(self, i: int):
        k, kind, (problem, point, _) = self._case(i)
        if k < 2:
            n_samples = 16 if kind == "mf" else 32
            est = empirical.empirical_condition(
                problem, point, radius=1e-4 * problem.scale, n_samples=n_samples, seed=i
            )
            if est.n_failed:
                raise OpFailed(f"{est.n_failed} re-solves failed")
            return est
        rng = np.random.default_rng((self.seed, i))
        direction = rng.standard_normal(problem.dims.dim_x)
        direction /= float(np.linalg.norm(direction))
        return empirical.finite_difference_check(problem, point, direction, [gates.FD_STEP])

    def check(self, i: int, result, kappa_scale: float = 1.0) -> None:
        k, kind, (_, _, kappa_y) = self._case(i)
        if k < 2:
            gates.check_empirical(f"op {i} {kind}", result.max_ratio, kappa_y * kappa_scale)
        else:
            gates.check_fd(f"op {i} {kind}", result[0])


class CliAnalyze(Workload):
    """One fresh ``crepcond analyze <spec> --json <out>`` process per op, over
    four small specs: polar, matrix_factorization(4, 3, 2), custom_linearized
    and an inline (4, 3, 3)/(2, 2, 2) Tucker tensor."""

    cycle = 4
    counted_ops = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng((seed, 0))
        blocks = problems.random_linearized_blocks((seed, 1))
        product = tucker.random_tucker_point((4, 3, 3), (2, 2, 2), (seed, 2)).product
        specs = {
            "polar": {"kind": "polar", "x0": float(rng.uniform(-0.5, 0.5))},
            "matrix_factorization": {"kind": "matrix_factorization", "m": 4, "n": 3, "k_rank": 2, "seed": seed},
            "custom_linearized": {
                "kind": "custom_linearized",
                "J_x": blocks.j_x.tolist(),
                "J_y": blocks.j_y.tolist(),
                "J_z": blocks.j_z.tolist(),
            },
            "tucker": {"kind": "tucker", "tensor": tensor_to_obj(product), "ranks": [2, 2, 2], "output_variable": "U1"},
        }
        self.specs = []
        self.references = []
        for name, spec in specs.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            problem, point = problems.problem_from_spec(spec, base_dir=workdir)
            report = crep.condition_numbers(problem, point, seed=seed)
            self.references.append(
                {"kappa_y": report.kappa_y, "kappa_z": report.kappa_z, "kappa_yz": report.kappa_yz}
                if report.certificate.passed
                else None
            )
            self.specs.append((name, path))
        schema_path = Path(crepcond.__file__).with_name("report_schema.json")
        self.schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self.import_s = {}
        self.report_bytes = {}

    def _run(self, spec_index: int):
        name, spec = self.specs[spec_index]
        out = self.workdir / f"report-{name}.json"
        args = ["analyze", str(spec), "--json", str(out), "--seed", str(self.seed)]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "crepcond.cli", *args]
        else:
            spans = self.workdir / f"spans-{name}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")), str(spans), *args]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        if proc.returncode != 0:
            raise OpFailed(f"{name}: exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}")
        if self.tracer is not None:
            child = json.loads(spans.read_text(encoding="utf-8"))
            op = self.tracer.current_op
            self.import_s[op] = child.pop("import_s")
            self.report_bytes[op] = out.stat().st_size
            self.tracer.merge(child)
        return name, json.loads(out.read_text(encoding="utf-8"))

    def warm_up(self) -> None:
        self._run(0)

    def op(self, i: int):
        return self._run(i % self.cycle)

    def check(self, i: int, result, kappa_scale: float = 1.0) -> None:
        name, doc = result
        reference = self.references[i % self.cycle]
        if reference is None:
            raise gates.GateError(f"op {i} {name}: the library's own certificate failed on this spec")
        scaled = {key: value * kappa_scale for key, value in doc["condition"].items() if key.startswith("kappa")}
        doc = {**doc, "condition": {**doc["condition"], **scaled}}
        gates.check_cli_report(f"op {i} {name}", doc, self.schema, reference)

    def extra_metrics(self, ops) -> dict:
        ops = [op for op in ops if op in self.import_s]
        n = max(len(ops), 1)
        return {
            "cli.import_s": sum(self.import_s[op] for op in ops) / n,
            "cli.report_bytes": sum(self.report_bytes[op] for op in ops) / n,
        }


WORKLOADS = {
    "tucker_xval": TuckerXval,
    "linearized_batch": LinearizedBatch,
    "resolve_validate": ResolveValidate,
    "cli_analyze": CliAnalyze,
}
