"""Command-line front end.

Subcommands::

    crepcond analyze <spec.json>   certify a problem and report its condition numbers
    crepcond tucker <tensor.json>  closed-form Tucker condition numbers, optionally cross-validated
    crepcond verify                run the invariant suites

Exit codes: 0 on success, 1 on usage or input errors, 2 when a rank
certificate or verification check fails.

Reports are JSON and deterministic for a fixed spec and seed, except for
the ``timing_seconds`` field.  The shipped ``report_schema.json`` describes
the format.  The environment variable ``CREPCOND_RTOL`` overrides the
default rank tolerance when ``--rtol`` is not given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, verify
from .crep import CertificationError, ConditionReport, RankHypothesisError, condition_numbers
from .empirical import EmpiricalEstimate, empirical_condition
from .linalg import InconsistentSystemError
from .problems import SpecError, _tucker_point_from_inputs, problem_from_spec
from .tensor import load_tensor
from .tucker import closed_form_kappas, cross_validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2

SCHEMA_VERSION = 1


def _json_float(value):
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def build_report(
    problem_name: str,
    spec: dict | None,
    dims,
    report: ConditionReport,
    empirical: EmpiricalEstimate | None,
    seed: int,
    rtol: float | None,
    timing_seconds: float,
) -> dict:
    # Every field of the two records is written, so report_schema.json must list it.
    certificate = dataclasses.asdict(report.certificate)
    certificate["min_gap"] = _json_float(certificate["min_gap"])
    if empirical is not None:
        empirical = dataclasses.asdict(empirical)
        empirical["max_ratio"] = _json_float(empirical["max_ratio"])
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "seed": seed,
        "rtol": rtol,
        "problem": {"name": problem_name, "spec": spec},
        "dims": dict(zip(("dim_x", "dim_y", "dim_z", "n_residual"), dims)),
        "condition": {
            "kappa_y": _json_float(report.kappa_y),
            "kappa_z": _json_float(report.kappa_z),
            "kappa_yz": _json_float(report.kappa_yz),
            "dh": None if report.dh is None else report.dh.tolist(),
        },
        "certificate": certificate,
        "empirical": empirical,
        "timing_seconds": timing_seconds,
    }


def write_report(report: dict, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _resolve_rtol(args) -> float | None:
    source, value = "--rtol", args.rtol
    if value is None:
        source, value = "environment variable CREPCOND_RTOL", os.environ.get("CREPCOND_RTOL")
        if not value:
            return None
    try:
        rtol = float(value)
        if not (math.isfinite(rtol) and rtol > 0):
            raise ValueError(rtol)
    except ValueError:
        raise SpecError(f"{source} must be a finite positive number, got {value!r}") from None
    return rtol


def _parse_empirical(text: str) -> tuple[int, float]:
    try:
        n_text, radius_text = text.split(":", 1)
        n = int(n_text)
        radius = float(radius_text)
    except ValueError:
        raise SpecError(f"--empirical expects N:RADIUS, got {text!r}")
    if n < 1 or not (math.isfinite(radius) and radius > 0):
        raise SpecError(f"--empirical expects N >= 1 and a finite RADIUS > 0, got {text!r}")
    return n, radius


def cmd_analyze(args) -> int:
    try:
        rtol = _resolve_rtol(args)
        empirical_params = _parse_empirical(args.empirical) if args.empirical else None
        spec_path = Path(args.spec)
        try:
            with open(spec_path, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read spec {spec_path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except json.JSONDecodeError as exc:
            print(f"error: spec {spec_path} is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_USAGE
        problem, point = problem_from_spec(spec, base_dir=spec_path.parent, rtol=rtol)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    start = time.monotonic()
    try:
        report = condition_numbers(problem, point, rtol, seed=args.seed)
        estimate = None
        if empirical_params is not None and report.certificate.passed:
            n_samples, radius = empirical_params
            estimate = empirical_condition(problem, point, radius=radius, n_samples=n_samples, seed=args.seed)
    except (RankHypothesisError, InconsistentSystemError) as exc:
        print(f"error: constant-rank hypotheses violated numerically: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    timing = time.monotonic() - start

    doc = build_report(problem.name, spec, problem.dims, report, estimate, args.seed, rtol, timing)
    if args.json:
        write_report(doc, args.json)

    cert = report.certificate
    print(f"problem: {problem.name}")
    print(f"dims: dim_x={problem.dims.dim_x} dim_y={problem.dims.dim_y} dim_z={problem.dims.dim_z} "
          f"n_residual={problem.dims.n_residual}")
    print(f"certificate: {'pass' if cert.passed else 'FAIL'} (r={cert.r}, k={cert.k}, "
          f"samples={cert.samples_checked}, fragile={cert.fragile})")
    for msg in cert.messages:
        print(f"  - {msg}")
    if cert.passed:
        print(f"kappa_y  = {report.kappa_y:.12g}")
        print(f"kappa_z  = {report.kappa_z:.12g}")
        print(f"kappa_yz = {report.kappa_yz:.12g}")
        if estimate is not None:
            print(f"empirical max_ratio = {estimate.max_ratio:.12g} "
                  f"(radius {estimate.radius:g}, {estimate.n_samples}+1 samples, {estimate.n_failed} failed)")
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def cmd_tucker(args) -> int:
    try:
        rtol = _resolve_rtol(args)
        ranks = tuple(int(r) for r in args.ranks.split(","))
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError:
        print(f"error: --ranks expects comma-separated integers, got {args.ranks!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tensor = load_tensor(args.tensor)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load tensor {args.tensor}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        point = _tucker_point_from_inputs(tensor, ranks, rtol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    cross = None
    if args.cross_validate:
        try:
            cross = cross_validate(point, rtol, seed=args.seed)
        except (CertificationError, RankHypothesisError, InconsistentSystemError) as exc:
            print(f"error: cross-validation failed: {exc}", file=sys.stderr)
            return EXIT_CERTIFICATE
        # label -> (closed form, general pipeline, relative difference)
        rows = {e.variable: (e.kappa_closed, e.kappa_general, e.rel_diff) for e in cross.entries}
        rows["all"] = (cross.kappa_all_expected, cross.kappa_all_general, cross.rel_diff_all)
    else:
        rows = {label: (kappa,) for label, kappa in closed_form_kappas(point, rtol).items()}

    header = f"{'variable':<10} {'kappa_closed':>16}"
    if cross is not None:
        header += f" {'kappa_general':>16} {'rel_diff':>10}"
    print(header)
    for label, row in rows.items():
        if args.all_variables or label != "core":
            general = f" {row[1]:>16.9g} {row[2]:>10.2e}" if cross is not None else ""
            print(f"{label:<10} {row[0]:>16.9g}{general}")

    if cross is not None:
        print(f"max relative difference: {cross.max_rel_diff:.3e}")
        return EXIT_OK if cross.max_rel_diff <= 1e-5 else EXIT_CERTIFICATE
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, seed=args.seed)
    n_failed = sum(not r.passed for r in results)
    print(f"{len(results) - n_failed}/{len(results)} checks passed")
    return EXIT_OK if n_failed == 0 else EXIT_CERTIFICATE


def _seed(text: str) -> int:
    try:
        if (seed := int(text)) >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, the failed-certificate status
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crepcond",
        description="Condition numbers of constant-rank elimination problems.",
    )
    parser.add_argument("--version", action="version", version=f"crepcond {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="certify a problem spec and compute its condition numbers")
    p_analyze.add_argument("spec", help="path to a JSON problem spec")
    p_analyze.add_argument("--rtol", type=float, default=None, help="relative rank tolerance")
    p_analyze.add_argument("--seed", type=_seed, default=0, help="seed for certification and sampling")
    p_analyze.add_argument("--empirical", metavar="N:RADIUS", default=None,
                           help="also run perturb-and-resolve estimation with N samples at RADIUS")
    p_analyze.add_argument("--json", metavar="PATH", default=None, help="write the JSON report here")
    p_analyze.set_defaults(func=cmd_analyze)

    p_tucker = sub.add_parser("tucker", help="condition numbers of a Tucker decomposition")
    p_tucker.add_argument("tensor", help="path to a tensor JSON file {shape, data}")
    p_tucker.add_argument("--ranks", required=True, help="comma-separated multilinear rank, e.g. 2,2")
    p_tucker.add_argument("--rtol", type=float, default=None, help="relative rank tolerance")
    p_tucker.add_argument("--seed", type=_seed, default=0, help="seed for cross-validation certificates")
    p_tucker.add_argument("--all-variables", action="store_true", help="include the core row in the table")
    p_tucker.add_argument("--cross-validate", action="store_true",
                          help="also compute each value with the general pipeline and compare")
    p_tucker.set_defaults(func=cmd_tucker)

    p_verify = sub.add_parser("verify", help="run the invariant verification suites")
    p_verify.add_argument("--suite", choices=sorted(verify.SUITES), default="quick")
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
