"""Correctness gates applied to every op, at the thresholds of ``crepcond verify``.

A gate raises :class:`GateError` on a wrong answer; the benchmark then stops
and exits nonzero.  An op the library itself reports as failed (failed
certificate, rank-hypothesis error, resolver non-convergence, nonzero CLI
exit) is not a wrong answer: it only counts toward the failed ops.
"""

from __future__ import annotations

import numpy as np

# verify.check_tucker_closed_form: general-pipeline kappa against the closed form.
CLOSED_FORM_TOL = 1e-6
# verify.check_pipeline_oracle_equivalence: pipeline DH against the min-norm DH.
ORACLE_TOL = 1e-10
# verify.check_empirical_bounds: empirical max_ratio within 5% of kappa_y.
EMPIRICAL_BAND = 0.05
# verify.check_finite_difference: central-difference error at step 1e-4.
FD_STEP = 1e-4
FD_TOL = 1e-4
# A CLI report must carry the library's kappa up to roundoff.
CLI_KAPPA_TOL = 1e-12


class GateError(AssertionError):
    """An op produced a wrong answer."""


def closed_form_kappas(core: np.ndarray, shape) -> dict:
    """Tucker condition numbers from the closed form, computed here with numpy
    alone: 1 for the core, 0 for a square factor, else 1 / sigma_min of the
    core's mode flattening; ``all`` is the largest of them."""
    kappas = {"core": 1.0}
    for d, n in enumerate(shape):
        m = core.shape[d]
        flat = np.moveaxis(core, d, 0).reshape(m, -1)
        kappas[f"U{d + 1}"] = 0.0 if n == m else 1.0 / float(np.linalg.svd(flat, compute_uv=False)[m - 1])
    kappas["all"] = max(kappas.values())
    return kappas


def check_closed_form(label: str, kappa: float, reference: float) -> None:
    rel = abs(kappa - reference) / (1.0 + reference)
    if not rel <= CLOSED_FORM_TOL:
        raise GateError(f"{label}: kappa {kappa!r} differs from closed form {reference!r} (rel {rel:.3e})")


def check_oracle(label: str, dh: np.ndarray, dh_oracle: np.ndarray, kappa_y: float) -> None:
    scale = 1.0 + float(np.linalg.norm(dh))
    err = float(np.linalg.norm(dh - dh_oracle)) / scale
    if not err <= ORACLE_TOL:
        raise GateError(f"{label}: pipeline DH differs from min-norm DH by {err:.3e}")
    kappa_oracle = float(np.linalg.norm(dh_oracle, 2)) if dh_oracle.size else 0.0
    err = abs(kappa_y - kappa_oracle) / (1.0 + kappa_oracle)
    if not err <= ORACLE_TOL:
        raise GateError(f"{label}: kappa_y {kappa_y!r} differs from the oracle's {kappa_oracle!r}")


def check_empirical(label: str, max_ratio: float, kappa_y: float) -> None:
    rel = abs(max_ratio - kappa_y) / kappa_y
    if not rel <= EMPIRICAL_BAND:
        raise GateError(f"{label}: empirical max_ratio {max_ratio!r} is {rel:.3e} away from kappa_y {kappa_y!r}")


def check_fd(label: str, error: float) -> None:
    if not error <= FD_TOL:
        raise GateError(f"{label}: finite-difference error {error:.3e} at step {FD_STEP:g} exceeds {FD_TOL:g}")


def check_cli_report(label: str, doc: dict, schema: dict, reference: dict) -> None:
    import jsonschema

    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise GateError(f"{label}: report does not validate against report_schema.json: {exc.message}") from exc
    for key, ref in reference.items():
        got = doc["condition"][key]
        if got is None or not abs(got - ref) <= CLI_KAPPA_TOL * (1.0 + abs(ref)):
            raise GateError(f"{label}: report {key} {got!r} differs from the library's {ref!r}")


def self_check() -> list[str]:
    """Feed each kappa gate a deliberately wrong kappa; return the names of
    the gates that wrongly accepted it (empty when every gate is active)."""
    wrong = 1.5
    dh = np.array([[2.0, 0.0], [0.0, 1.0]])
    cases = {
        "closed_form": lambda: check_closed_form("self-check", 4.0 * wrong, 4.0),
        "oracle": lambda: check_oracle("self-check", dh, dh, 2.0 * wrong),
        "empirical": lambda: check_empirical("self-check", 2.0, 2.0 * wrong),
        "cli_report": lambda: check_cli_report(
            "self-check",
            {"condition": {"kappa_y": 2.0 * wrong}},
            {},
            {"kappa_y": 2.0},
        ),
        "fd": lambda: check_fd("self-check", 10.0 * FD_TOL),
    }
    accepted = []
    for name, case in cases.items():
        try:
            case()
        except GateError:
            continue
        accepted.append(name)
    return accepted
