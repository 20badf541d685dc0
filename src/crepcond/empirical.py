"""Empirical validation of solution maps and condition numbers.

Everything here is independent of the elimination pipeline: solutions are
re-computed numerically after perturbing the input, so derivative formulas
and condition numbers can be cross-checked against observed behaviour.

* :func:`constrained_nearest_solution` re-solves ``F(x, y, z) = c`` for a
  perturbed input, returning the feasible ``(y, z)`` that locally minimises
  the distance of ``y`` to the reference output (a numerical realisation of
  the canonical solution map).
* :func:`finite_difference_check` compares central differences of the
  resolver against the solution-map derivative.
* :func:`empirical_condition` estimates the condition number by sampling
  perturbations on a sphere and measuring worst-case output movement.
* :func:`jacobian_consistency_check` validates a problem's analytic
  Jacobian against finite differences of its residual.

All randomised routines take an explicit seed; per-sample random streams
are derived from ``(seed, sample index)`` so results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .crep import CrepPoint, CrepProblem, _project, _unit_direction, evaluate_blocks, solution_map_derivative_minnorm
from .linalg import _svd, orthonormalize

__all__ = [
    "EmpiricalEstimate",
    "ResolveFailure",
    "ResolveResult",
    "constrained_nearest_solution",
    "empirical_condition",
    "finite_difference_check",
    "jacobian_consistency_check",
]


class ResolveFailure(RuntimeError):
    """The constrained resolver failed where a converged solution was required."""


@dataclass(frozen=True)
class ResolveResult:
    """Outcome of re-solving the system for a perturbed input."""

    y: np.ndarray
    z: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""
    # Private: (ambient j_x, j_y, j_z, SVD of [j_y j_z] without vectors) at (y, z).
    _evaluation: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Worst observed output/input perturbation ratio over sampled inputs."""

    radius: float
    n_samples: int
    max_ratio: float
    seed: int
    n_failed: int = 0


def _yz_tangent(problem: CrepProblem, x, y, z):
    """Ambient j_x, output/latent charts and their projected blocks at an iterate.

    Unlike :func:`crepcond.crep.chart_blocks` this skips the input chart, so
    it is safe to call at infeasible intermediate iterates.
    """
    jx_a, jy_a, jz_a = problem.jacobian(x, y, z)
    cy = problem.y_chart(x, y, z)
    cz = problem.z_chart(x, y, z)
    return jx_a, cy, cz, _project(problem, jy_a, cy, "y"), _project(problem, jz_a, cz, "z")


def _restore_feasibility(problem, x, y, z, tol, budget):
    """Damped Gauss-Newton on the residual; returns (y, z, rnorm, used)."""
    r = problem.residual(x, y, z)
    current = float(np.linalg.norm(r))
    used = 0
    while current > tol and used < budget:
        _, cy, cz, j_y, j_z = _yz_tangent(problem, x, y, z)
        step, *_ = np.linalg.lstsq(np.hstack([j_y, j_z]), -r, rcond=None)
        dy = cy.basis @ step[: j_y.shape[1]]
        dz = cz.basis @ step[j_y.shape[1] :]
        t = 1.0
        for _ in range(30):
            y_t = problem.y_retract(y, t * dy)
            z_t = problem.z_retract(z, t * dz)
            r_t = problem.residual(x, y_t, z_t)
            new = float(np.linalg.norm(r_t))
            if new <= (1.0 - 1e-4 * t) * current:
                y, z, r, current = y_t, z_t, r_t, new
                break
            t *= 0.5
        else:
            return y, z, current, used + 1
        used += 1
    return y, z, current, used


def constrained_nearest_solution(
    problem: CrepProblem,
    point: CrepPoint,
    x_pert,
    solver_tol: float | None = None,
    max_iter: int = 100,
    z_trust: float | None = None,
) -> ResolveResult:
    """Feasible ``(y, z)`` for input ``x_pert`` locally minimising ``||y - y0||``.

    Runs damped Gauss-Newton from ``(y0, z0)`` until the residual is below
    ``solver_tol`` (default ``1e-12 * problem.scale``), then alternates
    tangent descent steps along the kernel of ``[j_y j_z]`` with
    feasibility restoration until the first-order optimality condition
    holds: the output displacement is orthogonal to the output-projection
    of the kernel within ``10 * solver_tol``.

    The latent variable is kept near its reference value; leaving the trust
    radius ``z_trust`` (default ``0.5 * max(1, ||z0||)``) marks the result
    as not converged.
    """
    x = np.asarray(x_pert, dtype=float).ravel()
    if solver_tol is None:
        solver_tol = 1e-12 * problem.scale
    opt_tol = 10.0 * solver_tol
    # Feasibility is restored below solver_tol so that the jitter it injects
    # into the output stays well under the optimality tolerance.
    restore_tol = max(1e-2 * solver_tol, 50.0 * np.finfo(float).eps * problem.scale)
    if z_trust is None:
        z_trust = 0.5 * max(1.0, float(np.linalg.norm(point.z)))
    y0 = point.y
    y = point.y.copy()
    z = point.z.copy()
    dim_y = problem.dims.dim_y
    iters = 0
    message = ""
    converged = False

    def tangent_state(yv, zv):
        jx_a, cy, cz, j_y, j_z = _yz_tangent(problem, x, yv, zv)
        j_yz = np.hstack([j_y, j_z])
        f = _svd(j_yz, full=j_yz.shape[0] < j_yz.shape[1])
        e = cy.basis.T @ (yv - y0)
        b = orthonormalize(f.vh[f.rank :, :dim_y].T)
        opt = float(np.linalg.norm(b.T @ e)) if b.size else 0.0
        return cy, cz, j_y, j_z, e, b, opt, (jx_a, j_y, j_z, f._replace(u=None, vh=None))

    y, z, current, used = _restore_feasibility(problem, x, y, z, restore_tol, max_iter)
    iters += used
    if not current <= solver_tol:  # also a non-finite residual
        message = "feasibility restoration stalled" if math.isfinite(current) else "residual is not finite"
        return ResolveResult(y=y, z=z, residual_norm=current, iterations=iters, converged=False, message=message)
    state = tangent_state(y, z)

    for _ in range(max_iter):
        cy, cz, j_y, j_z, e, b, opt, _ = state
        if opt <= opt_tol:
            converged = True
            break
        if iters >= max_iter:
            message = "iteration budget exhausted"
            break

        # Tangent descent: remove the output-error component that lies in the
        # output-projection of the kernel, and move the latent variable by the
        # minimum-norm amount feasibility requires (this keeps pure gauge
        # directions, which would move z without improving y, out of the
        # step).  Acceptance is measured on the first-order optimality
        # residual, which the step contracts; near the optimum the squared
        # output distance changes by less than restoration noise, so it
        # cannot serve as the acceptance criterion.
        dy = -(b @ (b.T @ e))
        dz, *_ = np.linalg.lstsq(j_z, -(j_y @ dy), rcond=None)
        t = 1.0
        for _ in range(25):
            y_t = problem.y_retract(y, cy.basis @ (t * dy))
            z_t = problem.z_retract(z, cz.basis @ (t * dz))
            y_t, z_t, r_t, used = _restore_feasibility(
                problem, x, y_t, z_t, restore_tol, max(1, max_iter - iters)
            )
            iters += used
            if r_t <= solver_tol:
                state_t = tangent_state(y_t, z_t)
                if state_t[6] <= max(opt * (1.0 - 1e-2 * t), 0.5 * opt_tol):
                    y, z, current, state = y_t, z_t, r_t, state_t
                    break
            t *= 0.5
        else:
            message = "tangent descent stalled"
            break
    else:
        message = "iteration budget exhausted"

    if converged and float(np.linalg.norm(z - point.z)) > z_trust:
        converged = False
        message = "latent variable left the trust region"
    return ResolveResult(
        y=y, z=z, residual_norm=current, iterations=iters, converged=converged, message=message, _evaluation=state[7]
    )


def finite_difference_check(
    problem: CrepProblem,
    point: CrepPoint,
    direction,
    steps,
    solver_tol: float | None = None,
    max_iter: int = 100,
) -> list[float]:
    """Relative errors of central differences of the resolver against ``DH``.

    ``direction`` is a unit vector in the input chart.  For each step ``t``
    the input is moved to ``x0 +- t * direction`` (retracted), re-solved,
    and ``(y(t) - y(-t)) / 2t`` is compared with the ambient image of
    ``DH @ direction``.  Errors decrease with ``t`` down to the solver
    noise floor.  A failed re-solve raises :class:`ResolveFailure`.
    """
    direction = np.asarray(direction, dtype=float).ravel()
    if abs(float(np.linalg.norm(direction)) - 1.0) > 1e-8:
        raise ValueError("direction must have unit norm in the input chart")
    blocks = evaluate_blocks(problem, point)
    dh = solution_map_derivative_minnorm(blocks)
    cy = problem.y_chart(point.x, point.y, point.z)
    predicted = cy.basis @ (dh @ direction)
    pred_norm = float(np.linalg.norm(predicted))
    errors = []
    for t in steps:
        t = float(t)
        if not t > 0.0:
            raise ValueError("steps must be positive")
        results = []
        for sign in (+1.0, -1.0):
            x_t = problem.x_retract(point.x, blocks._x_basis @ (sign * t * direction))
            res = constrained_nearest_solution(
                problem, point, x_t, solver_tol=solver_tol, max_iter=max_iter
            )
            if not res.converged:
                raise ResolveFailure(f"re-solve failed at step {sign * t:+.3e}: {res.message}")
            results.append(res)
        fd = (results[0].y - results[1].y) / (2.0 * t)
        errors.append(float(np.linalg.norm(fd - predicted)) / max(pred_norm, np.finfo(float).tiny))
    return errors


def empirical_condition(
    problem: CrepProblem,
    point: CrepPoint,
    radius: float,
    n_samples: int,
    seed: int = 0,
    solver_tol: float | None = None,
    max_iter: int = 100,
) -> EmpiricalEstimate:
    """Estimate the condition number by perturb-and-resolve sampling.

    Inputs are sampled uniformly on the radius sphere of the input chart;
    the top right-singular direction of ``DH`` is always added as one
    deterministic extra sample, so the estimate brackets the condition
    number from below at first order.  The reported ratio uses the actual
    ambient input distance after retraction.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    blocks = evaluate_blocks(problem, point)
    dh = solution_map_derivative_minnorm(blocks)
    directions = [_unit_direction(seed, i, problem.dims.dim_x) for i in range(n_samples)]
    if dh.size:
        directions.append(_svd(dh).vh[0])

    max_ratio = 0.0
    n_failed = 0
    for u in directions:
        x_t = problem.x_retract(point.x, blocks._x_basis @ (radius * u))
        res = constrained_nearest_solution(
            problem, point, x_t, solver_tol=solver_tol, max_iter=max_iter
        )
        if not res.converged:
            n_failed += 1
            continue
        dx = float(np.linalg.norm(x_t - point.x))
        if dx == 0.0:
            continue
        max_ratio = max(max_ratio, float(np.linalg.norm(res.y - point.y)) / dx)
    if n_failed == len(directions):
        max_ratio = float("nan")
    return EmpiricalEstimate(
        radius=float(radius), n_samples=n_samples, max_ratio=max_ratio, seed=seed, n_failed=n_failed
    )


def jacobian_consistency_check(
    problem: CrepProblem,
    point: CrepPoint,
    steps=(1e-4, 1e-5, 1e-6),
    n_directions: int = 4,
    seed: int = 0,
) -> list[list[float]]:
    """Central-difference validation of the ambient Jacobian evaluator.

    For seeded random ambient directions ``d`` and each step ``t``, returns
    ``||(F(p + t d) - F(p - t d)) / 2t - DF(p) d||``.  The errors shrink
    like ``t**2`` until roundoff dominates.  One list of errors (one per
    step) is returned per direction.
    """
    x0, y0, z0 = point.x, point.y, point.z
    jx_a, jy_a, jz_a = problem.jacobian(x0, y0, z0)
    nx, ny = x0.size, y0.size
    errors = []
    for i in range(n_directions):
        rng = np.random.default_rng((seed, i))
        d = rng.standard_normal(nx + ny + z0.size)
        d /= float(np.linalg.norm(d))
        dx, dy, dz = d[:nx], d[nx : nx + ny], d[nx + ny :]
        analytic = jx_a @ dx + jy_a @ dy + jz_a @ dz
        per_step = []
        for t in steps:
            plus = problem.residual(x0 + t * dx, y0 + t * dy, z0 + t * dz)
            minus = problem.residual(x0 - t * dx, y0 - t * dy, z0 - t * dz)
            per_step.append(float(np.linalg.norm((plus - minus) / (2.0 * t) - analytic)))
        errors.append(per_step)
    return errors
