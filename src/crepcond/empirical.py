"""Empirical validation of solution maps and condition numbers.

Everything here is independent of the elimination pipeline: solutions are
re-computed numerically after perturbing the input, so derivative formulas
and condition numbers can be cross-checked against observed behaviour.

* :func:`constrained_nearest_solution` re-solves ``F(x, y, z) = c`` for a
  perturbed input, returning the feasible ``(y, z)`` that locally minimises
  the distance of ``y`` to the reference output (a numerical realisation of
  the canonical solution map).  Each of its steps is the minimum-norm solve
  of ``[j_y j_z]`` that defines ``DH`` in the kappa stage, applied to the
  residual and the current output error.
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

from .crep import CrepPoint, CrepProblem, _evaluate, _unit_direction, evaluate_blocks, solution_map_derivative_minnorm
from .linalg import _lstsq, _svd

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
    """Outcome of re-solving the system for a perturbed input; ``iterations``
    counts linearisations, one per evaluation of the Jacobian blocks."""

    y: np.ndarray
    z: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""
    # Private: (j_x, j_y, j_z, SVD of [j_y j_z] without vectors) at (y, z), as crep._evaluate
    # returns them (crep._x_block puts j_x in x-chart coordinates).
    _evaluation: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Worst observed output/input perturbation ratio over sampled inputs."""

    radius: float
    n_samples: int
    max_ratio: float
    seed: int
    n_failed: int = 0


def constrained_nearest_solution(
    problem: CrepProblem,
    point: CrepPoint,
    x_pert,
    max_iter: int = 100,
    z_trust: float | None = None,
) -> ResolveResult:
    """Feasible ``(y, z)`` for input ``x_pert`` locally minimising ``||y - y0||``.

    Each iteration evaluates the blocks and charts once at the current ``(y, z)``,
    starting from ``(y0, z0)``, and takes a Newton step with the
    Moore-Penrose inverse cut at ``problem.rtol``, chosen as the kappa stage
    chooses ``DH``: of the least-squares solutions of ``j_y dy + j_z dz = -r``
    (coordinates of the y and z charts that evaluation returns, ``r`` the
    residual), the one with the smallest new output error ``e + dy``.  With
    the problem's ``tangent_blocks`` the blocks and charts come from that one
    call and the system is solved in its compressed residual coordinates,
    which have the same least-squares solutions.  One backtracking rule on
    the (ambient) residual sets the step length.
    The result is converged once the residual is at most ``solver_tol =
    1e-12 * problem.scale`` and ``||dy||``, at a feasible point
    the first-order optimality residual, at most ``10 * solver_tol``.  Ending
    farther than ``z_trust`` (default ``0.5 * max(1, ||z0||)``) from ``z0``
    marks the result as not converged.
    """
    x = np.asarray(x_pert, dtype=float).ravel()
    solver_tol = 1e-12 * problem.scale
    if z_trust is None:
        z_trust = 0.5 * max(1.0, float(np.linalg.norm(point.z)))
    dim_y, rtol = problem.dims.dim_y, problem.rtol
    y, z = point.y.copy(), point.z.copy()
    r = problem.residual(x, y, z)
    current = float(np.linalg.norm(r))
    evaluation = None
    message = "residual is not finite"
    iterations = 0
    # The line search accepts only finite residuals, so this tests the start.
    while math.isfinite(current):
        iterations += 1
        j_x, j_y, j_z, qr, cy, cz = _evaluate(problem, x, y, z, r)
        j_yz = np.hstack([j_y, j_z])
        f = _svd(j_yz, rtol, full=j_yz.shape[0] < j_yz.shape[1])
        evaluation = (j_x, j_y, j_z, f._replace(u=None, vh=None))
        # Every least-squares solution of [j_y j_z](w, dz) = j_y e - r is
        # p + K c, K the kernel; c minimises the new output error |w| = |e + dy|.
        e = cy.basis.T @ (y - point.y)
        p = _lstsq(f, j_y @ e - qr)
        kern = f.vh[f.rank :].T
        c = -_lstsq(_svd(kern[:dim_y], rtol, scale=1.0), p[:dim_y])  # rows of the orthonormal kernel
        dy = p[:dim_y] + kern[:dim_y] @ c - e
        dz = p[dim_y:] + kern[dim_y:] @ c
        if current <= solver_tol and float(np.linalg.norm(dy)) <= 10.0 * solver_tol:
            trusted = float(np.linalg.norm(z - point.z)) <= z_trust
            message = "" if trusted else "latent variable left the trust region"
            break
        if iterations > max_iter:
            message = "iteration budget exhausted"
            break
        # A full step along the kernel raises the residual by O(|dy|^2), so
        # any residual up to solver_tol is accepted.
        t = 1.0
        for _ in range(30):
            y_t = problem.y_retract(y, cy.basis @ (t * dy))
            z_t = problem.z_retract(z, cz.basis @ (t * dz))
            r_t = problem.residual(x, y_t, z_t)
            new = float(np.linalg.norm(r_t))
            if new <= max((1.0 - 1e-4 * t) * current, solver_tol):
                y, z, r, current = y_t, z_t, r_t, new
                break
            t *= 0.5
        else:
            message = "line search stalled"
            break
    return ResolveResult(
        y=y, z=z, residual_norm=current, iterations=iterations, converged=not message, message=message,
        _evaluation=evaluation,
    )


def finite_difference_check(
    problem: CrepProblem,
    point: CrepPoint,
    direction,
    steps,
) -> list[float]:
    """Relative errors of central differences of the resolver against ``DH``.

    ``direction`` is a unit vector in the input chart.  For each step ``t``
    the input is moved to ``x0 +- t * direction`` (retracted), re-solved in
    at most 100 iterations, and ``(y(t) - y(-t)) / 2t`` is compared with the
    ambient image of ``DH @ direction``.  Errors decrease with ``t`` down to
    the solver noise floor.  A failed re-solve raises :class:`ResolveFailure`.
    """
    direction = np.asarray(direction, dtype=float).ravel()
    if abs(float(np.linalg.norm(direction)) - 1.0) > 1e-8:
        raise ValueError("direction must have unit norm in the input chart")
    blocks = evaluate_blocks(problem, point)
    dh = solution_map_derivative_minnorm(blocks, problem.rtol)
    predicted = blocks._y_basis @ (dh @ direction)
    pred_norm = float(np.linalg.norm(predicted))
    errors = []
    for t in steps:
        t = float(t)
        if not t > 0.0:
            raise ValueError("steps must be positive")
        results = []
        for sign in (+1.0, -1.0):
            x_t = problem.x_retract(point.x, blocks._x_basis @ (sign * t * direction))
            res = constrained_nearest_solution(problem, point, x_t)
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
    dh = solution_map_derivative_minnorm(blocks, problem.rtol)
    directions = [_unit_direction(seed, i, problem.dims.dim_x) for i in range(n_samples)]
    if dh.size:
        directions.append(_svd(dh).vh[0])

    max_ratio = 0.0
    n_failed = 0
    for u in directions:
        x_t = problem.x_retract(point.x, blocks._x_basis @ (radius * u))
        res = constrained_nearest_solution(problem, point, x_t)
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
    seed: int = 0,
) -> list[list[float]]:
    """Central-difference validation of the ambient Jacobian evaluator.

    For 4 seeded random ambient directions ``d`` and each step ``t``, returns
    ``||(F(p + t d) - F(p - t d)) / 2t - DF(p) d||``.  The errors shrink
    like ``t**2`` until roundoff dominates.  One list of errors (one per
    step) is returned per direction.  A ``None`` input Jacobian is the identity.
    """
    x0, y0, z0 = point.x, point.y, point.z
    jx_a, jy_a, jz_a = problem.jacobian(x0, y0, z0)
    nx, ny = x0.size, y0.size
    errors = []
    for i in range(4):
        rng = np.random.default_rng((seed, i))
        d = rng.standard_normal(nx + ny + z0.size)
        d /= float(np.linalg.norm(d))
        dx, dy, dz = d[:nx], d[nx : nx + ny], d[nx + ny :]
        analytic = (dx if jx_a is None else jx_a @ dx) + jy_a @ dy + jz_a @ dz
        per_step = []
        for t in steps:
            plus = problem.residual(x0 + t * dx, y0 + t * dy, z0 + t * dz)
            minus = problem.residual(x0 - t * dx, y0 - t * dy, z0 - t * dz)
            per_step.append(float(np.linalg.norm((plus - minus) / (2.0 * t) - analytic)))
        errors.append(per_step)
    return errors
