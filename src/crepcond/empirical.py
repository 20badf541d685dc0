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
from dataclasses import dataclass

import numpy as np

from .crep import (CrepPoint, CrepProblem, _evaluate, _nearest_solution, _predicted_starts, _reference_blocks,
                   _unit_direction, solution_map_derivative_minnorm)
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
    """Outcome of re-solving the system for a perturbed input; ``iterations`` counts
    evaluations of the Jacobian blocks: one at the start and one after each Newton step.
    ``message`` is empty when converged, else "residual is not finite", "iteration budget
    exhausted" or "line search stalled"."""

    y: np.ndarray
    z: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""


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
    *, start: tuple | None = None,
) -> ResolveResult:
    """Feasible ``(y, z)`` for input ``x_pert`` locally minimising ``||y - y0||``.

    Each iteration evaluates the blocks and charts once at the current ``(y, z)``, the first at
    ``start`` (ambient; default ``(y0, z0)``), and takes a Newton step with the Moore-Penrose inverse
    cut at ``problem.rtol``, chosen as the kappa stage chooses ``DH``: of the least-squares solutions
    of ``j_y dy + j_z dz = -r`` (``r`` the residual, all in the coordinates that evaluation returns,
    see :class:`crepcond.crep.CrepProblem`), the one with the smallest new output error ``e + dy``.
    One backtracking rule on the (ambient) residual sets the step length.  The result is converged
    once the residual is at most ``solver_tol = 1e-12 * problem.scale`` and ``||dy||``, at a feasible
    point the first-order optimality residual, at most ``10 * solver_tol``, wherever ``z`` ends.
    ``max_iter`` bounds the Newton steps, so ``iterations`` (evaluations) is at most ``max_iter + 1``.
    A result that is not converged says why: "residual is not finite" (at the start), "iteration
    budget exhausted" or "line search stalled".
    """
    x = np.asarray(x_pert, dtype=float).ravel()
    solver_tol = 1e-12 * problem.scale
    dim_y, rtol = problem.dims.dim_y, problem.rtol
    y, z = (np.array(v, dtype=float) for v in ((point.y, point.z) if start is None else start))
    r = problem.residual(x, y, z)
    current = float(np.linalg.norm(r))
    message = "residual is not finite"
    iterations = 0
    # The line search accepts only finite residuals, so this tests the start.
    while math.isfinite(current):
        iterations += 1
        _, j_y, j_z, qr, cy, cz = _evaluate(problem, x, y, z, r)
        j_yz = np.hstack([j_y, j_z])
        f = _svd(j_yz, rtol, full=j_yz.shape[0] < j_yz.shape[1])
        # Every least-squares solution of [j_y j_z](w, dz) = j_y e - r is
        # p + K c, K the kernel; c minimises the new output error |w| = |e + dy|.
        e = cy.basis.T @ (y - point.y)
        p = _lstsq(f, j_y @ e - qr)
        kern = f.vh[f.rank :].T
        w, c = _nearest_solution(p, kern, slice(0, dim_y), rtol)
        dy = w - e
        dz = p[dim_y:] + kern[dim_y:] @ c
        if current <= solver_tol and float(np.linalg.norm(dy)) <= 10.0 * solver_tol:
            message = ""
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
    return ResolveResult(y=y, z=z, residual_norm=current, iterations=iterations, converged=not message, message=message)


def _resolves(problem: CrepProblem, point: CrepPoint, blocks, moves: np.ndarray):
    """For each row of ``moves`` (x-chart coordinates), one at a time: the input ``x`` moved from ``point``
    along ``blocks``' x chart and retracted, and its re-solve from the first-order prediction ``y_pred``
    (:func:`crep._predicted_starts`), kept if it converged and its correction is second order:
    ``||y - y_pred|| <= 0.1 * ||y_pred - y0|| + 1e-12 * problem.scale``.  Otherwise the re-solve from
    ``(y0, z0)``.  y is the variable kappa_y measures; ``z`` may end anywhere.

    Near the point the prediction misses the solution by O(radius**2) (0.13 to 2 * radius**2 / scale on the
    built-in problems) while it moves y by O(radius); a larger correction means the first-order model fails,
    as on polar at radius 1, where the prediction converges to the other branch of the solution set.  The
    absolute slack is the resolver's tolerance, so ``y_pred = y0`` (``kappa_y = 0``) is kept at ``y0``.
    """
    for move, (y_pred, z_pred) in zip(moves, _predicted_starts(problem, point, blocks, moves)):
        x = problem.x_retract(point.x, blocks._x_basis @ move)
        res = constrained_nearest_solution(problem, point, x, start=(y_pred, z_pred))
        bound = 0.1 * float(np.linalg.norm(y_pred - point.y)) + 1e-12 * problem.scale
        if not (res.converged and float(np.linalg.norm(res.y - y_pred)) <= bound):
            res = constrained_nearest_solution(problem, point, x)
        yield x, res


def finite_difference_check(
    problem: CrepProblem,
    point: CrepPoint,
    direction,
    steps,
) -> list[float]:
    """Relative errors of central differences of the resolver against ``DH``.

    ``direction`` is a unit vector in the input chart.  For each step ``t`` the input is moved to
    ``x0 +- t * direction`` (retracted) and re-solved in at most 100 Newton steps, from the first-order
    prediction while its correction is second order, else from ``(y0, z0)`` (:func:`_resolves`),
    and ``(y(t) - y(-t)) / 2t`` is compared with the ambient image of ``DH @ direction``.  Errors decrease
    with ``t`` down to the solver noise floor.  A failed re-solve raises :class:`ResolveFailure`.
    """
    direction = np.asarray(direction, dtype=float).ravel()
    if abs(float(np.linalg.norm(direction)) - 1.0) > 1e-8:
        raise ValueError("direction must have unit norm in the input chart")
    steps = [float(t) for t in steps]
    if not all(t > 0.0 for t in steps):
        raise ValueError("steps must be positive")
    blocks = _reference_blocks(problem, point)
    dh = solution_map_derivative_minnorm(blocks, problem.rtol)
    predicted = blocks._y_basis @ (dh @ direction)
    pred_norm = float(np.linalg.norm(predicted))
    signed = [sign * t for t in steps for sign in (+1.0, -1.0)]
    moves = np.array([s * direction for s in signed]).reshape(len(signed), direction.size)
    ys = []
    for s, (_, res) in zip(signed, _resolves(problem, point, blocks, moves)):
        if not res.converged:
            raise ResolveFailure(f"re-solve failed at step {s:+.3e}: {res.message}")
        ys.append(res.y)
    return [float(np.linalg.norm((y_plus - y_minus) / (2.0 * t) - predicted)) / max(pred_norm, np.finfo(float).tiny)
            for t, y_plus, y_minus in zip(steps, ys[0::2], ys[1::2])]


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
    ambient input distance after retraction.  Each sample is re-solved from
    its first-order prediction while the correction is second order, else
    from ``(y0, z0)`` (:func:`_resolves`): past the
    certificate's radius a prediction can reach another branch of the
    solution set, as on polar at radius 1, or stall at its pole ``y = 0``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    blocks = _reference_blocks(problem, point)
    dh = solution_map_derivative_minnorm(blocks, problem.rtol)
    directions = [_unit_direction(seed, i, problem.dims.dim_x) for i in range(n_samples)]
    if dh.size:
        directions.append(_svd(dh).vh[0])
    moves = np.array([radius * u for u in directions]).reshape(len(directions), problem.dims.dim_x)

    max_ratio = 0.0
    n_failed = 0
    for x_t, res in _resolves(problem, point, blocks, moves):
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
