"""Builtin problem families and the JSON problem-spec registry.

Four kinds are available:

``polar``
    A two-equation system in one input ``x`` whose dependent variables are
    polar coordinates ``(radius y, angle z)`` of a point constrained to a
    circle of radius ``1 / (1 - x)`` and to the diagonal.  The solution map
    is ``y(x) = 1 / (1 - x)``, ``z(x) = pi / 4``: the radius is sensitive
    to the input, the angle is not, giving condition numbers
    ``(kappa_y, kappa_z, kappa_yz) = (1, 0, 1)`` at ``x0 = 0``.  The input
    domain is ``x < 1``, past which the residual is NaN; ``y > 0`` and
    ``z in (0, pi/2)`` keep the rank hypotheses valid near the reference
    solution.

``matrix_factorization``
    ``X - Y Z = 0`` for a rank-``k`` matrix ``X``: recover a basis ``Y`` of
    the column space with latent coefficient matrix ``Z``.  Solutions come
    in ``GL(k)`` orbits ``(Y G, G^-1 Z)``, so the kernel of the dependent
    Jacobian has dimension ``k**2``.

``tucker``
    The Tucker decomposition problem from :mod:`crepcond.tucker`.

``custom_linearized``
    A linear system built from explicit Jacobian blocks; useful for
    studying the elimination pipeline itself.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .crep import CrepDims, CrepPoint, CrepProblem, JacobianBlocks, TangentChart, make_crep_point
from .linalg import _svd, as_matrix, orthonormalize, spectral_norm
from .tensor import _is_int, load_tensor, multilinear_rank, hosvd, tensor_from_obj
from .tucker import TuckerCrepConfig, build_tucker_crep

__all__ = [
    "SpecError",
    "PROBLEM_KINDS",
    "linearized_problem",
    "matrix_factorization_problem",
    "polar_problem",
    "problem_from_spec",
    "random_linearized_blocks",
]


class SpecError(ValueError):
    """A problem specification is malformed; the message names the field."""


def _flat_chart(dim: int):
    chart = TangentChart.full(dim)
    return lambda x, y, z: chart


def polar_problem(x0: float = 0.0) -> tuple[CrepProblem, CrepPoint]:
    """Circle-plus-diagonal system in polar coordinates.

    Equations: ``y**2 = (x - 1)**-2`` and ``y cos z - y sin z = 0``; the
    reference solution is ``(x0, 1 / (1 - x0), pi / 4)``.  Requires a finite
    ``x0 < 1``; outside that domain the residual and ``j_x`` are NaN.
    """
    x0 = float(x0)
    if not (math.isfinite(x0) and x0 < 1.0):
        raise ValueError(f"x0 must be finite and below 1, got {x0}")
    y0 = 1.0 / (1.0 - x0)
    z0 = math.pi / 4.0

    def pole(x, power):
        xv = float(x[0])
        return (xv - 1.0) ** power if xv < 1.0 else math.nan  # also NaN for a NaN input

    def residual(x, y, z):
        yv, zv = float(y[0]), float(z[0])
        return np.array([yv**2 - pole(x, -2), yv * math.cos(zv) - yv * math.sin(zv)])

    def jacobian(x, y, z):
        yv, zv = float(y[0]), float(z[0])
        j_x = np.array([[2.0 * pole(x, -3)], [0.0]])
        j_y = np.array([[2.0 * yv], [math.cos(zv) - math.sin(zv)]])
        j_z = np.array([[0.0], [-yv * (math.sin(zv) + math.cos(zv))]])
        return j_x, j_y, j_z

    problem = CrepProblem(
        name=f"polar(x0={x0:g})",
        dims=CrepDims(1, 1, 1, 2),
        residual=residual,
        jacobian=jacobian,
        x_chart=_flat_chart(1),
        y_chart=_flat_chart(1),
        z_chart=_flat_chart(1),
        scale=max(1.0, abs(x0), y0, z0),
    )
    point = make_crep_point(problem, [x0], [y0], [z0])
    return problem, point


def matrix_factorization_problem(m: int, n: int, k_rank: int, seed: int = 0) -> tuple[CrepProblem, CrepPoint]:
    """Recover ``Y`` in ``X - Y Z = 0`` for a seeded random rank-``k`` matrix.

    The input manifold is the set of rank-``k`` matrices; its tangent chart
    is built by orthonormalizing the image of the parametrisation
    derivative ``(dY, dZ) -> dY Z + Y dZ`` and the retraction truncates
    back to rank ``k`` by SVD.
    """
    if not 1 <= k_rank <= min(m, n):
        raise ValueError(f"need 1 <= k_rank <= min(m, n), got k_rank={k_rank}")
    rng = np.random.default_rng(seed)
    y_ref = rng.standard_normal((m, k_rank))
    z_ref = rng.standard_normal((k_rank, n))
    x_ref = y_ref @ z_ref
    dim_x = (m + n - k_rank) * k_rank

    def jacobian(x, y, z):  # dF/dx is the identity, given as None (see CrepProblem)
        y_mat = y.reshape(m, k_rank)
        z_mat = z.reshape(k_rank, n)
        return None, -np.kron(np.eye(m), z_mat.T), -np.kron(y_mat, np.eye(n))

    def residual(x, y, z):
        return x - (y.reshape(m, k_rank) @ z.reshape(k_rank, n)).ravel()

    def x_chart(x, y, z):
        _, j_y, j_z = jacobian(x, y, z)
        basis = orthonormalize(np.hstack([j_y, j_z]))
        if basis.shape[1] != dim_x:
            raise ValueError(f"input tangent space has dimension {basis.shape[1]}, expected {dim_x}")
        return TangentChart(m * n, basis)

    def x_retract(x, dx):
        f = _svd((x + dx).reshape(m, n))
        return (f.u[:, :k_rank] * f.s[:k_rank]) @ f.vh[:k_rank]

    def x_retract_vec(x, dx):
        return x_retract(x, dx).ravel()

    problem = CrepProblem(
        name=f"matrix_factorization(m={m}, n={n}, k={k_rank}, seed={seed})",
        dims=CrepDims(dim_x, m * k_rank, k_rank * n, m * n),
        residual=residual,
        jacobian=jacobian,
        x_chart=x_chart,
        y_chart=_flat_chart(m * k_rank),
        z_chart=_flat_chart(k_rank * n),
        x_retract=x_retract_vec,
        scale=max(1.0, float(np.linalg.norm(x_ref))),
    )
    point = make_crep_point(problem, x_ref.ravel(), y_ref.ravel(), z_ref.ravel())
    return problem, point


def linearized_problem(j_x, j_y, j_z) -> tuple[CrepProblem, CrepPoint]:
    """Linear system ``j_x x + j_y y + j_z z = 0`` at the origin, named "custom_linearized".

    A linear map has globally constant rank, so this is a valid elimination
    problem whenever the blocks satisfy ``rank [j_x j_y j_z] = rank [j_y j_z]``.
    """
    blocks = JacobianBlocks(j_x=j_x, j_y=j_y, j_z=j_z)
    j_x, j_y, j_z = blocks.j_x, blocks.j_y, blocks.j_z
    n_res = blocks.n_residual
    dim_x, dim_y, dim_z = j_x.shape[1], j_y.shape[1], j_z.shape[1]

    def residual(x, y, z):
        return j_x @ x + j_y @ y + j_z @ z

    def jacobian(x, y, z):
        return j_x, j_y, j_z

    problem = CrepProblem(
        name="custom_linearized",
        dims=CrepDims(dim_x, dim_y, dim_z, n_res),
        residual=residual,
        jacobian=jacobian,
        x_chart=_flat_chart(dim_x),
        y_chart=_flat_chart(dim_y),
        z_chart=_flat_chart(dim_z),
        scale=max(1.0, spectral_norm(j_x), spectral_norm(j_y), spectral_norm(j_z)),
    )
    point = make_crep_point(problem, np.zeros(dim_x), np.zeros(dim_y), np.zeros(dim_z))
    return problem, point


def _conditioned(rng, rows: int, cols: int, smin: float = 0.3, smax: float = 3.0) -> np.ndarray:
    """Random matrix with singular values rescaled into ``[smin, smax]``."""
    a = rng.standard_normal((rows, cols))
    f = _svd(a)
    if f.s.size == 0:
        return a
    lo, hi = float(f.s[-1]), f.norm
    s = np.linspace(smax, smin, f.s.size) if hi == lo else smin + (f.s - lo) * (smax - smin) / (hi - lo)
    return (f.u * s) @ f.vh

def random_linearized_blocks(seed) -> JacobianBlocks:
    """Seeded random chart-coordinate blocks of a consistent linear problem.

    Every dimension is at most 12.  The dependent block ``[j_y j_z]`` has
    controlled singular values and, on a seeded coin flip, a nontrivial
    kernel; ``j_x`` is drawn inside its column span so the feasibility rank
    condition holds by construction.
    """
    rng = np.random.default_rng(seed)
    n_res = int(rng.integers(2, 13))
    dim_x = int(rng.integers(1, 13))
    dim_y = int(rng.integers(1, 13))
    dim_z = int(rng.integers(0, 13))
    deficient = bool(rng.integers(0, 2))
    full = min(n_res, dim_y + dim_z)
    rank = int(rng.integers(1, full + 1)) if deficient and full > 1 else full
    j_yz = _conditioned(rng, n_res, rank) @ _conditioned(rng, rank, dim_y + dim_z)
    j_x = j_yz @ rng.standard_normal((dim_y + dim_z, dim_x))
    return JacobianBlocks(j_x=j_x, j_y=j_yz[:, :dim_y], j_z=j_yz[:, dim_y:])


# ---------------------------------------------------------------------------
# JSON problem specs.

PROBLEM_KINDS = ("polar", "matrix_factorization", "tucker", "custom_linearized")


def _require(spec: dict, field: str, kinds, kind: str):
    if field not in spec:
        raise SpecError(f"field '{field}' is required for kind '{kind}'")
    value = spec[field]
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if not any(_is_int(value) if k is int else isinstance(value, k) for k in kinds):
        raise SpecError(f"field '{field}' has the wrong type for kind '{kind}'")
    return value


def problem_from_spec(spec: dict, base_dir=None, rtol: float | None = None) -> tuple[CrepProblem, CrepPoint]:
    """Build a problem from a JSON-style spec mapping.

    Relative file references (the tucker tensor file) are resolved against
    ``base_dir``.  ``rtol`` becomes the problem's ``CrepProblem.rtol`` for
    every kind; a tucker spec's rank check, HOSVD and charts take it too.
    Raises :class:`SpecError` naming the offending field.
    """
    problem, point = _problem_from_spec(spec, base_dir, rtol)
    return replace(problem, rtol=rtol), point


def _problem_from_spec(spec, base_dir, rtol: float | None) -> tuple[CrepProblem, CrepPoint]:
    if not isinstance(spec, dict):
        raise SpecError("problem spec must be a JSON object")
    kind = _require(spec, "kind", str, "spec")
    if kind not in PROBLEM_KINDS:
        raise SpecError(f"field 'kind' must be one of {PROBLEM_KINDS}, got '{kind}'")

    if kind == "polar":
        x0 = _require(spec, "x0", (int, float), kind)
        try:
            return polar_problem(float(x0))
        except ValueError as exc:
            raise SpecError(f"field 'x0' is invalid: {exc}") from exc

    if kind == "matrix_factorization":
        m = _require(spec, "m", int, kind)
        n = _require(spec, "n", int, kind)
        k_rank = _require(spec, "k_rank", int, kind)
        seed = spec.get("seed", 0)
        if not (_is_int(seed) and seed >= 0):
            raise SpecError("field 'seed' must be a nonnegative integer")
        try:
            return matrix_factorization_problem(m, n, k_rank, seed)
        except ValueError as exc:
            raise SpecError(f"field 'k_rank' is invalid: {exc}") from exc

    if kind == "tucker":
        ranks = _require(spec, "ranks", list, kind)
        if "tensor" in spec and isinstance(spec["tensor"], dict):
            try:
                tensor = tensor_from_obj(spec["tensor"])
            except ValueError as exc:
                raise SpecError(f"field 'tensor' is invalid: {exc}") from exc
        else:
            tensor_path = _require(spec, "tensor", str, kind)
            path = Path(tensor_path)
            if not path.is_absolute() and base_dir is not None:
                path = Path(base_dir) / path
            try:
                tensor = load_tensor(path)
            except OSError as exc:
                raise SpecError(f"field 'tensor': cannot read {path}: {exc}") from exc
            except ValueError as exc:
                raise SpecError(f"field 'tensor' is invalid: {exc}") from exc
        output = spec.get("output_variable", "U1")
        try:
            point = _tucker_point_from_inputs(tensor, ranks, rtol)
            config = TuckerCrepConfig(point, _parse_output_variable(output, point.order), rtol)
            return build_tucker_crep(config)
        except ValueError as exc:
            raise SpecError(f"tucker spec is invalid: {exc}") from exc

    j_x = _require(spec, "J_x", list, kind)
    j_y = _require(spec, "J_y", list, kind)
    j_z = spec.get("J_z")
    try:
        j_x = as_matrix(np.array(j_x, dtype=float), "J_x")
        j_y = as_matrix(np.array(j_y, dtype=float), "J_y")
        j_z = (
            np.zeros((j_x.shape[0], 0))
            if j_z is None or j_z == []
            else as_matrix(np.array(j_z, dtype=float), "J_z")
        )
        return linearized_problem(j_x, j_y, j_z)
    except ValueError as exc:
        raise SpecError(f"fields 'J_x'/'J_y'/'J_z' are invalid: {exc}") from exc


def _parse_output_variable(value, order: int):
    if value == "core":
        return "core"
    if _is_int(value):
        idx = value
    elif isinstance(value, str) and value.upper().startswith("U"):
        try:
            idx = int(value[1:]) - 1
        except ValueError as exc:
            raise ValueError(f"output_variable '{value}' is not 'core' or 'U<d>'") from exc
    else:
        raise ValueError(f"output_variable '{value}' is not 'core' or 'U<d>'")
    if not 0 <= idx < order:
        raise ValueError(f"output_variable index {idx} out of range for order {order}")
    return idx


def _tucker_point_from_inputs(tensor: np.ndarray, ranks, rtol: float | None = None):
    """The HOSVD of ``tensor`` at ``ranks``, after checking they are its multilinear rank at ``rtol``."""
    if not isinstance(ranks, (list, tuple)) or not all(_is_int(r) and r > 0 for r in ranks):
        raise ValueError("'ranks' must be a list of positive integers")
    ranks = tuple(ranks)
    if len(ranks) != tensor.ndim:
        raise ValueError(f"'ranks' has {len(ranks)} entries but the tensor has order {tensor.ndim}")
    actual = multilinear_rank(tensor, rtol)
    if actual != ranks:
        raise ValueError(f"tensor has multilinear rank {actual}, requested {ranks}")
    return hosvd(tensor, ranks, rtol)
