"""Constant-rank elimination problems (CREPs) and their condition numbers.

A CREP is a smooth system ``F(x, y, z) = c`` solved for the output ``y``
given the input ``x``, with a latent variable ``z`` that is needed for
feasibility but is not part of the reported solution.  The class is
characterised by two constant-rank hypotheses: the rank of the full
Jacobian equals the rank of the partial Jacobian with respect to ``(y, z)``
everywhere, and the partial Jacobian with respect to ``z`` has constant
rank.  Under these hypotheses a canonical local solution map ``H`` exists
(it returns the feasible ``y`` nearest to the reference output), and the
condition number of ``y`` is the operator norm of its derivative ``DH``.

This module provides:

* runtime rank certificates for the constant-rank hypotheses, checked at a
  reference solution and at sampled nearby solutions;
* ``DH`` via its minimum-norm characterisation
  (:func:`solution_map_derivative_minnorm`), the production route: one
  minimum-norm solve of the linearised system plus the kernel of
  ``[j_y  j_z]`` give the derivatives for ``y``, for ``z`` and for the pair;
* the three condition numbers kappa_y, kappa_z and kappa_yz, where solving
  for the pair ``(y, z)`` is always at least as ill-conditioned as solving
  for either variable alone, and from one solve those of any column groups
  of ``(y, z)`` (:func:`group_condition_numbers`);
* two independent reference routes, used only by the verification suite
  and the tests: an orthogonal elimination pipeline
  (:func:`solution_map_derivative`) and, for problems without latent
  variables, the pseudoinverse formula (:func:`fcre_solution_derivative`).

All Jacobians are expressed in tangent-chart coordinates: orthonormal bases
of the tangent spaces of the input and output manifolds (so chart norms are
the ambient Frobenius norms), and a basis of the latent tangent space that
defaults to orthonormal but whose choice provably does not affect ``DH``.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .linalg import (
    InconsistentSystemError,
    _is_orthonormal,
    _lstsq,
    _resolve_rtol,
    _solve,
    _svd,
    _Svd,
    RankDecision,
    as_matrix,
    kernel_basis,
    numerical_rank,
    orthonormalize,
    spectral_norm,
)

__all__ = [
    "CertificationError",
    "ConditionReport",
    "CrepDims",
    "CrepPoint",
    "CrepProblem",
    "GroupConditionReport",
    "JacobianBlocks",
    "RankCertificate",
    "RankHypothesisError",
    "TangentChart",
    "certify_crep",
    "chart_blocks",
    "condition_numbers",
    "condition_numbers_from_blocks",
    "defining_equation_residuals",
    "evaluate_blocks",
    "fcre_solution_derivative",
    "group_condition_numbers",
    "make_crep_point",
    "solution_map_derivative",
    "solution_map_derivative_minnorm",
]

# Collects the reference blocks of the certify_crep call _certified_blocks makes.
_REFERENCE_BLOCKS: ContextVar[list | None] = ContextVar("_REFERENCE_BLOCKS", default=None)


class RankHypothesisError(ValueError):
    """A constant-rank hypothesis required by the computation is violated."""


class CertificationError(RuntimeError):
    """A computation that requires a certified point got a failed certificate."""


@dataclass(frozen=True)
class TangentChart:
    """An orthonormal basis of a tangent space, in ambient coordinates.

    ``basis`` is ``ambient_dim x intrinsic_dim`` with orthonormal columns;
    chart coordinates of an ambient tangent vector ``v`` are ``basis.T @ v``.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis, "basis")
        if b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis has {b.shape[0]} rows, ambient dimension is {self.ambient_dim}")
        if not _is_orthonormal(b, 1e-10):
            raise ValueError("chart basis does not have orthonormal columns")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, dim: int) -> "TangentChart":
        """Identity chart of a flat space."""
        return cls(ambient_dim=dim, basis=np.eye(dim))


class CrepDims(tuple):
    """Intrinsic dimensions ``(dim_x, dim_y, dim_z, n_residual)``."""

    def __new__(cls, dim_x: int, dim_y: int, dim_z: int, n_residual: int):
        return super().__new__(cls, (int(dim_x), int(dim_y), int(dim_z), int(n_residual)))

    dim_x = property(lambda self: self[0])
    dim_y = property(lambda self: self[1])
    dim_z = property(lambda self: self[2])
    n_residual = property(lambda self: self[3])


def _flat_retract(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    return p + v


@dataclass
class CrepProblem:
    """An equation system ``F(x, y, z) = c`` with evaluators and charts.

    ``residual(x, y, z)`` returns ``F(x, y, z) - c`` as a vector of length
    ``dims.n_residual``; ``jacobian(x, y, z)`` returns the three ambient
    partial-derivative matrices, with ``None`` for the input one when it is
    the identity (the input lives in the residual space, as in ``x - Y Z``):
    ``j_x`` in chart coordinates is then the x-chart basis itself, whose
    ambient dimension must be ``dims.n_residual``, and no
    ``n_residual x n_residual`` matrix is built.  The chart providers return a
    :class:`TangentChart` of the respective manifold at the given point.
    Retractions map an ambient tangent displacement back to the manifold
    and default to flat addition.

    Evaluators must be pure (safe for concurrent invocation) and may return
    shared read-only arrays, which callers must not modify.  Each point is
    evaluated once per call: the kappa stage of :func:`condition_numbers`
    reuses its certificate's evaluation, and a certificate sample takes one.
    ``scale`` is a characteristic magnitude of the reference data used to set
    default solver and sampling tolerances.

    ``tangent_blocks(x, y, z, r)``, when given, replaces ``jacobian`` and the
    y and z charts wherever blocks are evaluated.  It returns
    ``(j_x, j_y, j_z, qr, y_chart, z_chart)``: the blocks in chart
    coordinates on the right (``j_x = J_x B_x`` with the basis of
    ``x_chart``, ``j_y`` and ``j_z`` with the bases of the charts it returns,
    which are checked like those of ``y_chart`` and ``z_chart``; those two
    then serve only the ambient reference path) and on the left in the
    coordinates ``q.T`` of the x-chart basis ``q`` (checked: ``dims.dim_x``
    rows, ``dims.n_residual`` ambient coordinates), and ``qr = q.T r`` for
    the ambient residual ``r`` (None when ``r`` is None).  The span of ``q``
    must hold every column of the three chart blocks at ``(x, y, z)``; then
    ``q.T`` keeps their Gram matrix, so every rank, ``DH`` and least-squares
    step is the ambient one, from fewer rows.  ``r`` need not lie in that
    span: the resolver steps with ``qr``, the certificate's chord with the
    reference x-chart basis times ``r``, and both test convergence on the
    ambient residual.  Without the hook, ``q`` is the identity.

    ``rtol`` is the relative tolerance of every rank cut taken for the problem:
    the certificate's, the kappa stage's and the resolver's.  None (the default)
    becomes ``default_rtol`` of DF's ambient shape whenever it is set; a given
    value must be finite and positive, or setting it raises ``ValueError``.
    """

    name: str
    dims: CrepDims
    residual: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    x_chart: Callable[[np.ndarray, np.ndarray, np.ndarray], TangentChart]
    y_chart: Callable[[np.ndarray, np.ndarray, np.ndarray], TangentChart]
    z_chart: Callable[[np.ndarray, np.ndarray, np.ndarray], TangentChart]
    x_retract: Callable[[np.ndarray, np.ndarray], np.ndarray] = _flat_retract
    y_retract: Callable[[np.ndarray, np.ndarray], np.ndarray] = _flat_retract
    z_retract: Callable[[np.ndarray, np.ndarray], np.ndarray] = _flat_retract
    scale: float = 1.0
    tangent_blocks: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None], tuple] | None = None
    rtol: float | None = None

    def __setattr__(self, name, value):  # the one place a problem's default rank tolerance is resolved
        if name == "rtol":
            value = _resolve_rtol(value, (self.dims.n_residual, sum(self.dims[:3])))
        super().__setattr__(name, value)


@dataclass(frozen=True)
class CrepPoint:
    """A particular solution ``(x0, y0, z0)`` in ambient coordinates.

    ``feas_tol`` is the recorded feasibility tolerance; ``residual_norm``
    is the achieved residual at construction time.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    feas_tol: float
    residual_norm: float = 0.0


def make_crep_point(problem: CrepProblem, x, y, z) -> CrepPoint:
    """Validate feasibility of ``(x, y, z)`` and record it as a :class:`CrepPoint`,
    with feasibility tolerance ``1e-9 * problem.scale``."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    feas_tol = 1e-9 * problem.scale
    rnorm = _feasible_residual_norm(problem.residual(x, y, z), feas_tol)
    return CrepPoint(x=x, y=y, z=z, feas_tol=feas_tol, residual_norm=rnorm)


def _feasible_residual_norm(r, feas_tol: float) -> float:
    """``||r||``, after checking it is at most ``feas_tol`` (so a NaN norm fails)."""
    rnorm = float(np.linalg.norm(r))
    if not rnorm <= feas_tol:
        raise ValueError(f"point is not feasible: residual {rnorm:.3e} exceeds feas_tol {feas_tol:.3e}")
    return rnorm


@dataclass(frozen=True)
class JacobianBlocks:
    """Partial derivatives of ``F`` at a solution, in chart coordinates.

    Privately, the chart bases (from :func:`chart_blocks`) and, at a reference point (:func:`_reference_blocks`),
    the SVDs of ``[j_y j_z]`` and of its kernel rows, shared by its rank checks, sampler, predictor and ``DH``."""

    j_x: np.ndarray
    j_y: np.ndarray
    j_z: np.ndarray
    _x_basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    _y_basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    _z_basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    _yz: _Svd | None = field(default=None, repr=False, compare=False)
    _rows: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        j_x = as_matrix(self.j_x, "j_x")
        j_y = as_matrix(self.j_y, "j_y")
        j_z = as_matrix(self.j_z, "j_z")
        if not (j_x.shape[0] == j_y.shape[0] == j_z.shape[0]):
            raise ValueError("blocks must share the residual dimension")
        object.__setattr__(self, "j_x", j_x)
        object.__setattr__(self, "j_y", j_y)
        object.__setattr__(self, "j_z", j_z)

    @property
    def n_residual(self) -> int:
        return self.j_x.shape[0]

    def swap_outputs(self) -> "JacobianBlocks":
        """Blocks for the problem with the roles of output and latent reversed."""
        return JacobianBlocks(j_x=self.j_x, j_y=self.j_z, j_z=self.j_y)


def _project(problem: CrepProblem, mat, chart: TangentChart, label: str) -> np.ndarray:
    """Ambient Jacobian block ``mat`` of variable ``label`` in chart coordinates, after the
    checks every block gets: finite entries, ambient shape and declared chart dimension.
    ``mat`` None is the identity (see :class:`CrepProblem`), which maps to the chart basis."""
    if mat is None:
        if chart.ambient_dim != problem.dims.n_residual:
            raise ValueError(f"ambient jacobian ({label}) is the identity, but the {label} chart has "
                             f"{chart.ambient_dim} ambient coordinates for {problem.dims.n_residual} residuals")
    else:
        mat = as_matrix(mat, f"ambient jacobian ({label})")
        if mat.shape != (problem.dims.n_residual, chart.ambient_dim):
            raise ValueError(f"ambient jacobian ({label}) has shape {mat.shape}, expected "
                             f"({problem.dims.n_residual}, {chart.ambient_dim})")
    if chart.dim != problem.dims["xyz".index(label)]:
        raise ValueError(f"{label} chart has dimension {chart.dim}, declared dims are {tuple(problem.dims)}")
    return chart.basis if mat is None else mat @ chart.basis


def _evaluate(problem: CrepProblem, x, y, z, r=None) -> tuple:
    """One evaluation at ``(x, y, z)``: ``(j_x, j_y, j_z, q.T r, y_chart, z_chart)``, the blocks in the
    residual coordinates ``q.T`` of :class:`CrepProblem` (``r`` the ambient residual or None) and the
    charts ``j_y`` and ``j_z`` are in.  ``j_x`` is as the problem gives it; :func:`_x_block` puts it in
    x-chart coordinates.  The problem's ``tangent_blocks`` gives all six when it has one; otherwise
    ``q`` is the identity and the ambient Jacobian is projected onto the problem's y and z charts."""
    if problem.tangent_blocks is None:
        j_x, j_y, j_z = problem.jacobian(x, y, z)
        cy, cz = problem.y_chart(x, y, z), problem.z_chart(x, y, z)
        return j_x, _project(problem, j_y, cy, "y"), _project(problem, j_z, cz, "z"), r, cy, cz
    *blocks, qr, cy, cz = problem.tangent_blocks(x, y, z, r)
    blocks = [as_matrix(m, f"tangent block ({label})") for m, label in zip(blocks, "xyz")]
    rows = problem.dims.dim_x  # q is the x-chart basis
    expected = [(rows, dim) for dim in problem.dims[:3]]
    if [m.shape for m in blocks] != expected:
        raise ValueError(f"tangent blocks have shapes {[m.shape for m in blocks]}, expected {expected}: "
                         "their rows are coordinates in the x-chart basis")
    if (qr is None) != (r is None) or (qr is not None and np.shape(qr) != (rows,)):
        raise ValueError(f"tangent blocks return a residual of shape {np.shape(qr)} for {rows} rows")
    for chart, v, dim, label in ((cy, y, problem.dims.dim_y, "y"), (cz, z, problem.dims.dim_z, "z")):
        if not isinstance(chart, TangentChart) or (chart.ambient_dim, chart.dim) != (np.size(v), dim):
            raise ValueError(f"tangent blocks return a {label} chart that is not a TangentChart of "
                             f"dimension {dim} in {np.size(v)} ambient coordinates")
    return (*blocks, qr, cy, cz)


def _x_block(problem: CrepProblem, j_x, x, y, z, cx=None) -> np.ndarray:
    """``j_x`` from :func:`_evaluate` at ``(x, y, z)`` in x-chart coordinates: projected onto
    ``cx`` (default the problem's x chart there) when it has ambient columns."""
    if problem.tangent_blocks is not None:
        return j_x
    return _project(problem, j_x, problem.x_chart(x, y, z) if cx is None else cx, "x")


def chart_blocks(problem: CrepProblem, x, y, z) -> JacobianBlocks:
    """Jacobian blocks at ``(x, y, z)`` in chart coordinates: the ambient Jacobians projected
    onto the charts, or the compressed rows of the problem's ``tangent_blocks``."""
    cx = problem.x_chart(x, y, z)
    if problem.tangent_blocks is not None and cx.ambient_dim != problem.dims.n_residual:  # q is cx.basis
        raise ValueError(f"tangent blocks need an x chart in the {problem.dims.n_residual} residual coordinates")
    j_x, j_y, j_z, _, cy, cz = _evaluate(problem, x, y, z)
    return JacobianBlocks(j_x=_x_block(problem, j_x, x, y, z, cx), j_y=j_y, j_z=j_z,
                          _x_basis=cx.basis, _y_basis=cy.basis, _z_basis=cz.basis)


def evaluate_blocks(problem: CrepProblem, point: CrepPoint) -> JacobianBlocks:
    """Chart-coordinate Jacobian blocks at a feasible point."""
    _feasible_residual_norm(problem.residual(point.x, point.y, point.z), point.feas_tol)
    return chart_blocks(problem, point.x, point.y, point.z)


# ---------------------------------------------------------------------------
# Solution-map derivative.

def _elimination_bases(blocks: JacobianBlocks) -> tuple[np.ndarray, np.ndarray]:
    """The elimination system's bases: ``u`` of span(j_z) and ``u_y``, output rows of one of ker [j_y j_z]."""
    return orthonormalize(blocks.j_z), kernel_basis(np.hstack([blocks.j_y, blocks.j_z]))[: blocks.j_y.shape[1], :]


def solution_map_derivative(blocks: JacobianBlocks) -> np.ndarray:
    """Derivative ``DH`` of the canonical solution map, by orthogonal elimination.

    The reference route that the verification suite and the tests check
    the production min-norm route (:func:`solution_map_derivative_minnorm`)
    against.

    The latent block is eliminated by projecting the linearised system off
    its column span, and the solution is made unique by requiring it to be
    orthogonal to the output-projection of the kernel of ``[j_y  j_z]``
    (each rank cut at the default for its matrix's shape):

        u  = orthonormal basis of span(j_z),  P m = m - u (u.T m)
        u_y = output rows of an orthonormal kernel basis of [j_y  j_z]
        [P j_y; u_y.T] @ DH = [-P j_x; 0]

    The stacked coefficient matrix always has full column rank when the
    constant-rank hypotheses hold, so any left inverse gives the same DH;
    a rank-deficient stack signals a violated hypothesis and raises
    :class:`RankHypothesisError`.

    Conditioning caveat: the elimination splits span(j_z) from the joint
    span, so when a direction of j_z lies within distance delta of the
    span of j_y the stacked system has a singular value of order delta
    even though DH itself may be perfectly conditioned.  Roundoff of
    relative size ``rtol`` then comes back in DH amplified by the stacked
    system's condition number, which no residual check sees when that
    system is square once ``P`` has removed the latent span (as on blocks
    in compressed residual coordinates).
    So the route raises :class:`crepcond.linalg.InconsistentSystemError`
    when that condition number exceeds ``1 / sqrt(rtol)`` (the bound
    ``rtol * cond`` on DH's relative error passes ``sqrt(rtol)``), as well
    as when the consistency check fails.  Unlike the residual, the
    condition number is the same in every residual basis that holds the
    blocks.  The min-norm route does not involve this split and stays
    robust on such instances.
    """
    j_x, j_y, j_z = blocks.j_x, blocks.j_y, blocks.j_z
    dim_x, dim_y = j_x.shape[1], j_y.shape[1]
    if dim_y == 0:
        return np.zeros((0, dim_x))
    u, u_y = _elimination_bases(blocks)
    a = np.vstack([j_y - u @ (u.T @ j_y), u_y.T])
    f = _svd(a)
    if f.rank < dim_y:
        raise RankHypothesisError(
            f"elimination system is rank deficient ({f.rank} < {dim_y}); "
            "the constant-rank hypotheses do not hold at this point"
        )
    if f.s[dim_y - 1] < np.sqrt(f.rtol) * f.norm:
        raise InconsistentSystemError(
            f"elimination system has condition number {f.norm / f.s[dim_y - 1]:.3e} > 1/sqrt(rtol) = "
            f"{1.0 / np.sqrt(f.rtol):.3e}; use the min-norm route"
        )
    rhs = np.vstack([u @ (u.T @ j_x) - j_x, np.zeros((u_y.shape[1], dim_x))])
    scale = spectral_norm(j_x) + spectral_norm(j_y) + spectral_norm(j_z)
    return _solve(a, f, rhs, scale)


def _yz_svd(blocks: JacobianBlocks, rtol: float | None) -> _Svd:
    """The SVD of ``[j_y  j_z]`` (full ``vh`` when wide) cut at ``rtol``: the reference's, else a new one."""
    if blocks._yz is not None:
        return blocks._yz
    j_yz = np.hstack([blocks.j_y, blocks.j_z])
    return _svd(j_yz, rtol, full=j_yz.shape[0] < j_yz.shape[1])


def _kernel_rows(kern: np.ndarray, rows: slice, rtol: float | None, known: dict | None = None) -> _Svd:
    """SVD of the ``rows`` of an orthonormal kernel basis, cut at ``rtol * 1``: their singular values are
    cosines.  ``known`` (a reference's ``_rows``) keeps each one, by row range, for the next caller."""
    key, known = rows.indices(len(kern))[:2], {} if known is None else known
    return known[key] if key in known else known.setdefault(key, _svd(kern[rows], rtol, scale=1.0))


def _nearest_solution(p: np.ndarray, kern: np.ndarray, rows: slice, rtol: float | None, known: dict | None = None) -> tuple:
    """Of the solutions ``p + kern c`` (``kern`` an orthonormal kernel basis; ``p`` a vector or columns), the
    one whose ``rows`` are smallest, as the kappa stage, the empirical predictor and the resolver choose:
    those rows (``p``'s off the span of ``kern[rows]``) and ``c``, at the cut of :func:`_kernel_rows`."""
    g = _kernel_rows(kern, rows, rtol, known)
    b = g.u[:, : g.rank]
    return p[rows] - b @ (b.T @ p[rows]), -_lstsq(g, p[rows])


def _minnorm_derivatives(
    blocks: JacobianBlocks, rtol: float | None, groups: dict[str, slice]
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """``DH`` of each column group of ``[j_y  j_z]`` (label -> slice) and ``DH_yz``, from
    one minimum-norm solve of the linearised system.

    ``DH_yz`` is the minimum-norm solution of ``[j_y  j_z] d = -j_x``.
    Every solution differs from it by a kernel vector of ``[j_y  j_z]``, so
    the minimum-norm component of a group is its rows of ``d`` projected off
    the span of the matching kernel rows (:func:`_nearest_solution`).
    """
    j_x, j_y, j_z = blocks.j_x, blocks.j_y, blocks.j_z
    # One SVD serves the scale, the solve and the kernel.
    f = _yz_svd(blocks, rtol)
    try:
        dh_yz = _solve(np.hstack([j_y, j_z]), f, -j_x, spectral_norm(j_x) + f.norm)
    except ValueError as exc:
        raise RankHypothesisError(f"linearised system is inconsistent: {exc}") from exc
    kern = f.vh[f.rank :].T
    return {label: _nearest_solution(dh_yz, kern, cols, rtol, blocks._rows)[0] for label, cols in groups.items()}, dh_yz


def solution_map_derivative_minnorm(blocks: JacobianBlocks, rtol: float | None = None) -> np.ndarray:
    """``DH`` via its minimum-norm characterisation; the production route.

    For each input direction, ``DH`` maps to the solution component of
    minimum output norm among all ``(dy, dz)`` with
    ``j_y dy + j_z dz = -j_x dx`` (the norm is taken over ``dy`` only).
    The affine solution set is parameterised by a particular minimum-norm
    solution plus the kernel of ``[j_y  j_z]``; the minimiser is obtained
    by projecting the particular solution's output component onto the
    orthogonal complement of the output-projection of that kernel.  The
    same solve gives every derivative :func:`condition_numbers_from_blocks`
    reports; :func:`solution_map_derivative` is the independent reference.
    """
    return _minnorm_derivatives(blocks, rtol, {"y": slice(0, blocks.j_y.shape[1])})[0]["y"]


def fcre_solution_derivative(j_x, j_y) -> np.ndarray:
    """Solution-map derivative for a problem without latent variables.

    Requires the feasibility rank condition ``rank [j_x j_y] = rank j_y``
    and returns ``-pinv(j_y) @ j_x``, the minimum-norm solution of
    ``j_y @ DH = -j_x``; each rank is cut at the default for its matrix's shape.
    """
    j_x = as_matrix(j_x, "j_x")
    j_y = as_matrix(j_y, "j_y")
    if j_x.shape[0] != j_y.shape[0]:
        raise ValueError("j_x and j_y must share the residual dimension")
    f = _svd(j_y)
    rank_all = numerical_rank(np.hstack([j_x, j_y])).rank
    if rank_all != f.rank:
        raise RankHypothesisError(
            f"rank [j_x j_y] = {rank_all} differs from rank j_y = {f.rank}; "
            "the system is not feasible for all input directions"
        )
    return _solve(j_y, f, -j_x, spectral_norm(j_x) + f.norm)


def defining_equation_residuals(blocks: JacobianBlocks, dh) -> tuple[float, float, float]:
    """Residuals of the two defining equations of ``DH`` plus their scale.

    Returns ``(feasibility, orthogonality, scale)`` where feasibility is
    ``||P (j_x + j_y dh)||``, orthogonality is ``||u_y.T dh||`` (``P`` and
    ``u_y`` as in :func:`solution_map_derivative`) and
    ``scale = ||j_x|| + ||j_y|| ||dh||``.  Both residuals vanish for the
    true solution-map derivative.
    """
    dh = as_matrix(dh, "dh")
    u, u_y = _elimination_bases(blocks)
    m = blocks.j_x + blocks.j_y @ dh
    feas = spectral_norm(m - u @ (u.T @ m))
    orth = spectral_norm(u_y.T @ dh)
    scale = spectral_norm(blocks.j_x) + spectral_norm(blocks.j_y) * spectral_norm(dh)
    return feas, orth, scale


# ---------------------------------------------------------------------------
# Rank certificates.


@dataclass(frozen=True)
class RankCertificate:
    """Result of checking the constant-rank hypotheses at sampled solutions.

    ``r`` is the common rank of the full Jacobian and of ``[j_y j_z]``;
    ``k`` the rank of ``j_z`` (see :func:`certify_crep` for groups).  ``min_gap`` is the smallest
    singular-value gap around a rank cut, a kernel-row cut's times sigma_r of ``[j_y j_z]``;
    ``fragile`` flags it below 10x ``tolerance``: the certificate is sensitive to that choice.
    """

    r: int
    k: int
    rank_df: int
    nullity_yz: int
    samples_checked: int
    resolve_failures: int
    tolerance: float
    passed: bool
    fragile: bool
    min_gap: float
    messages: tuple[str, ...] = ()


def _unit_direction(seed, i: int, dim: int) -> np.ndarray:
    """Unit vector drawn from the stream ``(seed, i)``; empty when ``dim`` is 0."""
    u = np.random.default_rng((seed, i)).standard_normal(dim)
    return u / float(np.linalg.norm(u)) if dim else u


def _rank_checks(blocks: JacobianBlocks, rtol: float, groups: dict[str, slice], tolerance: float | None = None):
    """``(r, k by group, rank DF, tolerance, min gap, problems)`` at one point, from the SVD of
    ``A = [j_y j_z]`` (rank r, kernel basis K): rank(A without the columns C) = r - |C| + rank K[C, :]
    at the :func:`_kernel_rows` cut, whose gap times sigma_r(A) bounds the nonzero singular values of
    A without C from below; rank DF = r + rank of j_x off range A at the absolute ``tolerance``.
    ``tolerance`` None (the reference point) takes rank DF and the tolerance from one SVD of DF."""
    f = _yz_svd(blocks, rtol)
    r, kern, sigma_r = f.rank, f.vh[f.rank :].T, f.s[f.rank - 1] if f.rank else np.inf
    k, gaps = {}, [RankDecision(r, f.s, f.tol).gap_at_cut()]
    for label, cols in groups.items():
        g = _kernel_rows(kern, cols, rtol, blocks._rows)
        k[label] = r - (cols.stop - cols.start) + g.rank
        gaps.append(sigma_r * RankDecision(g.rank, g.s, g.tol).gap_at_cut())
    if tolerance is None:
        d_df = numerical_rank(np.hstack([blocks.j_x, blocks.j_y, blocks.j_z]), rtol)
        rank_df, tolerance = d_df.rank, max(d_df.tolerance_used, rtol * 1e-300)  # rtol * sigma_max(DF)
        gaps.append(d_df.gap_at_cut())
    else:
        off = blocks.j_x - f.u[:, :r] @ (f.u[:, :r].T @ blocks.j_x)
        # The Frobenius norm bounds the spectral norm, so an SVD is taken only when it exceeds the tolerance.
        rank_df = r if np.linalg.norm(off) <= tolerance else r + int(np.count_nonzero(_svd(off, uv=False).s > tolerance))
    # rank DF = r is the same statement as nullity DF = dim_x + nullity [j_y j_z].
    problems = [] if rank_df == r else [f"rank DF = {rank_df} differs from rank [j_y j_z] = {r}"]
    return r, k, rank_df, tolerance, min(gaps), problems


def _reference_blocks(problem: CrepProblem, point: CrepPoint) -> JacobianBlocks:
    """:func:`evaluate_blocks` with the SVD of ``[j_y j_z]`` and a kernel-row memo (``_rows``), which the
    rank checks, the samplers and the min-norm ``DH`` at the point then share."""
    blocks = evaluate_blocks(problem, point)
    return replace(blocks, _yz=_yz_svd(blocks, problem.rtol), _rows={})


def _predicted_starts(problem: CrepProblem, point: CrepPoint, blocks: JacobianBlocks, steps: np.ndarray) -> list:
    """First-order predictions ``(y, z)`` at the inputs moved from ``point`` by the rows of ``steps`` (x-chart coordinates):
    the solution of ``[j_y j_z] d = -j_x step`` nearest in y (:func:`_nearest_solution`), retracted along the charts."""
    f, dim_y = _yz_svd(blocks, problem.rtol), problem.dims.dim_y
    kern, p = f.vh[f.rank :].T, _lstsq(f, -blocks.j_x @ steps.T)
    w, c = _nearest_solution(p, kern, slice(0, dim_y), problem.rtol, blocks._rows)
    return [_chart_move(problem, blocks, point.y, point.z, d) for d in np.vstack([w, p[dim_y:] + kern[dim_y:] @ c]).T]


def _chart_move(problem: CrepProblem, blocks0: JacobianBlocks, y, z, d) -> tuple:
    """``(y, z)`` moved by ``d`` (coordinates of ``[j_y j_z]``), retracted along ``blocks0``'s y and z charts."""
    dim_y = problem.dims.dim_y
    return problem.y_retract(y, blocks0._y_basis @ d[:dim_y]), problem.z_retract(z, blocks0._z_basis @ d[dim_y:])


def _chord(problem: CrepProblem, blocks0: JacobianBlocks, x, y, z) -> tuple | None:
    """A solution ``(y, z)`` at input ``x`` by the chord method (Kelley 1995, ch. 5) from ``(y, z)``: steps
    ``d = -[j_y j_z]_0^+ q_0^T r`` on the reference's SVD (``q_0`` the reference x-chart basis with
    ``tangent_blocks``, else the identity; see :class:`CrepProblem`) until ``||r|| <= 1e-12 * problem.scale``.
    None after 8 steps, or once ``||r||`` is not finite or has not fallen."""
    last = np.inf
    for step in range(9):
        norm = float(np.linalg.norm(r := problem.residual(x, y, z)))
        if norm <= 1e-12 * problem.scale:
            return y, z
        if step == 8 or not norm < last:
            return None
        last = norm
        y, z = _chart_move(problem, blocks0, y, z, -_lstsq(blocks0._yz, r if problem.tangent_blocks is None
                                                             else blocks0._x_basis.T @ r))


def certify_crep(
    problem: CrepProblem,
    point: CrepPoint,
    *,
    n_samples: int = 4,
    seed: int = 0,
    groups: dict[str, slice] | None = None,
) -> RankCertificate:
    """Certify the constant-rank hypotheses at ``point`` and nearby solutions.

    Each sample moves the input ``1e-4 * problem.scale`` along a seeded random unit direction of its
    tangent chart and retracts.  Any solution there will do: it starts at the minimum-norm first-order
    prediction ``[j_y j_z]^+ (-j_x step)`` (Allgower & Georg 2003) and takes chord steps (:func:`_chord`),
    both on the reference's SVD and charts; a chord that stops short is re-solved once from that start
    (:func:`crepcond.empirical.constrained_nearest_solution`).  The sample's ranks come from one
    evaluation there and its SVD of ``[j_y j_z]`` (:func:`_rank_checks`); the reference adds one SVD of
    DF, which sets the absolute ``tolerance``.  The certificate fails if a rank check fails, if the ranks
    vary across samples, or if no sample could be re-solved; a re-solve failure is counted and its
    sample skipped.  Every rank cut is taken at ``problem.rtol``.

    ``groups`` maps labels to column ranges ``slice(start, stop)`` of
    ``[j_y j_z]``; for each, the rank ``k`` of ``[j_y j_z]`` without those
    columns must not change, and a message for a change names the group.
    The certificate records the first group's ``k``.  None is the one group
    ``y``, whose ``k`` is the rank of ``j_z``.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    dims, rtol, radius = problem.dims, problem.rtol, 1e-4 * problem.scale
    n_cols, named = dims.dim_y + dims.dim_z, groups is not None
    if groups is None:
        groups = {"y": slice(0, dims.dim_y)}
    elif not groups or any(not isinstance(c, slice) or c != slice(*c.indices(n_cols)[:2]) or c.start >= c.stop
                           for c in groups.values()):
        raise ValueError(f"groups must be nonempty ranges slice(start, stop) of the {n_cols} columns of [y z], got {groups}")

    blocks0 = _reference_blocks(problem, point)  # its SVDs are shared with the sampler and the kappa stage
    if (sink := _REFERENCE_BLOCKS.get()) is not None:
        sink.append(blocks0)
    r0, k0, rank_df0, tolerance_abs, min_gap, messages = _rank_checks(blocks0, rtol, groups)

    from . import empirical  # deferred: empirical builds on this module

    samples_checked = resolve_failures = 0
    steps = np.array([radius * _unit_direction(seed, i, dims.dim_x) for i in range(n_samples)]).reshape(n_samples, dims.dim_x)
    for i, (step, d) in enumerate(zip(steps, _lstsq(blocks0._yz, -blocks0.j_x @ steps.T).T)):
        x_i = problem.x_retract(point.x, blocks0._x_basis @ step)
        start = _chart_move(problem, blocks0, point.y, point.z, d)
        sample = _chord(problem, blocks0, x_i, *start)
        if sample is None:  # the chord stopped short: the resolver, from the same start
            result = empirical.constrained_nearest_solution(problem, point, x_i, start=start)
            if not result.converged:
                resolve_failures += 1
                messages.append(f"sample {i}: re-solve failed (chord did not converge; resolver: {result.message})")
                continue
            sample = result.y, result.z
        j_x, j_y, j_z = _evaluate(problem, x_i, *sample)[:3]
        r_i, k_i, _, _, gap_i, problems_i = _rank_checks(JacobianBlocks(_x_block(problem, j_x, x_i, *sample), j_y, j_z),
                                                          rtol, groups, tolerance_abs)
        min_gap = min(min_gap, gap_i)
        samples_checked += 1
        messages += [f"sample {i}: {msg}" for msg in problems_i]
        for label in groups:
            if (r_i, k_i[label]) != (r0, k0[label]):
                messages.append(f"sample {i}: ranks (r={r_i}, k={k_i[label]}) differ from reference "
                                f"(r={r0}, k={k0[label]})" + (f" for group {label}" if named else ""))

    if n_samples > 0 and samples_checked == 0:
        messages.append("no perturbed sample could be re-solved; constancy not verifiable")
    return RankCertificate(
        r=r0, k=next(iter(k0.values())), rank_df=rank_df0, nullity_yz=n_cols - r0, samples_checked=samples_checked,
        resolve_failures=resolve_failures, tolerance=tolerance_abs, passed=not messages,
        fragile=bool(min_gap < 10.0 * tolerance_abs), min_gap=float(min_gap), messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# Condition numbers.


@dataclass(frozen=True)
class ConditionReport:
    """Condition numbers of a CREP at a certified solution.

    ``kappa_y`` is the spectral norm of ``dh``; ``kappa_z`` swaps the roles
    of output and latent variable; ``kappa_yz`` treats the pair ``(y, z)``
    as the output with a trivial latent space.  When the certificate
    failed, the kappa values and ``dh`` are ``None`` (the condition number
    is undefined without the constant-rank hypotheses).
    """

    kappa_y: float | None
    kappa_z: float | None
    kappa_yz: float | None
    dh: np.ndarray | None
    certificate: RankCertificate


def condition_numbers_from_blocks(
    blocks: JacobianBlocks, rtol: float | None = None
) -> tuple[float, float, float, np.ndarray]:
    """``(kappa_y, kappa_z, kappa_yz, dh)`` from chart-coordinate blocks.

    All three derivatives come from one minimum-norm solve of the
    linearised system (see :func:`solution_map_derivative_minnorm`); ``rtol``
    None cuts each matrix at the default for its own shape.
    """
    dim_y = blocks.j_y.shape[1]
    dhs, dh_yz = _minnorm_derivatives(blocks, rtol, {"y": slice(0, dim_y), "z": slice(dim_y, None)})
    return spectral_norm(dhs["y"]), spectral_norm(dhs["z"]), spectral_norm(dh_yz), dhs["y"]


def _certified_blocks(problem, point, groups, n_samples, seed) -> tuple[RankCertificate, JacobianBlocks | None]:
    """:func:`certify_crep`'s certificate and, if it passed, the reference blocks it evaluated."""
    evaluated: list[JacobianBlocks] = []
    token = _REFERENCE_BLOCKS.set(evaluated)
    try:
        certificate = certify_crep(problem, point, n_samples=n_samples, seed=seed, groups=groups)
    finally:
        _REFERENCE_BLOCKS.reset(token)
    return certificate, evaluated[0] if certificate.passed else None


def condition_numbers(
    problem: CrepProblem,
    point: CrepPoint,
    *,
    n_samples: int = 4,
    seed: int = 0,
) -> ConditionReport:
    """Certify ``point``, sampling at ``1e-4 * problem.scale``, and compute its condition numbers.

    The kappa stage reuses the certificate's evaluation of ``point`` and cuts
    at its tolerance, ``problem.rtol``.  When certification fails the report
    carries the failed certificate and ``None`` condition numbers instead of
    numeric sentinels.
    """
    certificate, blocks = _certified_blocks(problem, point, None, n_samples, seed)
    if blocks is None:
        return ConditionReport(kappa_y=None, kappa_z=None, kappa_yz=None, dh=None, certificate=certificate)
    kappa_y, kappa_z, kappa_yz, dh = condition_numbers_from_blocks(blocks, problem.rtol)
    return ConditionReport(kappa_y=kappa_y, kappa_z=kappa_z, kappa_yz=kappa_yz, dh=dh, certificate=certificate)


@dataclass(frozen=True)
class GroupConditionReport:
    """Condition numbers at a certified point of each column group of ``(y, z)`` (by
    label, the rest latent) and of all of ``(y, z)``; ``None`` when the certificate failed."""

    kappas: dict[str, float] | None
    kappa_all: float | None
    certificate: RankCertificate


def group_condition_numbers(
    problem: CrepProblem, point: CrepPoint, groups: dict[str, slice], *, n_samples: int = 4, seed: int = 0,
) -> GroupConditionReport:
    """Certify ``point`` once for every group, sampling at ``1e-4 * problem.scale`` (:func:`certify_crep`),
    and compute each group's condition number.  Solving for one group with the rest latent only permutes
    the columns of ``[j_y j_z]``, so one minimum-norm solve and kernel give every group's ``DH``."""
    certificate, blocks = _certified_blocks(problem, point, groups, n_samples, seed)
    if blocks is None:
        return GroupConditionReport(None, None, certificate)
    dhs, dh_all = _minnorm_derivatives(blocks, problem.rtol, groups)
    return GroupConditionReport({label: spectral_norm(dh) for label, dh in dhs.items()}, spectral_norm(dh_all), certificate)
