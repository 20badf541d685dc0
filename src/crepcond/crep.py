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
  for either variable alone;
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
    _resolve_rtol,
    _solve,
    _svd,
    _Svd,
    RankDecision,
    as_matrix,
    complement_basis,
    kernel_basis,
    numerical_rank,
    spectral_norm,
)

__all__ = [
    "CertificationError",
    "ConditionReport",
    "CrepDims",
    "CrepPoint",
    "CrepProblem",
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
    "make_crep_point",
    "solution_map_derivative",
    "solution_map_derivative_minnorm",
]

# Collects the reference blocks of the certify_crep call condition_numbers makes.
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
    reuses its certificate's evaluation, and each certificate sample reuses
    the resolver's last one, adding only the input chart.  ``scale`` is a
    characteristic magnitude of the reference data used to set default
    solver and sampling tolerances.

    ``tangent_blocks(x, y, z, r)``, when given, replaces ``jacobian`` and the
    y and z charts wherever blocks are evaluated.  It returns
    ``(j_x, j_y, j_z, qr, y_chart, z_chart)``: the blocks in chart
    coordinates on the right (``j_x = J_x B_x`` with the basis of
    ``x_chart``, ``j_y`` and ``j_z`` with the bases of the charts it returns,
    which are checked like those of ``y_chart`` and ``z_chart``; those two
    then serve only the ambient reference path) and in the coordinates
    ``q.T`` of an orthonormal residual basis ``q`` on the left, and
    ``qr = q.T r`` for the ambient residual ``r`` (None when ``r`` is None).
    The span of ``q`` must hold every column of the three chart blocks at
    ``(x, y, z)``; then ``q.T`` keeps their Gram matrix, so every rank,
    ``DH`` and least-squares step is the ambient one, from matrices with
    fewer rows.  ``r`` need not lie in that span: the resolver tests
    convergence on the ambient residual and steps with ``qr``.  Without the
    hook, ``q`` is the identity.

    ``rtol`` is the relative tolerance of every rank cut taken for the problem:
    the certificate's, the kappa stage's and the resolver's.  None (the default)
    becomes ``default_rtol`` of DF's ambient shape at construction; a given
    value must be finite and positive, or construction raises ``ValueError``.
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

    def __post_init__(self):  # the one place a problem's default rank tolerance is resolved
        self.rtol = _resolve_rtol(self.rtol, (self.dims.n_residual, sum(self.dims[:3])))


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
    """Partial derivatives of ``F`` at a solution, in chart coordinates."""

    j_x: np.ndarray
    j_y: np.ndarray
    j_z: np.ndarray
    # Private: the input and output chart bases (set by chart_blocks) and an SVD of [j_y j_z] (see _yz_svd).
    _x_basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    _y_basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    _yz: _Svd | None = field(default=None, repr=False, compare=False)

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
    """One evaluation at ``(x, y, z)``: ``(j_x, j_y, j_z, q.T r, y_chart, z_chart)``, the blocks
    in the residual coordinates ``q.T`` of :class:`CrepProblem`, with ``r`` the ambient residual
    or None, and the charts ``j_y`` and ``j_z`` are in.

    ``j_x`` is as the problem gives it, and :func:`_x_block` puts it in x-chart coordinates.  The
    problem's ``tangent_blocks`` gives all six when it has one.  Otherwise ``q`` is the identity
    and the ambient Jacobian is projected onto the problem's y and z charts.
    """
    if problem.tangent_blocks is None:
        j_x, j_y, j_z = problem.jacobian(x, y, z)
        cy, cz = problem.y_chart(x, y, z), problem.z_chart(x, y, z)
        return j_x, _project(problem, j_y, cy, "y"), _project(problem, j_z, cz, "z"), r, cy, cz
    *blocks, qr, cy, cz = problem.tangent_blocks(x, y, z, r)
    blocks = [as_matrix(m, f"tangent block ({label})") for m, label in zip(blocks, "xyz")]
    rows = blocks[0].shape[0]
    expected = [(rows, dim) for dim in problem.dims[:3]]
    if [m.shape for m in blocks] != expected or rows > problem.dims.n_residual:
        raise ValueError(f"tangent blocks have shapes {[m.shape for m in blocks]}, expected {expected} "
                         f"with at most {problem.dims.n_residual} rows")
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
    j_x, j_y, j_z, _, cy, _ = _evaluate(problem, x, y, z)
    return JacobianBlocks(j_x=_x_block(problem, j_x, x, y, z, cx), j_y=j_y, j_z=j_z, _x_basis=cx.basis, _y_basis=cy.basis)


def evaluate_blocks(problem: CrepProblem, point: CrepPoint) -> JacobianBlocks:
    """Chart-coordinate Jacobian blocks at a feasible point."""
    _feasible_residual_norm(problem.residual(point.x, point.y, point.z), point.feas_tol)
    return chart_blocks(problem, point.x, point.y, point.z)


# ---------------------------------------------------------------------------
# Solution-map derivative.

def _elimination_bases(blocks: JacobianBlocks, rtol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """``q``, a basis of span(j_z)-perp, and ``u_y``, the output rows of a
    kernel basis of ``[j_y  j_z]``: the two bases of the elimination system."""
    j_yz = np.hstack([blocks.j_y, blocks.j_z])
    q = complement_basis(blocks.j_z, rtol)
    kern = kernel_basis(j_yz, rtol)
    return q, kern[: blocks.j_y.shape[1], :]


def solution_map_derivative(blocks: JacobianBlocks, rtol: float | None = None) -> np.ndarray:
    """Derivative ``DH`` of the canonical solution map, by orthogonal elimination.

    The reference route that the verification suite and the tests check
    the production min-norm route (:func:`solution_map_derivative_minnorm`)
    against.

    The latent block is eliminated by restricting the linearised system to
    the orthogonal complement of its column span, and the solution is made
    unique by requiring it to be orthogonal to the output-projection of the
    kernel of ``[j_y  j_z]``:

        q  = orthonormal basis of span(j_z)-perp
        u_y = output rows of an orthonormal kernel basis of [j_y  j_z]
        [q.T j_y; u_y.T] @ DH = [-q.T j_x; 0]

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
    system is square (as on blocks in compressed residual coordinates).
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
    q, u_y = _elimination_bases(blocks, rtol)
    a = np.vstack([q.T @ j_y, u_y.T])
    f = _svd(a, rtol)
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
    rhs = np.vstack([-(q.T @ j_x), np.zeros((u_y.shape[1], dim_x))])
    scale = spectral_norm(j_x) + spectral_norm(j_y) + spectral_norm(j_z)
    return _solve(a, f, rhs, scale)


def _yz_svd(blocks: JacobianBlocks, rtol: float | None) -> _Svd:
    """The SVD of ``[j_y  j_z]`` (full ``vh`` when wide) cut at ``rtol``: the one that
    certify_crep put on ``blocks`` (a sample's lacks the vectors), else a new one."""
    if blocks._yz is not None:
        return blocks._yz
    j_yz = np.hstack([blocks.j_y, blocks.j_z])
    return _svd(j_yz, rtol, full=j_yz.shape[0] < j_yz.shape[1])


def _minnorm_derivatives(
    blocks: JacobianBlocks, rtol: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(DH_y, DH_z, DH_yz)`` from one minimum-norm solve of the linearised system.

    ``DH_yz`` is the minimum-norm solution of ``[j_y  j_z] d = -j_x``.
    Every solution differs from it by a kernel vector of ``[j_y  j_z]``, so
    the minimum-norm output (latent) component is its output (latent) rows
    projected off the span of the matching kernel rows.
    """
    j_x, j_y, j_z = blocks.j_x, blocks.j_y, blocks.j_z
    dim_y = j_y.shape[1]
    # One SVD serves the scale, the solve and the kernel.
    f = _yz_svd(blocks, rtol)
    try:
        dh_yz = _solve(np.hstack([j_y, j_z]), f, -j_x, spectral_norm(j_x) + f.norm)
    except ValueError as exc:
        raise RankHypothesisError(f"linearised system is inconsistent: {exc}") from exc
    kern = f.vh[f.rank :].T

    def project_off_kernel(part, kern_rows):
        g = _svd(kern_rows, rtol, scale=1.0)  # rows of the orthonormal kernel basis
        b = g.u[:, : g.rank]
        return part - b @ (b.T @ part)

    dh_y = project_off_kernel(dh_yz[:dim_y], kern[:dim_y])
    dh_z = project_off_kernel(dh_yz[dim_y:], kern[dim_y:])
    return dh_y, dh_z, dh_yz


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
    return _minnorm_derivatives(blocks, rtol)[0]


def fcre_solution_derivative(j_x, j_y, rtol: float | None = None) -> np.ndarray:
    """Solution-map derivative for a problem without latent variables.

    Requires the feasibility rank condition ``rank [j_x j_y] = rank j_y``
    and returns ``-pinv(j_y) @ j_x``, the minimum-norm solution of
    ``j_y @ DH = -j_x``.
    """
    j_x = as_matrix(j_x, "j_x")
    j_y = as_matrix(j_y, "j_y")
    if j_x.shape[0] != j_y.shape[0]:
        raise ValueError("j_x and j_y must share the residual dimension")
    f = _svd(j_y, rtol)
    rank_all = numerical_rank(np.hstack([j_x, j_y]), rtol).rank
    if rank_all != f.rank:
        raise RankHypothesisError(
            f"rank [j_x j_y] = {rank_all} differs from rank j_y = {f.rank}; "
            "the system is not feasible for all input directions"
        )
    return _solve(j_y, f, -j_x, spectral_norm(j_x) + f.norm)


def defining_equation_residuals(blocks: JacobianBlocks, dh, rtol: float | None = None) -> tuple[float, float, float]:
    """Residuals of the two defining equations of ``DH`` plus their scale.

    Returns ``(feasibility, orthogonality, scale)`` where feasibility is
    ``||q.T (j_x + j_y dh)||``, orthogonality is ``||u_y.T dh||`` and
    ``scale = ||j_x|| + ||j_y|| ||dh||``.  Both residuals vanish for the
    true solution-map derivative.
    """
    dh = as_matrix(dh, "dh")
    q, u_y = _elimination_bases(blocks, rtol)
    feas = spectral_norm(q.T @ (blocks.j_x + blocks.j_y @ dh))
    orth = spectral_norm(u_y.T @ dh)
    scale = spectral_norm(blocks.j_x) + spectral_norm(blocks.j_y) * spectral_norm(dh)
    return feas, orth, scale


# ---------------------------------------------------------------------------
# Rank certificates.


@dataclass(frozen=True)
class RankCertificate:
    """Result of checking the constant-rank hypotheses at sampled solutions.

    ``r`` is the common rank of the full Jacobian and of ``[j_y j_z]``;
    ``k`` the rank of ``j_z``.  ``fragile`` flags a singular-value gap
    around some rank cut below 10x the tolerance, meaning the certificate
    is sensitive to the tolerance choice.
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


def _rank_checks(blocks: JacobianBlocks, dims: CrepDims, rtol: float):
    d_df = numerical_rank(np.hstack([blocks.j_x, blocks.j_y, blocks.j_z]), rtol)
    f_yz = _yz_svd(blocks, rtol)
    d_yz = RankDecision(rank=f_yz.rank, singular_values=f_yz.s, tolerance_used=f_yz.tol)
    d_z = numerical_rank(blocks.j_z, rtol)
    r = d_yz.rank
    k = d_z.rank
    nullity_yz = dims.dim_y + dims.dim_z - r
    problems = []
    # rank DF = r is the same statement as nullity DF = dim_x + nullity [j_y j_z].
    if d_df.rank != r:
        problems.append(f"rank DF = {d_df.rank} differs from rank [j_y j_z] = {r}")
    gap = min(d.gap_at_cut() for d in (d_df, d_yz, d_z))
    return r, k, d_df, nullity_yz, gap, problems


def certify_crep(
    problem: CrepProblem,
    point: CrepPoint,
    n_samples: int = 4,
    radius: float | None = None,
    seed: int = 0,
) -> RankCertificate:
    """Certify the constant-rank hypotheses at ``point`` and nearby solutions.

    Nearby solutions are produced by perturbing the input inside its
    tangent chart (radius defaults to ``1e-4 * problem.scale``), retracting,
    and re-solving for ``(y, z)`` with the constrained resolver.  The
    certificate fails if any rank check fails, if the ranks vary across
    samples, or if no perturbed sample could be re-solved.  Re-solve
    failures are counted and the sample is skipped.  ``radius`` must be
    finite and positive: at radius 0 every sample is the reference point.
    Every rank cut, the resolver's included, is taken at ``problem.rtol``.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    if radius is None:
        radius = 1e-4 * problem.scale
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    dims, rtol = problem.dims, problem.rtol

    blocks0 = evaluate_blocks(problem, point)
    blocks0 = replace(blocks0, _yz=_yz_svd(blocks0, rtol))  # one SVD, shared with the kappa stage
    if (sink := _REFERENCE_BLOCKS.get()) is not None:
        sink.append(blocks0)
    r0, k0, d_df0, nullity0, gap0, messages = _rank_checks(blocks0, dims, rtol)
    min_gap = gap0
    tolerance_abs = max(d_df0.tolerance_used, rtol * 1e-300)  # rtol * sigma_max(DF)

    from . import empirical  # deferred: empirical builds on this module

    samples_checked = 0
    resolve_failures = 0
    for i in range(n_samples):
        x_pert = problem.x_retract(point.x, blocks0._x_basis @ (radius * _unit_direction(seed, i, dims.dim_x)))
        result = empirical.constrained_nearest_solution(problem, point, x_pert)
        if not result.converged:
            resolve_failures += 1
            messages.append(f"sample {i}: re-solve failed ({result.message})")
            continue
        j_x, j_y, j_z, f_yz = result._evaluation  # the resolver's last evaluation
        j_x = _x_block(problem, j_x, x_pert, result.y, result.z)
        blocks_i = JacobianBlocks(j_x, j_y, j_z, _yz=f_yz)
        r_i, k_i, rank_df_i, _, gap_i, problems_i = _rank_checks(blocks_i, dims, rtol)
        min_gap = min(min_gap, gap_i)
        samples_checked += 1
        for msg in problems_i:
            messages.append(f"sample {i}: {msg}")
        if (r_i, k_i) != (r0, k0):
            messages.append(f"sample {i}: ranks (r={r_i}, k={k_i}) differ from reference (r={r0}, k={k0})")

    if n_samples > 0 and samples_checked == 0:
        messages.append("no perturbed sample could be re-solved; constancy not verifiable")
    passed = not messages
    return RankCertificate(
        r=r0,
        k=k0,
        rank_df=d_df0.rank,
        nullity_yz=nullity0,
        samples_checked=samples_checked,
        resolve_failures=resolve_failures,
        tolerance=tolerance_abs,
        passed=passed,
        fragile=bool(min_gap < 10.0 * tolerance_abs),
        min_gap=float(min_gap),
        messages=tuple(messages),
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
    dh, dh_z, dh_yz = _minnorm_derivatives(blocks, rtol)
    return spectral_norm(dh), spectral_norm(dh_z), spectral_norm(dh_yz), dh


def condition_numbers(
    problem: CrepProblem,
    point: CrepPoint,
    *,
    n_samples: int = 4,
    radius: float | None = None,
    seed: int = 0,
) -> ConditionReport:
    """Certify ``point`` and compute the condition numbers of the problem.

    The kappa stage reuses the certificate's evaluation of ``point`` and cuts
    at its tolerance, ``problem.rtol``.  When certification fails the report
    carries the failed certificate and ``None`` condition numbers instead of
    numeric sentinels.
    """
    evaluated: list[JacobianBlocks] = []
    token = _REFERENCE_BLOCKS.set(evaluated)
    try:
        certificate = certify_crep(problem, point, n_samples=n_samples, radius=radius, seed=seed)
    finally:
        _REFERENCE_BLOCKS.reset(token)
    if not certificate.passed:
        return ConditionReport(kappa_y=None, kappa_z=None, kappa_yz=None, dh=None, certificate=certificate)
    kappa_y, kappa_z, kappa_yz, dh = condition_numbers_from_blocks(evaluated[0], problem.rtol)
    return ConditionReport(
        kappa_y=kappa_y, kappa_z=kappa_z, kappa_yz=kappa_yz, dh=dh, certificate=certificate
    )
