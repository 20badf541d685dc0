"""Dense linear-algebra kernels: rank decisions, orthonormal subspace bases,
minimum-norm solves, and spectral norms.

Every SVD in the package is taken by one private helper, :func:`_svd`, with
its rank cut, so rank decisions stay consistent; other modules must not call
``np.linalg.svd``.  Rank tolerances are explicit, finite and positive, and
every decision records the absolute threshold it used, which lets downstream
rank certificates be audited after the fact.

Matrices with zero rows or columns are first-class inputs everywhere (they
show up naturally as trivial kernels and empty latent spaces) and produce
the obvious degenerate outputs.

Basis orientation (column signs / rotations within a span) is unspecified.
Callers must compare subspaces, not entries; see :func:`subspace_distance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "InconsistentSystemError",
    "RankDecision",
    "as_matrix",
    "complement_basis",
    "default_rtol",
    "kernel_basis",
    "min_norm_solve",
    "numerical_rank",
    "orthonormalize",
    "spectral_norm",
    "subspace_distance",
]

_EPS = float(np.finfo(np.float64).eps)


class InconsistentSystemError(ValueError):
    """A linear system that was expected to be consistent is not."""


def default_rtol(shape: tuple[int, int]) -> float:
    """Default relative rank tolerance for a matrix of the given shape."""
    return max(shape[0], shape[1], 1) * _EPS * 64.0


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-D float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _resolve_rtol(rtol: float | None, shape: tuple[int, int]) -> float:
    if rtol is None:
        return default_rtol(shape)
    rtol = float(rtol)
    if not (np.isfinite(rtol) and rtol > 0.0):
        raise ValueError(f"rtol must be finite and positive, got {rtol}")
    return rtol


class _Svd(NamedTuple):
    """An SVD and its rank cut: ``rank = #{s > tol}``, ``norm = sigma_max`` and
    ``tol = rtol * norm``, or ``rtol`` times the scale the caller gave :func:`_svd`."""

    u: np.ndarray | None
    s: np.ndarray
    vh: np.ndarray | None
    rank: int
    tol: float
    norm: float
    rtol: float


def _svd(m, rtol: float | None = None, *, full: bool = False, uv: bool = True, scale: float | None = None) -> _Svd:
    """The package's one SVD call, with its rank cut; ``uv=False`` leaves ``u`` and ``vh`` None.

    The cut is ``rtol`` times ``scale``, by default ``sigma_max``.  Rows of a matrix with
    orthonormal columns pass ``scale=1``: their singular values are cosines, so a block of
    roundoff has rank 0 rather than the rank of its noise.
    """
    m = as_matrix(m)
    rtol = _resolve_rtol(rtol, m.shape)
    if uv:
        u, s, vh = np.linalg.svd(m, full_matrices=full)
    else:
        u, s, vh = None, np.linalg.svd(m, compute_uv=False), None
    norm = float(s[0]) if s.size else 0.0
    tol = rtol * (norm if scale is None else scale)
    return _Svd(u, s, vh, int(np.count_nonzero(s > tol)), tol, norm, rtol)


def _recut(f: _Svd, rtol: float | None, shape: tuple[int, int]) -> _Svd:
    """``f``, the SVD of a matrix of ``shape``, with its rank cut at ``rtol``."""
    rtol = _resolve_rtol(rtol, shape)
    return _Svd(f.u, f.s, f.vh, int(np.count_nonzero(f.s > rtol * f.norm)), rtol * f.norm, f.norm, rtol)


def _is_orthonormal(b: np.ndarray, tol: float) -> bool:
    """``||b.T b - I||_2 <= tol``, with an SVD only if the Frobenius norm, a bound, exceeds tol."""
    err = b.T @ b - np.eye(b.shape[1])
    return bool(np.linalg.norm(err) <= tol or spectral_norm(err) <= tol)


@dataclass(frozen=True)
class RankDecision:
    """Outcome of a numerical rank decision.

    ``rank`` counts the singular values strictly above ``tolerance_used``,
    the absolute cutoff ``rtol * sigma_max`` that was applied.  The full
    nonincreasing spectrum is kept so the decision can be audited, e.g. to
    measure the gap around the cut.
    """

    rank: int
    singular_values: np.ndarray
    tolerance_used: float

    def gap_at_cut(self) -> float:
        """Singular-value gap around the rank cut.

        Returns ``sigma[rank-1] - sigma[rank]`` with out-of-range entries
        treated as +inf above and 0 below.  A small gap means the rank
        decision is sensitive to the tolerance.
        """
        s = self.singular_values
        hi = float(s[self.rank - 1]) if self.rank >= 1 else np.inf
        lo = float(s[self.rank]) if self.rank < s.size else 0.0
        return hi - lo


def numerical_rank(m, rtol: float | None = None) -> RankDecision:
    """Numerical rank of ``m``: singular values above ``rtol * sigma_max``.

    Matrices with zero rows or columns have rank 0.
    """
    f = _svd(m, rtol, uv=False)
    return RankDecision(rank=f.rank, singular_values=f.s, tolerance_used=f.tol)


def kernel_basis(m, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``m``, as columns.

    The result has ``cols(m) - numerical_rank(m)`` columns (possibly zero).
    """
    m = as_matrix(m)
    # A thin SVD of a tall or square matrix already returns the full n x n vh.
    f = _svd(m, rtol, full=m.shape[0] < m.shape[1])
    return f.vh[f.rank :].T


def complement_basis(m, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span.

    The result has ``rows(m) - numerical_rank(m)`` columns; for a matrix
    with zero columns that is a full orthonormal basis of the row space.
    """
    f = _svd(m, rtol, full=True)
    return f.u[:, f.rank :]


def orthonormalize(m, rtol: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the numerical column space of ``m``."""
    f = _svd(m, rtol)
    return f.u[:, : f.rank]


def spectral_norm(m) -> float:
    """Largest singular value of ``m``; 0 for empty matrices."""
    return _svd(m, uv=False).norm


def min_norm_solve(a, b, rtol: float | None = None, *, scale: float = 0.0) -> np.ndarray:
    """Minimum-Frobenius-norm solution ``x`` of the consistent system ``a @ x = b``.

    When ``a`` has full column rank the solution is unique, so any left
    inverse of ``a`` yields the same result.  For rank-deficient but
    consistent systems this returns the Moore-Penrose solution, with the
    rank cut taken at ``rtol * sigma_max(a)``.

    Parameters
    ----------
    a : (m, n) array
    b : (m, p) array or (m,) vector; a vector input yields a vector output.
    rtol : relative rank/consistency tolerance (default per matrix shape).
    scale : optional extra absolute term in the consistency threshold.
        Callers that know the natural scale of the data producing ``b`` can
        pass it so that right-hand sides which cancel to roundoff are not
        misreported as inconsistent.

    Raises
    ------
    InconsistentSystemError
        If for some column ``j`` the least-squares residual exceeds
        ``rtol * (||a|| * ||x_j|| + ||b_j|| + scale)``.
    """
    a = as_matrix(a, "a")
    vector_rhs = np.asarray(b).ndim == 1
    b = as_matrix(b[:, None] if vector_rhs else b, "b")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    x = _solve(a, _svd(a, rtol), b, scale)
    return x[:, 0] if vector_rhs else x


def _lstsq(f: _Svd, b: np.ndarray) -> np.ndarray:
    """Least-squares minimum-norm solution of ``a @ x = b`` (``b`` a vector or
    columns) from the factorization ``f`` of ``a``: ``pinv(a) @ b`` at ``f``'s rank cut."""
    s = f.s[: f.rank] if b.ndim == 1 else f.s[: f.rank, None]
    return f.vh[: f.rank].T @ ((f.u[:, : f.rank].T @ b) / s)


def _solve(a: np.ndarray, f: _Svd, b: np.ndarray, scale: float) -> np.ndarray:
    """Minimum-norm solution of ``a @ x = b`` from the factorization ``f`` of
    ``a``, with the consistency check documented in :func:`min_norm_solve`."""
    x = _lstsq(f, b)
    residual = a @ x - b
    for j in range(b.shape[1]):
        res_j = float(np.linalg.norm(residual[:, j]))
        bound = f.rtol * (f.norm * float(np.linalg.norm(x[:, j])) + float(np.linalg.norm(b[:, j])) + scale)
        if res_j > bound:
            raise InconsistentSystemError(
                f"column {j}: least-squares residual {res_j:.3e} exceeds {bound:.3e}; "
                "the system a @ x = b is not consistent at this tolerance"
            )
    return x


def subspace_distance(b1, b2) -> float:
    """Distance between the spans of two orthonormal bases.

    Computed as the spectral norm of the difference of the orthogonal
    projectors, which is basis-independent.  Use this to compare subspace
    outputs; column order and sign are unspecified.
    """
    b1 = as_matrix(b1, "b1")
    b2 = as_matrix(b2, "b2")
    if b1.shape[0] != b2.shape[0]:
        raise ValueError("bases live in different ambient dimensions")
    return spectral_norm(b1 @ b1.T - b2 @ b2.T)
