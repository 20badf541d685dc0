"""Dense linear-algebra kernels: rank decisions, orthonormal subspace bases,
minimum-norm solves, and spectral norms.

Every subspace computation here is backed by one primitive, the singular
value decomposition, so that rank decisions stay consistent across
operations.  Rank tolerances are always explicit and every decision records
the absolute threshold it used, which lets downstream rank certificates be
audited after the fact.

Matrices with zero rows or columns are first-class inputs everywhere (they
show up naturally as trivial kernels and empty latent spaces) and produce
the obvious degenerate outputs.

Basis orientation (column signs / rotations within a span) is unspecified.
Callers must compare subspaces, not entries; see :func:`subspace_distance`.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

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
_IDENTITIES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_IDENTITIES_LOCK = threading.Lock()


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


def _shared_identity(n: int) -> np.ndarray:
    """Read-only ``n x n`` identity, one per size, freed when no one holds it."""
    with _IDENTITIES_LOCK:
        eye = _IDENTITIES.get(n)
        if eye is None:
            eye = _IDENTITIES[n] = np.eye(n)
            eye.flags.writeable = False
    return eye


def _resolve_rtol(rtol: float | None, shape: tuple[int, int]) -> float:
    if rtol is None:
        return default_rtol(shape)
    rtol = float(rtol)
    if rtol <= 0.0:
        raise ValueError(f"rtol must be positive, got {rtol}")
    return rtol


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
    m = as_matrix(m)
    rtol = _resolve_rtol(rtol, m.shape)
    if min(m.shape) == 0:
        return RankDecision(rank=0, singular_values=np.zeros(0), tolerance_used=0.0)
    s = np.linalg.svd(m, compute_uv=False)
    tol = rtol * float(s[0])
    rank = int(np.count_nonzero(s > tol))
    return RankDecision(rank=rank, singular_values=s, tolerance_used=tol)


def kernel_basis(m, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``m``, as columns.

    The result has ``cols(m) - numerical_rank(m)`` columns (possibly zero).
    """
    m = as_matrix(m)
    rtol = _resolve_rtol(rtol, m.shape)
    n = m.shape[1]
    if m.shape[0] == 0 or n == 0:
        return np.eye(n)
    # A thin SVD of a tall or square matrix already returns the full n x n vh.
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < n)
    tol = rtol * float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > tol))
    return vh[rank:].T


def complement_basis(m, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span.

    The result has ``rows(m) - numerical_rank(m)`` columns; for a matrix
    with zero columns that is a full orthonormal basis of the row space.
    """
    m = as_matrix(m)
    rtol = _resolve_rtol(rtol, m.shape)
    rows = m.shape[0]
    if rows == 0 or m.shape[1] == 0:
        return np.eye(rows)
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    tol = rtol * float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > tol))
    return u[:, rank:]


def orthonormalize(m, rtol: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the numerical column space of ``m``."""
    m = as_matrix(m)
    rtol = _resolve_rtol(rtol, m.shape)
    if min(m.shape) == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    tol = rtol * float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > tol))
    return u[:, :rank]


def spectral_norm(m) -> float:
    """Largest singular value of ``m``; 0 for empty matrices."""
    m = as_matrix(m)
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


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
    rtol = _resolve_rtol(rtol, a.shape)

    if min(a.shape) == 0:
        x = np.zeros((a.shape[1], b.shape[1]))
        a_norm = 0.0
    else:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        a_norm = float(s[0])
        tol = rtol * a_norm
        rank = int(np.count_nonzero(s > tol))
        x = vh[:rank].T @ ((u[:, :rank].T @ b) / s[:rank, None])

    residual = a @ x - b
    for j in range(b.shape[1]):
        res_j = float(np.linalg.norm(residual[:, j]))
        bound = rtol * (a_norm * float(np.linalg.norm(x[:, j])) + float(np.linalg.norm(b[:, j])) + scale)
        if res_j > bound:
            raise InconsistentSystemError(
                f"column {j}: least-squares residual {res_j:.3e} exceeds {bound:.3e}; "
                "the system a @ x = b is not consistent at this tolerance"
            )
    return x[:, 0] if vector_rhs else x


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
