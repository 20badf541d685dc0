"""Dense multilinear algebra.

Mode flattenings, multilinear multiplication, truncated higher-order SVD,
multilinear rank, and orthonormal tangent-space bases for the Stiefel
manifold and the manifold of tensors with fixed multilinear rank.

Conventions
-----------
Tensors are plain ``numpy`` arrays in row-major (C) order.  Modes are
0-based, like numpy axes.  ``flatten(t, d)`` puts index ``i_d`` on the rows
and enumerates the remaining indices in their original order with earlier
modes varying slowest, so that for every mode

    flatten(multilinear_multiply(us, t), d)
        == us[d] @ flatten(t, d) @ kron(us except d, in order).T

holds exactly.  For matrices this reduces to ``(u, v) . a = u @ a @ v.T``.

Matrices are vectorized row-major everywhere (``.ravel()``), so Frobenius
inner products of matrices equal dot products of their vectorizations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import (
    _is_orthonormal,
    _resolve_rtol,
    _svd,
    as_matrix,
    complement_basis,
    numerical_rank,
)

__all__ = [
    "TuckerPoint",
    "flatten",
    "horizontal_tangent_basis",
    "hosvd",
    "kronecker",
    "load_tensor",
    "mlrank_tangent_basis",
    "mlrank_tangent_blocks",
    "mlrank_tangent_dim",
    "multilinear_multiply",
    "multilinear_rank",
    "save_tensor",
    "stiefel_tangent_basis",
    "stiefel_tangent_dim",
    "tensor_from_obj",
    "tensor_to_obj",
    "unflatten",
]


def _as_tensor(t, name: str = "tensor") -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(t, dtype=float))
    if a.ndim == 0:
        raise ValueError(f"{name} must have at least one mode")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for an order-{t.ndim} tensor")


def flatten(t, mode: int) -> np.ndarray:
    """Mode-``mode`` flattening: an ``n_mode x prod(other dims)`` matrix.

    Columns enumerate the remaining indices in original order, earlier
    modes varying slowest.
    """
    t = _as_tensor(t)
    _check_mode(t, mode)
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def unflatten(m, shape, mode: int) -> np.ndarray:
    """Inverse of :func:`flatten` for the given full tensor ``shape``."""
    shape = tuple(int(n) for n in shape)
    m = as_matrix(m)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1 :]
    if m.shape != (shape[mode], int(np.prod(rest, dtype=int))):
        raise ValueError(f"matrix of shape {m.shape} does not unflatten to {shape} at mode {mode}")
    return np.moveaxis(m.reshape((shape[mode],) + rest), 0, mode)


def kronecker(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) equals ``a[i, j] * b``."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def _kron_chain(mats) -> np.ndarray:
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def multilinear_multiply(matrices, t) -> np.ndarray:
    """Apply one matrix per mode: ``matrices[d]`` acts along mode ``d``."""
    t = _as_tensor(t)
    matrices = [as_matrix(m, f"matrices[{d}]") for d, m in enumerate(matrices)]
    if len(matrices) != t.ndim:
        raise ValueError(f"need {t.ndim} matrices, got {len(matrices)}")
    out = t
    for d, m in enumerate(matrices):
        if m.shape[1] != out.shape[d]:
            raise ValueError(
                f"matrices[{d}] has {m.shape[1]} columns but mode {d} has size {out.shape[d]}"
            )
        out = np.moveaxis(np.tensordot(m, out, axes=(1, d)), 0, d)
    return out


def multilinear_rank(t, rtol: float | None = None) -> tuple[int, ...]:
    """Tuple of numerical ranks of all mode flattenings."""
    t = _as_tensor(t)
    return tuple(numerical_rank(flatten(t, d), rtol).rank for d in range(t.ndim))


@dataclass(frozen=True)
class TuckerPoint:
    """A tensor together with an orthogonal decomposition of minimal core size.

    ``product`` is the represented tensor, ``core`` the ``m_1 x ... x m_D``
    core and ``factors[d]`` an ``n_d x m_d`` matrix with orthonormal
    columns.  Validation enforces factor orthonormality, reconstruction of
    the product, and that every core flattening has full row rank (so the
    core size equals the multilinear rank of the product).
    """

    core: np.ndarray
    factors: tuple[np.ndarray, ...]
    product: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        core = _as_tensor(self.core, "core")
        factors = tuple(as_matrix(u, f"factors[{d}]") for d, u in enumerate(self.factors))
        if len(factors) != core.ndim:
            raise ValueError(f"core has order {core.ndim} but {len(factors)} factors given")
        for d, u in enumerate(factors):
            if u.shape[1] != core.shape[d]:
                raise ValueError(f"factors[{d}] has {u.shape[1]} columns, core mode {d} is {core.shape[d]}")
            if not _is_orthonormal(u, 1e-12):
                raise ValueError(f"factors[{d}] does not have orthonormal columns")
        product = self.product
        if product is None:
            product = multilinear_multiply(factors, core)
        else:
            product = _as_tensor(product, "product")
            err = np.linalg.norm(product - multilinear_multiply(factors, core))
            if err > 1e-10 * max(np.linalg.norm(core), 1e-300):
                raise ValueError(f"product does not reconstruct from core and factors (error {err:.3e})")
        for d in range(core.ndim):
            if numerical_rank(flatten(core, d)).rank != core.shape[d]:
                raise ValueError(f"core flattening {d} is row-rank deficient; the decomposition is not minimal")
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "product", product)

    @property
    def order(self) -> int:
        return self.core.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.product.shape

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape


def hosvd(t, ranks, rtol: float | None = None) -> TuckerPoint:
    """Truncated higher-order SVD of ``t`` at the requested mode ranks.

    ``factors[d]`` holds the leading left singular vectors of the mode-``d``
    flattening and the core is the tensor expressed in those bases.  When
    ``ranks`` equals the multilinear rank of ``t`` the reconstruction is
    exact; smaller ranks give the standard truncation.  Requesting a rank
    above the numerical multilinear rank raises ``ValueError``.
    """
    t = _as_tensor(t)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != t.ndim:
        raise ValueError(f"need {t.ndim} ranks, got {len(ranks)}")
    factors = []
    for d, r in enumerate(ranks):
        mat = flatten(t, d)
        if r < 0 or r > min(mat.shape):
            raise ValueError(f"ranks[{d}]={r} exceeds the flattening shape {mat.shape}")
        f = _svd(mat, rtol)
        if r > f.rank:
            raise ValueError(
                f"requested rank {r} in mode {d} exceeds the numerical multilinear rank {f.rank}"
            )
        factors.append(f.u[:, :r])
    core = multilinear_multiply([u.T for u in factors], t)
    return TuckerPoint(core=core, factors=tuple(factors))


# ---------------------------------------------------------------------------
# Tangent-space bases.  All bases are explicit dense matrices whose columns
# are row-major vectorized ambient directions, orthonormal in the Frobenius
# inner product.


def stiefel_tangent_dim(n: int, m: int) -> int:
    return n * m - m * (m + 1) // 2


def stiefel_tangent_basis(u) -> np.ndarray:
    """Orthonormal basis of the Stiefel tangent space at ``u``.

    The tangent space at an ``n x m`` matrix with orthonormal columns is
    ``{v : u.T v + v.T u = 0}``; its dimension is ``n m - m (m + 1) / 2``.
    Columns of the result are vectorized ``n x m`` matrices: first the
    skew rotations ``u @ (E_ij - E_ji) / sqrt(2)`` for ``i < j`` (``j`` slowest),
    then the horizontal directions from :func:`horizontal_tangent_basis`.
    """
    u = _check_orthonormal(u)
    return _stiefel_basis(u, complement_basis(u), _skew_generators(u.shape[1]))


def _skew_generators(m: int) -> np.ndarray:
    """``(P, m, m)`` stack of the skew ``Omega_p = (E_ij - E_ji) / sqrt(2)``, ``i < j``
    (``j`` slowest): ``U Omega_p`` is skew column ``p`` of :func:`stiefel_tangent_basis`."""
    j_idx, i_idx = np.tril_indices(m, -1)
    pairs = np.arange(j_idx.size)
    omega = np.zeros((j_idx.size, m, m))
    omega[pairs, i_idx, j_idx] = 1.0 / math.sqrt(2.0)
    omega[pairs, j_idx, i_idx] = -1.0 / math.sqrt(2.0)
    return omega


def _stiefel_basis(u: np.ndarray, perp: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """:func:`stiefel_tangent_basis` at ``u`` from ``perp = complement_basis(u)`` and ``_skew_generators(m)``."""
    n, m = u.shape
    return np.hstack([(u @ omega).reshape(omega.shape[0], n * m).T, np.kron(perp, np.eye(m))])


def horizontal_tangent_basis(u) -> np.ndarray:
    """Orthonormal basis of ``{v : u.T v = 0}``, dimension ``(n - m) m``.

    Column ``k m + l`` is ``perp[:, k] e_l.T`` for ``perp = complement_basis(u)``.
    """
    u = _check_orthonormal(u)
    return np.kron(complement_basis(u), np.eye(u.shape[1]))


def _check_orthonormal(u) -> np.ndarray:
    u = as_matrix(u, "u")
    if u.shape[1] > u.shape[0]:
        raise ValueError(f"{u.shape} has more columns than rows")
    if not _is_orthonormal(u, 1e-10):
        raise ValueError("matrix does not have orthonormal columns")
    return u


def mlrank_tangent_dim(shape, ranks) -> int:
    shape = tuple(int(n) for n in shape)
    ranks = tuple(int(m) for m in ranks)
    return int(np.prod(ranks, dtype=int)) + sum((n - m) * m for n, m in zip(shape, ranks))


def _factor_directions(factors, core, mode: int, left) -> np.ndarray:
    """Column ``k m + l`` is the vectorized ``(U_1, .., left[:, k] e_l.T, .., U_D) . core``.

    By the flattening identity that is ``left[:, k]`` times row ``l`` of the
    partial product ``(U_1, .., I, .., U_D) . core`` flattened at ``mode``.
    """
    mats = list(factors)
    mats[mode] = np.eye(core.shape[mode])
    partial = multilinear_multiply(mats, core)
    before = int(np.prod(partial.shape[:mode], dtype=int))
    cols = np.einsum("ik,bla->biakl", left, partial.reshape(before, core.shape[mode], -1))
    return cols.reshape(math.prod(cols.shape[:3]), -1)


def mlrank_tangent_blocks(p: TuckerPoint) -> list[np.ndarray]:
    """The D+1 raw summand blocks spanning the fixed-multilinear-rank tangent space.

    Block 0 maps core velocities through the factors (an isometry, hence
    already orthonormal); block ``d + 1`` maps horizontal velocities of
    factor ``d`` through the remaining decomposition, built from one partial
    product by the flattening identity.  The blocks are pairwise orthogonal
    in the Frobenius inner product.
    """
    blocks = [_factor_directions(p.factors, p.core, d, complement_basis(u)) for d, u in enumerate(p.factors)]
    return [_kron_chain(p.factors)] + blocks


def _mode_frame(factors, core, mode: int, rtol: float | None, n_res: int):
    """``(perp, f)`` for tangent block ``mode + 1``: the complement basis of
    ``factors[mode]`` and the SVD ``C_(d) = W S V.T`` of the core flattening,
    cut at ``rtol`` keyed to the block's ambient shape."""
    perp, flat = complement_basis(factors[mode]), flatten(core, mode)
    return perp, _svd(flat, _resolve_rtol(rtol, (n_res, perp.shape[1] * flat.shape[0])))


def mlrank_tangent_basis(p: TuckerPoint, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the tangent space of the fixed-multilinear-rank
    manifold at ``p.product``, as vectorized ambient directions.

    Dimension: ``prod(m_d) + sum((n_d - m_d) m_d)``.  The summand blocks of
    :func:`mlrank_tangent_blocks` are pairwise orthogonal, and block ``d + 1``
    has Gram matrix ``I kron C_(d) C_(d).T``; with ``C_(d) = W S V.T`` the
    block spans the same space when built from the rows of ``V.T`` in place
    of the core flattening, and is then orthonormal (rows for singular values
    at or below the block's rank cut at ``rtol`` dropped).
    """
    return _mlrank_basis(p.core, p.factors, rtol, p.product.size)


def _mlrank_basis(core, factors, rtol: float | None, n_res: int) -> np.ndarray:
    """:func:`mlrank_tangent_basis` of a decomposition the caller vouches for, ``n_res`` its size."""
    ortho = [_kron_chain(factors)]
    for d in range(core.ndim):
        perp, f = _mode_frame(factors, core, d, rtol, n_res)
        vh_core = unflatten(f.vh[: f.rank], core.shape[:d] + (f.rank,) + core.shape[d + 1 :], d)
        ortho.append(_factor_directions(factors, vh_core, d, perp))
    basis = np.hstack(ortho)
    expected = mlrank_tangent_dim([u.shape[0] for u in factors], core.shape)
    if basis.shape[1] != expected:
        raise ValueError(
            f"tangent basis has {basis.shape[1]} columns, expected {expected}; "
            "the core is not of full multilinear rank at this tolerance"
        )
    return basis


# ---------------------------------------------------------------------------
# Tensor file format: a JSON object {"shape": [...], "data": [row-major]}.


def tensor_to_obj(t) -> dict:
    t = _as_tensor(t)
    return {"shape": list(t.shape), "data": [float(v) for v in t.ravel()]}


def _is_int(value) -> bool:
    """An integer, but not a ``bool`` (an ``int`` subclass; JSON ``true`` is not a number)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _numbers(value, name: str) -> np.ndarray:
    """Nested lists of numbers as a float array; any other entry (a string, boolean or null) raises ``ValueError``."""
    a = np.array(value, dtype=object)
    if bad := [v for v in a.flat if not (_is_int(v) or isinstance(v, (float, np.floating)))]:
        raise ValueError(f"'{name}' must hold only numbers, got {bad[0]!r}")
    return a.astype(float)


def tensor_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "shape" not in obj or "data" not in obj:
        raise ValueError("tensor object must be a mapping with 'shape' and 'data'")
    shape = obj["shape"]
    if not isinstance(shape, (list, tuple)) or not shape or not all(
        _is_int(n) and n > 0 for n in shape
    ):
        raise ValueError("'shape' must be a non-empty list of positive integers")
    data = _numbers(obj["data"], "data")
    if data.ndim != 1 or data.size != int(np.prod(shape, dtype=int)):
        raise ValueError(f"'data' must hold {int(np.prod(shape, dtype=int))} scalars in row-major order")
    return _as_tensor(data.reshape(shape))


def load_tensor(path) -> np.ndarray:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return tensor_from_obj(json.load(fh))


def save_tensor(t, path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(tensor_to_obj(t), fh)
        fh.write("\n")
