import json
import math

import numpy as np
import pytest

from crepcond.linalg import complement_basis, numerical_rank, orthonormalize, subspace_distance
from crepcond.tensor import (
    TuckerPoint,
    _factor_directions,
    flatten,
    horizontal_tangent_basis,
    hosvd,
    kronecker,
    load_tensor,
    mlrank_tangent_basis,
    mlrank_tangent_blocks,
    mlrank_tangent_dim,
    multilinear_multiply,
    multilinear_rank,
    save_tensor,
    stiefel_tangent_basis,
    stiefel_tangent_dim,
    tensor_from_obj,
    tensor_to_obj,
    unflatten,
)
from crepcond.tucker import random_stiefel, random_tucker_point, regauge


def kron_chain(mats):
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


# ---------------------------------------------------------------------------
# flatten / unflatten


def test_flatten_matrix_modes():
    a = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(flatten(a, 0), a)
    np.testing.assert_array_equal(flatten(a, 1), a.T)


def test_flatten_column_order_third_order():
    t = np.arange(8.0).reshape(2, 2, 2)  # entry (i,j,k) = 4i + 2j + k
    row = flatten(t, 0)[0]
    np.testing.assert_array_equal(row, [t[0, 0, 0], t[0, 0, 1], t[0, 1, 0], t[0, 1, 1]])
    # mode 1: columns enumerate (i, k) with i slowest
    row = flatten(t, 1)[0]
    np.testing.assert_array_equal(row, [t[0, 0, 0], t[0, 0, 1], t[1, 0, 0], t[1, 0, 1]])


def test_flatten_unflatten_roundtrip():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 2))
    for mode in range(3):
        np.testing.assert_array_equal(unflatten(flatten(t, mode), t.shape, mode), t)


def test_flatten_mode_out_of_range():
    with pytest.raises(ValueError):
        flatten(np.zeros((2, 2)), 2)


# ---------------------------------------------------------------------------
# kronecker


def test_kronecker_identity_blocks():
    b = np.arange(4.0).reshape(2, 2)
    k = kronecker(np.eye(2), b)
    np.testing.assert_array_equal(k[:2, :2], b)
    np.testing.assert_array_equal(k[2:, 2:], b)
    np.testing.assert_array_equal(k[:2, 2:], np.zeros((2, 2)))


def test_kronecker_scalar():
    b = np.arange(4.0).reshape(2, 2)
    np.testing.assert_array_equal(kronecker(np.array([[2.0]]), b), 2 * b)


def test_kronecker_mixed_product():
    rng = np.random.default_rng(2)
    a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
    lhs = kronecker(a, b) @ kronecker(c, d)
    rhs = kronecker(a @ c, b @ d)
    assert np.linalg.norm(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# multilinear_multiply


def test_multilinear_identity():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((2, 3, 4))
    out = multilinear_multiply([np.eye(2), np.eye(3), np.eye(4)], t)
    np.testing.assert_allclose(out, t)


def test_multilinear_matrix_case():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4))
    u = rng.standard_normal((2, 3))
    v = rng.standard_normal((5, 4))
    np.testing.assert_allclose(multilinear_multiply([u, v], a), u @ a @ v.T, atol=1e-12)


def test_multilinear_two_evaluation_paths_agree():
    # same tensor computed via the flattening identity at two different modes
    rng = np.random.default_rng(5)
    t = rng.standard_normal((3, 2, 4))
    us = [rng.standard_normal((4, 3)), rng.standard_normal((3, 2)), rng.standard_normal((2, 4))]
    b = multilinear_multiply(us, t)
    via_mode0 = us[0] @ flatten(t, 0) @ kron_chain([us[1], us[2]]).T
    via_mode2 = us[2] @ flatten(t, 2) @ kron_chain([us[0], us[1]]).T
    assert np.linalg.norm(flatten(b, 0) - via_mode0) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(flatten(b, 2) - via_mode2) <= 1e-12 * np.linalg.norm(b)


def test_flattening_identity_all_modes():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((2, 3, 2, 2))
    us = [rng.standard_normal((rng.integers(2, 5), n)) for n in t.shape]
    b = multilinear_multiply(us, t)
    for j in range(t.ndim):
        others = [u for d, u in enumerate(us) if d != j]
        expect = us[j] @ flatten(t, j) @ kron_chain(others).T
        assert np.linalg.norm(flatten(b, j) - expect) <= 1e-12 * np.linalg.norm(b)


def test_multilinear_composition():
    rng = np.random.default_rng(7)
    t = rng.standard_normal((2, 3, 2))
    bs = [rng.standard_normal((3, 2)), rng.standard_normal((2, 3)), rng.standard_normal((4, 2))]
    as_ = [rng.standard_normal((2, 3)), rng.standard_normal((3, 2)), rng.standard_normal((2, 4))]
    lhs = multilinear_multiply(as_, multilinear_multiply(bs, t))
    rhs = multilinear_multiply([a @ b for a, b in zip(as_, bs)], t)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_multilinear_shape_mismatch():
    with pytest.raises(ValueError):
        multilinear_multiply([np.eye(3)], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        multilinear_multiply([np.eye(3), np.eye(2)], np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# hosvd / multilinear_rank


def test_hosvd_exact_rank_reconstruction():
    point = random_tucker_point((5, 4, 3), (2, 2, 2), 8)
    redone = hosvd(point.product, (2, 2, 2))
    assert np.linalg.norm(redone.product - point.product) <= 1e-10 * np.linalg.norm(point.product)


def test_hosvd_matrix_truncation_singular_values():
    t = np.diag([3.0, 1.0, 0.0])
    point = hosvd(t, (2, 2))
    s = np.linalg.svd(flatten(point.core, 0), compute_uv=False)
    np.testing.assert_allclose(s, [3.0, 1.0], atol=1e-12)


def test_hosvd_recovers_generator_core_spectrum():
    point = random_tucker_point((5, 4, 3), (3, 2, 2), 9)
    redone = hosvd(point.product, (3, 2, 2))
    for d in range(3):
        s_gen = np.linalg.svd(flatten(point.core, d), compute_uv=False)
        s_new = np.linalg.svd(flatten(redone.core, d), compute_uv=False)
        np.testing.assert_allclose(s_new, s_gen, atol=1e-10)


def test_hosvd_rejects_excessive_rank():
    rng = np.random.default_rng(10)
    t = np.outer(rng.standard_normal(4), rng.standard_normal(3))  # rank 1
    with pytest.raises(ValueError):
        hosvd(t, (2, 2))


def test_hosvd_rejects_non_minimal_truncation():
    # Truncating rank (2, 2, 2) to (2, 1, 1) leaves a 2 x 1 x 1 core whose
    # mode-0 flattening has rank 1, so the decomposition is not minimal.
    point = random_tucker_point((4, 3, 3), (2, 2, 2), 13)
    with pytest.raises(ValueError, match="not minimal"):
        hosvd(point.product, (2, 1, 1))


def test_hosvd_idempotent_on_exact_rank():
    point = random_tucker_point((4, 3), (2, 2), 11)
    once = hosvd(point.product, (2, 2))
    twice = hosvd(once.product, (2, 2))
    assert np.linalg.norm(twice.product - once.product) <= 1e-12 * np.linalg.norm(once.product)


def test_multilinear_rank_cases():
    rng = np.random.default_rng(12)
    a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
    rank1 = np.einsum("i,j,k->ijk", a, b, c)
    assert multilinear_rank(rank1) == (1, 1, 1)

    generic = rng.standard_normal((3, 3, 3))
    assert multilinear_rank(generic) == (3, 3, 3)
    for d in range(3):
        assert np.linalg.svd(flatten(generic, d), compute_uv=False)[-1] > 1e-6

    assert multilinear_rank(np.zeros((2, 2, 2))) == (0, 0, 0)


# ---------------------------------------------------------------------------
# TuckerPoint validation


def test_tucker_point_rejects_nonorthonormal_factor():
    core = np.eye(2)
    with pytest.raises(ValueError):
        TuckerPoint(core=core, factors=(2 * np.eye(2), np.eye(2)))


def test_tucker_point_rejects_wrong_product():
    core = np.eye(2)
    factors = (np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        TuckerPoint(core=core, factors=factors, product=np.ones((2, 2)))


def test_tucker_point_rejects_rank_deficient_core():
    core = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        TuckerPoint(core=core, factors=(np.eye(2), np.eye(2)))


def test_gauge_orbit_reconstructs_product():
    point = random_tucker_point((4, 3), (2, 2), 13)
    other = regauge(point, 14)
    recon = multilinear_multiply(list(other.factors), other.core)
    assert np.linalg.norm(recon - point.product) <= 1e-12 * np.linalg.norm(point.product)


# ---------------------------------------------------------------------------
# tangent bases


def test_stiefel_tangent_square_dimension():
    u = random_stiefel(0, 3, 3)
    basis = stiefel_tangent_basis(u)
    assert basis.shape == (9, 3)  # m(m-1)/2
    assert stiefel_tangent_dim(3, 3) == 3


def test_stiefel_tangent_dimension_4x2():
    u = random_stiefel(1, 4, 2)
    basis = stiefel_tangent_basis(u)
    assert basis.shape == (8, 5)
    np.testing.assert_allclose(basis.T @ basis, np.eye(5), atol=1e-13)


def test_stiefel_tangent_defining_equation():
    u = random_stiefel(2, 5, 3)
    basis = stiefel_tangent_basis(u)
    for col in basis.T:
        v = col.reshape(5, 3)
        assert np.linalg.norm(u.T @ v + v.T @ u) <= 1e-12


def test_horizontal_square_is_empty():
    u = random_stiefel(3, 3, 3)
    assert horizontal_tangent_basis(u).shape == (9, 0)


def test_horizontal_dimension_and_equation():
    u = random_stiefel(4, 4, 2)
    basis = horizontal_tangent_basis(u)
    assert basis.shape == (8, 4)
    for col in basis.T:
        v = col.reshape(4, 2)
        assert np.linalg.norm(u.T @ v) <= 1e-12
    np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-13)


def test_stiefel_rejects_nonorthonormal():
    with pytest.raises(ValueError):
        stiefel_tangent_basis(np.ones((3, 2)))
    with pytest.raises(ValueError):
        horizontal_tangent_basis(np.ones((3, 2)))


def test_mlrank_tangent_dimension():
    point = random_tucker_point((4, 3), (2, 2), 15)
    basis = mlrank_tangent_basis(point)
    assert basis.shape == (12, 10)  # 4 + 4 + 2
    assert mlrank_tangent_dim((4, 3), (2, 2)) == 10
    np.testing.assert_allclose(basis.T @ basis, np.eye(10), atol=1e-12)
    # independent count: the assembled raw span has the same numerical rank
    raw = np.hstack(mlrank_tangent_blocks(point))
    assert numerical_rank(raw).rank == 10


def test_mlrank_tangent_square_case_is_full_space():
    point = random_tucker_point((2, 2, 2), (2, 2, 2), 16)
    basis = mlrank_tangent_basis(point)
    assert basis.shape == (8, 8)
    assert subspace_distance(basis, np.eye(8)) <= 1e-12


def test_mlrank_tangent_blocks_pairwise_orthogonal():
    point = random_tucker_point((5, 4, 3), (2, 2, 2), 17)
    blocks = mlrank_tangent_blocks(point)
    assert len(blocks) == 4
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if blocks[i].size and blocks[j].size:
                assert np.linalg.norm(blocks[i].T @ blocks[j], 2) <= 1e-12


@pytest.mark.parametrize(
    "shape, ranks, seed",
    [((5, 3, 4), (2, 3, 2), 18), ((4, 3, 3, 2), (2, 2, 2, 2), 19)],
)
def test_mlrank_basis_from_core_spans_the_orthonormalized_blocks(shape, ranks, seed):
    """Each factor block is orthonormalized from the core flattening; the
    reference orthonormalizes the ambient block itself."""
    point = random_tucker_point(shape, ranks, seed)
    basis = mlrank_tangent_basis(point)
    blocks = mlrank_tangent_blocks(point)
    reference = np.hstack([blocks[0]] + [orthonormalize(b) for b in blocks[1:]])
    assert basis.shape == reference.shape == (point.product.size, mlrank_tangent_dim(shape, ranks))
    assert np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1]), 2) <= 1e-14
    assert subspace_distance(basis, reference) <= 1e-13


def test_mlrank_basis_rejects_core_below_full_rank_at_rtol():
    core = np.zeros((2, 2, 2))
    core[0, 0, 0], core[1, 1, 1] = 1.0, 1e-9
    point = TuckerPoint(core=core, factors=tuple(random_stiefel(s, n, 2) for s, n in enumerate((4, 3, 3))))
    assert mlrank_tangent_basis(point).shape[1] == mlrank_tangent_dim((4, 3, 3), (2, 2, 2))
    with pytest.raises(ValueError, match="not of full multilinear rank"):
        mlrank_tangent_basis(point, rtol=1e-6)


def per_velocity_images(point, mode, velocities):
    """Reference: one multilinear product per factor velocity."""
    cols = []
    for v in velocities:
        mats = list(point.factors)
        mats[mode] = v
        cols.append(multilinear_multiply(mats, point.core).ravel())
    return np.column_stack(cols) if cols else np.zeros((point.product.size, 0))


@pytest.mark.parametrize(
    "shape, ranks, seed",
    [((5, 3, 4), (2, 3, 2), 18), ((4, 3, 3, 2), (2, 2, 2, 2), 19)],
)
def test_factor_directions_match_per_velocity_products(shape, ranks, seed):
    point = random_tucker_point(shape, ranks, seed)
    blocks = mlrank_tangent_blocks(point)
    for d, (n, m) in enumerate(zip(shape, ranks)):
        units = []
        for idx in range(n * m):
            e = np.zeros((n, m))
            e.flat[idx] = 1.0
            units.append(e)
        got = _factor_directions(point.factors, point.core, d, np.eye(n))
        assert got.shape == (point.product.size, n * m)
        np.testing.assert_allclose(got, per_velocity_images(point, d, units), rtol=0, atol=1e-14)
        # horizontal velocities, in the column order of horizontal_tangent_basis
        horiz = horizontal_tangent_basis(point.factors[d])
        expected = per_velocity_images(point, d, [col.reshape(n, m) for col in horiz.T])
        got = _factor_directions(point.factors, point.core, d, complement_basis(point.factors[d]))
        assert got.shape == expected.shape == (point.product.size, (n - m) * m)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(blocks[d + 1], expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n, m, seed", [(5, 3, 20), (3, 3, 21), (6, 4, 22)])
def test_stiefel_bases_match_column_construction(n, m, seed):
    u = random_stiefel(seed, n, m)
    perp = complement_basis(u)
    horiz = []
    for k in range(perp.shape[1]):
        for l in range(m):
            v = np.zeros((n, m))
            v[:, l] = perp[:, k]
            horiz.append(v.ravel())
    skew = []
    for j in range(m):
        for i in range(j):
            v = np.zeros((n, m))
            v[:, j] = u[:, i] * (1.0 / math.sqrt(2.0))
            v[:, i] = -u[:, j] * (1.0 / math.sqrt(2.0))
            skew.append(v.ravel())
    horiz = np.array(horiz).reshape(-1, n * m).T
    skew = np.array(skew).reshape(-1, n * m).T
    np.testing.assert_array_equal(horizontal_tangent_basis(u), horiz)
    np.testing.assert_array_equal(stiefel_tangent_basis(u), np.hstack([skew, horiz]))


# ---------------------------------------------------------------------------
# file format


def test_tensor_obj_roundtrip():
    rng = np.random.default_rng(18)
    t = rng.standard_normal((2, 3, 2))
    obj = tensor_to_obj(t)
    assert obj["shape"] == [2, 3, 2]
    np.testing.assert_array_equal(tensor_from_obj(obj), t)


def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(19)
    t = rng.standard_normal((4, 3))
    path = tmp_path / "t.json"
    save_tensor(t, path)
    loaded = load_tensor(path)
    np.testing.assert_array_equal(loaded, t)
    # the file is plain JSON with the documented keys
    obj = json.loads(path.read_text())
    assert set(obj) == {"shape", "data"}


@pytest.mark.parametrize(
    "obj",
    [
        {"shape": [2, 2]},
        {"data": [1.0]},
        {"shape": [2, 0], "data": []},
        {"shape": [2], "data": [1.0, 2.0, 3.0]},
        {"shape": "bad", "data": [1.0]},
        [1, 2, 3],
        {"shape": [2, 2], "data": ["1", 0, False, True]},
        {"shape": [2], "data": [1.0, None]},
    ],
)
def test_tensor_from_obj_rejects_malformed(obj):
    with pytest.raises(ValueError):
        tensor_from_obj(obj)
