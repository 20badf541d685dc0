import numpy as np
import pytest

from crepcond.crep import certify_crep, evaluate_blocks
from crepcond.linalg import numerical_rank, spectral_norm
from crepcond.problems import (
    SpecError,
    linearized_problem,
    matrix_factorization_problem,
    polar_problem,
    problem_from_spec,
    random_linearized_blocks,
)
from crepcond.tensor import save_tensor
from crepcond.tucker import random_tucker_point


def test_polar_requires_input_below_one():
    with pytest.raises(ValueError):
        polar_problem(1.0)
    with pytest.raises(ValueError):
        polar_problem(2.5)


@pytest.mark.parametrize("x0", [float("nan"), float("-inf"), float("inf")])
def test_polar_rejects_non_finite_input(x0):
    with pytest.raises(ValueError, match="finite"):
        polar_problem(x0)


def test_polar_reference_point_feasible():
    problem, point = polar_problem(0.3)
    assert point.residual_norm <= point.feas_tol
    assert point.y[0] == pytest.approx(1.0 / 0.7)


def test_matrix_factorization_structure():
    problem, point = matrix_factorization_problem(4, 3, 2, seed=7)
    assert tuple(problem.dims) == ((4 + 3 - 2) * 2, 8, 6, 12)
    blocks = evaluate_blocks(problem, point)
    assert blocks.j_x.shape == (12, 10)
    x = point.x.reshape(4, 3)
    assert numerical_rank(x).rank == 2
    moved = problem.x_retract(point.x, 1e-3 * np.ones(12)).reshape(4, 3)
    assert numerical_rank(moved).rank == 2


def test_matrix_factorization_validates_rank():
    with pytest.raises(ValueError):
        matrix_factorization_problem(4, 3, 4)


def test_linearized_problem_blocks_pass_through():
    rng = np.random.default_rng(8)
    j_y = rng.standard_normal((4, 2))
    j_z = rng.standard_normal((4, 1))
    j_x = np.hstack([j_y, j_z]) @ rng.standard_normal((3, 2))
    problem, point = linearized_problem(j_x, j_y, j_z)
    blocks = evaluate_blocks(problem, point)
    np.testing.assert_array_equal(blocks.j_x, j_x)
    cert = certify_crep(problem, point, n_samples=2, seed=0)
    assert cert.passed


def test_random_linearized_blocks_deterministic_and_consistent():
    a = random_linearized_blocks(123)
    b = random_linearized_blocks(123)
    np.testing.assert_array_equal(a.j_x, b.j_x)
    np.testing.assert_array_equal(a.j_y, b.j_y)
    np.testing.assert_array_equal(a.j_z, b.j_z)
    for i in range(20):
        blocks = random_linearized_blocks((9, i))
        r_yz = numerical_rank(np.hstack([blocks.j_y, blocks.j_z])).rank
        r_df = numerical_rank(np.hstack([blocks.j_x, blocks.j_y, blocks.j_z])).rank
        assert r_df == r_yz


# ---------------------------------------------------------------------------
# problem_from_spec


def test_spec_polar():
    problem, point = problem_from_spec({"kind": "polar", "x0": 0.0})
    assert problem.name.startswith("polar")


def test_spec_matrix_factorization():
    problem, _ = problem_from_spec({"kind": "matrix_factorization", "m": 4, "n": 3, "k_rank": 2, "seed": 1})
    assert tuple(problem.dims) == (10, 8, 6, 12)


def test_spec_tucker_with_tensor_file(tmp_path):
    point = random_tucker_point((4, 3), (2, 2), 10)
    save_tensor(point.product, tmp_path / "t.json")
    spec = {"kind": "tucker", "tensor": "t.json", "ranks": [2, 2], "output_variable": "U2"}
    problem, _ = problem_from_spec(spec, base_dir=tmp_path)
    assert problem.name.endswith("U2")


def test_spec_tucker_inline_tensor():
    point = random_tucker_point((4, 3), (2, 2), 11)
    spec = {
        "kind": "tucker",
        "tensor": {"shape": [4, 3], "data": [float(v) for v in point.product.ravel()]},
        "ranks": [2, 2],
        "output_variable": "core",
    }
    problem, _ = problem_from_spec(spec)
    assert problem.name.endswith("core")


def test_spec_custom_linearized():
    spec = {"kind": "custom_linearized", "J_x": [[1.0], [2.0]], "J_y": [[1.0, 0.0], [0.0, 1.0]], "J_z": []}
    problem, point = problem_from_spec(spec)
    blocks = evaluate_blocks(problem, point)
    assert blocks.j_z.shape == (2, 0)
    assert spectral_norm(blocks.j_x) == pytest.approx(np.sqrt(5.0))


@pytest.mark.parametrize(
    "spec, field",
    [
        ({}, "kind"),
        ({"kind": "nope"}, "kind"),
        ({"kind": "polar"}, "x0"),
        ({"kind": "polar", "x0": "zero"}, "x0"),
        ({"kind": "polar", "x0": 2.0}, "x0"),
        ({"kind": "matrix_factorization", "m": 4, "n": 3}, "k_rank"),
        ({"kind": "matrix_factorization", "m": 4, "n": 3, "k_rank": 2, "seed": "x"}, "seed"),
        ({"kind": "tucker", "ranks": [2, 2]}, "tensor"),
        ({"kind": "tucker", "tensor": "missing.json", "ranks": [2, 2]}, "tensor"),
        ({"kind": "custom_linearized", "J_y": [[1.0]]}, "J_x"),
        ({"kind": "custom_linearized", "J_x": [[1.0]], "J_y": [["a"]]}, "J_"),
        ({"kind": "polar", "x0": float("nan")}, "x0"),
        ({"kind": "polar", "x0": False}, "x0"),
        ({"kind": "matrix_factorization", "m": True, "n": 3, "k_rank": 2}, "'m'"),
        ({"kind": "matrix_factorization", "m": 4, "n": 3, "k_rank": True}, "k_rank"),
        ({"kind": "matrix_factorization", "m": 4, "n": 3, "k_rank": 2, "seed": False}, "seed"),
        ({"kind": "matrix_factorization", "m": 4, "n": 3, "k_rank": 2, "seed": -1},
         "field 'seed' must be a nonnegative integer"),
        ({"kind": "custom_linearized", "J_x": [["1"], [True]], "J_y": [[1, 0], [0, 1]]}, "'J_x' must hold only numbers"),
        ({"kind": "custom_linearized", "J_x": [[1], [0]], "J_y": [[True, 0], [0, 1]]}, "'J_y' must hold only numbers"),
        ({"kind": "custom_linearized", "J_x": [[1], [0]], "J_y": [[1], [0]], "J_z": [["0"], [1]]},
         "'J_z' must hold only numbers"),
        ({"kind": "tucker", "tensor": {"shape": [2, 2], "data": ["1", 0, False, True]}, "ranks": [2, 2]},
         "'data' must hold only numbers"),
    ],
)
def test_spec_errors_name_the_field(spec, field):
    with pytest.raises(SpecError) as err:
        problem_from_spec(spec)
    assert field in str(err.value)


@pytest.mark.parametrize("kind", ["polar", "matrix_factorization", "tucker", "custom_linearized"])
def test_spec_rtol_is_the_problem_rtol(kind):
    tensor = random_tucker_point((4, 3), (2, 2), 13).product
    spec = {
        "polar": {"x0": 0.0},
        "matrix_factorization": {"m": 4, "n": 3, "k_rank": 2},
        "tucker": {"tensor": {"shape": [4, 3], "data": tensor.ravel().tolist()}, "ranks": [2, 2]},
        "custom_linearized": {"J_x": [[1.0], [2.0]], "J_y": [[1.0, 0.0], [0.0, 1.0]]},
    }[kind]
    problem, _ = problem_from_spec({"kind": kind, **spec}, rtol=1e-9)
    assert problem.rtol == 1e-9


def test_spec_tucker_rank_mismatch(tmp_path):
    point = random_tucker_point((4, 3), (2, 2), 12)
    save_tensor(point.product, tmp_path / "t.json")
    spec = {"kind": "tucker", "tensor": "t.json", "ranks": [3, 3]}
    with pytest.raises(SpecError) as err:
        problem_from_spec(spec, base_dir=tmp_path)
    assert "multilinear rank" in str(err.value)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"output_variable": True}, "output_variable"),
        ({"output_variable": False}, "output_variable"),
        ({"ranks": [True, 2]}, "ranks"),
        ({"tensor": {"shape": [True, 4], "data": [0.0] * 4}}, "shape"),
    ],
)
def test_spec_tucker_rejects_booleans_for_integers(change, message):
    point = random_tucker_point((4, 3), (2, 2), 12)
    spec = {"kind": "tucker", "tensor": {"shape": [4, 3], "data": point.product.ravel().tolist()}, "ranks": [2, 2]}
    problem_from_spec(spec)  # the spec is valid before the change
    with pytest.raises(SpecError) as err:
        problem_from_spec({**spec, **change})
    assert message in str(err.value)
