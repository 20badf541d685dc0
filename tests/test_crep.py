import dataclasses
import tracemalloc

import numpy as np
import pytest

from crepcond import crep, empirical, linalg, tensor
from crepcond.crep import (
    CrepDims,
    CrepProblem,
    JacobianBlocks,
    RankHypothesisError,
    TangentChart,
    certify_crep,
    condition_numbers,
    condition_numbers_from_blocks,
    defining_equation_residuals,
    evaluate_blocks,
    fcre_solution_derivative,
    group_condition_numbers,
    make_crep_point,
    solution_map_derivative,
    solution_map_derivative_minnorm,
)
from crepcond.linalg import InconsistentSystemError, default_rtol, numerical_rank, spectral_norm
from crepcond.problems import (
    linearized_problem,
    matrix_factorization_problem,
    polar_problem,
    random_linearized_blocks,
)
from crepcond.tucker import (TuckerCrepConfig, build_tucker_crep, cross_validate, random_orthogonal, random_stiefel,
                             random_tucker_point)

SQRT2 = np.sqrt(2.0)


def test_tangent_chart_validation():
    TangentChart(3, np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        TangentChart(3, np.ones((3, 2)))
    with pytest.raises(ValueError):
        TangentChart(2, np.eye(3))
    assert TangentChart.full(4).dim == 4


# ---------------------------------------------------------------------------
# evaluate_blocks


def test_polar_blocks_hand_values():
    problem, point = polar_problem(0.0)
    blocks = evaluate_blocks(problem, point)
    np.testing.assert_allclose(blocks.j_x, [[-2.0], [0.0]], atol=1e-12)
    np.testing.assert_allclose(blocks.j_y, [[2.0], [0.0]], atol=1e-12)
    np.testing.assert_allclose(blocks.j_z, [[0.0], [-SQRT2]], atol=1e-12)


def test_blocks_zero_for_z_independent_residual():
    # residual ignores z entirely
    j_x = np.array([[1.0], [0.0]])
    j_y = np.array([[1.0, 0.0], [0.0, 1.0]])
    j_z = np.zeros((2, 1))
    problem, point = linearized_problem(j_x, j_y, j_z)
    blocks = evaluate_blocks(problem, point)
    np.testing.assert_array_equal(blocks.j_z, np.zeros((2, 1)))


def test_evaluate_blocks_rejects_infeasible_point():
    problem, point = polar_problem(0.0)
    bad = make_crep_point(problem, point.x, point.y, point.z)
    object.__setattr__(bad, "x", np.array([0.5]))  # now violates F = 0
    with pytest.raises(ValueError):
        evaluate_blocks(problem, bad)


def test_non_finite_residual_is_not_feasible():
    problem, point = linearized_problem(np.eye(2)[:, :1], np.eye(2), np.zeros((2, 0)))
    # ||r|| > feas_tol is False for a NaN norm; both feasibility checks must still reject it.
    with pytest.raises(ValueError, match="not feasible"):
        make_crep_point(problem, [np.nan], point.y, point.z)
    bad = make_crep_point(problem, point.x, point.y, point.z)
    object.__setattr__(bad, "x", np.array([np.nan]))
    with pytest.raises(ValueError, match="not feasible"):
        evaluate_blocks(problem, bad)


def _flat_chart(dim):
    return lambda x, y, z: TangentChart.full(dim)


def _input_in_residual_space():
    """F = x - (y, z): the input lives in the residual space, as the x chart of a tangent_blocks hook must."""
    problem = CrepProblem(
        name="x-minus-yz", dims=CrepDims(2, 1, 1, 2), residual=lambda x, y, z: x - np.concatenate([y, z]),
        jacobian=lambda x, y, z: (None, -np.eye(2)[:, :1], -np.eye(2)[:, 1:]),
        x_chart=_flat_chart(2), y_chart=_flat_chart(1), z_chart=_flat_chart(1),
    )
    return problem, make_crep_point(problem, [1.0, 2.0], [1.0], [2.0])


def test_tangent_blocks_output_is_checked():
    problem, point = _input_in_residual_space()
    flat = TangentChart.full(1)

    def hook(shapes, cy=flat, cz=flat):
        return lambda x, y, z, r: (*(np.ones(shape) for shape in shapes), None if r is None else np.ones(2), cy, cz)

    good = dataclasses.replace(problem, tangent_blocks=hook([(2, 2), (2, 1), (2, 1)]))
    assert evaluate_blocks(good, point).j_x.shape == (2, 2)
    # A block of the wrong width, or rows other than the dim_x = 2 coordinates of the x-chart basis q.
    for shapes in ([(2, 2), (2, 1), (2, 2)], [(3, 2), (3, 1), (3, 1)], [(1, 2), (1, 1), (1, 1)], [(2, 2), (1, 1), (2, 1)]):
        with pytest.raises(ValueError, match="tangent blocks"):
            evaluate_blocks(dataclasses.replace(problem, tangent_blocks=hook(shapes)), point)
    # Charts of the wrong dimension or ambient size, or no chart at all, for y and for z.
    for chart in (TangentChart(1, np.zeros((1, 0))), TangentChart(2, np.eye(2)[:, :1]), np.eye(1)):
        for charts in ((chart, flat), (flat, chart)):
            with pytest.raises(ValueError, match="tangent blocks"):
                evaluate_blocks(dataclasses.replace(problem, tangent_blocks=hook([(2, 2), (2, 1), (2, 1)], *charts)), point)
    # The polar x chart has 1 ambient coordinate for 2 residuals, so it cannot be the residual basis q.
    polar, polar_point = polar_problem(0.0)
    with pytest.raises(ValueError, match="tangent blocks need an x chart"):
        evaluate_blocks(dataclasses.replace(polar, tangent_blocks=hook([(1, 1)] * 3)), polar_point)

    def nan_hook(x, y, z, r):
        return (np.full((2, 1), np.nan),) * 3 + (r, flat, flat)

    with pytest.raises(ValueError, match="non-finite"):
        evaluate_blocks(dataclasses.replace(problem, tangent_blocks=nan_hook), point)


def test_identity_input_jacobian_needs_an_x_chart_in_the_residual_space():
    """A None input Jacobian is the identity, so the x chart must live in the
    residual space; the polar input chart has 1 ambient coordinate for 2 residuals."""
    problem, point = polar_problem(0.0)
    bad = dataclasses.replace(problem, jacobian=lambda x, y, z: (None, *problem.jacobian(x, y, z)[1:]))
    with pytest.raises(ValueError, match="identity"):
        evaluate_blocks(bad, point)
    with pytest.raises(ValueError, match="identity"):
        certify_crep(bad, point, n_samples=1)


def test_tucker_block_dimensions_match_tangent_formulas():
    point = random_tucker_point((4, 3), (2, 2), 21)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    blocks = evaluate_blocks(problem, pt)
    # dim_x from the fixed-rank tangent formula, dim_y/dim_z from Stiefel
    # tangent dimensions and the core dimension (see the tucker module); the
    # rows are the dim_x coordinates of the input tangent space
    assert blocks.j_x.shape == (10, 10)
    assert blocks.j_y.shape == (10, 5)
    assert blocks.j_z.shape == (10, 4 + 3)


# ---------------------------------------------------------------------------
# solution_map_derivative


def test_derivative_polar():
    problem, point = polar_problem(0.0)
    dh = solution_map_derivative(evaluate_blocks(problem, point))
    np.testing.assert_allclose(dh, [[1.0]], atol=1e-12)


def test_derivative_two_equation_hand_case():
    blocks = JacobianBlocks(
        j_x=np.array([[1.0], [0.0]]),
        j_y=np.array([[0.0], [1.0]]),
        j_z=np.array([[1.0], [1.0]]),
    )
    np.testing.assert_allclose(solution_map_derivative(blocks), [[1.0]], atol=1e-12)


def test_derivative_invertible_output_block():
    rng = np.random.default_rng(22)
    j_x = rng.standard_normal((3, 2))
    blocks = JacobianBlocks(j_x=j_x, j_y=np.eye(3), j_z=np.zeros((3, 0)))
    np.testing.assert_allclose(solution_map_derivative(blocks), -j_x, atol=1e-12)


def test_derivative_empty_output():
    blocks = JacobianBlocks(j_x=np.ones((2, 3)), j_y=np.zeros((2, 0)), j_z=np.eye(2))
    dh = solution_map_derivative(blocks)
    assert dh.shape == (0, 3)


def test_derivative_inconsistent_system_raises():
    # input direction outside the span of the dependent blocks
    blocks = JacobianBlocks(
        j_x=np.array([[1.0], [0.0]]),
        j_y=np.array([[0.0], [1.0]]),
        j_z=np.zeros((2, 0)),
    )
    with pytest.raises(InconsistentSystemError):
        solution_map_derivative(blocks)
    with pytest.raises(RankHypothesisError):
        solution_map_derivative_minnorm(blocks)


# ---------------------------------------------------------------------------
# solution_map_derivative_minnorm


def test_minnorm_polar():
    problem, point = polar_problem(0.0)
    dh = solution_map_derivative_minnorm(evaluate_blocks(problem, point))
    np.testing.assert_allclose(dh, [[1.0]], atol=1e-12)


def test_minnorm_unique_solution_case():
    blocks = JacobianBlocks(
        j_x=np.array([[1.0], [0.0]]),
        j_y=np.array([[0.0], [1.0]]),
        j_z=np.array([[1.0], [1.0]]),
    )
    np.testing.assert_allclose(solution_map_derivative_minnorm(blocks), [[1.0]], atol=1e-12)


def test_minnorm_zero_when_latent_absorbs_everything():
    rng = np.random.default_rng(23)
    blocks = JacobianBlocks(
        j_x=rng.standard_normal((3, 2)),
        j_y=rng.standard_normal((3, 2)),
        j_z=rng.standard_normal((3, 3)) + 3 * np.eye(3),
    )
    dh = solution_map_derivative_minnorm(blocks)
    assert np.linalg.norm(dh) <= 1e-10
    np.testing.assert_allclose(solution_map_derivative(blocks), dh, atol=1e-10)


def test_pipeline_matches_minnorm_on_random_instances():
    for i in range(40):
        base = random_linearized_blocks((100, i))
        for blocks in (base, base.swap_outputs()):
            dh1 = solution_map_derivative(blocks)
            dh2 = solution_map_derivative_minnorm(blocks)
            assert np.linalg.norm(dh1 - dh2) <= 1e-10 * (1 + np.linalg.norm(dh1))


def test_defining_equation_residuals_small():
    for i in range(20):
        blocks = random_linearized_blocks((101, i))
        dh = solution_map_derivative(blocks)
        feas, orth, scale = defining_equation_residuals(blocks, dh)
        assert feas <= 1e-10 * scale
        assert orth <= 1e-10 * scale


def test_fault_injection_breaks_defining_equations():
    problem, point = polar_problem(0.0)
    blocks = evaluate_blocks(problem, point)
    dh_bad = -solution_map_derivative(blocks)
    feas, _, scale = defining_equation_residuals(blocks, dh_bad)
    assert feas > 1e-6 * scale


# ---------------------------------------------------------------------------
# fcre_solution_derivative


def test_fcre_identity_output_block():
    rng = np.random.default_rng(24)
    m = rng.standard_normal((3, 2))
    np.testing.assert_allclose(fcre_solution_derivative(m, np.eye(3)), -m, atol=1e-12)


def test_fcre_diagonal_inversion():
    j_y = np.array([[2.0, 0.0], [0.0, -SQRT2]])
    j_x = np.array([[-2.0], [0.0]])
    np.testing.assert_allclose(fcre_solution_derivative(j_x, j_y), [[1.0], [0.0]], atol=1e-12)


def test_fcre_consistent_overdetermined():
    np.testing.assert_allclose(
        fcre_solution_derivative(np.array([[1.0], [1.0]]), np.array([[1.0], [1.0]])),
        [[-1.0]],
        atol=1e-12,
    )


def test_fcre_rank_condition_violation():
    j_x = np.array([[1.0], [0.0]])
    j_y = np.array([[0.0], [1.0]])
    with pytest.raises(RankHypothesisError):
        fcre_solution_derivative(j_x, j_y)


def test_fcre_reduction_of_pipeline():
    for i in range(30):
        rng = np.random.default_rng((102, i))
        blocks = random_linearized_blocks((102, i))
        j_y = np.hstack([blocks.j_y, blocks.j_z])
        j_x = j_y @ rng.standard_normal((j_y.shape[1], 3))
        fcre_blocks = JacobianBlocks(j_x=j_x, j_y=j_y, j_z=np.zeros((j_y.shape[0], 0)))
        dh1 = solution_map_derivative(fcre_blocks)
        dh2 = fcre_solution_derivative(j_x, j_y)
        assert np.linalg.norm(dh1 - dh2) <= 1e-12 * (1 + np.linalg.norm(dh2))


# ---------------------------------------------------------------------------
# certify_crep


def test_certify_polar():
    problem, point = polar_problem(0.0)
    cert = certify_crep(problem, point, n_samples=5, seed=0)
    assert cert.passed
    assert (cert.r, cert.k) == (2, 1)
    assert cert.rank_df == 2
    assert cert.nullity_yz == 0
    assert cert.samples_checked == 5
    assert not cert.fragile


def test_certify_matrix_factorization_gauge_dimension():
    problem, point = matrix_factorization_problem(4, 3, 2, seed=1)
    cert = certify_crep(problem, point, n_samples=3, seed=0)
    assert cert.passed
    assert cert.nullity_yz == 4  # k_rank ** 2 degrees of gauge freedom


def test_certify_rejects_rank_drop_at_origin():
    # x = y * z with the reference solution at the origin: the rank of the
    # z partial vanishes there but not nearby, so this is not constant rank.
    def residual(x, y, z):
        return np.array([x[0] - y[0] * z[0]])

    def jacobian(x, y, z):
        return np.array([[1.0]]), np.array([[-z[0]]]), np.array([[-y[0]]])

    from crepcond.crep import CrepDims, CrepProblem

    chart = lambda x, y, z: TangentChart.full(1)
    problem = CrepProblem(
        name="bilinear-origin",
        dims=CrepDims(1, 1, 1, 1),
        residual=residual,
        jacobian=jacobian,
        x_chart=chart,
        y_chart=chart,
        z_chart=chart,
    )
    point = make_crep_point(problem, [0.0], [0.0], [0.0])
    cert = certify_crep(problem, point, n_samples=4, seed=0)
    assert not cert.passed
    assert cert.messages
    assert sum("DF" in msg for msg in cert.messages) == 1


def test_certify_reports_a_sample_whose_full_jacobian_gains_rank():
    # F = (y - x1, 0) with a declared dF/dx of [[-1, 0], [0, x2]]: rank DF is 1 at the point
    # (x2 = 0) and 2 at every sample, while rank [j_y j_z] stays 1.  The sampler reads dF/dx only
    # at the reference, so each sample is reached and only the DF check fails.
    def residual(x, y, z):
        return np.array([y[0] - x[0], 0.0])

    def jacobian(x, y, z):
        return np.array([[-1.0, 0.0], [0.0, x[1]]]), np.array([[1.0], [0.0]]), np.zeros((2, 0))

    def chart(dim):
        return lambda x, y, z: TangentChart.full(dim)

    problem = CrepProblem(
        name="declared-jx", dims=CrepDims(2, 1, 0, 2), residual=residual, jacobian=jacobian,
        x_chart=chart(2), y_chart=chart(1), z_chart=chart(0),
    )
    point = make_crep_point(problem, [0.0, 0.0], [0.0], [])
    cert = certify_crep(problem, point, n_samples=2)
    assert (cert.rank_df, cert.r, cert.samples_checked, cert.passed) == (1, 1, 2, False)
    assert list(cert.messages) == [f"sample {i}: rank DF = 2 differs from rank [j_y j_z] = 1" for i in range(2)]


@pytest.mark.parametrize("scale", [None, 3.0])
def test_certificate_samples_lie_1e_4_scale_from_the_point(scale):
    problem, point = polar_problem(0.0)
    if scale is not None:
        problem = dataclasses.replace(problem, scale=scale)
    inputs, retract = [], problem.x_retract
    problem.x_retract = lambda x, dx: inputs.append(retract(x, dx)) or inputs[-1]
    assert certify_crep(problem, point, n_samples=3).samples_checked == 3
    assert len(inputs) == 3
    basis = evaluate_blocks(problem, point)._x_basis
    distances = [float(np.linalg.norm(basis.T @ (x - point.x))) for x in inputs]
    assert distances == pytest.approx([1e-4 * problem.scale] * 3, rel=1e-12)


def test_certify_takes_its_options_by_keyword():
    problem, point = polar_problem(0.0)
    with pytest.raises(TypeError):
        certify_crep(problem, point, 2)


# ---------------------------------------------------------------------------
# condition_numbers


def test_condition_numbers_polar_exact():
    problem, point = polar_problem(0.0)
    report = condition_numbers(problem, point, n_samples=3)
    assert report.certificate.passed
    assert abs(report.kappa_y - 1.0) <= 1e-10
    assert abs(report.kappa_z) <= 1e-10
    assert abs(report.kappa_yz - 1.0) <= 1e-10
    assert report.kappa_y == pytest.approx(spectral_norm(report.dh))


def test_condition_number_one_for_isometric_input():
    # y = R x for an orthogonal R: the solution map is an isometry
    rng = np.random.default_rng(25)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    problem, point = linearized_problem(-q, np.eye(4), np.zeros((4, 0)))
    report = condition_numbers(problem, point, n_samples=2)
    assert abs(report.kappa_y - 1.0) <= 1e-12


def test_condition_numbers_failed_certificate_yields_none():
    # feasibility rank condition broken: rank DF > rank [J_y J_z]
    problem, point = linearized_problem(
        np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), np.zeros((2, 0))
    )
    report = condition_numbers(problem, point, n_samples=1)
    assert not report.certificate.passed
    assert report.kappa_y is None and report.kappa_z is None and report.kappa_yz is None
    assert report.dh is None


def test_monotonicity_on_random_instances():
    for i in range(40):
        kappa_y, kappa_z, kappa_yz, _ = condition_numbers_from_blocks(random_linearized_blocks((103, i)))
        assert kappa_y <= kappa_yz + 1e-8 * (1 + kappa_yz)
        assert kappa_z <= kappa_yz + 1e-8 * (1 + kappa_yz)


def test_kappa_z_and_kappa_yz_match_reference_routes():
    for i in range(40):
        blocks = random_linearized_blocks((106, i))
        _, kappa_z, kappa_yz, _ = condition_numbers_from_blocks(blocks)
        ref_z = spectral_norm(solution_map_derivative(blocks.swap_outputs()))
        ref_yz = spectral_norm(fcre_solution_derivative(blocks.j_x, np.hstack([blocks.j_y, blocks.j_z])))
        assert abs(kappa_z - ref_z) <= 1e-10 * (1 + ref_z)
        assert abs(kappa_yz - ref_yz) <= 1e-12 * (1 + ref_yz)


def test_kappa_stage_allocates_nothing_of_residual_size_squared():
    point = random_tucker_point((8, 8, 8), (3, 3, 3), 28)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    blocks = evaluate_blocks(problem, pt)
    n_res = problem.dims.n_residual
    tracemalloc.start()
    try:
        condition_numbers_from_blocks(blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_res**2 * 8


def test_elimination_route_allocates_nothing_of_residual_size_squared():
    # Ambient blocks (no tangent_blocks hook) have n_res = 1000 rows.
    point = random_tucker_point((10, 10, 10), (3, 3, 3), 28)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    blocks = evaluate_blocks(dataclasses.replace(problem, tangent_blocks=None), pt)
    n_res = problem.dims.n_residual
    assert blocks.n_residual == n_res == 1000
    tracemalloc.start()
    try:
        defining_equation_residuals(blocks, solution_map_derivative(blocks))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_res**2 * 8


@pytest.mark.parametrize("case", ["tucker_tall", "linearized_wide"])
def test_kappa_stage_factors_jyz_once(case, monkeypatch):
    if case == "tucker_tall":
        point = random_tucker_point((5, 3, 4), (2, 3, 2), 0)
        blocks = evaluate_blocks(*build_tucker_crep(TuckerCrepConfig(point, 0)))
    else:
        blocks = random_linearized_blocks(1)
    shape = (blocks.n_residual, blocks.j_y.shape[1] + blocks.j_z.shape[1])
    # No other matrix factored in the kappa stage has this shape: (22, 27)
    # for the Tucker instance (rows in input tangent coordinates, wide), (7, 22)
    # for the wide linearized one.
    assert shape in ((22, 27), (7, 22))
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    condition_numbers_from_blocks(blocks)
    assert shapes.count(shape) == 1


def _count_calls(problem, names=("jacobian", "x_chart", "y_chart", "z_chart")):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(problem, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        setattr(problem, name, counted)
    return counts


@pytest.mark.parametrize("case", ["polar", "tucker", "tucker_ambient"])
def test_condition_numbers_evaluates_each_point_once(case):
    """The kappa stage reuses the certificate's evaluation of the reference
    point, and each sample takes one evaluation, where its chord steps end; with
    tangent_blocks that evaluation holds j_x, so samples build no input chart."""
    if case == "polar":
        problem, point = polar_problem(0.0)
    else:
        problem, point = build_tucker_crep(TuckerCrepConfig(random_tucker_point((5, 3, 4), (2, 3, 2), 0), 0))
    if case == "tucker_ambient":
        problem = dataclasses.replace(problem, tangent_blocks=None)
    hook = problem.tangent_blocks is not None
    counts = _count_calls(problem, ("jacobian", "x_chart", "y_chart", "z_chart") + ("tangent_blocks",) * hook)
    report = condition_numbers(problem, point, n_samples=0)
    assert report.certificate.passed
    if hook:
        assert counts == {"jacobian": 0, "x_chart": 1, "y_chart": 0, "z_chart": 0, "tangent_blocks": 1}
    else:
        assert counts == {"jacobian": 1, "x_chart": 1, "y_chart": 1, "z_chart": 1}
    # The same answers as a kappa stage that evaluates the point afresh.
    kappa_y, kappa_z, kappa_yz, dh = condition_numbers_from_blocks(evaluate_blocks(problem, point))
    assert (kappa_y, kappa_z, kappa_yz) == (report.kappa_y, report.kappa_z, report.kappa_yz)
    np.testing.assert_array_equal(dh, report.dh)
    counts.update(dict.fromkeys(counts, 0))
    report = condition_numbers(problem, point, n_samples=2)
    assert report.certificate.passed and report.certificate.samples_checked == 2
    assert counts["x_chart"] == 1 + (0 if hook else report.certificate.samples_checked)
    if hook:  # the chord steps along the reference charts, which the tangent blocks returned
        assert counts["y_chart"] == counts["z_chart"] == 0


def _near_deficient_problem(seed):
    """Blocks with [j_y j_z] of singular values (1, 1e-13): rank 1 at DF's default
    tolerance, rank 2 at the default of [j_y j_z]'s own smaller shape."""
    rng = np.random.default_rng(seed)
    j = random_orthogonal(rng, 2) @ np.diag([1.0, 1e-13]) @ random_stiefel(rng, 3, 2).T
    return linearized_problem(j @ rng.standard_normal((3, 10)), j[:, :1], j[:, 1:])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kappa_is_computed_at_the_certified_rank(seed):
    problem, point = _near_deficient_problem(seed)
    assert problem.rtol == default_rtol((2, 13))  # None resolves to the default for DF's shape
    report = condition_numbers(problem, point, n_samples=2, seed=seed)
    cert = report.certificate
    assert cert.passed and not cert.fragile and (cert.r, cert.nullity_yz) == (1, 2)
    kappas = condition_numbers_from_blocks(evaluate_blocks(problem, point), problem.rtol)[:3]
    assert kappas == (report.kappa_y, report.kappa_z, report.kappa_yz)


@pytest.mark.parametrize("rtol", [0.0, -1e-9, float("nan"), float("inf")])
def test_problem_rejects_an_rtol_that_is_not_finite_and_positive(rtol):
    problem, _ = polar_problem(0.0)
    with pytest.raises(ValueError, match="rtol"):
        dataclasses.replace(problem, rtol=rtol)


def test_assigning_rtol_resolves_and_checks_it():
    problem, point = polar_problem(0.0)
    default = default_rtol((problem.dims.n_residual, sum(problem.dims[:3])))
    assert problem.rtol == default
    problem.rtol = 1e-9
    assert problem.rtol == 1e-9
    problem.rtol = None
    assert problem.rtol == default
    assert condition_numbers(problem, point, n_samples=1).certificate.passed
    with pytest.raises(ValueError, match="rtol"):
        problem.rtol = -1.0
    assert problem.rtol == default


def _grouped_rank_change_problem():
    """``F(x, w) = A(x) w - x`` with ``w = (y, z1, z2)`` and ``A(x) = [[1, 0, 1], [0, 1, x1]]``.

    At ``x = 0`` the columns of y and z2 are parallel and nearby they are not, so
    rank ``[j_y j_z]`` and the rank without y's columns (of ``j_z``) stay 2 while the
    rank without z1's columns goes from 1 to 2."""

    def a(x):
        return np.array([[1.0, 0.0, 1.0], [0.0, 1.0, x[0]]])

    def residual(x, y, z):
        return a(x) @ np.concatenate([y, z]) - x

    def jacobian(x, y, z):
        j = a(x)
        return np.array([[-1.0, 0.0], [z[1], -1.0]]), j[:, :1], j[:, 1:]

    def chart(dim):
        return lambda x, y, z: TangentChart.full(dim)

    problem = CrepProblem(
        name="grouped-rank-change", dims=CrepDims(2, 1, 2, 2), residual=residual, jacobian=jacobian,
        x_chart=chart(2), y_chart=chart(1), z_chart=chart(2),
    )
    return problem, make_crep_point(problem, [0.0, 0.0], [0.0], [0.0, 0.0])


GROUPS = {"y": slice(0, 1), "z1": slice(1, 2), "z2": slice(2, 3)}


def test_group_certificate_fails_when_a_later_group_changes_rank():
    problem, point = _grouped_rank_change_problem()
    assert certify_crep(problem, point, n_samples=2).passed
    cert = certify_crep(problem, point, n_samples=2, groups=GROUPS)
    assert not cert.passed and cert.samples_checked == 2
    assert (cert.r, cert.k) == (2, 2)  # k is the first group's
    assert list(cert.messages) == [
        f"sample {i}: ranks (r=2, k=2) differ from reference (r=2, k=1) for group z1" for i in range(2)
    ]
    report = group_condition_numbers(problem, point, GROUPS, n_samples=2)
    assert report.kappas is None and report.kappa_all is None and report.certificate == cert


def test_group_kappas_of_y_and_z_are_the_condition_numbers():
    for i in range(20):
        blocks = random_linearized_blocks((105, i))
        problem, point = linearized_problem(blocks.j_x, blocks.j_y, blocks.j_z)
        dim_y, dim_z = problem.dims.dim_y, problem.dims.dim_z
        groups = {"y": slice(0, dim_y), "z": slice(dim_y, dim_y + dim_z)}
        report = condition_numbers(problem, point, n_samples=1, seed=i)
        grouped = group_condition_numbers(problem, point, groups, n_samples=1, seed=i)
        assert grouped.certificate.passed == report.certificate.passed
        if report.certificate.passed:
            assert grouped.kappas == {"y": report.kappa_y, "z": report.kappa_z}
            assert grouped.kappa_all == report.kappa_yz


@pytest.mark.parametrize("groups", [{}, {"a": slice(1, 1)}, {"a": slice(0, 4)}, {"a": slice(0, 3, 2)}, {"a": [0]}])
def test_certify_rejects_groups_that_are_not_column_ranges(groups):
    problem, point = _grouped_rank_change_problem()
    with pytest.raises(ValueError, match="group"):
        certify_crep(problem, point, n_samples=0, groups=groups)


def _tucker_groups(point, problem):
    """The core problem's [j_y j_z] split into the core and one group per factor, as cross_validate certifies it."""
    sizes = [problem.dims.dim_y] + [tensor.stiefel_tangent_dim(n, m) for n, m in zip(point.shape, point.ranks)]
    ends = np.cumsum(sizes).tolist()
    labels = ["core"] + [f"U{d + 1}" for d in range(point.order)]
    return {label: slice(end - size, end) for label, size, end in zip(labels, sizes, ends)}


def _certified_rank_cases():
    for shape, ranks in (((6, 5, 4), (2, 2, 2)), ((8, 8, 8), (3, 3, 3))):
        for j in range(2):
            point = random_tucker_point(shape, ranks, (4, j))
            problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
            yield problem, pt, _tucker_groups(point, problem)
    for i in range(30):
        b = random_linearized_blocks((106, i))
        problem, pt = linearized_problem(b.j_x, b.j_y, b.j_z)
        dim_y, dim_z = problem.dims.dim_y, problem.dims.dim_z
        yield problem, pt, {"y": slice(0, dim_y)} | ({"z": slice(dim_y, dim_y + dim_z)} if dim_z else {})


def test_certificate_ranks_equal_the_direct_ranks(monkeypatch):
    """At the reference and at each certificate sample, every group's rank (from the kernel rows of
    [j_y j_z]) and rank DF (from j_x off its range) equal numerical_rank of the matrices themselves."""
    checked = []
    rank_checks = crep._rank_checks

    def recording(blocks, rtol, groups, tolerance=None):
        checked.append((blocks, rtol, groups, rank_checks(blocks, rtol, groups, tolerance)))
        return checked[-1][-1]

    monkeypatch.setattr(crep, "_rank_checks", recording)
    n_cases = 0
    for problem, point, groups in _certified_rank_cases():
        cert = certify_crep(problem, point, n_samples=2, groups=groups)
        assert cert.passed and cert.samples_checked == 2
        n_cases += 1
    assert len(checked) == 3 * n_cases
    for blocks, rtol, groups, (r, k, rank_df, _, _, _) in checked:
        j_yz = np.hstack([blocks.j_y, blocks.j_z])
        assert r == numerical_rank(j_yz, rtol).rank
        assert k == {label: numerical_rank(np.delete(j_yz, cols, axis=1), rtol).rank for label, cols in groups.items()}
        assert rank_df == numerical_rank(np.hstack([blocks.j_x, j_yz]), rtol).rank == r


def _kernel_row_cut_problem(eps0, curvature=0.0, rtol=1e-8):
    """``F(x, w) = A(x) w - (x1, 0)`` with ``w = (y, z1, z2)`` and ``A(x) = [[1, 0, 0], [0, 1, eps(x)]]``,
    ``eps(x) = eps0 + curvature * x1**2``.  The kernel of A is (0, -eps, 1) / sqrt(1 + eps**2), so z1's
    kernel row has the one singular value eps / sqrt(1 + eps**2), against the cut ``rtol``."""

    def a(x):
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, eps0 + curvature * x[0] ** 2]])

    def residual(x, y, z):
        return a(x) @ np.concatenate([y, z]) - np.array([x[0], 0.0])

    def jacobian(x, y, z):
        j = a(x)
        return np.array([[-1.0], [2.0 * curvature * x[0] * z[1]]]), j[:, :1], j[:, 1:]

    def chart(dim):
        return lambda x, y, z: TangentChart.full(dim)

    problem = CrepProblem(
        name="kernel-row-cut", dims=CrepDims(1, 1, 2, 2), residual=residual, jacobian=jacobian,
        x_chart=chart(1), y_chart=chart(1), z_chart=chart(2), rtol=rtol,
    )
    return problem, make_crep_point(problem, [0.0], [0.0], [0.0, 0.0])


@pytest.mark.parametrize("side", [-1, 1])
def test_group_rank_at_the_kernel_row_cut(side):
    eps = 1e-8 * (1.0 + side * 1e-3)
    problem, point = _kernel_row_cut_problem(eps)
    cert = certify_crep(problem, point, n_samples=0, groups={"z1": slice(1, 2)})
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, eps]])
    assert cert.passed and cert.r == 2
    assert cert.k == (2 if side > 0 else 1) == numerical_rank(np.delete(a, 1, axis=1), problem.rtol).rank
    # Above the cut the group's gap is sigma_r([j_y j_z]) = 1 times the kept cosine.
    assert cert.fragile == (side > 0)
    if side > 0:
        assert cert.min_gap == pytest.approx(eps, rel=1e-6)


def test_group_rank_crossing_the_kernel_row_cut_fails_the_certificate():
    # eps is 0.999e-8 at the point and 1.001e-8 at the samples, 1e-4 away.
    problem, point = _kernel_row_cut_problem(1e-8 * (1.0 - 1e-3), curvature=2e-3)
    cert = certify_crep(problem, point, n_samples=2, groups={"y": slice(0, 1), "z1": slice(1, 2)})
    assert (cert.r, cert.k, cert.samples_checked, cert.passed) == (2, 1, 2, False)
    assert list(cert.messages) == [
        f"sample {i}: ranks (r=2, k=2) differ from reference (r=2, k=1) for group z1" for i in range(2)
    ]


@pytest.mark.parametrize("level, extra", [(0.8, 0), (1.2, 2)])
def test_sample_rank_df_counts_j_x_off_range_past_the_tolerance(level, extra):
    # j_x off range [j_y j_z] is level * tolerance * I_2: its Frobenius norm passes the tolerance
    # at both levels, its singular values only at 1.2.
    j_x = np.vstack([np.ones((1, 2)), level * 1e-8 * np.eye(2)])
    blocks = JacobianBlocks(j_x, np.eye(3)[:, :1], np.zeros((3, 0)))
    r, _, rank_df, _, _, problems = crep._rank_checks(blocks, 1e-12, {"y": slice(0, 1)}, 1e-8)
    assert (r, rank_df) == (1, 1 + extra)
    assert problems == ([f"rank DF = {1 + extra} differs from rank [j_y j_z] = 1"] if extra else [])


def test_certificate_takes_one_numerical_rank(monkeypatch):
    """Four groups and two samples: the certificate's one numerical_rank is the reference's SVD of DF.
    (The Tucker input retraction's HOSVD checks its core's ranks on its own, outside crep.)"""
    point = random_tucker_point((8, 8, 8), (3, 3, 3), 0)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
    shapes = []

    def counting(m, *args, _real=linalg.numerical_rank):
        shapes.append(np.shape(m))
        return _real(m, *args)

    monkeypatch.setattr(crep, "numerical_rank", counting)
    cert = certify_crep(problem, pt, n_samples=2, groups=_tucker_groups(point, problem))
    assert cert.passed and cert.samples_checked == 2
    assert shapes == [(problem.dims.dim_x, sum(problem.dims[:3]))]


def test_certified_point_takes_each_kernel_row_svd_once(monkeypatch):
    """The reference's rank checks, its predictor and the kappa stage share each group's kernel-row SVD."""
    point = random_tucker_point((6, 5, 4), (2, 2, 2), 0)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
    rows = []

    def counting(m, *args, _real=crep._svd, **kwargs):
        if kwargs.get("scale") == 1.0:
            rows.append(np.asarray(m).tobytes())
        return _real(m, *args, **kwargs)

    monkeypatch.setattr(crep, "_svd", counting)
    report = group_condition_numbers(problem, pt, _tucker_groups(point, problem), n_samples=0)
    assert report.certificate.passed and len(rows) == len(set(rows)) == 4


def test_cross_validate_takes_each_kernel_row_svd_once(monkeypatch):
    """Each group's kernel-row SVD is taken once per point: 4 at the reference, which the kappa stage
    shares, and 4 at each of the 2 certificate samples."""
    rows = []

    def counting(m, *args, _real=crep._svd, **kwargs):
        if kwargs.get("scale") == 1.0:
            rows.append(np.asarray(m).tobytes())
        return _real(m, *args, **kwargs)

    monkeypatch.setattr(crep, "_svd", counting)
    cross_validate(random_tucker_point((8, 8, 8), (3, 3, 3), 0))
    assert len(rows) == len(set(rows)) == 12


def test_certificate_evaluates_each_sample_once():
    """Each sample's chord steps run on the reference's factorization, so the Tucker hook is evaluated
    once per sample, at the solution they reach: three times in all with the reference."""
    point = random_tucker_point((8, 8, 8), (3, 3, 3), 0)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
    counts = _count_calls(problem, ("tangent_blocks",))
    cert = certify_crep(problem, pt, n_samples=2, groups=_tucker_groups(point, problem))
    assert cert.passed and cert.samples_checked == 2
    assert counts == {"tangent_blocks": 3}


def test_linear_certificate_samples_take_one_evaluation(monkeypatch):
    """On a linear problem the min-norm prediction is a solution: each sample takes no chord step (its one
    residual, at the prediction, converges), one evaluation and no resolver call."""
    resolves = []
    monkeypatch.setattr(empirical, "constrained_nearest_solution", lambda *args, **kwargs: resolves.append(args))
    for i in range(20):
        b = random_linearized_blocks((9, i))
        problem, point = linearized_problem(b.j_x, b.j_y, b.j_z)
        counts = _count_calls(problem, ("jacobian", "residual"))
        assert certify_crep(problem, point, n_samples=2, seed=i).samples_checked == 2
        assert counts == {"jacobian": 1 + 2, "residual": 1 + 2}  # the reference's, then one per sample
    assert resolves == []


def test_certificate_samples_need_no_trust_region_for_a_small_latent_block():
    """With j_z scaled by a, z moves by about radius / a; the chord takes no trust rule on z, so every
    certificate passes, with the kappa_y of a = 1 while the rank cuts leave [j_y j_z] alone."""
    for i in range(40):
        b = random_linearized_blocks((0, i))
        reports = {a: condition_numbers(*linearized_problem(b.j_x, b.j_y, a * b.j_z), n_samples=2, seed=i)
                   for a in (1.0, 1e-3, 1e-6, 1e-10)}
        assert all(r.certificate.passed for r in reports.values())
        kappa = reports[1.0].kappa_y
        for a in (1e-3, 1e-6):
            assert abs(reports[a].kappa_y - kappa) <= 1e-8 * max(1.0, kappa)


def test_certificate_falls_back_to_the_resolver_when_the_chord_misses_its_budget(monkeypatch):
    """polar(0.5) at scale 1e3 samples at radius 0.1: no chord converges in 8 steps, and the resolver
    from the same start re-solves every sample.  At scale 5e3 (radius 0.5) a sample lands on the pole
    x = 1 or predicts y = 0, where neither converges, and the certificate fails."""
    chords, resolves = [], []
    chord, resolve = crep._chord, empirical.constrained_nearest_solution
    monkeypatch.setattr(crep, "_chord", lambda *args: chords.append(chord(*args)) or chords[-1])
    monkeypatch.setattr(empirical, "constrained_nearest_solution",
                        lambda *args, **kwargs: resolves.append(resolve(*args, **kwargs)) or resolves[-1])
    problem, point = polar_problem(0.5)
    cert = certify_crep(dataclasses.replace(problem, scale=1e3), point, n_samples=4)
    assert chords == [None] * 4 and [r.converged for r in resolves] == [True] * 4
    assert cert.passed and cert.samples_checked == 4
    chords.clear()
    resolves.clear()
    cert = certify_crep(dataclasses.replace(problem, scale=5e3), point, n_samples=4)
    assert chords == [None] * 4 and not any(r.converged for r in resolves)
    assert not cert.passed and (cert.samples_checked, cert.resolve_failures) == (0, 4)
    assert all(m.startswith(f"sample {i}: re-solve failed (chord did not converge; resolver: ")
               for i, m in enumerate(cert.messages[:4]))


def test_a_chord_that_does_not_converge_is_never_a_sample():
    """F = (y - x, h(x)), with h = 1e-3 away from x = 0 and a Jacobian that does not see it.  Every sample has
    the reference's ranks, but no solution: the chord cannot lower the residual and the resolver stalls, so
    the certificate fails rather than read the ranks at a point that is not one."""
    problem = CrepProblem(
        name="hidden-offset", dims=CrepDims(1, 1, 0, 2),
        residual=lambda x, y, z: np.array([y[0] - x[0], 0.0 if x[0] == 0.0 else 1e-3]),
        jacobian=lambda x, y, z: (np.array([[-1.0], [0.0]]), np.array([[1.0], [0.0]]), np.zeros((2, 0))),
        x_chart=_flat_chart(1), y_chart=_flat_chart(1), z_chart=_flat_chart(0),
    )
    cert = certify_crep(problem, make_crep_point(problem, [0.0], [0.0], []), n_samples=3)
    assert not cert.passed and (cert.samples_checked, cert.resolve_failures) == (0, 3)
    assert cert.messages[-1] == "no perturbed sample could be re-solved; constancy not verifiable"


def test_a_diverging_chord_stops_at_its_first_growing_residual():
    """F = y**3 + y - x at radius 2: the chord on the reference slope 1 maps y to x - y**3, which would pass
    1e189 and overflow within its 8 steps.  It stops once the residual grows (y = 2, then -6), and the
    resolver from the prediction reaches y = 1 at x = 2 (y = -1 at x = -2)."""
    evaluated = []

    def residual(x, y, z):
        evaluated.append(abs(y[0]))
        return np.array([y[0] ** 3 + y[0] - x[0]])

    problem = CrepProblem(
        name="cubic", dims=CrepDims(1, 1, 0, 1), residual=residual,
        jacobian=lambda x, y, z: (np.array([[-1.0]]), np.array([[3.0 * y[0] ** 2 + 1.0]]), np.zeros((1, 0))),
        x_chart=_flat_chart(1), y_chart=_flat_chart(1), z_chart=_flat_chart(0), scale=2e4,
    )
    cert = certify_crep(problem, make_crep_point(problem, [0.0], [0.0], []), n_samples=2)
    assert cert.passed and cert.samples_checked == 2
    assert max(evaluated) == pytest.approx(6.0)


PREDICTOR_CASES = {
    "tucker_core": lambda: build_tucker_crep(TuckerCrepConfig(random_tucker_point((8, 8, 8), (3, 3, 3), 0), "core")),
    "tucker_U1": lambda: build_tucker_crep(TuckerCrepConfig(random_tucker_point((6, 5, 4), (2, 2, 2), 0), 0)),
    "mf": lambda: matrix_factorization_problem(20, 15, 5, seed=0),
    "polar": lambda: polar_problem(0.0),
}


@pytest.mark.parametrize("case", sorted(PREDICTOR_CASES))
def test_predicted_start_reaches_the_same_solution_and_misses_it_at_second_order(case):
    """From the empirical routines' prediction the resolver converges to the y it reaches from (y0, z0), within
    1e-9 * radius, and the prediction misses that y by O(radius**2): miss * scale / radius**2 is at most 10
    and the same, within 10%, at radius 1e-4 * scale (the certificate's) and 1e-3 * scale."""
    problem, point = PREDICTOR_CASES[case]()
    blocks = evaluate_blocks(problem, point)
    for i in range(2):
        u = crep._unit_direction(0, i, problem.dims.dim_x)
        misses = []
        for radius in (1e-4 * problem.scale, 1e-3 * problem.scale):
            x = problem.x_retract(point.x, blocks._x_basis @ (radius * u))
            start = crep._predicted_starts(problem, point, blocks, radius * u[None, :])[0]
            predicted = empirical.constrained_nearest_solution(problem, point, x, start=start)
            plain = empirical.constrained_nearest_solution(problem, point, x)
            assert predicted.converged and plain.converged
            assert np.linalg.norm(predicted.y - plain.y) <= 1e-9 * radius
            misses.append(float(np.linalg.norm(predicted.y - start[0])) * problem.scale / radius**2)
        assert max(misses) <= 10.0
        assert misses[1] == pytest.approx(misses[0], rel=0.1)


def test_input_checks_raise():
    problem, point = polar_problem(0.0)
    with pytest.raises(ValueError, match="n_samples must be nonnegative"):
        certify_crep(problem, point, n_samples=-1)
    with pytest.raises(ValueError, match="blocks must share the residual dimension"):
        JacobianBlocks(j_x=np.ones((2, 1)), j_y=np.ones((3, 1)), j_z=np.ones((2, 1)))
    with pytest.raises(ValueError, match="j_x and j_y must share the residual dimension"):
        fcre_solution_derivative(np.ones((2, 1)), np.ones((3, 1)))


def test_z_chart_invariance():
    rng = np.random.default_rng(26)
    for i in range(20):
        blocks = random_linearized_blocks((104, i))
        if blocks.j_z.shape[1] == 0:
            continue
        dh = solution_map_derivative(blocks)
        u, _ = np.linalg.qr(rng.standard_normal((blocks.j_z.shape[1], blocks.j_z.shape[1])))
        v, _ = np.linalg.qr(rng.standard_normal((blocks.j_z.shape[1], blocks.j_z.shape[1])))
        s = (u * np.exp(rng.uniform(-3.45, 3.45, blocks.j_z.shape[1]))) @ v.T  # cond <= 1e3
        scaled = JacobianBlocks(j_x=blocks.j_x, j_y=blocks.j_y, j_z=blocks.j_z @ s)
        assert np.linalg.norm(dh - solution_map_derivative(scaled)) <= 1e-9 * (1 + np.linalg.norm(dh))
        # the production route, which the kappa stage and the resolver use
        dh_m = solution_map_derivative_minnorm(blocks)
        assert np.linalg.norm(dh_m - solution_map_derivative_minnorm(scaled)) <= 1e-9 * (1 + np.linalg.norm(dh_m))


def test_xy_chart_equivariance():
    rng = np.random.default_rng(27)
    for i in range(15):
        blocks = random_linearized_blocks((105, i))
        r_x, _ = np.linalg.qr(rng.standard_normal((blocks.j_x.shape[1],) * 2))
        r_y, _ = np.linalg.qr(rng.standard_normal((blocks.j_y.shape[1],) * 2))
        k1 = condition_numbers_from_blocks(blocks)
        k2 = condition_numbers_from_blocks(
            JacobianBlocks(j_x=blocks.j_x @ r_x, j_y=blocks.j_y @ r_y, j_z=blocks.j_z)
        )
        expect = r_y.T @ k1[3] @ r_x
        assert np.linalg.norm(k2[3] - expect) <= 1e-9 * (1 + np.linalg.norm(expect))
        for a, b in zip(k1[:3], k2[:3]):
            assert abs(a - b) <= 1e-9 * (1 + abs(a))
