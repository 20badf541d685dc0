import dataclasses
import tracemalloc

import numpy as np
import pytest

from crepcond.crep import (
    JacobianBlocks,
    RankHypothesisError,
    TangentChart,
    certify_crep,
    condition_numbers,
    condition_numbers_from_blocks,
    defining_equation_residuals,
    evaluate_blocks,
    fcre_solution_derivative,
    make_crep_point,
    solution_map_derivative,
    solution_map_derivative_minnorm,
)
from crepcond.linalg import InconsistentSystemError, default_rtol, spectral_norm
from crepcond.problems import (
    linearized_problem,
    matrix_factorization_problem,
    polar_problem,
    random_linearized_blocks,
)
from crepcond.tucker import TuckerCrepConfig, build_tucker_crep, random_orthogonal, random_stiefel, random_tucker_point

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


def test_tangent_blocks_output_is_checked():
    problem, point = polar_problem(0.0)
    flat = TangentChart.full(1)

    def hook(shapes, cy=flat, cz=flat):
        return lambda x, y, z, r: (*(np.ones(shape) for shape in shapes), None if r is None else np.ones(2), cy, cz)

    good = dataclasses.replace(problem, tangent_blocks=hook([(2, 1)] * 3))
    assert evaluate_blocks(good, point).j_x.shape == (2, 1)
    for shapes in ([(2, 1), (2, 1), (2, 2)], [(3, 1)] * 3, [(2, 1), (1, 1), (2, 1)]):
        with pytest.raises(ValueError, match="tangent blocks"):
            evaluate_blocks(dataclasses.replace(problem, tangent_blocks=hook(shapes)), point)
    # Charts of the wrong dimension or ambient size, or no chart at all, for y and for z.
    for chart in (TangentChart(1, np.zeros((1, 0))), TangentChart(2, np.eye(2)[:, :1]), np.eye(1)):
        for charts in ((chart, flat), (flat, chart)):
            with pytest.raises(ValueError, match="tangent blocks"):
                evaluate_blocks(dataclasses.replace(problem, tangent_blocks=hook([(2, 1)] * 3, *charts)), point)

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
    cert = certify_crep(problem, point, n_samples=5, radius=1e-3, seed=0)
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


@pytest.mark.parametrize("radius", [0.0, -1e-4, np.nan, np.inf])
def test_certify_rejects_a_radius_that_is_not_finite_and_positive(radius):
    # At radius 0 every "nearby" sample is the reference point, so a certificate would be vacuous.
    problem, point = polar_problem(0.0)
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        certify_crep(problem, point, n_samples=2, radius=radius)
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        condition_numbers(problem, point, n_samples=2, radius=radius)


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
    cert = certify_crep(problem, point, n_samples=4, radius=1e-3, seed=0)
    assert not cert.passed
    assert cert.messages
    assert sum("DF" in msg for msg in cert.messages) == 1


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
    point, and each sample check reuses the resolver's last evaluation; with
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
    if hook:  # the resolver steps along the charts the tangent blocks return
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
