import dataclasses
import math

import numpy as np
import pytest

from crepcond import empirical
from crepcond.crep import (
    CrepDims,
    CrepProblem,
    TangentChart,
    _unit_direction,
    evaluate_blocks,
    make_crep_point,
    solution_map_derivative,
)
from crepcond.empirical import (
    ResolveFailure,
    constrained_nearest_solution,
    empirical_condition,
    finite_difference_check,
    jacobian_consistency_check,
)
from crepcond.linalg import kernel_basis, orthonormalize
from crepcond.problems import linearized_problem, matrix_factorization_problem, polar_problem, random_linearized_blocks
from crepcond.tensor import TuckerPoint
from crepcond.tucker import TuckerCrepConfig, build_tucker_crep, random_stiefel, random_tucker_point


def swapped_polar():
    """Polar system with the angle as output and the radius latent."""
    base, base_point = polar_problem(0.0)

    def residual(x, y, z):
        return base.residual(x, z, y)

    def jacobian(x, y, z):
        j_x, j_y, j_z = base.jacobian(x, z, y)
        return j_x, j_z, j_y

    chart = lambda x, y, z: TangentChart.full(1)
    problem = CrepProblem(
        name="polar-angle-output",
        dims=CrepDims(1, 1, 1, 2),
        residual=residual,
        jacobian=jacobian,
        x_chart=chart,
        y_chart=chart,
        z_chart=chart,
        scale=base.scale,
    )
    point = make_crep_point(problem, base_point.x, base_point.z, base_point.y)
    return problem, point


# ---------------------------------------------------------------------------
# constrained_nearest_solution


def test_resolve_at_reference_input_is_trivial():
    problem, point = polar_problem(0.0)
    res = constrained_nearest_solution(problem, point, point.x)
    assert res.converged
    assert res.iterations <= 1
    np.testing.assert_allclose(res.y, point.y, atol=1e-12)
    np.testing.assert_allclose(res.z, point.z, atol=1e-12)


def test_resolve_polar_matches_analytic_solution_map():
    problem, point = polar_problem(0.0)
    res = constrained_nearest_solution(problem, point, np.array([0.01]))
    assert res.converged
    assert abs(res.y[0] - 1.0 / 0.99) <= 1e-10
    assert abs(res.z[0] - math.pi / 4.0) <= 1e-10


def test_resolve_tucker_feasible_and_orthonormal():
    point = random_tucker_point((4, 3), (2, 2), 31)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    cx = problem.x_chart(pt.x, pt.y, pt.z)
    rng = np.random.default_rng(32)
    d = rng.standard_normal(problem.dims.dim_x)
    d /= np.linalg.norm(d)
    x_pert = problem.x_retract(pt.x, cx.basis @ (1e-4 * problem.scale * d))
    res = constrained_nearest_solution(problem, pt, x_pert)
    assert res.converged
    assert res.residual_norm <= 1e-12 * problem.scale
    u1 = res.y.reshape(4, 2)
    assert np.linalg.norm(u1.T @ u1 - np.eye(2)) <= 1e-10
    core, u2 = res.z[:4].reshape(2, 2), res.z[4:].reshape(3, 2)
    assert np.linalg.norm(u2.T @ u2 - np.eye(2)) <= 1e-10
    assert np.linalg.norm(core) > 0


def near_equal_core_point():
    """Core output at core singular values (1, 1 - 1e-8): kappa = 1, but the
    nearest solution rotates z along a kernel vector whose y part is ~1e-8."""
    rng = np.random.default_rng(90)
    factors = tuple(random_stiefel(rng, n, 2) for n in (4, 3))
    return build_tucker_crep(TuckerCrepConfig(TuckerPoint(core=np.diag([1.0, 1.0 - 1e-8]), factors=factors), "core"))


def test_resolve_satisfies_first_order_optimality():
    cases = [
        (*polar_problem(0.0), None),
        (*matrix_factorization_problem(4, 3, 2, seed=33), None),
        (*build_tucker_crep(TuckerCrepConfig(random_tucker_point((4, 3), (2, 2), 34), 0)), None),
        # The nearest solution moves z by more than the default trust radius.
        (*near_equal_core_point(), np.inf),
    ]
    solver_tol_scale = 1e-12
    for problem, pt, z_trust in cases:
        solver_tol = solver_tol_scale * problem.scale
        cx = problem.x_chart(pt.x, pt.y, pt.z)
        rng = np.random.default_rng(35)
        d = rng.standard_normal(problem.dims.dim_x)
        d /= np.linalg.norm(d)
        x_pert = problem.x_retract(pt.x, cx.basis @ (1e-4 * problem.scale * d))
        res = constrained_nearest_solution(problem, pt, x_pert, z_trust=z_trust)
        assert res.converged, res.message
        _, j_y_a, j_z_a = problem.jacobian(x_pert, res.y, res.z)
        cy = problem.y_chart(x_pert, res.y, res.z)
        cz = problem.z_chart(x_pert, res.y, res.z)
        kern = kernel_basis(np.hstack([j_y_a @ cy.basis, j_z_a @ cz.basis]))
        b = orthonormalize(kern[: problem.dims.dim_y])
        displacement = cy.basis.T @ (res.y - pt.y)
        if b.size:
            assert np.linalg.norm(b.T @ displacement) <= 10 * solver_tol


def test_resolve_never_reports_a_non_finite_residual_converged():
    problem, point = polar_problem(0.0)
    # The polar residual is NaN outside its domain x < 1, at and past the pole.
    for x in (np.nan, 1.0, 1.5, np.inf):
        res = constrained_nearest_solution(problem, point, np.array([x]))
        assert not res.converged
        assert res.message == "residual is not finite"


def test_resolver_checks_its_blocks_as_chart_blocks_does():
    """The resolver's projected blocks, which the certificate reuses, get the
    checks of chart_blocks: declared chart dimensions and finite entries."""
    problem, point = polar_problem(0.0)
    wrong_dims = dataclasses.replace(problem, dims=CrepDims(1, 1, 2, 2))
    nan_jacobian = dataclasses.replace(
        problem, jacobian=lambda x, y, z: (lambda j_x, j_y, j_z: (j_x, j_y * np.nan, j_z))(*problem.jacobian(x, y, z))
    )
    for bad, match in ((wrong_dims, "dimension"), (nan_jacobian, "non-finite")):
        with pytest.raises(ValueError, match=match):
            evaluate_blocks(bad, point)
        with pytest.raises(ValueError, match=match):
            constrained_nearest_solution(bad, point, np.array([0.01]))


def test_resolve_reports_budget_exhaustion():
    problem, point = polar_problem(0.0)
    res = constrained_nearest_solution(problem, point, np.array([0.05]), max_iter=0)
    assert not res.converged
    assert res.message


# ---------------------------------------------------------------------------
# finite_difference_check


def test_fd_polar_errors_decrease():
    problem, point = polar_problem(0.0)
    errs = finite_difference_check(problem, point, [1.0], [1e-2, 1e-3, 1e-4])
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 1e-4


def test_fd_linear_problem_at_noise_floor():
    problem, point = linearized_problem(np.array([[-1.0]]), np.array([[1.0]]), np.zeros((1, 0)))
    errs = finite_difference_check(problem, point, [1.0], [1e-2, 1e-3, 1e-4])
    assert max(errs) <= 1e-9


def test_fd_tucker_instance():
    point = random_tucker_point((4, 3), (2, 2), 36)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    rng = np.random.default_rng(37)
    d = rng.standard_normal(problem.dims.dim_x)
    d /= np.linalg.norm(d)
    errs = finite_difference_check(problem, pt, d, [1e-3, 1e-4])
    assert errs[-1] <= 1e-3


def test_fd_rejects_bad_direction_and_steps():
    problem, point = polar_problem(0.0)
    with pytest.raises(ValueError):
        finite_difference_check(problem, point, [2.0], [1e-3])
    with pytest.raises(ValueError):
        finite_difference_check(problem, point, [1.0], [-1e-3])
    with pytest.raises(ValueError):
        finite_difference_check(problem, point, [1.0], [math.nan])


def test_fd_raises_on_resolve_failure():
    problem, point = polar_problem(0.0)
    with pytest.raises(ResolveFailure):
        # Step 2.0 moves x past the pole at x = 1, where the residual is NaN.
        finite_difference_check(problem, point, [1.0], [2.0])


# ---------------------------------------------------------------------------
# empirical_condition


def test_empirical_polar_converges_to_kappa():
    problem, point = polar_problem(0.0)
    ratios = []
    for radius in (1e-2, 1e-3, 1e-4):
        est = empirical_condition(problem, point, radius=radius, n_samples=8, seed=40)
        assert est.n_failed == 0
        ratios.append(est.max_ratio)
    # kappa = 1; the estimate approaches it from above as the radius shrinks
    assert abs(ratios[-1] - 1.0) <= 5e-4
    assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)


def test_empirical_flat_solution_map():
    problem, point = swapped_polar()
    est = empirical_condition(problem, point, radius=1e-4, n_samples=8, seed=41)
    assert est.max_ratio <= 1e-4  # flat map: ratio is O(radius) at most


def test_empirical_brackets_kappa_with_deterministic_sample():
    point = random_tucker_point((4, 3), (2, 2), 42)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    report_blocks = evaluate_blocks(problem, pt)
    kappa = float(np.linalg.svd(solution_map_derivative(report_blocks), compute_uv=False)[0])
    est = empirical_condition(problem, pt, radius=1e-4 * problem.scale, n_samples=16, seed=43)
    assert est.n_failed == 0
    assert 0.95 * kappa <= est.max_ratio <= 1.05 * kappa


def test_empirical_seed_determinism():
    problem, point = polar_problem(0.0)
    a = empirical_condition(problem, point, radius=1e-3, n_samples=6, seed=7)
    b = empirical_condition(problem, point, radius=1e-3, n_samples=6, seed=7)
    assert a == b


def test_empirical_validates_arguments():
    problem, point = polar_problem(0.0)
    with pytest.raises(ValueError):
        empirical_condition(problem, point, radius=0.0, n_samples=4)
    with pytest.raises(ValueError):
        empirical_condition(problem, point, radius=1e-3, n_samples=0)
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            empirical_condition(problem, point, radius=radius, n_samples=4)


def test_empirical_past_the_polar_pole_keeps_the_branch_of_the_reference():
    """Around x0 = 0.5 at radius 1 the first-order prediction for x = -0.5 is y = -2, from which the resolver
    reaches the far branch y = -2/3 (ratio 8/3); the guard re-solves that sample from (y0, z0), which reaches
    y = 2/3 (ratio 4/3).  The other four samples land past the pole x = 1 and fail."""
    est = empirical_condition(*polar_problem(0.5), radius=1.0, n_samples=5, seed=3)
    assert est.n_failed == 4
    assert est.max_ratio == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_empirical_condition_evaluates_each_sample_twice():
    """Started at the first-order prediction, each sample, the top direction of DH included, takes two
    evaluations of the Tucker hook (three from (y0, z0)); the reference point takes one."""
    point = random_tucker_point((6, 5, 4), (3, 3, 2), 0)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    hook, calls = problem.tangent_blocks, []
    problem.tangent_blocks = lambda *args: calls.append(args) or hook(*args)
    for n in (1, 4):
        calls.clear()
        assert empirical_condition(problem, pt, radius=1e-4 * problem.scale, n_samples=n, seed=n).n_failed == 0
        assert len(calls) == 1 + 2 * (n + 1)


def _recorded_resolves(monkeypatch) -> list:
    """Every re-solve the empirical routines make from now on, as ``(x, start, result)``."""
    calls, resolve = [], empirical.constrained_nearest_solution

    def recording(problem, point, x, *args, **kwargs):
        calls.append((x, kwargs.get("start"), resolve(problem, point, x, *args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(empirical, "constrained_nearest_solution", recording)
    return calls


PREDICTED_CASES = {
    "mf": lambda: matrix_factorization_problem(20, 15, 5, seed=0),
    "tucker_U1": lambda: build_tucker_crep(TuckerCrepConfig(random_tucker_point((6, 5, 4), (3, 3, 2), 0), 0)),
    "polar": lambda: polar_problem(0.0),
    # kappa_y = 0: the prediction is y0, and the solution differs from it by roundoff only.
    "flat": swapped_polar,
}


@pytest.mark.parametrize("case", sorted(PREDICTED_CASES))
def test_predicted_samples_reach_the_solution_from_the_reference(case, monkeypatch):
    """At radius 1e-4 * scale every re-solve of both routines keeps its predicted start (none falls back to
    (y0, z0)), and its y is within 1e-9 * radius of the y the resolver reaches from (y0, z0)."""
    problem, point = PREDICTED_CASES[case]()
    radius = 1e-4 * problem.scale
    resolve = empirical.constrained_nearest_solution
    calls = _recorded_resolves(monkeypatch)
    assert empirical_condition(problem, point, radius=radius, n_samples=4, seed=1).n_failed == 0
    finite_difference_check(problem, point, _unit_direction(2, 0, problem.dims.dim_x), [radius])
    assert len(calls) == 5 + 2 and all(start is not None for _, start, _ in calls)
    for x, _, result in calls:
        plain = resolve(problem, point, x)
        assert result.converged and plain.converged
        assert np.linalg.norm(result.y - plain.y) <= 1e-9 * radius


def test_linear_empirical_samples_take_one_evaluation(monkeypatch):
    """On a linear problem the first-order prediction is the solution: each sample converges at its first
    evaluation and is kept, on a problem whose latent block absorbs every input move (kappa_y = 0) too."""
    calls = _recorded_resolves(monkeypatch)
    rng = np.random.default_rng(23)
    absorbed = linearized_problem(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)),
                                  rng.standard_normal((3, 3)) + 3 * np.eye(3))
    cases = [linearized_problem(b.j_x, b.j_y, b.j_z) for b in map(random_linearized_blocks, ((9, i) for i in range(10)))]
    for i, (problem, point) in enumerate([*cases, absorbed]):
        calls.clear()
        est = empirical_condition(problem, point, radius=1e-4 * problem.scale, n_samples=3, seed=i)
        finite_difference_check(problem, point, _unit_direction(i, 0, problem.dims.dim_x), [1e-4])
        assert est.n_failed == 0 and len(calls) == 4 + 2
        assert all(start is not None and result.iterations == 1 for _, start, result in calls)
    assert est.max_ratio <= 1e-12  # the absorbed problem's y does not move


# ---------------------------------------------------------------------------
# jacobian_consistency_check


def test_jacobian_consistency_second_order_decay():
    for problem, point in (
        polar_problem(0.0),
        matrix_factorization_problem(4, 3, 2, seed=44),
        build_tucker_crep(TuckerCrepConfig(random_tucker_point((4, 3), (2, 2), 45), 0)),
        build_tucker_crep(TuckerCrepConfig(random_tucker_point((5, 3, 4), (2, 3, 2), 45), 0)),
    ):
        errors = jacobian_consistency_check(problem, point, steps=(1e-3, 1e-4), seed=46)
        for e1, e2 in errors:
            if e2 > 1e-10 * problem.scale:
                assert e1 / e2 >= 10.0


def test_first_order_band_across_radii_and_builtins():
    # upper bound at every radius; lower bound at the smallest radius via
    # the deterministic top-singular-direction sample
    cases = [
        polar_problem(0.0),
        matrix_factorization_problem(4, 3, 2, seed=47),
        build_tucker_crep(TuckerCrepConfig(random_tucker_point((4, 3), (2, 2), 48), 0)),
    ]
    for problem, pt in cases:
        blocks = evaluate_blocks(problem, pt)
        kappa = float(np.linalg.svd(solution_map_derivative(blocks), compute_uv=False)[0])
        radii = [1e-3 * problem.scale, 1e-4 * problem.scale, 1e-5 * problem.scale]
        for radius in radii:
            est = empirical_condition(problem, pt, radius=radius, n_samples=16, seed=49)
            assert est.n_failed == 0
            assert est.max_ratio <= kappa * 1.05
        assert est.max_ratio >= kappa * 0.95  # smallest radius
