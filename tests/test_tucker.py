import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from crepcond import tucker as tucker_module
from crepcond import verify
from crepcond.crep import (
    CertificationError,
    ConditionReport,
    RankHypothesisError,
    certify_crep,
    chart_blocks,
    condition_numbers,
    evaluate_blocks,
    solution_map_derivative,
)
from crepcond.linalg import numerical_rank
from crepcond.problems import matrix_factorization_problem
from crepcond.tensor import TuckerPoint, flatten
from crepcond.verify import check_tangent_block_certificates, check_tangent_blocks
from crepcond.tucker import (
    TuckerCrepConfig,
    build_tucker_crep,
    closed_form_kappa_core,
    closed_form_kappa_factor,
    closed_form_kappas,
    cross_validate,
    expected_kappa_all,
    random_orthogonal,
    random_stiefel,
    random_tucker_point,
    regauge,
)


def diag_core_point(sigmas=(2.0, 0.5), shape=(4, 3), seed=50):
    rng = np.random.default_rng(seed)
    core = np.diag(sigmas)
    factors = tuple(random_stiefel(rng, n, 2) for n in shape)
    return TuckerPoint(core=core, factors=factors)


def test_config_validates_output_variable():
    point = random_tucker_point((4, 3), (2, 2), 51)
    TuckerCrepConfig(point, "core")
    TuckerCrepConfig(point, 1)
    with pytest.raises(ValueError):
        TuckerCrepConfig(point, 2)
    with pytest.raises(ValueError):
        TuckerCrepConfig(point, "U1")
    with pytest.raises(ValueError):
        TuckerCrepConfig(point, True)


def test_build_dimensions_factor_output():
    point = random_tucker_point((4, 3), (2, 2), 52)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    # input: fixed-multilinear-rank tangent, 4 + 4 + 2; output: Stiefel
    # tangent of St(4,2); latent: core plus Stiefel tangent of St(3,2)
    assert tuple(problem.dims) == (10, 5, 7, 12)
    cert = certify_crep(problem, pt, n_samples=2, seed=0)
    assert cert.passed
    # kernel of the dependent blocks is the orthogonal gauge, dim 1 + 1
    assert cert.nullity_yz == 2


def test_build_residual_vanishes_at_point():
    point = random_tucker_point((5, 4, 3), (3, 2, 2), 53)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
    assert np.linalg.norm(problem.residual(pt.x, pt.y, pt.z)) <= 1e-12 * problem.scale


def test_build_core_output_with_square_factors_certifies():
    point = random_tucker_point((2, 2, 2), (2, 2, 2), 54)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
    cert = certify_crep(problem, pt, n_samples=2, seed=0)
    assert cert.passed
    # all gauge freedom lives in the latent factors: 3 * (2*1/2)
    assert cert.nullity_yz == 3


def test_closed_form_factor_square_branch():
    point = random_tucker_point((3, 4), (3, 3), 55)
    assert closed_form_kappa_factor(point.core, 0, 3) == 0.0


def test_closed_form_factor_diagonal_core():
    core = np.diag([2.0, 0.5])
    assert closed_form_kappa_factor(core, 0, 4) == pytest.approx(2.0)
    assert closed_form_kappa_factor(core, 1, 3) == pytest.approx(2.0)


def test_closed_form_factor_rejects_deficient_core():
    core = np.array([[1.0, 0.0], [1e-15, 0.0]])
    with pytest.raises((RankHypothesisError, ValueError)):
        closed_form_kappa_factor(core, 0, 4)


def test_closed_form_matches_pipeline_on_random_core():
    point = random_tucker_point((5, 4, 3), (3, 2, 2), 56)
    for d in range(3):
        problem, pt = build_tucker_crep(TuckerCrepConfig(point, d))
        report = condition_numbers(problem, pt, n_samples=1, seed=0)
        closed = closed_form_kappa_factor(point.core, d, point.shape[d])
        assert abs(report.kappa_y - closed) <= 1e-6 * (1 + closed)


def test_closed_form_core_is_one_and_pipeline_agrees():
    assert closed_form_kappa_core() == 1.0
    point = random_tucker_point((4, 3), (2, 2), 57)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
    report = condition_numbers(problem, pt, n_samples=1, seed=0)
    assert abs(report.kappa_y - 1.0) <= 1e-6


def test_core_radial_direction_is_extremal():
    # the direction along the tensor itself achieves ratio 1 exactly
    point = random_tucker_point((4, 3), (2, 2), 58)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
    blocks = evaluate_blocks(problem, pt)
    dh = solution_map_derivative(blocks)
    cx = problem.x_chart(pt.x, pt.y, pt.z)
    radial = cx.basis.T @ pt.x
    ratio = np.linalg.norm(dh @ radial) / np.linalg.norm(radial)
    assert abs(ratio - 1.0) <= 1e-8


def test_cross_validate_diagonal_core():
    cv = cross_validate(diag_core_point(), n_cert_samples=1, seed=0)
    by_var = {e.variable: e for e in cv.entries}
    assert by_var["core"].kappa_closed == 1.0
    assert by_var["U1"].kappa_closed == pytest.approx(2.0)
    assert by_var["U2"].kappa_closed == pytest.approx(2.0)
    assert cv.kappa_all_expected == pytest.approx(2.0)
    assert cv.max_rel_diff <= 1e-6


def test_cross_validate_all_square():
    point = random_tucker_point((2, 2), (2, 2), 59)
    cv = cross_validate(point, n_cert_samples=1, seed=0)
    for entry in cv.entries:
        expect = 1.0 if entry.variable == "core" else 0.0
        assert entry.kappa_general == pytest.approx(expect, abs=1e-8)
    assert cv.kappa_all_general == pytest.approx(1.0, abs=1e-8)


def test_cross_validate_tiny_gap_not_ill_conditioned():
    cv = cross_validate(diag_core_point(sigmas=(1.0, 0.999)), n_cert_samples=1, seed=0)
    by_var = {e.variable: e for e in cv.entries}
    assert by_var["U1"].kappa_general == pytest.approx(1.0 / 0.999, rel=1e-6)
    assert by_var["U1"].kappa_general < 1.1  # small gap does not blow up kappa
    assert cv.max_rel_diff <= 1e-6


def test_cross_validate_raises_on_certificate_failure(monkeypatch):
    point = random_tucker_point((4, 3), (2, 2), 60)
    from crepcond import tucker as tucker_mod

    real = tucker_mod.condition_numbers

    def always_failing(problem, pt, **kwargs):
        report = real(problem, pt, n_samples=0)
        object.__setattr__(report.certificate, "passed", False)
        return report

    monkeypatch.setattr(tucker_mod, "condition_numbers", always_failing)
    with pytest.raises(CertificationError):
        cross_validate(point, n_cert_samples=0)


def test_gauge_invariance_of_kappas():
    point = random_tucker_point((4, 3), (2, 2), 61)
    other = regauge(point, 62)
    for var in ["core", 0, 1]:
        r1 = condition_numbers(*build_tucker_crep(TuckerCrepConfig(point, var)), n_samples=2)
        r2 = condition_numbers(*build_tucker_crep(TuckerCrepConfig(other, var)), n_samples=2)
        assert r1.certificate.passed and r2.certificate.passed
        assert abs(r1.kappa_y - r2.kappa_y) <= 1e-8 * (1 + r1.kappa_y)
        assert abs(r1.kappa_yz - r2.kappa_yz) <= 1e-8 * (1 + r1.kappa_yz)


def test_scale_covariance():
    point = random_tucker_point((4, 3), (2, 2), 63)
    kappa1 = closed_form_kappa_factor(point.core, 0, 4)
    for alpha in (0.5, 4.0):
        scaled = TuckerPoint(core=alpha * point.core, factors=point.factors)
        problem, pt = build_tucker_crep(TuckerCrepConfig(scaled, 0))
        report = condition_numbers(problem, pt, n_samples=2)
        assert report.certificate.passed
        assert report.kappa_y == pytest.approx(kappa1 / alpha, rel=1e-8)
        problem_c, pt_c = build_tucker_crep(TuckerCrepConfig(scaled, "core"))
        report_c = condition_numbers(problem_c, pt_c, n_samples=2)
        assert report_c.certificate.passed
        assert report_c.kappa_y == pytest.approx(1.0, abs=1e-8)


def test_gauge_and_scale_checks_fail_on_a_failed_certificate(monkeypatch):
    def failing(problem, pt, **kwargs):
        cert = condition_numbers(problem, pt, **kwargs).certificate
        return ConditionReport(None, None, None, None, dataclasses.replace(cert, passed=False, messages=("forced",)))

    monkeypatch.setattr(verify, "condition_numbers", failing)
    monkeypatch.setattr(tucker_module, "condition_numbers", failing)
    for result in (verify.check_gauge_invariance(trials=1), verify.check_scale_covariance()):
        assert not result.passed and "forced" in result.detail


def test_closed_form_kappas_table():
    point = random_tucker_point((5, 4, 2), (3, 2, 2), 67)  # mode 3 is square
    kappas = closed_form_kappas(point)
    assert list(kappas) == ["core", "U1", "U2", "U3", "all"]
    assert kappas["core"] == closed_form_kappa_core()
    for d in range(point.order):
        assert kappas[f"U{d + 1}"] == closed_form_kappa_factor(point.core, d, point.shape[d])
    assert kappas["U3"] == 0.0
    assert kappas["all"] == expected_kappa_all(point) == max(kappas["core"], kappas["U1"], kappas["U2"])


def test_cross_validate_computes_each_closed_form_once(monkeypatch):
    modes = []
    original = tucker_module.closed_form_kappa_factor
    monkeypatch.setattr(
        tucker_module, "closed_form_kappa_factor", lambda core, mode, *args: modes.append(mode) or original(core, mode, *args)
    )
    cross_validate(random_tucker_point((5, 4, 3), (3, 2, 2), 68), n_cert_samples=0)
    assert sorted(modes) == [0, 1, 2]


def test_monotonicity_specialization():
    point = random_tucker_point((5, 4, 3), (3, 2, 2), 64)
    cv = cross_validate(point, n_cert_samples=0, seed=0)
    for entry in cv.entries:
        assert entry.kappa_general <= cv.kappa_all_general + 1e-8 * (1 + cv.kappa_all_general)
    assert cv.kappa_all_expected == pytest.approx(expected_kappa_all(point), rel=1e-12)


def test_combined_kappa_equals_max_of_individuals():
    point = random_tucker_point((5, 4, 3), (3, 2, 2), 65)
    cv = cross_validate(point, n_cert_samples=0, seed=0)
    assert cv.rel_diff_all <= 1e-6


def test_random_tucker_point_validation():
    with pytest.raises(ValueError):
        random_tucker_point((4, 3), (2,), 0)
    with pytest.raises(ValueError):
        random_tucker_point((4, 3), (5, 2), 0)
    with pytest.raises(ValueError):
        random_tucker_point((4, 3), (2, 1), 0)  # not an achievable multilinear rank
    point = random_tucker_point((4, 3), (2, 2), 66)
    for d in range(2):
        s = np.linalg.svd(flatten(point.core, d), compute_uv=False)
        assert s[-1] >= 0.1


def test_random_orthogonal_is_orthogonal():
    q = random_orthogonal(67, 4)
    assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-12


def test_rank_certificate_constancy_across_gauge():
    # ranks are gauge invariant: the same instance in two gauges certifies identically
    point = random_tucker_point((4, 3), (2, 2), 68)
    other = regauge(point, 69)
    c1 = certify_crep(*build_tucker_crep(TuckerCrepConfig(point, 0)), n_samples=1, seed=0)
    c2 = certify_crep(*build_tucker_crep(TuckerCrepConfig(other, 0)), n_samples=1, seed=0)
    assert (c1.r, c1.k, c1.nullity_yz) == (c2.r, c2.k, c2.nullity_yz)


def test_x_retraction_stays_on_manifold():
    point = random_tucker_point((4, 3), (2, 2), 70)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    rng = np.random.default_rng(71)
    dx = 1e-3 * rng.standard_normal(pt.x.size)
    moved = problem.x_retract(pt.x, dx)
    m = moved.reshape(4, 3)
    assert numerical_rank(m).rank == 2


def test_core_output_near_degenerate_gap_pipeline_vs_minnorm():
    # With nearly equal core singular values, a latent direction nearly
    # coincides with the span of the core block; the elimination pipeline
    # honestly reports that it cannot certify consistency, while the
    # min-norm route stays robust and still returns kappa(core) = 1.
    from crepcond.crep import solution_map_derivative, solution_map_derivative_minnorm
    from crepcond.linalg import InconsistentSystemError, spectral_norm

    point = diag_core_point(sigmas=(1.0, 1.0 - 1e-8), seed=90)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
    blocks = evaluate_blocks(problem, pt)
    with pytest.raises(InconsistentSystemError):
        solution_map_derivative(blocks)
    dh = solution_map_derivative_minnorm(blocks)
    assert spectral_norm(dh) == pytest.approx(1.0, rel=1e-8)


def test_elimination_conditioning_guard_fires_in_every_residual_basis():
    # The stacked elimination system is square on the tangent blocks, so its
    # consistency check cannot fail there; its condition number (1.4e8) is the
    # same with and without the hook.
    from crepcond.crep import solution_map_derivative
    from crepcond.linalg import InconsistentSystemError

    point = diag_core_point(sigmas=(1.0, 1.0 - 1e-8), seed=90)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core"))
    for p in (problem, dataclasses.replace(problem, tangent_blocks=None)):
        with pytest.raises(InconsistentSystemError, match="condition number"):
            solution_map_derivative(evaluate_blocks(p, pt))


def test_condition_numbers_thread_safe_with_shared_problem():
    cases = [
        build_tucker_crep(TuckerCrepConfig(random_tucker_point((5, 4, 3), (2, 2, 2), 91 + i), var))
        for i, var in enumerate(["core", 0, 1, 2])
    ]
    tasks = [cases[0]] + cases  # the first problem object runs in two workers at once
    serial = [condition_numbers(problem, pt, n_samples=2, seed=92) for problem, pt in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(condition_numbers, problem, pt, n_samples=2, seed=92) for problem, pt in tasks]
            parallel = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, parallel):
        assert a.certificate.passed
        assert (a.kappa_y, a.kappa_z, a.kappa_yz) == (b.kappa_y, b.kappa_z, b.kappa_yz)
        np.testing.assert_array_equal(a.dh, b.dh)
        assert a.certificate == b.certificate


def test_identity_input_jacobian_is_none_and_maps_to_the_x_chart_basis():
    cases = [
        build_tucker_crep(TuckerCrepConfig(random_tucker_point((4, 3, 2), (2, 2, 2), 93), 1)),
        matrix_factorization_problem(4, 3, 2, seed=94),
    ]
    for problem, pt in cases:
        assert problem.jacobian(pt.x, pt.y, pt.z)[0] is None
        ambient = dataclasses.replace(problem, tangent_blocks=None)
        blocks = chart_blocks(ambient, pt.x, pt.y, pt.z)
        np.testing.assert_array_equal(blocks.j_x, problem.x_chart(pt.x, pt.y, pt.z).basis)


def test_ambient_tucker_blocks_allocate_nothing_of_residual_size_squared():
    point = random_tucker_point((10, 10, 10), (3, 3, 3), 98)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    ambient = dataclasses.replace(problem, tangent_blocks=None)
    n_res = problem.dims.n_residual
    tracemalloc.start()
    try:
        blocks = evaluate_blocks(ambient, pt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks.j_x.shape == (n_res, problem.dims.dim_x)
    assert peak < n_res**2 * 8


# ---------------------------------------------------------------------------
# Blocks in input tangent coordinates (the tangent_blocks hook)


@pytest.mark.parametrize("check", [check_tangent_blocks, check_tangent_block_certificates])
def test_tangent_blocks_agree_with_ambient_blocks(check):
    result = check(seed=7)
    assert result.passed, result.line()


def test_resolver_iterate_takes_one_complement_basis_per_factor(monkeypatch):
    # Each iterate asks the hook once for blocks and charts, and its Stiefel
    # charts come from the complement bases the blocks were built from.
    from crepcond import empirical, tensor

    point = random_tucker_point((6, 5, 4), (3, 3, 2), 96)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    u = np.random.default_rng(97).standard_normal(problem.dims.dim_x)
    x = problem.x_retract(pt.x, evaluate_blocks(problem, pt)._x_basis @ (1e-4 * problem.scale * u / np.linalg.norm(u)))
    counts = {"tangent_blocks": 0, "complement_basis": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    problem = dataclasses.replace(problem, tangent_blocks=counted("tangent_blocks", problem.tangent_blocks))
    monkeypatch.setattr(tensor, "complement_basis", counted("complement_basis", tensor.complement_basis))
    res = empirical.constrained_nearest_solution(problem, pt, x)
    assert res.converged and res.iterations >= 2
    assert counts == {"tangent_blocks": res.iterations, "complement_basis": res.iterations * point.order}


def test_kernel_rows_of_roundoff_do_not_cut_the_output_derivative():
    # Rank-one last mode: no gauge rotation of U3, so the output rows of the
    # kernel of [j_y j_z] are roundoff in tangent coordinates. Cut relative to
    # their own largest singular value they looked like a direction, and
    # projecting DH off it gave kappa_y = 0.
    point = random_tucker_point((4, 3, 2), (2, 2, 1), 5)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 2))
    report = condition_numbers(problem, pt, n_samples=2)
    assert report.certificate.passed
    assert report.kappa_y == pytest.approx(closed_form_kappa_factor(point.core, 2, 2), rel=1e-10)


def test_cross_validate_factors_no_residual_sized_matrix(monkeypatch):
    point = random_tucker_point((6, 5, 4), (3, 3, 2), 96)
    rows = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    cv = cross_validate(point, n_cert_samples=2)
    assert cv.max_rel_diff < 1e-8
    assert rows and point.product.size not in rows


def test_condition_numbers_peak_memory_below_residual_size_squared():
    point = random_tucker_point((10, 10, 10), (3, 3, 3), 97)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
    n_res = problem.dims.n_residual
    tracemalloc.start()
    try:
        report = condition_numbers(problem, pt, n_samples=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.certificate.passed and report.certificate.samples_checked == 2
    assert peak < n_res**2 * 8
