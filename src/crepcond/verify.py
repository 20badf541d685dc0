"""Runtime verification suites.

Each check exercises one invariant of the library at an explicit tolerance
and returns a :class:`CheckResult` with the measured value, so failures are
quantitative.  The ``quick`` suite runs every check at a small instance
budget; ``full`` raises the budgets and adds the resolve-based checks
(finite differences and empirical condition bounds).

All checks are deterministic given the seed; instance streams derive
per-instance generators from ``(seed, index)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import empirical
from .crep import (
    CertificationError,
    JacobianBlocks,
    chart_blocks,
    condition_numbers,
    condition_numbers_from_blocks,
    defining_equation_residuals,
    fcre_solution_derivative,
    evaluate_blocks,
    solution_map_derivative,
    solution_map_derivative_minnorm,
)
from .linalg import (
    complement_basis,
    kernel_basis,
    min_norm_solve,
    numerical_rank,
    orthonormalize,
    spectral_norm,
)
from .problems import (
    matrix_factorization_problem,
    polar_problem,
    random_linearized_blocks,
)
from .tensor import TuckerPoint, flatten, hosvd, kronecker, multilinear_multiply, multilinear_rank
from .tucker import (
    TuckerCrepConfig,
    build_tucker_crep,
    closed_form_kappa_factor,
    cross_validate,
    random_orthogonal,
    random_stiefel,
    random_tucker_point,
    regauge,
)

__all__ = ["CheckResult", "run_suite", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: measured={self.measured:.3e} threshold={self.threshold:.3e}{extra}"


def _result(name, measured, threshold, detail="", larger_is_better=False):
    ok = measured >= threshold if larger_is_better else measured <= threshold
    return CheckResult(name=name, passed=bool(ok), measured=float(measured), threshold=float(threshold), detail=detail)


def _random_shaped(rng, max_dim=9):
    rows = int(rng.integers(1, max_dim))
    cols = int(rng.integers(1, max_dim))
    rank = int(rng.integers(0, min(rows, cols) + 1))
    m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    return m


def check_kernel_complement(seed=0, trials=40) -> CheckResult:
    """Kernel and complement bases annihilate their matrix and are orthonormal."""
    rtol = 1e-12
    worst = 0.0
    for i in range(trials):
        rng = np.random.default_rng((seed, i))
        m = _random_shaped(rng)
        norm_m = max(spectral_norm(m), 1e-300)
        k = kernel_basis(m, rtol)
        q = complement_basis(m, rtol)
        worst = max(
            worst,
            spectral_norm(m @ k) / (10.0 * rtol * norm_m),
            spectral_norm(q.T @ m) / (10.0 * rtol * norm_m),
            spectral_norm(k.T @ k - np.eye(k.shape[1])) / 1e-12,
            spectral_norm(q.T @ q - np.eye(q.shape[1])) / 1e-12,
        )
    return _result("kernel/complement basis invariants", worst, 1.0, f"{trials} random matrices, worst ratio to bound")


def check_rank_nullity(seed=0, trials=40) -> CheckResult:
    """rank + kernel dimension equals the column count."""
    violations = 0
    for i in range(trials):
        rng = np.random.default_rng((seed, i))
        m = _random_shaped(rng)
        r = numerical_rank(m).rank
        k = kernel_basis(m).shape[1]
        violations += int(r + k != m.shape[1])
    return _result("rank-nullity identity", violations, 0.0, f"{trials} random matrices")


def check_left_inverse_independence(seed=0, trials=25) -> CheckResult:
    """Minimum-norm, normal-equation and row-selection solves agree on
    consistent full-column-rank systems."""
    worst = 0.0
    for i in range(trials):
        rng = np.random.default_rng((seed, i))
        n = int(rng.integers(2, 8))
        m = int(rng.integers(n, 12))
        a = rng.standard_normal((m, n))
        x_true = rng.standard_normal((n, int(rng.integers(1, 4))))
        b = a @ x_true
        x_mn = min_norm_solve(a, b, 1e-10, scale=spectral_norm(a) + spectral_norm(b))
        x_ne = np.linalg.solve(a.T @ a, a.T @ b)
        rows = _independent_rows(a)
        x_rs = np.linalg.solve(a[rows], b[rows])
        scale = max(np.linalg.norm(x_mn), 1e-300)
        worst = max(
            worst,
            float(np.linalg.norm(x_mn - x_ne)) / scale,
            float(np.linalg.norm(x_mn - x_rs)) / scale,
        )
    return _result("left-inverse independence", worst, 1e-10, f"{trials} systems, 3 solution routes")


def _independent_rows(a: np.ndarray) -> list[int]:
    """Greedy selection of a full-rank square row subset of a full-column-rank matrix."""
    n = a.shape[1]
    rows: list[int] = []
    for i in range(a.shape[0]):
        cand = rows + [i]
        if numerical_rank(a[cand]).rank == len(cand):
            rows = cand
        if len(rows) == n:
            break
    return rows


def _builtin_blocks(seed=0):
    tucker, tucker_pt = build_tucker_crep(TuckerCrepConfig(random_tucker_point((4, 3), (2, 2), seed), 0))
    cases = [
        polar_problem(0.0),
        matrix_factorization_problem(4, 3, 2, seed=seed),
        (tucker, tucker_pt),
        (replace(tucker, tangent_blocks=None), tucker_pt),  # the ambient Jacobian as well
    ]
    return [evaluate_blocks(problem, pt) for problem, pt in cases]


def check_pipeline_oracle_equivalence(seed=0, n_instances=30, tol=1e-10) -> CheckResult:
    """The elimination pipeline (the oracle) and the minimum-norm route compute
    the same derivative, for the output and, with roles swapped, the latent."""
    worst = 0.0
    instances = [random_linearized_blocks((seed, i)) for i in range(n_instances)] + _builtin_blocks(seed)
    for blocks in instances + [b.swap_outputs() for b in instances]:
        dh1 = solution_map_derivative(blocks)
        dh2 = solution_map_derivative_minnorm(blocks)
        worst = max(worst, float(np.linalg.norm(dh1 - dh2)) / (1.0 + float(np.linalg.norm(dh1))))
    return _result(
        "pipeline vs min-norm route", worst, tol, f"{n_instances} random linearized instances plus builtins, both ways round"
    )


def check_defining_residuals(seed=0, n_instances=30, tol=1e-10) -> CheckResult:
    """The computed derivative satisfies its defining equations."""
    worst = 0.0
    for i in range(n_instances):
        blocks = random_linearized_blocks((seed, i))
        dh = solution_map_derivative(blocks)
        feas, orth, scale = defining_equation_residuals(blocks, dh)
        worst = max(worst, max(feas, orth) / max(scale, 1e-300))
    return _result("defining-equation residuals", worst, tol, f"{n_instances} random linearized instances")


def check_fcre_reduction(seed=0, n_instances=30, tol=1e-12) -> CheckResult:
    """With an empty latent space the pipeline reduces to the pseudoinverse formula."""
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng((seed, i, 2))
        blocks = random_linearized_blocks((seed, i))
        j_y = np.hstack([blocks.j_y, blocks.j_z])
        j_x = j_y @ rng.standard_normal((j_y.shape[1], blocks.j_x.shape[1]))
        fcre = JacobianBlocks(j_x=j_x, j_y=j_y, j_z=np.zeros((j_y.shape[0], 0)))
        dh1 = solution_map_derivative(fcre)
        dh2 = fcre_solution_derivative(j_x, j_y)
        worst = max(worst, float(np.linalg.norm(dh1 - dh2)) / (1.0 + float(np.linalg.norm(dh2))))
    return _result("reduction to pseudoinverse formula (empty latent space)", worst, tol, f"{n_instances} instances")


def _well_conditioned_square(rng, n, max_cond=1e3):
    u = random_orthogonal(rng, n)
    v = random_orthogonal(rng, n)
    span = np.sqrt(max_cond)
    s = np.exp(rng.uniform(-np.log(span), np.log(span), size=n))
    return (u * s) @ v.T


def check_z_chart_invariance(seed=0, n_trials=30, tol=1e-9) -> CheckResult:
    """Recoordinatizing the latent space leaves the derivative unchanged, on the
    elimination reference route and on the production min-norm route."""
    worst = 0.0
    done = 0
    i = 0
    while done < n_trials:
        blocks = random_linearized_blocks((seed, i))
        i += 1
        if blocks.j_z.shape[1] == 0:
            continue
        rng = np.random.default_rng((seed, i, 1))
        s = _well_conditioned_square(rng, blocks.j_z.shape[1])
        scaled = JacobianBlocks(j_x=blocks.j_x, j_y=blocks.j_y, j_z=blocks.j_z @ s)
        for route in (solution_map_derivative, solution_map_derivative_minnorm):
            dh = route(blocks)
            worst = max(worst, float(np.linalg.norm(dh - route(scaled))) / (1.0 + float(np.linalg.norm(dh))))
        done += 1
    return _result("latent recoordinatization invariance", worst, tol,
                   f"{n_trials} trials, cond(S) <= 1e3, elimination and min-norm routes")


def check_xy_chart_equivariance(seed=0, n_trials=25, tol=1e-9) -> CheckResult:
    """Rotating input/output charts transforms DH by the rotations and
    leaves all condition numbers unchanged."""
    worst = 0.0
    for i in range(n_trials):
        blocks = random_linearized_blocks((seed, i))
        rng = np.random.default_rng((seed, i, 3))
        r_x = random_orthogonal(rng, blocks.j_x.shape[1])
        r_y = random_orthogonal(rng, blocks.j_y.shape[1])
        rotated = JacobianBlocks(j_x=blocks.j_x @ r_x, j_y=blocks.j_y @ r_y, j_z=blocks.j_z)
        k1 = condition_numbers_from_blocks(blocks)
        k2 = condition_numbers_from_blocks(rotated)
        dh_expect = r_y.T @ k1[3] @ r_x
        worst = max(worst, float(np.linalg.norm(k2[3] - dh_expect)) / (1.0 + float(np.linalg.norm(dh_expect))))
        for a, b in zip(k1[:3], k2[:3]):
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return _result("input/output chart equivariance", worst, tol, f"{n_trials} random rotations")


def check_monotonicity(seed=0, n_linearized=30, n_tucker=4, tol=1e-8) -> CheckResult:
    """Solving for everything is at least as ill-conditioned as for a part."""
    all_blocks = [random_linearized_blocks((seed, i)) for i in range(n_linearized)]
    builtins = [polar_problem(0.0), matrix_factorization_problem(4, 3, 2, seed=seed)]
    for point in _tucker_instance_pool(seed, n_tucker):
        for var in ["core"] + list(range(point.order)):
            builtins.append(build_tucker_crep(TuckerCrepConfig(point, var)))
    all_blocks.extend(evaluate_blocks(problem, pt) for problem, pt in builtins)
    worst = -np.inf
    for blocks in all_blocks:
        kappa_y, kappa_z, kappa_yz, _ = condition_numbers_from_blocks(blocks)
        worst = max(worst, (kappa_y - kappa_yz) / (1.0 + kappa_yz), (kappa_z - kappa_yz) / (1.0 + kappa_yz))
    return _result("monotonicity of combined output", worst, tol, f"{len(all_blocks)} instances")


def check_polar_exact(tol=1e-10) -> CheckResult:
    """The polar system has condition numbers (1, 0, 1) at x0 = 0."""
    problem, pt = polar_problem(0.0)
    report = condition_numbers(problem, pt, n_samples=3)
    if not report.certificate.passed:
        return CheckResult("polar exact condition numbers", False, np.inf, tol, "certificate failed")
    worst = max(abs(report.kappa_y - 1.0), abs(report.kappa_z), abs(report.kappa_yz - 1.0))
    return _result("polar exact condition numbers", worst, tol, "kappa = (1, 0, 1)")


def check_tensor_identities(seed=0, trials=12, tol=1e-12) -> CheckResult:
    """Flattening identity, composition, Kronecker mixed product, gauge orbit,
    and idempotence of the truncated higher-order SVD."""
    worst = 0.0
    for i in range(trials):
        rng = np.random.default_rng((seed, i))
        shape = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 4))))
        t = rng.standard_normal(shape)
        us = [rng.standard_normal((int(rng.integers(2, 5)), n)) for n in shape]
        b = multilinear_multiply(us, t)
        scale = max(float(np.linalg.norm(b)), 1e-300)
        for j in range(len(shape)):
            others = [u for d, u in enumerate(us) if d != j]
            kron = np.ones((1, 1))
            for u in others:
                kron = np.kron(kron, u)
            worst = max(worst, float(np.linalg.norm(flatten(b, j) - us[j] @ flatten(t, j) @ kron.T)) / scale)
        # composition
        vs = [rng.standard_normal((u.shape[0], u.shape[0])) for u in us]
        left = multilinear_multiply(vs, multilinear_multiply(us, t))
        right = multilinear_multiply([v @ u for v, u in zip(vs, us)], t)
        worst = max(worst, float(np.linalg.norm(left - right)) / max(float(np.linalg.norm(right)), 1e-300))
        # Kronecker mixed product
        a, bb, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
        worst = max(worst, float(np.linalg.norm(kronecker(a, bb) @ kronecker(c, d) - kronecker(a @ c, bb @ d))))
        # gauge orbit and idempotence
        ranks = tuple(min(2, n) for n in shape)
        point = random_tucker_point(shape, ranks, (seed, i, 1))
        re = regauge(point, (seed, i, 2))
        worst = max(
            worst,
            float(np.linalg.norm(re.product - multilinear_multiply(list(re.factors), re.core)))
            / max(float(np.linalg.norm(point.product)), 1e-300),
        )
        again = hosvd(point.product, point.ranks)
        worst = max(
            worst,
            float(np.linalg.norm(again.product - point.product)) / max(float(np.linalg.norm(point.product)), 1e-300),
        )
    return _result("multilinear algebra identities", worst, tol, f"{trials} random instances")


def _tucker_instance_pool(seed, n_instances):
    """Deterministic mix of order-2 and order-3 desk-scale instances."""
    shapes = [
        ((4, 3), (2, 2)),
        ((5, 4), (3, 3)),
        ((6, 5), (3, 3)),
        ((5, 5), (2, 2)),
        ((6, 3), (1, 1)),
        ((2, 3), (2, 2)),
        ((4, 3, 2), (2, 2, 1)),
        ((5, 4, 3), (3, 2, 2)),
        ((4, 4, 4), (2, 2, 2)),
        ((6, 5, 4), (3, 3, 2)),
        ((3, 3, 3), (2, 2, 2)),
        ((3, 4, 2), (3, 2, 2)),
    ]
    for i in range(n_instances):
        shape, ranks = shapes[i % len(shapes)]
        yield random_tucker_point(shape, ranks, (seed, i))


def check_tucker_closed_form(seed=0, n_instances=10, tol=1e-6, budget_seconds=60.0) -> CheckResult:
    """General pipeline reproduces the closed-form condition numbers."""
    start = time.monotonic()
    worst = 0.0
    for point in _tucker_instance_pool(seed, n_instances):
        cv = cross_validate(point, n_cert_samples=1, seed=seed)
        worst = max(worst, cv.max_rel_diff)
    elapsed = time.monotonic() - start
    detail = f"{n_instances} instances in {elapsed:.1f}s"
    if elapsed > budget_seconds:
        return CheckResult("closed-form reproduction", False, worst, tol, detail + " (over budget)")
    return _result("closed-form reproduction", worst, tol, detail)


def check_square_branch(seed=0, tol=1e-8) -> CheckResult:
    """With all factors square, every factor condition number is 0 and the
    combined one is 1."""
    worst = 0.0
    for shape in ((3, 3), (2, 2, 2)):
        point = random_tucker_point(shape, shape, (seed, *shape))
        cv = cross_validate(point, n_cert_samples=1, seed=seed)
        for entry in cv.entries:
            target = 1.0 if entry.variable == "core" else 0.0
            worst = max(worst, abs(entry.kappa_general - target))
        worst = max(worst, abs(cv.kappa_all_general - 1.0))
    return _result("square-factor branch", worst, tol, "all factors square")


def check_gap_independence(seed=0, gaps=(1e-1, 1e-3, 1e-6), tol=1e-6) -> CheckResult:
    """The factor condition number tracks 1/sigma_min and does not blow up
    as the singular-value gap closes."""
    worst = 0.0
    rng = np.random.default_rng(seed)
    factors = (random_stiefel(rng, 4, 2), random_stiefel(rng, 3, 2))
    for gap in gaps:
        sigma = np.array([1.0, 1.0 - gap])
        core = (random_orthogonal(rng, 2) * sigma) @ random_orthogonal(rng, 2).T
        point = TuckerPoint(core=core, factors=factors)
        problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
        report = condition_numbers(problem, pt, n_samples=1, seed=seed)
        if not report.certificate.passed:
            return CheckResult("singular-value gap independence", False, np.inf, tol, f"certificate failed at gap {gap}")
        expected = 1.0 / (1.0 - gap)
        worst = max(worst, abs(report.kappa_y - expected) / expected)
    return _result("singular-value gap independence", worst, tol, f"gaps {gaps}")


def check_gauge_invariance(seed=0, trials=5, tol=1e-8) -> CheckResult:
    """Condition numbers are invariant under the orthogonal gauge of the
    decomposition."""
    name = "gauge invariance of condition numbers"
    worst = 0.0
    for i in range(trials):
        point = random_tucker_point((4, 3), (2, 2), (seed, i))
        other = regauge(point, (seed, i, 1))
        for var in ["core", 0, 1]:
            r1 = condition_numbers(*build_tucker_crep(TuckerCrepConfig(point, var)), n_samples=2, seed=seed)
            r2 = condition_numbers(*build_tucker_crep(TuckerCrepConfig(other, var)), n_samples=2, seed=seed)
            for r in (r1, r2):
                if not r.certificate.passed:
                    return CheckResult(name, False, np.inf, tol, f"certificate failed: {'; '.join(r.certificate.messages)}")
            for a, b in ((r1.kappa_y, r2.kappa_y), (r1.kappa_z, r2.kappa_z), (r1.kappa_yz, r2.kappa_yz)):
                worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return _result(name, worst, tol, f"{trials} regauged instances")


def check_scale_covariance(seed=0, alphas=(0.5, 2.0, 10.0), tol=1e-8) -> CheckResult:
    """Scaling the tensor scales factor condition numbers by 1/alpha and
    leaves the core condition number at 1."""
    point = random_tucker_point((4, 3), (2, 2), seed)
    base = [closed_form_kappa_factor(point.core, d, point.shape[d]) for d in range(2)]
    worst = 0.0
    for alpha in alphas:
        scaled = TuckerPoint(core=alpha * point.core, factors=point.factors)
        try:
            cv = cross_validate(scaled, n_cert_samples=2, seed=seed)
        except CertificationError as exc:
            return CheckResult("scale covariance", False, np.inf, tol, str(exc))
        for entry, kappa0 in zip(cv.entries[1:], base):
            worst = max(worst, abs(entry.kappa_general - kappa0 / alpha) / (kappa0 / alpha))
        core_entry = cv.entries[0]
        worst = max(worst, abs(core_entry.kappa_general - 1.0))
    return _result("scale covariance", worst, tol, f"alphas {alphas}")


def _tangent_block_cases(seed):
    """Every output variable of one order-3 and one order-4 Tucker instance."""
    for shape, ranks in (((6, 5, 4), (3, 3, 2)), ((5, 4, 3, 3), (2, 2, 2, 2))):
        point = random_tucker_point(shape, ranks, (seed, len(shape)))
        for var in ["core"] + list(range(point.order)):
            yield build_tucker_crep(TuckerCrepConfig(point, var))


def _off_manifold_iterate(problem, pt, seed):
    """``(x, y, z)`` after one resolver step from a perturbed input: ``F != 0`` there."""
    u = np.random.default_rng((seed, 5)).standard_normal(problem.dims.dim_x)
    u *= 1e-3 * problem.scale / float(np.linalg.norm(u))
    x = problem.x_retract(pt.x, evaluate_blocks(problem, pt)._x_basis @ u)
    res = empirical.constrained_nearest_solution(problem, pt, x, max_iter=1)
    return x, res.y, res.z


def check_tangent_blocks(seed=0, tol=1e-13) -> CheckResult:
    """The Tucker ``tangent_blocks`` are the ambient chart blocks in the coordinates
    of the input tangent basis ``q``: every block column lies in span ``q``, and
    ``q.T`` gives the hook's blocks, their Gram matrix and its residual, at the
    reference point and at an off-manifold resolver iterate."""
    worst = 0.0
    for problem, pt in _tangent_block_cases(seed):
        ambient = replace(problem, tangent_blocks=None)
        for x, y, z in ((pt.x, pt.y, pt.z), _off_manifold_iterate(problem, pt, seed)):
            r = problem.residual(x, y, z)
            blocks = chart_blocks(ambient, x - r, y, z)  # x - r: the tensor (y, z) decompose
            q, full = blocks._x_basis, np.hstack([blocks.j_x, blocks.j_y, blocks.j_z])
            *hook, qr = problem.tangent_blocks(x, y, z, r)[:4]
            hook = np.hstack(hook)
            scale, gram = float(np.linalg.norm(full)), full.T @ full
            worst = max(
                worst,
                float(np.linalg.norm(full - q @ (q.T @ full))) / scale,
                float(np.linalg.norm(hook - q.T @ full)) / scale,
                float(np.linalg.norm(hook.T @ hook - gram)) / float(np.linalg.norm(gram)),
                float(np.linalg.norm(qr - q.T @ r)) / max(float(np.linalg.norm(r)), 1e-300),
            )
    return _result("tangent blocks equal the ambient chart blocks", worst, tol, "Tucker orders 3 and 4, every variable")


_DECISIONS = ("r", "k", "rank_df", "nullity_yz", "samples_checked", "resolve_failures", "passed", "fragile")


def check_tangent_block_certificates(seed=0, tol=1e-12) -> CheckResult:
    """Certifying with the Tucker ``tangent_blocks`` and without them (ambient blocks)
    gives the same certificate decisions and the same kappas."""
    worst = 0.0
    for problem, pt in _tangent_block_cases(seed):
        with_hook = condition_numbers(problem, pt, n_samples=2, seed=seed)
        ambient = condition_numbers(replace(problem, tangent_blocks=None), pt, n_samples=2, seed=seed)
        decisions = [[getattr(r.certificate, f) for f in _DECISIONS] for r in (with_hook, ambient)]
        if not with_hook.certificate.passed or decisions[0] != decisions[1]:
            return CheckResult(
                "certificates with and without tangent blocks", False, np.inf, tol, f"{problem.name}: {decisions}"
            )
        for a, b in zip((with_hook.kappa_y, with_hook.kappa_z, with_hook.kappa_yz),
                        (ambient.kappa_y, ambient.kappa_z, ambient.kappa_yz)):
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    return _result("certificates with and without tangent blocks", worst, tol, "Tucker orders 3 and 4, every variable")


def check_fault_injection(seed=0) -> CheckResult:
    """A deliberately corrupted derivative must be caught by the
    defining-equation residuals."""
    problem, pt = polar_problem(0.0)
    blocks = evaluate_blocks(problem, pt)
    dh_bad = -solution_map_derivative(blocks)
    feas, orth, scale = defining_equation_residuals(blocks, dh_bad)
    measured = max(feas, orth) / max(scale, 1e-300)
    return _result("fault injection is detected", measured, 1e-6, "sign fault must violate the residual invariant", larger_is_better=True)


def check_jacobian_consistency(seed=0) -> CheckResult:
    """Analytic Jacobians of the builtin problems match finite differences,
    with errors decaying at second order in the step."""
    worst_ratio = np.inf
    problems = [
        polar_problem(0.0),
        matrix_factorization_problem(4, 3, 2, seed=seed),
        build_tucker_crep(TuckerCrepConfig(random_tucker_point((4, 3), (2, 2), seed), 0)),
        build_tucker_crep(TuckerCrepConfig(random_tucker_point((5, 3, 4), (2, 3, 2), seed), 0)),
    ]
    for problem, pt in problems:
        errs = empirical.jacobian_consistency_check(problem, pt, steps=(1e-3, 1e-4), seed=seed)
        for per_direction in errs:
            e1, e2 = per_direction
            if e2 > 1e-10 * problem.scale:  # above the roundoff floor
                worst_ratio = min(worst_ratio, e1 / e2)
    if not np.isfinite(worst_ratio):
        worst_ratio = 1e6  # every error at floor: consistent
    return _result("residual/Jacobian consistency", worst_ratio, 10.0, "error drop per 10x step shrink", larger_is_better=True)


def check_finite_difference(seed=0, step=1e-4, tol=1e-4) -> CheckResult:
    """Central differences of the resolver reproduce the derivative."""
    worst = 0.0
    cases = [
        polar_problem(0.0),
        matrix_factorization_problem(4, 3, 2, seed=seed),
        build_tucker_crep(TuckerCrepConfig(random_tucker_point((4, 3), (2, 2), seed), 0)),
    ]
    for idx, (problem, pt) in enumerate(cases):
        rng = np.random.default_rng((seed, idx))
        d = rng.standard_normal(problem.dims.dim_x)
        d /= float(np.linalg.norm(d))
        errs = empirical.finite_difference_check(problem, pt, d, [step])
        worst = max(worst, errs[0])
    return _result("finite-difference validation of the derivative", worst, tol, f"step {step:g}, 3 problem families")


def check_empirical_bounds(seed=0, n_samples=64, band=0.05) -> CheckResult:
    """Perturb-and-resolve ratios land within 5% of the condition number."""
    worst = 0.0
    cases = [
        polar_problem(0.0),
        build_tucker_crep(TuckerCrepConfig(random_tucker_point((4, 3), (2, 2), seed), 0)),
    ]
    for problem, pt in cases:
        report = condition_numbers(problem, pt, n_samples=1, seed=seed)
        est = empirical.empirical_condition(problem, pt, radius=1e-4 * problem.scale, n_samples=n_samples, seed=seed)
        if est.n_failed:
            return CheckResult("first-order error bound", False, np.inf, band, f"{est.n_failed} resolves failed")
        worst = max(worst, abs(est.max_ratio - report.kappa_y) / report.kappa_y)
    return _result("first-order error bound", worst, band, f"radius 1e-4*scale, {n_samples}+1 samples")


QUICK_CHECKS = [
    lambda seed: check_kernel_complement(seed),
    lambda seed: check_rank_nullity(seed),
    lambda seed: check_left_inverse_independence(seed),
    lambda seed: check_tensor_identities(seed),
    lambda seed: check_pipeline_oracle_equivalence(seed),
    lambda seed: check_defining_residuals(seed),
    lambda seed: check_fcre_reduction(seed),
    lambda seed: check_z_chart_invariance(seed),
    lambda seed: check_xy_chart_equivariance(seed),
    lambda seed: check_monotonicity(seed),
    lambda seed: check_polar_exact(),
    lambda seed: check_tucker_closed_form(seed, n_instances=10),
    lambda seed: check_square_branch(seed),
    lambda seed: check_gap_independence(seed),
    lambda seed: check_gauge_invariance(seed),
    lambda seed: check_scale_covariance(seed),
    lambda seed: check_jacobian_consistency(seed),
    lambda seed: check_fault_injection(seed),
    lambda seed: check_tangent_blocks(seed),
    lambda seed: check_tangent_block_certificates(seed),
]

FULL_EXTRA = [
    lambda seed: check_pipeline_oracle_equivalence(seed, n_instances=100),
    lambda seed: check_defining_residuals(seed, n_instances=100),
    lambda seed: check_fcre_reduction(seed, n_instances=100),
    lambda seed: check_z_chart_invariance(seed, n_trials=100),
    lambda seed: check_monotonicity(seed, n_linearized=100),
    lambda seed: check_tucker_closed_form(seed, n_instances=50),
    lambda seed: check_finite_difference(seed),
    lambda seed: check_empirical_bounds(seed),
]

SUITES = {"quick": QUICK_CHECKS, "full": QUICK_CHECKS + FULL_EXTRA}


def run_suite(suite: str = "quick", seed: int = 0, out=print) -> list[CheckResult]:
    """Run a named suite, emit one line per check, return all results."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}'; choose from {sorted(SUITES)}")
    results = []
    for check in SUITES[suite]:
        result = check(seed)
        results.append(result)
        if out is not None:
            out(result.line())
    return results
