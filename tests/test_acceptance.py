"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints the measured value alongside the threshold so a full run
doubles as a quantitative report.  The checks live in ``crepcond.verify``,
which states each threshold once, so the installed package can re-run them
via ``crepcond verify --suite full``; the tests pin every threshold and
fixed input by asserting what the result reports, and pass the instance
budgets.
"""

import time

import numpy as np

from crepcond import verify
from crepcond.crep import condition_numbers, evaluate_blocks
from crepcond.problems import polar_problem
from crepcond.tucker import TuckerCrepConfig, build_tucker_crep, cross_validate

SEED = 2024


def report(result, threshold):
    print(result.line())
    assert result.threshold == threshold, result.line()
    assert result.passed, result.line()


def test_criterion_1_tucker_closed_form_reproduction():
    # 50 seeded instances, D in {2, 3}, n_d <= 6, m_d <= 3, sigma_min >= 0.1;
    # pipeline kappa matches 1/sigma_min per factor and 1 for the core to 1e-6.
    start = time.monotonic()
    report(verify.check_tucker_closed_form(seed=SEED, n_instances=50), 1e-6)
    # square-factor instances must come out at zero, well below 1e-8
    report(verify.check_square_branch(seed=SEED), 1e-8)
    assert time.monotonic() - start <= 60.0


def test_criterion_2_square_branch_exactness():
    report(verify.check_square_branch(seed=SEED), 1e-8)


def test_criterion_3_gap_independence():
    result = verify.check_gap_independence(seed=SEED)
    report(result, 1e-6)
    assert result.detail == "gaps (0.1, 0.001, 1e-06)"
    # kappa values stay near 1/sigma_min ~ 1, far from blowing up as the gap closes
    for gap in (1e-1, 1e-3, 1e-6):
        from crepcond.tensor import TuckerPoint
        from crepcond.tucker import random_orthogonal, random_stiefel

        rng = np.random.default_rng(SEED)
        factors = (random_stiefel(rng, 4, 2), random_stiefel(rng, 3, 2))
        core = (random_orthogonal(rng, 2) * np.array([1.0, 1.0 - gap])) @ random_orthogonal(rng, 2).T
        point = TuckerPoint(core=core, factors=factors)
        problem, pt = build_tucker_crep(TuckerCrepConfig(point, 0))
        kappa = condition_numbers(problem, pt, n_samples=0).kappa_y
        assert kappa < 1.01 / (1.0 - 1e-1)


def test_criterion_4_pipeline_oracle_equivalence():
    # all builtin problems plus 100 random consistent linearized instances
    report(verify.check_pipeline_oracle_equivalence(seed=SEED, n_instances=100), 1e-10)


def test_criterion_5_monotonicity():
    # the same instance streams as criteria 1 and 4, plus the builtins
    report(verify.check_monotonicity(seed=SEED, n_linearized=100, n_tucker=50), 1e-8)


def test_criterion_6_polar_exact_values():
    problem, point = polar_problem(0.0)
    rep = condition_numbers(problem, point, n_samples=3, seed=SEED)
    assert rep.certificate.passed
    worst = max(abs(rep.kappa_y - 1.0), abs(rep.kappa_z), abs(rep.kappa_yz - 1.0))
    line = f"[{'PASS' if worst <= 1e-10 else 'FAIL'}] polar exact values: measured={worst:.3e} threshold=1.000e-10"
    print(line)
    assert worst <= 1e-10


def test_criterion_7_finite_difference_validation():
    # central differences at step 1e-4 on polar, matrix factorization, Tucker
    result = verify.check_finite_difference(seed=SEED)
    report(result, 1e-4)
    assert result.detail == "step 0.0001, 3 problem families"


def test_criterion_8_first_order_bound():
    # radius 1e-4 * scale, 64 random samples plus the deterministic
    # top-singular-direction sample: within [0.95, 1.05] * kappa
    result = verify.check_empirical_bounds(seed=SEED)
    report(result, 0.05)
    assert result.detail == "radius 1e-4*scale, 64+1 samples"


def test_criterion_9_latent_chart_invariance():
    report(verify.check_z_chart_invariance(seed=SEED, n_trials=100), 1e-9)


def test_criterion_10_fcre_reduction():
    report(verify.check_fcre_reduction(seed=SEED, n_instances=100), 1e-12)
