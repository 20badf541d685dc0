import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crepcond
from crepcond import linalg
from crepcond.crep import TangentChart
from crepcond.linalg import (
    InconsistentSystemError,
    _is_orthonormal,
    as_matrix,
    complement_basis,
    default_rtol,
    kernel_basis,
    min_norm_solve,
    numerical_rank,
    orthonormalize,
    spectral_norm,
    subspace_distance,
)
from crepcond.tensor import hosvd
from crepcond.tucker import closed_form_kappa_factor

SQRT2 = np.sqrt(2.0)


def gram_rank(m, tol=1e-8):
    """Independent rank oracle: largest r with a column subset whose Gram
    determinant is significantly nonzero."""
    m = np.asarray(m, dtype=float)
    rank = 0
    for r in range(1, min(m.shape) + 1):
        found = False
        for cols in itertools.combinations(range(m.shape[1]), r):
            sub = m[:, cols]
            if np.linalg.det(sub.T @ sub) > tol:
                found = True
                break
        if found:
            rank = r
        else:
            break
    return rank


def span_of(*columns):
    q, _ = np.linalg.qr(np.column_stack(columns))
    return q


# ---------------------------------------------------------------------------
# numerical_rank


def test_rank_identity():
    d = numerical_rank(np.eye(3), 1e-12)
    assert d.rank == 3
    assert d.tolerance_used == pytest.approx(1e-12)


def test_rank_outer_product():
    assert numerical_rank([[1.0, 1.0], [1.0, 1.0]], 1e-12).rank == 1


def test_rank_known_product_matches_gram_oracle():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    d = numerical_rank(m, 1e-10)
    assert d.rank == 2
    assert gram_rank(m) == 2


def test_rank_decision_invariant():
    rng = np.random.default_rng(0)
    for i in range(30):
        m = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7)))
        d = numerical_rank(m)
        s = d.singular_values
        assert np.all(np.diff(s) <= 0)
        if d.rank >= 1:
            assert s[d.rank - 1] > d.tolerance_used
        below = s[d.rank] if d.rank < s.size else 0.0
        assert d.tolerance_used >= below


def test_rank_empty_and_zero():
    assert numerical_rank(np.zeros((0, 4))).rank == 0
    assert numerical_rank(np.zeros((4, 0))).rank == 0
    d = numerical_rank(np.zeros((3, 3)))
    assert d.rank == 0 and d.tolerance_used == 0.0


def test_rank_rejects_bad_rtol_and_nonfinite():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), rtol=-1.0)
    with pytest.raises(ValueError):
        numerical_rank([[np.nan, 0.0]])


# ---------------------------------------------------------------------------
# kernel_basis / complement_basis


def test_kernel_one_equation():
    k = kernel_basis(np.array([[1.0, 1.0]]), 1e-12)
    assert k.shape == (2, 1)
    assert subspace_distance(k, span_of([1.0, -1.0])) < 1e-12


def test_kernel_trivial():
    assert kernel_basis(np.eye(2), 1e-12).shape == (2, 0)


def test_kernel_hand_case():
    m = np.array([[2.0, 0.0, 0.0], [0.0, -SQRT2, 0.0]])
    k = kernel_basis(m, 1e-12)
    assert k.shape == (3, 1)
    assert subspace_distance(k, span_of([0.0, 0.0, 1.0])) < 1e-12


def test_complement_hand_case():
    q = complement_basis(np.array([[0.0], [-SQRT2]]), 1e-12)
    assert q.shape == (2, 1)
    assert subspace_distance(q, span_of([1.0, 0.0])) < 1e-12


def test_complement_full_span_and_zero_map():
    assert complement_basis(np.eye(3), 1e-12).shape == (3, 0)
    q = complement_basis(np.zeros((3, 1)), 1e-12)
    assert q.shape == (3, 3)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-14)


def test_kernel_complement_invariants_random():
    rng = np.random.default_rng(7)
    rtol = 1e-12
    for _ in range(40):
        rows, cols = rng.integers(1, 8, size=2)
        rank = rng.integers(0, min(rows, cols) + 1)
        m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        k = kernel_basis(m, rtol)
        q = complement_basis(m, rtol)
        norm_m = spectral_norm(m)
        assert spectral_norm(m @ k) <= 10 * rtol * norm_m + 1e-300
        assert spectral_norm(q.T @ m) <= 10 * rtol * norm_m + 1e-300
        if k.size:
            assert np.linalg.norm(k.T @ k - np.eye(k.shape[1]), 2) <= 1e-12
        if q.size:
            assert np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2) <= 1e-12
        # rank-nullity
        assert numerical_rank(m, rtol).rank + k.shape[1] == cols


# ---------------------------------------------------------------------------
# min_norm_solve


def test_min_norm_identity():
    x = min_norm_solve(np.eye(2), np.array([[3.0], [4.0]]), 1e-12)
    np.testing.assert_allclose(x, [[3.0], [4.0]])


def test_min_norm_scalar_division():
    x = min_norm_solve(np.array([[-1.0 / SQRT2]]), np.array([[-1.0 / SQRT2]]), 1e-12)
    np.testing.assert_allclose(x, [[1.0]], atol=1e-14)


def test_min_norm_consistent_overdetermined():
    x = min_norm_solve(np.array([[1.0], [1.0]]), np.array([[2.0], [2.0]]), 1e-12)
    np.testing.assert_allclose(x, [[2.0]], atol=1e-14)


def test_min_norm_rank_deficient_returns_pseudoinverse_solution():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([[2.0], [2.0]])
    x = min_norm_solve(a, b, 1e-10)
    np.testing.assert_allclose(x, [[1.0], [1.0]], atol=1e-12)  # min-norm among solutions


def test_min_norm_vector_rhs():
    x = min_norm_solve(np.eye(2), np.array([1.0, 2.0]))
    assert x.shape == (2,)
    np.testing.assert_allclose(x, [1.0, 2.0])


def test_min_norm_reports_inconsistency():
    a = np.array([[1.0], [1.0]])
    b = np.array([[1.0], [2.0]])
    with pytest.raises(InconsistentSystemError):
        min_norm_solve(a, b, 1e-10)


@pytest.mark.parametrize("shape", [(9, 5), (5, 9)])
def test_lstsq_is_the_min_norm_least_squares_solution(shape):
    """``_lstsq``, the pseudoinverse apply behind ``_solve`` and the resolver's
    step, on rank-deficient inconsistent systems; numpy's lstsq is the oracle."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
    b = rng.standard_normal((shape[0], 2))
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.linalg.norm(a @ expected - b) > 0.1 * np.linalg.norm(b)  # inconsistent
    f = linalg._svd(a, full=shape[0] < shape[1])
    assert f.rank == 3
    for rhs, want in ((b, expected), (b[:, 0], expected[:, 0])):
        got = linalg._lstsq(f, rhs)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_min_norm_scale_floor_tolerates_cancelled_rhs():
    a = np.array([[1.0], [1.0]])
    noise = np.array([[1e-16], [-1e-16]])
    with pytest.raises(InconsistentSystemError):
        min_norm_solve(a, noise, 1e-10)
    x = min_norm_solve(a, noise, 1e-10, scale=1.0)
    assert np.linalg.norm(x) < 1e-15


def test_left_inverse_independence():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 10))
        a = rng.standard_normal((m, n))
        b = a @ rng.standard_normal((n, 2))
        x_mn = min_norm_solve(a, b, 1e-10, scale=spectral_norm(a) + spectral_norm(b))
        x_ne = np.linalg.solve(a.T @ a, a.T @ b)
        # row-selection left inverse from a greedily chosen invertible row subset
        rows = []
        for i in range(m):
            cand = rows + [i]
            if numerical_rank(a[cand]).rank == len(cand):
                rows = cand
            if len(rows) == n:
                break
        x_rs = np.linalg.solve(a[rows], b[rows])
        scale = max(np.linalg.norm(x_mn), 1e-300)
        assert np.linalg.norm(x_mn - x_ne) / scale <= 1e-10
        assert np.linalg.norm(x_mn - x_rs) / scale <= 1e-10


# ---------------------------------------------------------------------------
# spectral_norm / orthonormalize


def test_spectral_norm_cases():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_spectral_norm_monte_carlo_oracle():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 3))
    best = 0.0
    for _ in range(10_000):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        best = max(best, float(np.linalg.norm(m @ v)))
    sigma = spectral_norm(m)
    assert best <= sigma + 1e-12
    assert sigma - best <= 1e-3 * sigma


def test_orthonormalize_cases():
    b = orthonormalize(np.array([[2.0, 0.0], [0.0, 0.0]]), 1e-12)
    assert b.shape == (2, 1)
    assert subspace_distance(b, span_of([1.0, 0.0])) < 1e-12

    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    b = orthonormalize(q, 1e-12)
    assert subspace_distance(b, q) < 1e-12

    b = orthonormalize(np.ones((2, 2)), 1e-12)
    assert b.shape == (2, 1)
    assert subspace_distance(b, span_of([1.0, 1.0])) < 1e-12


def test_subspace_distance_is_the_projector_distance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        b1 = np.linalg.qr(rng.standard_normal((n, int(rng.integers(0, n + 1)))))[0]
        near = np.linalg.qr(b1 + 1e-9 * rng.standard_normal(b1.shape))[0]
        for b2 in (near, np.linalg.qr(rng.standard_normal((n, int(rng.integers(0, n + 1)))))[0]):
            expected = spectral_norm(b1 @ b1.T - b2 @ b2.T)
            assert subspace_distance(b1, b2) == pytest.approx(expected, abs=1e-14)


def test_shape_checks_raise():
    with pytest.raises(ValueError, match=r"a is \(3, 2\), b is \(2, 1\)"):
        min_norm_solve(np.ones((3, 2)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="bases live in different ambient dimensions"):
        subspace_distance(np.eye(3)[:, :1], np.eye(2)[:, :1])
    with pytest.raises(ValueError, match=r"basis must be 2-D, got shape \(3,\)"):
        as_matrix(np.ones(3), "basis")


def test_subspace_distance_forms_no_n_by_n_matrix():
    n = 2000
    rng = np.random.default_rng(12)
    b1, b2 = (np.linalg.qr(rng.standard_normal((n, 3)))[0] for _ in range(2))
    tracemalloc.start()
    try:
        subspace_distance(b1, b2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_empty_matrices_flow_through():
    for shape in ((0, 3), (3, 0), (0, 0)):
        m = np.zeros(shape)
        assert kernel_basis(m).shape == (shape[1], shape[1])
        assert complement_basis(m).shape == (shape[0], shape[0])
        assert orthonormalize(m).shape == (shape[0], 0)
        x = min_norm_solve(m, np.zeros((shape[0], 2)))
        assert x.shape == (shape[1], 2)
        assert spectral_norm(m) == 0
        assert numerical_rank(m).tolerance_used == 0
        assert np.array_equal(kernel_basis(m), np.eye(shape[1]))
        assert np.array_equal(complement_basis(m), np.eye(shape[0]))


def test_default_rtol_scales_with_shape():
    assert default_rtol((100, 3)) > default_rtol((5, 3))
    assert default_rtol((0, 0)) > 0


@pytest.mark.parametrize("rtol", [np.nan, np.inf, 0.0, -1.0])
def test_rank_cuts_reject_non_finite_or_non_positive_rtol(rtol):
    # A NaN cut (sigma > NaN is never true) would give rank 0 silently.
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="rtol"):
        numerical_rank(np.eye(2), rtol)
    with pytest.raises(ValueError, match="rtol"):
        min_norm_solve(np.eye(2), np.ones(2), rtol)
    with pytest.raises(ValueError, match="rtol"):
        hosvd(rng.standard_normal((3, 4, 2)), (2, 2, 2), rtol)
    with pytest.raises(ValueError, match="rtol"):
        closed_form_kappa_factor(np.diag([1.0, 1e-20]), 0, 3, rtol)


def _calls(tree, attr):
    """Calls of ``np.linalg.<attr>`` (or ``numpy.linalg.<attr>``) in ``tree``."""
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr == attr
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "linalg"
        ):
            yield node


def test_svd_has_one_entry_point():
    """Every SVD in the package goes through ``linalg._svd`` (spectral norms
    through ``spectral_norm``), so rank cuts and SVD counts live in one place;
    least-squares solves apply that SVD through ``linalg._lstsq``."""
    offenders = []
    for path in sorted(Path(crepcond.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "linalg.py":
            helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_svd")
            allowed = {id(n) for n in _calls(helper, "svd")}
        offenders += [f"{path.name}:{n.lineno} svd" for n in _calls(tree, "svd") if id(n) not in allowed]
        offenders += [f"{path.name}:{n.lineno} lstsq" for n in _calls(tree, "lstsq")]
        for n in _calls(tree, "norm"):
            order = n.args[1] if len(n.args) > 1 else next((k.value for k in n.keywords if k.arg == "ord"), None)
            if isinstance(order, ast.Constant) and order.value == 2:
                offenders.append(f"{path.name}:{n.lineno} norm(., 2)")
        # Orthonormality checks go through linalg._is_orthonormal; the values
        # that verify.py measures and reports are not checks.
        if path.name != "verify.py":
            offenders += [f"{path.name}:{n.lineno} spectral_norm(. - eye)" for n in _gram_error_norms(tree)]
    assert not offenders


def test_kernel_row_cut_has_one_entry_point():
    """``_svd(..., scale=...)`` cuts rows of an orthonormal kernel basis; the kappa stage, the
    resolver and the certificate's group ranks take that cut from one function."""
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_svd":
            if any(k.arg == "scale" for k in node.keywords):
                callers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(crepcond.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert callers == {"crep._kernel_rows"}


def _gram_error_norms(tree):
    """Calls ``spectral_norm(<expr> - <module>.eye(...))`` in ``tree``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.BinOp)):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        arg = node.args[0]
        if (
            name == "spectral_norm"
            and isinstance(arg.op, ast.Sub)
            and isinstance(arg.right, ast.Call)
            and getattr(arg.right.func, "attr", None) == "eye"
        ):
            yield node


def test_orthonormality_check_takes_the_svd_only_when_frobenius_cannot_decide(monkeypatch):
    calls = []
    spectral = linalg.spectral_norm
    monkeypatch.setattr(linalg, "spectral_norm", lambda m: calls.append(m.shape) or spectral(m))
    tol = 1e-10
    assert _is_orthonormal(np.eye(6)[:, :4], tol)
    assert calls == []
    # Gram error 0.8 tol * I_4: Frobenius norm 1.6 tol, spectral norm 0.8 tol.
    near = np.eye(6)[:, :4] * np.sqrt(1.0 + 0.8 * tol)
    err = near.T @ near - np.eye(4)
    assert np.linalg.norm(err) > tol >= np.linalg.norm(err, 2)
    assert _is_orthonormal(near, tol)
    TangentChart(6, near)
    assert calls == [(4, 4), (4, 4)]
    # Gram error 1.2 tol * I_4: the spectral norm is above tol too.
    far = np.eye(6)[:, :4] * np.sqrt(1.0 + 1.2 * tol)
    assert not _is_orthonormal(far, tol)
    with pytest.raises(ValueError, match="orthonormal"):
        TangentChart(6, far)
