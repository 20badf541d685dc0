"""Tucker decomposition as a constant-rank elimination problem.

Finding an orthogonal Tucker decomposition ``X = (U_1, ..., U_D) . C`` of a
tensor of known multilinear rank fits the elimination framework: the input
is ``X`` (restricted to the fixed-multilinear-rank manifold), the output is
one chosen variable (a factor or the core) and the latent variable collects
the remaining ones.  The decomposition is unique only up to orthogonal
rotations of core and factors, which is exactly the kind of gauge freedom
the framework quotients out.

Closed forms exist for every variable: the condition number of factor
``U_d`` is zero when ``U_d`` is square and otherwise the reciprocal of the
smallest singular value of the mode-``d`` core flattening, and the
condition number of the core is exactly one.  :func:`cross_validate` checks
these against the general pipeline on any instance, taking every variable's
from one evaluation, certificate and factorization of the core problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crep import (
    CertificationError,
    CrepDims,
    CrepPoint,
    CrepProblem,
    RankHypothesisError,
    TangentChart,
    group_condition_numbers,
    make_crep_point,
)
from .linalg import _svd, complement_basis
from .tensor import (
    TuckerPoint,
    _factor_directions,
    _is_int,
    _kron_chain,
    _mlrank_basis,
    _mode_frame,
    _skew_generators,
    _stiefel_basis,
    flatten,
    hosvd,
    mlrank_tangent_dim,
    multilinear_multiply,
    stiefel_tangent_dim,
)

__all__ = [
    "CrossValidation",
    "TuckerCrepConfig",
    "VariableComparison",
    "build_tucker_crep",
    "closed_form_kappa_core",
    "closed_form_kappa_factor",
    "closed_form_kappas",
    "cross_validate",
    "expected_kappa_all",
    "random_orthogonal",
    "random_stiefel",
    "random_tucker_point",
    "regauge",
    "variable_label",
]


@dataclass(frozen=True)
class TuckerCrepConfig:
    """Choice of decomposition point and output variable.

    ``output_variable`` is either a 0-based mode index (solve for that
    factor) or the string ``"core"``.  ``rtol`` is the problem's rtol and
    the tolerance of its HOSVD and charts (per-matrix defaults when None).
    """

    point: TuckerPoint
    output_variable: int | str
    rtol: float | None = None

    def __post_init__(self):
        out = self.output_variable
        if out != "core" and not (_is_int(out) and 0 <= out < self.point.order):
            raise ValueError(f"output_variable must be 'core' or a mode in [0, {self.point.order}), got {out!r}")


def variable_label(var: int | str) -> str:
    """Human-readable variable name: ``core`` or ``U1`` .. ``UD`` (1-based)."""
    return "core" if var == "core" else f"U{int(var) + 1}"


def _polar_retract(m: np.ndarray) -> np.ndarray:
    f = _svd(m)
    return f.u @ f.vh


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def build_tucker_crep(config: TuckerCrepConfig) -> tuple[CrepProblem, CrepPoint]:
    """Assemble the decomposition problem for one output variable.

    The residual is ``x - (U_1, ..., U_D) . C`` over the ambient tensor
    space.  Charts: the input chart is the fixed-multilinear-rank tangent
    basis at the current decomposition; factor charts are full Stiefel
    tangent bases (the gauge rotations must remain available to the latent
    variable); the core chart is the full core space.  The input retraction
    re-truncates via the higher-order SVD at the same ranks; factor
    retractions are polar.
    """
    p = config.point
    rtol = config.rtol
    shape, ranks, order = p.shape, p.ranks, p.order
    n_res = p.product.size
    dim_x = mlrank_tangent_dim(shape, ranks)
    out = "core" if config.output_variable == "core" else int(config.output_variable)
    canonical: list[int | str] = ["core"] + list(range(order))
    comps = [out] + [c for c in canonical if c != out]  # packed in this order in (y, z)
    shape_of = {c: ranks if c == "core" else (shape[c], ranks[c]) for c in canonical}
    size = {c: int(np.prod(shape_of[c], dtype=int)) for c in canonical}

    def split(vec, cs):  # the variables cs, packed in this order in vec
        vec, ends = np.asarray(vec, dtype=float), np.cumsum([size[c] for c in cs]).tolist()
        return {c: vec[end - size[c] : end].reshape(shape_of[c]) for c, end in zip(cs, ends)}

    def unpack(y_vec, z_vec):
        vals = {**split(y_vec, comps[:1]), **split(z_vec, comps[1:])}
        return vals["core"], [vals[d] for d in range(order)]

    def residual(x, y_vec, z_vec):
        core, factors = unpack(y_vec, z_vec)
        return np.asarray(x, dtype=float) - multilinear_multiply(factors, core).ravel()

    def jacobian(x, y_vec, z_vec):  # dF/dx is the identity, given as None (see CrepProblem)
        core, factors = unpack(y_vec, z_vec)
        parts = {d: _factor_directions(factors, core, d, -np.eye(shape[d])) for d in range(order)}
        parts["core"] = -_kron_chain(factors)
        return None, parts[out], np.hstack([parts[c] for c in comps[1:]])

    def tangent_blocks(x, y_vec, z_vec, r):
        # Rows are coordinates in q, the x-chart basis at (core, factors) (mlrank_tangent_basis): row block 0
        # holds the core directions, block d + 1 perp_d (x) the rows of V_d.T, with C_(d) = W_d S_d V_d.T.  The
        # core variable maps to [-I; 0]; a skew column U_d Omega of factor d to -vec(C x_d Omega) in block 0;
        # its horizontal columns to -kron(I, (W_d S_d).T) in block d + 1, built block by block (np.kron's
        # 0 * (-s) = -0.0 can change the SVDs' rounding).  So j_x = q.T q = I, and q.T r takes one multilinear
        # multiply.  The y and z charts are the Stiefel charts from the same complement bases perp_d.
        core, factors = unpack(y_vec, z_vec)
        frames = [_mode_frame(factors, core, d, rtol, n_res) for d in range(order)]
        j_yz = np.zeros((dim_x, dims.dim_y + dims.dim_z))
        c = col_start["core"]
        j_yz[: core.size, c : c + core.size] = -np.eye(core.size)
        for d, (perp, f) in enumerate(frames):
            c, n_skew, h = col_start[d], skew[d].shape[0], perp.shape[1]
            rotated = np.tensordot(skew[d], np.moveaxis(core, d, 0), axes=(2, 0))  # Omega_p C_(d)
            j_yz[: core.size, c : c + n_skew] = -np.moveaxis(rotated, 1, d + 1).reshape(n_skew, core.size).T
            j_yz[row_start[d] : row_start[d + 1], c + n_skew : c + dim_of[d]] = _block_diag([-(f.u * f.s).T] * h)
        qr = None
        if r is not None:
            t = multilinear_multiply([np.hstack([u, perp]).T for u, (perp, _) in zip(factors, frames)],
                                     np.reshape(r, shape))
            qr = [t[tuple(slice(m) for m in ranks)].ravel()]
            for d, (perp, f) in enumerate(frames):
                cut = tuple(slice(m, None) if e == d else slice(m) for e, m in enumerate(ranks))
                qr.append((np.moveaxis(t[cut], d, 0).reshape(perp.shape[1], f.vh.shape[1]) @ f.vh.T).ravel())
            qr = np.concatenate(qr)
        perps = [perp for perp, _ in frames]
        return (np.eye(dim_x), j_yz[:, : dims.dim_y], j_yz[:, dims.dim_y :], qr,
                chart(comps[:1], factors, perps), chart(comps[1:], factors, perps))

    def chart(cs, factors, perps):  # the variables cs in their charts; perps[d] = complement_basis(factors[d])
        bases = [np.eye(size[c]) if c == "core" else _stiefel_basis(factors[c], perps[c], skew[c]) for c in cs]
        return TangentChart(sum(size[c] for c in cs), _block_diag(bases))

    def own_chart(cs):  # the chart of the variables cs, for the ambient path, which calls no hook
        def chart_at(x, y_vec, z_vec):
            _, factors = unpack(y_vec, z_vec)
            return chart(cs, factors, {c: complement_basis(factors[c]) for c in cs if c != "core"})
        return chart_at

    def x_chart(x, y_vec, z_vec):
        core, factors = unpack(y_vec, z_vec)
        return TangentChart(n_res, _mlrank_basis(core, factors, rtol, n_res))

    def x_retract(x, dx):
        return hosvd((np.asarray(x) + dx).reshape(shape), ranks, rtol).product.ravel()

    def retract(cs):  # the core moves flat, each factor by the polar retraction
        def moved(vec, delta):
            parts = split(np.asarray(vec, dtype=float) + delta, cs).items()
            return np.concatenate([(v if c == "core" else _polar_retract(v)).ravel() for c, v in parts])
        return moved

    dim_of = {c: (int(np.prod(ranks, dtype=int)) if c == "core" else stiefel_tangent_dim(shape[c], ranks[c])) for c in canonical}
    dims = CrepDims(dim_x, dim_of[out], sum(dim_of[c] for c in comps[1:]), n_res)
    # Layout of tangent_blocks: columns of [j_y j_z] per variable, rows of q per block.
    col_start = dict(zip(comps, np.cumsum([0] + [dim_of[c] for c in comps]).tolist()))
    row_start = np.cumsum([dim_of["core"]] + [(n - m) * m for n, m in zip(shape, ranks)]).tolist()
    skew = [_skew_generators(m) for m in ranks]

    x0 = p.product.ravel()
    pack = {c: (p.core if c == "core" else p.factors[c]).ravel() for c in canonical}
    scale = max(1.0, float(np.linalg.norm(x0)))
    problem = CrepProblem(
        name=f"tucker-{'x'.join(map(str, shape))}-rank-{'x'.join(map(str, ranks))}-{variable_label(out)}",
        dims=dims,
        residual=residual,
        jacobian=jacobian,
        x_chart=x_chart,
        y_chart=own_chart(comps[:1]),
        z_chart=own_chart(comps[1:]),
        x_retract=x_retract,
        y_retract=retract(comps[:1]),
        z_retract=retract(comps[1:]),
        scale=scale,
        tangent_blocks=tangent_blocks,
        rtol=rtol,
    )
    point = make_crep_point(problem, x0, pack[out], np.concatenate([pack[c] for c in comps[1:]]))
    return problem, point


def closed_form_kappa_factor(core, mode: int, n_rows: int, rtol: float | None = None) -> float:
    """Condition number of factor ``mode``: 0 if square, else ``1 / sigma_min``
    of the mode flattening of the core."""
    core = np.asarray(core, dtype=float)
    m_d = core.shape[mode]
    if n_rows < m_d:
        raise ValueError(f"factor must have at least {m_d} rows, got {n_rows}")
    if n_rows == m_d:
        return 0.0
    f = _svd(flatten(core, mode), rtol, uv=False)
    if f.rank < m_d:
        raise RankHypothesisError(
            f"mode-{mode} core flattening has numerical rank {f.rank} < {m_d} at tolerance {f.tol:.3e}; "
            "the core is not of full multilinear rank"
        )
    return 1.0 / float(f.s[m_d - 1])


def closed_form_kappa_core() -> float:
    """Condition number of the core; exactly one for every instance."""
    return 1.0


def closed_form_kappas(point: TuckerPoint, rtol: float | None = None) -> dict[str, float]:
    """Closed-form condition number of every variable by label (``core``,
    ``U1`` .. ``UD``), and under ``all`` that of solving for all variables
    combined: the maximum of the individual ones."""
    kappas = {"core": closed_form_kappa_core()}
    for d in range(point.order):
        kappas[variable_label(d)] = closed_form_kappa_factor(point.core, d, point.shape[d], rtol)
    kappas["all"] = max(kappas.values())
    return kappas


def expected_kappa_all(point: TuckerPoint) -> float:
    """Condition number of solving for all variables combined (see :func:`closed_form_kappas`),
    with each rank cut at the default for its matrix's shape."""
    return closed_form_kappas(point)["all"]


@dataclass(frozen=True)
class VariableComparison:
    variable: str
    kappa_closed: float
    kappa_general: float
    rel_diff: float


@dataclass(frozen=True)
class CrossValidation:
    """Closed-form versus general-pipeline condition numbers of one instance."""

    entries: tuple[VariableComparison, ...]
    kappa_all_general: float
    kappa_all_expected: float
    rel_diff_all: float
    max_rel_diff: float


def cross_validate(
    point: TuckerPoint,
    rtol: float | None = None,
    *,
    n_cert_samples: int = 2,
    seed: int = 0,
) -> CrossValidation:
    """Compare closed-form and general-pipeline condition numbers.

    The instance is assembled once, as the problem for the core with the
    factors latent.  Solving for any other variable only permutes the
    columns of its ``[j_y j_z]``, so one certificate of every variable's
    ranks (:func:`group_condition_numbers`) and one solve give each
    variable's condition number, compared against its closed form.  The
    combined one (all variables as output) is also checked against the
    maximum of the individual ones.  Raises :class:`CertificationError` if
    the rank certificate fails.
    """
    closed = closed_form_kappas(point, rtol)
    problem, pt = build_tucker_crep(TuckerCrepConfig(point, "core", rtol))
    # The columns of the core problem's [j_y j_z]: the core, then U1 .. UD in their full Stiefel charts.
    sizes = [problem.dims.dim_y] + [stiefel_tangent_dim(n, m) for n, m in zip(point.shape, point.ranks)]
    ends = np.cumsum(sizes).tolist()
    groups = {variable_label(var): slice(end - size, end) for var, size, end in zip(["core", *range(point.order)], sizes, ends)}
    report = group_condition_numbers(problem, pt, groups, n_samples=n_cert_samples, seed=seed)
    if not report.certificate.passed:
        raise CertificationError(f"rank certificate failed for {problem.name}: {'; '.join(report.certificate.messages)}")
    entries = tuple(
        VariableComparison(label, closed[label], kappa, abs(kappa - closed[label]) / (1.0 + closed[label]))
        for label, kappa in report.kappas.items()
    )
    rel_all = abs(report.kappa_all - closed["all"]) / (1.0 + closed["all"])
    return CrossValidation(
        entries=entries,
        kappa_all_general=report.kappa_all,
        kappa_all_expected=closed["all"],
        rel_diff_all=rel_all,
        max_rel_diff=max([e.rel_diff for e in entries] + [rel_all]),
    )


# ---------------------------------------------------------------------------
# Seeded instance generation.


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_stiefel(seed, n: int, m: int) -> np.ndarray:
    """Seeded random ``n x m`` matrix with orthonormal columns."""
    rng = _as_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, m)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_orthogonal(seed, n: int) -> np.ndarray:
    return random_stiefel(seed, n, n)


def random_tucker_point(shape, ranks, seed) -> TuckerPoint:
    """Seeded random decomposition point with a well-conditioned core.

    The core is resampled, at most 500 times, until the smallest singular
    value of every mode flattening is at least 0.1, so closed-form condition
    numbers stay bounded and rank decisions are unambiguous.
    """
    shape = tuple(int(n) for n in shape)
    ranks = tuple(int(m) for m in ranks)
    if len(shape) != len(ranks):
        raise ValueError("shape and ranks must have the same length")
    for n, m in zip(shape, ranks):
        if not 1 <= m <= n:
            raise ValueError(f"ranks must satisfy 1 <= m <= n, got m={m}, n={n}")
    total = int(np.prod(ranks, dtype=int))
    for d, m in enumerate(ranks):
        if m > total // m:
            raise ValueError(
                f"ranks {ranks} are not an achievable multilinear rank: mode {d} exceeds the product of the others"
            )
    rng = _as_rng(seed)
    factors = tuple(random_stiefel(rng, n, m) for n, m in zip(shape, ranks))
    for _ in range(500):
        core = rng.standard_normal(ranks)
        smallest = min(
            float(_svd(flatten(core, d), uv=False).s[ranks[d] - 1])
            for d in range(len(ranks))
        )
        if smallest >= 0.1:
            return TuckerPoint(core=core, factors=factors)
    raise RuntimeError("could not sample a core with sigma_min >= 0.1 in 500 tries")


def regauge(point: TuckerPoint, seed) -> TuckerPoint:
    """Equivalent decomposition of the same tensor under a random orthogonal gauge."""
    rng = _as_rng(seed)
    qs = [random_orthogonal(rng, m) for m in point.ranks]
    factors = tuple(u @ q for u, q in zip(point.factors, qs))
    core = multilinear_multiply([q.T for q in qs], point.core)
    return TuckerPoint(core=core, factors=factors, product=point.product)
