#!/usr/bin/env python3
# Working directly with the linearization of an elimination problem.
#
# Given the chart-coordinate Jacobian blocks J_x, J_y, J_z of a system
# F(x, y, z) = c at a solution, the derivative of the canonical solution
# map is computed two independent ways:
#   * an orthogonal elimination pipeline (complement of span J_z, kernel
#     of [J_y J_z], one consistent least-squares solve), and
#   * the minimum-norm characterisation (parameterize all solutions of the
#     linearized system, project out the removable output component).
# The min-norm route is the one condition numbers come from; the pipeline
# is the reference it is checked against.  Both agree to working precision,
# and the answer does not depend on how the latent space is parameterized.

import numpy as np

from crepcond import (
    JacobianBlocks,
    condition_numbers_from_blocks,
    random_linearized_blocks,
    solution_map_derivative,
    solution_map_derivative_minnorm,
)

rng = np.random.default_rng(0)

blocks = random_linearized_blocks(seed=7)
print("random consistent instance:")
print(f"  residual dim {blocks.j_x.shape[0]}, dim_x={blocks.j_x.shape[1]}, "
      f"dim_y={blocks.j_y.shape[1]}, dim_z={blocks.j_z.shape[1]}")

dh_pipeline = solution_map_derivative(blocks)
dh_minnorm = solution_map_derivative_minnorm(blocks)
gap = np.linalg.norm(dh_pipeline - dh_minnorm) / (1 + np.linalg.norm(dh_pipeline))
print(f"  pipeline vs min-norm route: relative difference {gap:.2e}")

kappa_y, kappa_z, kappa_yz, _ = condition_numbers_from_blocks(blocks)
print(f"  kappa_y = {kappa_y:.6f}, kappa_z = {kappa_z:.6f}, kappa_yz = {kappa_yz:.6f}")
print(f"  monotonicity: max(kappa_y, kappa_z) <= kappa_yz is "
      f"{max(kappa_y, kappa_z) <= kappa_yz * (1 + 1e-12)}")

# The latent variable carries no metric: rescaling or shearing its
# coordinates (J_z -> J_z S) leaves DH untouched.
if blocks.j_z.shape[1]:
    s = rng.standard_normal((blocks.j_z.shape[1],) * 2) + 2 * np.eye(blocks.j_z.shape[1])
    recoord = JacobianBlocks(j_x=blocks.j_x, j_y=blocks.j_y, j_z=blocks.j_z @ s)
    drift = np.linalg.norm(solution_map_derivative(recoord) - dh_pipeline)
    print(f"  latent recoordinatization moves DH by {drift:.2e}")

# Rotating the input/output charts transforms DH equivariantly and leaves
# every condition number unchanged.
r_x, _ = np.linalg.qr(rng.standard_normal((blocks.j_x.shape[1],) * 2))
r_y, _ = np.linalg.qr(rng.standard_normal((blocks.j_y.shape[1],) * 2))
rotated = JacobianBlocks(j_x=blocks.j_x @ r_x, j_y=blocks.j_y @ r_y, j_z=blocks.j_z)
kappa_y2, _, _, dh2 = condition_numbers_from_blocks(rotated)
print(f"  chart rotation: |DH' - R_y^T DH R_x| = {np.linalg.norm(dh2 - r_y.T @ dh_pipeline @ r_x):.2e}, "
      f"|kappa_y' - kappa_y| = {abs(kappa_y2 - kappa_y):.2e}")
