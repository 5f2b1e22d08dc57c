"""From the 2p-particle ring to the quasi-harmonic normal-mode system.

For odd p, freezing particles p and 2p and mirroring the rest reduces
the ring to a fixed-end chain with p-1 particles.  Diagonalising its
linear part (mass-weighted, so the small-a conditioning is harmless)
gives the quasi-harmonic form

    xdd_i + lambda_i x_i = alpha * sum_{j<=k} c_{i,jk} x_j x_k .
"""

import numpy as np

from fpualt import (ReducedState, build_chain, build_reduced, ChainParams,
                    eigendecompose, eval_accel_full, lift_symmetric,
                    load_reference, scaling_equivalence, symmetry_residual,
                    to_quasi_harmonic)

p, a = 3, 0.01
red = build_reduced(p, a, alpha=1.0)
stiffness = red.bonds.T @ red.bonds     # K = D^T D, 2 on the diagonal, -1 off it
print(f"reduced system for p={p}: masses {red.masses}, stiffness diag "
      f"{np.diag(stiffness)}")

# the lifted state solves the full ring exactly
chain = build_chain(ChainParams(p, a, 1.0))
state = ReducedState([0.3, -0.1], [0.05, 0.02])
print("lifted state:", lift_symmetric(state).q)
print("symmetry residual of the lifted acceleration:",
      symmetry_residual(chain, state))

basis = eigendecompose(red)
print("\nmodal eigenvalues (pair order):")
for lam, lab in zip(basis.lambdas, basis.labels):
    print(f"  {lam:.10f}  {lab}")
print("pair sum (always 2 + 2a):", basis.lambdas.sum())

qh = to_quasi_harmonic(red, basis)
print("\nquasi-harmonic coupling coefficients (this package's scaling):")
for i, j, k, c in zip(*qh.monomials):       # 0-based indices
    print(f"  equation {i + 1}:  x{j + 1} x{k + 1}  {c:+.10f}")

# the published table uses a different per-mode scaling; the fit recovers it
fit = scaling_equivalence(qh, load_reference("p3_full"))
print(f"\nscaling fit vs published table: residual {fit.residual:.2e}, "
      f"scales {np.round(fit.scales, 6)}, sign flips {fit.sign_flips}")
