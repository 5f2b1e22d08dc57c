"""Symmetry reduction of the 2p-particle chain to p-1 degrees of freedom.

For odd p the periodic chain has invariant manifolds on which

    q_p = q_{2p} = 0,   q_{2p-i} = -q_i   (1 <= i <= p-1),

and the same relations for velocities.  On such a manifold the dynamics
is that of a fixed-end FPU chain with p-1 particles and p bonds: masses
alternate 1, 1/a, and with the virtual boundary values q_0 = q_p = 0 the
bond extensions are e = D q, (D q)_b = q_{b+1} - q_b for b = 0 .. p-1,
where D is the p x (p-1) bond-difference operator.  The reduced system
is therefore a bond-space system (:class:`fpualt.chain.BondSystem`), the
same as the chain but for D, and takes its force and energy from there.
The linear part is K = D^T D, the standard tridiagonal stiffness, which
the system reads from D as every bond-space system does, and the cubic
spring terms contribute the quadratic vector

    N(q) = -D^T (D q)^2,   i.e.  N_i = e_i^2 - e_{i-1}^2
         = q_{i+1}^2 - 2 q_i q_{i+1} + 2 q_{i-1} q_i - q_{i-1}^2.

The equations of motion are M qdd + K q = alpha N(q), which is exactly
minus the gradient of the fixed-end potential sum_b V(e_b); that
potential provides an exact conserved energy for the reduced flow.
"""

from dataclasses import dataclass

import numpy as np

from .chain import (SIZE_LIMIT, BondSystem, FullChainSystem, State,
                    eval_accel_full, hamiltonian, require_finite,
                    require_mass_parameter)


@dataclass(frozen=True, kw_only=True)
class ReducedSystem(BondSystem):
    """Fixed-end reduced system with p-1 particles.

    ``bonds`` is the bond-difference operator D, (p, p-1), and the
    inherited ``stiffness`` K = D^T D is 2 on the diagonal, -1 off it.
    Its static field, like its acceleration and energy, reads the
    system's ``alpha``; another alpha is another system.
    """

    p: int
    a: float

    def static_field(self):
        """Return (force, jac): q -> -K q + alpha N(q) and its Jacobian.

        The force is the shared bond-space force -D^T (e + alpha e^2),
        e = D q; force(q) = 0 are the static equations and the
        acceleration is force(q) / masses.  Both maps take one state
        (d,) or rows (n, d).
        """
        bonds, alpha = self.bonds, self.alpha
        bonds_t = bonds.T

        def jac(q):
            e = (bonds @ q.T).T
            # 2 before alpha: 2 alpha overflows for alpha >= 2^1023
            return -(bonds_t * (1.0 + alpha * (2.0 * e[..., None, :]))) @ bonds

        return self._bond_map(-1.0), jac


ReducedState = State


def build_reduced(p: int, a: float, alpha: float = 1.0) -> ReducedSystem:
    """Build the reduced (p-1)-dof system for odd p in 3..SIZE_LIMIT,
    finite a > 0 with a finite 1/a, and finite alpha."""
    if not 3 <= p <= SIZE_LIMIT or p % 2 == 0:
        raise ValueError(f"p must be an odd integer in 3..{SIZE_LIMIT}, got {p}")
    require_finite(a=a, alpha=alpha)
    require_mass_parameter(a)
    d = p - 1
    masses = np.empty(d)
    masses[0::2] = 1.0
    masses[1::2] = 1.0 / a
    bonds = np.eye(p, d) - np.eye(p, d, k=-1)
    return ReducedSystem(p=p, a=a, alpha=alpha, masses=masses, bonds=bonds)


def quadratic_vector(sys: ReducedSystem, q):
    """N(q) = -D^T (D q)^2, the alpha-free quadratic part of the force."""
    q = np.asarray(q, dtype=float)
    return -(sys.bonds.T @ (sys.bonds @ q) ** 2)


# A reduced system is a bond-space system, so the chain's state entry
# points serve it: qdd = M^{-1} (-K q + alpha N(q)) and the conserved
# energy sum M_i v_i^2 / 2 + U(q).  perfbench/ imports these names.
eval_accel_reduced = eval_accel_full
reduced_energy = hamiltonian


def lift_symmetric(state: ReducedState) -> State:
    """Lift a reduced state to the symmetric 2p-particle state.

    Positions p and 2p are zero and the second half mirrors the first
    with a sign flip; the same pattern applies to velocities.
    """

    def lift(x):
        return np.concatenate([x, [0.0], -x[::-1], [0.0]])

    return State(q=lift(state.q), v=lift(state.v))


def symmetry_residual(sys: FullChainSystem, state: ReducedState) -> float:
    """Largest violation of the symmetry relations by the lifted acceleration.

    The symmetric subspace is exactly invariant, so for every reduced
    state the full-chain acceleration of the lifted state must itself
    satisfy acc_p = acc_{2p} = 0 and acc_{2p-i} = -acc_i.
    """
    p = state.q.size + 1
    if sys.n_particles != 2 * p:
        raise ValueError(
            f"chain has {sys.n_particles} particles, expected {2 * p} for p={p}"
        )
    acc = eval_accel_full(sys, lift_symmetric(state))
    head, mid = acc[: p - 1], acc[p - 1]
    tail, last = acc[p : 2 * p - 1], acc[2 * p - 1]
    return float(
        max(abs(mid), abs(last), np.abs(tail + head[::-1]).max(initial=0.0))
    )
