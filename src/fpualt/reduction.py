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
It is made from (p, a, alpha) alone, as the chain is made from
(n_pairs, a, alpha, beta): the masses, D and beta = 0 are derived from
them when the system is made, and cannot be given.
The linear part is K = D^T D, the standard tridiagonal stiffness, whose
modes :mod:`fpualt.spectral` gives in closed form, with no matrix formed
from D, and the cubic spring terms contribute the quadratic vector

    N(q) = -D^T (D q)^2,   i.e.  N_i = e_i^2 - e_{i-1}^2
         = q_{i+1}^2 - 2 q_i q_{i+1} + 2 q_{i-1} q_i - q_{i-1}^2.

The equations of motion are M qdd + K q = alpha N(q), which is exactly
minus the gradient of the fixed-end potential sum_b V(e_b); that
potential provides an exact conserved energy for the reduced flow.

Its static points are known in closed form (:func:`uniform_tension_points`):
D^T (e + alpha e^2) = 0 holds exactly when every bond carries one tension.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .chain import (SIZE_LIMIT, BondSystem, State,
                    alternating_masses, eval_accel_full, hamiltonian,
                    is_index, require_finite)


@dataclass(frozen=True, kw_only=True, eq=False)
class ReducedSystem(BondSystem):
    """Fixed-end reduced system with p-1 particles, made from (p, a, alpha).

    ``p`` is an odd integer in 3..SIZE_LIMIT, ``a`` a finite mass
    parameter > 0 with a finite 1/a, and ``alpha`` finite; anything else
    is refused with a ValueError naming it.  ``masses`` (1, 1/a, ...),
    ``bonds`` (the bond-difference operator D, (p, p-1)) and ``beta`` (0)
    are derived from them when the system is made, never given, so every
    system is one the closed-form modes of :mod:`fpualt.spectral`
    describe, and ``dataclasses.replace`` makes another (at another
    alpha, say).  The inherited ``stiffness`` K = D^T D is 2 on the
    diagonal, -1 off it; no package code reads it.  Its acceleration,
    energy and acceleration Jacobian ``jac`` read the system's
    ``alpha``; another alpha is another system.
    """

    p: int
    a: float
    masses: np.ndarray = field(init=False)
    bonds: np.ndarray = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        p = self.p
        if not (is_index(p) and 3 <= p <= SIZE_LIMIT and p % 2):
            raise ValueError(f"p must be an odd integer in 3..{SIZE_LIMIT}, got {p}")
        require_finite(a=self.a, alpha=self.alpha)
        for name, value in (("masses", alternating_masses((p - 1) // 2, self.a)),
                            ("bonds", np.eye(p, p - 1) - np.eye(p, p - 1, k=-1)),
                            ("beta", 0.0)):
            object.__setattr__(self, name, value)

    def jac(self, q):
        """The acceleration Jacobian -M^{-1} D^T diag(1 + 2 alpha e) D,
        e = D q, of one state (d,) or of rows (n, d): (d, d) or (n, d, d)."""
        e = (self.bonds @ q.T).T
        # 2 before alpha: 2 alpha overflows for alpha >= 2^1023
        force_jac = -(self.bonds.T * (1.0 + self.alpha * (2.0 * e[..., None, :]))) @ self.bonds
        return force_jac / self.masses[:, None]


ReducedState = State


def build_reduced(p: int, a: float, alpha: float = 1.0) -> ReducedSystem:
    """The reduced (p-1)-dof system of (p, a, alpha); see :class:`ReducedSystem`
    for what it refuses."""
    return ReducedSystem(p=p, a=a, alpha=alpha)


# The equilibrium census's modes at most: 9^6 grid seeds, 2^6 closed-form points
EQUILIBRIUM_MAX_DOF = 6


def uniform_tension_points(p: int, alpha: float) -> np.ndarray:
    """The static points of the reduced p system, (2^(p-1), p-1), in closed form,
    for an odd integer p in 3..2 EQUILIBRIUM_MAX_DOF + 1, the census's range.

    With fixed ends, D^T (e + alpha e^2) = 0 holds exactly when every
    bond carries one tension c = e + alpha e^2, so each extension is
    e = (-1 +- s) / (2 alpha), s = sqrt(1 + 4 alpha c), and the ends
    q_0 = q_p = 0 ask for sum e = 0.  With k bonds on the + branch that
    gives s = p / (2k - p), which is positive for k = (p+1)/2 .. p: the
    2^(p-1) points q = cumsum(e), the same for every a and scaling as
    1/alpha.  At alpha = 0 every point but the origin is at infinity, so
    the origin is the one row.
    """
    if not (is_index(p) and 3 <= p <= 2 * EQUILIBRIUM_MAX_DOF + 1 and p % 2):
        raise ValueError(f"p must be an odd integer in 3..{2 * EQUILIBRIUM_MAX_DOF + 1}, "
                         f"got {p}")
    if alpha == 0.0:
        return np.zeros((1, p - 1))
    # each row the branch signs of one point; 2k - p is their sum
    sign = np.array([row for row in itertools.product((1.0, -1.0), repeat=p) if sum(row) > 0])
    s = p / sign.sum(axis=1)
    return np.cumsum((-1.0 + sign * s[:, None]) / (2.0 * alpha), axis=1)[:, :-1]


# A reduced system is a bond-space system, so the chain's state entry
# points serve it: qdd = M^{-1} (-K q + alpha N(q)) and the conserved
# energy sum M_i v_i^2 / 2 + U(q).  perfbench/ imports these names.
eval_accel_reduced = eval_accel_full
reduced_energy = hamiltonian


def _lift(x):
    """The symmetric 2p-vector [x, 0, -x reversed, 0] of a (p-1)-vector x."""
    return np.concatenate([x, [0.0], -x[::-1], [0.0]])


def lift_symmetric(state: ReducedState) -> State:
    """Lift a reduced state to the symmetric 2p-particle state.

    Positions p and 2p are zero and the second half mirrors the first
    with a sign flip; the same pattern applies to velocities.
    """
    return State(q=_lift(state.q), v=_lift(state.v))


def symmetry_residual(sys: BondSystem, state: ReducedState) -> float:
    """Largest violation of the symmetry relations by the lifted acceleration.

    ``sys`` is any bond-space system of 2p particles: the chain, or a
    :class:`fpualt.chain.BondSystem` with the chain's bonds and other
    masses.  On the chain the symmetric subspace is exactly invariant,
    so for every reduced state the full-chain acceleration of the lifted
    state must itself satisfy acc_p = acc_{2p} = 0 and
    acc_{2p-i} = -acc_i, that is, equal the lift of its own first p-1
    entries.
    """
    p = state.q.size + 1
    if sys.dof != 2 * p:
        raise ValueError(
            f"chain has {sys.dof} particles, expected {2 * p} for p={p}"
        )
    acc = sys.accel(_lift(state.q))
    return float(np.abs(acc - _lift(acc[: p - 1])).max())
