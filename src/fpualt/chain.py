"""Periodic FPU chains with alternating masses.

The chain has ``N = 2 n`` particles on a ring, nearest neighbours coupled
through the anharmonic spring potential

    V(z) = z^2/2 + alpha z^3/3 + beta z^4/4,

with unit masses at odd positions (1-based) and large masses ``m = 1/a``
at even positions.  Small ``a`` splits the linear spectrum into a
low-frequency acoustic group of size O(a) and a high-frequency optical
group near 2.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import jacobi_eigh


@dataclass(frozen=True)
class ChainParams:
    """Problem definition for a periodic alternating-mass chain.

    ``n_pairs`` is the number of (light, heavy) mass pairs, so the chain
    has ``N = 2 * n_pairs`` particles.  ``a`` sets the heavy mass 1/a.
    """

    n_pairs: int
    a: float
    alpha: float = 1.0
    beta: float = 0.0


def spring_potential(z, alpha, beta=0.0):
    """V(z) = z^2/2 + alpha z^3/3 + beta z^4/4, elementwise."""
    return 0.5 * z * z + (alpha / 3.0) * z**3 + (beta / 4.0) * z**4


def _bond_extensions(q):
    """q_{j+1} - q_j for all bonds of each row, the periodic wrap bond last."""
    return np.roll(q, -1, axis=-1) - q


@dataclass(frozen=True)
class FullChainSystem:
    """A periodic alternating-mass chain, immutable after construction."""

    params: ChainParams
    masses: np.ndarray  # length N, alternating 1, 1/a

    @property
    def n_particles(self):
        return self.masses.size

    dof = n_particles

    def potential(self, z):
        """Spring potential V(z) applied elementwise."""
        return spring_potential(z, self.params.alpha, self.params.beta)

    def dpotential(self, z):
        """V'(z) applied elementwise."""
        p = self.params
        return z + p.alpha * z * z + p.beta * z**3

    def accel(self, q):
        """Accelerations m_j qdd_j = V'(q_{j+1}-q_j) - V'(q_j-q_{j-1})."""
        f = self.dpotential(_bond_extensions(q))
        return (f - np.roll(f, 1)) / self.masses

    def energy(self, states):
        """Total energy sum m_j v_j^2 / 2 + sum V over the ring bonds.

        Vectorised over rows [q, v] of ``states``.
        """
        n = self.dof
        kinetic = 0.5 * np.sum(self.masses * states[..., n:] ** 2, axis=-1)
        return kinetic + np.sum(self.potential(_bond_extensions(states[..., :n])),
                                axis=-1)


@dataclass
class State:
    """Displacements and velocities of a chain or of a reduced system."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.q.shape != self.v.shape or self.q.ndim != 1:
            raise ValueError(
                f"q and v must be 1-d arrays of equal length, got shapes "
                f"{self.q.shape} and {self.v.shape}"
            )


FullState = State


def build_chain(params: ChainParams) -> FullChainSystem:
    """Construct the periodic chain described by ``params``.

    Raises ValueError for a non-positive mass parameter or fewer than
    two mass pairs (the ring needs at least 4 particles).
    """
    if params.n_pairs < 2:
        raise ValueError(f"n_pairs must be >= 2, got {params.n_pairs}")
    if not params.a > 0:
        raise ValueError(f"mass parameter a must be positive, got {params.a}")
    n = 2 * params.n_pairs
    masses = np.empty(n)
    masses[0::2] = 1.0        # odd particles in 1-based counting
    masses[1::2] = 1.0 / params.a
    return FullChainSystem(params=params, masses=masses)


def _check_dim(sys: FullChainSystem, state: FullState):
    if state.q.size != sys.n_particles:
        raise ValueError(
            f"state has {state.q.size} particles, system has {sys.n_particles}"
        )


def eval_accel_full(sys: FullChainSystem, state: FullState):
    """Accelerations m_j qdd_j = V'(q_{j+1}-q_j) - V'(q_j-q_{j-1})."""
    _check_dim(sys, state)
    return sys.accel(state.q)


def hamiltonian(sys: FullChainSystem, state: FullState) -> float:
    """Total energy: sum m_j v_j^2 / 2 + sum V over the ring bonds."""
    _check_dim(sys, state)
    return float(sys.energy(np.concatenate([state.q, state.v])))


def total_momentum(sys: FullChainSystem, state: FullState) -> float:
    """Conserved total momentum sum m_j v_j."""
    _check_dim(sys, state)
    return float(np.sum(sys.masses * state.v))


def stiffness_full(sys: FullChainSystem):
    """Stiffness matrix of the linearisation about the origin (periodic)."""
    n = sys.n_particles
    k = 2.0 * np.eye(n)
    idx = np.arange(n)
    k[idx, (idx + 1) % n] = -1.0
    k[idx, (idx - 1) % n] = -1.0
    return k


def linear_spectrum_full(sys: FullChainSystem):
    """Eigenvalues omega^2 of the linearised chain, sorted descending.

    Computed from the symmetric matrix M^{-1/2} K M^{-1/2}; includes the
    zero eigenvalue of the momentum mode (up to round-off).
    """
    d = 1.0 / np.sqrt(sys.masses)
    s = d[:, None] * stiffness_full(sys) * d[None, :]
    w, _ = jacobi_eigh(s)
    return np.sort(w)[::-1]


def embed_state(state: FullState, k: int) -> FullState:
    """Periodic repetition of a 2n-particle state into the 2kn chain.

    The tiled state lies on an invariant submanifold of the larger chain:
    its evolution there, restricted to one period, reproduces the small
    chain's evolution.
    """
    if int(k) != k or k < 1:
        raise ValueError(f"repetition factor k must be a positive integer, got {k}")
    k = int(k)
    return FullState(q=np.tile(state.q, k), v=np.tile(state.v, k))


def embed_chain(sys: FullChainSystem, k: int) -> FullChainSystem:
    """The 2kn-particle chain with the same a, alpha, beta."""
    p = sys.params
    return build_chain(ChainParams(n_pairs=k * p.n_pairs, a=p.a,
                                   alpha=p.alpha, beta=p.beta))
