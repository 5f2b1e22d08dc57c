"""Bond-space spring systems and the periodic alternating-mass chain.

A bond-space system is a set of masses joined by the anharmonic spring
potential

    V(z) = z^2/2 + alpha z^3/3 + beta z^4/4

through a bond operator D: the bond extensions are e = D q, the force is
-D^T V'(e), the energy is sum m v^2/2 + sum_b V(e_b) and the stiffness
is K = D^T D.  :class:`BondSystem` owns that force, that energy and that
stiffness, which it reads from D rather than storing beside it.  The
periodic chain below and the fixed-end reduced system of
:mod:`fpualt.reduction` are bond-space systems that differ only in D,
the masses and beta; the bond-factor energy of the quasi-harmonic
systems of :mod:`fpualt.spectral` is that of the bond-space system with
bond operator G = D T and the modal masses.

The periodic chain has ``N = 2 n`` particles on a ring, with unit masses
at odd positions (1-based) and large masses ``m = 1/a`` at even
positions.  Its bond operator is the periodic N x N matrix with
(D q)_b = q_{b+1} - q_b and the wrap bond q_1 - q_N last.  Small ``a``
splits the linear spectrum into a low-frequency acoustic group of size
O(a) and a high-frequency optical group near 2.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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


def spring_potential(z, alpha, beta):
    """V(z) = z^2/2 + alpha z^3/3 + beta z^4/4, elementwise."""
    return 0.5 * z * z + (alpha / 3.0) * z**3 + (beta / 4.0) * z**4


@dataclass(frozen=True, kw_only=True)
class BondSystem:
    """Masses joined by the springs V through the bond operator ``bonds`` (D).

    The maps take one state (d,) or rows (n, d).  The quartic term is
    skipped when ``beta`` is 0, so alpha-FPU systems (every reduced
    system) neither pay for it nor change a bit.
    """

    masses: np.ndarray
    bonds: np.ndarray             # D, one row per bond: e = D q
    alpha: float
    beta: float = 0.0

    @property
    def dof(self):
        return self.masses.size

    def _bond_map(self, divisor):
        """The map (q, out=None) -> D^T V'(D q) / divisor.

        The force's sign sits in ``divisor``: IEEE division is
        sign-symmetric, so x / -m has the bits of -(x / m).  Without
        ``out`` the map allocates its result and takes one state (d,) or
        rows (n, d).  Given ``out``, a (d,) array, it takes one state,
        writes the result into ``out`` and returns it, with every
        intermediate in scratch arrays made with the map: the ``out`` form
        of one map must not run in two threads at once.  The scalars are
        0-d arrays, which numpy multiplies faster than Python floats.
        """
        bonds, bonds_t, quartic = self.bonds, self.bonds.T, self.beta != 0
        alpha, beta, three = (np.array(float(x)) for x in (self.alpha, self.beta, 3.0))
        divisor = np.asarray(divisor, dtype=float)
        scratch = tuple(np.empty(len(bonds)) for _ in range(3)) + (np.empty(self.dof),)

        def bond_map(q, out=None):
            e, f, cube, force = scratch if out is not None else (None,) * 4
            e = bonds.dot(q.T, e)
            f = np.multiply(alpha, e, f)
            np.multiply(f, e, f)
            np.add(e, f, f)
            if quartic:
                cube = np.power(e, three, cube)
                np.multiply(beta, cube, cube)
                np.add(f, cube, f)
            return np.divide(bonds_t.dot(f, force).T, divisor, out)

        return bond_map

    @cached_property
    def accel(self):
        """The map (q, out=None) -> qdd = -M^{-1} D^T V'(D q), built once per
        system, so its ``out`` form shares one scratch per system object."""
        return self._bond_map(-self.masses)

    @cached_property
    def stiffness(self):
        """The stiffness K = D^T D of the linearisation about the origin."""
        return self.bonds.T @ self.bonds

    def energy(self, states):
        """Energy sum m v^2 / 2 + sum_b V((D q)_b), vectorised over rows [q, v]."""
        d = self.dof
        kinetic = 0.5 * np.sum(self.masses * states[..., d:] ** 2, axis=-1)
        e = states[..., :d] @ self.bonds.T
        return kinetic + np.sum(spring_potential(e, self.alpha, self.beta), axis=-1)


@dataclass(frozen=True, kw_only=True)
class FullChainSystem(BondSystem):
    """A periodic alternating-mass chain, immutable after construction.

    Row j of ``accel`` reads m_j qdd_j = V'(q_{j+1}-q_j) - V'(q_j-q_{j-1}).
    """

    params: ChainParams

    @property
    def n_particles(self):
        return self.masses.size


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


# The largest p of a reduced system and n_pairs of a chain the builders
# accept: the reduced and chain operators are dense, so the size bounds
# the memory, and the sweep's verdicts are checked up to this p.
SIZE_LIMIT = 199


def require_finite(**values):
    """Refuse a parameter that is infinite or NaN, naming it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")


def require_mass_parameter(a):
    """Refuse a mass parameter a that is not positive, or so small that
    the heavy mass 1/a overflows, naming it."""
    if not a > 0:
        raise ValueError(f"mass parameter a must be positive, got {a}")
    if not math.isfinite(1.0 / a):
        raise ValueError(f"mass parameter a = {a!r} is too small: 1/a overflows")


def build_chain(params: ChainParams) -> FullChainSystem:
    """Construct the periodic chain described by ``params``.

    Raises ValueError for a non-finite parameter, a mass parameter that
    is not positive or whose 1/a overflows, or a number of mass pairs
    outside 2..SIZE_LIMIT (the ring needs at least 4 particles).
    """
    if not 2 <= params.n_pairs <= SIZE_LIMIT:
        raise ValueError(f"n_pairs must be in 2..{SIZE_LIMIT}, got {params.n_pairs}")
    require_finite(a=params.a, alpha=params.alpha, beta=params.beta)
    require_mass_parameter(params.a)
    n = 2 * params.n_pairs
    masses = np.empty(n)
    masses[0::2] = 1.0        # odd particles in 1-based counting
    masses[1::2] = 1.0 / params.a
    bonds = np.eye(n, k=1) - np.eye(n)
    bonds[-1, 0] = 1.0        # the wrap bond q_1 - q_N
    return FullChainSystem(params=params, masses=masses, bonds=bonds,
                           alpha=params.alpha, beta=params.beta)


def _check_dim(sys: BondSystem, state: State):
    if state.q.size != sys.dof:
        raise ValueError(
            f"state has {state.q.size} dof, system has {sys.dof} particles")


def eval_accel_full(sys: BondSystem, state: State):
    """Accelerations qdd = -M^{-1} D^T V'(D q) of a bond-space system."""
    _check_dim(sys, state)
    return sys.accel(state.q)


def hamiltonian(sys: BondSystem, state: State) -> float:
    """Total energy sum m v^2 / 2 + sum_b V((D q)_b) of a bond-space system."""
    _check_dim(sys, state)
    return float(sys.energy(np.concatenate([state.q, state.v])))


def total_momentum(sys: FullChainSystem, state: FullState) -> float:
    """Conserved total momentum sum m_j v_j."""
    _check_dim(sys, state)
    return float(np.sum(sys.masses * state.v))


def linear_spectrum_full(sys: FullChainSystem):
    """Eigenvalues omega^2 of the linearised chain, sorted descending.

    Computed by LAPACK from the symmetric matrix M^{-1/2} K M^{-1/2};
    includes the zero eigenvalue of the momentum mode (up to round-off).
    """
    d = 1.0 / np.sqrt(sys.masses)
    s = d[:, None] * sys.stiffness * d[None, :]
    return np.linalg.eigvalsh(s)[::-1]


def embed_state(state: FullState, k: int) -> FullState:
    """Periodic repetition of a 2n-particle state into the 2kn chain.

    The tiled state lies on an invariant submanifold of the larger chain:
    its evolution there, restricted to one period, reproduces the small
    chain's evolution.
    """
    if not (k >= 1 and k % 1 == 0):        # false for inf and nan too
        raise ValueError(f"repetition factor k must be a positive integer, got {k}")
    k = int(k)
    return FullState(q=np.tile(state.q, k), v=np.tile(state.v, k))


def embed_chain(sys: FullChainSystem, k: int) -> FullChainSystem:
    """The 2kn-particle chain with the same a, alpha, beta."""
    p = sys.params
    return build_chain(ChainParams(n_pairs=k * p.n_pairs, a=p.a,
                                   alpha=p.alpha, beta=p.beta))
