"""Bond-space spring systems and the periodic alternating-mass chain.

A bond-space system is a set of masses joined by the anharmonic spring
potential

    V(z) = z^2/2 + alpha z^3/3 + beta z^4/4

through a bond operator D: the bond extensions are e = D q, the force is
-D^T V'(e), the energy is sum m v^2/2 + sum_b V(e_b) and the stiffness
is K = D^T D.  :class:`BondSystem` owns that force and that energy,
which it reads from D rather than storing beside it.  The periodic
chain below and the fixed-end reduced system of
:mod:`fpualt.reduction` are bond-space systems that differ only in D,
the masses and beta; the bond-factor energy of the quasi-harmonic
systems of :mod:`fpualt.spectral` is that of the bond-space system with
bond operator G = D T and the modal masses.

The periodic chain has ``N = 2 n`` particles on a ring, with unit masses
at odd positions (1-based) and large masses ``m = 1/a`` at even
positions.  Its bond operator is the periodic N x N matrix with
(D q)_b = q_{b+1} - q_b and the wrap bond q_1 - q_N last.  A chain is
made from (n_pairs, a, alpha, beta) alone: the masses and D are derived
from them when the chain is made, and cannot be given.  Small ``a``
splits the linear spectrum into a low-frequency acoustic group of size
O(a) and a high-frequency optical group near 2.  That spectrum is the
diatomic chain's dispersion relation (Born-von Karman)

    lambda = (1 + a) -/+ sqrt((1 + a)^2 - 4 a sin^2(pi k / n)),
    k = 0 .. n - 1,

which :func:`linear_spectrum_full` evaluates in closed form, with no
matrix; the reduced pairs of :mod:`fpualt.spectral` are the same
relation at s = sin(pi j / p), so pair j of the reduced system p is Bloch
mode k = j of the chain with n = p pairs.
"""

import math
import operator
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True, kw_only=True, eq=False)
class BondSystem:
    """Masses joined by the springs V through the bond operator ``bonds`` (D).

    The maps take one state (d,) or rows (n, d).  The quartic term is
    skipped when ``beta`` is 0, so alpha-FPU systems (every reduced
    system) neither pay for it nor change a bit.  Systems compare and
    hash by identity, as every system kind does: an array field has no
    one truth value to compare by.
    """

    masses: np.ndarray
    bonds: np.ndarray             # D, one row per bond: e = D q
    alpha: float
    beta: float = 0.0

    @property
    def dof(self):
        return self.masses.size

    @cached_property
    def accel(self):
        """The map (q, out=None) -> qdd = -M^{-1} D^T V'(D q), built once per
        system.

        The force's sign sits in the mass divisor: IEEE division is
        sign-symmetric, so x / -m has the bits of -(x / m).  Without
        ``out`` the map allocates its result and takes one state (d,) or
        rows (n, d).  Given ``out``, a (d,) array, it takes one state,
        writes the result into ``out`` and returns it, with every
        intermediate in scratch arrays made once per system object: the
        ``out`` form of one system must not run in two threads at once.
        That form is the integrator's hot path, so it makes only the
        numpy calls its arithmetic needs: the bound ``dot`` methods and
        ufuncs are closure locals, the scalars are 0-d arrays (numpy
        multiplies them faster than Python floats) and the multiply by
        alpha is skipped when alpha is 1, which 1 * x = x makes exact.
        """
        bonds, quartic, scaled = self.bonds, self.beta != 0, self.alpha != 1.0
        alpha, beta, three = (np.array(float(x)) for x in (self.alpha, self.beta, 3.0))
        minus_m = -self.masses
        e, f, cube = (np.empty(len(bonds)) for _ in range(3))
        force = np.empty(self.dof)
        dot_e, dot_f = bonds.dot, bonds.T.dot
        multiply, add, power, divide = np.multiply, np.add, np.power, np.divide

        def accel(q, out=None):
            if out is None:
                ext = bonds.dot(q.T)
                tension = ext + alpha * ext * ext
                if quartic:
                    tension = tension + beta * ext**3
                return bonds.T.dot(tension).T / minus_m
            dot_e(q, e)
            if scaled:
                multiply(alpha, e, f)
                multiply(f, e, f)
            else:
                multiply(e, e, f)
            add(e, f, f)
            if quartic:
                power(e, three, cube)
                multiply(beta, cube, cube)
                add(f, cube, f)
            return divide(dot_f(f, force), minus_m, out)

        return accel

    @cached_property
    def stiffness(self):
        """The stiffness K = D^T D of the linearisation about the origin;
        only perfbench/ reads it."""
        return self.bonds.T @ self.bonds

    def energy(self, states):
        """Energy sum m v^2 / 2 + sum_b V((D q)_b), vectorised over rows [q, v]."""
        d = self.dof
        kinetic = 0.5 * np.sum(self.masses * states[..., d:] ** 2, axis=-1)
        e = states[..., :d] @ self.bonds.T
        return kinetic + np.sum(spring_potential(e, self.alpha, self.beta), axis=-1)


@dataclass(frozen=True, kw_only=True, eq=False)
class FullChainSystem(BondSystem):
    """A periodic alternating-mass chain, made from (n_pairs, a, alpha, beta).

    ``n_pairs`` is an integer in 2..SIZE_LIMIT, ``a`` a finite mass
    parameter > 0 with a finite 1/a, and ``alpha`` and ``beta`` finite;
    anything else is refused with a ValueError naming it.  ``masses``
    (1, 1/a, ...) and ``bonds`` (the periodic difference operator D, wrap
    bond last) are derived from them when the chain is made, never given,
    so every chain is one the closed-form spectrum of
    :func:`linear_spectrum_full` describes, and ``dataclasses.replace``
    makes another (at another alpha, say).  A chain with other masses or
    bonds is a plain :class:`BondSystem`.

    Row j of ``accel`` reads m_j qdd_j = V'(q_{j+1}-q_j) - V'(q_j-q_{j-1}).
    ``n_particles`` is the chain's name for ``dof``.
    """

    n_pairs: int
    a: float
    masses: np.ndarray = field(init=False)
    bonds: np.ndarray = field(init=False)
    n_particles = BondSystem.dof

    def __post_init__(self):
        if not (is_index(self.n_pairs) and 2 <= self.n_pairs <= SIZE_LIMIT):
            raise ValueError(f"n_pairs must be in 2..{SIZE_LIMIT}, got {self.n_pairs}")
        require_finite(a=self.a, alpha=self.alpha, beta=self.beta)
        object.__setattr__(self, "masses", alternating_masses(self.n_pairs, self.a))
        eye = np.eye(2 * self.n_pairs)
        # (D q)_b = q_{b+1} - q_b, the wrap bond q_1 - q_N last
        object.__setattr__(self, "bonds", np.roll(eye, 1, axis=1) - eye)


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


def is_index(value):
    """Whether ``value`` is an integer (anything ``operator.index`` takes:
    an int or a numpy integer) and not a float, even an integral one, so
    that a size or index guard, not numpy, refuses the float."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def alternating_masses(n_pairs, a):
    """The masses 1, 1/a, 1, 1/a, ... of ``n_pairs`` (light, heavy) pairs.

    Refuses a mass parameter a that is not positive, or so small that
    the heavy mass 1/a overflows, naming it.
    """
    if not a > 0:
        raise ValueError(f"mass parameter a must be positive, got {a}")
    if not math.isfinite(1.0 / a):
        raise ValueError(f"mass parameter a = {a!r} is too small: 1/a overflows")
    masses = np.empty(2 * n_pairs)
    masses[0::2] = 1.0        # odd particles in 1-based counting
    masses[1::2] = 1.0 / a
    return masses


def build_chain(params: ChainParams) -> FullChainSystem:
    """The periodic chain ``params`` describes; see :class:`FullChainSystem`
    for what it refuses."""
    return FullChainSystem(n_pairs=params.n_pairs, a=params.a,
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


def _dispersion(a, s):
    """The two branches (1 + a) -/+ sqrt((1 + a)^2 - 4 a s^2) of the
    diatomic dispersion relation, (acoustic, optical).

    A reduced pair j has s = sin(pi j / p) and a Bloch mode k of the
    chain s = sin(pi k / n_pairs).  Raises ValueError when a is so large
    that (1 + a)^2 overflows.
    """
    try:
        # at s = 1 (k = n/2 of an even n) the difference below is (1 - a)^2,
        # which it would lose to cancellation for a near 1
        disc = abs(1.0 - a) if s == 1.0 else math.sqrt((1.0 + a) ** 2 - 4.0 * a * s ** 2)
    except OverflowError:
        raise ValueError(f"mass parameter a = {a!r} is too large: "
                         "(1 + a)^2 overflows") from None
    return (1.0 + a) - disc, (1.0 + a) + disc


def linear_spectrum_full(sys: FullChainSystem):
    """Eigenvalues omega^2 of the linearised chain, sorted descending.

    In closed form: the dispersion relation of the diatomic chain
    (Born-von Karman) at the Bloch modes k = 0 .. n_pairs - 1 of the
    chain, two eigenvalues each.  The momentum mode, the acoustic branch
    at k = 0, is exactly 0.  Raises ValueError when a is so large that
    (1 + a)^2 overflows.
    """
    n, a = sys.n_pairs, sys.a
    branches = [_dispersion(a, math.sin(math.pi * k / n)) for k in range(n)]
    return np.sort(np.ravel(branches))[::-1]


def _check_factor(k):
    if not (is_index(k) and k >= 1):
        raise ValueError(f"repetition factor k must be a positive integer, got {k}")


def embed_state(state: FullState, k: int) -> FullState:
    """Periodic repetition of a 2n-particle state into the 2kn chain.

    The tiled state lies on an invariant submanifold of the larger chain:
    its evolution there, restricted to one period, reproduces the small
    chain's evolution.  The repetition factor k must be a positive
    integer (an integral float is refused, as by every size guard).
    """
    _check_factor(k)
    return FullState(q=np.tile(state.q, k), v=np.tile(state.v, k))


def embed_chain(sys: FullChainSystem, k: int) -> FullChainSystem:
    """The 2kn-particle chain with the same a, alpha, beta; k as for
    :func:`embed_state`."""
    _check_factor(k)
    return replace(sys, n_pairs=k * sys.n_pairs)
