"""Adaptive high-order integration and trajectory diagnostics.

The integrator is an explicit 12-stage Runge-Kutta method of order 8
(Dormand-Prince coefficients as tabulated by Hairer, Norsett & Wanner)
with the companion 5th/3rd-order embedded error estimate and a PI step
controller (safety 0.9, growth capped at 5x).  Output samples land
exactly on the requested time grid by clipping the step, so results are
bit-reproducible for fixed inputs.  Each stage writes v and
accel(q, out) straight into its row of a preallocated stage array, and
the stages are checked for finiteness once per step.  A trajectory
records its step, rejection and right-hand-side counts and the range of
accepted steps.

A step of the shipped scenarios' systems (2 to 6 degrees of freedom)
costs about 72 us in the traced ``scenarios`` benchmark, nearly all
of it the overhead of numpy calls on arrays of at most 12 entries.  So
the step loop allocates no array (only a kept sample does): the stage
state, the stage-sum scratch, the row views of the stage array and the
error-norm terms are made once per run; each stage sum is
``ndarray.dot`` into the scratch, a product with h and a sum with y,
through ufuncs bound once per step; and the right-hand side writes
into the stage row through the scratch of its system, with its own
ufuncs bound once per system and no multiply by alpha = 1 (1 * x is x
for every double).  Every output but np.maximum's is passed positionally,
and the step h and the tolerances are 0-d arrays, because numpy takes
a slower path for a keyword ``out`` and for a Python-float operand.
Every matrix-vector product (the 11 stage sums, the solution and the
two error estimates) is an ``ndarray.dot``, which calls the same BLAS
routine as ``@`` for less overhead, and |y| is computed once per
accepted state, for the next step's error scale and its divergence
test.  Each operation and its operand order is the one of the
allocating expressions, so none of this changes a bit of any output.

Unbounded solutions are a genuine feature of these cubic systems:
integration terminates with a divergence report (never an exception)
once the state norm passes the cutoff or the step size underflows.

Nothing here branches on the kind of system, except that
``mode_actions`` refuses a system whose coordinates are not modes (one
that is not quasi-harmonic) with a TypeError, and that the equilibrium
census seeds a reduced system with its closed-form static points
directly and a quasi-harmonic one through its scaling fit.  Every
system (full chain, reduced, quasi-harmonic) has ``dof``,
``accel(q, out=None)`` and a vectorised ``energy(states)``; reduced and
quasi-harmonic systems also have the acceleration Jacobian ``jac(q)``,
which with ``accel`` is all the equilibrium census solves.  The full
chain has none: its translation mode leaves its equilibria
non-isolated, and the census refuses it with a TypeError.  The two
cartoon models are quasi-harmonic systems given fixed monomial lists,
so they take the one right-hand side F (G x)^2 of every such system.
Which outputs a scenario kind writes is decided by the kinds table in
``scenarios``, which never asks for actions of a non-modal system.
"""

import logging
import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .chain import require_finite
from .coupling import map_reference_state, scaling_equivalence
from .reduction import (EQUILIBRIUM_MAX_DOF, ReducedSystem, build_reduced,
                        uniform_tension_points)
from .spectral import (DegenerateSpectrumError, QuasiHarmonicSystem, _mode_index,
                       to_quasi_harmonic)

log = logging.getLogger(__name__)

# --- Runge-Kutta tableau (order 8 propagation, 12 stages) ------------------
# The nodes c_i = sum_j a_ij are not kept: every system is autonomous.

_RK_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])

_RK_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])

_RK_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])

_RK_A = np.array([
    [0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.05260015195876773, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.0197250569845379, 0.0591751709536137, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.02958758547680685, 0.0, 0.08876275643042054, 0.0,
     0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792,
     0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.037109375, 0.0, 0.0, 0.17025221101954405,
     0.06021653898045596, -0.017578125, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023, 0.0,
     0.0, 0.0, 0.0, 0.0],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414,
     -0.868219346841726, 27.59209969944671, 20.154067550477894, -43.48988418106996,
     0.0, 0.0, 0.0, 0.0],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
     -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627, 0.0, 0.0, 0.0],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064,
     1.0914373489967295, -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196, 0.0, 0.0],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725,
     -2.0008720582248625, -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636, 0.0],
])

_N_STAGES = 12
# the weights of the stage sums 1 .. 12: rows 1 .. 11 of A, then b for the
# order-8 solution, at which stage 12 evaluates f(y_new)
_STAGE_WEIGHTS = tuple(_RK_A[s, :s] for s in range(1, _N_STAGES)) + (_RK_B,)
_ERROR_EXPONENT = 1.0 / 8.0      # embedded order 7 -> 1/(q+1)
_PI_ALPHA = 0.095                # 1/8 - 0.75 * beta, the standard PI pairing
_PI_BETA = 0.04
_SAFETY = 0.9
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2


# Cartoon id -> (default frequencies, monomials (i, j, k, coeff): the
# term coeff x_j x_k in equation i, 0-based).  The forces are the
# gradients of -x^2 y / 2 and of -0.2 xyz - 0.25 (y z^2 + y^2 z).
_CARTOONS = {
    1: ((0.1, 1.0), ((0, 0, 1, 1.0), (1, 0, 0, 0.5))),
    2: ((0.1, 1.0, 1.05), ((0, 1, 2, 0.2), (1, 0, 2, 0.2), (1, 1, 2, 0.5),
                           (1, 2, 2, 0.25), (2, 0, 1, 0.2), (2, 1, 1, 0.25),
                           (2, 1, 2, 0.5))),
}


def cartoon_system(cid: int, omegas=None) -> QuasiHarmonicSystem:
    """Small coupled-oscillator models illustrating mixed-term forcing.

    cid=1 is the two-oscillator system  xdd + w1^2 x = x y,
    ydd + w2^2 y = x^2 / 2.  cid=2 is the three-oscillator system with
    the 0.2 / 0.25 couplings where the two fast modes are in detuned
    resonance and strongly force the slow one.  Both are quasi-harmonic
    systems with lambda = omega^2, alpha = 1 and a fixed monomial list
    whose tensor is fully symmetric.  A non-finite omega is refused by
    name.
    """
    if cid not in _CARTOONS:
        raise ValueError(f"cartoon id must be 1 or 2, got {cid}")
    default, monomials = _CARTOONS[cid]
    omegas = default if omegas is None else omegas
    d = len(default)
    if len(omegas) != d:
        raise ValueError(f"cartoon {cid} has {('two', 'three')[cid - 1]} oscillators: "
                         f"give omega1 to omega{d} or none, got {len(omegas)} values")
    require_finite(**{f"omega{n}": w for n, w in enumerate(omegas, start=1)})
    return QuasiHarmonicSystem(
        lambdas=np.array([float(w) * float(w) for w in omegas]),
        given=[np.array(column) for column in zip(*monomials)],
        labels=(None,) * d, alpha=1.0, name=f"cartoon{cid}")


# --- the system interface -----------------------------------------------------
# Every system kind has ``dof``, ``accel(q, out=None)`` and
# ``energy(states)`` (vectorised over rows [q, v]; None for
# quasi-harmonic systems without an exact invariant).  ``accel`` takes
# one state or rows; given ``out``, a (d,) array, it takes one state,
# fills ``out`` and returns it, allocating nothing, and the integrator
# calls it so.  Reduced and quasi-harmonic systems also have
# ``jac(q)``, the Jacobian of ``accel`` at one state (d, d) or at rows
# (n, d, d): accel = 0 are the static equations and jac their
# linearisation.  Every map reads the system's own ``alpha``; another
# alpha is another system.  The three functions below only name these
# members; perfbench/ imports them.


def system_dof(system) -> int:
    return system.dof


def acceleration_function(system):
    """Position -> acceleration map of the second-order system."""
    return system.accel


def energy_function(system):
    """State-vector -> energy map, or None if no exact energy is known."""
    return system.energy


def as_state_vector(system, state) -> np.ndarray:
    """Accept a State (with ``q`` and ``v``) or a flat vector and return [q, v]."""
    if hasattr(state, "q") and hasattr(state, "v"):
        vec = np.concatenate([np.asarray(state.q, float), np.asarray(state.v, float)])
    else:
        vec = np.asarray(state, dtype=float).ravel()
    d = system.dof
    if vec.size != 2 * d:
        raise ValueError(f"state vector has length {vec.size}, expected {2 * d}")
    return vec


# --- integration ------------------------------------------------------------


MAX_SAMPLES = 10**6          # t_end / sample_dt at most
DIVERGENCE_NORM = 1e8        # a run stops once a state entry exceeds this


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and sampling for one integration run.

    ``sample_dt`` is the output stride; figure captions count time in
    these unit samples.  A config is checked when it is made (by the
    constructor or ``dataclasses.replace``): tolerances outside (0, 1e-4]
    are refused, and so is a sample_dt or t_end that is not positive
    (NaN included), an infinite t_end and more than MAX_SAMPLES samples
    (t_end / sample_dt).
    A step lands on a sample time, and the run ends, within the landing
    tolerance 1e-12 * t_end, which under that cap is at most
    1e-6 * sample_dt for every accepted configuration.  A t_end shorter
    than the step floor 16 eps * max(|t|, 1) ends as a step_underflow.
    """

    t_end: float
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    sample_dt: float = 1.0

    def __post_init__(self):
        for name, tol in (("abs_tol", self.abs_tol), ("rel_tol", self.rel_tol)):
            if not 0.0 < tol <= 1e-4:
                raise ValueError(f"{name} must lie in (0, 1e-4], got {tol}")
        for name in ("sample_dt", "t_end"):
            if not getattr(self, name) > 0:     # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        require_finite(t_end=self.t_end)
        if self.t_end / self.sample_dt > MAX_SAMPLES:
            raise ValueError(f"sample_dt {self.sample_dt} gives more than {MAX_SAMPLES} "
                             f"samples up to t_end {self.t_end}")


@dataclass
class Trajectory:
    """Sampled solution with integration diagnostics.

    ``states`` rows are [positions, velocities] at ``times``; samples
    are exact integration endpoints, not dense-output interpolants.
    ``status`` is "ok", "diverged" or "step_underflow"; a non-ok run
    stops at ``t_reached`` with the last accepted state appended.
    """

    times: np.ndarray
    states: np.ndarray
    status: str
    t_reached: float
    message: str = ""
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs: int = 0
    h_min: float | None = None      # accepted step sizes; None without steps
    h_median: float | None = None
    h_max: float | None = None

    @property
    def ok(self):
        return self.status == "ok"

    @property
    def dof(self):
        return self.states.shape[1] // 2

    def positions(self):
        return self.states[:, : self.dof]

    def velocities(self):
        return self.states[:, self.dof:]

    def final_state(self):
        return self.states[-1].copy()


def _initial_step(accel, y0, f0, atol, rtol, t_span):
    """Conservative automatic initial step (Hairer's starting heuristic)."""
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = np.empty_like(y1)
    _derivative(accel, y1, f1)
    # divided in numpy: h0 is 0 when f0 is infinite
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0)
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ERROR_EXPONENT
    return min(100.0 * h0, h1, t_span)


def _derivative(accel, y, out):
    """Write the first-order derivative [v, accel(q)] of y = [q, v] into out."""
    d = y.size // 2
    out[:d] = y[d:]
    accel(y[:d], out[d:])


def _stage_buffers(k):
    """The buffers of the stage loop over the stage array k, built once per run.

    Returns the stage state ys with its q and v views, a scratch vector
    for the stage sums and, for the stages s = 1 .. 12, the view
    k[:s].T, the weights of its sum and the row views k[s, :d], k[s, d:].
    """
    d = k.shape[1] // 2
    ys = np.empty(2 * d)
    stages = [(k[:s].T, w, k[s, :d], k[s, d:])
              for s, w in enumerate(_STAGE_WEIGHTS, start=1)]
    return ys, ys[:d], ys[d:], np.empty(2 * d), stages


def _rk_stages(accel, y, h, buffers):
    """Fill stages 1..12 of k for a step h from y, given k[0] = f(y).

    ``buffers`` are those of :func:`_stage_buffers`.  Each stage writes
    its state y + h (K a_s) into ys, without allocating, and its velocity
    and acceleration into its row of k.  The last stage state is the
    order-8 solution y + h (K b), so ys ends as y_new and k[12] as
    f(y_new).  ``h`` may be a 0-d array, which numpy multiplies faster
    than a Python float.  Returns ys.
    """
    ys, q, v, tmp, stages = buffers
    multiply, add = np.multiply, np.add
    for sums, a_s, k_v, k_a in stages:
        sums.dot(a_s, tmp)
        multiply(h, tmp, tmp)
        add(y, tmp, ys)
        k_v[...] = v
        accel(q, k_a)
    return ys


def integrate(system, state0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a second-order system, sampling every ``sample_dt``.

    Deterministic for fixed inputs.  Divergence (state norm above the
    cutoff) and step-size underflow terminate early with a report in
    ``status``/``message`` rather than raising.  Every attempted step
    evaluates all 12 stages and the derivative at its end point, then
    checks them for finiteness once; a non-finite step is rejected and
    retried 5x shorter, without a numpy warning for the infinities or
    NaNs met on the way.  So ``n_rhs == 2 + 12 (n_steps + n_rejected)``.
    """
    # a with block: np.errstate as a decorator raised the peak RSS of a
    # perfbench ensemble run by about 0.2 MB (numpy 2.4)
    with np.errstate(all="ignore"):
        return _integrate(system, state0, cfg)


def _integrate(system, state0, cfg):
    accel = system.accel
    d = system.dof

    y = as_state_vector(system, state0).copy()     # may be the caller's array
    t = 0.0
    times = [0.0]
    states = [y.copy()]
    k = np.empty((_N_STAGES + 1, 2 * d))   # k[0] = f(y); k[12] = f(y_new)
    buffers, k_t = _stage_buffers(k), k.T
    finite = np.empty(k.shape, dtype=bool)
    _derivative(accel, y, k[0])

    sample_idx = 1
    # one landing tolerance for every t_end, at most 1e-6 sample_dt under
    # MAX_SAMPLES; a t_end below the step floor ends as a step_underflow
    eps_t = 1e-12 * cfg.t_end
    min_step_rel = 16.0 * np.finfo(float).eps

    # h_free is the controller's preferred step; clipping a step to land
    # on a sample time must not shrink that preference.  A rejection
    # shrinks the smaller of the two: a landing step that is clipped to
    # the same length each time (the sample lies within 1.25 eps_t)
    # would otherwise be retried unchanged for ever.
    h_free = _initial_step(accel, y, k[0], cfg.abs_tol, cfg.rel_tol, cfg.t_end)

    err_prev = 1e-4
    n_attempts = 0
    accepted_h = []
    status, message = "ok", ""

    # |y| of the current state and of y_new, swapped on acceptance, and
    # the error scale and estimates: the error norm allocates nothing.
    # The step and the tolerances are 0-d arrays, which numpy multiplies
    # and adds faster than Python floats.
    abs_y, abs_new = np.abs(y), np.empty(2 * d)
    scale, err5, err3 = np.empty(2 * d), np.empty(2 * d), np.empty(2 * d)
    h_0d, rel_tol, abs_tol = np.empty(()), np.array(cfg.rel_tol), np.array(cfg.abs_tol)
    while t < cfg.t_end - eps_t:
        if not abs_y.max() <= DIVERGENCE_NORM:     # NaN fails too
            status = "diverged"
            message = (f"state norm {abs_y.max():.3e} exceeded "
                       f"{DIVERGENCE_NORM:.1e} at t={t:.6g}")
            break
        if not h_free >= min_step_rel * max(abs(t), 1.0):    # NaN fails too
            status = "step_underflow"
            message = f"step size underflow (h={h_free:.3e}) at t={t:.6g}"
            break

        target = min(sample_idx * cfg.sample_dt, cfg.t_end)
        landing = t + h_free >= target - eps_t
        h = target - t if landing else h_free

        n_attempts += 1
        h_0d[()] = h
        y_new = _rk_stages(accel, y, h_0d, buffers)
        if not np.isfinite(k, finite).all():    # a non-finite stage or y_new shows here
            h_free = min(h, h_free) * _MIN_SHRINK
            continue

        np.abs(y_new, abs_new)
        np.maximum(abs_y, abs_new, out=scale)    # a positional out is deprecated here
        np.multiply(rel_tol, scale, scale)
        np.add(abs_tol, scale, scale)
        np.divide(k_t.dot(_RK_E5, err5), scale, err5)
        np.divide(k_t.dot(_RK_E3, err3), scale, err3)
        n5 = float(err5.dot(err5))
        n3 = float(err3.dot(err3))
        denom = n5 + 0.01 * n3
        err_norm = 0.0 if denom <= 0.0 else abs(h) * n5 / math.sqrt(denom * len(scale))

        if err_norm <= 1.0:
            accepted_h.append(h)
            y[...] = y_new
            abs_y, abs_new = abs_new, abs_y
            k[0] = k[_N_STAGES]
            if landing:     # on t_end short of the grid the loop ends here
                sample_idx += 1
                times.append(target)
                states.append(y.copy())
                t = target
            else:
                t = t + h
            if err_norm == 0.0:
                factor = _MAX_GROWTH
            else:
                factor = _SAFETY * err_norm ** (-_PI_ALPHA) * err_prev ** _PI_BETA
                factor = min(_MAX_GROWTH, max(_MIN_SHRINK, factor))
            err_prev = max(err_norm, 1e-4)
            h_free = max(h * factor, h_free) if landing else h * factor
        else:
            h_free = min(h, h_free) * min(1.0, max(
                _MIN_SHRINK, _SAFETY * err_norm ** (-_ERROR_EXPONENT)))

    if status != "ok" and times[-1] < t - eps_t:
        times.append(t)
        states.append(y.copy())

    n_steps = len(accepted_h)
    return Trajectory(
        times=np.array(times), states=np.array(states), status=status,
        t_reached=float(t), message=message, n_steps=n_steps,
        n_rejected=n_attempts - n_steps, n_rhs=2 + _N_STAGES * n_attempts,
        **_step_size_summary(accepted_h),
    )


def _step_size_summary(steps):
    """h_min, h_median and h_max of the accepted steps; None without steps.

    Plain Python: the first np.median call of a process adds about 1 MB
    to its resident memory.  float(): an integer t_end can reach h as
    the whole span.
    """
    if not steps:
        return {}
    return {"h_min": float(min(steps)), "h_median": float(statistics.median(steps)),
            "h_max": float(max(steps))}


# --- diagnostics -------------------------------------------------------------


@dataclass(frozen=True)
class ModeActionSeries:
    """Per-mode actions E_j(t) = (v_j^2 + lambda_j x_j^2) / 2."""

    times: np.ndarray
    actions: np.ndarray     # shape (n_samples, n_modes)


def mode_actions(system, trajectory: Trajectory) -> ModeActionSeries:
    """Actions along a quasi-harmonic (or cartoon) trajectory.

    Requires diagonal coordinates; raise for chain/reduced trajectories,
    whose coordinates mix the modes.
    """
    if not isinstance(system, QuasiHarmonicSystem):
        raise TypeError(
            "mode actions require diagonal (quasi-harmonic or cartoon) "
            f"coordinates, not {type(system).__name__}")
    lam = system.lambdas
    x = trajectory.positions()
    v = trajectory.velocities()
    return ModeActionSeries(times=trajectory.times.copy(),
                            actions=0.5 * (v**2 + lam[None, :] * x**2))


def relative_drift(energies) -> float:
    """max_t |E(t) - E(0)| / max(|E(0)|, 1e-12)."""
    return float(np.abs(energies - energies[0]).max() / max(abs(energies[0]), 1e-12))


def energy_drift(system, trajectory: Trajectory) -> float:
    """Relative drift of the exact energy over the sampled states."""
    if system.energy is None:
        raise ValueError("system has no exact energy function")
    return relative_drift(system.energy(trajectory.states))


# --- equilibria ---------------------------------------------------------------


@dataclass
class EquilibriumReport:
    """An equilibrium point with its linearisation.

    ``residual`` is the largest magnitude of the acceleration at
    ``point``.  ``eigenvalues`` belong to the first-order system of
    dimension 2(p-1); counts classify them as pure-imaginary /
    positive-real / negative-real with the relative threshold stated
    below.
    """

    point: np.ndarray
    residual: float
    eigenvalues: np.ndarray
    n_center: int
    n_unstable: int
    n_stable: int


IMAG_CLASSIFY_REL = 1e-8
EQUILIBRIUM_GRID = np.linspace(-4.0, 4.0, 9)   # the seeds' values on each axis
NEWTON_STEPS = 50                  # iterations per seed at most
EQUILIBRIUM_RESIDUAL_TOL = 1e-12   # largest acceleration at a found point, over max(1, |x|)
EQUILIBRIUM_DEDUP_TOL = 1e-8       # points this close, over max(1, |alpha|), are one
_NEWTON_CHUNK = 4096     # seeds per batch at most; bounds memory at d = 6 (9^6 seeds)


def find_equilibria(system):
    """Every static point that Newton reaches from the census's seeds.

    The seeds follow one rule.  A system with a reduction is seeded first
    with its 2^d static points in closed form, the uniform-tension states
    (:func:`fpualt.reduction.uniform_tension_points`): a reduced system
    directly, and a quasi-harmonic system of d modes, when p' = d + 1 is
    odd, through T^-1 of the system built at (p', a, alpha) and the
    scaling fit (:func:`fpualt.coupling.scaling_equivalence`) of its
    modes onto that system's, however well it fits: the Bezout stop
    below, not the fit, decides when the census is complete.  This
    covers built, saved, loaded and edited systems, the full tables, and
    a subsystem whose modes fit the chain p' (the p = 3 pair inside a
    longer chain, say).  Then come the 9^d points of EQUILIBRIUM_GRID^d,
    the integers of [-4, 4]^d, which every other system (a cartoon, a
    subsystem that fits no such chain, a hand-made list, or one whose
    fit raises) starts from.  A system of more than
    EQUILIBRIUM_MAX_DOF = 6 modes is refused.

    Newton solves accel = 0 with the system's ``jac``, on the closed-form
    seeds and then on the grid in batches of at most 4096 seeds.  Every
    threshold follows one scale rule, relative to max(1, |x|_inf): a row
    stops when its step is at most 1e-13 of the scale of its iterate,
    and is dropped when its Jacobian is singular, its iterate is not
    finite or exceeds 1e3 times the scale of its seed; a converged point
    is kept when its acceleration is at most EQUILIBRIUM_RESIDUAL_TOL of
    its scale, the test that :func:`classify_equilibrium` makes.  After
    each batch one greedy pass over the points found so far, then the
    batch's in seed order, keeps each point not within
    EQUILIBRIUM_DEDUP_TOL / max(1, |alpha|) of a kept one: the static
    points of every system here scale as 1/alpha.  For the same reason a
    system at 0 < |alpha| < 1 is solved at alpha / s, s = min(1, |alpha|)
    (s = 1 at alpha = 0), and its points are divided by s: those of a
    grid-seeded system would otherwise grow out of the fixed grid as
    alpha shrinks, while at |alpha| >= 1 and at alpha = 0 nothing
    changes.  The static system is d quadratic equations, so by
    Bezout's theorem it has at most 2^d isolated solutions, and the
    search stops once it has 2^d points.  So
    a system whose closed-form seeds reach 2^d points (every built one,
    and an edited one whose points Newton still reaches from them) runs
    no grid seed, one whose seeds find fewer goes on to the grid, and a
    census with fewer than 2^d real points runs every seed.
    The products go through BLAS, whose rounding depends on the number of
    rows, so a point can move in its last bits with the batch sizes.
    The seeds are iterated without a numpy warning for the infinities or
    NaNs of the rows that are dropped, and one INFO line on the
    ``fpualt`` logger says how many seeds of each rule ran.
    """
    s = min(1.0, abs(system.alpha)) or 1.0     # solved at alpha / s, |alpha / s| >= 1
    solved = replace(system, alpha=system.alpha / s) if s < 1.0 else system
    fun, jac = _linearisation(solved)
    d = system.dof
    if d > EQUILIBRIUM_MAX_DOF:
        raise ValueError(
            f"the equilibrium grid search is limited to {EQUILIBRIUM_MAX_DOF} "
            f"modes; this system has {d} modes")
    tol = EQUILIBRIUM_DEDUP_TOL / max(1.0, abs(solved.alpha))   # the points scale as 1/alpha
    found, ran = [], {"uniform-tension": 0, "grid": 0}
    for rule, seeds in _seed_batches(solved):
        if len(found) == 2 ** d:          # Bezout: 2^d isolated points at most
            break
        ran[rule] += len(seeds)
        with np.errstate(all="ignore"):
            points = _newton_rows(fun, jac, seeds)
        # the points found so far, then this batch's: keep the earliest
        points = np.concatenate([np.reshape(found, (-1, d)), points])
        found = []
        while len(points):
            found.append(points[0])
            points = points[np.abs(points - points[0]).max(axis=1) > tol]
    log.info("equilibria: %d points from %d uniform-tension and %d of %d grid seeds",
             len(found), ran["uniform-tension"], ran["grid"], len(EQUILIBRIUM_GRID) ** d)
    found = sorted((p / s for p in found), key=lambda p: tuple(np.round(p, 9)))
    return [classify_equilibrium(system, p) for p in found]


def _seed_batches(system):
    """The census's (rule, seeds) batches: the closed-form static points of
    a system with a reduction, then the grid, built only when it is reached."""
    closed = _uniform_tension_seeds(system)
    if closed is not None:
        yield "uniform-tension", closed
    d = system.dof
    grid = np.stack(np.meshgrid(*([EQUILIBRIUM_GRID] * d), indexing="ij"), -1).reshape(-1, d)
    for start in range(0, len(grid), _NEWTON_CHUNK):
        yield "grid", grid[start:start + _NEWTON_CHUNK]


def _uniform_tension_seeds(system):
    """The closed-form static points of a system with a reduction, in its
    own coordinates; None for a system without one (see find_equilibria)."""
    p = system.dof + 1                   # the chain whose reduction has d modes
    if not p % 2:
        return None
    points = uniform_tension_points(p, system.alpha)
    if isinstance(system, ReducedSystem):
        return points
    try:
        built = to_quasi_harmonic(build_reduced(p, system.a, system.alpha))
        fit = scaling_equivalence(system, built)
    except (ValueError, DegenerateSpectrumError):
        return None
    return map_reference_state(fit, points @ built.basis.t_inv.T)[0]


def _scale(x):
    """max(1, |x|_inf) of a point or of each row: the census's unit."""
    return np.maximum(1.0, np.abs(x).max(axis=-1))


def _linearisation(system):
    """(accel, jac) of a system with isolated equilibria; a TypeError
    naming the system for one without a Jacobian (the full chain)."""
    if not hasattr(system, "jac"):
        raise TypeError(f"the equilibrium census needs a Jacobian jac, which "
                        f"{type(system).__name__} lacks: the chain's translation "
                        "mode leaves its equilibria non-isolated")
    return system.accel, system.jac


def _newton_rows(fun, jac, x):
    """Newton on every row of x at once; returns the converged rows, in
    order, whose acceleration is within the scale rule (find_equilibria).

    A row stops when its step is at most 1e-13 of its scale (converged)
    or when its Jacobian is singular, its iterate is not finite or
    exceeds 1e3 times its seed's scale (dropped).
    """
    x, bound = x.copy(), 1e3 * _scale(x)
    active = np.ones(len(x), dtype=bool)
    converged = np.zeros(len(x), dtype=bool)
    for _ in range(NEWTON_STEPS):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        xa = x[idx]
        rhs, jacs = -fun(xa)[..., None], jac(xa)
        # an exact zero pivot of the LU factors, which solve would refuse,
        # marks a singular row: its step is NaN, and the row is dropped
        regular = np.linalg.slogdet(jacs)[0] != 0.0
        step = np.full(xa.shape, np.nan)
        step[regular] = np.linalg.solve(jacs[regular], rhs[regular])[..., 0]
        xa = xa + step
        x[idx] = xa
        size = np.abs(xa).max(axis=1)
        bad = ~np.isfinite(size) | (size > bound[idx])
        done = ~bad & (np.abs(step).max(axis=1) <= 1e-13 * np.maximum(1.0, size))
        converged[idx[done]] = True
        active[idx[bad | done]] = False
    x = x[converged]
    return x[np.abs(fun(x)).max(axis=1) <= EQUILIBRIUM_RESIDUAL_TOL * _scale(x)]


def classify_equilibrium(system, point) -> EquilibriumReport:
    """Linearise the flow at an equilibrium and classify its spectrum.

    Eigenvalues come in the symplectic patterns (+-i w, +-sigma,
    quadruples); one is counted pure-imaginary when |Re| is below
    1e-8 of the largest magnitude.  A point that is not d finite
    coordinates, or whose acceleration exceeds EQUILIBRIUM_RESIDUAL_TOL
    of max(1, |point|_inf), the scale rule of :func:`find_equilibria`,
    is refused with a ValueError that says which; a system without
    ``jac`` (the full chain) with a TypeError.
    """
    accel, jac = _linearisation(system)
    d = system.dof
    point = np.asarray(point, dtype=float)
    if point.shape != (d,) or not np.isfinite(point).all():
        raise ValueError(f"point must be {d} finite coordinates, got {point.tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):    # refused below
        residual = float(np.abs(accel(point)).max())
    if not residual <= EQUILIBRIUM_RESIDUAL_TOL * _scale(point):
        raise ValueError(f"point is not an equilibrium (residual {residual:.3e})")
    flow = np.zeros((2 * d, 2 * d))
    flow[:d, d:] = np.eye(d)
    flow[d:, :d] = jac(point)
    eig = np.linalg.eigvals(flow)
    eig = np.array(sorted(eig, key=lambda z: (round(z.real, 12), z.imag)))
    thr = IMAG_CLASSIFY_REL * max(np.abs(eig).max(initial=0.0), 1e-30)
    n_center = int(np.sum(np.abs(eig.real) <= thr))
    n_unstable = int(np.sum(eig.real > thr))
    n_stable = int(np.sum(eig.real < -thr))
    return EquilibriumReport(point=point.copy(), residual=residual,
                             eigenvalues=eig, n_center=n_center,
                             n_unstable=n_unstable, n_stable=n_stable)


# --- first-order forced response ---------------------------------------------


@dataclass(frozen=True)
class ClosedFormResponse:
    """Analytic first-order response of one mode driven by another's square.

    With the driver at x_r(t) = A cos(sqrt(lambda_r) t) (zeroth order)
    the driven equation  xdd + lambda_d x = g cos^2(...)  has the exact
    zero-initial-data solution

        x(t) = k0 (1 - cos(w_d t)) + k2 (cos(2 w_r t) - cos(w_d t)).
    """

    driven: int
    driver: int
    amplitude: float
    lambda_driven: float
    lambda_driver: float
    forcing: float        # alpha * C_{d,rr} * A^2
    k0: float
    k2: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        wd = math.sqrt(self.lambda_driven)
        wr = math.sqrt(self.lambda_driver)
        return (self.k0 * (1.0 - np.cos(wd * t))
                + self.k2 * (np.cos(2.0 * wr * t) - np.cos(wd * t)))


def first_order_response(sys: QuasiHarmonicSystem, driven: int, driver: int,
                         amplitude: float) -> ClosedFormResponse:
    """Closed-form response of mode ``driven`` to mode ``driver``'s square.

    Mode indices are 1-based.  The driver starts at ``amplitude`` with
    zero velocity and all other modes at rest.  Exact 2:1 resonance
    between sqrt(lambda_driven) and 2 sqrt(lambda_driver) is refused, and
    so are a mode that is not an integer in 1..d, one mode as both and a
    non-finite amplitude, each by name.
    """
    driven = _mode_index(sys, driven, "driven")
    driver = _mode_index(sys, driver, "driver")
    if driven == driver:
        raise ValueError(f"driven/driver must be distinct modes, got {driven} twice")
    require_finite(amplitude=amplitude)
    lam_d = float(sys.lambdas[driven - 1])
    lam_r = float(sys.lambdas[driver - 1])
    if lam_d <= 0 or lam_r <= 0:
        raise ValueError("response formula requires positive eigenvalues")
    if abs(lam_d - 4.0 * lam_r) <= 1e-9 * max(lam_d, 4.0 * lam_r):
        raise ValueError(
            f"exact 2:1 resonance (lambda_driven = 4 lambda_driver = {lam_d!r})")
    m = sys.monomials       # the square x_driver^2 in equation driven, if listed
    square = (m.i == driven - 1) & (m.j == driver - 1) & (m.k == driver - 1)
    g = sys.alpha * float(m.coeff[square].sum()) * amplitude**2
    return ClosedFormResponse(
        driven=driven, driver=driver, amplitude=float(amplitude),
        lambda_driven=lam_d, lambda_driver=lam_r, forcing=g,
        k0=g / (2.0 * lam_d), k2=g / (2.0 * (lam_d - 4.0 * lam_r)),
    )
