import dataclasses
import functools
import itertools
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from fpualt import (ChainParams, IntegratorConfig, QuasiHarmonicSystem,
                    ReducedState, build_chain, build_reduced, cartoon_system,
                    classify_equilibrium,
                    energy_drift, find_equilibria, first_order_response,
                    integrate, load_reference, load_system, mode_actions,
                    save_system, to_quasi_harmonic, uniform_tension_points)
from fpualt.dynamics import (EQUILIBRIUM_GRID, MAX_SAMPLES, _N_STAGES,
                             _RK_A, _derivative, _newton_rows,
                             _rk_stages, _stage_buffers, energy_function)

from conftest import tensor_monomials


def single_mode(lam=1.0):
    return QuasiHarmonicSystem(lambdas=np.array([lam]),
                               given=([], [], [], []),
                               labels=(None,), alpha=0.0)


class TestIntegratorBasics:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="abs_tol"):
            IntegratorConfig(t_end=1.0, abs_tol=1e-3)
        with pytest.raises(ValueError, match="sample_dt"):
            IntegratorConfig(t_end=1.0, sample_dt=0.0)
        with pytest.raises(ValueError, match="t_end"):
            IntegratorConfig(t_end=-2.0)
        # an infinite t_end ran no step and reported "ok"
        with pytest.raises(ValueError, match="t_end must be a finite number"):
            IntegratorConfig(t_end=math.inf)
        # --sample-dt 1e-9 ran for ever; --t-end 1e13 made the landing
        # tolerance 1e-12 t_end exceed sample_dt and stopped at t = 0
        IntegratorConfig(t_end=MAX_SAMPLES * 0.5, sample_dt=0.5)
        for t_end, sample_dt in ((200.0, 1e-9), (1e13, 1.0), (1.0, 5e-324)):
            with pytest.raises(ValueError) as err:
                IntegratorConfig(t_end=t_end, sample_dt=sample_dt)
            assert str(err.value) == (f"sample_dt {sample_dt} gives more than "
                                      f"1000000 samples up to t_end {t_end}")

    @pytest.mark.parametrize("field", ["sample_dt", "t_end"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_config_refuses_non_positive_limits(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            IntegratorConfig(**{"t_end": 1.0, field: value})
        # replace makes a config with the constructor, so it is checked too
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            dataclasses.replace(IntegratorConfig(t_end=1.0), **{field: value})
        IntegratorConfig(**{"t_end": 1.0, field: 0.5})

    def test_harmonic_oscillator_period(self):
        tr = integrate(single_mode(1.0), np.array([1.0, 0.0]),
                       IntegratorConfig(t_end=2 * math.pi, sample_dt=math.pi / 2))
        assert tr.ok
        assert abs(tr.states[-1, 0] - 1.0) <= 1e-9
        assert abs(tr.states[-1, 1]) <= 1e-9

    def test_sample_grid(self):
        tr = integrate(single_mode(), np.array([1.0, 0.0]),
                       IntegratorConfig(t_end=10.0, sample_dt=1.0))
        assert np.array_equal(tr.times, np.arange(11.0))

    def test_order_eight_convergence(self):
        # halving a fixed step must shrink the endpoint error by >= 2^7
        sys = single_mode(1.0)
        y0 = np.array([1.0, 0.0])
        errs = []
        for h in (0.4, 0.2):
            y, k = y0, np.empty((_N_STAGES + 1, 2))
            buffers = _stage_buffers(k)
            for _ in range(round(20.0 / h)):
                _derivative(sys.accel, y, k[0])
                y = _rk_stages(sys.accel, y, h, buffers).copy()
            errs.append(abs(y[0] - math.cos(20.0)))
        assert errs[0] / errs[1] >= 2 ** 7

    def test_caller_state_unchanged(self, systems, rng):
        # the step loop writes into its own buffers, and as_state_vector
        # may hand it the caller's array
        red, _, _ = systems[3]
        y0 = np.concatenate([rng.uniform(-0.3, 0.3, 2), np.zeros(2)])
        kept = y0.copy()
        cfg = IntegratorConfig(t_end=5.0)
        tr1 = integrate(red, y0, cfg)
        assert np.array_equal(y0, kept) and not np.shares_memory(tr1.states, y0)
        state = ReducedState(y0[:2].copy(), y0[2:].copy())
        tr2 = integrate(red, state, cfg)
        assert np.array_equal(state.q, kept[:2]) and np.array_equal(state.v, kept[2:])
        assert np.array_equal(tr1.states, tr2.states)
        assert not np.shares_memory(tr1.states, tr2.states)
        assert not np.array_equal(tr1.states[0], tr1.states[-1])

    def test_determinism(self, systems, rng):
        _, _, qh = systems[5]
        y0 = np.concatenate([rng.uniform(-0.2, 0.2, 4), np.zeros(4)])
        tr1 = integrate(qh, y0, IntegratorConfig(t_end=50.0))
        tr2 = integrate(qh, y0, IntegratorConfig(t_end=50.0))
        assert np.array_equal(tr1.states, tr2.states)
        assert np.array_equal(tr1.times, tr2.times)

    def test_against_scipy(self, systems, rng):
        scipy_ivp = pytest.importorskip("scipy.integrate")
        red, _, _ = systems[3]
        y0 = np.concatenate([rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.03, 0.03, 2)])
        cfg = IntegratorConfig(t_end=50.0, abs_tol=1e-12, rel_tol=1e-12,
                               sample_dt=50.0)
        ours = integrate(red, y0, cfg)

        def f(t, y):
            from fpualt import eval_accel_reduced
            return np.concatenate([y[2:],
                                   eval_accel_reduced(red, ReducedState(y[:2], y[2:]))])

        ref = scipy_ivp.solve_ivp(f, [0.0, 50.0], y0, method="DOP853",
                                  rtol=1e-12, atol=1e-12)
        assert np.abs(ours.states[-1] - ref.y[:, -1]).max() <= 1e-8

    def test_time_reversal(self, systems, rng):
        _, _, qh = systems[3]
        y0 = np.concatenate([rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.1, 0.1, 2)])
        cfg = IntegratorConfig(t_end=100.0)
        fwd = integrate(qh, y0, cfg)
        yf = fwd.final_state()
        back = integrate(qh, np.concatenate([yf[:2], -yf[2:]]), cfg)
        yb = back.final_state()
        assert np.abs(yb[:2] - y0[:2]).max() <= 1e-6
        assert np.abs(yb[2:] + y0[2:]).max() <= 1e-6


class TestDivergence:
    def test_unbounded_run_is_reported(self, systems):
        red, _, _ = systems[3]
        tr = integrate(red, np.array([1.00754, 2.0, 0.0, 0.0]),
                       IntegratorConfig(t_end=400.0))
        assert tr.status == "diverged"
        assert 0 < tr.t_reached < 400.0
        assert "exceeded" in tr.message
        # drift diagnostic still works on the truncated trajectory
        assert math.isfinite(energy_drift(red, tr))

    def test_cutoff_configurable(self, systems, monkeypatch):
        # the cutoff is the module constant DIVERGENCE_NORM, read per run
        monkeypatch.setattr("fpualt.dynamics.DIVERGENCE_NORM", 1e3)
        red, _, _ = systems[3]
        tr = integrate(red, np.array([1.00754, 2.0, 0.0, 0.0]),
                       IntegratorConfig(t_end=400.0))
        assert tr.status == "diverged" and 1e3 <= np.abs(tr.states[-1]).max() < 1e8


class _Wall:
    """A free particle whose acceleration is NaN from q = 1 on; it records every call."""

    dof = 1

    def __init__(self):
        self.calls = []

    def accel(self, q, out):
        self.calls.append(float(q[0]))
        out[...] = np.where(q < 1.0, 0.0, np.nan)
        return out


class _NaNField:
    """Acceleration NaN everywhere, made without a numpy warning; records calls."""

    dof = 2

    def __init__(self):
        self.calls = 0

    def accel(self, q, out):
        self.calls += 1
        out.fill(np.nan)
        return out


class _InfField:
    """Acceleration +inf everywhere; records calls."""

    dof = 2

    def __init__(self):
        self.calls = 0

    def accel(self, q, out):
        self.calls += 1
        out.fill(np.inf)
        return out


class TestNonFiniteSteps:
    def test_infinite_field_ends_with_a_report(self):
        # an infinite f(y0) gives a zero starting step, which ended in a
        # ZeroDivisionError
        field = _InfField()
        tr = integrate(field, np.array([0.1, -0.2, 0.0, 0.0]),
                       IntegratorConfig(t_end=5.0))
        assert tr.status == "step_underflow" and tr.n_steps == tr.n_rejected == 0
        assert tr.n_rhs == field.calls == 2

    def test_wall_at_a_sample_time_ends(self):
        # the particle meets the wall at t = 1, a sample time: the step
        # clipped to land there was retried unchanged for ever once the
        # sample lay within the landing tolerance
        wall = _Wall()
        tr = integrate(wall, np.array([0.0, 1.0]),
                       IntegratorConfig(t_end=5.0, sample_dt=1.0))
        assert tr.status == "step_underflow" and 0.99 < tr.t_reached < 1.0
        assert tr.n_rhs == len(wall.calls) == 2 + 12 * (tr.n_steps + tr.n_rejected)

    @pytest.mark.parametrize("q0", ([0.0, 0.0], [0.1, -0.2]))
    def test_nan_field_ends_with_a_report(self, q0):
        # a NaN at t = 0 can make the starting step NaN; the run must
        # still stop, never retry a NaN step for ever
        field = _NaNField()
        tr = integrate(field, np.array(q0 + [0.0, 0.0]), IntegratorConfig(t_end=5.0))
        assert tr.status in ("step_underflow", "diverged") and tr.message
        assert tr.n_steps == 0
        assert tr.n_rhs == field.calls == 2 + 12 * (tr.n_steps + tr.n_rejected)

    def test_wall_steps_rejected_and_counted(self):
        wall = _Wall()
        tr = integrate(wall, np.array([0.0, 1.0]), IntegratorConfig(t_end=5.0, sample_dt=5.0))
        # the run stops at the wall with a report, not an exception
        assert tr.status == "step_underflow" and "underflow" in tr.message
        assert 0.99 < tr.t_reached <= 1.0
        assert np.all(tr.states[:, 0] < 1.0) and np.all(np.isfinite(tr.states))
        # two calls before the first step, then 12 per attempt
        assert tr.n_rhs == len(wall.calls) == 2 + 12 * (tr.n_steps + tr.n_rejected)
        attempts = np.array(wall.calls[2:]).reshape(-1, 12)
        rejected = np.any(attempts >= 1.0, axis=1)
        assert rejected.sum() == tr.n_rejected > 0
        # stage 1 sits at c_1 h and stage 11 at h past the step's start,
        # with the nodes c_i = sum_j a_ij
        h = (attempts[:, 10] - attempts[:, 0]) / (_RK_A[11].sum() - _RK_A[1].sum())
        after = np.flatnonzero(rejected[:-1] & (h[:-1] > 1e-4))
        assert after.size > 0
        assert np.allclose(h[after + 1], 0.2 * h[after], rtol=1e-9, atol=0.0)


class TestStepSizes:
    def test_accepted_step_range(self):
        tr = integrate(single_mode(), np.array([1.0, 0.0]),
                       IntegratorConfig(t_end=20.0, sample_dt=0.05))
        # a step that lands on a sample may overshoot by the landing
        # tolerance 1e-12 * t_end
        assert 0.0 < tr.h_min <= tr.h_median <= tr.h_max <= 0.05 + 1e-12 * 20.0
        assert tr.n_steps >= 20.0 / 0.05

    def test_no_step_taken(self):
        tr = integrate(single_mode(), np.array([2e8, 0.0]), IntegratorConfig(t_end=1.0))
        assert tr.status == "diverged" and tr.n_steps == 0
        assert tr.h_min is tr.h_median is tr.h_max is None


class TestActionsAndEnergy:
    def test_linear_actions_constant(self, systems):
        red, basis, qh = systems[5]
        qh0 = QuasiHarmonicSystem(lambdas=qh.lambdas, given=qh.monomials,
                                  labels=qh.labels, alpha=0.0,
                                  a=qh.a, p=qh.p, basis=basis, reduced=red)
        y0 = np.concatenate([[0.3, -0.2, 0.1, 0.05], np.zeros(4)])
        tr = integrate(qh0, y0, IntegratorConfig(t_end=100.0))
        acts = mode_actions(qh0, tr)
        assert np.abs(acts.actions - acts.actions[0]).max() <= 1e-10

    def test_requires_diagonal_coordinates(self, systems):
        red, _, _ = systems[3]
        tr = integrate(red, np.array([0.1, 0.0, 0.0, 0.0]),
                       IntegratorConfig(t_end=1.0))
        with pytest.raises(TypeError, match="diagonal"):
            mode_actions(red, tr)

    def test_linear_energy_drift_tiny(self, systems):
        # the pulled-back energy diagnostic needs a linear reduced twin,
        # since the alpha=1 reduced potential is not conserved at alpha=0
        _, basis, qh = systems[5]
        red0 = build_reduced(5, 0.01, alpha=0.0)
        qh0 = QuasiHarmonicSystem(lambdas=qh.lambdas, given=qh.monomials,
                                  labels=qh.labels, alpha=0.0,
                                  a=qh.a, p=qh.p, basis=basis, reduced=red0)
        y0 = np.concatenate([[0.3, -0.2, 0.1, 0.05], np.zeros(4)])
        tr = integrate(qh0, y0, IntegratorConfig(t_end=100.0, abs_tol=1e-12,
                                                 rel_tol=1e-12))
        assert energy_drift(qh0, tr) <= 1e-10

    def test_loaded_system_has_no_energy(self):
        ref = load_reference("p3_full")
        assert energy_function(ref) is None
        tr = integrate(ref, np.array([0.1, 0.0, 0.0, 0.0]),
                       IntegratorConfig(t_end=1.0))
        with pytest.raises(ValueError, match="no exact energy"):
            energy_drift(ref, tr)


def _assert_symplectic_spectra(reports, d):
    for r in reports:
        eig = r.eigenvalues
        for z in eig:
            assert min(abs(eig + z)) <= 1e-9          # closed under negation
            assert min(abs(eig - z.conjugate())) <= 1e-9  # and conjugation
        assert r.n_center + r.n_unstable + r.n_stable == 2 * d


class TestEquilibria:
    def test_p3_complete_set(self, systems):
        red, _, _ = systems[3]
        reports = find_equilibria(red)
        points = sorted(tuple(np.round(r.point, 8)) for r in reports)
        assert points == [(-2.0, -1.0), (0.0, 0.0), (1.0, -1.0), (1.0, 2.0)]
        assert all(r.residual <= 1e-12 for r in reports)

    def test_p3_classified_eigenvalues(self, systems):
        red, _, _ = systems[3]
        reports = {tuple(np.round(r.point, 6)): r for r in find_equilibria(red)}
        expected = {
            (1.0, 2.0): (2.4525, 0.1223),
            (1.0, -1.0): (0.5477, 0.5477),
            (-2.0, -1.0): (0.5758, 0.5211),
        }
        for point, (omega, sigma) in expected.items():
            r = reports[point]
            imag = sorted(abs(z.imag) for z in r.eigenvalues if abs(z.real) < 1e-8)
            real = sorted(abs(z.real) for z in r.eigenvalues if abs(z.real) >= 1e-8)
            assert imag[-1] == pytest.approx(omega, abs=1e-3)
            assert real[-1] == pytest.approx(sigma, abs=1e-3)
            assert (r.n_center, r.n_unstable, r.n_stable) == (2, 1, 1)

    def test_origin_is_center(self, systems):
        red, _, qh = systems[3]
        r = classify_equilibrium(red, np.zeros(2))
        assert r.n_center == 4 and r.n_unstable == 0 and r.n_stable == 0
        freqs = sorted({round(abs(z.imag), 6) for z in r.eigenvalues})
        assert freqs == sorted({round(math.sqrt(l), 6) for l in qh.lambdas})

    def test_spectral_symmetry(self, systems):
        red, _, _ = systems[5]
        _assert_symplectic_spectra(find_equilibria(red), red.dof)

    def test_p5_equilibrium_set(self, systems):
        # The census resolves the full Bezout count 2^4 = 16, all
        # real.  Two of the four published p=5 points check out exactly;
        # the other two published points fail the system's own middle
        # rows by integer amounts (static residuals (0,-6,-4,0) and
        # (0,-6,0,0)) and are correctly absent.
        red, _, _ = systems[5]
        reports = find_equilibria(red)
        assert len(reports) == 16
        points = {tuple(np.round(r.point, 8)) for r in reports}
        assert (0.0, 0.0, 0.0, 0.0) in points
        assert (2.0, -1.0, 1.0, -2.0) in points
        assert (2.0, -1.0, 1.0, 3.0) in points
        for bogus in ((3.0, -1.0, 1.0, -1.0), (3.0, -1.0, 1.0, 3.0)):
            force = red.masses * red.accel(np.array(bogus))
            assert np.abs(force).max() >= 4.0
            assert bogus not in points
        # the boundary rows factor exactly: eq1 forces q2 = 2 q1 or
        # q2 = -1, eq4 forces q3 = 1 or q3 = 2 q4; every root obeys both
        for p in points:
            assert min(abs(p[1] - 2 * p[0]), abs(p[1] + 1)) < 1e-7
            assert min(abs(p[2] - 1), abs(p[2] - 2 * p[3])) < 1e-7

    def test_full_chain_refused_before_newton(self, monkeypatch):
        # the translation mode makes the chain's equilibria non-isolated:
        # it has no Jacobian, and the search stops before any seed;
        # classify_equilibrium refuses it alike
        def no_newton(*args):
            raise AssertionError("Newton ran on a full chain")

        monkeypatch.setattr("fpualt.dynamics._newton_rows", no_newton)
        chain = build_chain(ChainParams(n_pairs=2, a=0.01))
        why = (r"needs a Jacobian jac, which FullChainSystem lacks: the chain's "
               r"translation mode leaves its equilibria non-isolated")
        with pytest.raises(TypeError, match=why):
            find_equilibria(chain)
        with pytest.raises(TypeError, match=why):
            classify_equilibrium(chain, np.zeros(4))

    def test_huge_alpha_keeps_the_origin(self):
        # 2 alpha overflowed, inf * 0 made the Jacobian NaN at the origin,
        # and the search found 0 points with RuntimeWarnings
        ref = load_reference("p3_full")
        huge = QuasiHarmonicSystem(lambdas=ref.lambdas, labels=ref.labels,
                                   alpha=1e308, given=ref.monomials)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = find_equilibria(huge)
        assert [r.point.tolist() for r in reports] == [[0.0, 0.0]]
        assert reports[0].residual == 0.0

    def test_rejects_non_equilibrium(self, systems):
        red, _, _ = systems[3]
        with pytest.raises(ValueError, match="not an equilibrium"):
            classify_equilibrium(red, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("point", [[math.nan, 0.0], [0.0, math.inf], [0.0],
                                       [0.0, 0.0, 0.0], [[0.0, 0.0]]])
    def test_rejects_a_point_that_is_not_d_finite_numbers(self, systems, point):
        # NaN compares false with any bound, and a wrong length reached
        # numpy's shape error: both are refused by name, before LAPACK
        red, _, _ = systems[3]
        with pytest.raises(ValueError, match=re.escape(
                f"point must be 2 finite coordinates, got {point}")):
            classify_equilibrium(red, point)

    def test_rejects_an_overflowing_residual(self, systems):
        # a finite point whose acceleration overflows to NaN (with numpy's
        # overflow warnings) is refused as no equilibrium, not in LAPACK
        red, _, _ = systems[3]
        with pytest.raises(ValueError, match=r"not an equilibrium \(residual nan\)"):
            classify_equilibrium(red, [1e200, -1e200])

    def test_p7_census(self, systems):
        # d = 6, the largest system the census accepts: all 2^6 points,
        # each from its own closed-form seed
        reports = find_equilibria(systems[7][0])
        assert len(reports) == 64
        assert all(r.residual <= 1e-12 for r in reports)
        _assert_symplectic_spectra(reports, 6)


def _unit(x):
    """The scale max(1, |x|_inf) of the census's thresholds, per row."""
    return np.maximum(1.0, np.abs(x).max(axis=-1))


def _newton_per_seed(system, axis):
    """The equilibrium search one seed at a time, as a reference."""
    fun, jac = system.accel, system.jac
    d = system.dof
    found = []
    for seed in np.stack(np.meshgrid(*([axis] * d), indexing="ij"), -1).reshape(-1, d):
        x = seed.copy()
        converged = False
        for _ in range(50):
            try:
                step = np.linalg.solve(jac(x), -fun(x))
            except np.linalg.LinAlgError:
                break
            x = x + step
            if not np.all(np.isfinite(x)) or np.abs(x).max() > 1e3 * _unit(seed):
                break
            if np.abs(step).max() <= 1e-13 * _unit(x):
                converged = True
                break
        if (converged and np.abs(fun(x)).max() <= 1e-12 * _unit(x)
                and all(np.abs(x - g).max() > 1e-8 for g in found)):
            found.append(x)
    found.sort(key=lambda p: tuple(np.round(p, 9)))
    return np.array(found)


def _full_grid_equilibria(system):
    """Every one of the 9^d grid seeds through Newton, deduplicated in seed order."""
    fun, jac = system.accel, system.jac
    d = system.dof
    seeds = np.stack(np.meshgrid(*([EQUILIBRIUM_GRID] * d), indexing="ij"),
                     -1).reshape(-1, d)
    with np.errstate(all="ignore"):
        points = _newton_rows(fun, jac, seeds)
    found = []
    while len(points):
        found.append(points[0])
        points = points[np.abs(points - points[0]).max(axis=1) > 1e-8]
    found.sort(key=lambda p: tuple(np.round(p, 9)))
    return np.array(found)


@functools.cache
def _census_case(name, a):
    """A system of the equivalence test and its full-grid equilibria."""
    if name.endswith("_full"):
        system = load_reference(name)
    else:
        red = build_reduced(int(name[-1]), a, 1.0)
        system = red if name.startswith("reduced") else to_quasi_harmonic(red)
    return system, _full_grid_equilibria(system)


@pytest.fixture()
def newton_rows(monkeypatch):
    """The number of seeds of each batch that find_equilibria runs."""
    rows = []

    def counting(fun, jac, x):
        rows.append(len(x))
        return _newton_rows(fun, jac, x)

    monkeypatch.setattr("fpualt.dynamics._newton_rows", counting)
    return rows


class TestSeedRules:
    @pytest.mark.parametrize("name, a", [
        *((f"{kind}{p}", a) for p in (3, 5) for kind in ("reduced", "qh")
          for a in (0.01, 0.3, 3.0)),
        ("p3_full", None), ("p5_full", None)])
    def test_matches_the_full_grid(self, name, a):
        # every point that Newton reaches from a grid seed is one of the
        # census's points, which come from the closed-form seeds
        system, expected = _census_case(name, a)
        got = np.array([r.point for r in find_equilibria(system)])
        assert len(got) == 2 ** system.dof
        dist = np.abs(expected[:, None, :] - got[None, :, :]).max(axis=2)
        assert dist.min(axis=1).max() <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda: build_reduced(5, 0.01, 1.0),
        lambda: to_quasi_harmonic(build_reduced(5, 0.01, 1.0)),
        lambda: load_reference("p5_full")], ids=["reduced", "built", "table"])
    def test_runs_one_seed_per_point(self, make, newton_rows):
        assert len(find_equilibria(make())) == 16
        assert newton_rows == [16]

    def test_stops_at_the_bezout_bound(self, systems, newton_rows):
        # the built p = 5 list given with p = 0 has no reduction: its 16
        # points come from the first grid batch, and the rest never run
        assert len(find_equilibria(_as_given_list(systems[5][2]))) == 16
        assert newton_rows == [4096]

    @pytest.mark.parametrize("p, a, entry, factor, batches, on_grid", [
        (3, 1e-3, 0, 1.00001, [4], 3), (5, 0.01, 3, 0.1, [16, 4096], 16),
        # factor 0 removes the entry: the fit's coupling patterns differ,
        # which ran only the grid (batches [81] and [4096])
        (3, 1e-3, 1, 0.0, [4], 3), (5, 0.3, 7, 0.0, [16], 16)])
    def test_an_edited_coupling_goes_on_to_the_grid(self, tmp_path, newton_rows, p, a,
                                                    entry, factor, batches, on_grid):
        # one coupling of a saved built system scaled by factor: the fit
        # still aligns its modes, so the closed-form seeds come first, but
        # its static points moved.  At p = 3 they find all 4, one of which
        # the grid misses; at p = 5 they find 14 of 16 for factor 0.1, and
        # the first grid batch the other 2.  Every point the full grid
        # finds is found.
        save_system(to_quasi_harmonic(build_reduced(p, a, 1.0)), tmp_path / "system.txt")
        saved = load_system(tmp_path / "system.txt")
        coeff = saved.monomials.coeff.copy()
        coeff[entry] *= factor
        system = QuasiHarmonicSystem(lambdas=saved.lambdas, labels=saved.labels,
                                     alpha=saved.alpha, p=saved.p, a=saved.a,
                                     given=(*saved.monomials[:3], coeff))
        got = np.array([r.point for r in find_equilibria(system)])
        expected = _full_grid_equilibria(system)
        assert newton_rows == batches
        assert len(got) == 2 ** system.dof and len(expected) == on_grid
        dist = np.abs(expected[:, None, :] - got[None, :, :]).max(axis=2)
        assert dist.min(axis=1).max() <= 1e-12

    def test_runs_every_grid_seed(self, newton_rows):
        # x0'' = x0^2 - x0 and x_i'' = -lambda_i x_i: 2 real roots of 2^4,
        # from all 9^4 grid seeds in batches of at most 4096
        system = QuasiHarmonicSystem(lambdas=np.array([1.0, 2.0, 3.0, 4.0]),
                                     given=([0], [0], [0], [1.0]),
                                     labels=(None,) * 4, alpha=1.0)
        expected = _full_grid_equilibria(system)
        got = np.array([r.point for r in find_equilibria(system)])
        assert newton_rows == [4096, 9 ** 4 - 4096]
        assert len(expected) == 2
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12


def _as_given_list(qh):
    """A built system's coupling given as a list, with p = 0: a system
    with no reduction, so its census runs the grid."""
    return QuasiHarmonicSystem(lambdas=qh.lambdas, labels=qh.labels,
                               alpha=qh.alpha, given=qh.monomials)


class TestBatchedNewton:
    @pytest.mark.parametrize("p, grid", [(3, 9), (5, 5)])
    def test_matches_per_seed_search(self, systems, monkeypatch, p, grid):
        # at p = 5 the per-seed reference would take seconds on the 9^4 seeds
        axis = np.linspace(-4.0, 4.0, grid)
        monkeypatch.setattr("fpualt.dynamics.EQUILIBRIUM_GRID", axis)
        system = _as_given_list(systems[p][2])
        expected = _newton_per_seed(system, axis)
        got = np.array([r.point for r in find_equilibria(system)])
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12

    def test_singular_seed_dropped(self):
        # xdd = x^2 - 2x: the Jacobian 2x - 2 is singular at the seed 1,
        # which is dropped; the other seeds still find 0 and 2.
        sys = QuasiHarmonicSystem(lambdas=np.array([2.0]),
                                  given=([0], [0], [0], [1.0]),
                                  labels=(None,), alpha=1.0)
        assert sys.jac(np.array([1.0]))[0, 0] == 0.0
        reports = find_equilibria(sys)
        assert [float(r.point[0]) for r in reports] == [0.0, 2.0]


def _assert_same_points(got, want, rel):
    """got and want hold the same points in any order: each point of one
    lies within rel of want's largest coordinate of a point of the other."""
    assert got.shape == want.shape
    dist = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    tol = rel * np.abs(want).max()
    assert dist.min(axis=0).max() <= tol and dist.min(axis=1).max() <= tol


@functools.cache
def _census_forms(p, a, alpha):
    """{form: (census points, closed-form points)} of the reduced, built
    and saved-and-loaded p system, each in that form's coordinates."""
    red = build_reduced(p, a, alpha)
    qh = to_quasi_harmonic(red)
    with tempfile.TemporaryDirectory() as tmp:
        save_system(qh, Path(tmp) / "system.txt")
        loaded = load_system(Path(tmp) / "system.txt")
    points = uniform_tension_points(p, alpha)
    modal = points @ qh.basis.t_inv.T
    return {form: (np.array([r.point for r in find_equilibria(system)]), want)
            for form, system, want in (("reduced", red, points), ("built", qh, modal),
                                       ("loaded", loaded, modal))}


# (p, a, alpha) of the oracle before the census had closed-form seeds
_ORACLE_CASES = [*((p, a, alpha) for p in (3, 5) for a in (1e-3, 0.01, 0.3, 3.0)
                   for alpha in (1.0, 0.7, -2.0)), (7, 0.01, 1.0)]

# (a, alpha) of the census cases, each run at p = 3, 5 and 7: the oracle's
# and smaller a, and the README's alpha rule up to alpha = 1e8, where the
# points lie within 1e-7 of the origin
_CENSUS_CASES = [(1e-3, 1.0), (0.01, 1.0), (0.03, 1.0), (0.3, 1.0), (3.0, 1.0),
                 (1e-4, 1.0), (1e-3, 0.7), (0.01, 0.7), (0.3, 0.7), (3.0, 0.7),
                 (1e-3, -2.0), (0.01, -2.0), (0.3, -2.0), (3.0, -2.0),
                 (0.01, 0.1), (0.01, 0.01), (0.01, -0.3), (0.01, 10.0),
                 (1e-3, 0.01), (0.3, 1e-3), (0.01, 1e8)]


def _uniform_tension_loop(p, alpha):
    """The closed form one point at a time, as a reference.

    With fixed ends, D^T (e + alpha e^2) = 0 holds exactly when every
    bond carries one tension c = e + alpha e^2, so each extension is
    e = (-1 +- s) / (2 alpha), s = sqrt(1 + 4 alpha c), and the ends
    q_0 = q_p = 0 ask for sum e = 0.  With k bonds on the + branch that
    gives s = p / (2k - p), which is positive for k = (p+1)/2 .. p: the
    2^(p-1) points q = cumsum(e), the same for every a.
    """
    points = []
    for k in range((p + 1) // 2, p + 1):
        s = p / (2 * k - p)
        for plus in itertools.combinations(range(p), k):
            e = np.full(p, (-1.0 - s) / (2.0 * alpha))
            e[list(plus)] = (-1.0 + s) / (2.0 * alpha)
            points.append(np.cumsum(e)[:-1])
    return np.array(points)


class TestUniformTensionOracle:
    @pytest.mark.parametrize("p, alpha", [(3, 1.0), (5, -0.3), (7, 0.1)])
    def test_closed_form_points_are_static(self, p, alpha):
        # the loop's points bit for bit: 2^(p-1) distinct points at which
        # every bond of the reduced system carries one tension, so that
        # its force vanishes at every a
        points = uniform_tension_points(p, alpha)
        assert points.shape == (2 ** (p - 1), p - 1)
        assert (sorted(map(tuple, points.tolist()))
                == sorted(map(tuple, _uniform_tension_loop(p, alpha).tolist())))
        gaps = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() >= 0.1 / abs(alpha)
        for a in (1e-3, 3.0):
            red = build_reduced(p, a, alpha)
            e = points @ red.bonds.T
            tension = e + alpha * e * e
            scale = np.abs(tension).max()
            assert np.abs(tension - tension[:, :1]).max() <= 1e-13 * scale
            assert np.abs(red.masses * red.accel(points)).max() <= 1e-13 * scale
        assert uniform_tension_points(p, 0.0).tolist() == [[0.0] * (p - 1)]

    @pytest.mark.parametrize("p", [1, 4, 3.0, 15, 199])
    def test_closed_form_refuses_what_the_census_cannot_run(self, p):
        # an even p has no reduction, and p = 199 would list 2^198 points
        with pytest.raises(ValueError, match=r"p must be an odd integer in 3\.\.13"):
            uniform_tension_points(p, 1.0)

    @pytest.mark.parametrize("p, a, alpha", _ORACLE_CASES)
    @pytest.mark.parametrize("form", ["reduced", "built", "loaded"])
    def test_census_is_the_uniform_tension_set(self, p, a, alpha, form):
        # no point is missed in any form: the reduced census is the sorted
        # closed form, and a modal census the same points through T^-1.
        # Measured within 1.8e-15 for the reduced census, and 6.5e-14 of
        # the largest coordinate for the modal one
        got, want = _census_forms(p, a, alpha)[form]
        if form == "reduced":
            want = np.array(sorted(want, key=lambda q: tuple(np.round(q, 9))))
            assert got.shape == want.shape == (2 ** (p - 1), p - 1)
            assert np.abs(got - want).max() <= 1e-14
        else:
            _assert_same_points(got, want, 2e-13)

    @pytest.mark.parametrize("p, a, alpha", [(p, a, alpha) for a, alpha in _CENSUS_CASES
                                             for p in (3, 5, 7)])
    @pytest.mark.parametrize("form", ["reduced", "built", "loaded"])
    def test_census_scales_as_one_over_alpha(self, p, a, alpha, form):
        # every case, in every form, has its 2^(p-1) points, and (the
        # README's alpha rule) is the alpha = 1 census divided by alpha.
        # Measured: the reduced census within 3.7e-16 of the largest
        # coordinate, in order; a modal one within 1.7e-13, but 5.8e-13 at
        # a = 1e-4, where the acoustic coordinates of T^-1 grow like
        # a^(-1/2) beside the optical ones and lose that many digits; the
        # alpha rule within 1.6e-14
        got, want = _census_forms(p, a, alpha)[form]
        if form == "reduced":
            want = np.array(sorted(want, key=lambda q: tuple(np.round(q, 9))))
            assert got.shape == want.shape == (2 ** (p - 1), p - 1)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        else:
            _assert_same_points(got, want, 1e-12 if a == 1e-4 else 2e-13)
        _assert_same_points(got, _census_forms(p, a, 1.0)[form][0] / alpha, 1e-12)


class TestModalCensusGap:
    # In modal coordinates the acoustic coordinate of one p = 3 point grows
    # like a^(-1/2) / alpha: 63.3 at (a, alpha) = (1e-3, 1), 11.6 at
    # (0.03, 1), -31.6 at (1e-3, -2) and -10.0 at (0.01, -2), far outside
    # the grid [-4, 4]^2 from which the census once found 3 of the 4
    # points.  The closed-form seeds find all 4.
    @pytest.mark.parametrize("a, alpha", [(1e-3, 1.0), (0.03, 1.0),
                                          (1e-3, -2.0), (0.01, -2.0)])
    def test_finds_every_point(self, a, alpha):
        assert len(find_equilibria(to_quasi_harmonic(build_reduced(3, a, alpha)))) == 4


class TestCensusAtSmallAlpha:
    # The points of a grid-seeded system scale as 1/alpha, so at small
    # alpha they left the grid [-4, 4]^d: at alpha = 0.03, 1e-3 and 1e-6
    # the census found 1, 1, 1 points of cartoon 2's 5, 3, 1, 1 of
    # cartoon 1's 3 and 1, 1, 1 of p5_sub14's and p5_sub23's 3.  It now
    # solves at alpha / |alpha| and divides the points by |alpha|.
    @pytest.mark.parametrize("make, count", [
        (lambda: cartoon_system(2), 5), (lambda: cartoon_system(1), 3),
        (lambda: load_reference("p5_sub14"), 3), (lambda: load_reference("p5_sub23"), 3)],
        ids=["cartoon2", "cartoon1", "p5_sub14", "p5_sub23"])
    def test_keeps_every_point(self, make, count):
        system = make()
        for alpha in (1.0, 0.03, 1e-3, 1e-6):
            assert len(find_equilibria(dataclasses.replace(system, alpha=alpha))) == count


class TestFirstOrderResponse:
    def test_reference_system_mean_level(self):
        ref = load_reference("p3_full")
        resp = first_order_response(ref, driven=1, driver=2, amplitude=0.2)
        assert resp.k0 == pytest.approx(-0.0528, abs=2e-4)
        assert abs(resp.k2) < 1e-3

    def test_reference_rhs_forcing_value(self):
        # at x = (0, 0.2) the acoustic equation of the published two-mode
        # system is forced by its x2^2 coefficient alone
        from fpualt import eval_qh_rhs
        ref = load_reference("p3_full")
        rhs = eval_qh_rhs(ref, np.array([0.0, 0.2]))
        assert rhs[0] == pytest.approx(-0.0395000057 * 0.04, rel=1e-12)

    def test_zero_amplitude(self, systems):
        resp = first_order_response(systems[3][2], 1, 2, 0.0)
        t = np.linspace(0, 100, 101)
        assert np.all(resp(t) == 0.0)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_non_finite_amplitude_refused(self, amplitude):
        # nan gave a NaN response and inf a forcing of -inf, both silently
        with pytest.raises(ValueError, match=rf"^amplitude must be a finite "
                                             rf"number, got {amplitude}$"):
            first_order_response(load_reference("p3_full"), driven=1, driver=2,
                                 amplitude=amplitude)

    @pytest.mark.parametrize("lambdas, driven, message", [
        ([4.0, 1.0], 1, "exact 2:1 resonance"),
        ([4.0, 1.0], 2, "^driven/driver must be distinct modes, got 2 twice$"),
        ([-1.0, 1.0], 1, "^response formula requires positive eigenvalues$")])
    def test_resonance_rejected(self, lambdas, driven, message):
        sys = QuasiHarmonicSystem(lambdas=np.array(lambdas),
                                  given=tensor_monomials(np.ones((2, 2, 2))),
                                  labels=(None, None), alpha=1.0)
        with pytest.raises(ValueError, match=message):
            first_order_response(sys, driven=driven, driver=2, amplitude=0.1)

    def test_matches_integration_on_reference_system(self):
        # the published two-mode system integrated from the optical mode:
        # closed form tracks the integration within 0.03 over 200 units
        ref = load_reference("p3_full")
        resp = first_order_response(ref, driven=1, driver=2, amplitude=0.2)
        y0 = np.array([0.0, 0.2, 0.0, 0.0])
        tr = integrate(ref, y0, IntegratorConfig(t_end=200.0))
        dev = np.abs(resp(tr.times) - tr.positions()[:, 0]).max()
        assert dev <= 0.03
        # mean level and minimum of the forced mode
        x1 = tr.positions()[:, 0]
        assert x1.min() == pytest.approx(-0.106, abs=0.01)
        assert x1.min() <= -0.1 and x1.max() <= 1e-3

    def test_our_frame_consistency(self, systems):
        # same check on the pipeline-built system in its own normalisation
        _, _, qh = systems[3]
        amp = 0.35
        resp = first_order_response(qh, driven=1, driver=2, amplitude=amp)
        tr = integrate(qh, np.array([0.0, amp, 0.0, 0.0]),
                       IntegratorConfig(t_end=200.0))
        dev = np.abs(resp(tr.times) - tr.positions()[:, 0]).max()
        assert dev <= 0.2 * max(abs(resp.k0) * 2, 1e-9)


class TestCartoons:
    def test_validation(self):
        with pytest.raises(ValueError, match="cartoon id"):
            cartoon_system(3)
        with pytest.raises(ValueError, match="two oscillators"):
            cartoon_system(1, omegas=(0.1, 1.0, 1.05))
        with pytest.raises(ValueError, match="omega1 must be a finite number"):
            cartoon_system(1, omegas=(math.inf, 1.0))
        with pytest.raises(ValueError, match="omega3 must be a finite number"):
            cartoon_system(2, omegas=(0.1, 1.0, math.nan))

    def test_zero_state_stays_zero(self):
        car = cartoon_system(1)
        tr = integrate(car, np.zeros(4), IntegratorConfig(t_end=50.0))
        assert np.abs(tr.states).max() == 0.0

    def test_bounded_cartoon_action(self, scenario_results):
        # E1 stays bounded; its peak (about 3.0 x E1(0)) is checked against
        # an independent scipy DOP853 run on the same 1-unit samples
        tr = scenario_results["cartoon_bounded"].trajectory
        car = cartoon_system(1)
        e1 = mode_actions(car, tr).actions[:, 0]
        assert e1[0] == pytest.approx(5e-5, rel=1e-12)
        assert e1.max() <= 4.0 * e1[0]

        scipy_ivp = pytest.importorskip("scipy.integrate")

        def f(t, y):                # xdd + 0.01 x = x y,  ydd + y = x^2 / 2
            x, u, vx, vu = y
            return [vx, vu, -0.01 * x + x * u, -u + 0.5 * x * x]

        ref = scipy_ivp.solve_ivp(f, [0.0, tr.times[-1]], [0.1, 0.1, 0.0, 0.0],
                                  method="DOP853", rtol=1e-12, atol=1e-13,
                                  t_eval=tr.times)
        e1_ref = 0.5 * (ref.y[2] ** 2 + 0.01 * ref.y[0] ** 2)
        assert e1.max() == pytest.approx(e1_ref.max(), rel=1e-6)

    def test_forced_cartoon_action_grows(self, scenario_results):
        tr = scenario_results["cartoon_forced"].trajectory
        car = cartoon_system(2)
        e1 = mode_actions(car, tr).actions[:, 0]
        assert e1[0] == pytest.approx(5e-5, rel=1e-12)
        assert e1.max() >= 10.0 * e1[0]
