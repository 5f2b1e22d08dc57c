"""The one system interface: ``dof``, ``accel(q, out=None)``,
``energy(states)`` and, for reduced and quasi-harmonic systems, ``jac(q)``.

Every system kind (full chain, reduced, quasi-harmonic, cartoon) has a
single right-hand side, which fills a given ``out``, and a vectorised
energy; the public ``eval_*`` and energy entry points delegate to them.
Every kind but the full chain has the acceleration Jacobian ``jac``, the
derivative of ``accel`` at one state or at rows.  Cartoons are
quasi-harmonic systems with fixed, fully symmetric tensors.
"""

import dataclasses
import re
import subprocess
import sys

import numpy as np
import pytest

from fpualt import (ChainParams, FullState, IntegratorConfig, ReducedState,
                    ScenarioError, build_chain, build_reduced, cartoon_system,
                    energy_drift, eval_accel_full, eval_accel_reduced,
                    eval_qh_rhs, extract_subsystem, hamiltonian, integrate,
                    load_reference, reduced_energy, run_scenario,
                    scaling_equivalence, to_quasi_harmonic)
from fpualt.chain import BondSystem
from fpualt.dynamics import as_state_vector
from fpualt.spectral import ModalBasis, QuasiHarmonicSystem, eigendecompose

from conftest import REPO, SCENARIO_DIR, dense_bilinear

INTERFACE_SYSTEMS = ("full6", "reduced5", "qh5", "qh47", "p3_full",
                     "cartoon1", "cartoon2")


def _full_entry(system, y):
    d = system.dof
    return eval_accel_full(system, FullState(y[:d], y[d:]))


def _reduced_entry(system, y):
    d = system.dof
    return eval_accel_reduced(system, ReducedState(y[:d], y[d:]))


def _qh_entry(system, y):
    return eval_qh_rhs(system, y[:system.dof])


@pytest.fixture(scope="module")
def interface_systems(systems):
    """Name -> (system, the public eval_* entry point of its kind)."""
    return {
        "full6": (build_chain(ChainParams(n_pairs=3, a=0.01)), _full_entry),
        "reduced5": (systems[5][0], _reduced_entry),
        "qh5": (systems[5][2], _qh_entry),
        "qh47": (systems[47][2], _qh_entry),
        "p3_full": (load_reference("p3_full"), _qh_entry),
        "cartoon1": (cartoon_system(1), _qh_entry),
        "cartoon2": (cartoon_system(2), _qh_entry),
        "qh3_rescaled": (_rescaled_p3(systems), _qh_entry),
    }


def _rescaled_p3(systems):
    """p = 3 on a basis with rescaled columns, so T^T M T = diag(3.7^2, 0.04^2)."""
    red, basis, _ = systems[3]
    d = np.array([3.7, 0.04])
    rebased = ModalBasis(lambdas=basis.lambdas.copy(), t=basis.t * d[None, :],
                         t_inv=basis.t_inv / d[:, None], labels=basis.labels)
    return to_quasi_harmonic(red, rebased)


def _states(system, rng, n=7, amp=0.2):
    return rng.uniform(-amp, amp, (n, 2 * system.dof))


@pytest.mark.parametrize("name", INTERFACE_SYSTEMS)
def test_accel_is_the_eval_entry_point(name, interface_systems, rng):
    system, entry = interface_systems[name]
    for y in _states(system, rng):
        assert np.array_equal(system.accel(y[:system.dof]), entry(system, y))


@pytest.mark.parametrize("name", INTERFACE_SYSTEMS)
def test_accel_fills_out(name, interface_systems, rng):
    system, _ = interface_systems[name]
    d = system.dof
    for y in _states(system, rng):
        out = np.empty(d)
        assert system.accel(y[:d], out) is out
        assert np.array_equal(out, system.accel(y[:d]))


@pytest.mark.parametrize("name", INTERFACE_SYSTEMS)
def test_jac_is_the_derivative_of_accel(name, interface_systems, rng):
    # every accel is quadratic in q (beta = 0), so its central difference
    # is exact up to rounding, and the rows form is the per-state one
    system, _ = interface_systems[name]
    if not hasattr(system, "jac"):
        assert name == "full6"
        return
    d, h = system.dof, 1e-3
    rows = _states(system, rng)[:, :d]
    jacs = system.jac(rows)
    assert jacs.shape == (len(rows), d, d)
    for q, jac_rows in zip(rows, jacs):
        jac = system.jac(q)
        assert np.abs(jac_rows - jac).max() <= 1e-14 * np.abs(jac).max()
        for dq in rng.uniform(-1.0, 1.0, (3, d)):
            central = (system.accel(q + h * dq) - system.accel(q - h * dq)) / (2 * h)
            scale = np.abs(system.accel(q + h * dq)).max() / h + np.abs(jac).max()
            assert np.abs(jac @ dq - central).max() <= 1e-14 * scale


@pytest.mark.parametrize("name", INTERFACE_SYSTEMS)
def test_energy_is_vectorised_over_rows(name, interface_systems, rng):
    system, _ = interface_systems[name]
    if system.energy is None:
        assert name == "p3_full"
        return
    states = _states(system, rng)
    rows = np.array([system.energy(y) for y in states])
    batch = system.energy(states)
    assert batch.shape == (len(states),)
    assert np.abs(batch - rows).max() <= 1e-14 * np.abs(rows).max()


def test_legacy_energies_delegate(interface_systems, rng):
    for name, legacy in (("full6", hamiltonian), ("reduced5", reduced_energy)):
        system, _ = interface_systems[name]
        d = system.dof
        for y in _states(system, rng):
            assert legacy(system, FullState(y[:d], y[d:])) == system.energy(y)


@pytest.mark.parametrize("name", ("qh5", "qh47", "qh3_rescaled"))
def test_bond_energy_matches_pull_back(name, interface_systems, rng):
    # T^T M T = diag(m) and U(q) = sum_b V((D q)_b): the modal energy
    # equals the reduced energy of the state q = T x, v_q = T v
    qh, _ = interface_systems[name]
    t, d = qh.basis.t, qh.dof
    for y in _states(qh, rng, amp=0.05):
        pulled = reduced_energy(qh.reduced, ReducedState(t @ y[:d], t @ y[d:]))
        assert qh.energy(y) == pytest.approx(pulled, rel=1e-12)


def test_rescaled_basis_energy_is_conserved(interface_systems):
    qh, _ = interface_systems["qh3_rescaled"]
    t_inv = qh.basis.t_inv
    y0 = np.concatenate([t_inv @ [0.2, 0.1], t_inv @ [0.0, 0.05]])
    tr = integrate(qh, y0, IntegratorConfig(t_end=50.0))
    assert tr.ok
    assert energy_drift(qh, tr) <= 1e-8


def test_symmetric_tensor_energy_matches_bond_energy(interface_systems, rng):
    # the pipeline tensor is fully symmetric, so the cubic-potential
    # energy of the same list, given, equals the built system's bond energy
    qh, _ = interface_systems["qh5"]
    tensor_only = QuasiHarmonicSystem(lambdas=qh.lambdas, given=qh.monomials,
                                      labels=qh.labels, alpha=qh.alpha)
    states = _states(qh, rng)
    assert np.abs(tensor_only.energy(states) - qh.energy(states)).max() <= 1e-14


@pytest.mark.parametrize("cid, potential", [
    (1, lambda x, lam: 0.5 * np.dot(lam, x * x) - 0.5 * x[0] ** 2 * x[1]),
    (2, lambda x, lam: 0.5 * np.dot(lam, x * x) - 0.2 * x[0] * x[1] * x[2]
     - 0.25 * (x[1] * x[2] ** 2 + x[1] ** 2 * x[2])),
])
def test_cartoon_force_is_minus_gradient(cid, potential, rng):
    car = cartoon_system(cid)
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, car.dof)
        grad = np.array([(potential(x + h * e, car.lambdas)
                          - potential(x - h * e, car.lambdas)) / (2 * h)
                         for e in np.eye(car.dof)])
        assert np.abs(car.accel(x) + grad).max() <= 1e-9
        y = np.concatenate([x, np.zeros(car.dof)])
        assert car.energy(y) == pytest.approx(potential(x, car.lambdas), abs=1e-15)


def test_invariant_subsystem_conserves_energy(systems):
    sub = extract_subsystem(systems[9][2], (5, 6))
    tr = integrate(sub, np.array([0.05, 0.1, 0.0, 0.0]),
                   IntegratorConfig(t_end=100.0))
    assert tr.ok
    assert energy_drift(sub, tr) <= 1e-8


def _monomial_loop(qh):
    d, b = qh.dof, dense_bilinear(qh)
    for i in range(d):
        for j in range(d):
            for k in range(j, d):
                c = b[i, j, k] * (1.0 if j == k else 2.0)
                if c != 0.0:
                    yield i + 1, j + 1, k + 1, c


@pytest.mark.parametrize("which", ("p9", "p5_full"))
def test_monomial_entries_match_loop(which, systems):
    qh = systems[9][2] if which == "p9" else load_reference("p5_full")
    i, j, k, c = qh.monomials
    assert list(zip((i + 1).tolist(), (j + 1).tolist(), (k + 1).tolist(),
                    c.tolist())) == list(_monomial_loop(qh))


def test_actions_refused_without_modal_coordinates(tmp_path, monkeypatch):
    # the kinds table refuses the request before anything is written
    scn = tmp_path / "red.scn"
    scn.write_text("[system]\nkind = reduced\np = 3\n[initial]\nq1 = 0.1\n"
                   "[integrate]\nt_end = 2\n[outputs]\ntrajectory = true\n"
                   "actions = true\n")
    with pytest.raises(ScenarioError, match=(
            rf"^{re.escape(str(scn))}:10: kind 'reduced' cannot write output "
            r"'actions'; it writes trajectory, energy$")):
        run_scenario(scn, tmp_path / "out")
    assert not (tmp_path / "out").exists()

    # an error raised inside mode_actions still propagates
    def broken(system, trajectory):
        raise TypeError("inside mode_actions")

    monkeypatch.setattr("fpualt.scenarios.mode_actions", broken)
    with pytest.raises(TypeError, match="inside mode_actions"):
        run_scenario(SCENARIO_DIR / "cartoon_bounded.scn", tmp_path / "out",
                     overrides={"t_end": 2.0})


@pytest.mark.parametrize("call, error, message", [
    (lambda: FullState(np.zeros(3), np.zeros(2)), ValueError,
     r"q and v must be 1-d arrays of equal length, got shapes \(3,\) and \(2,\)"),
    (lambda: as_state_vector(cartoon_system(1), np.zeros(3)), ValueError,
     "state vector has length 3, expected 4"),
    (lambda: eval_qh_rhs(load_reference("p3_full"), np.zeros(3)), ValueError,
     "state has 3 modes, system has 2"),
    (lambda: to_quasi_harmonic(build_reduced(5, 0.01),
                               eigendecompose(build_reduced(3, 0.01))), ValueError,
     "basis dimension does not match the system"),
    (lambda: scaling_equivalence(load_reference("p3_full"), dataclasses.replace(
        load_reference("p3_full"), given=([], [], [], []))), ValueError,
     "no common nonzero tensor entries"),
    (lambda: load_reference("p4_full"), KeyError,
     r"unknown reference table 'p4_full'; available: \['p3_full', "),
], ids=["state_shape", "state_vector_length", "qh_rhs_size", "basis_size",
        "no_common_entries", "unknown_table"])
def test_bad_input_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("make", [
    lambda: BondSystem(masses=np.ones(2), bonds=np.eye(2), alpha=1.0),
    lambda: build_chain(ChainParams(n_pairs=3, a=0.01)),
    lambda: build_reduced(5, 0.01),
    lambda: eigendecompose(build_reduced(5, 0.01)),
    lambda: to_quasi_harmonic(build_reduced(5, 0.01)),
    lambda: load_reference("p3_full"),
    lambda: cartoon_system(1),
], ids=["bond", "full", "reduced", "basis", "built_qh", "loaded_qh", "cartoon"])
def test_systems_compare_by_identity(make):
    # Array fields have no one truth value, so every system kind keeps
    # object identity for == and hash: two equal-valued systems differ,
    # and each is a dict key.
    one, other = make(), make()
    assert one == one and one != other
    assert hash(one) == hash(one)
    assert {one: 1, other: 2}[one] == 1


def test_benchmark_modules_import():
    # the benchmark imports these public names; removing one must fail here
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import common, wl_scenarios, wl_ensemble, wl_structure")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "src"), str(REPO / "perfbench")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
