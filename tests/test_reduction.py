import dataclasses
import math

import numpy as np
import pytest

from fpualt import (ChainParams, FullState, IntegratorConfig, ReducedState,
                    build_chain, build_reduced, eval_accel_full,
                    eval_accel_reduced, hamiltonian, integrate, lift_symmetric,
                    reduced_energy, symmetry_residual)
from fpualt.reduction import ReducedSystem


def _construct(p, a, alpha=1.0):
    return ReducedSystem(p=p, a=a, alpha=alpha)


class TestBuild:
    # the builder and the constructor are one path with the same refusals
    @pytest.mark.parametrize("make", [build_reduced, _construct],
                             ids=["build_reduced", "ReducedSystem"])
    def test_validation(self, make):
        for bad_p in (4, 2, 1, -3, 201, 100001, 3.0, np.float64(5.0), 5.5):
            with pytest.raises(ValueError, match="odd integer"):
                make(bad_p, 0.01)
        # an integral float failed inside numpy's eye, not at the guard
        with pytest.raises(ValueError, match=r"^p must be an odd integer in "
                                             r"3\.\.199, got 3\.0$"):
            make(3.0, 0.01)
        assert make(np.int64(5), 0.01).dof == 4
        with pytest.raises(ValueError, match="positive"):
            make(5, 0.0)
        for a in (1e-320, 5e-324):
            with pytest.raises(ValueError, match=rf"^mass parameter a = {a!r} "
                                                 r"is too small: 1/a overflows$"):
                make(5, a)
        for a, alpha, name in ((math.inf, 1.0, "a"), (math.nan, 1.0, "a"),
                               (0.01, math.inf, "alpha"),
                               (0.01, math.nan, "alpha")):
            with pytest.raises(ValueError, match=f"^{name} must be a finite"):
                make(5, a, alpha)

    def test_made_from_p_a_alpha(self):
        # masses, bonds and beta are derived, never given: not by the
        # constructor and not by dataclasses.replace.  So neither a system
        # with one bond 5 % stiffer (a stiffness the sine modes do not
        # diagonalise) nor one without bonds (stiffness 0) can be made.
        red = build_reduced(5, 0.01)
        assert [f.name for f in dataclasses.fields(red) if f.init] == ["alpha", "p", "a"]
        assert red.beta == 0.0
        bent = red.bonds.copy()
        bent[2] *= 1.05
        for name, value in (("masses", red.masses), ("masses", np.ones(4)),
                            ("bonds", red.bonds), ("bonds", bent),
                            ("bonds", np.zeros((5, 4))), ("beta", 0.5)):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                ReducedSystem(p=5, a=0.01, alpha=1.0, **{name: value})
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                dataclasses.replace(red, **{name: value})

    @pytest.mark.parametrize("p", [3, 9, 47])
    def test_replace_is_the_built_system(self, p, rng):
        # replace at another alpha is, bit for bit, the system built there
        replaced = dataclasses.replace(build_reduced(p, 0.3, 1.0), alpha=2.0)
        built = build_reduced(p, 0.3, 2.0)
        assert np.array_equal(replaced.masses, built.masses)
        assert np.array_equal(replaced.bonds, built.bonds)
        rows = rng.uniform(-0.5, 0.5, (6, 2 * (p - 1)))
        q = rows[:, :p - 1]
        assert np.array_equal(replaced.accel(q), built.accel(q))
        assert np.array_equal(replaced.accel(q[0], np.empty(p - 1)),
                              built.accel(q[0], np.empty(p - 1)))
        assert np.array_equal(replaced.jac(q), built.jac(q))
        assert np.array_equal(replaced.energy(rows), built.energy(rows))

    def test_matrices(self):
        sys = build_reduced(5, 0.01, 1.0)
        assert np.array_equal(sys.masses, [1, 100, 1, 100])
        k = sys.stiffness
        assert np.array_equal(np.diag(k), [2, 2, 2, 2])
        assert np.array_equal(np.diag(k, 1), [-1, -1, -1])
        assert np.array_equal(k, k.T)
        # K is read from the bonds, not stored beside them where it could differ
        assert "stiffness" not in {f.name for f in dataclasses.fields(sys)}

    def test_p3_equations_explicit(self, rng):
        # the two-row system: qdd1 + 2q1 - q2 = a(q2^2 - 2q1q2),
        #                   m qdd2 + 2q2 - q1 = a(2q1q2 - q1^2)
        sys = build_reduced(3, 0.01, 1.0)
        for _ in range(20):
            q = rng.uniform(-1.5, 1.5, 2)
            acc = eval_accel_reduced(sys, ReducedState(q, np.zeros(2)))
            byhand = np.array([
                -2 * q[0] + q[1] + (q[1] ** 2 - 2 * q[0] * q[1]),
                0.01 * (-2 * q[1] + q[0] + (2 * q[0] * q[1] - q[0] ** 2)),
            ])
            assert np.abs(acc - byhand).max() <= 1e-13

    def test_p5_last_row(self, rng):
        # m qdd4 + 2 q4 - q3 = alpha (2 q3 q4 - q3^2)
        sys = build_reduced(5, 0.01, 2.0)
        q = rng.uniform(-1, 1, 4)
        acc = eval_accel_reduced(sys, ReducedState(q, np.zeros(4)))
        expected = 0.01 * (-2 * q[3] + q[2] + 2.0 * (2 * q[2] * q[3] - q[2] ** 2))
        assert acc[3] == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("p", [3, 5, 9, 13])
    def test_gradient_oracle(self, p, rng):
        # The right-hand side is exactly -grad of the fixed-end potential.
        # U is a cubic polynomial, so the 5-point fourth-order stencil has
        # no truncation error and the comparison is limited only by
        # rounding (~1e-12 at h = 1e-3).
        sys = build_reduced(p, 0.01, 1.0)
        d = p - 1
        h = 1e-3

        def u(q):     # the energy at rest is the fixed-end potential
            return sys.energy(np.concatenate([q, np.zeros(d)]))

        for _ in range(10):
            q = rng.uniform(-0.8, 0.8, d)
            rhs = sys.masses * sys.accel(q)      # the force -K q + alpha N(q)
            grad = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                grad[j] = (u(q - 2 * e) - 8 * u(q - e)
                           + 8 * u(q + e) - u(q + 2 * e)) / (12 * h)
            assert np.abs(rhs + grad).max() <= 1e-10


class TestEnergy:
    def test_zero(self):
        sys = build_reduced(3, 0.01)
        assert reduced_energy(sys, ReducedState(np.zeros(2), np.zeros(2))) == 0.0

    def test_quadratic_case(self):
        sys = build_reduced(3, 0.01, alpha=0.0)
        e = reduced_energy(sys, ReducedState([1.0, 0.0], [0.0, 0.0]))
        assert e == pytest.approx(1.0)   # V(1) + V(-1) + V(0) with alpha = 0

    def test_conservation(self, rng):
        # same mass-ratio sensitivity as the full chain: 1e-12 tolerances
        # are what the 1e-8 drift bound actually needs over 2000 units
        sys = build_reduced(3, 0.01, 1.0)
        st = ReducedState(rng.uniform(-0.1, 0.1, 2), rng.uniform(-0.01, 0.01, 2))
        e0 = reduced_energy(sys, st)
        tr = integrate(sys, st, IntegratorConfig(t_end=2000.0, sample_dt=10.0,
                                                 abs_tol=1e-12, rel_tol=1e-12))
        assert tr.ok
        energies = [reduced_energy(sys, ReducedState(y[:2], y[2:])) for y in tr.states]
        assert max(abs(e - e0) for e in energies) / abs(e0) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dof"):
            reduced_energy(build_reduced(5, 0.01), ReducedState(np.zeros(2), np.zeros(2)))


class TestLift:
    def test_p3_pattern(self):
        st = ReducedState([1.5, -0.25], [0.5, 0.75])
        full = lift_symmetric(st)
        assert np.array_equal(full.q, [1.5, -0.25, 0, 0.25, -1.5, 0])
        assert np.array_equal(full.v, [0.5, 0.75, 0, -0.75, -0.5, 0])

    def test_zero(self):
        full = lift_symmetric(ReducedState(np.zeros(4), np.zeros(4)))
        assert np.all(full.q == 0) and full.q.size == 10

    def test_p5_example(self):
        full = lift_symmetric(ReducedState([1.0, 2, 3, 4], np.zeros(4)))
        assert np.array_equal(full.q, [1, 2, 3, 4, 0, -4, -3, -2, -1, 0])


class TestSymmetryInvariance:
    @pytest.mark.parametrize("p,n_states,amp", [(3, 30, 1.0), (5, 100, 1.0)])
    def test_residual_small(self, p, n_states, amp, rng):
        chain = build_chain(ChainParams(p, 0.01, 1.0))
        red = build_reduced(p, 0.01, 1.0)
        for _ in range(n_states):
            st = ReducedState(rng.uniform(-amp, amp, p - 1),
                              rng.uniform(-amp, amp, p - 1))
            assert symmetry_residual(chain, st) <= 1e-12
            acc_full = eval_accel_full(chain, lift_symmetric(st))
            acc_red = eval_accel_reduced(red, st)
            assert np.abs(acc_full[: p - 1] - acc_red).max() <= 1e-12

    def test_zero_state(self):
        chain = build_chain(ChainParams(3, 0.01, 1.0))
        assert symmetry_residual(chain, ReducedState(np.zeros(2), np.zeros(2))) == 0.0

    def test_dimension_check(self):
        chain = build_chain(ChainParams(4, 0.01, 1.0))
        with pytest.raises(ValueError, match="expected"):
            symmetry_residual(chain, ReducedState(np.zeros(2), np.zeros(2)))

    def test_full_energy_is_twice_reduced(self, rng):
        # the lifted state's chain energy equals exactly twice the reduced
        # energy: every fixed-end bond difference appears twice on the ring
        for p in (3, 5, 9):
            chain = build_chain(ChainParams(p, 0.01, 1.0))
            red = build_reduced(p, 0.01, 1.0)
            for _ in range(10):
                st = ReducedState(rng.uniform(-1, 1, p - 1),
                                  rng.uniform(-1, 1, p - 1))
                h_full = hamiltonian(chain, lift_symmetric(st))
                e_red = reduced_energy(red, st)
                assert h_full == pytest.approx(2.0 * e_red, rel=1e-13)
