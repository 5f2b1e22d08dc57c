import dataclasses
import math

import numpy as np
import pytest

from fpualt import (ChainParams, FullChainSystem, FullState, IntegratorConfig,
                    ReducedState, build_chain, embed_chain, embed_state,
                    eval_accel_full, hamiltonian, integrate,
                    linear_spectrum_full, symmetry_residual, total_momentum)
from fpualt.dynamics import relative_drift
from fpualt.spectral import all_pair_eigenvalues


def chain6():
    return build_chain(ChainParams(n_pairs=3, a=0.01, alpha=1.0))


class TestBuild:
    def test_masses_alternate(self):
        sys = chain6()
        assert sys.n_particles == 6
        assert np.array_equal(sys.masses, [1, 100, 1, 100, 1, 100])

    def test_four_particles(self):
        assert build_chain(ChainParams(2, 0.01, 1.0)).n_particles == 4

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="must be positive"):
            build_chain(ChainParams(3, -1.0, 1.0))
        with pytest.raises(ValueError, match=r"^mass parameter a = 1e-320 is "
                                             r"too small: 1/a overflows$"):
            build_chain(ChainParams(3, 1e-320, 1.0))
        # an integral float failed inside numpy, not at the guard
        for n_pairs in (1, 200, 2.0, np.float64(3.0)):
            with pytest.raises(ValueError, match=rf"^n_pairs must be in 2\.\.199, "
                                                 rf"got {n_pairs}$"):
                build_chain(ChainParams(n_pairs, 0.01, 1.0))
        assert build_chain(ChainParams(np.int64(3), 0.01)).n_particles == 6

    @pytest.mark.parametrize("field", ("a", "alpha", "beta"))
    @pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
    def test_non_finite_params_refused(self, field, value):
        params = dataclasses.replace(ChainParams(3, 0.01), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            build_chain(params)


class TestMadeFromParameters:
    """A chain is its (n_pairs, a, alpha, beta): the masses and bonds are
    derived when it is made, never given, so the closed-form spectrum and
    the embedding describe the chain that ``accel`` and ``energy`` read."""

    def test_init_fields(self):
        chain = chain6()
        assert ([f.name for f in dataclasses.fields(chain) if f.init]
                == ["alpha", "beta", "n_pairs", "a"])
        assert not hasattr(chain, "params")

    def test_masses_and_bonds_cannot_be_given(self):
        # replace(chain, masses=ones) kept the a = 0.01 spectrum for an
        # equal-mass chain
        chain = chain6()
        for name, value in (("masses", np.ones(6)), ("masses", chain.masses),
                            ("bonds", np.eye(6)), ("bonds", chain.bonds)):
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                dataclasses.replace(chain, **{name: value})
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                FullChainSystem(n_pairs=3, a=0.01, alpha=1.0, **{name: value})

    def test_params_cannot_be_given(self):
        # a chain of 6 particles once took the params of 5 pairs, and a
        # chain with a = -5 and alpha = nan skipped every guard
        with pytest.raises(TypeError, match="unexpected keyword argument 'params'"):
            dataclasses.replace(chain6(), params=ChainParams(5, 0.3))
        with pytest.raises(TypeError, match="unexpected keyword argument 'params'"):
            FullChainSystem(params=ChainParams(1, -5.0), alpha=math.nan)

    def test_constructor_guards(self):
        with pytest.raises(ValueError, match=r"^n_pairs must be in 2\.\.199, got 1$"):
            FullChainSystem(n_pairs=1, a=-5.0, alpha=math.nan)
        with pytest.raises(ValueError, match="^alpha must be a finite number, got nan$"):
            FullChainSystem(n_pairs=3, a=-5.0, alpha=math.nan)
        with pytest.raises(ValueError, match="^mass parameter a must be positive, got -5.0$"):
            FullChainSystem(n_pairs=3, a=-5.0, alpha=1.0)

    def test_replace_is_another_chain(self):
        chain = dataclasses.replace(chain6(), n_pairs=5, a=0.3)
        assert chain.n_particles == 10
        assert np.array_equal(linear_spectrum_full(chain),
                              linear_spectrum_full(build_chain(ChainParams(5, 0.3))))


class TestAcceleration:
    def test_equilibrium(self):
        sys = chain6()
        acc = eval_accel_full(sys, FullState(np.zeros(6), np.zeros(6)))
        assert np.all(acc == 0)

    def test_translation_invariance(self, rng):
        sys = chain6()
        q = rng.uniform(-0.4, 0.4, 6)
        a0 = eval_accel_full(sys, FullState(q, np.zeros(6)))
        a1 = eval_accel_full(sys, FullState(q + 0.37, np.zeros(6)))
        assert np.abs(a1 - a0).max() <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="particles"):
            eval_accel_full(chain6(), FullState(np.zeros(4), np.zeros(4)))

    def _fd_accel(self, sys, q, h=1e-6):
        # independent oracle: central differences of the potential energy
        n = q.size
        grad = np.empty(n)
        for j in range(n):
            qp, qm = q.copy(), q.copy()
            qp[j] += h
            qm[j] -= h
            up = hamiltonian(sys, FullState(qp, np.zeros(n)))
            um = hamiltonian(sys, FullState(qm, np.zeros(n)))
            grad[j] = (up - um) / (2 * h)
        return -grad / sys.masses

    def test_matches_hamiltonian_gradient(self, rng):
        sys = chain6()
        for _ in range(100):
            q = rng.uniform(-0.5, 0.5, 6)
            acc = eval_accel_full(sys, FullState(q, np.zeros(6)))
            assert np.abs(acc - self._fd_accel(sys, q)).max() <= 1e-6

    def test_single_displacement_example(self):
        sys = chain6()
        q = np.array([0.1, 0, 0, 0, 0, 0.0])
        acc = eval_accel_full(sys, FullState(q, np.zeros(6)))
        assert np.abs(acc - self._fd_accel(sys, q)).max() <= 1e-6


class TestHamiltonian:
    def test_zero_state(self):
        assert hamiltonian(chain6(), FullState(np.zeros(6), np.zeros(6))) == 0.0

    def test_single_velocity(self):
        v = np.zeros(6)
        v[0] = 1.0
        assert hamiltonian(chain6(), FullState(np.zeros(6), v)) == pytest.approx(0.5)

    def test_conservation_long_run(self, rng):
        # Mild state near the stable equilibrium, t = 2000.  The 1/a mass
        # ratio makes the energy ~100x more sensitive to velocity error
        # than the state norm suggests, so the 1e-8 drift bound needs
        # tolerances of 1e-12 here (1e-10 delivers only ~1e-7).
        sys = chain6()
        q = rng.uniform(-0.05, 0.05, 6)
        v = rng.uniform(-0.002, 0.002, 6)
        e0 = hamiltonian(sys, FullState(q, v))
        p0 = total_momentum(sys, FullState(q, v))
        assert abs(p0) > 1e-3
        tr = integrate(sys, FullState(q, v),
                       IntegratorConfig(t_end=2000.0, sample_dt=10.0,
                                        abs_tol=1e-12, rel_tol=1e-12))
        assert tr.ok
        drifts_e, drifts_p = [], []
        for y in tr.states:
            st = FullState(y[:6], y[6:])
            drifts_e.append(abs(hamiltonian(sys, st) - e0))
            drifts_p.append(abs(total_momentum(sys, st) - p0))
        assert max(drifts_e) / abs(e0) <= 1e-8
        assert max(drifts_p) / abs(p0) <= 1e-8


class TestSpectrum:
    def test_n6_values(self):
        spec = linear_spectrum_full(chain6())
        expected = [2.02, 2.00504, 2.00504, 0.0149623, 0.0149623, 0.0]
        assert np.abs(spec - expected).max() <= 5e-6

    def test_n6_closed_form(self):
        a = 0.01
        spec = linear_spectrum_full(chain6())
        root = np.sqrt(a * a - a + 1)
        exact = sorted([2 * (1 + a), a + 1 + root, a + 1 + root,
                        a + 1 - root, a + 1 - root, 0.0], reverse=True)
        assert np.abs(spec - exact).max() <= 1e-12

    @pytest.mark.parametrize("n_pairs,a", [(2, 0.01), (5, 0.01), (9, 0.001)])
    def test_group_structure(self, n_pairs, a):
        spec = linear_spectrum_full(build_chain(ChainParams(n_pairs, a, 1.0)))
        n = 2 * n_pairs
        assert np.sum(np.abs(spec) <= 1e-10) == 1          # one zero mode
        assert np.sum(np.abs(spec - 2) <= 2.5 * a) == n // 2  # optical group
        assert np.sum((spec < 4 * a + 1e-12) & (spec >= -1e-12)) == n // 2

    def test_against_lapack(self):
        sys = build_chain(ChainParams(7, 0.01, 1.0))
        d = 1.0 / np.sqrt(sys.masses)
        s = d[:, None] * sys.stiffness * d[None, :]
        ref = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert np.abs(linear_spectrum_full(sys) - ref).max() <= 1e-12

    @pytest.mark.parametrize("n_pairs, a", [(2, 0.01), (99, 1e-4), (199, 1e3)])
    def test_momentum_mode_is_exactly_zero(self, n_pairs, a):
        spec = linear_spectrum_full(build_chain(ChainParams(n_pairs, a, 1.0)))
        assert spec[-1] == 0.0 and spec[-2] > 0.0

    @pytest.mark.parametrize("a", [1e-4, 0.01, 0.3, 3.0, 1e3])
    @pytest.mark.parametrize("p", [3, 5, 9, 47, 199])
    def test_reduced_pairs_are_entries_of_the_chain(self, p, a):
        # pair j of the reduced system p is Bloch mode k = j of the chain
        # with p pairs: one dispersion relation, so the same bits
        spec = linear_spectrum_full(build_chain(ChainParams(p, a, 1.0)))
        assert np.isin(all_pair_eigenvalues(a, p), spec).all()

    @pytest.mark.parametrize("a", [1.0 - 1e-9, 1.0 + 2.3e-5])
    @pytest.mark.parametrize("n_pairs", [2, 198])
    def test_zone_edge_near_equal_masses(self, n_pairs, a):
        # mode k = n/2 of an even n is 2 and 2a; (1 + a)^2 - 4a lost it
        # to cancellation, by 7.8e-12 at n_pairs = 2, a = 1 + 2.3e-5
        spec = linear_spectrum_full(build_chain(ChainParams(n_pairs, a, 1.0)))
        for lam in (2.0, 2.0 * a):
            assert np.abs(spec - lam).min() <= 4.5e-16

    def test_overflowing_a_is_refused_by_name(self):
        # (1 + a)^2 overflows; LAPACK once answered with a zero mode of -8.8e30
        chain = build_chain(ChainParams(5, 1e200, 1.0))
        with pytest.raises(ValueError, match=r"^mass parameter a = 1e\+200 is too "
                                             r"large: \(1 \+ a\)\^2 overflows$"):
            linear_spectrum_full(chain)


def _roll_accel(sys, q, alpha, beta):
    # textbook form: m_j qdd_j = V'(q_{j+1} - q_j) - V'(q_j - q_{j-1})
    e = np.roll(q, -1, axis=-1) - q
    f = e + alpha * e**2 + beta * e**3
    return (f - np.roll(f, 1, axis=-1)) / sys.masses


def _roll_energy(sys, states, alpha, beta):
    n = sys.n_particles
    q, v = states[..., :n], states[..., n:]
    e = np.roll(q, -1, axis=-1) - q
    pot = e**2 / 2 + alpha * e**3 / 3 + beta * e**4 / 4
    return 0.5 * np.sum(sys.masses * v**2, axis=-1) + np.sum(pot, axis=-1)


class TestBondSpace:
    """The bond-operator forms against the np.roll expressions written out here."""

    @pytest.mark.parametrize("n_particles", [4, 6, 10])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_accel_and_energy_match_roll_form(self, n_particles, beta, rng):
        sys = build_chain(ChainParams(n_particles // 2, 0.01, 1.0, beta))
        n = n_particles
        states = np.concatenate([rng.uniform(-0.6, 0.6, (7, n)),
                                 rng.uniform(-0.1, 0.1, (7, n))], axis=1)
        for rows in (states[0], states):
            q = rows[..., :n]
            ref = _roll_accel(sys, q, 1.0, beta)
            e = np.abs(np.roll(q, -1, axis=-1) - q)
            scale = np.max((e + e**2 + beta * e**3) / sys.masses)
            assert sys.accel(q).shape == q.shape
            assert np.abs(sys.accel(q) - ref).max() <= 1e-14 * scale
            ref_e = _roll_energy(sys, rows, 1.0, beta)
            assert np.shape(sys.energy(rows)) == np.shape(ref_e)
            assert np.abs(sys.energy(rows) - ref_e).max() <= 1e-14 * np.abs(ref_e).max()

    @pytest.mark.parametrize("n_pairs", [2, 3, 5])
    def test_bond_operator_and_stiffness(self, n_pairs):
        sys = build_chain(ChainParams(n_pairs, 0.01, 1.0))
        n = 2 * n_pairs
        q = np.arange(1.0, n + 1) ** 2
        assert np.array_equal(sys.bonds @ q, np.roll(q, -1) - q)   # wrap bond last
        periodic = 2.0 * np.eye(n)
        idx = np.arange(n)
        periodic[idx, (idx + 1) % n] = periodic[idx, (idx - 1) % n] = -1.0
        assert np.array_equal(sys.stiffness, sys.bonds.T @ sys.bonds)
        assert np.array_equal(sys.stiffness, periodic)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_symmetric_subspace_invariant(self, p, rng):
        chain = build_chain(ChainParams(p, 0.01, 1.0))
        for _ in range(20):
            st = ReducedState(rng.uniform(-0.5, 0.5, p - 1), np.zeros(p - 1))
            assert symmetry_residual(chain, st) <= 1e-14

    def test_beta_chain_conserves_energy(self, rng):
        sys = build_chain(ChainParams(3, 0.01, 1.0, 0.5))
        y0 = np.concatenate([rng.uniform(-0.1, 0.1, 6), rng.uniform(-0.01, 0.01, 6)])
        tr = integrate(sys, y0, IntegratorConfig(t_end=200.0, abs_tol=1e-12,
                                                 rel_tol=1e-12))
        assert tr.ok
        assert relative_drift(sys.energy(tr.states)) <= 1e-8


class TestEmbedding:
    def test_identity_and_zero(self, rng):
        st = FullState(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
        same = embed_state(st, 1)
        assert np.array_equal(same.q, st.q) and np.array_equal(same.v, st.v)
        zero = embed_state(FullState(np.zeros(4), np.zeros(4)), 3)
        assert np.all(zero.q == 0) and zero.q.size == 12

    def test_tiling(self):
        st = FullState([1.0, 2, 3, 4], [5.0, 6, 7, 8])
        big = embed_state(st, 2)
        assert np.array_equal(big.q, [1, 2, 3, 4, 1, 2, 3, 4])
        assert np.array_equal(big.v, [5, 6, 7, 8, 5, 6, 7, 8])

    @pytest.mark.parametrize("k", [0, 1.5, math.inf, math.nan, 2.0])
    def test_bad_factor(self, k):
        with pytest.raises(ValueError, match=rf"^repetition factor k must be a "
                                             rf"positive integer, got {k}$"):
            embed_state(FullState(np.zeros(4), np.zeros(4)), k)

    @pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, math.inf, math.nan,
                                   pytest.param(np.float64(2.0), id="float64")])
    def test_bad_chain_factor(self, k):
        # the rule of embed_state, where 0 and 1.5 were refused as a bad
        # n_pairs and 2.0 passed embed_state but not embed_chain
        with pytest.raises(ValueError, match=rf"^repetition factor k must be a "
                                             rf"positive integer, got {k}$"):
            embed_chain(chain6(), k)

    def test_embedded_chain_keeps_alpha_and_beta(self):
        # it once rebuilt the chain from its params, at alpha = 1, beta = 0
        big = embed_chain(dataclasses.replace(chain6(), alpha=2.0, beta=0.5), np.int64(2))
        assert (big.n_pairs, big.a, big.alpha, big.beta) == (6, 0.01, 2.0, 0.5)
        built = build_chain(ChainParams(6, 0.01, 2.0, 0.5))
        q = np.linspace(-0.3, 0.3, 12)
        assert np.array_equal(big.accel(q), built.accel(q))

    def test_embedded_dynamics(self, rng):
        # evolving the tiled state in the doubled chain reproduces the
        # small chain's evolution on one period, and stays periodic
        small = build_chain(ChainParams(2, 0.01, 1.0))
        big = embed_chain(small, 2)
        st = FullState(rng.uniform(-0.1, 0.1, 4), rng.uniform(-0.01, 0.01, 4))
        cfg = IntegratorConfig(t_end=100.0, sample_dt=5.0)
        tr_small = integrate(small, st, cfg)
        tr_big = integrate(big, embed_state(st, 2), cfg)
        assert tr_small.ok and tr_big.ok
        ys, yb = tr_small.states, tr_big.states
        restricted = np.concatenate([yb[:, 0:4], yb[:, 8:12]], axis=1)
        assert np.abs(restricted - ys).max() <= 1e-6
        # block periodicity of the embedded trajectory
        assert np.abs(yb[:, 0:4] - yb[:, 4:8]).max() <= 1e-7
        assert np.abs(yb[:, 8:12] - yb[:, 12:16]).max() <= 1e-7
