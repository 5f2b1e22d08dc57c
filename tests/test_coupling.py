import dataclasses
import re

import numpy as np
import pytest

from fpualt import (IntegratorConfig, PatternViolationError, build_reduced,
                    check_invariance, cycle_decomposition, eigendecompose,
                    enumerate_invariant_candidates, excitation_digraph,
                    extract_subsystem, first_order_response, integrate,
                    jan_check, load_reference, scaling_equivalence,
                    square_map, to_quasi_harmonic)
from fpualt.spectral import ModalBasis, all_pair_eigenvalues

from conftest import (brute_force_candidates, dense_bilinear, non_permutation_table,
                      table_oracle, tensor_monomials)


class TestSquareMap:
    def test_p3_identity(self, systems):
        sq = square_map(systems[3][2])
        assert sq.rho == {1: 1}

    def test_p5_swap_with_evidence(self, systems):
        qh = systems[5][2]
        assert square_map(qh).rho == {1: 2, 2: 1}
        # squares of pair 1 occur exactly in the two pair-2 equations
        i, j, k, coeff = qh.monomials
        pair1_square = (j == k) & (j < 2)
        assert set((i[pair1_square] + 1).tolist()) == {3, 4}
        assert (coeff[pair1_square] != 0).all()

    def test_p9_permutation(self, systems):
        assert square_map(systems[9][2]).rho == {1: 2, 2: 4, 3: 3, 4: 1}

    def test_uniqueness_all_odd_p(self, systems):
        for p, (_, _, qh) in systems.items():
            sq = square_map(qh)   # raises on any pattern violation
            assert sorted(sq.rho) == list(range(1, (p - 1) // 2 + 1))

    def test_threshold_failure_mode(self, systems):
        # presence means nonzero: a tensor whose pair-1 squares are all
        # zero has nowhere to put them
        qh = systems[5][2]
        b = dense_bilinear(qh)
        b[:, [0, 1], [0, 1]] = 0.0
        missing = dataclasses.replace(qh, given=tensor_monomials(b))
        with pytest.raises(PatternViolationError,
                           match=r"squares of pair 1 occur in equations of pairs \[\]"):
            square_map(missing)

    def test_monatomic_chain_violates_pattern(self):
        # At a = 1 the squares of pair 1 force only the acoustic equation
        # of pair 2.  The optical entry, which the selection rule allows,
        # cancels to round-off (~1e-16 relative) and is stored as zero.
        qh = to_quasi_harmonic(build_reduced(5, 1.0, 1.0))
        b = dense_bilinear(qh)
        assert np.all(b[2, [0, 1], [0, 1]] != 0.0)
        assert np.all(b[3, [0, 1], [0, 1]] == 0.0)
        with pytest.raises(PatternViolationError,
                           match="pair 1 do not fill both equations of pair 2"):
            square_map(qh)

    def test_two_pairs_forcing_one_pair_violate_pattern(self):
        # every square of a 4-mode p = 5 table in equations 1 and 2 gave
        # rho = {1: 1, 2: 1}, which cycle_decomposition then refused
        with pytest.raises(PatternViolationError, match=r"^squares of pairs 1 and 2 "
                                                        r"both force pair 1 \(rho is "
                                                        r"not a permutation\)$"):
            square_map(non_permutation_table())

    def test_odd_mode_count_rejected(self, systems):
        with pytest.raises(ValueError, match="even number"):
            square_map(extract_subsystem(systems[3][2], (1, 2)).__class__(
                lambdas=np.array([1.0]), given=([], [], [], []),
                labels=(None,), alpha=1.0))


class TestJanFormula:
    def test_p5(self):
        report = jan_check(5, {1: 2, 2: 1})
        assert report == {1: (2, 2, True), 2: (1, 1, True)}

    def test_p9_fixed_point(self, systems):
        rho = square_map(systems[9][2]).rho
        report = jan_check(9, rho)
        assert report[3] == (3, 3, True)
        assert all(ok for (_, _, ok) in report.values())

    def test_all_odd_p(self, systems):
        for p, (_, _, qh) in systems.items():
            report = jan_check(p, square_map(qh).rho)
            assert all(ok for (_, _, ok) in report.values())

    def test_disagreement_is_reported_not_raised(self):
        report = jan_check(5, {1: 1, 2: 2})
        assert report[1] == (1, 2, False)


class TestCycles:
    def test_p17_two_cycles(self, systems):
        cyc = cycle_decomposition(square_map(systems[17][2]).rho)
        assert len(cyc.cycles) == 2

    def test_p9(self, systems):
        cyc = cycle_decomposition(square_map(systems[9][2]).rho)
        assert cyc.cycles == ((1, 2, 4), (3,))

    def test_identity_single_element(self):
        assert cycle_decomposition({1: 1}).cycles == ((1,),)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            cycle_decomposition({1: 2, 2: 2})
        with pytest.raises(ValueError, match=r"^not a permutation: \{1: 1, 2: 1\}$"):
            cycle_decomposition({1: 1, 2: 1})


class TestInvariance:
    def test_p9_frozen_six_modes(self, systems):
        qh = systems[9][2]
        cand = check_invariance(qh, frozenset(range(1, 9)) - {5, 6})
        assert cand.invariant and cand.kept_modes == (5, 6)
        assert cand.max_violation <= 1e-10 * np.abs(qh.monomials.coeff).max()

    def test_all_but_one_mode_not_invariant(self, systems):
        qh = systems[5][2]
        cand = check_invariance(qh, {1, 2, 3})
        assert not cand.invariant

    def test_validation(self, systems):
        qh = systems[5][2]
        with pytest.raises(ValueError, match="proper subset"):
            check_invariance(qh, set())
        with pytest.raises(ValueError, match="proper subset"):
            check_invariance(qh, {1, 2, 3, 4})

    def test_p5_claimed_submanifolds_adjudicated(self, systems):
        # Two published two-mode subsystems claim invariance; the exact
        # tensor must decide, and dynamics must agree with the algebra.
        # (Neither verdict is hard-coded: the dynamical check follows
        # whatever the algebraic verdict says.)
        _, basis, qh = systems[5]
        scale = np.abs(qh.monomials.coeff).max()
        for frozen in ({1, 4}, {2, 3}):
            cand = check_invariance(qh, frozen)
            if not cand.invariant and cand.max_violation >= 1e-3 * scale:
                grown = self._max_frozen_amplitude(qh, cand)
                assert grown > 1e-4, (frozen, cand.max_violation, grown)
            elif cand.invariant:
                stayed = self._max_frozen_amplitude(qh, cand)
                assert stayed <= 1e-7

    @staticmethod
    def _max_frozen_amplitude(qh, cand, t_end=500.0, amplitude=0.1):
        x0 = np.zeros(qh.dof)
        for m in cand.kept_modes:
            x0[m - 1] = amplitude
        tr = integrate(qh, np.concatenate([x0, np.zeros(qh.dof)]),
                       IntegratorConfig(t_end=t_end))
        frozen_idx = np.array(sorted(cand.frozen_modes)) - 1
        return float(np.abs(tr.positions()[:, frozen_idx]).max())

    def test_invariant_set_is_dynamically_invariant(self, systems, rng):
        # random state supported on the kept modes stays there
        qh = systems[9][2]
        cand = check_invariance(qh, frozenset(range(1, 9)) - {5, 6})
        assert cand.invariant
        x0 = np.zeros(8)
        v0 = np.zeros(8)
        x0[[4, 5]] = rng.uniform(-0.2, 0.2, 2)
        v0[[4, 5]] = rng.uniform(-0.02, 0.02, 2)
        tr = integrate(qh, np.concatenate([x0, v0]), IntegratorConfig(t_end=500.0))
        assert tr.ok
        frozen_idx = np.array(sorted(cand.frozen_modes)) - 1
        assert np.abs(tr.positions()[:, frozen_idx]).max() <= 1e-7

    def test_violating_set_grows(self, systems):
        # freezing only the fixed pair of p=9 leaves large couplings into
        # the frozen equations; the frozen modes must grow from rest
        qh = systems[9][2]
        cand = check_invariance(qh, {5, 6})
        assert not cand.invariant
        assert cand.max_violation >= 1e-3 * np.abs(qh.monomials.coeff).max()
        grown = self._max_frozen_amplitude(qh, cand)
        assert grown > 1e-4


EXPECTED_INVARIANTS = {
    9: [2],
    15: [2, 4],
    25: [4],
    27: [2, 8],
    45: [2, 4, 8, 14],
}


class TestEnumeration:
    def test_composite_p_counts(self, systems):
        for p, kept_sizes in EXPECTED_INVARIANTS.items():
            inv = [c for c in enumerate_invariant_candidates(systems[p][2])
                   if c.invariant]
            assert sorted(c.n_kept for c in inv) == kept_sizes, p

    def test_primes_have_none(self, systems):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            inv = [c for c in enumerate_invariant_candidates(systems[p][2])
                   if c.invariant]
            assert inv == [], p

    def test_p45_containments(self, systems):
        inv = {c.n_kept: set(c.kept_modes)
               for c in enumerate_invariant_candidates(systems[45][2])
               if c.invariant}
        assert inv[2] < inv[8]
        assert inv[2] < inv[14]
        assert inv[4] < inv[14]
        assert not inv[8] <= inv[14]
        assert not inv[4] <= inv[8]

    def test_p27_containment(self, systems):
        inv = {c.n_kept: set(c.kept_modes)
               for c in enumerate_invariant_candidates(systems[27][2])
               if c.invariant}
        assert inv[2] < inv[8]

    def test_ties_and_asymmetry(self, systems, rng):
        # magnitudes from {1, 2} tie everywhere, and B_ijk != B_jik: the
        # worst entry check_invariance reports is still the first
        # (i, j, k) reaching the maximum, as in the table oracle, and the
        # listed sets are the invariant unions
        qh = systems[45][2]
        dense = dense_bilinear(qh)
        b = np.where(dense != 0.0, rng.choice([-2.0, -1.0, 1.0, 2.0], dense.shape), 0.0)
        tied = dataclasses.replace(qh, given=tensor_monomials(b))
        every = brute_force_candidates(tied)
        assert len(every) == 2 ** 5 - 2
        assert table_oracle(tied) == every
        invariant = [c for c in every if c.invariant]
        assert len(invariant) == 4
        assert enumerate_invariant_candidates(tied) == invariant


class TestExtraction:
    def test_identity(self, systems):
        qh = systems[5][2]
        assert extract_subsystem(qh, (1, 2, 3, 4)) is qh

    def test_rejects_non_invariant_complement(self, systems):
        with pytest.raises(ValueError, match="not invariant"):
            extract_subsystem(systems[5][2], (1, 4))

    @pytest.mark.parametrize("kept, bad", [([0, 5, 6], "0"), ([5, 6, 99], "99"),
                                           ([5.5], "5.5")])
    def test_rejects_modes_outside_range(self, systems, kept, bad):
        # mode 0 wrapped to mode 8, which the invariance check had frozen;
        # 99 ended in an IndexError and 5.5 was read as mode 5
        with pytest.raises(ValueError,
                           match=rf"^kept mode {bad} is not an integer in 1\.\.8$"):
            extract_subsystem(systems[9][2], kept)

    @pytest.mark.parametrize("bad", [1.5, "1", np.nan, 0, 5])
    @pytest.mark.parametrize("what, call", [
        ("frozen", lambda qh, m: check_invariance(qh, {m, 4})),
        ("kept", lambda qh, m: extract_subsystem(qh, (m, 4))),
        ("driven", lambda qh, m: first_order_response(qh, m, 2, 1e-3)),
    ])
    def test_mode_indices_refused_by_name(self, systems, what, call, bad):
        # check_invariance read 1.5 and '1' as mode 1, and nan, like a
        # non-integer driven mode of first_order_response, ended in an
        # unnamed conversion error or a bare IndexError
        with pytest.raises(ValueError, match=rf"^{what} mode {re.escape(repr(bad))} "
                                             rf"is not an integer in 1\.\.4$"):
            call(systems[5][2], bad)

    def test_p9_subsystem_lambdas(self, systems):
        sub = extract_subsystem(systems[9][2], (5, 6))
        assert sub.lambdas[0] == pytest.approx(0.0149623, abs=5e-8)
        assert sub.lambdas[1] == pytest.approx(2.0050377, abs=5e-8)

    def test_p9_subsystem_matches_published_table(self, systems):
        # the surviving 2-mode system agrees with the published subsystem
        # table (3 significant digits) up to mode scaling
        sub = extract_subsystem(systems[9][2], (5, 6))
        fit = scaling_equivalence(sub, load_reference("p9_sub34"))
        assert fit.residual <= 1e-2
        assert fit.pattern_mismatches == []

    def test_p15_subsystems_match_smaller_chains(self, systems):
        # kept eigenvalues are those of the pair matrices with the divisor
        # q in place of p
        inv = {c.n_kept: c for c in enumerate_invariant_candidates(systems[15][2])
               if c.invariant}
        sub2 = extract_subsystem(systems[15][2], inv[2].kept_modes)
        assert np.abs(np.sort(sub2.lambdas)
                      - np.sort(all_pair_eigenvalues(0.01, 3))).max() <= 1e-12
        sub4 = extract_subsystem(systems[15][2], inv[4].kept_modes)
        assert np.abs(np.sort(sub4.lambdas)
                      - np.sort(all_pair_eigenvalues(0.01, 5))).max() <= 1e-12
        # and the extracted 4-mode system is scaling-equivalent to built p=5
        fit = scaling_equivalence(sub4, systems[5][2])
        assert fit.residual <= 1e-8 and not fit.pattern_mismatches


class TestScalingFit:
    def test_self_fit_is_exact(self, systems):
        qh = systems[5][2]
        fit = scaling_equivalence(qh, qh)
        assert np.abs(fit.scales - 1).max() <= 1e-12
        assert fit.residual <= 1e-14
        assert fit.sign_flips == ()

    def test_recovers_constructed_scaling(self, systems, rng):
        qh = systems[5][2]
        s = np.array([2.5, -0.4, 1.3, -3.0])
        scaled = dense_bilinear(qh) * (s[None, None, :] * s[None, :, None]
                                       / s[:, None, None])
        ref = qh.__class__(lambdas=qh.lambdas.copy(),
                           given=tensor_monomials(scaled),
                           labels=qh.labels, alpha=qh.alpha, a=qh.a, p=qh.p)
        fit = scaling_equivalence(qh, ref)
        assert fit.residual <= 1e-12
        assert np.abs(fit.scales - np.abs(s)).max() <= 1e-10
        assert set(fit.sign_flips) == {2, 4}

    def test_invariant_under_basis_renormalisation(self, systems):
        red, basis, qh = systems[3]
        ref = load_reference("p3_full")
        base_fit = scaling_equivalence(qh, ref)
        d = np.array([3.7, 0.04])
        rebased = ModalBasis(lambdas=basis.lambdas.copy(),
                             t=basis.t * d[None, :],
                             t_inv=basis.t_inv / d[:, None],
                             labels=basis.labels)
        qh2 = to_quasi_harmonic(red, rebased)
        fit2 = scaling_equivalence(qh2, ref)
        assert abs(fit2.residual - base_fit.residual) <= 1e-10

    def test_reference_tables(self, systems):
        for p, name, tol in ((3, "p3_full", 1e-6), (5, "p5_full", 1e-2),
                             (9, "p9_full", 1e-2)):
            fit = scaling_equivalence(systems[p][2], load_reference(name))
            assert fit.residual <= tol
            assert fit.pattern_mismatches == []
            assert fit.sign_consistent

    def test_p3_published_coefficient_ratio(self, systems):
        # a scaling-invariant ratio straight from the published table
        qh = systems[3][2]
        fit = scaling_equivalence(qh, load_reference("p3_full"))
        s = fit.scales.copy()
        for m in fit.sign_flips:
            s[m - 1] = -s[m - 1]
        coeff = {(i + 1, j + 1, k + 1): c for i, j, k, c in zip(*qh.monomials)}
        ours_scaled = {}
        for (i, j, k), ref_val in (((1, 1, 1), 0.0074805894),
                                   ((2, 1, 2), -2.0048858034)):
            val = coeff[(i, j, k)] * s[j - 1] * s[k - 1] / s[i - 1]
            ours_scaled[(i, j, k)] = val
            assert val == pytest.approx(ref_val, rel=1e-6)
        ratio = ours_scaled[(1, 1, 1)] / ours_scaled[(2, 1, 2)]
        assert ratio == pytest.approx(0.0074805894 / -2.0048858034, rel=1e-6)

    def test_inconsistent_signs(self, systems):
        # (1, 1, 1) and (1, 2, 2) both have the GF(2) row eps_1, so with
        # one of them flipped no sign assignment fits both
        ref = load_reference("p3_full")
        flipped = dense_bilinear(ref)
        flipped[0, 0, 0] *= -1.0
        fit = scaling_equivalence(systems[3][2],
                                  dataclasses.replace(
                                      ref, given=tensor_monomials(flipped)))
        assert fit.sign_consistent is False
        assert fit.residual == np.inf
        assert fit.sign_flips == ()
        assert fit.pattern_mismatches == []

    def test_dimension_mismatch(self, systems):
        with pytest.raises(ValueError, match="dimension"):
            scaling_equivalence(systems[3][2], systems[5][2])

    def test_lambda_mismatch(self, systems):
        qh = systems[3][2]
        ref = qh.__class__(lambdas=qh.lambdas + 0.3, given=qh.monomials,
                           labels=qh.labels, alpha=1.0)
        with pytest.raises(ValueError, match="matches reference"):
            scaling_equivalence(qh, ref)


class TestExcitationDigraph:
    def test_p9_six_cycle_plus_two_cycle(self, systems):
        edges = excitation_digraph(square_map(systems[9][2]))
        succ = dict(edges)
        assert len(succ) == 8
        # follow the cross-group forcing from the pair-1 acoustic mode
        cycle = [1]
        while True:
            nxt = succ[cycle[-1]]
            if nxt == cycle[0]:
                break
            cycle.append(nxt)
        assert len(cycle) == 6
        assert set(cycle) == {1, 4, 7, 2, 3, 8}
        assert succ[5] == 6 and succ[6] == 5
