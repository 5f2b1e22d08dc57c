"""The bond-space form of the nonlinearity.

The reduced quadratic vector is N(q) = -D^T (D q)^2 with the bond
extensions e = D q, and every quasi-harmonic system evaluates
C(x, x) = F (G x)^2: a pipeline-built one with G = D T,
F = -T^{-1} M^{-1} D^T, one given its monomial list (tables read from
files, extracted subsystems) with the polarised factors of that list.
Both agree with the contraction of the coupling tensor
(``einsum_field`` in conftest) to round-off.
"""

import numpy as np
import pytest

from fpualt import (IntegratorConfig, build_reduced, eigendecompose,
                    enumerate_invariant_candidates, extract_subsystem,
                    integrate, load_reference, square_map, to_quasi_harmonic)

from conftest import (ODD_P, SWEEP_A, assert_field_matches_oracle,
                      brute_force_candidates, table_oracle)

BOND_P = (3, 5, 9, 47, 99)
VERDICT_P = tuple(range(3, 107, 2))
LARGE_VERDICT_P = (135, 147, 165, 189, 195, 199)
ORACLE_LARGE_P = (135, 165, 189, 195)


@pytest.fixture(scope="module")
def qh_by_p(systems):
    """Pipeline quasi-harmonic systems for every odd p <= 105."""
    out = {p: systems[p][2] for p in ODD_P}
    for p in sorted(set(VERDICT_P + BOND_P) - set(out)):
        red = build_reduced(p, SWEEP_A, 1.0)
        out[p] = to_quasi_harmonic(red, eigendecompose(red))
    return out


@pytest.mark.parametrize("p", BOND_P)
def test_bonds_are_the_difference_operator(p):
    # D is p x (p-1) and its Gram matrix D^T D is the stiffness K
    sys = build_reduced(p, SWEEP_A, 1.0)
    assert sys.bonds.shape == (p, p - 1)
    assert np.array_equal(sys.bonds.T @ sys.bonds, sys.stiffness)


@pytest.mark.parametrize("p", BOND_P)
def test_factored_field_matches_tensor(p, qh_by_p, rng):
    # The factored right-hand side and Jacobian agree with the contraction
    # of the same system's coupling tensor to 1e-13 of the largest term of
    # the expanded sum sum_b |F_ib| (|G| |x|)_b^2 (measured <= 2.4e-14).
    qh = qh_by_p[p]
    assert qh.g.shape == (p, p - 1) and qh.f.shape == (p - 1, p)
    for amp in (0.5, 0.05):
        for _ in range(10):
            assert_field_matches_oracle(qh, rng.uniform(-amp, amp, p - 1))


def test_square_map_and_invariant_verdicts(qh_by_p):
    # rho(i) = min(2i, p-2i) for every odd p <= 105, and the invariant sets
    # are exactly V(Y) keeping the pairs that are multiples of a proper
    # divisor k of p -- none for prime p.  These are the verdicts the
    # dense-tensor construction gave for all odd p <= 89; p = 91 ... 99
    # were refused with false square-pattern violations while presence
    # was a fixed 1e-10 relative threshold.
    for p in VERDICT_P:
        _assert_divisor_verdicts(qh_by_p[p], p)


@pytest.mark.parametrize("p", LARGE_VERDICT_P)
def test_invariant_verdicts_large_p(p):
    # The same verdicts up to the sweep's guard, p = 199, including the
    # systems with c = 11 (p = 189) and c = 13 (p = 195) cycles of rho,
    # of whose 2046 and 8190 unions NextClosure builds only the invariant
    # ones; they are the invariant ones the table oracle finds.
    qh = to_quasi_harmonic(build_reduced(p, SWEEP_A, 1.0))
    _assert_divisor_verdicts(qh, p)
    assert enumerate_invariant_candidates(qh) == _invariant(table_oracle(qh))


@pytest.mark.parametrize("p", ORACLE_LARGE_P)
def test_enumerator_matches_table_oracle_large_p(p):
    # test_invariant_verdicts_large_p makes this check at a = SWEEP_A
    qh = to_quasi_harmonic(build_reduced(p, 0.3, 1.0))
    assert enumerate_invariant_candidates(qh) == _invariant(table_oracle(qh))


@pytest.mark.parametrize("a", [SWEEP_A, 0.3])
def test_enumerator_matches_brute_force(a, qh_by_p):
    # the closed sets of the forcing relation are exactly the unions that
    # check_invariance and the table oracle find invariant, field for field
    for p in VERDICT_P:
        qh = (qh_by_p[p] if a == SWEEP_A
              else to_quasi_harmonic(build_reduced(p, a, 1.0)))
        found = enumerate_invariant_candidates(qh)
        assert found == _invariant(brute_force_candidates(qh)), p
        assert found == _invariant(table_oracle(qh)), p


def _invariant(candidates):
    return [c for c in candidates if c.invariant]


def _assert_divisor_verdicts(qh, p):
    npairs = (p - 1) // 2
    assert square_map(qh).rho == {i: min(2 * i, p - 2 * i)
                                  for i in range(1, npairs + 1)}, p
    found = {c.kept_modes for c in enumerate_invariant_candidates(qh)}
    expected = {tuple(m for j in range(k, npairs + 1, k)
                      for m in (2 * j - 1, 2 * j))
                for k in range(3, p, 2) if p % k == 0}
    assert found == expected, p


def test_loaded_table_integrates_through_polarised_factors(rng):
    # G is the identity over the one mixed pair (1, 2)
    ref = load_reference("p3_full")
    assert np.array_equal(ref.g, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for _ in range(5):
        assert_field_matches_oracle(ref, rng.uniform(-0.3, 0.3, ref.dof))
    tr = integrate(ref, np.array([0.0, 0.2, 0.0, 0.0]),
                   IntegratorConfig(t_end=20.0))
    assert tr.ok and tr.n_steps > 0


def test_extracted_subsystem_integrates_through_polarised_factors(qh_by_p, rng):
    # pair 3 of p=9 spans an invariant set: the extracted two-mode system
    # (the polarised factors of its list) follows the full system (the
    # bond factors D T) started on it
    full = qh_by_p[9]
    sub = extract_subsystem(full, [5, 6])
    assert sub.g.shape == (3, 2)
    assert_field_matches_oracle(sub, rng.uniform(-0.3, 0.3, 2))

    cfg = IntegratorConfig(t_end=50.0)
    y_sub = np.array([0.05, 0.1, 0.0, 0.0])
    y_full = np.zeros(16)
    y_full[[4, 5]] = y_sub[:2]
    tr_sub = integrate(sub, y_sub, cfg)
    tr_full = integrate(full, y_full, cfg)
    assert tr_sub.ok and tr_full.ok
    kept = tr_full.states[:, [4, 5, 12, 13]]
    assert np.abs(tr_sub.states - kept).max() <= 1e-9
