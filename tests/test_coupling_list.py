"""The coupling as one monomial list.

The closed-form list of built systems against the dense build it
replaced (``dense_tensor_oracle``) and a long-double contraction, the
lazy forming of the list and its dense view, and the refusals of
repeated and non-finite couplings.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpualt import (IntegratorConfig, QuasiHarmonicSystem, build_reduced,
                    integrate, load_system, square_map, to_quasi_harmonic)
from fpualt.refdata import REFERENCE_TABLES, load_reference
from fpualt.scenarios import structure_census

from conftest import dense_tensor_oracle


def _dense_monomials(b):
    """(i, j, k, coeff) of the j <= k half of a dense tensor, nonzero only."""
    i, j, k = np.nonzero(b)
    upper = j <= k
    i, j, k = i[upper], j[upper], k[upper]
    return i, j, k, b[i, j, k] * np.where(j == k, 1.0, 2.0)


def _assert_matches_dense_build(p, a):
    red = build_reduced(p, a, 1.0)
    qh = to_quasi_harmonic(red)
    *index, coeff = _dense_monomials(dense_tensor_oracle(red, qh.basis))
    got = qh.monomials
    for column, want in zip(got[:3], index):
        assert np.array_equal(column, want)
    assert np.abs(got.coeff - coeff).max() <= 1e-13 * np.abs(coeff).max()


@pytest.mark.parametrize("a", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("p", [3, 5, 9, 15, 21, 47, 99, 199])
def test_closed_form_matches_dense_build(p, a):
    # Same zero pattern, also at a = 1 where half the allowed entries
    # cancel; entries within 1e-13 of the largest (measured <= 1.6e-14).
    _assert_matches_dense_build(p, a)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(p=st.integers(1, 30).map(lambda n: 2 * n + 1),
       log_a=st.floats(-3.0, 2.0))
def test_closed_form_matches_dense_build_property(p, log_a):
    _assert_matches_dense_build(p, 10.0 ** log_a)


def _long_double_basis(red, t):
    """:func:`fpualt.eigendecompose`'s basis in long double, with the
    column signs of the float64 basis ``t``."""
    ld = np.longdouble
    p, a, pi = red.p, ld(red.a), 4 * np.arctan(ld(1))
    j = np.arange(1, (p - 1) // 2 + 1).astype(ld)
    theta = 0.5 * np.arctan2(-4 * np.sqrt(a) * np.cos(pi * j / p), 2 - 2 * a)
    amp_odd = np.stack([-np.sin(theta), np.cos(theta)], axis=1).ravel()
    amp_even = np.stack([np.cos(theta), np.sin(theta)], axis=1).ravel()
    n = np.arange(1, p)
    u = (np.sin(pi * np.outer(n, np.repeat(j, 2)) / p)
         * np.where((n % 2 == 1)[:, None], amp_odd, amp_even))
    masses = red.masses.astype(ld)
    t_ld = u / np.sqrt(masses)[:, None]
    t_ld /= np.sqrt(masses @ t_ld ** 2)
    return t_ld * np.sign(t_ld[0] * t[0])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("p", [47, 99, 199])
def test_closed_form_within_round_off_of_long_double(p):
    # B_ijk = -sum_b G_bi G_bj G_bk for the basis built in long double;
    # the list is within 1e-14 of the largest entry (measured 5.9e-15 at
    # p = 199, where the dense build was 9.4e-15 off).
    red = build_reduced(p, 0.01, 1.0)
    qh = to_quasi_harmonic(red)
    g = red.bonds.astype(np.longdouble) @ _long_double_basis(red, qh.basis.t)
    m = qh.monomials
    exact = np.empty(m.coeff.size, dtype=np.longdouble)
    for start in range(0, exact.size, 4096):
        n = slice(start, start + 4096)
        exact[n] = -np.sum(g[:, m.i[n]] * g[:, m.j[n]] * g[:, m.k[n]], axis=0)
    exact *= np.where(m.j == m.k, 1, 2)
    err = np.abs(m.coeff - exact).max() / np.abs(exact).max()
    assert float(err) <= 1e-14


def test_structure_path_forms_no_dense_tensor():
    qh = to_quasi_harmonic(build_reduced(99, 0.01, 1.0))
    row = structure_census(qh)
    assert row.violation is None and row.invariants
    assert "monomials" in vars(qh) and "bilinear" not in vars(qh)


def test_integration_forms_no_coupling():
    qh = to_quasi_harmonic(build_reduced(47, 0.01, 1.0))
    y0 = np.zeros(2 * qh.dof)
    y0[1] = 0.1
    tr = integrate(qh, y0, IntegratorConfig(t_end=2.0))
    assert tr.ok and np.isfinite(qh.energy(tr.states)).all()
    assert "monomials" not in vars(qh) and "bilinear" not in vars(qh)


def test_dense_view_and_lookup_read_the_list():
    qh = to_quasi_harmonic(build_reduced(9, 0.01, 1.0))
    b, m = qh.bilinear, qh.monomials
    assert np.array_equal(b, b.transpose(0, 2, 1))
    assert np.count_nonzero(b[:, np.arange(8), np.arange(8)]) == \
        np.count_nonzero(m.j == m.k)
    for n in (0, 17, m.coeff.size - 1):
        i, j, k = (int(index[n]) + 1 for index in m[:3])
        assert qh.monomial(i, j, k) == qh.monomial(i, k, j) == m.coeff[n]
    assert qh.monomial(1, 1, 1) == 0.0          # pair 1 squares force pair 2
    assert qh.tensor_scale() == np.abs(m.coeff).max()


def test_a_system_without_a_coupling_is_refused():
    with pytest.raises(ValueError, match="needs bilinear=, monomials="):
        QuasiHarmonicSystem(lambdas=np.ones(2), labels=(None, None), alpha=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coupling_is_refused_by_name(value):
    b = np.zeros((2, 2, 2))
    b[1, 0, 0] = 0.5
    b[0, 1, 0] = value
    sys = QuasiHarmonicSystem(lambdas=np.array([1.0, 4.0]), labels=(None, None),
                              alpha=1.0, bilinear=b)
    with pytest.raises(ValueError,
                       match=rf"non-finite coupling entry \(1, 2, 1, {value}\)"):
        square_map(sys)


_PREAMBLE = "3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n"


def test_load_refuses_a_repeated_entry(tmp_path):
    path = tmp_path / "repeat.txt"
    path.write_text(_PREAMBLE + "2 1 1 0.5\n1 1 2 0.25\n2 2 2 0.1\n1 1 2 0.5\n")
    with pytest.raises(ValueError, match=r"repeat\.txt: repeated entry \(1, 1, 2\)"):
        load_system(path)


def test_load_drops_zeros_and_sorts(tmp_path):
    path = tmp_path / "unsorted.txt"
    path.write_text(_PREAMBLE + "2 2 2 0.1\n2 1 1 0.5\n1 1 2 0.0\n1 1 1 0.25\n")
    m = load_system(path).monomials
    assert [column.tolist() for column in m] == \
        [[0, 1, 1], [0, 0, 1], [0, 0, 1], [0.25, 0.5, 0.1]]


@pytest.mark.parametrize("table", sorted(REFERENCE_TABLES))
def test_shipped_tables_load_in_canonical_order(table):
    ref = load_reference(table)
    m, d = ref.monomials, ref.dof
    keys = (m.i * d + m.j) * d + m.k
    assert (np.diff(keys) > 0).all() and (m.j <= m.k).all()
    assert (m.coeff != 0.0).all()
