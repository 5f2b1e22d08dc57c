"""The coupling as one monomial list.

The closed-form list of built systems against the dense build it
replaced (``dense_tensor_oracle``) and a long-double contraction, the
lazy forming of the list and its dense view, and the one check of a
given list, from code or from a file.  The property tests on generated
lists are in ``test_coupling_properties.py``.
"""

import re

import numpy as np
import pytest

from fpualt import (DegenerateSpectrumError, IntegratorConfig,
                    QuasiHarmonicSystem, build_reduced, first_order_response,
                    integrate, load_system, to_quasi_harmonic)
from fpualt.refdata import REFERENCE_TABLES, load_reference
from fpualt.scenarios import structure_census

from conftest import assert_matches_dense_build, dense_bilinear


@pytest.mark.parametrize("a", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("p", [3, 5, 9, 15, 21, 47, 99, 199])
def test_closed_form_matches_dense_build(p, a):
    # Same zero pattern, also at a = 1 where half the allowed entries
    # cancel; entries within 1e-13 of the largest (measured <= 1.6e-14).
    assert_matches_dense_build(p, a)


@pytest.mark.parametrize("a", [0.001, 0.3, 1.0001, 1000.0])
@pytest.mark.parametrize("p", [3, 47, 91, 131, 199])
def test_list_is_the_pair_rule(p, a):
    # 8 entries per allowed pair triple (I, J < K) and 6 per (I, J = K),
    # however small: a cutoff at 1e-12 of the largest entry dropped some
    # at p >= 131 for a = 0.001 and 1000, and at p >= 91 for a = 1.0001
    n = (p - 1) // 2
    i, j, k = np.ogrid[1:n + 1, 1:n + 1, 1:n + 1]
    allowed = (i + j + k == p) | (i == j + k) | (j == i + k) | (k == i + j)
    count = (8 * np.count_nonzero(allowed & (j < k))
             + 6 * np.count_nonzero(allowed & (j == k)))
    assert to_quasi_harmonic(build_reduced(p, a, 1.0)).monomials.coeff.size == count


def test_a_within_round_off_of_one_is_refused():
    # allowed couplings come out as exactly 0 here; the list silently
    # left them out, so "present iff listed" did not hold
    a = 1.0 + 2.0 ** -52
    qh = to_quasi_harmonic(build_reduced(23, a, 1.0))
    with pytest.raises(DegenerateSpectrumError,
                       match=rf"p=23, a={re.escape(repr(a))}: a is within "
                             "round-off of the equal-mass a = 1"):
        qh.monomials


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


def test_dense_view_reads_the_list():
    qh = to_quasi_harmonic(build_reduced(9, 0.01, 1.0))
    b, m = qh.bilinear, qh.monomials
    assert b.tobytes() == dense_bilinear(qh).tobytes()
    assert np.array_equal(b, b.transpose(0, 2, 1))
    assert np.count_nonzero(b[:, np.arange(8), np.arange(8)]) == \
        np.count_nonzero(m.j == m.k)


def test_a_system_without_a_coupling_is_refused():
    with pytest.raises(ValueError, match="needs monomials= or the basis"):
        QuasiHarmonicSystem(lambdas=np.ones(2), labels=(None, None), alpha=1.0)


def _given(*entries, labels=(None, None)):
    """A two-mode system given the 0-based entries (i, j, k, coeff)."""
    return QuasiHarmonicSystem(lambdas=np.array([1.0, 2.0]), labels=labels,
                               alpha=1.0, monomials=list(zip(*entries)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coupling_is_refused_by_name(value):
    with pytest.raises(ValueError,
                       match=rf"^non-finite entry \(1, 1, 2, {value}\)$"):
        _given((1, 0, 0, 0.5), (0, 0, 1, value))


@pytest.mark.parametrize("entry, message", [
    ((0, 1, 0, 0.5), r"^entry indices out of range: \(1, 2, 1\)$"),
    ((0, 4, 4, 0.5), r"^entry indices out of range: \(1, 5, 5\)$"),
    ((-1, 0, 0, 0.5), r"^entry indices out of range: \(0, 1, 1\)$"),
    ((0, 0, 0.0, 0.5), "^entry indices must be integers$"),
])
def test_bad_indices_are_refused_by_name(entry, message):
    # an index outside 1..d ended in an IndexError, and j > k was kept but
    # read back as 0.0 by every lookup
    with pytest.raises(ValueError, match=message):
        _given((1, 0, 0, 0.25), entry)


def test_malformed_lists_and_labels_are_refused():
    with pytest.raises(ValueError, match=r"^repeated entry \(2, 1, 1\)$"):
        _given((1, 0, 0, 0.25), (0, 0, 1, 0.5), (1, 0, 0, 0.25))
    # ragged columns ended in an IndexError
    with pytest.raises(ValueError, match=r"^entry columns differ in shape: "
                                         r"\[\(1,\), \(2,\), \(1,\), \(1,\)\]$"):
        QuasiHarmonicSystem(lambdas=np.ones(2), labels=(None, None), alpha=1.0,
                            monomials=([0], [0, 1], [0], [1.0]))
    with pytest.raises(ValueError, match="^3 labels for 2 modes$"):
        _given((1, 0, 0, 0.25), labels=(None,) * 3)


def test_given_list_is_sorted_and_cleaned():
    # an unsorted list was once read back as 0.0 for the listed square
    # (2, 1, 1) = 0.5, and first_order_response read that value
    sys = _given((1, 0, 0, 0.5), (0, 1, 1, 0.0), (0, 0, 1, 1.0))
    assert [column.tolist() for column in sys.monomials] == \
        [[0, 1], [0, 0], [1, 0], [1.0, 0.5]]
    assert first_order_response(sys, driven=2, driver=1,
                                amplitude=0.1).forcing == 0.5 * 0.1**2


@pytest.mark.parametrize("text, entries", [
    ("1 1 2 0.25\n0 1 2 0.25\n", [(0, 0, 1, 0.25), (-1, 0, 1, 0.25)]),
    ("2 2 1 0.25\n", [(1, 1, 0, 0.25)]),
    ("1 1 2 0.25\n2 1 2 nan\n", [(0, 0, 1, 0.25), (1, 0, 1, np.nan)]),
    ("1 1 2 0.5\n2 1 1 0.5\n1 1 2 0.25\n",
     [(0, 0, 1, 0.5), (1, 0, 0, 0.5), (0, 0, 1, 0.25)]),
])
def test_load_refusal_is_the_constructor_refusal(text, entries, tmp_path):
    path = tmp_path / "entries.txt"
    path.write_text(_PREAMBLE + text)
    with pytest.raises(ValueError) as given_error:
        _given(*entries)
    with pytest.raises(ValueError) as loaded_error:
        load_system(path)
    assert str(loaded_error.value) == f"{path}: {given_error.value}"


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
