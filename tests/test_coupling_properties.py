"""Property tests on the coupling list, with Hypothesis: the closed-form
list of built systems against the dense build, and given lists (up to
6 modes) through their polarised bond factors against the tensor
contraction, through a system file and back, and through the symmetry
test of the energy against the dense view."""

import itertools

import numpy as np
import pytest

from fpualt import QuasiHarmonicSystem, load_system, save_system
from fpualt.spectral import SYMMETRY_TOL_REL, DegenerateSpectrumError, ModeLabel

from conftest import (assert_field_matches_oracle, assert_matches_dense_build,
                      dense_bilinear)

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


@settings(max_examples=30)
@given(p=st.integers(1, 30).map(lambda n: 2 * n + 1),
       log_a=st.floats(-3.0, 2.0))
def test_closed_form_matches_dense_build_property(p, log_a):
    # an a within round-off of 1 (log_a = 1e-15 draws one) may be refused
    a = 10.0 ** log_a
    try:
        assert_matches_dense_build(p, a)
    except DegenerateSpectrumError:
        assert abs(a - 1.0) < 1e-14


# Generated coupling lists: up to 6 modes and 20 distinct entries, square
# and mixed, in any order, with random signs and log-uniform magnitudes.
# Half of them are completed to a fully symmetric tensor: each entry's
# B_ijk is given to every permutation of (i, j, k) that is not listed.
@st.composite
def coupling_lists(draw):
    d = draw(st.integers(1, 6))
    index = st.integers(0, d - 1)
    keys = draw(st.lists(st.tuples(index, index, index).map(
        lambda t: (t[0], min(t[1:]), max(t[1:]))), max_size=20, unique=True))
    coeff = draw(st.lists(st.tuples(st.sampled_from((-1.0, 1.0)),
                                    st.floats(-6.0, 6.0)),
                          min_size=len(keys), max_size=len(keys)))
    tensor = {key: sign * 10.0 ** log for key, (sign, log) in zip(keys, coeff)}
    if draw(st.booleans()):
        for key, value in list(tensor.items()):
            for i, j, k in itertools.permutations(key):
                tensor.setdefault((i, min(j, k), max(j, k)), value)
    # the list holds c = B_ijj for squares and 2 B_ijk for j < k
    entries = [(i, j, k, b if j == k else 2.0 * b) for (i, j, k), b in tensor.items()]
    lambdas = draw(st.lists(st.floats(0.01, 10.0), min_size=d, max_size=d))
    x = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    return d, entries, np.array(lambdas), np.array(x)


@settings(max_examples=150)
@given(case=coupling_lists())
def test_given_list_field_and_file_round_trip(case, tmp_path_factory):
    # accel and jac read the polarised factors; they must match the tensor
    # contraction within 1e-13 of the expanded sum, as the built systems'
    # factors do, and a saved list must load back exactly
    d, entries, lambdas, x = case
    sys = QuasiHarmonicSystem(
        lambdas=lambdas, alpha=1.0, a=0.01,
        labels=tuple(ModeLabel(("acoustic", "optical")[n % 2], n // 2 + 1)
                     for n in range(d)),
        given=[np.array(column) for column in zip(*entries)] or [[]] * 4)
    assert_field_matches_oracle(sys, x)
    assert_field_matches_oracle(sys, 1e3 * x)
    # the energy's symmetry test reads the list; a dense oracle agrees
    b = dense_bilinear(sys)
    tol = SYMMETRY_TOL_REL * np.abs(b).max(initial=0.0)
    symmetric = all(np.abs(b - b.transpose(axes)).max(initial=0.0) <= tol
                    for axes in ((1, 0, 2), (0, 2, 1)))
    assert (sys.energy is not None) == symmetric
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    save_system(sys, path)
    back = load_system(path)
    assert np.array_equal(back.lambdas, sys.lambdas)
    for got, want in zip(back.monomials, sys.monomials):
        assert got.dtype.kind == want.dtype.kind and np.array_equal(got, want)
