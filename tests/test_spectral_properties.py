"""Property tests of the closed-form spectra, with Hypothesis.

Over odd p and log-uniform a, every basis ``eigendecompose`` builds
diagonalises the system's own mass-weighted stiffness to the bound it
once checked at run time, or the eigenvalue-gap check refuses the
system.  Over n_pairs and log-uniform a, the chain's
``linear_spectrum_full`` is LAPACK's spectrum of M^{-1/2} D^T D M^{-1/2},
with D^T D formed here from the bond operator."""

import numpy as np
import pytest

from fpualt import (ChainParams, build_chain, build_reduced, eigendecompose,
                    linear_spectrum_full)
from fpualt.chain import SIZE_LIMIT
from fpualt.spectral import EIGEN_MATCH_TOL, DegenerateSpectrumError

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


# The gap check accepts log10 a in [-8.5, 15.5] at p = 5, narrowing to
# [-5.5, 12.5] at p = 199 (every a at p = 3), so a is drawn just past the
# widest of these and most examples reach the residual.  Measured worst
# case: 2.7e-15 lambda_max (p = 185, a = 1.0000004), with the gap check
# refusing 30 of the 200 examples.
@settings(max_examples=200)
@given(p=st.integers(1, 99).map(lambda n: 2 * n + 1),
       log_a=st.floats(-9.0, 16.0))
def test_basis_diagonalises_or_gap_refuses(p, log_a):
    sys = build_reduced(p, 10.0 ** log_a, 1.0)
    try:
        basis = eigendecompose(sys)
    except DegenerateSpectrumError as exc:
        assert "below resolution" in str(exc)
        return
    # |S U - U Lambda| <= EIGEN_MATCH_TOL lambda_max, S = M^{-1/2} K M^{-1/2}
    # and U = M^{1/2} T the orthonormal form of the basis
    dm = 1.0 / np.sqrt(sys.masses)
    s = dm[:, None] * sys.stiffness * dm[None, :]
    u = basis.t / dm[:, None]
    residual = np.abs(s @ u - u * basis.lambdas).max()
    assert residual <= EIGEN_MATCH_TOL * basis.lambdas.max()


@pytest.mark.parametrize("p, a", [(5, 1e-9), (5, 1e16), (199, 1e-300), (199, 1e150)])
def test_a_far_from_one_is_refused_by_the_gap_check(p, a):
    with pytest.raises(DegenerateSpectrumError, match="below resolution"):
        eigendecompose(build_reduced(p, a, 1.0))


# The closed form shares the reduced pairs' arithmetic, (1 + a)^2 - 4 a s^2,
# which loses to cancellation for a near 1 and s near 1: measured 1.4e-14
# lambda_max against LAPACK (1.0e-14 against a 40-digit mpmath value,
# where LAPACK is within 1.6e-15) at n_pairs = 197-199 and a = 1 +- 1e-8
# .. 1e-3, on a scan of every n_pairs with a = 1 +- 1e-16 .. 5e-2 and
# seven a from 1e-4 to 1e3; away from a = 1 the worst was 4.4e-15
# (n_pairs = 108, a = 3.9e-4, over 300 seeded draws).  About 40 ms an
# example, mostly eigvalsh.
@settings(max_examples=60)
@given(n_pairs=st.integers(2, SIZE_LIMIT), log_a=st.floats(-4.0, 3.0))
def test_chain_spectrum_is_the_dispersion_relation(n_pairs, log_a):
    chain = build_chain(ChainParams(n_pairs, 10.0 ** log_a, 1.0))
    dm = 1.0 / np.sqrt(chain.masses)
    k = chain.bonds.T @ chain.bonds
    ref = np.linalg.eigvalsh(dm[:, None] * k * dm[None, :])[::-1]
    spec = linear_spectrum_full(chain)
    assert spec[-1] == 0.0
    assert np.abs(spec - ref).max() <= 2e-14 * ref.max()
