"""Property test of the closed-form modal basis, with Hypothesis: over odd
p and log-uniform a, every basis ``eigendecompose`` builds diagonalises the
system's own mass-weighted stiffness to the bound it once checked at run
time, or the eigenvalue-gap check refuses the system."""

import numpy as np
import pytest

from fpualt import build_reduced, eigendecompose
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
