"""The row-reduction GF(2) sign solver of the scaling fit against the
bitmask solver it replaced, on random sign systems of up to 9 modes."""

import numpy as np
import pytest

from fpualt.coupling import _solve_signs_gf2

from conftest import gf2_signs_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# n modes, then up to 2n rows, each a bitmask of the modes it holds and
# the parity it must meet
sign_systems = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, 2 ** n - 1), st.integers(0, 1)),
                         max_size=2 * n)))


@hypothesis.settings(max_examples=200)
@hypothesis.given(sign_systems)
def test_row_reduction_matches_bitmask_oracle(system):
    n, equations = system
    rows = np.array([[(mask >> c) & 1 for c in range(n)]
                     for mask, _ in equations], dtype=int).reshape(-1, n)
    rhs = [b for _, b in equations]
    expected = gf2_signs_oracle(rows.tolist(), rhs, n)
    eps = _solve_signs_gf2(rows, rhs)
    if expected is None:
        assert eps is None
    else:
        assert eps.astype(int).tolist() == expected
        assert ((rows @ eps) % 2 == rhs).all()
