"""Property test of the equilibrium census at small alpha, with Hypothesis.

The static points of every quasi-harmonic system scale as 1/alpha, so
the census at alpha = +-10^u, u in [-6, 0], must hold the alpha = 1
census's points divided by alpha: the same count, and every point
within a bound of one of the other.  The systems are the ones seeded
from the grid alone, whose points once left the grid as alpha shrank:
the two cartoons and the ``p5_sub14`` table."""

import dataclasses
import functools

import numpy as np
import pytest

from fpualt import cartoon_system, find_equilibria, load_reference

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

SYSTEMS = {"cartoon1": lambda: cartoon_system(1), "cartoon2": lambda: cartoon_system(2),
           "p5_sub14": lambda: load_reference("p5_sub14")}


@functools.cache
def _census(name, alpha):
    system = dataclasses.replace(SYSTEMS[name](), alpha=alpha)
    return np.array([r.point for r in find_equilibria(system)])


# Measured worst case: 1.2e-15 of the largest coordinate (cartoon 2,
# alpha = -0.72) over 153 draws of u and both signs per system; the
# positive draws give the alpha = 1 points divided by alpha bit for bit.
@settings(max_examples=40)
@given(name=st.sampled_from(sorted(SYSTEMS)), u=st.floats(-6.0, 0.0),
       negative=st.booleans())
def test_census_is_the_alpha_one_census_over_alpha(name, u, negative):
    alpha = -(10.0 ** u) if negative else 10.0 ** u
    got, want = _census(name, alpha), _census(name, 1.0) / alpha
    assert got.shape == want.shape
    dist = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    tol = 1e-14 * np.abs(want).max()
    assert dist.min(axis=0).max() <= tol and dist.min(axis=1).max() <= tol
