"""Property test of the integrator's non-finite contract, with Hypothesis.

Free particles drift towards a drawn wall; beyond it, or from a drawn
call on, the acceleration is NaN, +inf or -inf in drawn coordinates.
Every step that meets such a value is rejected, so the run must end
with a step-underflow or divergence report within a bounded number of
attempts, never loop, raise or warn, and keep its right-hand-side count
n_rhs = 2 + 12 (n_steps + n_rejected).
"""

import math

import numpy as np
import pytest

from fpualt import IntegratorConfig, integrate

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

# The most attempts a run may take: the wall is approached in steps that
# shrink 5x on each rejection, down to the underflow bound 16 eps t (at
# most 255 attempts over 400 draws of this strategy).
MAX_ATTEMPTS = 500


class _PatchyField:
    """Free particles whose acceleration is ``bad`` in the coordinates
    ``where`` once q[0] reaches ``wall`` or from call ``first_bad`` on;
    it counts its calls."""

    def __init__(self, dof, wall, first_bad, bad, where):
        self.dof, self.wall, self.first_bad = dof, wall, first_bad
        self.value = np.where(where, bad, 0.0)
        self.calls = 0

    def accel(self, q):
        self.calls += 1
        if self.calls > self.first_bad or not q[0] < self.wall:
            return self.value.copy()
        return np.zeros(self.dof)


@st.composite
def patchy_fields(draw):
    dof = draw(st.integers(1, 3))
    where = draw(st.lists(st.booleans(), min_size=dof, max_size=dof)
                 .filter(any))
    bad = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    # call 0 is f(y0), call 1 the starting step's probe; by call 100 the
    # free flight has not reached t_end
    first_bad = draw(st.integers(0, 100) | st.just(math.inf))
    wall = draw(st.floats(0.05, 3.0) | st.just(math.inf))
    if wall == first_bad == math.inf:
        wall = 1.0
    return _PatchyField(dof, wall, first_bad, bad, where)


@settings(max_examples=40)
@given(field=patchy_fields(), speed=st.floats(0.1, 2.0),
       sample_dt=st.sampled_from((0.5, 1.0, 5.0)))
def test_non_finite_field_ends_with_a_report(field, speed, sample_dt):
    y0 = np.zeros(2 * field.dof)
    y0[field.dof] = speed         # q[0] reaches any finite wall by t = 30
    tr = integrate(field, y0, IntegratorConfig(t_end=50.0, sample_dt=sample_dt))
    assert tr.status in ("step_underflow", "diverged") and tr.message
    assert tr.n_steps + tr.n_rejected <= MAX_ATTEMPTS
    assert tr.n_rhs == field.calls == 2 + 12 * (tr.n_steps + tr.n_rejected)
    assert np.isfinite(tr.states[1:]).all() and tr.t_reached < 50.0
