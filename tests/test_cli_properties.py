"""Property test of the CLI's numeric options, with Hypothesis: ``run``
with ``--t-end``, ``--abs-tol``, ``--rel-tol`` and ``--sample-dt``,
``sweep --a`` and ``equilibria --alpha``, each drawn from NaN, the
infinities, the zeros, a negative, the subnormals 5e-324 and 1e-320,
1e308 and ordinary values.  Every call exits 0 to 3 with no traceback
and no RuntimeWarning, and an exit 1 prints ``error:`` naming one of
the drawn keys.

Accepted runs are kept short: a run the integrator accepts to t_end
above 2 or with more than 100 samples (t_end / sample_dt) is not drawn,
since it would integrate that long.  Draws it refuses are kept, such as
``--t-end 1e308`` or ``--sample-dt 1e-320``, which ask for more than
10^6 samples: they exit 1 at once."""

import contextlib
import io
import math
import re
import tempfile
import warnings

import pytest

from fpualt import parse_scenario
from fpualt.cli import main

from conftest import SCENARIO_DIR

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-320, 1e308)
ORDINARY = {"t_end": (0.5, 2.0), "abs_tol": (1e-10, 1e-8), "rel_tol": (1e-10, 1e-8),
            "sample_dt": (0.05, 0.5), "a": (0.01, 0.3, 1.0), "alpha": (0.5, 2.0)}
SCENARIO = SCENARIO_DIR / "fig_p3_forcing.scn"      # sample_dt = 1.0
BASE = parse_scenario(SCENARIO)
TABLE = SCENARIO_DIR.parent / "src" / "fpualt" / "data" / "p3_a001.txt"


def value(key):
    return st.sampled_from(EXTREMES + ORDINARY[key])


@st.composite
def calls(draw):
    """(argv, drawn keys) of one CLI call."""
    verb = draw(st.sampled_from(("run", "sweep", "equilibria")))
    if verb == "sweep":
        return ["sweep", "--pmax", str(draw(st.sampled_from((3, 5)))),
                f"--a={draw(value('a'))!r}"], {"a"}
    if verb == "equilibria":
        return ["equilibria", str(TABLE), f"--alpha={draw(value('alpha'))!r}"], {"alpha"}
    drawn = {"t_end": draw(value("t_end"))}
    for key in ("abs_tol", "rel_tol", "sample_dt"):
        if draw(st.booleans()):
            drawn[key] = draw(value(key))
    cfg = BASE.config(drawn)
    try:
        cfg.validate()
    except ValueError:      # refused before a step
        pass
    else:
        hypothesis.assume(cfg.t_end <= 2.0 and cfg.t_end / cfg.sample_dt <= 100)
    return (["run", str(SCENARIO)]
            + [f"--{key.replace('_', '-')}={v!r}" for key, v in drawn.items()], set(drawn))


@settings(max_examples=150)
@given(calls())
def test_numeric_options_exit_cleanly(call):
    argv, keys = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + ["--out-dir", tmp])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    if code == 1:
        assert err.startswith("error: "), (argv, err)
        assert any(re.search(rf"\b{key}\b", err) for key in keys), (argv, err)
