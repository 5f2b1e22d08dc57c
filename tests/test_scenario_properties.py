"""Property test of the scenario contract, with Hypothesis: a Scenario
built in code, with valid values mixed with NaN, infinities, junk
strings, None, floats where integers belong, string indices, unknown
keys and outputs, bad frames and containers of the wrong type, either
runs (exit 0 with finite CSVs, or exit 2), or is refused by the
scenario checker naming its field, or by its builder naming one of the
kind's keys, before any output exists.  Every draw a scenario file can
spell is also written as one, and the file must give the same outcome
with its line in place of the field."""

import math
import re

import numpy as np
import pytest

from fpualt import Scenario, ScenarioError, run_scenario
from fpualt.scenarios import _KINDS, _OUTPUTS

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

INTEGRATE = ("t_end", "abs_tol", "rel_tol", "sample_dt")
JUNK = (math.nan, math.inf, -math.inf, "nan", "-inf", "abc", None, 3.5)
# Valid values per key, kept small (p <= 9, n_pairs <= 4, t_end <= 2,
# sample_dt >= 0.05), and values the builders refuse by name.
VALID = {"p": (3, 5, 9), "n_pairs": (2, 4), "id": (1, 2), "a": (0.01, 0.5),
         "alpha": (1.0, 0.5), "beta": (0.0, 0.25), "omega1": (0.3, 1.0),
         "omega2": (0.8, 1.2), "omega3": (1.05,), "t_end": (0.5, 2.0),
         "abs_tol": (1e-10, 1e-8), "rel_tol": (1e-10, 1e-8),
         "sample_dt": (0.05, 0.5), "initial": (0.0, 0.1, -0.05)}
BUILDER_REFUSES = {"p": (1, 4, 201), "n_pairs": (1, 200), "id": (3,), "a": (0.0, -0.5)}
# Values of the wrong type for a container field (params, positions,
# velocities, outputs), which the checker refuses first, naming it.
WRONG_CONTAINERS = (None, [0.1], (0.1,), "trajectory", 3.5)


def mostly(common, rare, one_in=8):
    """Draws from ``common``, and one time in ``one_in`` from ``rare``."""
    return st.sampled_from((common,) * (one_in - 1) + (rare,)).flatmap(lambda s: s)


def value(key):
    """A valid value of ``key`` or its spelling as a string; rarely junk
    or a value the builder refuses."""
    return mostly(st.sampled_from(VALID[key] + tuple(map(str, VALID[key]))),
                  st.sampled_from(JUNK + BUILDER_REFUSES.get(key, ())))


@st.composite
def scenarios(draw):
    kind = draw(mostly(st.sampled_from(("full", "reduced", "quasiharmonic",
                                        "cartoon", "Cartoon")), st.just("bogus"), 12))
    spec = _KINDS.get(kind.lower(), _KINDS["reduced"])
    keys = draw(st.lists(st.sampled_from(list(spec.defaults)), unique=True,
                         max_size=3))
    keys += draw(mostly(st.just([]), st.sampled_from((["beta"], ["flavour"]))))
    params = {key: draw(value(key if key in VALID else "a")) for key in keys}
    if kind.lower() == "quasiharmonic":
        frame = mostly(st.sampled_from(("native", "ref:p3_full", "REF:P5_FULL",
                                        "ref:p9_full")),
                       st.sampled_from(("ref:p9_sub34", "ref:nope", "p3_full")), 4)
    else:
        frame = mostly(st.just("native"), st.just("ref:p3_full"))
    index = mostly(st.sampled_from((1, 2, 3)), st.sampled_from(("1", "2", 8, 0, 1.5)))
    initial = {name: draw(st.dictionaries(index, value("initial"), max_size=3))
               for name in ("positions", "velocities")}
    outputs = mostly(st.sets(st.sampled_from(spec.outputs)),
                     st.sets(st.sampled_from(_OUTPUTS + ("trajectroy",)), min_size=1))
    containers = {"params": params, **initial, "outputs": draw(outputs)}
    wrong = draw(st.sampled_from((None,) * 12 + tuple(containers)))
    if wrong:
        containers[wrong] = draw(st.sampled_from(WRONG_CONTAINERS))
    return Scenario(name="x", kind=kind, frame=draw(frame), **containers,
                    **{name: draw(value(name)) for name in INTEGRATE})


def spelled(scen):
    """The lines of the scenario file of ``scen``, each with the field
    it sets, or None when a file cannot spell ``scen``: a container that
    is not a dict (or a set of outputs), a None other than an omega's
    (the model's own, which a file leaves out), an index that is not a
    whole number, or two indices that name one."""
    initial = (scen.positions, scen.velocities)
    if not (all(isinstance(c, dict) for c in (scen.params, *initial))
            and isinstance(scen.outputs, set)):
        return None
    values = [v for key, v in scen.params.items() if not key.startswith("omega")]
    values += [v for entries in initial for v in entries.values()]
    values += [getattr(scen, name) for name in INTEGRATE]
    if (any(v is None for v in values)
            or not all(re.fullmatch(r"\d+", str(i)) for e in initial for i in e)
            or any(len({int(i) for i in e}) < len(e) for e in initial)):
        return None
    lines = [("[scenario]", None), ("name = x", "name"), ("[system]", None),
             (f"kind = {scen.kind}", "kind")]
    lines += [(f"{key} = {v}", "params") for key, v in scen.params.items()
              if v is not None]
    lines += [("[initial]", None), (f"frame = {scen.frame}", "frame")]
    for name, letter, entries in zip(("positions", "velocities"), "xv", initial):
        lines += [(f"{letter}{i} = {v}", name) for i, v in entries.items()]
    lines.append(("[integrate]", None))
    lines += [(f"{name} = {getattr(scen, name)}", name) for name in INTEGRATE]
    lines.append(("[outputs]", None))
    # the requested outputs in the order the checker meets them in code
    lines += [(f"{key} = true", "outputs") for key in scen.outputs]
    lines += [(f"{key} = false", "outputs") for key in _OUTPUTS
              if key not in scen.outputs]
    return lines


def outcome(source, out, kind):
    """What running ``source`` gives: ("run", exit code, states) or
    ("refused", where, message) for a ScenarioError, split at the first
    ": " after the field or line, or ("builder", message)."""
    try:
        res = run_scenario(source, out)
    except ScenarioError as exc:
        assert not out.exists()
        where, message = re.fullmatch(r"(scenario 'x', field '\w+'|.*?:\d+): (.*)",
                                      str(exc), re.S).groups()
        return "refused", where, message
    except ValueError as exc:
        assert not out.exists()
        keys = _KINDS[kind.lower()].defaults
        assert any(re.search(rf"\b{key}\b", str(exc)) for key in keys), exc
        return "builder", str(exc)
    assert res.exit_code in (0, 2)
    if res.exit_code == 0:
        for path in res.files:
            if path.endswith(".csv"):
                rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                assert np.isfinite(rows).all(), path
    return "run", res.exit_code, res.trajectory.states


def wrong_container(scen):
    """The container field of ``scen`` whose type the checker refuses, if
    any: params, positions and velocities are dicts, and outputs a dict
    of flags or a collection of names."""
    types = {"params": dict, "positions": dict, "velocities": dict,
             "outputs": (dict, set, frozenset, list, tuple)}
    return next((name for name, kind in types.items()
                 if not isinstance(getattr(scen, name), kind)), None)


@settings(max_examples=150)
@given(scen=scenarios())
def test_scenario_runs_or_is_refused_by_name(scen, tmp_path_factory):
    base = tmp_path_factory.mktemp("scenario")
    code = outcome(scen, base / "code", scen.kind)
    wrong = wrong_container(scen)
    if wrong:
        assert code[:2] == ("refused", f"scenario 'x', field '{wrong}'"), code
    lines = spelled(scen)
    if lines is None:
        return
    path = base / "x.scn"
    path.write_text("".join(f"{text}\n" for text, _ in lines))
    from_file = outcome(path, base / "file", scen.kind)
    assert from_file[0] == code[0], (code, from_file)
    if code[0] == "run":
        assert from_file[1] == code[1]
        assert np.array_equal(from_file[2], code[2], equal_nan=True)
    elif code[0] == "builder":
        assert from_file == code
    else:
        # the file names the line of the field the code names; the message
        # quotes the text the file holds where the code gives a number
        where = from_file[1]
        assert where.startswith(f"{path}:")
        field = lines[int(where.rsplit(":", 1)[1]) - 1][1]
        assert code[1] == f"scenario 'x', field '{field}'", (code, from_file)
        assert from_file[2].replace("'", "") == code[2].replace("'", ""), (
            code, from_file)
