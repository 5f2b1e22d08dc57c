import argparse
import ast
import json
import logging
import math
import re
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fpualt.coupling
import fpualt.scenarios
from fpualt import (IntegratorConfig, Scenario, ScenarioError, analysis_report,
                    build_reduced, extract_subsystem, load_reference,
                    parse_scenario, run_scenario, save_system, square_map,
                    sweep_odd_p, sweep_report_text, to_quasi_harmonic)
from fpualt.cli import build_parser, main
from fpualt.scenarios import _INTEGRATE, _KINDS, structure_census

from conftest import (BOUNDED_SCENARIOS, DIVERGENT_SCENARIOS, SCENARIO_DIR,
                      non_permutation_table)

# Golden report files: any change to a line of the sweep or analysis
# report output fails the tests that compare against them.
GOLDEN = Path(__file__).resolve().parent / "data"
TABLE_DIR = Path(fpualt.scenarios.__file__).resolve().parent / "data"


class TestScenarioParsing:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario(tmp_path / "nope.scn")

    def test_full_roundtrip(self):
        scen = parse_scenario(SCENARIO_DIR / "fig_p5_forcing.scn")
        assert scen.name == "fig_p5_forcing"
        assert scen.kind == "quasiharmonic"
        assert scen.params == {"p": 5, "a": 0.01, "alpha": 1.0}
        assert scen.frame == "ref:p5_full"
        assert scen.positions == {2: 0.15, 4: 0.15}
        assert scen.t_end == 500.0
        assert scen.outputs == {"trajectory", "actions", "energy"}

    def test_error_carries_line_number(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("[system]\nkind = reduced\np = threeish\n")
        with pytest.raises(ScenarioError, match=r"bad\.scn:3"):
            parse_scenario(bad)

    def test_unknown_section_and_key(self, tmp_path):
        bad = tmp_path / "s.scn"
        bad.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario(bad)
        bad.write_text("[system]\nkind = reduced\nflavour = blue\n")
        with pytest.raises(ScenarioError, match="unknown \\[system\\] key"):
            parse_scenario(bad)

    @pytest.mark.parametrize("text, message", [
        ("[system]\nkind reduced\n", ":2: expected 'key = value', got 'kind reduced'"),
        ("kind = reduced\n", ":1: entry before any [section]"),
        ("[system]\nkind =\n", ":2: empty key or value"),
        ("[system]\n= reduced\n", ":2: empty key or value"),
        ("[system]\np = 3\n", ": [system] must set 'kind'"),
    ])
    def test_malformed_file_names_the_line(self, tmp_path, text, message):
        bad = tmp_path / "s.scn"
        bad.write_text(text)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert str(err.value) == f"{bad}{message}"

    def test_reference_frame_checked_at_parse(self, tmp_path):
        bad = tmp_path / "s.scn"
        bad.write_text("[system]\nkind = reduced\np = 3\n"
                       "[initial]\nframe = ref:p3_full\n")
        with pytest.raises(ScenarioError,
                           match=r"s\.scn:5: reference-frame .* quasiharmonic"):
            parse_scenario(bad)
        bad.write_text("[system]\nkind = quasiharmonic\np = 3\n"
                       "[initial]\nframe = ref:p4_full\n")
        with pytest.raises(ScenarioError,
                           match=r"s\.scn:5: unknown reference table 'p4_full'"):
            parse_scenario(bad)

    @pytest.mark.parametrize("p, table", [
        (9, "p9_sub34"), (5, "p5_sub14"), (5, "p5_sub23"), (5, "p3_full")])
    def test_frame_must_be_the_full_table_of_p(self, tmp_path, p, table):
        # the fit compared the full system with a smaller table: every run
        # of these exited 1 with "dimension mismatch: 8 vs 2" and no line
        bad = tmp_path / "s.scn"
        bad.write_text(f"[system]\nkind = quasiharmonic\np = {p}\n"
                       f"[initial]\nframe = ref:{table}\n")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert str(err.value) == (
            f"{bad}:5: ref:{table} is not the full table of p = {p}; a frame "
            f"takes p3_full, p5_full, p9_full, each for its own p")

    @pytest.mark.parametrize("kind, line, takes", [
        ("full", "p = 7", "n_pairs, a, alpha, beta"),
        ("reduced", "beta = 0.5", "p, a, alpha"),
        ("full", "omega1 = 0.1", "n_pairs, a, alpha, beta"),
        ("reduced", "id = 1", "p, a, alpha"),
    ])
    def test_key_the_kind_does_not_use(self, tmp_path, kind, line, takes):
        # the kind's builder never reads the key, so the run would ignore it
        bad = tmp_path / "s.scn"
        bad.write_text(f"[system]\nkind = {kind}\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert str(err.value) == (
            f"{bad}:3: unknown [system] key {key!r} for kind {kind!r}; "
            f"it takes {takes}")

    def test_scenario_section_takes_only_name(self, tmp_path):
        bad = tmp_path / "s.scn"
        bad.write_text("[scenario]\nname = x\ntitle = y\n"
                       "[system]\nkind = cartoon\n")
        with pytest.raises(ScenarioError,
                           match=r"s\.scn:3: unknown \[scenario\] key 'title'"):
            parse_scenario(bad)

    def test_initial_index_out_of_range(self, tmp_path):
        bad = tmp_path / "s.scn"
        bad.write_text("[system]\nkind = reduced\np = 3\n[initial]\nq7 = 1\n"
                       "[integrate]\nt_end = 1\n")
        with pytest.raises(ScenarioError, match="out of range"):
            run_scenario(bad, tmp_path / "out")

    def test_initial_index_names_the_file_before_any_output(self, tmp_path):
        bad = tmp_path / "s.scn"
        bad.write_text("[system]\nkind = reduced\np = 3\n[initial]\nv3 = 1\n")
        with pytest.raises(ScenarioError) as err:
            run_scenario(bad, tmp_path / "out")
        assert str(err.value) == (
            f"{bad}:5: initial velocities index 3 out of range 1..2")
        assert not (tmp_path / "out").exists()

    def test_initial_index_in_reference_frame_names_its_line(self, tmp_path):
        # the range is the reference table's, known only once it is
        # loaded; the error still points at the line of the entry
        bad = tmp_path / "idx.scn"
        bad.write_text("[system]\nkind = quasiharmonic\np = 3\n[initial]\n"
                       "frame = ref:p3_full\nx1 = 0.1\nx3 = 0.1\n")
        with pytest.raises(ScenarioError) as err:
            run_scenario(bad, tmp_path / "out")
        assert str(err.value) == (
            f"{bad}:7: initial positions index 3 out of range 1..2")

    @pytest.mark.parametrize("first, second, message", [
        ("q1 = 0.1", "q1 = 0.2", "[initial] key 'q1' given twice"),
        ("q1 = 0.1", "Q1 = 0.2", "[initial] key 'q1' given twice"),
        ("q1 = 0.1", "x1 = 0.2", "initial positions index 1 given twice"),
    ])
    def test_key_given_twice_names_both_lines(self, tmp_path, first, second,
                                              message):
        bad = tmp_path / "twice.scn"
        bad.write_text("[system]\nkind = reduced\np = 3\n[initial]\n"
                       f"{first}\nv1 = 0.0\n{second}\n")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert str(err.value) == f"{bad}:7: {message}, first at {bad}:5"

    def test_key_given_twice_across_repeated_section(self, tmp_path):
        bad = tmp_path / "twice.scn"
        bad.write_text("[system]\nkind = reduced\n[integrate]\nt_end = 1\n"
                       "[system]\nkind = full\n")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert str(err.value) == (
            f"{bad}:6: [system] key 'kind' given twice, first at {bad}:2")

    def test_too_many_samples_names_the_line(self, tmp_path):
        bad = tmp_path / "s.scn"
        bad.write_text("[system]\nkind = reduced\n[integrate]\n"
                       "t_end = 200\nsample_dt = 1e-9\n")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert str(err.value) == (f"{bad}:5: sample_dt 1e-09 gives more than "
                                  "1000000 samples up to t_end 200.0")

    @pytest.mark.parametrize("line", [
        "[system]\nkind = reduced\nalpha = inf",
        "[system]\nkind = full\nbeta = -inf",
        "[system]\nkind = reduced\na = nan",
        "[system]\nkind = reduced\n[initial]\nq1 = nan",
        "[system]\nkind = reduced\n[integrate]\nt_end = inf",
    ])
    def test_non_finite_value_names_its_line(self, tmp_path, line):
        bad = tmp_path / "s.scn"
        bad.write_text(f"[scenario]\nname = s\n{line}\n")
        lineno = line.count("\n") + 3
        value = line.rsplit("= ", 1)[1]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert str(err.value) == (
            f"{bad}:{lineno}: not a finite number: {value!r}")

    def test_shipped_scenarios_request_only_outputs_their_kind_writes(self):
        # the benchmark replays these files; one its kind cannot run fails here
        paths = sorted(SCENARIO_DIR.glob("*.scn"))
        assert {path.stem for path in paths} == set(
            BOUNDED_SCENARIOS + DIVERGENT_SCENARIOS)
        for path in paths:
            scen = parse_scenario(path)
            assert scen.outputs <= set(_KINDS[scen.kind].outputs), path.name


class TestScenarioInCode:
    """A Scenario built in code meets the checker a scenario file ends in."""

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "reduced", "frame": "ref:p3_full"},
         "field 'frame': reference-frame initial data requires a "
         "quasiharmonic system"),
        ({"kind": "quasiharmonic", "frame": "ref:nope"},
         "field 'frame': unknown reference table 'nope'"),
        ({"kind": "bogus"}, "field 'kind': kind must be one of"),
        ({"kind": "reduced", "params": {"p": 3, "beta": 0.5}},
         "field 'params': unknown [system] key 'beta' for kind 'reduced'"),
        ({"kind": "reduced", "outputs": {"trajectroy"}},
         "field 'outputs': unknown output 'trajectroy'"),
        ({"kind": "reduced", "outputs": {"trajectory": "maybe"}},
         "field 'outputs': output flags are true/false"),
        # a NaN position wrote the trajectory CSV, then failed in the SVG writer
        ({"kind": "reduced", "positions": {1: math.nan}},
         "field 'positions': not a finite number: nan"),
        ({"kind": "reduced", "velocities": {2: -math.inf}},
         "field 'velocities': not a finite number: -inf"),
        ({"kind": "reduced", "params": {"p": 3, "alpha": math.inf}},
         "field 'params': not a finite number: inf"),
        ({"kind": "reduced", "t_end": math.inf},
         "field 't_end': not a finite number: inf"),
        ({"kind": "reduced", "abs_tol": math.nan},
         "field 'abs_tol': not a finite number: nan"),
        ({"kind": "reduced", "rel_tol": math.nan},
         "field 'rel_tol': not a finite number: nan"),
        ({"kind": "reduced", "sample_dt": math.inf},
         "field 'sample_dt': not a finite number: inf"),
        # a string is converted as the parser would: 'nan' wrote the
        # trajectory CSV, then failed with a RuntimeWarning
        ({"kind": "reduced", "positions": {1: "nan"}},
         "field 'positions': not a finite number: 'nan'"),
        ({"kind": "reduced", "velocities": {1: "fast"}},
         "field 'velocities': not a number: 'fast'"),
        ({"kind": "reduced", "t_end": None}, "field 't_end': not a number: None"),
        # the file rules: p, n_pairs, id and the indices are integers (these
        # ended in a TypeError or an IndexError)
        ({"kind": "reduced", "params": {"p": 3.5}},
         "field 'params': p must be an integer, got 3.5"),
        ({"kind": "full", "params": {"n_pairs": 2.0}},
         "field 'params': n_pairs must be an integer, got 2.0"),
        ({"kind": "reduced", "positions": {1.5: 0.1}},
         "field 'positions': initial positions index must be an integer, got 1.5"),
        ({"kind": "reduced", "positions": {1: 0.1, "1": 0.2}},
         "field 'positions': initial positions index 1 given twice"),
        # a frame names the full table of its own p (these could never run)
        ({"kind": "quasiharmonic", "params": {"p": 9}, "frame": "ref:p9_sub34"},
         "field 'frame': ref:p9_sub34 is not the full table of p = 9"),
        ({"kind": "quasiharmonic", "params": {"p": 5}, "frame": "ref:p5_sub14"},
         "field 'frame': ref:p5_sub14 is not the full table of p = 5"),
        ({"kind": "quasiharmonic", "params": {"p": 5}, "frame": "ref:p5_sub23"},
         "field 'frame': ref:p5_sub23 is not the full table of p = 5"),
        ({"kind": "quasiharmonic", "params": {"p": 5}, "frame": "ref:p3_full"},
         "field 'frame': ref:p3_full is not the full table of p = 5"),
        # a container of the wrong type ended in an AttributeError or a
        # TypeError, or for a string of outputs in its first letter
        ({"kind": "reduced", "params": None}, "field 'params': must be a dict, got None"),
        ({"kind": "reduced", "positions": [0.1]},
         "field 'positions': must be a dict, got [0.1]"),
        ({"kind": "reduced", "velocities": (0.1,)},
         "field 'velocities': must be a dict, got (0.1,)"),
        ({"kind": "reduced", "outputs": None},
         "field 'outputs': must be a dict or a set, got None"),
        ({"kind": "reduced", "outputs": "trajectory"},
         "field 'outputs': must be a dict or a set, got 'trajectory'"),
    ])
    def test_refused_with_the_field(self, tmp_path, fields, message):
        scen = Scenario(name="x", **{"params": {"p": 3}, **fields})
        with pytest.raises(ScenarioError) as err:
            run_scenario(scen, tmp_path)
        assert str(err.value).startswith(f"scenario 'x', {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "reduced", "positions": {3: 0.1}},
         "field 'positions': initial positions index 3 out of range 1..2"),
        ({"kind": "full", "params": {}, "velocities": {0: 0.1}},
         "field 'velocities': initial velocities index 0 out of range 1..4"),
        ({"kind": "quasiharmonic", "params": {"p": 5}, "frame": "ref:p5_full",
          "velocities": {5: 0.1}},
         "field 'velocities': initial velocities index 5 out of range 1..4"),
    ])
    def test_initial_index_names_the_field(self, tmp_path, fields, message):
        scen = Scenario(name="x", **{"params": {"p": 3}, **fields})
        with pytest.raises(ScenarioError) as err:
            run_scenario(scen, tmp_path / "out")
        assert str(err.value) == f"scenario 'x', {message}"
        assert not (tmp_path / "out").exists()

    def test_valid_scenario_runs(self, tmp_path):
        scen = Scenario(name="x", kind="quasiharmonic", params={"p": 3},
                        frame="ref:p3_full", positions={2: 0.2}, t_end=2.0)
        assert run_scenario(scen, tmp_path).exit_code == 0

    @pytest.mark.parametrize("fields, numbers", [
        ({"kind": "reduced", "params": {"p": "5"}}, {"params": {"p": 5}}),
        ({"kind": "quasiharmonic", "params": {"a": "0.01"}},
         {"params": {"a": 0.01}}),
        ({"kind": "reduced", "params": {}, "t_end": "2"}, {"t_end": 2.0}),
        ({"kind": "reduced", "params": {}, "positions": {"1": 0.1}},
         {"positions": {1: 0.1}}),
        ({"kind": "cartoon", "params": {"id": "2"}}, {"params": {"id": 2}}),
    ])
    def test_strings_are_read_as_a_file_reads_them(self, tmp_path, fields,
                                                   numbers):
        # each of these ended in a TypeError, or for the cartoon in "cartoon
        # id must be 1 or 2, got 2"; now they run as their numbers do
        base = {"name": "x", "positions": {1: 0.1}, "t_end": 2.0, **fields}
        res = run_scenario(Scenario(**base), tmp_path / "strings")
        ref = run_scenario(Scenario(**{**base, **numbers}), tmp_path / "numbers")
        assert res.exit_code == ref.exit_code == 0
        assert res.scenario == ref.scenario
        assert np.array_equal(res.trajectory.states, ref.trajectory.states)

    def test_outputs_as_a_list_run(self, tmp_path):
        scen = Scenario(name="x", kind="reduced", params={}, t_end=1.0,
                        outputs=["energy"])
        res = run_scenario(scen, tmp_path)
        assert res.exit_code == 0 and res.scenario.outputs == {"energy"}

    def test_numeric_string_runs(self, tmp_path):
        scen = Scenario(name="x", kind="reduced", params={"p": 3},
                        positions={1: "0.1"}, t_end=2.0)
        res = run_scenario(scen, tmp_path)
        assert res.exit_code == 0
        assert res.trajectory.states[0, 0] == 0.1


class TestKindsTable:
    """Each kind writes exactly the outputs the kinds table allows it."""

    @pytest.mark.parametrize("kind, params, outputs", [
        ("full", {}, ("trajectory", "energy")),
        ("reduced", {}, ("trajectory", "energy")),
        ("cartoon", {}, ("trajectory", "actions", "energy")),
        ("quasiharmonic", {}, ("trajectory", "actions", "energy", "analysis")),
    ])
    def test_every_allowed_output_is_written(self, tmp_path, kind, params,
                                             outputs):
        assert _KINDS[kind].outputs == outputs
        scen = Scenario(name="k", kind=kind, params=params, positions={1: 0.1},
                        t_end=2.0, outputs=set(outputs))
        res = run_scenario(scen, tmp_path)
        suffixes = {"trajectory": ("trajectory.csv", "trajectory.svg"),
                    "actions": ("actions.csv", "actions.svg"),
                    "energy": ("energy.csv",), "analysis": ("analysis.txt",)}
        expected = {"k_manifest.json"} | {
            f"k_{suffix}" for key in outputs for suffix in suffixes[key]}
        assert {f.name for f in tmp_path.iterdir()} == expected
        assert {Path(f).name for f in res.files} == expected

    @pytest.mark.parametrize("kind, output, writes", [
        ("full", "actions", "trajectory, energy"),
        ("full", "analysis", "trajectory, energy"),
        ("reduced", "actions", "trajectory, energy"),
        ("cartoon", "analysis", "trajectory, actions, energy"),
    ])
    def test_output_the_kind_cannot_write_is_refused(self, tmp_path, kind,
                                                     output, writes):
        scen = Scenario(name="k", kind=kind, params={}, outputs={output})
        with pytest.raises(ScenarioError) as err:
            run_scenario(scen, tmp_path / "out")
        assert str(err.value) == (
            f"scenario 'k', field 'outputs': kind {kind!r} cannot write "
            f"output {output!r}; it writes {writes}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params, rule", [
        ({"omega1": 0.5}, "cartoon 1 has two oscillators: give omega1 to omega2 "
                          "or none, got 1 values"),
        ({"omega1": 0.1, "omega2": 1.0, "omega3": 1.05},
         "give omega1 to omega2 or none, got 3 values"),
        ({"id": 2, "omega1": 0.1, "omega3": 1.05},
         "cartoon 2 has three oscillators: give omega1 to omega3 or none, "
         "got 2 values"),
    ])
    def test_cartoon_takes_all_its_omegas_or_none(self, tmp_path, params, rule):
        # the README's kinds table says so; the unset omegas are not
        # filled from the model
        scen = Scenario(name="k", kind="cartoon", params=params)
        with pytest.raises(ValueError, match=re.escape(rule)):
            run_scenario(scen, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        readme = (SCENARIO_DIR.parent / "README.md").read_text()
        assert "all of its omegas or none" in readme

    def test_unrequested_output_is_not_refused(self, tmp_path):
        scn = tmp_path / "s.scn"
        scn.write_text("[system]\nkind = reduced\n[outputs]\nenergy = true\n"
                       "actions = false\nanalysis = no\n")
        assert parse_scenario(scn).outputs == {"energy"}


class TestRunScenario:
    def test_outputs_and_manifest(self, scenario_results):
        res = scenario_results["fig_p3_forcing"]
        assert res.exit_code == 0
        names = {Path(f).name for f in res.files}
        assert {"fig_p3_forcing_trajectory.csv", "fig_p3_forcing_trajectory.svg",
                "fig_p3_forcing_trajectory_ref.csv", "fig_p3_forcing_actions.csv",
                "fig_p3_forcing_energy.csv", "fig_p3_forcing_analysis.txt",
                "fig_p3_forcing_manifest.json"} <= names
        for f in res.files:
            assert Path(f).exists()
        man = json.loads(Path(res.files[-1]).read_text())
        assert man["status"] == "ok"
        assert man["energy_drift"] <= 1e-8
        assert man["integrator"]["abs_tol"] == 1e-10
        assert "mode_scales" in man["reference_frame"]

    def test_manifest_key_set(self, scenario_results):
        # the run fields are read from Trajectory, the settings from
        # IntegratorConfig; the samples themselves are the CSV's
        run = ("status", "message", "t_reached", "n_steps", "n_rejected",
               "n_rhs", "h_min", "h_median", "h_max")
        keys = {"name", "scenario_file", "version", "system", "initial",
                "integrator", *run, "energy_drift", "wall_time_s", "phase_s",
                "outputs"}
        for name in BOUNDED_SCENARIOS + DIVERGENT_SCENARIOS:
            res = scenario_results[name]
            man = json.loads(Path(res.files[-1]).read_text())
            framed = res.scenario.frame != "native"
            assert set(man) == keys | ({"reference_frame"} if framed else set()), name
            assert set(res.manifest) == set(man), name
            assert man["integrator"] == {key: getattr(res.scenario, key)
                                         for key in _INTEGRATE}, name
            for key in run:
                assert man[key] == getattr(res.trajectory, key), (name, key)

    def test_manifest_counts_rhs_calls(self, scenario_results):
        # one call at the start, one for the initial-step heuristic, and
        # 12 per attempted step of the 12-stage FSAL tableau
        for name in BOUNDED_SCENARIOS:
            res = scenario_results[name]
            man = json.loads(Path(res.files[-1]).read_text())
            assert man["n_rhs"] == res.trajectory.n_rhs, name
            assert man["n_rhs"] == 2 + 12 * (man["n_steps"] + man["n_rejected"]), name

    def test_manifest_step_sizes(self, scenario_results):
        for name in BOUNDED_SCENARIOS:
            res = scenario_results[name]
            man = json.loads(Path(res.files[-1]).read_text())
            h = [man["h_min"], man["h_median"], man["h_max"]]
            assert h == [res.trajectory.h_min, res.trajectory.h_median,
                         res.trajectory.h_max], name
            assert all(math.isfinite(x) and x > 0 for x in h), name
            # landing on samples caps every step
            assert h[0] <= h[1] <= h[2] <= man["integrator"]["sample_dt"], name

    def test_csv_shape_and_header(self, scenario_results):
        res = scenario_results["fig_p3_forcing"]
        csv = next(f for f in res.files if f.endswith("_trajectory.csv"))
        lines = Path(csv).read_text().splitlines()
        assert lines[0] == "t,x1,v1,x2,v2"
        assert len(lines) == 202   # header + t = 0..200
        # 17 significant digits, '.' separator
        first = lines[1].split(",")
        assert all("e" in cell for cell in first)
        assert len(first[0].split("e")[0].replace("-", "").replace(".", "")) == 17

    def test_rerun_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        r1 = run_scenario(SCENARIO_DIR / "cartoon_bounded.scn", out1,
                          overrides={"t_end": 50.0})
        r2 = run_scenario(SCENARIO_DIR / "cartoon_bounded.scn", out2,
                          overrides={"t_end": 50.0})
        for f1, f2 in zip(r1.files, r2.files):
            if f1.endswith(".csv"):
                assert Path(f1).read_bytes() == Path(f2).read_bytes()

    def test_divergence_exit_code(self, scenario_results):
        res = scenario_results["fig_p3_divergent"]
        assert res.exit_code == 2
        assert res.manifest["status"] == "diverged"
        assert 0 < res.manifest["t_reached"] < 400


class TestSweep:
    def test_small_sweep(self):
        report = sweep_odd_p(9)
        assert [row.p for row in report.rows] == [3, 5, 7, 9]
        assert report.failures == []
        assert report.rows[0].squares.rho == {1: 1}
        assert report.rows[3].cycles == ((1, 2, 4), (3,))
        text = sweep_report_text(report)
        assert "== p = 9" in text and "0 assertion failure(s)" in text

    def test_pmax_guard(self):
        with pytest.raises(ValueError, match="p_max"):
            sweep_odd_p(201)

    def test_pmax_below_three_is_refused(self):
        # a p_max below 3 swept no system and exited 0
        with pytest.raises(ValueError, match=r"p_max must be in 3\.\.199, got 1$"):
            sweep_odd_p(1)

    def test_pmax_must_be_an_integer(self):
        # a float p_max passed the guard and failed inside range()
        for p_max in (3.5, 5.0):
            with pytest.raises(ValueError, match=rf"^sweep guard: p_max must be "
                                                 rf"in 3\.\.199, got {p_max}$"):
                sweep_odd_p(p_max)
        assert [row.p for row in sweep_odd_p(np.int64(5)).rows] == [3, 5]

    @pytest.mark.parametrize("p_max, a", [(199, 0.001), (199, 1000.0),
                                          (99, 1.0001)])
    def test_no_false_violations_away_from_a_001(self, p_max, a):
        # a cutoff at 1e-12 of the largest coupling dropped genuine ones
        # and reported 35, 35 and 5 false "square pattern violated"
        assert sweep_odd_p(p_max, a=a).failures == []

    def test_equal_masses_violate_the_pattern_at_every_p(self):
        # at a = 1 every mode is a single cosine and both squares of a pair
        # land in one equation, which is true of the equal-mass chain
        report = sweep_odd_p(15, a=1.0)
        assert [p for p, _ in report.failures] == list(range(3, 16, 2))
        assert all(f.startswith("square pattern violated: squares of pair 1 ")
                   for _, f in report.failures)

    def test_sweep_logs_the_smallest_coupling(self, caplog):
        with caplog.at_level(logging.INFO, logger="fpualt"):
            sweep_odd_p(9, a=0.3)
        assert [record.args[0] for record in caplog.records] == [3, 5, 7, 9]
        for record in caplog.records:
            p, margin = record.args[0], record.args[-1]
            coeff = np.abs(to_quasi_harmonic(build_reduced(p, 0.3)).monomials.coeff)
            assert margin == coeff.min() / coeff.max()
            assert f"smallest coupling {margin:.3g} of the largest" in record.getMessage()

    def test_full_sweep_to_47(self):
        report = sweep_odd_p(47)
        assert report.failures == []
        rows = {row.p: row for row in report.rows}
        assert len(rows) == 23
        # every prime shows two-way high-low interaction, no invariant sets
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        for p in primes:
            assert rows[p].squares.rho and rows[p].formula == []
            if p >= 5:
                assert rows[p].invariants == []
        # the composite census carried by the report rows
        for p, sizes in ((9, [2]), (15, [2, 4]), (25, [4]), (27, [2, 8]),
                         (45, [2, 4, 8, 14])):
            assert sorted(c.n_kept for c in rows[p].invariants) == sizes
        text = sweep_report_text(report)
        assert "0 assertion failure(s)" in text
        assert text == (GOLDEN / "sweep_p47.txt").read_text()

    def test_analysis_reports_golden(self):
        systems = {"p3_full": load_reference("p3_full"),
                   "p9_full": load_reference("p9_full"),
                   "p15": to_quasi_harmonic(build_reduced(15, 0.01, 1.0))}
        for name, system in systems.items():
            expected = (GOLDEN / f"analysis_{name}.txt").read_text()
            assert analysis_report(system) == expected, name

    def test_subsystem_report_has_no_pair_formula(self):
        # a subsystem keeps its parent's p but renumbers its pairs, so
        # min(2i, p-2i) does not describe its rho
        qh9 = to_quasi_harmonic(build_reduced(9, 0.01, 1.0))
        for sub in (extract_subsystem(qh9, [5, 6]), load_reference("p9_sub34")):
            row = structure_census(sub)
            assert (sub.p, sub.dof, row.squares.rho) == (9, 2, {1: 1})
            assert row.formula is None and row.failures == []
            report = analysis_report(sub)
            assert "forcing squares: rho = 1->1" in report
            assert "formula" not in report
        assert structure_census(qh9).formula == []

    def test_formula_reads_the_pairs_the_labels_name(self):
        # the shipped p = 9 table lists its pairs from 4 down to 1; its slot
        # rho 1->4 2->2 3->1 4->3 is 4->1 3->3 2->4 1->2 in those pairs,
        # which is min(2i, p-2i)
        row = structure_census(load_reference("p9_full"))
        assert row.squares.rho == {1: 4, 2: 2, 3: 1, 4: 3}
        assert row.formula == [] and row.failures == []

    def test_formula_fails_on_swapped_pair_labels(self):
        # the negative control of the sweep verdict: the built p = 7 system
        # with the labels of pairs 1 and 2 swapped, its coupling unchanged
        qh = to_quasi_harmonic(build_reduced(7, 0.01, 1.0))
        labels = qh.labels
        swapped = replace(qh, labels=labels[2:4] + labels[:2] + labels[4:])
        row = structure_census(swapped)
        assert row.formula == [1, 2, 3]
        assert row.failures == ["rho disagrees with min(2i, p-2i) at [1, 2, 3]"]

    def test_census_maps_the_squares_once(self, monkeypatch):
        calls = []

        def counted(sys):
            calls.append(sys.p)
            return square_map(sys)

        monkeypatch.setattr(fpualt.coupling, "square_map", counted)
        monkeypatch.setattr(fpualt.scenarios, "square_map", counted)
        row = structure_census(to_quasi_harmonic(build_reduced(15, 0.01, 1.0)))
        assert calls == [15] and len(row.invariants) == 2


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        code = main(["run", str(SCENARIO_DIR / "cartoon_bounded.scn"),
                     "--out-dir", str(tmp_path), "--t-end", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cartoon_bounded: ok" in out
        assert (tmp_path / "cartoon_bounded_manifest.json").exists()

    def test_manifest_phase_times(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["run", str(SCENARIO_DIR / "fig_p3_forcing.scn"),
                     "--out-dir", str(tmp_path), "--t-end", "20"])
        job = time.perf_counter() - start
        manifest = json.loads((tmp_path / "fig_p3_forcing_manifest.json").read_text())
        phases = manifest["phase_s"]
        assert code == 0
        assert list(phases) == ["build", "energy", "integrate", "writers"]
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert phases["integrate"] == manifest["wall_time_s"]
        assert sum(phases.values()) <= job

    def test_missing_scenario_is_usage_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "ghost.scn"), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_reference_table_is_usage_error(self, tmp_path, capsys):
        scn = tmp_path / "ghost_table.scn"
        scn.write_text("[system]\nkind = quasiharmonic\np = 3\n"
                       "[initial]\nframe = ref:p7_full\nx1 = 0.1\n")
        assert main(["run", str(scn), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scn}:5: unknown reference table")
        assert "p3_full" in err
        assert "Traceback" not in err

    def test_degenerate_spectrum_is_usage_error(self, tmp_path, capsys):
        # a = 1e-13 collapses the acoustic eigenvalues below resolution
        scn = tmp_path / "degenerate.scn"
        scn.write_text("[system]\nkind = quasiharmonic\np = 5\na = 1e-13\n"
                       "[initial]\nx2 = 0.1\n[integrate]\nt_end = 1\n")
        assert main(["run", str(scn), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eigenvalue gap")
        assert "Traceback" not in err
        assert main(["sweep", "--pmax", "5", "--a", "1e-13",
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: eigenvalue gap")
        # within a few ulps of a = 1 allowed couplings cancel to exactly 0
        a = repr(1.0 + 2.0 ** -52)
        assert main(["sweep", "--pmax", "23", "--a", a,
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"a={a}: a is within round-off" in err

    def test_underflowing_coupling_is_usage_error(self, tmp_path, capsys):
        # at p = 3 and a <= about 1e-216 an allowed coupling underflows to
        # 0; the refusal said that a was within round-off of a = 1
        assert main(["sweep", "--pmax", "3", "--a", "1e-300",
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: an allowed coupling underflows to 0 for p=3, a=1e-300\n")
        assert list(tmp_path.iterdir()) == []

    def test_pattern_violation_fails_a_sweep(self, tmp_path, capsys):
        # a violation is a finding: the sweep reports it and exits 3 (the
        # analyze verb writes it into its report and exits 0, see
        # test_analyze_reports_a_rho_that_is_not_a_permutation)
        assert main(["sweep", "--pmax", "15", "--a", "1",
                     "--out-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("FAILURE: square pattern violated: ") == 7
        assert "sweep result: 7 systems, 7 assertion failure(s)\n" in captured.out
        assert (tmp_path / "sweep_p15.txt").exists()

    @pytest.mark.parametrize("kind, line, output", [
        ("reduced", "p = 3", "actions = true"),
        ("cartoon", "id = 2", "analysis = true"),
    ])
    def test_output_the_kind_cannot_write_is_usage_error(self, tmp_path, capsys,
                                                         kind, line, output):
        scn = tmp_path / "s.scn"
        scn.write_text(f"[system]\nkind = {kind}\n{line}\n[outputs]\n"
                       f"trajectory = true\n{output}\n")
        out = tmp_path / "out"
        assert main(["run", str(scn), "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {scn}:6: kind {kind!r} cannot write output "
            f"{output.split()[0]!r}; it writes ")
        assert captured.out == ""
        assert [f.name for f in tmp_path.iterdir()] == ["s.scn"]

    def test_non_finite_scenario_value_is_usage_error(self, tmp_path, capsys):
        # alpha = inf made the acceleration NaN at t = 0 and the run hang
        scn = tmp_path / "inf.scn"
        scn.write_text("[system]\nkind = reduced\np = 3\nalpha = inf\n"
                       "[initial]\nq1 = 0.1\n")
        out = tmp_path / "out"
        assert main(["run", str(scn), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {scn}:4: not a finite number: 'inf'\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--a", "inf"), ("--a", "-inf")])
    def test_non_finite_sweep_parameter_is_usage_error(self, tmp_path, capsys,
                                                       flag, value):
        # these printed NaN eigenvalues and "interaction: yes" with exit 0
        assert main(["sweep", "--pmax", "5", f"{flag}={value}",
                     "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {flag[2:]} must be a finite number, "
                                f"got {float(value)}\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_sweep_has_no_alpha_flag(self, tmp_path, capsys):
        # every structural verdict is alpha-free; the flag only changed the
        # header and dropped the table fit lines
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pmax", "3", "--alpha", "2", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_t_end_is_usage_error(self, tmp_path, capsys):
        # --t-end inf ran no step, printed "ok" and exited 0
        out = tmp_path / "out"
        assert main(["run", str(SCENARIO_DIR / "fig_p3_forcing.scn"),
                     "--t-end", "inf", "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: t_end must be a finite number, got inf\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, t_end, sample_dt", [
        ("--t-end", "1e13", 1e13, 1.0), ("--sample-dt", "1e-9", 200.0, 1e-9)])
    def test_too_many_samples_is_usage_error(self, tmp_path, capsys, flag, value,
                                             t_end, sample_dt):
        # --t-end 1e13 stopped at t = 0 with a false step_underflow and wrote
        # 9 files; --sample-dt 1e-9 ran for ever
        out = tmp_path / "out"
        assert main(["run", str(SCENARIO_DIR / "fig_p3_forcing.scn"),
                     flag, value, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: sample_dt {sample_dt} gives more than "
                                f"1000000 samples up to t_end {t_end}\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("t_end, sample_dt, code, status, rows", [
        ("1e-8", "1e-13", 0, "ok", 100_001),
        ("1e-12", "1e-14", 0, "ok", 101),
        ("1e-300", "1e-301", 2, "step_underflow", 1)])
    def test_short_run_lands_on_t_end_or_underflows(self, tmp_path, capsys, t_end,
                                                    sample_dt, code, status, rows):
        # the absolute landing tolerance 1e-12 stopped 1e-8 at t = 9.999e-9
        # after 99 991 samples, and reported 1e-12 and 1e-300 ok after 0 steps
        assert main(["run", str(SCENARIO_DIR / "cartoon_bounded.scn"), "--t-end", t_end,
                     "--sample-dt", sample_dt, "--out-dir", str(tmp_path)]) == code
        manifest = json.loads((tmp_path / "cartoon_bounded_manifest.json").read_text())
        times = np.loadtxt(tmp_path / "cartoon_bounded_trajectory.csv", delimiter=",",
                           skiprows=1, usecols=0, ndmin=1)
        assert manifest["status"] == status and times.size == rows
        if status == "ok":
            assert times[-1] == manifest["t_reached"] == float(t_end)
        else:
            assert manifest["message"] == "step size underflow (h=1.000e-300) at t=0"

    def test_equilibria_of_too_many_modes_is_usage_error(self, tmp_path, capsys):
        assert main(["equilibria", str(TABLE_DIR / "p9_a001.txt"),
                     "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: the equilibrium grid search is limited to "
                                "6 modes; this system has 8 modes\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_mass_parameter_is_usage_error(self, tmp_path, capsys):
        # (1 + a)^2 overflowed into an OverflowError traceback
        assert main(["sweep", "--pmax", "5", "--a", "1e200",
                     "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: mass parameter a = 1e+200 is too large: "
                                "(1 + a)^2 overflows\n")
        assert list(tmp_path.iterdir()) == []
        # 1/a overflowed to an infinite mass: a RuntimeWarning in matmul,
        # then a false "square pattern violated" and exit 3
        assert main(["sweep", "--pmax", "3", "--a", "1e-320",
                     "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: mass parameter a = 1e-320 is too small: "
                                "1/a overflows\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--pmax", "-7"], "sweep guard: p_max must be in 3..199, got -7"),
        (["run", "kind = reduced\np = 100001"],
         "p must be an odd integer in 3..199, got 100001"),
        (["run", "kind = full\nn_pairs = 200"], "n_pairs must be in 2..199, got 200")])
    def test_oversized_system_is_usage_error(self, tmp_path, capsys, argv, message):
        # p = 100001 tried to allocate 74.5 GiB; --pmax -7 swept nothing, exit 0
        if argv[0] == "run":
            scn = tmp_path / "big.scn"
            scn.write_text(f"[system]\n{argv[1]}\n[initial]\nq1 = 0.1\n")
            argv = ["run", str(scn)]
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_one_sample_run_writes_finite_plots(self, tmp_path, capsys):
        # a run that stops at t = 0 has one sample; the zero time span made
        # every SVG coordinate nan, with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(SCENARIO_DIR / "cartoon_bounded.scn"),
                         "--abs-tol", "1e-300", "--t-end", "1",
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert "step_underflow (t_reached 0, 0 steps)" in capsys.readouterr().out
        plots = sorted(tmp_path.glob("*.svg"))
        assert len(plots) == 2
        assert not any("nan" in plot.read_text() for plot in plots)

    def test_subnormal_start_writes_every_output(self, tmp_path, capsys):
        # x1 = 5e-324 gives a y span whose fifth rounds to 0: the SVG
        # writer warned twice, failed with "arange: cannot compute length"
        # and left only the trajectory CSV, with no manifest
        scn = tmp_path / "tiny.scn"
        scn.write_text("[system]\nkind = cartoon\nid = 1\n[initial]\nx1 = 5e-324\n"
                       "[integrate]\nt_end = 10\n"
                       "[outputs]\ntrajectory = true\nactions = true\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(scn), "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(f.name for f in out.iterdir()) == [
            "tiny_actions.csv", "tiny_actions.svg", "tiny_manifest.json",
            "tiny_trajectory.csv", "tiny_trajectory.svg"]

    def test_fit_refusal_names_the_table_and_a_plain_float(self, tmp_path,
                                                           capsys):
        # this printed "matches reference np.float64(0.0149623)" with no line
        scn = tmp_path / "drifted.scn"
        scn.write_text("[system]\nkind = quasiharmonic\np = 3\na = 0.0101\n"
                       "[initial]\nframe = ref:p3_full\nx1 = 0.1\n")
        out = tmp_path / "out"
        assert main(["run", str(scn), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        match = re.fullmatch(
            f"error: {re.escape(str(scn))}:6: no source eigenvalue matches "
            r"reference 'p3_full' eigenvalue (\S+) within 0\.0001\n", err)
        assert match, err
        assert float(match[1]) in load_reference("p3_full").lambdas.tolist()
        assert not out.exists()

    def test_divergence_exit(self, tmp_path):
        code = main(["run", str(SCENARIO_DIR / "fig_p3_divergent.scn"),
                     "--out-dir", str(tmp_path)])
        assert code == 2

    def test_sweep_verb(self, tmp_path, capsys):
        code = main(["sweep", "--pmax", "7", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep_p7.txt").exists()

    def test_verbose_sweep_logs_each_p(self, tmp_path, capsys):
        # -v logs one line per p to stderr and leaves the report alone;
        # without it the sweep is quiet, also after a verbose run
        runs = {}
        for name, flags in (("quiet", []), ("loud", ["-v"]), ("after", [])):
            out = tmp_path / name
            assert main([*flags, "sweep", "--pmax", "9", "--out-dir", str(out)]) == 0
            runs[name] = ((out / "sweep_p9.txt").read_bytes(),
                          capsys.readouterr().err)
        assert runs["quiet"][1] == "" and runs["after"][1] == ""
        assert runs["loud"][0] == runs["quiet"][0] == runs["after"][0]
        progress = [re.fullmatch(r"sweep p=(\d+): (\d+\.\d{3}) s, "
                                 r"(\d+) invariant candidates tested, "
                                 r"smallest coupling (\S+) of the largest", line)
                    for line in runs["loud"][1].splitlines()]
        assert all(progress)
        # p = 9 has the cycles (1 2 4)(3), so 2^2 - 2 unions; 3, 5, 7 have one
        assert [(int(m[1]), int(m[3])) for m in progress] == \
               [(3, 0), (5, 0), (7, 0), (9, 2)]
        assert all(float(m[2]) >= 0.0 for m in progress)
        assert all(0.0 < float(m[4]) <= 1.0 for m in progress)

    def test_verbose_equilibria_logs_where_the_census_stopped(self, tmp_path, capsys):
        # -v logs one line to stderr, naming the seed rule, and leaves the
        # report alone; a subsystem table that fits no chain runs the grid
        runs = {}
        for name, flags in (("quiet", []), ("loud", ["-v"])):
            out = tmp_path / name
            assert main([*flags, "equilibria", str(TABLE_DIR / "p5_a001.txt"),
                         "--out-dir", str(out)]) == 0
            runs[name] = ((out / "p5_a001_equilibria.txt").read_bytes(),
                          capsys.readouterr().err)
        assert runs["loud"][0] == runs["quiet"][0]
        assert runs["quiet"][1] == ""
        assert runs["loud"][1] == ("equilibria: 16 points from 16 uniform-tension "
                                   "and 0 of 6561 grid seeds\n")
        assert main(["-v", "equilibria", str(TABLE_DIR / "p5_a001_sub14.txt"),
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ("equilibria: 3 points from 0 uniform-tension "
                                           "and 81 of 81 grid seeds\n")

    @pytest.mark.parametrize("make, found", [
        pytest.param(lambda: to_quasi_harmonic(build_reduced(3, 1e-3, 1.0)), 4, id="3-0.001-4"),
        pytest.param(lambda: to_quasi_harmonic(build_reduced(7, 1e-4, 1.0)), 64,
                     id="7-0.0001-64"),
        # the p = 3 pair inside the p = 9 chain: its fourth point,
        # (34.684, -0.013), lies outside the grid
        pytest.param(lambda: extract_subsystem(
            to_quasi_harmonic(build_reduced(9, 0.01, 1.0)), (5, 6)), 4, id="p9_sub56-4"),
    ])
    def test_equilibria_of_a_saved_built_system_is_complete(self, tmp_path, capsys,
                                                            make, found):
        # from the grid the census found 3 of 4, 58 of 64 after 23.9 s, and 3 of 4
        sysfile = tmp_path / "system.txt"
        save_system(make(), sysfile)
        start = time.perf_counter()
        assert main(["equilibria", str(sysfile), "--out-dir", str(tmp_path)]) == 0
        assert time.perf_counter() - start < 1.0
        assert f"({found} found;" in capsys.readouterr().out

    def test_analyze_and_equilibria_verbs(self, tmp_path, capsys):
        sysfile = tmp_path / "p3.txt"
        save_system(to_quasi_harmonic(build_reduced(3, 0.01, 1.0)), sysfile)
        assert main(["analyze", str(sysfile), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "rho = 1->1" in out
        assert (tmp_path / "p3_analysis.txt").exists()

        assert main(["equilibria", str(sysfile), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 found" in out
        assert (tmp_path / "p3_equilibria.txt").exists()

    def test_equilibria_has_no_alpha_flag(self, tmp_path, capsys):
        # the equilibria at alpha are the alpha = 1 points divided by
        # alpha, with the same classification, so the flag told nothing new
        with pytest.raises(SystemExit) as exc:
            main(["equilibria", str(TABLE_DIR / "p3_a001.txt"), "--alpha", "2",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_analyze_reports_a_table_fit_that_cannot_align(self, tmp_path, capsys):
        # the failed optional fit refused the whole report, although no
        # structure verdict reads it
        table = (TABLE_DIR / "p3_a001.txt").read_text()
        assert table.count("2.00504 optical 1\n") == 1
        sysfile = tmp_path / "p3_moved.txt"
        sysfile.write_text(table.replace("2.00504 optical 1\n", "2.2 optical 1\n"))
        assert main(["analyze", str(sysfile), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "forcing squares: rho = 1->1" in out
        assert ("scaling fit vs table p3_full: not made (no source eigenvalue "
                "matches reference 'p3_full' eigenvalue 2.00504 within 0.0001)\n") in out

    def test_analyze_reports_a_rho_that_is_not_a_permutation(self, tmp_path, capsys):
        # the square map returned rho = {1: 1, 2: 1}; analyze then exited 1
        # with "error: not a permutation" and wrote no report
        sysfile = tmp_path / "p5_bad.txt"
        save_system(non_permutation_table(), sysfile)
        assert main(["analyze", str(sysfile), "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        line = ("forcing squares: PATTERN VIOLATION: squares of pairs 1 and 2 "
                "both force pair 1 (rho is not a permutation)\n")
        assert line in captured.out and captured.err == ""
        assert line in (tmp_path / "p5_bad_analysis.txt").read_text()

    @pytest.mark.parametrize("argv", [
        ["run", str(SCENARIO_DIR)],
        ["analyze", str(SCENARIO_DIR)],
        ["equilibria", str(TABLE_DIR / "p3_a001.txt")],
        ["run", str(SCENARIO_DIR / "cartoon_bounded.scn"), "--t-end", "1"],
    ], ids=["run-directory", "analyze-directory", "equilibria-out-dir-file",
            "run-out-dir-file"])
    def test_file_system_error_is_usage_error(self, tmp_path, capsys, argv):
        # a directory as the input file, or a file as the output directory,
        # ended in an IsADirectoryError or FileExistsError traceback
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(argv + ["--out-dir", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FPUALT_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", "--pmax", "3"])
        assert code == 0
        assert (tmp_path / "envout" / "sweep_p3.txt").exists()


class TestRunSettings:
    """IntegratorConfig names the run settings and states their defaults;
    a scenario and the run verb take both from there."""

    def test_scenario_defaults_are_the_integrators(self):
        assert (Scenario(name="x", kind="reduced", params={}).config()
                == IntegratorConfig(t_end=100.0))

    def test_run_flags_are_the_integrate_keys(self):
        verbs = next(action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
        flags = [action.dest for action in verbs.choices["run"]._actions
                 if action.option_strings and action.dest not in ("help", "out_dir")]
        assert flags == list(_INTEGRATE)

    def test_each_run_flag_overrides_its_key(self, tmp_path, capsys):
        settings = {"t_end": 2.0, "abs_tol": 1e-9, "rel_tol": 1e-8, "sample_dt": 0.5}
        flags = [arg for name, value in settings.items()
                 for arg in (f"--{name.replace('_', '-')}", str(value))]
        assert main(["run", str(SCENARIO_DIR / "cartoon_bounded.scn"),
                     "--out-dir", str(tmp_path), *flags]) == 0
        manifest = json.loads((tmp_path / "cartoon_bounded_manifest.json").read_text())
        assert manifest["integrator"] == settings


class TestReadme:
    """The README's scenario example runs, and its kinds table is ``_KINDS``."""

    TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def test_scenario_example_runs(self, tmp_path):
        scn = tmp_path / "readme.scn"
        scn.write_text(re.search(r"```ini\n(.*?)```", self.TEXT, re.S)[1])
        scen = parse_scenario(scn)
        res = run_scenario(replace(scen, t_end=1.0), tmp_path / "out")
        assert res.exit_code == 0
        assert res.scenario == replace(scen, t_end=1.0)
        assert scen.outputs == {"trajectory", "actions", "energy"}

    def test_kinds_table_is_the_code(self):
        # a row reads: | `kind` | `key` [default], ... | `output`, ... |; a
        # default in brackets belongs to every key since the previous one
        table = {}
        for kind, keys, outputs in re.findall(r"^\| `(\w+)` \| (.*) \| (.*) \|$",
                                              self.TEXT, re.M):
            defaults, pending = [], []
            for key, default in re.findall(r"`(\w+)`(?: \[([^\]]+)\])?", keys):
                pending.append(key)
                if default:
                    value = (None if default == "the model's own"
                             else ast.literal_eval(default))
                    defaults += [(k, value, type(value)) for k in pending]
                    pending = []
            assert not pending, kind
            table[kind] = defaults, tuple(re.findall(r"`(\w+)`", outputs))
        assert table == {
            kind: ([(k, v, type(v)) for k, v in spec.defaults.items()], spec.outputs)
            for kind, spec in _KINDS.items()}
