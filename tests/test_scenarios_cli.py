import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fpualt import (PatternViolationError, ScenarioError, build_reduced,
                    parse_scenario, run_scenario, save_system, sweep_odd_p,
                    sweep_report_text, to_quasi_harmonic)
from fpualt.cli import main

from conftest import BOUNDED_SCENARIOS, SCENARIO_DIR


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

    def test_initial_index_out_of_range(self, tmp_path):
        bad = tmp_path / "s.scn"
        bad.write_text("[system]\nkind = reduced\np = 3\n[initial]\nq7 = 1\n"
                       "[integrate]\nt_end = 1\n")
        with pytest.raises(ScenarioError, match="out of range"):
            run_scenario(bad, tmp_path / "out")


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
            # no scenario sets max_step; landing on samples caps every step
            assert h[0] <= h[1] <= h[2] <= res.scenario.config().max_step, name
            assert h[2] <= man["integrator"]["sample_dt"], name

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
        assert report.rows[0].rho == {1: 1}
        assert report.rows[3].cycles == ((1, 2, 4), (3,))
        text = sweep_report_text(report)
        assert "== p = 9" in text and "0 assertion failure(s)" in text

    def test_pmax_guard(self):
        with pytest.raises(ValueError, match="p_max"):
            sweep_odd_p(201)

    def test_full_sweep_to_47(self):
        report = sweep_odd_p(47)
        assert report.failures == []
        rows = {row.p: row for row in report.rows}
        assert len(rows) == 23
        # every prime shows two-way high-low interaction, no invariant sets
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        for p in primes:
            assert rows[p].optical_forces_acoustic
            assert rows[p].acoustic_forces_optical
            assert rows[p].jan_ok
            if p >= 5:
                assert rows[p].invariants == []
        # the composite census carried by the report rows
        for p, sizes in ((9, [2]), (15, [2, 4]), (25, [4]), (27, [2, 8]),
                         (45, [2, 4, 8, 14])):
            assert sorted(c.n_kept for c in rows[p].invariants) == sizes
        text = sweep_report_text(report)
        assert "0 assertion failure(s)" in text


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        code = main(["run", str(SCENARIO_DIR / "cartoon_bounded.scn"),
                     "--out-dir", str(tmp_path), "--t-end", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cartoon_bounded: ok" in out
        assert (tmp_path / "cartoon_bounded_manifest.json").exists()

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

    def test_pattern_violation_is_usage_error(self, tmp_path, capsys,
                                              monkeypatch):
        def violate(**kwargs):
            raise PatternViolationError("squares of pair 1 occur nowhere")

        monkeypatch.setattr("fpualt.cli.sweep_odd_p", violate)
        assert main(["sweep", "--pmax", "5", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: squares of pair 1 occur nowhere\n"

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
                                 r"(\d+) invariant candidates tested", line)
                    for line in runs["loud"][1].splitlines()]
        assert all(progress)
        # p = 9 has the cycles (1 2 4)(3), so 2^2 - 2 unions; 3, 5, 7 have one
        assert [(int(m[1]), int(m[3])) for m in progress] == \
               [(3, 0), (5, 0), (7, 0), (9, 2)]
        assert all(float(m[2]) >= 0.0 for m in progress)

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

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FPUALT_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", "--pmax", "3"])
        assert code == 0
        assert (tmp_path / "envout" / "sweep_p3.txt").exists()
