"""Run every shipped scenario and report with two source trees and
compare the outputs.

    python tools/compare_outputs.py OLD_SRC NEW_SRC [--t-end T]

OLD_SRC and NEW_SRC are directories that hold the ``fpualt`` package
(the ``src`` directory of a checkout).  The scenario files are the ones
in ``scenarios/`` and the system tables the ones in ``src/fpualt/data/``
next to this tool, the same files for both trees.  Each tree, in a
subprocess of its own, runs every scenario through ``fpualt run``, with
``--t-end T`` when given, and writes the reports of ``fpualt sweep
--pmax 99`` (at the default a = 0.01 and at ``--a 0.3``), of ``fpualt
sweep --pmax 15 --a 1`` (exit 3: the equal-mass chain breaks the square
pattern) and of ``fpualt analyze`` and ``fpualt equilibria`` of every
table, each kind of report into a directory of its own, with one
``exit_codes.txt`` line per report: its arguments, exit code and error
output.  It also writes, with ``save_system``, every table as loaded,
the built p = 3, 5, 9, 15, 99 and 199 systems (a = 0.01; the p = 199
file has index fields up to 198) and modes 5 and 6 of the built p = 9
system (the p = 3 pair inside that chain) into ``systems/``, so that a
change of the writer shows in their bytes, and the ``fpualt
equilibria`` report of the built p = 3, 5, 9 and 15 systems and of
that subsystem into ``equilibria_built/`` (p = 9 and 15, of more than 6
modes, are refused with exit 1), so that a change of the census shows
in its digits.  It also saves the ``p5_sub14`` and ``p5_sub23`` tables
at alpha = 1e-3 (``dataclasses.replace`` on the loaded table), whose
census starts from the grid alone, into ``systems/`` and writes their
``fpualt equilibria`` reports into ``equilibria_small_alpha/``, so that
a change of the census at small alpha, where its points lie far outside
the grid, shows too.
Every output file is then compared byte for byte, except the manifests,
which are compared as JSON without their timing fields
(``wall_time_s``, ``phase_s``) and with their ``outputs`` reduced to
file names.

Prints one line per differing file and a summary; exits 0 when every
file matches and 1 when any differs or is missing from one tree.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
TABLES = ROOT / "src" / "fpualt" / "data"
TIMING_FIELDS = ("wall_time_s", "phase_s")

# Runs in the subprocess: sys.argv is [src, out_dir, t_end or "",
# number of scenarios, scenario..., table...].
_RUNNER = """
import contextlib, dataclasses, io, os, sys
from pathlib import Path
import fpualt
from fpualt import (build_reduced, extract_subsystem, load_system, save_system,
                    to_quasi_harmonic)
from fpualt.cli import main
src, out, t_end, n, *paths = sys.argv[1:]
scenarios, tables = paths[:int(n)], paths[int(n):]
if not Path(fpualt.__file__).resolve().is_relative_to(Path(src).resolve()):
    sys.exit(f"fpualt imported from {fpualt.__file__}, not from {src}")
for path in scenarios:
    args = ["run", path, "--out-dir", out] + (["--t-end", t_end] if t_end else [])
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    if code not in (0, 2):
        sys.exit(f"{path}: exit code {code}")
# a report names its system by the path it was given, so the built systems
# are given by a path relative to out, the same in both trees
os.chdir(out)
systems = Path("systems")
systems.mkdir()
for t in tables:
    save_system(load_system(t), systems / Path(t).name)
for p in (3, 5, 9, 15, 99, 199):
    save_system(to_quasi_harmonic(build_reduced(p, 0.01, 1.0)), systems / f"built_p{p}.txt")
sub56 = extract_subsystem(to_quasi_harmonic(build_reduced(9, 0.01, 1.0)), (5, 6))
save_system(sub56, systems / "built_p9_sub56.txt")
built = [str(systems / f"built_{name}.txt") for name in ("p3", "p5", "p9", "p15", "p9_sub56")]
small_alpha = []
for t in tables:
    if Path(t).stem in ("p5_a001_sub14", "p5_a001_sub23"):
        small_alpha.append(str(systems / f"{Path(t).stem}_alpha1e-3.txt"))
        save_system(dataclasses.replace(load_system(t), alpha=1e-3), small_alpha[-1])
reports = {"sweep": [["sweep", "--pmax", "99"]],
           "sweep_a0.3": [["sweep", "--pmax", "99", "--a", "0.3"]],
           "sweep_a1": [["sweep", "--pmax", "15", "--a", "1"]],
           "analyze": [["analyze", t] for t in tables],
           "equilibria": [["equilibria", t] for t in tables],
           "equilibria_built": [["equilibria", path] for path in built],
           "equilibria_small_alpha": [["equilibria", path] for path in small_alpha]}
for verb, jobs in reports.items():
    report_dir = Path(out) / verb
    lines = []
    for args in jobs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args + ["--out-dir", str(report_dir)])
        lines.append(f"{' '.join(Path(a).name for a in args)}: {code} {err.getvalue()!r}")
    report_dir.mkdir(exist_ok=True)
    (report_dir / "exit_codes.txt").write_text("\\n".join(lines) + "\\n")
"""


def run_tree(src, out_dir, t_end):
    """Run every scenario and report with the fpualt package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    scenarios = [str(path) for path in sorted(SCENARIOS.glob("*.scn"))]
    tables = [str(path) for path in sorted(TABLES.glob("*.txt"))]
    subprocess.run([sys.executable, "-c", _RUNNER, str(src), str(out_dir),
                    "" if t_end is None else repr(t_end), str(len(scenarios)),
                    *scenarios, *tables],
                   env=env, check=True)


def manifest_fields(path):
    """A manifest's fields without its timings, outputs as file names."""
    manifest = json.loads(path.read_text())
    for name in TIMING_FIELDS:
        manifest.pop(name, None)
    manifest["outputs"] = [Path(f).name for f in manifest.get("outputs", [])]
    return manifest


def differing_files(old_dir, new_dir):
    """(paths of the files that differ or exist in one tree only, number compared)."""
    names = sorted({str(p.relative_to(d)) for d in (old_dir, new_dir)
                    for p in d.rglob("*") if p.is_file()})
    differ = []
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            differ.append(f"{name} (only in {'old' if old.exists() else 'new'})")
        elif name.endswith("_manifest.json"):
            if manifest_fields(old) != manifest_fields(new):
                differ.append(name)
        elif old.read_bytes() != new.read_bytes():
            differ.append(name)
    return differ, len(names)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--t-end", type=float, default=None,
                        help="run every scenario to this time instead of its own")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "old", Path(tmp) / "new"]
        for src, out_dir in zip((args.old_src, args.new_src), dirs):
            run_tree(src, out_dir, args.t_end)
        differ, compared = differing_files(*dirs)
    for name in differ:
        print(f"differs: {name}")
    print(f"{compared} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
