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
table, each kind of report into a directory of its own, with one ``exit_codes.txt`` line per report: its
arguments, exit code and error output.  Every output file is then compared byte
for byte, except the manifests, which are compared as JSON without
their timing fields (``wall_time_s``, ``phase_s``) and with their
``outputs`` reduced to file names.

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
import contextlib, io, sys
from pathlib import Path
import fpualt
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
reports = {"sweep": [["sweep", "--pmax", "99"]],
           "sweep_a0.3": [["sweep", "--pmax", "99", "--a", "0.3"]],
           "sweep_a1": [["sweep", "--pmax", "15", "--a", "1"]],
           "analyze": [["analyze", t] for t in tables],
           "equilibria": [["equilibria", t] for t in tables]}
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
