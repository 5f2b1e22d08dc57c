"""Run every shipped scenario with two source trees and compare the outputs.

    python tools/compare_outputs.py OLD_SRC NEW_SRC [--t-end T]

OLD_SRC and NEW_SRC are directories that hold the ``fpualt`` package
(the ``src`` directory of a checkout).  The scenario files are the ones
in ``scenarios/`` next to this tool, the same files for both trees.
Each tree runs all of them through ``fpualt run`` in a subprocess of its
own, with ``--t-end T`` when given.  Every output file is then compared
byte for byte, except the manifests, which are compared as JSON without
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

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TIMING_FIELDS = ("wall_time_s", "phase_s")

# Runs in the subprocess: sys.argv is [src, out_dir, t_end or "", scenario...].
_RUNNER = """
import contextlib, io, sys
from pathlib import Path
import fpualt
from fpualt.cli import main
src, out, t_end, *scenarios = sys.argv[1:]
if not Path(fpualt.__file__).resolve().is_relative_to(Path(src).resolve()):
    sys.exit(f"fpualt imported from {fpualt.__file__}, not from {src}")
for path in scenarios:
    args = ["run", path, "--out-dir", out] + (["--t-end", t_end] if t_end else [])
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    if code not in (0, 2):
        sys.exit(f"{path}: exit code {code}")
"""


def run_tree(src, out_dir, t_end):
    """Run every scenario with the fpualt package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    scenarios = [str(path) for path in sorted(SCENARIOS.glob("*.scn"))]
    subprocess.run([sys.executable, "-c", _RUNNER, str(src), str(out_dir),
                    "" if t_end is None else repr(t_end), *scenarios],
                   env=env, check=True)


def manifest_fields(path):
    """A manifest's fields without its timings, outputs as file names."""
    manifest = json.loads(path.read_text())
    for name in TIMING_FIELDS:
        manifest.pop(name, None)
    manifest["outputs"] = [Path(f).name for f in manifest.get("outputs", [])]
    return manifest


def differing_files(old_dir, new_dir):
    """(names of the files that differ or exist in one tree only, number compared)."""
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.iterdir()})
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
