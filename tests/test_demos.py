"""The four demos run to completion against the current package.

Each demo runs in its own process, in a temporary working directory (the
fourth writes ``demo_out/`` there), with ``src/`` first on the path.
"""

import os
import subprocess
import sys

import pytest

from conftest import REPO

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
