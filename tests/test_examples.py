"""The example programs under ``examples/`` run to completion.

Each runs in a fresh interpreter with ``PYTHONPATH=src``, as the README
shows them, and must exit 0.
"""

import glob
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_example_exits_cleanly():
    examples = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))
    assert examples
    environment = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    environment.pop("REPRO_CHAOS", None)
    for path in examples:
        result = subprocess.run(
            [sys.executable, path],
            capture_output=True,
            text=True,
            env=environment,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, (os.path.basename(path), result.stderr)
