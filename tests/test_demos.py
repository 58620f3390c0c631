"""Every demo script runs to completion against the package under test."""

import os
import subprocess
import sys

import pytest

import helioflux as hf

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def _listing(root):
    """Size and modification time of every file under ``root``, by path."""
    listing = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            listing[path] = (os.stat(path).st_size, os.stat(path).st_mtime_ns)
    return listing


@pytest.mark.parametrize("demo", sorted(name for name in os.listdir(DEMOS)
                                        if name.endswith(".py")))
def test_demo_runs(demo, tmp_path):
    # The child runs from its own working directory, where a relative
    # PYTHONPATH resolves to nothing; point it at the package under test.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    before = _listing(DEMOS)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # a demo writes only under its working directory, never into the checkout
    assert _listing(DEMOS) == before
