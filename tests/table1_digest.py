"""The byte contract of the bundled scene: one sha256 per artifact of
``helioflux run table1.scene --engine both --out out``.

``tests/data/table1.sha256`` holds the digests and the numpy version that
made them.  ``tests/test_acceptance.py`` runs the scene and compares every
file name and digest with it.  A change that alters artifacts on purpose
regenerates the file from the repository root, on the numpy version that
CI's newest leg installs, and lists the files it names as changed:

    PYTHONPATH=src python tests/table1_digest.py
"""

import hashlib
import os
import tempfile

import numpy as np

import helioflux as hf
from helioflux.cli import run

DIGEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "table1.sha256")
NUMPY_LINE = "# numpy = "


def artifact_digests(workdir):
    """{file name: sha256 hex} of the bundled scene's artifacts, run with
    engine both and out directory "out" from ``workdir``, so that the
    manifest reads ``run.out = out`` wherever it runs."""
    config = hf.with_overrides(hf.load_config(hf.table1_scene_path()),
                               engine="both", out_dir="out")
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        run(config)
    finally:
        os.chdir(previous)
    out = os.path.join(workdir, "out")
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def read_digest(path=DIGEST_PATH):
    """(numpy version, {file name: sha256 hex}) of a digest file."""
    numpy_version, digests = None, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(NUMPY_LINE):
                numpy_version = line[len(NUMPY_LINE):].strip()
            elif not line.startswith("#"):
                digest, name = line.rstrip("\n").split("  ", 1)
                digests[name] = digest
    return numpy_version, digests


def write_digest(digests, path=DIGEST_PATH):
    """Write ``digests`` in ``sha256sum`` format, which skips the '#' lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# sha256 of each artifact of "
                 "`helioflux run table1.scene --engine both --out out`\n")
        fh.write(f"{NUMPY_LINE}{np.__version__}\n")
        for name, digest in digests.items():
            fh.write(f"{digest}  {name}\n")


if __name__ == "__main__":
    old = read_digest()[1] if os.path.exists(DIGEST_PATH) else {}
    with tempfile.TemporaryDirectory() as workdir:
        new = artifact_digests(workdir)
    write_digest(new)
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print("changed" if name in old and name in new else
                  "added" if name in new else "removed", name)
