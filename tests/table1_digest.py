"""The byte contract of the bundled scene: one sha256 per artifact of
``helioflux run table1.scene --engine both --out out``.

``tests/data/table1.sha256`` holds the digests of the scene as shipped (48
azimuth nodes) and ``tests/data/table1_47.sha256`` those of the scene at 47
azimuth nodes, whose odd count runs the sun cone's own node offset; each
file also records the numpy version that made it.
``tests/test_acceptance.py`` runs the scene at both counts and compares
every file name and digest with them.  A change that alters artifacts on
purpose regenerates both files from the repository root, on the numpy
version that CI's pinned leg installs, and lists the files it names as
changed:

    PYTHONPATH=src python tests/table1_digest.py
"""

import dataclasses
import hashlib
import os
import tempfile

import numpy as np

import helioflux as hf
from helioflux.cli import run
from helioflux.flux import DEFAULT_AZIMUTH_NODES

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
# azimuth node count -> the digest file of the bundled scene run with it
DIGEST_PATHS = {DEFAULT_AZIMUTH_NODES: os.path.join(DATA, "table1.sha256"),
                47: os.path.join(DATA, "table1_47.sha256")}
NUMPY_LINE = "# numpy = "


def artifact_digests(workdir, azimuth_nodes):
    """{file name: sha256 hex} of the bundled scene's artifacts, run with
    engine both, ``azimuth_nodes`` sun-cone spokes and out directory "out"
    from ``workdir``, so that the manifest reads ``run.out = out`` wherever
    it runs."""
    config = hf.with_overrides(hf.load_config(hf.table1_scene_path()),
                               engine="both", out_dir="out")
    config = dataclasses.replace(config, azimuth_nodes=azimuth_nodes)
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


def read_digest(path):
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


def write_digest(digests, path, azimuth_nodes):
    """Write ``digests`` of a run at ``azimuth_nodes`` in ``sha256sum`` format,
    which skips the '#' lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# sha256 of each artifact of "
                 "`helioflux run table1.scene --engine both --out out`")
        if azimuth_nodes != DEFAULT_AZIMUTH_NODES:
            fh.write(f" with run.azimuth_nodes = {azimuth_nodes}")
        fh.write(f"\n{NUMPY_LINE}{np.__version__}\n")
        for name, digest in digests.items():
            fh.write(f"{digest}  {name}\n")


if __name__ == "__main__":
    for azimuth_nodes, path in DIGEST_PATHS.items():
        old = read_digest(path)[1] if os.path.exists(path) else {}
        with tempfile.TemporaryDirectory() as workdir:
            new = artifact_digests(workdir, azimuth_nodes)
        write_digest(new, path, azimuth_nodes)
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                print(os.path.basename(path),
                      "changed" if name in old and name in new else
                      "added" if name in new else "removed", name)
