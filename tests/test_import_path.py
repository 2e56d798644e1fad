"""The product packages — what runs in a client proxy or an object
server — import no NumPy. NumPy is for the experiment side only
(``workloads/``, ``harness/`` and ``sim/random.py``); a client or server process that loaded it would pay its import time and
resident memory for nothing it runs.

pytest itself has NumPy loaded, so the import runs in a fresh
interpreter."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

PRODUCT_PACKAGES = (
    "util",
    "net",
    "obs",
    "proxy",
    "server",
    "crypto",
    "storage",
    "versioning",
    "revocation",
    "naming",
    "location",
    "replication",
    "globedoc",
)

# Imports every module of every product package (not only the package
# ``__init__``s) plus the composition root, then names what leaked.
PROBE = f"""
import importlib, pkgutil, sys
import repro, repro.deployment
for name in {PRODUCT_PACKAGES!r}:
    package = importlib.import_module("repro." + name)
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        importlib.import_module(info.name)
print(sorted(m for m in ("numpy", "repro.sim.random") if m in sys.modules))
"""


def test_product_packages_import_no_numpy():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
