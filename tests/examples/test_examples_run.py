"""Every example script must run to completion (they are living docs)."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": b"security overhead",
    "flash_crowd_cdn.py": b"replica pushed",
    "attack_detection.py": b"Attacks that slipped wrong bytes past the proxy: 0",
    "secure_publishing_workflow.py": b"Crawled",
}


@pytest.mark.parametrize("script", sorted(EXPECTED_MARKERS))
def test_example_runs(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    result = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    assert EXPECTED_MARKERS[script] in result.stdout


def test_all_examples_have_markers():
    """New examples must be registered here so they stay exercised."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXPECTED_MARKERS)
