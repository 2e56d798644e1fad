"""Environment fingerprint and noise calibration.

A result is only comparable with another taken on the same kind of
machine, so every result records what it ran on, and a fixed spin loop
timed before and after the measurement tells whether the machine's speed
drifted while it ran (shared sandboxes do: ±30 % within a minute).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict

import cryptography
from cryptography.hazmat.backends.openssl import backend

__all__ = ["fingerprint", "spin_ms", "is_noisy", "NOISY_DRIFT"]

#: Before/after spin-loop drift above which a run is marked ``noisy``.
NOISY_DRIFT = 0.10


def spin_ms(repeats: int = 9) -> float:
    """Median wall time (ms) of a fixed pure-Python arithmetic loop."""
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        samples.append((perf_counter() - started) * 1e3)
    return statistics.median(samples)


def is_noisy(before_ms: float, after_ms: float) -> bool:
    return abs(after_ms - before_ms) / before_ms > NOISY_DRIFT


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def fingerprint(root: str) -> Dict[str, object]:
    return {
        "python": sys.version.split()[0],
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
    }
