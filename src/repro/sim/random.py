"""Seeded random-number helpers.

The experiment side's stochastic pieces (workload generation, Zipf
request traces, bench content, the harness's derived fault and retry
seeds) draw from generators created here, so every experiment run is
reproducible from a single integer seed. This is the one NumPy module
under :mod:`repro.sim`; the client and server packages never import it
(retry jitter and injected faults draw from ``random.Random(seed)``).
"""

from __future__ import annotations

import zlib
from typing import Optional, Union

import numpy as np

__all__ = ["make_rng", "derive_seed"]

_DEFAULT_SEED = 0x610BED0C  # "GlobeDoc"


def make_rng(seed: Optional[Union[int, np.random.Generator]] = None) -> np.random.Generator:
    """Return a NumPy ``Generator``.

    Accepts ``None`` (library default seed — deterministic), an integer
    seed, or an existing generator (returned unchanged so call sites can
    thread one RNG through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    return np.random.default_rng(seed)


def _stable_hash(label: Union[int, str]) -> int:
    """A process-independent 32-bit hash (Python's ``hash`` is salted)."""
    if isinstance(label, int):
        return label & 0xFFFFFFFF
    return zlib.crc32(str(label).encode("utf-8"))


def derive_seed(base: int, *labels: Union[int, str]) -> int:
    """Derive a child seed from *base* and a sequence of labels.

    Lets independent subsystems (e.g. per-host latency jitter and the
    request trace) get decorrelated streams from one experiment seed.
    Deterministic across processes and Python versions.
    """
    mix = np.random.SeedSequence(
        base, spawn_key=tuple(_stable_hash(label) for label in labels)
    )
    return int(mix.generate_state(1, dtype=np.uint64)[0])
