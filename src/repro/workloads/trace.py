"""Request traces: who asks for what, from where, when.

Poisson arrivals, Zipf document popularity, a configurable site mix —
the standard web-workload assumptions — plus flash-crowd injection (a
burst of requests for one document from one site, §1's motivating
scenario). Everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.sim.random import make_rng

__all__ = ["RequestEvent", "TraceConfig", "generate_trace", "inject_flash_crowd"]


@dataclass(frozen=True)
class RequestEvent:
    """One client request in a trace."""

    time: float
    document: str
    site: str
    element: str = "index.html"


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of a synthetic request trace."""

    documents: Tuple[str, ...]
    sites: Tuple[str, ...]
    duration: float = 600.0
    rate: float = 5.0  # mean requests/second overall (Poisson)
    zipf_s: float = 1.1  # document popularity skew (s > 1)
    site_weights: Optional[Tuple[float, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.documents:
            raise WorkloadError("trace needs at least one document")
        if not self.sites:
            raise WorkloadError("trace needs at least one site")
        if self.duration <= 0 or self.rate <= 0:
            raise WorkloadError("duration and rate must be positive")
        if self.zipf_s <= 1.0:
            raise WorkloadError("zipf_s must exceed 1.0")
        if self.site_weights is not None and len(self.site_weights) != len(self.sites):
            raise WorkloadError("site_weights length must match sites")


def _zipf_probabilities(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-s)
    return weights / weights.sum()


def generate_trace(config: TraceConfig) -> List[RequestEvent]:
    """A time-ordered list of requests under *config*."""
    rng = make_rng(config.seed)
    expected = config.rate * config.duration
    count = int(rng.poisson(expected))
    times = np.sort(rng.uniform(0.0, config.duration, size=count))
    doc_probs = _zipf_probabilities(len(config.documents), config.zipf_s)
    doc_choices = rng.choice(len(config.documents), size=count, p=doc_probs)
    if config.site_weights is not None:
        site_probs = np.asarray(config.site_weights, dtype=float)
        site_probs = site_probs / site_probs.sum()
    else:
        site_probs = np.full(len(config.sites), 1.0 / len(config.sites))
    site_choices = rng.choice(len(config.sites), size=count, p=site_probs)
    return [
        RequestEvent(
            time=float(times[i]),
            document=config.documents[int(doc_choices[i])],
            site=config.sites[int(site_choices[i])],
        )
        for i in range(count)
    ]


def inject_flash_crowd(
    trace: Sequence[RequestEvent],
    document: str,
    site: str,
    start: float,
    duration: float,
    rate: float,
    seed: int = 1,
) -> List[RequestEvent]:
    """Overlay a burst for *document* from *site* onto *trace*.

    Returns a new, time-sorted trace. The burst is Poisson at *rate*
    req/s over [start, start+duration) — the sudden-popularity event the
    hotspot strategy must absorb.
    """
    if duration <= 0 or rate <= 0:
        raise WorkloadError("flash crowd duration and rate must be positive")
    rng = make_rng(seed)
    count = int(rng.poisson(rate * duration))
    times = rng.uniform(start, start + duration, size=count)
    burst = [
        RequestEvent(time=float(t), document=document, site=site) for t in times
    ]
    merged = list(trace) + burst
    merged.sort(key=lambda e: e.time)
    return merged
