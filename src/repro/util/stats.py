"""Small statistics helpers used by the experiment harness and benches.

The paper reports 24-hour averages of repeated measurements; the harness
repeats each configuration and reports mean/median/p95, computed here in
pure Python (``sorted``, :func:`math.fsum`, :func:`math.sqrt`) so the
client and server processes that import :mod:`repro.util` do not load
NumPy. Percentiles and medians reproduce NumPy's defaults exactly
(``tests/util/test_stats.py`` pins them against NumPy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

__all__ = ["Summary", "summarize", "percentile", "geometric_mean"]


@dataclass(frozen=True)
class Summary:
    """Summary statistics over a sample of measurements (seconds, bytes, …)."""

    count: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float
    p95: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.count} mean={self.mean:.6g} median={self.median:.6g} "
            f"std={self.std:.3g} min={self.minimum:.6g} max={self.maximum:.6g} "
            f"p95={self.p95:.6g}"
        )


def _sorted_sample(samples: Iterable[float], what: str) -> List[float]:
    values = sorted(float(x) for x in samples)
    if not values:
        raise ValueError(f"cannot {what} an empty sample")
    if any(x != x for x in values):
        raise ValueError(f"cannot {what} samples containing NaN")
    return values


def _percentile_of_sorted(values: List[float], q: float) -> float:
    """NumPy's default ("linear") percentile of an already sorted sample.

    The virtual index is ``(n - 1) * (q / 100)``; the value between its
    two neighbouring order statistics is NumPy's ``_lerp``, which
    interpolates from the upper neighbour when the weight is >= 0.5 —
    the same arithmetic, so the result is bit-identical.
    """
    index = (len(values) - 1) * (q / 100)
    if index >= len(values) - 1:
        return values[-1]
    below = math.floor(index)
    t = index - below
    a, b = values[below], values[below + 1]
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def summarize(samples: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` over *samples*; raises on empty input
    and on NaN samples (which would silently poison every statistic)."""
    values = _sorted_sample(samples, "summarize")
    n = len(values)
    mean = math.fsum(values) / n
    half = n // 2
    median = values[half] if n % 2 else (values[half - 1] + values[half]) / 2
    return Summary(
        count=n,
        mean=mean,
        median=median,
        std=math.sqrt(math.fsum((x - mean) ** 2 for x in values) / n),
        minimum=values[0],
        maximum=values[-1],
        p95=_percentile_of_sorted(values, 95),
    )


def percentile(samples: Iterable[float], q: float) -> float:
    """The *q*-th percentile (0–100) of *samples*.

    Uses linear interpolation between order statistics (the NumPy
    default), so ``percentile([1, 2], 50) == 1.5`` and a single-sample
    input returns that sample for every *q*. Rejects an empty sample,
    *q* outside [0, 100], and NaN samples (which NumPy would propagate
    into a NaN percentile with only a warning).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    return _percentile_of_sorted(_sorted_sample(samples, "take a percentile of"), q)


def geometric_mean(samples: Iterable[float]) -> float:
    """Geometric mean, used when averaging speedup ratios across workloads."""
    values = [float(x) for x in samples]
    if not values:
        raise ValueError("cannot average an empty sample")
    if any(x <= 0 for x in values):
        raise ValueError("geometric mean requires strictly positive samples")
    return math.exp(math.fsum(math.log(x) for x in values) / len(values))
