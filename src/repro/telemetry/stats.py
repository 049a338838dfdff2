"""Streaming latency statistics for long-running services.

The fill benches measure *campaigns* — one number per run.  A query
service needs per-request latency at millions-of-queries scale, which
rules out keeping every sample.  :class:`LatencyHistogram` is the
standard fixed-memory answer: geometric buckets (so microsecond cache
hits and multi-second solves are both resolved), exact count/sum/min/
max, and percentile estimates read off the bucket boundaries.  The
:class:`~repro.service.DatabaseService` records every query into one;
``python -m repro.service`` and ``bench_service_load`` render the
``summary()`` dict.
"""

from __future__ import annotations

import math

#: Bucket range in seconds: 1 microsecond .. 1000 seconds.  Samples
#: below it land in the first bucket, above it in the last; exact
#: ``min``/``max``/``sum`` are tracked regardless.
_LO = 1.0e-6
_HI = 1.0e3
#: Geometric buckets per factor of 10 (~26% relative error per bucket).
_PER_DECADE = 10
_NBUCKETS = math.ceil(math.log10(_HI / _LO) * _PER_DECADE) + 1


class LatencyHistogram:
    """Fixed-memory latency distribution with percentile estimates."""

    def __init__(self):
        self._counts = [0] * _NBUCKETS
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def _bucket(self, seconds: float) -> int:
        if seconds <= _LO:
            return 0
        index = int(math.log10(seconds / _LO) * _PER_DECADE) + 1
        return min(index, _NBUCKETS - 1)

    def _edge(self, index: int) -> float:
        """Upper edge of bucket ``index`` (the percentile estimate)."""
        if index <= 0:
            return _LO
        return _LO * 10.0 ** (index / _PER_DECADE)

    def record(self, seconds: float) -> None:
        """Add one latency sample (negative samples clamp to zero)."""
        seconds = max(0.0, float(seconds))
        self._counts[self._bucket(seconds)] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Latency at percentile ``p`` (0..100), estimated as the upper
        edge of the bucket holding the p-th sample; clamped to the exact
        observed ``min``/``max`` so small histograms stay sane."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * p / 100.0)
        seen = 0
        for index, n in enumerate(self._counts):
            seen += n
            if seen >= target:
                return min(max(self._edge(index), self.min), self.max)
        return self.max

    def summary(self) -> dict:
        """The render-ready dict: count, mean, p50/p90/p99, max."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_seconds": self.mean,
            "p50_seconds": self.percentile(50.0),
            "p90_seconds": self.percentile(90.0),
            "p99_seconds": self.percentile(99.0),
            "max_seconds": self.max,
        }
