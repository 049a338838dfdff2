"""pfmon-style hardware performance counters.

The paper measured FLOP rates "using the Itanium hardware counters through
the 'pfmon' interface", differencing a five-multigrid-cycle run against a
six-cycle run to isolate the FLOPs of one cycle, and counting MADD
(fused multiply-add) as two operations.

Our solvers are instrumented with a :class:`PerfCounters` object that
plays the role of pfmon: kernels report the floating-point work and bytes
they touch, and region timers expose per-phase totals.  The same counts
feed the performance model's work tables (:mod:`repro.perf.workmodel`).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..telemetry.spans import span as _span


@dataclass
class RegionStats:
    """Accumulated counts for one named instrumentation region."""

    flops: float = 0.0
    bytes_moved: float = 0.0
    calls: int = 0


@dataclass
class PerfCounters:
    """A pfmon-like counter set.

    ``madd_as_two`` mirrors the paper's counting convention: when a kernel
    reports ``madds`` fused operations they are charged as two FLOPs each
    (the timing hardware executes them in one instruction, the counter
    reports two).  Disabling it reproduces the paper's "MADD feature
    disabled" counting runs.
    """

    madd_as_two: bool = True
    regions: dict = field(default_factory=lambda: defaultdict(RegionStats))
    _stack: list = field(default_factory=list)

    def add_flops(self, n: float, madds: float = 0.0, region: str | None = None):
        """Charge ``n`` plain FLOPs plus ``madds`` fused multiply-adds."""
        total = float(n) + float(madds) * (2.0 if self.madd_as_two else 1.0)
        name = region if region is not None else self._current()
        self.regions[name].flops += total

    def add_bytes(self, n: float, region: str | None = None):
        name = region if region is not None else self._current()
        self.regions[name].bytes_moved += float(n)

    def _current(self) -> str:
        return self._stack[-1] if self._stack else "<global>"

    @contextmanager
    def region(self, name: str):
        """Attribute counts raised inside the block to ``name``.

        Each region entry also opens a telemetry span (free when the
        global tracer is disabled), so every pfmon-style phase shows up
        on the unified timeline without separate instrumentation.
        """
        self._stack.append(name)
        self.regions[name].calls += 1
        try:
            with _span(name, cat="perf"):
                yield self
        finally:
            self._stack.pop()

    @property
    def total_flops(self) -> float:
        return sum(r.flops for r in self.regions.values())

    @property
    def total_bytes(self) -> float:
        return sum(r.bytes_moved for r in self.regions.values())

    def snapshot(self) -> dict:
        """Copy of all region totals, e.g. for run-to-run differencing."""
        return {
            name: RegionStats(r.flops, r.bytes_moved, r.calls)
            for name, r in self.regions.items()
        }

    def diff_flops(self, earlier: dict) -> float:
        """FLOPs accumulated since ``earlier = snapshot()``.

        This is the paper's measurement protocol: run five cycles,
        snapshot, run the sixth, difference.
        """
        before = sum(r.flops for r in earlier.values())
        return self.total_flops - before

    def reset(self) -> None:
        self.regions.clear()
        self._stack.clear()


#: Default counter used by solvers not handed an explicit one.
NULL_COUNTERS = PerfCounters()
