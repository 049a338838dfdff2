"""Shared benchmark plumbing.

Every figure bench writes its paper-vs-measured summary to
``benchmarks/results/<figure>.txt`` (collected into EXPERIMENTS.md) in
addition to asserting the qualitative claims.  :func:`save_result`
also emits ``<figure>.json`` — the machine-readable twin for anything
that wants to consume measured numbers without parsing text tables;
benches pass structured values via ``data=``.  ``run_once`` wraps
pytest-benchmark so expensive solves execute exactly once.

These are the paper-figure benches.  The repo's own commit-to-commit
perf trajectory is a separate harness: ``benchmarks/perf/`` (declared
by the root ``BENCHMARK.json``), which shares nothing with this file.
"""

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def save_result(figure_id: str, text: str, data: dict | None = None) -> None:
    """Write the text table and its machine-readable JSON twin.

    The JSON document always carries the rendered text lines (so the
    table survives in one artifact); ``data`` adds whatever structured
    values the bench measured — series, metrics dicts from
    :func:`repro.telemetry.metrics`, paper-vs-measured pairs.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{figure_id}.txt").write_text(text + "\n")
    doc = {"figure": figure_id, "text": text.splitlines()}
    if data is not None:
        doc["data"] = data
    (RESULTS_DIR / f"{figure_id}.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n"
    )


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
