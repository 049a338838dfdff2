"""Smoke test of the perf harness (not part of tier-1: ``testpaths`` is
``tests``).  Run it by path::

    python -m pytest benchmarks/perf/test_perf_smoke.py -q

``run.py --smoke`` runs every workload at a tenth of the repetitions,
untraced and traced, under ``-W error::DeprecationWarning``.  Every
metric named in ``BENCHMARK.json`` must come back exactly once per
workload, with its unit, as a finite number, with no failed operation.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

#: ISSUE 12 asked for 40 s; on this 2-core container the fixed costs
#: alone (14 interpreter starts, one cold 24-case fill per mode, two
#: pool spawns) take about twice that — see README, "Deviations"
BUDGET_SECONDS = 150.0


def test_smoke_emits_every_metric_once(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.perf_counter()
    for trace in ("0", "1"):
        subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             str(HERE / "run.py"), "--smoke", "--trace", trace,
             "--out", str(out)],
            check=True, timeout=BUDGET_SECONDS,
        )
    wall = time.perf_counter() - t0
    result = json.loads(out.read_text())
    assert result["fingerprint"]["cpu_count"] >= 1

    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    seen = set()
    for run in result["runs"]:
        key = (run["workload"], run["trace"])
        assert key not in seen, f"{key} reported twice"
        seen.add(key)
        assert run["failed"] == 0, key
        units = {name: cell["unit"] for name, cell in run["metrics"].items()}
        assert units == expected[run["trace"]], key
        for name, cell in run["metrics"].items():
            assert cell["value"] is not None, (key, name)
            assert math.isfinite(cell["value"]), (key, name)
    assert seen == {
        (w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)
    }
    assert wall < BUDGET_SECONDS, f"smoke took {wall:.0f} s"
