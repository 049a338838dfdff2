"""Tier-1 wiring of ``python -m repro.telemetry selfcheck``.

The selfcheck is the telemetry subsystem's end-to-end smoke: an
eight-case fill through :class:`~repro.database.runtime.FillRuntime`
with per-case traced SimMPI worlds, merged onto the runtime clock,
exported to Perfetto JSON, reloaded and shape-verified.  Running it
from the test suite keeps the whole pipeline on the tier-1 bar.
"""

import json
import tempfile

from repro.telemetry.__main__ import main, report, selfcheck


def test_selfcheck_passes_and_writes_trace(tmp_path, capsys):
    out = tmp_path / "selfcheck-trace.json"
    assert main(["selfcheck", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "telemetry selfcheck: PASS" in stdout
    assert "FAIL" not in stdout
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]


def test_selfcheck_without_out_leaves_nothing(tmp_path, monkeypatch,
                                             capsys):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    assert main(["selfcheck"]) == 0
    stdout = capsys.readouterr().out
    assert "telemetry selfcheck: PASS" in stdout
    assert "trace: not kept" in stdout
    assert list(scratch.iterdir()) == []


def test_report_renders_phase_table_for_selfcheck_trace(tmp_path):
    out = tmp_path / "trace.json"
    lines = []
    assert selfcheck(out, echo=lines.append) == 0
    lines.clear()
    assert report(out, echo=lines.append) == 0
    text = "\n".join(lines)
    assert "per-phase breakdown" in text
    assert "solver.residual" in text
    assert "makespan_seconds" in text


def test_report_missing_trace_fails(tmp_path):
    lines = []
    assert report(tmp_path / "nope.json", echo=lines.append) == 1
    assert "no such trace" in lines[0]
