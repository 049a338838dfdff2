"""Tier-1 enforcement: the shipped package passes its own lint rules.

Any commit that adds a wall-clock call to a virtual-time module, a
swallowed exception, a Python-level mesh loop, a dtype-implicit kernel
allocation or another house-rule violation fails pytest, not just an
optional side tool.  The overlap-window contract the retired ghostcheck
proved statically is now the sanitizer's: its test id runs the two
shipped overlap windows as planted-bug matrix control rows.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import errors, format_report, lint_paths
from tests.test_planted_bugs import row_test

SRC = Path(__file__).parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def src_diags():
    return lint_paths([SRC])


def test_repo_source_passes_custom_lint(src_diags):
    assert src_diags == [], "\n" + format_report(src_diags)


def test_repo_source_passes_ghostcheck():
    """Both shipped start_copy windows (NSU3D and Cart3D) run under
    GhostSanitizer without a ghost race and match serial."""
    row_test("control/overlap-nsu3d", "control/overlap-cart3d")(None)


def test_no_error_severity_anywhere(src_diags):
    assert errors(src_diags) == []


def test_check_umbrella_command_is_clean():
    """`python -m repro.analysis check` exits 0 on the shipped package."""
    repo = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "check"],
        capture_output=True,
        text=True,
        cwd=repo,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s), 0 warning(s)" in proc.stdout
