"""The scripts under scripts/ run to completion against the current package.
scripts/search_quartic_weights.py is run, and its output checked, by
tests/test_fans.py::test_search_quartic_weights_script_runs."""

import pathlib
import subprocess
import sys

from mirrorcone.fixtures import FIXTURE_NAMES

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_run_fixtures_script_writes_every_fixture_report(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_fixtures.py"),
                           "--out-dir", str(tmp_path), "--cutoff", "4"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"{name}.json" for name in FIXTURE_NAMES)
