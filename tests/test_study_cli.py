"""Error handling shared by the study commands (``repro-lbo``,
``repro-energy``, ``repro-fleet``) through :func:`repro.cli.run_command`:
a library error or an unreadable/invalid study file is one
``<prog>: error: ...`` line on stderr and exit 2, never a traceback; a
reader closing stdout early is a quiet exit 0."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import lbo_cli
from repro.energy.cli import main as energy_main
from repro.errors import QuarantinedCellError
from repro.fleet.cli import main as fleet_main

ROOT = pathlib.Path(__file__).resolve().parent.parent

STUDIES = [("repro-lbo", lbo_cli.main), ("repro-energy", energy_main),
           ("repro-fleet", fleet_main)]


def assert_clean_error(capsys, prog, *needles):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{prog}: error: ")
    assert "Traceback" not in captured.err
    for needle in needles:
        assert needle in captured.err


@pytest.mark.parametrize("prog,main", STUDIES)
def test_report_missing_file(prog, main, tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing.json")]) == 2
    assert_clean_error(capsys, prog, "missing.json")


@pytest.mark.parametrize("prog,main", STUDIES)
@pytest.mark.parametrize("content", ["{not json", "[]", "{}",
                                     '{"config": {}}'])
def test_report_invalid_study(prog, main, content, tmp_path, capsys):
    path = tmp_path / "study.json"
    path.write_text(content)
    assert main(["report", str(path)]) == 2
    assert_clean_error(capsys, prog, "not a valid study JSON")


def test_run_config_error(capsys):
    # EpsilonGC is the implicit LBO baseline, never a studied collector.
    assert lbo_cli.main(["run", "--gcs", "EpsilonGC"]) == 2
    assert_clean_error(capsys, "repro-lbo", "implicit ideal baseline")


def test_run_quarantined_cells(monkeypatch, capsys):
    def quarantined(config, store=None):
        raise QuarantinedCellError("LBO study", [])

    monkeypatch.setattr(lbo_cli, "run_lbo_study", quarantined)
    assert lbo_cli.main(["run", "--gcs", "ZGC"]) == 2
    assert_clean_error(capsys, "repro-lbo", "quarantined")


def test_closed_stdout_is_a_quiet_exit():
    # `repro-lbo run ... | head -0`: the reader is gone before the first
    # line; unbuffered (-u), so the write fails inside the command.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-u", "-c",
             "import sys; from repro.analysis.lbo_cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "run", "--gcs", "ZGC", "--heaps", "4g", "--seeds", "1",
             "--iterations", "1"],
            stdout=write, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    finally:
        os.close(write)
    assert proc.returncode == 0
    assert proc.stderr == b""
