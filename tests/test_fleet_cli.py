"""``repro-fleet`` CLI: run/report/plot and the byte-identical rerun."""

import json

import pytest

from repro.fleet.cli import main
from tests.test_cli_options import script_main

RUN_ARGS = [
    "run", "--gcs", "ParallelOld", "--policies", "round-robin", "monk",
    "--nodes", "6", "--duration", "1800", "--period", "1800",
    "--users", "100000", "--calibration-duration", "900", "--seed", "5",
]


@pytest.fixture(scope="module")
def study_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-cli")
    out = root / "study.json"
    rc = main(RUN_ARGS + ["--store", str(root / "store"),
                          "--out", str(out)])
    assert rc == 0
    return out


class TestRun:
    def test_writes_canonical_json(self, study_file):
        data = json.loads(study_file.read_text())
        assert data["v"] == 1
        assert [o["policy"] for o in data["outcomes"]] == \
            ["round-robin", "monk"]

    def test_prints_tables_and_cache_line(self, study_file, capsys, tmp_path):
        out = tmp_path / "again.json"
        store = study_file.parent / "store"
        rc = main(RUN_ARGS + ["--store", str(store), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "calibration: 1/1 cache hits" in printed
        assert "round-robin" in printed and "monk" in printed

    def test_rerun_is_byte_identical(self, study_file, tmp_path):
        out = tmp_path / "again.json"
        store = study_file.parent / "store"
        assert main(RUN_ARGS + ["--store", str(store),
                                "--out", str(out)]) == 0
        assert out.read_bytes() == study_file.read_bytes()


class TestReportAndPlot:
    def test_report_renders_tables(self, study_file, capsys):
        assert main(["report", str(study_file)]) == 0
        out = capsys.readouterr().out
        assert "fleet study [ParallelOldGC]" in out
        assert "P99.9" in out

    def test_plot_nodes(self, study_file, capsys):
        assert main(["plot", str(study_file), "--gc", "ParallelOld",
                     "--kind", "nodes"]) == 0
        assert "fleet size over time" in capsys.readouterr().out

    def test_plot_tail(self, study_file, capsys):
        assert main(["plot", str(study_file), "--gc", "ParallelOld",
                     "--kind", "tail"]) == 0
        assert "latency tail" in capsys.readouterr().out

    def test_unknown_gc_is_config_error(self, study_file, capsys):
        assert main(["plot", str(study_file), "--gc", "CMS"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEntryPoint:
    def test_fleet_main_delegates(self, study_file, capsys):
        assert script_main("repro-fleet")(["report", str(study_file)]) == 0
        assert "fleet study" in capsys.readouterr().out
