"""The scripts under ``scripts/`` run end to end.

Each runs in-process through ``runpy`` with ``sys.argv`` patched and small
sample counts, so it costs no interpreter start.
"""

import csv
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_render_demo(tmp_path, monkeypatch, capsys):
    out = tmp_path / "demo.svg"
    run_script(monkeypatch, "render_demo.py", "--out", str(out))
    assert out.read_text().startswith("<svg ")
    assert "crossing lines" in capsys.readouterr().out


def test_run_duality_suite(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "run_duality_suite.py", "--invariance-samples", "10000",
               "--exit-samples", "1000", "--outdir", str(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines), lines
    assert len(list(tmp_path.glob("*.json"))) == 7


def test_run_growth_experiments(tmp_path, monkeypatch):
    run_script(monkeypatch, "run_growth_experiments.py", "--sizes", "20,40",
               "--base-replicas", "40", "--outdir", str(tmp_path))
    rows = list(csv.reader((tmp_path / "growth_summary.csv").read_text().splitlines()))
    assert rows[0] == ["dist", "n", "replicas", "mean", "target", "gap"]
    assert [row[:2] for row in rows[1:]] == [
        ["exp:1", "20"], ["exp:1", "40"], ["geom:0.5", "20"], ["geom:0.5", "40"]
    ]
    assert len(list(tmp_path.glob("growth_*_n*.json"))) == 4


def test_run_growth_experiments_refuses_threads(tmp_path, monkeypatch):
    # replicas run in one thread: the option that did nothing is gone
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, "run_growth_experiments.py", "--threads", "2",
                   "--outdir", str(tmp_path))
    assert exit_info.value.code == 2
    assert not list(tmp_path.iterdir())
