"""The scripts under ``scripts/`` run end to end.

Each runs in-process through ``runpy`` with ``sys.argv`` patched and small
sample counts, so it costs no interpreter start.
"""

import csv
import json
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


def bench_pairs():
    """The functions of ``bench_pairs.py``, loaded without running it."""
    return runpy.run_path(str(SCRIPTS / "bench_pairs.py"))


def canned_output(rounds, setup_s, cells_per_s, peak_rss_mb, raw_setup_s, raw_cells_per_s,
                  attempted=100, failed=0):
    """What ``benchmarks/run.py --workload verify`` prints for one run."""
    summary = (f"# verify: {rounds} rounds; setup_s {setup_s:.6g} s, cells_per_s {cells_per_s:.6g} "
               f"1/s, peak_rss_mb {peak_rss_mb:.6g} MB; unscaled: setup_s {raw_setup_s:.6g} s, "
               f"cells_per_s {raw_cells_per_s:.6g} 1/s")
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "cells_per_s": {"value": cells_per_s, "unit": "1/s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    return f"{summary}\n{json.dumps(result)}\n"


def test_bench_pairs_reads_the_scaled_and_the_unscaled_figures():
    run = bench_pairs()["parse_run"](canned_output(83, 0.25, 1.1e7, 48.5, 0.234, 1.2e7, 1162, 1))
    assert run == {"setup_s": 0.25, "cells_per_s": 1.1e7, "peak_rss_mb": 48.5,
                   "unscaled_setup_s": 0.234, "unscaled_cells_per_s": 1.2e7,
                   "attempted": 1162, "failed": 1, "correct": True, "rounds": 83}
    with pytest.raises(ValueError, match="summary line"):
        bench_pairs()["parse_run"](canned_output(1, 1, 1, 1, 1, 1).splitlines()[-1])


def test_bench_pairs_summarises_medians_wins_and_spreads():
    parse_run, summarize = bench_pairs()["parse_run"], bench_pairs()["summarize"]
    # cells_per_s per pair (parent, change); every other figure follows it
    rates = [(10.0, 12.0), (11.0, 10.5), (12.0, 13.0), (14.0, 15.0), (9.0, 11.0)]
    runs = []
    for pair, sides in enumerate(rates):
        for side, rate in zip(("parent", "change"), sides):
            figures = canned_output(10, 1 / rate, rate, 100 - rate, 2 / rate, 2 * rate, attempted=10)
            runs.append({"workload": "verify", "pair": pair, "side": side, **parse_run(figures)})
    # a pair cut short is left out
    runs.append({"workload": "verify", "pair": 5, "side": "parent", **runs[0]})
    summary = summarize(runs)["verify"]
    assert (summary["pairs"], summary["failed"], summary["attempted"], summary["all_correct"]) == (
        5, {"parent": 0, "change": 0}, {"parent": 50, "change": 50}, True
    )
    rate = summary["cells_per_s"]
    assert (rate["parent_median"], rate["change_median"], rate["ratio"]) == (11.0, 12.0, 12.0 / 11.0)
    assert rate["change_better_pairs"] == 4
    # exclusive quartiles of 9, 10, 11, 12, 14: 9.5 and 13
    assert rate["parent_iqr"] == 3.5
    assert (rate["parent_range"], rate["change_range"]) == ([9.0, 14.0], [10.5, 15.0])
    assert summary["unscaled_cells_per_s"]["parent_median"] == 22.0
    # lower is better for the times and the peak: the same four pairs win
    for name in ("setup_s", "unscaled_setup_s", "peak_rss_mb"):
        assert summary[name]["change_better_pairs"] == 4
    assert summary["setup_s"]["parent_median"] == 1 / 11.0
    assert summary["peak_rss_mb"]["ratio"] == 88.0 / 89.0


def test_bench_pairs_reads_a_bound_for_each_end_to_end_metric():
    assert sorted(bench_pairs()["read_bounds"]()) == ["cells_per_s", "peak_rss_mb", "setup_s"]


def test_bench_pairs_verdicts_follow_the_bound_and_the_parents_spread():
    verdict = bench_pairs()["verdict"]
    steady, wide = [10.0, 10.1, 9.9, 10.0, 10.2], [6.0, 10.0, 14.0, 8.0, 12.0]
    # higher is better: a median 30 % down is worse, 20 % down is within a 25 % bound
    assert verdict(steady, [7.0] * 5, True, 0.25) == "worse"
    assert verdict(steady, [8.0] * 5, True, 0.25) == "within bound"
    # the parent's interquartile range, 6, exceeds 25 % of its median, 10: only a
    # change whose every run beats every parent run is resolved
    assert verdict(wide, [11.0] * 5, True, 0.25) == "unresolved"
    assert verdict(wide, [14.5] * 5, True, 0.25) == "within bound"
    # lower is better for a time or a peak
    assert verdict([100.0] * 5, [111.0] * 5, False, 0.1) == "worse"
    assert verdict([100.0] * 5, [109.0] * 5, False, 0.1) == "within bound"
    assert verdict(wide, [9.0] * 5, False, 0.25) == "unresolved"
    assert verdict(wide, [5.0] * 5, False, 0.25) == "within bound"


def test_bench_pairs_gain_rule_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    gain = bench_pairs()["gain_rule_met"]
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # IQR 0.25
    assert gain(parent, [p + 1 for p in parent], True)
    # a tie counts for neither side: nine wins still meet the rule, eight do not
    assert gain(parent, [p + 1 for p in parent[:9]] + [parent[9]], True)
    assert not gain(parent, [p + 1 for p in parent[:8]] + parent[8:], True)
    # ten wins by a gap inside the parent's spread do not
    assert not gain(parent, [p + 0.2 for p in parent], True)
    assert gain(parent, [p - 1 for p in parent], False)
    assert not gain(parent, [p - 1 for p in parent], True)


def test_bench_pairs_summary_holds_verdicts_gains_and_failed_shares():
    parse_run, summarize = bench_pairs()["parse_run"], bench_pairs()["summarize"]
    runs = []
    for pair in range(10):
        for side, rate, failed in (("parent", 10.0 + pair % 2, 0), ("change", 20.0 + pair % 2, 1)):
            figures = canned_output(10, 1 / rate, rate, 50.0 + (side == "change") * 10, 1 / rate,
                                    rate, attempted=20, failed=failed)
            runs.append({"workload": "verify", "pair": pair, "side": side, **parse_run(figures)})
    summary = summarize(runs, {"setup_s": 0.25, "cells_per_s": 0.25, "peak_rss_mb": 0.1})["verify"]
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.05}
    assert (summary["cells_per_s"]["verdict"], summary["cells_per_s"]["gain_rule_met"]) == (
        "within bound", True)
    assert (summary["setup_s"]["verdict"], summary["setup_s"]["gain_rule_met"]) == ("within bound", True)
    # a peak 20 % up is worse than its 10 % bound
    assert (summary["peak_rss_mb"]["verdict"], summary["peak_rss_mb"]["gain_rule_met"]) == ("worse", False)
    # a metric with no bound gets no verdict
    assert "verdict" not in summary["unscaled_cells_per_s"]
