import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brokenlines.cli import build_parser, run
from brokenlines.flow import field_to_dict
from brokenlines.lattice import RectDomain
from brokenlines.render import render_field_svg
from helpers import random_field, zero_field


def write_matrix(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def test_lpp_subcommand(tmp_path, capsys):
    xi = tmp_path / "xi.csv"
    write_matrix(xi, [[1, 2], [3, 4]])
    assert run(["lpp", "--xi", str(xi)]) == 0
    out = capsys.readouterr().out
    config_line, payload = out.split("\n", 1)
    assert json.loads(config_line)["command"] == "lpp"
    result = json.loads(payload)
    assert result["value"] == 8.0
    assert result["path"] == [[0, 0], [1, -1], [2, 0]]


def test_lpp_reads_a_one_column_csv_as_a_column(tmp_path, capsys):
    # a 3x1 file was once read as the 1x3 matrix, whose path climbs
    xi = tmp_path / "xi.csv"
    write_matrix(xi, [[1], [2], [3]])
    assert run(["lpp", "--xi", str(xi)]) == 0
    result = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert result == {"value": 6.0, "path": [[0, 0], [1, -1], [2, -2]]}


def test_lpp_check_flow_exit_codes(tmp_path):
    xi = tmp_path / "xi.csv"
    write_matrix(xi, [[1, 2], [3, 4]])
    out = tmp_path / "result.json"
    assert run(["lpp", "--xi", str(xi), "--check-flow", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["flow_residual"] <= 1e-12


def test_lpp_check_flow_tolerance_is_relative_to_the_passage_value(tmp_path, monkeypatch):
    # passage value 8e-7: a residual of 1e-10 is far past tolerance(8e-7) = 1e-12
    from brokenlines import lpp

    monkeypatch.setattr(lpp, "flow_identity_residual", lambda xi, value: 1e-10)
    xi = tmp_path / "xi.csv"
    write_matrix(xi, [[1e-7, 2e-7], [3e-7, 4e-7]])
    out = tmp_path / "result.json"
    assert run(["lpp", "--xi", str(xi), "--check-flow", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["value"] == pytest.approx(8e-7)


def test_lpp_check_flow_runs_the_passage_value_dp_once(tmp_path, monkeypatch):
    # the residual reuses the value of the DP that found the path
    from brokenlines import lpp

    calls = []

    def counted(name):
        call = getattr(lpp, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)

        return wrapper

    for name in ("lpp_dp", "_diagonals", "birth_matrix"):
        monkeypatch.setattr(lpp, name, counted(name))
    xi = tmp_path / "xi.csv"
    write_matrix(xi, [[1, 2, 0], [3, 4, 5]])
    out = tmp_path / "result.json"
    assert run(["lpp", "--xi", str(xi), "--check-flow", "--out", str(out)]) == 0
    assert calls == ["lpp_dp", "_diagonals"]
    assert json.loads(out.read_text())["value"] == 13.0


def test_lln_refuses_a_law_with_no_growth_constant_before_it_sweeps(monkeypatch, capsys):
    from brokenlines import experiments

    def sweep(*args):
        raise AssertionError("a replica was swept")

    monkeypatch.setattr(experiments, "replica_passage", sweep)
    assert run(["lln", "--dist", "point:1", "--n", "4", "--replicas", "3"]) == 1
    assert "growth constants exist for exponential and geometric births only" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-1.0"])
def test_lpp_rejects_non_finite_cells(tmp_path, cell):
    xi = tmp_path / "xi.csv"
    write_matrix(xi, [[1, 2], [cell, 4]])
    out = tmp_path / "result.json"
    assert run(["lpp", "--xi", str(xi), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["lln", "--n", "8", "--replicas", "3"],
    ["concentration", "--ns", "4,8", "--replicas", "5"],
], ids=["lln", "concentration"])
def test_threads_option_is_refused(tmp_path, command):
    # replicas run in one thread: the option that did nothing is gone
    out = tmp_path / "result.json"
    assert run([*command, "--out", str(out)]) == 0
    out.unlink()
    assert run([*command, "--threads", "2", "--out", str(out)]) == 1
    assert not out.exists()


def test_decompose_zero_field_writes_header_only(tmp_path):
    field_json = tmp_path / "field.json"
    field_json.write_text(json.dumps(field_to_dict(zero_field(RectDomain(3, 3)))))
    out = tmp_path / "lines.csv"
    assert run(["decompose", "--field", str(field_json), "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows == [["j", "weight", "sites"]]


def test_sample_decompose_compose_roundtrip_is_byte_identical(tmp_path):
    field_json = tmp_path / "field.json"
    lines_csv = tmp_path / "lines.csv"
    rebuilt_json = tmp_path / "rebuilt.json"
    assert run(["sample", "--n", "3", "--m", "3", "--lam", "0.5", "--seed", "7",
                "--out", str(field_json)]) == 0
    assert run(["decompose", "--field", str(field_json), "--out", str(lines_csv)]) == 0
    assert run(["compose", "--lines", str(lines_csv), "--n", "3", "--m", "3",
                "--out", str(rebuilt_json)]) == 0
    assert rebuilt_json.read_text() == field_json.read_text()


def test_compose_rejects_an_infinite_weight(tmp_path):
    field_json = tmp_path / "field.json"
    lines_csv = tmp_path / "lines.csv"
    out = tmp_path / "rebuilt.json"
    assert run(["sample", "--n", "3", "--m", "3", "--lam", "0.5", "--seed", "7",
                "--out", str(field_json)]) == 0
    assert run(["decompose", "--field", str(field_json), "--out", str(lines_csv)]) == 0
    rows = list(csv.reader(lines_csv.read_text().splitlines()))
    rows[1][1] = "inf"
    lines_csv.write_text("\n".join(",".join(row) for row in rows) + "\n")
    assert run(["compose", "--lines", str(lines_csv), "--n", "3", "--m", "3",
                "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "row",
    [
        "1,2.0",
        "1,2.0,3 4:1",
        "1,2.0,2:0",  # a one-site line
        "1,2.0,0:0:1 1:1",  # a token of three parts
        "1,2.0,0:1 1:2",  # an odd-parity start
        "1,2.0,0:0 1:2",  # an x-step of 2
        "1,2.0,0:0 0:1",  # a t-step of 0
        "1,2.0,0:0 1:b",  # a token that is no integer
        "1,2.0,18446744073709551616:0 1:1",  # a coordinate beyond 64 bits
    ],
)
def test_compose_rejects_a_malformed_row(tmp_path, capsys, row):
    lines_csv = tmp_path / "lines.csv"
    lines_csv.write_text(f"j,weight,sites\n{row}\n")
    out = tmp_path / "rebuilt.json"
    assert run(["compose", "--lines", str(lines_csv), "--n", "3", "--m", "3",
                "--out", str(out)]) == 1
    assert "error: row 2 " in capsys.readouterr().err
    assert not out.exists()


def test_decompose_diagram_json(tmp_path):
    field_json = tmp_path / "field.json"
    field_json.write_text(json.dumps(field_to_dict(random_field(RectDomain(2, 2), seed=3))))
    diagram = tmp_path / "diagram.json"
    assert run(["decompose", "--field", str(field_json), "--out", str(tmp_path / "l.csv"),
                "--diagram-json", str(diagram)]) == 0
    payload = json.loads(diagram.read_text())
    assert payload["breakpoints"][0] == 0
    assert {"t", "x", "p"} <= set(payload["heights"][0])


def test_decompose_json_format(tmp_path):
    field_json = tmp_path / "field.json"
    field_json.write_text(json.dumps(field_to_dict(random_field(RectDomain(2, 2), seed=3))))
    out = tmp_path / "lines.json"
    assert run(["decompose", "--field", str(field_json), "--format", "json",
                "--out", str(out)]) == 0
    lines = json.loads(out.read_text())["lines"]
    assert lines and {"j", "weight", "sites"} <= set(lines[0])


def test_lln_csv_format(tmp_path):
    out = tmp_path / "samples.csv"
    assert run(["lln", "--dist", "exp:1", "--n", "10", "--replicas", "2",
                "--format", "csv", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "replica,scaled_value" and len(rows) == 3


def test_sample_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["sample", "--n", "2", "--m", "4", "--lam", "0.3", "--seed", "5", "--out", str(a)])
    run(["sample", "--n", "2", "--m", "4", "--lam", "0.3", "--seed", "5", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_path_subcommand(tmp_path, capsys):
    xi = tmp_path / "xi.csv"
    write_matrix(xi, [[1, 2], [3, 4]])
    field_json = tmp_path / "field.json"
    from brokenlines.flow import field_from_birth
    from brokenlines.lpp import births_from_matrix

    births = births_from_matrix([[1.0, 2.0], [3.0, 4.0]])
    field_json.write_text(json.dumps(field_to_dict(field_from_birth(births.domain, births=births))))
    assert run(["path", "--field", str(field_json)]) == 0
    payload = capsys.readouterr().out.split("\n", 1)[1]
    assert json.loads(payload)["path"] == [[0, 0], [1, -1], [2, 0]]


@pytest.mark.parametrize("matrix", [np.zeros((3, 3)), [[0, 0], [0, 1]], [[0, 0, 0], [0, 0, 1]]])
def test_path_subcommand_on_ties(tmp_path, capsys, matrix):
    # zero births tie at every site: the walk keeps to the rectangle's west sides
    from brokenlines.flow import field_from_birth
    from brokenlines.lpp import births_from_matrix

    births = births_from_matrix(matrix)
    field_json = tmp_path / "field.json"
    field_json.write_text(json.dumps(field_to_dict(field_from_birth(births.domain, births=births))))
    assert run(["path", "--field", str(field_json)]) == 0
    path = json.loads(capsys.readouterr().out.split("\n", 1)[1])["path"]
    assert path[0] == [0, 0]
    assert path[-1] == list(births.domain.cell_to_site(*np.shape(matrix)))


def test_duality_check_triple_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["duality-check", "--triple", "exp:1,exp:2,exp:3", "--n", "20000",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["classification"]["reason"] == "exponential_family"
    code = run(["duality-check", "--triple", "unif:0:1,unif:0:1,unif:0:1",
                "--n", "20000", "--seed", "7", "--out", str(out)])
    assert code == 2


def test_duality_check_kernel_mode(tmp_path):
    out = tmp_path / "kernel.json"
    code = run(["duality-check", "--kernel-lams", "0.1,0.5,0.9", "--kmax", "6",
                "--tolerance", "1e-12", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["kernel_duality"]
    assert len(rows) == 3 and all(r["residual"] <= 1e-12 for r in rows)


def test_duality_check_requires_a_mode():
    assert run(["duality-check"]) == 1


def test_burke_subcommand(tmp_path):
    out = tmp_path / "burke.json"
    code = run(["burke", "--triple", "geom:0.5,geom:0.5,geom:0.25", "--n", "3", "--m", "3",
                "--samples", "2000", "--seed", "3", "--out", str(out)])
    assert code == 0
    code = run(["burke", "--triple", "exp:1,exp:1,exp:5", "--samples", "2000",
                "--out", str(out)])
    assert code == 1  # refused triple is a usage error, not a failed check


def test_consistency_subcommand(tmp_path):
    out = tmp_path / "consistency.json"
    base = ["consistency", "--n", "3", "--m", "3", "--sub-n", "2", "--lam", "0.5",
            "--samples", "3000", "--seed", "4", "--out", str(out)]
    assert run(base) == 0
    assert run(base + ["--mismatch-lam", "0.6"]) == 2


@pytest.mark.parametrize("samples", ["1", "999"])
def test_consistency_refuses_fewer_than_a_thousand_samples(samples, capsys):
    assert run(["consistency", "--samples", samples]) == 1
    assert "error: need at least 10^3 samples" in capsys.readouterr().err


def test_lln_subcommand_with_manifest_and_csv(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"n": 20, "beta": 1.0, "dist": "exp:1",
                                    "replicas": 3, "seed": 9}))
    out = tmp_path / "report.json"
    samples = tmp_path / "samples.csv"
    code = run(["lln", "--manifest", str(manifest), "--out", str(out),
                "--samples-csv", str(samples)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n"] == 20 and len(report["samples"]) == 3
    rows = list(csv.reader(samples.read_text().splitlines()))
    assert rows[0] == ["replica", "scaled_value"] and len(rows) == 4


BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv",
    [
        ["lln", "--n", BEYOND_FLOAT],
        ["lln", "--n", "5", "--beta", "1e308"],
        ["concentration", "--ns", f"100,{BEYOND_FLOAT}"],
    ],
)
def test_growth_commands_refuse_a_width_beyond_float_range(argv, capsys):
    # m = floor(beta * n) once raised OverflowError out of run
    assert run(argv) == 1
    assert "error: beta * n must be finite, not " in capsys.readouterr().err


def test_lln_manifest_refuses_numbers_beyond_float_range(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    good = {"n": 20, "beta": 1.0, "dist": "exp:1", "replicas": 2}
    manifest.write_text(json.dumps(dict(good, n=int(BEYOND_FLOAT))))
    assert run(["lln", "--manifest", str(manifest)]) == 1
    assert "error: beta * n must be finite, not 1.0 * 1000" in capsys.readouterr().err
    manifest.write_text(json.dumps(dict(good, beta=int(BEYOND_FLOAT))))
    assert run(["lln", "--manifest", str(manifest)]) == 1
    assert f"error: manifest beta must be a finite number, not {BEYOND_FLOAT}" in capsys.readouterr().err


def test_lln_manifest_is_echoed_and_its_integers_checked(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    good = {"n": 20, "beta": 1.0, "dist": "exp:1", "replicas": 3, "seed": 9}
    manifest.write_text(json.dumps(good))
    assert run(["lln", "--manifest", str(manifest), "--out", str(tmp_path / "report.json")]) == 0
    echo = json.loads(capsys.readouterr().out.splitlines()[0])
    assert {k: echo[k] for k in good} == good
    for key, value in (("n", 20.7), ("replicas", 3.9), ("seed", 1.5)):
        manifest.write_text(json.dumps(dict(good, **{key: value})))
        assert run(["lln", "--manifest", str(manifest)]) == 1
        assert f"error: manifest {key} must be an integer, not {value}" in capsys.readouterr().err
    manifest.write_text(json.dumps(dict(good, dist=5)))
    assert run(["lln", "--manifest", str(manifest)]) == 1
    assert "error: cannot parse distribution token '5'" in capsys.readouterr().err
    for value in (None, True, [1.0], {"beta": 1.0}, "1.0"):
        manifest.write_text(json.dumps(dict(good, beta=value)))
        assert run(["lln", "--manifest", str(manifest)]) == 1
        assert f"error: manifest beta must be a number, not {value!r}" in capsys.readouterr().err


def test_concentration_subcommand(tmp_path):
    out = tmp_path / "scan.json"
    rates = tmp_path / "rates.csv"
    code = run(["concentration", "--ns", "10,20", "--delta", "0.5", "--dist", "exp:1",
                "--replicas", "30", "--seed", "2", "--out", str(out),
                "--rates-csv", str(rates)])
    assert code == 0
    assert json.loads(out.read_text())["ns"] == [10, 20]
    assert rates.read_text().splitlines()[0] == "n,exceedance_rate"


@pytest.mark.parametrize(
    "args",
    [
        ["lln", "--n", "5", "--beta", "inf"],
        ["lln", "--n", "5", "--beta", "nan"],
        ["concentration", "--ns", "5", "--beta", "inf"],
        ["concentration", "--ns", "5", "--delta", "nan"],
        ["concentration", "--ns", "5", "--delta", "-0.5"],
    ],
)
def test_experiments_reject_a_bad_beta_or_delta(tmp_path, capsys, args):
    out = tmp_path / "report.json"
    assert run(args + ["--replicas", "3", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_duality_check_refuses_a_tolerance_that_is_not_finite_and_nonnegative(capsys, tolerance):
    assert run(["duality-check", "--kernel-lams", "0.5", "--tolerance", tolerance]) == 1
    assert "--tolerance: must be finite and nonnegative" in capsys.readouterr().err


def test_render_subcommand(tmp_path):
    field_json = tmp_path / "field.json"
    field_json.write_text(json.dumps(field_to_dict(random_field(RectDomain(3, 3), seed=1))))
    out = tmp_path / "picture.svg"
    assert run(["render", "--field", str(field_json), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "stroke-dasharray" in svg


def test_render_empty_field(tmp_path):
    assert "empty field" in render_field_svg(zero_field(RectDomain(2, 2)))


def test_usage_errors():
    assert run(["lpp", "--xi", "/nonexistent.csv"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["sample", "--n", "2"]) == 1  # missing required options


def test_commands_without_checks_do_not_load_scipy(tmp_path):
    # sample, decompose and lln run no statistical check, so they need no scipy
    field, lines = tmp_path / "field.json", tmp_path / "lines.csv"
    script = f"""
import sys
from brokenlines.cli import run
assert run(["sample", "--n", "3", "--m", "3", "--lam", "0.5", "--out", {str(field)!r}]) == 0
assert run(["decompose", "--field", {str(field)!r}, "--out", {str(lines)!r}]) == 0
assert run(["lln", "--n", "20", "--replicas", "2"]) == 0
print("scipy" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_module_run_prints_what_run_prints(capsys):
    # python -m brokenlines.cli runs the command, as the console script does
    argv = ["sample", "--n", "2", "--m", "2", "--lam", "0.5"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "brokenlines.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert expected.startswith("{") and '"edges"' in expected
    assert result.stdout == expected


def test_checking_commands_do_not_load_scipy_stats():
    # the checks need only scipy.special's normal and chi-square closed forms
    script = """
import sys
from brokenlines.cli import run
assert run(["burke", "--triple", "geom:0.5,geom:0.5,geom:0.25", "--samples", "1000"]) in (0, 2)
assert run(["consistency", "--samples", "1000"]) in (0, 2)
assert run(["duality-check", "--triple", "exp:1,exp:2,exp:3", "--n", "10000"]) in (0, 2)
print("scipy.special" in sys.modules, "scipy.stats" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True False"


def test_only_checks_names_scipy():
    package = Path(__file__).resolve().parent.parent / "src" / "brokenlines"
    naming = {path.name for path in package.rglob("*.py") if "scipy" in path.read_text()}
    assert naming == {"checks.py"}
    imports = re.findall(r"^\s*(?:from|import) scipy\S*(?: import \w+)?", (package / "checks.py").read_text(), re.M)
    assert imports and not any("stats" in line for line in imports)


def test_readme_cli_block_parses_and_runs_in_order(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("brokenlines ")]
    assert len(lines) == 12
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv)
    # the documented inputs no earlier line writes: a birth matrix and a
    # field grown from births alone
    from brokenlines.flow import field_from_birth
    from brokenlines.lpp import births_from_matrix

    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "matrix.csv", [[1, 2, 0.5], [3, 4, 1], [0, 2, 2]])
    births = births_from_matrix([[1.0, 2.0], [3.0, 4.0]])
    grown = field_from_birth(births.domain, births=births)
    (tmp_path / "grown.json").write_text(json.dumps(field_to_dict(grown)))
    steps = {argv[0]: argv for argv in lines}
    for command in ("sample", "decompose", "compose", "lpp", "path"):
        assert run(steps[command]) == 0, command
    assert (tmp_path / "rebuilt.json").read_text() == (tmp_path / "field.json").read_text()
    # the sampled chain has boundary inflow, which path refuses
    assert run(["path", "--field", "field.json"]) == 1
