"""CLI surface: subcommands, exit codes, report schemas, determinism."""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flopwall.cli import RunConfig, _stable_json, emit, main, run_suite
from flopwall.flopgeom import ConfigError
from flopwall.hypergeom import h_series


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "flopwall.cli", *args],
        capture_output=True, text=True, **kw,
    )


def test_verify_identities_exit_zero(capsys):
    assert main(["verify", "--suite", "identities", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "suite identities: 6/6 passed" in out


def test_unknown_flag_exits_two():
    proc = run_cli(["verify", "--bogus"])
    assert proc.returncode == 2


def test_unknown_suite_exits_two():
    proc = run_cli(["verify", "--suite", "nonsense"])
    assert proc.returncode == 2


def test_degenerate_config_exits_two(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n": 2, "r": 1, "weights": {"x": ["1", "1"], "z": ["2", "3"]}}))
    assert main(["verify", "--suite", "identities", "--config", str(cfg)]) == 2


def test_missing_config_file_exits_two():
    assert main(["verify", "--config", "/nonexistent/cfg.json"]) == 2


def test_report_json_byte_identical(tmp_path):
    rc = RunConfig(seed=5)
    report1 = run_suite(rc, "identities")
    report2 = run_suite(rc, "identities")
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    emit(report1, "json", str(f1))
    emit(report2, "json", str(f2))
    assert f1.read_bytes() == f2.read_bytes()
    data = json.loads(f1.read_text())
    assert set(data) == {"version", "seed", "config", "cases"}
    assert data["seed"] == 5
    for case in data["cases"]:
        assert set(case) == {"suite", "case", "params", "status", "max_rel_err", "runtime_ms"}
        assert case["runtime_ms"] is None  # timings excluded by default


def test_report_csv_and_text(tmp_path):
    rc = RunConfig()
    report = run_suite(rc, "identities")
    csv_path = tmp_path / "r.csv"
    emit(report, "csv", str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "suite,case,params,status,max_rel_err,runtime_ms"
    assert len(lines) == 1 + len(report.cases)
    txt_path = tmp_path / "r.txt"
    emit(report, "text", str(txt_path))
    assert "suite identities:" in txt_path.read_text()


@pytest.mark.parametrize("payload", [
    {"workers": 2},
    {"path": {"re_span": 4}},
    {"ordr": 40},
    {"weights": {"seed": 1, "sclae": "1/10"}},
])
def test_unknown_config_keys_exit_two(tmp_path, payload):
    path = tmp_path / "rc.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", "--suite", "identities", "--config", str(path)]) == 2


@pytest.mark.parametrize("extra", [{"seed": 5}, {"scale": "1/3"}])
def test_weights_seed_or_scale_beside_explicit_lists_exits_two(tmp_path, extra):
    # explicit x/z fix the instance; a random-draw key beside them was ignored
    weights = {"x": ["31/100", "-17/100"], "z": ["3/25", "47/100"], **extra}
    path = tmp_path / "rc.json"
    path.write_text(json.dumps({"n": 2, "r": 1, "weights": weights}))
    assert main(["verify", "--config", str(path)]) == 2


@pytest.mark.parametrize("argv, config", [
    (["barnes", "--w", "inf,3.14"], None),
    (["barnes", "--w=-1,nan"], None),
    (["charge", "--class", "1", "--w=-1,0", "--z", "inf,0"], None),
    (["charge", "--class", "1", "--w=-1,0", "--z", "nan,0"], None),
    (["verify", "--suite", "identities"], '{"z_eval": [[2, 0], [Infinity, 1]]}'),
    (["verify", "--suite", "identities"], '{"z_eval": [NaN, 0]}'),
    (["barnes", "--w=-1,3.14", "--tol", "1e-14"], None),
    (["barnes", "--w=-1,3.14", "--tol", "nan"], None),
    (["barnes", "--w=-1,3.14", "--tol", "inf"], None),
    (["series", "--side", "plus", "--delta", "1", "--order", "-3"], None),
    (["verify", "--suite", "identities"], '{"order": -1}'),
])
def test_bad_numeric_input_is_a_config_error(tmp_path, capsys, argv, config):
    # non-finite complex parts, a Barnes tol the quadrature cannot meet and
    # a negative series order used to return null values or a traceback
    if config is not None:
        path = tmp_path / "rc.json"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A run config is a JSON file:")[1].split("```json")[1].split("```")[0]
    rc = RunConfig.from_json_dict(json.loads(block))
    assert rc.flop_config().x[1] == Fraction(-17, 100)
    assert rc.tols == {"continuation": 1e-8}


def test_fixed_points_command(capsys):
    assert main(["fixed-points"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"minus": [[1], [2]], "plus": [[1], [2]]}


def test_fm_command_prints_plus_restrictions(capsys):
    assert main(["fm", "--delta", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta_minus"] == [1]
    assert set(data["restrictions"]) == {"1", "2"}
    for entry in data["restrictions"].values():
        assert {"character", "value"} == set(entry)
        for term in entry["character"]:
            coeff, *vec = term
            assert isinstance(coeff, int) and len(vec) == 4


def test_fm_command_bad_delta():
    assert main(["fm", "--delta", "5"]) == 2
    assert main(["fm", "--delta", "x"]) == 2


def test_uh_matrix_command(capsys):
    assert main(["uh-matrix"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "C"
    assert data["rows"] == [[0], [1]] and data["cols"] == [[0], [1]]
    assert len(data["entries"]) == 2 and len(data["entries"][0]) == 2
    assert len(data["entries"][0][0]) == 2  # [re, im]


def test_series_command_matches_library(capsys, cfg21):
    assert main(["series", "--side", "plus", "--delta", "1", "--order", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    s = h_series(cfg21, "plus", (0,), 6)
    assert data["order"] == 6
    got0 = complex(*[row for row in data["coeffs"] if row[0] == 0][0][1:])
    assert abs(got0 - s.coefficient(0)) < 1e-15


def test_barnes_command_matches_series(capsys, cfg21):
    w = math.log(0.3) + 1j * math.pi
    assert main(["barnes", f"--w={w.real},{w.imag}", "--delta", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    got = complex(*data["value"])
    want = h_series(cfg21, "plus", (0,), 80).eval(w)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_charge_command_runs(capsys):
    assert main(["charge", "--class", "e:1", "--w=-1.2,3.14159", "--z", "2,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class"] == "e:1"
    assert len(data["value"]) == 2


def test_barnes_on_pole_line_exits_two(capsys):
    # Im w = (n - r + 1) pi sits on the pole line of the contour strip
    h_bad = 2.0 * math.pi
    assert main(["barnes", f"--w=1.1,{h_bad}", "--delta", "1"]) == 2


def test_runconfig_parsing_roundtrip(tmp_path):
    payload = {
        "n": 3,
        "r": 1,
        "weights": {"x": ["0.31", "-17/100", "23/100"], "z": ["3/25", "0.47", "-29/100"]},
        "seed": 9,
        "order": 40,
        "z_eval": [[2.0, 0.0]],
        "tol": {"continuation": 1e-7},
    }
    path = tmp_path / "rc.json"
    path.write_text(json.dumps(payload))
    rc = RunConfig.from_file(str(path))
    cfg = rc.flop_config()
    assert (cfg.n, cfg.r) == (3, 1)
    assert str(cfg.x[0]) == "31/100"
    assert rc.tols["continuation"] == 1e-7
    env = rc.suite_env()
    assert env.tol("continuation") == 1e-7
    assert env.tol("integral_pairing") == 1e-8


def test_runconfig_random_weights():
    rc = RunConfig.from_json_dict({"n": 3, "r": 2, "weights": {"seed": 4, "scale": "1/10"}})
    cfg1 = rc.flop_config()
    cfg2 = rc.flop_config()
    assert cfg1 == cfg2
    assert cfg1.n == 3 and cfg1.r == 2


def test_runconfig_rejects_unknown_tol():
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"tol": {"bogus": 1.0}})


def test_stable_json_formatting():
    out = _stable_json({"b": 0.1, "a": [1, True, None, complex(1.5, -2.5)]})
    assert out == '{"a":[1,true,null,[1.5,-2.5]],"b":0.10000000000000001}'


def test_full_suite_passes():
    report = run_suite(RunConfig(), "all")
    failures = [c for c in report.cases if c["status"] != "pass"]
    assert not failures, failures
    assert report.exit_status == 0


def test_collect_cases_registry():
    from flopwall.suites import SUITE_ORDER, SuiteEnv, collect_cases

    env = SuiteEnv()
    per_suite = {name: len(collect_cases(env, name)) for name in SUITE_ORDER}
    assert all(count > 0 for count in per_suite.values())
    assert len(collect_cases(env, "all")) == sum(per_suite.values())
    with pytest.raises(ValueError):
        collect_cases(env, "bogus")
