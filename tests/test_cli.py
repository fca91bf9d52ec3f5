"""CLI surface: subcommands, exit codes, report schemas, determinism."""

import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from flopwall import cli
from flopwall.cli import (
    MAX_SERIES_COEFFS,
    RunConfig,
    _check_order,
    _check_recip_table,
    _stable_json,
    emit,
    main,
    run_suite,
)
from flopwall.flopgeom import ConfigError, fixed_point_deltas, random_config
from flopwall.hypergeom import h_series, i_function_factored
from flopwall.ktheory import unit_class
from flopwall.numkernel import PoleError
from flopwall.suites import DEFAULT_TOLS, SERIES_ORDER, SuiteEnv, collect_cases
from flopwall.wallcross import LocalizedCohClass, PsiContext, pairing, psi_apply


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
    # a second run on one RunConfig repeats the first, also over every suite
    rc = RunConfig(seed=5)
    for suite in ("identities", "all"):
        report1 = run_suite(rc, suite)
        report2 = run_suite(rc, suite)
        f1, f2 = tmp_path / f"{suite}-a.json", tmp_path / f"{suite}-b.json"
        emit(report1, "json", str(f1))
        emit(report2, "json", str(f2))
        assert f1.read_bytes() == f2.read_bytes(), suite
        data = json.loads(f1.read_text())
        assert set(data) == {"version", "seed", "config", "cases"}
        assert data["seed"] == 5
        for case in data["cases"]:
            assert set(case) == {"suite", "case", "params", "status", "max_rel_err", "runtime_ms"}
            assert case["runtime_ms"] is None  # timings excluded by default


def _rows(report):
    return [{k: v for k, v in c.items() if k != "runtime_ms"} for c in report.cases]


@pytest.mark.parametrize("payload", [{}, {"weights": {"seed": 7}}], ids=["default", "seed7"])
def test_no_state_carries_between_cases(payload):
    # the weight table, the wedges and psi's diagonal are held on the
    # config and context instances of one run: a case reads the same alone
    # and after every other suite
    from flopwall.suites import SUITES

    rc = RunConfig.from_json_dict(payload)
    alone = [row for name in SUITES for row in _rows(run_suite(rc, name))]
    assert _rows(run_suite(rc, "all")) == alone


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
    # order and tol are no run-config keys: any value is an unknown key
    (["verify", "--suite", "identities"], '{"order": -1}'),
    (["charge", "--class", "1", "--w=-1,3.14", "--z", "0,0"], None),
    (["verify", "--suite", "identities"], '{"z_eval": [[0, 0]]}'),
    (["verify", "--suite", "identities"], '{"z_eval": []}'),
    (["verify", "--suite", "identities"], '{"tol": []}'),
    # a JSON boolean passed as the integer 0 or 1
    (["verify", "--suite", "identities"], '{"n": 3, "r": true}'),
    (["verify", "--suite", "identities"], '{"seed": true}'),
    (["verify", "--suite", "identities"], '{"weights": {"seed": true}}'),
    (["verify", "--suite", "identities"], '{"z_eval": [[true, 0]]}'),
    (["verify", "--suite", "identities"], '{"n": 2.7}'),
    (["verify", "--suite", "identities"], '{"n": true, "r": false}'),
    (["verify", "--suite", "identities"], '{"weights": {"seed": 1.9}}'),
    # an empty non-object weights ran the default instance
    (["verify", "--suite", "identities"], '{"weights": []}'),
    (["verify", "--suite", "identities"], '{"weights": ""}'),
])
def test_bad_numeric_input_is_a_config_error(tmp_path, capsys, argv, config):
    # non-finite complex parts, a Barnes tol the quadrature cannot meet and
    # a negative series order used to return null values or a traceback,
    # and a non-integer n or seed was truncated
    if config is not None:
        path = tmp_path / "rc.json"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    if config is not None and ("true" in config or "false" in config):
        assert "must be a number, got " in err, err


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A run config is a JSON file:")[1].split("```json")[1].split("```")[0]
    rc = RunConfig.from_json_dict(json.loads(block))
    assert rc.flop_config().x[1] == Fraction(-17, 100)


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


@pytest.mark.parametrize("argv, flag", [
    (["barnes", "--w=-3,3.14159", "--delta", "1,2"], "--delta"),
    (["charge", "--class", "e:1,2", "--side", "minus", "--w=-1.2,3.14159", "--z", "2,0"],
     "--class e:"),
    (["charge", "--class", "e:1,2", "--side", "plus", "--w=-1.2,3.14159", "--z", "2,0"],
     "--class e:"),
    (["fm", "--delta", "1,2"], "--delta"),
    (["series", "--side", "plus", "--delta", "1,2", "--order", "4"], "--delta"),
])
def test_label_with_the_wrong_number_of_indices_is_a_config_error(capsys, argv, flag):
    # at r = 1 a fixed point has one index; barnes used to evaluate delta =
    # (1) of "1,2" and charge to pair with the class of "e:1,2", both exit 0
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {flag} needs exactly r=1 indices\n"


def test_uh_matrix_command(capsys):
    assert main(["uh-matrix"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "C"
    assert data["rows"] == [[0], [1]] and data["cols"] == [[0], [1]]
    assert len(data["entries"]) == 2 and len(data["entries"][0]) == 2
    assert len(data["entries"][0][0]) == 2  # [re, im]


@pytest.mark.parametrize("command", [["uh-matrix"], ["verify", "--suite", "identities"]])
def test_out_dash_writes_stdout(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main(command) == 0
    default = capsys.readouterr().out
    assert main(command + ["--out", "-"]) == 0
    assert capsys.readouterr().out == default != ""
    assert main(command + ["--out", "file.json"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "file.json").read_text() == default
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.json"]


def test_series_command_matches_library(capsys, cfg21):
    assert main(["series", "--side", "plus", "--delta", "1", "--order", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    s = h_series(cfg21, "plus", (0,), 6)
    assert data["order"] == 6
    got0 = complex(*[row for row in data["coeffs"] if row[0] == 0][0][1:])
    assert abs(got0 - s.coefficient(0)) < 1e-15


def test_series_order_past_the_coefficient_bound_is_a_config_error(monkeypatch, capsys):
    # order 10^8 used to build the series until the process ran out of
    # memory; the bound is checked before any series is built
    def never(*args, **kw):
        raise AssertionError("h_series called")

    monkeypatch.setattr(cli, "h_series", never)
    assert main(["series", "--side", "plus", "--delta", "1", "--order", "100000000"]) == 2
    err = capsys.readouterr().err
    assert f"more than {MAX_SERIES_COEFFS} coefficients" in err and "order 100000000 at r = 1" in err


def test_series_coefficient_bound_is_c_order_plus_r_choose_r():
    assert MAX_SERIES_COEFFS >= math.comb(63, 3)  # order 60 at r = 3
    for r in (1, 2, 3):
        order = 0
        while math.comb(order + 1 + r, r) <= MAX_SERIES_COEFFS:
            order += 1
        _check_order(order, r)
        with pytest.raises(ConfigError, match="coefficients"):
            _check_order(order + 1, r)


# each order is under the coefficient bound C(order + r, r)
@pytest.mark.parametrize("config,delta,order,values", [
    ({}, "1", 30000, 120004),
    ({"n": 40, "r": 1, "weights": {"seed": 0}}, "1", 1300, 104080),
    ({"n": 60, "r": 2, "weights": {"seed": 0}}, "1,2", 420, 101040),
])
def test_series_recip_table_past_the_bound_is_a_config_error(monkeypatch, capsys, tmp_path,
                                                             config, delta, order, values):
    # the 2n r (order + 1) 1/Gamma values are built before any coefficient,
    # so their bound is checked before the series is built
    def never(*args, **kw):
        raise AssertionError("h_series called")

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(cli, "h_series", never)
    assert main(["series", "--side", "plus", "--delta", delta, "--order", str(order),
                 "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"needs {values} 1/Gamma values" in err and f"more than {MAX_SERIES_COEFFS}" in err


def test_series_recip_table_bound_is_2_n_r_order_plus_1():
    for n, r in ((2, 1), (3, 2), (40, 1)):
        order = MAX_SERIES_COEFFS // (2 * n * r) - 1
        _check_recip_table(order, n, r)
        with pytest.raises(ConfigError, match="1/Gamma values"):
            _check_recip_table(order + 1, n, r)


# 1/Gamma(1 + b - e) outgrows a float once e passes ~171: order 200 used to
# build its 804 values and exit 2 naming only the value (inf+infj)
@pytest.mark.parametrize("config,side,delta,order,where", [
    ({}, "plus", "1", 170, None),
    ({}, "minus", "2", 170, None),
    ({}, "plus", "1", 200, (0, 173)),
    ({}, "minus", "2", 200, (0, 173)),
    ({"n": 3, "r": 2}, "plus", "1,2", 175, (1, 173)),
])
def test_series_past_the_1_over_gamma_overflow_names_the_order_and_slot(capsys, tmp_path, config,
                                                                        side, delta, order, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    status = main(["series", "--side", side, "--delta", delta, "--order", str(order),
                   "--config", str(path)])
    out, err = capsys.readouterr()
    if where is None:
        assert status == 0 and json.loads(out)["order"] == order
    else:
        assert status == 2 and out == ""
        assert err.startswith(f"configuration error: --order {order} ") and f"(slot, e) = {where}" in err


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_series_command_r2_stops_at_order(capsys, tmp_path, side):
    # each variable is cut at the order, so past it a total degree lacks
    # most of its compositions; the coefficients kept are those of a
    # higher-order specialization
    data = {"n": 3, "r": 2}
    path = tmp_path / "rc.json"
    path.write_text(json.dumps(data))
    argv = ["series", "--side", side, "--delta", "1,2", "--order", "2", "--config", str(path)]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["coeffs"]
    assert [row[0] for row in rows] == [0, 1, 2]
    ref = h_series(RunConfig.from_json_dict(data).flop_config(), side, (0, 1), 6).specialize()
    for e, re_part, im_part in rows:
        want = ref.coefficient(e)
        assert abs(complex(re_part, im_part) - want) <= 1e-14 * abs(want)


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


@pytest.mark.parametrize("argv, raised_by", [
    # Gamma(1 + w_t / z) at |w_t / z| ~ 3e7
    pytest.param(["--class", "e:1", "--w=-1.2,3.1416", "--z", "1e-8,0.5e-8"],
                 "Gamma overflows", id="1e-8,0.5e-8-Gamma overflows"),
    # z^{dim/2} overflows in cmath.exp
    pytest.param(["--class", "e:1", "--w=-1.2,3.1416", "--z", "1e300,0"],
                 "psi factor overflows", id="1e300,0-psi factor overflows"),
    # 1/z overflows in PsiContext.inv_z
    pytest.param(["--class", "1", "--w=-1,3.14", "--z", "1e-320,0"],
                 "1/z does not fit a float", id="1e-320,0-1/z overflows"),
    # q^a = e^{a w} overflows for Re a < 0 deep inside the disc |q| < 1
    pytest.param(["--class", "1", "--w=-1e4,3.14", "--side", "plus"],
                 "a power of q overflows", id="w=-1e4-power of q overflows"),
    # the I-series has radius |q| = 1; at Re w = 0.5 its truncation summed
    # to 1.6e5 - 6.0e5i, exit 0
    pytest.param(["--class", "1", "--w=0.5,3.14", "--z", "2,0"],
                 "the I-series diverges at w = ", id="w=0.5-I-series diverges"),
    pytest.param(["--class", "1", "--w=0,3.14", "--z", "2,0"],
                 "the I-series diverges at w = ", id="w=0-I-series diverges"),
])
def test_charge_overflow_is_an_evaluation_error(capsys, argv, raised_by):
    # all but the divergent rows used to end in a traceback and exit 1
    assert main(["charge"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("evaluation error:") and raised_by in err


def test_charge_with_a_weight_beyond_the_float_range_exits_two(tmp_path, capsys):
    # the tangent weight z_0 - x_0 = -2e308 once escaped PsiContext.create
    # as a raw OverflowError, a traceback and exit 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2, "r": 1, "weights": {"x": ["1e308", "0"], "z": ["-1e308", "1"]}}))
    argv = ["charge", "--class", "1", "--w=-1.5,3.14159", "--z", "2,0", "--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("evaluation error: tangent weight 1 at minus (0,)"), err


def test_charge_at_z_3_plus_i_matches_the_factored_form(capsys):
    # the order-80 I-series at z = 3 + i once overflowed to inf/inf at
    # e = 80; its coefficients are finite, and the value is the pairing
    # built from the independent integral-structure form of the I-series
    argv = ["charge", "--class", "1", "--w=-1.5,3.14159", "--z", "3,1", "--side", "minus"]
    assert main(argv) == 0
    got = complex(*json.loads(capsys.readouterr().out)["value"])
    rc = RunConfig()
    cfg = rc.flop_config()
    ctx = PsiContext.create(cfg, "minus", z=3 + 1j)
    w = -1.5 + 3.14159j
    i_vals = {d: i_function_factored(cfg, "minus", d, SERIES_ORDER, ctx.rotated()).eval(w)
              for d in fixed_point_deltas(cfg)}
    want = pairing(cfg, LocalizedCohClass("minus", i_vals),
                   psi_apply(ctx, unit_class(cfg, "minus")))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_barnes_sine_prefactor_overflow_exits_two(capsys, tmp_path):
    # x_1 - z_0 = 1999 overflows sinh in the sine prefactor at delta 2; this
    # used to end in an OverflowError traceback and exit 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "r": 1, "weights": {"x": [0, 2000], "z": [1, 3]}}))
    argv = ["barnes", "--config", str(path), "--w=-2,3.14159", "--delta", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("evaluation error:") and "overflows" in err


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
        "z_eval": [[2.0, 0.0]],
    }
    path = tmp_path / "rc.json"
    path.write_text(json.dumps(payload))
    rc = RunConfig.from_file(str(path))
    cfg = rc.flop_config()
    assert (cfg.n, cfg.r) == (3, 1)
    assert str(cfg.x[0]) == "31/100"
    env = rc.suite_env(cfg)
    assert (env.seed, env.z_values, env.base_config) == (9, (2 + 0j,), cfg)


def test_runconfig_random_weights():
    rc = RunConfig.from_json_dict({"n": 3, "r": 2, "weights": {"seed": 4, "scale": "1/10"}})
    cfg1 = rc.flop_config()
    cfg2 = rc.flop_config()
    assert cfg1 == cfg2 and cfg1 is not cfg2
    assert (rc.x, rc.z) == (cfg1.x, cfg1.z)  # drawn once, on loading
    assert cfg1.n == 3 and cfg1.r == 2


@pytest.mark.parametrize("payload, message", [
    # no draw mends r = n: the draw was retried for ever
    ({"n": 2, "r": 2, "weights": {"seed": 1}}, "need 0 < r < n"),
    # a weight beyond the float range ended in an OverflowError traceback
    ({"n": 2, "r": 1, "weights": {"x": ["1e309", "0"], "z": ["-1e308", "1"]}},
     r"weight x\[0\] \(\|w\| ~ 10\^309\.0\) does not fit a float"),
    ({"weights": {"seed": 1, "scale": "1e400"}}, r"weight x\[\d\] .* does not fit a float"),
    # every draw at scale 0 is degenerate: the draw was retried for ever
    ({"weights": {"seed": 1, "scale": "0"}}, "weight scale 0 makes every draw degenerate"),
], ids=["r-equals-n", "weight-beyond-float", "scale-beyond-float", "scale-zero"])
def test_a_config_no_draw_can_mend_exits_two(tmp_path, payload, message):
    # in a subprocess with a timeout, so that a retry loop fails the test
    # instead of hanging it
    path = tmp_path / "rc.json"
    path.write_text(json.dumps(payload))
    proc = run_cli(["fixed-points", "--config", str(path)], timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("configuration error:"), proc.stderr
    assert re.search(message, proc.stderr), proc.stderr


def test_a_top_level_seed_must_equal_the_weights_seed(tmp_path, capsys):
    # the top-level seed was dropped for the weights seed without a word
    path = tmp_path / "rc.json"
    path.write_text(json.dumps({"seed": 3, "weights": {"seed": 5}}))
    assert main(["fixed-points", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "seed 3 differs from the weights seed 5" in err
    # equal seeds, as perfbench passes them, stay accepted
    rc = RunConfig.from_json_dict({"seed": 5, "weights": {"seed": 5}})
    assert rc.seed == 5 and rc.flop_config() == RunConfig.from_json_dict(
        {"weights": {"seed": 5}}).flop_config()


def test_tol_and_order_are_unknown_keys(tmp_path, capsys):
    # the tolerances and the series order are engine constants: a run
    # config that loosened every tolerance to 1e300 passed those cases
    # whatever their error, and order 3 failed the continuation cases on a
    # truncated reference series
    for payload in ({"tol": {"fm_formula": 1e300, "collapse": 1e300, "continuation": 1e300,
                             "central_charge": 1e300}},
                    {"order": 3},
                    {"order": SERIES_ORDER}):
        path = tmp_path / "rc.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", "--config", str(path)]) == 2, payload
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error:")
        assert f"unknown keys {sorted(payload)}" in captured.err
        with pytest.raises(ConfigError):
            RunConfig.from_json_dict(payload)


def test_runconfig_rejects_unknown_tol():
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"tol": {"bogus": 1.0}})


def test_identities_tolerance_is_an_unknown_key(tmp_path):
    # no identities case reads a tolerance: its checks are exact
    path = tmp_path / "rc.json"
    path.write_text(json.dumps({"tol": {"identities": 5}}))
    assert main(["verify", "--suite", "identities", "--config", str(path)]) == 2
    rc = RunConfig()
    assert "identities" not in rc.echo(rc.flop_config())["tol"]


def test_report_echoes_the_pinned_tolerances_and_series_order(capsys):
    assert main(["verify", "--suite", "identities"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["tol"] == DEFAULT_TOLS
    assert config["order"] == SERIES_ORDER == 80
    # no identities case reads a tolerance: its checks are exact
    assert "identities" not in config["tol"]


def test_cases_read_the_pinned_tolerance_table(monkeypatch):
    from flopwall import suites

    def statuses():
        return {c["case"]: c["status"] for c in run_suite(RunConfig(), "ktheory").cases}

    fm_formula = {"fm-formula-n2-r1", "fm-formula-n3-r1", "fm-formula-n3-r2", "fm-formula-n4-r2"}
    assert set(statuses().values()) == {"pass"}
    monkeypatch.setitem(suites.DEFAULT_TOLS, "fm_formula", 0.0)
    status = statuses()
    assert {name for name, st in status.items() if st != "pass"} == fm_formula
    assert {status[name] for name in fm_formula} == {"fail"}


def test_central_charge_at_z_3_plus_i_passes(tmp_path, capsys):
    # at z = 3 + i the order-80 I-series on the minus side once overflowed:
    # a NaN there passed fm-continuation with error 0, and later i_function
    # raised.  Its coefficients are finite now, and the continued charge
    # agrees with a nonzero error below tol
    path = tmp_path / "rc.json"
    path.write_text(json.dumps({"z_eval": [[3, 1], [2, 0]]}))
    assert main(["verify", "--suite", "central-charge", "--config", str(path)]) == 0
    cases = {c["case"]: c for c in json.loads(capsys.readouterr().out)["cases"]}
    case = cases["fm-continuation"]
    assert case["status"] == "pass"
    assert 0 < case["max_rel_err"] < DEFAULT_TOLS["central_charge"]
    assert cases["linearity"]["status"] == cases["leading-asymptotics"]["status"] == "pass"


# every case that accumulates an error in numkernel.worst_error, directly
# or through ode_check and the continuation report
_ACCUMULATING = {
    "fm-formula-n2-r1", "fm-formula-n3-r1", "fm-formula-n3-r2", "fm-formula-n4-r2",
    "chi-invariance-n2-r1", "chi-invariance-n3-r2",
    "sr-collapse-n3-r2", "sr-collapse-n4-r2", "sr-collapse-n5-r3",
    "fm-diagram-n2-r1", "fm-diagram-n3-r1", "fm-diagram-n3-r2", "fm-diagram-n4-r2",
    "c-r1-specialization", "integral-pairing-z2+0i", "integral-pairing-z3+1i",
    "symplectic-pairing", "wall-crossing-n2-r1", "wall-crossing-n3-r1",
    "factor-structure-n3-r2", "ode-residuals", "ode-sensitivity-control",
    "i-factorization-n2-r1", "i-factorization-n3-r2", "i-reordering-symmetry",
    "fm-continuation",
}


def test_a_nan_term_fails_every_case_that_accumulates_an_error(monkeypatch):
    from flopwall import hypergeom, numkernel, suites

    def with_nan(*terms):
        return numkernel.worst_error(*terms, math.nan)

    monkeypatch.setattr(suites, "worst_error", with_nan)
    monkeypatch.setattr(hypergeom, "worst_error", with_nan)
    status = {c["case"]: c["status"] for c in run_suite(RunConfig(), "all").cases}
    assert _ACCUMULATING <= set(status)
    assert {name for name, st in status.items() if st != "pass"} == _ACCUMULATING
    assert {status[name] for name in _ACCUMULATING} == {"fail"}


def test_stable_json_formatting():
    out = _stable_json({"b": 0.1, "a": [1, True, None, complex(1.5, -2.5)]})
    assert out == '{"a":[1,true,null,[1.5,-2.5]],"b":0.10000000000000001}'


def test_full_suite_passes():
    report = run_suite(RunConfig(), "all")
    failures = [c for c in report.cases if c["status"] != "pass"]
    assert not failures, failures
    assert report.exit_status == 0


GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "verify_default.json"


def _pinned_view(report) -> dict:
    """The platform-independent part of a verify report: the config echo and
    each case's suite, name, params and status.  ``max_rel_err`` and
    ``runtime_ms`` vary with the platform and are left out."""
    keep = ("suite", "case", "params", "status")
    view = {"config": report.config, "cases": [{k: c[k] for k in keep} for c in report.cases]}
    return json.loads(_stable_json(view))


def test_default_report_matches_the_golden_file():
    # the rows and the config echo of the default verify report stay as
    # they are unless a change means them to differ; such a change rewrites
    # tests/data/verify_default.json and says so
    golden = json.loads(GOLDEN_REPORT.read_text())
    assert len(golden["cases"]) == 59
    assert _pinned_view(run_suite(RunConfig(), "all")) == golden


def test_golden_file_comparison_fails_on_one_changed_param(monkeypatch):
    from flopwall import suites

    # the params "q" of the wall-crossing cases read suites.Q_INSIDE; the
    # check itself reads hypergeom's, so only those params change
    golden = json.loads(GOLDEN_REPORT.read_text())
    monkeypatch.setattr(suites, "Q_INSIDE", 0.25)
    view = _pinned_view(run_suite(RunConfig(), "all"))
    assert view != golden
    changed = [c["case"] for c, want in zip(view["cases"], golden["cases"]) if c != want]
    assert changed == ["wall-crossing-n2-r1", "wall-crossing-n3-r1"]
    assert view["config"] == golden["config"]


class _SeededGrid(SuiteEnv):
    """Every grid point of every suite at random_config(n, r, weights_seed),
    not only the run config's own (n, r)."""

    def __init__(self, weights_seed: int):
        super().__init__()
        self.weights_seed = weights_seed

    def config_for(self, n: int, r: int):
        if (n, r) not in self._grid_configs:
            self._grid_configs[n, r] = random_config(n, r, seed=self.weights_seed)
        return self._grid_configs[n, r]


# random_config(3, 2, s) has a tangent weight of exactly -2 at s = 4 and 10,
# so Gamma(1 + w/z) sits on a pole at z = 2, the first evaluation point: the
# two cases that build the Gamma class at (3, 2) raise PoleError there, as
# the contract of PsiContext.create asks
_SEEDED_POLES = {(s, case) for s in (4, 10) for case in ("i-factorization-n3-r2", "i-reordering-symmetry")}


def test_every_case_passes_on_seeded_grids():
    for seed in range(20):
        for case in collect_cases(_SeededGrid(seed), "all"):
            if (seed, case.name) in _SEEDED_POLES:
                with pytest.raises(PoleError, match=re.escape("1 + w/z hits a Gamma pole for w = -2")):
                    case.thunk()
            else:
                assert case.thunk()[0] == "pass", (seed, case.name)


class _RecordingGrid(SuiteEnv):
    """The default grid, recording the points whose configs are looked up."""

    def __init__(self):
        super().__init__()
        self.points = []

    def config_for(self, n: int, r: int):
        self.points.append((n, r))
        return super().config_for(n, r)


def _misplaced(env: _RecordingGrid, cases) -> list:
    """Names of the cases whose params hold integer n and r but whose thunk
    looks up the config of another grid point."""
    out = []
    for case in cases:
        n, r = case.params.get("n"), case.params.get("r")
        if type(n) is int and type(r) is int:
            env.points.clear()
            case.thunk()
            if set(env.points) != {(n, r)}:
                out.append(case.name)
    return out


def test_every_case_runs_at_the_grid_point_its_params_name():
    env = _RecordingGrid()
    cases = collect_cases(env, "all")
    # collecting looks up no config: a thunk looks its own up when it runs
    assert env.points == []
    assert sum(type(c.params.get("n")) is int and type(c.params.get("r")) is int for c in cases) == 50
    assert _misplaced(env, cases) == []


def test_a_case_registered_at_the_wrong_point_is_found():
    env = _RecordingGrid()
    cases = collect_cases(env, "wallcross")
    i = next(i for i, c in enumerate(cases) if c.name == "u-nonsingular")
    cases[i] = replace(cases[i], params={"n": 3, "r": 1})
    assert _misplaced(env, cases) == ["u-nonsingular"]


def test_continuation_suite_passes_on_a_seeded_n3_instance(tmp_path):
    path = tmp_path / "seed0.json"
    path.write_text(json.dumps({"n": 3, "r": 1, "weights": {"seed": 0}}))
    assert main(["verify", "--suite", "continuation", "--config", str(path)]) == 0


def test_collect_cases_registry():
    from flopwall.suites import SUITES

    env = SuiteEnv()
    per_suite = {name: len(collect_cases(env, name)) for name in SUITES}
    assert all(count > 0 for count in per_suite.values())
    assert len(collect_cases(env, "all")) == sum(per_suite.values())
    with pytest.raises(ValueError):
        collect_cases(env, "bogus")
