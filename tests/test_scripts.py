"""Smoke runs of the scripts in scripts/ on the default n = 2, r = 1 instance."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import flopwall

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(name, *args, cwd):
    # the scripts import flopwall; run them against the same copy as the tests
    src = str(Path(flopwall.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": path},
    )


def run_script(name, *args, cwd, returncode=0):
    proc = _run(name, *args, cwd=cwd)
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout if returncode == 0 else proc.stderr


def test_wall_scan_matches_the_series_at_every_reference_point(tmp_path):
    out = tmp_path / "scan.csv"
    run_script("wall_scan.py", "--out", str(out), cwd=tmp_path)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    errs = [float(row["rel_err"]) for row in rows if row["rel_err"]]
    # both fixed points of the 38 path points inside the strip
    assert len(rows) == 76
    assert errs and max(errs) <= 1e-8


def test_charge_profile_agrees_across_the_wall(tmp_path):
    lines = run_script("charge_profile.py", cwd=tmp_path).splitlines()
    rel = [float(line.split()[-1]) for line in lines[1:]]
    assert len(rel) == 5  # the default --q-values
    assert max(rel) <= 1e-8


def test_charge_profile_reports_a_weight_beyond_the_float_range(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2, "r": 1, "weights": {"x": ["1e308", "0"], "z": ["-1e308", "1"]}}))
    err = run_script("charge_profile.py", "--config", str(path), cwd=tmp_path, returncode=2)
    assert err.startswith("evaluation error: tangent weight 1 at minus (0,)"), err


def test_charge_profile_reports_a_q_where_the_minus_series_diverges(tmp_path):
    # at |q+| = 1/2 the minus series runs at |q-| = 2, outside its disc
    err = run_script("charge_profile.py", "--q-values", "0.5", cwd=tmp_path, returncode=2)
    assert err.startswith("evaluation error: the I-series diverges at w = "), err


def _usage_error(*args, cwd):
    """stderr of a charge_profile.py run that argparse rejects: exit 2 and
    nothing on stdout, not even the table header."""
    proc = _run("charge_profile.py", *args, cwd=cwd)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    return proc.stderr


def test_charge_profile_rejects_a_zero_z_before_printing(tmp_path):
    # z = 0 used to reach cmath.log in PsiContext.create and exit 1 with a traceback
    for z in ("0", "nan"):
        err = _usage_error("--z", z, cwd=tmp_path)
        assert f"argument --z: z must be finite and nonzero, got {z!r}" in err, err


def test_charge_profile_rejects_a_q_that_is_not_positive_before_printing(tmp_path):
    # a bad entry used to raise ValueError after the header; each one is
    # checked before anything is printed
    for values, bad in [("abc", "abc"), ("3,0", "0"), ("-2,3", "-2"), ("3,,4", ""), ("3,inf", "inf")]:
        err = _usage_error(f"--q-values={values}", cwd=tmp_path)
        assert f"argument --q-values: |q| must be a positive finite number, got {bad!r}" in err, err
