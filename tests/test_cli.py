"""End-to-end tests for the command-line interface.

Every invocation goes through main(argv) in-process (exit codes 0/1/2,
stdout/stderr capture), except one test: it checks the `hele-homog` entry
point declared in pyproject.toml by running pip's launcher for it in a
subprocess, and also runs the installed script when one is on PATH.
Reruns of the same invocation must be byte-identical.
"""

import ast
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hele_homog
from hele_homog import barriers, cli, hs2d
from hele_homog.cli import main

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


SUPERBARRIER_PASS = [
    "barrier", "verify", "--kind", "superbarrier", "--n", "2", "--M", "1.2",
    "--mu", "1", "--chi0", "1", "--kappa", "0.01", "--t", "-0.1",
    "--eps", "1", "--samples", "32", "--medium", "1", "--c", "1e-6",
]
SUPERBARRIER_FAIL = [v if v != "1e-6" else "0.05" for v in SUPERBARRIER_PASS]

# g = sqrt(sin(pi*x)) + 1 is finite on the cell [0, 1) and NaN on (1, 2)
NAN_MEDIUM = "sqrt(sin(pi*x)) + 1"

# 1-periodic, and 1 at every sample the model contract takes, but g < 0 in a
# dip of width ~1e-3 around x = 0.0123 where every front stalls
DIP_MEDIUM = "1 - 1.5*exp(-100000*sin(pi*(x - 0.0123))^2)"


def declared_console_script(name):
    """The `module:attr` value of `name` under [project.scripts]."""
    text = PYPROJECT.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        section = re.search(r"^\[project\.scripts\][ \t]*$(.*?)(?=^\[|\Z)",
                            text, re.M | re.S)
        assert section is not None, "no [project.scripts] in pyproject.toml"
        entry = re.search(rf'^{re.escape(name)}[ \t]*=[ \t]*"([^"]*)"[ \t]*$',
                          section.group(1), re.M)
        assert entry is not None, f"no {name} entry under [project.scripts]"
        return entry.group(1)
    return tomllib.loads(text)["project"]["scripts"][name]


def check_console_contract(command, env, cwd):
    """Arguments reach main() through sys.argv; its code reaches sys.exit."""
    proc = subprocess.run(
        command + ["timescale", "eval", "--kind", "theta", "--gamma", "2",
                   "--t", "0.7"],
        capture_output=True, text=True, timeout=60, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(0.7, abs=1e-12)
    proc = subprocess.run(command + ["frobnicate"], capture_output=True,
                          text=True, timeout=60, env=env, cwd=cwd)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage:")
    # a failed check: the code comes from the subcommand, not an exception
    proc = subprocess.run(command + SUPERBARRIER_FAIL, capture_output=True,
                          text=True, timeout=60, env=env, cwd=cwd)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["passed"] is False


# ---------------------------------------------------------------------------
# medium check
# ---------------------------------------------------------------------------


class TestMediumCheck:
    def test_expression_report(self):
        code, out, err = run_cli(
            ["medium", "check", "--expr", "sin(pi*(x - t))^2 + 1"])
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 1
        assert data["m"] == pytest.approx(1.0, abs=1e-9)
        assert data["M"] == pytest.approx(2.0, abs=1e-9)
        assert data["L"] > 0
        assert data["resolution"] == 64
        assert data["periodicity_trials"] == 32
        assert data["periodicity_max_deviation"] <= 1e-9

    def test_nan_medium_rejected(self):
        # the unit shift of x lands where g is NaN; the deviation must not
        # read 0.0
        with np.errstate(invalid="ignore"):
            code, out, err = run_cli(["medium", "check", "--expr", NAN_MEDIUM])
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    def test_grid_above_two_to_the_24_rejected(self):
        # 64^5 points for a dim-4 medium: refused before any is evaluated
        code, out, err = run_cli(["medium", "check", "--expr", "1", "--dim", "4"])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "1073741824 points" in err

    def test_hundred_nested_groups(self):
        # wrapping every operation in parentheses passed Python's 200 levels
        expr = "-(x+" * 100 + "x" + ")" * 100 + " + 2000"
        code, out, err = run_cli(["medium", "check", f"--expr={expr}"])
        assert (code, err) == (0, "")
        assert json.loads(out)["m"] > 0

    def test_two_thousand_term_chain(self):
        # a flat chain costs the printer no recursion per term
        code, out, err = run_cli(["medium", "check", "--expr", "+".join(["1"] * 2000)])
        assert (code, err) == (0, "")
        assert json.loads(out)["m"] == 2000.0

    @pytest.mark.parametrize("expr", [
        "sin(" * 199 + "x" + ")" * 199,
        "(" * 199 + "x" + ")" * 199,
        "+".join(["1"] * 5000),
    ], ids=["calls", "parens", "sum5000"])
    def test_too_deep_exits_one(self, expr):
        code, out, err = run_cli(["medium", "check", "--expr", expr])
        assert code == 1
        assert out == ""
        assert err.startswith("error: expression nested too deeply")

    def test_builtin_name(self):
        code, out, _ = run_cli(["medium", "check", "--medium", "builtin:pinning"])
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_expr_and_medium_together_rejected(self):
        code, _, err = run_cli(
            ["medium", "check", "--expr", "1", "--medium", "builtin:pinning"])
        assert code == 1
        assert "not both" in err

    def test_needs_some_medium(self):
        code, _, err = run_cli(["medium", "check"])
        assert code == 1
        assert err.startswith("error:")

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["medium", "check", "--expr", "2", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["m"] == pytest.approx(2.0)

    def test_medium_file_round_trip(self, tmp_path):
        path = tmp_path / "medium.json"
        path.write_text(json.dumps(
            {"version": 1, "expr": "1 + 0.5*cos(2*pi*x)^2", "dim": 1}))
        code, out, _ = run_cli(["medium", "check", "--medium", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["m"] == pytest.approx(1.0, abs=1e-9)
        assert data["M"] == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"version": 1, "expr": "1", "extra": 2}, "unknown keys"),
            ({"version": 2, "expr": "1"}, "version"),
            ({"version": 1}, "missing"),
            ({"version": 1, "expr": "1", "dim": "two"}, "integer"),
            ({"version": 1, "expr": 5}, '"expr" must be a string, got 5'),
            ({"version": 1, "expr": True}, '"expr" must be a string, got True'),
            ({"version": 1, "expr": ["1"]}, '"expr" must be a string'),
            ({"version": 1, "expr": "1", "dim": True}, '"dim" must be an integer'),
            ({"version": 1, "expr": "1", "dim": [1]}, '"dim" must be an integer'),
            ({"version": 1, "expr": "1", "dim": 1.5},
             '"dim" must be an integer, got 1.5'),
            ({"version": True, "expr": "1"}, '"version": 1, got True'),
        ],
    )
    def test_medium_file_shape_errors(self, tmp_path, payload, message):
        path = tmp_path / "medium.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(["medium", "check", "--medium", str(path)])
        assert code == 1
        assert message in err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("dim", [1.0, None])
    def test_medium_file_integral_float_and_null_dim(self, tmp_path, dim):
        path = tmp_path / "medium.json"
        path.write_text(json.dumps({"version": 1, "expr": "2", "dim": dim}))
        code, out, _ = run_cli(["medium", "check", "--medium", str(path)])
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_medium_file_invalid_json(self, tmp_path):
        path = tmp_path / "medium.json"
        path.write_text("{not json")
        code, _, err = run_cli(["medium", "check", "--medium", str(path)])
        assert code == 1
        assert "not valid JSON" in err

    def test_medium_file_non_object(self, tmp_path):
        path = tmp_path / "medium.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(["medium", "check", "--medium", str(path)])
        assert code == 1
        assert "JSON object" in err

    def test_garbled_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("HELE_HOMOG_SEED", "abc")
        code, _, err = run_cli(["medium", "check", "--expr", "1"])
        assert code == 1
        assert "HELE_HOMOG_SEED" in err

    @pytest.mark.parametrize("argv, env", [
        (["--seed", "-1"], "0"),
        ([], "-1"),
    ])
    def test_negative_seed_rejected(self, monkeypatch, argv, env):
        # once a traceback out of NumPy's SeedSequence, not an exit 1
        monkeypatch.setenv("HELE_HOMOG_SEED", env)
        code, out, err = run_cli([*argv, "medium", "check", "--expr", "1"])
        assert (code, out, err) == (1, "", "error: seed must be an integer >= 0, got -1\n")

    def test_seed_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("HELE_HOMOG_SEED", "abc")
        code, _, _ = run_cli(["--seed", "3", "medium", "check", "--expr", "1"])
        assert code == 0


# ---------------------------------------------------------------------------
# rq curve / obstacle / candidates
# ---------------------------------------------------------------------------


class TestRqCurve:
    ARGS = ["rq", "curve", "--medium", "builtin:static_sin",
            "--qmin", "0.5", "--qmax", "1.0", "--samples", "3",
            "--T", "10", "--dt", "0.05"]

    def test_csv_units_and_values(self, tmp_path):
        csv_path = tmp_path / "curve.csv"
        svg_path = tmp_path / "curve.svg"
        code, out, _ = run_cli(
            self.ARGS + ["--out", str(csv_path), "--svg", str(svg_path)])
        assert code == 0
        assert out == ""
        header, rows = parse_csv(csv_path.read_text())
        assert header == [
            "q (gradient magnitude; dimensionless)",
            "r_hat (front speed; length per unit time)",
            "err (speed error bound 1/T; length per unit time)",
        ]
        assert rows.shape == (3, 3)
        np.testing.assert_allclose(rows[:, 0], [0.5, 0.75, 1.0])
        # medium averages to speed sqrt(2) q; T = 10 allows a 0.1 error bound
        np.testing.assert_allclose(rows[:, 1], math.sqrt(2) * rows[:, 0],
                                   atol=0.15)
        np.testing.assert_allclose(rows[:, 2], 0.1)

        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<polyline" in svg
        assert ">q</text>" in svg and ">r_hat</text>" in svg

    def test_jobs_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(self.ARGS + ["--jobs", "1", "--out", str(a)])[0] == 0
        assert run_cli(self.ARGS + ["--jobs", "3", "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(self.ARGS + ["--out", str(a)])[0] == 0
        assert run_cli(self.ARGS + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "patch, message",
        [
            (["--qmin", "1.0", "--qmax", "0.5"], "qmin < qmax"),
            (["--samples", "1"], "samples"),
            (["--T", "5"], "T must be >= 10"),
        ],
    )
    def test_validation(self, patch, message):
        args = list(self.ARGS)
        for i in range(0, len(patch), 2):
            j = args.index(patch[i])
            args[j + 1] = patch[i + 1]
        code, _, err = run_cli(args)
        assert code == 1
        assert message in err


    @pytest.mark.parametrize(
        "patch, message",
        [
            (["--dt", "-0.01"], "dt must be > 0"),
            (["--dt", "0"], "dt must be > 0"),
            (["--medium", "1 + sin(pi*y)^2", "--dim", "2"], "one-dimensional"),
        ],
    )
    def test_bad_input_exits_one_without_csv(self, tmp_path, patch, message):
        csv_path = tmp_path / "curve.csv"
        code, _, err = run_cli(self.ARGS + patch + ["--out", str(csv_path)])
        assert code == 1
        assert err.startswith("error:") and message in err
        assert not csv_path.exists()

    def test_stalled_front_exits_two(self, tmp_path):
        csv_path = tmp_path / "curve.csv"
        args = ["rq", "curve", "--qmin", "0.5", "--qmax", "1.0", "--samples", "3",
                "--out", str(csv_path)]
        code, _, err = run_cli(args + ["--medium", DIP_MEDIUM])
        assert code == 2
        assert "failed to increase" in err
        assert not csv_path.exists()
        # g = sin(pi*x) + 0.5 also stalls every front (at x = 7/6), but it
        # has period 2: the model contract rejects it before any step
        code, _, err = run_cli(args + ["--medium", "sin(pi*x)+0.5"])
        assert code == 1
        assert err.startswith("error: medium is not 1-periodic")
        assert not csv_path.exists()

    def test_out_of_memory_exits_one(self, tmp_path):
        # 1e14 samples need 728 TiB, past the 47-bit address space, so the
        # allocation is refused at once
        csv_path = tmp_path / "curve.csv"
        code, out, err = run_cli(
            ["rq", "curve", "--medium", "builtin:pinning", "--qmin", "0.5", "--qmax", "1",
             "--samples", "100000000000000", "--T", "10", "--out", str(csv_path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not csv_path.exists()


class TestRqObstacle:
    def test_super_side_traces_detachment(self, tmp_path):
        path = tmp_path / "obstacle.csv"
        code, _, _ = run_cli(
            ["rq", "obstacle", "--medium", "builtin:pinning", "--q", "1.0",
             "--r", "1.0", "--eps", "0.1", "--side", "super", "--T", "1",
             "--out", str(path)])
        assert code == 0
        header, rows = parse_csv(path.read_text())
        assert header[0] == "t (time units)"
        assert "front" in header[1] and "length units" in header[1]
        assert "phi (running max detachment; length units)" == header[2]
        assert np.all(np.isfinite(rows))
        assert np.all(np.diff(rows[:, 0]) > 0)
        phi = rows[:, 2]
        assert phi[0] >= 0.0
        assert np.all(np.diff(phi) >= 0)

    def test_sub_side_runs(self):
        code, out, _ = run_cli(
            ["rq", "obstacle", "--medium", "builtin:pinning", "--q", "1.0",
             "--r", "1.0", "--eps", "0.1", "--side", "sub", "--T", "1"])
        assert code == 0
        assert out.splitlines()[0].startswith("t (")

    def test_nan_medium_exits_one_without_csv(self, tmp_path):
        csv_path = tmp_path / "obstacle.csv"
        with np.errstate(invalid="ignore"):
            code, _, err = run_cli(
                ["rq", "obstacle", "--medium", NAN_MEDIUM, "--q", "1", "--r", "0.5",
                 "--eps", "0.5", "--side", "super", "--T", "4",
                 "--out", str(csv_path)])
        assert code == 1
        assert err == "error: medium evaluates to a non-finite value\n"
        assert not csv_path.exists()

    def test_out_of_memory_exits_one(self, tmp_path):
        # T/dt = 1e15 steps need 7.11 PiB of positions, refused at once
        csv_path = tmp_path / "obstacle.csv"
        code, out, err = run_cli(
            ["rq", "obstacle", "--medium", "builtin:pinning", "--q", "1", "--r", "1",
             "--eps", "0.001", "--side", "sub", "--T", "50000000000", "--out", str(csv_path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not csv_path.exists()

    def test_invalid_side_rejected(self):
        code, _, err = run_cli(
            ["rq", "obstacle", "--medium", "builtin:pinning", "--q", "1.0",
             "--r", "1.0", "--eps", "0.1", "--side", "both"])
        assert code == 1
        assert "invalid choice" in err


class TestRqCandidates:
    def test_two_sided_estimates(self):
        code, out, _ = run_cli(
            ["rq", "candidates", "--medium", "builtin:pinning", "--q", "0.75",
             "--eps", "0.1,0.05", "--T", "2"])
        assert code == 0
        match = re.fullmatch(
            r"r_lower = (\S+)\nr_upper = (\S+)\n", out)
        assert match is not None
        lower, upper = float(match.group(1)), float(match.group(2))
        # q = 0.75 sits on the pinned plateau where the speed locks to 1
        assert lower == pytest.approx(1.0, abs=0.1)
        assert upper == pytest.approx(1.0, abs=0.1)

    def test_nan_medium_exits_one(self):
        with np.errstate(invalid="ignore"):
            code, out, err = run_cli(
                ["rq", "candidates", "--medium", NAN_MEDIUM, "--q", "0.75"])
        assert code == 1
        assert out == ""
        assert err == "error: medium evaluates to a non-finite value\n"

    def test_bad_eps_list(self):
        code, _, err = run_cli(
            ["rq", "candidates", "--medium", "builtin:pinning", "--q", "0.75",
             "--eps", "abc"])
        assert code == 1
        assert "comma-separated" in err


# ---------------------------------------------------------------------------
# timescale eval
# ---------------------------------------------------------------------------


class TestTimescaleEval:
    def test_theta_is_identity_without_shift(self):
        code, out, _ = run_cli(
            ["timescale", "eval", "--kind", "theta", "--gamma", "2",
             "--t", "0.7"])
        assert code == 0
        assert float(out) == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("kind", ["sub", "super"])
    def test_rescalings_are_identity_without_shift(self, kind):
        code, out, _ = run_cli(
            ["timescale", "eval", "--kind", kind, "--alpha", "1",
             "--gamma", "1.5", "--t", "0.3"])
        assert code == 0
        assert float(out) == pytest.approx(0.3, abs=1e-12)

    def test_theta_starts_at_the_shift(self):
        code, out, _ = run_cli(
            ["timescale", "eval", "--kind", "theta", "--gamma", "1",
             "--lambda", "0.2", "--t", "0"])
        assert code == 0
        assert float(out) == pytest.approx(0.2, abs=1e-12)

    def test_sub_rescaling_at_a_late_time(self):
        # e^((t + xi)/ag) overflows here; the rescaling itself is finite
        code, out, err = run_cli(
            ["timescale", "eval", "--kind", "sub", "--alpha", "0.5",
             "--gamma", "1", "--t", "400"])
        assert code == 0, err
        assert err == ""
        f = float(out)  # the inverse map t = f + xi (e^(f/ag) - 1), xi = ag = 0.5
        assert f + 0.5 * (math.exp(f / 0.5) - 1.0) == pytest.approx(400.0, abs=1e-8)

    def test_blowup_reported_as_validation_failure(self):
        code, _, err = run_cli(
            ["timescale", "eval", "--kind", "super", "--alpha", "1.2",
             "--gamma", "1", "--lambda", "0.2", "--t", "2"])
        assert code == 1
        assert "blown up" in err

    def test_super_just_below_the_horizon(self):
        # t_max = 0.5183347464017316; W's argument is 2.3e-7 above -1/e
        code, out, err = run_cli(
            ["timescale", "eval", "--kind", "super", "--alpha", "1.2",
             "--gamma", "1", "--lambda", "0.2", "--t", "0.518334"])
        assert code == 0, err
        assert float(out) == pytest.approx(1.31699607902677212, rel=1e-12)  # mpmath

    @pytest.mark.parametrize("t", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["sub", "super", "theta"])
    def test_non_finite_time_rejected(self, kind, t):
        code, out, err = run_cli(
            ["timescale", "eval", "--kind", kind, "--alpha", "0.5",
             "--gamma", "1", "--lambda", "0.2", "--t", t])
        assert code == 1
        assert out == ""
        assert "t must be finite" in err


# ---------------------------------------------------------------------------
# barrier verify
# ---------------------------------------------------------------------------


class TestBarrierVerify:
    def test_expanding_reports_tiny_residual(self):
        code, out, _ = run_cli(
            ["barrier", "verify", "--kind", "expanding", "--n", "2",
             "--m", "1", "--K", "1", "--A", "0.5", "--t", "1.0"])
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "expanding"
        assert data["rho"] > 0
        assert data["alpha"] > 0
        assert abs(data["residual"]) <= 1e-10

    def test_contracting_matches_library_radius(self):
        code, out, _ = run_cli(
            ["barrier", "verify", "--kind", "contracting", "--n", "2",
             "--M", "1", "--mu", "1", "--chi0", "-0.3", "--t", "0.5"])
        assert code == 0
        data = json.loads(out)
        expected = barriers.contracting_radius(
            n=2, M=1.0, mu=1.0, Kfun=lambda s: -0.3 * s, t=0.5)
        assert data["rho"] == pytest.approx(expected, abs=1e-12)
        assert data["residual"] <= 1e-10

    def test_superbarrier_passes(self):
        code, out, _ = run_cli(SUPERBARRIER_PASS)
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert all(v > 0 for v in data["margins"].values())
        assert data["interior_count"] == 32
        assert data["front_count"] == 8
        assert 0 < data["rho"] < 1

    def test_superbarrier_failure_exits_two(self):
        code, out, _ = run_cli(SUPERBARRIER_FAIL)
        assert code == 2
        data = json.loads(out)
        assert data["passed"] is False
        assert min(data["margins"].values()) < 0

    def test_superbarrier_needs_matching_medium_dimension(self):
        code, _, err = run_cli(SUPERBARRIER_PASS + ["--dim", "1"])
        assert code == 1
        assert "dim-2" in err

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_superbarrier_in_higher_dimensions(self, n):
        # the contract samples a bounded set of points in any dimension; a
        # resolution-40 grid of the cell would hold 40^(n+1) of them
        argv = [v if v != "-0.1" else "-0.05" for v in SUPERBARRIER_PASS]
        argv[argv.index("--n") + 1] = str(n)
        code, out, _ = run_cli(argv + ["--medium", "1 + sin(2*pi*(x3 - t))/10"])
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert (data["interior_count"], data["front_count"]) == (32, 8)
        code, _, err = run_cli(argv + ["--medium", "2 + sin(pi*x3)"])
        assert code == 1
        assert "error: medium is not 1-periodic" in err

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_superbarrier_bad_sample_count_exits_one(self, count):
        code, out, err = run_cli(SUPERBARRIER_PASS + ["--samples", count])
        assert (code, out, err) == (
            1, "", f"error: samples must be an integer >= 1, got {count}\n")

    def test_superbarrier_solves_the_radius_once(self, monkeypatch):
        # 256 interior and 64 front samples, all at one t
        calls = []
        solve = barriers.contracting_radius

        def counting(*args, **kwargs):
            calls.append(kwargs.get("t", args[-1]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(barriers, "contracting_radius", counting)
        argv = [v if v != "32" else "256" for v in SUPERBARRIER_PASS]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert json.loads(out)["interior_count"] == 256
        assert calls == [-0.1]


# ---------------------------------------------------------------------------
# geometry report
# ---------------------------------------------------------------------------


class TestGeometryReport:
    def test_reference_instance_values(self):
        code, out, _ = run_cli(
            ["geometry", "report", "--q", "0,-1", "--r", "1",
             "--m", "1", "--M", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["theta"] == pytest.approx(math.pi / 4, abs=1e-12)
        assert data["theta_plus"] == pytest.approx(math.pi / 4, abs=1e-12)
        assert data["phi_minus"] == pytest.approx(math.pi / 3, abs=1e-12)
        assert data["theta_minus"] == pytest.approx(5 * math.pi / 12, abs=1e-12)
        assert data["rV_plus"] == pytest.approx(2.0, abs=1e-12)
        assert data["rV_minus"] == pytest.approx(math.sqrt(3) - 1, abs=1e-12)

    def test_bad_vector_rejected(self):
        code, _, err = run_cli(
            ["geometry", "report", "--q", "0,abc", "--r", "1",
             "--m", "1", "--M", "2"])
        assert code == 1
        assert "comma-separated" in err

    def test_zero_vector_rejected(self):
        code, _, err = run_cli(
            ["geometry", "report", "--q", "0,0", "--r", "1",
             "--m", "1", "--M", "2"])
        assert code == 1
        assert "nonzero" in err


# ---------------------------------------------------------------------------
# sim2d run / converge
# ---------------------------------------------------------------------------


SIM_CONFIG = {"version": 1, "medium": "1", "dim": 2, "eps": 0.5, "psi0": 1.0,
              "T": 0.05, "h0": 1.0, "Lx": 4.0, "Ly": 1.0, "nx": 16, "ny": 8}

# a value other than the default for every sim2d key
SIM_VALUES = {"medium": "2", "dim": 1, "eps": 0.25, "psi0": 0.5, "T": 0.3,
              "h0": 0.9, "Lx": 3.0, "Ly": 0.5, "nx": 24, "ny": 12, "cfl": 0.3,
              "dt": 0.01, "save_every": 3}


def sim_config(argv):
    return cli._sim_config(cli.build_parser().parse_args(["sim2d", "run"] + argv))


def sim_config_fields(argv):
    """The sim2d key values a run would use, or the validation message."""
    try:
        c = sim_config(argv)
    except hele_homog.ValidationError as exc:
        return str(exc)
    return {"medium": c.medium.source, "dim": c.medium.dim, "eps": c.eps,
            "psi0": c.psi0, "T": c.T, "h0": c.h0, "Lx": c.domain.Lx,
            "Ly": c.domain.Ly, "nx": c.domain.nx, "ny": c.domain.ny,
            "cfl": c.cfl, "dt": c.dt, "save_every": c.save_every}


RUN_ARGS = ["sim2d", "run", "--medium", "1", "--dim", "2", "--eps", "0.5",
            "--psi0", "1", "--T", "0.2", "--h0", "1", "--Lx", "4",
            "--Ly", "1", "--nx", "16", "--ny", "8"]


class TestSim2dRun:
    def test_outputs_and_growth_law(self, tmp_path):
        front = tmp_path / "front.csv"
        summary = tmp_path / "summary.json"
        code, out, _ = run_cli(
            RUN_ARGS + ["--out", str(front), "--summary", str(summary)])
        assert code == 0
        assert out == ""
        header, rows = parse_csv(front.read_text())
        assert header == [
            "t (time units)",
            "y (tangential position; length units)",
            "h (front depth; length units)",
        ]
        data = json.loads(summary.read_text())
        # constant medium: mean depth follows sqrt(h0^2 + 2 psi0 t)
        assert data["final_mean_depth"] == pytest.approx(
            math.sqrt(1.0 + 2 * 0.2), rel=5e-3)
        assert data["u_min"] >= -1e-12
        assert data["u_max"] <= 1.0 + 1e-12
        assert data["front_speed_fit"] > 0
        assert data["saved_fronts"] == len(set(rows[:, 0]))
        assert rows.shape[0] == data["saved_fronts"] * 8

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "version": 1, "medium": "1", "dim": 2, "eps": 0.5, "psi0": 1.0,
            "T": 0.2, "h0": 1.0, "Lx": 4.0, "Ly": 1.0, "nx": 16, "ny": 8,
        }))
        summary = tmp_path / "summary.json"
        out_csv = tmp_path / "front.csv"
        code, _, _ = run_cli(
            ["sim2d", "run", "--config", str(cfg), "--T", "0.1",
             "--out", str(out_csv), "--summary", str(summary)])
        assert code == 0
        assert json.loads(summary.read_text())["T"] == 0.1

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"version": 1, "medium": "1", "typo": 3}))
        code, _, err = run_cli(["sim2d", "run", "--config", str(cfg)])
        assert code == 1
        assert "unknown keys" in err and "typo" in err

    def test_config_requires_version(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"medium": "1"}))
        code, _, err = run_cli(["sim2d", "run", "--config", str(cfg)])
        assert code == 1
        assert "version" in err

    def test_medium_is_required(self):
        code, _, err = run_cli(["sim2d", "run", "--T", "0.1"])
        assert code == 1
        assert "needs a medium" in err

    @pytest.mark.parametrize("key, value, message", [
        ("T", "abc", '"T" must be a number, got \'abc\''),
        ("eps", True, '"eps" must be a number, got True'),
        ("h0", [1, 2], '"h0" must be a number, got [1, 2]'),
        ("nx", 16.7, '"nx" must be an integer, got 16.7'),
        ("save_every", "2", '"save_every" must be an integer, got \'2\''),
        ("dim", False, '"dim" must be an integer, got False'),
        ("medium", 5, '"medium" must be a string, got 5'),
        ("medium", ["1"], '"medium" must be a string, got [\'1\']'),
        pytest.param("T", 10 ** 400, '"T" is too large for a number',
                     id="T-huge-int"),
    ])
    def test_config_bad_kind(self, tmp_path, key, value, message):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({**SIM_CONFIG, key: value}))
        code, out, err = run_cli(["sim2d", "run", "--config", str(cfg)])
        assert code == 1
        assert out == ""
        assert err == f"error: config {cfg}: {message}\n"

    def test_config_integral_float_and_null(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({**SIM_CONFIG, "nx": 16.0, "dt": None}))
        config = sim_config(["--config", str(cfg)])
        assert config.domain.nx == 16 and isinstance(config.domain.nx, int)
        assert config.dt is None

    @pytest.mark.parametrize("key", list(SIM_VALUES))
    def test_flag_and_config_file_agree(self, tmp_path, key):
        # one value per sim2d key, given once as a flag and once in a file
        assert set(SIM_VALUES) == set(cli._SIM_FIELDS)
        base = {} if key == "medium" else {"medium": "1"}
        flags = [a for k, v in {**base, key: SIM_VALUES[key]}.items()
                 for a in ("--" + k.replace("_", "-"), str(v))]
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"version": 1, **base, key: SIM_VALUES[key]}))
        by_flag = sim_config_fields(flags)
        by_file = sim_config_fields(["--config", str(cfg)])
        assert by_flag == by_file
        if key == "dim":  # a dim-1 medium is rejected the same way both ways
            assert "dim-2 medium, got dim 1" in by_flag
        else:
            assert by_flag[key] == SIM_VALUES[key]

    def test_omitted_values_take_simconfig_defaults(self):
        config = sim_config(["--medium", "1"])
        defaults = {f.name: f.default for f in dataclasses.fields(hs2d.SimConfig)}
        for name in ("h0", "cfl", "dt", "save_every"):
            assert getattr(config, name) == defaults[name]

    @pytest.mark.parametrize("extra", [["--T", "0.01"],
                                       ["--T", "0.2", "--save-every", "1000"]])
    def test_failed_run_writes_no_file(self, tmp_path, extra):
        front, summary = tmp_path / "f.csv", tmp_path / "s.json"
        code, out, err = run_cli(
            ["sim2d", "run", "--medium", "1", "--dim", "2", "--nx", "16",
             "--ny", "8", "--out", str(front), "--summary", str(summary)] + extra)
        assert code == 1
        assert err == "error: not enough saved fronts in the fit window\n"
        assert out == "" and not front.exists() and not summary.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            front = tmp_path / f"front_{tag}.csv"
            summary = tmp_path / f"summary_{tag}.json"
            assert run_cli(RUN_ARGS + ["--out", str(front),
                                       "--summary", str(summary)])[0] == 0
            files.append((front, summary))
        assert files[0][0].read_bytes() == files[1][0].read_bytes()
        assert files[0][1].read_bytes() == files[1][1].read_bytes()

    def test_numerical_failure_exits_two(self):
        code, _, err = run_cli(
            ["sim2d", "run", "--medium", "1", "--dim", "2", "--eps", "0.5",
             "--psi0", "1", "--T", "50", "--h0", "0.5", "--Lx", "1.2",
             "--Ly", "1", "--nx", "16", "--ny", "8"])
        assert code == 2
        assert err.startswith("numerical failure:")

    @pytest.mark.parametrize("T", ["0.01", "0.05"])
    def test_nan_medium_exits_one_without_nan_rows(self, tmp_path, T):
        # g = sqrt(sin(pi*y)) + 1 is NaN on half of every y-period; the model
        # contract rejects it before the first step, so nothing is written
        front, summary = tmp_path / "front.csv", tmp_path / "s.json"
        with np.errstate(invalid="ignore"):
            code, _, err = run_cli(
                ["sim2d", "run", "--medium", "sqrt(sin(pi*y)) + 1", "--dim", "2",
                 "--Lx", "4", "--Ly", "1", "--nx", "16", "--ny", "8",
                 "--eps", "0.5", "--psi0", "1", "--T", T, "--h0", "1",
                 "--out", str(front), "--summary", str(summary)])
        assert code == 1
        assert err == "error: medium evaluates to a non-finite value\n"
        assert not front.exists() and not summary.exists()


class TestSim2dConverge:
    BASE = ["sim2d", "converge", "--medium", "1", "--dim", "2",
            "--psi0", "0.3", "--T", "0.05", "--h0", "0.3", "--Lx", "0.8",
            "--Ly", "0.4", "--nx", "8", "--ny", "8"]

    def test_constant_medium_study(self):
        code, out, _ = run_cli(self.BASE + ["--eps", "0.8,0.6,0.4"])
        assert code == 0
        data = json.loads(out)
        assert data["eps"] == [0.8, 0.6, 0.4]
        assert len(data["pairs"]) == 2
        assert data["spacetime_distances_decreasing"] is True
        assert len(data["speeds"]) == 3

    def test_unresolved_scale_rejected(self):
        code, _, err = run_cli(self.BASE + ["--eps", "0.4,0.2,0.1"])
        assert code == 1
        assert "resolution check" in err

    def test_bad_eps_list(self):
        code, _, err = run_cli(self.BASE + ["--eps", "abc"])
        assert code == 1
        assert "comma-separated" in err


# ---------------------------------------------------------------------------
# model contract and parameter rule
# ---------------------------------------------------------------------------

SIM_RUN = ["sim2d", "run", "--dim", "2", "--Lx", "4", "--Ly", "1", "--nx", "16",
           "--ny", "8", "--psi0", "1", "--T", "0.2", "--h0", "1"]


class TestModelContract:
    @pytest.mark.parametrize("argv, message", [
        (["rq", "curve", "--medium", "2 + sin(pi*x)", "--qmin", "0.5",
          "--qmax", "1", "--samples", "2"], "medium is not 1-periodic"),
        (["rq", "curve", "--medium", "sin(pi*x)+0.5", "--qmin", "0.5",
          "--qmax", "1", "--samples", "3", "--T", "10"], "medium is not 1-periodic"),
        (SIM_RUN + ["--medium", "sin(pi*y/2)^2 + 1", "--eps", "0.5"],
         "medium is not 1-periodic"),
        (["rq", "curve", "--medium", "builtin:pinning", "--qmin", "0.5",
          "--qmax", "1.5", "--samples", "3", "--dt", "inf"],
         "dt must be > 0 and finite, got inf"),
        (["rq", "obstacle", "--medium", "builtin:pinning", "--q", "1", "--r", "inf",
          "--eps", "0.1", "--side", "sub", "--T", "0.01"],
         "r must be > 0 and finite, got inf"),
        (SIM_RUN + ["--medium", "1", "--eps", "inf"],
         "eps must be > 0 and finite, got inf"),
        (["rq", "curve", "--medium", "1", "--qmin", "0.5", "--qmax", "1",
          "--samples", "2", "--T", "inf"],
         "T must be >= 10 and finite for a stable average, got inf"),
        (["rq", "candidates", "--medium", "builtin:pinning", "--q", "0.75",
          "--T", "inf"], "T must be > 0 and finite, got inf"),
        (SIM_RUN[:-4] + ["--medium", "1", "--eps", "0.5", "--T", "inf", "--h0", "1"],
         "T must be > 0 and finite, got inf"),
        (["geometry", "report", "--q", "0,-1", "--r", "inf", "--m", "1", "--M", "2"],
         "r must be > 0 and finite, got inf"),
        (["barrier", "verify", "--kind", "expanding", "--t", "inf"],
         "t must be > 0 and finite, got inf"),
        (["timescale", "eval", "--kind", "sub", "--gamma", "inf", "--t", "1"],
         "gamma must be > 0 and finite, got inf"),
        (["geometry", "report", "--q", "1e308,1e308", "--r", "1", "--m", "1", "--M", "2"],
         "q must be a finite vector, got [1.e+308 1.e+308]"),
        (["rq", "curve", "--medium", "builtin:pinning", "--qmin", "0.5", "--qmax", "1.5",
          "--samples", "3", "--dt", "2"], "dt must be <= 1, the period of g, got 2.0"),
    ])
    def test_violation_exits_one(self, argv, message):
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["medium", "check", "--expr", "(-1)^0.5"],
        ["rq", "candidates", "--medium", "(-1)^0.5 + 2", "--q", "1"],
    ], ids=["medium-check", "rq-candidates"])
    def test_non_real_medium_exits_one(self, argv):
        # '**' makes a complex of a negative constant base on Python floats
        code, out, err = run_cli(argv)
        assert (code, out, err) == (1, "", "error: medium evaluates to a non-real value\n")

    @pytest.mark.parametrize("argv", [
        ["medium", "check", "--expr", NAN_MEDIUM],
        ["medium", "check", "--expr", "1/x"],
        ["rq", "curve", "--medium", "1/sin(pi*x)^2", "--qmin", "0.5", "--qmax", "1",
         "--samples", "2"],
    ], ids=["nan-at-shift", "inf-on-grid", "rq-curve"])
    def test_non_finite_medium_warns_nothing(self, argv):
        # the sampling sites' own finiteness checks report the fault
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv)
        assert (code, out, err) == (1, "", "error: medium evaluates to a non-finite value\n")


# ---------------------------------------------------------------------------
# top level behavior
# ---------------------------------------------------------------------------


class TestTopLevel:
    def test_no_arguments_is_usage_failure(self):
        code, _, err = run_cli([])
        assert code == 1
        assert err.startswith("usage:")
        assert "error:" in err

    def test_help_exits_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0

    def test_unknown_group_rejected(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 1
        assert "invalid choice" in err

    @pytest.mark.parametrize("argv, flag", [
        (["geometry", "report", "--q", "0,-1", "--r", "1", "--m", "1",
          "--M", "2"], "--out"),
        (["rq", "curve", "--medium", "1", "--qmin", "0.5", "--qmax", "1",
          "--samples", "2", "--T", "10"], "--svg"),
        (RUN_ARGS, "--summary"),
    ], ids=["out", "svg", "summary"])
    def test_write_to_missing_directory_exits_one(self, tmp_path, argv, flag):
        target = tmp_path / "nodir" / "x"
        code, _, err = run_cli(argv + [flag, str(target)])
        assert code == 1
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_console_script_installed(self, tmp_path):
        module, _, attr = declared_console_script("hele-homog").partition(":")
        assert getattr(importlib.import_module(module), attr) is main

        env = dict(os.environ)
        src = str(pathlib.Path(hele_homog.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        # the script pip writes for the entry point
        launcher = (f"import sys; from {module} import {attr}; "
                    f"sys.exit({attr}())")
        check_console_contract([sys.executable, "-c", launcher], env, tmp_path)

        exe = shutil.which("hele-homog")
        if exe is not None:
            check_console_contract([exe], env, tmp_path)

    def test_package_version_is_declared_once(self):
        # pyproject.toml reads the version from hele_homog.__version__
        from setuptools.config.pyprojecttoml import read_configuration
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # older setuptools: beta notice
            project = read_configuration(PYPROJECT)["project"]
        assert "version" in project["dynamic"]
        assert project["version"] == hele_homog.__version__


class TestPublicInterfaceOnly:
    def test_cli_touches_no_private_name(self):
        # the CLI calls only public library functions
        tree = ast.parse(pathlib.Path(cli.__file__).read_text())
        modules, private = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("hele_homog")):
                if node.module in (None, "hele_homog"):
                    modules.update(a.asname or a.name for a in node.names)
                private += [a.name for a in node.names if a.name.startswith("_")]
        assert {"barriers", "homog1d", "hs2d"} <= modules
        private += [
            f"{node.value.id}.{node.attr} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.startswith("_")]
        assert private == []


class TestSeedPlumbing:
    def test_same_seed_reproduces_sampling(self):
        _, out1, _ = run_cli(["--seed", "7"] + SUPERBARRIER_PASS)
        _, out2, _ = run_cli(["--seed", "7"] + SUPERBARRIER_PASS)
        assert out1 == out2

    def test_env_seed_matches_flag(self, monkeypatch):
        _, flagged, _ = run_cli(["--seed", "7"] + SUPERBARRIER_PASS)
        monkeypatch.setenv("HELE_HOMOG_SEED", "7")
        _, via_env, _ = run_cli(SUPERBARRIER_PASS)
        assert via_env == flagged

    @pytest.mark.parametrize("argv, env, message", [
        (["--seed", "-1"], "0", "seed must be an integer >= 0, got -1"),
        ([], "abc", "HELE_HOMOG_SEED must be an integer, got 'abc'"),
    ])
    def test_bad_seed_rejected_by_every_command(self, monkeypatch, argv, env, message):
        # once read only by the two sampling commands; geometry report
        # samples nothing and exited 0
        monkeypatch.setenv("HELE_HOMOG_SEED", env)
        code, out, err = run_cli([*argv, "geometry", "report", "--q", "0,-1", "--r", "1",
                                  "--m", "1", "--M", "2"])
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestStepCountOverflow:
    """A time grid too fine to count exits 1 with one error line, where an
    infinite step count ended in an OverflowError traceback."""

    @pytest.mark.parametrize("argv", [
        ["curve", "--qmin", "0.5", "--qmax", "1", "--samples", "3", "--T", "1e308"],
        ["curve", "--qmin", "0.5", "--qmax", "1", "--samples", "3", "--dt", "1e-310"],
        ["obstacle", "--q", "1", "--r", "1", "--eps", "0.1", "--side", "super", "--T", "1e308"],
        ["candidates", "--q", "1", "--T", "1e308"],
    ], ids=["curve_T", "curve_dt", "obstacle", "candidates"])
    def test_exits_one(self, argv):
        code, out, err = run_cli(["rq", *argv, "--medium", "builtin:pinning"])
        assert (code, out) == (1, "")
        assert err.startswith("error: T/dt must be at most 2**52 steps, got T = ")
        assert err.count("\n") == 1


class TestCsvWriter:
    """cli._csv against the row-by-row writer it replaced."""

    @staticmethod
    def row_by_row(header, rows):
        lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    def test_matches_row_by_row_repr_on_awkward_values(self):
        columns = ([-0.0, 5e-324, 1e300, 0.1 + 0.2, np.float64(1 / 3), 7],
                   [np.float64(-2.5e-310), 3, -1e-300, np.nextafter(1.0, 2.0), 0.0, -0.0],
                   np.array([1e16, 2 ** 53 + 1, -7, 1e-5, 123456789.125, math.pi]))
        header = ["a (unit)", "b", "c"]
        text = cli._csv(header, columns)
        assert text == self.row_by_row(header, zip(*columns))
        assert "np.float64" not in text and "-0.0,-2.5e-310," in text

    def test_no_rows_writes_the_header_alone(self):
        assert cli._csv(["t", "y"], ([], [])) == "t,y\n"

    def test_unequal_columns_are_refused(self):
        with pytest.raises(ValueError):
            cli._csv(["t", "y"], ([1.0, 2.0], [1.0]))
