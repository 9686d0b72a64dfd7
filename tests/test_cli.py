import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heis import geodesy, transport
from heis.cli import ExperimentConfig, _parse_s_values, build_parser, main


def run_cli(*argv, env_seed=None, capsys=None):
    return main(list(argv))


def exit_code(*argv):
    """main's status, also when argparse stops it with SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as stop:
        return stop.code


class TestConfig:
    def test_json_roundtrip_bit_exact(self):
        cfg = ExperimentConfig(N=123, seed=7, h=0.05, r=0.017, s_values=[0.1, 1 / 3])
        blob = json.dumps(cfg.to_json())
        back = ExperimentConfig.from_json(json.loads(blob))
        assert back == cfg
        assert json.dumps(back.to_json()) == blob

    def test_n_is_read_off_the_regions(self, tmp_path, capsys):
        from heis.measures import BoxRegion
        cfg = ExperimentConfig(A=BoxRegion.unit(2).to_json(), B=BoxRegion.unit(2).to_json())
        assert cfg.n == 2 and cfg.to_json()["n"] == 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json()))
        assert run_cli("verify-bbl", "--config", str(path), "--dry-run") == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2

    @pytest.mark.parametrize("command", ["verify-bbl", "verify-bmi", "step-limit"])
    def test_config_n_disagreeing_with_regions_rejected(self, command, tmp_path, capsys):
        data = ExperimentConfig().to_json()
        data["n"] = 2  # the default regions are unit boxes in H^1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run_cli(command, "--config", str(path), "--dry-run") == 1
        assert "disagrees with its regions" in capsys.readouterr().err
        del data["n"]
        data["B"] = {"kind": "box", "intervals": [[0, 1]] * 5}
        path.write_text(json.dumps(data))
        assert run_cli(command, "--config", str(path)) == 1
        assert "regions disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ({"seeds": 3}, "unknown config keys: seeds"),
        ({"threads": 4}, "unknown config keys: threads"),
        ({"format": "csv"}, "unknown config keys: format"),
        ({"solver": "bogus"}, "solver must be 'exact', 'sinkhorn' or 'sinkhorn(eps)'"),
    ])
    def test_bad_config_rejected(self, data, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run_cli("verify-bmi", "--config", str(path), "--dry-run") == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-bmi", "verify-cd", "verify-bbl", "transport"])
    @pytest.mark.parametrize("region, message", [
        ({"kind": "box", "intervals": [[0, float("inf")], [0, 1], [0, 1]]},
         "box intervals must be finite"),
        ({"kind": "cc_ball", "center": [float("nan"), 0, 0], "radius": 1},
         "ball center must be finite"),
    ])
    def test_non_finite_region_rejected(self, command, region, message, tmp_path, capsys):
        # json writes and reads these as Infinity and NaN
        data = ExperimentConfig().to_json()
        data["B"] = region
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run_cli(command, "--config", str(path), "--dry-run") == 1
        assert message in capsys.readouterr().err

    def test_s_range_parsing(self):
        assert _parse_s_values("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert _parse_s_values("0.25,0.5") == [0.25, 0.5]


class TestSimpleCommands:
    def test_tau_theta_zero(self, capsys):
        assert run_cli("tau", "1", "0.5", "0") == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.5 ** (5.0 / 3.0), abs=1e-15)

    def test_distance_self_is_zero(self, capsys):
        assert run_cli("distance", "[0.3,0.1,2.0]", "[0.3,0.1,2.0]") == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_distance_center(self, capsys):
        assert run_cli("distance", "[0,0,0]", "[0,0,1]") == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(np.sqrt(np.pi), abs=1e-9)

    def test_geodesic_samples(self, capsys):
        assert run_cli("geodesic", "[1,0]", "0", "--samples", "4") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0]) == [0.0, 0.0, 0.0]
        assert json.loads(lines[-1]) == [1.0, 0.0, 0.0]

    def test_usage_error_exit_code_1(self):
        with pytest.raises(SystemExit) as ei:
            run_cli("tau", "one", "0.5", "0")
        assert ei.value.code == 1



class TestVerifyCommands:
    def test_verify_cd_runs(self, tmp_path, capsys):
        out = tmp_path / "cd.json"
        code = run_cli("verify-cd", "--N", "100", "--h", "0.1", "--s", "0.5",
                       "--output", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data[0]["name"] == "CD"
        assert data[0]["holds"] in ("holds", "inconclusive")

    def test_verify_bmi_csv_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["verify-bmi", "--N", "80", "--h", "0.1", "--r", "0.1",
                "--s", "0.5"]
        assert run_cli(*argv, "--output", str(out1)) == 0
        assert run_cli(*argv, "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "name,s,lhs,rhs,margin,stderr,holds"

    def test_dry_run_prints_config(self, capsys):
        assert run_cli("verify-cd", "--N", "42", "--dry-run") == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["N"] == 42
        assert blob["target"] == "cd"

    @pytest.mark.parametrize("command, shown", [
        ("verify-bbl", "command n A B s_values seed output p pairing cells"),
        ("transport", "command n A B N seed solver output"),
        ("step-limit", "command n A B s_values N seed output depths"),
        ("dilate-check", "command n A B s_values N seed h r target lam"),
        ("tau 1 0.5 0", "command n s theta"),
        ("geodesic [1,0,0.5,2] 3", "command chi theta samples"),
    ])
    def test_dry_run_shows_only_the_fields_the_command_reads(self, command, shown, capsys):
        assert run_cli(*command.split(), "--dry-run") == 0
        assert list(json.loads(capsys.readouterr().out)) == shown.split()

    def test_dry_run_shows_parsed_values(self, capsys):
        assert run_cli("geodesic", "[1,0,0.5,2]", "3", "--dry-run") == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["chi"] == [1.0, 0.0, 0.5, 2.0] and blob["theta"] == 3.0
        assert run_cli("dilate-check", "--lam", "2,4", "--s", "0:1:0.5", "--dry-run") == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["lam"] == [2.0, 4.0] and blob["s_values"] == [0.0, 0.5, 1.0]

    def test_config_file_and_env_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(ExperimentConfig(N=64, seed=3).to_json()))
        assert run_cli("verify-bmi", "--config", str(cfg), "--s", "0.5",
                       "--h", "0.1", "--r", "0.1", "--dry-run") == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["seed"] == 3
        assert blob["N"] == 64

    def test_environment_does_not_set_the_seed(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(ExperimentConfig(seed=3).to_json()))
        monkeypatch.setenv("HEIS_SEED", "99")
        assert run_cli("verify-cd", "--config", str(cfg), "--dry-run") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    def test_transport_writes_plan(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert run_cli("transport", "--N", "32", "--output", str(out)) == 0
        plan = json.loads(out.read_text())
        assert "pairs" in plan and plan["method"] == "exact_lp"
        mass = sum(p[2] for p in plan["pairs"])
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_transport_prints_plain_floats(self, capsys):
        assert run_cli("transport", "--N", "8") == 0
        line = capsys.readouterr().out.strip()
        cost, w2 = (float(field.split("=")[1]) for field in line.split()[1:3])
        assert line == f"transport cost={cost!r} w2={w2!r} support=8 method=exact_lp"
        assert w2 == np.sqrt(cost)

    @pytest.mark.parametrize("argv", [
        ["verify-cd"], ["verify-bmi"], ["verify-sbmi"], ["verify-bbl"],
        ["dilate-check"], ["step-limit"],
    ])
    def test_non_exact_solver_rejected(self, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(ExperimentConfig(solver="sinkhorn").to_json()))
        assert run_cli(*argv, "--config", str(cfg), "--dry-run") == 1
        assert "runs exact plans only" in capsys.readouterr().err
        assert run_cli(*argv, "--dry-run") == 0
        with pytest.raises(SystemExit) as ei:  # only `transport` takes --solver
            run_cli(*argv, "--solver", "exact", "--dry-run")
        assert ei.value.code == 1

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in (
            ("transport", "--h --r --s --format --threads"),
            ("verify-cd", "--r --solver --format --threads"),
            ("verify-bmi", "--solver --format --threads"),
            ("verify-sbmi", "--solver --format --threads"),
            ("verify-bbl", "--N --h --r --threads --solver --format"),
            ("step-limit", "--h --r --format --solver --threads"),
            ("dilate-check", "--output --format --solver --threads"),
            ("tau 1 0.5 0", "--format --threads"),
            ("distance [0,0,0] [0,0,1]", "--format --threads"),
            ("geodesic [1,0] 3.14", "--format --threads"),
        ) for flag in flags.split()])
    def test_flag_the_command_does_not_read_is_usage_error(self, command, flag, capsys):
        # the worker count is the CPUs the process may run on, and the report
        # format is named by --output, so no command takes --threads or --format
        value = {"--format": "json", "--solver": "exact", "--output": "out.json"}.get(flag, "1")
        with pytest.raises(SystemExit) as ei:
            run_cli(*command.split(), flag, value, "--dry-run")
        assert ei.value.code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--target", "bmi", "--dry-run"],
        ["sweep", "--target", "cd", "--r", "0.3", "--dry-run"],
        ["dilate-check", "--lambda", "2", "--dry-run"],
    ])
    def test_removed_spellings_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as ei:  # verify-*, and dilate-check --lam, stay
            run_cli(*argv)
        assert ei.value.code == 1

    def test_transport_honours_sinkhorn(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert run_cli("transport", "--N", "32", "--solver", "sinkhorn(0.1)",
                       "--output", str(out)) == 0
        assert json.loads(out.read_text())["method"] == "sinkhorn(0.1)"

    def test_sweep_bbl_and_step_limit(self, tmp_path, capsys):
        assert run_cli("verify-bmi", "--N", "60", "--h", "0.1",
                       "--r", "0.1", "--s", "0:1:0.5") == 0
        assert run_cli("verify-bbl", "--s", "0.5", "--cells", "8") == 0
        out = tmp_path / "steps.csv"
        assert run_cli("step-limit", "--N", "60", "--depths", "0,1",
                       "--s", "0.5", "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "depth,w2_error,f_value"
        assert lines[-1].startswith("exact,")

    @pytest.mark.parametrize("s_values, flags, s", [
        ([0.1, 0.2, 0.3, 0.4], [], "0.3"),  # a config's sweep: its middle entry
        ([0.1, 0.2, 0.3, 0.4], ["--s", "0.25"], "0.25"),
    ])
    def test_step_limit_prints_the_s_it_runs_at(self, s_values, flags, s, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(ExperimentConfig(s_values=s_values).to_json()))
        assert run_cli("step-limit", "--config", str(cfg), "--N", "20", "--depths", "0",
                       *flags) == 0
        assert f"step-limit at s={s}\n" in capsys.readouterr().out

    def test_sinkhorn_that_does_not_converge_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setattr(transport, "_SINKHORN_MAX_ITER", 5)
        assert run_cli("transport", "--N", "6", "--solver", "sinkhorn(1e-300)") == 1
        assert capsys.readouterr().err.startswith(
            "heis: error: sinkhorn did not reach tol=1e-08 in 5 iterations")

    def test_defect_in_an_exact_plan_keeps_its_traceback(self, monkeypatch):
        def cyclic(*args):
            raise RuntimeError("LP plan support is not a forest")

        monkeypatch.setattr("heis.cli.solve_exact", cyclic)
        with pytest.raises(RuntimeError, match="not a forest"):
            run_cli("transport", "--N", "4")

    @pytest.mark.parametrize("name, csv", [
        ("r.csv", True), ("r.json", False), ("r.txt", False), ("r", False),
        ("r.csv.json", False), ("csv", False)])
    def test_output_name_sets_the_format(self, name, csv, tmp_path, capsys):
        out = tmp_path / name
        assert run_cli("verify-bbl", "--s", "0.25,0.5", "--cells", "4",
                       "--output", str(out)) == 0
        text = out.read_text()
        if csv:
            assert text.splitlines()[0] == "name,s,lhs,rhs,margin,stderr,holds"
            assert len(text.splitlines()) == 3
        else:
            assert [rep["s"] for rep in json.loads(text)] == [0.25, 0.5]

    @pytest.mark.parametrize("argv", [
        ["verify-bmi", "--N", "70", "--h", "0.1", "--r", "0.1", "--s", "0:1:0.25"],
        ["verify-cd", "--N", "70", "--h", "0.1", "--s", "0.25,0.5"],
        ["transport", "--N", "70"],
    ])
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_reports_equal_at_default_and_one_worker(self, argv, suffix, tmp_path,
                                                     monkeypatch, capsys):
        # 1024-pair blocks: the 70 x 70 pair tables span five of them
        monkeypatch.setattr(geodesy, "_CHUNK", 1 << 10)
        workers = geodesy._max_workers
        default = tmp_path / f"default{suffix}"
        assert run_cli(*argv, "--output", str(default)) == 0
        one = tmp_path / f"one{suffix}"
        geodesy.set_max_workers(1)
        try:
            assert run_cli(*argv, "--output", str(one)) == 0
        finally:
            geodesy.set_max_workers(workers)
        assert default.read_bytes() == one.read_bytes()

    def test_dilate_check_consistent(self, capsys):
        code = run_cli("dilate-check", "--target", "bmi", "--N", "60",
                       "--h", "0.1", "--r", "0.1", "--s", "0.5", "--lam", "2")
        assert code == 0
        assert "consistent" in capsys.readouterr().out


_SOLVER_FORMS = "solver must be 'exact', 'sinkhorn' or 'sinkhorn(eps)' with eps positive and finite"
_SHAPE = "must be an integer >= 1, got"
_S = "argument --s: must be a number in [0, 1], got"
_BIG = "must be an integer in [0, 2^64 - 2], got"

# Bad values from a flag, a positional argument or a config key (None: no
# --config).  Each exits 1, with and without --dry-run, and its message names
# the flag, argument or key; a traceback would escape main as an exception.
_BAD_VALUES = [
    (["verify-cd", "--s", "abc"], None, "argument --s: could not convert string to float: 'abc'"),
    (["dilate-check", "--lam", "abc"], None,
     "argument --lam: could not convert string to float: 'abc'"),
    (["step-limit", "--depths", "x"], None,
     "argument --depths: invalid literal for int() with base 10: 'x'"),
    (["verify-bbl", "--p", "abc"], None, "argument --p: could not convert string to float: 'abc'"),
    (["transport", "--N", "0"], None, f"argument --N: {_SHAPE} 0"),
    (["step-limit", "--N", "0", "--depths", "0"], None, f"argument --N: {_SHAPE} 0"),
    (["verify-cd", "--h", "0"], None, "argument --h: must be a positive finite number, got 0.0"),
    (["verify-bmi", "--r", "-1"], None, "argument --r: must be a finite number >= 0, got -1.0"),
    (["verify-bbl", "--cells", "0"], None, f"argument --cells: {_SHAPE} 0"),
    (["verify-bbl", "--cells", "-2"], None, f"argument --cells: {_SHAPE} -2"),
    (["geodesic", "[1,0]", "3", "--samples", "0"], None, f"argument --samples: {_SHAPE} 0"),
    (["dilate-check", "--lam", "0"], None, "argument --lam: must be a positive finite number, got 0.0"),
    (["dilate-check", "--lam", "2,-2"], None,
     "argument --lam: must be a positive finite number, got -2.0"),
    (["step-limit", "--depths", "-1"], None, "argument --depths: must be an integer >= 0, got -1"),
    (["verify-bmi", "--seed", "-1"], None, f"argument --seed: {_BIG} -1"),
    (["verify-bmi", "--N", "20", "--s", "0.5", "--r", "nan"], None,
     "argument --r: must be a finite number >= 0, got nan"),
    (["verify-bmi", "--N", "20", "--s", "0.5", "--r", "inf"], None,
     "argument --r: must be a finite number >= 0, got inf"),
    (["verify-bmi", "--N", "20", "--s", "0.5", "--h", "nan"], None,
     "argument --h: must be a positive finite number, got nan"),
    (["verify-bmi", "--N", "20", "--s", "0.5", "--h", "inf"], None,
     "argument --h: must be a positive finite number, got inf"),
    (["verify-sbmi", "--N", "20", "--s", "0.5", "--r", "nan"], None,
     "argument --r: must be a finite number >= 0, got nan"),
    (["verify-bbl", "--p", "nan", "--cells", "4"], None,
     "argument --p: must be a number other than NaN, got nan"),
    (["verify-cd", "--s", "0:1:0"], None, "argument --s: s range '0:1:0' has step 0"),
    (["verify-bmi", "--s", "1:0:0.25"], None, "argument --s: must be a non-empty list, got []"),
    (["step-limit", "--s", "1:0:0.25"], None, "argument --s: must be a non-empty list, got []"),
    (["verify-cd", "--s", "nan"], None, f"{_S} nan"),
    (["verify-bmi", "--N", "2000", "--s", "1.5"], None, f"{_S} 1.5"),
    (["verify-sbmi", "--s", "0:1.5:0.5"], None, f"{_S} 1.5"),
    (["step-limit", "--s", "-0.25"], None, f"{_S} -0.25"),
    (["dilate-check", "--s", "inf"], None, f"{_S} inf"),
    (["verify-bbl", "--s", "nan"], None, f"{_S} nan"),
    (["step-limit", "--s", "0.25,0.75", "--depths", "0"], None,
     "argument --s: step-limit runs at one s, got [0.25, 0.75]"),
    (["step-limit", "--s", "0:1:0.5"], None,
     "argument --s: step-limit runs at one s, got [0.0, 0.5, 1.0]"),
    (["verify-bbl", "--s", "0,0.5"], None,
     "argument --s: verify-bbl needs every s strictly inside (0, 1), got [0.0, 0.5]"),
    (["verify-bbl"], {"s_values": [0.0, 0.25, 0.5, 0.75, 1.0]},
     "config key 's_values': verify-bbl needs every s strictly inside (0, 1), "
     "got [0.0, 0.25, 0.5, 0.75, 1.0]"),
    (["verify-bbl", "--s", "0.5", "--p", "-1"], None,
     "argument --p: must be >= -1/(2n+1) = -0.333333, got -1.0"),
    (["verify-bbl", "--s", "0.5", "--p", "-0.25"],
     {"A": {"kind": "box", "intervals": [[0, 1]] * 5},
      "B": {"kind": "box", "intervals": [[0, 1]] * 5}},
     "argument --p: must be >= -1/(2n+1) = -0.2, got -0.25"),
    (["transport", "--N", "4", "--solver", "sinkhornfoo"], None, f"argument --solver: {_SOLVER_FORMS}"),
    (["transport", "--N", "4", "--solver", "sinkhorn(0.1"], None,
     f"argument --solver: {_SOLVER_FORMS}"),
    (["transport", "--N", "4", "--solver", "bogus"], None, f"argument --solver: {_SOLVER_FORMS}"),
    (["transport", "--N", "3", "--solver", "sinkhorn(inf)"], None,
     "argument --solver: solver 'sinkhorn(inf)': epsilon must be positive and finite, got inf"),
    (["transport", "--solver", "sinkhorn(-1)"], None,
     "argument --solver: solver 'sinkhorn(-1)': epsilon must be positive and finite, got -1.0"),
    (["tau", "1", "nan", "0"], None, "argument s: must be a number in [0, 1], got nan"),
    (["tau", "1", "0.5", "nan"], None, "argument theta: must be a number in [0, 2 pi], got nan"),
    (["distance", "[0,0", "[0,0,0]"], None, "argument x: Expecting ',' delimiter"),
    (["distance", "[[0,0,0]]", "[0,0,1]"], None,
     "argument x: must be a finite number, got [0, 0, 0]"),
    (["distance", "[0,0,0]", "[0,0]"], None,
     "argument y: coordinate length must be odd and >= 3, got 2"),
    (["distance", "[0,0,0]", "[0,0,0,0,0]"], None,
     "argument y: must have x's 3 coordinates, got 5"),
    (["geodesic", "[1]", "3"], None, "argument chi: must hold an even count of reals, got 1"),
    (["geodesic", "[]", "3"], None, "argument chi: must be a non-empty list, got []"),
    (["geodesic", "[[1,0]]", "3"], None, "argument chi: must be a finite number, got [1, 0]"),
    (["geodesic", "[1,NaN]", "3"], None, "argument chi: must be a finite number, got nan"),
    (["geodesic", "[1,0]", "nan"], None,
     "argument theta: must be a number in [-2 pi, 2 pi], got nan"),
    (["transport"], {"N": "5"}, f"config key 'N': {_SHAPE} '5'"),
    (["transport"], {"N": 10.7}, f"config key 'N': {_SHAPE} 10.7"),
    (["transport"], {"N": True}, f"config key 'N': {_SHAPE} True"),
    (["verify-cd"], {"h": "0.1"}, "config key 'h': must be a positive finite number, got '0.1'"),
    (["verify-bmi"], {"r": None}, "config key 'r': must be a finite number >= 0, got None"),
    (["verify-cd"], {"s_values": ["a"]}, "config key 's_values': must be a number in [0, 1], got 'a'"),
    (["verify-cd"], {"s_values": 0.5}, "config key 's_values': must be a non-empty list, got 0.5"),
    (["verify-bmi"], {"s_values": []}, "config key 's_values': must be a non-empty list, got []"),
    (["verify-bmi"], {"s_values": [0.5, 2.0]},
     "config key 's_values': must be a number in [0, 1], got 2.0"),
    (["verify-bmi"], {"s_values": [float("nan")]},
     "config key 's_values': must be a number in [0, 1], got nan"),
    (["verify-bmi"], {"seed": -1}, f"config key 'seed': {_BIG} -1"),
    (["transport", "--N", "8", "--seed", "2"], {"seed": 1.5}, f"config key 'seed': {_BIG} 1.5"),
    (["transport", "--N", "8"], {"output": 5}, "config key 'output': must be a file name or null, got 5"),
    (["verify-bmi", "--N", "20", "--s", "0.5"], {"output": 5},
     "config key 'output': must be a file name or null, got 5"),
    (["verify-bmi"], {"A": {"kind": "box"}}, "config key 'A': box region lacks 'intervals'"),
    (["verify-bmi"], {"B": {"kind": "cc_ball", "center": [0, 0, 0]}},
     "config key 'B': cc_ball region lacks 'radius'"),
    (["verify-bmi"], {"A": [1, 2]}, "config key 'A': a region must be a JSON object, got [1, 2]"),
    (["verify-bmi"], {"A": {"kind": "union", "members": 3}},
     "config key 'A': union members must be a non-empty list, got 3"),
    (["verify-bmi"], [1, 2], "config must be a JSON object, got [1, 2]"),
]


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("argv, config, message", _BAD_VALUES, ids=[
    " ".join(argv) + ("" if config is None else f" {json.dumps(config)}")
    for argv, config, _ in _BAD_VALUES])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_value_is_usage_error(argv, config, message, dry_run, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert exit_code(*argv, *["--dry-run"] * dry_run) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_readme_table_lists_each_commands_arguments():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| (`[^|]*`) \| `([^`]*)`", readme.read_text(), re.M)
    table = {name: flags.split() for names, flags in rows for name in re.findall(r"`(.*?)`", names)}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {name: [(a.option_strings or [a.dest])[0] for a in p._actions
                     if not isinstance(a, argparse._HelpAction)]
              for name, p in commands.items()}
    assert table == parsed


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heis.cli", "tau", "1", "0.25", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert float(proc.stdout.strip()) == pytest.approx(0.25 ** (5.0 / 3.0))


class TestBundledConfigs:
    def test_identical_box_config_cd_holds(self, capsys):
        code = run_cli("verify-cd", "--config", "configs/identical_boxes.json",
                       "--N", "150", "--s", "0.5")
        assert code == 0
        out = capsys.readouterr().out
        assert "CD s=0.5" in out
        assert "fails" not in out
