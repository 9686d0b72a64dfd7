import json
import subprocess
import sys

import numpy as np
import pytest

from heis.cli import ExperimentConfig, _parse_s_values, main


def run_cli(*argv, env_seed=None, capsys=None):
    return main(list(argv))


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
        ({"s_values": []}, "needs at least one s value"),
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

    @pytest.mark.parametrize("args", [("1", "nan", "0"), ("1", "0.5", "nan")])
    def test_tau_nan_is_usage_error(self, args, capsys):
        assert run_cli("tau", *args) == 1
        assert "must lie in" in capsys.readouterr().err

    def test_bad_json_point_is_usage_error(self):
        assert run_cli("distance", "[0,0", "[0,0,0]") == 1


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
                "--s", "0.5", "--format", "csv"]
        assert run_cli(*argv, "--output", str(out1)) == 0
        assert run_cli(*argv, "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "name,s,lhs,rhs,margin,stderr,holds"

    def test_dry_run_prints_config(self, capsys):
        assert run_cli("verify-cd", "--N", "42", "--dry-run") == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["N"] == 42
        assert blob["verifier"] == "cd"

    @pytest.mark.parametrize("command, shown", [
        ("verify-bbl", "n A B s_values seed output format p pairing"),
        ("transport", "n A B N seed solver output"),
    ])
    def test_dry_run_shows_only_the_fields_the_command_reads(self, command, shown, capsys):
        assert run_cli(command, "--dry-run") == 0
        assert list(json.loads(capsys.readouterr().out)) == shown.split()

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
            ("transport", "--h --r --s --format"),
            ("verify-cd", "--r --solver"),
            ("verify-bmi", "--solver"),
            ("verify-sbmi", "--solver"),
            ("verify-bbl", "--N --h --r --threads --solver"),
            ("step-limit", "--h --r --format --solver"),
            ("dilate-check", "--output --format --solver"),
        ) for flag in flags.split()])
    def test_flag_the_command_does_not_read_is_usage_error(self, command, flag, capsys):
        value = {"--format": "json", "--solver": "exact", "--output": "out.json"}.get(flag, "1")
        with pytest.raises(SystemExit) as ei:
            run_cli(command, flag, value, "--dry-run")
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

    @pytest.mark.parametrize("argv, message", [
        (["transport", "--N", "0"], "N must be at least 1, got 0"),
        (["step-limit", "--N", "0", "--depths", "0"], "N must be at least 1, got 0"),
        (["verify-cd", "--s", "0:1:0"], "s range '0:1:0' has step 0"),
        (["verify-bmi", "--s", "1:0:0.25"], "needs at least one s value"),
        (["step-limit", "--s", "1:0:0.25"], "needs at least one s value"),
        (["geodesic", "[1,0]", "3.14", "--samples", "0"], "--samples must be at least 1"),
        (["verify-bbl", "--cells", "0"], "grid must have at least one cell"),
        (["verify-bbl", "--cells", "-2"], "got shape (-2, -2, -2)"),
        (["verify-bmi", "--N", "20", "--s", "0.5", "--r", "nan"], "got r=nan, h=0.1"),
        (["verify-bmi", "--N", "20", "--s", "0.5", "--r", "inf"], "got r=inf, h=0.1"),
        (["verify-bmi", "--N", "20", "--s", "0.5", "--h", "nan"], "got r=0.05, h=nan"),
        (["verify-bmi", "--N", "20", "--s", "0.5", "--h", "inf"], "got r=0.05, h=inf"),
        (["verify-sbmi", "--N", "20", "--s", "0.5", "--r", "nan"], "got r=nan, h=0.1"),
        (["step-limit", "--s", "0.25,0.75", "--depths", "0"], "step-limit runs at one s"),
        (["step-limit", "--s", "0:1:0.5", "--dry-run"], "--s 0:1:0.5 gives 3"),
        (["verify-bbl", "--p", "nan", "--cells", "4"], "p must be >= -1/(2n+1)"),
        (["step-limit", "--threads", "0", "--N", "4", "--depths", "0"],
         "worker count must be >= 1, got 0"),
        (["transport", "--threads", "-1", "--N", "4"], "worker count must be >= 1, got -1"),
        (["verify-cd", "--threads", "0", "--dry-run"], "worker count must be >= 1, got 0"),
        (["transport", "--N", "3", "--solver", "sinkhorn(inf)"],
         "epsilon must be positive and finite, got inf"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_numeric_input_is_usage_error(self, argv, message, capsys):
        assert run_cli(*argv) == 1
        assert message in capsys.readouterr().err

    def test_dilate_check_consistent(self, capsys):
        code = run_cli("dilate-check", "--target", "bmi", "--N", "60",
                       "--h", "0.1", "--r", "0.1", "--s", "0.5", "--lam", "2")
        assert code == 0
        assert "consistent" in capsys.readouterr().out


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
