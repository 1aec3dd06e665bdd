import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hfs
from hfs.cli import _build_parser, run_cli

HELP_TEXT = """\
usage: hfs [-h] {steady,evolve,sweep,validate} ...

Four-level hyperfine atom: steady states, dynamics, detuning sweeps and
identity validation.

positional arguments:
  {steady,evolve,sweep,validate}
    steady              solve one steady state and print populations and
                        transfer measures
    evolve              integrate the equations of motion from the ground
                        state
    sweep               run the detuning/intensity sweep grid
    validate            run the identity suite over the configured sweep grid

options:
  -h, --help            show this help message and exit
"""

SMALL_SWEEP = """\
[sweep]
delta_c_min = -1.0 delta_u
delta_c_max = 1.0 delta_u
delta_c_count = 21
omega_list = 0.5, 5.0
"""


def test_help_text_frozen(capsys):
    assert _build_parser().format_help() == HELP_TEXT


def test_python_dash_m():
    # `python -m hfs.cli` runs the CLI, with its usage-error exit code
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "hfs.cli", *argv],
                              cwd=Path(hfs.__file__).resolve().parents[1],
                              capture_output=True, text=True)
    proc = run("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hfs [-h] {steady,evolve,sweep,")
    proc = run("bogus")
    assert proc.returncode == 2
    assert "invalid choice: 'bogus'" in proc.stderr


class TestSteady:

    def test_stdout_and_json(self, capsys, tmp_path):
        out = tmp_path / "state.json"
        code = run_cli(["steady", "--set", "drive.omega=5.0",
                        "--set", "drive.delta_c=0.5 delta_u",
                        "--output", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "converged: True" in text
        assert "w_g = " in text
        data = json.loads(out.read_text())
        assert data["converged"] is True
        total = sum(data[f"rho{i}{i}"] for i in range(1, 5))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_zero_drive_exit_code(self, capsys):
        code = run_cli(["steady", "--set", "drive.omega=0.0"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_ndd_flag(self, capsys, tmp_path):
        out_off = tmp_path / "off.json"
        out_on = tmp_path / "on.json"
        base = ["steady", "--set", "drive.omega=5.0",
                "--set", "drive.delta_c=20"]
        assert run_cli(base + ["--ndd", "off", "--output", str(out_off)]) == 0
        assert run_cli(base + ["--ndd", "on", "--output", str(out_on)]) == 0
        a = json.loads(out_off.read_text())
        b = json.loads(out_on.read_text())
        assert a["re_rho31"] != b["re_rho31"]


class TestEvolve:

    def test_writes_trajectory(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code = run_cli(["evolve", "--set", "drive.omega=2.0",
                        "--t-end", "5.0", "--output", str(out)])
        assert code == 0
        assert "samples:" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,rho11")
        assert len(lines) > 2

    def test_integrator_failure_exit_code(self, capsys, tmp_path,
                                          monkeypatch):
        # an integrator failure is a solver failure: one error line, exit 1
        import hfs.dynamics

        def underflow(*args, **kwargs):
            raise hfs.dynamics.StepSizeUnderflow(1.25)
        monkeypatch.setattr(hfs.dynamics, "evolve", underflow)
        out = tmp_path / "traj.csv"
        assert run_cli(["evolve", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: integrator step size underflow "
                                "at t = 1.25\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("t_end", ["0", "-1", "nan", "inf"])
    def test_bad_t_end_exit_code(self, capsys, tmp_path, t_end):
        out = tmp_path / "traj.csv"
        code = run_cli(["evolve", "--t-end", t_end, "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --t-end") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_t_end_exit_code(self, capsys, tmp_path):
        # finite, but t_end * ||A||_1 overflows: a usage error, not a
        # traceback
        out = tmp_path / "traj.csv"
        code = run_cli(["evolve", "--t-end", "1e307", "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: --t-end 1e+307:")
        assert captured.err.count("\n") == 1 and "overflows" in captured.err
        assert captured.out == "" and not out.exists()


class TestSweep:

    def test_csv_and_json_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP)
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        code = run_cli(["sweep", "--config", str(cfg),
                        "--output", str(csv_path), "--json", str(json_path)])
        assert code == 0
        assert "42 grid points, 42 converged" in capsys.readouterr().out
        from hfs.sweep import COLUMNS, read_csv, read_json
        a, b = read_csv(csv_path), read_json(json_path)
        assert len(a) == len(b) == 42
        for c in COLUMNS:
            x, y = a.column(c), b.column(c)
            assert x.dtype == y.dtype, c
            assert np.array_equal(x, y, equal_nan=x.dtype == float), c

    def test_config_error_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[sweep]\nbogus = 1\n")
        code = run_cli(["sweep", "--config", str(cfg),
                        "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, setting", [
        ("steady", "drive.omega=-1"),
        ("steady", "drive.omega=1e999"),
        ("steady", "solver.damping=0"),
        ("steady", "system.delta_g=-1"),
        ("sweep", "sweep.delta_c_count=2"),
        ("sweep", "sweep.omega_list=0.0"),
    ])
    def test_invalid_value_exit_code(self, capsys, tmp_path, command,
                                     setting):
        code = run_cli([command, "--set", setting,
                        "--output", str(tmp_path / "x.out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("settings", [
        ["sweep.delta_c_max=1e999"],
        ["sweep.delta_c_min=-1e999", "sweep.delta_c_max=1e999"],
    ])
    def test_nonfinite_bound_exit_code(self, capsys, tmp_path, settings):
        # rejected before the grid is built, so numpy has nothing to warn of
        out = tmp_path / "x.csv"
        args = [a for s in settings for a in ("--set", s)]
        code = run_cli(["sweep", *args, "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [sweep]")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bad_set_syntax(self, capsys, tmp_path):
        code = run_cli(["sweep", "--set", "omega=5",
                        "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unwritable_output(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP)
        code = run_cli(["sweep", "--config", str(cfg),
                        "--output", str(tmp_path / "no" / "dir.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestValidate:

    def test_passes_on_small_grid(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP)
        out = tmp_path / "reports.json"
        code = run_cli(["validate", "--config", str(cfg),
                        "--output", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text
        assert "mirror_relations" in text
        assert "two_level_oracle" in text
        reports = json.loads(out.read_text())
        assert all(r["pass"] for r in reports)
        names = {r["identity"] for r in reports}
        assert {"mirror_relations", "raman_evenness", "raman_symmetric_form",
                "raman_steady_table", "two_level_oracle"} <= names

    def test_ndd_identities_diagnostic_only(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP + "ndd = true\n")
        code = run_cli(["validate", "--config", str(cfg)])
        assert code == 0
        assert "diagnostic only" in capsys.readouterr().out
