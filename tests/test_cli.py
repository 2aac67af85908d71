"""Tests for the command line interface: config handling, subcommands,
output artifacts and exit codes."""

import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from safefem.cli import RunConfig, main

from conftest import bernoulli1, bernoulli2, bernoulli3


def test_run_config_parses_comments_and_types():
    text = """
    # comment line
    case = grad2d
    alpha = 0.25   # trailing comment
    gamma = 2
    ns = 2,4,8
    n = 12
    diagonal = upper-left-to-lower-right
    outdir = out/run
    tol = 1e-12
    eps = 0,1e-8
    args_min = -3
    args_max = 4.5
    args_count = 7
    """
    cfg = RunConfig.from_text(text)
    assert cfg == RunConfig(
        case="grad2d", alpha=0.25, gamma=2.0, ns=(2, 4, 8), n=12,
        diagonal="upper-left-to-lower-right", outdir="out/run", tol=1e-12,
        eps=(0.0, 1e-8), args_min=-3.0, args_max=4.5, args_count=7,
    )
    # every field is set, and to a value other than its default
    assert all(getattr(cfg, f.name) != f.default for f in fields(RunConfig))
    assert [type(getattr(cfg, f.name)) for f in fields(RunConfig)] == [
        type(f.default) for f in fields(RunConfig)]


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_text("flux_capacitor = 1\n")
    for key in ("method = direct", "max_iter = 100"):
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_text(key + "\n")
    with pytest.raises(ValueError):
        RunConfig.from_text("just some text\n")


def test_convergence_command(tmp_path, capsys):
    rc = main([
        "convergence", "--case", "div2d", "--alpha", "1", "--gamma", "1",
        "--n", "4,8", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "case div2d (primal)" in out
    csv_path = tmp_path / "div2d_convergence.csv"
    assert csv_path.exists()
    rows = list(csv.DictReader(csv_path.open()))
    assert [r["inv_h"] for r in rows] == ["4", "8"]
    assert rows[0]["l2_order"] == ""
    # frozen first-row errors of the rotational-drift benchmark
    assert float(rows[0]["l2_err"]) == pytest.approx(0.151319105, rel=1e-6)
    assert float(rows[1]["l2_order"]) == pytest.approx(0.97, abs=0.05)


def test_convergence_deterministic(tmp_path):
    paths = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        rc = main(["convergence", "--case", "grad2d", "--n", "2,4",
                   "--outdir", str(d)])
        assert rc == 0
        paths.append((d / "grad2d_convergence.csv").read_bytes())
    assert paths[0] == paths[1]


def test_solve_command(tmp_path, capsys):
    rc = main(["solve", "--case", "div2d", "--n", "4", "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max |DOF|" in out
    assert "l2_err" in out
    vtk = tmp_path / "div2d_n4.vtk"
    assert vtk.exists()
    assert vtk.read_text().startswith("# vtk DataFile Version 3.0")


def test_solve_stability_case_has_no_error_line(tmp_path, capsys):
    rc = main(["solve", "--case", "div2d-stability", "--alpha", "1e-5",
               "--n", "4", "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "l2_err" not in out
    assert (tmp_path / "div2d-stability_n4.vtk").exists()


def test_bernoulli_table_command(tmp_path):
    rc = main(["bernoulli-table", "--eps", "0,1", "--args-min", "-2",
               "--args-max", "2", "--args-count", "3", "--outdir", str(tmp_path)])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "bernoulli_table.csv").open()))
    # 2 eps values x (3 + 9 + 27) kernel evaluations
    assert len(rows) == 2 * 39
    b1rows = [r for r in rows if r["kernel"] == "b1"]
    assert len(b1rows) == 6
    for row in b1rows:
        expected = bernoulli1(float(row["eps"]), float(row["s"]))
        assert float(row["value"]) == pytest.approx(expected, rel=1e-8, abs=1e-12)
    b2rows = [r for r in rows if r["kernel"] == "b2" and r["eps"] == "1"]
    for row in b2rows[:5]:
        expected = bernoulli2(1.0, float(row["s"]), float(row["t"]))
        assert float(row["value"]) == pytest.approx(expected, rel=1e-8, abs=1e-12)
    # upwind rows are present
    assert any(r["eps"] == "0" for r in rows)
    # the batched table prints what the scalar views give, row by row
    views = {"b1": bernoulli1, "b2": bernoulli2, "b3": bernoulli3}
    for row in rows:
        args = [float(row[c]) for c in "str" if row[c]]
        value = views[row["kernel"]](float(row["eps"]), *args)
        assert row["value"] == f"{value:.9g}"


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = grad2d\nns = 2,4\nalpha = 0.5\n"
                   f"outdir = {tmp_path}\n")
    rc = main(["convergence", "--config", str(cfg), "--alpha", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    # flag wins over file
    assert "alpha=1" in out
    assert (tmp_path / "grad2d_convergence.csv").exists()


def test_outdir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SAFEFEM_OUTDIR", str(tmp_path))
    rc = main(["bernoulli-table", "--args-count", "2", "--eps", "1"])
    assert rc == 0
    assert (tmp_path / "bernoulli_table.csv").exists()


def test_exit_code_config_errors(tmp_path, capsys):
    # nonexistent output directory
    rc = main(["solve", "--case", "div2d", "--n", "2",
               "--outdir", str(tmp_path / "nope")])
    assert rc == 2
    # bad config file content
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_drive = on\n")
    rc = main(["convergence", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert rc == 2
    # NaN diffusion or reaction
    for opt in ("--alpha", "--gamma"):
        rc = main(["solve", "--case", "div2d", "--n", "4", opt, "nan",
                   "--outdir", str(tmp_path)])
        assert rc == 2
    # unknown case name is rejected by the argument parser itself
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", "heat1d", "--n", "2"])
    assert exc.value.code == 2


def test_exit_code_numerical_failure(tmp_path, capsys):
    rc = main(["convergence", "--case", "grad2d", "--n", "16",
               "--tol", "1e-30", "--outdir", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_code_direct_residual_guard(tmp_path, capsys):
    rc = main(["solve", "--case", "div2d", "--n", "4", "--tol", "1e-30",
               "--outdir", str(tmp_path)])
    assert rc == 3
    assert "residual" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    # installed entry point runs end to end in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-m", "safefem.cli", "solve", "--case", "grad2d",
         "--n", "2", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout


def test_stability_sweep_script(tmp_path):
    # the vanishing-diffusion sweep runs end to end, one table row per alpha
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_stability_sweep.py"),
         "--n", "4", "--alphas", "1e-3,0", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [float(r.split()[0]) for r in rows] == [1e-3, 0.0]
