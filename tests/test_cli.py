import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothcore as sc
from smoothcore import experiments
from smoothcore.cli import cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def loaded_modules(statements, roots):
    """The modules under ``roots`` that a fresh interpreter has loaded
    after running ``statements``."""
    code = (
        f"import json, sys; {statements}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] "
        f"in {tuple(roots)!r})))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sc.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(result.stdout)


def test_import_loads_no_scipy_and_no_process_pool():
    # every `smoothcore` command pays for what the package imports
    assert loaded_modules(
        "import smoothcore, smoothcore.cli", ("scipy", "multiprocessing", "concurrent")
    ) == []


def test_oracle_gamma_on_an_lgm_runs_without_scipy(tmp_path, capsys):
    # the quadrature oracle is the package on numpy alone, like the rest
    data, out = tmp_path / "obs.csv", tmp_path / "gamma.txt"
    flags = ["--phi", "0", "--sigma-u", "0.6", "--sigma-v", "1"]
    run_cli(capsys, "generate", "--model", "lgm", *flags,
            "--horizon", "3", "--seed", "6", "--out", str(data))
    argv = ["oracle", "gamma", *flags, "--data", str(data), "--out", str(out)]
    statements = (
        f"from smoothcore.cli import cli_main; assert cli_main({argv!r}) == 0"
    )
    assert loaded_modules(statements, ("scipy",)) == []
    assert float(out.read_text(encoding="utf-8")) > 0.0


LGM_FLAGS = ["--phi", "0.9", "--sigma-u", "0.6", "--sigma-v", "1.0"]


def write_grid_config(path, **overrides):
    raw = {
        "model": {
            "type": "lgm",
            "params": {"phi": 0.9, "sigma_u": 0.6, "sigma_v": 1.0},
        },
        "methods": ["ffbs_backward", "ffbsi_direct"],
        "T": [3],
        "N": [10, 20],
        "replicates": 2,
        "seed": 11,
        "functional": {"r": 0, "kind": "state_sum"},
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_generate_writes_deterministic_observations(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["generate", "--model", "lgm", *LGM_FLAGS,
            "--horizon", "6", "--seed", "5"]
    assert run_cli(capsys, *base, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, *base, "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    x, y = sc.read_observations_csv(out_a)
    assert x.shape == y.shape == (7,)
    code, stdout, _ = run_cli(capsys, *base)
    assert code == 0
    assert stdout.splitlines()[0] == "t,x_true,y"


def test_generate_requires_model_parameters(capsys):
    code, _, err = run_cli(
        capsys, "generate", "--model", "svm", "--phi", "0.3",
        "--horizon", "3", "--seed", "1",
    )
    assert code == 2
    assert "svm needs" in err


@pytest.mark.parametrize(
    "model, flags, message",
    [
        ("lgm", ["--phi", "0.9", "--sigma-u", "0.6", "--sigma-v", "-1"],
         "sigma_v must be positive, got -1.0"),
        ("svm", ["--phi", "0.9", "--sigma", "0", "--beta", "-2"],
         "sigma must be positive, got 0.0"),
    ],
)
def test_generate_refuses_the_scales_smooth_refuses(tmp_path, capsys, model, flags, message):
    out = tmp_path / "refused.csv"
    code, stdout, err = run_cli(
        capsys, "generate", "--model", model, *flags,
        "--horizon", "4", "--seed", "1", "--out", str(out),
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {message}\n"
    data = tmp_path / "obs.csv"
    run_cli(capsys, "generate", "--model", "lgm", *LGM_FLAGS,
            "--horizon", "4", "--seed", "1", "--out", str(data))
    assert run_cli(
        capsys, "smooth", "--data", str(data), "--model", model, *flags,
        "--method", "path_space", "--n", "10", "--seed", "1",
    ) == (2, "", err)


def test_smooth_round_trip_is_reproducible(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    run_cli(capsys, "generate", "--model", "lgm", *LGM_FLAGS,
            "--horizon", "8", "--seed", "3", "--out", str(data))
    args = ["smooth", "--data", str(data), "--model", "lgm", *LGM_FLAGS,
            "--method", "ffbsi_direct", "--n", "50", "--seed", "9",
            "--zero-timings"]
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    header, row = out_a.splitlines()
    assert header == "method,T,N,r,seed,estimate,wall_seconds"
    fields = row.split(",")
    assert fields[0] == "ffbsi_direct"
    assert fields[1] == "8" and fields[2] == "50" and fields[3] == "0"
    assert fields[4] == "9" and fields[6] == "0"
    value = float(fields[5])
    # the same derived pipeline gives the same value in the library
    y = sc.read_observations_csv(data)[1]
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    expected, _ = sc.estimate_once(
        model, sc.state_sum_functional(8), "ffbsi_direct", 50, 9
    )
    assert value == expected


def test_smooth_supports_the_volatility_model(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    run_cli(capsys, "generate", "--model", "svm", "--phi", "0.3",
            "--sigma", "0.5", "--beta", "1.0",
            "--horizon", "5", "--seed", "4", "--out", str(data))
    code, out, _ = run_cli(
        capsys, "smooth", "--data", str(data), "--model", "svm",
        "--phi", "0.3", "--sigma", "0.5", "--beta", "1.0",
        "--method", "path_space", "--n", "40", "--seed", "2",
    )
    assert code == 0
    assert out.splitlines()[1].startswith("path_space,5,40,0,2,")


def test_unknown_method_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    run_cli(capsys, "generate", "--model", "lgm", *LGM_FLAGS,
            "--horizon", "2", "--seed", "1", "--out", str(data))
    code, _, _ = run_cli(
        capsys, "smooth", "--data", str(data), "--model", "lgm", *LGM_FLAGS,
        "--method", "magic", "--n", "10", "--seed", "1",
    )
    assert code == 2


def test_missing_data_file_is_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "smooth", "--data", "nowhere.csv", "--model", "lgm",
        *LGM_FLAGS, "--method", "ffbs_backward", "--n", "10", "--seed", "1",
    )
    assert code == 2
    assert "file not found" in err


def test_a_directory_in_place_of_a_file_is_a_usage_error(tmp_path, capsys):
    folder = str(tmp_path)
    commands = [
        ["analyze", "--table", folder, "--method", "path_space", "--axis", "T"],
        ["smooth", "--data", folder, "--model", "lgm", *LGM_FLAGS,
         "--method", "ffbs_backward", "--n", "10", "--seed", "1"],
        ["generate", "--model", "lgm", *LGM_FLAGS, "--horizon", "2",
         "--seed", "1", "--out", folder],
    ]
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"cannot use {folder}: ")


def test_an_os_error_naming_no_file_is_not_a_usage_error(monkeypatch):
    def broken_pipe(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("smoothcore.cli._cmd_generate", broken_pipe)
    with pytest.raises(BrokenPipeError):
        cli_main(["generate", "--model", "lgm", *LGM_FLAGS, "--horizon", "2",
                  "--seed", "1"])


def test_a_negative_particle_count_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    run_cli(capsys, "generate", "--model", "lgm", *LGM_FLAGS,
            "--horizon", "4", "--seed", "1", "--out", str(data))
    code, out, err = run_cli(
        capsys, "smooth", "--data", str(data), "--model", "lgm", *LGM_FLAGS,
        "--method", "ffbs_backward", "--n", "-3", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert "n_particles must be >= 1, got -3" in err


def smooth_on(tmp_path, capsys, text):
    data = tmp_path / "obs.csv"
    data.write_text(text, encoding="utf-8")
    return run_cli(
        capsys, "smooth", "--data", str(data), "--model", "lgm",
        *LGM_FLAGS, "--method", "ffbs_backward", "--n", "10", "--seed", "1",
    )


def test_data_times_must_count_up_from_zero(tmp_path, capsys):
    code, out, err = smooth_on(
        tmp_path, capsys, "t,x_true,y\n0,0.1,0.2\n7,0.3,0.4\n0,0.5,0.6\n"
    )
    assert code == 2 and out == ""
    assert "line 3" in err and "expected t = 1" in err


def test_data_rows_need_three_fields(tmp_path, capsys):
    code, out, err = smooth_on(tmp_path, capsys, "t,x_true,y\n0,0.1,0.2\n1,0.3\n")
    assert code == 2 and out == ""
    assert "line 3" in err and "3 fields" in err


def test_data_fields_must_be_numbers(tmp_path, capsys):
    code, out, err = smooth_on(tmp_path, capsys, "t,x_true,y\n0,0.1,0.2\n1,0.1,abc\n")
    assert code == 2 and out == ""
    assert "line 3" in err and "'abc'" in err


def test_experiment_outputs_are_worker_invariant(tmp_path, capsys):
    config = write_grid_config(tmp_path / "grid.json")
    out_serial = tmp_path / "serial.csv"
    out_parallel = tmp_path / "parallel.csv"
    code, _, _ = run_cli(
        capsys, "experiment", "--config", str(config),
        "--out", str(out_serial), "--workers", "1", "--zero-timings",
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "experiment", "--config", str(config),
        "--out", str(out_parallel), "--workers", "2", "--zero-timings",
    )
    assert code == 0
    assert out_serial.read_bytes() == out_parallel.read_bytes()
    table = sc.VarianceTable.from_csv(out_serial)
    assert len(table.rows) == 4
    code, _, err = run_cli(
        capsys, "experiment", "--config", str(config), "--workers", "0"
    )
    assert code == 2 and "workers must be >= 1" in err


def test_experiment_honors_the_config_output_path(tmp_path, capsys):
    target = tmp_path / "from_config.csv"
    config = write_grid_config(tmp_path / "grid.json", out=str(target))
    code, _, _ = run_cli(
        capsys, "experiment", "--config", str(config), "--zero-timings"
    )
    assert code == 0
    assert target.exists()
    assert target.read_text(encoding="utf-8").startswith(
        "method,T,N,r,variance,mean,"
    )


def test_experiment_flags_runtime_failures(tmp_path, capsys, monkeypatch):
    config = write_grid_config(tmp_path / "grid.json", N=[10])
    real = experiments.estimate_once

    def sabotaged(model, functional, method, n_particles, seed):
        if method == "ffbsi_direct":
            raise sc.FilterDegeneracyError(1)
        return real(model, functional, method, n_particles, seed)

    monkeypatch.setattr(experiments, "estimate_once", sabotaged)
    out = tmp_path / "table.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--config", str(config), "--out", str(out)
    )
    assert code == 1
    assert "flagged" in err and "ffbsi_direct" in err
    assert "nan" in out.read_text(encoding="utf-8")


def test_experiment_rejects_malformed_json(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"model": }', encoding="utf-8")
    code, _, err = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 2
    assert "config error" in err and "line 1" in err


def test_analyze_reports_a_slope(tmp_path, capsys):
    rows = [
        sc.VarianceRow(
            method="ffbsi_direct", horizon=h, n_particles=300, lag=0,
            variance=2.0 * h, mean_estimate=0.0, mean_wall_seconds=0.0,
            replicates=10,
        )
        for h in (100, 200, 400)
    ]
    table_path = tmp_path / "table.csv"
    sc.VarianceTable(rows=rows).to_csv(table_path)
    code, out, _ = run_cli(
        capsys, "analyze", "--table", str(table_path),
        "--method", "ffbsi_direct", "--axis", "T",
    )
    assert code == 0
    report = json.loads(out)
    assert report["slope"] == pytest.approx(1.0, abs=1e-12)
    assert report["n_points"] == 3
    assert report["fixed_value"] == 300
    assert "bound_overlay" not in report
    code, out, _ = run_cli(
        capsys, "analyze", "--table", str(table_path),
        "--method", "ffbsi_direct", "--axis", "T", "--overlay-osc", "2.0",
    )
    assert code == 0
    overlay = json.loads(out)["bound_overlay"]
    assert len(overlay["predicted"]) == 3
    code, _, err = run_cli(
        capsys, "analyze", "--table", str(table_path),
        "--method", "path_space", "--axis", "T",
    )
    assert code == 2
    assert "no usable rows" in err


@pytest.mark.parametrize("oscillation", ["0", "-1", "nan", "inf"])
def test_analyze_refuses_an_oscillation_that_fits_no_scale(tmp_path, capsys, oscillation):
    # 0 would fit 0/0 and write "scale": NaN, which is not JSON; -1 passed
    # only because its square is used
    rows = [
        sc.VarianceRow(
            method="ffbsi_direct", horizon=h, n_particles=300, lag=0,
            variance=2.0 * h, mean_estimate=0.0, mean_wall_seconds=0.0,
            replicates=10,
        )
        for h in (100, 200, 400)
    ]
    table_path = tmp_path / "table.csv"
    sc.VarianceTable(rows=rows).to_csv(table_path)
    code, out, err = run_cli(
        capsys, "analyze", "--table", str(table_path),
        "--method", "ffbsi_direct", "--axis", "T", "--overlay-osc", oscillation,
    )
    assert code == 2
    assert out == ""
    assert "oscillation must be positive and finite" in err


@pytest.mark.parametrize(
    "row, message",
    [("ffbsi_direct,100,300", "line 2: expected 8 fields "),
     ("ffbsi_direct,1e2,300,0,1,0,0,10", "line 2: invalid literal for int() ")],
    ids=["truncated", "non-integer"],
)
def test_analyze_names_the_line_of_a_bad_row(tmp_path, capsys, row, message):
    table = tmp_path / "table.csv"
    table.write_text(
        f"method,T,N,r,variance,mean,mean_wall_seconds,replicates\n{row}\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, "analyze", "--table", str(table),
        "--method", "ffbsi_direct", "--axis", "T",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: " + message)


def test_oracle_kalman_refuses_a_nonfinite_observation(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("t,x_true,y\n0,0.1,nan\n1,0.2,0.3\n", encoding="utf-8")
    message = "error: observations[0] = nan is not finite\n"
    for argv in (["oracle", "kalman", "--sum"], ["oracle", "kalman"],
                 ["smooth", "--model", "lgm", "--method", "path_space",
                  "--n", "10", "--seed", "1"]):
        assert run_cli(
            capsys, *argv, *LGM_FLAGS, "--data", str(data)
        ) == (2, "", message)


def test_a_closed_stdout_exits_quietly():
    # the reader stops after a few bytes, like `head -c 10`; the output
    # (about 1 MB) is far larger than a pipe's buffer
    env = dict(os.environ, PYTHONPATH=str(Path(sc.__file__).parents[1]))
    process = subprocess.Popen(
        [sys.executable, "-m", "smoothcore.cli", "generate", "--model", "lgm",
         "--phi", "0.9", "--sigma-u", "0.6", "--sigma-v", "1",
         "--horizon", "20000", "--seed", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert process.stdout.read(10) == b"t,x_true,y"
    process.stdout.close()
    _, stderr = process.communicate(timeout=60)
    assert process.returncode == 1
    assert stderr == b""


def test_module_entry_point_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(sc.__file__).parents[1]))

    def run(*flags):
        return subprocess.run(
            [sys.executable, "-m", "smoothcore.cli", "generate", "--model", "lgm",
             "--phi", "0.9", "--sigma-u", "0.6", *flags,
             "--horizon", "4", "--seed", "1", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )

    out = tmp_path / "obs.csv"
    refused = run("--sigma-v", "-1")
    assert refused.returncode == 2 and not out.exists()
    assert refused.stderr == "error: sigma_v must be positive, got -1.0\n"
    written = run("--sigma-v", "1")
    assert written.returncode == 0 and written.stderr == ""
    x, y = sc.read_observations_csv(out)
    assert x.shape == y.shape == (5,)


def test_oracle_kalman_outputs(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    run_cli(capsys, "generate", "--model", "lgm", *LGM_FLAGS,
            "--horizon", "4", "--seed", "8", "--out", str(data))
    code, out, _ = run_cli(
        capsys, "oracle", "kalman", *LGM_FLAGS, "--data", str(data)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,filtered_mean,filtered_var,smoothed_mean,smoothed_var"
    assert len(lines) == 6
    code, out, _ = run_cli(
        capsys, "oracle", "kalman", *LGM_FLAGS, "--data", str(data), "--sum"
    )
    assert code == 0
    y = sc.read_observations_csv(data)[1]
    expected = sc.kalman_smooth(0.9, 0.6, 1.0, y).smoothed_state_sum
    assert float(out.strip()) == expected


def test_oracle_hmm_and_gamma(tmp_path, capsys):
    chain = {
        "transition": [[0.5, 0.5], [0.5, 0.5]],
        "emissions": [[0.8, 0.3], [0.2, 0.7], [0.8, 0.3]],
        "initial": [0.6, 0.4],
    }
    config = tmp_path / "chain.json"
    config.write_text(json.dumps(chain), encoding="utf-8")
    model = sc.make_finite_hmm(
        chain["transition"], chain["emissions"], chain["initial"]
    )
    code, out, _ = run_cli(capsys, "oracle", "hmm", "--config", str(config))
    assert code == 0
    assert float(out.strip()) == pytest.approx(
        sc.exact_hmm_smooth(model, sc.state_sum_functional(2)), rel=1e-15
    )
    code, out, _ = run_cli(capsys, "oracle", "gamma", "--config", str(config))
    assert code == 0
    assert float(out.strip()) == pytest.approx(
        sc.path_space_asymptotic_variance(model, sc.state_sum_functional(2)),
        rel=1e-15,
    )
    bad = dict(chain)
    bad["extra"] = 1
    config.write_text(json.dumps(bad), encoding="utf-8")
    assert run_cli(capsys, "oracle", "hmm", "--config", str(config))[0] == 2
    # the optional functional key follows the grid schema
    chain["functional"] = {"r": 0, "kind": "state_sum"}
    config.write_text(json.dumps(chain), encoding="utf-8")
    assert run_cli(capsys, "oracle", "hmm", "--config", str(config))[0] == 0
    chain["functional"]["r"] = False
    config.write_text(json.dumps(chain), encoding="utf-8")
    code, _, err = run_cli(capsys, "oracle", "hmm", "--config", str(config))
    assert code == 2 and "functional.r" in err


def test_oracle_gamma_on_an_independent_lgm(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    run_cli(capsys, "generate", "--model", "lgm", "--phi", "0.0",
            "--sigma-u", "0.6", "--sigma-v", "1.0",
            "--horizon", "3", "--seed", "6", "--out", str(data))
    code, out, _ = run_cli(
        capsys, "oracle", "gamma", "--phi", "0.0", "--sigma-u", "0.6",
        "--sigma-v", "1.0", "--data", str(data),
    )
    assert code == 0
    y = sc.read_observations_csv(data)[1]
    model = sc.make_lgm(0.0, 0.6, 1.0, y)
    expected = sc.path_space_asymptotic_variance(
        model, sc.state_sum_functional(3), grid=sc.quadrature_grid(0.0, 0.6)
    )
    assert float(out.strip()) == pytest.approx(expected, rel=1e-15)
    # gamma without a config needs the full lgm description
    assert run_cli(capsys, "oracle", "gamma", "--data", str(data))[0] == 2
    assert run_cli(capsys, "oracle", "gamma")[0] == 2
    # the grid is quadrature_grid's default; it has no flags
    for flag in ("--grid-width", "--grid-panels"):
        assert run_cli(capsys, "oracle", "gamma", "--phi", "0.0", "--sigma-u",
                       "0.6", "--sigma-v", "1.0", "--data", str(data),
                       flag, "4")[0] == 2


def test_help_exits_cleanly(capsys):
    assert cli_main(["--help"]) == 0
    capsys.readouterr()
