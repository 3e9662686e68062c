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


def test_import_loads_no_scipy_and_no_process_pool():
    # every `smoothcore` command pays for what the package imports
    code = (
        "import json, sys, smoothcore, smoothcore.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] "
        "in ('scipy', 'multiprocessing', 'concurrent'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sc.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert json.loads(result.stdout) == []


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


def test_help_exits_cleanly(capsys):
    assert cli_main(["--help"]) == 0
    capsys.readouterr()
