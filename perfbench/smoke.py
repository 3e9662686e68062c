"""Smoke test of the benchmark harness at toy sizes.

Not part of the tier-1 suite (the file name does not match pytest's
default patterns, so a plain ``pytest`` from the repository root skips
it).  Run it explicitly:

    python3 -m pytest -q perfbench/smoke.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def toy(workload):
    grid = workload.grid
    if grid is not None:
        grid = dataclasses.replace(
            grid, horizons=(10, 20, 40), n_particles=40, replicates=5
        )
    return dataclasses.replace(workload, horizon=20, n_particles=40, grid=grid)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, toy(workloads.WORKLOADS[name]))
    monkeypatch.setattr(workloads, "MIN_METHOD_SECONDS", 0.05)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in expected:
        assert f"{metric} = " in "\n".join(lines)
    assert provenance["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(provenance["samplers"]) == {
        "ffbs_backward", "ffbs_forward", "ffbsi_direct", "ffbsi_rejection", "path_space"
    }


def test_missing_sources_fail_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SOURCE", tmp_path)
    argv = ["--workload", "lgm_bench", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""
