import json
import math
import warnings

import numpy as np
import pytest

import smoothcore as sc
from smoothcore import experiments


def lgm_mapping(**overrides):
    raw = {
        "model": {
            "type": "lgm",
            "params": {"phi": 0.9, "sigma_u": 0.6, "sigma_v": 1.0},
        },
        "methods": ["ffbs_backward", "path_space"],
        "T": [5, 10],
        "N": [20, 40],
        "replicates": 3,
        "seed": 77,
        "functional": {"r": 0, "kind": "state_sum"},
    }
    raw.update(overrides)
    return raw


def test_grid_from_mapping_happy_path():
    grid = sc.grid_from_mapping(lgm_mapping(out="somewhere.csv"))
    assert grid.model_type == "lgm"
    assert grid.methods == ("ffbs_backward", "path_space")
    assert grid.horizons == (5, 10)
    assert grid.particle_counts == (20, 40)
    assert grid.replicates == 3
    assert grid.master_seed == 77
    assert grid.out == "somewhere.csv"
    # the r column comes from the functional the cells ran
    rows = sc.run_grid(grid).to_csv().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0"] * 8


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda raw: raw.update(extra=1), "unknown top-level"),
        (lambda raw: raw.pop("seed"), "seed"),
        (lambda raw: raw["model"].update(junk=1), "model"),
        (lambda raw: raw["model"]["params"].update(mu=0.0), "parameters"),
        (lambda raw: raw["model"].update(type="arma"), "model type"),
        (lambda raw: raw.update(T=[5, -1]), "horizons"),
        (lambda raw: raw.update(T="5"), "T"),
        (lambda raw: raw.update(N=[0]), "particle counts"),
        (lambda raw: raw.update(N=[True]), "N"),
        (lambda raw: raw.update(replicates=1), "replicates"),
        (lambda raw: raw.update(replicates="3"), "replicates"),
        (lambda raw: raw.update(seed=True), "seed"),
        (lambda raw: raw.update(methods=[]), "methods"),
        (lambda raw: raw.update(methods=["ffbs"]), "unknown method"),
        (lambda raw: raw["functional"].update(shape=2), "functional"),
        (lambda raw: raw["functional"].update(r=1), "lag"),
        (lambda raw: raw["functional"].update(r=False), "functional.r"),
        (lambda raw: raw["functional"].update(r=0.0), "functional.r"),
        (lambda raw: raw["functional"].update(kind="energy"), "kind"),
        (lambda raw: raw.update(out=7), "out"),
    ],
)
def test_grid_from_mapping_rejects_bad_configs(mutate, fragment):
    raw = lgm_mapping()
    mutate(raw)
    with pytest.raises(sc.ConfigError) as info:
        sc.grid_from_mapping(raw)
    assert fragment.lower() in str(info.value).lower()


def test_load_config_reports_json_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "model": \n}\n', encoding="utf-8")
    with pytest.raises(sc.ConfigError) as info:
        sc.load_config(bad)
    assert "line 3" in str(info.value)
    with pytest.raises(FileNotFoundError):
        sc.load_config(tmp_path / "missing.json")


def test_observation_streams_depend_only_on_seed_and_horizon():
    grid_a = sc.grid_from_mapping(lgm_mapping())
    grid_b = sc.grid_from_mapping(lgm_mapping(N=[999], methods=["path_space"]))
    for horizon in (5, 10):
        ya = sc.generate_grid_observations(grid_a, horizon)
        yb = sc.generate_grid_observations(grid_b, horizon)
        assert np.array_equal(ya, yb)
    rng = sc.make_rng(sc.derive_seed(77, experiments.DATA_STREAM_LABEL, 5))
    _, y_direct = sc.simulate_lgm(0.9, 0.6, 1.0, 5, rng)
    assert np.array_equal(sc.generate_grid_observations(grid_a, 5), y_direct)
    assert not np.array_equal(
        sc.generate_grid_observations(grid_a, 5),
        sc.generate_grid_observations(grid_a, 10)[:6],
    )


def test_two_replicate_variance_is_the_halved_square_gap():
    raw = lgm_mapping(
        methods=["ffbs_backward"], T=[6], N=[30], replicates=2, seed=123
    )
    grid = sc.grid_from_mapping(raw)
    table = sc.run_grid(grid)
    assert len(table.rows) == 1
    row = table.rows[0]
    y = sc.generate_grid_observations(grid, 6)
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    functional = sc.state_sum_functional(6)
    values = []
    for k in range(2):
        seed = sc.derive_seed(123, 6, 30, experiments.METHOD_IDS["ffbs_backward"], k)
        value, _ = sc.estimate_once(model, functional, "ffbs_backward", 30, seed)
        values.append(value)
    assert row.variance == pytest.approx((values[0] - values[1]) ** 2 / 2, rel=1e-12)
    assert row.mean_estimate == pytest.approx(np.mean(values), rel=1e-12)
    assert row.replicates == 2
    assert row.error is None


def test_grid_rows_are_ordered_and_worker_invariant():
    grid = sc.grid_from_mapping(lgm_mapping(replicates=2))
    serial = sc.run_grid(grid, workers=1)
    parallel = sc.run_grid(grid, workers=3)
    assert serial.to_csv(zero_timings=True) == parallel.to_csv(zero_timings=True)
    keys = [(r.method, r.horizon, r.n_particles) for r in serial.rows]
    assert keys == [
        (m, t, n)
        for m in ("ffbs_backward", "path_space")
        for t in (5, 10)
        for n in (20, 40)
    ]


def test_worker_count_below_one_is_refused():
    grid = sc.grid_from_mapping(lgm_mapping())
    with pytest.raises(ValueError, match="workers must be >= 1"):
        sc.run_grid(grid, workers=0)


def test_failed_replicate_flags_the_row_and_spares_the_rest(monkeypatch):
    grid = sc.grid_from_mapping(
        lgm_mapping(methods=["ffbs_backward", "ffbs_forward"], T=[4], N=[10],
                    replicates=3)
    )
    real = experiments.estimate_once

    calls = []

    def sabotaged(model, functional, method, n_particles, seed):
        calls.append(method)
        if method == "ffbs_forward" and calls.count(method) != 2:
            raise sc.FilterDegeneracyError(calls.count(method))
        return real(model, functional, method, n_particles, seed)

    monkeypatch.setattr(experiments, "estimate_once", sabotaged)
    table = sc.run_grid(grid, workers=1)
    assert table.has_failures
    # every replicate runs: the failures are counted and the first quoted
    assert calls.count("ffbs_forward") == 3
    flagged = {row.method: row for row in table.rows}
    bad = flagged["ffbs_forward"]
    assert math.isnan(bad.variance) and math.isnan(bad.mean_estimate)
    assert bad.error == (
        "2 of 3 replicates failed; first: replicate 0: FilterDegeneracyError: "
        "all importance weights vanished at step t=1"
    )
    good = flagged["ffbs_backward"]
    assert good.error is None and math.isfinite(good.variance)


def test_rejection_on_lgm_runs_without_warning():
    grid = sc.grid_from_mapping(
        lgm_mapping(methods=["ffbsi_rejection"], T=[4], N=[15], replicates=2)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = sc.run_grid(grid, workers=1)
    assert not table.has_failures
    assert table.rows[0].method == "ffbsi_rejection"
    assert math.isfinite(table.rows[0].variance)
    assert math.isfinite(table.rows[0].mean_estimate)


def test_variance_table_csv_round_trip(tmp_path):
    rows = [
        sc.VarianceRow(
            method="ffbsi_direct", horizon=100, n_particles=300, lag=0,
            variance=5.0999999999999996, mean_estimate=-12.25,
            mean_wall_seconds=0.5, replicates=250,
        ),
        sc.VarianceRow(
            method="path_space", horizon=100, n_particles=300, lag=0,
            variance=math.nan, mean_estimate=math.nan,
            mean_wall_seconds=math.nan, replicates=250, error="replicate 3: boom",
        ),
    ]
    table = sc.VarianceTable(rows=rows)
    assert table.has_failures
    text = table.to_csv()
    assert text.splitlines()[0] == "method,T,N,r,variance,mean,mean_wall_seconds,replicates"
    target = tmp_path / "table.csv"
    table.to_csv(target)
    back = sc.VarianceTable.from_csv(target)
    assert back.rows[0].variance == rows[0].variance
    assert back.rows[0].mean_estimate == rows[0].mean_estimate
    assert math.isnan(back.rows[1].variance)
    zeroed = table.to_csv(zero_timings=True)
    assert zeroed.splitlines()[1].split(",")[6] == "0"


def test_variance_table_rejects_foreign_headers(tmp_path):
    target = tmp_path / "other.csv"
    target.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        sc.VarianceTable.from_csv(target)


def synthetic_power_table():
    rows = []
    for horizon in (100, 200, 400):
        for n in (100, 200, 400):
            rows.append(
                sc.VarianceRow(
                    method="ffbsi_direct", horizon=horizon, n_particles=n, lag=0,
                    variance=7.0 * horizon**1.5 / n, mean_estimate=0.0,
                    mean_wall_seconds=0.0, replicates=10,
                )
            )
    return sc.VarianceTable(rows=rows)


def test_scaling_regression_recovers_exact_exponents():
    table = synthetic_power_table()
    along_t = sc.scaling_regression(table, "ffbsi_direct", "T", fixed_value=200)
    assert along_t.slope == pytest.approx(1.5, abs=1e-12)
    assert along_t.stderr == pytest.approx(0.0, abs=1e-9)
    assert along_t.n_points == 3 and along_t.fixed_value == 200
    along_n = sc.scaling_regression(table, "ffbsi_direct", "N", fixed_value=100)
    assert along_n.slope == pytest.approx(-1.0, abs=1e-12)


def test_scaling_regression_needs_an_unambiguous_slice():
    table = synthetic_power_table()
    with pytest.raises(ValueError, match="fixed_value"):
        sc.scaling_regression(table, "ffbsi_direct", "T")
    with pytest.raises(ValueError, match="axis"):
        sc.scaling_regression(table, "ffbsi_direct", "Q")
    with pytest.raises(ValueError, match="no usable rows"):
        sc.scaling_regression(table, "ffbs_backward", "T")
    short = sc.VarianceTable(rows=table.rows[:2])
    with pytest.raises(ValueError, match="at least 3"):
        sc.scaling_regression(short, "ffbsi_direct", "T", fixed_value=100)


def test_bound_overlay_recovers_a_planted_scale():
    rows = []
    for horizon in (50, 100, 200):
        n = 300
        shape = (
            sc.theory_bounds(0, horizon, n).lq_error_factor ** 2
            * (horizon + 1) * 4.0 / n
        )
        rows.append(
            sc.VarianceRow(
                method="ffbsi_direct", horizon=horizon, n_particles=n, lag=0,
                variance=3.0 * shape, mean_estimate=0.0,
                mean_wall_seconds=0.0, replicates=10,
            )
        )
    table = sc.VarianceTable(rows=rows)
    overlay = sc.fit_bound_scale(table, "ffbsi_direct", 2.0)
    assert overlay.scale == pytest.approx(3.0, rel=1e-12)
    assert np.allclose(overlay.predicted, overlay.observed, rtol=1e-12)


def test_bound_overlay_takes_each_rows_lag():
    # rows of lags 0 and 1 in one table: each is scored by its own r
    rows = []
    for horizon, lag in ((50, 0), (100, 1), (200, 1)):
        shape = (
            sc.theory_bounds(lag, horizon, 300).lq_error_factor ** 2
            * (horizon - lag + 1) / 300
        )
        rows.append(
            sc.VarianceRow(
                method="ffbs_backward", horizon=horizon, n_particles=300,
                lag=lag, variance=5.0 * shape, mean_estimate=0.0,
                mean_wall_seconds=0.0, replicates=10,
            )
        )
    overlay = sc.fit_bound_scale(sc.VarianceTable(rows=rows), "ffbs_backward", 1.0)
    assert overlay.scale == pytest.approx(5.0, rel=1e-12)
    assert np.allclose(overlay.predicted, overlay.observed, rtol=1e-12)


def test_grid_cell_mean_tracks_the_exact_smoother():
    raw = lgm_mapping(
        methods=["ffbs_backward"], T=[30], N=[200], replicates=40, seed=31415
    )
    grid = sc.grid_from_mapping(raw)
    table = sc.run_grid(grid)
    row = table.rows[0]
    y = sc.generate_grid_observations(grid, 30)
    exact = sc.kalman_smooth(0.9, 0.6, 1.0, y).smoothed_state_sum
    se = math.sqrt(row.variance / row.replicates)
    assert abs(row.mean_estimate - exact) < 4.0 * se + 1e-6
    assert row.mean_wall_seconds > 0.0


def test_estimate_once_times_the_whole_pipeline():
    y = [0.3, -0.1, 0.4]
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    functional = sc.state_sum_functional(2)
    for method in sc.METHOD_NAMES:
        value, wall = sc.estimate_once(model, functional, method, 25, 99)
        assert math.isfinite(value)
        assert wall > 0.0
    with pytest.raises(ValueError):
        sc.estimate_once(model, functional, "nonsense", 25, 99)


def test_estimate_once_runs_the_rejection_sampler():
    y = [0.3, -0.1, 0.4, 1.2, 0.8]
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    functional = sc.state_sum_functional(4)
    value, _ = sc.estimate_once(model, functional, "ffbsi_rejection", 40, 123)
    rng = sc.make_rng(123)
    history = sc.run_filter(model, sc.bootstrap_proposal(model), 40, 4, rng)
    paths = sc.ffbsi_rejection_sample_paths(history, model, 40, rng)
    assert value == sc.ffbsi_estimate(paths, history, functional).value
    direct, _ = sc.estimate_once(model, functional, "ffbsi_direct", 40, 123)
    assert value != direct


def test_rejection_mean_matches_the_kalman_smoother():
    # criterion 5's check at T=100, N=300: the particle smoother's
    # O(T/N) bias stays well inside 4 standard errors of 60 replicates
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 100, sc.make_rng(sc.derive_seed(57)))
    exact = sc.kalman_smooth(0.9, 0.6, 1.0, y).smoothed_state_sum
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    functional = sc.state_sum_functional(100)
    values = np.array(
        [
            sc.estimate_once(
                model, functional, "ffbsi_rejection", 300, sc.derive_seed(157, k)
            )[0]
            for k in range(60)
        ]
    )
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(float(values.mean()) - exact) <= 4.0 * se
