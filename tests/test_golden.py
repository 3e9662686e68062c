"""Golden digests of seeded outputs, pinned across refactors.

Sampled index trajectories, filter clouds and backward kernel rows are
hashed byte for byte.  A refactor that keeps each row's elementwise
operations and its own ``sum`` order reproduces the rows exactly.  The
Gaussian models' rows are built from a centered rank-2 expansion of the
log density, exponentiated as a target factor times a per-source
column, not from the model's density, so their entries differ
from the density's in the last bits and the lgm ``matrices`` digest
pins that build.  A draw is an inverse-CDF lookup, so a refactor that
only rounds the CDF differently (the rank-2 rows, or the row draw's
search of chunk masses summed by BLAS and then of one chunk's cumsum,
not the normalized row's cumsum) keeps the trajectories unless a
uniform falls within rounding of a CDF step, which at these sizes does
not happen.  The deterministic smoothers' values are pinned to 1e-12
relative instead, because a mat-vec may legitimately change its
summation order.

The digests depend on numpy's random streams and on the bits of its
float64 ``exp``; they were recorded with numpy 2.4 on x86-64 and must be
re-recorded, never loosened, on a platform whose ``exp`` differs.
"""

import hashlib
import io
import math

import numpy as np
import pytest

import smoothcore as sc
from smoothcore.cli import cli_main
from smoothcore.models import FAMILIES

CHAIN = [[0.7 if i == j else 0.1 for j in range(4)] for i in range(4)]
GAUSSIAN_PEAK = 1.0 / (0.6 * np.sqrt(2.0 * np.pi))
LGM_FLAGS = ["--phi", "0.9", "--sigma-u", "0.6", "--sigma-v", "1.0"]


def lgm_problem():
    rng = sc.make_rng(2024)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 12, rng)
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    # the attached bound is the exact peak of the N(phi x, 0.6^2) kernel
    assert model.mixing_bounds.sigma_plus == GAUSSIAN_PEAK
    history = sc.run_filter(
        model, sc.bootstrap_proposal(model), 300, 12, sc.make_rng(2025)
    )
    return model, history


def finite_problem():
    _, symbols = sc.simulate_finite_hmm(
        CHAIN, CHAIN, [0.25] * 4, 10, sc.make_rng(2026)
    )
    model = sc.make_finite_hmm(
        CHAIN, sc.emissions_from_symbols(CHAIN, symbols), [0.25] * 4
    )
    history = sc.run_filter(
        model, sc.bootstrap_proposal(model), 50, 10, sc.make_rng(2027)
    )
    return model, history


PROBLEMS = {"lgm": lgm_problem, "finite": finite_problem}

DIGESTS = {
    "lgm": {
        "positions": "d78f12cd6b4b72ea1dbeb64ecbd375f882fd2a048975aa1ac183c6082e908dee",
        "direct": "7cf9d238f3ffe0011043a8b92dfd8cf25bd478ddf4a7b6216cafe6652103afd4",
        "rejection": "97fe04a870536bc3eddeb06ece171b83c5073ad9e76b99e03060ad1fe7361f32",
        "fallback": "f45a517eee91b8b9aff097f3f8c452c71973f8ec6401f997a87546ae297bee22",
        "rounds_3": "ea595761f6ebc8f685c09404fdc672c3f12c38c7b68425006e768d73c14d723a",
        "matrices": "ec14c14380ab0ea39cd749eaac87fdf5af8317e5235bd015c565953c65418efd",
    },
    "finite": {
        "positions": "15e418b91ebdd591d4a530ce56c49560284de81fdbf0ee7738310643047a2b74",
        "direct": "bc1d81559872040f4aff9a87391e0ed1ab30e375a253d03d31332d753400a506",
        "rejection": "3ee4ee534fd61344b9a1398c9ac1b1bc7f487c19c532e5990e1d0d4118df3cb3",
        "fallback": "c77b2666148cce8737980bbe5ee265be954d0dce2127e0d8729ab80ec377622a",
        "rounds_3": "f246450f6a334648f15cb62074f58459c70ad102f37c9ca5b9679752c8e9904d",
        "matrices": "fd19e03a29dfc6210034c22432a5c316b24220ebed48c74b375be8cab9632142",
    },
}

SIMULATED_DIGEST = (
    "858cb546dd222d32046dc0bb76396af3a0908bd56c31c0d78b9f9d69847dd49e"
    "b4f6e168c549889605aed972bb32c232207e66626c8775ff801c4a5fe7285f09"
)

# lgm at the benchmark's parameters and particle count, over a short
# horizon: about 500-600 distinct successors per step, so the draws cross
# the kernel's row blocks and the columns of every row
BENCH_DIGESTS = {
    "direct": "9c8de84f1d2ccd6c888afa2f39e403a58a5a63d5b5c8a91f16eecf9a4848fdbb",
    "fallback": "43d09c0b299ded443b43a20a5c80038597a6cc4f77e33facd8117498196a527b",
}

# the RejectionStats (proposals, accepted, fallbacks) of the rejection
# draws above: one round (max_rejections=1), three rounds
# (max_rejections=3) and the default stop
REJECTION_STATS = {
    "lgm": {
        "fallback": (7200, 3977, 3223),
        "rounds_3": (12229, 6183, 1017),
        "rejection": (14559, 6972, 228),
    },
    "finite": {
        "fallback": (1000, 505, 495),
        "rounds_3": (1842, 754, 246),
        "rejection": (1000, 477, 523),
    },
    "bench": {"fallback": (4000, 2096, 1904)},
}


def counts(stats) -> tuple:
    return stats.proposals, stats.accepted, stats.fallbacks


VALUES = {
    "lgm": {
        "backward_0": 17.993171856782112,
        "forward_0": 17.993171856782112,
        "backward_1": 20.33482605554663,
        "forward_1": 20.334826055546618,
        "path_space": 8.423003798005851,
    },
    "finite": {
        "backward_0": 50.56581675925769,
        "forward_0": 50.56581675925764,
        "backward_1": 47.92602839142872,
        "forward_1": 47.926028391428716,
        "path_space": 17.98026315789474,
    },
}


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def lagged_functional(horizon, lag):
    if lag == 0:
        return sc.AdditiveFunctional(
            lag=0, horizon=horizon, term=lambda t, x: np.asarray(x, float) ** 2 + 0.5
        )
    return sc.AdditiveFunctional(
        lag=1,
        horizon=horizon,
        term=lambda t, a, b: np.asarray(a, float) * np.asarray(b, float) + 1.0,
    )


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def problem(request):
    model, history = PROBLEMS[request.param]()
    return request.param, model, history


def test_seeded_draws_and_rows_are_bit_identical(problem):
    name, model, history = problem
    n_paths = 2 * history.n_particles
    fallback, stats = sc.ffbsi_rejection_sample_paths(
        history, model, n_paths, sc.make_rng(9), max_rejections=1, return_stats=True
    )
    rounds_3, rounds_3_stats = sc.ffbsi_rejection_sample_paths(
        history, model, n_paths, sc.make_rng(10), max_rejections=3, return_stats=True
    )
    rejection, default_stats = sc.ffbsi_rejection_sample_paths(
        history, model, n_paths, sc.make_rng(8), return_stats=True
    )
    assert {
        "fallback": counts(stats),
        "rounds_3": counts(rounds_3_stats),
        "rejection": counts(default_stats),
    } == REJECTION_STATS[name]
    observed = {
        "positions": digest(history.positions),
        "direct": digest(
            sc.ffbsi_sample_paths(history, model, n_paths, sc.make_rng(7))
        ),
        "rejection": digest(rejection),
        "fallback": digest(fallback),
        "rounds_3": digest(rounds_3),
        "matrices": digest(
            np.stack(
                [sc.backward_matrix(history, model, t) for t in range(history.horizon)]
            )
        ),
    }
    assert observed == DIGESTS[name]


def test_bench_size_draws_are_bit_identical():
    rng = sc.make_rng(2030)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 4, rng)
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    history = sc.run_filter(
        model, sc.bootstrap_proposal(model), 1000, 4, sc.make_rng(2031)
    )
    fallback, stats = sc.ffbsi_rejection_sample_paths(
        history, model, 1000, sc.make_rng(13), max_rejections=1, return_stats=True
    )
    assert counts(stats) == REJECTION_STATS["bench"]["fallback"]
    observed = {
        "direct": digest(sc.ffbsi_sample_paths(history, model, 1000, sc.make_rng(12))),
        "fallback": digest(fallback),
    }
    assert observed == BENCH_DIGESTS


# simulate_lgm and simulate_svm at fixed seeds, T=200: x then y of each
SIMULATED_AR1_DIGESTS = {
    "lgm": (
        "0632d785670aca537f98a961e3ec428a289686f87b2058661ac582ac6356da95"
        "47bdb8e22c34b37041597dcea07d1c993bdaeaa28b2e06ec1ab6a9d60809158c"
    ),
    "svm": (
        "53fb414f7a6dbd8c072ea820228500961b61b96ba7e7d6627eea194ee4653be7"
        "fb977da8c7af16f78d84cad801e80c91915ec1667a93e76af1e9ab10f7420e1d"
    ),
}

FAMILY_PARAMS = {
    "lgm": {"phi": 0.9, "sigma_u": 0.6, "sigma_v": 1.0},
    "svm": {"phi": 0.95, "sigma": 0.3, "beta": 0.6},
    "finite": {"transition": CHAIN, "observation_matrix": CHAIN, "initial": [0.25] * 4},
}

# generate_grid_observations at T=50 for a grid of each family: the
# observations of lgm and svm, the emission rows of finite
GRID_PAYLOAD_DIGESTS = {
    "lgm": "6c44edfb2af436a0bffa3d28ae05dfb75da27a6fea5e8dac1fe4e8343a5e01a4",
    "svm": "a0d24299d52a72e0ca98fa1283a277c036ec569a3c1511a92d328fd80b1c830a",
    "finite": "95f7aff14be502b4adc87c610457bf70530303abc18d703e5283a183d87e3c69",
}

# the zero-timings variance table of family_grid("svm")
SVM_TABLE_DIGEST = "9f1e086070770a64fce8dc431836fe7bd5fcd503bd021106ec54e395afc71cb2"


# run_filter with the bootstrap proposal on each family's data simulated
# at seed 2040, filtered at seed 2041: positions, log weights and
# ancestors, at the benchmark's particle count and at the warm-ups' N=32
HISTORY_DIGESTS = {
    ("lgm", 1000, 50): (
        "d70fe949262e4ca1c7fa9cbf7bc11f04f4c8034a33611f59e634262596cd6cb4",
        "37d52e86e2dd7dc0dc446d7a20b98d9263d32d34808dda50aa7de9c75b1c140a",
        "231d9b2753f5a45d8e76f4224e0d092f22489291dc1bb9f927242a7d40ade21f",
    ),
    ("svm", 1000, 50): (
        "d1fb83f8266cbe53ad613dc6b55f2bc29a524d8e38cab58ade89ca7fc0ea5a17",
        "21d7d7a92db2a7d2d40ec75414400f200d441be0b0a58d02c314b9509f250670",
        "f7e418557da7151b0d24c21bbeaed300f4b218fbc62bbf5637918eacf3273a7d",
    ),
    ("finite", 1000, 50): (
        "5ac9649bf3703fbc131e994063fd178ca5b3239ef537b499434110e2224697ad",
        "b996cd8b5e9aab1c29a3e9799dbe21cc1199b3e2b79a9d47b001e172286057e8",
        "75943eebb8f6b1d3a5147eb1aec70646934adf39b494f74e6a1754472bff5d21",
    ),
    ("lgm", 32, 300): (
        "44164f6aac0ab3fafbac7b3f57f37dbd6ebe1922f55ab9fea89fda098bde0707",
        "0c487b201d0f26591c058d67ea041356f2a3aa7b8aa9a523c1105ace82705443",
        "c60b5b0a65519bf86757a581e69c80739f7e59eaedbb74ddaa54ef4079862820",
    ),
    ("svm", 32, 300): (
        "b489ce0741dd2ef270cf5cf62dcbbe879113f56eef1f976750d612cce416c039",
        "d53d980ac9342d1823c2243363d2b553f7833194684796af54a60b43f80d3c09",
        "e7a02312f5e10c8fbd65db5c453c79650cf83f9367cab4ab2b77fb7208d44cb1",
    ),
    ("finite", 32, 300): (
        "094b0a000578ff8c53d4cdc99aae4c84299312894127f752171104951a28160e",
        "bffee85bfae3d4f0f59186871d28fc830f28f1caed03a4ddb89da6c1d0d61690",
        "7755511bd5fb158d16da76ed67bf1d1122d149cc27878c4a379fe9b8af305b8d",
    ),
}


@pytest.mark.parametrize("family, n, horizon", sorted(HISTORY_DIGESTS))
def test_filter_histories_are_bit_identical(family, n, horizon):
    params = FAMILY_PARAMS[family]
    _, payload = FAMILIES[family].simulate(params, horizon, sc.make_rng(2040))
    model = FAMILIES[family].build(params, payload)
    history = sc.run_filter(
        model, sc.bootstrap_proposal(model), n, horizon, sc.make_rng(2041)
    )
    observed = tuple(
        digest(a) for a in (history.positions, history.log_weights, history.ancestors)
    )
    assert observed == HISTORY_DIGESTS[family, n, horizon]


def family_grid(family):
    return sc.grid_from_mapping(
        {
            "model": {"type": family, "params": FAMILY_PARAMS[family]},
            "methods": list(sc.METHOD_NAMES),
            "T": [6],
            "N": [30],
            "replicates": 2,
            "seed": 2034,
            "functional": {"r": 0, "kind": "state_sum"},
        }
    )


def test_simulated_ar1_paths_are_bit_identical():
    observed = {
        "lgm": sc.simulate_lgm(0.9, 0.6, 1.0, 200, sc.make_rng(2032)),
        "svm": sc.simulate_svm(0.95, 0.3, 0.6, 200, sc.make_rng(2033)),
    }
    assert {
        name: digest(x) + digest(y) for name, (x, y) in observed.items()
    } == SIMULATED_AR1_DIGESTS


def test_grid_payloads_are_bit_identical():
    assert {
        family: digest(sc.generate_grid_observations(family_grid(family), 50))
        for family in FAMILY_PARAMS
    } == GRID_PAYLOAD_DIGESTS


def test_svm_grid_runs_end_to_end():
    table = sc.run_grid(family_grid("svm"), workers=1)
    assert not table.has_failures
    assert [row.method for row in table.rows] == list(sc.METHOD_NAMES)
    text = table.to_csv(zero_timings=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SVM_TABLE_DIGEST


def test_simulated_finite_chain_is_bit_identical():
    states, symbols = sc.simulate_finite_hmm(
        CHAIN, CHAIN, [0.25] * 4, 200, sc.make_rng(2028)
    )
    assert digest(states) + digest(symbols) == SIMULATED_DIGEST


@pytest.mark.parametrize("lag", [0, 1])
def test_deterministic_values_are_pinned(problem, lag):
    name, model, history = problem
    functional = lagged_functional(history.horizon, lag)
    backward = sc.ffbs_backward_additive(history, model, functional).value
    forward = sc.ffbs_forward_additive(history, model, functional).value
    assert backward == pytest.approx(VALUES[name][f"backward_{lag}"], rel=1e-12)
    assert forward == pytest.approx(VALUES[name][f"forward_{lag}"], rel=1e-12)


def test_path_space_value_is_pinned(problem):
    name, model, history = problem
    value = sc.path_space_estimate(
        model,
        sc.bootstrap_proposal(model),
        sc.state_sum_functional(history.horizon),
        history.n_particles,
        sc.make_rng(11),
    ).value
    # the genealogy estimate is a filter run and one weighted sum, so its
    # bits are pinned, not a tolerance
    assert value == VALUES[name]["path_space"]


# the bytes of every CSV writer on fixed inputs: observations simulated
# at seed 2050 (T=20), filter dumps of lgm (float positions) and finite
# (int positions) at N=6, T=4, the Kalman moments of those observations,
# and a variance table with a NaN-flagged row in both timing modes
WRITER_DIGESTS = {
    "observations": (
        "4969da927d876fd455e1baf3db6e4ffe6c50d707c1ef4f3821a3a1ce5dee5071"
    ),
    "history_lgm": (
        "cd4bce572383f7cc6ac505d98971f9be9d5daf6a46b5c812b192db5613150c93"
    ),
    "history_finite": (
        "0d64b7499ecc115bad580146a5afd10b63afbe544eaf3544b0426413a10013b1"
    ),
    "kalman": (
        "5cb980d939d102ea04729f4d5ddfa02cc67d6171324c6a8a6ec8852408051947"
    ),
    "table": "51bc10d6b5e616d8c5135ea8b4401a13d8613df1542ec79c40389cfa7f058274",
    "table_zero_timings": (
        "c5b999a25adaa9e102451f445f5d5148f402e68e0175237e6a4548ee076a4e6b"
    ),
}

# the same observations through the CLI: `generate`, `oracle kalman` in
# both modes, and `smooth --zero-timings` (N=40, seed 7) for each method
CLI_DIGESTS = {
    "generate": (
        "4969da927d876fd455e1baf3db6e4ffe6c50d707c1ef4f3821a3a1ce5dee5071"
    ),
    "oracle_kalman": (
        "5cb980d939d102ea04729f4d5ddfa02cc67d6171324c6a8a6ec8852408051947"
    ),
    "oracle_kalman_sum": (
        "ac10856536e5075579d9869025c7d6097e9e4dc56264ccb918b4a2ccbda8ea3b"
    ),
    "ffbs_backward": (
        "306821c8398d113ecbef260747f3534fe22cb36402835371c7c0e9cf0c85da8e"
    ),
    "ffbs_forward": (
        "80a250464cd42dc94b27dd4652ac2c90b5f77f40f5ec95592f586ec7299688c1"
    ),
    "ffbsi_direct": (
        "3dc29ffccc7fd74070e4b72a14b80c92a616672036449fd13d46f5818e567798"
    ),
    "ffbsi_rejection": (
        "6853faf0d37bae425c51d75675b39e10c7e2418d733e745bf25f4be4a6cc5f88"
    ),
    "path_space": (
        "88aa2dedaca1cdde7252fee126c5400b73c6824bc2ea29bb09468f84d9820157"
    ),
}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def written(writer, *args) -> str:
    # the writers take the file first or last
    buffer = io.StringIO()
    if writer is sc.write_observations_csv:
        writer(buffer, *args)
    else:
        writer(*args, buffer)
    return buffer.getvalue()


def writer_outputs():
    x, y = sc.simulate_lgm(0.9, 0.6, 1.0, 20, sc.make_rng(2050))
    outputs = {"observations": written(sc.write_observations_csv, x, y)}
    for family in ("lgm", "finite"):
        params = FAMILY_PARAMS[family]
        _, payload = FAMILIES[family].simulate(params, 4, sc.make_rng(2051))
        model = FAMILIES[family].build(params, payload)
        history = sc.run_filter(
            model, sc.bootstrap_proposal(model), 6, 4, sc.make_rng(2052)
        )
        outputs[f"history_{family}"] = written(sc.dump_history_csv, history)
    outputs["kalman"] = written(
        sc.write_kalman_csv, sc.kalman_smooth(0.9, 0.6, 1.0, y)
    )
    rows = [
        sc.VarianceRow(
            method="ffbs_backward", horizon=20, n_particles=40, lag=0,
            variance=1.0 / 3.0, mean_estimate=-2.5e-7,
            mean_wall_seconds=0.012345678901234567, replicates=3,
        ),
        sc.VarianceRow(
            method="path_space", horizon=20, n_particles=40, lag=0,
            variance=math.nan, mean_estimate=math.nan,
            mean_wall_seconds=1e-3, replicates=3,
            error="RuntimeError: flagged",
        ),
    ]
    table = sc.VarianceTable(rows=rows)
    outputs["table"] = table.to_csv()
    outputs["table_zero_timings"] = table.to_csv(zero_timings=True)
    return outputs


def test_csv_writers_are_byte_identical():
    observed = {name: text_digest(text) for name, text in writer_outputs().items()}
    assert observed == WRITER_DIGESTS


def test_cli_outputs_are_byte_identical(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    commands = {
        "generate": ["generate", "--model", "lgm", *LGM_FLAGS,
                     "--horizon", "20", "--seed", "2050", "--out", str(data)],
        "oracle_kalman": ["oracle", "kalman", *LGM_FLAGS, "--data", str(data)],
        "oracle_kalman_sum": ["oracle", "kalman", *LGM_FLAGS, "--data",
                              str(data), "--sum"],
    }
    for method in sc.METHOD_NAMES:
        commands[method] = [
            "smooth", "--data", str(data), "--model", "lgm", *LGM_FLAGS,
            "--method", method, "--n", "40", "--seed", "7", "--zero-timings",
        ]
    observed = {}
    for name, argv in commands.items():
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        observed[name] = text_digest(data.read_text() if name == "generate" else out)
    assert observed == CLI_DIGESTS
