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

import numpy as np
import pytest

import smoothcore as sc

CHAIN = [[0.7 if i == j else 0.1 for j in range(4)] for i in range(4)]
GAUSSIAN_PEAK = 1.0 / (0.6 * np.sqrt(2.0 * np.pi))


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
        "rejection": "d3dc25e3183f089dccdaef9a5e1fcfc831f74617dbd068f5a4ea36fdc835a562",
        "fallback": "f45a517eee91b8b9aff097f3f8c452c71973f8ec6401f997a87546ae297bee22",
        "matrices": "ec14c14380ab0ea39cd749eaac87fdf5af8317e5235bd015c565953c65418efd",
    },
    "finite": {
        "positions": "15e418b91ebdd591d4a530ce56c49560284de81fdbf0ee7738310643047a2b74",
        "direct": "bc1d81559872040f4aff9a87391e0ed1ab30e375a253d03d31332d753400a506",
        "rejection": "43dcec732447d0eae28e4500b0f1a22874c8809c6ca3c1f48acfaa01399cd78f",
        "fallback": "c77b2666148cce8737980bbe5ee265be954d0dce2127e0d8729ab80ec377622a",
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
    assert stats.fallbacks > 0
    observed = {
        "positions": digest(history.positions),
        "direct": digest(
            sc.ffbsi_sample_paths(history, model, n_paths, sc.make_rng(7))
        ),
        "rejection": digest(
            sc.ffbsi_rejection_sample_paths(history, model, n_paths, sc.make_rng(8))
        ),
        "fallback": digest(fallback),
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
    assert stats.fallbacks > 0
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
SVM_TABLE_DIGEST = "75a36c292cb777a6c361184e39b650fd39417565c6bc925bf60ffa4653e5bba7"


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
    assert value == pytest.approx(VALUES[name]["path_space"], rel=1e-12)
