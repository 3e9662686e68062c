import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothcore as sc
from conftest import make_history, run_hmm_filter


def lgm_setup(horizon=8, seed=1):
    rng = sc.make_rng(seed)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, horizon, rng)
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    return model, y


def test_bootstrap_log_weights_are_observation_densities():
    model, _ = lgm_setup()
    history = sc.run_filter(
        model, sc.bootstrap_proposal(model), 64, 8, sc.make_rng(3)
    )
    for t in range(9):
        expected = model.observation_log_density(t, history.positions[t])
        assert np.allclose(history.log_weights[t], expected, atol=1e-12)


def test_single_particle_run():
    model, _ = lgm_setup(horizon=5)
    history = sc.run_filter(model, sc.bootstrap_proposal(model), 1, 5, sc.make_rng(2))
    assert history.n_particles == 1
    assert history.horizon == 5
    assert np.array_equal(history.ancestors, np.zeros((5, 1), dtype=np.int64))
    assert np.allclose(sc.normalized_weights(history, 3), [1.0])


def test_same_seed_reproduces_history_bit_for_bit():
    model, _ = lgm_setup()
    a = sc.run_filter(model, sc.bootstrap_proposal(model), 32, 8, sc.make_rng(7))
    b = sc.run_filter(model, sc.bootstrap_proposal(model), 32, 8, sc.make_rng(7))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.log_weights, b.log_weights)
    assert np.array_equal(a.ancestors, b.ancestors)


def test_streamed_and_stored_runs_agree():
    model, _ = lgm_setup()
    proposal = sc.bootstrap_proposal(model)
    history = sc.run_filter(model, proposal, 16, 8, sc.make_rng(11))
    streamed = list(sc.filter_steps(model, proposal, 16, 8, sc.make_rng(11)))
    replayed = list(sc.history_steps(history))
    assert len(streamed) == len(replayed) == 9
    for live, stored in zip(streamed, replayed):
        assert live.t == stored.t
        assert np.array_equal(live.positions, stored.positions)
        assert np.array_equal(live.log_weights, stored.log_weights)
        if live.t == 0:
            assert live.ancestors is None and stored.ancestors is None
        else:
            assert np.array_equal(live.ancestors, stored.ancestors)


def test_filter_marginals_match_exact_hmm(hmm2):
    exact, _ = sc.exact_hmm_filter(hmm2, 3)
    replicates = 30
    estimates = np.empty((replicates, 4))
    for k in range(replicates):
        history = run_hmm_filter(hmm2, 5000, 3, sc.derive_seed(21, k))
        for t in range(4):
            estimates[k, t] = sc.filter_estimate(
                history, t, lambda x: (x == 0).astype(float)
            )
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(replicates)
    for t in range(4):
        assert abs(mean[t] - exact[t, 0]) < 3.0 * se[t] + 1e-4


def test_filter_means_match_kalman():
    model, y = lgm_setup(horizon=6, seed=13)
    kalman = sc.kalman_smooth(0.9, 0.6, 1.0, y)
    replicates = 30
    times = [0, 3, 6]
    estimates = np.empty((replicates, len(times)))
    for k in range(replicates):
        history = sc.run_filter(
            model, sc.bootstrap_proposal(model), 4000, 6,
            sc.make_rng(sc.derive_seed(22, k)),
        )
        for j, t in enumerate(times):
            estimates[k, j] = sc.filter_estimate(history, t, lambda x: x)
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(replicates)
    for j, t in enumerate(times):
        assert abs(mean[j] - kalman.filtered_mean[t]) < 3.0 * se[j] + 1e-3


def test_permuting_a_time_slice_leaves_estimates_invariant():
    rng = sc.make_rng(17)
    positions = rng.normal(size=(3, 6))
    log_weights = rng.normal(size=(3, 6))
    history = make_history(positions, log_weights)
    perm = rng.permutation(6)
    permuted = make_history(
        np.vstack([positions[0], positions[1][perm], positions[2]]),
        np.vstack([log_weights[0], log_weights[1][perm], log_weights[2]]),
    )
    assert np.allclose(
        sc.normalized_weights(history, 1)[perm],
        sc.normalized_weights(permuted, 1),
    )
    f = np.tanh
    assert sc.filter_estimate(permuted, 1, f) == pytest.approx(
        sc.filter_estimate(history, 1, f), rel=1e-12
    )
    assert sc.effective_sample_size(permuted, 1) == pytest.approx(
        sc.effective_sample_size(history, 1), rel=1e-12
    )


def test_degenerate_weights_raise_with_failing_step():
    model, _ = lgm_setup(horizon=4)

    def broken_obs(t, x):
        base = model.observation_log_density(t, x)
        return np.full_like(np.asarray(base, dtype=float), -np.inf) if t == 2 else base

    broken = dataclasses.replace(model, observation_log_density=broken_obs)
    with pytest.raises(sc.FilterDegeneracyError) as info:
        sc.run_filter(broken, sc.bootstrap_proposal(broken), 16, 4, sc.make_rng(1))
    assert info.value.time_index == 2

    all_broken = dataclasses.replace(
        model,
        observation_log_density=lambda t, x: np.full(np.shape(x), -np.inf),
    )
    with pytest.raises(sc.FilterDegeneracyError) as info:
        sc.run_filter(
            all_broken, sc.bootstrap_proposal(all_broken), 16, 4, sc.make_rng(1)
        )
    assert info.value.time_index == 0


def test_argument_validation():
    model, _ = lgm_setup(horizon=3)
    proposal = sc.bootstrap_proposal(model)
    with pytest.raises(ValueError):
        sc.run_filter(model, proposal, 0, 3, sc.make_rng(0))
    with pytest.raises(ValueError):
        sc.run_filter(model, proposal, 8, -1, sc.make_rng(0))
    with pytest.raises(ValueError):
        # the model carries only 9 observation terms
        sc.run_filter(model, proposal, 8, 20, sc.make_rng(0))
    history = sc.run_filter(model, proposal, 8, 3, sc.make_rng(0))
    with pytest.raises(IndexError):
        sc.normalized_weights(history, 4)
    with pytest.raises(IndexError):
        sc.filter_estimate(history, -1, lambda x: x)


def test_sizes_are_checked_before_anything_is_allocated():
    model, _ = lgm_setup(horizon=10)
    proposal = sc.bootstrap_proposal(model)
    with pytest.raises(ValueError, match="n_particles must be >= 1, got -3"):
        sc.run_filter(model, proposal, -3, 3, sc.make_rng(0))
    with pytest.raises(ValueError, match="horizon must be >= 0, got -2"):
        sc.run_filter(model, proposal, 8, -2, sc.make_rng(0))
    # a history this size would take 745 GiB
    with pytest.raises(ValueError, match="exceeds the 11 observation terms"):
        sc.run_filter(model, proposal, 10**6, 10**5, sc.make_rng(0))
    # the stream checks at the call, not at its first step
    with pytest.raises(ValueError, match="n_particles"):
        sc.filter_steps(model, proposal, 0, 3, sc.make_rng(0))


def test_effective_sample_size_extremes():
    positions = np.zeros((1, 5))
    equal = make_history(positions, np.zeros((1, 5)))
    assert sc.effective_sample_size(equal, 0) == pytest.approx(5.0)
    one_hot = make_history(positions, np.array([[0.0, -np.inf, -np.inf, -np.inf, -np.inf]]))
    assert sc.effective_sample_size(one_hot, 0) == pytest.approx(1.0)


def test_categorical_indices_boundaries():
    probs = np.array([0.2, 0.3, 0.5])
    uniforms = np.array([0.0, 0.19999, 0.2, 0.5, 0.9999])
    assert np.array_equal(
        sc.categorical_indices(probs, uniforms), [0, 0, 1, 2, 2]
    )
    # the cdf is closed at 1, so u close to 1 stays in range
    ragged = np.array([0.3, 0.3, 0.3999])
    assert sc.categorical_indices(ragged, np.array([0.99999]))[0] == 2


def test_categorical_indices_never_draw_a_trailing_zero_probability():
    # ten 0.1s sum to 1 - 2**-53, so the uniform below 1 sits on the
    # rounded total; the slack goes to index 9, not to index 10
    assert sc.categorical_indices([0.1] * 10 + [0.0], [1 - 2**-53])[0] == 9
    assert sc.categorical_indices([0.1] * 10 + [0.0, 0.0], [1 - 2**-53])[0] == 9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=30),
    st.floats(-100, 100),
)
def test_exp_normalize_properties(log_values, shift):
    w = sc.exp_normalize(np.array(log_values))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)
    shifted = sc.exp_normalize(np.array(log_values) + shift)
    assert np.allclose(w, shifted, atol=1e-12)


def test_exp_normalize_degenerate_inputs():
    with pytest.raises(ValueError):
        sc.exp_normalize(np.array([-np.inf, -np.inf]))
    w = sc.exp_normalize(np.array([-np.inf, 3.0, -np.inf]))
    assert np.array_equal(w, [0.0, 1.0, 0.0])


def test_history_dump_schema(tmp_path):
    model, _ = lgm_setup(horizon=2)
    history = sc.run_filter(model, sc.bootstrap_proposal(model), 3, 2, sc.make_rng(4))
    buffer = io.StringIO()
    sc.dump_history_csv(history, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t,particle,position,log_weight,ancestor"
    assert len(lines) == 1 + 3 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[4] == "-1"
    assert float(first[2]) == history.positions[0, 0]
    later = lines[1 + 3].split(",")
    assert later[0] == "1" and int(later[4]) == history.ancestors[0, 0]
