import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import smoothcore as sc
from bruteforce import (
    backward_transition,
    brute_ffbs_value,
    normalized_filter_weights,
    path_functional_value,
    trajectory_probabilities,
)
from conftest import (
    B2,
    CHI2,
    P2,
    chi_square_pvalue,
    make_history,
    random_hmm,
    run_hmm_filter,
)
from smoothcore import smoothing
from smoothcore.models import categorical_rows


def small_hmm(horizon, symbols=None):
    if symbols is None:
        symbols = [0, 1, 0, 1, 0, 1][: horizon + 1]
    E = sc.emissions_from_symbols(B2, symbols)
    return sc.make_finite_hmm(P2, E, CHI2)


def lgm_case(horizon, n_particles, seed, phi=0.9):
    rng = sc.make_rng(seed)
    _, y = sc.simulate_lgm(phi, 0.6, 1.0, horizon, rng)
    model = sc.make_lgm(phi, 0.6, 1.0, y)
    history = sc.run_filter(
        model, sc.bootstrap_proposal(model), n_particles, horizon, rng
    )
    return model, history


def test_backward_row_hand_computed():
    model = small_hmm(1)
    history = make_history(
        positions=np.array([[0, 1, 0], [1, 0, 0]], dtype=np.int64),
        log_weights=np.log([[0.2, 0.5, 0.3], [1.0, 1.0, 1.0]]),
    )
    row = sc.backward_row(history, model, 0, 0)
    # weights (0.2, 0.5, 0.3) against P[x_j, 1] = (0.3, 0.6, 0.3)
    assert np.allclose(row, [2 / 15, 10 / 15, 3 / 15], atol=1e-15)
    matrix = sc.backward_matrix(history, model, 0)
    assert np.array_equal(matrix[0], row)


def test_backward_rows_match_bruteforce_and_sum_to_one():
    model, history = lgm_case(horizon=4, n_particles=6, seed=31)
    for t in range(4):
        matrix = sc.backward_matrix(history, model, t)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(matrix, backward_transition(history, model, t), atol=1e-12)


def test_single_particle_backward_row_is_trivial():
    model, history = lgm_case(horizon=3, n_particles=1, seed=5)
    for t in range(3):
        assert np.array_equal(
            sc.backward_row(history, model, t, 0), [1.0]
        )


def test_backward_row_index_validation():
    model, history = lgm_case(horizon=2, n_particles=4, seed=6)
    with pytest.raises(IndexError):
        sc.backward_row(history, model, 2, 0)
    with pytest.raises(IndexError):
        sc.backward_row(history, model, -1, 0)
    with pytest.raises(IndexError):
        sc.backward_row(history, model, 0, 4)
    with pytest.raises(IndexError):
        sc.backward_matrix(history, model, 2)


def anchor_bins(kernel, targets=None):
    """The number of anchor bins a kernel's blocks fall into."""
    return len({id(column) for _, _, column, *_ in kernel._blocks(targets)})


@pytest.mark.parametrize(
    "block_rows, build",
    [pytest.param(rows, "gaussian", id=str(rows)) for rows in (1, 3, 7)]
    + [pytest.param(rows, "generic", id=f"{rows}-generic") for rows in (1, 3, 7)]
    + [pytest.param(rows, "binned", id=f"{rows}-binned") for rows in (1, 3, 7)],
)
def test_blocked_kernel_operations_match_the_full_matrix(monkeypatch, block_rows, build):
    model, history = lgm_case(horizon=3, n_particles=20, seed=121)
    positions = history.positions.copy()
    if build == "generic":
        # the kernel then calls the model's density for its rows
        model = dataclasses.replace(model, gaussian_transition=None)
    elif build == "binned":
        # each time slice a shuffled grid 2 apart: wide enough that the
        # targets fall into several anchor bins
        positions = 2.0 * np.argsort(positions, axis=1)
    # repeated target states share one row
    positions[2, 12:] = positions[2, 4:12]
    history = make_history(positions, history.log_weights)
    t = 1
    whole = smoothing.BackwardKernel(
        model, t, positions[t], history.log_weights[t], positions[t + 1]
    )
    assert whole.block >= 20
    assert (anchor_bins(whole) >= 3) == (build == "binned")
    single_block = whole.rows()
    monkeypatch.setattr(smoothing, "_BLOCK_BYTES", 8 * 20 * block_rows)
    kernel = smoothing.BackwardKernel(
        model, t, positions[t], history.log_weights[t], positions[t + 1]
    )
    assert kernel.block == block_rows

    matrix = kernel.rows()
    assert np.array_equal(matrix, single_block)
    # a draw rebuilds a row's entries from its value and shift with the
    # bits of its block
    for values, rows, _, _, _, shifts in kernel._blocks(None):
        sources = np.repeat(np.arange(20)[:, None], len(rows), axis=1)
        assert np.array_equal(kernel._entries(values, shifts, sources).T, rows)
    assert np.array_equal(matrix, sc.backward_matrix(history, model, t))
    assert np.allclose(matrix, backward_transition(history, model, t), atol=1e-12)

    rng = sc.make_rng(122)
    v = rng.random(20)
    s = rng.normal(size=20)
    assert np.allclose(kernel.left(v), v @ matrix, rtol=1e-12, atol=0)
    assert np.allclose(kernel.right(s), matrix @ s, rtol=1e-12, atol=0)
    with_pairs = kernel.right(
        s, pair=lambda targets: np.cos(targets * positions[t][None, :])
    )
    expected = np.sum(
        matrix * (s + np.cos(positions[t + 1][:, None] * positions[t][None, :])), axis=1
    )
    assert np.allclose(with_pairs, expected, rtol=1e-12, atol=0)

    targets = rng.integers(0, 20, size=500)
    uniforms = rng.random(500)
    assert np.array_equal(
        kernel.draw(targets, uniforms), categorical_rows(matrix, uniforms, targets)
    )


# a narrow first chunk, wide enough that its mass and its cumsum may
# round differently, and three full chunks
NARROW = 2 * smoothing._CHUNK // 3
N_DRAW = NARROW + 3 * smoothing._CHUNK
N_ROWS = 40


def draw_kernel(monkeypatch, case, block_rows):
    """A kernel over sources 0..N_DRAW-1 whose positive mass lies on the
    case's support, less every 7th source, which has log weight -inf.
    With ``block_rows``, its blocks hold that many rows."""
    support, sd = DRAW_CASES[case]
    rng = sc.make_rng(131)
    positions = np.arange(N_DRAW, dtype=float)
    log_weights = np.full(N_DRAW, -np.inf)
    log_weights[support] = rng.normal(size=N_DRAW)[support]
    log_weights[::7] = -np.inf
    if case == "binned":
        # a far source of zero weight raises the largest slope, so the
        # targets fall into several anchor bins, while each row stays flat
        # enough that its smallest positive entry still moves its cumsum
        positions[-1] = 3000.0
        log_weights[-1] = -np.inf
    model = sc.make_lgm(0.5, sd, 1.0, [0.0])
    next_positions = np.linspace(0.0, 0.5 * N_DRAW, N_ROWS)
    if block_rows is not None:
        monkeypatch.setattr(smoothing, "_BLOCK_BYTES", 8 * N_DRAW * block_rows)
    kernel = smoothing.BackwardKernel(model, 0, positions, log_weights, next_positions)
    assert kernel.block == block_rows or (block_rows is None and kernel.block >= N_ROWS)
    assert (anchor_bins(kernel) >= 3) == (case == "binned")
    return kernel


# (support, transition sd): in the binned case the 40 targets fall into
# 5 anchor bins, so the draws of one step read several columns
DRAW_CASES = {
    "all chunks": (slice(3, None), 30.0),
    "narrow chunk": (slice(0, NARROW), 30.0),
    "one chunk": (slice(NARROW, NARROW + smoothing._CHUNK), 30.0),
    "binned": (slice(3, None), 6.0),
}
# each case in one block, or in blocks of 7 rows: a step's draws then
# span 6 blocks
DRAW_KERNELS = [
    pytest.param(case, rows, id=case if rows is None else f"{case}-blocks of {rows}")
    for case in sorted(DRAW_CASES)
    for rows in (None, 7)
]


@pytest.mark.parametrize("case, block_rows", DRAW_KERNELS)
def test_kernel_draws_follow_the_backward_rows(monkeypatch, case, block_rows):
    kernel = draw_kernel(monkeypatch, case, block_rows)
    matrix = kernel.rows()
    per_row = 5000
    targets = np.repeat(np.arange(N_ROWS), per_row)
    uniforms = sc.make_rng(132).random(targets.size)
    # with 5000 draws per row the kernel searches each row's full cumsum;
    # with `few` per row, under _CHUNK, it searches chunk masses and then
    # one chunk
    draws = kernel.draw(targets, uniforms)
    few = smoothing._CHUNK // 2
    chunked = np.empty_like(draws)
    for lo in range(0, per_row, few):
        part = (np.arange(N_ROWS)[:, None] * per_row + np.arange(lo, lo + few)).ravel()
        chunked[part] = kernel.draw(targets[part], uniforms[part])
    assert np.array_equal(draws, chunked)
    statistic, cells = 0.0, 0
    for i in range(N_ROWS):
        counts = np.bincount(draws[targets == i], minlength=N_DRAW)
        # a source of zero mass, -inf log weight included, is never drawn
        assert np.all(counts[matrix[i] == 0.0] == 0)
        expected = per_row * matrix[i]
        big = expected >= 5.0
        observed = np.append(counts[big], counts[~big].sum())
        expected = np.append(expected[big], expected[~big].sum())
        keep = expected > 0.0
        statistic += np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
        cells += int(keep.sum()) - 1
    assert stats.chi2.sf(statistic, cells) > 1e-3


# 64 draws per row, over _CHUNK, take the full-row search
@pytest.mark.parametrize("per_row", [1, 64])
@pytest.mark.parametrize("case, block_rows", DRAW_KERNELS)
def test_kernel_draw_ends_land_on_the_outer_sources_of_positive_mass(
    monkeypatch, case, block_rows, per_row
):
    assert 1 < smoothing._CHUNK < 64
    kernel = draw_kernel(monkeypatch, case, block_rows)
    positive = kernel.rows() > 0.0
    first = np.argmax(positive, axis=1)
    last = N_DRAW - 1 - np.argmax(positive[:, ::-1], axis=1)
    targets = np.repeat(np.arange(N_ROWS), per_row)
    below_one = np.nextafter(1.0, 0.0)
    assert np.array_equal(
        kernel.draw(targets, np.zeros(targets.size)), np.repeat(first, per_row)
    )
    assert np.array_equal(
        kernel.draw(targets, np.full(targets.size, below_one)), np.repeat(last, per_row)
    )


def sample_records(monkeypatch):
    """Record every :meth:`BackwardKernel.sample` call with rounds as
    ``(N, distinct states the pending targets hold before each round,
    distinct states sent to the exact draw, whether the last round
    accepted none)``."""
    records = []
    sample, draw = smoothing.BackwardKernel.sample, smoothing.BackwardKernel.draw

    def recorded(kernel, targets, rng, *bound):
        sizes, pending, exact = [], [], []
        density = kernel.model.transition_log_density

        class Recording:
            def random(self, size):
                sizes.append(size)
                return rng.random(size)

        def recording_density(sources, states):
            pending.append(np.unique(states).size)
            return density(sources, states)

        def recording_draw(targets, uniforms):
            exact.append(np.unique(kernel.next_positions[targets]).size)
            return draw(kernel, targets, uniforms)

        kernel.model = dataclasses.replace(
            kernel.model, transition_log_density=recording_density
        )
        kernel.draw = recording_draw
        drawn, proposals, sent = sample(kernel, targets, Recording(), *bound)
        if proposals:
            # each round takes a proposal and an acceptance uniform per
            # pending target, and then calls the density once; the exact
            # draw takes one uniform per target it draws
            n_rounds = len(sizes) // 2
            stalled = bool(sent) and sizes[-3] == sizes[-1]
            records.append(
                (kernel.positions.shape[0], pending[:n_rounds], sum(exact), stalled)
            )
        return drawn, proposals, sent

    monkeypatch.setattr(smoothing.BackwardKernel, "sample", recorded)
    return records


def within_the_default_stop(records):
    """The rounds of each step go on while the pending targets hold more
    than isqrt(N) distinct states, and the exact draw gets at most that
    many unless the last round accepted no target."""
    return records and all(
        all(states > math.isqrt(n) for states in rounds[1:])
        and (exact <= math.isqrt(n) or stalled)
        for n, rounds, exact, stalled in records
    )


@pytest.mark.parametrize("rounds", [None, "default"])
def test_kernel_sample_draws_any_target_array_from_its_rows(monkeypatch, rounds):
    # targets that repeat, come out of order and cover only part of the
    # time t+1 cloud, as a forward-only smoother would pass them
    rng = sc.make_rng(171)
    P = rng.uniform(0.2, 1.0, size=(3, 3))
    P /= P.sum(axis=1, keepdims=True)
    model = sc.make_finite_hmm(P, np.ones((2, 3)), np.full(3, 1.0 / 3.0))
    n = 12
    kernel = smoothing.BackwardKernel(
        model, 0, rng.integers(0, 3, n), rng.normal(size=n), rng.integers(0, 3, 10)
    )
    per_target = 8000
    targets = rng.permutation(np.repeat([7, 2, 5, 9], per_target))
    if rounds is None:
        drawn, proposals, exact = kernel.sample(targets, sc.make_rng(172))
        assert (proposals, exact) == (0, targets.size)
    else:
        log_bound = math.log(model.mixing_bounds.sigma_plus)
        records = sample_records(monkeypatch)
        drawn, proposals, exact = kernel.sample(targets, sc.make_rng(172), log_bound)
        # the rounds stop once the pending targets hold at most isqrt(n)
        # distinct states
        assert proposals >= targets.size
        assert within_the_default_stop(records)
    matrix = kernel.rows(np.array([7, 2, 5, 9]))
    statistic = 0.0
    for target, row in zip([7, 2, 5, 9], matrix):
        counts = np.bincount(drawn[targets == target], minlength=n)
        assert np.all(counts[row == 0.0] == 0)
        expected = per_target * row
        statistic += np.sum((counts - expected) ** 2 / expected)
    assert stats.chi2.sf(statistic, 4 * (n - 1)) > 1e-3


def test_draws_in_parts_match_one_search(monkeypatch):
    # a search budget of a few draws splits one step's targets into parts
    kernel = draw_kernel(monkeypatch, "binned", 7)
    rng = sc.make_rng(133)
    targets = rng.integers(0, N_ROWS, size=300)
    uniforms = rng.random(300)
    whole = kernel.draw(targets, uniforms)
    chunks = -(-N_DRAW // smoothing._CHUNK)
    monkeypatch.setattr(smoothing, "_SEARCH_BYTES", 16 * (chunks + 1) * 37)
    assert np.array_equal(kernel.draw(targets, uniforms), whole)
    assert np.array_equal(
        whole, categorical_rows(kernel.rows(), uniforms, targets)
    )


def test_gaussian_rows_give_sources_of_zero_weight_an_exact_zero(monkeypatch):
    kernel = draw_kernel(monkeypatch, "all chunks", None)
    assert kernel.model.gaussian_transition is not None
    dead = np.isneginf(kernel.log_weights)
    matrix = kernel.rows()
    assert np.all(matrix[:, dead] == 0.0) and np.all(matrix[:, ~dead] > 0.0)
    targets = np.repeat(np.arange(N_ROWS), 100)
    uniforms = sc.make_rng(133).random(targets.size)
    uniforms[::3] = 0.0
    uniforms[1::3] = np.nextafter(1.0, 0.0)
    assert not dead[kernel.draw(targets, uniforms)].any()


def shifted_kernels(family, offset):
    """The t = 2 kernel of a small lgm or svm history, its sources moved
    by ``offset`` and its targets by phi * offset, which leaves the
    kernel the same in exact arithmetic: built from the Gaussian form and
    from the model's density."""
    rng = sc.make_rng(151)
    if family == "lgm":
        _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 4, rng)
        model = sc.make_lgm(0.9, 0.6, 1.0, y)
    else:
        _, y = sc.simulate_svm(0.9, 0.6, 1.0, 4, rng)
        model = sc.make_svm(0.9, 0.6, 1.0, y)
    history = sc.run_filter(model, sc.bootstrap_proposal(model), 200, 4, rng)
    t, phi = 2, model.gaussian_transition.phi
    arguments = (
        t,
        history.positions[t] + offset,
        history.log_weights[t],
        history.positions[t + 1] + phi * offset,
    )
    generic = dataclasses.replace(model, gaussian_transition=None)
    return (
        smoothing.BackwardKernel(model, *arguments),
        smoothing.BackwardKernel(generic, *arguments),
    )


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
@pytest.mark.parametrize("family", ["lgm", "svm"])
def test_gaussian_rows_match_the_density_rows(family, offset):
    # the expansion is centered, so states far from 0 lose no more digits
    # than states near it; uncentered, entries drifted by 7e-10 relative
    # at 1e3 and 6e-6 at 1e5
    gaussian, generic = shifted_kernels(family, offset)
    fast, reference = gaussian.rows(), generic.rows()
    assert np.allclose(fast, reference, rtol=0.0, atol=1e-12)
    large = reference > 1e-12
    assert large.sum() > reference.shape[0]
    error = np.abs(fast - reference)[large] / reference[large]
    assert error.max() <= 1e-12


def wide_kernels(targets=None):
    """Sources and (by default) targets on 0, 1, ..., 199 under the lgm
    kernel N(0.9 x, 0.6^2): spread over far more than one anchor bin.
    Built from the Gaussian form and from the model's density."""
    model = sc.make_lgm(0.9, 0.6, 1.0, [0.0])
    positions = np.arange(200.0)
    arguments = (
        0,
        positions,
        sc.make_rng(161).normal(size=200),
        positions if targets is None else targets,
    )
    generic = dataclasses.replace(model, gaussian_transition=None)
    return (
        smoothing.BackwardKernel(model, *arguments),
        smoothing.BackwardKernel(generic, *arguments),
    )


def assert_rows_match(fast, reference):
    assert np.allclose(fast, reference, rtol=0.0, atol=1e-12)
    large = reference > 1e-12
    error = np.abs(fast - reference)[large] / reference[large]
    assert error.max() <= 1e-12


def test_binned_gaussian_rows_match_the_density_rows():
    # each bin expands about its own anchor; one expansion about the
    # center, unbinned, drifted by 5.6e-12 relative on this grid
    gaussian, generic = wide_kernels()
    assert anchor_bins(gaussian) >= 3
    fast, reference = gaussian.rows(), generic.rows()
    assert_rows_match(fast, reference)
    assert np.allclose(fast.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_an_outlying_target_gets_the_density_row():
    gaussian, generic = shifted_kernels("lgm", 0.0)
    means = gaussian.model.gaussian_transition.phi * gaussian.positions
    sd = gaussian.model.gaussian_transition.sd
    targets = gaussian.next_positions.copy()
    targets[5] = means.max() + 50.0 * sd
    gaussian, generic = (
        smoothing.BackwardKernel(
            kernel.model, kernel.t, kernel.positions, kernel.log_weights, targets
        )
        for kernel in (gaussian, generic)
    )
    fast, reference = gaussian.rows(), generic.rows()
    assert fast[5].sum() == pytest.approx(1.0, abs=1e-12)
    assert_rows_match(fast, reference)


def test_a_flat_gaussian_kernel_raises_no_floating_point_error():
    # with phi = 0 every slope is 0: one bin, and nothing to divide by
    model = sc.make_lgm(0.0, 0.6, 1.0, [0.0])
    rng = sc.make_rng(171)
    log_weights = rng.normal(size=30)
    kernel = smoothing.BackwardKernel(
        model, 0, rng.normal(size=30), log_weights, rng.normal(size=30)
    )
    targets, uniforms = rng.integers(0, 30, size=100), rng.random(100)
    with np.errstate(all="raise"):
        matrix = kernel.rows()
        left = kernel.left(np.full(30, 1.0 / 30))
        right = kernel.right(np.arange(30.0))
        drawn = kernel.draw(targets, uniforms)
    weights = sc.exp_normalize(log_weights)
    assert np.allclose(matrix, weights[None, :], rtol=1e-14, atol=0.0)
    assert np.allclose(left, weights, rtol=1e-14, atol=0.0)
    assert np.allclose(right, weights @ np.arange(30.0), rtol=1e-14, atol=0.0)
    assert np.array_equal(drawn, categorical_rows(matrix, uniforms, targets))


def degenerate_targets_named(pair):
    """The (t, target) each build names when every source has log weight
    -inf, so that no row has support: through ``rows()`` and ``draw``."""
    named = []
    for built in pair:
        kernel = smoothing.BackwardKernel(
            built.model,
            built.t,
            built.positions,
            np.full_like(built.log_weights, -np.inf),
            built.next_positions,
        )
        for targets in (None, np.array([7, 3, 5, 3])):
            with pytest.raises(sc.DegenerateBackwardRowError) as info:
                if targets is None:
                    kernel.rows()
                else:
                    kernel.draw(targets, np.full(targets.size, 0.5))
            named.append((info.value.time_index, info.value.target_index))
    return named


def test_gaussian_rows_name_the_degenerate_target_the_density_rows_name():
    named = degenerate_targets_named(shifted_kernels("lgm", 0.0))
    assert named[:2] == named[2:]
    assert named[0][0] == 2


def test_binned_rows_name_the_degenerate_target_the_density_rows_name():
    # the draw's targets 7, 3 and 5 fall into three anchor bins
    assert anchor_bins(wide_kernels(np.array([7.0, 3.0, 5.0]))[0]) == 3
    named = degenerate_targets_named(wide_kernels())
    assert named[:2] == named[2:]
    assert named[0][0] == 0


def test_a_target_off_the_real_line_is_named_by_both_builds():
    named = []
    for states in ([4.0, np.nan, 9.0], [4.0, np.inf, np.nan], [-np.inf, 4.0, 9.0]):
        pair = wide_kernels(np.array(states))
        for kernel in pair:
            with pytest.raises(sc.DegenerateBackwardRowError) as info:
                kernel.rows()
            named.append(info.value.target_index)
    assert named == [1, 1, 1, 1, 0, 0]


def test_degenerate_backward_row_raises():
    model = small_hmm(1)
    original = model.transition_log_density

    def gapped(x, x_next):
        base = np.asarray(original(x, x_next), dtype=float)
        return np.where((np.asarray(x) == 1) & (np.asarray(x_next) == 1), -np.inf, base)

    broken = dataclasses.replace(model, transition_log_density=gapped)
    history = make_history(
        positions=np.array([[0, 1], [1, 1]], dtype=np.int64),
        log_weights=np.array([[-np.inf, 0.0], [0.0, 0.0]]),
    )
    with pytest.raises(sc.DegenerateBackwardRowError) as info:
        sc.backward_matrix(history, broken, 0)
    assert info.value.time_index == 0
    # both targets sit in state 1; the first one is named
    assert info.value.target_index == 0


def test_identity_kernel_rows_equal_filter_weights():
    # phi = 0 makes the transition density source-independent
    model, history = lgm_case(horizon=5, n_particles=32, seed=8, phi=0.0)
    for t in range(5):
        matrix = sc.backward_matrix(history, model, t)
        weights = sc.normalized_weights(history, t)
        assert np.max(np.abs(matrix - weights[None, :])) < 1e-12


@pytest.mark.parametrize("lag", [0, 1, 2])
def test_ffbs_backward_matches_enumeration_on_finite_chain(lag):
    horizon = 3
    model = small_hmm(horizon)
    history = run_hmm_filter(model, 3, horizon, seed=41)
    functional = sc.AdditiveFunctional(
        lag=lag,
        horizon=horizon,
        term=lambda t, *xs: (t + 1.0) * sum(np.asarray(x, dtype=float) for x in xs),
    )
    expected = brute_ffbs_value(history, model, functional)
    estimate = sc.ffbs_backward_additive(history, model, functional)
    assert estimate.value == pytest.approx(expected, rel=1e-9)
    assert estimate.method == "ffbs_backward"
    assert estimate.n_particles == 3 and estimate.horizon == horizon


@pytest.mark.parametrize("lag", [0, 1, 2])
def test_ffbs_backward_matches_enumeration_on_lgm(lag):
    model, history = lgm_case(horizon=2, n_particles=4, seed=51)
    functional = sc.AdditiveFunctional(
        lag=lag,
        horizon=2,
        term=lambda t, *xs: math.prod(
            (np.asarray(x, dtype=float) + 0.3 for x in xs), start=np.float64(1.0)
        ),
    )
    expected = brute_ffbs_value(history, model, functional)
    estimate = sc.ffbs_backward_additive(history, model, functional)
    assert estimate.value == pytest.approx(expected, rel=1e-9)


def test_finite_fast_path_agrees_with_generic_contraction():
    horizon = 6
    model = small_hmm(horizon, symbols=[0, 1, 1, 0, 0, 1, 0])
    history = run_hmm_filter(model, 40, horizon, seed=43)
    functional = sc.state_sum_functional(horizon)
    fast = sc.ffbs_backward_additive(history, model, functional)
    # strip the finite tables so the generic O(T N^2) path runs
    opaque = dataclasses.replace(model, finite=None)
    generic = sc.ffbs_backward_additive(history, opaque, functional)
    assert fast.value == pytest.approx(generic.value, rel=1e-12)


@pytest.mark.parametrize("lag", [0, 1, 2])
def test_constant_terms_sum_exactly(lag):
    model, history = lgm_case(horizon=5, n_particles=8, seed=61)
    functional = sc.AdditiveFunctional(
        lag=lag, horizon=5, term=lambda t, *xs: np.broadcast_arrays(
            np.asarray(2.5), *[np.asarray(x, dtype=float) for x in xs]
        )[0]
    )
    estimate = sc.ffbs_backward_additive(history, model, functional)
    assert estimate.value == pytest.approx(2.5 * (5 - lag + 1), rel=1e-12)


@pytest.mark.parametrize("lag", [0, 1])
def test_forward_equals_backward(lag):
    for seed in range(5):
        model, history = lgm_case(horizon=7, n_particles=20, seed=70 + seed)
        functional = sc.AdditiveFunctional(
            lag=lag,
            horizon=7,
            term=lambda t, *xs: sum(np.sin(np.asarray(x, dtype=float)) for x in xs),
        )
        backward = sc.ffbs_backward_additive(history, model, functional)
        forward = sc.ffbs_forward_additive(history, model, functional)
        assert forward.value == pytest.approx(backward.value, rel=1e-9)
        assert forward.method == "ffbs_forward"


def test_forward_accepts_a_live_stream():
    horizon = 6
    rng = sc.make_rng(77)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, horizon, rng)
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    proposal = sc.bootstrap_proposal(model)
    functional = sc.state_sum_functional(horizon)
    stream_value = sc.ffbs_forward_additive(
        sc.filter_steps(model, proposal, 16, horizon, sc.make_rng(78)),
        model,
        functional,
    )
    history = sc.run_filter(model, proposal, 16, horizon, sc.make_rng(78))
    stored_value = sc.ffbs_forward_additive(history, model, functional)
    assert stream_value.value == pytest.approx(stored_value.value, rel=1e-12)


def test_forward_rejects_unsupported_lags_and_short_streams():
    model, history = lgm_case(horizon=4, n_particles=8, seed=81)
    too_deep = sc.AdditiveFunctional(
        lag=2, horizon=4, term=lambda t, a, b, c: a + b + c
    )
    with pytest.raises(sc.UnsupportedLagError):
        sc.ffbs_forward_additive(history, model, too_deep)
    short = sc.AdditiveFunctional(lag=0, horizon=9, term=lambda t, x: x)
    with pytest.raises(ValueError):
        sc.ffbs_forward_additive(history, model, short)


@pytest.mark.parametrize(
    "order, bad",
    [
        ([0, 1, 2, 4, 5, 6], 4),
        ([0, 1, 2, 2, 3, 4, 5, 6], 2),
        ([1, 2, 3, 4, 5, 6], 1),
    ],
    ids=["skipped", "repeated", "late start"],
)
def test_forward_refuses_a_stream_out_of_step(order, bad):
    # each of these streams ends at the horizon, so without the check the
    # call returned a wrong value
    model, history = lgm_case(horizon=6, n_particles=50, seed=83)
    functional = sc.state_sum_functional(6)
    steps = list(sc.history_steps(history))
    with pytest.raises(ValueError, match=rf"\bt={bad}\b"):
        sc.ffbs_forward_additive((steps[t] for t in order), model, functional)


def test_forward_refuses_an_empty_stream():
    model, _ = lgm_case(horizon=6, n_particles=50, seed=83)
    with pytest.raises(ValueError, match="empty"):
        sc.ffbs_forward_additive(iter(()), model, sc.state_sum_functional(6))


def test_backward_refuses_a_lag_grid_over_the_memory_budget():
    # at N = 1000 and lag 2 each N^3 array would take 8 GB; the call
    # raises before the model is asked for any backward row (without
    # its Gaussian kernel, the model's density builds every row)
    def no_rows(x, x_next):
        raise AssertionError("a backward row was built")

    n = 1000
    model = dataclasses.replace(
        sc.make_lgm(0.9, 0.6, 1.0, np.zeros(4)),
        transition_log_density=no_rows,
        gaussian_transition=None,
    )
    history = make_history(np.zeros((4, n)), np.zeros((4, n)))
    functional = sc.AdditiveFunctional(
        lag=2, horizon=3, term=lambda t, a, b, c: a + b + c
    )
    with pytest.raises(sc.UnsupportedLagError) as refused:
        sc.ffbs_backward_additive(history, model, functional)
    message = str(refused.value)
    assert "lag 2" in message and "N=1000" in message
    assert str(8 * n**3) in message and str(smoothing._LAG_GRID_BYTES) in message


def ffbsi_small_case():
    horizon = 2
    model = small_hmm(horizon)
    history = run_hmm_filter(model, 3, horizon, seed=90)
    return model, history


def test_direct_sampler_law_matches_enumeration():
    model, history = ffbsi_small_case()
    probs = trajectory_probabilities(history, model)
    paths = sc.ffbsi_sample_paths(history, model, 50_000, sc.make_rng(91))
    assert paths.shape == (50_000, 3)
    assert chi_square_pvalue(paths, probs, 3) > 0.001


def test_rejection_sampler_law_matches_enumeration():
    model, history = ffbsi_small_case()
    probs = trajectory_probabilities(history, model)
    paths, counters = sc.ffbsi_rejection_sample_paths(
        history, model, 50_000, sc.make_rng(92), return_stats=True
    )
    assert chi_square_pvalue(paths, probs, 3) > 0.001
    assert counters.accepted + 0 <= counters.proposals
    floor = model.mixing_bounds.sigma_minus / model.mixing_bounds.sigma_plus
    assert counters.acceptance_rate > floor - 3.0 / np.sqrt(counters.proposals)
    # the law holds for the draws sent to the exact row too
    assert counters.fallbacks > 0


def test_rejection_fallback_still_targets_the_law():
    # under the default stop about one draw in six of this case reaches
    # the exact row; the law holds on a second, independent stream
    model, history = ffbsi_small_case()
    probs = trajectory_probabilities(history, model)
    paths, counters = sc.ffbsi_rejection_sample_paths(
        history, model, 50_000, sc.make_rng(93), return_stats=True
    )
    assert counters.fallbacks > 0
    assert chi_square_pvalue(paths, probs, 3) > 0.001


def test_flat_kernel_accepts_every_proposal():
    flat = np.array([[0.5, 0.5], [0.5, 0.5]])
    E = sc.emissions_from_symbols(B2, [0, 1, 0])
    model = sc.make_finite_hmm(flat, E, CHI2)
    assert model.mixing_bounds.rho == 0.0
    history = run_hmm_filter(model, 16, 2, seed=94)
    _, counters = sc.ffbsi_rejection_sample_paths(
        history, model, 2000, sc.make_rng(95), return_stats=True
    )
    assert counters.accepted == counters.proposals
    assert counters.fallbacks == 0


class ScriptedUniforms:
    """A generator stand-in whose k-th ``random`` call returns the k-th
    value, repeated."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size):
        return np.full(size, self.values.pop(0))


def test_rejection_never_proposes_a_zero_weight_source():
    # at t = 0 the last particle has weight 0 and the others 0.1 each,
    # summing to 1 - 2**-53: the proposal uniform sits on that total and
    # the acceptance uniform 0 accepts any source
    positions = np.array([np.linspace(-1.0, 1.0, 11), np.zeros(11)])
    log_weights = np.array([[0.0] * 10 + [-np.inf], [0.0] * 11])
    history = make_history(positions, log_weights)
    model = sc.make_lgm(0.9, 0.6, 1.0, np.zeros(2))
    rng = ScriptedUniforms(0.0, 1 - 2**-53, 0.0)
    paths, counters = sc.ffbsi_rejection_sample_paths(
        history, model, 4, rng, return_stats=True
    )
    assert np.array_equal(paths[:, 0], [9] * 4)
    assert counters.fallbacks == 0


def test_rejection_needs_mixing_bounds():
    model, history = lgm_case(horizon=3, n_particles=8, seed=96)
    unbounded = dataclasses.replace(model, mixing_bounds=None)
    with pytest.raises(sc.UnsupportedModelError):
        sc.ffbsi_rejection_sample_paths(history, unbounded, 10, sc.make_rng(0))
    with pytest.raises(sc.UnsupportedModelError):
        sc.estimate_once(
            unbounded, sc.state_sum_functional(3), "ffbsi_rejection", 8, 0
        )


def test_rejection_refuses_a_bound_below_the_transition_density():
    # the 4-state chain's largest entry is 0.7: under sigma_plus = 0.2 a
    # proposal of ratio above 1 would always be accepted, so the accepted
    # draws would follow min(1, ratio) and not the row
    chain = [[0.7 if i == j else 0.1 for j in range(4)] for i in range(4)]
    _, symbols = sc.simulate_finite_hmm(chain, chain, [0.25] * 4, 10, sc.make_rng(69))
    model = sc.make_finite_hmm(
        chain, sc.emissions_from_symbols(chain, symbols), [0.25] * 4
    )
    history = run_hmm_filter(model, 50, 10, seed=70)
    low = dataclasses.replace(model, mixing_bounds=sc.MixingBounds(sigma_plus=0.2))
    with pytest.raises(ValueError, match=r"density at t=\d+ exceeds sigma_plus = 0\.2"):
        sc.ffbsi_rejection_sample_paths(history, low, 100, sc.make_rng(71))
    with pytest.raises(ValueError, match="exceeds sigma_plus"):
        sc.estimate_once(low, sc.state_sum_functional(10), "ffbsi_rejection", 50, 0)


def test_gaussian_rejection_sampler_law_matches_enumeration(monkeypatch):
    # sigma_plus is the exact kernel peak; with 50k paths over N = 3
    # particles a step stops once the pending targets hold at most
    # isqrt(3) = 1 distinct state
    model, history = lgm_case(horizon=2, n_particles=3, seed=62)
    assert model.mixing_bounds.sigma_plus == 1.0 / (0.6 * math.sqrt(2.0 * math.pi))
    probs = trajectory_probabilities(history, model)
    records = sample_records(monkeypatch)
    paths, counters = sc.ffbsi_rejection_sample_paths(
        history, model, 50_000, sc.make_rng(162), return_stats=True
    )
    assert chi_square_pvalue(paths, probs, 3) > 0.001
    assert counters.fallbacks > 0
    assert within_the_default_stop(records)


@pytest.mark.parametrize("case", ["lgm", "finite"])
def test_default_stop_sends_at_most_sqrt_n_states_to_the_exact_draw(monkeypatch, case):
    if case == "lgm":
        model, history = lgm_case(horizon=30, n_particles=100, seed=63)
    else:
        model = sc.make_finite_hmm(*random_hmm(sc.make_rng(64), 4, 30))
        history = run_hmm_filter(model, 100, 30, seed=65)
    records = sample_records(monkeypatch)
    _, counters = sc.ffbsi_rejection_sample_paths(
        history, model, 300, sc.make_rng(66), return_stats=True
    )
    assert counters.fallbacks > 0
    assert within_the_default_stop(records)


def test_one_hard_target_state_ends_the_rounds_at_once():
    # 40 copies of one target far out in the tail of every source's
    # kernel, each proposal accepted with probability about 1e-4: the
    # exact draw builds one row for them, so one round is all the step runs
    n = 100
    model = sc.make_lgm(0.9, 0.6, 1.0, np.zeros(2))
    positions = sc.make_rng(67).normal(0.0, 0.05, size=n)
    targets = np.zeros(40, dtype=np.int64)
    kernel = smoothing.BackwardKernel(model, 0, positions, np.zeros(n), np.array([2.6]))
    log_bound = math.log(model.mixing_bounds.sigma_plus)
    acceptance = np.exp(model.transition_log_density(positions, 2.6) - log_bound)
    assert 1e-5 < acceptance.mean() < 1e-3
    drawn, proposals, exact = kernel.sample(targets, sc.make_rng(68), log_bound)
    assert proposals == targets.size and 0 < exact <= targets.size
    assert drawn.min() >= 0 and drawn.max() < n


def test_rejection_rounds_end_when_every_acceptance_underflows():
    # every transition density from the sources at 0 into targets at
    # 100-102 underflows, so no proposal can be accepted; the rounds stop
    # after one that accepts none and the exact draw takes every target
    script = """
import math
import numpy as np
import smoothcore as sc
from smoothcore.smoothing import BackwardKernel

model = sc.make_lgm(0.9, 0.6, 1.0, np.zeros(2))
kernel = BackwardKernel(
    model, 0, np.zeros(4), np.zeros(4), np.repeat([100.0, 101.0, 102.0], 5)
)
drawn, proposals, exact = kernel.sample(
    np.arange(15), sc.make_rng(1), math.log(model.mixing_bounds.sigma_plus)
)
print(proposals, exact, int(drawn.min()), int(drawn.max()))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(sc.__file__).parents[1]))
    try:
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=30,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("the rejection rounds did not end")
    assert run.returncode == 0, run.stderr
    proposals, exact, low, high = map(int, run.stdout.split())
    assert (proposals, exact) == (15, 15)
    assert 0 <= low <= high < 4


def test_marginal_law_on_identity_kernel():
    # with a source-independent kernel every backward row equals the
    # filter weights, so each J_t is categorical in them
    model, history = lgm_case(horizon=4, n_particles=5, seed=97, phi=0.0)
    paths = sc.ffbsi_sample_paths(history, model, 40_000, sc.make_rng(98))
    for t in (0, 2, 4):
        weights = sc.normalized_weights(history, t)
        counts = np.bincount(paths[:, t], minlength=5)
        expected = weights * paths.shape[0]
        statistic = float(np.sum((counts - expected) ** 2 / expected))
        assert stats.chi2.sf(statistic, 4) > 0.001


def test_ffbsi_mean_sits_near_the_ffbs_value():
    model, history = lgm_case(horizon=5, n_particles=12, seed=99)
    functional = sc.state_sum_functional(5)
    target = sc.ffbs_backward_additive(history, model, functional).value
    paths = sc.ffbsi_sample_paths(history, model, 20_000, sc.make_rng(100))
    estimate = sc.ffbsi_estimate(paths, history, functional)
    values = history.positions[np.arange(6)[None, :], paths].sum(axis=1)
    se = values.std(ddof=1) / np.sqrt(paths.shape[0])
    assert abs(estimate.value - target) < 4.0 * se
    assert estimate.value == pytest.approx(values.mean(), rel=1e-12)


def test_ffbsi_estimate_handles_lagged_terms():
    model, history = ffbsi_small_case()
    functional = sc.AdditiveFunctional(
        lag=1,
        horizon=2,
        term=lambda t, a, b: np.asarray(a, dtype=float)
        * (np.asarray(b, dtype=float) + 1.0),
    )
    paths = sc.ffbsi_sample_paths(history, model, 4, sc.make_rng(101))
    estimate = sc.ffbsi_estimate(paths, history, functional)
    expected = np.mean(
        [path_functional_value(history, tuple(p), functional) for p in paths]
    )
    assert estimate.value == pytest.approx(float(expected), rel=1e-12)


def test_ffbsi_estimate_validation():
    model, history = ffbsi_small_case()
    functional = sc.state_sum_functional(2)
    with pytest.raises(ValueError):
        sc.ffbsi_estimate(np.zeros((4, 2), dtype=np.int64), history, functional)
    bad = np.zeros((4, 3), dtype=np.int64)
    bad[0, 0] = 3
    with pytest.raises(ValueError):
        sc.ffbsi_estimate(bad, history, functional)
    # whole numbers in a float array are still not indices
    with pytest.raises(ValueError, match="float64"):
        sc.ffbsi_estimate(np.zeros((4, 3)), history, functional)


def test_rmse_scaling_halves_with_quadruple_particles():
    horizon = 10
    symbols = sc.simulate_finite_hmm(P2, B2, CHI2, horizon, sc.make_rng(103))[1]
    E = sc.emissions_from_symbols(B2, symbols)
    model = sc.make_finite_hmm(P2, E, CHI2)
    functional = sc.state_sum_functional(horizon)
    exact = sc.exact_hmm_smooth(model, functional)

    def rmse(n_particles, label):
        errors = np.empty(200)
        for k in range(200):
            history = run_hmm_filter(
                model, n_particles, horizon, sc.derive_seed(104, label, k)
            )
            value = sc.ffbs_backward_additive(history, model, functional).value
            errors[k] = value - exact
        return float(np.sqrt(np.mean(errors**2)))

    ratio = rmse(4000, 1) / rmse(1000, 0)
    assert 0.35 < ratio < 0.7


def test_path_space_at_horizon_zero_is_the_filter_estimate():
    rng = sc.make_rng(105)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 0, rng)
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    proposal = sc.bootstrap_proposal(model)
    functional = sc.state_sum_functional(0)
    estimate = sc.path_space_estimate(
        model, proposal, functional, 64, sc.make_rng(106)
    )
    history = sc.run_filter(model, proposal, 64, 0, sc.make_rng(106))
    assert estimate.value == pytest.approx(
        sc.filter_estimate(history, 0, lambda x: x), rel=1e-12
    )
    assert estimate.method == "path_space"


def test_single_particle_methods_all_agree():
    rng = sc.make_rng(107)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 6, rng)
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    proposal = sc.bootstrap_proposal(model)
    functional = sc.state_sum_functional(6)
    history = sc.run_filter(model, proposal, 1, 6, sc.make_rng(108))
    backward = sc.ffbs_backward_additive(history, model, functional).value
    forward = sc.ffbs_forward_additive(history, model, functional).value
    paths = sc.ffbsi_sample_paths(history, model, 3, sc.make_rng(109))
    sampled = sc.ffbsi_estimate(paths, history, functional).value
    genealogy = sc.path_space_estimate(
        model, proposal, functional, 1, sc.make_rng(108)
    ).value
    expected = float(history.positions.sum())
    for value in (backward, forward, sampled, genealogy):
        assert value == pytest.approx(expected, rel=1e-12)


def test_path_space_matches_ffbs_in_distribution_cheaply():
    # same smoothing target: two estimators agree within Monte Carlo
    # error on a moderate problem
    horizon = 15
    rng = sc.make_rng(110)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, horizon, rng)
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    proposal = sc.bootstrap_proposal(model)
    functional = sc.state_sum_functional(horizon)
    replicates = 60
    ps = np.empty(replicates)
    fb = np.empty(replicates)
    for k in range(replicates):
        ps[k] = sc.path_space_estimate(
            model, proposal, functional, 300, sc.make_rng(sc.derive_seed(111, k))
        ).value
        history = sc.run_filter(
            model, proposal, 300, horizon, sc.make_rng(sc.derive_seed(112, k))
        )
        fb[k] = sc.ffbs_backward_additive(history, model, functional).value
    gap = ps.mean() - fb.mean()
    se = np.sqrt(ps.var(ddof=1) / replicates + fb.var(ddof=1) / replicates)
    assert abs(gap) < 4.0 * se


def test_estimate_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method name 'nonsense'"):
        sc.SmoothingEstimate(
            method="nonsense", value=0.0, n_particles=1, horizon=0, lag=0,
            seed=None,
        )
