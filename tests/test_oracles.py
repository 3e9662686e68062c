import io
import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import multivariate_normal, norm

import smoothcore as sc
from bruteforce import (
    brute_hmm_posterior,
    brute_hmm_value,
    grid_lgm_smoothed_means,
)
from conftest import B2, CHI2, P2, random_hmm
from smoothcore.oracles import _simpson_weights


def test_kalman_single_observation_closed_form():
    phi, sigma_u, sigma_v, y0 = 0.9, 0.6, 1.0, 0.7
    prior_var = sigma_u**2 / (1 - phi**2)
    result = sc.kalman_smooth(phi, sigma_u, sigma_v, [y0])
    gain = prior_var / (prior_var + sigma_v**2)
    assert result.filtered_mean[0] == pytest.approx(gain * y0, rel=1e-15)
    assert result.filtered_var[0] == pytest.approx((1 - gain) * prior_var, rel=1e-15)
    assert result.smoothed_mean[0] == result.filtered_mean[0]
    assert result.smoothed_var[0] == result.filtered_var[0]
    assert result.log_likelihood == pytest.approx(
        norm.logpdf(y0, 0.0, math.sqrt(prior_var + sigma_v**2)), rel=1e-12
    )
    assert result.smoothed_state_sum == result.smoothed_mean.sum()


def test_kalman_uninformative_observations_recover_the_prior():
    rng = sc.make_rng(201)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 10, rng)
    result = sc.kalman_smooth(0.9, 0.6, 1e6, y)
    stationary = 0.36 / (1 - 0.81)
    assert np.max(np.abs(result.filtered_mean)) < 1e-6
    assert np.max(np.abs(result.smoothed_mean)) < 1e-6
    assert np.max(np.abs(result.filtered_var - stationary)) < 1e-6
    assert np.max(np.abs(result.smoothed_var - stationary)) < 1e-6


def test_kalman_decouples_without_autoregression():
    rng = sc.make_rng(202)
    _, y = sc.simulate_lgm(0.0, 0.6, 1.0, 8, rng)
    result = sc.kalman_smooth(0.0, 0.6, 1.0, y)
    q, r = 0.36, 1.0
    var = q * r / (q + r)
    assert np.allclose(result.filtered_var, var, atol=1e-15)
    assert np.allclose(result.smoothed_var, var, atol=1e-15)
    assert np.allclose(result.filtered_mean, y * q / (q + r), atol=1e-15)
    assert np.allclose(result.smoothed_mean, result.filtered_mean, atol=1e-15)


def test_kalman_log_likelihood_matches_joint_gaussian():
    phi, sigma_u, sigma_v = 0.8, 0.5, 0.9
    rng = sc.make_rng(203)
    _, y = sc.simulate_lgm(phi, sigma_u, sigma_v, 5, rng)
    steps = y.size
    state_var = sigma_u**2 / (1 - phi**2)
    lags = np.abs(np.subtract.outer(np.arange(steps), np.arange(steps)))
    cov = state_var * phi**lags + sigma_v**2 * np.eye(steps)
    expected = multivariate_normal(mean=np.zeros(steps), cov=cov).logpdf(y)
    result = sc.kalman_smooth(phi, sigma_u, sigma_v, y)
    assert result.log_likelihood == pytest.approx(expected, rel=1e-10)


def test_kalman_matches_grid_discretization():
    rng = sc.make_rng(204)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 12, rng)
    result = sc.kalman_smooth(0.9, 0.6, 1.0, y)
    grid_means = grid_lgm_smoothed_means(0.9, 0.6, 1.0, y)
    assert np.max(np.abs(result.smoothed_mean - grid_means)) < 1e-3
    assert result.smoothed_state_sum == pytest.approx(grid_means.sum(), abs=5e-3)


def test_kalman_smoothing_never_widens_posteriors():
    rng = sc.make_rng(205)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 30, rng)
    result = sc.kalman_smooth(0.9, 0.6, 1.0, y)
    assert np.all(result.smoothed_var <= result.filtered_var + 1e-12)
    assert result.smoothed_var[-1] == result.filtered_var[-1]
    assert result.smoothed_mean[-1] == result.filtered_mean[-1]


def test_kalman_validation():
    with pytest.raises(ValueError):
        sc.kalman_smooth(1.0, 0.6, 1.0, [0.0])
    with pytest.raises(ValueError):
        sc.kalman_smooth(0.9, -0.6, 1.0, [0.0])
    with pytest.raises(ValueError):
        sc.kalman_smooth(0.9, 0.6, 1.0, [])


def test_kalman_checks_its_inputs_as_the_lgm_does():
    # one copy of the AR(1) checks: the oracle refuses what make_lgm refuses,
    # with the same messages
    for args in ((0.9, 0.6, -1.0, [0.0]), (1.0, 0.6, 1.0, [0.0]),
                 (0.9, 0.6, 1.0, [0.5, math.nan])):
        with pytest.raises(ValueError) as oracle:
            sc.kalman_smooth(*args)
        with pytest.raises(ValueError) as model:
            sc.make_lgm(*args)
        assert str(oracle.value) == str(model.value)
    assert str(oracle.value) == "observations[1] = nan is not finite"


def test_kalman_csv_schema():
    result = sc.kalman_smooth(0.9, 0.6, 1.0, [0.5, -0.25])
    buffer = io.StringIO()
    sc.write_kalman_csv(result, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t,filtered_mean,filtered_var,smoothed_mean,smoothed_var"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "0"
    assert float(row[3]) == result.smoothed_mean[0]


def hmm_joint_likelihood(P, E, chi):
    horizon = E.shape[0] - 1
    total = 0.0
    for path in itertools.product(range(P.shape[0]), repeat=horizon + 1):
        w = chi[path[0]] * E[0, path[0]]
        for t in range(1, horizon + 1):
            w *= P[path[t - 1], path[t]] * E[t, path[t]]
        total += w
    return total


def test_exact_hmm_filter_matches_enumeration(hmm2):
    E = hmm2.finite.emissions
    filtered, normalizers = sc.exact_hmm_filter(hmm2, 3)
    for t in range(4):
        paths, probs = brute_hmm_posterior(P2, E[: t + 1], CHI2)
        for k in range(2):
            marginal = sum(p for path, p in zip(paths, probs) if path[t] == k)
            assert filtered[t, k] == pytest.approx(marginal, rel=1e-12)
    assert np.log(normalizers).sum() == pytest.approx(
        math.log(hmm_joint_likelihood(P2, E, CHI2)), rel=1e-12
    )


@pytest.mark.parametrize("lag", [0, 1, 2])
def test_exact_hmm_smooth_matches_enumeration(lag):
    rng = sc.make_rng(206)
    for _ in range(3):
        P, E, chi = random_hmm(rng, 2, 2)
        model = sc.make_finite_hmm(P, E, chi)
        functional = sc.AdditiveFunctional(
            lag=lag,
            horizon=2,
            term=lambda t, *xs: sum(
                (a + 1) * np.asarray(x, dtype=float) for a, x in enumerate(xs)
            )
            + 0.1 * t,
        )
        expected = brute_hmm_value(P, E, chi, functional)
        assert sc.exact_hmm_smooth(model, functional) == pytest.approx(
            expected, rel=1e-12
        )


def test_exact_hmm_smooth_single_state_chain():
    E = np.full((5, 1), 0.37)
    model = sc.make_finite_hmm(np.array([[1.0]]), E, np.array([1.0]))
    functional = sc.AdditiveFunctional(
        lag=0, horizon=4, term=lambda t, x: np.asarray(x, dtype=float) + t
    )
    # the only path is all zeros, so the value is sum_t t
    assert sc.exact_hmm_smooth(model, functional) == pytest.approx(10.0, rel=1e-14)


def test_exact_hmm_smooth_uniform_emissions_recover_chain_marginals():
    E = np.full((4, 2), 0.5)
    model = sc.make_finite_hmm(P2, E, CHI2)
    functional = sc.state_sum_functional(3)
    marginal = CHI2.copy()
    expected = marginal[1]
    for _ in range(3):
        marginal = marginal @ P2
        expected += marginal[1]
    assert sc.exact_hmm_smooth(model, functional) == pytest.approx(
        expected, rel=1e-12
    )


def test_hmm_oracles_require_finite_models():
    model = sc.make_lgm(0.9, 0.6, 1.0, [0.1, 0.2])
    with pytest.raises(sc.UnsupportedModelError):
        sc.exact_hmm_filter(model, 1)
    with pytest.raises(sc.UnsupportedModelError):
        sc.exact_hmm_smooth(model, sc.state_sum_functional(1))


def independent_hmm(horizon, kernel_row=(0.5, 0.5), seed=207):
    row = np.asarray(kernel_row, dtype=float)
    P = np.tile(row, (row.size, 1))
    rng = sc.make_rng(seed)
    _, symbols = sc.simulate_finite_hmm(P, B2, CHI2, horizon, rng)
    E = sc.emissions_from_symbols(B2, symbols)
    return sc.make_finite_hmm(P, E, CHI2)


def test_asymptotic_variance_hand_frozen_two_step_value():
    E = np.array([[0.8, 0.3], [0.2, 0.7]])
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    model = sc.make_finite_hmm(P, E, np.array([0.6, 0.4]))
    value = sc.path_space_asymptotic_variance(model, sc.state_sum_functional(1))
    # by hand, time 0 under the initial law (0.6, 0.4) and time 1 under
    # the kernel row: D0 = 8/75, A1 B0 = (106/81)(4/25), C1 = 784/6561,
    # summing to 14288/32805, about 0.43554
    assert value == pytest.approx(14288 / 32805, rel=1e-12)


def test_asymptotic_variance_vanishes_for_constant_terms():
    model = independent_hmm(6)
    functional = sc.AdditiveFunctional(
        lag=0, horizon=6, term=lambda t, x: np.full(np.shape(x), 3.7)
    )
    assert sc.path_space_asymptotic_variance(model, functional) == pytest.approx(
        0.0, abs=1e-12
    )


def test_asymptotic_variance_single_step_is_the_initial_term():
    model = independent_hmm(0)
    data = model.finite
    g = data.emissions[0]
    h = np.arange(2.0)
    initial = data.initial
    centered = (h - (initial @ (g * h)) / (initial @ g)) ** 2
    expected = (initial @ (g * g * centered)) / (initial @ g) ** 2
    value = sc.path_space_asymptotic_variance(model, sc.state_sum_functional(0))
    assert value == pytest.approx(expected, rel=1e-12)


def test_asymptotic_variance_grows_quadratically():
    long_model = independent_hmm(80, seed=208)
    data = long_model.finite
    short_model = sc.make_finite_hmm(
        data.transition, data.emissions[:41], data.initial
    )
    long_value = sc.path_space_asymptotic_variance(
        long_model, sc.state_sum_functional(80)
    )
    short_value = sc.path_space_asymptotic_variance(
        short_model, sc.state_sum_functional(40)
    )
    assert 3.4 < long_value / short_value < 4.6


def test_asymptotic_variance_quadrature_matches_adaptive_integration():
    sigma_u, sigma_v = 0.6, 1.0
    rng = sc.make_rng(209)
    _, y = sc.simulate_lgm(0.0, sigma_u, sigma_v, 3, rng)
    model = sc.make_lgm(0.0, sigma_u, sigma_v, y)
    grid = sc.quadrature_grid(sigma_u)
    value = sc.path_space_asymptotic_variance(
        model, sc.state_sum_functional(3), grid=grid
    )

    # independent evaluation of the same constant with adaptive
    # quadrature and scipy densities
    def kernel_integral(f):
        return integrate.quad(
            lambda x: norm.pdf(x, 0.0, sigma_u) * f(x), -12, 12, limit=200
        )[0]

    def initial_integral(f):
        return kernel_integral(f)

    gs = [lambda x, t=t: norm.pdf(y[t], x, sigma_v) for t in range(4)]
    a = np.empty(4)
    b = np.empty(4)
    c = np.empty(4)
    centered = []
    for t in range(4):
        g = gs[t]
        mass = kernel_integral(g)
        mean = kernel_integral(lambda x: g(x) * x) / mass
        centered.append(lambda x, g=g, mean=mean: (x - mean) ** 2)
        a[t] = kernel_integral(lambda x: g(x) ** 2) / mass**2
        b[t] = kernel_integral(lambda x: g(x) * centered[t](x)) / mass
        c[t] = kernel_integral(lambda x: g(x) ** 2 * centered[t](x)) / mass**2
    mass0 = initial_integral(gs[0])
    expected = initial_integral(lambda x: gs[0](x) ** 2 * centered[0](x)) / mass0**2
    running = 0.0
    for t in range(1, 4):
        running += b[t - 1]
        expected += a[t] * running + c[t]
    assert value == pytest.approx(expected, rel=1e-6)


def test_asymptotic_variance_rejects_unsupported_inputs():
    model = independent_hmm(3)
    lagged = sc.AdditiveFunctional(lag=1, horizon=3, term=lambda t, a, b: a + b)
    with pytest.raises(sc.UnsupportedLagError):
        sc.path_space_asymptotic_variance(model, lagged)
    dependent = sc.make_finite_hmm(P2, model.finite.emissions, CHI2)
    with pytest.raises(sc.UnsupportedModelError):
        sc.path_space_asymptotic_variance(dependent, sc.state_sum_functional(3))
    rng = sc.make_rng(210)
    _, y = sc.simulate_lgm(0.9, 0.6, 1.0, 3, rng)
    autoregressive = sc.make_lgm(0.9, 0.6, 1.0, y)
    with pytest.raises(sc.UnsupportedModelError):
        sc.path_space_asymptotic_variance(
            autoregressive, sc.state_sum_functional(3)
        )
    flat = sc.make_lgm(0.0, 0.6, 1.0, y)
    with pytest.raises(sc.UnsupportedModelError):
        # no grid supplied for a continuous model
        sc.path_space_asymptotic_variance(flat, sc.state_sum_functional(3))
    # a functional longer than the data, on either support
    with pytest.raises(ValueError, match="functional horizon 30 exceeds the 4"):
        sc.path_space_asymptotic_variance(
            flat, sc.state_sum_functional(30), grid=sc.quadrature_grid(0.6)
        )
    with pytest.raises(ValueError, match="functional horizon 4 exceeds the 4"):
        sc.path_space_asymptotic_variance(model, sc.state_sum_functional(4))


def test_quadrature_grid_shape_and_validation():
    grid = sc.quadrature_grid(2.0, panels=10)
    assert grid.shape == (11,)
    assert grid[0] == pytest.approx(-20.0)
    assert grid[-1] == pytest.approx(20.0)
    with pytest.raises(ValueError):
        sc.quadrature_grid(1.0, panels=11)
    with pytest.raises(ValueError, match="scale"):
        sc.quadrature_grid(-1.0)


# the grid is centred at 0 with a half-width of 10 scales, so the scale is
# the one argument left to refuse
@pytest.mark.parametrize(
    "bad, name", [pytest.param({"scale": math.inf}, "scale", id="bad2-scale")]
)
def test_quadrature_grid_refuses_a_bad_center_or_half_width(bad, name):
    # a descending or collapsed grid would only surface later, as a
    # zero predictive mass
    with pytest.raises(ValueError, match=name):
        sc.quadrature_grid(**{"scale": 0.6, **bad})


def cubic(x):
    return 2.0 * x**3 - x**2 + 3.0 * x - 5.0


def cubic_integral(a, b):
    def antiderivative(x):
        return 0.5 * x**4 - x**3 / 3.0 + 1.5 * x**2 - 5.0 * x

    return antiderivative(b) - antiderivative(a)


def test_simpson_weights_integrate_cubics_exactly():
    even = np.linspace(-1.5, 2.5, 9)
    # uneven, each pair of intervals split at its midpoint: still exact
    # for cubics
    ends = np.array([-1.5, -1.2, 0.1, 0.4, 2.5])
    paired = np.empty(2 * ends.size - 1)
    paired[0::2] = ends
    paired[1::2] = 0.5 * (ends[:-1] + ends[1:])
    for grid in (even, paired):
        value = _simpson_weights(grid) @ cubic(grid)
        assert value == pytest.approx(cubic_integral(-1.5, 2.5), rel=1e-14)
    # any uneven grid: exact for quadratics
    grid = np.array([-1.0, -0.7, 0.2, 0.25, 1.1, 1.3, 2.0])
    value = _simpson_weights(grid) @ (grid**2 - 2.0 * grid + 0.5)
    assert value == pytest.approx(
        (2.0**3 + 1.0) / 3.0 - (2.0**2 - 1.0) + 0.5 * 3.0, rel=1e-14
    )


@pytest.mark.parametrize(
    "args", [(0.6,), (1.2, 20), (0.05, 200)]
)
def test_simpson_weights_match_scipy_on_quadrature_grids(args):
    grid = sc.quadrature_grid(*args)
    values = norm.pdf(grid, 0.2, 0.7) * np.cos(grid)
    expected = integrate.simpson(values, x=grid)
    assert _simpson_weights(grid) @ values == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "grid, message",
    [
        (np.linspace(0.0, 1.0, 4), "odd number"),
        (np.array([0.0, 1.0]), "odd number"),
        (np.zeros((3, 3)), "odd number"),
        (np.array([0.0, 1.0, 1.0]), "strictly increasing"),
        (np.array([0.0, -1.0, -2.0]), "strictly increasing"),
        (np.array([0.0, 1.0, math.inf]), "strictly increasing"),
        (np.array([0.0, math.nan, 2.0]), "strictly increasing"),
    ],
)
def test_simpson_weights_refuse_a_bad_grid(grid, message):
    with pytest.raises(ValueError, match=message):
        _simpson_weights(grid)
    # and so does the oracle that integrates on it
    model = sc.make_lgm(0.0, 0.6, 1.0, [0.1, -0.2])
    with pytest.raises(ValueError, match=message):
        sc.path_space_asymptotic_variance(model, sc.state_sum_functional(1), grid=grid)


def test_theory_bound_closed_forms():
    for horizon in (0, 1, 5, 40):
        for n in (1, 10, 1000):
            lag0 = sc.theory_bounds(0, horizon, n)
            assert lag0.lq_error_factor == pytest.approx(
                1.0 + math.sqrt((horizon + 1) / n), rel=1e-15
            )
            assert lag0.deviation_factor == 1.0
            full = sc.theory_bounds(horizon, horizon, n)
            assert full.lq_error_factor == pytest.approx(
                math.sqrt(horizon + 1) * (1.0 + math.sqrt((horizon + 1) / n)),
                rel=1e-15,
            )
            assert full.deviation_factor == pytest.approx(horizon + 1.0)


def test_theory_bound_general_shape():
    rng = sc.make_rng(211)
    for _ in range(20):
        horizon = int(rng.integers(0, 60))
        lag = int(rng.integers(0, horizon + 1))
        n = int(rng.integers(1, 5000))
        bounds = sc.theory_bounds(lag, horizon, n)
        width, span = lag + 1, horizon - lag + 1
        assert bounds.lq_error_factor == pytest.approx(
            math.sqrt(width)
            * (min(math.sqrt(width), math.sqrt(span))
               + math.sqrt(width * span / n)),
            rel=1e-12,
        )
        assert bounds.deviation_factor == width * min(width, span)


def test_theory_bound_validation():
    with pytest.raises(ValueError):
        sc.theory_bounds(-1, 3, 10)
    with pytest.raises(ValueError):
        sc.theory_bounds(4, 3, 10)
    with pytest.raises(ValueError):
        sc.theory_bounds(0, 3, 0)
