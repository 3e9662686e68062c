"""Exact reference computations the Monte Carlo estimators are checked
against.

* :func:`kalman_smooth` solves the linear Gaussian model in closed form
  (forward filter plus backward smoothing recursion on means and
  variances).
* :func:`exact_hmm_filter` / :func:`exact_hmm_smooth` run the scaled
  forward-backward recursions of a finite chain and contract additive
  terms against exact (lag+1)-wise smoothed marginals.
* :func:`path_space_asymptotic_variance` evaluates, term by term, the
  closed-form asymptotic variance of the genealogy-based estimator of a
  lag 0 additive functional when the transition kernel does not depend
  on the source state.  Every integral is one weighted sum: exact over
  the states of a finite chain, and composite Simpson over a supplied
  grid of an odd number (>= 3) of strictly increasing nodes otherwise.
* :func:`theory_bounds` evaluates the closed-form factors that shape
  the moment and deviation bounds of the backward estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnsupportedLagError, UnsupportedModelError
from .models import (
    _LOG_2PI,
    AdditiveFunctional,
    StateSpaceModel,
    _check_ar1,
    _require_finite,
    write_csv,
)


@dataclass(frozen=True)
class KalmanResult:
    """Exact Gaussian posterior summaries, one entry per time step."""

    filtered_mean: np.ndarray
    filtered_var: np.ndarray
    smoothed_mean: np.ndarray
    smoothed_var: np.ndarray
    log_likelihood: float

    @property
    def smoothed_state_sum(self) -> float:
        """Exact value of the summed smoothed state means."""
        return float(np.sum(self.smoothed_mean))


@dataclass(frozen=True)
class TheoryBounds:
    """Closed-form bound factors for a (lag, horizon, N) triple.

    ``lq_error_factor`` scales the Lq moment bound of the backward
    estimators; ``deviation_factor`` scales the exponent denominator of
    the deviation inequality (it does not depend on N).
    """

    lq_error_factor: float
    deviation_factor: float


def kalman_smooth(
    phi: float,
    sigma_u: float,
    sigma_v: float,
    observations: Sequence[float],
) -> KalmanResult:
    """Closed-form filtering and smoothing for the linear Gaussian model.

    The state starts from its stationary law ``N(0, sigma_u^2 /
    (1 - phi^2))``.  The backward pass combines each filtered moment
    with the next smoothed moment through the usual gain
    ``P_t phi / P_pred_{t+1}``.
    """
    _check_ar1(phi, (("sigma_u", sigma_u), ("sigma_v", sigma_v)))
    y = np.asarray(observations, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("observations must be a nonempty 1-d sequence")
    _require_finite("observations", y)

    steps = y.size
    q = sigma_u * sigma_u
    r = sigma_v * sigma_v

    pred_mean = np.empty(steps)
    pred_var = np.empty(steps)
    filt_mean = np.empty(steps)
    filt_var = np.empty(steps)

    pred_mean[0] = 0.0
    pred_var[0] = q / (1.0 - phi * phi)
    log_likelihood = 0.0
    for t in range(steps):
        if t > 0:
            pred_mean[t] = phi * filt_mean[t - 1]
            pred_var[t] = phi * phi * filt_var[t - 1] + q
        innovation_var = pred_var[t] + r
        gain = pred_var[t] / innovation_var
        residual = y[t] - pred_mean[t]
        filt_mean[t] = pred_mean[t] + gain * residual
        filt_var[t] = (1.0 - gain) * pred_var[t]
        log_likelihood += (
            -0.5 * (residual * residual / innovation_var)
            - 0.5 * math.log(innovation_var)
            - 0.5 * _LOG_2PI
        )

    smooth_mean = filt_mean.copy()
    smooth_var = filt_var.copy()
    for t in range(steps - 2, -1, -1):
        gain = filt_var[t] * phi / pred_var[t + 1]
        smooth_mean[t] = filt_mean[t] + gain * (smooth_mean[t + 1] - pred_mean[t + 1])
        smooth_var[t] = filt_var[t] + gain * gain * (
            smooth_var[t + 1] - pred_var[t + 1]
        )

    return KalmanResult(
        filtered_mean=filt_mean,
        filtered_var=filt_var,
        smoothed_mean=smooth_mean,
        smoothed_var=smooth_var,
        log_likelihood=log_likelihood,
    )


def write_kalman_csv(result: KalmanResult, file) -> None:
    """Write per-step posterior moments as CSV to a path or text handle."""
    write_csv(
        file,
        "t,filtered_mean,filtered_var,smoothed_mean,smoothed_var",
        zip(
            range(result.filtered_mean.size),
            result.filtered_mean,
            result.filtered_var,
            result.smoothed_mean,
            result.smoothed_var,
        ),
    )


def _finite_data(model: StateSpaceModel):
    if model.finite is None:
        raise UnsupportedModelError(
            "this oracle needs a finite-state model with raw matrices attached"
        )
    return model.finite


def exact_hmm_filter(model: StateSpaceModel, horizon: int):
    """Exact filtered distributions of a finite chain.

    Returns ``(filtered, normalizers)`` where ``filtered`` has shape
    ``(horizon+1, K)`` and ``normalizers[t]`` is the incremental
    likelihood factor at step t; their log sum is the data
    log-likelihood.
    """
    data = _finite_data(model)
    if not 0 <= horizon < data.emissions.shape[0]:
        raise ValueError(
            f"horizon must be in 0..{data.emissions.shape[0] - 1}, got {horizon}"
        )
    K = data.n_states
    filtered = np.empty((horizon + 1, K))
    normalizers = np.empty(horizon + 1)
    unnormalized = data.initial * data.emissions[0]
    normalizers[0] = unnormalized.sum()
    if normalizers[0] <= 0.0:
        raise ValueError("zero likelihood at t=0")
    filtered[0] = unnormalized / normalizers[0]
    for t in range(1, horizon + 1):
        unnormalized = (filtered[t - 1] @ data.transition) * data.emissions[t]
        normalizers[t] = unnormalized.sum()
        if normalizers[t] <= 0.0:
            raise ValueError(f"zero likelihood at t={t}")
        filtered[t] = unnormalized / normalizers[t]
    return filtered, normalizers


def _hmm_backward(data, horizon: int, normalizers: np.ndarray) -> np.ndarray:
    K = data.n_states
    scaled = np.empty((horizon + 1, K))
    scaled[horizon] = 1.0
    for t in range(horizon - 1, -1, -1):
        scaled[t] = (
            data.transition @ (data.emissions[t + 1] * scaled[t + 1])
        ) / normalizers[t + 1]
    return scaled


def exact_hmm_smooth(
    model: StateSpaceModel, functional: AdditiveFunctional
) -> float:
    """Exact smoothed value of an additive functional on a finite chain.

    Contracts each term against the joint smoothed law of ``lag + 1``
    consecutive states, built from the scaled forward and backward
    variables; cost is O(T K^{lag+1}) plus the recursions.
    """
    data = _finite_data(model)
    horizon = functional.horizon
    r = functional.lag
    filtered, normalizers = exact_hmm_filter(model, horizon)
    backward = _hmm_backward(data, horizon, normalizers)
    K = data.n_states
    axes = [np.arange(K)] * (r + 1)

    total = 0.0
    for t in range(r, horizon + 1):
        block = filtered[t - r]
        for u in range(1, r + 1):
            factor = (
                data.transition
                * data.emissions[t - r + u][None, :]
                / normalizers[t - r + u]
            )
            # append the axis for time t-r+u; no contraction
            block = block[..., None] * factor.reshape(
                (1,) * (u - 1) + (K, K)
            )
        block = block * backward[t].reshape((1,) * r + (K,))
        total += float(np.sum(block * functional.term_on_grid(t, axes)))
    return total


def quadrature_grid(scale: float, panels: int = 10_000) -> np.ndarray:
    """Evenly spaced Simpson grid over ``+- 10 * scale``."""
    if panels < 2 or panels % 2:
        raise ValueError("panels must be a positive even number")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return np.linspace(-10.0 * scale, 10.0 * scale, panels + 1)


def _simpson_weights(grid: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on an odd number (>= 3) of strictly
    increasing nodes, so that ``weights @ f(grid)`` integrates f.

    Each pair of intervals (h0, h1) gets the three-point rule on its own
    widths.  It is exact for quadratics, and for cubics where h0 = h1;
    on an evenly spaced grid it is h/3 (1, 4, 1).
    """
    if grid.ndim != 1 or grid.size < 3 or grid.size % 2 == 0:
        raise ValueError(f"grid needs an odd number >= 3 of nodes, got {grid.shape}")
    h = np.diff(grid)
    if not np.all((0.0 < h) & (h < np.inf)):
        raise ValueError("grid nodes must be finite and strictly increasing")
    h0, h1 = h[0::2], h[1::2]
    span = (h0 + h1) / 6.0
    weights = np.zeros(grid.size)
    weights[0:-2:2] += span * (2.0 - h1 / h0)
    weights[1::2] += span * (h0 + h1) ** 2 / (h0 * h1)
    weights[2::2] += span * (2.0 - h0 / h1)
    return weights


def path_space_asymptotic_variance(
    model: StateSpaceModel,
    functional: AdditiveFunctional,
    grid: np.ndarray | None = None,
) -> float:
    """Asymptotic variance constant of the genealogy-based estimator.

    Valid when the transition kernel does not depend on the source
    state, so the filter at every step has a closed form: its predictive
    law is the initial law at t = 0 and the kernel row after.  For a
    lag 0 functional the constant is a double sum over time pairs of
    likelihood-ratio second moments times centered-term variances; the
    estimator's variance at N particles is approximately this value
    divided by N.

    Every integral is a weighted sum over one support.  On finite chains
    the support is the states, weighted by the transition row and the
    initial law, so the sums are exact.  Otherwise a quadrature ``grid``
    must be supplied: an odd number (>= 3) of strictly increasing nodes,
    weighted by the densities times composite Simpson weights.
    """
    if functional.lag != 0:
        raise UnsupportedLagError(
            "the closed-form variance covers lag 0 functionals only"
        )
    horizon = functional.horizon
    if horizon >= model.n_observations:
        raise ValueError(
            f"functional horizon {horizon} exceeds the {model.n_observations} "
            "observation terms baked into the model"
        )

    if model.finite is not None:
        data = model.finite
        if not data.independent:
            raise UnsupportedModelError(
                "transition rows differ: the kernel depends on the source state"
            )
        support = np.arange(data.n_states)
        kernel = data.transition[0]
        initial = data.initial
        likelihoods = data.emissions[: horizon + 1]
    else:
        if grid is None:
            raise UnsupportedModelError(
                "continuous models need a quadrature grid for the integrals"
            )
        support = np.asarray(grid, dtype=float)
        simpson = _simpson_weights(support)
        probe_a, probe_b = (
            model.transition_log_density(np.full_like(support, end), support)
            for end in (support[0], support[-1])
        )
        if not np.allclose(probe_a, probe_b, rtol=1e-10, atol=1e-12):
            raise UnsupportedModelError(
                "transition density depends on the source state"
            )
        kernel = np.exp(probe_a) * simpson
        initial = np.exp(model.initial_log_density(support)) * simpson
        likelihoods = [
            np.exp(model.observation_log_density(t, support))
            for t in range(horizon + 1)
        ]

    # the time t law is the initial one at t = 0 and the kernel row after;
    # running sums the centered variances of the steps before t
    total = running = 0.0
    for t in range(horizon + 1):
        law = kernel if t else initial
        g = likelihoods[t]
        h = np.asarray(functional.term(t, support), dtype=float)
        mass = float(law @ g)
        if mass <= 0.0:
            raise ValueError(f"zero predictive mass at t={t}")
        centered = (h - float(law @ (g * h)) / mass) ** 2
        ratio_second_moment = float(law @ (g * g)) / (mass * mass)
        centered_second_ratio = float(law @ (g * g * centered)) / (mass * mass)
        total += ratio_second_moment * running + centered_second_ratio
        running += float(law @ (g * centered)) / mass
    return float(total)


def theory_bounds(lag: int, horizon: int, n_particles: int) -> TheoryBounds:
    """Closed-form factors shaping the backward estimators' error bounds.

    The Lq factor is

        sqrt(lag+1) * ( min(sqrt(lag+1), sqrt(horizon-lag+1))
                        + sqrt(lag+1) * sqrt(horizon-lag+1) / sqrt(N) )

    and the deviation factor is ``(lag+1) * min(lag+1, horizon-lag+1)``.
    """
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if horizon < lag:
        raise ValueError(f"horizon {horizon} is smaller than lag {lag}")
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    span = horizon - lag + 1
    width = lag + 1
    lq = math.sqrt(width) * (
        min(math.sqrt(width), math.sqrt(span))
        + math.sqrt(width) * math.sqrt(span) / math.sqrt(n_particles)
    )
    deviation = width * min(width, span)
    return TheoryBounds(lq_error_factor=lq, deviation_factor=float(deviation))
