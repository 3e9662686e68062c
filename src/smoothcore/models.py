"""Model containers and built-in model families.

A state-space model here is a bundle of vectorized callables working in
log space: an initial law, a transition density and sampler, and
per-time observation log-likelihoods with the observation sequence
baked in at construction.  Three families are provided, and
:data:`FAMILIES` names each with its parameters, simulator and builder:

* a linear Gaussian AR(1) model observed in Gaussian noise,
* a stochastic volatility model (AR(1) log-volatility, scale-mixture
  observations),
* a finite-state chain with strictly positive transition matrix, which
  doubles as the exact-oracle substrate because its smoothing
  distributions can be computed in closed form.

States are scalars: floats for the continuous families, integer labels
``0..K-1`` for the finite chain.  All density callables accept numpy
arrays and broadcast.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)


def _normal_logpdf(x, mean, sd):
    # computed in its one output array, in the order of
    # -0.5 * z * z - log(sd) - 0.5 * log(2 pi): scaling by -0.5 is exact,
    # so the bits are the same
    z = np.asarray(x, dtype=float) - mean
    z /= sd
    z *= z
    z *= -0.5
    z -= np.log(sd)
    z -= 0.5 * _LOG_2PI
    return z


def _require_finite(name: str, values: np.ndarray) -> None:
    # a NaN slips through every ordered comparison, so check it by name
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        label = ", ".join(str(i) for i in index)
        raise ValueError(f"{name}[{label}] = {values[index]} is not finite")


@dataclass(frozen=True, kw_only=True)
class MixingBounds:
    """Bounds on the transition density, plus a likelihood floor.

    Only the upper bound is required: it is all the rejection sampler
    uses.  The lower bounds hold on compact or finite state spaces and
    are None where none holds, as for the Gaussian AR(1) kernels.

    Attributes
    ----------
    sigma_plus : float
        Upper bound on the transition density, > 0.
    sigma_minus : float or None
        Lower bound on the transition density, in (0, sigma_plus].
        ``sigma_minus == sigma_plus`` is allowed (constant kernel); then
        ``rho == 0``.
    c_minus : float or None
        Lower bound on the one-step predictive likelihood mass, > 0.
    """

    sigma_plus: float
    sigma_minus: float | None = None
    c_minus: float | None = None

    def __post_init__(self):
        if not 0.0 < self.sigma_plus < math.inf:
            raise ValueError(
                f"sigma_plus must be positive and finite, got {self.sigma_plus}"
            )
        if self.sigma_minus is not None and not (
            0.0 < self.sigma_minus <= self.sigma_plus
        ):
            raise ValueError(
                "mixing bounds need 0 < sigma_minus <= sigma_plus, got "
                f"[{self.sigma_minus}, {self.sigma_plus}]"
            )
        if self.c_minus is not None and not self.c_minus > 0.0:
            raise ValueError(f"c_minus must be positive, got {self.c_minus}")

    @property
    def rho(self) -> float | None:
        """Mixing rate ``1 - sigma_minus / sigma_plus``, in [0, 1); None
        without a lower bound."""
        if self.sigma_minus is None:
            return None
        return 1.0 - self.sigma_minus / self.sigma_plus


@dataclass(frozen=True)
class GaussianTransition:
    """The AR(1) transition kernel N(phi x, sd^2) of the Gaussian families.

    The model's density and sampler are this kernel's, and the backward
    kernel reads ``(phi, sd)`` to build its rows in closed form.
    """

    phi: float
    sd: float

    def log_density(self, x, x_next):
        return _normal_logpdf(x_next, self.phi * np.asarray(x, dtype=float), self.sd)

    def sample(self, x, rng):
        return rng.normal(self.phi * np.asarray(x, dtype=float), self.sd)

    @property
    def stationary_sd(self) -> float:
        """Scale of the stationary law N(0, sd^2 / (1 - phi^2)), |phi| < 1."""
        return self.sd / math.sqrt(1.0 - self.phi * self.phi)


def _gaussian_peak(kernel: GaussianTransition) -> MixingBounds:
    # the N(m, sd^2) density peaks at 1 / (sd sqrt(2 pi)) whatever m is
    return MixingBounds(sigma_plus=1.0 / (kernel.sd * math.sqrt(2.0 * math.pi)))


@dataclass(frozen=True)
class FiniteModelData:
    """Raw matrices of a finite-state model, kept for exact oracles.

    Attributes
    ----------
    transition : ndarray, shape (K, K)
        Row-stochastic transition matrix.
    emissions : ndarray, shape (n_steps, K)
        Per-time observation likelihoods; row t holds g_t over states.
    initial : ndarray, shape (K,)
        Initial distribution over states.
    """

    transition: np.ndarray
    emissions: np.ndarray
    initial: np.ndarray

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def independent(self) -> bool:
        """True when every transition row is identical, i.e. the next
        state does not depend on the current one."""
        return bool(np.all(self.transition == self.transition[0]))


@dataclass(frozen=True)
class StateSpaceModel:
    """A state-space model with observations baked in.

    Attributes
    ----------
    initial_sampler : callable (rng, n) -> ndarray
        Draw n states from the initial law.
    initial_log_density : callable (x) -> ndarray
        Log density of the initial law, elementwise.
    transition_log_density : callable (x, x_next) -> ndarray
        Log transition density; broadcasts over both arguments.  The
        backward kernel builds its rows from it unless
        ``gaussian_transition`` is set.
    transition_sampler : callable (x, rng) -> ndarray
        One transition draw per entry of x.
    observation_log_density : callable (t, x) -> ndarray
        Log likelihood of the observation at time t, as a function of
        the state; the observation itself is closed over.
    n_observations : int
        Number of time points with a defined observation term.
    state_dtype : numpy dtype
        Dtype of state arrays (float64 or int64).
    mixing_bounds : MixingBounds or None
        Bounds on the transition density.  Present whenever an upper
        bound holds, which is what the rejection sampler needs; None
        means the model has no known bound.
    finite : FiniteModelData or None
        Exact-oracle hook, populated for finite-state models.
    gaussian_transition : GaussianTransition or None
        The ``(phi, sd)`` of an N(phi x, sd^2) transition, set by the
        Gaussian families.  When it is set, the backward kernel builds
        its rows from it and never calls ``transition_log_density`` for
        them, so a copy that replaces one must replace both or neither.
    """

    initial_sampler: Callable[[np.random.Generator, int], np.ndarray]
    initial_log_density: Callable[[np.ndarray], np.ndarray]
    transition_log_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    transition_sampler: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    observation_log_density: Callable[[int, np.ndarray], np.ndarray]
    n_observations: int
    state_dtype: np.dtype = field(default=np.dtype(np.float64))
    mixing_bounds: MixingBounds | None = None
    finite: FiniteModelData | None = None
    gaussian_transition: GaussianTransition | None = None


@dataclass(frozen=True)
class AuxiliaryProposal:
    """Instrumental ingredients of an auxiliary particle filter.

    Attributes
    ----------
    adjustment_log_weight : callable (t, x) -> ndarray, or None
        Log of the selection adjustment applied to the time t-1 cloud
        before propagating to time t.  None means no adjustment: the
        filter selects by the weights alone.
    proposal_log_density : callable (t, x, x_next) -> ndarray, or None
        Log density of the propagation kernel at time t.  None means the
        model's own transition density, which the filter then evaluates
        once for both terms of the importance ratio.
    proposal_sampler : callable (t, x, rng) -> ndarray
        One propagation draw per entry of x.
    initial_instrumental_log_density : callable (x) -> ndarray
        Log density of the time-0 instrumental law.
    initial_instrumental_sampler : callable (rng, n) -> ndarray
        Draw n states from the time-0 instrumental law.
    """

    adjustment_log_weight: Callable[[int, np.ndarray], np.ndarray] | None
    proposal_log_density: Callable[[int, np.ndarray, np.ndarray], np.ndarray] | None
    proposal_sampler: Callable[[int, np.ndarray, np.random.Generator], np.ndarray]
    initial_instrumental_log_density: Callable[[np.ndarray], np.ndarray]
    initial_instrumental_sampler: Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class AdditiveFunctional:
    """A lagged additive path functional ``sum_{t=lag}^{horizon} h_t``.

    Each term h_t takes ``lag + 1`` consecutive states
    ``x_{t-lag}, ..., x_t`` and returns a real value; ``term`` is
    called as ``term(t, x_minus_lag, ..., x_t)`` with array arguments
    that broadcast.

    ``oscillation`` is an optional declared bound on the oscillation of
    every term; it is consumed only by theory-bound overlays, never by
    the estimators.
    """

    lag: int
    horizon: int
    term: Callable[..., np.ndarray]
    oscillation: float | None = None

    def __post_init__(self):
        if self.lag < 0:
            raise ValueError(f"lag must be >= 0, got {self.lag}")
        if self.horizon < self.lag:
            raise ValueError(
                f"horizon {self.horizon} is smaller than lag {self.lag}"
            )
        if self.oscillation is not None and not self.oscillation >= 0.0:
            raise ValueError("oscillation bound must be nonnegative")

    def term_on_grid(self, t: int, axes) -> np.ndarray:
        """h_t on the (lag+1)-fold grid of ``axes``, one 1-d array of
        states for each of x_{t-lag}, ..., x_t: each is broadcast along
        its own axis, so entry (i_0, ..., i_lag) is
        ``h_t(axes[0][i_0], ..., axes[lag][i_lag])``."""
        slices = []
        for a, states in enumerate(axes):
            shape = [1] * (self.lag + 1)
            shape[a] = len(states)
            slices.append(np.reshape(states, shape))
        return np.asarray(self.term(t, *slices), dtype=float)


def state_sum_functional(horizon: int) -> AdditiveFunctional:
    """Sum of the state over time: lag 0, ``h_t(x) = x``.

    Smoothing this functional yields the cumulative posterior mean of
    the latent path, the quantity the benchmark experiments estimate.
    """
    return AdditiveFunctional(lag=0, horizon=horizon, term=lambda t, x: x)


def _check_ar1(phi, scales):
    # the Gaussian families' parameters, as models and simulators take
    # them: a stationary AR(1) state of noise scale scales[0], and scales
    # holding (name, value) pairs, each of which must be positive
    if not abs(phi) < 1.0:
        raise ValueError(f"|phi| must be < 1 for a stationary state, got {phi}")
    for name, value in scales:
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


def _ar1_model(phi, scales, observations, observe, mixing_bounds):
    # the Gaussian families' model, observed through observe(y_t, x)
    _check_ar1(phi, scales)
    y = np.asarray(observations, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("observations must be a nonempty 1-d sequence")
    _require_finite("observations", y)

    kernel = GaussianTransition(phi=phi, sd=scales[0][1])
    initial_sd = kernel.stationary_sd

    def initial_sampler(rng, n):
        return rng.normal(0.0, initial_sd, size=n)

    def initial_log_density(x):
        return _normal_logpdf(x, 0.0, initial_sd)

    def observation_log_density(t, x):
        return observe(y[t], np.asarray(x, dtype=float))

    return StateSpaceModel(
        initial_sampler=initial_sampler,
        initial_log_density=initial_log_density,
        transition_log_density=kernel.log_density,
        transition_sampler=kernel.sample,
        observation_log_density=observation_log_density,
        n_observations=y.size,
        mixing_bounds=mixing_bounds or _gaussian_peak(kernel),
        gaussian_transition=kernel,
    )


def make_lgm(
    phi: float,
    sigma_u: float,
    sigma_v: float,
    observations: Sequence[float],
    mixing_bounds: MixingBounds | None = None,
) -> StateSpaceModel:
    """Linear Gaussian model observed in Gaussian noise.

    The state follows ``X_{t+1} = phi X_t + sigma_u U_t`` with standard
    Gaussian noise, started from its stationary law
    ``N(0, sigma_u^2 / (1 - phi^2))``, and ``Y_t = X_t + sigma_v V_t``.

    Parameters
    ----------
    phi : float
        Autoregression coefficient, |phi| < 1.
    sigma_u, sigma_v : float
        State and observation noise scales, > 0.
    observations : sequence of float
        The observed sequence y_0, ..., y_T, baked into the model.
    mixing_bounds : MixingBounds, optional
        By default only the exact peak of the Gaussian kernel,
        ``sigma_plus = 1 / (sigma_u sqrt(2 pi))``, is attached: no lower
        bound holds on the real line.  Callers restricting the state to
        a compact set may supply their own.
    """

    def observe(y_t, x):
        return _normal_logpdf(y_t, x, sigma_v)

    return _ar1_model(
        phi, (("sigma_u", sigma_u), ("sigma_v", sigma_v)), observations, observe,
        mixing_bounds,
    )


def make_svm(
    phi: float,
    sigma: float,
    beta: float,
    observations: Sequence[float],
    mixing_bounds: MixingBounds | None = None,
) -> StateSpaceModel:
    """Stochastic volatility model.

    The log-volatility follows the same stationary AR(1) state as the
    linear Gaussian model (scale ``sigma``); the observation is
    ``Y_t = beta exp(X_t / 2) V_t`` with standard Gaussian noise, so
    ``Y_t | X_t ~ N(0, beta^2 exp(X_t))``.  As for :func:`make_lgm`,
    ``mixing_bounds`` defaults to the kernel's exact peak
    ``sigma_plus = 1 / (sigma sqrt(2 pi))``.
    """

    def observe(y_t, x):
        squared = (y_t / beta) ** 2
        return -0.5 * (squared * np.exp(-x) + x) - math.log(beta) - 0.5 * _LOG_2PI

    return _ar1_model(
        phi, (("sigma", sigma), ("beta", beta)), observations, observe, mixing_bounds
    )


def categorical_cdf(probabilities: np.ndarray) -> np.ndarray:
    """Cumulative probabilities along the last axis, closed at 1.

    Every entry that reaches the row's rounded total is set to 1.  The
    first index whose entry reaches the total has positive probability,
    so it takes the rounding slack: an inverse-CDF lookup of any uniform
    in [0, 1) lands on an index of positive probability, never on a
    trailing index of probability 0 (or too small to move the sum).
    """
    cdf = np.cumsum(probabilities, axis=-1)
    cdf[cdf >= cdf[..., -1:]] = 1.0
    return cdf


def categorical_indices(
    probabilities: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Inverse-CDF lookup: for each uniform, the first index whose
    cumulative probability (:func:`categorical_cdf`) strictly exceeds it.

    The uniforms are looked up in ascending order, so each search starts
    where the last one ended, and the indices are scattered back to the
    uniforms' own order.  Each index depends on its uniform alone, so
    the order of the lookups does not change the result.
    """
    cdf = categorical_cdf(probabilities)
    uniforms = np.asarray(uniforms, dtype=float)
    order = np.argsort(uniforms, axis=None)
    indices = np.empty(uniforms.size, dtype=np.int64)
    indices[order] = np.searchsorted(cdf, uniforms.ravel()[order], side="right")
    return indices.reshape(uniforms.shape)


def first_above(cdf: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup in the rows of a table: for each row m of
    ``cdf``, the first index whose entry strictly exceeds ``values[m]``.
    Some entry of each row must exceed its value.  The lookup compares
    every entry, which suits narrow tables."""
    return np.argmax(cdf > values[:, None], axis=1)


def categorical_rows(
    probabilities: np.ndarray, uniforms: np.ndarray, rows=None
) -> np.ndarray:
    """Inverse-CDF draws from the rows of a probability table.

    Draw m reads row ``rows[m]`` (row m when ``rows`` is None) and
    returns the first index whose cumulative probability strictly
    exceeds ``uniforms[m]``.  Each row's CDF is closed at 1 from the
    first index that reaches the row's total (:func:`categorical_cdf`),
    so every uniform in [0, 1) lands on an index of positive probability.
    """
    cdf = categorical_cdf(probabilities)
    uniforms = np.asarray(uniforms, dtype=float)
    if rows is None:
        rows = np.arange(uniforms.size)
    return first_above(cdf[rows], uniforms)


def _check_chain(P: np.ndarray, chi: np.ndarray) -> None:
    """Reject a transition matrix or initial law that is not a strictly
    positive square row-stochastic matrix and a law over its states."""
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {P.shape}")
    K = P.shape[0]
    _require_finite("transition_matrix", P)
    if np.any(P <= 0.0):
        raise ValueError(
            "transition matrix entries must be strictly positive; "
            "a zero entry breaks the two-sided density bounds"
        )
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("transition matrix rows must sum to 1 within 1e-12")
    if chi.shape != (K,):
        raise ValueError(f"initial distribution must have shape ({K},)")
    _require_finite("initial", chi)
    if np.any(chi < 0.0) or abs(chi.sum() - 1.0) > 1e-12:
        raise ValueError("initial distribution must be nonnegative and sum to 1")


def make_finite_hmm(
    transition_matrix: Sequence[Sequence[float]],
    emission: Sequence[Sequence[float]],
    initial: Sequence[float],
) -> StateSpaceModel:
    """Finite-state chain with strictly positive transition matrix.

    States are the integer labels ``0..K-1`` under counting measure.
    Strict positivity of every transition entry is required, which
    makes the two-sided density bounds hold exactly; they are attached
    as ``mixing_bounds`` with

    * ``sigma_minus`` / ``sigma_plus`` the smallest / largest entry,
    * ``c_minus`` the smallest one-step predictive likelihood mass over
      the evaluated times (including the time-0 mass under the initial
      law).

    Parameters
    ----------
    transition_matrix : (K, K) array-like
        Rows must sum to 1 within 1e-12 and every entry must be > 0.
    emission : (n_steps, K) array-like
        Per-time observation likelihoods with the observations baked
        in: row t holds g_t evaluated at each state.  Entries must be
        strictly positive.
    initial : (K,) array-like
        Initial distribution; must sum to 1 within 1e-12.
    """
    P = np.asarray(transition_matrix, dtype=float)
    E = np.atleast_2d(np.asarray(emission, dtype=float))
    chi = np.asarray(initial, dtype=float)

    _check_chain(P, chi)
    K = P.shape[0]
    if E.shape[1] != K:
        raise ValueError(
            f"emission rows must have {K} columns, got {E.shape[1]}"
        )
    _require_finite("emission", E)
    if np.any(E <= 0.0):
        raise ValueError("emission likelihoods must be strictly positive")

    log_P = np.log(P)
    transition_cdf = categorical_cdf(P)
    log_E = np.log(E)
    with np.errstate(divide="ignore"):
        log_chi = np.log(chi)

    predictive_floors = [float(chi @ E[0])]
    for t in range(1, E.shape[0]):
        predictive_floors.append(float(np.min(P @ E[t])))
    bounds = MixingBounds(
        sigma_minus=float(P.min()),
        sigma_plus=float(P.max()),
        c_minus=min(predictive_floors),
    )

    def initial_sampler(rng, n):
        return categorical_indices(chi, rng.random(n))

    def initial_log_density(x):
        return log_chi[np.asarray(x, dtype=np.int64)]

    def transition_log_density(x, x_next):
        return log_P[np.asarray(x, dtype=np.int64), np.asarray(x_next, dtype=np.int64)]

    def transition_sampler(x, rng):
        x = np.atleast_1d(np.asarray(x, dtype=np.int64))
        return first_above(transition_cdf[x], rng.random(x.size))

    def observation_log_density(t, x):
        return log_E[t, np.asarray(x, dtype=np.int64)]

    return StateSpaceModel(
        initial_sampler=initial_sampler,
        initial_log_density=initial_log_density,
        transition_log_density=transition_log_density,
        transition_sampler=transition_sampler,
        observation_log_density=observation_log_density,
        n_observations=E.shape[0],
        state_dtype=np.dtype(np.int64),
        mixing_bounds=bounds,
        finite=FiniteModelData(transition=P, emissions=E, initial=chi),
    )


def bootstrap_proposal(model: StateSpaceModel) -> AuxiliaryProposal:
    """Proposal that propagates with the model's own transition kernel.

    The adjustment and the proposal density are left None: no selection
    adjustment, and the model's own transition density.  The time-0
    instrumental law is the initial law itself, so the general
    importance weight collapses to the observation likelihood alone.
    """

    def proposal_sampler(t, x, rng):
        return model.transition_sampler(x, rng)

    return AuxiliaryProposal(
        adjustment_log_weight=None,
        proposal_log_density=None,
        proposal_sampler=proposal_sampler,
        initial_instrumental_log_density=model.initial_log_density,
        initial_instrumental_sampler=model.initial_sampler,
    )


def _simulate_ar1(phi, scales, horizon, rng, observe):
    # every state draw first, then every observation draw: y = observe(x,
    # one standard normal per time)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    _check_ar1(phi, scales)
    sd = scales[0][1]
    x = np.empty(horizon + 1)
    x[0] = rng.normal(0.0, GaussianTransition(phi=phi, sd=sd).stationary_sd)
    for t in range(horizon):
        x[t + 1] = phi * x[t] + sd * rng.normal()
    return x, observe(x, rng.normal(size=horizon + 1))


def simulate_lgm(phi, sigma_u, sigma_v, horizon, rng):
    """Draw a latent path and observations from the linear Gaussian model.

    Draw order is fixed (all state noise first, then all observation
    noise) so the output is reproducible from the generator seed alone.
    Returns ``(x, y)`` arrays of length ``horizon + 1``.  The parameters
    are checked as :func:`make_lgm` checks them.
    """
    return _simulate_ar1(
        phi, (("sigma_u", sigma_u), ("sigma_v", sigma_v)), horizon, rng,
        lambda x, v: x + sigma_v * v,
    )


def simulate_svm(phi, sigma, beta, horizon, rng):
    """Draw a latent log-volatility path and observations.

    Same draw order convention as :func:`simulate_lgm`, and the
    parameters are checked as :func:`make_svm` checks them.
    """
    return _simulate_ar1(
        phi, (("sigma", sigma), ("beta", beta)), horizon, rng,
        lambda x, v: beta * np.exp(x / 2.0) * v,
    )


def simulate_finite_hmm(transition_matrix, observation_matrix, initial, horizon, rng):
    """Draw a state path and discrete observations from a finite chain.

    ``observation_matrix[k, a]`` is the probability of emitting symbol
    ``a`` from state ``k``.  Returns ``(states, symbols)`` int arrays of
    length ``horizon + 1``.
    """
    P = np.asarray(transition_matrix, dtype=float)
    B = np.asarray(observation_matrix, dtype=float)
    chi = np.asarray(initial, dtype=float)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    _check_chain(P, chi)
    if B.ndim != 2 or B.shape[0] != P.shape[0]:
        raise ValueError("observation matrix must have one row per state")
    if np.max(np.abs(B.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("observation matrix rows must sum to 1 within 1e-12")

    states = np.empty(horizon + 1, dtype=np.int64)
    states[0] = categorical_indices(chi, rng.random(1))[0]
    for t in range(horizon):
        states[t + 1] = categorical_indices(P[states[t]], rng.random(1))[0]
    symbols = categorical_rows(B, rng.random(horizon + 1), states)
    return states, symbols


def emissions_from_symbols(observation_matrix, symbols) -> np.ndarray:
    """Turn emitted symbols into the per-time likelihood rows a finite
    model wants: row t is ``observation_matrix[:, symbols[t]]``."""
    B = np.asarray(observation_matrix, dtype=float)
    idx = np.asarray(symbols, dtype=np.int64)
    return B[:, idx].T.copy()


class Family(NamedTuple):
    """What grids and the command line know of a model family.

    ``params`` names its parameters.  ``simulate(params, horizon, rng)``
    returns ``(latent, payload)``, where the payload is what
    ``build(params, payload)`` bakes into a :class:`StateSpaceModel`: the
    observations, or a finite chain's emission rows.
    """

    params: tuple[str, ...]
    simulate: Callable[[dict, int, np.random.Generator], tuple]
    build: Callable[[dict, object], StateSpaceModel]


def _simulate_finite(p, horizon, rng):
    states, symbols = simulate_finite_hmm(
        p["transition"], p["observation_matrix"], p["initial"], horizon, rng
    )
    return states, emissions_from_symbols(p["observation_matrix"], symbols)


# the Gaussian families' parameters are named as make_* and simulate_*
# name their arguments
FAMILIES = {
    "lgm": Family(
        ("phi", "sigma_u", "sigma_v"),
        lambda p, horizon, rng: simulate_lgm(**p, horizon=horizon, rng=rng),
        lambda p, y: make_lgm(**p, observations=y),
    ),
    "svm": Family(
        ("phi", "sigma", "beta"),
        lambda p, horizon, rng: simulate_svm(**p, horizon=horizon, rng=rng),
        lambda p, y: make_svm(**p, observations=y),
    ),
    "finite": Family(
        ("transition", "observation_matrix", "initial"),
        _simulate_finite,
        lambda p, emissions: make_finite_hmm(p["transition"], emissions, p["initial"]),
    ),
}


def format_float(value: float) -> str:
    """Round-trip decimal rendering used by every CSV writer."""
    return format(float(value), ".17g")


@contextlib.contextmanager
def text_file(file, mode: str):
    """Text handle for a path or an open handle, as every reader and
    writer takes them.

    A ``str``, ``bytes`` or ``os.PathLike`` is opened as UTF-8 with
    ``newline=""`` (so the csv module controls line endings) and closed
    on exit; anything else is taken to be an open text handle and is
    passed through unclosed.
    """
    if isinstance(file, (str, bytes, os.PathLike)):
        with open(file, mode, encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield file


def write_observations_csv(file, x_true, y) -> None:
    """Write a simulated sequence as ``t,x_true,y`` rows.

    ``file`` is a path or a text file object; text is UTF-8 with plain
    newlines and floats carry 17 significant digits.
    """
    x_true = np.asarray(x_true, dtype=float)
    y = np.asarray(y, dtype=float)
    if x_true.shape != y.shape or x_true.ndim != 1:
        raise ValueError("x_true and y must be 1-d arrays of equal length")

    with text_file(file, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t", "x_true", "y"])
        for t in range(x_true.size):
            writer.writerow([t, format_float(x_true[t]), format_float(y[t])])


def read_observations_csv(file):
    """Read a ``t,x_true,y`` CSV back into ``(x_true, y)`` arrays.

    ``file`` is a path or a text file object, as for the writer.  Each
    data row must have exactly three fields, ``t`` must count 0, 1, 2,
    ... in order, and ``x_true`` and ``y`` must parse as floats;
    otherwise a ``ValueError`` names the line.
    """
    with text_file(file, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["t", "x_true", "y"]:
            raise ValueError(f"expected header t,x_true,y, got {header}")
        xs, ys = [], []
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 3:
                raise ValueError(
                    f"line {line}: expected 3 fields t,x_true,y, got {len(row)}"
                )
            if row[0].strip() != str(len(ys)):
                raise ValueError(
                    f"line {line}: expected t = {len(ys)}, got {row[0]!r}"
                )
            try:
                x, y = float(row[1]), float(row[2])
            except ValueError:
                raise ValueError(
                    f"line {line}: x_true and y must be numbers, "
                    f"got {row[1]!r} and {row[2]!r}"
                ) from None
            xs.append(x)
            ys.append(y)
    if not ys:
        raise ValueError("no data rows in observations file")
    return np.asarray(xs), np.asarray(ys)
