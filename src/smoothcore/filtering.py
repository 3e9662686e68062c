"""Auxiliary particle filter with full history retention.

The filter resamples at every step.  Selection draws ancestor indices
from the adjusted weights by inverse-CDF lookup (first index whose
cumulative weight strictly exceeds the uniform), then propagates each
selected parent through the proposal kernel and reweights with the
general importance ratio

    transition * likelihood / (adjustment * proposal)

evaluated in log space throughout.  A proposal may leave two terms as
None.  A None adjustment means no adjustment: selection reads the
weights alone.  A None proposal density means the model's own
transition density, which is then evaluated once and subtracted from
``transition + likelihood``.  The bootstrap proposal leaves both None,
so its weights cost one density call and keep the bits the general
formula gives with a zero adjustment.  Unnormalized log weights are
kept per step; linear weights only ever appear after subtracting the
per-step maximum.  Effective sample size is available as a diagnostic
but never triggers any adaptive behaviour.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import FilterDegeneracyError
from .models import (
    AuxiliaryProposal,
    StateSpaceModel,
    categorical_indices,
    format_float,
    text_file,
)


class FilterStep(NamedTuple):
    """One filter step: positions, unnormalized log weights, and the
    ancestor indices used to produce them (None at time 0)."""

    t: int
    positions: np.ndarray
    log_weights: np.ndarray
    ancestors: np.ndarray | None


@dataclass(frozen=True)
class ParticleHistory:
    """Complete output of one filter run.

    Attributes
    ----------
    positions : ndarray, shape (T+1, N)
        Particle positions per step.
    log_weights : ndarray, shape (T+1, N)
        Unnormalized log importance weights per step.
    ancestors : ndarray, shape (T, N)
        Row t-1 holds the indices of the time t-1 parents selected when
        building step t.
    """

    positions: np.ndarray
    log_weights: np.ndarray
    ancestors: np.ndarray

    def __post_init__(self):
        if self.positions.ndim != 2:
            raise ValueError("positions must be a (T+1, N) array")
        steps, n = self.positions.shape
        if self.log_weights.shape != (steps, n):
            raise ValueError("log_weights shape must match positions")
        if self.ancestors.shape != (steps - 1, n):
            raise ValueError("ancestors must have shape (T, N)")
        if steps >= 1 and self.ancestors.size:
            if self.ancestors.min() < 0 or self.ancestors.max() >= n:
                raise ValueError("ancestor indices out of range")

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    @property
    def horizon(self) -> int:
        return self.positions.shape[0] - 1


def exp_normalize(log_values: np.ndarray) -> np.ndarray:
    """Exponentiate after subtracting the max, then normalize to sum 1.

    Raises ValueError when no entry is finite.
    """
    log_values = np.asarray(log_values, dtype=float)
    top = np.max(log_values)
    if not np.isfinite(top):
        raise ValueError("cannot normalize: all log values are -inf")
    w = np.exp(log_values - top)
    return w / w.sum()


def filter_steps(
    model: StateSpaceModel,
    proposal: AuxiliaryProposal,
    n_particles: int,
    horizon: int,
    rng: np.random.Generator,
) -> Iterator[FilterStep]:
    """Yield filter steps one at a time without retaining history.

    Per step the generator consumes exactly ``n_particles`` uniforms
    for selection followed by the proposal sampler's draws, so a given
    seed reproduces the run bit for bit.  Invalid sizes raise
    ``ValueError`` at the call, before any step is drawn.
    """
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if horizon + 1 > model.n_observations:
        raise ValueError(
            f"horizon {horizon} exceeds the {model.n_observations} "
            "observation terms baked into the model"
        )
    return _filter_steps(model, proposal, n_particles, horizon, rng)


def _filter_steps(
    model: StateSpaceModel,
    proposal: AuxiliaryProposal,
    n_particles: int,
    horizon: int,
    rng: np.random.Generator,
) -> Iterator[FilterStep]:
    positions = np.asarray(proposal.initial_instrumental_sampler(rng, n_particles))
    log_weights = (
        np.asarray(model.initial_log_density(positions), dtype=float)
        - np.asarray(proposal.initial_instrumental_log_density(positions), dtype=float)
        + np.asarray(model.observation_log_density(0, positions), dtype=float)
    )
    if not np.isfinite(np.max(log_weights)):
        raise FilterDegeneracyError(0)
    yield FilterStep(0, positions, log_weights, None)

    for t in range(1, horizon + 1):
        selection_logits = log_weights
        if proposal.adjustment_log_weight is not None:
            adjustment = np.asarray(
                proposal.adjustment_log_weight(t, positions), dtype=float
            )
            selection_logits = log_weights + adjustment
        if not np.isfinite(np.max(selection_logits)):
            raise FilterDegeneracyError(t)
        selection_probs = exp_normalize(selection_logits)
        ancestors = categorical_indices(selection_probs, rng.random(n_particles))

        parents = positions[ancestors]
        positions = np.asarray(proposal.proposal_sampler(t, parents, rng))
        transition = np.asarray(
            model.transition_log_density(parents, positions), dtype=float
        )
        # a None term skips what would subtract exact zeros (the
        # adjustment) or the density just computed (the proposal); the
        # left-to-right order keeps the general formula's bits
        log_weights = transition + np.asarray(
            model.observation_log_density(t, positions), dtype=float
        )
        if proposal.adjustment_log_weight is not None:
            log_weights -= adjustment[ancestors]
        if proposal.proposal_log_density is None:
            log_weights -= transition
        else:
            log_weights -= np.asarray(
                proposal.proposal_log_density(t, parents, positions), dtype=float
            )
        if not np.isfinite(np.max(log_weights)):
            raise FilterDegeneracyError(t)
        yield FilterStep(t, positions, log_weights, ancestors)


def run_filter(
    model: StateSpaceModel,
    proposal: AuxiliaryProposal,
    n_particles: int,
    horizon: int,
    rng: np.random.Generator,
) -> ParticleHistory:
    """Run the filter to ``horizon`` and keep the whole history."""
    # filter_steps checks the sizes before anything is allocated
    steps = filter_steps(model, proposal, n_particles, horizon, rng)
    positions = np.empty((horizon + 1, n_particles), dtype=model.state_dtype)
    log_weights = np.empty((horizon + 1, n_particles))
    ancestors = np.empty((horizon, n_particles), dtype=np.int64)
    for step in steps:
        positions[step.t] = step.positions
        log_weights[step.t] = step.log_weights
        if step.t > 0:
            ancestors[step.t - 1] = step.ancestors
    return ParticleHistory(
        positions=positions, log_weights=log_weights, ancestors=ancestors
    )


def history_steps(history: ParticleHistory) -> Iterator[FilterStep]:
    """Replay a stored history as a stream of filter steps."""
    yield FilterStep(0, history.positions[0], history.log_weights[0], None)
    for t in range(1, history.horizon + 1):
        yield FilterStep(
            t,
            history.positions[t],
            history.log_weights[t],
            history.ancestors[t - 1],
        )


def _check_time_index(history: ParticleHistory, t: int) -> None:
    if not 0 <= t <= history.horizon:
        raise IndexError(
            f"time index {t} outside 0..{history.horizon}"
        )


def normalized_weights(history: ParticleHistory, t: int) -> np.ndarray:
    """Normalized importance weights at step t."""
    _check_time_index(history, t)
    return exp_normalize(history.log_weights[t])


def filter_estimate(
    history: ParticleHistory, t: int, f: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Self-normalized estimate of the filter expectation of f at t."""
    _check_time_index(history, t)
    w = normalized_weights(history, t)
    values = np.asarray(f(history.positions[t]), dtype=float)
    return float(w @ values)


def effective_sample_size(history: ParticleHistory, t: int) -> float:
    """Diagnostic ESS ``1 / sum(w^2)`` of the normalized weights."""
    w = normalized_weights(history, t)
    return float(1.0 / np.sum(w * w))


def dump_history_csv(history: ParticleHistory, file) -> None:
    """Debug dump: one row per (t, particle) with position, log weight,
    ancestor (-1 at time 0)."""
    with text_file(file, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t", "particle", "position", "log_weight", "ancestor"])
        for t in range(history.horizon + 1):
            for i in range(history.n_particles):
                ancestor = -1 if t == 0 else int(history.ancestors[t - 1, i])
                writer.writerow(
                    [
                        t,
                        i,
                        format_float(history.positions[t, i]),
                        format_float(history.log_weights[t, i]),
                        ancestor,
                    ]
                )
