"""Smoothed additive functionals from a particle filter history.

Four estimator families share the same backward decomposition of the
smoothing distribution:

* ``ffbs_backward_additive`` contracts the additive terms against the
  backward marginal recursion (deterministic given the history,
  O(T N^2) for lag 0, O(T N^{r+2}) in general);
* ``ffbs_forward_additive`` computes the same value with a forward-only
  recursion over per-particle running statistics (lags 0 and 1);
* ``ffbsi_sample_paths`` / ``ffbsi_rejection_sample_paths`` draw index
  trajectories backwards through :meth:`BackwardKernel.sample`, the
  rejection variant after accept/reject rounds under the transition
  density's upper bound that stop once the targets left hold at most
  sqrt(N) distinct states or a round accepts none, and average the
  functional along them;
* ``path_space_estimate`` never smooths at all: it propagates running
  sums through the filter's genealogy and reads off the weighted
  average at the final step.

All four backward smoothers go through one per-step
:class:`BackwardKernel`.  Its rows are built in log space, one per
distinct target *state* (a row depends on nothing else, so a finite
chain needs K rows per step): from the model's transition density, or,
on a model with a Gaussian AR(1) transition, from a centered rank-2
form of it, as an exponentiated target factor times a per-source
column.  They are swept in cache-sized blocks that are exponentiated
in place and consumed at once by a mat-vec, which folds in the column
and each row's normalization, or by an exact row draw, which reads each
block once for its rows' chunk masses and then rebuilds, for each draw,
the one chunk its uniform lands in.
Only :func:`backward_matrix` and the lagged (r >= 1) backward
contraction hold a full (N, N) matrix.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateBackwardRowError,
    UnsupportedLagError,
    UnsupportedModelError,
)
from .filtering import (
    FilterStep,
    ParticleHistory,
    exp_normalize,
    filter_steps,
    history_steps,
    normalized_weights,
)
from .models import (
    AdditiveFunctional,
    AuxiliaryProposal,
    StateSpaceModel,
    categorical_cdf,
    categorical_indices,
)

METHOD_FFBS_BACKWARD = "ffbs_backward"
METHOD_FFBS_FORWARD = "ffbs_forward"
METHOD_FFBSI_DIRECT = "ffbsi_direct"
METHOD_FFBSI_REJECTION = "ffbsi_rejection"
METHOD_PATH_SPACE = "path_space"

METHOD_NAMES = (
    METHOD_FFBS_BACKWARD,
    METHOD_FFBS_FORWARD,
    METHOD_FFBSI_DIRECT,
    METHOD_FFBSI_REJECTION,
    METHOD_PATH_SPACE,
)


@dataclass(frozen=True)
class SmoothingEstimate:
    """One smoothed-functional estimate with its run metadata."""

    method: str
    value: float
    n_particles: int
    horizon: int
    lag: int
    seed: int | None

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise ValueError(f"unknown method name {self.method!r}")


@dataclass(frozen=True)
class RejectionStats:
    """Counts from one rejection-sampling backward pass."""

    proposals: int
    accepted: int
    fallbacks: int

    @property
    def acceptance_rate(self) -> float:
        if self.proposals == 0:
            return math.nan
        return self.accepted / self.proposals


# Bytes of float64 in one block of backward rows, about 64 rows at
# N = 1000, so that a block's log-kernel, exp and row sums stay in cache
# while it is consumed.
_BLOCK_BYTES = 512 * 1024
# Columns per chunk in a row draw.  A draw picks its chunk from the
# prefix sums of its row's N / _CHUNK chunk masses and its index from a
# cumsum over _CHUNK entries of that chunk, rebuilt for the draw, so the
# chunk masses cost per row and chunk and the rebuild per draw and
# column; 16 balanced the two best of the widths measured.
_CHUNK = 16
# Bytes of the prefix sums one row draw holds for its search, one copy
# per distinct row and one per draw: (N / _CHUNK + 1) floats each, about
# 1 MB for 1000 draws at N = 1000.  Past it the targets are drawn in parts,
# which may build a row once per part.
_SEARCH_BYTES = 64 * 1024 * 1024
# Bytes of one float64 array of N^(r+1) entries in a lag r >= 1
# contraction.  Several such arrays live at once (the einsum block, the
# term on the particle grid and their product), so a contraction inside
# this budget peaks near 1 GB; past it, the allocator fails midway
# (8 GB per array at N = 1000, r = 2).  It admits N <= 5792 at lag 1 and
# N <= 322 at lag 2.
_LAG_GRID_BYTES = 256 * 1024 * 1024
# Span, in log units, of the target factors exp(d slope_j) within one
# anchor bin of the Gaussian build: |d slope_j| <= _LOG_SPAN / 2.  Each
# row's largest entry is then at least e^-150 and none exceeds e^150, so
# no entry, row sum or mat-vec quotient (an entry over its row's sum,
# under e^300) leaves float64's range of about e^709, and no row max is
# needed.  The price is underflow: a column entry under e^-745 reads 0
# although its row may lift it by up to e^150, so an entry under about
# e^-445 of its row's largest may read 0, where a row max keeps entries
# down to e^-745 of it.  A larger span means fewer bins on a widely
# spread cloud.
_LOG_SPAN = 300.0


def _anchor_bins(offsets: np.ndarray, slope: np.ndarray) -> list[tuple]:
    """Split sorted finite offsets into runs ``offsets[lo:hi]`` of one
    anchor bin each, as ``(lo, hi, anchor)``.  Bin k holds the offsets o
    with round(o / width) = k, width = _LOG_SPAN / max|slope|, and its
    anchor a = k * width keeps |(o - a) slope_j| <= _LOG_SPAN / 2."""
    scale = float(np.abs(slope).max())
    if not 0.0 < scale < math.inf:
        return [(0, offsets.size, 0.0)]
    width = _LOG_SPAN / scale
    # rounding is monotone, so the two ends tell whether one bin holds
    # all; both round halves to even, as np.rint does below
    first = round(offsets[0] / width)
    if first == round(offsets[-1] / width):
        return [(0, offsets.size, first * width)]
    keys = np.rint(offsets / width)
    edges = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    lows = np.append(0, edges)
    highs = np.append(edges, offsets.size)
    return [(lo, hi, keys[lo] * width) for lo, hi in zip(lows, highs)]


class BackwardKernel:
    """The backward kernel from the time t+1 cloud onto the time t cloud.

    Row j of target particle i is ``w_t^j m(x_t^j, x_{t+1}^i)``,
    normalized over j.  A row depends only on the target's state, so
    every operation builds one row per distinct target value, in blocks
    of at most ``_BLOCK_BYTES`` that are exponentiated in place and
    consumed before the next block is built.  A block's row is its
    entries times a per-source column, which each operation folds into
    its mat-vec or multiplies in.  When the model carries a
    ``gaussian_transition``, the rows come from its ``(phi, sd)`` and
    ``transition_log_density`` is not called.  Target indices refer to
    the time t+1 cloud.
    """

    def __init__(
        self,
        model: StateSpaceModel,
        t: int,
        positions: np.ndarray,
        log_weights: np.ndarray,
        next_positions: np.ndarray,
    ):
        self.model = model
        self.t = t
        self.positions = positions
        self.log_weights = log_weights
        self.next_positions = next_positions
        self.block = max(1, _BLOCK_BYTES // (8 * positions.shape[0]))
        gaussian = model.gaussian_transition
        if gaussian is not None:
            # log w_j - ((v - phi x_j) / sd)^2 / 2 about c = mean(phi x):
            # with offset o = v - c = a + d, it is d slope_j plus the
            # column log w_j - ((phi x_j - c - a) / sd)^2 / 2, up to terms
            # of the row alone, which cancel in its normalization.
            # Centering keeps the terms as small as the spread of the
            # states rather than their size.
            self._means = gaussian.phi * positions
            self._center = np.mean(self._means)
            self._means -= self._center
            self._slope = self._means / gaussian.sd**2

    def _blocks(self, targets: np.ndarray | None):
        """Yield ``(values, rows, column, members, which, shifts)`` per
        block of distinct target values.  Row m of the block is
        ``rows[m] * column`` up to a positive factor, not normalized:
        ``rows`` holds the exponentiated target-dependent part and
        ``column`` the per-source part, shared by the blocks of one anchor
        bin (ones when the rows come from the model's density).
        ``shifts[m]`` is what :meth:`_entries` needs to rebuild entries of
        row m: its offset from the bin's anchor, or the row max taken out
        of its density row.  Target ``targets[members[m]]`` reads row
        ``which[m]``; ``which`` is non-decreasing.  ``targets=None`` means
        the whole time t+1 cloud."""
        if targets is None:
            targets = np.arange(self.next_positions.shape[0])
        # sort the targets by state: the targets order[starts[k]:starts[k + 1]]
        # share the k-th distinct state, and row_of numbers them by state
        states = self.next_positions[targets]
        order = np.argsort(states, kind="stable")
        ordered = states[order]
        fresh = np.empty(ordered.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
        starts = np.append(np.flatnonzero(fresh), ordered.size)
        row_of = np.cumsum(fresh) - 1
        values = ordered[starts[:-1]]

        def degenerate(row):
            return DegenerateBackwardRowError(self.t, int(targets[order[starts[row]]]))

        gaussian = self.model.gaussian_transition
        if values.size == 0:
            bins = []
        elif gaussian is None:
            bins = [(0, values.size, None, np.ones(self.positions.shape[0]))]
        else:
            slope = self._slope
            offsets = values - self._center
            # values are sorted, so a non-finite offset sits at an end
            if not (math.isfinite(offsets[0]) and math.isfinite(offsets[-1])):
                raise degenerate(int(np.argmin(np.isfinite(offsets))))
            bins = []
            for lo, hi, anchor in _anchor_bins(offsets, slope):
                column = self.log_weights - 0.5 * ((self._means - anchor) / gaussian.sd) ** 2
                top = column.max()
                if not math.isfinite(top):
                    raise degenerate(lo)
                column -= top
                np.exp(column, out=column)
                bins.append((lo, hi, offsets[lo:hi] - anchor, column))
        # one buffer serves every block: each block is consumed before
        # the next one overwrites it
        buffer = np.empty((min(self.block, values.size), self.positions.shape[0]))
        for lo, hi, deltas, column in bins:
            for start in range(lo, hi, self.block):
                stop = min(start + self.block, hi)
                rows = buffer[: stop - start]
                if deltas is not None:
                    # one product per entry, not a matrix product: BLAS
                    # takes a 1-row block through another routine, so a
                    # row's bits would depend on its block.  einsum is the
                    # faster outer product.  Within a bin every entry lies in
                    # [-_LOG_SPAN / 2, _LOG_SPAN / 2], so no row max is needed.
                    shifts = deltas[start - lo : stop - lo]
                    np.einsum("i,j->ij", shifts, slope, out=rows)
                else:
                    np.add(
                        self.log_weights,
                        self.model.transition_log_density(
                            self.positions[None, :], values[start:stop, None]
                        ),
                        out=rows,
                    )
                    top = rows.max(axis=1, keepdims=True)
                    if not np.isfinite(top).all():
                        raise degenerate(start + int(np.argmin(np.isfinite(top[:, 0]))))
                    rows -= top
                    shifts = top[:, 0]
                np.exp(rows, out=rows)
                first, last = starts[start], starts[stop]
                yield (
                    values[start:stop],
                    rows,
                    column,
                    order[first:last],
                    row_of[first:last] - start,
                    shifts,
                )

    def _entries(self, values, shifts, sources):
        """The entries at sources ``sources[k, m]`` of the row of target
        value ``values[m]`` and shift ``shifts[m]`` (see :meth:`_blocks`),
        before its column: the block build's operations, entry for entry,
        so its bits."""
        if self.model.gaussian_transition is not None:
            part = self._slope[sources]
            part *= shifts
        else:
            part = np.add(
                self.log_weights[sources],
                self.model.transition_log_density(self.positions[sources], values),
            )
            part -= shifts
        return np.exp(part, out=part)

    def left(self, v: np.ndarray) -> np.ndarray:
        """``v . Lambda``: carries a law over the time t+1 cloud back onto
        the time t cloud (the backward marginal recursion)."""
        if self.model.finite is not None:
            return self._left_finite(v)
        out = np.zeros(self.positions.shape[0])
        for _, rows, column, members, which, _ in self._blocks(None):
            credit = np.bincount(which, weights=v[members], minlength=len(rows))
            out += column * ((credit / (rows @ column)) @ rows)
        return out

    def _left_finite(self, v: np.ndarray) -> np.ndarray:
        # the same sums associated through the K states of a finite
        # chain: O(N + K^2) instead of O(K N)
        P = self.model.finite.transition
        K = P.shape[0]
        sources = np.asarray(self.positions, dtype=np.int64)
        targets = np.asarray(self.next_positions, dtype=np.int64)
        top = np.max(self.log_weights)
        if not np.isfinite(top):
            raise DegenerateBackwardRowError(self.t)
        weights = np.exp(self.log_weights - top)
        weight_by_state = np.bincount(sources, weights=weights, minlength=K)
        denom = (weight_by_state @ P)[targets]
        if np.any(denom <= 0.0):
            raise DegenerateBackwardRowError(self.t, int(np.argmax(denom <= 0.0)))
        credit_by_state = np.bincount(targets, weights=v / denom, minlength=K)
        return weights * (P @ credit_by_state)[sources]

    def right(self, s: np.ndarray, pair=None) -> np.ndarray:
        """``Lambda . s``: the mean of s over each target's row, for every
        time t+1 particle.  With ``pair``, a callable taking a column of
        target values and returning their (rows, N) pair terms, each row
        averages ``s + pair(target)`` instead."""
        out = np.empty(self.next_positions.shape[0])
        paired = None
        for values, rows, column, members, which, _ in self._blocks(None):
            if pair is None:
                if paired is not column:
                    # one (N, 2) operand per bin: each row's mass and its
                    # weighted sum of s come from one product, faster
                    # than two mat-vecs
                    paired = column
                    both = np.empty((2, column.size))
                    both[0] = column
                    np.multiply(column, s, out=both[1])
                mass, total = (rows @ both.T).T
            else:
                rows *= column
                mass = rows.sum(axis=1)
                total = np.sum(rows * (s + pair(values[:, None])), axis=1)
            out[members] = (total / mass)[which]
        return out

    def draw(self, targets: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One time t index per target, from the target's row by exact
        inverse CDF with the matching uniform.

        A draw reads its row unnormalized, in two levels.  Each block is
        read once, by batched mat-vecs that give its rows' chunk masses
        with the column folded in.  After the last block one search
        serves every draw: the prefix sums of its row's chunk masses pick
        the chunk where ``u`` times the row's mass falls, and a cumsum
        over that chunk's entries, rebuilt from the row's formula with
        the block's bits, picks the index.  A row drawn many times is
        searched in its full cumsum instead.  In exact arithmetic either
        gives the first index whose cumulative probability exceeds ``u``;
        a source of zero mass is never drawn."""
        n = self.positions.shape[0]
        width = min(_CHUNK, n)
        n_chunks = -(-n // width)
        # the search holds n_chunks + 1 prefix sums per row and again per
        # draw; past _SEARCH_BYTES, the targets are drawn in parts
        size = max(1, _SEARCH_BYTES // (16 * (n_chunks + 1)))
        if targets.size > size:
            return np.concatenate(
                [
                    self.draw(targets[lo : lo + size], uniforms[lo : lo + size])
                    for lo in range(0, targets.size, size)
                ]
            )
        # chunk k covers columns starts[k]:starts[k + 1]; the first one is
        # the narrow one, `head` columns wide, so the `width` columns from
        # any chunk's start stay inside its row
        head = n - width * (n_chunks - 1)
        starts = np.arange(head - width, n, width)
        starts[0] = 0
        drawn = np.empty(targets.size, dtype=np.int64)
        # along the step's rows, block after block: cdf[k + 1, row] holds
        # the mass of the row's chunk k, and after the cumsum its mass up
        # to the end of chunk k
        cdf = np.empty((n_chunks + 1, targets.size))
        cdf[0] = 0.0
        values = np.empty(targets.size, dtype=self.next_positions.dtype)
        shifts = np.empty(targets.size)
        # along the draws, in block order: draw d is target members[d] and
        # reads row row_of[d]; the draws lo:hi of a span [lo, hi, column]
        # read rows of that column
        members = np.empty(targets.size, dtype=np.int64)
        row_of = np.empty(targets.size, dtype=np.int64)
        spans = []
        n_rows = filled = 0
        for block_values, rows, column, block_members, which, block_shifts in (
            self._blocks(targets)
        ):
            if which.size > len(rows) * _CHUNK:
                # rows drawn more than _CHUNK times each (a finite chain's
                # few rows): one cumsum and one search per row cost less
                rows *= column
                edges = np.searchsorted(which, np.arange(len(rows) + 1))
                for row, lo, hi in zip(rows, edges[:-1], edges[1:]):
                    row_cdf = np.cumsum(row)
                    drawn[block_members[lo:hi]] = np.searchsorted(
                        row_cdf, uniforms[block_members[lo:hi]] * row_cdf[-1], side="right"
                    )
                continue
            first, n_rows = n_rows, n_rows + len(rows)
            lo, filled = filled, filled + which.size
            # the full chunks as a (chunks, rows, width) view against the
            # column's (chunks, width, 1) view: one batched BLAS product,
            # faster than the column product and np.add.reduceat
            np.matmul(rows[:, :head], column[:head], out=cdf[1, first:n_rows])
            np.matmul(
                rows[:, head:].reshape(len(rows), n_chunks - 1, width).transpose(1, 0, 2),
                column[head:].reshape(n_chunks - 1, width, 1),
                out=cdf[2:, first:n_rows, None],
            )
            values[first:n_rows] = block_values
            shifts[first:n_rows] = block_shifts
            members[lo:filled] = block_members
            np.add(which, first, out=row_of[lo:filled])
            if spans and spans[-1][2] is column:
                spans[-1][1] = filled
            else:
                spans.append([lo, filled, column])
        if not filled:
            return drawn
        # np.cumsum down axis 0 runs one short loop per column; a Python
        # loop adding whole rows is faster on many rows but slower on a
        # draw of a few targets
        cdf = cdf[:, :n_rows]
        np.cumsum(cdf, axis=0, out=cdf)
        members, row_of = members[:filled], row_of[:filled]
        cdf = cdf[:, row_of]
        picks = np.arange(filled)
        x = uniforms[members] * cdf[-1]
        # the prefix sums never fall, so the count of those at most x is
        # the first chunk whose prefix sum exceeds x
        chunk = (cdf[1:] <= x).sum(axis=0)
        x -= cdf[chunk, picks]
        # lane k of draw d is column starts[chunk[d]] + k of its row
        lanes = starts[chunk] + np.arange(width)[:, None]
        inner = self._entries(values[row_of], shifts[row_of], lanes)
        for lo, hi, column in spans:
            inner[:, lo:hi] *= column[lanes[:, lo:hi]]
        np.cumsum(inner, axis=0, out=inner)
        # the chunk masses and this cumsum round differently: keep x
        # below the chunk's total so that it lands on a source of
        # positive mass inside the chunk
        total = inner[np.where(chunk > 0, width, head) - 1, picks]
        np.minimum(x, np.nextafter(total, 0.0), out=x)
        drawn[members] = starts[chunk] + (inner <= x).sum(axis=0)
        return drawn

    def sample(
        self,
        targets: np.ndarray,
        rng: np.random.Generator,
        log_bound: float | None = None,
    ) -> tuple[np.ndarray, int, int]:
        """One time t index per target from its row, with the number of
        proposals and of exact draws.  With ``log_bound``, the log of an
        upper bound on the transition density, accept/reject rounds come
        first, as :func:`ffbsi_rejection_sample_paths` describes: they
        stop once the pending targets hold at most isqrt(N) distinct
        states or a round accepts none.  The targets they leave pending,
        or all of them without ``log_bound``, go to :meth:`draw`."""
        if log_bound is None:
            return self.draw(targets, rng.random(targets.size)), 0, targets.size
        drawn = np.empty(targets.size, dtype=np.int64)
        # each pending target's place in `targets`, and its state
        pending = np.arange(targets.size)
        states = self.next_positions[targets]
        proposals = 0
        # the rounds stop once the pending targets hold at most this many
        # distinct states, the rows the exact draw then builds
        stragglers = math.isqrt(self.positions.shape[0])
        cdf = categorical_cdf(exp_normalize(self.log_weights))
        while True:
            candidates = np.searchsorted(cdf, rng.random(pending.size), side="right")
            log_density = self.model.transition_log_density(
                self.positions[candidates], states
            )
            excess = np.asarray(log_density, dtype=float) - log_bound
            # a bound below the density accepts with min(1, ratio), which
            # is not the row; at the density's exact peak, rounding leaves
            # an excess of about 1e-16
            if excess.size and excess.max() > 1e-12:
                raise ValueError(
                    f"the transition density at t={self.t} exceeds sigma_plus "
                    f"= {math.exp(log_bound)!r} by a factor of "
                    f"{math.exp(excess.max())!r}"
                )
            accept = rng.random(pending.size) < np.exp(excess)
            proposals += pending.size
            drawn[pending[accept]] = candidates[accept]
            if not accept.any():
                # the rounds end even where no proposal can be accepted
                break
            pending, states = pending[~accept], states[~accept]
            if pending.size <= stragglers:
                # at most isqrt(N) targets hold at most that many states
                break
            if proposals == targets.size:
                # after the first round, one stable sort per step: from
                # here on the pending targets stay in order of state, so
                # neighbours tell the distinct states apart, as _blocks does
                order = np.argsort(states, kind="stable")
                pending, states = pending[order], states[order]
            if np.count_nonzero(states[1:] != states[:-1]) < stragglers:
                break
        if pending.size:
            drawn[pending] = self.draw(targets[pending], rng.random(pending.size))
        return drawn, proposals, pending.size

    def rows(self, targets: np.ndarray | None = None) -> np.ndarray:
        """The rows of the given targets (default: every time t+1
        particle) as a (targets, N) array."""
        size = self.next_positions.shape[0] if targets is None else targets.size
        out = np.empty((size, self.positions.shape[0]))
        for _, rows, column, members, which, _ in self._blocks(targets):
            rows *= column
            rows /= rows.sum(axis=1)[:, None]
            out[members] = rows[which]
        return out


def _kernel(history: ParticleHistory, model: StateSpaceModel, t: int) -> BackwardKernel:
    if not 0 <= t <= history.horizon - 1:
        raise IndexError(
            f"backward rows exist for t in 0..{history.horizon - 1}, got {t}"
        )
    return BackwardKernel(
        model,
        t,
        history.positions[t],
        history.log_weights[t],
        history.positions[t + 1],
    )


def backward_row(
    history: ParticleHistory,
    model: StateSpaceModel,
    t: int,
    target_index: int,
) -> np.ndarray:
    """Backward kernel row for one target particle at time t+1.

    The row reweights the time t cloud by the transition density into
    the target position and normalizes; it sums to 1 by construction.
    """
    kernel = _kernel(history, model, t)
    if not 0 <= target_index < history.n_particles:
        raise IndexError(f"target index {target_index} out of range")
    return kernel.rows(np.array([target_index]))[0]


def backward_matrix(
    history: ParticleHistory, model: StateSpaceModel, t: int
) -> np.ndarray:
    """All backward rows at time t as an (N, N) matrix; row i conditions
    on particle i at time t+1."""
    return _kernel(history, model, t).rows()


def _check_functional(history: ParticleHistory, functional: AdditiveFunctional):
    if functional.horizon != history.horizon:
        raise ValueError(
            f"functional horizon {functional.horizon} does not match "
            f"history horizon {history.horizon}"
        )
    if functional.lag > history.horizon:
        raise ValueError(
            f"lag {functional.lag} exceeds horizon {history.horizon}"
        )


def _ffbs_backward(
    history: ParticleHistory,
    model: StateSpaceModel,
    functional: AdditiveFunctional,
) -> float:
    r = functional.lag
    horizon = history.horizon
    marginal = normalized_weights(history, horizon)
    # Lambda_{t-1}, ..., Lambda_{t-r}: each matrix is built once and
    # serves r consecutive terms
    ring: deque[np.ndarray] = deque()
    total = 0.0
    for t in range(horizon, r - 1, -1):
        while len(ring) < r:
            ring.append(backward_matrix(history, model, t - 1 - len(ring)))
        block = marginal
        for lam in ring:
            # prepend the earlier time axis without contracting anything
            block = np.einsum("ij,i...->ji...", lam, block)
        grid = functional.term_on_grid(t, history.positions[t - r : t + 1])
        total += float(np.sum(block * grid))
        if t > r:
            if r:
                marginal = marginal @ ring.popleft()
            else:
                marginal = _kernel(history, model, t - 1).left(marginal)
    return total


def ffbs_backward_additive(
    history: ParticleHistory,
    model: StateSpaceModel,
    functional: AdditiveFunctional,
) -> SmoothingEstimate:
    """Deterministic smoothed estimate of an additive functional.

    Runs the backward marginal recursion from the final weights and
    contracts each term against the joint law of ``lag + 1``
    consecutive indices.  On finite-state models the lag 0 recursion
    uses an exact state-space regrouping of the same sums.  At lag
    r >= 1 the contraction holds arrays of N^(r+1) entries; when one
    would pass 256 MiB (``_LAG_GRID_BYTES``), the call raises
    :class:`UnsupportedLagError` before any backward row is built.
    """
    _check_functional(history, functional)
    r, n = functional.lag, history.n_particles
    needed = 8 * n ** (r + 1)
    if r and needed > _LAG_GRID_BYTES:
        raise UnsupportedLagError(
            f"lag {r} at N={n} contracts arrays of N^{r + 1} float64 entries, "
            f"{needed} bytes each, over the budget of {_LAG_GRID_BYTES} bytes"
        )
    value = _ffbs_backward(history, model, functional)
    return SmoothingEstimate(
        method=METHOD_FFBS_BACKWARD,
        value=value,
        n_particles=history.n_particles,
        horizon=history.horizon,
        lag=functional.lag,
        seed=None,
    )


def ffbs_forward_additive(
    history_stream: ParticleHistory | Iterable[FilterStep],
    model: StateSpaceModel,
    functional: AdditiveFunctional,
) -> SmoothingEstimate:
    """Forward-only evaluation of the same smoothed value.

    Maintains one running statistic per particle and updates it through
    each new backward row, so it needs only the current and previous
    filter step.  A stream must count t = 0, 1, 2, ... in order up to
    the functional's horizon; otherwise the call raises ``ValueError``.
    Supports lags 0 and 1; the result matches
    :func:`ffbs_backward_additive` up to floating-point roundoff.
    """
    r = functional.lag
    if r not in (0, 1):
        raise UnsupportedLagError(
            f"forward smoothing supports lags 0 and 1, got {r}"
        )
    if isinstance(history_stream, ParticleHistory):
        _check_functional(history_stream, functional)
        history_stream = history_steps(history_stream)
    steps = iter(history_stream)

    prev = next(steps, None)
    if prev is None:
        raise ValueError("empty filter step stream")
    if prev.t != 0:
        raise ValueError(f"stream starts at t={prev.t}, expected t=0")
    n = prev.positions.shape[0]
    if r == 0:
        statistics = np.asarray(functional.term(0, prev.positions), dtype=float)
    else:
        statistics = np.zeros(n)

    for step in steps:
        t = step.t
        if t != prev.t + 1:
            raise ValueError(
                f"stream step t={t} follows t={prev.t}, expected t={prev.t + 1}"
            )
        kernel = BackwardKernel(
            model, t - 1, prev.positions, prev.log_weights, step.positions
        )
        if r == 0:
            statistics = kernel.right(statistics) + np.asarray(
                functional.term(t, step.positions), dtype=float
            )
        else:
            sources = prev.positions[None, :]
            statistics = kernel.right(
                statistics,
                pair=lambda targets: np.asarray(
                    functional.term(t, sources, targets), dtype=float
                ),
            )
        prev = step

    if prev.t != functional.horizon:
        raise ValueError(
            f"stream ended at t={prev.t}, functional horizon is "
            f"{functional.horizon}"
        )
    value = float(exp_normalize(prev.log_weights) @ statistics)
    return SmoothingEstimate(
        method=METHOD_FFBS_FORWARD,
        value=value,
        n_particles=n,
        horizon=functional.horizon,
        lag=r,
        seed=None,
    )


def _sample_paths(
    history: ParticleHistory,
    model: StateSpaceModel,
    n_paths: int,
    rng: np.random.Generator,
    log_bound: float | None = None,
) -> tuple[np.ndarray, RejectionStats]:
    """The paths of both FFBSi samplers, with their :class:`RejectionStats`."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    horizon = history.horizon
    paths = np.empty((n_paths, horizon + 1), dtype=np.int64)
    final_weights = normalized_weights(history, horizon)
    paths[:, horizon] = categorical_indices(final_weights, rng.random(n_paths))
    proposals = exact = 0
    for t in range(horizon - 1, -1, -1):
        kernel = _kernel(history, model, t)
        paths[:, t], made, sent = kernel.sample(paths[:, t + 1], rng, log_bound)
        proposals += made
        exact += sent
    # every draw not sent to the exact row was accepted
    return paths, RejectionStats(proposals, n_paths * horizon - exact, exact)


def ffbsi_sample_paths(
    history: ParticleHistory,
    model: StateSpaceModel,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw index trajectories from the backward smoothing law.

    The final index follows the normalized final weights; each earlier
    index is drawn from the backward row of its successor.  Returns an
    ``(n_paths, T+1)`` int array.
    """
    return _sample_paths(history, model, n_paths, rng)[0]


def ffbsi_rejection_sample_paths(
    history: ParticleHistory,
    model: StateSpaceModel,
    n_paths: int,
    rng: np.random.Generator,
    return_stats: bool = False,
):
    """Draw the same backward trajectories by rejection sampling.

    Proposes indices from the filter weights and accepts with
    probability ``transition_density / sigma_plus``, which realizes the
    backward row without normalizing it (Douc, Garivier, Moulines &
    Olsson 2011).  Each step runs vectorised rounds, one proposal per
    pending target, and sends the targets still pending when it stops
    to the exact row draw, which builds one row per distinct state.  A
    step stops after the first round that leaves pending targets holding
    at most sqrt(N) distinct states, so the exact draw costs at most
    N^{3/2} kernel pairs, or after a round that accepts none, so the
    rounds end even when no proposal can be accepted.  The stop depends
    only on accept/reject outcomes and the fixed target states, and an
    accepted index follows its row whatever the round, so the paths
    follow the backward law exactly.

    Requires the model to carry an upper bound ``mixing_bounds.sigma_plus``;
    a proposal whose density exceeds it raises ``ValueError``.  With
    ``return_stats=True`` also returns a :class:`RejectionStats`.
    """
    bounds = model.mixing_bounds
    if bounds is None:
        raise UnsupportedModelError(
            "rejection sampling needs an upper bound on the transition "
            "density; this model carries none"
        )
    paths, stats = _sample_paths(history, model, n_paths, rng, math.log(bounds.sigma_plus))
    return (paths, stats) if return_stats else paths


def ffbsi_estimate(
    trajectories: np.ndarray,
    history: ParticleHistory,
    functional: AdditiveFunctional,
    method: str = METHOD_FFBSI_DIRECT,
    seed: int | None = None,
) -> SmoothingEstimate:
    """Average the additive functional along sampled index trajectories."""
    _check_functional(history, functional)
    trajectories = np.asarray(trajectories)
    if trajectories.dtype.kind not in "iu":
        raise ValueError(
            f"trajectories must hold integer indices, got dtype {trajectories.dtype}"
        )
    if trajectories.ndim != 2 or trajectories.shape[1] != history.horizon + 1:
        raise ValueError(
            "trajectories must be (n_paths, T+1) with the history's horizon"
        )
    if trajectories.size and (
        trajectories.min() < 0 or trajectories.max() >= history.n_particles
    ):
        raise ValueError("trajectory indices out of range for this history")

    steps = history.horizon + 1
    states = history.positions[np.arange(steps)[None, :], trajectories]
    r = functional.lag
    totals = np.zeros(trajectories.shape[0])
    for t in range(r, steps):
        args = [states[:, t - r + a] for a in range(r + 1)]
        totals += np.asarray(functional.term(t, *args), dtype=float)
    return SmoothingEstimate(
        method=method,
        value=float(np.mean(totals)),
        n_particles=history.n_particles,
        horizon=history.horizon,
        lag=r,
        seed=seed,
    )


def path_space_estimate(
    model: StateSpaceModel,
    proposal: AuxiliaryProposal,
    functional: AdditiveFunctional,
    n_particles: int,
    rng: np.random.Generator,
    seed: int | None = None,
) -> SmoothingEstimate:
    """Genealogy-based estimate of the smoothed additive functional.

    Runs the filter while each particle carries the running sum of the
    terms along its own ancestral line; resampling reshuffles those
    sums with the ancestors.  Returns the weighted average of the sums
    at the final step.  Memory stays O(N) in the horizon.
    """
    r = functional.lag
    steps = filter_steps(model, proposal, n_particles, functional.horizon, rng)
    sums = np.zeros(n_particles)
    window: list[np.ndarray] = []
    last_step = None
    for step in steps:
        if step.t > 0:
            sums = sums[step.ancestors]
            window = [w[step.ancestors] for w in window]
        if step.t >= r:
            sums = sums + np.asarray(
                functional.term(step.t, *window, step.positions), dtype=float
            )
        if r > 0:
            window.append(step.positions)
            if len(window) > r:
                window.pop(0)
        last_step = step
    value = float(exp_normalize(last_step.log_weights) @ sums)
    return SmoothingEstimate(
        method=METHOD_PATH_SPACE,
        value=value,
        n_particles=n_particles,
        horizon=functional.horizon,
        lag=r,
        seed=seed,
    )
