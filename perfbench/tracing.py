"""The traced run: per-layer metrics timed from outside each module.

Every span is taken here, around calls into the public functions of
one module; nothing inside ``smoothcore`` is instrumented.  The traced
pipeline of a method makes the same calls ``estimate_once`` makes, on
a copy of the model whose callables (``transition_log_density``,
``observation_log_density``, ``transition_sampler``) are wrapped with
timers and counters through ``dataclasses.replace``.  Its value must
equal the untraced ``estimate_once`` value from the same seed, so the
trace is known to measure the same work.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import time
import tracemalloc

import numpy as np

from smoothcore import (
    METHOD_FFBS_BACKWARD,
    METHOD_FFBS_FORWARD,
    METHOD_FFBSI_DIRECT,
    METHOD_FFBSI_REJECTION,
    METHOD_NAMES,
    METHOD_PATH_SPACE,
    backward_matrix,
    bootstrap_proposal,
    estimate_once,
    ffbs_backward_additive,
    ffbs_forward_additive,
    ffbsi_estimate,
    ffbsi_rejection_sample_paths,
    ffbsi_sample_paths,
    make_rng,
    path_space_estimate,
    run_filter,
)

from workloads import (
    Problem,
    Tally,
    Workload,
    check_round,
    estimate_seed,
    run_grid_round,
)

# model callable -> name of its per-layer metric
WRAPPED = {
    "transition_log_density": "transition_logpdf",
    "observation_log_density": "observation_logpdf",
    "transition_sampler": "transition_sample",
}


class CallableTimer:
    """Busy seconds and output size summed over calls of one callable."""

    def __init__(self):
        self.seconds = 0.0
        self.items = 0

    def wrap(self, fn):
        def timed(*args):
            started = time.perf_counter()
            out = fn(*args)
            self.seconds += time.perf_counter() - started
            self.items += int(np.size(out))
            return out

        return timed


def traced_model(model):
    """A copy of the model with its callables timed, and the timers."""
    timers = {name: CallableTimer() for name in WRAPPED}
    wrapped = dataclasses.replace(
        model, **{name: timers[name].wrap(getattr(model, name)) for name in WRAPPED}
    )
    return wrapped, timers


def _model_seconds(timers) -> float:
    return sum(timer.seconds for timer in timers.values())


def smooth(method, model, functional, history, n_particles, rng, seed):
    """The smoother call ``estimate_once`` makes after its filter run.

    Returns the estimate, the sampled paths (FFBSi only) and the
    rejection statistics (where the rejection sampler runs).
    """
    if method == METHOD_PATH_SPACE:
        estimate = path_space_estimate(
            model, bootstrap_proposal(model), functional, n_particles, rng, seed=seed
        )
        return estimate, None, None
    if method == METHOD_FFBS_BACKWARD:
        return ffbs_backward_additive(history, model, functional), None, None
    if method == METHOD_FFBS_FORWARD:
        return ffbs_forward_additive(history, model, functional), None, None
    stats = None
    if method == METHOD_FFBSI_REJECTION and model.mixing_bounds is not None:
        paths, stats = ffbsi_rejection_sample_paths(
            history, model, n_particles, rng, return_stats=True
        )
    else:
        paths = ffbsi_sample_paths(history, model, n_particles, rng)
    estimate = ffbsi_estimate(paths, history, functional, method=method, seed=seed)
    return estimate, paths, stats


def traced_estimate(workload: Workload, problem: Problem, method: str, seed: int):
    """Run one method as ``estimate_once`` does, with every layer timed.

    The allocation peak comes from a second smoother call on the same
    history and generator state with ``tracemalloc`` on, so its cost
    stays out of the timed spans.  Returns the estimate's value and a
    dict of this method's layer numbers.
    """
    model, timers = traced_model(problem.model)
    functional = problem.functional
    n = workload.n_particles
    rng = make_rng(seed)
    layer = {"filter_s": None, "unique_targets_share": None}
    history = None
    started = time.perf_counter()
    if method != METHOD_PATH_SPACE:
        history = run_filter(
            model, bootstrap_proposal(model), n, functional.horizon, rng
        )
        layer["filter_s"] = time.perf_counter() - started

    memory_rng = copy.deepcopy(rng)
    model_before = _model_seconds(timers)
    pairs_before = timers["transition_log_density"].items
    call_started = time.perf_counter()
    estimate, paths, layer["rejection"] = smooth(
        method, model, functional, history, n, rng, seed
    )
    call_s = time.perf_counter() - call_started
    layer["total_s"] = time.perf_counter() - started

    layer["call_s"] = call_s
    layer["self_s"] = call_s - (_model_seconds(timers) - model_before)
    layer["kernel_pairs"] = timers["transition_log_density"].items - pairs_before
    for name, metric in WRAPPED.items():
        layer[metric + "_s"] = timers[name].seconds
    layer["transition_logpdf_pairs"] = timers["transition_log_density"].items
    if method == METHOD_FFBSI_DIRECT:
        distinct = [np.unique(paths[:, t + 1]).size for t in range(functional.horizon)]
        layer["unique_targets_share"] = float(np.mean(distinct)) / n

    tracemalloc.start()
    try:
        smooth(method, problem.model, functional, history, n, memory_rng, seed)
        layer["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return estimate.value, layer


def backward_matrix_steps(workload: Workload, problem: Problem, seed: int):
    """Seconds of the public ``backward_matrix`` at every t of one
    history."""
    history = run_filter(
        problem.model,
        bootstrap_proposal(problem.model),
        workload.n_particles,
        problem.functional.horizon,
        make_rng(seed),
    )
    steps = []
    for t in range(history.horizon):
        started = time.perf_counter()
        backward_matrix(history, problem.model, t)
        steps.append(time.perf_counter() - started)
    return steps


def grid_layers(workload: Workload, seed: int, tally: Tally, workdir) -> dict:
    """Run the grid once, timed from outside, and read its balance from
    the rows' mean wall times."""
    started = time.perf_counter()
    table = run_grid_round(workload, seed, 0, tally, workdir)
    run_grid_s = time.perf_counter() - started
    if table is None:
        return {"run_grid_s": run_grid_s, "busy_share": 0.0, "slowest_cell_s": 0.0}
    cells = [row.replicates * row.mean_wall_seconds for row in table.rows]
    return {
        "run_grid_s": run_grid_s,
        "busy_share": sum(cells) / (workload.grid.workers * run_grid_s),
        "slowest_cell_s": max(cells),
    }


def traced_run(workload: Workload, problem: Problem, seed: int, tally: Tally, workdir):
    """One untraced and one traced call per method from the same seeds,
    the backward-matrix sweep and, where the workload has one, one grid.

    Returns the per-layer metrics as ``{name: (value, unit)}`` and one
    accounting line per method.
    """
    untraced = {}
    values = {}
    layers = {}
    for method in METHOD_NAMES:
        call_seed = estimate_seed(seed, workload, method, 0)
        tally.attempted += 2
        started = time.perf_counter()
        value, _ = estimate_once(
            problem.model, problem.functional, method, workload.n_particles, call_seed
        )
        untraced[method] = time.perf_counter() - started
        values[method] = value
        traced_value, layers[method] = traced_estimate(
            workload, problem, method, call_seed
        )
        if traced_value != value:
            tally.fail(
                1,
                f"{workload.name} {method}: traced value {traced_value!r} "
                f"differs from estimate_once {value!r}",
            )
    check_round(workload, problem, values, tally, 0)

    metrics = {}
    run_filter_s = float(
        np.median([lay["filter_s"] for lay in layers.values() if lay["filter_s"]])
    )
    particle_steps = workload.n_particles * (workload.horizon + 1)
    metrics["filtering.run_filter_s"] = (run_filter_s, "s")
    metrics["filtering.particle_steps"] = (particle_steps, "count")
    metrics["filtering.steps_per_s"] = (particle_steps / run_filter_s, "1/s")

    for method, layer in layers.items():
        for metric in WRAPPED.values():
            metrics[f"models.{metric}_s.{method}"] = (layer[metric + "_s"], "s")
        metrics[f"models.transition_logpdf_pairs.{method}"] = (
            layer["transition_logpdf_pairs"],
            "count",
        )
        metrics[f"smoothing.call_s.{method}"] = (layer["call_s"], "s")
        metrics[f"smoothing.self_s.{method}"] = (layer["self_s"], "s")
        # path_space's call runs its own filter, so its pairs are the filter's
        metrics[f"smoothing.kernel_pairs.{method}"] = (layer["kernel_pairs"], "count")
        metrics[f"smoothing.kernel_pairs_per_s.{method}"] = (
            layer["kernel_pairs"] / layer["call_s"],
            "1/s",
        )
        metrics[f"smoothing.peak_alloc_mb.{method}"] = (layer["peak_alloc_mb"], "MB")

    steps = backward_matrix_steps(
        workload, problem, estimate_seed(seed, workload, METHOD_FFBS_BACKWARD, 0)
    )
    metrics["smoothing.backward_matrix_step_p50_s"] = (float(np.median(steps)), "s")
    metrics["smoothing.backward_matrix_step_p95_s"] = (
        float(np.percentile(steps, 95)),
        "s",
    )
    metrics["smoothing.unique_targets_share"] = (
        layers[METHOD_FFBSI_DIRECT]["unique_targets_share"],
        "share",
    )
    # zero where the rejection sampler did not run (see the sampler record)
    stats = layers[METHOD_FFBSI_REJECTION]["rejection"]
    acceptance = 0.0 if stats is None else stats.acceptance_rate
    metrics["smoothing.rejection_acceptance"] = (
        0.0 if math.isnan(acceptance) else acceptance,
        "share",
    )
    metrics["smoothing.rejection_fallbacks"] = (
        0 if stats is None else stats.fallbacks,
        "count",
    )

    # zero on workloads without a grid
    grid = {"run_grid_s": 0.0, "busy_share": 0.0, "slowest_cell_s": 0.0}
    if workload.grid is not None:
        grid = grid_layers(workload, seed, tally, workdir)
    metrics["experiments.run_grid_s"] = (grid["run_grid_s"], "s")
    metrics["experiments.busy_share"] = (grid["busy_share"], "share")
    metrics["experiments.slowest_cell_s"] = (grid["slowest_cell_s"], "s")

    traced_total = sum(layer["total_s"] for layer in layers.values())
    overhead = traced_total / sum(untraced.values()) - 1.0
    metrics["trace.overhead_share"] = (overhead, "share")

    accounting = []
    for method, layer in layers.items():
        accounted = (layer["filter_s"] or 0.0) + layer["call_s"]
        accounting.append(
            f"{method}: untraced {untraced[method]:.4f} s, run_filter + call "
            f"{accounted:.4f} s, ratio {accounted / untraced[method]:.3f}"
        )
    return metrics, accounting
