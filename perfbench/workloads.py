"""The benchmark workloads, their timed closed loop and their checks.

Each workload is one problem cell on which all five methods run, one
``estimate_once`` call each per round, and optionally one replication
grid per round run through the ``experiment`` subcommand.  Rounds run
back to back from a single client (a closed loop: this is a batch
library and every caller waits for its estimate) until ``--seconds``
have passed; the run ends at the first round boundary after that, so
every round is whole and the method mix per second stays fixed.  Within
a round a method is called again until its calls have taken
``MIN_METHOD_SECONDS`` or it has made ``MAX_METHOD_CALLS`` calls, so a
cheap method's latency is a median over several calls rather than one
call made after the heavy ones.

Inputs come from the workload seed through ``derive_seed`` exactly as
``smoothcore.experiments`` derives them: observations from
``(seed, 0xDA7A, T)`` and the estimate of method m in round k from
``(seed, T, N, id(m), k)``, and its repeat j >= 1 in that round from
``(seed, T, N, id(m), k, j)``.  The one exception is ``ffbs_forward``,
which reuses the ``ffbs_backward`` seed so the two deterministic
smoothers see the same filter history and can be compared exactly.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from smoothcore import (
    METHOD_FFBS_BACKWARD,
    METHOD_FFBS_FORWARD,
    METHOD_FFBSI_DIRECT,
    METHOD_FFBSI_REJECTION,
    METHOD_NAMES,
    METHOD_PATH_SPACE,
    ExperimentGrid,
    VarianceTable,
    derive_seed,
    estimate_once,
    exact_hmm_smooth,
    generate_grid_observations,
    grid_from_mapping,
    kalman_smooth,
    make_finite_hmm,
    make_lgm,
    state_sum_functional,
)
from smoothcore.cli import cli_main
from smoothcore.experiments import METHOD_IDS

BENCH_LGM = {"phi": 0.9, "sigma_u": 0.6, "sigma_v": 1.0}
# 4-state strictly positive chain, used as both transition and emission
# matrix, so rejection FFBSi really rejects (sigma-/sigma+ = 1/7)
_CHAIN = [[0.7 if i == j else 0.1 for j in range(4)] for i in range(4)]
BENCH_FINITE = {
    "transition": _CHAIN,
    "observation_matrix": _CHAIN,
    "initial": [0.25] * 4,
}

# Envelope of each method's Monte Carlo error against the exact value,
# as root-mean-square error over 4 data seeds x 6 estimate seeds at
# T=300, N=300 on both families: about 2.5 sqrt((T+1)/N) for the
# backward methods and 0.7-1.0 (T+1)/sqrt(N) for path_space.  A check
# allows SPREAD_MULTIPLE times the rounded-up envelope.
SPREAD_BACKWARD = 3.0
SPREAD_PATH_SPACE = 1.2
SPREAD_MULTIPLE = 6.0
# criterion 2's tolerance between the two deterministic smoothers
FORWARD_BACKWARD_RTOL = 1e-9
# a grid row's mean may sit this many of its own standard errors away
# from the Kalman value of its horizon's data; with 10 replicates a
# correct row fails with probability about 2e-5 (Student t, 9 dof)
ROW_STDERR_MULTIPLE = 8.0
# particles of the one warm-up call per method made during set-up
WARMUP_PARTICLES = 32
SETUP_REPEATS = 3
# each method is called within a round until its calls add up to
# MIN_METHOD_SECONDS or it has made MAX_METHOD_CALLS calls; the cap keeps
# the number of checked estimates, and so the chance that a correct
# method lands outside its envelope, close to one check per round
MIN_METHOD_SECONDS = 1.0
MAX_METHOD_CALLS = 10


@dataclass(frozen=True)
class Grid:
    """A replication grid run through ``smoothcore experiment``."""

    methods: tuple[str, ...]
    horizons: tuple[int, ...]
    n_particles: int
    replicates: int
    workers: int

    @property
    def estimates(self) -> int:
        return len(self.methods) * len(self.horizons) * self.replicates


@dataclass(frozen=True)
class Workload:
    """One problem cell timed per method, plus an optional grid."""

    name: str
    family: str
    horizon: int
    n_particles: int
    grid: Grid | None = None


WORKLOADS = {
    # the paper's benchmark cell: the dense O(N^2) backward kernel does
    # over 90% of the work of the four backward methods
    "lgm_bench": Workload("lgm_bench", "lgm", horizon=300, n_particles=1000),
    # integer states: ffbs_backward takes the K-state regrouped path,
    # ffbsi_rejection really rejects, ffbs_forward and ffbsi_direct
    # still build dense rows.  T=50 keeps every step's N x N rows of the
    # T=300 chain, at about 1.2 s rather than 6 s a dense call, so a run
    # holds several calls per method; the envelope above still holds
    # there (worst of 40 data seeds: 3.6 backward, 1.7 path_space)
    "finite_chain": Workload("finite_chain", "finite", horizon=50, n_particles=1000),
    # the paper's T-scaling experiment: many short estimates, so the
    # filter, path_space and the process pool matter; the per-method
    # latency comes from the bench cell at N=300
    "variance_grid": Workload(
        "variance_grid",
        "lgm",
        horizon=300,
        n_particles=300,
        grid=Grid(
            methods=(METHOD_FFBSI_DIRECT, METHOD_PATH_SPACE),
            horizons=(100, 200, 400),
            n_particles=300,
            replicates=10,
            workers=2,
        ),
    ),
}


@dataclass
class Problem:
    """Generated inputs of one workload cell and their exact answer."""

    model: object
    functional: object
    exact: float
    reference_seconds: float


@dataclass
class Tally:
    """Estimates attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.reasons.append(reason)


def _grid_spec(family, seed, horizons, n_particles, methods, replicates) -> dict:
    params = BENCH_LGM if family == "lgm" else BENCH_FINITE
    return {
        "model": {"type": family, "params": params},
        "methods": list(methods),
        "T": list(horizons),
        "N": [n_particles],
        "replicates": replicates,
        "seed": seed,
        "functional": {"r": 0, "kind": "state_sum"},
    }


def problem_at(grid: ExperimentGrid, horizon: int) -> Problem:
    """The model built on one horizon's data of a grid, with its exact
    smoothed state sum and the seconds the oracle took."""
    payload = generate_grid_observations(grid, horizon)
    p = grid.model_params
    functional = state_sum_functional(horizon)
    if grid.model_type == "lgm":
        model = make_lgm(p["phi"], p["sigma_u"], p["sigma_v"], payload)

        def oracle():
            return kalman_smooth(
                p["phi"], p["sigma_u"], p["sigma_v"], payload
            ).smoothed_state_sum

    else:
        model = make_finite_hmm(p["transition"], payload, p["initial"])

        def oracle():
            return exact_hmm_smooth(model, functional)

    started = time.perf_counter()
    exact = float(oracle())
    return Problem(model, functional, exact, time.perf_counter() - started)


def build_problem(workload: Workload, seed: int) -> Problem:
    # a one-cell grid, so the data come from generate_grid_observations
    # with the experiments module's own seed derivation
    spec = _grid_spec(
        workload.family, seed, [workload.horizon], workload.n_particles, METHOD_NAMES, 2
    )
    return problem_at(grid_from_mapping(spec), workload.horizon)


def estimate_seed(
    seed: int, workload: Workload, method: str, round_index: int, repeat: int = 0
) -> int:
    seed_method = METHOD_FFBS_BACKWARD if method == METHOD_FFBS_FORWARD else method
    key = (
        seed,
        workload.horizon,
        workload.n_particles,
        METHOD_IDS[seed_method],
        round_index,
    )
    return derive_seed(*key) if repeat == 0 else derive_seed(*key, repeat)


def sampler_used(method: str, model) -> str:
    """Which backward sampler ``estimate_once`` runs for a method,
    read from the model's mixing bounds as the library decides it."""
    if method == METHOD_FFBSI_REJECTION:
        return "rejection" if model.mixing_bounds is not None else "direct"
    if method == METHOD_FFBSI_DIRECT:
        return "direct"
    return "none"


def set_up(workload: Workload, seed: int) -> tuple[Problem, float]:
    """Build the inputs, compute the exact reference and make one small
    warm-up call per method.  Returns the problem and the set-up time."""
    started = time.perf_counter()
    problem = build_problem(workload, seed)
    warm_seed = derive_seed(seed, WARMUP_PARTICLES)
    for method in METHOD_NAMES:
        estimate_once(
            problem.model, problem.functional, method, WARMUP_PARTICLES, warm_seed
        )
    return problem, time.perf_counter() - started


def repeated_set_up(workload: Workload, seed: int):
    """Set up SETUP_REPEATS times; returns the last problem with the
    median set-up time and the median reference time."""
    runs = [set_up(workload, seed) for _ in range(SETUP_REPEATS)]
    problem = runs[-1][0]
    setup_seconds = statistics.median(seconds for _, seconds in runs)
    reference = statistics.median(p.reference_seconds for p, _ in runs)
    return problem, setup_seconds, reference


def tolerance(method: str, horizon: int, n_particles: int) -> float:
    if method == METHOD_PATH_SPACE:
        spread = SPREAD_PATH_SPACE * (horizon + 1) / math.sqrt(n_particles)
    else:
        spread = SPREAD_BACKWARD * math.sqrt((horizon + 1) / n_particles)
    return SPREAD_MULTIPLE * spread


def check_estimate(
    workload: Workload, problem: Problem, method: str, value, tally: Tally, where: str
) -> bool:
    """Check one estimate against the exact value; False if it failed."""
    if not math.isfinite(value):
        tally.fail(1, f"{where}: non-finite estimate {value}")
        return False
    allowed = tolerance(method, workload.horizon, workload.n_particles)
    if abs(value - problem.exact) > allowed:
        tally.fail(
            1,
            f"{where}: {value!r} is more than {allowed:.3g} from the exact "
            f"{problem.exact!r}",
        )
        return False
    return True


def check_round(
    workload: Workload, problem: Problem, values: dict, tally: Tally, round_index: int
) -> None:
    """Check one round's estimates against the exact value and the two
    deterministic smoothers against each other."""
    for method, value in values.items():
        where = f"{workload.name} round {round_index} {method}"
        if not check_estimate(workload, problem, method, value, tally, where):
            continue
        if method == METHOD_FFBS_FORWARD and METHOD_FFBS_BACKWARD in values:
            backward = values[METHOD_FFBS_BACKWARD]
            if abs(value - backward) > FORWARD_BACKWARD_RTOL * abs(backward):
                tally.fail(
                    1, f"{where}: {value!r} differs from ffbs_backward {backward!r}"
                )


def run_methods(
    workload: Workload,
    problem: Problem,
    seed: int,
    round_index: int,
    tally: Tally,
    walls: dict,
) -> dict:
    """``estimate_once`` calls per method, each timed from outside, until
    the method's calls have taken ``MIN_METHOD_SECONDS`` or number
    ``MAX_METHOD_CALLS``.  Every value is checked; returns each method's
    first value if that call did not raise."""
    values = {}
    for method in METHOD_NAMES:
        spent = 0.0
        repeat = 0
        while repeat == 0 or (
            spent < MIN_METHOD_SECONDS and repeat < MAX_METHOD_CALLS
        ):
            tally.attempted += 1
            call_seed = estimate_seed(seed, workload, method, round_index, repeat)
            started = time.perf_counter()
            try:
                value, _ = estimate_once(
                    problem.model,
                    problem.functional,
                    method,
                    workload.n_particles,
                    call_seed,
                )
            except Exception as exc:  # noqa: BLE001 - counted as a failed estimate
                tally.fail(1, f"{workload.name} {method}: {type(exc).__name__}: {exc}")
                break
            wall = time.perf_counter() - started
            walls[method].append(wall)
            spent += wall
            if repeat == 0:
                # checked with the round, against ffbs_backward too
                values[method] = value
            else:
                where = f"{workload.name} round {round_index} {method} repeat {repeat}"
                check_estimate(workload, problem, method, value, tally, where)
            repeat += 1
    check_round(workload, problem, values, tally, round_index)
    return values


def run_grid_round(
    workload: Workload, seed: int, round_index: int, tally: Tally, workdir: Path
) -> VarianceTable | None:
    """Run the workload's grid once through ``smoothcore experiment`` and
    check every row against the Kalman value of its horizon's data."""
    grid = workload.grid
    spec = _grid_spec(
        workload.family,
        derive_seed(seed, round_index),
        grid.horizons,
        grid.n_particles,
        grid.methods,
        grid.replicates,
    )
    config = workdir / "grid.json"
    table_path = workdir / "table.csv"
    config.write_text(json.dumps(spec), encoding="utf-8")
    table_path.unlink(missing_ok=True)
    tally.attempted += grid.estimates
    code = cli_main(
        [
            "experiment",
            "--config",
            str(config),
            "--workers",
            str(grid.workers),
            "--out",
            str(table_path),
        ]
    )
    if code != 0:
        tally.fail(grid.estimates, f"{workload.name} grid exited with code {code}")
        return None
    table = VarianceTable.from_csv(table_path)
    expected = [(m, t) for m in grid.methods for t in grid.horizons]
    if [(row.method, row.horizon) for row in table.rows] != expected:
        tally.fail(grid.estimates, f"{workload.name} grid rows are not {expected}")
        return None
    parsed = grid_from_mapping(spec)
    exact = {t: problem_at(parsed, t).exact for t in grid.horizons}
    for row in table.rows:
        stderr = math.sqrt(row.variance / row.replicates)
        where = f"{workload.name} grid {row.method} T={row.horizon}"
        if not (math.isfinite(row.mean_estimate) and stderr > 0.0):
            tally.fail(row.replicates, f"{where}: flagged row")
        elif abs(row.mean_estimate - exact[row.horizon]) > ROW_STDERR_MULTIPLE * stderr:
            tally.fail(
                row.replicates,
                f"{where}: mean {row.mean_estimate!r} is more than "
                f"{ROW_STDERR_MULTIPLE} standard errors ({stderr:.3g}) from the "
                f"Kalman value {exact[row.horizon]!r}",
            )
    return table


def timed_rounds(
    workload: Workload, problem: Problem, seed: int, seconds: float, workdir: Path
):
    """The closed loop: whole rounds until ``seconds`` have passed.

    Returns the per-method call times, the tally, the number of rounds
    and the timed wall time.
    """
    walls = {method: [] for method in METHOD_NAMES}
    tally = Tally()
    started = time.perf_counter()
    rounds = 0
    while True:
        if workload.grid is not None:
            run_grid_round(workload, seed, rounds, tally, workdir)
        run_methods(workload, problem, seed, rounds, tally, walls)
        rounds += 1
        if time.perf_counter() - started >= seconds:
            break
    return walls, tally, rounds, time.perf_counter() - started


def p50(samples) -> float:
    return float(np.median(samples)) if samples else math.nan
