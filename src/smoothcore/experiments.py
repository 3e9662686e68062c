"""Replication harness for the variance-scaling experiments.

A grid names a model family, a functional, method names, horizons,
particle counts, a replicate count, and a master seed.  For each
horizon one observation sequence is generated from the master seed and
shared by every method and particle count at that horizon, so the
replicate scatter measures Monte Carlo variance conditional on the
data.  Each (method, horizon, N, replicate) cell derives its own seed
through :func:`smoothcore.rng.derive_seed`, which is what makes whole
grid runs byte-identical regardless of how many workers execute them.

The stream labels folded into seeds are fixed constants:

* observation data for horizon T: ``(master_seed, 0xDA7A, T)``
* replicate k of method m at (T, N): ``(master_seed, T, N, id(m), k)``

with method ids ffbs_backward=1, ffbs_forward=2, ffbsi_direct=3,
ffbsi_rejection=4, path_space=5.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UnsupportedModelError
from .filtering import run_filter
from .models import (
    FAMILIES,
    AdditiveFunctional,
    StateSpaceModel,
    bootstrap_proposal,
    read_csv,
    state_sum_functional,
    write_csv,
)
from .rng import derive_seed, make_rng
from .smoothing import (
    METHOD_FFBS_BACKWARD,
    METHOD_FFBS_FORWARD,
    METHOD_FFBSI_DIRECT,
    METHOD_FFBSI_REJECTION,
    METHOD_NAMES,
    METHOD_PATH_SPACE,
    ffbs_backward_additive,
    ffbs_forward_additive,
    ffbsi_estimate,
    ffbsi_rejection_sample_paths,
    ffbsi_sample_paths,
    path_space_estimate,
)
from .oracles import theory_bounds

METHOD_IDS = {
    METHOD_FFBS_BACKWARD: 1,
    METHOD_FFBS_FORWARD: 2,
    METHOD_FFBSI_DIRECT: 3,
    METHOD_FFBSI_REJECTION: 4,
    METHOD_PATH_SPACE: 5,
}

DATA_STREAM_LABEL = 0xDA7A

TABLE_CSV_HEADER = "method,T,N,r,variance,mean,mean_wall_seconds,replicates"


@dataclass(frozen=True)
class ExperimentGrid:
    """Full specification of one replication experiment."""

    model_type: str
    model_params: dict
    methods: tuple[str, ...]
    horizons: tuple[int, ...]
    particle_counts: tuple[int, ...]
    replicates: int
    master_seed: int
    out: str | None = None

    def __post_init__(self):
        if self.model_type not in FAMILIES:
            raise ValueError(
                f"model type must be one of {tuple(FAMILIES)}, "
                f"got {self.model_type!r}"
            )
        names = set(FAMILIES[self.model_type].params)
        unknown = set(self.model_params) - names
        if unknown:
            raise ValueError(
                f"unknown {self.model_type} parameters: {sorted(unknown)}"
            )
        missing = names - set(self.model_params)
        if missing:
            raise ValueError(
                f"missing {self.model_type} parameters: {sorted(missing)}"
            )
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ValueError(f"unknown method {m!r}")
        if not self.horizons or any(t < 0 for t in self.horizons):
            raise ValueError("horizons must be nonempty and nonnegative")
        if not self.particle_counts or any(n < 1 for n in self.particle_counts):
            raise ValueError("particle counts must be nonempty and >= 1")
        if self.replicates < 2:
            raise ValueError(
                "at least 2 replicates are needed for an unbiased variance"
            )


@dataclass
class VarianceRow:
    """Aggregates of one (method, horizon, N) cell."""

    method: str
    horizon: int
    n_particles: int
    lag: int
    variance: float
    mean_estimate: float
    mean_wall_seconds: float
    replicates: int
    error: str | None = None


@dataclass
class VarianceTable:
    """Ordered collection of cell aggregates with CSV round-tripping."""

    rows: list[VarianceRow] = field(default_factory=list)

    @property
    def has_failures(self) -> bool:
        return any(row.error is not None for row in self.rows)

    def to_csv(self, file=None, zero_timings: bool = False) -> str | None:
        """Write the table to a path or text handle, or return it as a
        string when ``file`` is None."""
        target = io.StringIO() if file is None else file
        rows = (
            (
                row.method,
                row.horizon,
                row.n_particles,
                row.lag,
                row.variance,
                row.mean_estimate,
                0.0 if zero_timings else row.mean_wall_seconds,
                row.replicates,
            )
            for row in self.rows
        )
        write_csv(target, TABLE_CSV_HEADER, rows)
        return target.getvalue() if file is None else None

    @classmethod
    def from_csv(cls, file) -> "VarianceTable":
        """Read a table written by :meth:`to_csv` from a path or text
        handle."""
        rows = []
        for line, fields in read_csv(file, TABLE_CSV_HEADER):
            method, horizon, n, lag, variance, mean, wall, replicates = fields
            try:
                rows.append(
                    VarianceRow(
                        method=method,
                        horizon=int(horizon),
                        n_particles=int(n),
                        lag=int(lag),
                        variance=float(variance),
                        mean_estimate=float(mean),
                        mean_wall_seconds=float(wall),
                        replicates=int(replicates),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from None
        return cls(rows=rows)


def _require(condition, message, fieldname=None):
    if not condition:
        raise ConfigError(message, field=fieldname)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_functional_spec(spec) -> None:
    """Validate a config's ``functional`` object.  The one functional a
    config can name is ``{"r": 0, "kind": "state_sum"}``."""
    _require(isinstance(spec, dict), "must be an object", fieldname="functional")
    unknown = set(spec) - {"r", "kind"}
    _require(not unknown, f"unknown keys: {sorted(unknown)}", fieldname="functional")
    _require("r" in spec, "missing 'r'", fieldname="functional")
    _require("kind" in spec, "missing 'kind'", fieldname="functional")
    _require(
        spec["kind"] == "state_sum",
        f"unknown functional kind {spec['kind']!r}",
        fieldname="functional.kind",
    )
    _require(_is_int(spec["r"]), "must be an integer", fieldname="functional.r")
    _require(spec["r"] == 0, "the state_sum functional has lag 0", "functional.r")


def grid_from_mapping(raw: dict) -> ExperimentGrid:
    """Validate a parsed config mapping into an ExperimentGrid.

    Unknown keys are errors everywhere, so typos fail loudly instead of
    silently running a different experiment.
    """
    _require(isinstance(raw, dict), "config root must be a JSON object")
    allowed = {"model", "methods", "T", "N", "replicates", "seed", "functional", "out"}
    unknown = set(raw) - allowed
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    for key in ("model", "methods", "T", "N", "replicates", "seed", "functional"):
        _require(key in raw, "required key missing", fieldname=key)

    model = raw["model"]
    _require(isinstance(model, dict), "must be an object", fieldname="model")
    unknown = set(model) - {"type", "params"}
    _require(not unknown, f"unknown keys: {sorted(unknown)}", fieldname="model")
    _require("type" in model, "missing 'type'", fieldname="model")
    _require("params" in model, "missing 'params'", fieldname="model")
    _require(
        isinstance(model["params"], dict),
        "must be an object",
        fieldname="model.params",
    )

    methods = raw["methods"]
    _require(
        isinstance(methods, list) and methods,
        "must be a nonempty list",
        fieldname="methods",
    )
    horizons = raw["T"]
    _require(
        isinstance(horizons, list)
        and horizons
        and all(_is_int(t) for t in horizons),
        "must be a nonempty list of integers",
        fieldname="T",
    )
    counts = raw["N"]
    _require(
        isinstance(counts, list)
        and counts
        and all(_is_int(n) for n in counts),
        "must be a nonempty list of integers",
        fieldname="N",
    )
    replicates = raw["replicates"]
    _require(_is_int(replicates), "must be an integer", fieldname="replicates")
    seed = raw["seed"]
    _require(_is_int(seed), "must be an integer", fieldname="seed")
    check_functional_spec(raw["functional"])

    out = raw.get("out")
    if out is not None:
        _require(isinstance(out, str), "must be a string", fieldname="out")

    try:
        return ExperimentGrid(
            model_type=model["type"],
            model_params=dict(model["params"]),
            methods=tuple(methods),
            horizons=tuple(horizons),
            particle_counts=tuple(counts),
            replicates=replicates,
            master_seed=seed,
            out=out,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_json(path):
    """Parse a JSON config file; invalid JSON raises a
    :class:`ConfigError` that names its line and column."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_config(path) -> ExperimentGrid:
    """Read and validate a JSON grid config."""
    return grid_from_mapping(read_json(path))


def generate_grid_observations(grid: ExperimentGrid, horizon: int):
    """The shared observation payload for one horizon of a grid.

    Returns the array of observations for the continuous families, or
    the per-time emission likelihood rows for the finite family.
    """
    rng = make_rng(derive_seed(grid.master_seed, DATA_STREAM_LABEL, horizon))
    _, payload = FAMILIES[grid.model_type].simulate(grid.model_params, horizon, rng)
    return payload


def estimate_once(
    model: StateSpaceModel,
    functional: AdditiveFunctional,
    method: str,
    n_particles: int,
    seed: int,
):
    """Run one method once from one derived seed.

    Returns ``(value, wall_seconds)`` where the wall time spans the
    whole pipeline (filter included); the estimators do not time
    themselves.  ``ffbsi_rejection`` always runs the rejection sampler,
    so a model without an upper bound on its transition density raises
    :class:`UnsupportedModelError`.
    """
    rng = make_rng(seed)
    started = time.perf_counter()
    if method == METHOD_PATH_SPACE:
        estimate = path_space_estimate(
            model, bootstrap_proposal(model), functional, n_particles, rng, seed=seed
        )
        return estimate.value, time.perf_counter() - started

    history = run_filter(
        model, bootstrap_proposal(model), n_particles, functional.horizon, rng
    )
    if method == METHOD_FFBS_BACKWARD:
        estimate = ffbs_backward_additive(history, model, functional)
    elif method == METHOD_FFBS_FORWARD:
        estimate = ffbs_forward_additive(history, model, functional)
    elif method in (METHOD_FFBSI_DIRECT, METHOD_FFBSI_REJECTION):
        if method == METHOD_FFBSI_REJECTION:
            paths = ffbsi_rejection_sample_paths(history, model, n_particles, rng)
        else:
            paths = ffbsi_sample_paths(history, model, n_particles, rng)
        estimate = ffbsi_estimate(paths, history, functional, method=method, seed=seed)
    else:
        raise ValueError(f"unknown method {method!r}")
    return estimate.value, time.perf_counter() - started


def _run_cell(payload: dict) -> dict:
    model = FAMILIES[payload["model_type"]].build(
        payload["model_params"], payload["observations"]
    )
    horizon = payload["horizon"]
    method = payload["method"]
    n_particles = payload["n_particles"]
    functional = state_sum_functional(horizon)
    replicates = payload["replicates"]
    values = []
    walls = []
    failures = []
    for k in range(replicates):
        seed = derive_seed(
            payload["master_seed"], horizon, n_particles, METHOD_IDS[method], k
        )
        try:
            value, wall = estimate_once(model, functional, method, n_particles, seed)
        except Exception as exc:  # noqa: BLE001 - flagged, not swallowed
            failures.append(f"replicate {k}: {type(exc).__name__}: {exc}")
            continue
        values.append(value)
        walls.append(wall)
    if failures:
        error = (
            f"{len(failures)} of {replicates} replicates failed; "
            f"first: {failures[0]}"
        )
        variance = mean = wall = math.nan
    else:
        error = None
        variance = float(np.var(values, ddof=1))
        mean = float(np.mean(values))
        wall = float(np.mean(walls))
    return {
        "method": method,
        "horizon": horizon,
        "n_particles": n_particles,
        "lag": functional.lag,
        "variance": variance,
        "mean_estimate": mean,
        "mean_wall_seconds": wall,
        "replicates": replicates,
        "error": error,
    }


def run_grid(grid: ExperimentGrid, workers: int = 1) -> VarianceTable:
    """Run every (method, horizon, N) cell of the grid.

    Cells are independent tasks; rows come back in config order and
    their content does not depend on the worker count because every
    replicate's generator is keyed, never shared.  A replicate failure
    flags its row (variance and mean become NaN, and the error counts
    the failed replicates and quotes the first); every other replicate
    and the rest of the grid still run.  ``workers`` processes run the
    cells; it must be at least 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    observations = {
        horizon: generate_grid_observations(grid, horizon)
        for horizon in grid.horizons
    }
    payloads = [
        {
            "model_type": grid.model_type,
            "model_params": grid.model_params,
            "observations": observations[horizon],
            "horizon": horizon,
            "method": method,
            "n_particles": n_particles,
            "replicates": grid.replicates,
            "master_seed": grid.master_seed,
        }
        for method in grid.methods
        for horizon in grid.horizons
        for n_particles in grid.particle_counts
    ]
    if workers == 1 or len(payloads) == 1:
        results = [_run_cell(p) for p in payloads]
    else:
        # imported here so that `import smoothcore` and one-worker runs
        # do not load the multiprocessing modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, payloads))
    return VarianceTable(rows=[VarianceRow(**r) for r in results])


@dataclass(frozen=True)
class RegressionResult:
    """Least-squares slope of log variance against one log axis."""

    slope: float
    stderr: float
    n_points: int
    fixed_value: int


def scaling_regression(
    table: VarianceTable,
    method: str,
    axis: str,
    fixed_value: int | None = None,
) -> RegressionResult:
    """Log-log slope of a method's variance along one grid axis.

    ``axis`` is ``"T"`` or ``"N"``; the other axis must be held fixed,
    either implicitly (only one value present) or via ``fixed_value``.
    """
    if axis not in ("T", "N"):
        raise ValueError(f"axis must be 'T' or 'N', got {axis!r}")
    rows = [
        row
        for row in table.rows
        if row.method == method and row.error is None and row.variance > 0.0
    ]
    if not rows:
        raise ValueError(f"no usable rows for method {method!r}")
    other = (lambda r: r.n_particles) if axis == "T" else (lambda r: r.horizon)
    if fixed_value is None:
        others = sorted({other(r) for r in rows})
        if len(others) != 1:
            raise ValueError(
                f"multiple values {others} on the non-regression axis; "
                "pass fixed_value to choose one"
            )
        fixed_value = others[0]
    rows = [r for r in rows if other(r) == fixed_value]
    xs = np.array(
        [r.horizon if axis == "T" else r.n_particles for r in rows], dtype=float
    )
    ys = np.array([r.variance for r in rows])
    if xs.size < 3:
        raise ValueError(f"need at least 3 points for a slope, got {xs.size}")
    if np.unique(xs).size < 2:
        raise ValueError("regression axis values are all equal")
    lx = np.log(xs)
    ly = np.log(ys)
    lx_centered = lx - lx.mean()
    sxx = float(lx_centered @ lx_centered)
    slope = float(lx_centered @ ly / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    residuals = ly - (intercept + slope * lx)
    sigma_sq = float(residuals @ residuals / (xs.size - 2))
    return RegressionResult(
        slope=slope,
        stderr=math.sqrt(sigma_sq / sxx),
        n_points=int(xs.size),
        fixed_value=int(fixed_value),
    )


@dataclass(frozen=True)
class BoundOverlay:
    """A theory-bound curve fitted to observed variances by one scale."""

    scale: float
    predicted: tuple[float, ...]
    observed: tuple[float, ...]


def fit_bound_scale(
    table: VarianceTable, method: str, oscillation: float
) -> BoundOverlay:
    """Least-squares scale matching observed variances to the squared
    Lq bound shape ``lq_error_factor^2 * (T - r + 1) * osc^2 / N``, with
    each row's own lag r.

    The bound's constant is existential, so overlays fit this single
    scale and compare shapes only.  The oscillation must be positive and
    finite, or no scale fits.
    """
    if not 0.0 < oscillation < math.inf:
        raise ValueError(f"oscillation must be positive and finite, got {oscillation}")
    rows = [
        row
        for row in table.rows
        if row.method == method and row.error is None and row.variance > 0.0
    ]
    if not rows:
        raise ValueError(f"no usable rows for method {method!r}")
    shapes = np.array(
        [
            theory_bounds(row.lag, row.horizon, row.n_particles).lq_error_factor ** 2
            * (row.horizon - row.lag + 1)
            * oscillation
            * oscillation
            / row.n_particles
            for row in rows
        ]
    )
    observed = np.array([row.variance for row in rows])
    scale = float(shapes @ observed / (shapes @ shapes))
    return BoundOverlay(
        scale=scale,
        predicted=tuple(float(s * scale) for s in shapes),
        observed=tuple(float(v) for v in observed),
    )
