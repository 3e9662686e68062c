"""Command line interface.

Subcommands
-----------
generate    simulate a model and write ``t,x_true,y`` observations
smooth      one smoothed estimate from an observation file
experiment  run a replication grid from a JSON config
analyze     slopes (and optional bound overlays) from a variance table
oracle      exact reference values (kalman / hmm / gamma)

Exit codes: 0 on success, 1 when an estimator failed at runtime (a
flagged grid row counts) or stdout closed early (nothing is printed),
2 for usage or config errors.

``--zero-timings`` writes wall-clock columns as 0 so two runs of the
same command are byte-identical; timings are the only nondeterministic
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError
from .experiments import (
    check_functional_spec,
    estimate_once,
    fit_bound_scale,
    load_config,
    read_json,
    run_grid,
    scaling_regression,
    VarianceTable,
)
from .models import (
    FAMILIES,
    make_finite_hmm,
    read_observations_csv,
    state_sum_functional,
    text_file,
    write_csv,
    write_observations_csv,
    format_float,
)
from .oracles import (
    exact_hmm_smooth,
    kalman_smooth,
    path_space_asymptotic_variance,
    quadrature_grid,
    write_kalman_csv,
)
from .rng import make_rng
from .smoothing import METHOD_NAMES


def _output(out: str | None):
    """The ``--out`` path, or stdout when none was given."""
    return sys.stdout if out is None else out


def _write_text(text: str, out: str | None) -> None:
    with text_file(_output(out), "w") as handle:
        handle.write(text)


# the families whose data a t,x_true,y file holds: one float per time
_DATA_FAMILIES = ("lgm", "svm")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_family_flags(parser, families, required=False) -> None:
    """One float flag per parameter of the families, each added once."""
    for name in dict.fromkeys(n for f in families for n in FAMILIES[f].params):
        parser.add_argument(_flag(name), type=float, required=required)


def _continuous_params(args, family: str) -> dict:
    """The family's parameters, read from their flags."""
    names = FAMILIES[family].params
    missing = [_flag(name) for name in names if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"{family} needs {' '.join(missing)}")
    return {name: getattr(args, name) for name in names}


def _cmd_generate(args) -> int:
    rng = make_rng(args.seed)
    params = _continuous_params(args, args.model)
    x, y = FAMILIES[args.model].simulate(params, args.horizon, rng)
    write_observations_csv(_output(args.out), x, y)
    return 0


def _cmd_smooth(args) -> int:
    _, y = read_observations_csv(args.data)
    model = FAMILIES[args.model].build(_continuous_params(args, args.model), y)
    horizon = y.size - 1
    functional = state_sum_functional(horizon)
    value, wall = estimate_once(model, functional, args.method, args.n, args.seed)
    if args.zero_timings:
        wall = 0.0
    row = (args.method, horizon, args.n, functional.lag, args.seed, value, wall)
    write_csv(_output(args.out), "method,T,N,r,seed,estimate,wall_seconds", [row])
    return 0


def _cmd_experiment(args) -> int:
    grid = load_config(args.config)
    table = run_grid(grid, workers=args.workers)
    out = args.out if args.out is not None else grid.out
    text = table.to_csv(zero_timings=args.zero_timings)
    _write_text(text, out)
    if table.has_failures:
        for row in table.rows:
            if row.error is not None:
                sys.stderr.write(
                    f"flagged: {row.method} T={row.horizon} N={row.n_particles}: "
                    f"{row.error}\n"
                )
        return 1
    return 0


def _cmd_analyze(args) -> int:
    table = VarianceTable.from_csv(args.table)
    regression = scaling_regression(
        table, args.method, args.axis, fixed_value=args.fixed
    )
    report = {
        "method": args.method,
        "axis": args.axis,
        "fixed_value": regression.fixed_value,
        "slope": regression.slope,
        "stderr": regression.stderr,
        "n_points": regression.n_points,
    }
    if args.overlay_osc is not None:
        overlay = fit_bound_scale(table, args.method, args.overlay_osc)
        report["bound_overlay"] = {
            "scale": overlay.scale,
            "predicted": list(overlay.predicted),
            "observed": list(overlay.observed),
        }
    _write_text(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _load_oracle_config(path: str) -> dict:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {"transition", "emissions", "initial", "functional"}
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    for key in ("transition", "emissions", "initial"):
        if key not in raw:
            raise ConfigError("required key missing", field=key)
    if "functional" in raw:
        check_functional_spec(raw["functional"])
    return raw


def _cmd_oracle(args) -> int:
    if args.oracle == "kalman":
        _, y = read_observations_csv(args.data)
        result = kalman_smooth(**_continuous_params(args, "lgm"), observations=y)
        if args.sum:
            _write_text(format_float(result.smoothed_state_sum) + "\n", args.out)
            return 0
        write_kalman_csv(result, _output(args.out))
        return 0

    if args.oracle == "hmm":
        raw = _load_oracle_config(args.config)
        model = make_finite_hmm(raw["transition"], raw["emissions"], raw["initial"])
        horizon = model.n_observations - 1
        value = exact_hmm_smooth(model, state_sum_functional(horizon))
        _write_text(format_float(value) + "\n", args.out)
        return 0

    # gamma
    if args.config is not None:
        raw = _load_oracle_config(args.config)
        model = make_finite_hmm(raw["transition"], raw["emissions"], raw["initial"])
        horizon = model.n_observations - 1
        value = path_space_asymptotic_variance(
            model, state_sum_functional(horizon)
        )
    else:
        if args.data is None:
            raise ConfigError("gamma needs --config or lgm flags with --data")
        params = _continuous_params(args, "lgm")
        _, y = read_observations_csv(args.data)
        model = FAMILIES["lgm"].build(params, y)
        grid = quadrature_grid(model.gaussian_transition.stationary_sd)
        value = path_space_asymptotic_variance(
            model, state_sum_functional(y.size - 1), grid=grid
        )
    _write_text(format_float(value) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothcore",
        description="Particle smoothing of additive functionals with exact oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="simulate a model to CSV")
    gen.add_argument("--model", choices=_DATA_FAMILIES, required=True)
    _add_family_flags(gen, _DATA_FAMILIES)
    gen.add_argument("--horizon", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_generate)

    smooth = sub.add_parser("smooth", help="one smoothed estimate from a data file")
    smooth.add_argument("--data", required=True)
    smooth.add_argument("--model", choices=_DATA_FAMILIES, required=True)
    _add_family_flags(smooth, _DATA_FAMILIES)
    smooth.add_argument("--method", choices=METHOD_NAMES, required=True)
    smooth.add_argument("--n", type=int, required=True)
    smooth.add_argument("--seed", type=int, required=True)
    smooth.add_argument("--zero-timings", action="store_true")
    smooth.add_argument("--out")
    smooth.set_defaults(func=_cmd_smooth)

    exp = sub.add_parser("experiment", help="run a replication grid")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", help="override the config's output path")
    exp.add_argument("--workers", type=int, default=1, help="worker processes")
    exp.add_argument("--zero-timings", action="store_true")
    exp.set_defaults(func=_cmd_experiment)

    ana = sub.add_parser("analyze", help="slopes from a variance table")
    ana.add_argument("--table", required=True)
    ana.add_argument("--method", choices=METHOD_NAMES, required=True)
    ana.add_argument("--axis", choices=("T", "N"), required=True)
    ana.add_argument("--fixed", type=int)
    ana.add_argument("--overlay-osc", type=float, dest="overlay_osc")
    ana.add_argument("--out")
    ana.set_defaults(func=_cmd_analyze)

    orc = sub.add_parser("oracle", help="exact reference computations")
    orc_sub = orc.add_subparsers(dest="oracle", required=True)

    kal = orc_sub.add_parser("kalman", help="exact posterior moments for the lgm")
    _add_family_flags(kal, ("lgm",), required=True)
    kal.add_argument("--data", required=True)
    kal.add_argument("--sum", action="store_true",
                     help="print only the summed smoothed means")
    kal.add_argument("--out")
    kal.set_defaults(func=_cmd_oracle)

    hmm = orc_sub.add_parser("hmm", help="exact smoothed value on a finite chain")
    hmm.add_argument("--config", required=True)
    hmm.add_argument("--out")
    hmm.set_defaults(func=_cmd_oracle)

    gam = orc_sub.add_parser(
        "gamma", help="closed-form asymptotic variance of the path-space estimator"
    )
    gam.add_argument("--config", help="finite independent-kernel model JSON")
    _add_family_flags(gam, ("lgm",))
    gam.add_argument("--data")
    gam.add_argument("--out")
    gam.set_defaults(func=_cmd_oracle)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"file not found: {exc.filename}\n")
        return 2
    except OSError as exc:
        if exc.filename is None:  # not a file the user named, e.g. a broken pipe
            raise
        sys.stderr.write(f"cannot use {exc.filename}: {exc.strerror}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"estimator failure: {exc}\n")
        return 1


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:  # the reader stopped early: exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
