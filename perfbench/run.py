"""smoothcore benchmark: one workload per process, end to end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lgm_bench --seed 1 --seconds 30 --trace 0

Workloads are ``lgm_bench``, ``finite_chain`` and ``variance_grid``
(see ``workloads.py``).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
of ``tracing.py``.  Every estimate is checked against the exact oracles.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's provenance.  BLAS and OpenMP threads are pinned to 1
before numpy loads.
"""

import os
import time

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("lgm_bench", "finite_chain", "variance_grid"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SOURCE.rglob("*.py"))
    )


def provenance(workload, problem) -> dict:
    from smoothcore import METHOD_NAMES
    from workloads import sampler_used

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": git_commit(),
        "src_lines": source_lines(),
        "samplers": {
            method: sampler_used(method, problem.model)
            for method in METHOD_NAMES
        },
    }


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing smoothcore,
    over SETUP_REPEATS interpreters run one after another."""
    from workloads import SETUP_REPEATS

    code = f"import sys; sys.path.insert(0, {str(SOURCE)!r}); import smoothcore"
    walls = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the grid's pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(workload, problem, setup_s, seed, seconds, workdir):
    from workloads import SETUP_REPEATS, p50, timed_rounds

    walls, tally, rounds, elapsed = timed_rounds(
        workload, problem, seed, seconds, workdir
    )
    rss_mb = peak_rss_mb()
    # set-up as a user pays it: import in a fresh interpreter, then the
    # inputs, exact reference and warm-up; the import is probed after the
    # loop and the RSS reading, so its interpreters stay out of both
    setup_s += import_seconds()
    completed = tally.attempted - tally.failed
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "estimates_per_s": (completed / elapsed, "1/s", completed),
    }
    for method, samples in walls.items():
        metrics[f"{method}.p50_s"] = (p50(samples), "s", len(samples))
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
    print(f"# {workload.name}: {rounds} rounds in {elapsed:.3f} s")
    return metrics, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "smoothcore" / "__init__.py").is_file():
        sys.stderr.write(f"no smoothcore sources under {SOURCE}\n")
        return 2
    sys.path.insert(0, str(SOURCE))
    import smoothcore
    from workloads import WORKLOADS, repeated_set_up

    if Path(smoothcore.__file__).resolve().parent != SOURCE / "smoothcore":
        sys.stderr.write(f"imported smoothcore from {smoothcore.__file__}\n")
        return 2

    workload = WORKLOADS[args.workload]
    problem, setup_s, reference_s = repeated_set_up(workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            from tracing import traced_run
            from workloads import Tally

            tally = Tally()
            layers, accounting = traced_run(
                workload, problem, args.seed, tally, Path(workdir)
            )
            layers["oracles.reference_s"] = (reference_s, "s")
            metrics = {name: (value, unit, 1) for name, (value, unit) in layers.items()}
            for line in accounting:
                print(f"# {line}")
        else:
            metrics, tally = end_to_end(
                workload, problem, setup_s, args.seed, args.seconds,
                Path(workdir),
            )

    for name, (value, unit, count) in metrics.items():
        print(f"{name} = {value!r} {unit} (n={count})")
    for reason in tally.reasons:
        sys.stderr.write(f"failed: {reason}\n")
    print(json.dumps(provenance(workload, problem)))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
