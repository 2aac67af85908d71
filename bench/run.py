#!/usr/bin/env python3
"""safefem benchmark: convergence studies and a vanishing-diffusion sweep
run through the library's own entry points (``make_case``, ``solve_case``,
``error_norms``).

    python3 bench/run.py --workload div2d-study --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  See
``bench/README.md`` for the workloads and the meaning of each metric.

Only the standard library is imported at module level, so that the
set-up probes (``--setup-probe``) time the import of numpy, scipy and
sympy as part of importing safefem.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# One compute thread: set before numpy is imported anywhere in the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# workload -> list of (case name, alpha, gamma, mesh sizes); every case is
# built once by make_case and solved on each of its meshes in order.
WORKLOADS = {
    "div2d-study": [("div2d", 0.01, 1.0, (8, 16, 32, 64))],
    "3d-study": [
        ("grad3d", 1.0, 1.0, (2, 4, 8)),
        ("curl3d", 1.0, 1.0, (2, 4, 8)),
    ],
    "div2d-sweep": [
        ("div2d-stability", alpha, 1.0, (64,))
        for alpha in (1e-3, 1e-5, 1e-7, 0.0)
    ],
}

# Fresh processes that time `import safefem` plus every make_case of the
# workload; setup_s is their median.
SETUP_PROBES = 3


class BenchError(Exception):
    """The benchmark cannot run here (no sources, broken probe)."""


def setup_probe(workload):
    """Body of one set-up probe process: prints the set-up seconds."""
    t0 = time.perf_counter()
    from safefem import verify

    for name, alpha, gamma, _ in WORKLOADS[workload]:
        verify.make_case(name, alpha=alpha, gamma=gamma)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload):
    """Median set-up time over SETUP_PROBES probe processes, run one at
    a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def import_safefem():
    """Import safefem from this checkout's src/, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "safefem", "__init__.py")):
        raise BenchError(f"no safefem sources under {SRC}")
    sys.path.insert(0, SRC)
    from safefem import verify

    origin = os.path.dirname(os.path.abspath(verify.__file__))
    if origin != os.path.join(SRC, "safefem"):
        raise BenchError(f"safefem was imported from {origin}, not {SRC}")
    return verify


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted and ignored: the inputs are fixed "
                         "structured meshes and do not depend on it")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure whole passes of the workload for about "
                         "this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", choices=sorted(WORKLOADS),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    try:
        verify = import_safefem()
        setup_s, setup_samples = measure_setup(args.workload)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    from harness import run_workload

    result = run_workload(
        verify, args.workload, WORKLOADS[args.workload],
        seconds=args.seconds, traced=bool(args.trace),
    )
    if not args.trace:
        result.metrics["setup_s"] = (setup_s, "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.trace is not None:
        with open(os.path.join(OUT_DIR, f"trace-{stem}.json"), "w") as fh:
            json.dump(result.trace, fh)
    for line in result.log:
        print(line)
    print(f"setup probes (s): {[round(s, 4) for s in setup_samples]}")
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump({"log": result.log, "setup_samples": setup_samples,
                   "result": summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
