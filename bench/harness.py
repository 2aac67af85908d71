"""Workload passes, output checks and tracing for ``bench/run.py``.

A pass solves every mesh of every case of a workload once, in order,
each solve starting when the previous one has finished, and takes the
error norms where the case has an exact solution.  Checks compare the
outputs with exact fields written out here in plain numpy, closed-form
DOF counts, the first-order rates the method must reach and the
upwind limit of the vanishing-diffusion sweep.

The traced run records one span per call into the library's layers by
replacing names in the ``safefem.verify`` namespace with wrappers; the
library's files are not touched.  Spans stay in memory and are written
once, when the run ends.
"""

import math
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------- exact fields
# Written from the case definitions in safefem.verify.make_case, independent
# of its sympy derivation and lambdify.

def _div2d_u(P):
    x, y = P[:, 0], P[:, 1]
    return np.column_stack([
        np.exp(x - y) * x * y * (1 - x) * (1 - y),
        np.sin(np.pi * x) * np.sin(np.pi * y),
    ])


def _div2d_div(P):
    x, y = P[:, 0], P[:, 1]
    return (np.exp(x - y) * y * (1 - y) * (1 - x - x * x)
            + np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


def _grad3d_u(P):
    s = np.sin(np.pi * P)
    return s[:, 0] * s[:, 1] * s[:, 2]


def _grad3d_grad(P):
    s, c = np.sin(np.pi * P), np.cos(np.pi * P)
    return np.pi * np.column_stack([
        c[:, 0] * s[:, 1] * s[:, 2],
        s[:, 0] * c[:, 1] * s[:, 2],
        s[:, 0] * s[:, 1] * c[:, 2],
    ])


def _curl3d_u(P):
    s = np.sin(P)
    return np.column_stack([s[:, 2], s[:, 0], s[:, 1]])


def _curl3d_curl(P):
    c = np.cos(P)
    return np.column_stack([c[:, 1], c[:, 2], c[:, 0]])


EXACT = {
    "div2d": (_div2d_u, _div2d_div),
    "grad3d": (_grad3d_u, _grad3d_grad),
    "curl3d": (_curl3d_u, _curl3d_curl),
}

# ------------------------------------------------------------------ the checks

RESIDUAL_MAX = 1e-10

# case -> [(n, norm, lowest rate, highest rate)]; the rate at n is taken
# against the next coarser mesh of the study.
RATE_RULES = {
    "div2d": [(32, "l2", 0.95, math.inf), (64, "l2", 0.95, math.inf)],
    "curl3d": [(8, "l2", 0.95, 1.05), (8, "d", 0.95, 1.05)],
    "grad3d": [(8, "d", 0.9, math.inf)],
}

SWEEP_DRIFT_MAX = 0.05   # max|u(1e-7) - u(1e-5)| / max|u(1e-5)|
SWEEP_LIMIT_MAX = 1e-6   # max|u(0) - u(1e-7)| / max|u(1e-7)|


def expected_dofs(dim, k, n):
    """Closed-form entity counts of the structured meshes."""
    if (dim, k) == (2, 1):
        return 3 * n * n + 2 * n
    if (dim, k) == (3, 0):
        return (n + 1) ** 3
    if (dim, k) == (3, 1):
        return 3 * n * (n + 1) ** 2 + 3 * n * n * (n + 1) + n ** 3
    raise KeyError(f"no DOF count for dim={dim}, k={k}")


# B_m kernel evaluations per cell in assemble: 3 facets x one B_2 (2d facet
# scheme), 6 edges x two directions of B_1 (3d vertex scheme), 12 ordered
# face pairs x three B_2 (3d edge scheme).
KERNEL_EVALS_PER_CELL = {(2, 1): 3, (3, 0): 12, (3, 1): 36}


@dataclass
class Solve:
    """One solve_case call of a pass and what the checks found."""

    case: str
    alpha: float
    n: int
    finest: bool
    dim: int
    k: int
    mesh: object = None
    u: np.ndarray = None
    cells: int = 0
    dofs: int = 0
    report: object = None
    err: object = None
    solve_s: float = 0.0
    norms_s: float = 0.0
    problems: list = field(default_factory=list)


def _rate(coarse, fine, norm):
    e0, e1 = getattr(coarse.err, norm), getattr(fine.err, norm)
    return math.log2(e0 / e1) / math.log2(fine.n / coarse.n)


def check_pass(solves):
    """Append to each solve's ``problems`` every check it fails."""
    for s in solves:
        if s.u is None:
            continue
        want = expected_dofs(s.dim, s.k, s.n)
        if len(s.u) != want:
            s.problems.append(f"{len(s.u)} DOFs, closed form gives {want}")
        if not np.all(np.isfinite(s.u)):
            s.problems.append("non-finite DOFs")
        if not s.report.residual <= RESIDUAL_MAX:
            s.problems.append(f"relative residual {s.report.residual:.3g}")

    studies = {}
    for s in solves:
        studies.setdefault(s.case, []).append(s)
    for name, rules in RATE_RULES.items():
        series = studies.get(name)
        if series is None:
            continue
        for n, norm, lo, hi in rules:
            pos = [i for i, s in enumerate(series) if s.n == n]
            if not pos or pos[0] == 0:
                raise KeyError(f"{name}: no refinement onto n={n}")
            coarse, fine = series[pos[0] - 1], series[pos[0]]
            if coarse.err is None or fine.err is None:
                fine.problems.append(f"{norm} rate at n={n}: errors missing")
                continue
            rate = _rate(coarse, fine, norm)
            if not lo <= rate <= hi:
                fine.problems.append(
                    f"{norm} rate {rate:.4f} at n={n} outside [{lo}, {hi}]")

    sweep = {s.alpha: s for s in studies.get("div2d-stability", [])}
    if sweep:
        _check_close(sweep[1e-7], sweep[1e-5], SWEEP_DRIFT_MAX)
        _check_close(sweep[0.0], sweep[1e-7], SWEEP_LIMIT_MAX)


def _check_close(s, ref, share):
    """max|u_s - u_ref| <= share * max|u_ref|, charged to solve s."""
    if s.u is None or ref.u is None:
        s.problems.append(f"no solution to compare with alpha={ref.alpha:g}")
        return
    diff = float(np.max(np.abs(s.u - ref.u)))
    scale = float(np.max(np.abs(ref.u)))
    if not diff <= share * scale:
        s.problems.append(
            f"max diff to alpha={ref.alpha:g} is {diff:.3g}, "
            f"over {share:g} of {scale:.3g}")


# --------------------------------------------------------------------- tracing

class Tracer:
    """Spans (name, start, end, parent, pass) held in memory."""

    def __init__(self):
        self.spans = []
        self.pass_index = None
        self._open = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(result)`` gives
        the counts to attach to it."""
        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "pass": self.pass_index,
                "start": 0.0,
                "end": 0.0,
                "counts": {},
            }
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                rec["counts"].update(count(out))
            return out
        return traced

    def self_times(self):
        """Duration of each span minus that of its direct children."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


# Names that safefem.verify calls into other layers, with their span names
# and the counts read off each call's result.
VERIFY_CALLS = {
    "build_unit_square_mesh": ("mesh.build", lambda m: {"mesh.cells": m.num_cells}),
    "build_unit_cube_mesh": ("mesh.build", lambda m: {"mesh.cells": m.num_cells}),
    "assemble": ("assembly.assemble", None),
    "assemble_load": ("assembly.load", None),
    "canonical_interpolate": ("whitney.interpolate", None),
    "apply_essential_bc": ("assembly.bc", lambda s: {
        "assembly.nnz": s.matrix.nnz, "whitney.dofs": s.dof_map.num_dofs}),
    "solve": ("solver.solve", lambda _: {"solver.calls": 1}),
}

# span name -> per-layer metric of its self time
LAYER_METRICS = {
    "verify.make_case": "verify.make_case_s",
    "mesh.build": "mesh.build_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.load": "assembly.load_s",
    "whitney.interpolate": "whitney.interpolate_s",
    "assembly.bc": "assembly.bc_s",
    "solver.solve": "solver.solve_s",
    "verify.error_norms": "verify.error_norms_s",
    "verify.solve_case": "verify.other_s",
}
COUNT_METRICS = ("mesh.cells", "whitney.dofs", "assembly.nnz", "solver.calls")


@contextmanager
def traced_verify(verify, tracer):
    """Route the calls safefem.verify makes through tracer spans."""
    saved = {}
    try:
        for attr, (name, count) in VERIFY_CALLS.items():
            saved[attr] = getattr(verify, attr)
            setattr(verify, attr, tracer.wrap(name, saved[attr], count))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(verify, attr, fn)


# -------------------------------------------------------------------- the run

@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    log: list
    trace: dict | None


def _call(tracer, name, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.wrap(name, fn)(*args)


def run_pass(verify, cases, tracer):
    solves = []
    for (name, alpha, gamma, ns), case in cases:
        exact = EXACT.get(name)
        for n in ns:
            s = Solve(name, alpha, n, n == max(ns), case.dim, case.k)
            solves.append(s)
            try:
                t0 = time.perf_counter()
                s.mesh, s.u, s.report = _call(
                    tracer, "verify.solve_case", verify.solve_case, case, n)
                t1 = time.perf_counter()
                s.solve_s = t1 - t0
                if exact is not None:
                    s.err = _call(tracer, "verify.error_norms", verify.error_norms,
                                  s.mesh, case.k, s.u, *exact)
                    s.norms_s = time.perf_counter() - t1
            except Exception as exc:  # any raise fails this solve; keep going
                s.problems.append(f"raised {type(exc).__name__}: {exc}")
    check_pass(solves)
    # keep the figures, drop the arrays: memory must not grow with passes
    for s in solves:
        if s.u is not None:
            s.cells, s.dofs = s.mesh.num_cells, len(s.u)
        s.mesh = s.u = None
    return solves


def _pass_table(solves):
    rows = [f"{'case':<16} {'alpha':>7} {'n':>3} {'dofs':>7} {'solve_s':>8} "
            f"{'norms_s':>8} {'l2_err':>11} {'d_err':>11} {'residual':>9}  status"]
    for s in solves:
        l2 = f"{s.err.l2:.5e}" if s.err is not None else "-"
        d = f"{s.err.d:.5e}" if s.err is not None else "-"
        res = f"{s.report.residual:.1e}" if s.report is not None else "-"
        status = "; ".join(s.problems) or "ok"
        rows.append(f"{s.case:<16} {s.alpha:>7g} {s.n:>3} {s.dofs:>7} "
                    f"{s.solve_s:>8.3f} {s.norms_s:>8.3f} {l2:>11} {d:>11} "
                    f"{res:>9}  {status}")
    return rows


def _table_s(solves):
    return sum(s.solve_s + s.norms_s for s in solves)


def run_workload(verify, workload, specs, seconds, traced):
    """Build the cases, then run whole passes for about ``seconds``:
    another pass starts only when the last pass's duration still fits."""
    tracer = Tracer() if traced else None
    cases = [
        (spec, _call(tracer, "verify.make_case", verify.make_case,
                     spec[0], spec[1], spec[2]))
        for spec in specs
    ]
    passes = []
    t_start = time.perf_counter()
    with traced_verify(verify, tracer) if traced else nullcontext():
        while True:
            if tracer is not None:
                tracer.pass_index = len(passes)
            p0 = time.perf_counter()
            passes.append(run_pass(verify, cases, tracer))
            took = time.perf_counter() - p0
            if time.perf_counter() - t_start + took > seconds:
                break

    log = [f"workload {workload}: {len(passes)} pass(es), "
           f"{'traced' if traced else 'untraced'}"]
    log += _pass_table(passes[0])
    for i, solves in enumerate(passes):
        log.append(f"pass {i}: table_s={_table_s(solves):.4f}")
    all_solves = [s for solves in passes for s in solves]
    failed = sum(bool(s.problems) for s in all_solves)
    correct = failed == 0
    if traced:
        metrics, trace, trace_ok = _layer_metrics(tracer, passes, log)
        correct = correct and trace_ok
    else:
        metrics, trace = _end_to_end_metrics(passes), None
    return RunResult(correct, len(all_solves), failed, metrics, log, trace)


def _end_to_end_metrics(passes):
    def med(fn):
        return statistics.median(fn(solves) for solves in passes)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "table_s": (med(_table_s), "s"),
        "solve_s": (med(lambda ss: sum(s.solve_s for s in ss if s.finest)), "s"),
        "dofs_per_s": (med(lambda ss: sum(s.dofs for s in ss)
                           / sum(s.solve_s for s in ss)), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def _layer_metrics(tracer, passes, log):
    """Per-layer self times (median over passes) and counts (which must
    repeat exactly in every pass), with the checks on the trace."""
    own = tracer.self_times()
    spans = tracer.spans
    ok = True
    if min(own) < 0:
        log.append("TRACE CHECK FAILED: a span has negative self time")
        ok = False

    per_pass = [dict.fromkeys(LAYER_METRICS.values(), 0.0) for _ in passes]
    counts = [dict.fromkeys(COUNT_METRICS, 0) for _ in passes]
    make_case_s = 0.0
    for s, t in zip(spans, own):
        metric = LAYER_METRICS[s["name"]]
        if s["pass"] is None:
            make_case_s += t
            continue
        per_pass[s["pass"]][metric] += t
        for key, val in s["counts"].items():
            counts[s["pass"]][key] += val

    for i, solves in enumerate(passes):
        traced_sum = sum(per_pass[i].values())
        table_s = _table_s(solves)
        # self times of the pass's spans sum to its top-level spans; the
        # benchmark's own timers around those calls give table_s
        if not abs(traced_sum - table_s) <= 1e-3 * table_s:
            log.append(f"TRACE CHECK FAILED: pass {i} layer self times sum "
                       f"to {traced_sum:.6f} s, table_s is {table_s:.6f} s")
            ok = False
        counts[i]["exponential.kernel_evals"] = sum(
            s.cells * KERNEL_EVALS_PER_CELL[(s.dim, s.k)] for s in solves)
        calls = sum(1 for sp in spans if sp["pass"] == i
                    and sp["name"] == "solver.solve")
        if calls != len(solves):
            log.append(f"TRACE CHECK FAILED: {calls} solver spans for "
                       f"{len(solves)} solves in pass {i}")
            ok = False
    if any(c != counts[0] for c in counts):
        log.append(f"TRACE CHECK FAILED: counts differ between passes: {counts}")
        ok = False

    metrics = {"verify.make_case_s": (make_case_s, "s")}
    for metric in LAYER_METRICS.values():
        if metric != "verify.make_case_s":
            metrics[metric] = (statistics.median(p[metric] for p in per_pass), "s")
    for key in COUNT_METRICS:
        metrics[key] = (counts[0][key], "count")
    metrics["exponential.kernel_evals"] = (
        counts[0]["exponential.kernel_evals"], "computed_count")

    table = statistics.median(_table_s(solves) for solves in passes)
    log.append(f"traced table_s={table:.4f}")
    log.append("layer self time, median per pass (s, share of table_s):")
    for metric, (value, unit) in metrics.items():
        if unit == "s" and metric != "verify.make_case_s":
            log.append(f"  {metric:<24} {value:9.4f}  {100 * value / table:5.1f} %")
    t0 = spans[0]["start"]
    trace = {
        "traced_table_s": table,
        "columns": ["name", "start", "end", "parent", "pass", "self", "counts"],
        "spans": [[s["name"], s["start"] - t0, s["end"] - t0, s["parent"], s["pass"],
                   t, s["counts"]] for s, t in zip(spans, own)],
    }
    return metrics, trace, ok
