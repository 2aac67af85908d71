"""Command line interface.

Subcommands: ``convergence`` (error/rate table over a mesh family, CSV
output), ``solve`` (single solve, VTK dump plus stability metrics) and
``bernoulli-table`` (kernel values on an argument grid, CSV output).

Options can come from a ``key = value`` config file (``--config``);
explicit flags win over the file, the SAFEFEM_OUTDIR environment variable
overrides the output directory unless ``--outdir`` is given.

Exit codes: 0 on success, 2 for configuration errors, 3 for numerical
failures.
"""

import argparse
import itertools
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .exponential import _bernoulli
from .mesh import DIAG_LL_UR, DIAGONALS
from .verify import (
    CASE_NAMES,
    error_norms,
    make_case,
    run_convergence,
    solve_case,
    stability_metrics,
    write_solution_vtk,
)


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration, read from the ``key = value`` text of a
    config file by ``from_text``."""

    case: str = "div2d"
    alpha: float = 1.0
    gamma: float = 1.0
    ns: tuple = (4, 8, 16, 32)
    n: int = 32
    diagonal: str = DIAG_LL_UR
    outdir: str = "."
    tol: float = 1e-10
    eps: tuple = (0.0, 1e-8, 1e-2, 1.0)
    args_min: float = -10.0
    args_max: float = 10.0
    args_count: int = 9

    @classmethod
    def from_text(cls, text):
        base = cls()
        kw = {}
        names = {f.name: f for f in fields(cls)}
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in names:
                raise ValueError(f"line {ln}: unknown config key {key!r}")
            ref = getattr(base, key)
            if isinstance(ref, tuple):
                parts = [p for p in val.split(",") if p.strip()]
                elem = float if key == "eps" else int
                kw[key] = tuple(elem(p) for p in parts)
            elif isinstance(ref, int):
                kw[key] = int(val)
            elif isinstance(ref, float):
                kw[key] = float(val)
            else:
                kw[key] = val
        return replace(base, **kw)


def _parse_int_list(text):
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_float_list(text):
    return tuple(float(p) for p in text.split(",") if p.strip())


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="safefem",
        description="Simplex-averaged FEM for convection-dominated problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_ns, with_n):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--case", choices=CASE_NAMES)
        p.add_argument("--alpha", type=float)
        p.add_argument("--gamma", type=float)
        if with_ns:
            p.add_argument("--n", dest="ns", type=_parse_int_list,
                           help="comma-separated mesh sizes, e.g. 4,8,16")
        if with_n:
            p.add_argument("--n", dest="n", type=int, help="mesh size")
        p.add_argument("--diagonal", choices=DIAGONALS)
        p.add_argument("--outdir")
        p.add_argument("--tol", type=float,
                       help="bound on the relative residual of the solve")

    pc = sub.add_parser("convergence", help="error/rate table over meshes")
    common(pc, with_ns=True, with_n=False)
    ps = sub.add_parser("solve", help="single solve with VTK output")
    common(ps, with_ns=False, with_n=True)
    pb = sub.add_parser("bernoulli-table", help="kernel values on a grid")
    pb.add_argument("--config", help="key = value config file")
    pb.add_argument("--eps", type=_parse_float_list,
                    help="comma-separated eps values (0 allowed)")
    pb.add_argument("--args-min", dest="args_min", type=float)
    pb.add_argument("--args-max", dest="args_max", type=float)
    pb.add_argument("--args-count", dest="args_count", type=int)
    pb.add_argument("--outdir")
    return parser


def _merge_config(args):
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = RunConfig.from_text(fh.read())
    overrides = {}
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides[f.name] = val
    if "outdir" not in overrides and os.environ.get("SAFEFEM_OUTDIR"):
        overrides["outdir"] = os.environ["SAFEFEM_OUTDIR"]
    return replace(cfg, **overrides)


def _cmd_convergence(cfg):
    case = make_case(cfg.case, alpha=cfg.alpha, gamma=cfg.gamma,
                     diagonal=cfg.diagonal)
    report = run_convergence(case, cfg.ns, tol=cfg.tol)
    print(report)
    path = os.path.join(cfg.outdir, f"{cfg.case}_convergence.csv")
    report.to_csv(path)
    print(f"wrote {path}")
    return 0


def _cmd_solve(cfg):
    case = make_case(cfg.case, alpha=cfg.alpha, gamma=cfg.gamma,
                     diagonal=cfg.diagonal)
    mesh, u, rep = solve_case(case, cfg.n, tol=cfg.tol)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("solution contains non-finite values")
    metrics = stability_metrics(u)
    print(f"solved {cfg.case} on n={cfg.n}: {rep.n_dofs} DOFs, "
          f"fill={rep.fill}, residual={rep.residual:.3e}")
    print(f"max |DOF| = {metrics.max_abs_dof:.9g}")
    if case.u_exact is not None:
        err = error_norms(mesh, case.k, u, case.u_exact, case.du_exact)
        print(f"l2_err = {err.l2:.9g}  d_err = {err.d:.9g}")
    path = os.path.join(cfg.outdir, f"{cfg.case}_n{cfg.n}.vtk")
    write_solution_vtk(mesh, case.k, u, path, label=cfg.case.replace("-", "_"))
    print(f"wrote {path}")
    return 0


def _cmd_bernoulli_table(cfg):
    if cfg.args_count < 1:
        raise ValueError("args_count must be positive")
    grid = np.linspace(cfg.args_min, cfg.args_max, cfg.args_count)
    lines = ["kernel,eps,s,t,r,value"]
    for eps in cfg.eps:
        for j in (1, 2, 3):
            args = np.array(list(itertools.product(grid, repeat=j)))
            values = _bernoulli(eps, args)
            for row, b in zip(args.tolist(), values.tolist()):
                cols = [f"{a:.9g}" for a in row] + [""] * (3 - j)
                lines.append(f"b{j},{eps:.9g},{','.join(cols)},{b:.9g}")
    path = os.path.join(cfg.outdir, "bernoulli_table.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lines) - 1} rows)")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if not os.path.isdir(cfg.outdir):
            raise ValueError(f"output directory {cfg.outdir!r} does not exist")
        if args.command == "convergence":
            return _cmd_convergence(cfg)
        if args.command == "solve":
            return _cmd_solve(cfg)
        return _cmd_bernoulli_table(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
