"""Linear solvers for assembled systems."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

_DIRECT_LIMIT = 200_000


@dataclass
class SolverConfig:
    """``method`` is "direct", "iterative" or None for the size-based
    default (direct up to 200k DOFs)."""

    method: str | None = None
    tol: float = 1e-10
    max_iter: int = 2000


@dataclass
class SolveReport:
    method: str
    n_dofs: int
    converged: bool
    iterations: int | None
    residual: float


def solve(system, config=None):
    """Solve the system, returning (solution, SolveReport).

    Direct solves use sparse LU with partial pivoting; iterative solves
    use GMRES with an incomplete-LU preconditioner (Jacobi fallback).
    Singular matrices and non-convergence raise RuntimeError.
    """
    config = config or SolverConfig()
    A = system.matrix.tocsc()
    b = np.asarray(system.rhs, dtype=float)
    n = A.shape[0]
    method = config.method
    if method is None:
        method = "direct" if n <= _DIRECT_LIMIT else "iterative"
    if method not in ("direct", "iterative"):
        raise ValueError(f"unknown solver method {method!r}")
    bnorm = np.linalg.norm(b)
    if method == "direct":
        try:
            lu = spla.splu(A)
        except RuntimeError as exc:
            raise RuntimeError(f"direct solve failed: {exc}") from exc
        x = lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise RuntimeError("direct solve produced non-finite values")
        res = np.linalg.norm(A @ x - b) / max(bnorm, 1e-300)
        return x, SolveReport("direct", n, True, None, res)

    try:
        ilu = spla.spilu(A, drop_tol=1e-5, fill_factor=20.0)
        prec = spla.LinearOperator(A.shape, ilu.solve)
    except RuntimeError:
        d = A.diagonal()
        if np.any(d == 0):
            raise RuntimeError("singular preconditioner: zero diagonal")
        prec = spla.LinearOperator(A.shape, lambda v: v / d)
    count = {"it": 0}

    def cb(_):
        count["it"] += 1

    x, info = spla.gmres(
        A, b, rtol=config.tol, atol=0.0, maxiter=config.max_iter,
        M=prec, callback=cb, callback_type="pr_norm",
    )
    if info != 0 or not np.all(np.isfinite(x)):
        raise RuntimeError(f"gmres did not converge (info={info})")
    res = np.linalg.norm(A @ x - b) / max(bnorm, 1e-300)
    return x, SolveReport("iterative", n, True, count["it"], res)
