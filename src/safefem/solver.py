"""Linear solvers for assembled systems."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

_DIRECT_LIMIT = 200_000
# nested dissection leaves boxes of at most this many DOFs uncut
_LEAF_DOFS = 16
# the order keys hold one base-3 digit per depth in an int64
_MAX_DEPTH = 39
# SuperLU keeps the diagonal pivot unless an entry below it is more than
# ten times larger, so the nested-dissection order survives the pivoting
_DIAG_PIVOT_THRESH = 0.1
_RESTART = 20


@dataclass
class SolverConfig:
    """``method`` is "direct", "iterative" or None for the size-based
    default (direct up to 200k DOFs).  ``tol`` bounds the relative
    residual of both methods; ``max_iter`` caps the inner GMRES
    iterations, rounded up to whole restart cycles of 20."""

    method: str | None = None
    tol: float = 1e-10
    max_iter: int = 2000


@dataclass
class SolveReport:
    """``fill`` is the number of entries SuperLU stores for the factors L
    and U of a direct solve, None for an iterative solve."""

    method: str
    n_dofs: int
    iterations: int | None
    residual: float
    fill: int | None


def _reach(A, x):
    """Largest coordinate, per axis and DOF, over the DOF at ``x``
    (dim, N) and its neighbours in the sparsity pattern of A + A^T."""
    out = x.copy()
    for M in (A.tocsr(), A.tocsc()):
        rows = np.diff(M.indptr) > 0
        starts = M.indptr[:-1][rows]
        for a, xa in enumerate(x):
            peaks = np.maximum.reduceat(xa[M.indices], starts)
            out[a, rows] = np.maximum(out[a, rows], peaks)
    return out


def _nested_dissection(points, A):
    """Fill-reducing order of the DOFs at ``points`` (N, dim) for the
    sparsity pattern of ``A``, as the permutation p (position -> DOF).

    Boxes are cut at their midplane, the axis cycling with the depth,
    starting from the bounding box of the points.  A DOF at or left of
    the plane whose matrix neighbours reach right of it joins the
    separator, so no entry of A couples the two parts.  The order lists
    the left part, the right part, then the separator; boxes of at most
    ``_LEAF_DOFS`` DOFs stay whole.  All boxes of one depth are cut
    together.
    """
    x = np.asarray(points, dtype=float).T
    reach = _reach(A, x)
    dim, n = x.shape
    # post-order key, one base-3 digit per depth: 0 left, 1 right,
    # 2 placed at this depth (separator or leaf), 0 below a placed DOF
    key = np.zeros(n, dtype=np.int64)
    # the DOFs still being cut, with their box label and lower corner
    idx = np.arange(n)
    box = np.zeros(n, dtype=np.int64)
    lo = np.repeat(x.min(axis=1)[:, None], n, axis=1)
    # box widths of the next depth, per axis
    width = x.max(axis=1) - x.min(axis=1)
    for depth in range(_MAX_DEPTH):
        key *= 3
        a = depth % dim
        width[a] *= 0.5
        mid = lo[a] + width[a]
        right = x[a] > mid
        sizes = np.bincount(box)
        placed = (sizes[box] <= _LEAF_DOFS) | (~right & (reach[a] > mid))
        if depth == _MAX_DEPTH - 1:
            placed[:] = True
        key[idx] += np.where(placed, 2, right)
        lo[a, right] = mid[right]
        # children of the occupied boxes, labelled 2 * rank + side
        keep = np.flatnonzero(~placed)
        box = 2 * (np.cumsum(sizes > 0) - 1)[box[keep]] + right[keep]
        idx = idx[keep]
        x, reach, lo = (v.take(keep, axis=1) for v in (x, reach, lo))
        if not idx.size:
            break
    return np.argsort(key, kind="stable")


def solve(system, config=None):
    """Solve the system, returning (solution, SolveReport).

    Direct solves factor the system in nested-dissection order of the
    DOF points with threshold pivoting; iterative solves use restarted
    GMRES with an incomplete-LU preconditioner (Jacobi fallback).
    Singular matrices, a relative residual above ``config.tol`` and
    non-convergence raise RuntimeError.
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
        p = _nested_dissection(system.dof_map.points, A)
        try:
            lu = spla.splu(
                A[p][:, p], permc_spec="NATURAL", diag_pivot_thresh=_DIAG_PIVOT_THRESH
            )
        except RuntimeError as exc:
            raise RuntimeError(f"direct solve failed: {exc}") from exc
        x = np.empty(n)
        x[p] = lu.solve(b[p])
        if not np.all(np.isfinite(x)):
            raise RuntimeError("direct solve produced non-finite values")
        res = np.linalg.norm(A @ x - b) / max(bnorm, 1e-300)
        if not res <= config.tol:
            raise RuntimeError(
                f"direct solve relative residual {res:.3e} exceeds tol {config.tol:.3e}"
            )
        return x, SolveReport("direct", n, None, res, lu.nnz)

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

    # scipy's maxiter counts restart cycles; cap the inner iterations
    x, info = spla.gmres(
        A, b, rtol=config.tol, atol=0.0, restart=_RESTART,
        maxiter=math.ceil(config.max_iter / _RESTART),
        M=prec, callback=cb, callback_type="pr_norm",
    )
    if info != 0 or not np.all(np.isfinite(x)):
        raise RuntimeError(
            f"gmres did not converge in {count['it']} inner iterations (info={info})"
        )
    res = np.linalg.norm(A @ x - b) / max(bnorm, 1e-300)
    return x, SolveReport("iterative", n, count["it"], res, None)
