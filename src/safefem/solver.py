"""Direct linear solver for assembled systems."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

# nested dissection leaves boxes of at most this many DOFs uncut
_LEAF_DOFS = 16
# the order keys hold one base-3 digit per depth in an int64
_MAX_DEPTH = 39
# SuperLU keeps the diagonal pivot unless an entry below it is more than
# ten times larger, so the nested-dissection order survives the pivoting
_DIAG_PIVOT_THRESH = 0.1


@dataclass
class SolveReport:
    """``fill`` is the number of entries SuperLU stores for the factors L
    and U."""

    n_dofs: int
    residual: float
    fill: int


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


def solve(system, tol=1e-10):
    """Solve the system, returning (solution, SolveReport).

    The system is factored in nested-dissection order of the DOF points
    with threshold pivoting.  Singular matrices and a relative residual
    above ``tol`` raise RuntimeError.
    """
    A = system.matrix.tocsc()
    b = np.asarray(system.rhs, dtype=float)
    n = A.shape[0]
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
    res = np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300)
    if not res <= tol:
        raise RuntimeError(
            f"direct solve relative residual {res:.3e} exceeds tol {tol:.3e}"
        )
    return x, SolveReport(n, res, lu.nnz)
