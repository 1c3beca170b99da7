"""The grid-refinement QP oracle the tests check the solver against.

It searches a lattice, so it needs no solver of its own and shares no
code with ``peertrade.qp`` beyond the problem type.
"""

import numpy as np

from peertrade.qp import QpError, QpProblem


def brute_force_oracle(problem: QpProblem, box, grid: int = 21,
                       passes: int = 3, zoom: float = 10.0):
    """Grid-refinement search for small problems; the test-side referee.

    ``box`` is a pair of per-variable arrays (lo, hi) bounding the search;
    points outside ``[lb, ub]`` are never accepted.  Equality constraints
    and fixed variables are eliminated through their null space; the
    remaining free dimension must be at most 4.  Each pass lays a
    ``grid``-per-axis lattice over the current search region, keeps the
    best point satisfying the box and the inequalities, and shrinks the
    region by ``zoom`` around it.  Returns ``(x, value)``.
    """
    lo = np.asarray(box[0], dtype=float).ravel()
    hi = np.asarray(box[1], dtype=float).ravel()
    n = problem.n_var
    if lo.shape != (n,) or hi.shape != (n,):
        raise QpError(f"box must give bounds for all {n} variables")
    lo, hi = np.maximum(lo, problem.lb), np.minimum(hi, problem.ub)

    fixed = np.flatnonzero(problem.lb == problem.ub)
    A = np.vstack([problem.A_eq, np.eye(n)[fixed]])
    b = np.concatenate([problem.b_eq, problem.lb[fixed]])
    if len(b):
        x_p, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if np.abs(A @ x_p - b).max() > 1e-8 * (1.0 + np.abs(b).max()):
            raise QpError("equality system is inconsistent; no feasible grid")
        # Orthonormal null-space basis via SVD.
        _, sv, Vt = np.linalg.svd(A)
        rank = int((sv > 1e-12 * max(sv[0], 1.0)).sum()) if sv.size else 0
        N = Vt[rank:].T
    else:
        x_p = np.zeros(n)
        N = np.eye(n)
    k = N.shape[1]
    if k > 4:
        raise QpError(f"{k} free dimensions after equality elimination; "
                      "the oracle handles at most 4")
    if k == 0:
        x = x_p
        if _feasible(problem, lo, hi, x[None, :])[0]:
            return x, problem.objective(x)
        raise QpError("empty feasible grid: equalities pin an infeasible point")

    center_x = 0.5 * (lo + hi)
    u0 = N.T @ (center_x - x_p)
    radius = 0.5 * float(np.linalg.norm(hi - lo)) + 1e-9

    best_u, best_f = None, np.inf
    for _ in range(passes):
        axes = [np.linspace(u0[j] - radius, u0[j] + radius, grid)
                for j in range(k)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
        X = x_p + mesh @ N.T
        ok = _feasible(problem, lo, hi, X)
        if not ok.any():
            if best_u is None:
                raise QpError("empty feasible grid within the given box")
            radius /= zoom
            u0 = best_u
            continue
        Xok = X[ok]
        vals = 0.5 * np.einsum("bi,ij,bj->b", Xok, problem.P, Xok) + Xok @ problem.r
        i = int(vals.argmin())
        if vals[i] < best_f:
            best_f = float(vals[i])
            best_u = mesh[ok][i]
        u0 = best_u
        radius /= zoom
    x = x_p + N @ best_u
    return x, best_f


def _feasible(problem: QpProblem, lo, hi, X: np.ndarray) -> np.ndarray:
    slack = 1e-9
    ok = np.all(X >= lo - slack, axis=1) & np.all(X <= hi + slack, axis=1)
    if problem.n_ineq:
        ok &= np.all(X @ problem.A_ineq.T <= problem.b_ineq + slack, axis=1)
    return ok
