"""Dense convex quadratic programming with full multiplier recovery.

Solves

    minimize 0.5 x'Px + r'x
    subject to  A_ineq x <= b_ineq,  A_eq x = b_eq,  lb <= x <= ub

with a Mehrotra predictor-corrector primal-dual interior-point method on
dense factorizations.  Problem sizes here are a few hundred variables at
most, and the Lagrange multipliers are the point of the exercise (they
are the market prices), so the method keeps the equality rows explicit
and reports every multiplier.

Simple bounds are problem data, not constraint rows.  A variable with
``lb == ub`` is eliminated before the iterations start: its value is
known, and its bound multipliers are read off the stationarity residual
afterwards (the positive part goes to ``mult_ub``, the negative part to
``mult_lb``).  :func:`_kkt` defines the KKT residuals once, for the
report and for polish.

The engine's layout is decided once, in :func:`solve_batch`.  The free
variables are ordered coupled first and separable last, each group in
its original order.  A separable variable has a diagonal, positive row
of P and no inequality row shared with another variable (the market's
demands and generations); the rest are coupled (the trades).  The finite
bounds of the free variables become inequality rows after the problem's
own, in that order, by :func:`_bound_rows`, which also builds the
original problem's rows for the report; their multipliers are reported
per variable as ``mult_lb`` and ``mult_ub``.

The engine is written once, vectorized over a leading batch axis: a batch
of problems sharing P, the constraint matrices and the bounds but
differing in the linear term r is solved as independent problems, each
row with its own data scale, and a single solve is a batch of one.  One
function builds the saddle-point matrix.  The IPM's Newton system is
that matrix with the separable variables eliminated: each contributes
one diagonal pivot, so its step follows from the equality multipliers'
step, and the dense solve covers the leading, coupled variables and the
equality rows only (:func:`_newton`).

One face solve, :func:`_face_solve`, minimizes the objective on a set of
rows held as equalities by one minimum-norm least-squares solve, singular
faces included, and one active-face test, :func:`_on_face`, wraps it with
the KKT check.  Polish calls that for the correction from a converged
iterate, on the active set guessed there, and so moves the iterate to the
nearest point of that face; a problem with no inequality rows is the face
solve with an empty active set (no IPM iterations).

Neighbouring rows of a sweep share their optimal face.  Successive
:func:`solve_batch` calls given one ``faces`` dict claim rows on the
full-rank faces polish has landed on, by one face solve each, and run
the IPM only on the rest (see :func:`_claim`).

The problem is solved as given: a tie-breaking regularization belongs to
``P`` (see ``market.assemble``), so the objective and residuals include it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_MAX_ITER = "max_iter"

_STATUS_CODES = {0: STATUS_OPTIMAL, 1: STATUS_INFEASIBLE,
                 2: STATUS_UNBOUNDED, 3: STATUS_MAX_ITER}


class QpError(ValueError):
    """Raised for malformed problems (dimensions, symmetry, PSD, bounds)."""


@dataclass(frozen=True)
class QpProblem:
    """Data of one convex QP in minimization form.

    ``P`` must be symmetric PSD; zero rows/columns (linear variables) are
    fine.  Empty constraint blocks are represented by (0, n) matrices.
    ``lb`` and ``ub`` default to -inf and +inf; ``lb == ub`` fixes a
    variable.
    """

    P: np.ndarray
    r: np.ndarray
    A_ineq: np.ndarray
    b_ineq: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self.r)
        for name in ("P", "r", "A_ineq", "b_ineq", "A_eq", "b_eq"):
            if not np.isfinite(getattr(self, name)).all():
                raise QpError(f"{name} contains NaN or infinity")
        P = np.asarray(self.P, dtype=float)
        if P.shape != (n, n):
            raise QpError(f"P has shape {P.shape}, expected ({n}, {n})")
        scale = np.abs(P).max() if P.size else 0.0
        if scale > 0 and np.abs(P - P.T).max() > 1e-12 * scale:
            raise QpError("P is not symmetric within 1e-12 relative")
        for name, A, b in (("A_ineq", self.A_ineq, self.b_ineq),
                           ("A_eq", self.A_eq, self.b_eq)):
            A = np.asarray(A)
            if A.ndim != 2 or A.shape[1] != n:
                raise QpError(f"{name} has shape {A.shape}, expected (*, {n})")
            if A.shape[0] != len(b):
                raise QpError(f"{name} has {A.shape[0]} rows but its rhs has "
                              f"{len(b)} entries")
        for name, v, default in (("lb", self.lb, -np.inf), ("ub", self.ub, np.inf)):
            v = np.full(n, default) if v is None else np.asarray(v, dtype=float)
            if v.shape != (n,):
                raise QpError(f"{name} has shape {v.shape}, expected ({n},)")
            if np.isnan(v).any():
                raise QpError(f"{name} contains NaN")
            object.__setattr__(self, name, v)
        bad = np.flatnonzero((self.lb > self.ub) | (self.lb == np.inf)
                             | (self.ub == -np.inf))
        if bad.size:
            j = bad[0]
            raise QpError(f"empty bound range for variable {j}: "
                          f"lb {self.lb[j]} > ub {self.ub[j]} or infinite")

    @property
    def n_var(self) -> int:
        return len(self.r)

    @property
    def n_ineq(self) -> int:
        return len(self.b_ineq)

    @property
    def n_eq(self) -> int:
        return len(self.b_eq)

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.P @ x + self.r @ x)


def make_problem(P, r, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None,
                 lb=None, ub=None) -> QpProblem:
    """Convenience constructor that fills in empty constraint blocks."""
    r = np.asarray(r, dtype=float).ravel()
    n = len(r)
    if A_ineq is None:
        A_ineq, b_ineq = np.zeros((0, n)), np.zeros(0)
    if A_eq is None:
        A_eq, b_eq = np.zeros((0, n)), np.zeros(0)
    return QpProblem(P=np.asarray(P, dtype=float),
                     r=r,
                     A_ineq=np.asarray(A_ineq, dtype=float).reshape(-1, n),
                     b_ineq=np.asarray(b_ineq, dtype=float).ravel(),
                     A_eq=np.asarray(A_eq, dtype=float).reshape(-1, n),
                     b_eq=np.asarray(b_eq, dtype=float).ravel(),
                     lb=lb, ub=ub)


@dataclass(frozen=True)
class QpSolution:
    """Result of one solve: primal point, multipliers, diagnostics.

    ``kkt_residuals`` holds max-norms for stationarity, primal
    feasibility, dual feasibility (multiplier negativity), and
    complementarity, bounds included.  On anything other than
    ``optimal`` the attached iterate is the best one found; for
    ``infeasible`` the message from :func:`solve` gives the worst primal
    residual, and a Farkas certificate when the multipliers form one.
    """

    x: np.ndarray
    mult_ineq: np.ndarray
    mult_eq: np.ndarray
    mult_lb: np.ndarray
    mult_ub: np.ndarray
    objective: float
    status: str
    kkt_residuals: dict
    iterations: int
    message: str = ""


@dataclass
class QpBatchSolution:
    """Stacked solutions of a batch sharing everything but the linear term."""

    x: np.ndarray           # (B, n)
    mult_ineq: np.ndarray   # (B, m)
    mult_eq: np.ndarray     # (B, p)
    mult_lb: np.ndarray     # (B, n)
    mult_ub: np.ndarray     # (B, n)
    objective: np.ndarray   # (B,)
    status_code: np.ndarray  # (B,) ints, see _STATUS_CODES
    kkt_residuals: dict     # kind -> (B,) max-norm, see QpSolution
    iterations: np.ndarray  # (B,)

    @property
    def residual(self) -> np.ndarray:
        """(B,) worst KKT residual over all kinds."""
        return np.max(list(self.kkt_residuals.values()), axis=0)

    def status(self, i: int) -> str:
        return _STATUS_CODES[int(self.status_code[i])]

    def solution(self, i: int) -> QpSolution:
        """Row ``i`` of the batch as a single solution."""
        return QpSolution(
            x=self.x[i], mult_ineq=self.mult_ineq[i], mult_eq=self.mult_eq[i],
            mult_lb=self.mult_lb[i], mult_ub=self.mult_ub[i],
            objective=float(self.objective[i]), status=self.status(i),
            kkt_residuals={k: float(v[i]) for k, v in self.kkt_residuals.items()},
            iterations=int(self.iterations[i]))


def _check_psd(P: np.ndarray) -> None:
    if P.size == 0 or not np.any(P):
        return
    w = np.linalg.eigvalsh(0.5 * (P + P.T))
    scale = max(abs(w[0]), abs(w[-1]))
    if w[0] < -1e-10 * scale:
        raise QpError(f"P is not positive semidefinite: min eigenvalue {w[0]:.3e} "
                      f"(floor {-1e-10 * scale:.3e})")


def solve(problem: QpProblem, tol: float = 1e-8, max_iter: int = 100) -> QpSolution:
    """Solve one QP to ``tol`` on all KKT residual norms."""
    sol = solve_batch(problem, problem.r[None, :], tol=tol,
                      max_iter=max_iter).solution(0)
    message = ""
    if sol.status == STATUS_INFEASIBLE:
        # Claim a Farkas certificate only when the multipliers form one, by
        # the test the iterations use.
        z, y, zl, zu = sol.mult_ineq, sol.mult_eq, sol.mult_lb, sol.mult_ub
        lo, up = np.isfinite(problem.lb), np.isfinite(problem.ub)
        ray = np.abs(problem.A_ineq.T @ z + problem.A_eq.T @ y + zu - zl).max(initial=0.0)
        gain = float(problem.b_ineq @ z + problem.b_eq @ y
                     + problem.ub[up] @ zu[up] - problem.lb[lo] @ zl[lo])
        size = max(np.abs(v).max(initial=0.0) for v in (z, y, zl, zu))
        message = (f"no feasible point found; worst primal residual "
                   f"{sol.kkt_residuals['primal']:.3e}")
        if ray <= 1e-6 * size and gain < 0:
            message += (f"; Farkas certificate: |A'z + A_eq'y + z_ub - z_lb| "
                        f"<= {ray:.3e} with b'z + b_eq'y + ub'z_ub - lb'z_lb "
                        f"= {gain:.3e} for the returned multipliers")
    elif sol.status == STATUS_UNBOUNDED:
        message = "objective appears unbounded below along a feasible ray"
    elif sol.status == STATUS_MAX_ITER:
        message = f"stopped after {max_iter} iterations; best iterate attached"
    return dataclasses.replace(sol, message=message)


def solve_batch(problem: QpProblem, R: np.ndarray, tol: float = 1e-8,
                max_iter: int = 100, *, faces: Optional[dict] = None
                ) -> QpBatchSolution:
    """Solve many QPs sharing P, constraints and bounds, row i using R[i].

    Runs the interior-point iterations vectorized over the batch; each
    problem stops updating once decided.  Every number a row's solve reads
    comes from that row and the shared data, so the rest of the batch can
    change its answer only by rounding (amplified on degenerate faces).
    Each converged iterate's active face is then re-solved exactly, which
    matters at degenerate vertices (see :func:`_polish_batch`).

    ``faces`` is state a caller passes to successive calls on one
    problem: a dict from an engine active-set pattern (bytes of a bool
    array) to the number of rows that face has claimed.  Polish adds the
    full-rank faces it lands rows on, and later calls try them first; a
    row claimed on a learned face is its unique optimum, solved directly,
    and reports 0 iterations (see :func:`_claim`).
    """
    P = np.asarray(problem.P, dtype=float)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = problem.n_var
    if R.shape[1] != n:
        raise QpError(f"linear terms have {R.shape[1]} columns, expected {n}")
    if not np.isfinite(R).all():
        raise QpError("linear terms contain NaN or infinity")
    if max_iter < 0:
        raise QpError(f"max_iter must be >= 0, got {max_iter}")
    if not (np.isfinite(tol) and tol > 0):
        raise QpError(f"tol must be finite and positive, got {tol}")
    _check_psd(P)
    B = R.shape[0]
    G0, h0 = np.asarray(problem.A_ineq, float), np.asarray(problem.b_ineq, float)
    A0, b0 = np.asarray(problem.A_eq, float), np.asarray(problem.b_eq, float)
    lb, ub = problem.lb, problem.ub

    # The engine layout: the fixed variables eliminated, the free ones
    # ordered coupled first and separable last (bound rows touch one
    # variable, so they leave the mask alone), and their finite bounds
    # made rows after the problem's own inequalities.
    fixed = lb == ub
    free = np.flatnonzero(~fixed)
    sep = _separable(P[np.ix_(free, free)], G0[:, free])
    free, nc = np.concatenate([free[~sep], free[sep]]), np.count_nonzero(~sep)
    x_fix = lb[fixed]
    up, lo = np.isfinite(ub[free]), np.isfinite(lb[free])
    Pf = P[np.ix_(free, free)]
    Rf = R[:, free] + P[np.ix_(free, fixed)] @ x_fix
    G, h = _bound_rows(G0[:, free], h0 - G0[:, fixed] @ x_fix, lb[free], ub[free])
    A, b = A0[:, free], b0 - A0[:, fixed] @ x_fix

    # Per-row data scale; near-absolute convergence target (the mild scale
    # term keeps it attainable for badly scaled data).
    shared = max(np.abs(M).max(initial=0.0) for M in (h, b, Pf))
    scale = 1.0 + np.maximum(np.abs(Rf).max(axis=1, initial=0.0), shared)
    tol_conv = tol * (1.0 + 0.01 * scale)
    if faces is not None and any(len(key) != len(h) for key in faces):
        raise QpError(f"faces hold active-set patterns of another problem; "
                      f"this one has {len(h)} inequality rows")
    if len(h):
        # Rows on a learned face are solved directly; the rest iterate.
        xf, y, z = (np.zeros((B, k)) for k in (len(free), len(b), len(h)))
        status, iters = np.zeros(B, dtype=np.int8), np.zeros(B, dtype=np.int32)
        rest = _claim(Pf, Rf, G, h, A, b, scale, faces, xf, y, z) if faces else np.arange(B)
        if len(rest):
            Rr, sr = Rf[rest], scale[rest]
            xr, yr, zr, s, st, it = _ipm(Pf, Rr, G, h, A, b, sr, tol_conv[rest],
                                         max_iter, nc)
            _polish_batch(Pf, Rr, G, h, A, b, xr, yr, zr, s, st, sr, faces)
            xf[rest], y[rest], z[rest], status[rest], iters[rest] = xr, yr, zr, st, it
    else:
        # No inequality rows: the face solve with an empty active set is
        # the answer, and its status is read off the residuals below.  On
        # inconsistent equalities x minimizes |Ax - b|, so y = Ax - b is a
        # Farkas certificate: A'y = 0 and b'y = -|Ax - b|^2 < 0.
        xf, y, _ = _face_solve(Pf, Rf, A, b)
        gap = xf @ A.T - b
        y = np.where((np.abs(gap) > tol_conv[:, None]).any(axis=1, keepdims=True), gap, y)
        z, status, iters = np.zeros((B, 0)), None, np.ones(B, dtype=np.int32)

    # Back to the original variables and multipliers.
    m = problem.n_ineq
    x = np.empty((B, n))
    x[:, free] = xf
    x[:, fixed] = x_fix
    z_in = z[:, :m]
    mult_ub = np.zeros((B, n))
    mult_lb = np.zeros((B, n))
    n_up = np.count_nonzero(up)
    mult_ub[:, free[up]] = z[:, m:m + n_up]
    mult_lb[:, free[lo]] = z[:, m + n_up:]
    grad = (x @ P + R + z_in @ G0 + y @ A0)[:, fixed]
    mult_ub[:, fixed] = np.maximum(-grad, 0.0)
    mult_lb[:, fixed] = np.maximum(grad, 0.0)

    # The KKT residuals of the original problem, every finite bound a row.
    z_all = np.hstack([z_in, mult_ub[:, np.isfinite(ub)], mult_lb[:, np.isfinite(lb)]])
    kkt = _kkt(P, R, *_bound_rows(G0, h0, lb, ub), A0, b0, x, y, z_all)
    if status is None:
        # Inconsistent equalities: infeasible; a leftover gradient with
        # consistent equalities: a descent ray, so unbounded.
        status = np.select([kkt["primal"] > tol_conv, kkt["stationarity"] > tol_conv],
                           [1, 2], 0)
    objective = 0.5 * np.einsum("bi,ij,bj->b", x, P, x) + (R * x).sum(axis=1)
    return QpBatchSolution(x=x, mult_ineq=z_in, mult_eq=y, mult_lb=mult_lb,
                           mult_ub=mult_ub, objective=objective,
                           status_code=status.astype(np.int8),
                           kkt_residuals=kkt, iterations=iters)


def _bound_rows(G, h, lb, ub):
    """The rows ``[G; I_up; -I_lo]`` and their right-hand side.

    ``Gx <= h`` followed by one row ``x_j <= ub_j`` per finite upper bound
    and one row ``-x_j <= -lb_j`` per finite lower bound, in variable
    order: the engine's inequality rows on the free variables, and the
    report's on the original problem.
    """
    up, lo = np.isfinite(ub), np.isfinite(lb)
    eye = np.eye(len(ub))
    return np.vstack([G, eye[up], -eye[lo]]), np.concatenate([h, ub[up], -lb[lo]])


def _kkt(P, R, G, h, A, b, x, y, z):
    """KKT residuals of min 0.5 x'Px + R[i]'x s.t. Gx <= h, Ax = b, per row.

    Returns (B,) max-norms of stationarity, primal feasibility, dual
    feasibility (multiplier negativity) and complementarity, by kind."""
    slack = h - x @ G.T
    return {
        "stationarity": np.abs(x @ P + R + z @ G + y @ A).max(axis=1, initial=0.0),
        "primal": np.maximum(np.abs(x @ A.T - b).max(axis=1, initial=0.0),
                             (-slack).max(axis=1, initial=0.0)),
        "dual": (-z).max(axis=1, initial=0.0),
        "complementarity": np.abs(z * slack).max(axis=1, initial=0.0),
    }


def _saddle(H, C, delta):
    """[[H + delta*I, C'], [C, -delta*I]] for H (n, n) or (B, n, n), delta () or (B,)."""
    n, q = H.shape[-1], len(C)
    K = np.zeros(H.shape[:-2] + (n + q, n + q))
    K[..., :n, :n] = H
    K[..., :n, n:] = C.T
    K[..., n:, :n] = C
    diag = np.einsum("...ii->...i", K)   # a writable view
    diag += np.asarray(delta)[..., None] * np.repeat([1.0, -1.0], [n, q])
    return K


def _face_solve(P, R, C, d):
    """Minimize 0.5 x'Px + R[i]'x subject to Cx = d, for every row i.

    Returns ``(x, w, full)`` with ``w`` the multipliers of the rows of
    ``C`` and ``full`` whether the face matrix has full rank; ``d`` is
    ``(q,)`` or one per row.  One minimum-norm least-squares solve of the
    unregularized face matrix serves every row, so a rank-deficient face
    needs no special case, and on inconsistent rows ``x`` minimizes
    ``|Cx - d|``.
    """
    n = len(P)
    rhs = np.concatenate([-R.T, np.broadcast_to(d, (len(R), len(C))).T])
    sol, _, rank, _ = scipy.linalg.lstsq(_saddle(P, C, 0.0), rhs,
                                         lapack_driver="gelsy")
    return sol[:n].T, sol[n:].T, rank == n + len(C)


def _solve_rows(K, rhs):
    """Solve K[i] u = rhs[i] for every row i.

    The batched solve raises if any one row went singular (it happens in
    the endgame with extreme active-set scaling); then the rows are redone
    one by one, so that only the bad rows degrade to least squares.
    """
    try:
        return np.linalg.solve(K, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        sol = np.empty_like(rhs)
        for i in range(len(K)):
            try:
                sol[i] = np.linalg.solve(K[i], rhs[i])
            except np.linalg.LinAlgError:
                sol[i] = np.linalg.lstsq(K[i], rhs[i], rcond=None)[0]
        return sol


def _separable(P, G):
    """Mask of the variables :func:`_newton` eliminates exactly.

    Variable j is separable when row j of ``P`` is zero off the diagonal,
    ``P[j, j] > 0``, and every row of ``G`` touching j touches only j (in
    practice its bound rows).  Then, whatever the slack weights, its row
    of the Newton matrix has no entry off the diagonal outside the
    equality columns.  Adding bound rows to ``G`` never changes the mask.
    """
    touch = G != 0
    shared = touch[touch.sum(axis=1) > 1].any(axis=0)
    return (P.diagonal() > 0) & (np.count_nonzero(P, axis=1) == 1) & ~shared


def _newton(P, G, A, nc):
    """The Newton step solver of :func:`_ipm` for the data ``P``, ``G``, ``A``.

    The variables come in the engine layout of :func:`solve_batch`: the
    first ``nc`` are coupled and the rest separable (see
    :func:`_separable`), so every block below is a leading or trailing
    slice.  A step solves, per row, the saddle system of :func:`_saddle`
    with ``H = P + G' diag(d) G``: ``[[H + delta I, A'], [A, -delta I]]
    (dx, dy) = (f, g)``.  A separable variable j has the row
    ``h_j dx_j + (A'dy)_j = f_j`` with ``h_j = H_jj + delta >= P_jj > 0``,
    so it is eliminated exactly: the matrix factored is the saddle of the
    coupled variables with the equality block ``-delta I - A_s diag(1/h_s)
    A_s'``, and ``dx_s = (f_s - A_s'dy) / h_s`` follows the solve (block
    elimination of a quasidefinite system; Vanderbei, SIAM J. Optim. 5,
    1995).  With no separable variable this is the full saddle matrix.
    The elimination divides by ``h_s``, so its rounding, relative to the
    step, grows like eps / min(h_s); ``h_s >= P_jj`` bounds that.

    Returns ``system(d, delta)``, which builds the matrix for the slack
    weights ``d`` (B, m) and regularization ``delta`` (B,) and returns
    ``step(f, g) -> (dx, dy)``: one matrix for the predictor and the
    corrector.
    """
    Pc, ps = P[:nc, :nc], P.diagonal()[nc:]
    Gc, Gs2, Ac, As = G[:, :nc], G[:, nc:] ** 2, A[:, :nc], A[:, nc:]

    def system(d, delta):
        hs = ps + d @ Gs2 + delta[:, None]
        K = _saddle(Pc + (Gc.T * d[:, None, :]) @ Gc, Ac, delta)
        K[:, nc:, nc:] -= (As / hs[:, None, :]) @ As.T

        def step(f, g):
            u = f[:, nc:] / hs
            sol = _solve_rows(K, np.concatenate([f[:, :nc], g - u @ As.T], axis=1))
            dy = sol[:, nc:]
            return np.concatenate([sol[:, :nc], u - dy @ As / hs], axis=1), dy

        return step

    return system


def _ipm(P, R, G, h, A, b, scale, tol_conv, max_iter, nc):
    """Mehrotra predictor-corrector iterations over the rows of ``R``.

    Returns ``(x, y, z, s, status, iterations)`` of the problem
    min 0.5 x'Px + R[i]'x s.t. Gx <= h, Ax = b, which has at least one
    inequality row; ``scale`` and ``tol_conv`` are per row.  The working
    arrays hold only the rows still iterating; a row leaves them, with its
    current iterate as its answer, at the first check that decides it.

    The variables come in the engine layout of :func:`solve_batch`: the
    first ``nc`` are coupled (the market's trades), the rest separable (a
    diagonal row of ``P``, positive curvature, only bound rows; the
    market's demands and generations).  Each iteration builds one Newton
    matrix per row and solves it twice, for the predictor and the
    corrector.  The separable variables are eliminated from it exactly, so
    the matrix factored covers the coupled variables and the equality rows
    only (see :func:`_newton`).
    """
    B, n = R.shape
    m, p = len(h), len(b)
    x, y, z, s = (np.empty((B, k)) for k in (n, p, m, m))
    status, iters = np.empty(B, dtype=np.int8), np.empty(B, dtype=np.int32)

    # Infeasible-start point: least-squares on the equalities, slacks
    # clipped away from zero, unit multipliers.
    x0 = np.linalg.lstsq(A, b, rcond=None)[0]
    idx = np.arange(B)
    xa, ya = np.tile(x0, (B, 1)), np.zeros((B, p))
    za, sa = np.ones((B, m)), np.tile(np.maximum(h - G @ x0, 1.0), (B, 1))
    Ra, stall, sc, tc = R, np.zeros(B, dtype=np.int8), scale, tol_conv
    newton_system = _newton(P, G, A, nc)

    # One check more than steps, so the iterate after the last step is
    # checked too.
    for it in range(max_iter + 1):
        r_dual = xa @ P + Ra + za @ G + ya @ A
        r_eq = xa @ A.T - b
        r_in = xa @ G.T + sa - h
        comp = za * sa
        mu = comp.mean(axis=1)
        primal = np.maximum(np.abs(r_in).max(axis=1),
                            np.abs(r_eq).max(axis=1, initial=0.0))
        worst = np.maximum(np.maximum(np.abs(r_dual).max(axis=1, initial=0.0),
                                      primal), comp.max(axis=1))

        # Divergence: exploding multipliers with a vanishing combined
        # gradient form a Farkas certificate of infeasibility; exploding
        # iterates mean an unbounded objective.  Five steps in a row
        # below 1e-10 are a stall.
        zn = np.abs(za).max(axis=1) + np.abs(ya).max(axis=1, initial=0.0)
        ray = np.abs(za @ G + ya @ A).max(axis=1, initial=0.0)
        farkas = (zn > 1e10) & (ray <= 1e-6 * zn) & (za @ h + ya @ b < 0)
        hugex = np.abs(xa).max(axis=1, initial=0.0) > 1e10 * sc
        conv, stalled = worst <= tc, stall >= 5
        stop = conv | farkas | hugex | stalled | (it == max_iter)
        if stop.any():
            done = idx[stop]
            status[done] = np.select([conv, farkas, hugex, stalled],
                                     [0, 1, 2, np.where(primal > tc, 1, 3)],
                                     3)[stop]
            iters[done] = it
            x[done], y[done], z[done], s[done] = xa[stop], ya[stop], za[stop], sa[stop]
            if stop.all():
                break
            keep = ~stop
            idx, xa, ya, za, sa, Ra, stall, sc, tc, r_dual, r_eq, r_in, comp, mu = (
                v[keep] for v in (idx, xa, ya, za, sa, Ra, stall, sc, tc,
                                  r_dual, r_eq, r_in, comp, mu))

        # Guard the endgame: slacks of strongly active constraints head to
        # zero, and a denormal slack would overflow these divisions.
        sa_div = np.maximum(sa, 1e-300)
        d = np.minimum(za / sa_div, 1e16)
        step = newton_system(d, 1e-12 * sc)

        def newton(rc):
            """The step (dx, dy, dz, ds) toward complementarity target rc."""
            rc_s = rc / sa_div
            dx, dy = step(-r_dual - (d * r_in - rc_s) @ G, -r_eq)
            g_dx = dx @ G.T
            return dx, dy, d * (g_dx + r_in) - rc_s, -r_in - g_dx

        # Predictor: plain Newton step toward the central path target 0.
        dx, dy, dz, ds = newton(comp)
        alpha_aff = np.minimum(1.0, np.minimum(_max_step(za, dz), _max_step(sa, ds)))
        mu_aff = ((za + alpha_aff[:, None] * dz) *
                  (sa + alpha_aff[:, None] * ds)).mean(axis=1)
        sigma = np.clip(mu_aff / np.maximum(mu, 1e-300), 0.0, 1.0) ** 3

        # Corrector: recenters and compensates the predictor's
        # linearization error dz*ds.
        dx, dy, dz, ds = newton(comp + dz * ds - (sigma * mu)[:, None])
        tau = np.clip(1.0 - 0.1 * np.minimum(mu / sc, 1.0), 0.995, 0.99995)
        alpha = np.minimum(1.0, tau * np.minimum(_max_step(za, dz),
                                                 _max_step(sa, ds)))

        # A non-finite step means the KKT solve broke down (the system
        # gets singular near degenerate faces); treat it like a stall so
        # the last finite iterate survives.
        broken = ~(np.isfinite(dx).all(axis=1) & np.isfinite(dy).all(axis=1)
                   & np.isfinite(dz).all(axis=1) & np.isfinite(ds).all(axis=1)
                   & np.isfinite(alpha))
        if broken.any():
            alpha[broken] = 0.0
            for v in (dx, dy, dz, ds):
                v[broken] = 0.0

        stall = np.where(alpha < 1e-10, stall + 1, 0).astype(np.int8)
        a = alpha[:, None]
        xa, ya, za, sa = xa + a * dx, ya + a * dy, za + a * dz, sa + a * ds

    return x, y, z, s, status, iters


def _on_face(P, R, G, h, A, b, pat, x, w0, scale):
    """The point of active face ``pat`` nearest ``(x, w0)``, and its test.

    One :func:`_face_solve` of the equalities plus the rows ``G[pat]``
    for the correction from the point ``x`` and face multipliers ``w0``
    (from zero, the face point itself).  Returns ``(x, y, z, ok, full)``:
    ``z`` clipped at zero, ``ok`` whether all four KKT residuals, taken
    with the face multipliers as solved, are within 1e-8 of the row's
    ``scale``, and ``full`` whether the face matrix has full rank.
    """
    p = len(b)
    C = np.vstack([A, G[pat]])
    dx, dw, full = _face_solve(P, R + x @ P + w0 @ C, C,
                               np.concatenate([b, h[pat]]) - x @ C.T)
    xp, w = x + dx, w0 + dw
    zp = np.zeros((len(R), len(h)))
    zp[:, pat] = w[:, p:]
    res = _kkt(P, R, G, h, A, b, xp, w[:, :p], zp).values()
    ok = np.max(list(res), axis=0) <= 1e-8 * scale
    return xp, w[:, :p], np.maximum(zp, 0.0), ok, full


def _claim(P, R, G, h, A, b, scale, faces, x, y, z):
    """Solve rows on learned faces directly; return the rows left over.

    Tries the faces, most recently claimed or learned first, while
    unclaimed rows remain: one :func:`_on_face` from zero for all of them.
    A row is claimed, and ``x``, ``y`` and ``z`` written in place, when the
    face has full rank, the point passes polish's KKT test and every
    active multiplier exceeds 1e-8 times the row's ``scale``.  Then the
    point is the unique optimum: what the iterations and polish return, to
    rounding.  A face that claims no row on its first try is dropped.
    """
    rest = np.arange(len(R))
    for key in list(reversed(faces)):
        if not len(rest):
            break
        pat = np.frombuffer(key, dtype=bool)
        q = len(b) + np.count_nonzero(pat)
        xp, yp, zp, ok, full = _on_face(P, R[rest], G, h, A, b, pat,
                                        np.zeros((len(rest), len(P))),
                                        np.zeros((len(rest), q)), scale[rest])
        ok &= full & (zp[:, pat] > 1e-8 * scale[rest, None]).all(axis=1)
        if ok.any():
            faces[key] = faces.pop(key) + int(ok.sum())
            got = rest[ok]
            x[got], y[got], z[got] = xp[ok], yp[ok], zp[ok]
            rest = rest[~ok]
        elif not faces[key]:
            del faces[key]
    return rest


def _polish_batch(P, R, G, h, A, b, x, y, z, s, status, scale, faces) -> None:
    """Snap converged iterates onto their active face by one exact solve.

    Interior-point iterates stop within O(sqrt(mu)) of a vertex where a
    constraint is active with zero multiplier, leaving that constraint's
    slack around 1e-5 rather than machine precision.  This solves the face
    of the guessed active set (one :func:`_on_face` per pattern) for the
    correction from the iterate: its minimum-norm answer is the face point
    nearest the iterate.  A row is overwritten, in place, only when that
    point passes the face's KKT test; so a wrong guess is harmless.  A
    full-rank face that accepts a row is added to ``faces`` if given.
    """
    opt = np.flatnonzero(status == 0)
    act = (z[opt] >= s[opt]) | (s[opt] <= 1e-8 * scale[opt, None])
    patterns, inverse = np.unique(act, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).ravel()
    for pi, pat in enumerate(patterns):
        rows = opt[inverse == pi]
        xp, yp, zp, ok, full = _on_face(P, R[rows], G, h, A, b, pat, x[rows],
                                        np.hstack([y[rows], z[rows][:, pat]]),
                                        scale[rows])
        good = rows[ok]
        x[good], y[good], z[good] = xp[ok], yp[ok], zp[ok]
        if faces is not None and full and ok.any():
            faces.setdefault(pat.tobytes(), 0)


def _max_step(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Largest step keeping v + alpha*dv > 0, per batch row (cap 1e10)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dv < 0, -v / dv, np.inf)
    return np.minimum(ratios.min(axis=1), 1e10)


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
