"""Dense convex quadratic programming with full multiplier recovery.

Solves

    minimize 0.5 x'Px + r'x
    subject to  A_ineq x <= b_ineq,  A_eq x = b_eq,  lb <= x <= ub

with a Mehrotra predictor-corrector primal-dual interior-point method on
dense factorizations.  Problem sizes here are a few hundred variables at
most, and the Lagrange multipliers are the point of the exercise (they
are the market prices), so the method keeps the equality rows explicit
and reports every multiplier.

A problem is one :class:`QpProblem`, ``QpProblem(P, r, A_ineq=None,
b_ineq=None, A_eq=None, b_eq=None, lb=None, ub=None)``: every field is
stored as a read-only float copy, an omitted constraint block is empty
(a (0, n) matrix and a (0,) right-hand side), and the bounds default to
-inf and +inf.  Its data rules are checked once, when it is built; the
solver reads the fields as stored.

Simple bounds are problem data, not constraint rows.  A variable with
``lb == ub`` is eliminated before the iterations start: its value is
known, and its bound multipliers are read off the stationarity residual
afterwards (the positive part goes to ``mult_ub``, the negative part to
``mult_lb``).  :func:`_kkt` defines the KKT residuals once, for the
report and for polish.

A batch of problems sharing everything but the linear term is one
:class:`QpFamily`, built once from a :class:`QpProblem`; :func:`solve`
builds one for its problem, and :func:`solve_batch` solves rows of a
given family.  The family decides the engine's layout.  The free
variables are ordered coupled first and separable last, each group in
its original order.  A separable variable has a diagonal, positive row
of P, no inequality row shared with another variable and a pivot that is
not flat against its equality column (the market's demands and
generations); the rest are coupled (the trades).  :func:`_separable`
holds that rule for the Newton system and the face solve alike.  The finite
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
equality rows only (:func:`_newton`).  Its coupled block is assembled by
scatter, since every inequality row touches at most a few variables, and
each row's matrix is factored once per iteration, in place, for both the
predictor and the corrector; matrices below dimension 20 instead take one
batched solve per step, which is faster there.

One face solve, :func:`_face_solve`, minimizes the objective on a set of
rows held as equalities by one minimum-norm least-squares solve, singular
faces included, on the reduced layout: a row touching one variable (an
active bound) fixes it, and a separable variable leaves by its pivot, as
in the Newton system, so the matrix solved covers the free coupled
variables and the other rows only.  It is built once per family and
serves every pattern of rows, one LAPACK call per pattern.  Polish calls
it from zero on the active set guessed at a converged iterate, so it
returns the least-norm point of that face, and calls it once more, with
the crossed rows held too, for a row whose point crosses rows off its
face; it keeps a point when the accept test :func:`_accepted` passes,
taken once for all rows.  A problem with no inequality rows is the face solve
with an empty active set (no IPM iterations).

Neighbouring rows of a sweep share their optimal face.  Successive
:func:`solve_batch` calls on one family claim rows on the full-rank
faces polish has landed on in its earlier calls, which the family keeps,
and run the IPM only on the rest (see :func:`_claim`).  On a fixed
full-rank face the solution is affine in the linear term, the
critical-region structure of multiparametric QP
(Bemporad, Morari, Dua & Pistikopoulos, Automatica 38, 2002), so each
learned face is stored as that map, built once by one face solve of
n + 1 rows (:func:`_face_maps`), and a claim is a sign test by the map
followed by the accept test polish uses.

A degenerate optimum has one answer: where the optimal x is not unique
(a flat face, such as the trades of a market whose prices tie), polish
returns the least-norm point of the optimal face, the limit of the
Tikhonov-regularized solutions as their weight goes to zero (Mangasarian
& Meyer, SIAM J. Control Optim. 17, 1979; Friedlander & Tseng, SIAM J.
Optim. 18, 2007), wherever along the face the iterations stopped.  The
point is exactly least-norm when every held row has a positive
multiplier and the least-norm point of the face's affine hull is
feasible.  After the retry it is exact when the rows that point crosses
are the rows active at the least-norm optimal point, as on a
one-dimensional face whose point crosses one row.  Otherwise an accepted
point is the least-norm point of a sub-face: optimal, and set by the
face and the linear term alone, not by where the iterations stopped; a
row whose crossed rows cannot all hold (on a segment, two rows crossed
at the same end) keeps its iterate.  Every row of the 21^3 three-node
omega grid and of 250 random omega points on ieee14 lands.  Multipliers
are not made canonical: on a face whose held rows are dependent they are
the face solution nearest the iterate's, so they can follow the
iterate.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_MAX_ITER = "max_iter"

_STATUS_CODES = {0: STATUS_OPTIMAL, 1: STATUS_INFEASIBLE,
                 2: STATUS_UNBOUNDED, 3: STATUS_MAX_ITER}

# The convergence target, as a share of a row's data scale (see
# solve_batch), and the iteration cap, after which a row stops at status
# max_iter with its best iterate.
_TOL = 1e-8
_MAX_ITER = 100


class QpError(ValueError):
    """Raised for malformed problems (dimensions, symmetry, PSD, bounds)."""


@dataclass(frozen=True)
class QpProblem:
    """Data of one convex QP in minimization form.

    Every field is stored as a read-only float copy, whatever sequence it
    was given as, so the checks made here hold for the problem's
    lifetime.  ``P`` must be symmetric PSD; zero rows/columns (linear
    variables) are fine.  An omitted constraint block is empty: a (0, n)
    matrix and a (0,) right-hand side.  ``lb`` and ``ub`` default to -inf
    and +inf; ``lb == ub`` fixes a variable.
    """

    P: np.ndarray
    r: np.ndarray
    A_ineq: Optional[np.ndarray] = None
    b_ineq: Optional[np.ndarray] = None
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self.r)
        omitted = {"A_ineq": np.zeros((0, n)), "b_ineq": np.zeros(0),
                   "A_eq": np.zeros((0, n)), "b_eq": np.zeros(0),
                   "lb": np.full(n, -np.inf), "ub": np.full(n, np.inf)}
        for name in ("P", "r", *omitted):
            v = getattr(self, name)
            if v is None and name in omitted:
                v = omitted[name]
            v = np.array(v, dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        for name in ("P", "r", "A_ineq", "b_ineq", "A_eq", "b_eq"):
            if not np.isfinite(getattr(self, name)).all():
                raise QpError(f"{name} contains NaN or infinity")
        if self.r.shape != (n,):
            raise QpError(f"r has shape {self.r.shape}, expected ({n},)")
        P = self.P
        if P.shape != (n, n):
            raise QpError(f"P has shape {P.shape}, expected ({n}, {n})")
        scale = np.abs(P).max() if P.size else 0.0
        if scale > 0 and np.abs(P - P.T).max() > 1e-12 * scale:
            raise QpError("P is not symmetric within 1e-12 relative")
        _check_psd(P)
        for name, A, b in (("A_ineq", self.A_ineq, self.b_ineq),
                           ("A_eq", self.A_eq, self.b_eq)):
            if A.ndim != 2 or A.shape[1] != n:
                raise QpError(f"{name} has shape {A.shape}, expected (*, {n})")
            if b.shape != (A.shape[0],):
                raise QpError(f"{name} has {A.shape[0]} rows but its rhs has "
                              f"shape {b.shape}")
        for name in ("lb", "ub"):
            v = getattr(self, name)
            if v.shape != (n,):
                raise QpError(f"{name} has shape {v.shape}, expected ({n},)")
            if np.isnan(v).any():
                raise QpError(f"{name} contains NaN")
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


def solve(problem: QpProblem) -> QpSolution:
    """Solve one QP to ``_TOL`` on all KKT residual norms."""
    sol = solve_batch(QpFamily(problem), problem.r[None, :]).solution(0)
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
        message = f"stopped after {_MAX_ITER} iterations; best iterate attached"
    return dataclasses.replace(sol, message=message)


class QpFamily:
    """The QPs that share one :class:`QpProblem` but for the linear term.

    Built once from the problem, it holds what every :func:`solve_batch`
    call on the family reads: the engine layout (the fixed variables
    eliminated, the free ones ordered coupled first and separable last,
    their finite bounds made rows after the problem's own inequalities),
    the data in that layout, the original problem's rows for the report,
    the face solver (:func:`_face_solve`), the Newton builder
    (:func:`_newton`), and the optimal faces its solves have learned (see
    :func:`_claim`).  The learned faces are its own: a new family starts
    with none, so no solve reads faces learned on another problem, and
    only the solves of one family share them.  ``n_var``, ``n_eq`` and
    ``n_ineq`` are the problem's.  Its solve is the module's
    :func:`solve_batch`, which every caller reaches through ``qp``.
    """

    def __init__(self, problem: QpProblem):
        self.problem = problem
        self.n_var, self.n_eq, self.n_ineq = problem.n_var, problem.n_eq, problem.n_ineq
        P, G0, A0, lb, ub = problem.P, problem.A_ineq, problem.A_eq, problem.lb, problem.ub
        # Bound rows touch one variable, so they leave the separable mask alone.
        self.fixed = fixed = lb == ub
        free = np.flatnonzero(~fixed)
        sep = _separable(P[np.ix_(free, free)], G0[:, free], A0[:, free])
        self.free = free = np.concatenate([free[~sep], free[sep]])
        self.nc, self.x_fix = np.count_nonzero(~sep), lb[fixed]
        self.ub_at, self.lb_at = free[np.isfinite(ub[free])], free[np.isfinite(lb[free])]
        self.P, self.r_fix = P[np.ix_(free, free)], P[np.ix_(free, fixed)] @ self.x_fix
        self.G, self.h = _bound_rows(G0[:, free], problem.b_ineq - G0[:, fixed] @ self.x_fix,
                                     lb[free], ub[free])
        self.A, self.b = A0[:, free], problem.b_eq - A0[:, fixed] @ self.x_fix
        self.shared = max(np.abs(M).max(initial=0.0) for M in (self.h, self.b, self.P))
        self.report_rows = _bound_rows(G0, problem.b_ineq, lb, ub)
        self.face = _face_solve(self.P, np.vstack([self.A, self.G]), self.nc)
        self.newton = _newton(self.P, self.G, self.A, self.nc)
        self._faces = {}


def solve_batch(family: QpFamily, R: np.ndarray) -> QpBatchSolution:
    """Solve the family's QPs with linear terms R, row i using R[i].

    Runs the interior-point iterations vectorized over the batch; each
    problem stops updating once decided.  Every number a row's solve reads
    comes from that row and the family, so the rest of the batch can
    change its answer only by rounding.  Each converged iterate's active
    face is then re-solved exactly, which matters at degenerate vertices,
    and where the optimal x is not unique the row gets the least-norm
    point of its optimal face, not the point where its iterations stopped
    (see :func:`_polish_batch`, and the module docstring for where that
    rule stops being exact); the family's face solver also serves the
    maps of the claims below and a problem without inequality rows, whose
    answer is one face solve.

    Successive calls on one family share its learned faces.  Polish adds
    the full-rank faces it lands rows on, and later calls try them first;
    a row claimed on a learned face is its unique optimum, read off the
    face's map and checked by the accept test, and reports 0 iterations
    (see :func:`_claim`).
    """
    problem, free, fixed = family.problem, family.free, family.fixed
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = problem.n_var
    if R.shape[1] != n:
        raise QpError(f"linear terms have {R.shape[1]} columns, expected {n}")
    if not np.isfinite(R).all():
        raise QpError("linear terms contain NaN or infinity")
    B, h, A, b = R.shape[0], family.h, family.A, family.b

    # Per-row data scale; near-absolute convergence target (the mild scale
    # term keeps it attainable for badly scaled data).
    Rf = R[:, free] + family.r_fix
    scale = 1.0 + np.maximum(np.abs(Rf).max(axis=1, initial=0.0), family.shared)
    tol_conv = _TOL * (1.0 + 0.01 * scale)
    if len(h):
        # Rows on a learned face are solved directly; the rest iterate.
        xf, y, z = (np.zeros((B, k)) for k in (len(free), len(b), len(h)))
        status, iters = np.zeros(B, dtype=np.int8), np.zeros(B, dtype=np.int32)
        rest = _claim(family, Rf, scale, xf, y, z)
        if len(rest):
            Rr, sr = Rf[rest], scale[rest]
            xr, yr, zr, s, st, it = _ipm(family, Rr, sr, tol_conv[rest])
            _polish_batch(family, Rr, xr, yr, zr, s, st, sr)
            xf[rest], y[rest], z[rest], status[rest], iters[rest] = xr, yr, zr, st, it
    else:
        # No inequality rows: the face solve with an empty active set is
        # the answer, and its status is read off the residuals below.  A
        # row it leaves off inconsistent equalities gets the least-squares
        # x, whose residual y = Ax - b is a Farkas certificate: A'y = 0
        # and b'y = -|y|^2 < 0.  (The face solve's own x need not be that
        # x: a row touching one variable fixes it.)
        xf, y, _ = family.face(Rf, b, np.ones((1, len(b)), dtype=bool),
                               np.zeros(B, dtype=np.intp), np.zeros((1, len(b))))
        bad = (np.abs(xf @ A.T - b) > tol_conv[:, None]).any(axis=1)
        if bad.any():
            xf[bad] = np.linalg.lstsq(A, b, rcond=None)[0]
            y[bad] = xf[bad] @ A.T - b
        z, status, iters = np.zeros((B, 0)), None, np.ones(B, dtype=np.int32)

    # Back to the original variables and multipliers.
    P, G0, A0, m = problem.P, problem.A_ineq, problem.A_eq, problem.n_ineq
    x = np.empty((B, n))
    x[:, free], x[:, fixed] = xf, family.x_fix
    z_in = z[:, :m]
    mult_ub, mult_lb, k = np.zeros((B, n)), np.zeros((B, n)), m + len(family.ub_at)
    mult_ub[:, family.ub_at], mult_lb[:, family.lb_at] = z[:, m:k], z[:, k:]
    grad = (x @ P + R + z_in @ G0 + y @ A0)[:, fixed]
    mult_ub[:, fixed] = np.maximum(-grad, 0.0)
    mult_lb[:, fixed] = np.maximum(grad, 0.0)

    # The KKT residuals of the original problem, every finite bound a row.
    z_all = np.hstack([z_in, mult_ub[:, np.isfinite(problem.ub)],
                       mult_lb[:, np.isfinite(problem.lb)]])
    kkt = _kkt(P, R, *family.report_rows, A0, problem.b_eq, x, y, z_all)
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


# The face tolerance, as a share of a row's data scale: polish guesses a
# slack this small active, and a point is accepted on its face (by polish
# and by the claims) when every KKT residual is this small.
_FACE_TOL = 1e-8


def _accepted(P, R, G, h, A, b, x, y, z, scale):
    """(B,) whether each row's point passes the accept test: all four
    residuals of :func:`_kkt` within ``_FACE_TOL`` times the row's ``scale``."""
    res = _kkt(P, R, G, h, A, b, x, y, z).values()
    return np.max(list(res), axis=0) <= _FACE_TOL * scale


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


def _single_var(C):
    """Per row of ``C``, the one variable it touches, or -1 if it touches
    none or several."""
    touch = C != 0
    return np.where(touch.sum(axis=1) == 1, touch @ np.arange(C.shape[1]), -1)


def _face_solve(P, C, nc):
    """The face solver for ``P`` and the rows ``C`` (q, n).

    Returns ``solve(R, d, on, group, w0) -> (x, w, full)``, which for
    every row i minimizes 0.5 x'Px + R[i]'x subject to ``C_f x = d_f``,
    the rows ``f = on[group[i]]`` of ``C`` held as equalities (``d`` is
    ``(q,)`` or one per row).  ``x`` is the least-norm minimizer; ``w0``
    (B, q), zero off the row's face, is a start for the multipliers (one
    row serves every row), and ``w`` holds the face rows' multipliers
    nearest it (0 off the face); ``full``
    (one per pattern of ``on``) whether the face matrix
    ``[[P, C_f'], [C_f, 0]]`` has full rank.  The variables come in the
    engine layout of :class:`QpFamily`: the first ``nc`` coupled, the
    rest separable by :func:`_separable`.

    The face matrix is reduced before it is solved.  The first face row
    touching only variable j fixes x_j; any further such row stays an
    ordinary row.  A free separable variable j leaves by its pivot: its
    stationarity gives ``x_j = -(R_j + C_j'w) / P_jj``, which turns the
    rows' block into ``-C_s diag(1/P_ss) C_s'`` (block elimination, as in
    :func:`_newton`).  What is left, the free coupled variables and the
    ordinary rows, takes one minimum-norm least-squares solve per pattern
    for all its rows: LAPACK ``dgelsy``, a complete orthogonal
    factorization, so a rank-deficient face needs no special case.  Its
    rank is decided at ``rcond`` = the dimension times eps: at eps itself
    an exactly singular matrix's rounding can pass for a last, tiny
    singular value, which then amplifies the rounding of the right-hand
    side.  Then the separable variables follow, and each fixing row's
    multiplier from its variable's stationarity.  The layout work is done
    once, when the solver is built, and the rest of the work once per
    call, vectorized over all rows; only the reduced matrix and its solve
    are per pattern.

    Every null vector of the face matrix is zero on the fixed and the
    separable variables, so the reduced matrix has full rank exactly when
    the face matrix has, and ``x`` is the least-norm minimizer, the face
    matrix's own minimum-norm answer from zero.  Only a dual-degenerate face's
    multipliers differ from that answer's: the norm minimized leaves the
    fixing rows' multipliers out.
    """
    q, n = C.shape
    var = _single_var(C)
    single, hot = var >= 0, var[:, None] == np.arange(n)    # hot: a row's one variable
    coef = np.where(single, (C * hot).sum(axis=1), 1.0)
    hot_x = hot.astype(float)
    earlier = np.triu(single[:, None] & (var[:, None] == var), 1).astype(float)
    sep = np.arange(n) >= nc
    inv_p = np.where(sep, 1.0 / np.where(sep, P.diagonal(), 1.0), 0.0)
    Z = _saddle(P, C, 0.0)
    eps = np.finfo(float).eps

    def solve(R, d, on, group, w0):
        B = len(R)
        cand = on & single
        pin = cand & (cand @ earlier == 0)   # no earlier row on its variable
        fixed = pin @ hot_x > 0
        inv = np.where(fixed, 0.0, inv_p)
        keep = np.concatenate([~fixed & ~sep, on & ~pin], axis=1)

        # The stationarity residual at the start, the fixed values (zero
        # off the fixed variables), and the reduced right-hand side, per
        # row (with one pattern, its arrays broadcast over the rows).
        at_row = group if len(on) != 1 else np.zeros(1, dtype=np.intp)
        pin_r, inv_r = (pin / coef)[at_row], inv[at_row]
        r_stat = R + w0 @ C
        x_fix = (d * pin_r) @ hot_x
        rhs = np.concatenate([-r_stat - x_fix @ P, d - (x_fix - r_stat * inv_r) @ C.T],
                             axis=1)

        du = np.zeros((B, n + q))
        full = np.ones(len(on), dtype=bool)
        order = np.argsort(group, kind="stable")
        cut = np.searchsorted(group[order], np.arange(len(on) + 1))
        lwork = int(scipy.linalg.lapack.dgelsy_lwork(n + q, n + q, max(B, 1), eps)[0])
        for u in range(len(on)):
            rows, idx = order[cut[u]:cut[u + 1]], np.flatnonzero(keep[u])
            if not (len(rows) and len(idx)):
                continue
            k = np.count_nonzero(keep[u, :n])
            M = Z[np.ix_(idx, idx)]
            CE = C[idx[k:] - n]
            M[k:, k:] -= (CE * inv[u]) @ CE.T
            at = np.ix_(rows, idx)
            _, sol, _, r, _ = scipy.linalg.lapack.dgelsy(
                M, rhs[at].T, np.zeros(len(idx), dtype=np.int32), len(idx) * eps,
                lwork, overwrite_a=1, overwrite_b=1)
            du[at], full[u] = sol.T, r == len(idx)

        # Back to every variable and row: the separable variables, and each
        # fixing row's multiplier from its variable's stationarity.  The
        # solve and the pivots leave a fixed variable 0, so it is x_fix.
        dw = du[:, n:]
        stat = r_stat + dw @ C
        x = du[:, :n] + x_fix - stat * inv_r
        dw -= ((stat + x @ P) @ hot_x.T) * pin_r
        return x, w0 + dw, full

    return solve


def _solve_rows(K, rhs):
    """Solve K[i] u = rhs[i] for every row i by one batched LAPACK call.

    The batched path of :func:`_newton`: each call factors every K[i]
    anew.  The batched solve raises if any one row went singular (it
    happens in the endgame with extreme active-set scaling); then the rows
    are redone one by one, so that only the bad rows degrade to least
    squares.
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


def _factored_rows(K, rebuild):
    """Factor each K[i] once, in place; return ``solve(rhs)`` for all rows.

    The factor-once path of :func:`_newton`.  ``dgetrf`` on ``K[i].T``,
    which is K[i]'s own buffer in Fortran order, overwrites it with the LU
    factors of K[i]' and ``dgetrs(trans=1)`` solves with K[i] itself, so K
    need not be symmetric and no row is copied.  The solves read the
    factors ``dgetrf`` returns, a view of K[i] when it worked in place.  A row whose factor is
    exactly singular gets the least-squares solution of its own matrix,
    rebuilt by ``rebuild(i)``, in every solve, as in :func:`_solve_rows`.
    """
    lu, piv = [], np.empty(K.shape[:2], dtype=np.int32)
    singular = {}
    for i, Ki in enumerate(K):
        factors, piv[i], info = scipy.linalg.lapack.dgetrf(Ki.T, overwrite_a=1)
        lu.append(factors)
        if info > 0:
            singular[i] = rebuild(i)

    def solve(rhs):
        sol = np.empty_like(rhs)
        for i, factors in enumerate(lu):
            if i in singular:
                sol[i] = np.linalg.lstsq(singular[i], rhs[i], rcond=None)[0]
            else:
                sol[i] = scipy.linalg.lapack.dgetrs(factors, piv[i], rhs[i], trans=1)[0]
        return sol

    return solve


def _scatter_map(Gc):
    """Where each inequality row's weight lands in ``Gc' diag(d) Gc``.

    Returns ``(j, k, M)``: the entries (j[e], k[e]) some row touches and
    the sparse (E, m) matrix ``M`` with ``M[e, i] = G_ij G_ik`` for every
    row i touching both, so ``M @ d`` is the entries' column of weighted
    sums.  ``M`` is CSR with each row's columns in ascending order, so
    each entry sums its terms in row order.  It holds one term per pair
    of a row's nonzero columns, the sum of k_i^2 over the rows.
    """
    m, nc = Gc.shape
    i, col = np.nonzero(Gc)                        # grouped by row
    val, k = Gc[i, col], np.bincount(i, minlength=m)
    row = np.repeat(np.arange(m), k ** 2)          # one term per pair of its nonzeros
    pair = np.arange(len(row)) - np.repeat(np.cumsum(k ** 2) - k ** 2, k ** 2)
    a = (np.cumsum(k) - k)[row] + pair // k[row]
    b = a - pair // k[row] + pair % k[row]
    at = col[a] * nc + col[b]
    order = np.argsort(at, kind="stable")         # by entry, then by row
    at = at[order]
    start = np.flatnonzero(np.diff(at, prepend=-1))
    M = scipy.sparse.csr_matrix(((val[a] * val[b])[order], row[order],
                                 np.append(start, len(at))), shape=(len(start), m))
    return at[start] // nc, at[start] % nc, M


def _separable(P, G, A):
    """Mask of the variables :func:`_newton` and :func:`_face_solve` eliminate.

    Variable j is separable when row j of ``P`` is zero off the diagonal,
    ``P[j, j] > 0``, every row of ``G`` touching j touches only j (in
    practice its bound rows), and its pivot is not flat against its
    equality column: ``P[j, j] >= 1e-3 max_i A_ij^2``.  Then, whatever the
    slack weights, its row of the Newton matrix has no entry off the
    diagonal outside the equality columns, and it leaves by its pivot.
    That division costs accuracy like eps / P_jj^2 relative to the
    coupling, so a flatter pivot stays coupled (the markets here have
    none: their pivots are at least 0.002, their equality entries 1).  A
    face eliminates a variable only when none of its one-variable rows is
    held (a held one fixes it), so the equality columns are the only ones
    the floor reads.  Adding bound rows to ``G`` never changes the mask.
    """
    touch = G != 0
    shared = touch[touch.sum(axis=1) > 1].any(axis=0)
    return ((P.diagonal() > 0) & (np.count_nonzero(P, axis=1) == 1) & ~shared
            & (P.diagonal() >= 1e-3 * (A ** 2).max(axis=0, initial=0.0)))


# The Newton matrix's size rule, from a crossover table of microseconds per
# row (CHANGES.md; ROADMAP item 3): from dimension 20 up, a loop of one
# factorization per row serving both solves beats two batched
# ``np.linalg.solve`` calls at every batch size; below it, the batched solve
# wins in batches of 4 rows or more.  The rule reads the dimension only, so
# a row takes the same path, and gets the same answer, alone or in a batch.
_LOOP_MIN_DIM = 20


def _newton(P, G, A, nc):
    """The Newton step solver of :func:`_ipm` for the data ``P``, ``G``, ``A``.

    The variables come in the engine layout of :class:`QpFamily`: the
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
    step, grows like eps / min(h_s); ``h_s >= P_jj``, and the pivot floor
    of :func:`_separable` keeps P_jj away from zero.

    The coupled block ``Pc + Gc' diag(d) Gc`` is assembled by scatter:
    each inequality row adds ``d_i G_ij G_ik`` to the entries (j, k) of
    its nonzero coupled columns by one sparse product (:func:`_scatter_map`,
    once per family), at O(sum of k_i^2) per row, k_i the coupled nonzeros
    of inequality row i, instead of the dense product's O(nc^2 m).  Each
    entry sums its terms in row order, as the dense product does, so an
    entry of at most two exact products (the market's) is bit-identical
    to it.

    Returns ``system(d, delta)``, which builds the matrix for the slack
    weights ``d`` (B, m) and regularization ``delta`` (B,) and returns
    ``step(f, g) -> (dx, dy)``: one factorization for the predictor and
    the corrector.  From dimension ``_LOOP_MIN_DIM`` up each row is
    factored once, in place, and both steps reuse it
    (:func:`_factored_rows`); below it each step is one batched solve
    (:func:`_solve_rows`), which factors again but is faster there.
    """
    Pc, ps = P[:nc, :nc], P.diagonal()[nc:]
    Gc, Gs2, Ac, As = G[:, :nc], G[:, nc:] ** 2, A[:, :nc], A[:, nc:]
    j, k, M = _scatter_map(Gc)
    at, Pc_at = j * (nc + len(A)) + k, Pc[j, k]
    template, sign = _saddle(Pc, Ac, 0.0), np.repeat([1.0, -1.0], [nc, len(A)])

    def build(d, delta):
        hs = ps + d @ Gs2 + delta[:, None]
        K = np.empty((len(d),) + template.shape)
        K[:] = template
        K.reshape(len(d), -1)[:, at] = Pc_at + (M @ d.T).T
        diag = np.einsum("bii->bi", K)   # a writable view
        diag += delta[:, None] * sign
        K[:, nc:, nc:] -= (As / hs[:, None, :]) @ As.T
        return K, hs

    def system(d, delta):
        K, hs = build(d, delta)
        if K.shape[1] < _LOOP_MIN_DIM:
            solve = functools.partial(_solve_rows, K)
        else:
            solve = _factored_rows(K, lambda i: build(d[i:i + 1], delta[i:i + 1])[0][0])

        def step(f, g):
            u = f[:, nc:] / hs
            sol = solve(np.concatenate([f[:, :nc], g - u @ As.T], axis=1))
            dy = sol[:, nc:]
            return np.concatenate([sol[:, :nc], u - dy @ As / hs], axis=1), dy

        return step

    return system


def _ipm(family, R, scale, tol_conv):
    """Mehrotra predictor-corrector iterations over the rows of ``R``.

    Returns ``(x, y, z, s, status, iterations)`` of the family's problem
    min 0.5 x'Px + R[i]'x s.t. Gx <= h, Ax = b in the engine layout, which
    has at least one inequality row; ``scale`` and ``tol_conv`` are per
    row.  The working arrays hold only the rows still iterating; a row
    leaves them, with its current iterate as its answer, at the first
    check that decides it.

    The variables come in the engine layout of :class:`QpFamily`: the
    first ``nc`` are coupled (the market's trades), the rest separable (a
    diagonal row of ``P``, positive curvature, only bound rows; the
    market's demands and generations).  Each iteration builds one Newton
    matrix per row, by the family's Newton builder, and solves it twice,
    for the predictor and the corrector, from one factorization (below
    dimension 20: one batched solve each).  The separable variables are
    eliminated from it exactly, so the matrix factored covers the coupled
    variables and the equality rows only (see :func:`_newton`).
    """
    P, G, h, A, b = family.P, family.G, family.h, family.A, family.b
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
    Ra, sc, tc = R, scale, tol_conv

    # One check more than steps, so the iterate after the last step is
    # checked too.
    for it in range(_MAX_ITER + 1):
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
        # iterates mean an unbounded objective.
        zn = np.abs(za).max(axis=1) + np.abs(ya).max(axis=1, initial=0.0)
        ray = np.abs(za @ G + ya @ A).max(axis=1, initial=0.0)
        farkas = (zn > 1e10) & (ray <= 1e-6 * zn) & (za @ h + ya @ b < 0)
        hugex = np.abs(xa).max(axis=1, initial=0.0) > 1e10 * sc
        conv = worst <= tc
        stop = conv | farkas | hugex | (it == _MAX_ITER)
        if stop.any():
            done = idx[stop]
            status[done] = np.select([conv, farkas, hugex], [0, 1, 2], 3)[stop]
            iters[done] = it
            x[done], y[done], z[done], s[done] = xa[stop], ya[stop], za[stop], sa[stop]
            if stop.all():
                break
            keep = ~stop
            idx, xa, ya, za, sa, Ra, sc, tc, r_dual, r_eq, r_in, comp, mu = (
                v[keep] for v in (idx, xa, ya, za, sa, Ra, sc, tc,
                                  r_dual, r_eq, r_in, comp, mu))

        # Guard the endgame: slacks of strongly active constraints head to
        # zero, and a denormal slack would overflow these divisions.
        sa_div = np.maximum(sa, 1e-300)
        d = np.minimum(za / sa_div, 1e16)
        step = family.newton(d, 1e-12 * sc)

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
        a = alpha[:, None]
        xa, ya, za, sa = xa + a * dx, ya + a * dy, za + a * dz, sa + a * ds

    return x, y, z, s, status, iters


def _face_maps(face, G, h, b, pats):
    """The affine map from the linear term to the point of each face in ``pats``.

    ``face`` is :func:`_face_solve` of ``P`` and ``[A; G]``; a face holds
    the equalities and the rows ``G[pat]`` as equalities.  On it the face
    solve from zero is linear in the pair (R, right-hand side), so one
    call on n + 1 rows per face, the right-hand side with R = 0 and each
    unit vector with a zero right-hand side, gives ``x(R) = x0 + R Kx``
    and ``w(R) = w0 + R Kw`` (``w`` the multipliers of ``[A; G]``, zero
    off the face) exactly, up to rounding.  Yields, per pattern, ``(full,
    (x0, Kx, w0, Kw), (t0, Kt))``: ``full`` whether the face matrix has
    full rank, and ``t0 + R Kt`` the face's active multipliers followed by
    its slacks off the face, the signs that decide its region.
    """
    F, n, p = len(pats), G.shape[1], len(b)
    d = np.zeros((n + 1, p + len(h)))
    d[0] = np.concatenate([b, h])
    on = np.hstack([np.ones((F, p), dtype=bool), pats])
    xs, ws, full = face(np.tile(np.eye(n + 1, n, -1), (F, 1)), np.tile(d, (F, 1)), on,
                        np.repeat(np.arange(F, dtype=np.intp), n + 1),
                        np.zeros((1, p + len(h))))
    for pat, full_f, xf, wf in zip(pats, full, xs.reshape(F, n + 1, n),
                                   ws.reshape(F, n + 1, -1)):
        x0, Kx, w0, Kw = xf[0], xf[1:], wf[0], wf[1:]
        t0 = np.concatenate([w0[p:][pat], (h - x0 @ G.T)[~pat]])
        Kt = np.hstack([Kw[:, p:][:, pat], -(Kx @ G[~pat].T)])
        yield full_f, (x0, Kx, w0, Kw), (t0, Kt)


def _claim(family, R, scale, x, y, z):
    """Solve rows on learned faces by their stored maps; return the rows left over.

    The family's learned faces map a pattern (bytes of a bool array over
    the engine's inequality rows) to its face's map, or to ``None`` until
    this builds it, by one :func:`_face_maps` for all such faces.  Tries
    every face, most recently claimed or learned first.  A try is a sign test
    by the face's map, which passes the rows whose active multipliers
    exceed ``_FACE_TOL`` times the row's ``scale`` and whose slacks off
    the face are at least minus that; then :func:`_accepted`, once for
    the rows that passed.  A row is claimed, and ``x``, ``y`` and ``z``
    written in place, when the face has full rank, the mapped point
    passes the accept test and every active multiplier exceeds
    ``_FACE_TOL`` times the row's ``scale``.  Then the point is the unique
    optimum: what the iterations and polish return, to rounding; a wrong
    or stale map claims no row.  A face whose map this call built is
    dropped unless it claims a row, so a face that claims nothing on its
    first try is never tried again.
    """
    P, G, h, A, b, faces = family.P, family.G, family.h, family.A, family.b, family._faces
    new = [key for key, fmap in faces.items() if fmap is None]
    if new:
        pats = np.array([np.frombuffer(key, dtype=bool) for key in new])
        faces.update(zip(new, _face_maps(family.face, G, h, b, pats)))
    p, rest = len(b), np.arange(len(R))
    for key in list(reversed(faces)):
        full, (x0, Kx, w0, Kw), (t0, Kt) = faces[key]
        pat = np.frombuffer(key, dtype=bool)
        Rr, tol = R[rest], _FACE_TOL * scale[rest, None]
        t = t0 + Rr @ Kt
        na = np.count_nonzero(pat)
        sel = np.flatnonzero(full & (t[:, :na] > tol).all(axis=1)
                             & (t[:, na:] >= -tol).all(axis=1))
        Rs = Rr[sel]
        xs, ws = x0 + Rs @ Kx, w0 + Rs @ Kw
        ok = (_accepted(P, Rs, G, h, A, b, xs, ws[:, :p], ws[:, p:], scale[rest[sel]])
              & (ws[:, p:][:, pat] > tol[sel]).all(axis=1))
        if ok.any():
            faces[key] = faces.pop(key)   # last: tried first next
            got = rest[sel[ok]]
            x[got], y[got], z[got] = xs[ok], ws[ok, :p], ws[ok, p:]
            rest = np.delete(rest, sel[ok])
        elif key in new:
            del faces[key]
    return rest


def _polish_batch(family, R, x, y, z, s, status, scale) -> None:
    """Replace converged iterates by the least-norm point of their active face.

    Interior-point iterates stop within O(sqrt(mu)) of a vertex where a
    constraint is active with zero multiplier, leaving that constraint's
    slack around 1e-5 rather than machine precision, and on a flat face
    wherever rounding led them.  This solves the face of the guessed
    active set (the equalities and the active rows of ``G`` held as
    equalities) by one ``face`` call for all rows (one reduced solve per
    pattern), starting x from zero and the multipliers from the iterate's,
    zero off the face: its minimum-norm answer is the face's least-norm
    point, and the face multipliers nearest the iterate's.  (From zero,
    the multipliers land 6 of 250 random omega rows of ieee14 case b,
    against all 250 from the iterate's.)  A row whose point crosses rows
    off its face is solved once more, from zero, with the crossed rows
    held as well.  A row is overwritten, in place, only when its point,
    with the face multipliers as solved, passes :func:`_accepted`, taken
    once for all rows; so a wrong guess is harmless.  Its inequality
    multipliers are then clipped at zero.  The point is the least-norm
    optimal point when every held row has a positive multiplier and the
    face's least-norm point is feasible, and after the retry when the
    crossed rows are those active at the least-norm optimal point (on a
    segment: when one row is crossed).  Otherwise an accepted point is
    the least-norm point of a sub-face, optimal and independent of where
    the iterate stopped.  A full-rank face that accepts a row is added to
    the family's learned faces.
    """
    P, G, h, A, b = family.P, family.G, family.h, family.A, family.b
    opt, p = np.flatnonzero(status == 0), len(b)
    tol = _FACE_TOL * scale[opt, None]
    act = (z[opt] >= s[opt]) | (s[opt] <= tol)

    def on_face(rows):
        """The least-norm point of each row's face, its multipliers, its full rank."""
        # Group on one void key per row: np.unique(axis=0) takes a much
        # slower structured-row path, and both sort rows in the same order.
        keys, group = np.unique(act[rows].view(np.dtype((np.void, act.shape[1]))).ravel(),
                                return_inverse=True)
        on = np.hstack([np.ones((len(keys), p), dtype=bool),
                        keys.view(bool).reshape(-1, act.shape[1])])
        xp, w, full = family.face(R[opt[rows]], np.concatenate([b, h]), on, group,
                                  np.hstack([y[opt[rows]], z[opt[rows]] * act[rows]]))
        return xp, w, full[group]

    xp, w, full = on_face(slice(None))
    cross = (xp @ G.T - h > tol) & ~act
    again = np.flatnonzero(cross.any(axis=1))
    if len(again):
        act[again] |= cross[again]
        xp[again], w[again], full[again] = on_face(again)
    ok = _accepted(P, R[opt], G, h, A, b, xp, w[:, :p], w[:, p:], scale[opt])
    good = opt[ok]
    x[good], y[good], z[good] = xp[ok], w[ok, :p], np.maximum(w[ok, p:], 0.0)
    for key in sorted({pat.tobytes() for pat in act[ok & full]}):
        family._faces.setdefault(key, None)   # landed on


def _max_step(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Largest step keeping v + alpha*dv > 0, per batch row (cap 1e10)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dv < 0, -v / dv, np.inf)
    return np.minimum(ratios.min(axis=1), 1e10)

