"""Interior-point QP solver: correctness, statuses, polish, oracle."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import brute_force_oracle
from peertrade import qp


def test_unconstrained_quadratic():
    P = np.diag([2.0, 8.0])
    r = np.array([-2.0, -8.0])
    sol = qp.solve(qp.QpProblem(P, r))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-7)
    assert abs(sol.objective - (-5.0)) < 1e-7


def test_box_constrained_matches_projection():
    # minimize ||x - (3, -2)||^2 over the unit box
    P = 2.0 * np.eye(2)
    r = np.array([-6.0, 4.0])
    G = np.vstack([np.eye(2), -np.eye(2)])
    h = np.ones(4)
    sol = qp.solve(qp.QpProblem(P, r, A_ineq=G, b_ineq=h))
    np.testing.assert_allclose(sol.x, [1.0, -1.0], atol=1e-7)
    assert sol.mult_ineq[0] > 1.0  # active upper bound on x0
    assert sol.kkt_residuals["stationarity"] <= 1e-6


def test_equality_constrained():
    # minimize x^2 + y^2 subject to x + y = 2
    prob = qp.QpProblem(2.0 * np.eye(2), np.zeros(2),
                        A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
    sol = qp.solve(prob)
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-8)
    np.testing.assert_allclose(sol.mult_eq, [-2.0], atol=1e-6)


def test_infeasible_detected_with_certificate():
    # x >= 1 and x <= 0 cannot both hold
    prob = qp.QpProblem(np.eye(1), np.zeros(1),
                        A_ineq=np.array([[-1.0], [1.0]]),
                        b_ineq=np.array([-1.0, 0.0]))
    sol = qp.solve(prob)
    assert sol.status == "infeasible"
    assert "Farkas" in sol.message


def test_unbounded_detected():
    prob = qp.QpProblem(np.zeros((1, 1)), np.array([1.0]),
                        A_ineq=np.array([[1.0]]), b_ineq=np.array([0.0]))
    sol = qp.solve(prob)
    assert sol.status == "unbounded"


def test_equality_only_statuses():
    # With no inequality rows the solve is one face solve; its status is
    # read off the residuals.
    sol = qp.solve(qp.QpProblem(np.zeros((1, 1)), [1.0]))
    assert sol.status == "unbounded"
    sol = qp.solve(qp.QpProblem(np.eye(2), np.zeros(2),
                                A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 2.0]))
    assert sol.status == "infeasible"
    assert "Farkas" in sol.message
    # Both variables separable: the reduced least-squares solve.
    sol = qp.solve(qp.QpProblem(np.diag([1.0, 2.0]), np.zeros(2),
                                A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 2.0]))
    assert sol.status == "infeasible"
    assert "Farkas" in sol.message
    # The first row fixes x0 and the second contradicts it.
    sol = qp.solve(qp.QpProblem(np.eye(2), np.zeros(2),
                                A_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[1.0, 2.0]))
    assert sol.status == "infeasible"
    assert "Farkas" in sol.message


@pytest.mark.parametrize("b_eq, status", [(5.0, "infeasible"), (3.0, "optimal")])
def test_all_variables_fixed(b_eq, status):
    prob = qp.QpProblem(np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]],
                        b_eq=[b_eq], lb=[1.0, 2.0], ub=[1.0, 2.0])
    sol = qp.solve(prob)
    assert sol.status == status
    if status == "optimal":
        np.testing.assert_array_equal(sol.x, [1.0, 2.0])
    else:
        # The fixed variables' bound multipliers come from the gradient,
        # and with them the returned multipliers are no Farkas ray.
        assert "Farkas" not in sol.message


def test_mixed_statuses_in_one_batch():
    # minimize r*x subject to x >= 0: optimal at 0 for r = 1, unbounded
    # for r = -1; each row leaves the iterations with its own status.
    prob = qp.QpProblem(np.zeros((1, 1)), [1.0], A_ineq=[[-1.0]], b_ineq=[0.0])
    batch = qp.solve_batch(qp.QpFamily(prob), [[1.0], [-1.0]])
    assert [batch.status(0), batch.status(1)] == ["optimal", "unbounded"]
    assert batch.iterations[1] < 100   # left on the divergence test, not at max_iter
    single = qp.solve(prob)
    assert single.status == "optimal"
    assert batch.x[0, 0] == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_array_equal(batch.x[0], single.x)
    assert batch.iterations[0] == single.iterations


@pytest.mark.parametrize("data", [
    dict(P=[[0.0]], r=[1.0], A_ineq=[[1.0], [-1.0]], b_ineq=[-1.0, -1.0]),
    dict(P=[[2.0, 0.0], [0.0, 8.0]], r=[-6.0, 4.0], A_ineq=[[1.0, 1.0]],
         b_ineq=[1.0], A_eq=[[1.0, -1.0]], b_eq=[0.5], lb=[-1.0, -1.0]),
])
def test_list_built_problem_solves_like_array_built(data):
    listed = qp.QpProblem(**data)
    arrays = qp.QpProblem(**{k: np.array(v, dtype=float) for k, v in data.items()})
    for name in ("P", "r", "A_ineq", "b_ineq", "A_eq", "b_eq", "lb", "ub"):
        value = getattr(listed, name)
        assert isinstance(value, np.ndarray) and value.dtype == float, name
        np.testing.assert_array_equal(value, getattr(arrays, name))
    if "A_eq" not in data:
        assert listed.A_eq.shape == (0, listed.n_var)   # an omitted block is empty
    got, want = qp.solve(listed), qp.solve(arrays)
    assert got.status == want.status
    np.testing.assert_array_equal(got.x, want.x)


def test_problem_owns_frozen_copies_of_its_data():
    P, b = np.eye(2), np.array([1.0])
    prob = qp.QpProblem(P, np.array([-3.0, 0.0]), A_ineq=[[1.0, 0.0]], b_ineq=b)
    P[0, 1], b[0] = 5.0, np.nan    # the caller's arrays, after the checks ran
    np.testing.assert_array_equal(prob.P, np.eye(2))
    sol = qp.solve(prob)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-7)
    with pytest.raises(ValueError, match="read-only"):
        prob.r[0] = 0.0


def test_non_psd_rejected():
    with pytest.raises(qp.QpError, match="positive semidefinite"):
        qp.solve(qp.QpProblem(np.array([[-1.0]]), np.zeros(1)))


def test_asymmetric_p_rejected():
    with pytest.raises(qp.QpError, match="symmetric"):
        qp.QpProblem(P=np.array([[1.0, 2.0], [0.0, 1.0]]), r=np.zeros(2),
                     A_ineq=np.zeros((0, 2)), b_ineq=np.zeros(0),
                     A_eq=np.zeros((0, 2)), b_eq=np.zeros(0))


def test_shape_mismatches_rejected():
    with pytest.raises(qp.QpError, match="rows"):
        qp.QpProblem(P=np.eye(2), r=np.zeros(2),
                     A_ineq=np.eye(2), b_ineq=np.zeros(3),
                     A_eq=np.zeros((0, 2)), b_eq=np.zeros(0))
    # Six entries are not read as a (3, 2) block of a 2-variable problem.
    with pytest.raises(qp.QpError, match=r"A_ineq has shape \(2, 3\), expected \(\*, 2\)"):
        qp.QpProblem(np.eye(2), np.zeros(2), A_ineq=np.ones((2, 3)), b_ineq=np.zeros(3))
    with pytest.raises(qp.QpError, match=r"A_eq has 1 rows but its rhs has shape \(0,\)"):
        qp.QpProblem(np.eye(2), np.zeros(2), A_eq=np.ones((1, 2)))
    with pytest.raises(qp.QpError, match=r"r has shape \(2, 1\)"):
        qp.QpProblem(np.eye(2), np.zeros((2, 1)))
    with pytest.raises(qp.QpError, match="lb has shape"):
        qp.QpProblem(np.eye(2), np.zeros(2), lb=np.zeros(3))
    with pytest.raises(qp.QpError, match="ub has shape"):
        qp.QpProblem(np.eye(2), np.zeros(2), ub=np.zeros(1))
    with pytest.raises(qp.QpError, match="NaN"):
        qp.QpProblem(np.eye(2), np.zeros(2), ub=[1.0, np.nan])
    with pytest.raises(qp.QpError, match="empty bound range"):
        qp.QpProblem(np.eye(2), np.zeros(2), lb=[0.0, 2.0], ub=[1.0, 1.0])
    good = dict(P=np.eye(2), r=np.zeros(2), A_ineq=np.ones((1, 2)),
                b_ineq=np.ones(1), A_eq=np.ones((1, 2)), b_eq=np.ones(1))
    for name, value in good.items():
        for bad in (np.nan, np.inf):
            with pytest.raises(qp.QpError, match=f"{name} contains NaN or infinity"):
                qp.QpProblem(**dict(good, **{name: np.full_like(value, bad)}))
    prob = qp.QpProblem(**good)
    with pytest.raises(qp.QpError, match="linear terms contain NaN"):
        qp.solve_batch(qp.QpFamily(prob), [[0.0, np.nan]])


def test_batch_matches_single_solves():
    P = np.diag([2.0, 4.0])
    G = np.vstack([np.eye(2), -np.eye(2)])
    h = 2.0 * np.ones(4)
    prob = qp.QpProblem(P, np.zeros(2), A_ineq=G, b_ineq=h)
    rng = np.random.default_rng(5)
    R = rng.normal(scale=3.0, size=(40, 2))
    batch = qp.solve_batch(qp.QpFamily(prob), R)
    for i in range(len(R)):
        single = qp.solve(qp.QpProblem(P, R[i], A_ineq=G, b_ineq=h))
        assert batch.status(i) == "optimal"
        np.testing.assert_allclose(batch.x[i], single.x, atol=1e-6)
        assert batch.iterations[i] == single.iterations


def test_polish_lands_exactly_on_degenerate_vertex(monkeypatch):
    # minimize (x - 1)^2 with x <= 1: the constraint is active with a
    # zero multiplier, which pure interior-point iterations approach
    # only to O(sqrt(tolerance)).
    prob = qp.QpProblem(np.array([[2.0]]), np.array([-2.0]),
                        A_ineq=np.array([[1.0]]), b_ineq=np.array([1.0]))
    polished = qp.solve(prob)
    monkeypatch.setattr(qp, "_polish_batch", lambda *args: None)
    rough = qp.solve(prob)
    assert abs(rough.x[0] - 1.0) > 1e-14, "premise: raw iterate is not exact"
    assert polished.x[0] == pytest.approx(1.0, abs=1e-12)
    assert polished.kkt_residuals["complementarity"] <= 1e-12


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("ub, expected, face_calls", [
    ((1.0, 1.0), (0.5, 0.5), 1),
    ((1.0, 3.0), (0.5, 0.5), 1),
    # The segment's least-norm point (0.5, 0.5) crosses x1 <= 0.3, so polish
    # solves once more with that bound held.
    ((0.3, 3.0), (0.3, 0.7), 2),
])
def test_polish_returns_the_least_norm_face_point(monkeypatch, ub, expected, face_calls,
                                                  swap):
    # minimize x1 + x2 s.t. x1 + x2 >= 1, 0 <= x <= ub: the optimal face is
    # a segment, and where along it the iterate stops is up to rounding.
    # Polish returns the segment's least-norm point, to rounding.
    calls, face_solve = [0], qp._face_solve

    def counting_face_solve(*args):
        solve = face_solve(*args)

        def counting(*rest):
            calls[0] += 1
            return solve(*rest)
        return counting

    monkeypatch.setattr(qp, "_face_solve", counting_face_solve)
    order = [1, 0] if swap else [0, 1]
    prob = qp.QpProblem(np.zeros((2, 2)), [1.0, 1.0], A_ineq=[[-1.0, -1.0]],
                        b_ineq=[-1.0], lb=[0.0, 0.0], ub=np.array(ub)[order])
    sol = qp.solve(prob)
    assert sol.status == "optimal" and calls[0] == face_calls
    assert sol.kkt_residuals["complementarity"] <= 1e-12
    np.testing.assert_allclose(sol.x, np.array(expected)[order], rtol=0, atol=1e-15)


def test_polish_does_not_break_strictly_active_solutions():
    prob = qp.QpProblem(np.array([[2.0]]), np.array([0.0]),
                        A_ineq=np.array([[-1.0]]), b_ineq=np.array([-3.0]))
    sol = qp.solve(prob)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.mult_ineq[0] == pytest.approx(6.0, abs=1e-6)


# minimize x^2 + r x s.t. x >= 3: for r > -6 the optimum is the vertex x = 3
# with multiplier 6 + r, a full-rank face with a positive price; for r < -6
# it is x = -r/2 with the constraint inactive.
VERTEX = qp.QpProblem(np.array([[2.0]]), [0.0], A_ineq=[[-1.0]], b_ineq=[-3.0])
ACTIVE, INACTIVE = np.array([True]).tobytes(), np.array([False]).tobytes()


def test_learned_face_claims_rows():
    family = qp.QpFamily(VERTEX)
    first = qp.solve_batch(family, [[0.0]])
    assert first.iterations[0] > 0 and family._faces == {ACTIVE: None}
    again = qp.solve_batch(family, [[0.0], [1.0], [-10.0]])
    np.testing.assert_array_equal(again.iterations == 0, [True, True, False])
    np.testing.assert_array_equal(again.status_code, 0)
    np.testing.assert_allclose(again.x[:, 0], [3.0, 3.0, 5.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(again.mult_ineq[:, 0], [6.0, 7.0, 0.0], rtol=0, atol=1e-12)
    # The claiming face got its map; the face polish just learned has none yet.
    assert list(family._faces) == [ACTIVE, INACTIVE]
    assert family._faces[ACTIVE] is not None and family._faces[INACTIVE] is None


@pytest.mark.parametrize("claimed,kept", [(0, False), (1, True)])
def test_face_claiming_no_row_is_dropped_unless_it_claimed_before(claimed, kept):
    # Polish learns ACTIVE; after ``claimed`` batches it claims a row in,
    # a batch it cannot claim drops it only if it never claimed one.
    family = qp.QpFamily(VERTEX)
    qp.solve_batch(family, [[0.0]])
    for _ in range(claimed):
        assert qp.solve_batch(family, [[1.0]]).iterations[0] == 0
    sol = qp.solve_batch(family, [[-10.0]])
    assert sol.iterations[0] > 0
    assert (ACTIVE in family._faces) == kept and family._faces[INACTIVE] is None


def test_learned_faces_stay_with_their_family():
    # A row the first family claims on the face it learned is iterated by
    # a second family of the same problem, which starts with no faces.
    first, second = qp.QpFamily(VERTEX), qp.QpFamily(VERTEX)
    qp.solve_batch(first, [[0.0]])
    assert qp.solve_batch(first, [[1.0]]).iterations[0] == 0
    assert not second._faces
    assert qp.solve_batch(second, [[1.0]]).iterations[0] > 0


def _newton_data(seed, n_sep, n_cpl, p, zero_p=False, B=64):
    """Random data of one batch of Newton systems, as ``_ipm`` poses them.

    ``n_cpl`` coupled variables (``P = MM' + I``) with bound rows and pair
    rows ``x_j + x_k``; ``n_sep`` diagonal variables with P_jj from 1e-9
    to 10 and two bound rows each; then, for each of ``p`` random equality
    rows, its own unbounded unit-curvature variable, so that dy stays
    well posed when d = 1e16 pins every bounded variable.  Bound rows'
    slack weights span 1e-8 to 1e16.  Pair rows' span 1e-2 to 1e2: a pair
    row weighted 1e16 makes the coupled block ill conditioned for both
    solves alike.
    ``zero_p`` sets P = 0 and drops the unbounded variables.  The
    variables are then put in the engine layout by ``qp._separable``, as
    ``solve_batch`` does: coupled first (with the diagonal ones whose
    pivot its floor rejects), separable last.  Returns
    ``(P, G, A, nc, d, delta, f, g)``.
    """
    rng = np.random.default_rng(seed)
    n_box = n_sep + n_cpl
    n = n_box + (0 if zero_p else p)
    P = np.zeros((n, n))
    if not zero_p:
        diag = range(n_cpl, n_box)
        P[diag, diag] = 10.0 ** rng.uniform(-9.0, 1.0, n_sep)
        M = rng.normal(size=(n_cpl, n_cpl))
        P[:n_cpl, :n_cpl] = M @ M.T + np.eye(n_cpl)
        P[range(n_box, n), range(n_box, n)] = 1.0
    box = np.eye(n)[:n_box]
    pairs = np.zeros((n_cpl if n_cpl > 1 else 0, n))
    for row in pairs:
        row[rng.choice(n_cpl, 2, replace=False)] = 1.0
    G = np.vstack([box, -box, pairs])
    A = rng.normal(size=(p, n))
    A[:, n_box:] = np.eye(p)[:, :n - n_box]
    d = np.hstack([10.0 ** rng.uniform(-8.0, 16.0, (B, 2 * n_box)),
                   10.0 ** rng.uniform(-2.0, 2.0, (B, len(pairs)))])
    delta = 1e-12 * rng.uniform(1.0, 30.0, B)
    f, g = rng.normal(size=(B, n)), rng.normal(size=(B, p))
    sep = qp._separable(P, G, A)
    at = np.concatenate([np.flatnonzero(~sep), np.flatnonzero(sep)])
    return (P[np.ix_(at, at)], G[:, at], A[:, at], np.count_nonzero(~sep), d, delta,
            f[:, at], g)


def _count_factorizations(monkeypatch):
    """Count the LAPACK factorizations of the factor-once path."""
    calls = []
    getrf = qp.scipy.linalg.lapack.dgetrf
    monkeypatch.setattr(qp.scipy.linalg.lapack, "dgetrf",
                        lambda *a, **k: calls.append(1) or getrf(*a, **k))
    return calls


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_sep, n_cpl, p, zero_p, B", [
    pytest.param(4, 3, 2, False, 64, id="4-3-2-False"),   # some variables separable
    pytest.param(6, 0, 3, False, 64, id="6-0-3-False"),   # all separable
    pytest.param(4, 3, 0, False, 64, id="4-3-0-False"),   # no equality rows
    pytest.param(6, 0, 0, False, 64, id="6-0-0-False"),   # all separable, p = 0: 0x0
    pytest.param(3, 4, 2, True, 64, id="3-4-2-True"),     # P = 0: none separable
    (5, 22, 3, False, 64),   # above the size rule's dimension: factor once
    (3, 20, 2, True, 64),    # the same with none separable
    (4, 3, 2, False, 1),     # a batch of one
    (5, 22, 3, False, 1),    # a batch of one above the size rule's dimension
])
def test_newton_step_matches_full_saddle(monkeypatch, seed, n_sep, n_cpl, p, zero_p, B):
    P, G, A, nc, d, delta, f, g = _newton_data(seed, n_sep, n_cpl, p, zero_p, B)
    n = len(P)
    sep = np.arange(n) >= nc
    N = nc + p
    batched = N < qp._LOOP_MIN_DIM
    factorizations = _count_factorizations(monkeypatch)
    step = qp._newton(P, G, A, nc)(d, delta)
    K = qp._saddle(P + (G.T * d[:, None, :]) @ G, A, delta)
    # The predictor and the corrector: two right-hand sides, one factorization.
    for f, g in ((f, g), (f[::-1].copy(), g[::-1].copy())):
        dx, dy = step(f, g)
        full = np.linalg.solve(K, np.hstack([f, g])[:, :, None])[:, :, 0]
        got = np.hstack([dx, dy])
        if batched and not sep.any():
            np.testing.assert_array_equal(got, full)   # the same matrix, solved alike
        # The pivot floor of _separable keeps every eliminated pivot away
        # from zero, so the elimination adds no error beyond the LU's.
        err = np.abs(got - full).max(axis=1) / np.abs(full).max(axis=1)
        assert (err <= 1e-10).all()
    assert len(factorizations) == (0 if batched else B)


@pytest.mark.parametrize("seed", range(3))
def test_flat_pivot_stays_coupled(seed):
    # Diagonal variables 0 and 1 (P_jj = 1e-7 and 1e-6, tiny slack weights)
    # sit in equality rows with O(1) entries: eliminated, they would divide
    # the step's rounding by their pivots.  The pivot floor of _separable
    # keeps them coupled, and the step matches the full saddle's LU.
    rng = np.random.default_rng(seed)
    n, p, B = 7, 2, 32
    P = np.zeros((n, n))
    P[range(4), range(4)] = [1e-7, 1e-6, 1.0, 1.0]
    M = rng.normal(size=(3, 3))
    P[4:, 4:] = M @ M.T + np.eye(3)
    pairs = np.zeros((2, n))
    pairs[0, [4, 5]] = pairs[1, [5, 6]] = 1.0
    G = np.vstack([np.eye(n), -np.eye(n), pairs])
    A = rng.normal(size=(p, n))
    sep = qp._separable(P, G, A)
    np.testing.assert_array_equal(sep, [False, False, True, True, False, False, False])
    at = np.r_[0, 1, 4, 5, 6, 2, 3]                # the engine layout
    P, G, A = P[np.ix_(at, at)], G[:, at], A[:, at]
    d = 10.0 ** rng.uniform(-2.0, 2.0, (B, len(G)))
    d[:, [0, 1, n, n + 1]] = 1e-12                 # h_j is about P_jj
    delta = 1e-12 * rng.uniform(1.0, 30.0, B)
    f, g = rng.normal(size=(B, n)), rng.normal(size=(B, p))
    got = np.hstack(qp._newton(P, G, A, 5)(d, delta)(f, g))
    K = qp._saddle(P + (G.T * d[:, None, :]) @ G, A, delta)
    full = np.linalg.solve(K, np.hstack([f, g])[:, :, None])[:, :, 0]
    err = np.abs(got - full).max(axis=1) / np.abs(full).max(axis=1)
    assert (err <= 1e-12).all(), err.max()


@pytest.mark.parametrize("path", ["batched", "factor_once"])
def test_singular_newton_row_gets_least_squares(monkeypatch, path):
    # P = 0, and variable 0 is in no equality row; with no slack weight
    # and no regularization, row 3's matrix has a zero row and column.
    monkeypatch.setattr(qp, "_LOOP_MIN_DIM", 10 ** 9 if path == "batched" else 0)
    P, G, A, nc, d, delta, f, g = _newton_data(0, 3, 4, 2, zero_p=True, B=6)
    A[:, 0] = 0.0
    d[3], delta[3] = 0.0, 0.0
    factorizations = _count_factorizations(monkeypatch)
    step = qp._newton(P, G, A, nc)(d, delta)
    K = qp._saddle(P + (G.T * d[:, None, :]) @ G, A, delta)
    assert np.linalg.matrix_rank(K[3]) < len(K[3])
    for f, g in ((f, g), (-2.0 * f, g[::-1].copy())):
        got = np.hstack(step(f, g))
        rhs = np.hstack([f, g])
        np.testing.assert_array_equal(got[3], np.linalg.lstsq(K[3], rhs[3], rcond=None)[0])
        for i in (0, 1, 2, 4, 5):
            alone = qp._newton(P, G, A, nc)(d[i:i + 1], delta[i:i + 1])(f[i:i + 1], g[i:i + 1])
            np.testing.assert_array_equal(got[i], np.hstack(alone)[0])
    # The batched path factors through np.linalg.solve, the other path once
    # per row: six for the batch, one for each of the ten rows alone.
    assert len(factorizations) == (0 if path == "batched" else 16)


def test_factored_rows_solve_unsymmetric_matrices():
    # The factors are those of K[i]' (K's own buffer in Fortran order), so
    # the solve must transpose them back.
    rng = np.random.default_rng(3)
    K = rng.normal(size=(5, 6, 6)) + 6.0 * np.eye(6)
    rhs = rng.normal(size=(5, 6))
    want = np.linalg.solve(K, rhs[:, :, None])[:, :, 0]
    got = qp._factored_rows(K.copy(), None)(rhs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_scatter_build_matches_dense_product(monkeypatch):
    # Rows touching 1, 2 and 3 coupled variables, with power-of-two
    # coefficients so that every product d_i G_ij G_ik is exact: then an
    # entry summing at most two products is one rounding in any order.
    rng = np.random.default_rng(7)
    n, B = 8, 16
    G = np.zeros((0, n))
    for width, count in ((1, 2 * n), (2, 6), (3, 4)):
        block = np.zeros((count, n))
        for row in block:
            row[rng.choice(n, width, replace=False)] = rng.choice([1.0, -2.0, 0.5], width)
        G = np.vstack([G, block])
    M = rng.normal(size=(n, n))
    P = M @ M.T                                    # dense: none separable
    A = rng.normal(size=(2, n))
    d = 10.0 ** rng.uniform(-8.0, 16.0, (B, len(G)))
    delta = 1e-12 * rng.uniform(1.0, 30.0, B)
    built = []
    solve_rows = qp._solve_rows
    monkeypatch.setattr(qp, "_solve_rows", lambda K, rhs: built.append(K.copy())
                        or solve_rows(K, rhs))
    qp._newton(P, G, A, n)(d, delta)(rng.normal(size=(B, n)), rng.normal(size=(B, 2)))
    (K,) = built
    dense = qp._saddle(P + (G.T * d[:, None, :]) @ G, A, delta)
    touch = (G != 0).astype(int)
    terms = touch.T @ touch                        # products summed per entry
    assert {1, 2, 3} <= set(np.unique(terms)) and K.shape == dense.shape
    few = np.zeros(K.shape[1:], dtype=bool)
    few[:n, :n] = terms <= 2
    few[n:, :] = few[:, n:] = True                 # the equality blocks: no sum
    np.testing.assert_array_equal(K[:, few], dense[:, few])
    size = qp._saddle(np.abs(P) + (np.abs(G.T) * d[:, None, :]) @ np.abs(G), A, delta)
    assert (np.abs(K - dense) <= 1e-15 * np.abs(size)).all()


def test_dense_inequality_rows_solve_to_the_known_optimum():
    # Every inequality row touches all 40 variables: the scatter map holds
    # one term per pair of a row's columns, no more, and the solve lands on
    # an optimum planted through the KKT conditions (rows 0-9 active).
    rng = np.random.default_rng(11)
    n, m, active = 40, 80, 10
    M = rng.normal(size=(n, n))
    P = M @ M.T + np.eye(n)
    G = rng.normal(size=(m, n))
    x_star = rng.normal(size=n)
    z_star = np.r_[rng.uniform(0.5, 2.0, active), np.zeros(m - active)]
    h = G @ x_star + np.r_[np.zeros(active), rng.uniform(0.5, 2.0, m - active)]
    r = -(P @ x_star + G.T @ z_star)
    assert qp._scatter_map(G)[2].nnz == m * n * n
    sol = qp.solve(qp.QpProblem(P, r, A_ineq=G, b_ineq=h))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, x_star, rtol=0, atol=1e-7)
    np.testing.assert_allclose(sol.mult_ineq, z_star, rtol=0, atol=1e-6)


def _full_face_solve(P, R, C, d):
    """The face solve on the full face matrix, kept as the oracle.

    Minimizes 0.5 x'Px + R[i]'x subject to Cx = d for every row i by one
    minimum-norm least-squares solve (``gelsy``) of ``[[P, C'], [C, 0]]``,
    its rank decided at ``rcond`` = the dimension times eps, as the
    reduced solve decides its own.  Returns ``(x, w, full)``.
    """
    n, N = len(P), len(P) + len(C)
    rhs = np.concatenate([-R.T, np.broadcast_to(d, (len(R), len(C))).T])
    sol, _, rank, _ = scipy.linalg.lstsq(qp._saddle(P, C, 0.0), rhs,
                                         cond=N * np.finfo(float).eps,
                                         lapack_driver="gelsy")
    return sol[:n].T, sol[n:].T, rank == N


def _face_case(seed, U=6, B=24):
    """Random face problems in the engine layout, with patterns and starts.

    Variables with a curvature block of random rank, so that some faces
    are flat, and diagonal ones with P_jj from 1e-6 to 10.  The rows:
    dense ones (like balance rows), pair rows on the first block,
    one-variable rows, two one-variable rows on one variable, and one
    dense row that is the sum of two others; shuffled, and consistent
    (``d = C x`` for some x), so every face is feasible.  The variables
    are put in the engine layout by ``qp._separable``, the dense rows
    taken as its equality rows: coupled first, separable last.  ``U``
    patterns of rows, the first holding every row, and ``B`` rows of ``R``
    with a multiplier start ``w0`` each, zero off the row's face.
    Returns ``(P, nc, C, d, on, group, R, w0, floored)``, ``floored``
    marking the variables only the pivot floor keeps coupled.
    """
    rng = np.random.default_rng(seed)
    nc, ns = rng.integers(1, 6), rng.integers(1, 5)
    n = nc + ns
    P = np.zeros((n, n))
    M = rng.normal(size=(nc, rng.integers(0, nc + 1)))
    P[:nc, :nc] = M @ M.T
    P[range(nc, n), range(nc, n)] = 10.0 ** rng.uniform(-6.0, 1.0, ns)
    eye = np.eye(n)
    dense = [rng.normal(size=n) for _ in range(rng.integers(1, 3))]
    rows = []
    for _ in range(rng.integers(0, nc + 1) if nc > 1 else 0):
        pair = np.zeros(n)
        pair[rng.choice(nc, 2, replace=False)] = rng.choice([1.0, -1.0], 2)
        rows.append(pair)
    for j in rng.choice(n, rng.integers(1, n + 1), replace=False):
        rows.append(rng.choice([1.0, -1.0]) * eye[j])
    j = rng.integers(n)
    rows += [eye[j], -2.0 * eye[j]]
    dense.append(dense[0] + rows[-3])
    A, G = np.array(dense), np.array(rows)
    sep = qp._separable(P, G, A)
    floored = qp._separable(P, G, np.zeros((0, n))) & ~sep
    at = np.concatenate([np.flatnonzero(~sep), np.flatnonzero(sep)])
    P, C, floored = P[np.ix_(at, at)], np.vstack([A, G])[:, at], floored[at]
    C = C[rng.permutation(len(C))]
    on = rng.random((U, len(C))) < 0.6
    on[0] = True
    group = rng.integers(0, U, B)
    d, R, w0 = (rng.normal(size=k) for k in (n, (B, n), (B, len(C))))
    return P, np.count_nonzero(~sep), C, C @ d, on, group, R, w0 * on[group], floored


FACE_SEEDS = range(200)


@pytest.mark.parametrize("seed", FACE_SEEDS)
def test_reduced_face_solve_matches_full_face_matrix(seed):
    # Per pattern, the reduced solve, its multipliers started at w0,
    # against the full face matrix's minimum-norm solution from (0, w0).
    P, nc, C, d, on, group, R, w0, _ = _face_case(seed)
    x, w, full = qp._face_solve(P, C, nc)(R, d, on, group, w0)
    eps = np.finfo(float).eps
    for u in np.unique(group):
        f, rows = on[u], group == u
        Cf, w0f = C[f], w0[rows][:, f]
        xo, dw, full_u = _full_face_solve(P, R[rows] + w0f @ Cf, Cf, d[f])
        wo = w0f + dw
        assert full[u] == full_u
        np.testing.assert_array_equal(w[rows][:, ~f], 0.0)
        # x to 1e-9 of the size of the row's solution (x, w), or to 1e3 eps
        # times the face matrix's condition (on its range) where that is
        # larger: tiny pivots P_jj make the face itself ill conditioned,
        # for the oracle as for the reduced solve.
        sv = np.linalg.svd(qp._saddle(P, Cf, 0.0), compute_uv=False)
        tol = max(1e-9, 1e3 * eps * sv[0] / sv[sv > len(sv) * eps * sv[0]].min())
        size = np.maximum(np.abs(xo).max(axis=1), np.abs(wo).max(axis=1, initial=0.0))
        err = np.abs(x[rows] - xo).max(axis=1) / size
        assert (err <= tol).all(), (u, err.max(), tol)
        if full_u:
            np.testing.assert_allclose(w[rows][:, f], wo, rtol=0, atol=tol * size.max())
            continue
        # A singular face: the multipliers may differ, the residuals not.
        def residuals(xr, wr):
            return (np.abs(R[rows] + xr @ P + wr @ Cf).max(axis=1, initial=0.0),
                    np.abs(xr @ Cf.T - d[f]).max(axis=1, initial=0.0))
        for got, oracle in zip(residuals(x[rows], w[rows][:, f]), residuals(xo, wo)):
            assert (got <= oracle + tol * size).all(), (u, got, oracle)


def test_reduced_face_solve_covers_its_cases():
    # The faces above include full-rank and flat ones, dependent active
    # rows, two active one-variable rows on one variable, and diagonal
    # variables too flat to be eliminated, left free on the face.
    seen = dict.fromkeys(["full", "flat", "dependent", "twice", "kept"], 0)
    for seed in FACE_SEEDS:
        P, nc, C, d, on, group, *_, floored = _face_case(seed)
        n = len(P)
        single = qp._single_var(C)
        for f in on[np.unique(group)]:
            Cf, held = C[f], single[f][single[f] >= 0]
            seen["full"] += np.linalg.matrix_rank(qp._saddle(P, Cf, 0.0)) == n + len(Cf)
            seen["flat"] += np.linalg.matrix_rank(P + Cf.T @ Cf) < n
            seen["dependent"] += np.linalg.matrix_rank(Cf) < len(Cf)
            seen["twice"] += len(held) > len(set(held))
            seen["kept"] += (floored & ~np.isin(np.arange(n), held)).any()
    assert all(seen.values()), seen


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5), st.booleans())
def test_unused_coupling_row_changes_nothing(seed, n, with_eq):
    # A diagonal-P box QP has only separable variables; a coupling row
    # x_j + x_k <= M that never binds makes j and k non-separable, so the
    # IPM steps through the other Newton path to the same answer.
    rng = np.random.default_rng(seed)
    P = np.diag(rng.uniform(0.1, 10.0, n))
    lb = rng.uniform(-5.0, 0.0, n)
    ub = lb + rng.uniform(0.5, 5.0, n)
    eq = {}
    if with_eq:
        eq = dict(A_eq=np.ones((1, n)), b_eq=[rng.uniform(lb.sum(), ub.sum())])
    j, k = rng.choice(n, 2, replace=False)
    row = np.zeros((1, n))
    row[0, [j, k]] = 1.0
    box = qp.QpProblem(P, np.zeros(n), lb=lb, ub=ub, **eq)
    coupled = qp.QpProblem(P, np.zeros(n), A_ineq=row, b_ineq=[ub[j] + ub[k] + 1.0],
                           lb=lb, ub=ub, **eq)
    bounds, A = np.vstack([np.eye(n), -np.eye(n)]), box.A_eq
    assert qp._separable(P, bounds, A).all()
    assert not qp._separable(P, np.vstack([row, bounds]), A)[[j, k]].any()
    R = rng.normal(scale=10.0, size=(8, n))
    plain = qp.solve_batch(qp.QpFamily(box), R)
    wide = qp.solve_batch(qp.QpFamily(coupled), R)
    # Two known defects, present before the elimination too, are left
    # out.  In about 0.7 % of the draws with an equality row one row
    # falls into the Mehrotra cycle on one path or both and stops at
    # max_iter (ROADMAP item 4; test_small_qp_with_one_equality_finishes).
    # A row whose polish misses its face keeps an iterate with
    # complementarity about 1e-8, a few 1e-5 off the optimum (item 1).
    done = (plain.status_code != 3) & (wide.status_code != 3)
    np.testing.assert_array_equal(wide.status_code[done], plain.status_code[done])
    np.testing.assert_allclose(wide.x[done], plain.x[done], rtol=0, atol=1e-4)
    landed = np.maximum(plain.kkt_residuals["complementarity"],
                        wide.kkt_residuals["complementarity"]) <= 1e-12
    np.testing.assert_allclose(wide.x[done & landed], plain.x[done & landed],
                               rtol=0, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 4), st.integers(1, 4), st.integers(0, 3),
       st.booleans())
def test_variable_order_changes_nothing(seed, n_sep, n_cpl, m, flat):
    # solve_batch orders the free variables coupled first; a problem posed
    # with its variables permuted gets the same answer, permuted.
    rng = np.random.default_rng(seed)
    n = n_sep + n_cpl
    P = np.zeros((n, n))
    P[range(n_sep), range(n_sep)] = rng.uniform(0.1, 10.0, n_sep)
    M = rng.normal(size=(n_cpl, n_cpl))
    P[n_sep:, n_sep:] = M @ M.T + np.eye(n_cpl)
    x0 = rng.uniform(-2.0, 2.0, n)
    G = np.zeros((m, n))
    G[:, n_sep:] = rng.normal(size=(m, n_cpl))
    h = G @ x0 + rng.uniform(0.1, 1.0, m)
    a = rng.normal(size=(1, n))
    lb = np.where(rng.random(n) < 0.2, -np.inf, x0 - rng.uniform(0.1, 2.0, n))
    ub = np.where(rng.random(n) < 0.2, np.inf, x0 + rng.uniform(0.1, 2.0, n))
    # One variable stays free: with all fixed, the equality row's
    # multiplier would not be unique.
    fixed = (rng.random(n) < 0.15) & (np.arange(n) != rng.integers(n))
    lb[fixed] = ub[fixed] = x0[fixed]
    R = rng.normal(scale=5.0, size=(6, n))
    if flat:
        # Two more coupled variables, linear and priced alike, their sum
        # bounded below in a box: min c (x1 + x2) s.t. x1 + x2 >= s, whose
        # optima can form a segment.  Its least-norm point, which polish
        # returns, does not depend on the order.  The two ranges share a
        # point, so the least-norm point of the line crosses at most one
        # bound; two bounds crossed at one end of the segment are the case
        # whose retry polish rejects (see qp._polish_batch).
        pair = np.full(2, rng.uniform(-2.0, 2.0))
        P = np.pad(P, (0, 2))
        G = np.vstack([np.pad(G, ((0, 0), (0, 2))), np.r_[np.zeros(n), -1.0, -1.0]])
        h = np.append(h, rng.uniform(0.1, 1.0) - pair.sum())
        a = np.pad(a, ((0, 0), (0, 2)))
        lb = np.append(lb, pair - rng.uniform(0.1, 2.0, 2))
        ub = np.append(ub, pair + rng.uniform(0.1, 2.0, 2))
        R = np.hstack([R, np.repeat(rng.uniform(0.5, 5.0, (6, 1)), 2, axis=1)])
        x0, n = np.append(x0, pair), n + 2
    perm = rng.permutation(n)
    back = np.argsort(perm)
    posed = qp.solve_batch(qp.QpFamily(qp.QpProblem(P, R[0], G, h, a, a @ x0, lb, ub)), R)
    moved = qp.solve_batch(qp.QpFamily(
        qp.QpProblem(P[np.ix_(perm, perm)], R[0, perm], G[:, perm], h,
                     a[:, perm], a @ x0, lb[perm], ub[perm])), R[:, perm])
    opt = posed.status_code == 0
    np.testing.assert_array_equal(moved.status_code[opt], 0)
    for name in ("x", "mult_lb", "mult_ub"):
        np.testing.assert_allclose(getattr(moved, name)[opt][:, back],
                                   getattr(posed, name)[opt], rtol=0, atol=1e-7)
    for name in ("mult_ineq", "mult_eq"):
        np.testing.assert_allclose(getattr(moved, name)[opt], getattr(posed, name)[opt],
                                   rtol=0, atol=1e-7)
    if flat:
        np.testing.assert_allclose(moved.x[opt][:, back], posed.x[opt], rtol=0, atol=1e-9)


@pytest.mark.xfail(strict=True, reason="period-4 Mehrotra cycle (ROADMAP item 4)")
def test_small_qp_with_one_equality_finishes():
    # A diagonal box QP with one equality row on which mu repeats
    # 0.709, 2.16, 1.06, 2.27 from iteration 12 and the IPM stops at
    # max_iter, 1.8 above the optimal objective 132.06631 at
    # x = (-2.30506, -3.66794, -2.082).
    prob = qp.QpProblem(np.diag([9.816, 7.38, 9.93]), [-13.546, -9.103, 14.309],
                        A_eq=[[1.0, 1.0, 1.0]], b_eq=[-8.055],
                        lb=[-2.766, -3.953, -2.082], ub=[0.129, 0.098, 0.896])
    sol = qp.solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(132.06631, abs=1e-3)


def test_bad_linear_term_shape():
    prob = qp.QpProblem(np.eye(2), np.zeros(2))
    with pytest.raises(qp.QpError, match="columns"):
        qp.solve_batch(qp.QpFamily(prob), np.zeros((3, 5)))


def _random_box_qp(rng, n):
    """A strictly convex QP over the box [-5, 5]^n with some coordinates
    fixed, posed twice: once with the box and the fixed values as
    constraint rows, once with them as lb/ub.  Returns both and the
    fixed mask."""
    M = rng.normal(size=(n, n))
    P = M @ M.T + 0.2 * np.eye(n)
    r = rng.normal(scale=2.0, size=n)
    fixed = rng.random(n) < 0.3
    value = rng.uniform(-5.0, 5.0, size=n)
    free = np.eye(n)[~fixed]
    rows = qp.QpProblem(P, r, A_ineq=np.vstack([free, -free]),
                        b_ineq=5.0 * np.ones(2 * len(free)),
                        A_eq=np.eye(n)[fixed], b_eq=value[fixed])
    bounds = qp.QpProblem(P, r, lb=np.where(fixed, value, -5.0),
                          ub=np.where(fixed, value, 5.0))
    return rows, bounds, fixed


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_random_qps_satisfy_kkt(seed, n):
    rows, bounds, fixed = _random_box_qp(np.random.default_rng(seed), n)
    by_rows, by_bounds = qp.solve(rows), qp.solve(bounds)
    for sol in (by_rows, by_bounds):
        assert sol.status == "optimal"
        res = sol.kkt_residuals
        assert res["stationarity"] <= 1e-6
        assert res["primal"] <= 1e-6
        assert res["complementarity"] <= 1e-6
        assert res["dual"] <= 1e-9
    np.testing.assert_allclose(by_bounds.x, by_rows.x, atol=1e-6)
    assert by_bounds.objective == pytest.approx(by_rows.objective, abs=1e-6)
    # the rows' multipliers, per variable: box rows for the free
    # coordinates, and the sign parts of the fixing equalities' multipliers
    k = int((~fixed).sum())
    upper, lower = np.zeros(n), np.zeros(n)
    upper[~fixed], lower[~fixed] = by_rows.mult_ineq[:k], by_rows.mult_ineq[k:]
    upper[fixed] = np.maximum(by_rows.mult_eq, 0.0)
    lower[fixed] = np.maximum(-by_rows.mult_eq, 0.0)
    np.testing.assert_allclose(by_bounds.mult_ub, upper, atol=1e-6)
    np.testing.assert_allclose(by_bounds.mult_lb, lower, atol=1e-6)


@pytest.mark.parametrize("value, mult_lb, mult_ub", [(1.0, 0.0, 4.0),
                                                     (5.0, 4.0, 0.0)])
def test_fixed_variable_multipliers(value, mult_lb, mult_ub):
    # minimize (x - 3)^2 with lb = ub = value: the objective's slope 2(value - 3)
    # is held by the upper bound below 3 and by the lower bound above it
    sol = qp.solve(qp.QpProblem([[2.0]], [-6.0], lb=[value], ub=[value]))
    assert sol.status == "optimal"
    assert sol.x[0] == value
    assert sol.mult_lb[0] == pytest.approx(mult_lb, abs=1e-12)
    assert sol.mult_ub[0] == pytest.approx(mult_ub, abs=1e-12)
    assert sol.kkt_residuals["stationarity"] <= 1e-12


def test_oracle_agrees_on_analytic_problem():
    # projection of (3, -2) onto the unit box, solved both ways; the box
    # is given once as rows, once as lb/ub inside a wider search box
    P, r = 2.0 * np.eye(2), np.array([-6.0, 4.0])
    rows = qp.QpProblem(P, r, A_ineq=np.vstack([np.eye(2), -np.eye(2)]),
                        b_ineq=np.ones(4))
    bounds = qp.QpProblem(P, r, lb=-np.ones(2), ub=np.ones(2))
    for prob, box in ((rows, (-np.ones(2), np.ones(2))),
                      (bounds, (-3 * np.ones(2), 3 * np.ones(2)))):
        x, val = brute_force_oracle(prob, box, passes=5)
        np.testing.assert_allclose(x, [1.0, -1.0], atol=1e-3)
        assert abs(val - prob.objective([1.0, -1.0])) < 1e-4
        np.testing.assert_allclose(qp.solve(prob).x, [1.0, -1.0], atol=1e-7)


def test_oracle_eliminates_equalities():
    prob = qp.QpProblem(2.0 * np.eye(2), np.zeros(2),
                        A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
    x, val = brute_force_oracle(prob, (-3 * np.ones(2), 3 * np.ones(2)),
                                   passes=5)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-3)


def test_oracle_guardrails():
    prob = qp.QpProblem(np.eye(5), np.zeros(5))
    with pytest.raises(qp.QpError, match="free dimensions"):
        brute_force_oracle(prob, (-np.ones(5), np.ones(5)))
    small = qp.QpProblem(np.eye(1), np.zeros(1))
    with pytest.raises(qp.QpError, match="box"):
        brute_force_oracle(small, (np.zeros(2), np.ones(2)))
    pinned = qp.QpProblem(np.eye(1), np.zeros(1),
                          A_eq=np.array([[1.0]]), b_eq=np.array([9.0]))
    with pytest.raises(qp.QpError, match="infeasible point"):
        brute_force_oracle(pinned, (-np.ones(1), np.ones(1)))


def test_objective_helper_matches_quadratic_form():
    prob = qp.QpProblem(np.diag([2.0, 6.0]), np.array([1.0, -1.0]))
    x = np.array([2.0, 3.0])
    assert prob.objective(x) == pytest.approx(0.5 * (2 * 4 + 6 * 9) + 2 - 3)
