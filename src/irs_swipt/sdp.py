"""A small dense semidefinite-program solver.

Problems are stated over one complex Hermitian PSD block X with a real linear
objective (maximized) and linear trace constraints; the iterates stay in
native complex Hermitian arithmetic, with no real embedding.  The inner
product is Re tr(A^H B), so objective and constraint values are the complex
traces the caller wrote down.

solve_sdp is one infeasible-start primal-dual path-following loop with the
XZ (HKM) search direction and a Mehrotra predictor-corrector step.  It sees
the constraints only through an operator: apply, A(Y)_i = Re tr(A_i Y);
adjoint, A*(y) = sum_i y_i A_i; schur, M_ij = Re tr(A_i X A_j Z^-1); and
the data C and b.  solve_sdp derives every norm that scales the start
itself: those of b and C, and the largest row norm max_i ||A_i||_F from the
diagonal of schur(I, I).  Two operators are peers: SdpProblem(C, rows) is
the generic one, the reference that states every row as a dense Hermitian
matrix and each map by its definition; UnitDiagonalSdp is the profile
SDP's own, a unit diagonal and one Hermitian inequality row, whose Schur
matrix comes in closed form as Re(X .* Z^-T) bordered by that row.
Inequality constraints become equalities with a vector of slacks s >= 0
(dual z >= 0), which the loop carries beside the block.

Each iteration factors X and Z in one stacked Cholesky call as L L^H and
inverts both factors in one stacked call: L^-1 whitens the predictor's and
the corrector's step to the boundary (one stacked eigvalsh of L^-1 dS L^-H
for the primal and dual block per step) and gives Z^-1 = L^-H L^-1.  The
Schur matrix is positive definite while X, Z, s and z are and the
constraints are independent, so it is solved by Cholesky alone.  A breakdown
of any of these factorizations or eigvalsh calls, or a slack that is not
positive, ends the solve as NumericalFailure; nothing is regularized.  Dense
factorizations are fine at the dimensions used here (<= ~64).
The convergence history lives in the result: SdpSolution.history holds the
gap, residuals and objectives of every iterate, and the final iterate
(X, Z, y and the slack pair s, z) is returned with it.

A solve can be warm-started from the final iterate of a neighbouring
problem's solve, one of the same block size and slack count: the start is
(1 - WARM_BLEND) times that iterate plus WARM_BLEND times the cold start
for X, s, Z and z, and (1 - WARM_BLEND) times its y.  The cold part keeps
the start strictly interior and away from the old problem's complementarity
(an iterate at mu ~ 0 would pin the step lengths near 0).  Consecutive
profile SDPs of sdr_ao differ only through the beamformer, and a warm start
cuts their iteration count by about 40%.  A smaller WARM_BLEND saves a few
more iterations, but the solve then ends nearer the old solution within
the tolerance, which moved the profiles drawn from it further.
"""

from dataclasses import dataclass
import numpy as np

from .errors import InvalidInput
from .linalg import is_hermitian

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 200
STEP_FRACTION = 0.98
WARM_BLEND = 0.02  # weight of the cold start in a warm start


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _inner(a, b):
    """Re tr(A^H B)."""
    return float(np.vdot(a, b).real)


@dataclass
class SdpSolution:
    X: np.ndarray
    objective_value: float
    dual_value: float
    duality_gap: float
    status: str           # Optimal | Infeasible | NumericalFailure
    iterations: int
    history: list         # (mu, relgap, pres, dres, pobj, dobj) per iterate
    Z: np.ndarray         # the final iterate's dual block
    y: np.ndarray         # its constraint multipliers
    s: np.ndarray         # its slacks, in op.slack_rows order
    z: np.ndarray         # and the slacks' duals


def _checked(mat, n):
    """A Hermitian n x n matrix, as given."""
    mat = np.asarray(mat)
    if mat.shape != (n, n):
        raise InvalidInput(f"shape {mat.shape} does not match dim {n}")
    mat = mat.astype(complex)
    if not is_hermitian(mat):
        raise InvalidInput("problem data must be Hermitian")
    return _herm(mat)


class SdpProblem:
    """max Re tr(C X) s.t. Re tr(A_i X) (sense_i) b_i, X >= 0: the generic
    operator, in the standard form
    min Re tr(-C X) s.t. A(X) + (slack terms) = b, X >= 0, slacks >= 0.

    C is Hermitian; rows is an iterable of (A_i, sense, b_i) with sense in
    {'==', '<=', '>='} and A_i a Hermitian n x n matrix.  An inequality row i
    has one slack, with coefficient slack_sign = +1 for '<=' and -1 for '>=';
    slack_rows lists those rows.  A holds the rows stacked (k, n, n)."""

    def __init__(self, C, rows):
        n = np.shape(C)[0] if np.ndim(C) == 2 else 0
        if n < 1:
            raise InvalidInput(f"objective shape {np.shape(C)} is not a non-empty square")
        self.C = -_checked(C, n)  # internal minimization

        terms, senses, b = [], [], []
        for mat, sense, rhs in rows:
            if sense not in ("==", "<=", ">="):
                raise InvalidInput(f"unknown sense {sense!r}")
            terms.append(_checked(mat, n))
            senses.append(sense)
            b.append(float(rhs))
        if not terms:
            raise InvalidInput("problem has no constraints")
        self.b = np.array(b, dtype=float)
        self.slack_rows = np.array([i for i, s in enumerate(senses) if s != "=="], dtype=int)
        self.slack_sign = np.array([1.0 if s == "<=" else -1.0 for s in senses if s != "=="])
        self.A = np.array(terms)

    def apply(self, Y):
        """A(Y): the vector Re tr(A_i Y) (Y not nec. Hermitian)."""
        return (self.A.reshape(len(self.A), -1).conj() @ Y.ravel()).real

    def adjoint(self, y):
        """A*(y): the sum of y_i A_i."""
        return np.tensordot(y, self.A, 1)

    def schur(self, X, Zi):
        """M_ij = Re tr(A_i X A_j Z^{-1}), symmetrized."""
        k = len(self.A)
        U = X @ self.A @ Zi  # X A_j Zi
        M = (self.A.reshape(k, -1).conj() @ U.reshape(k, -1).T).real
        return 0.5 * (M + M.T)


class UnitDiagonalSdp:
    """max Re tr(C X) s.t. diag(X) = 1, Re tr(R X) >= r, X >= 0 (C, R
    Hermitian): the profile SDP, with its structured operator.

    The rows are the n unit-diagonal ones, then R's.  The Schur matrix is
    Re(X .* Zi^T) on the diagonal rows, bordered by d = Re diag(u) and
    Re tr(R u) for u = X R Zi; the loop adds R's slack term.  The data equal
    those of the same problem stated as an SdpProblem, so both start alike
    and take the same steps up to rounding.
    """

    def __init__(self, C, R, r):
        n = C.shape[0]
        C, R = _herm(C), _herm(R)  # as SdpProblem symmetrizes its data
        self.C = -C  # internal minimization
        self.R = R
        self.b = np.append(np.ones(n), float(r))
        self.slack_rows = np.array([n])
        self.slack_sign = np.array([-1.0])

    def apply(self, Y):
        out = np.empty(len(self.b))
        out[:-1] = Y.diagonal().real
        out[-1] = _inner(self.R, Y)
        return out

    def adjoint(self, y):
        out = y[-1] * self.R
        out.flat[::out.shape[0] + 1] += y[:-1]
        return out

    def schur(self, X, Zi):
        n = X.shape[0]
        u = X @ self.R @ Zi
        M = np.empty((n + 1, n + 1))
        M[:n, :n] = (X * Zi.T).real
        M[:n, n] = M[n, :n] = u.diagonal().real
        M[n, n] = _inner(self.R, u)
        return 0.5 * (M + M.T)


def _step_lengths(L, LH, dX, dZ, s, ds, z, dz):
    """(primal, dual) step: STEP_FRACTION of the largest alpha keeping
    (X + alpha dX, s + alpha ds), resp. (Z + alpha dZ, z + alpha dz), in the
    cone, capped at 1.  With X = Lx Lx^H given by L[0] = Lx^-1 (Z likewise by
    L[1], LH = L^H) a block's bound is -1/lambda_min(Lx^-1 dX Lx^-H) when
    that is negative; one stacked eigvalsh serves both blocks."""
    lam = np.linalg.eigvalsh(L @ np.stack([dX, dZ]) @ LH)[:, 0]
    steps = []
    for lam_k, t, dt in ((lam[0], s, ds), (lam[1], z, dz)):
        bounds = [-1.0 / lam_k] if lam_k < 0 else []
        bounds += [-a / b for a, b in zip(t.tolist(), dt.tolist()) if b < 0]
        steps.append(min(1.0, STEP_FRACTION * min(bounds, default=np.inf)))
    return steps


def solve_sdp(op, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, warm=None):
    """Solve the SDP of an operator, an SdpProblem or a UnitDiagonalSdp; the
    objective is maximized.  warm, an SdpSolution of a problem with the same
    block size, constraint count and slack count, warm-starts the solve (see
    WARM_BLEND); a mismatch raises InvalidInput.

    Returns an SdpSolution.  status is 'Optimal' when the relative duality gap
    and the feasibility residuals are all below tol; 'Infeasible' when a
    primal-infeasibility certificate is found; 'NumericalFailure' when
    max_iters steps pass without gap closure or an iteration breaks down
    (the stacked X, Z or the Schur matrix fails its Cholesky factorization,
    a slack is not positive, or a step-length eigvalsh fails).  history[k]
    is the iterate after k steps, as (mu, relgap, pres, dres, pobj, dobj), so
    it holds iterations + 1 entries.
    """
    if not tol > 0:
        raise InvalidInput(f"tol must be > 0, got {tol}")
    if not (isinstance(max_iters, (int, np.integer)) and max_iters >= 0):
        raise InvalidInput(f"max_iters must be an integer >= 0, got {max_iters!r}")
    b, C, rows, sign = op.b, op.C, op.slack_rows, op.slack_sign
    n = C.shape[0]
    n_total = n + len(rows)
    norm_b = max(1.0, float(np.linalg.norm(b)))
    norm_C = max(1.0, float(np.linalg.norm(C)))

    def A(Y, t):
        """The constraint map on a block Y and a slack vector t."""
        out = op.apply(Y)
        out[rows] += sign * t
        return out

    # the largest row norm: at X = Zi = I the Schur diagonal is Re tr(A_i A_i) = ||A_i||_F^2
    eye = np.eye(n, dtype=complex)
    norm_A = max(1.0, float(np.sqrt(np.max(np.diag(op.schur(eye, eye))))))
    tau_p = 10.0 * max(1.0, float(np.max(np.abs(b))) / norm_A)
    tau_d = 10.0 * max(1.0, norm_C / np.sqrt(n_total), norm_A)
    X, s = tau_p * eye, np.full(len(rows), tau_p)
    Z, z = tau_d * eye, np.full(len(rows), tau_d)
    y = np.zeros(len(b))
    if warm is not None:
        if (warm.X.shape, warm.y.shape, warm.s.shape) != (X.shape, y.shape, s.shape):
            raise InvalidInput(
                f"warm start of block {warm.X.shape}, {warm.y.shape[0]} rows and "
                f"{warm.s.shape[0]} slacks for a problem of block {X.shape}, "
                f"{y.shape[0]} rows and {s.shape[0]} slacks")
        keep = 1.0 - WARM_BLEND
        X, s = keep * warm.X + WARM_BLEND * X, keep * warm.s + WARM_BLEND * s
        Z, z = keep * warm.Z + WARM_BLEND * Z, keep * warm.z + WARM_BLEND * z
        y = keep * warm.y

    history = []
    status = "NumericalFailure"
    for it in range(max_iters + 1):
        mu = (_inner(X, Z) + float(s @ z)) / n_total
        rp = b - A(X, s)
        Rd = C - Z - op.adjoint(y)
        rd = -z - sign * y[rows]  # the slacks' dual residual; their cost is 0

        pobj_int = _inner(C, X)
        dobj_int = float(b @ y)
        relgap = abs(pobj_int - dobj_int) / (1.0 + abs(pobj_int))
        pres = float(np.linalg.norm(rp)) / norm_b
        dres = max([float(np.linalg.norm(Rd))] + np.abs(rd).tolist()) / norm_C
        # reported in the user's (maximization) orientation
        history.append((mu, relgap, pres, dres, -pobj_int, -dobj_int))

        if relgap <= tol and pres <= tol and dres <= tol:
            status = "Optimal"
            break
        if it == max_iters:
            break

        try:
            # primal-infeasibility certificate: A*(y) <= 0 with b^T y > 0
            ynorm = float(np.linalg.norm(y))
            if ynorm > 1e6 * norm_b:
                yhat = y / ynorm
                lam = max(float(np.linalg.eigvalsh(op.adjoint(yhat))[-1]),
                          float(np.max(sign * yhat[rows], initial=-np.inf)))
                if b @ yhat > 1e-8 and lam <= 1e-8:
                    status = "Infeasible"
                    break

            if not all(v > 0 for v in s.tolist() + z.tolist()):
                raise np.linalg.LinAlgError("a slack is not positive")
            L = np.linalg.inv(np.linalg.cholesky(np.stack([X, Z])))  # Lx^-1, Lz^-1
            LH = L.conj().transpose(0, 2, 1)
            Zi = LH[1] @ L[1]
            zi = 1.0 / z
            M = op.schur(X, Zi)
            M[rows, rows] += s * zi
            # the Schur matrix is positive definite while X, Z are (HKM direction)
            Ls = np.linalg.inv(np.linalg.cholesky(M))  # M^-1 = Ls^T Ls
            base_rhs = b + A(X @ Rd @ Zi, s * rd * zi)

            def direction(rhs, target, Corr, corr):
                """The HKM step for the right-hand side rhs toward X Z =
                target I, with the second-order term (Corr, corr), and its
                (primal, dual) step lengths."""
                dy = Ls.T @ (Ls @ rhs)
                dZ = Rd - op.adjoint(dy)
                dz = rd - sign * dy[rows]
                dX = _herm(target * Zi - X - X @ dZ @ Zi - Corr)
                ds = target * zi - s - s * dz * zi - corr
                return (dX, ds, dZ, dz, dy), _step_lengths(L, LH, dX, dZ, s, ds, z, dz)

            # predictor (affine scaling, sigma = 0)
            (dX_a, ds_a, dZ_a, dz_a, _), (ap_a, ad_a) = direction(base_rhs, 0.0, 0.0, 0.0)
            mu_aff = (_inner(X + ap_a * dX_a, Z + ad_a * dZ_a)
                      + float((s + ap_a * ds_a) @ (z + ad_a * dz_a))) / n_total
            sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

            # corrector with the Mehrotra second-order term
            Corr = dX_a @ dZ_a @ Zi
            corr = ds_a * dz_a * zi
            rhs = base_rhs - sigma * mu * A(Zi, zi) + A(Corr, corr)
            (dX, ds, dZ, dz, dy), (ap, ad) = direction(rhs, sigma * mu, Corr, corr)
        except np.linalg.LinAlgError:  # a breakdown: status stays NumericalFailure
            break
        X, s = _herm(X + ap * dX), s + ap * ds
        Z, z = _herm(Z + ad * dZ), z + ad * dz
        y = y + ad * dy

    return SdpSolution(
        X=X,
        objective_value=float(-pobj_int),
        dual_value=float(-dobj_int),
        duality_gap=float(abs(pobj_int - dobj_int)),
        status=status,
        iterations=it,
        history=history,
        Z=Z, y=y, s=s, z=z,
    )
