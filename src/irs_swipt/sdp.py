"""A small dense semidefinite-program solver.

Problems are stated over one complex Hermitian PSD block X with a real linear
objective (maximized) and linear trace constraints, in native complex
arithmetic with no real embedding.  The inner product is Re tr(A^H B), so
objective and constraint values are the complex traces the caller wrote down.

solve_sdp is one infeasible-start primal-dual path-following loop with the
XZ (HKM) search direction and a Mehrotra predictor-corrector step.  It sees
the constraints only through an operator: apply, A(Y)_i = Re tr(A_i Y);
adjoint, A*(y) = sum_i y_i A_i; schur, M_ij = Re tr(A_i X A_j Z^-1); and
the data C and b.  It derives every norm that scales the start itself: those
of b and C, and the largest row norm max_i ||A_i||_F from the diagonal of
schur(I, I).  Two operators are peers: SdpProblem(C, rows) is the generic
reference, every row a dense Hermitian matrix and each map its definition;
UnitDiagonalSdp is the profile SDP's own, a unit diagonal and one Hermitian
inequality row, whose Schur matrix is Re(X .* Z^-T) bordered by that row.

The inequality slacks live in the block.  An operator of n x n data with k
inequality rows works on an (n + k)-square block whose last k diagonal
entries are the slacks, in row order: C is 0 there, and each slack enters
only its own row, with coefficient +1 for '<=' and -1 for '>='.  The HKM
step on such a 1 x 1 entry is the usual slack update, and a block-diagonal
start stays block-diagonal, so one cone serves X and the slacks.

Each iteration factors X and Z in one stacked Cholesky call as L L^H and
inverts both factors in one stacked call: L^-1 whitens the predictor's and
the corrector's step to the boundary (one stacked eigvalsh of L^-1 dS L^-H
per step) and gives Z^-1 = L^-H L^-1.  The Schur matrix is positive definite
while X and Z are and the constraints are independent, so it is solved by
Cholesky alone.  A breakdown of any of these factorizations or eigvalsh
calls (a slack that is not positive fails the first) ends the solve as
NumericalFailure; nothing is regularized.  Dense factorizations are fine at
the dimensions used here (<= ~64).  SdpSolution holds the final iterate
X, Z, y and the gap, residuals and objectives of every iterate.

A solve can be warm-started from the final iterate of a neighbouring problem
of the same block size and row count: X and Z start at (1 - WARM_BLEND)
times that iterate's plus WARM_BLEND times the cold start, y at
(1 - WARM_BLEND) times its y.  The cold part keeps the start strictly
interior and away from the old problem's complementarity (at mu ~ 0 the step
lengths would pin near 0).  Consecutive profile SDPs of sdr_ao differ only
through the beamformer, and a warm start cuts their iterations by about 40%.
A smaller WARM_BLEND saves a few more, but the solve then ends nearer the old
solution within the tolerance, which moved the profiles drawn from it further.
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
    X: np.ndarray         # the final primal block: the n x n variable, then the slacks
    objective_value: float
    dual_value: float
    duality_gap: float
    status: str           # Optimal | Infeasible | NumericalFailure
    iterations: int
    history: list         # (mu, relgap, pres, dres, pobj, dobj) per iterate
    Z: np.ndarray         # the final dual block, laid out as X
    y: np.ndarray         # its constraint multipliers


def _checked(mat, n):
    """A finite Hermitian n x n matrix, as given."""
    mat = np.asarray(mat)
    if mat.shape != (n, n):
        raise InvalidInput(f"shape {mat.shape} does not match dim {n}")
    mat = mat.astype(complex)
    if not np.all(np.isfinite(mat)):
        raise InvalidInput("problem data must be finite")
    if not is_hermitian(mat):
        raise InvalidInput("problem data must be Hermitian")
    return _herm(mat)


def _checked_objective(C):
    """C through _checked, its dimension n taken from its shape."""
    n = np.shape(C)[0] if np.ndim(C) == 2 else 0
    if n < 1:
        raise InvalidInput(f"objective shape {np.shape(C)} is not a non-empty square")
    return _checked(C, n)


def _finite(rhs):
    rhs = float(rhs)
    if not np.isfinite(rhs):
        raise InvalidInput(f"right-hand side {rhs} is not finite")
    return rhs


class SdpProblem:
    """max Re tr(C X) s.t. Re tr(A_i X) (sense_i) b_i, X >= 0: the generic
    operator.  C is Hermitian; rows is an iterable of (A_i, sense, b_i) with
    sense in {'==', '<=', '>='}, A_i a Hermitian n x n matrix and b_i finite.

    With k inequality rows, C (negated: the loop minimizes) and every A_i
    are padded to n + k, and each slack's coefficient is written on its
    diagonal entry.  A holds the padded rows stacked (len(b), n + k, n + k)."""

    def __init__(self, C, rows):
        C = _checked_objective(C)
        n = len(C)

        slack_coef = {"==": 0.0, "<=": 1.0, ">=": -1.0}  # an equality row has no slack
        terms, coefs, b = [], [], []
        for mat, sense, rhs in rows:
            if sense not in slack_coef:
                raise InvalidInput(f"unknown sense {sense!r}")
            terms.append(_checked(mat, n))
            coefs.append(slack_coef[sense])
            b.append(_finite(rhs))
        if not terms:
            raise InvalidInput("problem has no constraints")
        self.b = np.array(b, dtype=float)
        ineq_rows = np.flatnonzero(coefs)
        k = len(ineq_rows)
        self.C = np.pad(-C, (0, k))
        self.A = np.pad(terms, ((0, 0), (0, k), (0, k)))
        for j, i in enumerate(ineq_rows):
            self.A[i, n + j, n + j] = coefs[i]

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
    Hermitian n x n, r finite): the profile SDP, with its structured operator.

    The block is (n + 1)-square, R's slack last: the rows are the n
    unit-diagonal ones, then R~ = diag(R, -1), and C is stored padded.  The
    Schur matrix is Re(X .* Zi^T) on the diagonal rows, bordered by
    Re diag(u) and Re tr(R~ u) for u = X R~ Zi.  The data equal those of the
    same problem stated as an SdpProblem, so both start alike and take the
    same steps up to rounding.
    """

    def __init__(self, C, R, r):
        C = _checked_objective(C)
        n = len(C)
        self.C = np.pad(-C, (0, 1))  # checked and negated as SdpProblem does
        self.R = np.pad(_checked(R, n), (0, 1))
        self.R[n, n] = -1.0
        self.b = np.append(np.ones(n), _finite(r))

    def apply(self, Y):
        out = np.empty(len(self.b))
        out[:-1] = Y.diagonal()[:-1].real
        out[-1] = _inner(self.R, Y)
        return out

    def adjoint(self, y):
        out = y[-1] * self.R
        out.flat[:-1:len(out) + 1] += y[:-1]  # the diagonal but the slack's entry
        return out

    def schur(self, X, Zi):
        n = len(self.b) - 1
        u = X @ self.R @ Zi
        M = np.empty((n + 1, n + 1))
        M[:n, :n] = (X[:n, :n] * Zi[:n, :n].T).real
        M[:n, n] = M[n, :n] = u.diagonal()[:n].real
        M[n, n] = _inner(self.R, u)
        return 0.5 * (M + M.T)


def _step_lengths(L, LH, dX, dZ):
    """(primal, dual) step: STEP_FRACTION of the largest alpha keeping
    X + alpha dX, resp. Z + alpha dZ, in the cone, capped at 1.  With
    X = Lx Lx^H given by L[0] = Lx^-1 (Z likewise by L[1], LH = L^H) that
    bound is -1/lambda_min(Lx^-1 dX Lx^-H) when that is negative; one stacked
    eigvalsh serves both blocks."""
    lam = np.linalg.eigvalsh(L @ np.stack([dX, dZ]) @ LH)[:, 0]
    return [min(1.0, STEP_FRACTION * (-1.0 / lam_k)) if lam_k < 0 else 1.0
            for lam_k in lam.tolist()]


def solve_sdp(op, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, warm=None):
    """Solve the SDP of an operator, an SdpProblem or a UnitDiagonalSdp; the
    objective is maximized.  warm, an SdpSolution of a problem with the same
    block size and row count, warm-starts the solve (see WARM_BLEND); a
    mismatch raises InvalidInput.

    Returns an SdpSolution whose X and Z are the operator's full blocks, the
    slacks last.  status is 'Optimal' when the relative duality gap and the
    feasibility residuals are all below tol; 'Infeasible' when a
    primal-infeasibility certificate is found; 'NumericalFailure' when
    max_iters steps pass without gap closure or an iteration breaks down
    (the stacked X, Z or the Schur matrix fails its Cholesky factorization,
    or a step-length eigvalsh fails).  history[k] is the iterate after k
    steps, as (mu, relgap, pres, dres, pobj, dobj), so it holds
    iterations + 1 entries.
    """
    if not tol > 0:
        raise InvalidInput(f"tol must be > 0, got {tol}")
    if not (isinstance(max_iters, (int, np.integer)) and max_iters >= 0):
        raise InvalidInput(f"max_iters must be an integer >= 0, got {max_iters!r}")
    b, C = op.b, op.C
    n = C.shape[0]
    norm_b = max(1.0, float(np.linalg.norm(b)))
    norm_C = max(1.0, float(np.linalg.norm(C)))

    # the largest row norm: at X = Zi = I the Schur diagonal is Re tr(A_i A_i) = ||A_i||_F^2
    eye = np.eye(n, dtype=complex)
    norm_A = max(1.0, float(np.sqrt(np.max(np.diag(op.schur(eye, eye))))))
    tau_p = 10.0 * max(1.0, float(np.max(np.abs(b))) / norm_A)
    tau_d = 10.0 * max(1.0, norm_C / np.sqrt(n), norm_A)
    X, Z, y = tau_p * eye, tau_d * eye, np.zeros(len(b))
    if warm is not None:
        if (warm.X.shape, warm.y.shape) != (X.shape, y.shape):
            raise InvalidInput(
                f"warm start of block {warm.X.shape} and {warm.y.shape[0]} rows for a "
                f"problem of block {X.shape} and {y.shape[0]} rows")
        keep = 1.0 - WARM_BLEND
        X, Z = keep * warm.X + WARM_BLEND * X, keep * warm.Z + WARM_BLEND * Z
        y = keep * warm.y

    history = []
    status = "NumericalFailure"
    for it in range(max_iters + 1):
        mu = _inner(X, Z) / n
        rp = b - op.apply(X)
        Rd = C - Z - op.adjoint(y)

        pobj_int = _inner(C, X)
        dobj_int = float(b @ y)
        relgap = abs(pobj_int - dobj_int) / (1.0 + abs(pobj_int))
        pres = float(np.linalg.norm(rp)) / norm_b
        dres = float(np.linalg.norm(Rd)) / norm_C
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
                lam = float(np.linalg.eigvalsh(op.adjoint(yhat))[-1])
                if b @ yhat > 1e-8 and lam <= 1e-8:
                    status = "Infeasible"
                    break

            L = np.linalg.inv(np.linalg.cholesky(np.stack([X, Z])))  # Lx^-1, Lz^-1
            LH = L.conj().transpose(0, 2, 1)
            Zi = LH[1] @ L[1]
            # the Schur matrix is positive definite while X, Z are (HKM direction)
            Ls = np.linalg.inv(np.linalg.cholesky(op.schur(X, Zi)))  # M^-1 = Ls^T Ls
            base_rhs = b + op.apply(X @ Rd @ Zi)

            def direction(rhs, target, Corr):
                """The HKM step for the right-hand side rhs toward X Z =
                target I, with the second-order term Corr, and its
                (primal, dual) step lengths."""
                dy = Ls.T @ (Ls @ rhs)
                dZ = Rd - op.adjoint(dy)
                dX = _herm(target * Zi - X - X @ dZ @ Zi - Corr)
                return (dX, dZ, dy), _step_lengths(L, LH, dX, dZ)

            # predictor (affine scaling, sigma = 0)
            (dX_a, dZ_a, _), (ap_a, ad_a) = direction(base_rhs, 0.0, 0.0)
            mu_aff = _inner(X + ap_a * dX_a, Z + ad_a * dZ_a) / n
            sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

            # corrector with the Mehrotra second-order term
            Corr = dX_a @ dZ_a @ Zi
            rhs = base_rhs - sigma * mu * op.apply(Zi) + op.apply(Corr)
            (dX, dZ, dy), (ap, ad) = direction(rhs, sigma * mu, Corr)
        except np.linalg.LinAlgError:  # a breakdown: status stays NumericalFailure
            break
        X, Z, y = _herm(X + ap * dX), _herm(Z + ad * dZ), y + ad * dy

    return SdpSolution(X=X, objective_value=float(-pobj_int), dual_value=float(-dobj_int),
                       duality_gap=float(abs(pobj_int - dobj_int)), status=status,
                       iterations=it, history=history, Z=Z, y=y)
