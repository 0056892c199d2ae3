"""A small dense semidefinite-program solver.

Problems are stated over complex Hermitian PSD blocks with a real linear
objective (maximized) and linear trace constraints; the iterates stay in
native complex Hermitian arithmetic, with no real embedding.  The inner
product is Re tr(A^H B), so objective and constraint values are the complex
traces the caller wrote down.

The solver is an infeasible-start primal-dual path-following method with the
XZ (HKM) search direction and a Mehrotra predictor-corrector step.  Each
iteration factors every X and Z block once as L L^H: L^-1 whitens both the
predictor's and the corrector's step to the boundary (one eigvalsh of
L^-1 dS L^-H per block and step) and gives Z^-1 = L^-H L^-1.  The Schur
matrix tr(A_i X A_j Z^-1) is positive definite while X, Z are and the
constraints are independent, so it is solved by Cholesky alone.  A breakdown
of any of these factorizations or eigvalsh calls ends the solve as
NumericalFailure; nothing is regularized.  Dense factorizations are fine at
the dimensions used here (<= ~64).
Inequality constraints become equalities with 1x1 slack blocks (Hermitian,
hence real once the iterate is symmetrized).  Constraint terms are taken as
given: a 1-D array is the real diagonal of a diagonal matrix and a 2-D array
is dense; dense data is not scanned for structure.
The convergence history lives in the result: SdpSolution.history holds the
gap, residuals and objectives of every iterate.
"""

from dataclasses import dataclass
import numpy as np

from .errors import InvalidInput
from .linalg import is_hermitian

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 200
STEP_FRACTION = 0.98


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _inner(a, b):
    """Re tr(A^H B)."""
    return float(np.vdot(a, b).real)


@dataclass
class SdpSolution:
    blocks: list
    objective_value: float
    dual_value: float
    duality_gap: float
    status: str           # Optimal | Infeasible | NumericalFailure
    iterations: int
    primal_residual: float
    dual_residual: float
    history: list         # (mu, relgap, pres, dres, pobj, dobj) per iterate


class SdpProblem:
    """Maximize sum_k tr(C_k X_k) over Hermitian PSD blocks X_k subject to
    linear trace constraints.  Blocks are added first, then objective terms
    and constraints referencing them by index."""

    def __init__(self):
        self._dims = []
        self.objective = {}    # block index -> matrix
        self.constraints = []  # (terms dict, sense, rhs)

    @property
    def n_blocks(self):
        return len(self._dims)

    def add_hermitian_block(self, dim):
        if dim < 1:
            raise InvalidInput("block dimension must be >= 1")
        self._dims.append(dim)
        return len(self._dims) - 1

    def _check_matrix(self, block, mat):
        mat = np.asarray(mat)
        d = self._dims[block]
        if mat.shape != (d, d):
            raise InvalidInput(f"matrix shape {mat.shape} does not match block dim {d}")
        mat = mat.astype(complex)
        if not is_hermitian(mat):
            raise InvalidInput("block data must be Hermitian")
        return _herm(mat)

    def add_objective(self, block, mat):
        mat = self._check_matrix(block, mat)
        if block in self.objective:
            self.objective[block] = self.objective[block] + mat
        else:
            self.objective[block] = mat

    def _check_diagonal(self, block, diag):
        diag = np.asarray(diag)
        d = self._dims[block]
        if diag.shape != (d,):
            raise InvalidInput(f"diagonal shape {diag.shape} does not match block dim {d}")
        if np.iscomplexobj(diag) and np.any(diag.imag != 0):
            raise InvalidInput("the diagonal of a Hermitian term must be real")
        return diag.real.astype(float)

    def add_constraint(self, terms, sense, rhs):
        """terms: iterable of (block index, matrix), a 1-D array standing for
        the diagonal of a diagonal matrix; sense in {'==','<=','>='}."""
        if sense not in ("==", "<=", ">="):
            raise InvalidInput(f"unknown sense {sense!r}")
        tdict = {}
        for block, mat in terms:
            if np.ndim(mat) == 1:
                mat = self._check_diagonal(block, mat)
            else:
                mat = self._check_matrix(block, mat)
            if block in tdict:
                old = tdict[block]
                if old.ndim != mat.ndim:  # a diagonal plus a dense term is dense
                    old, mat = (np.diag(x) if x.ndim == 1 else x for x in (old, mat))
                tdict[block] = old + mat
            else:
                tdict[block] = mat
        if not tdict:
            raise InvalidInput("constraint references no blocks")
        self.constraints.append((tdict, sense, float(rhs)))


class _Assembled:
    """Standard form: min Re tr(C X), A(X) = b, X >= 0 (blockwise)."""

    def __init__(self, problem):
        self.dims = list(problem._dims)

        # internal minimization: flip the sign of the (maximized) objective
        self.C = [np.zeros((d, d), dtype=complex) for d in self.dims]
        for blk, mat in problem.objective.items():
            self.C[blk] = self.C[blk] - mat

        rows = [dict(tdict) for tdict, _, _ in problem.constraints]
        self.b = np.array([b for _, _, b in problem.constraints], dtype=float)
        # slacks turn inequalities into equalities
        for i, (_, sense, _) in enumerate(problem.constraints):
            if sense == "==":
                continue
            self.dims.append(1)
            self.C.append(np.zeros((1, 1), dtype=complex))
            rows[i][len(self.dims) - 1] = np.array([1.0 if sense == "<=" else -1.0])
        self.m = len(rows)

        # per-block constraint footprints: a 1-D term is a diagonal, a 2-D one dense
        self.block_terms = []  # (diagonal rows, their diagonals D, [(row, dense matrix)])
        for k, d in enumerate(self.dims):
            terms = [(i, row[k]) for i, row in enumerate(rows) if k in row]
            diag = [(i, t) for i, t in terms if t.ndim == 1]
            self.block_terms.append((
                np.array([i for i, _ in diag], dtype=int),
                np.array([t for _, t in diag]) if diag else np.zeros((0, d)),
                [(i, t) for i, t in terms if t.ndim == 2],
            ))

        self.norm_b = max(1.0, float(np.linalg.norm(self.b)))
        self.norm_C = max(1.0, max((np.linalg.norm(c) for c in self.C), default=1.0))
        self.norm_A = max(
            [1.0]
            + [float(np.linalg.norm(a)) for _, _, dense in self.block_terms for _, a in dense]
            + [float(np.linalg.norm(D)) for _, D, _ in self.block_terms if D.size]
        )

    def apply(self, mats):
        """A(Y): the vector Re tr(A_i Y) at blocks Y (not nec. Hermitian)."""
        out = np.zeros(self.m)
        for (rows, D, dense), y in zip(self.block_terms, mats):
            if D.size:
                out[rows] += D @ np.diag(y).real
            for i, a in dense:
                out[i] += _inner(a, y)
        return out

    def adjoint(self, y):
        """A*(y): per-block sum of y_i A_i."""
        out = []
        for (rows, D, dense), d in zip(self.block_terms, self.dims):
            s = np.zeros((d, d), dtype=complex)
            if D.size:
                s[np.diag_indices(d)] += D.T @ y[rows]
            for i, a in dense:
                s += y[i] * a
            out.append(s)
        return out

    def schur(self, X, Zi):
        """M_ij = sum_k Re tr(A_i X A_j Z^{-1}), assembled blockwise.

        Diagonal-diagonal pairs reduce to D Re(X .* Zi^T) D^T; dense terms
        fill whole rows/columns which are mirrored by symmetry.
        """
        M = np.zeros((self.m, self.m))
        for (rows, D, dense), x, zi in zip(self.block_terms, X, Zi):
            if D.size:
                M[np.ix_(rows, rows)] += D @ (x * zi.T).real @ D.T
            for jt, (j, a) in enumerate(dense):
                u = x @ a @ zi  # X A_j Zi
                if D.size:
                    vals = D @ np.diag(u).real
                    M[rows, j] += vals
                    M[j, rows] += vals
                for i, s in dense[:jt + 1]:  # lower triangle; Re tr(A_i X A_j Zi) is symmetric
                    val = _inner(s, u)
                    M[i, j] += val
                    if i != j:
                        M[j, i] += val
        return 0.5 * (M + M.T)


def _whitener(s):
    """L^-1 for the Cholesky factor s = L L^H; LinAlgError if s is not positive definite."""
    if s.shape[0] == 1:  # slack blocks
        if not s[0, 0].real > 0:
            raise np.linalg.LinAlgError("slack block is not positive")
        return 1.0 / np.sqrt(s.real)
    return np.linalg.inv(np.linalg.cholesky(s))


def _step_to_boundary(whiteners, deltas):
    """Largest alpha with S + alpha*dS PSD in every block, S = L L^H given by
    L^-1: the bound is -1/lambda_min(L^-1 dS L^-H) when that is negative."""
    alpha = np.inf
    for li, ds in zip(whiteners, deltas):
        w = li @ ds @ li.conj().T
        lam = w[0, 0].real if w.shape[0] == 1 else np.linalg.eigvalsh(w)[0]
        if lam < 0:
            alpha = min(alpha, -1.0 / lam)
    return alpha


def solve_sdp(problem, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """Solve an SdpProblem; the objective is maximized.

    Returns an SdpSolution.  status is 'Optimal' when the relative duality gap
    and the feasibility residuals are all below tol; 'Infeasible' when a
    primal-infeasibility certificate is found; 'NumericalFailure' when
    max_iters steps pass without gap closure or an iteration breaks down
    (an iterate block or the Schur matrix fails its Cholesky factorization,
    or a step-length eigvalsh fails).  history[k] is the iterate after k
    steps, as (mu, relgap, pres, dres, pobj, dobj), so it holds
    iterations + 1 entries.
    """
    if not tol > 0:
        raise InvalidInput(f"tol must be > 0, got {tol}")
    asm = _Assembled(problem)
    m = asm.m
    if m == 0:
        raise InvalidInput("problem has no constraints")
    n_total = sum(asm.dims)

    tau_p = 10.0 * max(1.0, float(np.max(np.abs(asm.b))) / asm.norm_A)
    tau_d = 10.0 * max(1.0, asm.norm_C / np.sqrt(n_total), asm.norm_A)
    X = [tau_p * np.eye(d, dtype=complex) for d in asm.dims]
    Z = [tau_d * np.eye(d, dtype=complex) for d in asm.dims]
    y = np.zeros(m)

    history = []
    status = "NumericalFailure"
    for it in range(max_iters + 1):
        mu = sum(_inner(x, z) for x, z in zip(X, Z)) / n_total
        rp = asm.b - asm.apply(X)
        Ay = asm.adjoint(y)
        Rd = [c - z - ay for c, z, ay in zip(asm.C, Z, Ay)]

        pobj_int = sum(_inner(c, x) for c, x in zip(asm.C, X))
        dobj_int = float(asm.b @ y)
        relgap = abs(pobj_int - dobj_int) / (1.0 + abs(pobj_int))
        pres = float(np.linalg.norm(rp)) / asm.norm_b
        dres = max(float(np.linalg.norm(r)) for r in Rd) / asm.norm_C
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
            if ynorm > 1e6 * asm.norm_b:
                yhat = y / ynorm
                lam = max(float(np.linalg.eigvalsh(r)[-1]) for r in asm.adjoint(yhat))
                if asm.b @ yhat > 1e-8 and lam <= 1e-8:
                    status = "Infeasible"
                    break

            Lx = [_whitener(x) for x in X]
            Lz = [_whitener(z) for z in Z]
            Zi = [lz.conj().T @ lz for lz in Lz]
            # the Schur matrix is positive definite while X, Z are (HKM direction)
            Ls = np.linalg.inv(np.linalg.cholesky(asm.schur(X, Zi)))  # M^-1 = Ls^T Ls
            XRZ = [x @ r @ zi for x, r, zi in zip(X, Rd, Zi)]
            base_rhs = asm.b + asm.apply(XRZ)
            a_zi = asm.apply(Zi)

            # predictor (affine scaling, sigma = 0)
            dy_a = Ls.T @ (Ls @ base_rhs)
            Ady_a = asm.adjoint(dy_a)
            dZ_a = [r - a for r, a in zip(Rd, Ady_a)]
            dX_a = [_herm(-x - x @ dz @ zi) for x, dz, zi in zip(X, dZ_a, Zi)]
            ap_a = min(1.0, STEP_FRACTION * _step_to_boundary(Lx, dX_a))
            ad_a = min(1.0, STEP_FRACTION * _step_to_boundary(Lz, dZ_a))
            mu_aff = sum(_inner(x + ap_a * dx, z + ad_a * dz)
                         for x, dx, z, dz in zip(X, dX_a, Z, dZ_a)) / n_total
            sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

            # corrector with the Mehrotra second-order term
            corr = [dx @ dz @ zi for dx, dz, zi in zip(dX_a, dZ_a, Zi)]
            rhs = base_rhs - sigma * mu * a_zi + asm.apply(corr)
            dy = Ls.T @ (Ls @ rhs)
            Ady = asm.adjoint(dy)
            dZ = [r - a for r, a in zip(Rd, Ady)]
            dX = [_herm(sigma * mu * zi - x - x @ dz @ zi - co)
                  for x, dz, zi, co in zip(X, dZ, Zi, corr)]

            ap = min(1.0, STEP_FRACTION * _step_to_boundary(Lx, dX))
            ad = min(1.0, STEP_FRACTION * _step_to_boundary(Lz, dZ))
        except np.linalg.LinAlgError:  # a breakdown: status stays NumericalFailure
            break
        X = [_herm(x + ap * dx) for x, dx in zip(X, dX)]
        Z = [_herm(z + ad * dz) for z, dz in zip(Z, dZ)]
        y = y + ad * dy

    return SdpSolution(
        blocks=X[:problem.n_blocks],
        objective_value=float(-pobj_int),
        dual_value=float(-dobj_int),
        duality_gap=float(abs(pobj_int - dobj_int)),
        status=status,
        iterations=it,
        primal_residual=pres,
        dual_residual=dres,
        history=history,
    )
