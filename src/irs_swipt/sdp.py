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
L^-1 dS L^-H per block and step) and gives Z^-1 = L^-H L^-1.  A block that
loses definiteness ends the solve as NumericalFailure.  Dense factorizations
are fine at the dimensions used here (<= ~64).
Inequality constraints become equalities with 1x1 slack blocks (Hermitian,
hence real once the iterate is symmetrized).  A constraint term may be given
as a 1-D array, the real diagonal of a diagonal matrix, which skips building
and scanning the dense matrix.
"""

from dataclasses import dataclass
import numpy as np

from .errors import InvalidInput
from .linalg import is_hermitian

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 200
STEP_FRACTION = 0.98
DIAG_DETECT_TOL = 1e-14


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


class _Term:
    """One constraint's footprint on one block, diagonal-aware: mat is a
    diagonal given as a 1-D array, or a dense matrix scanned for one."""

    __slots__ = ("row", "dense", "diag")

    def __init__(self, row, mat):
        self.row = row
        if mat.ndim == 1:
            self.diag, self.dense = mat, None
            return
        off = mat - np.diag(np.diag(mat))
        scale = max(np.max(np.abs(mat)), 1e-300)
        if np.max(np.abs(off)) <= DIAG_DETECT_TOL * scale:
            self.diag = np.diag(mat).real.copy()
            self.dense = None
        else:
            self.diag = None
            self.dense = mat


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

        # per-block constraint footprints, split into diagonal and dense terms
        self.block_terms = []
        for k in range(len(self.dims)):
            terms = [_Term(i, row[k]) for i, row in enumerate(rows) if k in row]
            diag_terms = [t for t in terms if t.diag is not None]
            dense_terms = [t for t in terms if t.dense is not None]
            dmat = (np.array([t.diag for t in diag_terms])
                    if diag_terms else np.zeros((0, self.dims[k])))
            self.block_terms.append({
                "diag_rows": np.array([t.row for t in diag_terms], dtype=int),
                "D": dmat,
                "dense": dense_terms,
            })

        self.norm_b = max(1.0, float(np.linalg.norm(self.b)))
        self.norm_C = max(1.0, max((np.linalg.norm(c) for c in self.C), default=1.0))
        self.norm_A = max(
            [1.0]
            + [float(np.linalg.norm(t.dense)) for bt in self.block_terms for t in bt["dense"]]
            + [float(np.linalg.norm(bt["D"])) for bt in self.block_terms if bt["D"].size]
        )

    def apply(self, mats):
        """A(Y): the vector Re tr(A_i Y) at blocks Y (not nec. Hermitian)."""
        out = np.zeros(self.m)
        for k, bt in enumerate(self.block_terms):
            y = mats[k]
            if bt["D"].size:
                out[bt["diag_rows"]] += bt["D"] @ np.diag(y).real
            for t in bt["dense"]:
                out[t.row] += _inner(t.dense, y)
        return out

    def adjoint(self, y):
        """A*(y): per-block sum of y_i A_i."""
        out = []
        for k, bt in enumerate(self.block_terms):
            s = np.zeros((self.dims[k], self.dims[k]), dtype=complex)
            if bt["D"].size:
                s[np.diag_indices(self.dims[k])] += bt["D"].T @ y[bt["diag_rows"]]
            for t in bt["dense"]:
                s += y[t.row] * t.dense
            out.append(s)
        return out

    def schur(self, X, Zi):
        """M_ij = sum_k Re tr(A_i X A_j Z^{-1}), assembled blockwise.

        Diagonal-diagonal pairs reduce to D Re(X .* Zi^T) D^T; dense terms
        fill whole rows/columns which are mirrored by symmetry.
        """
        M = np.zeros((self.m, self.m))
        for k, bt in enumerate(self.block_terms):
            x, zi = X[k], Zi[k]
            rows = bt["diag_rows"]
            if bt["D"].size:
                core = bt["D"] @ (x * zi.T).real @ bt["D"].T
                M[np.ix_(rows, rows)] += core
            dense = bt["dense"]
            for jt, t in enumerate(dense):
                u = x @ t.dense @ zi  # X A_j Zi with j = t.row
                if bt["D"].size:
                    vals = bt["D"] @ np.diag(u).real
                    M[rows, t.row] += vals
                    M[t.row, rows] += vals
                for s in dense[:jt + 1]:  # lower triangle; Re tr(A_i X A_j Zi) is symmetric
                    val = _inner(s.dense, u)
                    M[s.row, t.row] += val
                    if s.row != t.row:
                        M[t.row, s.row] += val
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


def _spd_solver(M):
    """rhs -> M^-1 rhs for the Schur matrix, factored once for the predictor
    and the corrector: by Cholesky, else by a ridge-regularized solve, else by
    least squares."""
    try:
        li = np.linalg.inv(np.linalg.cholesky(M))
        return lambda rhs: li.T @ (li @ rhs)
    except np.linalg.LinAlgError:
        pass
    ridge = 1e-12 * (np.trace(M) / max(M.shape[0], 1) + 1.0)

    def fallback(rhs):
        try:
            return np.linalg.solve(M + ridge * np.eye(M.shape[0]), rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(M, rhs, rcond=None)[0]
    return fallback


def solve_sdp(problem, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS, log_file=None):
    """Solve an SdpProblem; the objective is maximized.

    Returns an SdpSolution.  status is 'Optimal' when the relative duality gap
    and the feasibility residuals are all below tol; 'Infeasible' when a
    primal-infeasibility certificate is found; 'NumericalFailure' when the
    iteration cap passes without gap closure or an iterate block fails its
    Cholesky factorization.
    """
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

    log_lines = []
    status = "NumericalFailure"
    iters_done = max_iters

    for it in range(1, max_iters + 1):
        mu = sum(_inner(x, z) for x, z in zip(X, Z)) / n_total
        rp = asm.b - asm.apply(X)
        Ay = asm.adjoint(y)
        Rd = [c - z - ay for c, z, ay in zip(asm.C, Z, Ay)]

        pobj_int = sum(_inner(c, x) for c, x in zip(asm.C, X))
        dobj_int = float(asm.b @ y)
        gap = pobj_int - dobj_int
        relgap = abs(gap) / (1.0 + abs(pobj_int))
        pres = float(np.linalg.norm(rp)) / asm.norm_b
        dres = max(float(np.linalg.norm(r)) for r in Rd) / asm.norm_C

        if log_file is not None:
            log_lines.append(f"iter {it:3d}  mu {mu:.3e}  gap {relgap:.3e}  "
                             f"pres {pres:.3e}  dres {dres:.3e}  pobj {-pobj_int:+.9e}  "
                             f"dobj {-dobj_int:+.9e}")

        if relgap <= tol and pres <= tol and dres <= tol:
            status = "Optimal"
            iters_done = it - 1
            break

        # primal-infeasibility certificate: A*(y) <= 0 with b^T y > 0
        ynorm = float(np.linalg.norm(y))
        if ynorm > 1e6 * asm.norm_b:
            yhat = y / ynorm
            lam = max(float(np.linalg.eigvalsh(r)[-1]) for r in asm.adjoint(yhat))
            if asm.b @ yhat > 1e-8 and lam <= 1e-8:
                status = "Infeasible"
                iters_done = it - 1
                break

        try:
            Lx = [_whitener(x) for x in X]
            Lz = [_whitener(z) for z in Z]
        except np.linalg.LinAlgError:  # an iterate left the cone: status stays NumericalFailure
            iters_done = it - 1
            break
        Zi = [lz.conj().T @ lz for lz in Lz]

        solve_schur = _spd_solver(asm.schur(X, Zi))
        XRZ = [x @ r @ zi for x, r, zi in zip(X, Rd, Zi)]
        base_rhs = asm.b + asm.apply(XRZ)
        a_zi = asm.apply(Zi)

        # predictor (affine scaling, sigma = 0)
        dy_a = solve_schur(base_rhs)
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
        dy = solve_schur(rhs)
        Ady = asm.adjoint(dy)
        dZ = [r - a for r, a in zip(Rd, Ady)]
        dX = [_herm(sigma * mu * zi - x - x @ dz @ zi - co)
              for x, dz, zi, co in zip(X, dZ, Zi, corr)]

        ap = min(1.0, STEP_FRACTION * _step_to_boundary(Lx, dX))
        ad = min(1.0, STEP_FRACTION * _step_to_boundary(Lz, dZ))
        X = [_herm(x + ap * dx) for x, dx in zip(X, dX)]
        Z = [_herm(z + ad * dz) for z, dz in zip(Z, dZ)]
        y = y + ad * dy

    if log_file is not None:
        with open(log_file, "a") as fh:
            fh.write("\n".join(log_lines) + "\n")

    # report in the user's (maximization) orientation
    pobj_ext = -sum(_inner(c, x) for c, x in zip(asm.C, X))
    dobj_ext = -float(asm.b @ y)
    return SdpSolution(
        blocks=X[:problem.n_blocks],
        objective_value=float(pobj_ext),
        dual_value=float(dobj_ext),
        duality_gap=float(abs(pobj_ext - dobj_ext)),
        status=status,
        iterations=iters_done,
        primal_residual=float(np.linalg.norm(asm.b - asm.apply(X)) / asm.norm_b),
        dual_residual=float(dres),
    )
