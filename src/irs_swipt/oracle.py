"""Phase-grid references at desk scale.

grid_search_joint enumerates the IRS phase profile over a per-element phase
grid and solves the beamformer exactly for each profile.  For a fixed
augmented profile v, let r, b, e = H_r^H v, H_b^H v, H_e^H v.  The harvested
power is zeta |r^H w|^2 and the secrecy constraint reads w^H A w >= (2^r0 - 1) s2
with A = b b^H - 2^r0 e e^H.  As 2^r0 > 1, scaling w up never hurts either,
so full power is optimal: w = sqrt(Ps) x with x solving

    max x^H R x   s.t.  x^H A x >= c,  ||x|| = 1,     R = r r^H,  c = (2^r0 - 1) s2 / Ps.

A QCQP with two constraints has a tight semidefinite relaxation (Huang &
Palomar, IEEE TSP 2010), so its value is that of the convex 1-D dual
min_{lam >= 0} lambda_max(R + lam A) - lam c.  That dual is minimized by
golden-section search for all profiles of a chunk at once, with lambda_max in
closed form for M <= 2 and by a batched eigvalsh for M = 3.  A profile is
infeasible when lambda_max(A) <= c, and its value is ||r||^2 when MRT
(x = r / ||r||) already meets the constraint.  The beamformer is recovered at
the winning profile only, and the value returned is the harvested power of
the recovered pair.

grid_search_phases scans the same phase grid for a fixed beamformer.

Neither shares code with the solvers they check (nothing from sdr, sca or
sdp).  Everything is deterministic: profiles are scanned in a fixed order and
ties break toward the lowest grid index.
"""

from dataclasses import dataclass
import numpy as np

from .errors import GridTooLarge, InvalidInput, SubproblemInfeasible
from .metrics import harvested_power

EVAL_CAP = 10 ** 8          # phase profiles per search
CHUNK = 2 ** 14             # profiles per batch, which bounds memory at N = 3
GOLDEN_STEPS = 80           # the dual bracket shrinks to 0.618**80 ~ 2e-17 of its width
MAX_BISECTIONS = 200        # halvings per bisection in the recovery
INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass
class GridSpec:
    """Grid of a brute-force search.

    phase_levels is the number of phases per IRS element.  subspace_points
    and power_levels are still validated and accepted, as the acceptance
    suite passes them, but no longer change the result: the beamformer is
    solved exactly for each profile, at full power.
    """

    phase_levels: int = 64
    subspace_points: int = 512
    power_levels: int = 2

    def __post_init__(self):
        if self.phase_levels < 2 or self.subspace_points < 2:
            raise InvalidInput("grid levels must be >= 2")
        if self.power_levels < 1:
            raise InvalidInput("power_levels must be >= 1")


def _phase_chunks(n, levels, chunk=CHUNK):
    """Yield the full levels**n unit-modulus grid in blocks of rows U, in
    mixed-radix candidate order (element 0 varies slowest)."""
    total = levels ** n
    roots = np.exp(2j * np.pi * np.arange(levels) / levels)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        digits = np.empty((idx.size, n), dtype=int)
        rem = idx
        for j in range(n - 1, -1, -1):
            digits[:, j] = rem % levels
            rem = rem // levels
        yield roots[digits] if n else np.zeros((idx.size, 0), dtype=complex)


def _lam_max(S):
    """Largest eigenvalue of each Hermitian matrix of the (B, M, M) stack S."""
    m = S.shape[-1]
    if m == 1:
        return S[:, 0, 0].real
    if m == 2:
        a, d = S[:, 0, 0].real, S[:, 1, 1].real
        return 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(S[:, 0, 1]))
    return np.linalg.eigvalsh(S)[:, -1]


def _outer(x):
    return x[:, :, None] * x[:, None, :].conj()


def _profile_values(r, b, e, gain, c):
    """max x^H R x s.t. x^H A x >= c, ||x|| = 1 for each row of r, b, e
    (B, M); -inf where no unit x meets the constraint."""
    A = _outer(b) - gain * _outer(e)
    rr = np.sum(np.abs(r) ** 2, axis=1)
    mrt = (rr > 0) & (np.abs(np.sum(r.conj() * b, axis=1)) ** 2
                      - gain * np.abs(np.sum(r.conj() * e, axis=1)) ** 2 >= c * rr)
    gap = _lam_max(A) - c
    values = np.where(mrt | (gap > 0), rr, -np.inf)
    dual = ~mrt & (gap > 0)  # profiles whose constraint binds
    if dual.any():
        values[dual] = _dual_minimum(_outer(r[dual]), A[dual], rr[dual] / gap[dual], c)
    return values


def _dual_minimum(R, A, hi, c):
    """min over lam in [0, hi] of lambda_max(R + lam A) - lam c, per stack
    entry, by golden-section search (the function is convex).  hi must bound
    the minimizer: ||r||^2 / (lambda_max(A) - c) does, as the function is at
    least lam (lambda_max(A) - c) and equals ||r||^2 at 0."""

    def dual(lam):
        return _lam_max(R + lam[:, None, None] * A) - lam * c

    lo = np.zeros_like(hi)
    x1, x2 = hi - INV_PHI * hi, INV_PHI * hi
    f1, f2 = dual(x1), dual(x2)
    for _ in range(GOLDEN_STEPS):
        left = f1 <= f2  # a minimizer lies in [lo, x2]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x1, x2 = (np.where(left, hi - INV_PHI * (hi - lo), x2),
                  np.where(left, x1, lo + INV_PHI * (hi - lo)))
        f_new = dual(np.where(left, x1, x2))
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    return np.minimum(f1, f2)


def _bisect(ok, lo, hi):
    """Shrink [lo, hi], where the monotone predicate ok turns true between
    lo and hi (ok(hi) true), down to rounding."""
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return lo, hi


def _recover_direction(r, b, e, gain, c):
    """Unit x attaining the value of one feasible profile.

    MRT when it meets the constraint.  Otherwise the dual optimum lam* > 0
    is bisected on its derivative x(lam)^H A x(lam) - c, x(lam) the top
    eigenvector of R + lam A, which is nondecreasing in lam.  The end
    eigenvectors of the final bracket span the top eigenspace at lam* (two-
    dimensional when eigenvalues cross there), and x is the point of their
    segment where x^H A x reaches c, on its feasible side.
    """
    R = np.outer(r, r.conj())
    A = np.outer(b, b.conj()) - gain * np.outer(e, e.conj())

    def slack(x):
        return np.vdot(x, A @ x).real - c * np.vdot(x, x).real

    def top(lam):
        return np.linalg.eigh(R + lam * A)[1][:, -1]

    rr = np.vdot(r, r).real
    if rr > 0 and slack(r) >= 0:
        return r / np.sqrt(rr)
    vals_a, vecs_a = np.linalg.eigh(A)
    hi = 2.0 * rr / (vals_a[-1] - c) if vals_a[-1] > c else 0.0
    if rr == 0 or hi == 0 or slack(top(hi)) < 0:
        # every feasible x is optimal (r = 0), or lambda_max(A) - c is at rounding level
        return vecs_a[:, -1]
    lo, hi = _bisect(lambda lam: slack(top(lam)) >= 0, 0.0, hi)
    x_lo, x_hi = top(lo), top(hi)
    s = np.vdot(x_hi, x_lo)
    if s != 0:
        x_hi = x_hi * (s / abs(s))  # phase-align the ends so the segment avoids 0
    t = _bisect(lambda t: slack((1.0 - t) * x_lo + t * x_hi) >= 0, 0.0, 1.0)[1]
    x = (1.0 - t) * x_lo + t * x_hi
    return x / np.linalg.norm(x)


def grid_search_joint(channels, cfg, grid):
    """Joint reference for tiny instances (N <= 3, M <= 3): the best profile
    of the phase grid, with the exactly optimal beamformer for it.

    Returns (w, u, harvested watts of that pair).  Raises
    SubproblemInfeasible when no profile of the grid can meet the secrecy
    target.
    """
    n, m = cfg.N, cfg.M
    if n > 3 or m > 3:
        raise InvalidInput("joint grid search is limited to N <= 3, M <= 3")
    total = grid.phase_levels ** n
    if total > EVAL_CAP:
        raise GridTooLarge(f"{total} phase profiles exceed the cap {EVAL_CAP}")

    gain = 2.0 ** cfg.r0
    c = (gain - 1.0) * cfg.sigma2_w / cfg.ps_w
    best, best_u, best_rbe = -np.inf, None, None
    for U in _phase_chunks(n, grid.phase_levels):
        V = np.concatenate([U, np.ones((U.shape[0], 1))], axis=1)
        rbe = [V @ H.conj() for H in (channels.H_r, channels.H_b, channels.H_e)]  # rows H^H v
        vals = _profile_values(*rbe, gain, c)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_u, best_rbe = vals[k], U[k].copy(), [x[k] for x in rbe]

    if best_u is None:
        raise SubproblemInfeasible("no profile of the phase grid meets the secrecy target")
    w = np.sqrt(cfg.ps_w) * _recover_direction(*best_rbe, gain, c)
    return w, best_u, harvested_power(w, best_u, channels, cfg.zeta)


def grid_search_phases(channels, w, cfg, levels):
    """Exhaustive phase reference for a fixed beamformer (N <= 4).

    Returns (u, value) maximizing |u^H a + alpha|^2 over the per-element phase
    grid subject to the secrecy constraint.  Raises SubproblemInfeasible when
    no profile of the grid meets it.
    """
    n = cfg.N
    if n > 4:
        raise InvalidInput("phase grid search is limited to N <= 4")
    if levels ** max(n, 1) > EVAL_CAP:
        raise GridTooLarge(f"{levels ** n} evaluations exceed the cap {EVAL_CAP}")
    w = np.asarray(getattr(w, "w", w), dtype=complex)
    rw, bw, ew = channels.H_r @ w, channels.H_b @ w, channels.H_e @ w
    gain = 2.0 ** cfg.r0
    s2 = cfg.sigma2_w

    best = (-np.inf, None)
    for U in _phase_chunks(n, levels):
        ar = np.abs(U.conj() @ rw[:n] + rw[n]) ** 2
        ab = np.abs(U.conj() @ bw[:n] + bw[n]) ** 2
        ae = np.abs(U.conj() @ ew[:n] + ew[n]) ** 2
        vals = np.where(ab + s2 >= gain * (ae + s2), ar, -np.inf)
        b = int(np.argmax(vals))
        if vals[b] > best[0]:
            best = (float(vals[b]), U[b].copy())
    if best[1] is None:
        raise SubproblemInfeasible("no profile of the phase grid meets the secrecy target")
    return best[1], best[0]
