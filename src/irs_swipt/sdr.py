"""Semidefinite-relaxation alternating optimization.

The joint harvested-power problem is lifted to PSD matrices W = w w^H and
V = v v^H with the rank-one constraints dropped.  With one variable fixed the
other subproblem is a linear SDP, so the two are alternated; both half-steps
can only raise the relaxed objective.  The W half-step has two trace
constraints and therefore a rank-one optimum W = Ps e e^H, found exactly
through its 1-D dual (rank_one_w), so the alternation carries w = sqrt(Ps) e
instead of W.  The V half-step is solved by the interior-point method of
sdp.py.  Only the profile is recovered, by Gaussian randomization against
that w, so the returned pair is jointly feasible; _best_candidate draws, maps
and scores all candidates at once (it also backs randomize_w, kept for a
general lifted W, which sdr_ao does not need).

sdr_ao runs the alternation loop of init.py with the W-step/V-SDP round as
its step and the profile recovery as its recover callable.

Subproblems are assembled in noise-normalized units (channels scaled by
sqrt(Ps)/sigma, trace budget 1) to keep the interior-point iterations well
conditioned, and rescaled on the way out.
"""

import numpy as np

from .errors import NumericalFailure, RecoveryFailed, SubproblemInfeasible
from .init import OUTER_TOL, alternate, initial_phase_profile
from .linalg import herm_eig, psd_sqrt
from .metrics import Beamformer, PhaseProfile
from .sdp import SdpProblem, solve_sdp

RAND_COUNT = 1000  # Gaussian randomization candidates per recovery


def _snr_stacks(channels, cfg):
    scale = np.sqrt(cfg.ps_w) / np.sqrt(cfg.sigma2_w)
    return channels.H_r * scale, channels.H_b * scale, channels.H_e * scale


# Relative bracket width at which the multiplier search stops.  The segment
# between the two ends' eigenvectors follows e(lam) to second order in the
# width, so the objective is far more accurate than the multiplier.
BISECT_REL_WIDTH = 1e-10
MAX_DOUBLINGS = 60
# Bounds the search when the multiplier is 0 at a repeated top eigenvalue of
# Rr: there the relative width shrinks only once rounding makes eigh return
# the lam = 0 eigenvector again.
MAX_HALVINGS = 200


def rank_one_w(Rr, A, c):
    """Unit e maximizing e^H Rr e subject to e^H A e >= c (Rr PSD).

    The SDP max tr(Rr W) s.t. tr(A W) >= c, tr(W) <= 1, W PSD has two trace
    constraints, so it has a rank-one optimum e e^H; its dual is the convex
    1-D problem min_{lam >= 0} lambda_max(Rr + lam A) - lam c, whose
    derivative e(lam)^H A e(lam) - c, e(lam) the top eigenvector of
    Rr + lam A, is nondecreasing.  lam = 0 settles it when the secrecy
    constraint is slack there; otherwise lam is bracketed (from the bound
    lambda_max(Rr) / (lambda_max(A) - c) on the dual optimum, doubled while
    the bound is hit by rounding) and bisected.  The two ends' eigenvectors
    then span the top eigenspace at the optimum, which is two-dimensional
    when eigenvalues cross there: e is the point of their segment where
    e^H A e reaches c, on its feasible side.

    Raises SubproblemInfeasible when lambda_max(A) < c.
    """
    vals_a, vecs_a = np.linalg.eigh(A)
    if vals_a[-1] < c:
        raise SubproblemInfeasible("secrecy target unattainable for the fixed profile")

    def top(lam):
        e = np.linalg.eigh(Rr + lam * A)[1][:, -1]
        return e, float(np.real(np.vdot(e, A @ e)))

    e_lo, g_lo = top(0.0)
    if g_lo >= c:
        return e_lo
    top_r = float(np.real(np.vdot(e_lo, Rr @ e_lo)))  # lambda_max(Rr)
    if top_r <= 0 or vals_a[-1] == c:
        return vecs_a[:, -1]  # every feasible direction is optimal, or only this one is feasible
    lo, hi = 0.0, 2.0 * top_r / (vals_a[-1] - c)
    e_hi, g_hi = top(hi)
    for _ in range(MAX_DOUBLINGS):
        if g_hi >= c:
            break
        lo, e_lo, g_lo = hi, e_hi, g_hi
        hi *= 2.0
        e_hi, g_hi = top(hi)
    else:
        return vecs_a[:, -1]  # lambda_max(A) - c is at rounding level
    for _ in range(MAX_HALVINGS):
        if hi - lo <= BISECT_REL_WIDTH * hi:
            break
        mid = 0.5 * (lo + hi)
        e, g = top(mid)
        if g >= c:
            hi, e_hi, g_hi = mid, e, g
        else:
            lo, e_lo, g_lo = mid, e, g
    return _feasible_combination(e_lo, g_lo, e_hi, g_hi, A, c)


def _feasible_combination(e_lo, g_lo, e_hi, g_hi, A, c):
    """Unit e on the segment from e_lo (e^H A e = g_lo < c) to e_hi (g_hi >= c)
    with e^H A e >= c, as close to c as bisection on the segment gets."""
    s = np.vdot(e_hi, e_lo)
    if s != 0:
        e_hi = e_hi * (s / abs(s))  # phase-align the ends so the segment avoids 0
    beta = float(np.real(np.vdot(e_lo, A @ e_hi))) - c * float(np.real(np.vdot(e_lo, e_hi)))
    a, g = g_lo - c, g_hi - c

    def q(t):  # (x^H A x - c x^H x) at x = (1 - t) e_lo + t e_hi
        return a * (1 - t) ** 2 + 2 * beta * t * (1 - t) + g * t ** 2

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if q(mid) >= 0:
            hi = mid
        else:
            lo = mid
    x = (1 - hi) * e_lo + hi * e_hi
    return x / np.linalg.norm(x)


def solve_w_sdp(V, channels, cfg):
    """Beamformer half-step: maximize tr(H_r^H V H_r W) over PSD W with the
    trace secrecy constraint and tr(W) <= Ps, V fixed.

    Solved exactly at a rank-one optimum W = Ps e e^H (see rank_one_w).
    Returns (w = sqrt(Ps) e, relaxed objective in watts).  Raises
    SubproblemInfeasible when the secrecy target is unattainable for this V.
    """
    Hr, Hb, He = _snr_stacks(channels, cfg)
    Rr = Hr.conj().T @ V @ Hr
    gain = 2.0 ** cfg.r0
    A = Hb.conj().T @ V @ Hb - gain * (He.conj().T @ V @ He)
    e = rank_one_w(Rr, A, gain - 1.0)
    return np.sqrt(cfg.ps_w) * e, float(cfg.sigma2_w * np.real(np.vdot(e, Rr @ e)))


V_OBJECTIVE_NORM = 1e3  # Frobenius norm the V-SDP objective is scaled to


def solve_v_sdp(w, channels, cfg):
    """Profile half-step: maximize tr(H_r^H V H_r W) over PSD V with unit
    diagonal and the trace secrecy constraint, W = w w^H fixed.

    The objective (rank one) and the secrecy row (rank two) are outer
    products of y_x = H_x w / sigma, scaled by one factor that brings the
    objective to norm V_OBJECTIVE_NORM (at norm 1e6 the interior-point primal
    residual stalled above sdp.DEFAULT_TOL and the iterate left the PSD cone);
    the objective is rescaled on the way out.
    """
    n1 = cfg.N + 1
    yr, yb, ye = (H @ w / np.sqrt(cfg.sigma2_w)
                  for H in (channels.H_r, channels.H_b, channels.H_e))
    Sr = np.outer(yr, yr.conj())
    gain = 2.0 ** cfg.r0
    norm = np.linalg.norm(Sr)
    scale = V_OBJECTIVE_NORM / norm if norm > 0 else 1.0

    prob = SdpProblem()
    blk = prob.add_hermitian_block(n1)
    prob.add_objective(blk, scale * Sr)
    for e_n in np.eye(n1):  # unit diagonal, passed as diagonals
        prob.add_constraint([(blk, e_n)], "==", 1.0)
    row = np.outer(yb, yb.conj()) - gain * np.outer(ye, ye.conj())
    prob.add_constraint([(blk, scale * row)], ">=", scale * (gain - 1.0))
    sol = solve_sdp(prob)
    if sol.status == "Infeasible":
        raise SubproblemInfeasible("secrecy target unattainable for the fixed beamformer")
    if sol.status != "Optimal":
        raise NumericalFailure("profile SDP did not converge")
    return sol.blocks[0], float(cfg.sigma2_w * sol.objective_value / scale)


def _best_candidate(X, to_candidates, gains, cfg, count, rng, what):
    """Gaussian randomization of a lifted variable X.

    Draws count candidates to_candidate(psd_sqrt(X) @ r), r circular
    Gaussian, all at once: to_candidates maps the rows
    (psd_sqrt(X) @ r_k)^T to candidate rows and gains maps those to rows of
    squared (EHR, Bob, Eve) gains.  Returns the secrecy-feasible candidate with
    the largest harvested gain (the first one on ties).  When no draw is
    secrecy-feasible it falls back to the candidate of the principal factor
    sqrt(lambda_max) e_max of X, and raises RecoveryFailed if that fails too.
    """
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    gain, s2 = 2.0 ** cfg.r0, cfg.sigma2_w
    secure = lambda g: g[:, 1] + s2 >= gain * (g[:, 2] + s2) * (1.0 - 1e-12)
    shape = (count, X.shape[0])
    r = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    cands = to_candidates(r @ psd_sqrt(X).T)
    g = gains(cands)
    ok = secure(g)
    if ok.any():
        return cands[np.argmax(np.where(ok, g[:, 0], -np.inf))].copy()
    vals, vecs = herm_eig(X)
    best = to_candidates(np.sqrt(max(vals[-1], 0.0)) * vecs[:, -1:].T)
    if not secure(gains(best))[0]:
        raise RecoveryFailed(f"no secrecy-feasible {what} candidate")
    return best[0]


def randomize_w(W, fixed_profile, channels, cfg, count=RAND_COUNT, rng=None):
    """Recover a rank-one beamformer from a lifted W by Gaussian randomization.

    Candidates are psd_sqrt(W) @ r with circular Gaussian r, rescaled to the
    power budget when over it; the best secrecy-feasible candidate by harvested
    power wins, with the scaled principal eigenvector as fallback.
    """
    v = getattr(fixed_profile, "v", fixed_profile)
    G = np.stack([H.conj().T @ v for H in (channels.H_r, channels.H_b, channels.H_e)], axis=1)

    def within_budget(w):
        p = np.sum(np.abs(w) ** 2, axis=1, keepdims=True)
        return w * np.sqrt(cfg.ps_w / np.maximum(p, cfg.ps_w))

    gains = lambda w: np.abs(w @ G.conj()) ** 2
    return Beamformer(_best_candidate(W, within_budget, gains, cfg, count, rng, "beamformer"))


def randomize_v(V, fixed_beam, channels, cfg, count=RAND_COUNT, rng=None):
    """Recover a unit-modulus profile from a lifted V by Gaussian randomization.

    Candidates are normalized by their last entry and projected entrywise to
    unit modulus; the best secrecy-feasible candidate by harvested power
    against the beamformer fixed_beam wins, falling back to the phases of the
    principal eigenvector.
    """
    if cfg.N == 0:
        return PhaseProfile(np.zeros(0, dtype=complex))
    w = np.asarray(getattr(fixed_beam, "w", fixed_beam))
    Y = np.stack([H @ w for H in (channels.H_r, channels.H_b, channels.H_e)], axis=1)

    def project(vt):
        last = vt[:, -1:]
        vt = vt / np.where(last != 0, last, 1.0)
        return np.exp(1j * np.angle(vt[:, :-1]))

    gains = lambda u: np.abs(np.concatenate([u, np.ones((len(u), 1))], axis=1).conj() @ Y) ** 2
    return PhaseProfile(_best_candidate(V, project, gains, cfg, count, rng, "profile"))


def sdr_ao(channels, cfg, rng=None):
    """Full SDR-based alternating optimization with randomization recovery.

    harvested_trace holds the relaxed objective zeta*tr(H_r^H V H_r W) per
    outer iteration; the recovered pair, the last W step's beamformer with a
    profile drawn from the last V, can only sit at or below its final value.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    def step(state, counts):
        _, V = state
        if isinstance(V, PhaseProfile):  # the starting profile
            V = np.outer(V.v, V.v.conj())
        w, obj = solve_w_sdp(V, channels, cfg)
        counts["w"] += 1
        if cfg.N > 0:
            V, obj = solve_v_sdp(w, channels, cfg)
            counts["u"] += 1
        return (w, V), cfg.zeta * obj

    def recover(state):
        w, V = state
        return w, randomize_v(V, w, channels, cfg, rng=rng)

    return alternate(channels, cfg, initial_phase_profile(cfg, rng), step,
                     OUTER_TOL, cfg.max_outer_iters, recover)
