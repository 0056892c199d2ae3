"""Semidefinite-relaxation alternating optimization.

The joint harvested-power problem is lifted to PSD matrices W = w w^H and
V = v v^H with the rank-one constraints dropped.  With one variable fixed the
other subproblem is a linear SDP, so the two are alternated; both half-steps
can only raise the relaxed objective.  Rank-one solutions are recovered
afterwards with Gaussian randomization (profile first, then the beamformer
against the recovered profile, so the returned pair is jointly feasible);
both recoveries draw and select candidates in one routine, _best_candidate.

sdr_ao runs the alternation loop of init.py with the W-SDP/V-SDP round as
its step and the recovery as its recover callable, which asks for a restart
from the recovered pair when that pair beats the relaxation bound.

Subproblems are assembled in noise-normalized units (channels scaled by
sqrt(Ps)/sigma, trace budget 1) to keep the interior-point iterations well
conditioned, and rescaled on the way out.
"""

import numpy as np

from .errors import NumericalFailure, RecoveryFailed, SubproblemInfeasible
from .init import alternate, initial_phase_profile
from .linalg import herm_eig, psd_sqrt
from .metrics import Beamformer, PhaseProfile
from .sdp import SdpProblem, solve_sdp


def _snr_stacks(channels, cfg):
    scale = np.sqrt(cfg.ps_w) / np.sqrt(cfg.sigma2_w)
    return channels.H_r * scale, channels.H_b * scale, channels.H_e * scale


def _relaxed_objective_w(channels, cfg, V, W):
    """tr(H_r^H V H_r W) in watts."""
    Rr = channels.H_r.conj().T @ V @ channels.H_r
    return float(np.real(np.tensordot(Rr.conj(), W)))


def solve_w_sdp(V, channels, cfg):
    """Beamformer half-step: maximize tr(H_r^H V H_r W) over PSD W with the
    trace secrecy constraint and tr(W) <= Ps, V fixed.

    Returns (W in watts, relaxed objective in watts).  Raises
    SubproblemInfeasible when the secrecy target is unattainable for this V.
    """
    Hr, Hb, He = _snr_stacks(channels, cfg)
    Rr = Hr.conj().T @ V @ Hr
    Rb = Hb.conj().T @ V @ Hb
    Re = He.conj().T @ V @ He
    gain = 2.0 ** cfg.r0

    prob = SdpProblem()
    blk = prob.add_hermitian_block(cfg.M)
    prob.add_objective(blk, Rr)
    prob.add_constraint([(blk, Rb - gain * Re)], ">=", gain - 1.0)
    prob.add_constraint([(blk, np.eye(cfg.M))], "<=", 1.0)
    sol = solve_sdp(prob, tol=cfg.sdp_tol)
    if sol.status == "Infeasible":
        raise SubproblemInfeasible("secrecy target unattainable for the fixed profile")
    if sol.status != "Optimal":
        raise NumericalFailure("beamformer SDP did not converge")
    W = cfg.ps_w * sol.blocks[0]
    return W, float(cfg.sigma2_w * sol.objective_value)


def solve_v_sdp(W, channels, cfg):
    """Profile half-step: maximize tr(H_r^H V H_r W) over PSD V with unit
    diagonal and the trace secrecy constraint, W fixed."""
    n1 = cfg.N + 1
    Sr = channels.H_r @ W @ channels.H_r.conj().T / cfg.sigma2_w
    Sb = channels.H_b @ W @ channels.H_b.conj().T / cfg.sigma2_w
    Se = channels.H_e @ W @ channels.H_e.conj().T / cfg.sigma2_w
    gain = 2.0 ** cfg.r0

    prob = SdpProblem()
    blk = prob.add_hermitian_block(n1)
    prob.add_objective(blk, Sr)
    for n in range(n1):
        e_n = np.zeros((n1, n1))
        e_n[n, n] = 1.0
        prob.add_constraint([(blk, e_n)], "==", 1.0)
    prob.add_constraint([(blk, Sb - gain * Se)], ">=", gain - 1.0)
    sol = solve_sdp(prob, tol=cfg.sdp_tol)
    if sol.status == "Infeasible":
        raise SubproblemInfeasible("secrecy target unattainable for the fixed beamformer")
    if sol.status != "Optimal":
        raise NumericalFailure("profile SDP did not converge")
    return sol.blocks[0], float(cfg.sigma2_w * sol.objective_value)


def _best_candidate(X, to_candidate, gains, cfg, count, rng, what):
    """Gaussian randomization of a lifted variable X.

    Draws count (default rand_count) candidates to_candidate(psd_sqrt(X) @ r),
    r circular Gaussian, and returns the secrecy-feasible one with the largest
    harvested gain, gains(candidate) being the squared (EHR, Bob, Eve) gains.
    When no draw is secrecy-feasible it falls back to the candidate of the
    principal factor sqrt(lambda_max) e_max of X, and raises RecoveryFailed if
    that fails too.
    """
    count = cfg.rand_count if count is None else count
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    gain, s2 = 2.0 ** cfg.r0, cfg.sigma2_w
    secure = lambda g: g[1] + s2 >= gain * (g[2] + s2) * (1.0 - 1e-12)
    root = psd_sqrt(X)
    shape = (count, X.shape[0])
    best, best_val = None, -np.inf
    for r in (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2):
        cand = to_candidate(root @ r)
        g = gains(cand)
        if secure(g) and g[0] > best_val:
            best, best_val = cand, g[0]
    if best is None:
        vals, vecs = herm_eig(X)
        best = to_candidate(np.sqrt(max(vals[-1], 0.0)) * vecs[:, -1])
        if not secure(gains(best)):
            raise RecoveryFailed(f"no secrecy-feasible {what} candidate")
    return best


def randomize_w(W, fixed_profile, channels, cfg, count=None, rng=None):
    """Recover a rank-one beamformer from a lifted W by Gaussian randomization.

    Candidates are psd_sqrt(W) @ r with circular Gaussian r, rescaled to the
    power budget when over it; the best secrecy-feasible candidate by harvested
    power wins, with the scaled principal eigenvector as fallback.
    """
    v = getattr(fixed_profile, "v", fixed_profile)
    g = [H.conj().T @ v for H in (channels.H_r, channels.H_b, channels.H_e)]

    def within_budget(w):
        p = np.real(np.vdot(w, w))
        return w * np.sqrt(cfg.ps_w / p) if p > cfg.ps_w else w

    gains = lambda w: np.array([abs(np.vdot(gx, w)) ** 2 for gx in g])
    return Beamformer(_best_candidate(W, within_budget, gains, cfg, count, rng, "beamformer"))


def randomize_v(V, fixed_beam, channels, cfg, count=None, rng=None):
    """Recover a unit-modulus profile from a lifted V by Gaussian randomization.

    Candidates are normalized by their last entry and projected entrywise to
    unit modulus; the best secrecy-feasible candidate by harvested power wins,
    falling back to the phases of the principal eigenvector.  fixed_beam is a
    beamformer vector or a lifted W.
    """
    if cfg.N == 0:
        return PhaseProfile(np.zeros(0, dtype=complex))
    w = np.asarray(getattr(fixed_beam, "w", fixed_beam))
    Hs = (channels.H_r, channels.H_b, channels.H_e)
    if w.ndim == 1:
        y = [H @ w for H in Hs]
        gains_v = lambda v: np.array([abs(np.vdot(v, yx)) ** 2 for yx in y])
    else:
        S = [H @ w @ H.conj().T for H in Hs]
        gains_v = lambda v: np.array([float(np.real(v.conj() @ Sx @ v)) for Sx in S])

    def project(vt):
        vt = vt / (vt[-1] if vt[-1] != 0 else 1.0)
        return np.exp(1j * np.angle(vt[:-1]))

    gains = lambda u: gains_v(np.concatenate([u, [1.0 + 0.0j]]))
    return PhaseProfile(_best_candidate(V, project, gains, cfg, count, rng, "profile"))


def sdr_ao(channels, cfg, rng=None):
    """Full SDR-based alternating optimization with randomization recovery.

    harvested_trace holds the relaxed objective zeta*tr(H_r^H V H_r W) per
    outer iteration; the recovered rank-one pair can only sit at or below its
    final value.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    def step(state, counts):
        _, V = state
        if isinstance(V, PhaseProfile):  # the start, or a restart from a recovered pair
            V = np.outer(V.v, V.v.conj())
        W, _ = solve_w_sdp(V, channels, cfg)
        counts["w"] += 1
        if cfg.N > 0:
            V, obj = solve_v_sdp(W, channels, cfg)
            counts["u"] += 1
        else:
            obj = _relaxed_objective_w(channels, cfg, V, W)
        return (W, V), cfg.zeta * obj

    def recover(state, bound):
        # A recovery that beats the relaxation trace means the alternation was
        # not jointly stationary yet; restart it from the recovered profile (an
        # ascent, so the trace stays monotone) instead of reporting a broken bound.
        W, V = state
        u = randomize_v(V, W, channels, cfg, rng=rng)
        w = randomize_w(W, u, channels, cfg, rng=rng).w
        recovered = cfg.zeta * abs(np.vdot(u.v, channels.H_r @ w)) ** 2
        return (w, u), recovered > bound + 1e-8

    return alternate(channels, cfg, initial_phase_profile(cfg, rng), step,
                     cfg.eps, cfg.max_outer_iters, recover)
