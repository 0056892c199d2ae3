"""Semidefinite-relaxation alternating optimization.

The joint harvested-power problem is lifted to PSD matrices W = w w^H and
V = v v^H with the rank-one constraints dropped.  With one variable fixed the
other subproblem is a linear SDP, so the two are alternated; both half-steps
can only raise the relaxed objective.  The W half-step has two trace
constraints and therefore a rank-one optimum W = Ps e e^H, found exactly
through its 1-D dual (init.rank_one_w, which sca_ao's beamformer step shares),
so the alternation carries w = sqrt(Ps) e instead of W; when rounding makes
that solver find the secrecy target unattainable, the state's w, feasible for
the state's V by construction, is kept with its relaxed value.  The V
half-step is solved by the interior-point method of sdp.py through its
structured unit-diagonal operator, with the secrecy row scaled to unit size
apart from the objective, and warm-started from the previous V-SDP's final
iterate, since consecutive rounds differ only through w; a V step that the
solver's tolerance leaves below the W step's value keeps the previous V,
which stays feasible, so the relaxed objective never decreases.  Only the
profile is recovered, by Gaussian randomization against that w, so the
returned pair is jointly feasible; _best_candidate draws, maps and scores
all candidates at once (it also backs randomize_w, kept for a general
lifted W, which sdr_ao does not need).

sdr_ao runs the alternation loop of init.py with the W-step/V-SDP round as
its step and the profile recovery as its recover callable.

Subproblems are assembled in noise-normalized units (channels scaled by
sqrt(Ps)/sigma, trace budget 1) to keep the interior-point iterations well
conditioned, and rescaled on the way out.
"""

import numpy as np

from .errors import NumericalFailure, RecoveryFailed, SubproblemInfeasible
from .init import alternate, initial_phase_profile, rank_one_w
from .linalg import herm_eig, psd_sqrt
from .metrics import Beamformer, PhaseProfile
from .sdp import UnitDiagonalSdp, solve_sdp

RAND_COUNT = 1000  # Gaussian randomization candidates per recovery


def _snr_stacks(channels, cfg):
    scale = np.sqrt(cfg.ps_w) / np.sqrt(cfg.sigma2_w)
    return channels.H_r * scale, channels.H_b * scale, channels.H_e * scale


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


def solve_v_sdp(w, channels, cfg, warm=None):
    """Profile half-step: maximize tr(H_r^H V H_r W) over PSD V with unit
    diagonal and the trace secrecy constraint, W = w w^H fixed.

    Returns (V, relaxed objective in watts, the sdp.SdpSolution); warm, the
    SdpSolution of a profile SDP of the same N, warm-starts the solve.

    The objective (rank one) and the secrecy row (rank two) are outer
    products of y_x = H_x w / sigma.  The objective is scaled to norm
    V_OBJECTIVE_NORM (at norm 1e6 the interior-point primal residual stalled
    above sdp.DEFAULT_TOL and the iterate left the PSD cone) and rescaled on
    the way out.  The secrecy row tr(row V) >= 2^r0 - 1 is scaled on its own,
    by rs = 1 / max(||row||_F, 2^r0 - 1), to the unit scale of the diagonal
    rows; under the objective's scale the dual iterate diverged to overflow
    on some random geometries.  sdp.DEFAULT_TOL bounds the primal residual
    relative to the norm of the right-hand side,
    sqrt(N + 1 + (rs (2^r0 - 1))^2) <= sqrt(N + 2), so the returned V meets
    the secrecy row up to about
    sdp.DEFAULT_TOL * sqrt(N + 2) * max(||row||_F, 2^r0 - 1)
    in the noise-normalized units of y_x.  The problem goes to sdp.solve_sdp
    as a sdp.UnitDiagonalSdp, whose Schur matrix is in closed form.
    """
    yr, yb, ye = (H @ w / np.sqrt(cfg.sigma2_w)
                  for H in (channels.H_r, channels.H_b, channels.H_e))
    Sr = np.outer(yr, yr.conj())
    gain = 2.0 ** cfg.r0
    norm = np.linalg.norm(Sr)
    scale = V_OBJECTIVE_NORM / norm if norm > 0 else 1.0

    row = np.outer(yb, yb.conj()) - gain * np.outer(ye, ye.conj())
    rs = 1.0 / max(np.linalg.norm(row), gain - 1.0)
    sol = solve_sdp(UnitDiagonalSdp(scale * Sr, rs * row, rs * (gain - 1.0)), warm=warm)
    if sol.status == "Infeasible":
        raise SubproblemInfeasible("secrecy target unattainable for the fixed beamformer")
    if sol.status != "Optimal":
        raise NumericalFailure("profile SDP did not converge")
    return sol.X, float(cfg.sigma2_w * sol.objective_value / scale), sol


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


def sdr_ao(channels, cfg):
    """Full SDR-based alternating optimization with randomization recovery.

    harvested_trace holds the relaxed objective zeta*tr(H_r^H V H_r W) per
    outer iteration; the recovered pair, the last W step's beamformer with a
    profile drawn from the last V, can only sit at or below its final value.
    A V step that the interior-point solve leaves below the W step's value
    keeps the previous V, which meets the secrecy row for the new w, so the
    trace never decreases.  A W step that rounding finds infeasible keeps the
    previous w with its relaxed value (see init.rank_one_w).  Each V-SDP
    after the first is warm-started from the previous one's solution, whether
    or not that solution's V was kept: consecutive rounds differ only through
    w.
    """
    rng = np.random.default_rng(cfg.seed)
    last_v_sdp = None

    def step(state, counts):
        nonlocal last_v_sdp
        w_prev, V = state
        if isinstance(V, PhaseProfile):  # the starting profile
            V = np.outer(V.v, V.v.conj())
        try:
            w, obj = solve_w_sdp(V, channels, cfg)
        except SubproblemInfeasible:
            y = channels.H_r @ w_prev
            w, obj = w_prev, float(np.real(np.vdot(y, V @ y)))
        counts["w"] += 1
        if cfg.N > 0:
            V_new, obj_new, last_v_sdp = solve_v_sdp(w, channels, cfg, warm=last_v_sdp)
            counts["u"] += 1
            if obj_new >= obj:
                V, obj = V_new, obj_new
        return (w, V), cfg.zeta * obj

    def recover(state):
        w, V = state
        return w, randomize_v(V, w, channels, cfg, rng=rng)

    return alternate(channels, cfg, initial_phase_profile(cfg, rng), step, recover)
