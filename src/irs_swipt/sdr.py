"""Semidefinite-relaxation alternating optimization.

The joint harvested-power problem is lifted to PSD matrices W = w w^H and
V = v v^H with the rank-one constraints dropped.  With one variable fixed the
other subproblem is a linear SDP, so the two are alternated; both half-steps
can only raise the relaxed objective.  The W half-step has two trace
constraints and therefore a rank-one optimum W = e e^H, found exactly
through its 1-D dual (init.rank_one_w; closed form for rank one: init.exact_w),
so the alternation carries w = e instead of W; when rounding makes
that solver find the secrecy target unattainable, the state's w, feasible for
the state's V by construction, is kept with its relaxed value.  The V
half-step is solved by the interior-point method of sdp.py through its
structured unit-diagonal operator, with the secrecy row scaled to unit size
apart from the objective, and warm-started from the previous V-SDP's final
iterate, since consecutive rounds differ only through w; a V step that the
solver's tolerance leaves below the W step's value keeps the previous V,
which stays feasible, so the relaxed objective never decreases.

sdr_ao runs the alternation loop of init.py with this round as its step; its
recover callable maps the last state to a pair in two steps.  The profile is
drawn from the last V by Gaussian randomization against the last W step's w
(randomize_v): V is not always rank one, and there the draws can beat V's top
eigenvector.  The beamformer is then the exact one for that profile
(init.exact_w, the step sca_ao takes), which does at least as well as w.
Where exact_w raises, w is kept if the pair passes check_feasible, and the
feasibility probe's pair is returned otherwise.  It raises on rounding at
r0 = the attainable maximum, and when no beamformer makes the profile
secure, as randomize_v's fallback when no draw meets the target can be.

The half-steps and the recovery work on the noise-normalized init.Problem
(channels scaled by sqrt(Ps)/sigma, trace budget 1, unit noise), which also
keeps the interior-point iterations well conditioned; alternate converts the
result to watts, and randomize_w, which sdr_ao does not call, stays in watts.
"""

import numpy as np

from .errors import NotPSD, NumericalFailure, SubproblemInfeasible
from .init import alternate, exact_w, initial_phase_profile, max_sr_beamformer, rank_one_w
from .linalg import herm_eig
from .metrics import Beamformer, PhaseProfile, check_feasible
from .sdp import UnitDiagonalSdp, solve_sdp

RAND_COUNT = 1000  # Gaussian randomization candidates per recovery
EIG_FLOOR = 1e-6  # relative eigenvalue below which randomize_v drops an eigenpair of V


def solve_w_sdp(V, problem):
    """Beamformer half-step: maximize tr(Hr^H V Hr W) over PSD W with the
    trace secrecy constraint and tr(W) <= 1, V fixed.

    Solved exactly at a rank-one optimum W = e e^H (see rank_one_w).
    Returns (e, relaxed objective).  Raises SubproblemInfeasible when the
    secrecy target is unattainable for this V.
    """
    Hr, Hb, He, _, gain = problem
    Rr = Hr.conj().T @ V @ Hr
    A = Hb.conj().T @ V @ Hb - gain * (He.conj().T @ V @ He)
    e = rank_one_w(Rr, A, gain - 1.0)
    return e, float(np.real(np.vdot(e, Rr @ e)))


V_OBJECTIVE_NORM = 1e3  # Frobenius norm the V-SDP objective is scaled to


def solve_v_sdp(w, problem, warm=None):
    """Profile half-step: maximize tr(Hr^H V Hr W) over PSD V with unit
    diagonal and the trace secrecy constraint, W = w w^H fixed.

    Returns (V, relaxed objective, the sdp.SdpSolution); warm, the
    SdpSolution of a profile SDP of the same N, warm-starts the solve.

    The objective (rank one) and the secrecy row (rank two) are outer
    products of y_x = H_x w.  The objective is scaled to norm
    V_OBJECTIVE_NORM (at norm 1e6 the interior-point primal residual stalled
    above sdp.DEFAULT_TOL and the iterate left the PSD cone) and rescaled on
    the way out.  The secrecy row tr(row V) >= 2^r0 - 1 is scaled on its own,
    by rs = 1 / max(||row||_F, 2^r0 - 1), to the unit scale of the diagonal
    rows; under the objective's scale the dual iterate diverged to overflow
    on some random geometries.  sdp.DEFAULT_TOL bounds the primal residual
    relative to the norm of the right-hand side,
    sqrt(N + 1 + (rs (2^r0 - 1))^2) <= sqrt(N + 2), so the returned V meets
    the secrecy row up to about
    sdp.DEFAULT_TOL * sqrt(N + 2) * max(||row||_F, 2^r0 - 1).
    The problem goes to sdp.solve_sdp as a sdp.UnitDiagonalSdp, whose Schur
    matrix is in closed form.
    """
    yr, yb, ye = (H @ w for H in (problem.Hr, problem.Hb, problem.He))
    Sr = np.outer(yr, yr.conj())
    gain = problem.gain
    norm = np.linalg.norm(Sr)
    scale = V_OBJECTIVE_NORM / norm if norm > 0 else 1.0

    row = np.outer(yb, yb.conj()) - gain * np.outer(ye, ye.conj())
    rs = 1.0 / max(np.linalg.norm(row), gain - 1.0)
    sol = solve_sdp(UnitDiagonalSdp(scale * Sr, rs * row, rs * (gain - 1.0)), warm=warm)
    if sol.status == "Infeasible":
        raise SubproblemInfeasible("secrecy target unattainable for the fixed beamformer")
    if sol.status != "Optimal":
        raise NumericalFailure("profile SDP did not converge")
    return sol.X[:-1, :-1], float(sol.objective_value / scale), sol


def randomize_w(W, fixed_profile, channels, cfg):
    """The beamformer of a lifted W: its principal factor sqrt(lambda_max) e_max,
    scaled down to the power budget when over it.

    A W-SDP optimum is rank one (two trace constraints), so Gaussian draws
    from it only return this factor up to phase and scale; the profile and
    channels are not used.  sdr_ao does not call this: the name is kept for
    the per-layer spans of perfbench/layers.py, which look it up.
    """
    vals, vecs = herm_eig(W)
    w = np.sqrt(max(vals[-1], 0.0)) * vecs[:, -1]
    return Beamformer(w * np.sqrt(cfg.ps_w / max(np.real(np.vdot(w, w)), cfg.ps_w)))


def randomize_v(V, fixed_beam, problem, rng, count=RAND_COUNT):
    """Recover a unit-modulus profile from a lifted V by Gaussian randomization.

    Draws count candidates F r, r circular Gaussian from rng, all at once,
    in V's eigenbasis: F = vecs sqrt(lambda) over the eigenpairs with
    lambda >= EIG_FLOOR * lambda_max, largest first, each column's phase
    fixed so that its largest-modulus entry is real and positive.  Each
    candidate is normalized by its last entry and projected entrywise to unit
    modulus.  Returns the candidate with the largest harvested gain among
    those that meet the secrecy target with the unit-budget beamformer
    fixed_beam (the first one on ties); when no draw does, the same
    projection of F's first column, V's principal factor, secure or not.

    The draws depend on V alone, not on the order of the IRS elements or on
    V's eigenvalues at the interior-point tolerance, which a square root of V
    would amplify: a rank-one V gives one candidate for every r.  Raises
    NotPSD when an eigenvalue of V is below -1e-6 ||V||_F, which interior-point
    noise does not explain.
    """
    if V.shape[0] == 1:
        return PhaseProfile(np.zeros(0, dtype=complex))
    Y = np.stack([H @ fixed_beam for H in (problem.Hr, problem.Hb, problem.He)], axis=1)

    def project(vt):
        last = vt[:, -1:]
        vt = vt / np.where(last != 0, last, 1.0)
        return np.exp(1j * np.angle(vt[:, :-1]))

    vals, vecs = herm_eig(V)
    if vals[0] < -1e-6 * np.linalg.norm(V):
        raise NotPSD(f"eigenvalue {vals[0]:.3e} below -1e-6*||V||")
    keep = vals >= EIG_FLOOR * vals[-1]
    F = (vecs[:, keep] * np.sqrt(vals[keep]))[:, ::-1]
    pivots = F[np.argmax(np.abs(F), axis=0), np.arange(F.shape[1])]
    F = F * (np.abs(pivots) / pivots)
    shape = (count, F.shape[1])
    r = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    cands = project(r @ F.T)
    g = np.abs(np.concatenate([cands, np.ones((count, 1))], axis=1).conj() @ Y) ** 2
    ok = g[:, 1] + 1.0 >= problem.gain * (g[:, 2] + 1.0) * (1.0 - 1e-12)
    if ok.any():
        return PhaseProfile(cands[np.argmax(np.where(ok, g[:, 0], -np.inf))].copy())
    return PhaseProfile(project(F[:, :1].T)[0])


def sdr_ao(channels, cfg):
    """Full SDR-based alternating optimization with randomization recovery.

    harvested_trace holds the relaxed objective zeta*tr(H_r^H V H_r W) per
    outer iteration; the V and W steps' fallbacks (see the module docstring)
    keep it non-decreasing.  Each V-SDP after the first is warm-started from
    the previous one's solution, whether or not its V was kept.  The
    recovered pair is not bounded by the final relaxed value, a local value
    of the alternation: its exact beamformer can exceed it.
    """
    rng = np.random.default_rng(cfg.seed)
    u0 = initial_phase_profile(cfg, rng)
    last_v_sdp = None

    def step(problem, state, counts):
        nonlocal last_v_sdp
        w_prev, V = state
        if isinstance(V, PhaseProfile):  # the starting profile
            V = np.outer(V.v, V.v.conj())
        try:
            w, obj = solve_w_sdp(V, problem)
        except SubproblemInfeasible:
            y = problem.Hr @ w_prev
            w, obj = w_prev, float(np.real(np.vdot(y, V @ y)))
        if cfg.N > 0:
            V_new, obj_new, last_v_sdp = solve_v_sdp(w, problem, warm=last_v_sdp)
            counts["u"] += 1
            if obj_new >= obj:
                V, obj = V_new, obj_new
        return (w, V), obj

    def recover(problem, state):
        w_last, V = state
        u = randomize_v(V, w_last, problem, rng)
        try:
            return exact_w(u.v, problem), u
        except SubproblemInfeasible:  # rounding, or a profile no beamformer makes secure
            if check_feasible(np.sqrt(cfg.ps_w) * w_last, u, cfg, channels).feasible:
                return w_last, u
            return max_sr_beamformer(u0.v, problem)[0], u0

    return alternate(channels, cfg, u0, step, recover)
