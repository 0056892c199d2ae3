"""What the alternating-optimization solvers share: the starting phase
profile, the full-power secrecy-maximizing beamformer used as a feasibility
probe and as a strictly feasible starting point, the exact beamformer for a
fixed profile (exact_w, through the 1-D dual of rank_one_w, which sdr_ao's W
half-step also solves) that sca_ao, the beamformer-only baselines and sdr_ao's
profile recovery all take, and the alternation loop they all run (sdr_ao also
maps its final relaxed state to a rank-one pair once, after the loop)."""

import math
import time

import numpy as np

from .errors import SubproblemInfeasible
from .linalg import herm_eig
from .metrics import Beamformer, PhaseProfile, SolveResult, harvested_power, secrecy_rate

OUTER_TOL = 1e-3  # relative trace increase below which sdr_ao and sca_ao stop


def initial_phase_profile(cfg, rng=None):
    """Zero-phase profile by default; uniform random phases in ablation mode."""
    if cfg.init_phases == "random":
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        return PhaseProfile(np.exp(-2j * np.pi * rng.random(cfg.N)))
    return PhaseProfile(np.ones(cfg.N, dtype=complex))


def max_sr_beamformer(v, channels, cfg):
    """Full-power beamformer maximizing the secrecy rate for a fixed profile v.

    For fixed v the rate ratio is a generalized Rayleigh quotient, so the
    optimum is the principal generalized eigenvector of the Bob/EVE pencil at
    full power.  Returns (w, sr_max in bits/s/Hz).
    """
    g_b = channels.H_b.conj().T @ v
    g_e = channels.H_e.conj().T @ v
    reg = cfg.sigma2_w / cfg.ps_w
    B = np.outer(g_b, g_b.conj()) + reg * np.eye(cfg.M)
    E = np.outer(g_e, g_e.conj()) + reg * np.eye(cfg.M)
    vals_e, vecs_e = herm_eig(E)
    e_isqrt = (vecs_e / np.sqrt(np.maximum(vals_e, 1e-300))) @ vecs_e.conj().T
    vals, vecs = herm_eig(e_isqrt @ B @ e_isqrt)
    x = e_isqrt @ vecs[:, -1]
    w = np.sqrt(cfg.ps_w) * x / np.linalg.norm(x)
    sr_max = float(np.log2(max(vals[-1], 1.0)))
    return w, sr_max


# Relative bracket width at which the multiplier search stops.  The segment
# between the two ends' eigenvectors follows e(lam) to second order in the
# width, so the objective is far more accurate than the multiplier.
BISECT_REL_WIDTH = 1e-10
# Relative excess e^H A e - c <= NEWTON_REL_TOL * c at which the search
# returns the top eigenvector of a point on the feasible side outright.
NEWTON_REL_TOL = 1e-12
# Bounds the Newton and bisection steps, for when the multiplier is 0 at a
# repeated top eigenvalue of Rr: there the relative width shrinks only once
# rounding makes eigh return the lam = 0 eigenvector again.
MAX_HALVINGS = 200


def rank_one_w(Rr, A, c):
    """Unit e maximizing e^H Rr e subject to e^H A e >= c (Rr PSD).

    The SDP max tr(Rr W) s.t. tr(A W) >= c, tr(W) <= 1, W PSD has two trace
    constraints, so it has a rank-one optimum e e^H; its dual is the convex
    1-D problem min_{lam >= 0} lambda_max(Rr + lam A) - lam c, whose
    derivative e(lam)^H A e(lam) - c, e(lam) the top eigenvector of
    Rr + lam A, is nondecreasing.  lam = 0 settles it when the secrecy
    constraint is slack there; otherwise lam is bracketed by 0 and hi, twice
    the bound lambda_max(Rr) / (lambda_max(A) - c) on the dual optimum, and
    narrowed by safeguarded Newton steps on h(lam) = e(lam)^H A e(lam) = c.
    By convexity h(hi) - c >= (lambda_max(A) - c) / 2; where rounding leaves
    h(hi) < c, that margin is at rounding level, and A's top eigenvector is
    returned.  The slope comes from the same eigh as h:
    h'(lam) = 2 sum_k |e_k^H A e|^2 / (lambda_top - lambda_k) over the other
    eigenpairs.  A Newton point outside the open bracket, or one at a zero
    slope, is replaced by the bracket's midpoint.
    The search returns e(lam) once h(lam) - c lies in
    [0, NEWTON_REL_TOL * c].  Otherwise, at a bracket of relative width
    BISECT_REL_WIDTH, the two ends' eigenvectors span the top eigenspace at
    the optimum, which is two-dimensional when eigenvalues cross there (h
    jumps past c): e is the point of their segment where e^H A e reaches c,
    at the root of the segment's quadratic (_feasible_combination).

    Raises SubproblemInfeasible when lambda_max(A) < c.  The AO methods take
    this step from a beamformer that meets the secrecy constraint for the
    profile at hand by construction, so for them the raise is rounding in
    that test at r0 = the attainable maximum (the cancellation in A scales
    with the channel gains, not with c), and they keep that beamformer.
    """
    vals_a, vecs_a = np.linalg.eigh(A)
    if vals_a[-1] < c:
        raise SubproblemInfeasible("secrecy target unattainable for the fixed profile")

    def top(lam):
        """(e(lam), h(lam), h'(lam)); the slope is 0 where the top eigenvalue
        is repeated, and the search bisects there."""
        vals, vecs = np.linalg.eigh(Rr + lam * A)
        e = vecs[:, -1]
        Ae = A @ e
        gaps = vals[-1] - vals[:-1]
        slope = 0.0
        if np.all(gaps > 0):
            slope = 2.0 * float(np.sum(np.abs(vecs[:, :-1].conj().T @ Ae) ** 2 / gaps))
        return e, float(np.real(np.vdot(e, Ae))), slope

    e_lo, g_lo, _ = top(0.0)
    if g_lo >= c:
        return e_lo
    top_r = float(np.real(np.vdot(e_lo, Rr @ e_lo)))  # lambda_max(Rr)
    if top_r <= 0 or vals_a[-1] == c:
        return vecs_a[:, -1]  # every feasible direction is optimal, or only this one is feasible
    lo, hi = 0.0, 2.0 * top_r / (vals_a[-1] - c)
    e_hi, g_hi, slope = top(hi)
    if g_hi < c:
        return vecs_a[:, -1]  # lambda_max(A) - c is at rounding level
    lam, g = hi, g_hi
    for _ in range(MAX_HALVINGS):
        if 0 <= g - c <= NEWTON_REL_TOL * c:
            return e_hi
        if hi - lo <= BISECT_REL_WIDTH * hi:
            break
        newton = lam - (g - c) / slope if slope > 0 else hi  # hi is outside: bisect
        lam = newton if lo < newton < hi else 0.5 * (lo + hi)
        e, g, slope = top(lam)
        if g >= c:
            hi, e_hi, g_hi = lam, e, g
        else:
            lo, e_lo, g_lo = lam, e, g
    return _feasible_combination(e_lo, g_lo, e_hi, g_hi, A, c)


def _feasible_combination(e_lo, g_lo, e_hi, g_hi, A, c):
    """Unit e on the segment from e_lo (e^H A e = g_lo < c) to e_hi (g_hi >= c)
    with e^H A e = c.  With the ends phase-aligned, x = (1 - t) e_lo + t e_hi
    has x^H A x - c x^H x = q(t) = a (1-t)^2 + 2 beta t (1-t) + g t^2, where
    a = g_lo - c < 0 <= g = g_hi - c; its root in (0, 1] is
    t = -a / (beta - a + sqrt(beta^2 - a g)), a form that does not cancel
    (the discriminant is at least beta^2, the denominator at least -a)."""
    s = np.vdot(e_hi, e_lo)
    if s != 0:
        e_hi = e_hi * (s / abs(s))  # phase-align the ends so the segment avoids 0
    beta = float(np.real(np.vdot(e_lo, A @ e_hi))) - c * float(np.real(np.vdot(e_lo, e_hi)))
    a, g = g_lo - c, g_hi - c
    t = -a / (beta - a + math.sqrt(beta * beta - a * g))
    x = (1 - t) * e_lo + t * e_hi
    return x / np.linalg.norm(x)


def exact_w(v, channels, cfg):
    """Unit e of the exact beamformer sqrt(Ps) e for the profile v = [u; 1]:
    e = rank_one_w(g_r g_r^H, g_b g_b^H - 2^r0 g_e g_e^H, 2^r0 - 1), with the
    gains g_x = H_x^H v sqrt(Ps)/sigma.  Raises SubproblemInfeasible as
    rank_one_w does.
    """
    scale = np.sqrt(cfg.ps_w / cfg.sigma2_w)
    g_r, g_b, g_e = ((H.conj().T @ v) * scale for H in (channels.H_r, channels.H_b, channels.H_e))
    gain = 2.0 ** cfg.r0
    A = np.outer(g_b, g_b.conj()) - gain * np.outer(g_e, g_e.conj())
    return rank_one_w(np.outer(g_r, g_r.conj()), A, gain - 1.0)


def feasibility_probe(channels, cfg, u0):
    """(feasible, w, sr_max): whether the secrecy target r0 is attainable with
    the initial profile, and the probing beamformer."""
    w, sr_max = max_sr_beamformer(u0.v, channels, cfg)
    return sr_max >= cfg.r0, w, sr_max


def alternate(channels, cfg, u, step, recover=None):
    """Repeat ``state, value = step(state, counts)`` from the probe's (w, u)
    until the trace's relative increase drops below OUTER_TOL (Converged) or
    for cfg.max_outer_iters steps (MaxIters); Infeasible with an empty trace
    if the probe cannot meet the secrecy target at u.  Each step takes one
    beamformer step and adds its phase steps to counts["u"], so iters_outer
    also counts the beamformer steps.

    Without recover the state is the (w, u) pair and the trace starts at its
    harvested power.  With recover the state is a relaxation, so the trace
    holds step values only, and recover(state) maps the final state to the
    returned (w, u) pair.
    """
    t_start = time.perf_counter()
    ok, w, sr_max = feasibility_probe(channels, cfg, u)
    if not ok:
        return SolveResult(w=Beamformer(w), u=u, harvested_trace=[], achieved_sr=sr_max,
                           status="Infeasible", wall_clock=time.perf_counter() - t_start)
    state = (w, u)
    trace = [harvested_power(w, u, channels, cfg.zeta)] if recover is None else []
    counts = {"u": 0}
    status = "MaxIters"
    for it in range(1, cfg.max_outer_iters + 1):
        state, value = step(state, counts)
        trace.append(value)
        if len(trace) >= 2 and trace[-1] > 0 and (trace[-1] - trace[-2]) / trace[-1] < OUTER_TOL:
            status = "Converged"
            break
    w, u = state if recover is None else recover(state)
    return SolveResult(
        w=Beamformer(w), u=u, harvested_trace=trace,
        achieved_sr=secrecy_rate(w, u, channels, cfg.sigma2_w),
        status=status, iters_outer=it, iters_inner_u=counts["u"],
        wall_clock=time.perf_counter() - t_start)
