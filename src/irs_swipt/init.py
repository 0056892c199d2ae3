"""What the alternating-optimization solvers share: the starting phase
profile, the full-power secrecy-maximizing beamformer used as a feasibility
probe and as a strictly feasible starting point, and the alternation loop
that sdr_ao, sca_ao and the beamformer-only baselines all run (sdr_ao also
maps its final relaxed state to a rank-one pair once, after the loop)."""

import time

import numpy as np

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


def feasibility_probe(channels, cfg, u0):
    """(feasible, w, sr_max): whether the secrecy target r0 is attainable with
    the initial profile, and the probing beamformer."""
    w, sr_max = max_sr_beamformer(u0.v, channels, cfg)
    return sr_max >= cfg.r0, w, sr_max


def alternate(channels, cfg, u, step, eps, max_iters, recover=None):
    """Repeat ``state, value = step(state, counts)`` from the probe's (w, u)
    until the trace's relative increase drops below eps (Converged) or for
    max_iters steps (MaxIters); Infeasible with an empty trace if the probe
    cannot meet the secrecy target at u.  step adds its inner beamformer and
    phase steps to counts["w"] and counts["u"].

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
    counts = {"w": 0, "u": 0}
    status = "MaxIters"
    for it in range(1, max_iters + 1):
        state, value = step(state, counts)
        trace.append(value)
        if len(trace) >= 2 and trace[-1] > 0 and (trace[-1] - trace[-2]) / trace[-1] < eps:
            status = "Converged"
            break
    w, u = state if recover is None else recover(state)
    return SolveResult(
        w=Beamformer(w), u=u, harvested_trace=trace,
        achieved_sr=secrecy_rate(w, u, channels, cfg.sigma2_w),
        status=status, iters_outer=it, iters_inner_w=counts["w"], iters_inner_u=counts["u"],
        wall_clock=time.perf_counter() - t_start)
