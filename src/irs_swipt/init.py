"""What the alternating-optimization solvers share: the noise-normalized
problem every solver layer takes (normalized), the starting phase profile, the
full-power secrecy-maximizing beamformer used as a feasibility probe and as a
strictly feasible starting point, the exact beamformer for a fixed profile
(exact_w, the closed form of the 1-D dual rank_one_w searches for sdr_ao's W
half-step) that sca_ao, the beamformer-only baselines and sdr_ao's profile
recovery all take, and the alternation loop they all run (sdr_ao also maps its
final relaxed state to a rank-one pair once, after the loop).

The subproblems depend on the channels only through SNRs, so every layer
below alternate works in noise units: the stacks H_x sqrt(Ps)/sigma, a
beamformer of unit power budget and unit noise power.  alternate builds that
Problem once per solve and converts to watts once, on the way out.
"""

import math
import time
from collections import namedtuple

import numpy as np

from .errors import SubproblemInfeasible
from .linalg import herm_eig
from .metrics import Beamformer, PhaseProfile, SolveResult, secrecy_rate

OUTER_TOL = 1e-3  # relative trace increase below which sdr_ao and sca_ao stop


# The instance in noise units: the stacks H_x sqrt(Ps/sigma^2), so that
# |v^H Hr w|^2 is an SNR for a unit-budget w, the secrecy target r0 in bits
# and its gain 2^r0.  The feasibility probe compares in bits, so that r0 =
# the probe's own sr_max is feasible without rounding.
Problem = namedtuple("Problem", ["Hr", "Hb", "He", "r0", "gain"])


def normalized(channels, cfg):
    """The Problem of an instance."""
    s = np.sqrt(cfg.ps_w / cfg.sigma2_w)
    return Problem(channels.H_r * s, channels.H_b * s, channels.H_e * s, cfg.r0, 2.0 ** cfg.r0)


def harvested_snr(v, w, problem):
    """|v^H Hr w|^2, the harvested power over zeta sigma^2."""
    return abs(np.vdot(v, problem.Hr @ w)) ** 2


def initial_phase_profile(cfg, rng=None):
    """Zero-phase profile by default; uniform random phases in ablation mode."""
    if cfg.init_phases == "random":
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        return PhaseProfile(np.exp(-2j * np.pi * rng.random(cfg.N)))
    return PhaseProfile(np.ones(cfg.N, dtype=complex))


def max_sr_beamformer(v, problem):
    """Unit-budget beamformer maximizing the secrecy rate for a fixed profile v.

    For fixed v the rate ratio is a generalized Rayleigh quotient, so the
    optimum is the principal generalized eigenvector of the Bob/EVE pencil at
    full power.  Returns (w, sr_max in bits/s/Hz).
    """
    g_b = problem.Hb.conj().T @ v
    g_e = problem.He.conj().T @ v
    noise = np.eye(g_b.shape[0])
    B = np.outer(g_b, g_b.conj()) + noise
    E = np.outer(g_e, g_e.conj()) + noise
    vals_e, vecs_e = herm_eig(E)
    e_isqrt = (vecs_e / np.sqrt(np.maximum(vals_e, 1e-300))) @ vecs_e.conj().T
    vals, vecs = herm_eig(e_isqrt @ B @ e_isqrt)
    x = e_isqrt @ vecs[:, -1]
    w = x / np.linalg.norm(x)
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

    With two trace constraints the SDP relaxation has a rank-one optimum e e^H
    and the convex 1-D dual min_{lam >= 0} lambda_max(Rr + lam A) - lam c,
    whose derivative h(lam) - c, h(lam) = e(lam)^H A e(lam) for the top
    eigenvector e(lam) of Rr + lam A, is nondecreasing.  lam = 0 settles it
    when the constraint is slack there; otherwise lam lies in [0, hi], hi
    twice the bound lambda_max(Rr) / (lambda_max(A) - c).  The bracket's
    feasible end starts at A's top eigenvector, the limit of e(lam) as lam
    grows, where e^H A e = lambda_max(A) >= c, so no eigh is taken at hi.
    Safeguarded Newton steps on h(lam) = c, with h'(lam) = 2 sum_k
    |e_k^H A e|^2 / (lambda_top - lambda_k) from the same eigh, start at the
    multiplier of Rr's rank-one part lambda_max(Rr) e(0) e(0)^H (_secular on
    eigh(A)); a point outside the open bracket, or a zero slope, bisects.
    e(lam) is returned once 0 <= h(lam) - c <= NEWTON_REL_TOL * c; else, at
    a bracket of relative width BISECT_REL_WIDTH, the ends' eigenvectors span
    the top eigenspace at the optimum (h jumps past c where eigenvalues
    cross), and e is the point of their segment with e^H A e = c
    (_feasible_combination); where no trial reached the feasible side, that
    segment ends at A's top eigenvector.

    Raises SubproblemInfeasible when lambda_max(A) < c: for the AO methods,
    which start from a beamformer meeting the constraint by construction, that
    is rounding at r0 = the attainable maximum (A cancels at the scale of the
    channel gains, not of c), and they keep that beamformer.
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
    e_hi, g_hi = vecs_a[:, -1], float(vals_a[-1])  # feasible: the check above
    ru = math.sqrt(top_r) * (vecs_a.conj().T @ e_lo)
    s, y = _secular(vals_a - c, ru)
    lam = (1.0 - s) * float(np.real(np.vdot(ru, y)))  # the rank-one part's multiplier
    for _ in range(MAX_HALVINGS):
        lam = lam if lo < lam < hi else 0.5 * (lo + hi)
        e, g, slope = top(lam)
        if g >= c:
            hi, e_hi, g_hi = lam, e, g
        else:
            lo, e_lo, g_lo = lam, e, g
        if 0 <= g - c <= NEWTON_REL_TOL * c:
            return e_hi
        if hi - lo <= BISECT_REL_WIDTH * hi:
            break
        lam = lam - (g - c) / slope if slope > 0 else hi  # hi is outside: bisect
    return _feasible_combination(e_lo, g_lo, e_hi, g_hi, A, c)


def _secular(q, ru):
    """(s, y) with U y, up to scale, the optimum of max |r^H x|^2 s.t.
    x^H Q x >= 0, ||x|| = 1 for Q = U diag(q) U^H (q ascending, q[-1] > 0),
    ru = U^H r and r^H Q r < 0.  y = ru / D, D = q[-1] - (1 - s) q, is
    (I - tQ)^-1 r at the root t = (1 - s) / q[-1] of the trust-region secular
    equation sum_k |ru_k|^2 q_k / (1 - t q_k)^2 = 0 (Moré & Sorensen, 1983):
    Newton steps from s = 1 on psi(s) = s - sqrt(a / n(s)), a = |ru_top|^2 /
    q[-1], n(s) = -sum_{k < top} |ru_k|^2 q_k / D_k^2, which is convex where
    those q_k < 0 (exact_w's rank-two A).  The hard case ru_top = 0 ends at
    s = 0 with y_top = sqrt(n(0) / q[-1]): the constraint holds with equality.
    """
    qm, rho = float(q[-1]), np.abs(ru) ** 2
    a, terms = rho[-1] / qm, list(zip(q[:-1].tolist(), (-rho[:-1] * q[:-1]).tolist()))
    s = 1.0
    for _ in range(MAX_HALVINGS):
        n = dn = 0.0
        for qk, wk in terms:
            d = qm - (1.0 - s) * qk
            n += wk / (d * d)
            dn -= 2.0 * wk * qk / (d * d * d)
        if not n > 0:
            break  # another positive q_k outweighs the rest (rank_one_w's start only)
        root = math.sqrt(a / n)
        step = (s - root) / (1.0 + 0.5 * root * dn / n)
        s = max(s - step, 0.0)
        if abs(step) <= 1e-15 * s:
            break
    y = ru / np.append(qm - (1.0 - s) * q[:-1], s * qm if s > 0 else 1.0)
    if s == 0:  # the hard case
        y[-1] = math.sqrt(max(n, 0.0) / qm)
    return s, y


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


def _rank_two_max_eigval(gain, c, b):
    """Largest eigenvalue of A = gain c c^H - b b^H = U D U^H, U = [c, b],
    D = diag(gain, -1).  Its nonzero eigenvalues are those of the 2x2 matrix
    D U^H U, with trace t and determinant -r <= 0 (b_perp: b orthogonal to c),
    one of each sign; the others are 0.  For vectors of length 1, A is t.
    """
    cc = float(np.real(np.vdot(c, c)))
    t = gain * cc - float(np.real(np.vdot(b, b)))
    if c.shape[0] == 1:
        return t
    b_perp = b - c * (np.vdot(c, b) / cc) if cc > 0 else b
    r = gain * cc * float(np.real(np.vdot(b_perp, b_perp)))
    return 0.5 * (t + math.sqrt(t * t + 4.0 * r))


def exact_w(v, problem):
    """Unit-budget exact beamformer for the profile v = [u; 1]: in closed form,
    rank_one_w(g_r g_r^H, A, c), A = g_b g_b^H - 2^r0 g_e g_e^H, c = 2^r0 - 1,
    g_x = H_x^H v.  Raises SubproblemInfeasible when lambda_max(A) < c, from
    A's trace and Gram determinant (an eigh of the formed A rounds at the
    gains' scale).  Returns [1] at M = 1, maximum-ratio transmission where it
    is feasible, A's top eigenvector where g_r = 0 or lambda_max(A) = c, and
    otherwise _secular's optimum."""
    g_r, g_b, g_e = (H.conj().T @ v for H in (problem.Hr, problem.Hb, problem.He))
    gain, c = problem.gain, problem.gain - 1.0
    A = np.outer(g_b, g_b.conj()) - gain * np.outer(g_e, g_e.conj())
    lam_a = _rank_two_max_eigval(1.0, g_b, math.sqrt(gain) * g_e)
    if lam_a < c:
        raise SubproblemInfeasible("secrecy target unattainable for the fixed profile")
    if g_r.shape[0] == 1:
        return np.ones(1, dtype=complex)
    rr = float(np.real(np.vdot(g_r, g_r)))
    if rr > 0 and abs(np.vdot(g_r, g_b)) ** 2 - gain * abs(np.vdot(g_r, g_e)) ** 2 >= c * rr:
        return g_r / math.sqrt(rr)
    vals, U = np.linalg.eigh(A)
    if rr == 0 or lam_a == c:
        return U[:, -1]
    x = U @ _secular(np.append(vals[:-1], lam_a) - c, U.conj().T @ g_r)[1]
    return x / np.linalg.norm(x)


def feasibility_probe(problem, u0):
    """(feasible, w, sr_max): whether the secrecy target r0 is attainable with
    the initial profile, and the probing beamformer."""
    w, sr_max = max_sr_beamformer(u0.v, problem)
    return sr_max >= problem.r0, w, sr_max


def alternate(channels, cfg, u, step, recover=None):
    """Repeat ``state, value = step(problem, state, counts)`` from the probe's
    (w, u) until the trace's relative increase drops below OUTER_TOL
    (Converged) or for cfg.max_outer_iters steps (MaxIters); Infeasible with
    an empty trace if the probe cannot meet the secrecy target at u.  Each
    step takes one beamformer step and adds its phase steps to counts["u"],
    so iters_outer also counts the beamformer steps.

    problem is normalized(channels, cfg), built once: the steps carry
    unit-budget beamformers, and their values are SNRs.  Without recover the
    state is the (w, u) pair and the trace starts at its harvested SNR.  With
    recover the state is a relaxation, so the trace holds step values only,
    and recover(problem, state) maps the final state to the returned (w, u)
    pair.  The result is in watts: w times sqrt(Ps), each trace value times
    zeta sigma^2.
    """
    t_start = time.perf_counter()
    problem = normalized(channels, cfg)
    ok, w, sr_max = feasibility_probe(problem, u)
    if not ok:
        return SolveResult(w=Beamformer(np.sqrt(cfg.ps_w) * w), u=u, achieved_sr=sr_max,
                           status="Infeasible", wall_clock=time.perf_counter() - t_start)
    state = (w, u)
    trace = [harvested_snr(u.v, w, problem)] if recover is None else []
    counts = {"u": 0}
    status = "MaxIters"
    for it in range(1, cfg.max_outer_iters + 1):
        state, value = step(problem, state, counts)
        trace.append(value)
        if len(trace) >= 2 and trace[-1] > 0 and (trace[-1] - trace[-2]) / trace[-1] < OUTER_TOL:
            status = "Converged"
            break
    w, u = state if recover is None else recover(problem, state)
    w = np.sqrt(cfg.ps_w) * w
    return SolveResult(
        w=Beamformer(w), u=u, harvested_trace=[cfg.zeta * cfg.sigma2_w * t for t in trace],
        achieved_sr=secrecy_rate(w, u, channels, cfg.sigma2_w),
        status=status, iters_outer=it, iters_inner_u=counts["u"],
        wall_clock=time.perf_counter() - t_start)
