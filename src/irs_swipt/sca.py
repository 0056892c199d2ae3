"""Low-complexity successive-convex-approximation alternating optimization.

Each outer round first ascends the beamformer through a sequence of convex
surrogate programs (the convex quadratics are minorized by their first-order
expansions at the previous iterate), then updates the phase profile in
semi-closed form: the surrogate phase subproblem is solved by entrywise phase
alignment of d + mu*f, with the multiplier mu found by bisection driven by
complementary slackness.  Every surrogate constraint is a restriction of the
original secrecy constraint and every surrogate objective a lower bound that
is tight at the expansion point, so the true harvested power never decreases.

The beamformer surrogate (a linear objective over the power ball intersected
with one convex quadratic whose quadratic part is rank one) is solved exactly
through its Lagrange dual in noise-normalized coordinates: Sherman-Morrison
reduces the Lagrangian maximizer to scalar arithmetic, Newton finds the ball
multiplier and bisection the secrecy multiplier.  The phase step's majorizer
lambda_max(A) of the rank-two A comes from a 2x2 eigenproblem.  No
semidefinite or iterative matrix machinery is involved.
"""

import math
from dataclasses import dataclass
import numpy as np

from .errors import NumericalFailure, PhaseStepInfeasible
from .init import OUTER_TOL, alternate, initial_phase_profile
from .metrics import POWER_SLACK_TOL, Beamformer, PhaseProfile, harvested_power

MAX_INNER_W = 30  # beamformer steps per outer round
MAX_INNER_U = 30  # phase steps per outer round
INNER_TOL = 1e-6  # relative objective increase that ends either inner sequence
QCQP_TOL = 1e-8   # relative bracket width of the beamformer step's secrecy multiplier


@dataclass
class PhaseSubproblemData:
    """Coefficients of the linearized phase subproblem at expansion point u_prev.

    The surrogate objective is 2*Re(u^H d) + c1 and the surrogate secrecy
    constraint is 2*Re(u^H f) >= c2; A = 2^r0 c c^H - b b^H is majorized by
    lambda_max(A) * I.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    alpha: complex
    beta: complex
    gamma: complex
    lambda_max_A: float
    d: np.ndarray
    f: np.ndarray
    c1: float
    c2: float


def _rank_two_max_eigval(gain, c, b):
    """Largest eigenvalue of A = gain c c^H - b b^H = U D U^H, U = [c, b],
    D = diag(gain, -1).  Its nonzero eigenvalues are those of the 2x2 matrix
    D U^H U, with trace t and determinant -r <= 0 (b_perp: b orthogonal to c),
    one of each sign; the other N - 2 are 0.  For N = 1, A is the scalar t.
    """
    cc = float(np.real(np.vdot(c, c)))
    t = gain * cc - float(np.real(np.vdot(b, b)))
    if c.shape[0] == 1:
        return t
    b_perp = b - c * (np.vdot(c, b) / cc) if cc > 0 else b
    r = gain * cc * float(np.real(np.vdot(b_perp, b_perp)))
    return 0.5 * (t + math.sqrt(t * t + 4.0 * r))


def build_phase_data(w, u_prev, channels, cfg):
    """Assemble the phase-subproblem coefficients for a fixed beamformer."""
    w = np.asarray(getattr(w, "w", w), dtype=complex)
    ut = u_prev.u if isinstance(u_prev, PhaseProfile) else np.asarray(u_prev, dtype=complex)
    n = ut.shape[0]
    gain = 2.0 ** cfg.r0

    rw = channels.H_r @ w
    bw = channels.H_b @ w
    ew = channels.H_e @ w
    a, alpha = rw[:n], complex(rw[n])
    b, beta = bw[:n], complex(bw[n])
    c, gamma = ew[:n], complex(ew[n])

    lam = _rank_two_max_eigval(gain, c, b)
    # (lambda_max I - A) u_prev without forming A
    m_minus_a_u = lam * ut - (gain * c * np.vdot(c, ut) - b * np.vdot(b, ut))

    au = complex(a.conj() @ ut)  # a^H u_prev
    d = a * au + a * np.conj(alpha)
    c1 = abs(alpha) ** 2 - abs(au) ** 2
    f = m_minus_a_u + (b * np.conj(beta) - gain * c * np.conj(gamma))
    c2 = (n * lam + float(np.real(ut.conj() @ m_minus_a_u))
          + gain * (abs(gamma) ** 2 + cfg.sigma2_w) - abs(beta) ** 2 - cfg.sigma2_w)
    return PhaseSubproblemData(a=a, b=b, c=c, alpha=alpha, beta=beta, gamma=gamma,
                               lambda_max_A=lam, d=d, f=f, c1=c1, c2=c2)


def u_of_mu(d, f, mu):
    """Entrywise phase alignment u_n = e^{j arg(d_n + mu f_n)}; zero entries
    (measure-zero ties) get phase 0."""
    z = np.asarray(d) + mu * np.asarray(f)
    u = np.ones_like(z)
    nz = z != 0
    u[nz] = z[nz] / np.abs(z[nz])
    return PhaseProfile(u)


def _g_of_mu(d, f, mu):
    return 2.0 * float(np.real(u_of_mu(d, f, mu).u.conj() @ f))


def bisect_mu(data, eps_bisect=1e-8):
    """Multiplier search for the phase subproblem.

    If the constraint already holds at mu = 0 complementary slackness gives
    mu = 0; otherwise g(mu) = 2Re(u(mu)^H f) is non-decreasing, so bisection
    on [0, mu_hi] drives |g(mu) - c2| below eps_bisect*(1+|c2|).  When even
    the mu -> inf limit 2*sum|f_n| cannot reach c2 the step is infeasible.
    """
    d, f, c2 = data.d, data.f, data.c2
    tol = eps_bisect * (1.0 + abs(c2))
    if _g_of_mu(d, f, 0.0) >= c2:
        return 0.0, u_of_mu(d, f, 0.0)
    g_limit = 2.0 * float(np.sum(np.abs(f)))
    if g_limit < c2 - tol:
        raise PhaseStepInfeasible("linearized secrecy constraint unreachable")

    hi = 1.0
    for _ in range(200):
        if _g_of_mu(d, f, hi) >= c2:
            break
        hi *= 2.0
    else:
        if abs(_g_of_mu(d, f, hi) - c2) <= tol:
            return hi, u_of_mu(d, f, hi)
        raise PhaseStepInfeasible("bisection bracket not found")

    lo = 0.0
    for _ in range(200):
        g_hi = _g_of_mu(d, f, hi)
        if abs(g_hi - c2) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if _g_of_mu(d, f, mid) >= c2:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return hi, u_of_mu(d, f, hi)


class _WSurrogate:
    """The beamformer surrogate program in noise-normalized coordinates.

    maximize   2 Re(x^H q)                     (q = g_r g_r^H x_prev)
    subject to ||x||^2 <= 1
               2^r0 |g_e^H x|^2 - 2 Re(x^H p) + kappa <= 0

    with x = w / sqrt(Ps) and channels scaled by sqrt(Ps)/sigma.  f1, f2 and
    objective evaluate the ball, the secrecy constraint and the objective at a
    complex x.
    """

    def __init__(self, v, w_prev, channels, cfg):
        scale = np.sqrt(cfg.ps_w / cfg.sigma2_w)
        self.g_r = (channels.H_r.conj().T @ v) * scale
        self.g_b = (channels.H_b.conj().T @ v) * scale
        self.g_e = (channels.H_e.conj().T @ v) * scale
        self.gain = 2.0 ** cfg.r0
        self.x_prev = np.asarray(w_prev, dtype=complex) / np.sqrt(cfg.ps_w)
        tb = complex(self.g_b.conj() @ self.x_prev)
        self.q = self.g_r * complex(self.g_r.conj() @ self.x_prev)
        self.p = self.g_b * tb
        self.kappa = self.gain - 1.0 + abs(tb) ** 2

    def f1(self, x):
        return float(np.real(np.vdot(x, x))) - 1.0

    def f2(self, x):
        return (self.gain * abs(np.vdot(self.g_e, x)) ** 2
                - 2.0 * float(np.real(np.vdot(self.p, x))) + self.kappa)

    def objective(self, x):
        return 2.0 * float(np.real(np.vdot(self.q, x)))


def _ball_multiplier(a, b, c):
    """Root lam >= 0 of ||x||^2 = a/lam^2 + b/(lam + c)^2 = 1 (0 if the ball is
    inactive).  1/||x|| is concave increasing in lam, so Newton on it climbs
    monotonically from the lower bound max(sqrt(a), sqrt(b) - c) to the root."""
    if a == 0.0:
        return max(math.sqrt(b) - c, 0.0)
    lam = max(math.sqrt(a), math.sqrt(b) - c)
    for _ in range(100):
        e1, e2 = a / lam ** 2, b / (lam + c) ** 2
        phi = e1 + e2
        step = phi * (math.sqrt(phi) - 1.0) / (e1 / lam + e2 / (lam + c))
        if step <= 4e-16 * lam:
            break
        lam += step
    return lam


def _dual_solve(sur, tol, slack, floor):
    """Exact surrogate maximizer via the multipliers lam1 (power ball) and lam2
    (secrecy constraint); None when no lam2 brings the constraint value below
    -slack, i.e. the surrogate has no interior beyond rounding.

    The Lagrangian maximizer x = (lam1 I + lam2 k g g^H)^-1 (q + lam2 p), with
    g = g_e/||g_e|| and k = 2^r0 ||g_e||^2, is r_perp/lam1 + s g by
    Sherman-Morrison (r_perp: the part of q + lam2 p orthogonal to g), so
    ||x||^2 and the constraint value are scalar arithmetic.  The constraint
    value at x(lam2) is minus the slope of the convex dual function, hence
    non-increasing: lam2 = 0 if x(0) = q/||q|| meets it, else lam2 is bisected
    to relative width tol, keeping the feasible end (Boyd & Vandenberghe,
    Convex Optimization, 5.2 and B.1).  Past that width bisection goes on, to
    rounding at most, while the objective at the feasible end is below floor
    (the value at the expansion point, which the optimum cannot be below).
    """
    q, p = sur.q, sur.p
    gn = float(np.linalg.norm(sur.g_e))
    g = sur.g_e / gn if gn > 0 else np.zeros_like(q)
    gq, gp = complex(np.vdot(g, q)), complex(np.vdot(g, p))
    if q.shape[0] == 1 and gn > 0:  # g spans the whole space
        q_perp = p_perp = np.zeros_like(q)
    else:
        q_perp, p_perp = q - gq * g, p - gp * g
    qq = float(np.real(np.vdot(q_perp, q_perp)))
    pp = float(np.real(np.vdot(p_perp, p_perp)))
    qp = float(np.real(np.vdot(q_perp, p_perp)))
    k = sur.gain * gn * gn

    def at(lam2):
        """(1/lam1, or 0 when r_perp = 0; s; constraint value; objective) at x(lam2)."""
        a = gq + lam2 * gp
        c = lam2 * k
        perp2 = max(qq + lam2 * (2.0 * qp + lam2 * pp), 0.0)
        lam1 = _ball_multiplier(perp2, abs(a) ** 2, c)
        t = 1.0 / lam1 if perp2 > 0.0 else 0.0
        s = a / (lam1 + c) if a != 0 else 0j
        h = (k * abs(s) ** 2 - 2.0 * (t * (qp + lam2 * pp) + (gp.conjugate() * s).real)
             + sur.kappa)
        return t, s, h, 2.0 * (t * (qq + lam2 * qp) + (gq.conjugate() * s).real)

    lam2, best = 0.0, at(0.0)
    if best[2] > 0.0:
        scale = math.sqrt(pp + abs(gp) ** 2) + k  # ||p|| + k
        hi = math.sqrt(qq + abs(gq) ** 2) / scale if scale > 0.0 else 0.0
        if hi == 0.0:  # p = g_e = 0 leaves the constraint value constant
            return None
        lo = 0.0
        # past 1e17 times the scale ||q|| / (||p|| + k), q is below the
        # rounding of q + lam2 p and x(lam2) no longer moves
        cap = 1e17 * hi
        best = at(hi)
        while best[2] > -slack:
            if best[2] > 0.0:
                lo = hi
            hi *= 2.0
            if hi > cap:
                return None
            best = at(hi)
        while hi - lo > tol * hi or (best[3] < floor and hi - lo > 1e-15 * hi):
            mid = 0.5 * (lo + hi)
            cand = at(mid)
            if cand[2] > 0.0:
                lo = mid
            else:
                hi, best = mid, cand
        lam2 = hi
    t, s = best[:2]
    x = t * (q_perp + lam2 * p_perp) + s * g
    return x / max(1.0, float(np.linalg.norm(x)))


def sca_w_step(v, w_prev, channels, cfg):
    """One surrogate beamformer maximization at expansion point w_prev.

    The output never lowers the true objective |v^H H_r w|^2 (the surrogate is
    tight at w_prev and a global lower bound).  When no point of the surrogate
    feasible set ascends, w_prev is returned unchanged; NumericalFailure
    signals an infeasible expansion point, which cannot happen for feasible
    w_prev.
    """
    v = np.asarray(getattr(v, "v", v), dtype=complex)
    w_prev = np.asarray(getattr(w_prev, "w", w_prev), dtype=complex)
    sur = _WSurrogate(v, w_prev, channels, cfg)
    if np.linalg.norm(sur.q) < 1e-300:
        return Beamformer(w_prev)
    slack = 1e-9 * (1.0 + abs(sur.kappa))
    if sur.f2(sur.x_prev) > slack:
        raise NumericalFailure("expansion point violates the secrecy constraint")

    floor = sur.objective(sur.x_prev)
    x = _dual_solve(sur, QCQP_TOL, slack, floor)
    if x is None:
        return Beamformer(w_prev)
    if sur.f1(x) > POWER_SLACK_TOL or sur.f2(x) > slack or sur.objective(x) < floor:
        return Beamformer(w_prev)
    return Beamformer(x * np.sqrt(cfg.ps_w))


def _true_w_objective(v, w, channels):
    return abs(np.vdot(v, channels.H_r @ w)) ** 2


def sca_ao(channels, cfg):
    """Full SCA-based alternating optimization.

    harvested_trace holds the true harvested power per outer iteration,
    starting from the initial point, and is non-decreasing.
    """
    def step(state, counts):
        w, u = state
        v = u.v
        val = _true_w_objective(v, w, channels)
        for _ in range(MAX_INNER_W):
            w = sca_w_step(v, w, channels, cfg).w
            counts["w"] += 1
            new_val = _true_w_objective(v, w, channels)
            if new_val - val <= INNER_TOL * max(new_val, 1e-300):
                break
            val = new_val

        if cfg.N > 0:
            val = _true_w_objective(u.v, w, channels)
            for _ in range(MAX_INNER_U):
                data = build_phase_data(w, u, channels, cfg)
                try:
                    _, u_new = bisect_mu(data)
                except PhaseStepInfeasible:
                    break
                counts["u"] += 1
                new_val = _true_w_objective(u_new.v, w, channels)
                if new_val < val * (1.0 - 1e-12):
                    break  # numerical regression; keep the previous profile
                u = u_new
                if new_val - val <= INNER_TOL * max(new_val, 1e-300):
                    break
                val = new_val
        return (w, u), harvested_power(w, u, channels, cfg.zeta)

    return alternate(channels, cfg, initial_phase_profile(cfg), step,
                     OUTER_TOL, cfg.max_outer_iters)
