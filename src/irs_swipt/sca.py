"""Low-complexity successive-convex-approximation alternating optimization.

Each outer round first takes the exact beamformer step for the current
profile, then updates the profile in semi-closed form: the phase subproblem
(d, f, c2) of build_phase_data, max 2 Re(u^H d) s.t. 2 Re(u^H f) >= c2, is
solved by entrywise phase alignment of d + mu*f, with mu set by complementary
slackness (bisect_mu).  The surrogate constraint restricts the original one
and the surrogate objective is, up to a constant, a lower bound tight at the
expansion point, so at the exact multiplier a phase step cannot lower the
true harvested power.  bisect_mu's multiplier can exceed the root, up to
twice it, and there a step can: sca_ao then keeps the previous profile, which
is what keeps its trace non-decreasing.

For a fixed profile the beamformer problem is a QCQP with two constraints
whose semidefinite relaxation is tight, so sca_w_step solves it exactly
(init.exact_w, the same 1-D dual as the SDR W step, built from the three
M-dimensional gain vectors).  The phase step's majorizer lambda_max(A) of
the rank-two A comes from a 2x2 eigenproblem, which is what spares this
method the profile SDP.
"""

import math
import numpy as np

from .errors import PhaseStepInfeasible, SubproblemInfeasible
from .init import alternate, exact_w, initial_phase_profile
from .metrics import Beamformer, PhaseProfile, harvested_power

MAX_INNER_U = 30  # phase steps per outer round
INNER_TOL = 1e-6  # relative objective increase that ends the phase steps
MU_TOL = 1e-8  # bisect_mu stops once |g(mu) - c2| <= MU_TOL * (1 + |c2|)


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
    """The phase subproblem (d, f, c2) at the PhaseProfile u_prev for a fixed
    beamformer array w:
    maximize 2 Re(u^H d) s.t. 2 Re(u^H f) >= c2.  With a, b, c the IRS rows
    and alpha, beta, gamma the direct entries of H_r w, H_b w, H_e w, the
    objective plus |alpha|^2 - |a^H u_prev|^2 is a lower bound on
    |u^H a + alpha|^2, tight at u_prev.  The constraint majorizes
    A = 2^r0 c c^H - b b^H by lambda_max(A) * I, so it restricts the true
    secrecy constraint.
    """
    ut = u_prev.u
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
    f = m_minus_a_u + (b * np.conj(beta) - gain * c * np.conj(gamma))
    c2 = (n * lam + float(np.real(ut.conj() @ m_minus_a_u))
          + gain * (abs(gamma) ** 2 + cfg.sigma2_w) - abs(beta) ** 2 - cfg.sigma2_w)
    return d, f, c2


def _aligned(z):
    """The phases z_n / |z_n|; zero entries (measure-zero ties) get phase 0."""
    u = np.ones_like(z)
    nz = z != 0
    u[nz] = z[nz] / np.abs(z[nz])
    return u


def u_of_mu(d, f, mu):
    """The profile of entrywise phase alignment u_n = e^{j arg(d_n + mu f_n)},
    phase 0 at zero entries."""
    return PhaseProfile(_aligned(np.asarray(d) + mu * np.asarray(f)))


def _g_of_mu(d, f, mu):
    """g(mu) = 2 Re(u(mu)^H f); for an array of multipliers, one g per entry."""
    return 2.0 * np.real(_aligned(d + np.multiply.outer(mu, f)).conj() @ f)


# The bracket's candidate upper ends hi = 2^0 ... 2^200 (1 and 200 doublings
# of it), of which DOUBLINGS_PER_PASS are evaluated together in one array pass.
_BRACKET_ENDS = np.ldexp(1.0, np.arange(201))
DOUBLINGS_PER_PASS = 64


def bisect_mu(d, f, c2):
    """Multiplier search for the phase subproblem.

    If the constraint already holds at mu = 0 complementary slackness gives
    mu = 0; otherwise g(mu) = 2Re(u(mu)^H f) is non-decreasing.  The bracket's
    upper end is the first hi = 2^k, k = 0, 1, ..., with g(hi) >= c2, found
    by evaluating g at DOUBLINGS_PER_PASS of them per array pass; bisection on
    [0, hi] then stops once |g(hi) - c2| <= MU_TOL*(1+|c2|), or once the
    bracket cannot shrink in floating point (g jumps past c2).  That
    tolerance is absolute when |c2| << 1, as it is on the paper's scales,
    where it usually holds at the doubling's hi already: the doubling, not
    the bisection, then decides mu, which can be up to twice the exact root.
    When even the mu -> inf limit 2*sum|f_n| cannot reach c2 the step is
    infeasible.
    """
    tol = MU_TOL * (1.0 + abs(c2))
    if _g_of_mu(d, f, 0.0) >= c2:
        return 0.0, u_of_mu(d, f, 0.0)
    g_limit = 2.0 * float(np.sum(np.abs(f)))
    if g_limit < c2 - tol:
        raise PhaseStepInfeasible("linearized secrecy constraint unreachable")

    for start in range(0, len(_BRACKET_ENDS), DOUBLINGS_PER_PASS):
        his = _BRACKET_ENDS[start:start + DOUBLINGS_PER_PASS]
        g_his = _g_of_mu(d, f, his)
        cleared = np.flatnonzero(g_his >= c2)
        if cleared.size:
            hi, g_hi = float(his[cleared[0]]), float(g_his[cleared[0]])
            break
    else:
        hi, g_hi = float(his[-1]), float(g_his[-1])
    if not g_hi >= c2 - tol:
        raise PhaseStepInfeasible("bisection bracket not found")

    lo = 0.0
    for _ in range(200):
        if abs(g_hi - c2) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        g_mid = _g_of_mu(d, f, mid)
        if g_mid >= c2:
            hi, g_hi = mid, g_mid
        else:
            lo = mid
    return hi, u_of_mu(d, f, hi)


def _true_w_objective(v, w, channels):
    return abs(np.vdot(v, channels.H_r @ w)) ** 2


def sca_w_step(v, w_prev, channels, cfg):
    """Exact beamformer step for the fixed profile v: sqrt(Ps) init.exact_w(v),
    or w_prev when it does at least as well in |v^H H_r w|^2 or exact_w finds
    the target unattainable, which for a feasible w_prev is rounding (see rank_one_w).
    """
    try:
        w = np.sqrt(cfg.ps_w) * exact_w(v, channels, cfg)
    except SubproblemInfeasible:
        w = w_prev
    if _true_w_objective(v, w, channels) <= _true_w_objective(v, w_prev, channels):
        w = w_prev
    return Beamformer(w)


def sca_ao(channels, cfg):
    """Full SCA-based alternating optimization.

    harvested_trace holds the true harvested power per outer iteration,
    starting from the initial point, and is non-decreasing.
    """
    def step(state, counts):
        w, u = state
        w = sca_w_step(u.v, w, channels, cfg).w
        if cfg.N > 0:
            val = _true_w_objective(u.v, w, channels)
            for _ in range(MAX_INNER_U):
                try:
                    _, u_new = bisect_mu(*build_phase_data(w, u, channels, cfg))
                except PhaseStepInfeasible:
                    break
                counts["u"] += 1
                new_val = _true_w_objective(u_new.v, w, channels)
                # a mu above the root (see bisect_mu) can lower the value: keep u then
                if new_val >= val * (1.0 - 1e-12):
                    u = u_new
                if new_val - val <= INNER_TOL * max(new_val, 1e-300):
                    break
                val = new_val
        return (w, u), harvested_power(w, u, channels, cfg.zeta)

    return alternate(channels, cfg, initial_phase_profile(cfg), step)
