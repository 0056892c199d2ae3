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
whose semidefinite relaxation is tight, so sca_w_step solves it exactly, in
closed form (init.exact_w).  The phase step's majorizer lambda_max(A) of the
rank-two A comes from a 2x2 eigenproblem, which spares this method the
profile SDP; with H_x w it depends on the beamformer alone, so sca_ao takes
both once per beamformer step (beam_terms).

The layers here work on the noise-normalized init.Problem (unit-budget
beamformers, unit noise), apart from one line: bisect_mu's stop test, which
is in watts.
"""

import numpy as np

from .errors import PhaseStepInfeasible, SubproblemInfeasible
from .init import _rank_two_max_eigval, alternate, exact_w, harvested_snr, initial_phase_profile
from .metrics import Beamformer, PhaseProfile

MAX_INNER_U = 30  # phase steps per outer round
INNER_TOL = 1e-6  # relative objective increase that ends the phase steps
MU_TOL = 1e-8  # bisect_mu stops once |g(mu) - c2| <= MU_TOL * (1 + |c2|) in watts


def beam_terms(w, problem):
    """The phase data's part that depends on the unit-budget beamformer array w
    alone: (H_r w, H_b w, H_e w, 2^r0, lambda_max(A)), A as in build_phase_data."""
    yr, yb, ye = (H @ w for H in (problem.Hr, problem.Hb, problem.He))
    return yr, yb, ye, problem.gain, _rank_two_max_eigval(problem.gain, ye[:-1], yb[:-1])


def build_phase_data(terms, ut):
    """The phase subproblem (d, f, c2) at the profile array ut for a fixed
    beamformer w, terms = beam_terms(w, problem):
    maximize 2 Re(u^H d) s.t. 2 Re(u^H f) >= c2.  With a, b, c the IRS rows
    and alpha, beta, gamma the direct entries of Hr w, Hb w, He w, the
    objective plus |alpha|^2 - |a^H ut|^2 is a lower bound on
    |u^H a + alpha|^2, tight at ut.  The constraint majorizes
    A = 2^r0 c c^H - b b^H by lambda_max(A) * I, so it restricts the true
    secrecy constraint.
    """
    rw, bw, ew, gain, lam = terms
    n = ut.shape[0]
    a, alpha = rw[:n], complex(rw[n])
    b, beta = bw[:n], complex(bw[n])
    c, gamma = ew[:n], complex(ew[n])
    # (lambda_max I - A) ut without forming A
    m_minus_a_u = lam * ut - (gain * c * np.vdot(c, ut) - b * np.vdot(b, ut))
    au = complex(a.conj() @ ut)  # a^H ut
    d = a * au + a * np.conj(alpha)
    f = m_minus_a_u + (b * np.conj(beta) - gain * c * np.conj(gamma))
    c2 = (n * lam + float(np.real(ut.conj() @ m_minus_a_u))
          + gain * (abs(gamma) ** 2 + 1.0) - abs(beta) ** 2 - 1.0)
    return d, f, c2


def _aligned(z):
    """The phases z_n / |z_n|; zero entries (measure-zero ties) get phase 0."""
    r = np.abs(z)
    return np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)


def u_of_mu(d, f, mu):
    """The profile of entrywise phase alignment u_n = e^{j arg(d_n + mu f_n)},
    phase 0 at zero entries."""
    return PhaseProfile(_aligned(np.asarray(d) + mu * np.asarray(f)))


def _g_of_mu(d, f, mu):
    """(g(mu), u(mu)): g(mu) = 2 Re(u(mu)^H f) at the aligned profile array
    u(mu); for an array of multipliers, one g and one row u per entry."""
    u = _aligned(d + np.multiply.outer(mu, f))
    return 2.0 * np.real(u.conj() @ f), u


# mu = 0 and the bracket's upper ends 2^0 ... 2^200, in array passes: the first
# to 2^17 (the largest multiplier of batch-like and paper runs), then 64 each.
_MULTIPLIERS = np.concatenate([[0.0], np.ldexp(1.0, np.arange(201))])
_PASSES = np.split(_MULTIPLIERS, range(19, len(_MULTIPLIERS), 64))


def bisect_mu(d, f, c2, sigma2):
    """Multiplier search for the phase subproblem: (mu, the profile array u(mu)).

    If the constraint holds at mu = 0 complementary slackness gives mu = 0;
    otherwise g(mu) = 2Re(u(mu)^H f) is non-decreasing, the bracket's upper
    end is the first hi = 2^k, k = 0, 1, ..., with g(hi) >= c2 (the array
    passes of _PASSES, the first of which holds mu = 0 too), and bisection on
    [0, hi] stops once |g(hi) - c2| <= tol or once the bracket cannot shrink
    in floating point (g jumps past c2).  When even the mu -> inf limit
    2*sum|f_n| cannot reach c2 the step is infeasible.

    (d, f, c2) are in the noise units of build_phase_data, and tol is
    MU_TOL*(1+|c2|) for the problem in watts, sigma2 times these: absolute
    where |c2| << 1 W, as on the paper's scales, where it usually holds at
    the doubling's hi already, so that mu can be up to twice the exact root.
    """
    # the stop test in watts, which keeps sca_ao's steps those of the problem
    # in watts: a test relative in noise units stops at other multipliers
    tol = MU_TOL * (1.0 + sigma2 * abs(c2)) / sigma2
    for mus in _PASSES:
        g, rows = _g_of_mu(d, f, mus)
        k = int(np.argmax(g >= c2))  # the first end that clears c2, if any
        if g[k] >= c2:
            break
        if 2.0 * float(np.sum(np.abs(f))) < c2 - tol:
            raise PhaseStepInfeasible("linearized secrecy constraint unreachable")
    else:
        k = -1
    hi, g_hi, u = float(mus[k]), float(g[k]), rows[k]  # hi = 0 ends the bisection at once
    if not g_hi >= c2 - tol:
        raise PhaseStepInfeasible("bisection bracket not found")

    lo = 0.0
    for _ in range(200):
        if abs(g_hi - c2) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        g_mid, u_mid = _g_of_mu(d, f, mid)
        if g_mid >= c2:
            hi, g_hi, u = mid, g_mid, u_mid
        else:
            lo = mid
    return hi, u


def sca_w_step(v, w_prev, problem):
    """Exact beamformer step for the fixed profile v: init.exact_w(v), or
    w_prev when it does at least as well in |v^H Hr w|^2 or exact_w finds
    the target unattainable, which for a feasible w_prev is rounding (see rank_one_w).
    """
    try:
        w = exact_w(v, problem)
    except SubproblemInfeasible:
        w = w_prev
    if harvested_snr(v, w, problem) <= harvested_snr(v, w_prev, problem):
        w = w_prev
    return Beamformer(w)


def sca_ao(channels, cfg):
    """Full SCA-based alternating optimization.

    harvested_trace holds the true harvested power per outer iteration,
    starting from the initial point, and is non-decreasing.
    """
    def step(problem, state, counts):
        w, u = state
        w = sca_w_step(u.v, w, problem).w
        if cfg.N > 0:
            terms, v = beam_terms(w, problem), u.v
            val = abs(np.vdot(v, terms[0])) ** 2  # harvested_snr(v, w, problem)
            for _ in range(MAX_INNER_U):
                try:
                    _, u_new = bisect_mu(*build_phase_data(terms, v[:-1]), cfg.sigma2_w)
                except PhaseStepInfeasible:
                    break
                counts["u"] += 1
                v_new = np.append(u_new, 1.0)
                new_val = abs(np.vdot(v_new, terms[0])) ** 2
                # a mu above the root (see bisect_mu) can lower the value: keep v then
                if new_val >= val * (1.0 - 1e-12):
                    v = v_new
                if new_val - val <= INNER_TOL * max(new_val, 1e-300):
                    break
                val = new_val
            u = PhaseProfile(v[:-1])
        return (w, u), harvested_snr(u.v, w, problem)

    return alternate(channels, cfg, initial_phase_profile(cfg), step)
