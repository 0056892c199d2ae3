"""Rates, secrecy rate, harvested power, and feasibility checks for any
candidate beamformer / phase-profile pair.  All functions are pure."""

from dataclasses import dataclass, field
import numpy as np

from .errors import InvalidInput

# feasibility slack thresholds (see check_feasible)
SR_SLACK_TOL = 1e-6        # bits/s/Hz
POWER_SLACK_TOL = 1e-9     # relative to the power budget
MODULUS_TOL = 1e-12        # absolute deviation of |u_n| from 1


@dataclass
class PhaseProfile:
    """Unit-modulus IRS vector u; v = [u; 1] is the augmented profile."""

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=complex).reshape(-1)
        if self.u.size and not np.max(np.abs(np.abs(self.u) - 1.0)) <= MODULUS_TOL:
            raise InvalidInput("phase profile entries must be unit modulus")

    @property
    def v(self):
        return np.concatenate([self.u, [1.0 + 0.0j]])


@dataclass
class Beamformer:
    """Complex transmit vector; the power budget is checked by check_feasible."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex).reshape(-1)


@dataclass
class SolveResult:
    """Output of an alternating-optimization solver.

    harvested_trace holds one value per outer iteration (the relaxation
    objective for the SDR solver, the true harvested power for the SCA one)
    and is non-decreasing up to numerical noise.
    """

    w: Beamformer
    u: PhaseProfile
    harvested_trace: list = field(default_factory=list)
    achieved_sr: float = 0.0
    status: str = "Converged"          # Converged | MaxIters | Infeasible
    iters_outer: int = 0
    iters_inner_w: int = 0
    iters_inner_u: int = 0
    wall_clock: float = 0.0


def effective_gain(w, u, H):
    """v^H H w for one stacked channel matrix."""
    w = np.asarray(w, dtype=complex)
    v = u.v if isinstance(u, PhaseProfile) else np.append(np.asarray(u, dtype=complex), 1.0)
    return complex(v.conj() @ H @ w)


def rate_bob(w, u, channels, sigma2):
    """log2(1 + |v^H H_b w|^2 / sigma2)."""
    g = effective_gain(w, u, channels.H_b)
    return float(np.log2(1.0 + abs(g) ** 2 / sigma2))


def rate_eve(w, u, channels, sigma2):
    """log2(1 + |v^H H_e w|^2 / sigma2)."""
    g = effective_gain(w, u, channels.H_e)
    return float(np.log2(1.0 + abs(g) ** 2 / sigma2))


def secrecy_rate(w, u, channels, sigma2):
    """max{0, rate_bob - rate_eve}."""
    return max(0.0, rate_bob(w, u, channels, sigma2) - rate_eve(w, u, channels, sigma2))


def harvested_power(w, u, channels, zeta):
    """zeta * |v^H H_r w|^2 in watts."""
    g = effective_gain(w, u, channels.H_r)
    return float(zeta * abs(g) ** 2)


def check_feasible(w, u, cfg, channels):
    """Slack report for a candidate (w, u).

    The secrecy constraint is checked in its product form
    |v^H H_b w|^2 + sigma2 >= 2^r0 (|v^H H_e w|^2 + sigma2), i.e. the slack is
    log2 of the power ratio minus r0 (equivalent to the max{0,.}-free secrecy
    rate for r0 > 0).  Returns (feasible, violations) where violations is a
    list of human-readable strings, plus the individual slacks; a non-finite
    entry of w or u is a violation, with every slack NaN.
    """
    w_arr = np.asarray(w, dtype=complex)
    u_arr = u.u if isinstance(u, PhaseProfile) else np.asarray(u, dtype=complex).reshape(-1)
    if not (np.all(np.isfinite(w_arr)) and np.all(np.isfinite(u_arr))):
        nan = float("nan")
        return FeasibilityReport(False, ["non-finite entries in w or u"], nan, nan, nan)
    gb = abs(effective_gain(w_arr, u_arr, channels.H_b)) ** 2
    ge = abs(effective_gain(w_arr, u_arr, channels.H_e)) ** 2
    sr_slack = float(np.log2((gb + cfg.sigma2_w) / (ge + cfg.sigma2_w)) - cfg.r0)
    power = float(np.real(np.vdot(w_arr, w_arr)))
    power_slack = (cfg.ps_w - power) / cfg.ps_w
    modulus_dev = float(np.max(np.abs(np.abs(u_arr) - 1.0))) if u_arr.size else 0.0

    violations = []
    if not sr_slack >= -SR_SLACK_TOL:
        violations.append(f"secrecy-rate slack {sr_slack:.3e} bits/s/Hz")
    if not power_slack >= -POWER_SLACK_TOL:
        violations.append(f"power budget exceeded, relative slack {power_slack:.3e}")
    if not modulus_dev <= MODULUS_TOL:
        violations.append(f"unit-modulus deviation {modulus_dev:.3e}")

    return FeasibilityReport(
        feasible=not violations,
        violations=violations,
        sr_slack=sr_slack,
        power_slack=power_slack,
        modulus_deviation=modulus_dev,
    )


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: list
    sr_slack: float
    power_slack: float
    modulus_deviation: float

    def __bool__(self):
        return self.feasible
