"""Scenario generation: path losses, fading draws, and the stacked effective
channel matrices every solver works on.

Geometry and conventions
------------------------
An access point with M antennas serves an information receiver (Bob) and an
energy-harvesting receiver while an eavesdropper listens, all single-antenna.
An IRS with N passive elements assists.  Channel vectors are stored as column
vectors; a receiver "sees" ``h.conj()`` applied from the left (h^H).

The IRS phase profile is a unit-modulus vector ``u`` with ``v = [u; 1]``.  The
reflection matrix applied by the surface is ``diag(u.conj())``, so that for
each stacked matrix ``H_x`` the cascaded-plus-direct channel satisfies

    v^H H_x w == (h_ix^H Theta G + h_ax^H) w,   Theta = diag(u.conj()).
"""

from dataclasses import dataclass, field, fields, replace
from numbers import Integral
import numpy as np

from .errors import InvalidInput

DBM_PER_WATT_OFFSET = 30.0


def dbm_to_watt(dbm):
    return 10.0 ** ((dbm - DBM_PER_WATT_OFFSET) / 10.0)


@dataclass
class ScenarioConfig:
    """Physical parameters of one scenario, the solvers' outer cap and start.

    Powers are in watts, distances in meters, rates in bits/s/Hz.  N = 0
    encodes the "without IRS" layout.  IRS-to-user distances default to a
    collinear layout consistent with the AP-to-user distances; absolute power
    levels depend on this choice.  The solvers' tolerances and inner caps are
    constants of the modules that use them (init, sca, sdr, sdp).
    """

    M: int = 4                      # AP antennas
    N: int = 50                     # IRS elements
    ps_w: float = 15.0              # transmit power budget
    sigma2_w: float = 1e-10         # noise power (-70 dBm), common to all receivers
    zeta: float = 0.5               # energy-harvesting efficiency
    r0: float = 1.0                 # minimum secrecy rate
    d_ap_irs: float = 8.0
    d_ap_bob: float = 220.0
    d_ap_ehr: float = 6.0
    d_ap_eve: float = 85.0
    d_irs_bob: float = 214.0
    d_irs_ehr: float = 2.0
    d_irs_eve: float = 80.0
    alpha_direct: float = 3.0       # path-loss exponent AP -> users
    alpha_irs: float = 2.0          # path-loss exponent AP -> IRS and IRS -> users
    pl_ref_db: float = 30.0         # reference path loss at 1 m
    seed: int = 0
    # line-of-sight AP -> IRS link (deterministic rank-one steering outer product)
    los_departure_deg: float = 30.0
    los_arrival_deg: float = 60.0
    max_outer_iters: int = 100
    init_phases: str = "zero"       # "zero" or "random" initial IRS profile

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise InvalidInput(f"{f.name} must be finite")
            if f.type is int and not isinstance(getattr(self, f.name), Integral):
                raise InvalidInput(f"{f.name} must be an integer")
        if self.M < 1:
            raise InvalidInput("M must be >= 1")
        if self.N < 0:
            raise InvalidInput("N must be >= 0")
        if self.seed < 0:
            raise InvalidInput("seed must be >= 0")
        for name in ("ps_w", "sigma2_w", "d_ap_irs", "d_ap_bob", "d_ap_ehr",
                     "d_ap_eve", "d_irs_bob", "d_irs_ehr", "d_irs_eve"):
            if getattr(self, name) <= 0:
                raise InvalidInput(f"{name} must be > 0")
        if not 0.0 < self.zeta <= 1.0:
            raise InvalidInput("zeta must be in (0, 1]")
        if self.r0 <= 0:
            raise InvalidInput("r0 must be > 0")
        if self.max_outer_iters < 1:
            raise InvalidInput("max_outer_iters must be >= 1")
        if self.init_phases not in ("zero", "random"):
            raise InvalidInput("init_phases must be 'zero' or 'random'")

    def with_updates(self, **kwargs):
        return replace(self, **kwargs)


@dataclass
class ChannelSet:
    """One channel realization plus the stacked effective matrices.

    H_x has shape (N+1) x M; row n < N is conj(h_ix[n]) * G[n, :] and the last
    row is h_ax^H, so v^H H_x w evaluates the cascaded-plus-direct link.
    """

    G: np.ndarray       # N x M, AP -> IRS
    h_ab: np.ndarray    # M, AP -> Bob
    h_ah: np.ndarray    # M, AP -> EHR
    h_ae: np.ndarray    # M, AP -> EVE
    h_ib: np.ndarray    # N, IRS -> Bob
    h_ih: np.ndarray    # N, IRS -> EHR
    h_ie: np.ndarray    # N, IRS -> EVE
    H_r: np.ndarray = field(init=False)
    H_b: np.ndarray = field(init=False)
    H_e: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("G", "h_ab", "h_ah", "h_ae", "h_ib", "h_ih", "h_ie"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if not np.all(np.isfinite(arr)):
                raise InvalidInput(f"{name} contains non-finite entries")
            setattr(self, name, arr)
        self.H_r, self.H_b, self.H_e = stack_effective(
            self.G, self.h_ab, self.h_ah, self.h_ae, self.h_ib, self.h_ih, self.h_ie)


def path_loss_gain(distance, exponent, pl_ref_db):
    """Linear power gain 10^(-pl_ref_db/10) * distance^(-exponent)."""
    if distance <= 0:
        raise InvalidInput("distance must be > 0")
    return 10.0 ** (-pl_ref_db / 10.0) * distance ** (-exponent)


def steering_vector(n_elements, angle_deg):
    """Uniform linear array response at half-wavelength spacing, unit-modulus."""
    k = np.arange(n_elements)
    return np.exp(1j * np.pi * k * np.sin(np.deg2rad(angle_deg)))


def stack_effective(G, h_ab, h_ah, h_ae, h_ib, h_ih, h_ie):
    """Build (H_r, H_b, H_e) from the seven channel responses.

    Raises InvalidInput on inconsistent dimensions.
    """
    G = np.asarray(G, dtype=complex)
    vecs = [np.asarray(v, dtype=complex) for v in (h_ab, h_ah, h_ae, h_ib, h_ih, h_ie)]
    h_ab, h_ah, h_ae, h_ib, h_ih, h_ie = vecs
    if G.ndim != 2:
        raise InvalidInput("G must be a matrix")
    n, m = G.shape
    if any(v.shape != (m,) for v in (h_ab, h_ah, h_ae)):
        raise InvalidInput("AP->user vectors must have length M")
    if any(v.shape != (n,) for v in (h_ib, h_ih, h_ie)):
        raise InvalidInput("IRS->user vectors must have length N")

    def one(h_i, h_a):
        return np.vstack([h_i.conj()[:, None] * G, h_a.conj()[None, :]])

    return one(h_ih, h_ah), one(h_ib, h_ab), one(h_ie, h_ae)


def generate_scenario(cfg):
    """Draw one channel realization for cfg.

    AP->user and IRS->user links are i.i.d. circularly-symmetric complex
    Gaussian with per-entry variance equal to the path-loss gain (Rayleigh
    fading).  The AP->IRS link is a deterministic line-of-sight rank-one
    steering outer product scaled by the root path-loss gain.  Reproducible:
    the same seed yields a bit-identical ChannelSet.
    """
    rng = np.random.default_rng(cfg.seed)

    def rayleigh(size, gain):
        scale = np.sqrt(gain / 2.0)
        return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    g_dir = {name: path_loss_gain(d, cfg.alpha_direct, cfg.pl_ref_db)
             for name, d in (("b", cfg.d_ap_bob), ("h", cfg.d_ap_ehr), ("e", cfg.d_ap_eve))}
    g_irs = {name: path_loss_gain(d, cfg.alpha_irs, cfg.pl_ref_db)
             for name, d in (("b", cfg.d_irs_bob), ("h", cfg.d_irs_ehr), ("e", cfg.d_irs_eve))}

    # draw order is fixed so that the direct links match across different N at equal seed
    h_ab = rayleigh(cfg.M, g_dir["b"])
    h_ah = rayleigh(cfg.M, g_dir["h"])
    h_ae = rayleigh(cfg.M, g_dir["e"])
    h_ib = rayleigh(cfg.N, g_irs["b"])
    h_ih = rayleigh(cfg.N, g_irs["h"])
    h_ie = rayleigh(cfg.N, g_irs["e"])

    gain_g = path_loss_gain(cfg.d_ap_irs, cfg.alpha_irs, cfg.pl_ref_db)
    a_irs = steering_vector(cfg.N, cfg.los_arrival_deg)
    a_ap = steering_vector(cfg.M, cfg.los_departure_deg)
    G = np.sqrt(gain_g) * np.outer(a_irs, a_ap.conj())

    return ChannelSet(G=G, h_ab=h_ab, h_ah=h_ah, h_ae=h_ae,
                      h_ib=h_ib, h_ih=h_ih, h_ie=h_ie)
