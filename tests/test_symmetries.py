"""Metamorphic tests: a solver's result does not depend on choices that the
problem leaves arbitrary, so no reference values are needed.

- Rotation: a unitary change Q of the AP's antenna basis maps G -> G Q and
  each AP -> user channel h_a -> Q^H h_a (a receiver sees h^H w), and a
  solution (w, u) -> (Q^H w, u).
- Permutation: reordering the IRS elements permutes the rows of G and the
  entries of each IRS -> user channel h_i, and a solution (w, u) ->
  (w, u[perm]).
- Phase: a unit phase e^{j theta_x} of each receiver's own, with independent
  theta for Bob, EHR and EVE, multiplies both of its links h_ax and h_ix.
  Every |v^H H_x w|^2 stays the same, so a solution maps to itself.
- Unit: amplitudes in a unit k times smaller scale G and the direct links
  h_ax by k and the noise power by k^2.  Every SNR stays the same, a
  solution maps to itself, and the harvested power scales by k^2.
- Power: (Ps, noise power) -> (k^2 Ps, k^2 noise power), and a solution
  (w, u) -> (k w, u); the harvested power scales by k^2.

On each instance and its transformed copy, a solver must end with the same
status and the same harvested power, times the case's factor, and the
transformed solution of the instance must be feasible on the transformed
instance.  The fixed-profile baseline takes its profile as an input, so it
gets the transformed profile.
"""

from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest

from irs_swipt.channel import ScenarioConfig, generate_scenario
from irs_swipt.config import parse_config
from irs_swipt.experiments import optimize_w_fixed_profile
from irs_swipt.metrics import PhaseProfile, check_feasible, harvested_power
from irs_swipt.oracle import GridSpec, grid_search_joint
from irs_swipt.sca import sca_ao
from irs_swipt.sdr import sdr_ao

from shared import DESK

PAPER = parse_config(Path(__file__).resolve().parents[1] / "configs" / "paper.cfg")[0]
INSTANCES = ([PAPER.with_updates(seed=seed) for seed in range(4)]
             + [ScenarioConfig(N=n, r0=3.0, seed=seed) for n in (8, 24) for seed in range(6)])
DESK_INSTANCES = [ScenarioConfig(M=2, N=2, seed=seed, **DESK) for seed in range(4)]
# the scales k of the unit and power cases; 1e-3, not a power of two, moves
# each SNR by rounding
SCALES = (10.0, 1e-3)


def same(x):
    return x


# Each case maps (channels, cfg, rng, k) to the transformed channels and
# config, the maps of a beamformer and of a profile, and the factor of the
# harvested power; only the unit and power cases use the scale k.
def rotate(channels, cfg, rng, k):
    """The instance in a random unitary basis of the AP."""
    m = channels.G.shape[1]
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    moved = replace(channels, G=channels.G @ q,
                    **{h: q.conj().T @ getattr(channels, h) for h in ("h_ab", "h_ah", "h_ae")})
    return moved, cfg, lambda w: q.conj().T @ w, same, 1.0


def permute(channels, cfg, rng, k):
    """The instance with the IRS elements in a random order."""
    perm = rng.permutation(channels.G.shape[0])
    moved = replace(channels, G=channels.G[perm],
                    **{h: getattr(channels, h)[perm] for h in ("h_ib", "h_ih", "h_ie")})
    return moved, cfg, same, lambda u: u[perm], 1.0


def rephase(channels, cfg, rng, k):
    """The instance with each receiver's links turned by a random phase of its
    own."""
    turns = np.exp(2j * np.pi * rng.random(3))
    moved = replace(channels, **{f"h_{link}{rx}": turn * getattr(channels, f"h_{link}{rx}")
                                 for rx, turn in zip("bhe", turns) for link in "ai"})
    return moved, cfg, same, same, 1.0


def rescale_units(channels, cfg, rng, k):
    """The instance with amplitudes in a unit k times smaller."""
    moved = replace(channels, G=k * channels.G,
                    **{h: k * getattr(channels, h) for h in ("h_ab", "h_ah", "h_ae")})
    return moved, replace(cfg, sigma2_w=k ** 2 * cfg.sigma2_w), same, same, k ** 2


def rescale_power(channels, cfg, rng, k):
    """The instance with the power budget and the noise power times k^2."""
    moved_cfg = replace(cfg, ps_w=k ** 2 * cfg.ps_w, sigma2_w=k ** 2 * cfg.sigma2_w)
    return channels, moved_cfg, lambda w: k * w, same, k ** 2


CASES = {"rotation": rotate, "permutation": permute, "phase": rephase,
         "unit": rescale_units, "power": rescale_power}
SCALED = ("unit", "power")


def solve(solver, channels, cfg, move_u):
    """(status, w, u as an array) of one solve; move_u maps the profile of
    the untransformed instance, which only the fixed-profile baseline takes."""
    res = solver(channels, cfg)
    return res.status, res.w.w, res.u.u


def fixed_profile(channels, cfg, move_u):
    # the baseline at experiments._run_one's random profile for this seed
    rng = np.random.default_rng(cfg.seed + 987654321)
    u = PhaseProfile(move_u(np.exp(-2j * np.pi * rng.random(cfg.N))))
    res = optimize_w_fixed_profile(channels, cfg, u)
    return res.status, res.w.w, res.u.u


def oracle(channels, cfg, move_u):
    w, u, _ = grid_search_joint(channels, cfg, GridSpec(phase_levels=64))
    return "Converged", w, u


# name: (solver, instances)
SOLVERS = {
    "sca_ao": (partial(solve, sca_ao), INSTANCES),
    "sdr_ao": (partial(solve, sdr_ao), INSTANCES),
    "grid_search_joint": (oracle, DESK_INSTANCES),
    # the no_irs baseline is this function at N = 0
    "optimize_w_fixed_profile": (fixed_profile, INSTANCES),
}


@cache
def untransformed(name, index):
    """The channels of a solver's instance and its (status, w, u) on them,
    solved once for all the cases."""
    solver, instances = SOLVERS[name]
    channels = generate_scenario(instances[index])
    return channels, solver(channels, instances[index], same)


# sca_ao's phase step stops its multiplier search on a test in watts
# (bisect_mu's stop test), the one cause that moves its result with the unit
# of power: it stays out of the unit and power cases until that test is
# scale-free
PAIRS = [(name, case) for name in SOLVERS for case in CASES
         if not (name == "sca_ao" and case in SCALED)]


@pytest.mark.parametrize("name,case", PAIRS)
def test_result_is_free_of_basis_and_element_order(name, case):
    solver, instances = SOLVERS[name]
    for index, cfg in enumerate(instances):
        channels, (status, w, u) = untransformed(name, index)
        assert status in ("Converged", "MaxIters"), (cfg, status)
        for k in SCALES if case in SCALED else (None,):
            moved, moved_cfg, move_w, move_u, factor = CASES[case](
                channels, cfg, np.random.default_rng(cfg.seed), k)
            moved_status, moved_w, moved_u = solver(moved, moved_cfg, move_u)
            assert moved_status == status, (cfg, k)
            report = check_feasible(move_w(w), move_u(u), moved_cfg, moved)
            assert report.feasible, (cfg, k, report.violations)
            assert harvested_power(moved_w, moved_u, moved, moved_cfg.zeta) == pytest.approx(
                factor * harvested_power(w, u, channels, cfg.zeta), rel=1e-8), (cfg, k)
