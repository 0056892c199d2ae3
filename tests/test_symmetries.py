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

On each instance and its transformed copy, a solver must end with the same
status and the same harvested power, and the transformed solution of the
instance must be feasible on the transformed channels.  The fixed-profile
baseline takes its profile as an input, so it gets the transformed profile.
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
from irs_swipt.sdp import DEFAULT_TOL
from irs_swipt.sdr import sdr_ao

from shared import DESK

PAPER = parse_config(Path(__file__).resolve().parents[1] / "configs" / "paper.cfg")[0]
INSTANCES = ([PAPER.with_updates(seed=seed) for seed in range(4)]
             + [ScenarioConfig(N=n, r0=3.0, seed=seed) for n in (8, 24) for seed in range(6)])
DESK_INSTANCES = [ScenarioConfig(M=2, N=2, seed=seed, **DESK) for seed in range(4)]


def rotate(channels, rng):
    """The channels in a random unitary basis of the AP, and the maps of a
    beamformer and of a profile into that basis."""
    m = channels.G.shape[1]
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    moved = replace(channels, G=channels.G @ q,
                    **{h: q.conj().T @ getattr(channels, h) for h in ("h_ab", "h_ah", "h_ae")})
    return moved, lambda w: q.conj().T @ w, lambda u: u


def permute(channels, rng):
    """The channels with the IRS elements in a random order, and the maps of a
    beamformer and of a profile into that order."""
    perm = rng.permutation(channels.G.shape[0])
    moved = replace(channels, G=channels.G[perm],
                    **{h: getattr(channels, h)[perm] for h in ("h_ib", "h_ih", "h_ie")})
    return moved, lambda w: w, lambda u: u[perm]


def rephase(channels, rng):
    """The channels with each receiver's links turned by a random phase of its
    own, and the (identity) maps of a beamformer and of a profile."""
    turns = np.exp(2j * np.pi * rng.random(3))
    moved = replace(channels, **{f"h_{link}{rx}": turn * getattr(channels, f"h_{link}{rx}")
                                 for rx, turn in zip("bhe", turns) for link in "ai"})
    return moved, lambda w: w, lambda u: u


CASES = {"rotation": rotate, "permutation": permute, "phase": rephase}


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


# name: (solver, instances, relative tolerance on the harvested power where
# a case needs another than 1e-8)
SOLVERS = {
    "sca_ao": (partial(solve, sca_ao), INSTANCES, {}),
    # sdr_ao's Gaussian draws r sqrt(V)^T are not permutation-equivariant: the
    # same draws r meet the permuted sqrt(V) in another order, so a permuted
    # instance picks from other candidate profiles
    "sdr_ao": (partial(solve, sdr_ao), INSTANCES,
               {"rotation": DEFAULT_TOL, "permutation": 1e-4, "phase": DEFAULT_TOL}),
    "grid_search_joint": (oracle, DESK_INSTANCES, {}),
    # the no_irs baseline is this function at N = 0
    "optimize_w_fixed_profile": (fixed_profile, INSTANCES, {}),
}


@cache
def untransformed(name, index):
    """The channels of a solver's instance and its (status, w, u) on them,
    solved once for all the cases."""
    solver, instances, _ = SOLVERS[name]
    channels = generate_scenario(instances[index])
    return channels, solver(channels, instances[index], lambda u: u)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name", SOLVERS)
def test_result_is_free_of_basis_and_element_order(name, case):
    solver, instances, rtols = SOLVERS[name]
    for index, cfg in enumerate(instances):
        channels, (status, w, u) = untransformed(name, index)
        assert status in ("Converged", "MaxIters"), (cfg, status)
        moved, move_w, move_u = CASES[case](channels, np.random.default_rng(cfg.seed))
        moved_status, moved_w, moved_u = solver(moved, cfg, move_u)
        assert moved_status == status, cfg
        report = check_feasible(move_w(w), move_u(u), cfg, moved)
        assert report.feasible, (cfg, report.violations)
        assert harvested_power(moved_w, moved_u, moved, cfg.zeta) == pytest.approx(
            harvested_power(w, u, channels, cfg.zeta), rel=rtols.get(case, 1e-8)), cfg
