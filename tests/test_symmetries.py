"""Metamorphic tests: a solver's result does not depend on choices that the
problem leaves arbitrary, so no reference values are needed.

- Rotation: a unitary change Q of the AP's antenna basis maps G -> G Q and
  each AP -> user channel h_a -> Q^H h_a (a receiver sees h^H w), and a
  solution (w, u) -> (Q^H w, u).
- Permutation: reordering the IRS elements permutes the rows of G and the
  entries of each IRS -> user channel h_i, and a solution (w, u) ->
  (w, u[perm]).

On each instance and its transformed copy, a solver must end with the same
status and the same harvested power, and the transformed solution of the
instance must be feasible on the transformed channels.
"""

from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from irs_swipt.channel import ScenarioConfig, generate_scenario
from irs_swipt.config import parse_config
from irs_swipt.metrics import check_feasible, harvested_power
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
    """The channels in a random unitary basis of the AP, and the map of a
    solution (w, u) into that basis."""
    m = channels.G.shape[1]
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    moved = replace(channels, G=channels.G @ q,
                    **{h: q.conj().T @ getattr(channels, h) for h in ("h_ab", "h_ah", "h_ae")})
    return moved, lambda w, u: (q.conj().T @ w, u)


def permute(channels, rng):
    """The channels with the IRS elements in a random order, and the map of a
    solution (w, u) into that order."""
    perm = rng.permutation(channels.G.shape[0])
    moved = replace(channels, G=channels.G[perm],
                    **{h: getattr(channels, h)[perm] for h in ("h_ib", "h_ih", "h_ie")})
    return moved, lambda w, u: (w, u[perm])


def solve(solver, channels, cfg):
    """(status, w, u as an array) of one solve."""
    res = solver(channels, cfg)
    return res.status, res.w.w, res.u.u


def oracle(channels, cfg):
    w, u, _ = grid_search_joint(channels, cfg, GridSpec(phase_levels=64))
    return "Converged", w, u


# name: (solver, instances, relative tolerance on the harvested power under
# rotation, under permutation)
SOLVERS = {
    "sca_ao": (partial(solve, sca_ao), INSTANCES, 1e-8, 1e-8),
    # sdr_ao's Gaussian draws r sqrt(V)^T are not permutation-equivariant: the
    # same draws r meet the permuted sqrt(V) in another order, so a permuted
    # instance picks from other candidate profiles
    "sdr_ao": (partial(solve, sdr_ao), INSTANCES, DEFAULT_TOL, 1e-4),
    "grid_search_joint": (oracle, DESK_INSTANCES, 1e-8, 1e-8),
}


@pytest.mark.parametrize("case", [rotate, permute], ids=["rotation", "permutation"])
@pytest.mark.parametrize("name", SOLVERS)
def test_result_is_free_of_basis_and_element_order(name, case):
    solver, instances, rtol_rotation, rtol_permutation = SOLVERS[name]
    rtol = rtol_rotation if case is rotate else rtol_permutation
    for cfg in instances:
        channels = generate_scenario(cfg)
        status, w, u = solver(channels, cfg)
        assert status in ("Converged", "MaxIters"), (cfg, status)
        moved, move = case(channels, np.random.default_rng(cfg.seed))
        moved_status, moved_w, moved_u = solver(moved, cfg)
        assert moved_status == status, cfg
        report = check_feasible(*move(w, u), cfg, moved)
        assert report.feasible, (cfg, report.violations)
        assert harvested_power(moved_w, moved_u, moved, cfg.zeta) == pytest.approx(
            harvested_power(w, u, channels, cfg.zeta), rel=rtol), cfg
