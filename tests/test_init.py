"""The alternation loop that sdr_ao, sca_ao and the baselines share, run
with scripted steps so that its stop, count and recovery rules are seen alone."""

import numpy as np
import pytest

from irs_swipt.channel import ScenarioConfig, generate_scenario
from irs_swipt.init import (OUTER_TOL, alternate, feasibility_probe, harvested_snr,
                            initial_phase_profile, normalized)
from irs_swipt.metrics import harvested_power

from shared import DESK


def scenario(**kw):
    cfg = ScenarioConfig(**{**dict(M=2, N=4, seed=3, r0=0.8, max_outer_iters=10, **DESK), **kw})
    return cfg, generate_scenario(cfg), initial_phase_profile(cfg)


def scripted_step(values):
    """Keeps the state, counts two phase steps per call, and reports the
    next of values."""
    values = iter(values)

    def step(problem, state, counts):
        counts["u"] += 2
        return state, next(values)
    return step


def test_infeasible_target_returns_probe_and_empty_trace():
    cfg, ch, u = scenario(N=2, seed=50, r0=30.0)
    ok, w, sr_max = feasibility_probe(normalized(ch, cfg), u)
    assert not ok
    res = alternate(ch, cfg, u, scripted_step([]))
    assert res.status == "Infeasible"
    assert res.harvested_trace == []
    assert res.iters_outer == 0
    assert np.array_equal(res.w.w, np.sqrt(cfg.ps_w) * w)
    assert res.achieved_sr == sr_max


def test_trace_starts_at_probe_power_and_stops_on_small_increase():
    # the steps' values are SNRs; the trace holds them in watts, zeta sigma^2 times
    cfg, ch, u = scenario()
    problem = normalized(ch, cfg)
    _, w, _ = feasibility_probe(problem, u)
    s0 = harvested_snr(u.v, w, problem)
    values = [2.0 * s0, 2.0 * s0 * (1.0 + 0.1 * OUTER_TOL), 3.0 * s0]
    res = alternate(ch, cfg, u, scripted_step(values))
    assert res.status == "Converged"
    assert res.harvested_trace == [cfg.zeta * cfg.sigma2_w * s for s in [s0] + values[:2]]
    p0 = harvested_power(np.sqrt(cfg.ps_w) * w, u, ch, cfg.zeta)
    assert res.harvested_trace[0] == pytest.approx(p0, rel=1e-12)
    assert (res.iters_outer, res.iters_inner_u) == (2, 4)
    assert np.array_equal(res.w.w, np.sqrt(cfg.ps_w) * w)


def test_step_cap_ends_max_iters():
    cfg, ch, u = scenario(max_outer_iters=3)
    problem = normalized(ch, cfg)
    s0 = harvested_snr(u.v, feasibility_probe(problem, u)[1], problem)
    res = alternate(ch, cfg, u, scripted_step([s0 * 2.0 ** k for k in range(1, 11)]))
    assert res.status == "MaxIters"
    assert res.iters_outer == 3
    assert len(res.harvested_trace) == 4


def test_recovery_maps_the_final_state_once():
    cfg, ch, u = scenario()
    _, w, _ = feasibility_probe(normalized(ch, cfg), u)
    recovered = []

    def recover(problem, state):
        recovered.append(state)
        return 2.0 * state[0], state[1]

    res = alternate(ch, cfg, u, scripted_step([1.0] * 10), recover=recover)
    # a relaxation's trace holds step values only; it converges at once
    assert res.harvested_trace == [cfg.zeta * cfg.sigma2_w * 1.0] * 2
    assert res.status == "Converged"
    assert res.iters_outer == 2
    assert len(recovered) == 1
    assert np.array_equal(res.w.w, np.sqrt(cfg.ps_w) * (2.0 * w))


def test_normalized_problem_is_in_noise_units():
    # |v^H H_x w|^2 of a unit-budget w in the problem is the SNR of sqrt(Ps) w
    cfg, ch, u = scenario()
    problem = normalized(ch, cfg)
    rng = np.random.default_rng(4)
    w = rng.standard_normal(cfg.M) + 1j * rng.standard_normal(cfg.M)
    w /= np.linalg.norm(w)
    for H, H_noise in ((ch.H_r, problem.Hr), (ch.H_b, problem.Hb), (ch.H_e, problem.He)):
        snr = abs(np.vdot(u.v, H @ (np.sqrt(cfg.ps_w) * w))) ** 2 / cfg.sigma2_w
        assert abs(np.vdot(u.v, H_noise @ w)) ** 2 == pytest.approx(snr, rel=1e-12)
    assert (problem.r0, problem.gain) == (cfg.r0, 2.0 ** cfg.r0)
