"""The alternation loop that sdr_ao, sca_ao and the baselines share, run
with scripted steps so that its stop, count and recovery rules are seen alone."""

import numpy as np

from irs_swipt.channel import ScenarioConfig, generate_scenario
from irs_swipt.init import OUTER_TOL, alternate, feasibility_probe, initial_phase_profile
from irs_swipt.metrics import harvested_power

from shared import DESK


def scenario(**kw):
    cfg = ScenarioConfig(**{**dict(M=2, N=4, seed=3, r0=0.8, max_outer_iters=10, **DESK), **kw})
    return cfg, generate_scenario(cfg), initial_phase_profile(cfg)


def scripted_step(values):
    """Keeps the state, counts two phase steps per call, and reports the
    next of values."""
    values = iter(values)

    def step(state, counts):
        counts["u"] += 2
        return state, next(values)
    return step


def test_infeasible_target_returns_probe_and_empty_trace():
    cfg, ch, u = scenario(N=2, seed=50, r0=30.0)
    ok, w, sr_max = feasibility_probe(ch, cfg, u)
    assert not ok
    res = alternate(ch, cfg, u, scripted_step([]))
    assert res.status == "Infeasible"
    assert res.harvested_trace == []
    assert res.iters_outer == 0
    assert np.array_equal(res.w.w, w)
    assert res.achieved_sr == sr_max


def test_trace_starts_at_probe_power_and_stops_on_small_increase():
    cfg, ch, u = scenario()
    _, w, _ = feasibility_probe(ch, cfg, u)
    p0 = harvested_power(w, u, ch, cfg.zeta)
    values = [2.0 * p0, 2.0 * p0 * (1.0 + 0.1 * OUTER_TOL), 3.0 * p0]
    res = alternate(ch, cfg, u, scripted_step(values))
    assert res.status == "Converged"
    assert res.harvested_trace == [p0] + values[:2]
    assert (res.iters_outer, res.iters_inner_w, res.iters_inner_u) == (2, 2, 4)
    assert np.array_equal(res.w.w, w)


def test_step_cap_ends_max_iters():
    cfg, ch, u = scenario(max_outer_iters=3)
    res = alternate(ch, cfg, u, scripted_step([2.0 ** k for k in range(10)]))
    assert res.status == "MaxIters"
    assert res.iters_outer == 3
    assert len(res.harvested_trace) == 4


def test_recovery_maps_the_final_state_once():
    cfg, ch, u = scenario()
    _, w, _ = feasibility_probe(ch, cfg, u)
    recovered = []

    def recover(state):
        recovered.append(state)
        return 2.0 * state[0], state[1]

    res = alternate(ch, cfg, u, scripted_step([1.0] * 10), recover=recover)
    # a relaxation's trace holds step values only; it converges at once
    assert res.harvested_trace == [1.0, 1.0]
    assert res.status == "Converged"
    assert res.iters_outer == 2
    assert len(recovered) == 1
    assert np.array_equal(res.w.w, 2.0 * w)
