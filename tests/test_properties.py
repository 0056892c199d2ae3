"""Property tests over the scenario space, not only at configs/paper.cfg:
random geometries, M in [1, 6], N in [0, 12] (N = 0 is the no-IRS layout) and
secrecy targets from 10% to 99% of what the starting profile attains, and at
100% of it."""

import numpy as np
from hypothesis import given, settings, strategies as st

from irs_swipt.channel import ScenarioConfig, generate_scenario
from irs_swipt.errors import NumericalFailure
from irs_swipt.experiments import optimize_w_fixed_profile
from irs_swipt.init import feasibility_probe, initial_phase_profile, normalized
from irs_swipt.metrics import PhaseProfile, check_feasible
from irs_swipt.sca import sca_ao
from irs_swipt.sdr import sdr_ao

from shared import DESK

STATUSES = {"Converged", "MaxIters", "Infeasible"}
DISTANCES = ("d_ap_irs", "d_ap_bob", "d_ap_ehr", "d_ap_eve", "d_irs_bob", "d_irs_ehr", "d_irs_eve")
PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def scenarios(draw):
    """(cfg, channels) with r0 a fraction of the probe's attainable secrecy rate."""
    distance = st.floats(2.0, 250.0)
    exponent = st.floats(2.0, 3.5)
    cfg = ScenarioConfig(
        M=draw(st.integers(1, 6)), N=draw(st.integers(0, 12)),
        seed=draw(st.integers(0, 2 ** 16)),
        alpha_direct=draw(exponent), alpha_irs=draw(exponent),
        **{name: draw(distance) for name in DISTANCES})
    channels = generate_scenario(cfg)
    _, _, sr_max = feasibility_probe(normalized(channels, cfg), initial_phase_profile(cfg))
    frac = draw(st.floats(0.1, 0.99))
    # the probe attains sr_max > 0 unless Eve out-hears Bob for every beamformer
    r0 = frac * sr_max if sr_max > 0 else frac
    return cfg.with_updates(r0=r0), channels


def assert_solution_properties(res, cfg, channels):
    assert res.status in STATUSES
    if res.status == "Infeasible":
        return
    report = check_feasible(res.w.w, res.u, cfg, channels)
    assert report.feasible, report.violations
    trace = res.harvested_trace
    assert all(b >= a * (1.0 - 1e-8) for a, b in zip(trace, trace[1:])), trace


@PROPERTY_SETTINGS
@given(scenarios())
def test_sca_ao_feasible_and_monotone(scenario):
    cfg, channels = scenario
    assert_solution_properties(sca_ao(channels, cfg), cfg, channels)


@PROPERTY_SETTINGS
@given(scenarios())
def test_sdr_ao_feasible_and_monotone(scenario):
    cfg, channels = scenario
    assert_solution_properties(sdr_ao(channels, cfg), cfg, channels)


@PROPERTY_SETTINGS
@given(scenarios())
def test_fixed_profile_baseline_feasible_and_monotone(scenario):
    cfg, channels = scenario
    rng = np.random.default_rng(cfg.seed)
    u = PhaseProfile(np.exp(-2j * np.pi * rng.random(cfg.N)))
    assert_solution_properties(optimize_w_fixed_profile(channels, cfg, u), cfg, channels)


def at_attainable_maximum(cfg, u):
    """(channels, cfg with r0 = the probe's sr_max at profile u), or None when
    that maximum is not positive."""
    channels = generate_scenario(cfg)
    _, _, sr_max = feasibility_probe(normalized(channels, cfg), u)
    return (channels, cfg.with_updates(r0=sr_max)) if sr_max > 0 else None


def test_target_at_attainable_maximum():
    # The probe accepts r0 = sr_max, where the W step's test lambda_max(A) >= c
    # is decided by rounding; both methods then keep their feasible beamformer,
    # and sdr_ao's recovery falls back to a feasible pair.
    checked = 0
    for m in (1, 2, 4):
        for n in (0, 2, 8):
            for seed in range(10):
                base = ScenarioConfig(M=m, N=n, seed=seed, **DESK)
                zero = initial_phase_profile(base)
                found = at_attainable_maximum(base, zero)
                if found is None:
                    continue
                checked += 1
                channels, cfg = found
                res = sca_ao(channels, cfg)
                assert res.status == "Converged"
                assert_solution_properties(res, cfg, channels)
                try:  # any other exception fails the test
                    res = sdr_ao(channels, cfg)
                except NumericalFailure:
                    pass
                else:
                    assert_solution_properties(res, cfg, channels)
                # each baseline at the maximum of its own profile, drawn as the batch runner does
                rng = np.random.default_rng(seed + 987654321)
                for cfg_b, u in ((base, PhaseProfile(np.exp(-2j * np.pi * rng.random(n)))),
                                 (base.with_updates(N=0), PhaseProfile(np.zeros(0, dtype=complex)))):
                    channels, cfg = at_attainable_maximum(cfg_b, u)
                    res = optimize_w_fixed_profile(channels, cfg, u)
                    assert res.status == "Converged"
                    assert_solution_properties(res, cfg, channels)
    assert checked == 81
