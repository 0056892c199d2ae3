"""The alternation loop that sdr_ao, sca_ao and the baselines share, run
with scripted steps so that its stop, count and recovery rules are seen alone,
and the closed-form exact beamformer exact_w against the multiplier search
rank_one_w it replaces for rank-one objectives."""

import numpy as np
import pytest

import irs_swipt.sdr as sdr
from irs_swipt.channel import ScenarioConfig, generate_scenario
from irs_swipt.errors import SubproblemInfeasible
from irs_swipt.init import (OUTER_TOL, Problem, alternate, exact_w, feasibility_probe,
                            harvested_snr, initial_phase_profile, max_sr_beamformer,
                            normalized, rank_one_w)
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


def gain_problem(g_r, g_b, g_e, r0):
    """The Problem whose gains H_x^H v at the profile v = [1] (N = 0) are
    g_r, g_b and g_e."""
    return Problem(*(g.conj()[None, :] for g in (g_r, g_b, g_e)), r0, 2.0 ** r0)


def search_w(problem):
    """The multiplier search that exact_w replaces:
    rank_one_w(g_r g_r^H, g_b g_b^H - 2^r0 g_e g_e^H, 2^r0 - 1)."""
    g_r, g_b, g_e = (H.conj().T[:, 0] for H in problem[:3])
    A = np.outer(g_b, g_b.conj()) - problem.gain * np.outer(g_e, g_e.conj())
    return rank_one_w(np.outer(g_r, g_r.conj()), A, problem.gain - 1.0)


def secrecy_excess(x, problem):
    """x^H A x - c, A and c as in search_w, without forming A."""
    g_b, g_e = (H.conj().T[:, 0] for H in problem[1:3])
    return abs(np.vdot(g_b, x)) ** 2 - problem.gain * abs(np.vdot(g_e, x)) ** 2 - problem.gain + 1.0


def objective(x, problem):
    return abs(np.vdot(problem.Hr.conj().T[:, 0], x)) ** 2


def assert_same_as_search(problem):
    """exact_w raises where the search does; otherwise its x is a unit
    vector meeting x^H A x >= c (1 - 1e-12) and its value is the search's
    within 1e-12 relative.  True when both returned."""
    try:
        e = search_w(problem)
    except SubproblemInfeasible:
        with pytest.raises(SubproblemInfeasible):
            exact_w(np.ones(1), problem)
        return False
    x = exact_w(np.ones(1), problem)
    assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-14)
    assert secrecy_excess(x, problem) >= -1e-12 * (problem.gain - 1.0)
    assert objective(x, problem) == pytest.approx(objective(e, problem), rel=1e-12, abs=1e-300)
    return True


def random_gains(rng, m, n, kind):
    """Gains g_x = H_x^H v of random unit-variance channels (n IRS elements,
    profile v = [u; 1]): as drawn ("generic"), with Eve's zero ("no eve"),
    with Eve's parallel to Bob's ("parallel"), or with g_r orthogonal to
    Bob's and Eve's where M >= 3 ("orthogonal")."""
    H = [rng.standard_normal((n + 1, m)) + 1j * rng.standard_normal((n + 1, m))
         for _ in range(3)]
    v = np.append(np.exp(2j * np.pi * rng.random(n)), 1.0)
    g_r, g_b, g_e = (Hx.conj().T @ v for Hx in H)
    if kind == "no eve":
        g_e = np.zeros(m, dtype=complex)
    elif kind == "parallel":
        g_e = (0.3 - 0.2j) * g_b
    elif kind == "orthogonal" and m >= 3:
        basis = np.linalg.qr(np.stack([g_b, g_e, g_r], axis=1))[0]
        g_r = np.linalg.norm(g_r) * basis[:, 2]
    return g_r, g_b, g_e


def probe_sr_max(g_r, g_b, g_e):
    return max_sr_beamformer(np.ones(1), gain_problem(g_r, g_b, g_e, 1.0))[1]


class TestExactW:
    @pytest.mark.parametrize("kind", ["generic", "no eve", "parallel", "orthogonal"])
    def test_matches_the_multiplier_search(self, kind):
        # M = 1 to 4, N = 0 to 24, targets from slack to near the probe's sr_max
        rng = np.random.default_rng(len(kind))
        returned = 0
        for k in range(160):
            g_r, g_b, g_e = random_gains(rng, 1 + k % 4, k % 25, kind)
            sr_max = probe_sr_max(g_r, g_b, g_e)
            for frac in (0.3, 0.8, 0.99):
                if frac * sr_max > 0:
                    returned += assert_same_as_search(gain_problem(g_r, g_b, g_e, frac * sr_max))
        assert returned >= 300

    def test_target_at_the_attainable_maximum(self):
        # r0 = the probe's sr_max: lambda_max(A) - c is rounding, so each
        # decides the raise on rounding (about half the time, not always
        # alike) and returns a point of a feasible cap of rounding width;
        # where exact_w returns, its x meets the constraint, and where both
        # return, the values agree to that width
        rng = np.random.default_rng(7)
        both = 0
        for k in range(200):
            g_r, g_b, g_e = random_gains(rng, 2 + k % 3, k % 25, "generic")
            problem = gain_problem(g_r, g_b, g_e, probe_sr_max(g_r, g_b, g_e))
            try:
                x = exact_w(np.ones(1), problem)
            except SubproblemInfeasible:
                continue
            assert secrecy_excess(x, problem) >= -1e-12 * (problem.gain - 1.0)
            try:
                e = search_w(problem)
            except SubproblemInfeasible:
                continue
            assert objective(x, problem) == pytest.approx(objective(e, problem), rel=1e-5)
            both += 1
        assert both >= 50

    def test_hard_case_objective_off_the_top_eigenvector(self):
        # A = diag(4, -2, 0), c = 1: g_r has no component along A's top
        # eigenvector e_1 and no t < 1/q_max meets the constraint, so the
        # optimum adds the component along e_1 that meets it with equality,
        # 4 |x_1|^2 = 1
        b, e = np.array([2.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        problem = gain_problem(np.array([0.0, 0.0, 2.0j]), b, e, 1.0)
        x = exact_w(np.ones(1), problem)
        assert np.abs(x) ** 2 == pytest.approx([1 / 4, 0.0, 3 / 4], abs=1e-15)
        assert assert_same_as_search(problem)
        # g_r in A's range, orthogonal to e_1
        problem = gain_problem(np.array([0.0, 1.0, 1.0]), b, e, 1.0)
        assert abs(exact_w(np.ones(1), problem)[0]) > 0
        assert assert_same_as_search(problem)

    def test_no_margin_returns_the_top_eigenvector(self):
        # lambda_max(A) = c exactly (q_max = 0): only e_1 is feasible
        problem = gain_problem(np.array([1.0, 2.0]), np.array([1.0, 0.0]), np.zeros(2), 1.0)
        assert np.abs(exact_w(np.ones(1), problem)) ** 2 == pytest.approx([1.0, 0.0], abs=0)
        assert assert_same_as_search(problem)
        # and without g_r, where every feasible x is optimal
        problem = gain_problem(np.zeros(2), np.array([2.0, 0.0]), np.zeros(2), 1.0)
        assert np.abs(exact_w(np.ones(1), problem)) ** 2 == pytest.approx([1.0, 0.0], abs=0)

    def test_single_antenna_and_mrt_exits(self):
        # M = 1: every feasible x is a phase, and [1] is returned as the search does
        problem = gain_problem(np.array([1.0 - 1.0j]), np.array([3.0j]), np.array([1.0]), 2.0)
        assert np.array_equal(exact_w(np.ones(1), problem), [1.0])
        with pytest.raises(SubproblemInfeasible):
            exact_w(np.ones(1), gain_problem(np.ones(1), np.array([3.0]), np.ones(1), 5.0))
        # a slack target: maximum-ratio transmission
        g_r = np.array([1.0, 2.0j, -1.0])
        problem = gain_problem(g_r, 3.0 * g_r, np.array([0.1, 0.0, 0.0]), 1.0)
        mrt = g_r / np.linalg.norm(g_r)
        assert np.allclose(exact_w(np.ones(1), problem), mrt, rtol=0, atol=1e-15)
        assert assert_same_as_search(problem)

    def test_eigh_calls(self, monkeypatch):
        # work counts, which do not depend on the host: exact_w takes at most
        # one eigh per call; the W step's search averages at most 6 over the
        # rank_one_w inputs of a fixed list of sdr_ao solves (the search from
        # the bracket's upper end took 13.7)
        inputs = []
        monkeypatch.setattr(sdr, "rank_one_w",
                            lambda *args: inputs.append(args) or rank_one_w(*args))
        for n in (8, 24):
            for seed in range(5):
                cfg = ScenarioConfig(N=n, r0=3.0, seed=seed)
                sdr.sdr_ao(generate_scenario(cfg), cfg)
        calls = [0]
        original = np.linalg.eigh

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for args in inputs:
            rank_one_w(*args)
        assert len(inputs) >= 40 and calls[0] <= 6 * len(inputs), (calls[0], len(inputs))
        rng = np.random.default_rng(3)
        for k in range(100):
            g_r, g_b, g_e = random_gains(rng, 1 + k % 4, k % 25, "generic")
            sr_max = probe_sr_max(g_r, g_b, g_e)
            if sr_max == 0:
                continue
            problem = gain_problem(g_r, g_b, g_e, 0.8 * sr_max)
            calls[0] = 0
            exact_w(np.ones(1), problem)
            assert calls[0] <= 1
