import numpy as np
import pytest

from irs_swipt.channel import ChannelSet, ScenarioConfig, generate_scenario
from irs_swipt.errors import PhaseStepInfeasible, SubproblemInfeasible
from irs_swipt.init import feasibility_probe, initial_phase_profile, max_sr_beamformer
from irs_swipt.linalg import max_eigval
from irs_swipt.metrics import PhaseProfile, check_feasible, harvested_power
from irs_swipt.oracle import _profile_values
from irs_swipt.sca import (_rank_two_max_eigval, bisect_mu, build_phase_data, sca_ao,
                           sca_w_step, u_of_mu)

from shared import DESK, no_eve_channels


def true_objective(v, w, channels):
    return abs(np.vdot(v, channels.H_r @ w)) ** 2


def oracle_value(v, channels, cfg):
    """max |v^H H_r x|^2 over unit x meeting the secrecy constraint, from the
    joint oracle's per-profile kernel, which shares no code with the solvers."""
    rbe = [(v @ H.conj())[None, :] for H in (channels.H_r, channels.H_b, channels.H_e)]
    gain = 2.0 ** cfg.r0
    values, _ = _profile_values(*rbe, gain, (gain - 1.0) * cfg.sigma2_w / cfg.ps_w)
    return float(values[0])


def assert_step_exact(v, w_prev, channels, cfg):
    """The step's value is the oracle's for the profile, its pair is feasible,
    and it is at least w_prev's value; returns the step's beamformer."""
    w = sca_w_step(v, w_prev, channels, cfg).w
    value = true_objective(v, w, channels) / cfg.ps_w
    assert value == pytest.approx(oracle_value(v, channels, cfg), rel=1e-12)
    report = check_feasible(w, PhaseProfile(v[:-1] / v[-1]), cfg, channels)
    assert report.feasible, report.violations
    assert true_objective(v, w, channels) >= true_objective(v, w_prev, channels)
    return w


class TestScaWStep:
    def test_mrt_fixed_point_when_constraint_slack(self):
        cfg = ScenarioConfig(M=4, N=3, seed=1, r0=1e-3)
        ch = no_eve_channels(cfg)
        u = initial_phase_profile(cfg)
        _, w, _ = feasibility_probe(ch, cfg, u)
        v = u.v
        for _ in range(12):
            w = sca_w_step(v, w, ch, cfg).w
        target = cfg.ps_w * np.linalg.norm(ch.H_r.conj().T @ v) ** 2
        assert true_objective(v, w, ch) == pytest.approx(target, rel=1e-7)

    def test_inner_iterations_non_decreasing(self):
        for seed in range(8):
            cfg = ScenarioConfig(M=3, N=4, seed=seed, r0=1.0, **DESK)
            ch = generate_scenario(cfg)
            u = initial_phase_profile(cfg)
            ok, w, _ = feasibility_probe(ch, cfg, u)
            if not ok:
                continue
            v = u.v
            prev = true_objective(v, w, ch)
            for _ in range(10):
                w = sca_w_step(v, w, ch, cfg).w
                cur = true_objective(v, w, ch)
                assert cur >= prev * (1 - 1e-9)
                prev = cur

    def test_matches_profile_oracle(self):
        # random profiles, M = 1 to 4, from the max-SR beamformer and from a
        # scaled-down copy of it, with targets from slack to nearly the maximum
        rng = np.random.default_rng(6)
        checked = 0
        for seed in range(40):
            m = 1 + seed % 4
            cfg = ScenarioConfig(M=m, N=3, seed=seed, **DESK)
            ch = generate_scenario(cfg)
            u = PhaseProfile(np.exp(2j * np.pi * rng.random(3)))
            w, sr_max = max_sr_beamformer(u.v, ch, cfg)
            if sr_max < 0.5:
                continue
            for frac in (0.3, 0.8, 0.99):
                cfg_r = cfg.with_updates(r0=frac * sr_max)
                assert_step_exact(u.v, w, ch, cfg_r)
                assert_step_exact(u.v, 0.6 * w, ch, cfg_r)
                checked += 1
        assert checked >= 60

    def test_eve_free_channels(self):
        # g_e = 0: the secrecy constraint involves Bob's gain only
        for seed in range(4):
            cfg = ScenarioConfig(M=3, N=4, seed=seed, **DESK)
            ch = no_eve_channels(cfg)
            u = initial_phase_profile(cfg)
            w, sr_max = max_sr_beamformer(u.v, ch, cfg)
            cfg = cfg.with_updates(r0=0.95 * sr_max)
            assert_step_exact(u.v, w, ch, cfg)

    def test_single_antenna(self):
        found = 0
        for seed in range(10):
            cfg = ScenarioConfig(M=1, N=2, seed=seed, **DESK)
            ch = generate_scenario(cfg)
            u = initial_phase_profile(cfg)
            w, sr_max = max_sr_beamformer(u.v, ch, cfg)
            if sr_max < 0.5:
                continue
            found += 1
            cfg = cfg.with_updates(r0=0.5 * sr_max)
            step = assert_step_exact(u.v, 0.6 * w, ch, cfg)
            assert abs(step[0]) == pytest.approx(np.sqrt(cfg.ps_w), rel=1e-12)
        assert found >= 2

    def test_single_antenna_inactive_ball(self):
        # one antenna and no IRS: every full-power phase is optimal and the
        # secrecy constraint does not depend on the phase
        cfg = ScenarioConfig(M=1, N=0, ps_w=1.0, sigma2_w=1.0, r0=np.log2(1.5))
        ch = ChannelSet(G=np.zeros((0, 1)), h_ab=np.array([3.0 * np.exp(0.4j)]),
                        h_ah=np.array([1.0 - 0.5j]), h_ae=np.array([2.0 * np.exp(-1.1j)]),
                        h_ib=np.zeros(0), h_ih=np.zeros(0), h_ie=np.zeros(0))
        v = np.ones(1, dtype=complex)
        w_prev = np.array([0.45 * np.exp(0.7j)])
        step = assert_step_exact(v, w_prev, ch, cfg)
        assert abs(step[0]) == pytest.approx(1.0, rel=1e-12)

    def test_slack_constraint_gives_normalized_q(self):
        # the target is slack at maximum-ratio transmission, which is then the step
        cfg = ScenarioConfig(M=4, N=3, seed=1, r0=1e-3, **DESK)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg)
        _, w, _ = feasibility_probe(ch, cfg, u)
        step = assert_step_exact(u.v, w, ch, cfg)
        g_r = ch.H_r.conj().T @ u.v
        mrt = g_r / np.linalg.norm(g_r)
        assert abs(np.vdot(mrt, step)) == pytest.approx(np.sqrt(cfg.ps_w), rel=1e-12)

    def test_no_interior_returns_w_prev(self):
        # unit noise and power, Bob on the first antenna, no Eve, r0 = log2(1 + |h_ab|^2):
        # only x = e_1 (up to phase) meets the constraint, so w_prev = e_1 is kept
        cfg = ScenarioConfig(M=2, N=0, ps_w=1.0, sigma2_w=1.0, r0=1.0)
        ch = ChannelSet(G=np.zeros((0, 2)), h_ab=np.array([1.0, 0.0]),
                        h_ah=np.array([1.0, 1.0j]), h_ae=np.zeros(2),
                        h_ib=np.zeros(0), h_ih=np.zeros(0), h_ie=np.zeros(0))
        v = np.ones(1, dtype=complex)
        w_prev = np.array([1.0, 0.0], dtype=complex)
        assert np.array_equal(sca_w_step(v, w_prev, ch, cfg).w, w_prev)
        # single antenna at the maximum secrecy rate: the feasible set is the
        # full-power circle, and rounding may find the target unattainable
        base = ScenarioConfig(M=1, N=2, seed=1, **DESK)
        ch = generate_scenario(base)
        u = initial_phase_profile(base)
        w, sr_max = max_sr_beamformer(u.v, ch, base)
        cfg = base.with_updates(r0=sr_max)
        assert np.allclose(sca_w_step(u.v, w, ch, cfg).w, w, rtol=0, atol=1e-14 * abs(w[0]))

    def test_unattainable_target_returns_w_prev(self, monkeypatch):
        # the step keeps w_prev when exact_w raises, even where the step
        # without the raise would move
        import irs_swipt.sca as sca
        cfg = ScenarioConfig(M=4, N=3, seed=2, r0=0.5, **DESK)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg)
        w_prev, _ = max_sr_beamformer(u.v, ch, cfg)
        assert not np.array_equal(sca_w_step(u.v, w_prev, ch, cfg).w, w_prev)

        def unattainable(*args):
            raise SubproblemInfeasible("rounding")

        monkeypatch.setattr(sca, "exact_w", unattainable)
        assert np.array_equal(sca_w_step(u.v, w_prev, ch, cfg).w, w_prev)

    def test_expansion_point_on_boundary(self):
        cfg = ScenarioConfig(M=3, N=4, seed=6, **DESK)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg)
        w, sr_max = max_sr_beamformer(u.v, ch, cfg)
        cfg = cfg.with_updates(r0=0.9 * sr_max)
        w = sca_w_step(u.v, w, ch, cfg).w
        report = check_feasible(w, u, cfg, ch)
        assert abs(report.sr_slack) <= 1e-7
        assert np.linalg.norm(w) == pytest.approx(np.sqrt(cfg.ps_w), rel=1e-12)
        assert_step_exact(u.v, w, ch, cfg)


def channel_slices(w, channels):
    """(a, alpha), (b, beta), (c, gamma): the IRS rows and the direct entry of
    H_r w, H_b w and H_e w."""
    n = channels.H_r.shape[0] - 1
    rows = (H @ w for H in (channels.H_r, channels.H_b, channels.H_e))
    return tuple((y[:n], complex(y[n])) for y in rows)


def dense_A(w, channels, cfg):
    """A = 2^r0 c c^H - b b^H, which build_phase_data applies without forming."""
    _, (b, _), (c, _) = channel_slices(w, channels)
    return 2.0 ** cfg.r0 * np.outer(c, c.conj()) - np.outer(b, b.conj())


class TestBuildPhaseData:
    def make(self, seed=7, n=5):
        cfg = ScenarioConfig(M=3, N=n, seed=seed, r0=1.0, **DESK)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg)
        ok, w, _ = feasibility_probe(ch, cfg, u)
        assert ok
        return cfg, ch, u, w

    @pytest.mark.parametrize("n", [1, 5, 24])
    def test_surrogates_tight_at_expansion(self, n):
        # both surrogates meet the true functions at the expansion point, so a
        # conjugated or dropped direct entry shows up here
        cfg, ch, u, w = self.make(n=n)
        d, f, c2 = build_phase_data(w, u, ch, cfg)
        (a, alpha), (b, beta), (c, gamma) = channel_slices(w, ch)
        gain, ut, s2 = 2.0 ** cfg.r0, u.u, cfg.sigma2_w
        c1 = abs(alpha) ** 2 - abs(np.vdot(a, ut)) ** 2
        r = abs(np.vdot(ut, a) + alpha) ** 2
        assert 2.0 * float(np.real(np.vdot(ut, d))) + c1 == pytest.approx(r, rel=1e-12)
        bb = abs(np.vdot(ut, b) + beta) ** 2
        ee = abs(np.vdot(ut, c) + gamma) ** 2
        scale = n * (gain * np.vdot(c, c).real + np.vdot(b, b).real) + bb + gain * ee + s2
        lhs = 2.0 * float(np.real(np.vdot(ut, f))) - c2
        assert abs(lhs - (bb + s2 - gain * (ee + s2))) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 5, 24])
    def test_f_and_c2_match_dense_A(self, n):
        cfg, ch, u, w = self.make(n=n)
        _, f, c2 = build_phase_data(w, u, ch, cfg)
        _, (b, beta), (c, gamma) = channel_slices(w, ch)
        gain, ut = 2.0 ** cfg.r0, u.u
        A = dense_A(w, ch, cfg)
        lam = max_eigval(A)
        m_minus_a_u = (lam * np.eye(n) - A) @ ut
        f_ref = m_minus_a_u + b * np.conj(beta) - gain * c * np.conj(gamma)
        c2_ref = (n * lam + float(np.real(ut.conj() @ m_minus_a_u))
                  + gain * (abs(gamma) ** 2 + cfg.sigma2_w) - abs(beta) ** 2 - cfg.sigma2_w)
        scale = n * np.linalg.norm(A) + np.linalg.norm(f_ref)
        assert np.allclose(f, f_ref, rtol=1e-12, atol=1e-12 * scale)
        assert c2 == pytest.approx(c2_ref, rel=1e-12, abs=1e-12 * (scale + abs(c2_ref)))

    def test_degenerate_secrecy_data(self):
        cfg = ScenarioConfig(M=3, N=4, seed=8, r0=1.0, **DESK)
        ch = no_eve_channels(cfg)
        nb = ChannelSet(G=ch.G, h_ab=np.zeros(3), h_ah=ch.h_ah, h_ae=np.zeros(3),
                        h_ib=np.zeros(4), h_ih=ch.h_ih, h_ie=np.zeros(4))
        u = initial_phase_profile(cfg)
        w = np.ones(3, dtype=complex)
        _, f, _ = build_phase_data(w, u, nb, cfg)
        assert np.allclose(dense_A(w, nb, cfg), 0)
        assert np.allclose(f, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 24])
    def test_lambda_max_matches_eigensolver(self, n):
        for seed in range(3):
            cfg, ch, u, w = self.make(seed=seed, n=n)
            _, (b, _), (c, _) = channel_slices(w, ch)
            A = dense_A(w, ch, cfg)
            scale = np.linalg.norm(A)
            assert abs(_rank_two_max_eigval(2.0 ** cfg.r0, c, b) - max_eigval(A)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 24])
    def test_rank_two_max_eigval_special_pairs(self, n):
        rng = np.random.default_rng(60 + n)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        zero = np.zeros(n, dtype=complex)
        for gain in (1.0, 2.0 ** 3):
            pairs = {"generic": (c, b), "strong b": (c, 3.0 * b),
                     "b parallel c": (c, (0.6 - 0.8j) * c),
                     "b parallel c, zero trace": (c, np.sqrt(gain) * (0.6 - 0.8j) * c),
                     "b zero": (c, zero), "c zero": (zero, c)}
            for name, (cc, bb) in pairs.items():
                A = gain * np.outer(cc, cc.conj()) - np.outer(bb, bb.conj())
                lam = _rank_two_max_eigval(gain, cc, bb)
                scale = gain * np.vdot(cc, cc).real + np.vdot(bb, bb).real
                assert abs(lam - max_eigval(A)) <= 1e-12 * scale, name
        if n == 1:  # a negative scalar stays negative
            assert _rank_two_max_eigval(1.0, c, 2.0 * c) < 0

    def test_objective_minorant_random_profiles(self):
        rng = np.random.default_rng(9)
        cfg, ch, u, w = self.make(seed=10)
        d, _, _ = build_phase_data(w, u, ch, cfg)
        (a, alpha), _, _ = channel_slices(w, ch)
        c1 = abs(alpha) ** 2 - abs(np.vdot(a, u.u)) ** 2
        for _ in range(1000):
            uu = np.exp(2j * np.pi * rng.random(5))
            bound = 2.0 * float(np.real(uu.conj() @ d)) + c1
            truth = abs(uu.conj() @ a + alpha) ** 2
            assert bound <= truth + 1e-9 * (1.0 + truth)

    def test_constraint_surrogate_restricts_original(self):
        # any u satisfying 2Re(u^H f) >= c2 satisfies the true secrecy constraint
        rng = np.random.default_rng(10)
        cfg, ch, u, w = self.make(seed=11)
        _, f, c2 = build_phase_data(w, u, ch, cfg)
        _, (b, beta), (c, gamma) = channel_slices(w, ch)
        gain = 2.0 ** cfg.r0
        found = 0
        for _ in range(3000):
            uu = np.exp(2j * np.pi * rng.random(5))
            if 2.0 * float(np.real(uu.conj() @ f)) >= c2:
                found += 1
                bb = abs(uu.conj() @ b + beta) ** 2
                ee = abs(uu.conj() @ c + gamma) ** 2
                assert bb + cfg.sigma2_w >= gain * (ee + cfg.sigma2_w) * (1 - 1e-9)
        assert found > 0


class TestUOfMu:
    def test_zero_multiplier_aligns_to_d(self):
        d = np.array([1.0, 1.0j])
        prof = u_of_mu(d, np.array([1.0, 1.0]), 0.0)
        assert np.allclose(prof.u, [1.0, 1.0j])

    def test_large_multiplier_aligns_to_f(self):
        d = np.array([1.0j, -1.0])
        f = np.ones(2)
        prof = u_of_mu(d, f, 1e12)
        assert np.allclose(prof.u, [1.0, 1.0], atol=1e-10)

    def test_entrywise_alignment_is_optimal(self):
        rng = np.random.default_rng(11)
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mu = 0.7
        prof = u_of_mu(d, f, mu)
        val = 2 * np.real(prof.u.conj() @ d) + 2 * mu * np.real(prof.u.conj() @ f)
        us = np.exp(2j * np.pi * rng.random((100_000, 4)))
        vals = 2 * np.real(us.conj() @ d) + 2 * mu * np.real(us.conj() @ f)
        assert val >= vals.max() - 1e-9

    def test_zero_entry_gets_unit_phase(self):
        prof = u_of_mu(np.array([0.0, 1.0]), np.array([0.0, 0.0]), 0.0)
        assert prof.u[0] == 1.0


class TestBisectMu:
    def test_slack_constraint_gives_zero_multiplier(self):
        d = np.array([1.0 + 1.0j, -2.0])
        f = np.array([1.0, 1.0j])
        g0 = 2 * np.real(u_of_mu(d, f, 0.0).u.conj() @ f)
        mu, prof = bisect_mu(d, f, g0 - 1.0)
        assert mu == 0.0
        assert np.allclose(prof.u, np.exp(1j * np.angle(d)))

    def test_monotone_g_on_grid(self):
        rng = np.random.default_rng(12)
        mus = np.linspace(0.0, 50.0, 10_000)
        for _ in range(100):
            d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            z = d[None, :] + mus[:, None] * f[None, :]
            z = np.where(z == 0, 1.0, z / np.abs(np.where(z == 0, 1.0, z)))
            g = 2 * np.real(np.sum(z.conj() * f[None, :], axis=1))
            assert np.all(np.diff(g) >= -1e-9 * (1 + np.abs(g[:-1])))

    def test_bisection_hits_target(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            g0 = 2 * np.real(u_of_mu(d, f, 0.0).u.conj() @ f)
            gmax = 2 * np.sum(np.abs(f))
            c2 = g0 + 0.7 * (gmax - g0)
            mu, prof = bisect_mu(d, f, c2)
            assert mu > 0
            g = 2 * np.real(prof.u.conj() @ f)
            assert abs(g - c2) <= 1e-8 * (1 + abs(c2))
            assert g >= c2 - 1e-8 * (1 + abs(c2))

    def test_jump_past_target_stops_at_rounding(self, monkeypatch):
        # g jumps from -2 to 2 at mu = 1 and never comes within MU_TOL of c2 = 0,
        # so only the bracket's width can stop the bisection: about 53 halvings
        # of [0, 1] reach the neighbouring doubles of the jump
        import irs_swipt.sca as sca
        calls = []
        monkeypatch.setattr(sca, "_g_of_mu",
                            lambda d, f, mu, _g=sca._g_of_mu: calls.append(mu) or _g(d, f, mu))
        d, f = np.array([-1.0 + 0j]), np.array([1.0 + 0j])
        mu, prof = bisect_mu(d, f, 0.0)
        assert mu == 1.0
        assert 2 * np.real(prof.u.conj() @ f) >= 0.0
        assert len(calls) <= 60  # each call counted once, the array pass of bracket ends too

    def test_unreachable_constraint_raises(self):
        d = np.array([1.0, 1.0j])
        f = np.array([0.1, 0.1])
        with pytest.raises(PhaseStepInfeasible):
            bisect_mu(d, f, 2 * np.sum(np.abs(f)) + 1.0)

    def test_no_bracket_raises(self):
        # 2 sum|f_n| = 4 clears c2, but the entry of d that f must outweigh
        # stays negative up to the last bracket end 2^200
        d = np.array([1.0, -1e70], dtype=complex)
        f = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(PhaseStepInfeasible, match="bisection bracket not found"):
            bisect_mu(d, f, 3.5)

    def test_no_bracket_within_tolerance_returns_last_end(self):
        # g stays just below c2 on every bracket end, within MU_TOL*(1 + |c2|)
        d = np.array([1.0, 1.0], dtype=complex)
        f = np.array([1.0, -1e-80], dtype=complex)
        mu, prof = bisect_mu(d, f, 2.0 + 1e-9)
        assert mu == 2.0 ** 200
        assert np.array_equal(prof.u, [1.0, 1.0])


class TestScaAo:
    def test_mrt_closed_form_without_irs(self):
        cfg = ScenarioConfig(M=4, N=0, seed=21, r0=0.01, **DESK)
        ch = no_eve_channels(cfg)
        res = sca_ao(ch, cfg)
        assert res.status == "Converged"
        target = cfg.zeta * cfg.ps_w * np.linalg.norm(ch.h_ah) ** 2
        assert res.harvested_trace[-1] == pytest.approx(target, rel=0.01)

    def test_trace_monotone_and_feasible(self):
        for seed in range(15):
            cfg = ScenarioConfig(M=3, N=6, seed=seed, r0=1.0, **DESK)
            ch = generate_scenario(cfg)
            res = sca_ao(ch, cfg)
            if res.status == "Infeasible":
                continue
            tr = res.harvested_trace
            assert all(tr[i + 1] >= tr[i] * (1 - 1e-8) for i in range(len(tr) - 1))
            rep = check_feasible(res.w.w, res.u, cfg, ch)
            assert rep.feasible
            assert np.max(np.abs(np.abs(res.u.u) - 1.0)) <= 1e-12
            assert res.achieved_sr >= cfg.r0 - 1e-6

    def test_paper_scale_converges_quickly(self):
        cfg = ScenarioConfig(M=4, N=50, seed=2, r0=1.0)
        ch = generate_scenario(cfg)
        res = sca_ao(ch, cfg)
        assert res.status in ("Converged", "MaxIters")
        tr = np.array(res.harvested_trace)
        assert res.iters_outer <= 30
        first99 = int(np.argmax(tr >= 0.99 * tr[-1]))
        assert first99 <= 15

    def test_infeasible_phase_step_keeps_profile(self, monkeypatch):
        # from its second call on, the phase step finds the linearized secrecy
        # constraint unreachable; sca_ao keeps the profile it has
        import irs_swipt.sca as sca
        cfg = ScenarioConfig(M=3, N=6, seed=0, r0=1.0, **DESK)
        ch = generate_scenario(cfg)
        calls = []

        def first_only(d, f, c2):
            if calls:
                calls.append(None)
                raise PhaseStepInfeasible("linearized secrecy constraint unreachable")
            calls.append(bisect_mu(d, f, c2))
            return calls[0]

        monkeypatch.setattr(sca, "bisect_mu", first_only)
        res = sca_ao(ch, cfg)
        assert len(calls) > 1
        assert np.array_equal(res.u.u, calls[0][1].u)
        assert res.status in ("Converged", "MaxIters")
        tr = res.harvested_trace
        assert all(tr[i + 1] >= tr[i] * (1 - 1e-8) for i in range(len(tr) - 1))
        assert check_feasible(res.w.w, res.u, cfg, ch).feasible

    def test_phase_step_that_lowers_the_value_is_discarded(self, monkeypatch):
        # bisect_mu's multiplier can exceed the root, and there a phase step
        # can lower the true objective; sca_ao then keeps the profile it had,
        # and that keeps its trace non-decreasing
        import irs_swipt.sca as sca
        cfg = ScenarioConfig(N=8, r0=3.0, seed=0)
        ch = generate_scenario(cfg)
        steps = []  # [w, profile in, profile out] per phase step

        def recording_build(w, u, channels, cfg):
            steps.append([w, u, None])
            return build_phase_data(w, u, channels, cfg)

        def recording_bisect(d, f, c2):
            mu, u_new = bisect_mu(d, f, c2)
            steps[-1][2] = u_new
            return mu, u_new

        monkeypatch.setattr(sca, "build_phase_data", recording_build)
        monkeypatch.setattr(sca, "bisect_mu", recording_bisect)
        res = sca_ao(ch, cfg)
        # the profile each step hands on: the next step's input, or the result
        kept = [u for _, u, _ in steps[1:]] + [res.u]
        drops = [i for i, (w, u, u_new) in enumerate(steps) if u_new is not None
                 and true_objective(u_new.v, w, ch) < true_objective(u.v, w, ch) * (1 - 1e-12)]
        assert drops
        for i in drops:
            assert np.array_equal(kept[i].u, steps[i][1].u)
        tr = res.harvested_trace
        assert all(b >= a for a, b in zip(tr, tr[1:]))

    def test_infeasible_scenario_flagged(self):
        cfg = ScenarioConfig(M=2, N=2, seed=22, r0=30.0)
        ch = generate_scenario(cfg)
        res = sca_ao(ch, cfg)
        assert res.status == "Infeasible"
