import numpy as np
import pytest

from irs_swipt.channel import ChannelSet, ScenarioConfig, generate_scenario
from irs_swipt.errors import PhaseStepInfeasible
from irs_swipt.init import feasibility_probe, initial_phase_profile, max_sr_beamformer
from irs_swipt.linalg import max_eigval
from irs_swipt.metrics import PhaseProfile, check_feasible, harvested_power
from irs_swipt.sca import (PhaseSubproblemData, _WSurrogate, _ball_multiplier,
                           _rank_two_max_eigval, bisect_mu, build_phase_data, sca_ao,
                           sca_w_step, u_of_mu)
from irs_swipt.sdr import solve_w_sdp

DESK = dict(d_ap_bob=10.0, d_ap_eve=20.0, d_ap_ehr=6.0,
            d_irs_bob=12.0, d_irs_eve=25.0, d_irs_ehr=4.0)


def no_eve_channels(cfg):
    ch = generate_scenario(cfg)
    return ChannelSet(G=ch.G, h_ab=ch.h_ab, h_ah=ch.h_ah,
                      h_ae=np.zeros(cfg.M), h_ib=ch.h_ib, h_ih=ch.h_ih,
                      h_ie=np.zeros(cfg.N))


def true_objective(v, w, channels):
    return abs(np.vdot(v, channels.H_r @ w)) ** 2


def surrogate_values(sur, X):
    """Objective, ||x||^2 - 1 and secrecy-constraint value of each row of X."""
    obj = 2.0 * np.real(X @ sur.q.conj())
    f1 = np.sum(np.abs(X) ** 2, axis=1) - 1.0
    f2 = (sur.gain * np.abs(X @ sur.g_e.conj()) ** 2
          - 2.0 * np.real(X @ sur.p.conj()) + sur.kappa)
    return obj, f1, f2


def assert_step_optimal(v, w_prev, channels, cfg, rng, samples=2000):
    """The step's output is feasible for the surrogate at w_prev, ascends, and
    no random feasible point of the surrogate near it or in the ball beats it."""
    sur = _WSurrogate(v, w_prev, channels, cfg)
    x = sca_w_step(v, w_prev, channels, cfg).w / np.sqrt(cfg.ps_w)
    best = sur.objective(x)
    assert sur.f1(x) <= 1e-12
    assert sur.f2(x) <= 1e-12 * (1.0 + abs(sur.kappa))
    # x went through w = sqrt(Ps) x and back, which may cost an ulp
    assert best >= sur.objective(sur.x_prev) * (1.0 - 1e-14)

    m = x.shape[0]
    z = rng.standard_normal((samples, m)) + 1j * rng.standard_normal((samples, m))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    near = x + np.logspace(-7, 0, samples // 2)[:, None] * z[: samples // 2]
    ball = z[samples // 2:] * rng.random((samples - samples // 2, 1)) ** (1.0 / (2 * m))
    X = np.vstack([near, ball])
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True))
    obj, f1s, f2s = surrogate_values(sur, X)
    feasible = (f1s <= 0.0) & (f2s <= 0.0)
    assert feasible.sum() >= 50
    assert obj[feasible].max() <= best + 1e-8 * abs(best)
    return sur, x


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

    def test_surrogate_tight_at_expansion_point(self):
        cfg = ScenarioConfig(M=3, N=4, seed=3, r0=1.0, **DESK)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg)
        ok, w, _ = feasibility_probe(ch, cfg, u)
        assert ok
        sur = _WSurrogate(u.v, w, ch, cfg)
        x = sur.x_prev
        # objective surrogate 2Re(x^H q) - |g_r^H x_prev|^2 equals the truth at x_prev
        quad = abs(np.vdot(sur.g_r, sur.x_prev)) ** 2
        assert sur.objective(x) - quad == pytest.approx(quad, rel=1e-9)

    def test_surrogate_lower_bounds_truth(self):
        rng = np.random.default_rng(4)
        cfg = ScenarioConfig(M=3, N=4, seed=5, r0=1.0, **DESK)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg)
        ok, w, _ = feasibility_probe(ch, cfg, u)
        assert ok
        sur = _WSurrogate(u.v, w, ch, cfg)
        for _ in range(200):
            x = rng.standard_normal(6)
            x /= np.linalg.norm(x) * rng.uniform(1.0, 3.0)
            xc = x[:3] + 1j * x[3:]
            truth = abs(np.vdot(sur.g_r, xc)) ** 2
            surrogate = sur.objective(xc) - abs(np.vdot(sur.g_r, sur.x_prev)) ** 2
            assert surrogate <= truth + 1e-9 * (1.0 + truth)

    def test_matches_sdr_w_subproblem(self):
        # inner-converged surrogate ascent vs the exact SDR W half-step
        rng = np.random.default_rng(6)
        checked = 0
        for seed in range(80):
            if checked >= 50:
                break
            m = 2 + seed % 3
            cfg = ScenarioConfig(M=m, N=3, seed=seed, r0=0.8, **DESK)
            ch = generate_scenario(cfg)
            u = PhaseProfile(np.exp(2j * np.pi * rng.random(3)))
            ok, w, _ = feasibility_probe(ch, cfg, u)
            if not ok:
                continue
            checked += 1
            v = u.v
            prev = true_objective(v, w, ch)
            for _ in range(60):
                w = sca_w_step(v, w, ch, cfg).w
                cur = true_objective(v, w, ch)
                if cur - prev <= 1e-9 * max(cur, 1e-300):
                    break
                prev = cur
            V = np.outer(v, v.conj())
            w_sdr, _ = solve_w_sdp(V, ch, cfg)
            sdr_val = true_objective(v, w_sdr, ch)
            assert true_objective(v, w, ch) >= sdr_val * 0.98
        assert checked == 50

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_step_is_surrogate_optimal(self, m):
        # the first expansion point is the max-SR beamformer; the third lies
        # where the previous surrogate steps left it, usually on the boundary
        rng = np.random.default_rng(40 + m)
        checked = 0
        for seed in range(12):
            cfg = ScenarioConfig(M=m, N=3, seed=seed, **DESK)
            ch = generate_scenario(cfg)
            u = PhaseProfile(np.exp(2j * np.pi * rng.random(3)))
            w, sr_max = max_sr_beamformer(u.v, ch, cfg)
            if sr_max < 0.5:
                continue
            for frac in (0.3, 0.9):
                cfg_r = cfg.with_updates(r0=frac * sr_max)
                w_prev = w
                for _ in range(3):
                    _, x = assert_step_optimal(u.v, w_prev, ch, cfg_r, rng)
                    w_prev = x * np.sqrt(cfg.ps_w)
                checked += 1
        assert checked >= 8

    def test_eve_free_channels(self):
        # g_e = 0: the secrecy surrogate is a half-space and g/||g|| is undefined
        rng = np.random.default_rng(50)
        for seed in range(4):
            cfg = ScenarioConfig(M=3, N=4, seed=seed, **DESK)
            ch = no_eve_channels(cfg)
            u = initial_phase_profile(cfg)
            w, sr_max = max_sr_beamformer(u.v, ch, cfg)
            cfg = cfg.with_updates(r0=0.95 * sr_max)
            sur, _ = assert_step_optimal(u.v, w, ch, cfg, rng)
            assert np.all(sur.g_e == 0)

    def test_single_antenna(self):
        rng = np.random.default_rng(51)
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
            _, x = assert_step_optimal(u.v, 0.6 * w, ch, cfg, rng)
            assert abs(x[0]) == pytest.approx(1.0, rel=1e-12)
        assert found >= 2

    def test_single_antenna_inactive_ball(self):
        # unit noise and power: the surrogate's secrecy disk |x - p/k|^2 <= |p|^2/k^2 - kappa/k
        # lies inside the unit disk, so the ball multiplier is 0 and the optimum is
        # the disk's far point along q
        cfg = ScenarioConfig(M=1, N=0, ps_w=1.0, sigma2_w=1.0, r0=np.log2(1.5))
        ch = ChannelSet(G=np.zeros((0, 1)), h_ab=np.array([3.0 * np.exp(0.4j)]),
                        h_ah=np.array([1.0 - 0.5j]), h_ae=np.array([2.0 * np.exp(-1.1j)]),
                        h_ib=np.zeros(0), h_ih=np.zeros(0), h_ie=np.zeros(0))
        v = np.ones(1, dtype=complex)
        w_prev = np.array([0.45 * np.exp(0.7j)])
        sur = _WSurrogate(v, w_prev, ch, cfg)
        k = sur.gain * abs(sur.g_e[0]) ** 2
        z0 = sur.p[0] / k
        rho = np.sqrt(abs(z0) ** 2 - sur.kappa / k)
        expected = z0 + rho * sur.q[0] / abs(sur.q[0])
        assert abs(expected) < 0.95
        step = sca_w_step(v, w_prev, ch, cfg).w
        assert step[0] == pytest.approx(expected, rel=1e-7)

    def test_slack_constraint_gives_normalized_q(self):
        cfg = ScenarioConfig(M=4, N=3, seed=1, r0=1e-3, **DESK)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg)
        _, w, _ = feasibility_probe(ch, cfg, u)
        sur = _WSurrogate(u.v, w, ch, cfg)
        step = sca_w_step(u.v, w, ch, cfg).w
        q_hat = sur.q / np.linalg.norm(sur.q)
        assert sur.f2(q_hat) < -0.5 * (1.0 + sur.kappa)  # the ball maximizer is feasible
        assert np.allclose(step, np.sqrt(cfg.ps_w) * q_hat, rtol=0, atol=1e-12 * np.sqrt(cfg.ps_w))

    def test_no_interior_returns_w_prev(self):
        # unit noise and power, Bob on the first antenna, no Eve, r0 = log2(1 + |h_ab|^2):
        # the surrogate 2 - 2 Re(x_1) <= 0 meets the ball only at x_prev = e_1
        cfg = ScenarioConfig(M=2, N=0, ps_w=1.0, sigma2_w=1.0, r0=1.0)
        ch = ChannelSet(G=np.zeros((0, 2)), h_ab=np.array([1.0, 0.0]),
                        h_ah=np.array([1.0, 1.0j]), h_ae=np.zeros(2),
                        h_ib=np.zeros(0), h_ih=np.zeros(0), h_ie=np.zeros(0))
        v = np.ones(1, dtype=complex)
        w_prev = np.array([1.0, 0.0], dtype=complex)
        assert np.array_equal(sca_w_step(v, w_prev, ch, cfg).w, w_prev)
        # single antenna at the maximum secrecy rate: the true feasible set is
        # the full-power circle, so the convex surrogate holds x_prev alone
        base = ScenarioConfig(M=1, N=2, seed=1, **DESK)
        ch = generate_scenario(base)
        u = initial_phase_profile(base)
        w, sr_max = max_sr_beamformer(u.v, ch, base)
        cfg = base.with_updates(r0=sr_max)
        assert np.allclose(sca_w_step(u.v, w, ch, cfg).w, w, rtol=0, atol=1e-14 * abs(w[0]))

    def test_expansion_point_on_boundary(self):
        rng = np.random.default_rng(52)
        cfg = ScenarioConfig(M=3, N=4, seed=6, **DESK)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg)
        w, sr_max = max_sr_beamformer(u.v, ch, cfg)
        cfg = cfg.with_updates(r0=0.9 * sr_max)
        for _ in range(8):
            w = sca_w_step(u.v, w, ch, cfg).w
        sur = _WSurrogate(u.v, w, ch, cfg)
        assert abs(sur.f2(sur.x_prev)) <= 1e-7 * (1.0 + sur.kappa)
        assert np.linalg.norm(sur.x_prev) == pytest.approx(1.0, rel=1e-12)
        assert_step_optimal(u.v, w, ch, cfg, rng)


class TestBallMultiplier:
    def test_root_of_secular_equation(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            a, b, c = rng.random(3) * np.array([1.0, 4.0, 2.0])
            lam = _ball_multiplier(a, b, c)
            assert a / lam ** 2 + b / (lam + c) ** 2 == pytest.approx(1.0, rel=1e-13)

    def test_inactive_ball_without_orthogonal_part(self):
        assert _ball_multiplier(0.0, 1.0, 2.0) == 0.0
        assert _ball_multiplier(0.0, 9.0, 1.0) == pytest.approx(2.0)


def dense_A(data, cfg):
    """A = 2^r0 c c^H - b b^H, which build_phase_data applies without forming."""
    return 2.0 ** cfg.r0 * np.outer(data.c, data.c.conj()) - np.outer(data.b, data.b.conj())


class TestBuildPhaseData:
    def make(self, seed=7, n=5):
        cfg = ScenarioConfig(M=3, N=n, seed=seed, r0=1.0, **DESK)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg)
        ok, w, _ = feasibility_probe(ch, cfg, u)
        assert ok
        return cfg, ch, u, w

    def test_majorization_tight_at_expansion(self):
        cfg, ch, u, w = self.make()
        data = build_phase_data(w, u, ch, cfg)
        A = dense_A(data, cfg)
        ut = u.u
        n = ut.shape[0]
        lhs = float(np.real(ut.conj() @ A @ ut))
        rhs = (n * data.lambda_max_A
               + 2.0 * float(np.real(ut.conj() @ (A - data.lambda_max_A * np.eye(n)) @ ut))
               + float(np.real(ut.conj() @ (data.lambda_max_A * np.eye(n) - A) @ ut)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12 * (1 + abs(lhs)))

    @pytest.mark.parametrize("n", [1, 5, 24])
    def test_f_and_c2_match_dense_A(self, n):
        cfg, ch, u, w = self.make(n=n)
        data = build_phase_data(w, u, ch, cfg)
        gain, ut = 2.0 ** cfg.r0, u.u
        m_minus_a_u = (data.lambda_max_A * np.eye(n) - dense_A(data, cfg)) @ ut
        f = m_minus_a_u + data.b * np.conj(data.beta) - gain * data.c * np.conj(data.gamma)
        c2 = (n * data.lambda_max_A + float(np.real(ut.conj() @ m_minus_a_u))
              + gain * (abs(data.gamma) ** 2 + cfg.sigma2_w) - abs(data.beta) ** 2 - cfg.sigma2_w)
        assert np.allclose(data.f, f, rtol=1e-12, atol=1e-12 * np.linalg.norm(f))
        assert data.c2 == pytest.approx(c2, rel=1e-12)

    def test_degenerate_secrecy_data(self):
        cfg = ScenarioConfig(M=3, N=4, seed=8, r0=1.0, **DESK)
        ch = no_eve_channels(cfg)
        nb = ChannelSet(G=ch.G, h_ab=np.zeros(3), h_ah=ch.h_ah, h_ae=np.zeros(3),
                        h_ib=np.zeros(4), h_ih=ch.h_ih, h_ie=np.zeros(4))
        u = initial_phase_profile(cfg)
        w = np.ones(3, dtype=complex)
        data = build_phase_data(w, u, nb, cfg)
        assert np.allclose(dense_A(data, cfg), 0)
        assert np.allclose(data.f, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 24])
    def test_lambda_max_matches_eigensolver(self, n):
        for seed in range(3):
            cfg, ch, u, w = self.make(seed=seed, n=n)
            data = build_phase_data(w, u, ch, cfg)
            A = dense_A(data, cfg)
            scale = np.linalg.norm(A)
            assert abs(data.lambda_max_A - max_eigval(A)) <= 1e-12 * scale

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
        data = build_phase_data(w, u, ch, cfg)
        for _ in range(1000):
            uu = np.exp(2j * np.pi * rng.random(5))
            bound = 2.0 * float(np.real(uu.conj() @ data.d)) + data.c1
            truth = abs(uu.conj() @ data.a + data.alpha) ** 2
            assert bound <= truth + 1e-9 * (1.0 + truth)

    def test_constraint_surrogate_restricts_original(self):
        # any u satisfying 2Re(u^H f) >= c2 satisfies the true secrecy constraint
        rng = np.random.default_rng(10)
        cfg, ch, u, w = self.make(seed=11)
        data = build_phase_data(w, u, ch, cfg)
        gain = 2.0 ** cfg.r0
        found = 0
        for _ in range(3000):
            uu = np.exp(2j * np.pi * rng.random(5))
            if 2.0 * float(np.real(uu.conj() @ data.f)) >= data.c2:
                found += 1
                bb = abs(uu.conj() @ data.b + data.beta) ** 2
                ee = abs(uu.conj() @ data.c + data.gamma) ** 2
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
    def make_data(self, d, f, c2):
        n = len(d)
        return PhaseSubproblemData(a=np.zeros(n), b=np.zeros(n), c=np.zeros(n),
                                   alpha=0j, beta=0j, gamma=0j,
                                   lambda_max_A=0.0, d=np.asarray(d, complex),
                                   f=np.asarray(f, complex), c1=0.0, c2=float(c2))

    def test_slack_constraint_gives_zero_multiplier(self):
        d = np.array([1.0 + 1.0j, -2.0])
        f = np.array([1.0, 1.0j])
        g0 = 2 * np.real(u_of_mu(d, f, 0.0).u.conj() @ f)
        data = self.make_data(d, f, g0 - 1.0)
        mu, prof = bisect_mu(data)
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
            data = self.make_data(d, f, c2)
            mu, prof = bisect_mu(data, eps_bisect=1e-8)
            assert mu > 0
            g = 2 * np.real(prof.u.conj() @ f)
            assert abs(g - c2) <= 1e-8 * (1 + abs(c2))
            assert g >= c2 - 1e-8 * (1 + abs(c2))

    def test_unreachable_constraint_raises(self):
        d = np.array([1.0, 1.0j])
        f = np.array([0.1, 0.1])
        data = self.make_data(d, f, 2 * np.sum(np.abs(f)) + 1.0)
        with pytest.raises(PhaseStepInfeasible):
            bisect_mu(data)


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

    def test_infeasible_scenario_flagged(self):
        cfg = ScenarioConfig(M=2, N=2, seed=22, r0=30.0)
        ch = generate_scenario(cfg)
        res = sca_ao(ch, cfg)
        assert res.status == "Infeasible"
