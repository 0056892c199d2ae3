import numpy as np
import pytest

from irs_swipt.channel import ChannelSet, ScenarioConfig, generate_scenario
from irs_swipt.errors import SubproblemInfeasible
from irs_swipt.metrics import PhaseProfile, check_feasible, harvested_power
from irs_swipt.oracle import _unit_directions
from irs_swipt.sdr import randomize_v, randomize_w, sdr_ao, solve_v_sdp, solve_w_sdp

DESK = dict(d_ap_bob=10.0, d_ap_eve=20.0, d_ap_ehr=6.0,
            d_irs_bob=12.0, d_irs_eve=25.0, d_irs_ehr=4.0)


def no_eve_channels(cfg):
    ch = generate_scenario(cfg)
    return ChannelSet(G=ch.G, h_ab=ch.h_ab, h_ah=ch.h_ah,
                      h_ae=np.zeros(cfg.M), h_ib=ch.h_ib, h_ih=ch.h_ih,
                      h_ie=np.zeros(cfg.N))


def rank_one_w_oracle(V, channels, cfg, n_dirs=4000):
    """Best rank-one beamformer from a direction grid over the span of the
    three effective channels, full power (independent reference)."""
    vals, vecs = np.linalg.eigh(V)
    v = vecs[:, -1] * np.sqrt(max(vals[-1], 0.0))
    if abs(v[-1]) > 1e-12:
        v = v / v[-1] * abs(v[-1])  # fix the global phase for reproducibility
    g = [H.conj().T @ v for H in (channels.H_r, channels.H_b, channels.H_e)]
    q = np.linalg.qr(np.stack(g, axis=1))[0]
    dirs = _unit_directions(q.shape[1], n_dirs)
    cand = np.sqrt(cfg.ps_w) * (q @ dirs.T)  # (M, K)
    def sq(gx):
        return np.abs(gx.conj() @ cand) ** 2
    gain = 2.0 ** cfg.r0
    feas = sq(g[1]) + cfg.sigma2_w >= gain * (sq(g[2]) + cfg.sigma2_w)
    vals = np.where(feas, sq(g[0]), -np.inf)
    return float(vals.max())


class TestSolveWSdp:
    def test_mrt_when_secrecy_slack(self):
        cfg = ScenarioConfig(M=4, N=3, seed=2, r0=1e-3)
        ch = no_eve_channels(cfg)
        v = np.ones(4, dtype=complex)
        V = np.outer(v, v.conj())
        W, obj = solve_w_sdp(V, ch, cfg)
        target = cfg.ps_w * np.linalg.norm(ch.H_r.conj().T @ v) ** 2
        assert obj == pytest.approx(target, rel=1e-5)
        assert np.trace(W).real <= cfg.ps_w * (1 + 1e-7)

    def test_without_irs_single_row(self):
        cfg = ScenarioConfig(M=4, N=0, seed=3, r0=1e-3, **DESK)
        ch = no_eve_channels(cfg)
        V = np.ones((1, 1), dtype=complex)
        W, obj = solve_w_sdp(V, ch, cfg)
        assert obj == pytest.approx(cfg.ps_w * np.linalg.norm(ch.h_ah) ** 2, rel=1e-5)

    def test_relaxation_upper_bounds_rank_one_grid(self):
        rng = np.random.default_rng(8)
        for seed in range(6):
            cfg = ScenarioConfig(M=3, N=4, seed=seed, r0=1.0, **DESK)
            ch = generate_scenario(cfg)
            u = np.exp(2j * np.pi * rng.random(4))
            v = np.concatenate([u, [1.0]])
            V = np.outer(v, v.conj())
            try:
                _, obj = solve_w_sdp(V, ch, cfg)
            except SubproblemInfeasible:
                continue
            grid_best = rank_one_w_oracle(V, ch, cfg)
            assert obj >= grid_best * (1.0 - 1e-6)

    def test_infeasible_secrecy_target(self):
        # Bob and EVE see identical channels: any positive target is unreachable
        cfg = ScenarioConfig(M=3, N=2, seed=5, r0=1.0)
        ch = generate_scenario(cfg)
        same = ChannelSet(G=ch.G, h_ab=ch.h_ab, h_ah=ch.h_ah, h_ae=ch.h_ab,
                          h_ib=ch.h_ib, h_ih=ch.h_ih, h_ie=ch.h_ib)
        v = np.ones(3, dtype=complex)
        with pytest.raises(SubproblemInfeasible):
            solve_w_sdp(np.outer(v, v.conj()), same, cfg)


class TestSolveVSdp:
    def test_rank_one_profiles_are_feasible(self):
        cfg = ScenarioConfig(M=3, N=5, seed=6, r0=0.5, **DESK)
        ch = generate_scenario(cfg)
        rng = np.random.default_rng(0)
        u = np.exp(2j * np.pi * rng.random(5))
        v = np.concatenate([u, [1.0]])
        V = np.outer(v, v.conj())
        assert np.allclose(np.diag(V).real, 1.0)
        assert np.linalg.eigvalsh(V)[0] >= -1e-12

    def test_single_element_no_direct_matches_phase_grid(self):
        cfg = ScenarioConfig(M=2, N=1, seed=7, r0=0.1, **DESK)
        ch = generate_scenario(cfg)
        zero2 = np.zeros(2)
        nd = ChannelSet(G=ch.G, h_ab=zero2, h_ah=zero2, h_ae=zero2,
                        h_ib=ch.h_ib, h_ih=ch.h_ih, h_ie=0.01 * ch.h_ie)
        g_bob = (nd.h_ib.conj() @ nd.G).conj()
        w = np.sqrt(cfg.ps_w) * g_bob / np.linalg.norm(g_bob)
        # with no direct links the constraint is phase-invariant; the aligned
        # beamformer makes it comfortably feasible
        gain = 2.0 ** cfg.r0
        bb = abs(nd.h_ib.conj() @ nd.G @ w) ** 2
        ee = abs(0.01 * ch.h_ie.conj() @ nd.G @ w) ** 2
        assert bb + cfg.sigma2_w >= gain * (ee + cfg.sigma2_w)
        V, obj = solve_v_sdp(np.outer(w, w.conj()), nd, cfg)
        levels = 4096
        phases = np.exp(2j * np.pi * np.arange(levels) / levels)
        vals = [abs(np.conj(p) * (nd.h_ih.conj() @ nd.G @ w)) ** 2 for p in phases]
        assert obj == pytest.approx(max(vals), rel=1e-5)

    def test_diagonal_phase_rotation_invariance(self):
        cfg = ScenarioConfig(M=2, N=3, seed=9, r0=0.5, **DESK)
        ch = generate_scenario(cfg)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w *= np.sqrt(cfg.ps_w) / np.linalg.norm(w)
        W = np.outer(w, w.conj())
        _, obj1 = solve_v_sdp(W, ch, cfg)
        # rotate the per-element phases of every IRS-side vector coherently
        d = np.exp(2j * np.pi * rng.random(3))
        rot = ChannelSet(G=ch.G * d[:, None], h_ab=ch.h_ab, h_ah=ch.h_ah, h_ae=ch.h_ae,
                         h_ib=ch.h_ib, h_ih=ch.h_ih, h_ie=ch.h_ie)
        _, obj2 = solve_v_sdp(W, rot, cfg)
        assert obj1 == pytest.approx(obj2, rel=1e-5)


class TestRandomization:
    def setup(self, seed=11, n=4):
        cfg = ScenarioConfig(M=3, N=n, seed=seed, r0=0.5, **DESK)
        ch = generate_scenario(cfg)
        return cfg, ch

    def test_rank_one_w_recovered_exactly(self):
        cfg, ch = self.setup()
        u = PhaseProfile(np.ones(4, dtype=complex))
        from irs_swipt.init import max_sr_beamformer
        w_star, _ = max_sr_beamformer(u.v, ch, cfg)
        W = np.outer(w_star, w_star.conj())
        w = randomize_w(W, u, ch, cfg, count=50, rng=np.random.default_rng(0))
        got = abs(np.vdot(u.v, ch.H_r @ w.w)) ** 2
        want = abs(np.vdot(u.v, ch.H_r @ w_star)) ** 2
        assert got == pytest.approx(want, abs=1e-8 * max(want, 1.0), rel=1e-8)

    def test_candidates_cannot_beat_relaxation(self):
        cfg, ch = self.setup(seed=12)
        u = PhaseProfile(np.exp(2j * np.pi * np.random.default_rng(2).random(4)))
        V = np.outer(u.v, u.v.conj())
        W, obj = solve_w_sdp(V, ch, cfg)
        w = randomize_w(W, u, ch, cfg, count=1000, rng=np.random.default_rng(3))
        got = abs(np.vdot(u.v, ch.H_r @ w.w)) ** 2
        assert got <= obj * (1.0 + 1e-8)

    def test_randomized_w_is_feasible(self):
        cfg, ch = self.setup(seed=13)
        u = PhaseProfile(np.ones(4, dtype=complex))
        V = np.outer(u.v, u.v.conj())
        W, _ = solve_w_sdp(V, ch, cfg)
        w = randomize_w(W, u, ch, cfg, rng=np.random.default_rng(4))
        assert check_feasible(w.w, u, cfg, ch).feasible

    def test_rank_one_v_recovered(self):
        cfg, ch = self.setup(seed=14)
        rng = np.random.default_rng(5)
        u_true = np.exp(2j * np.pi * rng.random(4))
        v = np.concatenate([u_true, [1.0]])
        V = np.outer(v, v.conj())
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = randomize_v(V, w, ch, cfg, count=20, rng=rng)
        assert np.allclose(u.u, u_true, atol=1e-8)

    def test_unit_modulus_contract(self):
        cfg, ch = self.setup(seed=15)
        w = np.sqrt(cfg.ps_w / 3) * np.ones(3, dtype=complex)
        W = np.outer(w, w.conj())
        V, _ = solve_v_sdp(W, ch, cfg)
        u = randomize_v(V, w, ch, cfg, rng=np.random.default_rng(6))
        assert np.max(np.abs(np.abs(u.u) - 1.0)) <= 1e-12

    def test_beats_random_phase_baseline(self):
        rng = np.random.default_rng(7)
        wins = []
        for seed in range(100):
            cfg = ScenarioConfig(M=2, N=6, seed=seed, r0=0.5, **DESK)
            ch = generate_scenario(cfg)
            from irs_swipt.init import feasibility_probe, initial_phase_profile
            u0 = initial_phase_profile(cfg)
            ok, w, _ = feasibility_probe(ch, cfg, u0)
            if not ok:
                continue
            W = np.outer(w, w.conj())
            try:
                V, _ = solve_v_sdp(W, ch, cfg)
                u = randomize_v(V, w, ch, cfg, count=300, rng=rng)
            except Exception:
                continue
            opt = harvested_power(w, u, ch, cfg.zeta)
            base = harvested_power(
                w, PhaseProfile(np.exp(2j * np.pi * rng.random(6))), ch, cfg.zeta)
            wins.append(opt - base)
        assert len(wins) > 50
        assert np.median(wins) > 0


class TestSdrAo:
    def test_mrt_closed_form_without_irs(self):
        cfg = ScenarioConfig(M=4, N=0, seed=20, r0=0.01, **DESK)
        ch = no_eve_channels(cfg)
        res = sdr_ao(ch, cfg)
        assert res.status == "Converged"
        target = cfg.zeta * cfg.ps_w * np.linalg.norm(ch.h_ah) ** 2
        got = harvested_power(res.w.w, res.u, ch, cfg.zeta)
        assert got == pytest.approx(target, rel=0.01)

    def test_relaxation_trace_monotone(self):
        for seed in range(20):
            cfg = ScenarioConfig(M=3, N=5, seed=seed, r0=1.0, **DESK)
            ch = generate_scenario(cfg)
            res = sdr_ao(ch, cfg)
            if res.status == "Infeasible":
                continue
            tr = res.harvested_trace
            assert all(tr[i + 1] >= tr[i] * (1 - 1e-8) for i in range(len(tr) - 1))

    def test_halfstep_objectives_monotone(self):
        cfg = ScenarioConfig(M=3, N=4, seed=33, r0=1.0, **DESK)
        ch = generate_scenario(cfg)
        v0 = np.ones(5, dtype=complex)
        V = np.outer(v0, v0.conj())
        prev = -np.inf
        for _ in range(4):
            W, obj_w = solve_w_sdp(V, ch, cfg)
            assert obj_w >= prev * (1 - 1e-8)
            V, obj_v = solve_v_sdp(W, ch, cfg)
            assert obj_v >= obj_w * (1 - 1e-8)
            prev = obj_v

    def test_recovered_pair_feasible_and_bounded(self):
        for seed in (40, 41, 42):
            cfg = ScenarioConfig(M=4, N=6, seed=seed, r0=1.0, **DESK)
            ch = generate_scenario(cfg)
            res = sdr_ao(ch, cfg)
            if res.status == "Infeasible":
                continue
            assert check_feasible(res.w.w, res.u, cfg, ch).feasible
            got = harvested_power(res.w.w, res.u, ch, cfg.zeta)
            assert got <= res.harvested_trace[-1] + 1e-8
            assert res.achieved_sr >= cfg.r0 - 1e-6

    def test_infeasible_scenario_flagged(self):
        cfg = ScenarioConfig(M=2, N=2, seed=50, r0=30.0)
        ch = generate_scenario(cfg)
        res = sdr_ao(ch, cfg)
        assert res.status == "Infeasible"
        assert res.harvested_trace == []

    def test_iterate_invariants(self):
        cfg = ScenarioConfig(M=3, N=4, seed=60, r0=1.0, **DESK)
        ch = generate_scenario(cfg)
        v0 = np.ones(5, dtype=complex)
        V = np.outer(v0, v0.conj())
        W, _ = solve_w_sdp(V, ch, cfg)
        V, obj = solve_v_sdp(W, ch, cfg)
        tol = 1e-6
        assert np.trace(W).real <= cfg.ps_w * (1 + tol)
        assert np.max(np.abs(np.diag(V).real - 1.0)) <= tol
        gain = 2.0 ** cfg.r0
        tb = np.real(np.tensordot((ch.H_b.conj().T @ V @ ch.H_b).conj(), W))
        te = np.real(np.tensordot((ch.H_e.conj().T @ V @ ch.H_e).conj(), W))
        assert tb + cfg.sigma2_w >= gain * (te + cfg.sigma2_w) * (1 - tol)
        assert cfg.zeta * obj == pytest.approx(
            cfg.zeta * np.real(np.tensordot((ch.H_r.conj().T @ V @ ch.H_r).conj(), W)),
            rel=1e-6)

    def test_restarts_from_recovered_pair(self, monkeypatch):
        # At this instance each of the first two recoveries beats the relaxation
        # bound, so the alternation restarts twice from the recovered profile.
        # Counting through the module attribute also checks that sdr_ao looks
        # randomize_v up at call time.
        import irs_swipt.sdr as sdr
        calls = []
        original = sdr.randomize_v

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sdr, "randomize_v", counting)
        cfg = ScenarioConfig(M=4, N=24, r0=3.0, seed=55)
        ch = generate_scenario(cfg)
        res = sdr_ao(ch, cfg)
        assert len(calls) == 3
        assert res.status == "Converged"
        assert res.iters_outer == 9
        tr = res.harvested_trace
        assert len(tr) == 9
        assert all(tr[i + 1] >= tr[i] * (1 - 1e-8) for i in range(len(tr) - 1))
        assert check_feasible(res.w.w, res.u, cfg, ch).feasible
