import itertools

import numpy as np
import pytest

from irs_swipt.channel import ChannelSet, ScenarioConfig, generate_scenario
from irs_swipt.errors import SubproblemInfeasible
from irs_swipt.init import feasibility_probe, initial_phase_profile, max_sr_beamformer
from irs_swipt.metrics import PhaseProfile, check_feasible, harvested_power
from irs_swipt.linalg import psd_sqrt
from irs_swipt.sdp import DEFAULT_TOL, SdpProblem, solve_sdp
from irs_swipt.sdr import (
    _snr_stacks, randomize_v, randomize_w, rank_one_w, sdr_ao, solve_v_sdp, solve_w_sdp)

from direction_grid import unit_directions

DESK = dict(d_ap_bob=10.0, d_ap_eve=20.0, d_ap_ehr=6.0,
            d_irs_bob=12.0, d_irs_eve=25.0, d_irs_ehr=4.0)
NEAR_EVE = dict(d_ap_eve=7.0, d_ap_bob=100.0, d_ap_ehr=140.0)  # a strong eavesdropper


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
    dirs = unit_directions(q.shape[1], n_dirs)
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
        w, obj = solve_w_sdp(V, ch, cfg)
        target = cfg.ps_w * np.linalg.norm(ch.H_r.conj().T @ v) ** 2
        assert obj == pytest.approx(target, rel=1e-5)
        assert np.linalg.norm(w) ** 2 <= cfg.ps_w * (1 + 1e-7)

    def test_without_irs_single_row(self):
        cfg = ScenarioConfig(M=4, N=0, seed=3, r0=1e-3, **DESK)
        ch = no_eve_channels(cfg)
        V = np.ones((1, 1), dtype=complex)
        _, obj = solve_w_sdp(V, ch, cfg)
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


def w_sdp_reference(Rr, A, c, tol):
    """The W-SDP max tr(Rr W) s.t. tr(A W) >= c, tr(W) <= 1 by interior point."""
    p = SdpProblem()
    blk = p.add_hermitian_block(Rr.shape[0])
    p.add_objective(blk, Rr)
    p.add_constraint([(blk, A)], ">=", c)
    p.add_constraint([(blk, np.eye(Rr.shape[0]))], "<=", 1.0)
    return solve_sdp(p, tol=tol)


class TestRankOneW:
    def test_matches_interior_point_reference(self):
        rng = np.random.default_rng(21)
        checked = 0
        for seed in range(48):
            n = (8, 24)[seed % 2]
            cfg = ScenarioConfig(M=4, N=n, r0=3.0, seed=seed)
            Hr, Hb, He = _snr_stacks(generate_scenario(cfg), cfg)
            v = np.concatenate([np.exp(2j * np.pi * rng.random(n)), [1.0]])
            V = np.outer(v, v.conj())
            if seed % 4 >= 2:  # a full-rank relaxed profile as the V-SDP returns mid-run
                B = rng.standard_normal((n + 1, 3)) + 1j * rng.standard_normal((n + 1, 3))
                V = V + 0.3 * B @ B.conj().T
            Rr = Hr.conj().T @ V @ Hr
            A = Hb.conj().T @ V @ Hb - 2.0 ** cfg.r0 * (He.conj().T @ V @ He)
            c = 2.0 ** cfg.r0 - 1.0
            ref = w_sdp_reference(Rr, A, c, DEFAULT_TOL)
            if ref.status == "Infeasible":
                with pytest.raises(SubproblemInfeasible):
                    rank_one_w(Rr, A, c)
                continue
            assert ref.status == "Optimal"
            e = rank_one_w(Rr, A, c)
            assert np.linalg.norm(e) == pytest.approx(1.0, rel=1e-12)
            assert np.real(np.vdot(e, A @ e)) >= c * (1 - 1e-9)
            got = np.real(np.vdot(e, Rr @ e))
            assert got == pytest.approx(ref.objective_value, rel=2 * DEFAULT_TOL)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("c", [-0.5, 0.0, 0.3, 0.9])
    def test_eigenvalue_crossing_needs_a_combination(self, c):
        # Rr + lam A = diag(1 - lam, lam): the top eigenvector jumps from e_1
        # (e^H A e = -1) to e_2 (+1) at lam = 1/2, and neither meets
        # e^H A e = c; the optimum |e_1|^2 = (1 - c)/2 mixes the two.
        Rr, A = np.diag([1.0, 0.0]), np.diag([-1.0, 1.0])
        e = rank_one_w(Rr, A, c)
        assert np.real(np.vdot(e, Rr @ e)) == pytest.approx((1 - c) / 2, abs=1e-12)
        assert np.real(np.vdot(e, A @ e)) >= c - 1e-12

    def test_repeated_top_eigenvalue_at_zero_multiplier(self):
        # Rr = I: the optimum 1 is reached at lam = 0, but the top eigenvector
        # eigh picks there misses the target, while every lam > 0, however
        # small, gives the top eigenvector of A; the search must still stop.
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        e = rank_one_w(np.eye(2), A, 0.5)
        assert np.real(np.vdot(e, e)) == pytest.approx(1.0, rel=1e-12)
        assert np.real(np.vdot(e, A @ e)) >= 0.5 - 1e-12

    def test_single_antenna_at_the_attainable_limit(self):
        c = 3.0
        with pytest.raises(SubproblemInfeasible):
            rank_one_w(np.array([[2.0]]), np.array([[c * (1 - 1e-12)]]), c)
        e = rank_one_w(np.array([[2.0]]), np.array([[c * (1 + 1e-12)]]), c)
        assert np.allclose(np.abs(e), [1.0])

    def test_top_eigenvector_when_secrecy_is_slack(self):
        Rr, A = np.diag([0.0, 1.0, 3.0]), np.diag([2.0, 1.0, 1.0])
        e = rank_one_w(Rr, A, 0.5)
        assert np.allclose(np.abs(e), [0.0, 0.0, 1.0])


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
        V, obj = solve_v_sdp(w, nd, cfg)
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
        _, obj1 = solve_v_sdp(w, ch, cfg)
        # rotate the per-element phases of every IRS-side vector coherently
        d = np.exp(2j * np.pi * rng.random(3))
        rot = ChannelSet(G=ch.G * d[:, None], h_ab=ch.h_ab, h_ah=ch.h_ah, h_ae=ch.h_ae,
                         h_ib=ch.h_ib, h_ih=ch.h_ih, h_ie=ch.h_ie)
        _, obj2 = solve_v_sdp(w, rot, cfg)
        assert obj1 == pytest.approx(obj2, rel=1e-5)


class TestRandomization:
    def setup(self, seed=11, n=4):
        cfg = ScenarioConfig(M=3, N=n, seed=seed, r0=0.5, **DESK)
        ch = generate_scenario(cfg)
        return cfg, ch

    def test_rank_one_w_recovered_exactly(self):
        cfg, ch = self.setup()
        u = PhaseProfile(np.ones(4, dtype=complex))
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
        w_step, obj = solve_w_sdp(V, ch, cfg)
        W = np.outer(w_step, w_step.conj())
        w = randomize_w(W, u, ch, cfg, count=1000, rng=np.random.default_rng(3))
        got = abs(np.vdot(u.v, ch.H_r @ w.w)) ** 2
        assert got <= obj * (1.0 + 1e-8)

    def test_randomized_w_is_feasible(self):
        cfg, ch = self.setup(seed=13)
        u = PhaseProfile(np.ones(4, dtype=complex))
        V = np.outer(u.v, u.v.conj())
        w_step, _ = solve_w_sdp(V, ch, cfg)
        W = np.outer(w_step, w_step.conj())
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
        V, _ = solve_v_sdp(w, ch, cfg)
        u = randomize_v(V, w, ch, cfg, rng=np.random.default_rng(6))
        assert np.max(np.abs(np.abs(u.u) - 1.0)) <= 1e-12

    def test_vectorized_draws_pick_the_per_draw_loop_choice(self):
        # A per-draw loop with a strict > over the same Gaussian matrix picks
        # the same candidate as the vectorized selection.  At this instance
        # most beamformer draws, the best-harvesting one among them, miss the
        # secrecy target.
        cfg = ScenarioConfig(M=3, N=6, seed=18, r0=1.0)
        ch = generate_scenario(cfg)
        gain = 2.0 ** cfg.r0
        rng = np.random.default_rng(8)
        u = PhaseProfile(np.exp(2j * np.pi * rng.random(6)))
        w_step, _ = solve_w_sdp(np.outer(u.v, u.v.conj()), ch, cfg)
        V, _ = solve_v_sdp(w_step, ch, cfg)
        # spread the draws over all of C^M
        W = np.outer(w_step, w_step.conj()) + 0.2 * cfg.ps_w * np.eye(3) / 3

        def loop_choice(X, to_candidate, gains, seed, count=400):
            draws = np.random.default_rng(seed)
            shape = (count, X.shape[0])
            r = (draws.standard_normal(shape) + 1j * draws.standard_normal(shape)) / np.sqrt(2)
            root = psd_sqrt(X)
            best, best_val = None, -np.inf
            for rk in r:
                cand = to_candidate(root @ rk)
                g = gains(cand)
                if g[1] + cfg.sigma2_w >= gain * (g[2] + cfg.sigma2_w) * (1 - 1e-12) \
                        and g[0] > best_val:
                    best, best_val = cand, g[0]
            return best

        g = [H.conj().T @ u.v for H in (ch.H_r, ch.H_b, ch.H_e)]
        budget = lambda w: w * min(1.0, np.sqrt(cfg.ps_w / np.real(np.vdot(w, w))))
        want = loop_choice(W, budget, lambda w: [abs(np.vdot(x, w)) ** 2 for x in g], 9)
        w = randomize_w(W, u, ch, cfg, count=400, rng=np.random.default_rng(9)).w
        assert want is not None
        assert np.allclose(w, want, rtol=1e-12, atol=1e-12 * np.linalg.norm(want))

        y = [H @ w for H in (ch.H_r, ch.H_b, ch.H_e)]
        project = lambda vt: np.exp(1j * np.angle(vt[:-1] / vt[-1]))
        gains_u = lambda uu: [abs(np.vdot(np.append(uu, 1.0), x)) ** 2 for x in y]
        want = loop_choice(V, project, gains_u, 10)
        got = randomize_v(V, w, ch, cfg, count=400, rng=np.random.default_rng(10)).u
        assert want is not None
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_beats_random_phase_baseline(self):
        rng = np.random.default_rng(7)
        wins = []
        for seed in range(100):
            cfg = ScenarioConfig(M=2, N=6, seed=seed, r0=0.5, **DESK)
            ch = generate_scenario(cfg)
            u0 = initial_phase_profile(cfg)
            ok, w, _ = feasibility_probe(ch, cfg, u0)
            if not ok:
                continue
            try:
                V, _ = solve_v_sdp(w, ch, cfg)
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
            w, obj_w = solve_w_sdp(V, ch, cfg)
            assert obj_w >= prev * (1 - 1e-8)
            V, obj_v = solve_v_sdp(w, ch, cfg)
            assert obj_v >= obj_w * (1 - 1e-8)
            prev = obj_v

    def test_recovered_pair_feasible_and_bounded(self):
        # The returned pair is the last W step's beamformer with a profile
        # drawn from the last V and kept only if secrecy-feasible against it:
        # a feasible rank-one point of the last V-SDP, so its harvested power
        # cannot beat that SDP's optimum, trace[-1], beyond the solver
        # tolerance.  This is why no restart from the recovered pair is needed.
        rng = np.random.default_rng(70)
        solved = 0
        grid = itertools.product(range(4), (1, 2, 3, 4), (0.5, 1.0, 3.0), ("zero", "random"),
                                 ({}, DESK, NEAR_EVE))
        for k, (_, m, r0, init, geometry) in enumerate(grid):
            cfg = ScenarioConfig(M=m, N=int(rng.integers(0, 13)), seed=k, r0=r0,
                                 init_phases=init, **geometry)
            ch = generate_scenario(cfg)
            res = sdr_ao(ch, cfg)
            if res.status == "Infeasible":
                continue
            solved += 1
            assert check_feasible(res.w.w, res.u, cfg, ch).feasible, k
            got = harvested_power(res.w.w, res.u, ch, cfg.zeta)
            assert got <= res.harvested_trace[-1] * (1 + 2 * DEFAULT_TOL), k
        assert solved >= 200

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
        w, _ = solve_w_sdp(V, ch, cfg)
        V, obj = solve_v_sdp(w, ch, cfg)
        tol = 1e-6
        assert np.linalg.norm(w) ** 2 <= cfg.ps_w * (1 + tol)
        assert np.max(np.abs(np.diag(V).real - 1.0)) <= tol
        gain = 2.0 ** cfg.r0
        quad = lambda H: np.real(np.vdot(w, H.conj().T @ V @ H @ w))  # tr(H^H V H w w^H)
        assert quad(ch.H_b) + cfg.sigma2_w >= gain * (quad(ch.H_e) + cfg.sigma2_w) * (1 - tol)
        assert cfg.zeta * obj == pytest.approx(cfg.zeta * quad(ch.H_r), rel=1e-6)

    @pytest.mark.parametrize("seed,init", [(34, "zero"), (26, "random"), (20, "zero"),
                                           (63, "zero"), (37, "random")])
    def test_v_sdp_converges_at_large_objective_norm(self, seed, init):
        # The V-SDP objective norm is a few times 1e6 here: unscaled, the
        # primal residual stalls above DEFAULT_TOL and the iterate leaves the PSD
        # cone; the last two instances also stall when only the objective,
        # not the secrecy row, is scaled.
        cfg = ScenarioConfig(M=4, N=24, r0=1.0, seed=seed, init_phases=init, **DESK)
        ch = generate_scenario(cfg)
        res = sdr_ao(ch, cfg)
        assert res.status == "Converged"
        assert check_feasible(res.w.w, res.u, cfg, ch).feasible

    def test_looks_half_steps_up_at_call_time(self, monkeypatch):
        # Wrappers installed on the module attributes see every call, so
        # instrumentation that replaces them by name still traces sdr_ao.
        import irs_swipt.sdr as sdr
        calls = {"solve_w_sdp": 0, "solve_v_sdp": 0, "randomize_v": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(sdr, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(sdr, name, counting)
        cfg = ScenarioConfig(M=4, N=8, r0=3.0, seed=55)
        res = sdr_ao(generate_scenario(cfg), cfg)
        assert res.status == "Converged"
        assert calls == {"solve_w_sdp": res.iters_inner_w, "solve_v_sdp": res.iters_inner_u,
                         "randomize_v": 1}
        assert res.iters_inner_w == res.iters_inner_u == res.iters_outer

    @pytest.mark.parametrize("seed", [65, 68, 134, 148])
    def test_strong_eavesdropper_without_irs(self, seed):
        # The W step's beamformer meets the secrecy target on its feasible
        # side; recovering it instead from the lifted W = Ps e e^H by
        # randomization put rounding-level noise on every draw, and on these
        # instances no draw, nor the principal factor, stayed feasible.
        cfg = ScenarioConfig(M=3, N=0, seed=seed, **NEAR_EVE)
        ch = generate_scenario(cfg)
        u0 = initial_phase_profile(cfg)
        ok, _, sr_max = feasibility_probe(ch, cfg, u0)
        assert ok
        cfg = cfg.with_updates(r0=0.5 * sr_max)
        res = sdr_ao(ch, cfg)
        assert res.status == "Converged"
        assert check_feasible(res.w.w, res.u, cfg, ch).feasible
