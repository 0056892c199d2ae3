import itertools

import numpy as np
import pytest

from irs_swipt.channel import ChannelSet, ScenarioConfig, generate_scenario
from irs_swipt.errors import NotPSD, SubproblemInfeasible
from irs_swipt.init import (_feasible_combination, exact_w, feasibility_probe,
                            initial_phase_profile, max_sr_beamformer, normalized, rank_one_w)
from irs_swipt.metrics import PhaseProfile, check_feasible, harvested_power
from irs_swipt.linalg import herm_eig
from irs_swipt.sdp import DEFAULT_TOL, SdpProblem, solve_sdp
from irs_swipt.sdr import randomize_v, randomize_w, sdr_ao, solve_v_sdp, solve_w_sdp

from direction_grid import unit_directions
from shared import DESK, no_eve_channels, random_hermitian
from test_sdp import unit_diagonal_problem

NEAR_EVE = dict(d_ap_eve=7.0, d_ap_bob=100.0, d_ap_ehr=140.0)  # a strong eavesdropper


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


def sweep_instance(index):
    """(cfg, channels) of instance `index` of a random scenario sweep: per
    instance, numpy default_rng(2024) draws the seven distances from
    U(2, 250) m, the two path-loss exponents from U(2, 3.5), M in [1, 6],
    N in [0, 12] and the fraction of the starting profile's attainable
    secrecy rate that r0 asks for, from U(0.1, 0.99)."""
    rng = np.random.default_rng(2024)
    for i in range(index + 1):
        d, a = rng.uniform(2, 250, 7), rng.uniform(2, 3.5, 2)
        m, n, frac = int(rng.integers(1, 7)), int(rng.integers(0, 13)), rng.uniform(0.1, 0.99)
    names = ("d_ap_irs", "d_ap_bob", "d_ap_ehr", "d_ap_eve", "d_irs_bob", "d_irs_ehr", "d_irs_eve")
    cfg = ScenarioConfig(M=m, N=n, seed=index, alpha_direct=a[0], alpha_irs=a[1],
                         **dict(zip(names, d)))
    ch = generate_scenario(cfg)
    _, _, sr_max = feasibility_probe(normalized(ch, cfg), initial_phase_profile(cfg))
    return cfg.with_updates(r0=frac * sr_max), ch


class TestSolveWSdp:
    def test_mrt_when_secrecy_slack(self):
        cfg = ScenarioConfig(M=4, N=3, seed=2, r0=1e-3)
        ch = no_eve_channels(cfg)
        v = np.ones(4, dtype=complex)
        V = np.outer(v, v.conj())
        w, obj = solve_w_sdp(V, normalized(ch, cfg))
        target = cfg.ps_w * np.linalg.norm(ch.H_r.conj().T @ v) ** 2
        assert cfg.sigma2_w * obj == pytest.approx(target, rel=1e-5)
        assert np.linalg.norm(w) ** 2 <= 1 + 1e-7

    def test_without_irs_single_row(self):
        cfg = ScenarioConfig(M=4, N=0, seed=3, r0=1e-3, **DESK)
        ch = no_eve_channels(cfg)
        V = np.ones((1, 1), dtype=complex)
        _, obj = solve_w_sdp(V, normalized(ch, cfg))
        assert cfg.sigma2_w * obj == pytest.approx(cfg.ps_w * np.linalg.norm(ch.h_ah) ** 2,
                                                   rel=1e-5)

    def test_relaxation_upper_bounds_rank_one_grid(self):
        rng = np.random.default_rng(8)
        for seed in range(6):
            cfg = ScenarioConfig(M=3, N=4, seed=seed, r0=1.0, **DESK)
            ch = generate_scenario(cfg)
            u = np.exp(2j * np.pi * rng.random(4))
            v = np.concatenate([u, [1.0]])
            V = np.outer(v, v.conj())
            try:
                _, obj = solve_w_sdp(V, normalized(ch, cfg))
            except SubproblemInfeasible:
                continue
            grid_best = rank_one_w_oracle(V, ch, cfg)
            assert cfg.sigma2_w * obj >= grid_best * (1.0 - 1e-6)

    def test_infeasible_secrecy_target(self):
        # Bob and EVE see identical channels: any positive target is unreachable
        cfg = ScenarioConfig(M=3, N=2, seed=5, r0=1.0)
        ch = generate_scenario(cfg)
        same = ChannelSet(G=ch.G, h_ab=ch.h_ab, h_ah=ch.h_ah, h_ae=ch.h_ab,
                          h_ib=ch.h_ib, h_ih=ch.h_ih, h_ie=ch.h_ib)
        v = np.ones(3, dtype=complex)
        with pytest.raises(SubproblemInfeasible):
            solve_w_sdp(np.outer(v, v.conj()), normalized(same, cfg))


def w_sdp_reference(Rr, A, c, tol):
    """The W-SDP max tr(Rr W) s.t. tr(A W) >= c, tr(W) <= 1 by interior point."""
    return solve_sdp(SdpProblem(Rr, [(A, ">=", c), (np.eye(Rr.shape[0]), "<=", 1.0)]), tol=tol)


class TestRankOneW:
    def test_matches_interior_point_reference(self):
        rng = np.random.default_rng(21)
        checked = 0
        for seed in range(48):
            n = (8, 24)[seed % 2]
            cfg = ScenarioConfig(M=4, N=n, r0=3.0, seed=seed)
            Hr, Hb, He, _, _ = normalized(generate_scenario(cfg), cfg)
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

    def test_optimum_at_an_exact_crossing(self, monkeypatch):
        # The dual max(1, lam) - lam/2 is minimized at lam = 1, where the
        # eigenvalues of Rr + lam A = diag(1, lam) cross; the optimum takes
        # half of each end, and only the segment between them reaches it.
        import irs_swipt.init as init
        calls = []

        def counting(*args):
            calls.append(1)
            return _feasible_combination(*args)

        monkeypatch.setattr(init, "_feasible_combination", counting)
        Rr, A = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        e = rank_one_w(Rr, A, 0.5)
        assert calls
        assert np.abs(e) ** 2 == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.real(np.vdot(e, Rr @ e)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_feasible_combination_lands_on_the_target(self, seed):
        # Ends as the multiplier search hands them over (top eigenvectors of
        # Rr + lam A at two multipliers) and orthogonal ends (eigenvectors of
        # A), each with a random phase: the segment's root meets
        # e^H A e = c to rounding, for c anywhere in (g_lo, g_hi].
        rng = np.random.default_rng(seed)
        m = 2 + seed % 5
        A = random_hermitian(rng, m)
        B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        vals, vecs = np.linalg.eigh(A)
        i, j = sorted(rng.choice(m, 2, replace=False))
        tops = [np.linalg.eigh(B @ B.conj().T + lam * A)[1][:, -1]
                for lam in np.sort(rng.exponential(size=2))]
        for ends in ((vecs[:, i], vecs[:, j]), tops):
            e_lo, e_hi = (e * np.exp(2j * np.pi * rng.random()) for e in ends)
            g_lo, g_hi = (float(np.real(np.vdot(e, A @ e))) for e in (e_lo, e_hi))
            assert g_lo < g_hi
            c = g_hi - (g_hi - g_lo) * rng.random()
            x = _feasible_combination(e_lo, g_lo, e_hi, g_hi, A, c)
            assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-14)
            assert abs(np.real(np.vdot(x, A @ x)) - c) <= 1e-14 * np.max(np.abs(vals))

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

    def test_target_at_rounding_distance_from_the_attainable_limit(self, monkeypatch):
        # lambda_max(A) = c (1 + delta), delta at or near rounding: where no
        # trial multiplier reaches the feasible side, the search ends on the
        # segment from its last infeasible trial to A's top eigenvector q, a
        # feasible end it never evaluates.  Every returned x is a unit vector
        # meeting the target to rounding and harvesting no less than q.
        import irs_swipt.init as init
        ends_at_top = []

        def recording(e_lo, g_lo, e_hi, g_hi, A, c):
            ends_at_top.append(g_hi == np.linalg.eigh(A)[0][-1])
            return _feasible_combination(e_lo, g_lo, e_hi, g_hi, A, c)

        monkeypatch.setattr(init, "_feasible_combination", recording)
        rng = np.random.default_rng(2)
        returned = 0
        for k in range(100):
            m = 2 + k % 3
            B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            Rr = B @ B.conj().T
            Q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
            c = 2.0 ** rng.uniform(0.01, 6) - 1.0
            u = c * 10.0 ** rng.uniform(-1, 2, m - 1)
            q = Q[:, -1]
            floor = np.real(np.vdot(q, Rr @ q)) * (1 - 1e-12)
            for delta in (0.0, 1e-16, 3e-16, 1e-15, 4e-15, 1e-12, 1e-9):
                A = (Q * np.append(-u, c * (1 + delta))) @ Q.conj().T
                try:
                    x = rank_one_w(Rr, A, c)
                except SubproblemInfeasible:
                    continue  # lambda_max(A) rounded below c
                returned += 1
                assert abs(np.linalg.norm(x) - 1) <= 1e-14
                assert np.real(np.vdot(x, A @ x)) >= c * (1 - 1e-14)
                assert np.real(np.vdot(x, Rr @ x)) >= floor
        assert returned >= 400 and any(ends_at_top), (returned, sum(ends_at_top))

    def test_top_eigenvector_when_secrecy_is_slack(self):
        Rr, A = np.diag([0.0, 1.0, 3.0]), np.diag([2.0, 1.0, 1.0])
        e = rank_one_w(Rr, A, 0.5)
        assert np.allclose(np.abs(e), [0.0, 0.0, 1.0])


def sdr_ao_checking_v_sdps(monkeypatch, channels, cfg):
    """sdr_ao's result; every V-SDP it solves through the structured operator
    is solved again as an SdpProblem, the generic operator, and must end
    with the same status and iteration count and an objective within 1e-9
    relative."""
    import irs_swipt.sdr as sdr
    checked = []

    def checking(problem, *args, **kwargs):
        sol = solve_sdp(problem, *args, **kwargs)
        ref = solve_sdp(unit_diagonal_problem(problem), *args, **kwargs)
        assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
        assert sol.objective_value == pytest.approx(ref.objective_value, rel=1e-9)
        checked.append(1)
        return sol

    monkeypatch.setattr(sdr, "solve_sdp", checking)
    res = sdr_ao(channels, cfg)
    assert len(checked) == res.iters_inner_u
    return res


# The instance list of the count guards below.
COUNT_GUARD_CONFIGS = [ScenarioConfig(M=4, N=n, r0=3.0, seed=seed)
                       for n in (8, 24) for seed in range(3)]


class TestInnerSolveCounts:
    """Counts, not wall-clock: the AO loop's inner solves restart less."""

    def test_warm_started_v_sdps_take_fewer_iterations(self, monkeypatch):
        # sdr_ao warm-starts each V-SDP from the previous one; the same runs
        # with the warm start stripped take at least 1/0.7 times the iterations.
        import irs_swipt.sdr as sdr
        iters = {}
        for warm in (True, False):
            iters[warm] = 0

            def counting(problem, *args, _warm=warm, **kwargs):
                if not _warm:
                    kwargs.pop("warm")
                sol = solve_sdp(problem, *args, **kwargs)
                iters[_warm] += sol.iterations
                return sol

            monkeypatch.setattr(sdr, "solve_sdp", counting)
            for cfg in COUNT_GUARD_CONFIGS:
                assert sdr_ao(generate_scenario(cfg), cfg).status == "Converged"
        assert iters[True] <= 0.7 * iters[False], iters

    def test_w_step_multiplier_search_takes_few_eigh_calls(self, monkeypatch):
        # Newton steps on the W step's multiplier: at most 5 eigh calls per
        # rank_one_w call on average (it takes 4.3; bisection alone took
        # about 40).
        import irs_swipt.sdr as sdr
        counts = {"calls": 0, "eigh": 0}
        inside = [False]
        original_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            counts["eigh"] += inside[0]
            return original_eigh(a, *args, **kwargs)

        def counting_rank_one_w(*args):
            counts["calls"] += 1
            inside[0] = True
            try:
                return rank_one_w(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(sdr, "rank_one_w", counting_rank_one_w)
        for cfg in COUNT_GUARD_CONFIGS:
            assert sdr_ao(generate_scenario(cfg), cfg).status == "Converged"
        assert counts["calls"] > 0
        assert counts["eigh"] <= 5 * counts["calls"], counts


class TestSolveVSdp:
    @pytest.mark.parametrize("n,seed", [(8, 0), (8, 1), (24, 2), (24, 3)])
    def test_structured_operator_solves_like_the_generic_problem(self, n, seed, monkeypatch):
        cfg = ScenarioConfig(M=4, N=n, r0=3.0, seed=seed)
        res = sdr_ao_checking_v_sdps(monkeypatch, generate_scenario(cfg), cfg)
        assert res.status == "Converged" and res.iters_inner_u > 0

    @pytest.mark.parametrize("n", [1, 8])
    def test_returns_the_profile_block(self, n):
        # V is the SDP's (N+1)-square profile block, without the secrecy
        # row's slack, and meets the unit diagonal to the tolerance on the
        # primal residual, whose right-hand side has norm <= sqrt(N + 2)
        cfg = ScenarioConfig(M=4, N=n, r0=1.0, seed=4)
        ch = generate_scenario(cfg)
        u = initial_phase_profile(cfg, np.random.default_rng(0))
        problem = normalized(ch, cfg)
        w, _ = solve_w_sdp(np.outer(u.v, u.v.conj()), problem)
        V, _, sol = solve_v_sdp(w, problem)
        assert sol.status == "Optimal"
        assert V.shape == (n + 1, n + 1) and sol.X.shape == (n + 2, n + 2)
        assert np.array_equal(V, sol.X[:-1, :-1])
        assert np.max(np.abs(np.diag(V) - 1.0)) <= DEFAULT_TOL * np.sqrt(n + 2)

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
        V, obj, _ = solve_v_sdp(w / np.sqrt(cfg.ps_w), normalized(nd, cfg))
        levels = 4096
        phases = np.exp(2j * np.pi * np.arange(levels) / levels)
        vals = [abs(np.conj(p) * (nd.h_ih.conj() @ nd.G @ w)) ** 2 for p in phases]
        assert cfg.sigma2_w * obj == pytest.approx(max(vals), rel=1e-5)

    def test_diagonal_phase_rotation_invariance(self):
        cfg = ScenarioConfig(M=2, N=3, seed=9, r0=0.5, **DESK)
        ch = generate_scenario(cfg)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w /= np.linalg.norm(w)  # a full-power beamformer in noise units
        _, obj1, _ = solve_v_sdp(w, normalized(ch, cfg))
        # rotate the per-element phases of every IRS-side vector coherently
        d = np.exp(2j * np.pi * rng.random(3))
        rot = ChannelSet(G=ch.G * d[:, None], h_ab=ch.h_ab, h_ah=ch.h_ah, h_ae=ch.h_ae,
                         h_ib=ch.h_ib, h_ih=ch.h_ih, h_ie=ch.h_ie)
        _, obj2, _ = solve_v_sdp(w, normalized(rot, cfg))
        assert obj1 == pytest.approx(obj2, rel=1e-5)


class TestRandomization:
    def setup(self, seed=11, n=4):
        cfg = ScenarioConfig(M=3, N=n, seed=seed, r0=0.5, **DESK)
        ch = generate_scenario(cfg)
        return cfg, ch

    def test_rank_one_w_recovered_exactly(self):
        cfg, ch = self.setup()
        u = PhaseProfile(np.ones(4, dtype=complex))
        w_star = np.sqrt(cfg.ps_w) * max_sr_beamformer(u.v, normalized(ch, cfg))[0]
        W = np.outer(w_star, w_star.conj())
        w = randomize_w(W, u, ch, cfg)
        got = abs(np.vdot(u.v, ch.H_r @ w.w)) ** 2
        want = abs(np.vdot(u.v, ch.H_r @ w_star)) ** 2
        assert got == pytest.approx(want, abs=1e-8 * max(want, 1.0), rel=1e-8)

    def test_candidates_cannot_beat_relaxation(self):
        cfg, ch = self.setup(seed=12)
        u = PhaseProfile(np.exp(2j * np.pi * np.random.default_rng(2).random(4)))
        V = np.outer(u.v, u.v.conj())
        e, obj = solve_w_sdp(V, normalized(ch, cfg))
        w_step = np.sqrt(cfg.ps_w) * e
        W = np.outer(w_step, w_step.conj())
        w = randomize_w(W, u, ch, cfg)
        got = abs(np.vdot(u.v, ch.H_r @ w.w)) ** 2
        assert got <= cfg.sigma2_w * obj * (1.0 + 1e-8)

    def test_randomized_w_is_feasible(self):
        cfg, ch = self.setup(seed=13)
        u = PhaseProfile(np.ones(4, dtype=complex))
        V = np.outer(u.v, u.v.conj())
        w_step = np.sqrt(cfg.ps_w) * solve_w_sdp(V, normalized(ch, cfg))[0]
        W = np.outer(w_step, w_step.conj())
        w = randomize_w(W, u, ch, cfg)
        assert check_feasible(w.w, u, cfg, ch).feasible

    def test_rank_one_v_recovered(self):
        cfg, ch = self.setup(seed=14)
        rng = np.random.default_rng(5)
        u_true = np.exp(2j * np.pi * rng.random(4))
        v = np.concatenate([u_true, [1.0]])
        V = np.outer(v, v.conj())
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = randomize_v(V, w / np.sqrt(cfg.ps_w), normalized(ch, cfg), rng, count=20)
        assert np.allclose(u.u, u_true, atol=1e-8)

    def test_unit_modulus_contract(self):
        cfg, ch = self.setup(seed=15)
        w = np.ones(3, dtype=complex) / np.sqrt(3)
        problem = normalized(ch, cfg)
        V, _, _ = solve_v_sdp(w, problem)
        u = randomize_v(V, w, problem, np.random.default_rng(6))
        assert np.max(np.abs(np.abs(u.u) - 1.0)) <= 1e-12

    def test_vectorized_draws_pick_the_per_draw_loop_choice(self):
        # A per-draw loop with a strict > over the same Gaussian matrix picks
        # the same profile as the vectorized selection.
        cfg = ScenarioConfig(M=3, N=6, seed=18, r0=1.0)
        ch = generate_scenario(cfg)
        gain = 2.0 ** cfg.r0
        rng = np.random.default_rng(8)
        u = PhaseProfile(np.exp(2j * np.pi * rng.random(6)))
        problem = normalized(ch, cfg)
        w, _ = solve_w_sdp(np.outer(u.v, u.v.conj()), problem)
        V, _, _ = solve_v_sdp(w, problem)

        # the draws' basis: V's eigenpairs above 1e-6 lambda_max, largest first,
        # each column turned so that its largest-modulus entry is real and positive
        vals, vecs = herm_eig(V)
        cols = []
        for k in reversed(range(len(vals))):
            if vals[k] >= 1e-6 * vals[-1]:
                col = np.sqrt(vals[k]) * vecs[:, k]
                pivot = col[np.argmax(np.abs(col))]
                cols.append(col * abs(pivot) / pivot)
        root = np.stack(cols, axis=1)
        draws = np.random.default_rng(10)
        shape = (400, root.shape[1])
        r = (draws.standard_normal(shape) + 1j * draws.standard_normal(shape)) / np.sqrt(2)
        y = [H @ w for H in (problem.Hr, problem.Hb, problem.He)]  # unit noise
        want, best_val = None, -np.inf
        for rk in r:
            vt = root @ rk
            cand = np.exp(1j * np.angle(vt[:-1] / vt[-1]))
            g = [abs(np.vdot(np.append(cand, 1.0), x)) ** 2 for x in y]
            if g[1] + 1.0 >= gain * (g[2] + 1.0) * (1 - 1e-12) and g[0] > best_val:
                want, best_val = cand, g[0]
        got = randomize_v(V, w, problem, np.random.default_rng(10), count=400).u
        assert want is not None
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_indefinite_v_raises(self):
        # an eigenvalue of V far below the interior-point tolerance is no
        # solver noise: the recovery raises rather than drop it
        cfg, ch = self.setup(seed=16)
        V = np.diag([1.0, 1.0, 1.0, 1.0, -0.5]).astype(complex)
        with pytest.raises(NotPSD):
            randomize_v(V, np.ones(3) / np.sqrt(3), normalized(ch, cfg), np.random.default_rng(0))

    def test_zero_rand_count_recovers_principal_eigenvector(self):
        # count = 0 draws no candidate: recovery falls back to the principal eigenvector
        cfg = ScenarioConfig(M=2, N=4, seed=3)
        ch = generate_scenario(cfg)
        w = sdr_ao(ch, cfg).w.w
        problem = normalized(ch, cfg)
        V, _, _ = solve_v_sdp(w / np.sqrt(cfg.ps_w), problem)
        u = randomize_v(V, w / np.sqrt(cfg.ps_w), problem, np.random.default_rng(cfg.seed),
                        count=0)
        e = np.linalg.eigh(V)[1][:, -1]
        assert np.allclose(u.u, np.exp(1j * np.angle(e[:-1] / e[-1])), atol=1e-12)
        assert check_feasible(w, u, cfg, ch).feasible

    def test_beats_random_phase_baseline(self):
        rng = np.random.default_rng(7)
        wins = []
        for seed in range(100):
            cfg = ScenarioConfig(M=2, N=6, seed=seed, r0=0.5, **DESK)
            ch = generate_scenario(cfg)
            u0 = initial_phase_profile(cfg)
            problem = normalized(ch, cfg)
            ok, w, _ = feasibility_probe(problem, u0)
            if not ok:
                continue
            try:
                V, _, _ = solve_v_sdp(w, problem)
                u = randomize_v(V, w, problem, rng, count=300)
            except Exception:
                continue
            w = np.sqrt(cfg.ps_w) * w
            opt = harvested_power(w, u, ch, cfg.zeta)
            base = harvested_power(
                w, PhaseProfile(np.exp(2j * np.pi * rng.random(6))), ch, cfg.zeta)
            wins.append(opt - base)
        assert len(wins) > 50
        assert np.median(wins) > 0


def sdr_ao_with_exact_w_raising(monkeypatch, profile=None):
    """(result, the last W step's w in watts, the drawn profile, cfg,
    channels) of sdr_ao with exact_w raising; profile, if given, maps the
    drawn profile, the last w and the problem to the profile the recovery
    gets instead."""
    import irs_swipt.sdr as sdr
    drawn = []

    def spy(V, w, problem, *args, **kwargs):
        u = randomize_v(V, w, problem, *args, **kwargs)
        drawn.append((w, u if profile is None else profile(u, w, problem)))
        return drawn[-1][1]

    def unattainable(*args):
        raise SubproblemInfeasible("rounding")

    monkeypatch.setattr(sdr, "randomize_v", spy)
    monkeypatch.setattr(sdr, "exact_w", unattainable)
    cfg = ScenarioConfig(M=4, N=8, r0=3.0, seed=0)
    ch = generate_scenario(cfg)
    res = sdr_ao(ch, cfg)
    assert res.status in ("Converged", "MaxIters") and len(drawn) == 1
    w, u = drawn[0]
    return res, np.sqrt(cfg.ps_w) * w, u, cfg, ch


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
        problem = normalized(ch, cfg)
        for _ in range(4):
            w, obj_w = solve_w_sdp(V, problem)
            assert obj_w >= prev * (1 - 1e-8)
            V, obj_v, _ = solve_v_sdp(w, problem)
            assert obj_v >= obj_w * (1 - 1e-8)
            prev = obj_v

    def test_recovered_pair_feasible_and_bounded(self):
        # The returned pair is a profile drawn from the last V with the exact
        # beamformer for it, which can beat the final relaxed value, a local
        # value of the alternation; so the pair is checked for feasibility and
        # for that beamformer wherever exact_w does not raise.
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
            try:
                e = exact_w(res.u.v, normalized(ch, cfg))
            except SubproblemInfeasible:
                continue
            assert np.array_equal(res.w.w, np.sqrt(cfg.ps_w) * e), k
        assert solved >= 200

    def test_recovery_on_non_rank_one_v(self, monkeypatch):
        # A batch instance whose last V is far from rank one: there the draws
        # beat V's top-eigenvector profile, each with its exact beamformer.
        import irs_swipt.sdr as sdr
        lifted = []

        def spy(V, *args, **kwargs):
            lifted.append(V)
            return randomize_v(V, *args, **kwargs)

        monkeypatch.setattr(sdr, "randomize_v", spy)
        cfg = ScenarioConfig(N=24, r0=3.0, seed=1032)
        ch = generate_scenario(cfg)
        res = sdr_ao(ch, cfg)
        vals, vecs = np.linalg.eigh(lifted[-1])
        assert vals[-1] / np.sum(vals) < 0.99
        e = vecs[:, -1]
        u = PhaseProfile(np.exp(1j * np.angle(e[:-1] / e[-1])))
        top = harvested_power(np.sqrt(cfg.ps_w) * exact_w(u.v, normalized(ch, cfg)), u, ch,
                              cfg.zeta)
        assert harvested_power(res.w.w, res.u, ch, cfg.zeta) >= top

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
        problem = normalized(ch, cfg)
        w, _ = solve_w_sdp(V, problem)
        V, obj, _ = solve_v_sdp(w, problem)
        obj *= cfg.sigma2_w  # in watts, as w is below
        w = np.sqrt(cfg.ps_w) * w
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
        assert calls == {"solve_w_sdp": res.iters_outer, "solve_v_sdp": res.iters_inner_u,
                         "randomize_v": 1}
        assert res.iters_inner_u == res.iters_outer

    def test_infeasible_w_step_keeps_the_previous_w(self, monkeypatch):
        # From the second round on the W step raises; sdr_ao keeps the first
        # round's w, hands it to the next V-SDP and still ends normally.
        import irs_swipt.sdr as sdr
        w_steps, v_sdp_ws = [], []

        def first_only(V, problem):
            if w_steps:
                raise SubproblemInfeasible("rounding")
            w, obj = solve_w_sdp(V, problem)
            w_steps.append(w)
            return w, obj

        def recording(w, *args, **kwargs):
            v_sdp_ws.append(w)
            return solve_v_sdp(w, *args, **kwargs)

        monkeypatch.setattr(sdr, "solve_w_sdp", first_only)
        monkeypatch.setattr(sdr, "solve_v_sdp", recording)
        cfg = ScenarioConfig(M=4, N=8, r0=3.0, seed=0)
        res = sdr_ao(generate_scenario(cfg), cfg)
        assert res.status in ("Converged", "MaxIters")
        assert len(v_sdp_ws) >= 2
        assert np.array_equal(v_sdp_ws[1], w_steps[0])
        tr = res.harvested_trace  # the kept w's value is recomputed: equal up to rounding
        assert all(b >= a * (1 - 1e-12) for a, b in zip(tr, tr[1:])), tr

    def test_infeasible_exact_w_keeps_the_last_w(self, monkeypatch):
        res, w_last, u, cfg, ch = sdr_ao_with_exact_w_raising(monkeypatch)
        assert check_feasible(w_last, u, cfg, ch).feasible
        assert np.array_equal(res.w.w, w_last) and np.array_equal(res.u.u, u.u)

    def test_infeasible_exact_w_and_last_w_return_the_probe_pair(self, monkeypatch):
        # The drawn profile is replaced by the one that aligns Eve's channel,
        # which misses the secrecy target with the last w.
        def eve_aligned(u, w, problem):
            y = problem.He @ w
            return PhaseProfile(np.exp(1j * np.angle(y[:-1] / y[-1])))

        res, w_last, u, cfg, ch = sdr_ao_with_exact_w_raising(monkeypatch, eve_aligned)
        assert not check_feasible(w_last, u, cfg, ch).feasible
        u0 = initial_phase_profile(cfg)
        assert np.array_equal(res.u.u, u0.u)
        assert np.array_equal(res.w.w, np.sqrt(cfg.ps_w)
                              * max_sr_beamformer(u0.v, normalized(ch, cfg))[0])
        assert check_feasible(res.w.w, res.u, cfg, ch).feasible

    @pytest.mark.parametrize("seed", [65, 68, 134, 148])
    def test_strong_eavesdropper_without_irs(self, seed):
        # The W step's beamformer meets the secrecy target on its feasible
        # side; recovering it instead from the lifted W = Ps e e^H by
        # randomization put rounding-level noise on every draw, and on these
        # instances no draw, nor the principal factor, stayed feasible.
        cfg = ScenarioConfig(M=3, N=0, seed=seed, **NEAR_EVE)
        ch = generate_scenario(cfg)
        u0 = initial_phase_profile(cfg)
        ok, _, sr_max = feasibility_probe(normalized(ch, cfg), u0)
        assert ok
        cfg = cfg.with_updates(r0=0.5 * sr_max)
        res = sdr_ao(ch, cfg)
        assert res.status == "Converged"
        assert check_feasible(res.w.w, res.u, cfg, ch).feasible

    @pytest.mark.parametrize("index,m,n", [(26, 2, 9), (30, 5, 2), (198, 4, 1), (389, 3, 1)])
    def test_random_geometry_regressions(self, index, m, n, monkeypatch):
        # Index 26: with the secrecy row at the objective's scale, the V-SDP's
        # dual iterate overflowed and a step-length eigvalsh then failed.
        # Index 30: a V-SDP solved to DEFAULT_TOL returned 1.05e-8 (relative)
        # below the W step's value, a trace dip the V step now refuses.
        # Indices 198 and 389 (N = 1, y_b parallel to y_e to 1e-15): a V-SDP
        # operator that built its Schur matrix from the secrecy row's rank-two
        # factors instead of the formed row ended in NumericalFailure.
        cfg, ch = sweep_instance(index)
        assert (cfg.M, cfg.N) == (m, n)
        res = sdr_ao_checking_v_sdps(monkeypatch, ch, cfg)
        assert res.status == "Converged"
        assert check_feasible(res.w.w, res.u, cfg, ch).feasible
        tr = res.harvested_trace
        assert all(b >= a * (1 - 1e-8) for a, b in zip(tr, tr[1:])), tr
