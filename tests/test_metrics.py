import numpy as np
import pytest

from irs_swipt.channel import ChannelSet, ScenarioConfig, generate_scenario
from irs_swipt.errors import InvalidInput
from irs_swipt.metrics import (PhaseProfile, check_feasible, harvested_power,
                               rate_bob, rate_eve, secrecy_rate)


def unit_channels():
    return ChannelSet(G=np.ones((1, 1)), h_ab=[1.0], h_ah=[1.0], h_ae=[1.0],
                      h_ib=[1.0], h_ih=[1.0], h_ie=[1.0])


def rate_oracle(w, u, h_i, h_a, g_mat, sigma2):
    """Independent re-evaluation through the reflection-matrix form in
    extended precision."""
    w = np.asarray(w, dtype=np.clongdouble)
    theta = np.diag(np.asarray(u, dtype=np.clongdouble).conj())
    h_eff = (np.asarray(h_i, np.clongdouble).conj() @ theta @ np.asarray(g_mat, np.clongdouble)
             + np.asarray(h_a, np.clongdouble).conj())
    g = h_eff @ w
    snr = float(abs(g) ** 2) / sigma2
    return float(np.log2(1.0 + snr))


class TestRates:
    def test_zero_beamformer(self):
        ch = unit_channels()
        u = PhaseProfile([1.0])
        assert rate_bob([0.0], u, ch, 1e-10) == 0.0
        assert rate_eve([0.0], u, ch, 1e-10) == 0.0

    def test_unit_snr(self):
        ch = unit_channels()
        u = PhaseProfile([1.0])
        sigma2 = 0.5
        # |v^H H_b w|^2 = |2w|^2 = sigma2  ->  rate 1
        w = [np.sqrt(sigma2) / 2.0]
        assert rate_bob(w, u, ch, sigma2) == pytest.approx(1.0, rel=1e-12)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            cfg = ScenarioConfig(M=3, N=4, seed=int(rng.integers(1 << 16)))
            ch = generate_scenario(cfg)
            u = np.exp(2j * np.pi * rng.random(4))
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            got = rate_bob(w, PhaseProfile(u), ch, cfg.sigma2_w)
            want = rate_oracle(w, u, ch.h_ib, ch.h_ab, ch.G, cfg.sigma2_w)
            assert got == pytest.approx(want, rel=1e-12)
            got_e = rate_eve(w, PhaseProfile(u), ch, cfg.sigma2_w)
            want_e = rate_oracle(w, u, ch.h_ie, ch.h_ae, ch.G, cfg.sigma2_w)
            assert got_e == pytest.approx(want_e, rel=1e-12)

    def test_common_phase_rotation_invariance(self):
        rng = np.random.default_rng(22)
        cfg = ScenarioConfig(M=4, N=6, seed=7)
        ch = generate_scenario(cfg)
        u = PhaseProfile(np.exp(2j * np.pi * rng.random(6)))
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base = rate_bob(w, u, ch, cfg.sigma2_w)
        for phi in (0.3, 1.7, 4.4):
            assert rate_bob(w * np.exp(1j * phi), u, ch, cfg.sigma2_w) == \
                pytest.approx(base, rel=1e-12)


class TestSecrecyRate:
    def test_identical_channels_zero(self):
        ch = ChannelSet(G=np.ones((1, 1)), h_ab=[1.0], h_ah=[1.0], h_ae=[1.0],
                        h_ib=[1.0], h_ih=[1.0], h_ie=[1.0])
        assert secrecy_rate([1.0], PhaseProfile([1.0]), ch, 1e-10) == 0.0

    def test_zero_beamformer(self):
        assert secrecy_rate([0.0], PhaseProfile([1.0]), unit_channels(), 1e-10) == 0.0

    def test_no_leakage_equals_bob_rate(self):
        ch = ChannelSet(G=np.ones((1, 1)), h_ab=[1.0], h_ah=[1.0], h_ae=[0.0],
                        h_ib=[1.0], h_ih=[1.0], h_ie=[0.0])
        u = PhaseProfile([1.0])
        assert secrecy_rate([2.0], u, ch, 1e-10) == pytest.approx(
            rate_bob([2.0], u, ch, 1e-10), rel=1e-15)

    def test_never_negative(self):
        rng = np.random.default_rng(23)
        cfg = ScenarioConfig(M=2, N=3, seed=3)
        ch = generate_scenario(cfg)
        for _ in range(50):
            u = PhaseProfile(np.exp(2j * np.pi * rng.random(3)))
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            sr = secrecy_rate(w, u, ch, cfg.sigma2_w)
            assert sr >= 0.0
            rb = rate_bob(w, u, ch, cfg.sigma2_w)
            re = rate_eve(w, u, ch, cfg.sigma2_w)
            if rb <= re:
                assert sr == 0.0


class TestHarvestedPower:
    def test_zero_beamformer(self):
        assert harvested_power([0.0], PhaseProfile([1.0]), unit_channels(), 0.5) == 0.0

    def test_aligned_unit_scalar_case(self):
        ps = 15.0
        w = [np.sqrt(ps)]
        got = harvested_power(w, PhaseProfile([1.0]), unit_channels(), 0.5)
        assert got == pytest.approx(2.0 * ps, rel=1e-12)

    def test_quadratic_power_scaling(self):
        rng = np.random.default_rng(24)
        cfg = ScenarioConfig(M=3, N=5, seed=11)
        ch = generate_scenario(cfg)
        u = PhaseProfile(np.exp(2j * np.pi * rng.random(5)))
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        base = harvested_power(w, u, ch, cfg.zeta)
        for c in (2.0, 0.5 + 0.5j, -3.0j):
            assert harvested_power(c * w, u, ch, cfg.zeta) == \
                pytest.approx(abs(c) ** 2 * base, rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(25)
        cfg = ScenarioConfig(M=4, N=3, seed=4)
        ch = generate_scenario(cfg)
        u = np.exp(2j * np.pi * rng.random(3))
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        theta = np.diag(u.conj())
        direct = cfg.zeta * abs((ch.h_ih.conj() @ theta @ ch.G + ch.h_ah.conj()) @ w) ** 2
        got = harvested_power(w, PhaseProfile(u), ch, cfg.zeta)
        assert got == pytest.approx(direct, rel=1e-12)


class TestCheckFeasible:
    def setup_method(self):
        self.cfg = ScenarioConfig(M=4, N=6, seed=42, r0=0.5)
        self.ch = generate_scenario(self.cfg)

    def feasible_point(self):
        from irs_swipt.init import feasibility_probe, initial_phase_profile, normalized
        u = initial_phase_profile(self.cfg)
        ok, w, _ = feasibility_probe(normalized(self.ch, self.cfg), u)
        assert ok
        return np.sqrt(self.cfg.ps_w) * w, u

    def test_feasible_point_passes(self):
        w, u = self.feasible_point()
        rep = check_feasible(w, u, self.cfg, self.ch)
        assert rep.feasible and not rep.violations

    def test_power_violation_reported(self):
        w, u = self.feasible_point()
        rep = check_feasible(np.sqrt(2.0) * w, u, self.cfg, self.ch)
        assert not rep.feasible
        assert any("power" in v for v in rep.violations)

    def test_modulus_violation_reported(self):
        w, u = self.feasible_point()
        bad = u.u.copy()
        bad[0] = 0.5
        rep = check_feasible(w, bad, self.cfg, self.ch)
        assert not rep.feasible
        assert any("modulus" in v for v in rep.violations)
        assert rep.modulus_deviation == pytest.approx(0.5)

    def test_sr_violation_reported(self):
        w, u = self.feasible_point()
        cfg = self.cfg.with_updates(r0=40.0)
        rep = check_feasible(w, u, cfg, self.ch)
        assert not rep.feasible
        assert any("secrecy" in v for v in rep.violations)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), complex(1.0, float("nan"))])
    @pytest.mark.parametrize("where", ["w", "u"])
    def test_non_finite_entry_reported(self, where, entry):
        # NaN compares False against every threshold; it must not read as feasible
        w, u = self.feasible_point()
        w, u = w.astype(complex), u.u.copy()
        (w if where == "w" else u)[0] = entry
        rep = check_feasible(w, u, self.cfg, self.ch)
        assert not rep.feasible
        assert any("non-finite" in v for v in rep.violations)


class TestTypes:
    def test_phase_profile_validates_modulus(self):
        with pytest.raises(InvalidInput):
            PhaseProfile([0.5])
        for bad in ([np.nan, 1.0], [np.inf, 1.0], [complex(1.0, np.nan)]):
            with pytest.raises(InvalidInput):
                PhaseProfile(bad)
        p = PhaseProfile(np.exp(1j * np.linspace(0, 3, 7)))
        assert p.v.shape == (8,)
        assert p.v[-1] == 1.0
