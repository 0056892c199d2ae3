from dataclasses import fields

import numpy as np
import pytest

from irs_swipt.channel import (ChannelSet, ScenarioConfig, dbm_to_watt, generate_scenario,
                               path_loss_gain)
from irs_swipt.config import parse_config_text
from irs_swipt.errors import InvalidInput
from irs_swipt.experiments import ExperimentSpec
from irs_swipt.init import max_sr_beamformer, normalized
from irs_swipt.oracle import GridSpec, grid_search_phases
from irs_swipt.sdp import SdpProblem, solve_sdp

from shared import DESK


class TestPathLossGain:
    def test_reference_one_meter(self):
        # 30 dB reference loss at 1 m, any exponent
        assert path_loss_gain(1.0, 2.0, 30.0) == pytest.approx(1e-3, rel=1e-12)
        assert path_loss_gain(1.0, 3.0, 30.0) == pytest.approx(1e-3, rel=1e-12)

    def test_ten_meters_exponent_two(self):
        assert path_loss_gain(10.0, 2.0, 30.0) == pytest.approx(1e-5, rel=1e-12)

    def test_two_meters_exponent_three(self):
        assert path_loss_gain(2.0, 3.0, 30.0) == pytest.approx(1.25e-4, rel=1e-12)

    def test_distance_scaling_exact(self):
        for k in (2.0, 3.5, 10.0):
            for alpha in (2.0, 3.0):
                ratio = path_loss_gain(k * 7.0, alpha, 30.0) / path_loss_gain(7.0, alpha, 30.0)
                assert ratio == pytest.approx(k ** (-alpha), rel=1e-13)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(InvalidInput):
            path_loss_gain(0.0, 2.0, 30.0)
        with pytest.raises(InvalidInput):
            path_loss_gain(-1.0, 2.0, 30.0)


def test_dbm_to_watt():
    assert dbm_to_watt(-70.0) == pytest.approx(1e-10, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)


class TestGenerateScenario:
    def test_stacked_shapes(self):
        cfg = ScenarioConfig(M=4, N=8, seed=5)
        ch = generate_scenario(cfg)
        assert ch.H_b.shape == (9, 4)
        assert ch.H_r.shape == (9, 4)
        assert ch.H_e.shape == (9, 4)
        assert ch.G.shape == (8, 4)

    def test_fading_variance_matches_path_loss(self):
        # Monte Carlo over 10^4 seeds: per-entry power of the AP->Bob link
        cfg = ScenarioConfig(M=4, N=2, seed=0)
        acc = 0.0
        count = 10_000
        for seed in range(count):
            ch = generate_scenario(cfg.with_updates(seed=seed))
            acc += float(np.mean(np.abs(ch.h_ab) ** 2))
        gain = path_loss_gain(cfg.d_ap_bob, cfg.alpha_direct, cfg.pl_ref_db)
        assert acc / count == pytest.approx(gain, rel=0.05)

    def test_without_irs_reduces_to_direct_row(self):
        cfg = ScenarioConfig(M=4, N=0, seed=9)
        ch = generate_scenario(cfg)
        assert ch.H_b.shape == (1, 4)
        assert np.array_equal(ch.H_b[0], ch.h_ab.conj())

    def test_same_seed_bit_identical(self):
        cfg = ScenarioConfig(M=3, N=5, seed=123)
        a = generate_scenario(cfg)
        b = generate_scenario(cfg)
        for name in ("G", "h_ab", "h_ah", "h_ae", "h_ib", "h_ih", "h_ie", "H_r", "H_b", "H_e"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_direct_links_match_across_irs_sizes(self):
        # fixed draw order: the no-IRS arm sees the same direct channels
        a = generate_scenario(ScenarioConfig(M=4, N=16, seed=77))
        b = generate_scenario(ScenarioConfig(M=4, N=0, seed=77))
        assert np.array_equal(a.h_ab, b.h_ab)
        assert np.array_equal(a.h_ah, b.h_ah)
        assert np.array_equal(a.h_ae, b.h_ae)

    def test_los_link_is_deterministic_rank_one(self):
        cfg = ScenarioConfig(M=4, N=8, seed=1)
        g1 = generate_scenario(cfg).G
        g2 = generate_scenario(cfg.with_updates(seed=2)).G
        assert np.array_equal(g1, g2)
        assert np.linalg.matrix_rank(g1) == 1
        gain = path_loss_gain(cfg.d_ap_irs, cfg.alpha_irs, cfg.pl_ref_db)
        assert np.allclose(np.abs(g1), np.sqrt(gain))


class TestStackEffective:
    # ChannelSet stacks each receiver's links into H_x = [diag(conj(h_ix)) G; h_ax^H]

    def test_scalar_constructive(self):
        h_b = ChannelSet(np.ones((1, 1)), [1.0], [1.0], [1.0], [1.0], [1.0], [1.0]).H_b
        v = np.array([1.0, 1.0], dtype=complex)
        w = np.array([0.7 - 0.2j])
        assert v.conj() @ h_b @ w == pytest.approx(2.0 * w[0], rel=1e-15)

    def test_scalar_destructive(self):
        h_b = ChannelSet(np.ones((1, 1)), [1.0], [1.0], [1.0], [1.0], [1.0], [1.0]).H_b
        u = np.exp(1j * np.pi)
        v = np.array([u, 1.0])
        w = np.array([1.0])
        assert abs(v.conj() @ h_b @ w) < 1e-15

    def test_matches_reflection_matrix_form(self):
        # v^H H_x w == (h_ix^H Theta G + h_ax^H) w with Theta = diag(conj(u))
        rng = np.random.default_rng(10)
        for _ in range(100):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            cfg = ScenarioConfig(M=m, N=n, seed=int(rng.integers(1 << 16)))
            ch = generate_scenario(cfg)
            u = np.exp(2j * np.pi * rng.random(n))
            v = np.concatenate([u, [1.0]])
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            theta = np.diag(u.conj())
            for h_stack, h_i, h_a in ((ch.H_r, ch.h_ih, ch.h_ah),
                                      (ch.H_b, ch.h_ib, ch.h_ab),
                                      (ch.H_e, ch.h_ie, ch.h_ae)):
                lhs = v.conj() @ h_stack @ w
                rhs = (h_i.conj() @ theta @ ch.G + h_a.conj()) @ w
                assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInput, match="^AP->user vectors must have length M$"):
            ChannelSet(np.ones((2, 3)), [1.0], [1.0], [1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("links, message", [
        ((np.ones((2, 1)), [1.0], [1.0], [1.0], [1.0, np.nan], [1.0, 1.0], [1.0, 1.0]),
         "h_ib contains non-finite entries"),
        ((np.ones(2), [1.0], [1.0], [1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]),
         "G must be a matrix"),
        ((np.ones((2, 1)), [1.0], [1.0], [1.0], [1.0, 1.0], [1.0, 1.0], [1.0]),
         "IRS->user vectors must have length N"),
        # finiteness is checked before the shapes
        ((np.full(2, np.inf), [1.0], [1.0], [1.0], [1.0], [1.0], [1.0]),
         "G contains non-finite entries"),
    ], ids=["non-finite", "G-not-a-matrix", "length-N", "finiteness-first"])
    def test_bad_links_rejected(self, links, message):
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            ChannelSet(*links)


def test_config_validation():
    with pytest.raises(InvalidInput):
        ScenarioConfig(M=0)
    with pytest.raises(InvalidInput):
        ScenarioConfig(N=-1)
    with pytest.raises(InvalidInput):
        ScenarioConfig(zeta=0.0)
    with pytest.raises(InvalidInput):
        ScenarioConfig(r0=0.0)
    with pytest.raises(InvalidInput):
        ScenarioConfig(ps_w=-1.0)


FLOAT_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type is float]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(name, value):
    # nan <= 0 is False, so a sign check alone lets NaN through
    with pytest.raises(InvalidInput, match=f"{name} must be finite"):
        ScenarioConfig(**{name: value})


INT_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type is int]


@pytest.mark.parametrize("value", [2.0, 2.5])
@pytest.mark.parametrize("name", INT_FIELDS)
def test_config_rejects_non_integer_ints(name, value):
    # a float N or seed would otherwise fail later, inside numpy
    with pytest.raises(InvalidInput, match=f"{name} must be an integer"):
        ScenarioConfig(**{name: value})


@pytest.mark.parametrize("name", INT_FIELDS)
def test_config_accepts_numpy_integers(name):
    assert getattr(ScenarioConfig(**{name: np.int64(3)}), name) == 3


# Integer inputs of the Python API outside ScenarioConfig (the CLI converts its own)
OTHER_INT_FIELDS = [(ExperimentSpec, "seeds_per_point"), (ExperimentSpec, "workers"),
                    (GridSpec, "phase_levels"), (GridSpec, "subspace_points"),
                    (GridSpec, "power_levels")]


@pytest.mark.parametrize("make,name", OTHER_INT_FIELDS)
def test_other_integer_inputs_are_checked_up_front(make, name):
    # a float used to pass here and fail later in range() or the process pool
    with pytest.raises(InvalidInput, match=f"{name} must be an integer"):
        make(**{name: 2.5})
    assert getattr(make(**{name: np.int64(3)}), name) == 3


def test_grid_search_phases_levels_must_be_an_integer():
    cfg = ScenarioConfig(M=2, N=2, r0=1.0, seed=0, **DESK)
    ch = generate_scenario(cfg)
    w = np.sqrt(cfg.ps_w) * max_sr_beamformer(np.ones(cfg.N + 1, dtype=complex),
                                              normalized(ch, cfg))[0]
    with pytest.raises(InvalidInput, match="levels must be an integer"):
        grid_search_phases(ch, w, cfg, 3.5)
    u, _ = grid_search_phases(ch, w, cfg, np.int64(4))
    assert u.shape == (cfg.N,)


def test_seed_must_be_non_negative():
    with pytest.raises(InvalidInput, match="seed must be >= 0"):
        ScenarioConfig(seed=-1)
    with pytest.raises(InvalidInput, match="seed must be >= 0"):
        parse_config_text("seed = -3\n")
    assert ScenarioConfig(seed=0).seed == 0


def test_max_outer_iters_must_be_positive():
    with pytest.raises(InvalidInput):
        ScenarioConfig(M=2, N=4, seed=3, max_outer_iters=0)
    with pytest.raises(InvalidInput):
        parse_config_text("max_outer_iters = 0\n")
    assert ScenarioConfig(max_outer_iters=1).max_outer_iters == 1


@pytest.mark.parametrize("line", ["seed = 1.5", "m = four", "seeds_per_point = x",
                                  "sweep = 1, a", "sigma2_dbm = -70 dBm", "r0 = 1,5"])
def test_malformed_number_names_line_and_key(line):
    key = line.split("=")[0].strip()
    with pytest.raises(InvalidInput, match=f"line 2: {key}: .* is not a valid"):
        parse_config_text(f"# header\n{line}\n")


def test_sigma2_dbm_overflow_names_line_and_key():
    # 10^((1e5 - 30)/10) W overflows a float; the error names the line and key
    with pytest.raises(InvalidInput, match="line 2: sigma2_dbm: 100000 dBm overflows"):
        parse_config_text("m = 2\nsigma2_dbm = 1e5\n")


@pytest.mark.parametrize("text, match", [
    pytest.param("n = 4\nm = 2\nN = 8\n", "line 3: 'n' repeats the key of line 1", id="same-key"),
    pytest.param("sweep = 1, 2\n# the second sweep\nsweep = 3\n",
                 "line 3: 'sweep' repeats the key of line 1", id="experiment-key"),
    pytest.param("n = 4\nsigma2_w = 1e-10\nsigma2_dbm = -60\n",
                 "line 3: 'sigma2_dbm' repeats the key of line 2", id="sigma2-both-units"),
    pytest.param("sigma2_dbm = -60\nsigma2_dbm = -70\n",
                 "line 2: 'sigma2_dbm' repeats the key of line 1", id="sigma2-dbm-twice"),
])
def test_repeated_key_names_both_lines(text, match):
    # a later line would otherwise silently override the first
    with pytest.raises(InvalidInput, match=match):
        parse_config_text(text)


@pytest.mark.parametrize("key, value", [
    ("eps", "1e-3"), ("max_inner_w", "30"), ("max_inner_u", "30"), ("inner_tol", "1e-6"),
    ("sdp_tol", "1e-7"), ("qcqp_tol", "1e-8"), ("eps_bisect", "1e-8"), ("rand_count", "1000")])
def test_removed_solver_knob_is_unknown_key(key, value):
    # solver tolerances and inner caps are module constants, not scenario keys
    with pytest.raises(InvalidInput, match=f"line 2: unknown config key '{key}'"):
        parse_config_text(f"m = 2\n{key} = {value}\n")


@pytest.mark.parametrize("knob", [pytest.param(0.0, id="knob1"), pytest.param(-1.0, id="knob2")])
def test_solver_knobs_must_be_valid(knob):
    # the SDP tolerance left the config for sdp.DEFAULT_TOL; solve_sdp still checks its range
    prob = SdpProblem(np.eye(2), [(np.eye(2), "==", 1.0)])
    with pytest.raises(InvalidInput, match="tol must be > 0"):
        solve_sdp(prob, tol=knob)
