import ctypes
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from irs_swipt.channel import ChannelSet, ScenarioConfig, generate_scenario
from irs_swipt.config import parse_config_text
from irs_swipt.errors import InvalidInput
from irs_swipt.experiments import (ExperimentSpec, ResultRow, _openblas_function,
                                   _single_blas_thread, compare_complexity, emit_csv,
                                   parse_csv, run_experiment)
from irs_swipt.metrics import PhaseProfile, harvested_power, secrecy_rate

DESK = dict(d_ap_bob=10.0, d_ap_eve=20.0, d_ap_ehr=6.0,
            d_irs_bob=12.0, d_irs_eve=25.0, d_irs_ehr=4.0)


def blas_threads(set_to=None):
    """OpenBLAS thread count of this process, after setting it to set_to."""
    if set_to is not None:
        set_threads = _openblas_function("set_num_threads")
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(set_to)
    get_threads = _openblas_function("get_num_threads")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


def small_base(**kw):
    args = dict(M=2, N=4, seed=3, r0=0.8, **DESK)
    args.update(kw)
    return ScenarioConfig(**args)


class TestExperimentSpec:
    def test_mode_validation(self):
        with pytest.raises(InvalidInput):
            ExperimentSpec(mode="bogus")

    def test_method_validation(self):
        with pytest.raises(InvalidInput):
            ExperimentSpec(methods=("sdr", "nope"))
        with pytest.raises(InvalidInput):
            ExperimentSpec(methods=())

    def test_sweep_must_increase(self):
        with pytest.raises(InvalidInput):
            ExperimentSpec(mode="sweep_sr", sweep=(2.0, 1.0))

    def test_negative_workers_rejected(self):
        with pytest.raises(InvalidInput, match="workers"):
            ExperimentSpec(workers=-1)
        assert ExperimentSpec(workers=0).workers == 0

    def test_single_mode_gets_one_point(self):
        spec = ExperimentSpec(mode="single", sweep=(1.0, 2.0, 3.0))
        assert spec.sweep == (0.0,)


class TestRunExperiment:
    def test_all_methods_produce_rows(self, tmp_path):
        spec = ExperimentSpec(mode="single", methods=("sdr", "sca", "random_phase", "no_irs"),
                              seeds_per_point=2, base=small_base(), out_dir=str(tmp_path),
                              workers=1)
        rows = run_experiment(spec)
        assert len(rows) == 8
        assert {r.method for r in rows} == {"sdr", "sca", "random_phase", "no_irs"}
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_rows_reevaluate_from_dumped_solutions(self, tmp_path):
        spec = ExperimentSpec(mode="single", methods=("sca", "no_irs"), seeds_per_point=2,
                              base=small_base(), out_dir=str(tmp_path), workers=1,
                              dump_solutions=True)
        rows = run_experiment(spec)
        payload = json.loads((tmp_path / "solutions.json").read_text())
        assert len(payload) == len(rows)
        for entry in payload:
            cfg = small_base(seed=entry["seed"])
            if entry["method"] == "no_irs":
                cfg = cfg.with_updates(N=0)
            ch = generate_scenario(cfg)
            w = np.array([re + 1j * im for re, im in entry["w"]])
            u = PhaseProfile(np.array([re + 1j * im for re, im in entry["u"]])) \
                if entry["u"] else PhaseProfile(np.zeros(0, complex))
            hp = harvested_power(w, u, ch, cfg.zeta)
            assert hp == pytest.approx(entry["harvested_w"], rel=1e-9)
            assert secrecy_rate(w, u, ch, cfg.sigma2_w) == pytest.approx(
                entry["sr_bps_hz"], rel=1e-9, abs=1e-12)

    def test_deterministic_apart_from_timing(self, tmp_path):
        spec1 = ExperimentSpec(mode="single", methods=("sca", "random_phase"),
                               seeds_per_point=2, base=small_base(),
                               out_dir=str(tmp_path / "a"), workers=1)
        spec2 = ExperimentSpec(mode="single", methods=("sca", "random_phase"),
                               seeds_per_point=2, base=small_base(),
                               out_dir=str(tmp_path / "b"), workers=1)
        run_experiment(spec1)
        run_experiment(spec2)

        def strip_seconds(path):
            lines = (path / "results.csv").read_text().splitlines()
            out = []
            for line in lines[1:]:
                parts = line.split(",")
                out.append(",".join(parts[:7] + parts[8:]))
            return out

        assert strip_seconds(tmp_path / "a") == strip_seconds(tmp_path / "b")

    def test_sweep_sr_runs_every_point(self, tmp_path):
        spec = ExperimentSpec(mode="sweep_sr", methods=("sca",), sweep=(0.5, 1.0),
                              seeds_per_point=2, base=small_base(), out_dir=str(tmp_path),
                              workers=1)
        rows = run_experiment(spec)
        assert sorted({r.sweep for r in rows}) == [0.5, 1.0]
        assert all(r.variable == "r0" for r in rows)

    def test_failures_recorded_not_raised(self, tmp_path):
        # an unattainable secrecy target yields Infeasible rows, not an abort
        spec = ExperimentSpec(mode="single", methods=("sca", "sdr"), seeds_per_point=2,
                              base=small_base(r0=30.0), out_dir=str(tmp_path), workers=1)
        rows = run_experiment(spec)
        assert len(rows) == 4
        assert all(r.status == "Infeasible" for r in rows)
        assert all(r.harvested_w == 0.0 for r in rows)

    def test_worker_pool_matches_serial(self, tmp_path):
        base = small_base()
        spec_s = ExperimentSpec(mode="single", methods=("sca",), seeds_per_point=3,
                                base=base, out_dir=str(tmp_path / "s"), workers=1)
        spec_p = ExperimentSpec(mode="single", methods=("sca",), seeds_per_point=3,
                                base=base, out_dir=str(tmp_path / "p"), workers=2)
        rows_s = run_experiment(spec_s)
        rows_p = run_experiment(spec_p)
        for a, b in zip(rows_s, rows_p):
            assert (a.method, a.seed, a.harvested_w, a.sr_bps_hz, a.status) == \
                (b.method, b.seed, b.harvested_w, b.sr_bps_hz, b.status)

    def test_pool_workers_run_one_blas_thread(self):
        # One worker per core, each running a BLAS thread per core,
        # oversubscribes the cores and inflates the seconds column.
        if _openblas_function("get_num_threads") is None:
            pytest.skip("no OpenBLAS loaded")
        before = blas_threads()
        try:
            assert blas_threads(set_to=2) == 2  # what an unpinned worker would inherit
            with ProcessPoolExecutor(1, initializer=_single_blas_thread) as pool:
                assert pool.submit(blas_threads).result() == 1
        finally:
            blas_threads(set_to=before)


class TestCsv:
    def make_row(self, **kw):
        args = dict(method="sca", seed=1, sweep=1.0, variable="r0", harvested_w=1.25e-4,
                    sr_bps_hz=1.0000000001, iters=7, seconds=0.123456789, status="Converged")
        args.update(kw)
        return ResultRow(**args)

    def test_single_row_two_lines(self, tmp_path):
        path = emit_csv([self.make_row()], tmp_path / "r.csv")
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == 2

    def test_round_trip_bit_exact(self, tmp_path):
        rows = [self.make_row(seed=i, harvested_w=np.pi * 10 ** -i) for i in range(5)]
        path = emit_csv(rows, tmp_path / "r.csv")
        back = parse_csv(path)
        for a, b in zip(rows, back):
            assert a.method == b.method and a.seed == b.seed
            assert a.harvested_w == b.harvested_w
            assert a.sr_bps_hz == b.sr_bps_hz
            assert a.seconds == b.seconds
        again = emit_csv(back, tmp_path / "r2.csv")
        assert path.read_text() == again.read_text()

    def test_constant_column_count(self, tmp_path):
        rows = [self.make_row(seed=i, status=s)
                for i, s in enumerate(("Converged", "MaxIters", "Error:Whatever"))]
        path = emit_csv(rows, tmp_path / "r.csv")
        counts = {len(line.split(",")) for line in path.read_text().splitlines()}
        assert counts == {9}

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            emit_csv([], tmp_path / "r.csv")


class TestCompareComplexity:
    def make_rows(self, method, seconds, sweep=16.0, n_seeds=5, variable="N"):
        return [ResultRow(method=method, seed=i, sweep=sweep, variable=variable,
                          harvested_w=1.0, sr_bps_hz=1.0, iters=5,
                          seconds=seconds * (1 + 0.01 * i), status="Converged")
                for i in range(n_seeds)]

    def test_ratio_reported(self):
        rows = self.make_rows("sdr", 2.0) + self.make_rows("sca", 0.5)
        summary = compare_complexity(rows)
        assert summary["points"][16.0]["time_ratio"] == pytest.approx(4.0, rel=0.05)
        assert summary["sca_faster_everywhere"]

    def test_missing_method_warns(self):
        summary = compare_complexity(self.make_rows("sca", 0.5))
        assert "warning" in summary
        assert summary["points"] == {}

    def test_zero_irs_rows_excluded(self):
        rows = (self.make_rows("sdr", 2.0) + self.make_rows("sca", 0.5)
                + self.make_rows("sdr", 9.0, sweep=0.0) + self.make_rows("sca", 0.1, sweep=0.0))
        summary = compare_complexity(rows)
        assert list(summary["points"]) == [16.0]


def test_random_phase_init_ablation():
    from irs_swipt.sca import sca_ao
    cfg = small_base(N=5, init_phases="random", seed=8)
    ch = generate_scenario(cfg)
    res = sca_ao(ch, cfg)
    assert res.status in ("Converged", "MaxIters", "Infeasible")
    if res.status != "Infeasible":
        assert np.max(np.abs(np.abs(res.u.u) - 1.0)) <= 1e-12


def test_shipped_default_config_parses():
    from pathlib import Path
    from irs_swipt.config import parse_config
    cfg, exp = parse_config(Path(__file__).resolve().parent.parent / "configs" / "paper.cfg")
    assert cfg.M == 4 and cfg.N == 50
    assert cfg.ps_w == 15.0 and cfg.zeta == 0.5
    assert cfg.sigma2_w == pytest.approx(1e-10)
    assert cfg.alpha_irs == 2.0 and cfg.alpha_direct == 3.0
    assert exp["mode"] == "sweep_sr"
    assert set(exp["methods"]) == {"sdr", "sca", "random_phase", "no_irs"}


class TestConfig:
    def test_parse_scenario_and_experiment(self):
        cfg, exp = parse_config_text("""
            # comment
            m = 4
            n = 16
            sigma2_dbm = -70
            r0 = 2.5
            methods = sdr, sca
            mode = sweep_sr
            sweep = 1, 2, 3
            seeds_per_point = 7
        """)
        assert cfg.M == 4 and cfg.N == 16
        assert cfg.sigma2_w == pytest.approx(1e-10)
        assert cfg.r0 == 2.5
        assert exp == {"methods": ("sdr", "sca"), "mode": "sweep_sr",
                       "sweep": (1.0, 2.0, 3.0), "seeds_per_point": 7}

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInput):
            parse_config_text("unknown_knob = 3")

    def test_malformed_line_rejected(self):
        with pytest.raises(InvalidInput):
            parse_config_text("just some words")


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        from irs_swipt.cli import main
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 2\nn = 3\nr0 = 0.8\nseed = 3\n"
                       "d_ap_bob = 10\nd_ap_eve = 20\nd_ap_ehr = 6\n"
                       "d_irs_bob = 12\nd_irs_eve = 25\nd_irs_ehr = 4\n"
                       "methods = sca\nmode = single\nseeds_per_point = 1\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--workers", "1"])
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_run_rejects_negative_workers(self, tmp_path):
        from irs_swipt.cli import main
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 2\nn = 3\nmethods = sca\nmode = single\nseeds_per_point = 1\n")
        with pytest.raises(InvalidInput, match="workers"):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                  "--workers", "-1"])
        assert not (tmp_path / "out").exists()

    def test_run_nonzero_on_infeasible(self, tmp_path):
        from irs_swipt.cli import main
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 2\nn = 3\nr0 = 30\nseed = 3\n"
                       "methods = sca\nmode = single\nseeds_per_point = 1\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--workers", "1"])
        assert code == 1

    def test_convergence_mode_emits_plot(self, tmp_path):
        from irs_swipt.cli import main
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 2\nn = 4\nr0 = 0.8\nseed = 3\n"
                       "d_ap_bob = 10\nd_ap_eve = 20\nd_ap_ehr = 6\n"
                       "d_irs_bob = 12\nd_irs_eve = 25\nd_irs_ehr = 4\n"
                       "methods = sca, sdr\nmode = convergence\nseeds_per_point = 2\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--workers", "1"])
        assert code == 0
        svg = (tmp_path / "out" / "convergence.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
