import ctypes
import importlib.util
import json
import re
import shutil
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from irs_swipt.channel import ChannelSet, ScenarioConfig, generate_scenario
from irs_swipt.config import parse_config_text
from irs_swipt.errors import InvalidInput
import irs_swipt.experiments as experiments
from irs_swipt.experiments import (METHODS, MODES, OK_STATUSES, ExperimentSpec, ResultRow,
                                   _openblas_function, _single_blas_thread,
                                   compare_complexity, emit_csv, parse_csv, run_experiment)
from irs_swipt.metrics import PhaseProfile, harvested_power, secrecy_rate

from shared import DESK


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


BAD_SWEEPS = [("sweep_m", (0.4,), "sweep_m values must be integers"),
              ("sweep_m", (0.0, 2.0), "sweep_m value 0: M must be >= 1"),
              ("sweep_n", (-1.0, 8.0), "sweep_n value -1: N must be >= 0"),
              ("sweep_sr", (-1.0, 1.0), "sweep_sr value -1: r0 must be > 0"),
              ("sweep_n", (8.2, 8.4), "sweep_n values must be integers"),
              ("sweep_m", (2.5,), "sweep_m values must be integers")]


class TestExperimentSpec:
    def test_mode_validation(self):
        with pytest.raises(InvalidInput):
            ExperimentSpec(mode="bogus")

    def test_method_validation(self):
        with pytest.raises(InvalidInput):
            ExperimentSpec(methods=("sdr", "nope"))
        with pytest.raises(InvalidInput):
            ExperimentSpec(methods=())

    def test_repeated_method_rejected(self):
        # run twice, it would list each (method, seed) row twice
        with pytest.raises(InvalidInput, match="method 'sca' is repeated"):
            ExperimentSpec(methods=("sca", "sca"))

    def test_sweep_must_increase(self):
        with pytest.raises(InvalidInput):
            ExperimentSpec(mode="sweep_sr", sweep=(2.0, 1.0))

    @pytest.mark.parametrize("sweep", [(1.0, float("nan")), (float("nan"),), (1.0, float("inf"))])
    def test_non_finite_sweep_rejected(self, sweep):
        with pytest.raises(InvalidInput, match="finite"):
            ExperimentSpec(mode="sweep_sr", sweep=sweep)

    def test_negative_workers_rejected(self):
        with pytest.raises(InvalidInput, match="workers"):
            ExperimentSpec(workers=-1)
        assert ExperimentSpec(workers=0).workers == 0

    @pytest.mark.parametrize("mode, sweep, match", BAD_SWEEPS)
    def test_bad_sweep_point_rejected(self, mode, sweep, match):
        # rejected at construction, so it neither aborts a batch nor runs rounded
        with pytest.raises(InvalidInput, match=match):
            ExperimentSpec(mode=mode, sweep=sweep)

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
        # every method: solutions.json bit for bit, results.csv but for seconds
        runs = {}
        for workers in (1, 2):
            out = tmp_path / str(workers)
            run_experiment(ExperimentSpec(mode="single", methods=METHODS, seeds_per_point=3,
                                          base=small_base(), out_dir=str(out), workers=workers,
                                          dump_solutions=True))
            csv = [line.split(",") for line in (out / "results.csv").read_text().splitlines()]
            col = csv[0].index("seconds")
            runs[workers] = ((out / "solutions.json").read_bytes(),
                             [row[:col] + row[col + 1:] for row in csv])
        assert runs[1] == runs[2]
        methods = {entry["method"] for entry in json.loads(runs[1][0])}
        assert methods == set(METHODS)

    def test_no_more_workers_than_runs(self, tmp_path, monkeypatch):
        opened = []

        class SerialPool:  # records the pool size and starts no process
            def __init__(self, max_workers, initializer):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        runs = {}
        for workers in (1, 64):
            spec = ExperimentSpec(mode="single", methods=METHODS, seeds_per_point=1,
                                  base=small_base(), out_dir=str(tmp_path / str(workers)),
                                  workers=workers)
            runs[workers] = [(r.method, r.seed, r.harvested_w, r.sr_bps_hz, r.iters, r.status)
                             for r in run_experiment(spec)]
        assert opened == [len(METHODS)]  # one worker per run, not 64
        assert runs[64] == runs[1]

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


@pytest.mark.parametrize("r0", [0.8, 30.0])
@pytest.mark.parametrize("method", METHODS)
def test_one_beamformer_step_per_round(method, r0, monkeypatch):
    # one beamformer step per outer round, so none on an Infeasible instance
    import irs_swipt.experiments as experiments
    import irs_swipt.sca as sca
    import irs_swipt.sdr as sdr
    module, name = {"sdr": (sdr, "solve_w_sdp"), "sca": (sca, "sca_w_step")}.get(
        method, (experiments, "sca_w_step"))
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or original(*a))
    cfg = small_base(r0=r0, N=0 if method == "no_irs" else 4)
    ch = generate_scenario(cfg)
    if method in ("sdr", "sca"):
        res = {"sdr": experiments.sdr_ao, "sca": experiments.sca_ao}[method](ch, cfg)
    else:
        u = PhaseProfile(np.exp(2j * np.pi * np.random.default_rng(5).random(cfg.N)))
        res = experiments.optimize_w_fixed_profile(ch, cfg, u)
    assert res.status == ("Infeasible" if r0 == 30.0 else "Converged")
    assert res.iters_outer == len(calls)
    assert (res.iters_outer > 0) == (r0 == 0.8)


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["r0", "ps_w", "d_ap_bob", "sigma2_dbm", "zeta",
                                     "alpha_irs", "pl_ref_db", "los_arrival_deg"])
    def test_non_finite_value_rejected(self, key, value):
        with pytest.raises(InvalidInput):
            parse_config_text(f"{key} = {value}")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sweep_value_rejected(self, value):
        _, exp = parse_config_text(f"mode = sweep_sr\nsweep = 1, {value}")
        with pytest.raises(InvalidInput, match="finite"):
            ExperimentSpec(**exp)

    @pytest.mark.parametrize("mode, sweep, match", BAD_SWEEPS)
    def test_bad_sweep_point_rejected(self, mode, sweep, match):
        base, exp = parse_config_text(f"mode = {mode}\nsweep = {', '.join(map(str, sweep))}")
        with pytest.raises(InvalidInput, match=match):
            ExperimentSpec(base=base, **exp)

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

    @staticmethod
    def bad_input_error(capsys, argv):
        """The stderr message of a cli.main run that ends on bad input."""
        from irs_swipt.cli import main
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.splitlines()[-1]

    def test_run_rejects_negative_workers(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 2\nn = 3\nmethods = sca\nmode = single\nseeds_per_point = 1\n")
        err = self.bad_input_error(capsys, ["run", "--config", str(cfg), "--out",
                                            str(tmp_path / "out"), "--workers", "-1"])
        assert err == "irs-swipt: error: workers must be >= 0 (0 = one per CPU)"
        assert not (tmp_path / "out").exists()

    def test_run_rejects_a_repeated_method(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 2\nn = 2\nr0 = 0.5\nmode = single\nmethods = sca, sca\n"
                       "seeds_per_point = 2\n")
        err = self.bad_input_error(capsys, ["run", "--config", str(cfg), "--out",
                                            str(tmp_path / "out"), "--workers", "1"])
        assert err == "irs-swipt: error: method 'sca' is repeated"
        assert not (tmp_path / "out").exists()

    def test_run_rejects_a_missing_config(self, tmp_path, capsys):
        err = self.bad_input_error(capsys, ["run", "--config", str(tmp_path / "none.cfg"),
                                            "--out", str(tmp_path / "out")])
        assert err.startswith("irs-swipt: error: ") and "none.cfg" in err
        assert not (tmp_path / "out").exists()

    def test_run_rejects_an_out_that_cannot_be_created(self, tmp_path, capsys, monkeypatch):
        import irs_swipt.cli as cli
        monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("a run started"))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 2\nn = 3\nmethods = sca\nmode = single\nseeds_per_point = 1\n")
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        err = self.bad_input_error(capsys, ["run", "--config", str(cfg), "--out", str(out)])
        assert err.startswith("irs-swipt: error: ") and str(out) in err

    def test_verbose_prints_one_line_per_run(self, tmp_path, capsys):
        # methods in non-sorted order: the lines follow results.csv, not the task order
        from irs_swipt.cli import main
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 2\nn = 3\nseed = 3\n"
                       "d_ap_bob = 10\nd_ap_eve = 20\nd_ap_ehr = 6\n"
                       "d_irs_bob = 12\nd_irs_eve = 25\nd_irs_ehr = 4\n"
                       "methods = sca, no_irs\nmode = sweep_sr\nsweep = 0.5, 0.8\n"
                       "seeds_per_point = 2\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--workers", "1", "--verbose"])
        assert code == 0
        rows = parse_csv(tmp_path / "out" / "results.csv")
        *lines, last = capsys.readouterr().out.splitlines()
        assert last.startswith("8 runs, 8 ok")
        assert len(lines) == len(rows) == 8
        for line, r in zip(lines, rows):
            m = re.fullmatch(r" *(\w+) sweep (\S+) seed (\d+): (\S+) W, SR (\S+), (\w+)", line)
            assert m, line
            assert (m[1], float(m[2]), int(m[3]), m[6]) == (r.method, r.sweep, r.seed, r.status)
            assert float(m[4]) == pytest.approx(r.harvested_w, rel=1e-4)
            assert float(m[5]) == pytest.approx(r.sr_bps_hz, abs=1e-3)

    @pytest.mark.parametrize("sdp_status, error", [("NumericalFailure", "Error:NumericalFailure"),
                                                    ("Infeasible", "Error:SubproblemInfeasible")])
    def test_failed_run_becomes_an_error_row(self, tmp_path, monkeypatch, sdp_status, error):
        # The batch's first V-SDP ends badly: solve_v_sdp raises, sdr_ao passes
        # the raise on, and that run becomes an Error row of an unbroken batch.
        from dataclasses import replace
        import irs_swipt.sdr as sdr
        from irs_swipt.cli import main
        solved = []

        def failing_first(*args, _solve=sdr.solve_sdp, **kwargs):
            solved.append(_solve(*args, **kwargs))
            return replace(solved[-1], status=sdp_status) if len(solved) == 1 else solved[-1]

        monkeypatch.setattr(sdr, "solve_sdp", failing_first)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 2\nn = 3\nr0 = 0.8\nseed = 3\n"
                       "d_ap_bob = 10\nd_ap_eve = 20\nd_ap_ehr = 6\n"
                       "d_irs_bob = 12\nd_irs_eve = 25\nd_irs_ehr = 4\n"
                       "methods = sdr, sca, no_irs\nmode = single\nseeds_per_point = 2\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--workers", "1"])
        assert code == 1
        rows = parse_csv(tmp_path / "out" / "results.csv")
        failed = [(r.method, r.status, r.harvested_w, r.sr_bps_hz, r.iters)
                  for r in rows if r.status not in OK_STATUSES]
        assert failed == [("sdr", error, 0.0, 0.0, 0)]
        assert len(rows) == 6 and len(solved) > 1

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


def load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_reference_tool_rejects_a_src_without_the_package(tmp_path):
    # With an installed copy of the package on the path, a --src without one
    # would run that copy and report a false match; it ends before OUT is made.
    tool = load_tool("reference_outputs")
    (tmp_path / "src").mkdir()
    with pytest.raises(SystemExit, match="not a package"):
        tool.main(["--src", str(tmp_path / "src"), str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


REFERENCE_ROWS = [  # results.csv as reference_outputs.py leaves it: no seconds column
    "method,seed,sweep,variable,harvested_w,sr_bps_hz,iters,status",
    "sdr,0,8.0,N,1.2345678e-05,3.0,4,Converged",
    "sca,0,8.0,N,1.2e-05,3.25,6,MaxIters",
    "no_irs,0,8.0,N,0.0,0.0,0,Infeasible",
]


def reference_tree(root, edit=None):
    """A batch and a paper run of REFERENCE_ROWS; edit(rows) changes the
    paper run's."""
    for run in ("batch", "paper"):
        rows = list(REFERENCE_ROWS)
        if edit and run == "paper":
            edit(rows)
        (root / run).mkdir(parents=True)
        (root / run / "results.csv").write_text("\n".join(rows) + "\n")
    return root


def replace(old, new, index=1):
    def edit(rows):
        rows[index] = rows[index].replace(old, new)
    return edit


@pytest.mark.parametrize("edit, code, report", [
    pytest.param(None, 0, "paper: 0 of 3 rows differ", id="identical"),
    pytest.param(replace("1.2345678e-05", "1.2345679e-05"), 0,
                 "paper: 1 of 3 rows differ; worst relative difference harvested_w 8.1e-08",
                 id="within-tolerance"),
    pytest.param(replace("3.25", "3.2500004", 2), 1, "sr_bps_hz 1.23e-07", id="above-tolerance"),
    pytest.param(replace(",4,", ",5,"), 1, "paper: the rows differ", id="iters"),
    pytest.param(replace("MaxIters", "Converged", 2), 1, "paper: the rows differ", id="status"),
    pytest.param(lambda rows: rows.pop(), 1, "paper: the rows differ", id="row-count"),
    pytest.param(replace("1.2e-05", "nan", 2), 1, "harvested_w inf", id="nan"),
    pytest.param(replace("1.2e-05", "inf", 2), 1, "harvested_w inf", id="inf"),
])
def test_compare_tool_allows_rounding_only(tmp_path, capsys, edit, code, report):
    # two output trees agree when their results.csv rows match in every key
    # column and their values differ by at most sdp.DEFAULT_TOL relative
    tool = load_tool("compare_outputs")
    a, b = reference_tree(tmp_path / "a"), reference_tree(tmp_path / "b", edit)
    assert tool.main([str(a), str(b)]) == code
    out = capsys.readouterr().out
    assert "batch: 0 of 3 rows differ" in out and report in out


def test_compare_tool_rejects_trees_with_different_runs(tmp_path, capsys):
    tool = load_tool("compare_outputs")
    a, b = reference_tree(tmp_path / "a"), reference_tree(tmp_path / "b")
    (b / "paper" / "results.csv").rename(b / "paper" / "old.csv")
    assert tool.main([str(a), str(b)]) == 1
    assert "different runs, or none: batch, paper against batch\n" in capsys.readouterr().out
    (tmp_path / "c").mkdir()
    assert tool.main([str(tmp_path / "c"), str(tmp_path / "c")]) == 1


def test_reference_runs_reach_every_mode_and_method():
    # each run's config and overrides are valid, and together the runs cover
    # every mode and every method
    from irs_swipt.cli import build_parser
    from irs_swipt.config import parse_config
    tool = load_tool("reference_outputs")
    specs = []
    for text, extra in tool.RUNS.values():
        base, kwargs = (parse_config(tool.REPO / "configs" / "paper.cfg") if text is None
                        else parse_config_text(text))
        args = build_parser().parse_args(["run", "--config", "-", *extra])
        if args.mode is not None:
            kwargs["mode"] = args.mode
        if args.seeds is not None:
            kwargs["seeds_per_point"] = args.seeds
        specs.append(ExperimentSpec(base=base, **kwargs))
    assert {s.mode for s in specs} == set(MODES)
    assert {m for s in specs for m in s.methods} == set(METHODS)


@pytest.fixture(scope="module")
def oracle_tree(tmp_path_factory):
    """The oracle run of tools/reference_outputs.py on this tree's src/."""
    tool = load_tool("reference_outputs")
    out = tmp_path_factory.mktemp("reference") / "a"
    tool.run_oracle(tool.REPO / "src", out / "oracle" / tool.ORACLE_FILE)
    return out


def test_reference_oracle_run_writes_one_line_per_search(oracle_tree):
    # the 96 desk instances of the benchmark, the M x N x r0 x seed x levels
    # sweep and N = 3 at 32 levels; unattainable targets give the exception's name
    tool = load_tool("reference_outputs")
    lines = (oracle_tree / "oracle" / tool.ORACLE_FILE).read_text().splitlines()
    assert len(lines) == len(tool.ORACLE_SEARCHES) == 96 + 3 * 4 * 4 * 3 * 3 + 1
    search, value, w, u = lines[0].split("\t")
    assert search == "(2, 2, 1.0, 0, 256)" and w.startswith("[(") and u.startswith("[(")
    assert float(value) == pytest.approx(4.820404496080396e-05, rel=1e-12)
    assert sum(line.endswith("\tSubproblemInfeasible") for line in lines) > 0


def edit_search(edit):
    """An edit of the first search's line, split at its tabs."""
    def apply(path):
        lines = path.read_text().splitlines()
        lines[0] = "\t".join(edit(lines[0].split("\t")))
        path.write_text("\n".join(lines) + "\n")
    return apply


def scaled_value(factor):
    return edit_search(lambda p: [p[0], repr(float(p[1]) * factor), *p[2:]])


@pytest.mark.parametrize("edit, code, report", [
    pytest.param(None, 0, "oracle: 0 of 529 searches differ; worst relative difference value 0",
                 id="identical"),
    pytest.param(scaled_value(1 + 1e-13), 0, "oracle: 1 of 529 searches differ", id="rounding"),
    pytest.param(scaled_value(1 + 1e-11), 1, "value 1e-11", id="above-tolerance"),
    pytest.param(edit_search(lambda p: [*p[:3], p[3].replace("[", "[(1+0j), ", 1)]), 1,
                 "oracle: the searches differ", id="u"),
    pytest.param(edit_search(lambda p: [p[0], "SubproblemInfeasible"]), 1,
                 "oracle: the searches differ", id="outcome"),
])
def test_compare_tool_checks_oracle_searches(oracle_tree, tmp_path, capsys, edit, code, report):
    # same searches, outcomes and profiles u; values within 1e-12 relative
    tool = load_tool("compare_outputs")
    b = tmp_path / "b"
    shutil.copytree(oracle_tree, b)
    if edit:
        edit(b / "oracle" / tool.ORACLE_FILE)
    assert tool.main([str(oracle_tree), str(b)]) == code
    assert report in capsys.readouterr().out
