"""Tests of the benchmark's own arithmetic: span self time, the percentile
rule, the failure rule, and agreement between the code and BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import irs_swipt as isw  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, merge_block, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [Span("root", 0.0, 10.0, -1, "s"),
             Span("a", 1.0, 4.0, 0, "s"),
             Span("b", 5.0, 9.0, 0, "s"),
             Span("b.child", 6.0, 7.0, 2, "s")]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_traced_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) + inner(x), "outer")
    with tracer.root("root", "solve:0"):
        assert outer(1) == 4
    outer(1)  # outside any solve
    names = [s.name for s in tracer.spans]
    assert names == ["root", "outer", "inner", "inner", "outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, -1, 4, 4]
    assert [s.solve for s in tracer.spans] == ["solve:0"] * 4 + [None] * 3
    selfs = self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs[:4]) == pytest.approx(root.end - root.start, rel=1e-12, abs=1e-12)
    assert all(st >= 0 for st in selfs)


def test_merged_blocks_keep_their_own_parents():
    spans = [Span("parent", 0.0, 1.0, -1, "batch:0")]
    merge_block(spans, [["row", 2.0, 5.0, -1, "row:1", None, None],
                        ["step", 3.0, 4.0, 0, "row:1", {"noop": True}, {"eigh": 2}]])
    assert [s.parent for s in spans] == [-1, -1, 1]
    assert self_times(spans) == [1.0, 2.0, 1.0]


def test_counts_go_to_the_innermost_open_span():
    tracer = Tracer()
    counted = tracer.counting(lambda: None, "eigh")
    counted()  # no open span: dropped
    with tracer.root("root", "s"):
        counted()
        tracer.wrap(lambda: [counted(), counted()], "inner")()
    assert tracer.spans[0].counts == {"eigh": 1}
    assert tracer.spans[1].counts == {"eigh": 2}


def test_p75_needs_ten_samples_beyond_it():
    assert stats.p75(list(range(39))) is None
    samples = [float(x) for x in range(40)]
    q = stats.p75(samples)
    assert q == statistics.quantiles(samples, n=4)[2]
    assert sum(1 for x in samples if x > q) >= 10


def test_gmean_and_quartile_spread():
    assert stats.gmean([1.0, 4.0]) == pytest.approx(2.0)
    assert stats.quartile_spread([10.0] * 5) == 0.0
    q1, q2, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0, 5.0], n=4)
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (q3 - q1) / q2


def test_monotone_tolerance_is_relative_1e8():
    assert stats.is_monotone([1.0, 1.0 - 0.5e-8, 2.0])
    assert not stats.is_monotone([1.0, 1.0 - 2e-8])
    assert stats.is_monotone([])


@pytest.mark.parametrize("status, feasible, trace, failed", [
    ("Converged", True, [1.0, 2.0], False),
    ("MaxIters", True, [1.0, 1.0], False),
    ("Infeasible", None, [], False),
    ("Infeasible", False, [], False),       # no pair is expected
    ("Converged", False, [1.0, 2.0], True),  # infeasible pair
    ("Converged", True, [2.0, 1.0], True),   # non-monotone trace
    ("Error:RecoveryFailed: no candidate", None, None, True),
    ("Optimal", True, None, True),           # outside the AO statuses
])
def test_failure_rule(status, feasible, trace, failed):
    assert (stats.failure_reason(status, feasible, trace) is not None) == failed


def test_fail_frac_counts_injected_bad_outputs():
    cfg = isw.ScenarioConfig(M=2, N=4, seed=3)
    ch = isw.generate_scenario(cfg)
    res = isw.sca_ao(ch, cfg)
    assert res.status == "Converged"
    good = workloads.judge("sca", cfg, ch, res.status, 0.1, res.iters_outer,
                           res.w.w, res.u, res.harvested_trace)
    over_budget = workloads.judge("sca", cfg, ch, res.status, 0.1, res.iters_outer,
                                  2.0 * res.w.w, res.u, res.harvested_trace)
    dipping = workloads.judge("sca", cfg, ch, res.status, 0.1, res.iters_outer,
                              res.w.w, res.u, res.harvested_trace + [0.5 * res.harvested_trace[-1]])
    misreported = workloads.judge("oracle", cfg, ch, "Optimal", 0.1, w=res.w.w, u=res.u,
                                  value=1.01 * isw.harvested_power(res.w.w, res.u, ch, cfg.zeta),
                                  allowed=("Optimal",))
    solves = [good, over_budget, dipping, misreported]
    assert [s.failure for s in solves] == [None, "infeasible pair", "non-monotone trace",
                                           "reported harvested power differs"]
    assert sum(s.failure is not None for s in solves) / len(solves) == 0.75
    assert 0.0 < good.harvested_frac <= 1.0


def test_per_layer_splits_sdp_calls_by_caller():
    spans = [Span("bench.solve", 0.0, 10.0, -1, "solve:0"),
             Span("sdr.sdr_ao", 0.0, 10.0, 0, "solve:0"),
             Span("sdr.solve_v_sdp", 1.0, 5.0, 1, "solve:0"),
             Span("sdp.solve_sdp", 2.0, 5.0, 2, "solve:0", {"iters": 10, "optimal": True},
                  {"eigh": 15, "eigvalsh": 5, "cholesky": 20}),
             Span("sdr.solve_w_sdp", 6.0, 8.0, 1, "solve:0"),
             Span("sdp.solve_sdp", 6.5, 8.0, 4, "solve:0", {"iters": 4, "optimal": False}),
             Span("sdr.randomize_v", 8.0, 9.0, 1, "solve:0"),
             Span("linalg.herm_eig", 99.0, 100.0, -1, None)]  # outside a solve
    solve = workloads.Solve("sdr", 3, "MaxIters", 10.0, iters=11, cap=100)
    m = layers.per_layer(spans, [solve])
    assert m["sdp.v.self_s"] == 3.0
    assert m["sdp.v.iters_per_call"] == 10
    assert m["sdp.v.s_per_iter"] == 0.3
    assert m["sdp.v.eigh_per_iter"] == 2.0
    assert m["sdp.v.chol_per_iter"] == 2.0
    assert m["sdp.v.optimal_frac"] == 1.0
    assert m["sdp.w.self_s"] == 1.5
    assert m["sdp.w.iters_per_call"] == 4
    assert m["sdr.recoveries_per_solve"] == 1.0
    assert m["sdr.maxiters_below_cap"] == 1
    assert m["linalg.herm_eig.calls"] == 0
    assert m["status.maxiters"] == 1


def test_instrument_is_undone():
    originals = {(mod, name): getattr(sys.modules[f"irs_swipt.{mod}"], name)
                 for mod, names in layers.SPANS.items() for name in names}
    eigh = np.linalg.eigh
    tracer = Tracer()
    layers.instrument(tracer, ".")
    assert isw.sdr.solve_sdp is not originals[("sdp", "solve_sdp")]
    assert isw.sdr_ao is not originals[("sdr", "sdr_ao")]
    tracer.uninstall()
    for (mod, name), func in originals.items():
        assert getattr(sys.modules[f"irs_swipt.{mod}"], name) is func
    assert isw.sdr.solve_sdp is originals[("sdp", "solve_sdp")]
    assert np.linalg.eigh is eigh


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in layers.PER_LAYER]
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    traced = set(layers.per_layer([], [workloads.Solve("sca", 0, "Converged", 1.0)]))
    assert traced | {"trace.untraced_solves_per_s", "trace.solves_per_s",
                     "trace.overhead_ratio"} == {row[0] for row in layers.PER_LAYER}
