"""Per-layer instrumentation of irs_swipt and the metrics derived from its spans.

Layers are the package modules.  Each public function below gets a span named
``<module>.<function>``; ``sca.u_of_mu`` and numpy's ``eigh``/``eigvalsh``/
``cholesky`` are only counted, against the innermost open span.  ``metrics``
is the benchmark's correctness oracle and is not timed.

Pool workers of the batch workload are forked after the wrappers are
installed, so they record spans too; the wrapper around the pool task
(``experiments._run_one``, the process boundary) writes each task's spans to a
file that the parent merges.

Times and counts are per solve of the traced pass unless the name says
otherwise.  Each metric names the end-to-end metric and workload it should
move; on the other workloads the prediction is no change.
"""

import functools
import json
import os
import statistics
import sys
from collections import defaultdict

from tracer import merge_block, self_times

# (name, unit, better, prediction)
PER_LAYER = [
    ("sdp.v.self_s", "s", "lower",
     "solves_per_s on batch_small_n (sdr rows); most of sdr_paper"),
    ("sdp.v.iters_per_call", "count", "lower", "as sdp.v.self_s"),
    ("sdp.v.s_per_iter", "s", "lower", "as sdp.v.self_s"),
    ("sdp.v.eigh_per_iter", "count", "lower", "as sdp.v.self_s"),
    ("sdp.v.chol_per_iter", "count", "lower", "as sdp.v.self_s"),
    ("sdp.v.optimal_frac", "ratio", "higher", "as sdp.v.self_s"),
    ("sdp.w.self_s", "s", "lower", "sdr rows of batch_small_n; about 6% of sdr_paper"),
    ("sdp.w.iters_per_call", "count", "lower", "as sdp.w.self_s"),
    ("sdr.randomize_v.self_s", "s", "lower", "sdr rows of batch_small_n, sdr_paper"),
    ("sdr.randomize_w.self_s", "s", "lower", "sdr rows of batch_small_n, sdr_paper"),
    ("sdr.outer_iters_per_solve", "count", "lower", "solves_per_s on batch_small_n"),
    ("sdr.recoveries_per_solve", "count", "lower", "solves_per_s on batch_small_n"),
    ("sdr.maxiters_below_cap", "count", "lower", "solves_per_s on batch_small_n"),
    ("sca.w_step.calls", "count", "lower", "sca and no_irs rows of batch_small_n"),
    ("sca.w_step.self_s", "s", "lower", "sca and no_irs rows of batch_small_n"),
    ("sca.w_step.noop_frac", "ratio", "lower", "sca and no_irs rows of batch_small_n"),
    ("sca.phase_data.self_s", "s", "lower", "sca rows of batch_small_n (grows with N)"),
    ("sca.bisect_mu.self_s", "s", "lower", "sca rows of batch_small_n (grows with N)"),
    ("sca.bisect_mu.evals_per_call", "count", "lower", "sca rows of batch_small_n"),
    ("sca.outer_iters_per_solve", "count", "lower", "sca rows of batch_small_n"),
    ("linalg.herm_eig.calls", "count", "lower", "setup_s and batch_small_n"),
    ("linalg.herm_eig.self_s", "s", "lower", "setup_s and batch_small_n"),
    ("channel.generate_scenario.self_s", "s", "lower", "setup_s and batch_small_n"),
    ("init.feasibility_probe.self_s", "s", "lower", "setup_s and batch_small_n"),
    ("experiments.solve_s_sum", "s", "lower", "batch_small_n only (per batch)"),
    ("experiments.parallel_eff", "ratio", "higher", "batch_small_n only"),
    ("experiments.emit_s", "s", "lower", "batch_small_n only (per batch)"),
    ("oracle.evals_per_s", "1/s", "higher", "oracle_desk only"),
    ("status.converged", "count", "higher", "counts of the traced pass"),
    ("status.maxiters", "count", "lower", "counts of the traced pass"),
    ("status.infeasible", "count", "lower", "counts of the traced pass"),
    ("trace.untraced_solves_per_s", "1/s", "higher", "untraced pass over the traced instances"),
    ("trace.solves_per_s", "1/s", "higher", "traced pass"),
    ("trace.overhead_ratio", "ratio", "lower", "untraced / traced solves_per_s"),
]

SPANS = {
    "channel": ["generate_scenario"],
    "init": ["feasibility_probe"],
    "linalg": ["herm_eig", "psd_sqrt", "max_eigval"],
    "sdp": ["solve_sdp"],
    "sdr": ["sdr_ao", "solve_v_sdp", "solve_w_sdp", "randomize_v", "randomize_w"],
    "sca": ["sca_ao", "sca_w_step", "build_phase_data", "bisect_mu"],
    "oracle": ["grid_search_joint"],
    "experiments": ["run_experiment", "optimize_w_fixed_profile", "emit_csv"],
    "svg": ["write_chart"],
    "config": ["parse_config"],
    "cli": ["main"],
}
NUMPY_COUNTS = ("eigh", "eigvalsh", "cholesky")


def _sdp_attrs(args, kwargs, sol):
    return {"iters": sol.iterations, "optimal": sol.status == "Optimal"}


def _w_step_attrs(args, kwargs, beam):
    import numpy as np
    w_prev = args[1] if len(args) > 1 else kwargs["w_prev"]
    return {"noop": bool(np.array_equal(beam.w, np.asarray(getattr(w_prev, "w", w_prev))))}


ATTRS = {"sdp.solve_sdp": _sdp_attrs, "sca.sca_w_step": _w_step_attrs}


def instrument(tracer, pool_span_dir):
    """Wrap the package's layer boundaries; ``tracer.uninstall()`` undoes it."""
    import numpy
    import irs_swipt.cli  # noqa: F401  (loads every module that holds a reference)

    modules = [m for name, m in list(sys.modules.items())
               if name == "irs_swipt" or name.startswith("irs_swipt.")]
    for mod_name, funcs in SPANS.items():
        module = sys.modules[f"irs_swipt.{mod_name}"]
        for func_name in funcs:
            original = getattr(module, func_name)
            span = f"{mod_name}.{func_name}"
            tracer.install(modules, original, tracer.wrap(original, span, ATTRS.get(span)))
    sca = sys.modules["irs_swipt.sca"]
    tracer.install(modules, sca.u_of_mu, tracer.counting(sca.u_of_mu, "u_of_mu"))
    for key in NUMPY_COUNTS:
        original = getattr(numpy.linalg, key)
        tracer.install([numpy.linalg], original, tracer.counting(original, key))
    experiments = sys.modules["irs_swipt.experiments"]
    task = _pool_task(tracer, experiments._run_one, pool_span_dir)
    tracer.install([experiments], experiments._run_one, task)


def _pool_task(tracer, run_one, span_dir):
    """Span around one batch row; in a forked worker, its spans go to a file."""
    parent_pid = os.getpid()
    done = [0]

    @functools.wraps(run_one)
    def task(args):
        pid = os.getpid()
        in_worker = pid != parent_pid
        if in_worker:
            tracer.clear()  # the fork copied the parent's spans and open stack
        done[0] += 1
        try:
            with tracer.root("experiments.run_one", f"row:{pid}:{done[0]}"):
                return run_one(args)
        finally:
            if in_worker:
                with open(os.path.join(span_dir, f"pool-{pid}.jsonl"), "a") as fh:
                    fh.write(json.dumps([s.row() for s in tracer.spans]) + "\n")
                tracer.clear()
    return task


def collect_pool_spans(tracer, span_dir):
    """Merge and remove the span files written by pool workers."""
    for name in sorted(os.listdir(span_dir)):
        if name.startswith("pool-") and name.endswith(".jsonl"):
            path = os.path.join(span_dir, name)
            with open(path) as fh:
                for line in fh:
                    merge_block(tracer.spans, json.loads(line))
            os.remove(path)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, solves, batch_walls=(), workers=1, candidates=0):
    """Per-layer metrics of one traced pass.

    ``solves`` are the pass's Solve records, ``batch_walls`` the wall time of
    each batch (batch workload only), ``candidates`` the grid candidates per
    oracle call.  Spans outside a solve (set-up, checks) are ignored.
    """
    n = len(solves)
    groups = defaultdict(list)
    for s, st in zip(spans, self_times(spans)):
        if s.solve is None:
            continue
        key = s.name
        if key == "sdp.solve_sdp":
            caller = spans[s.parent].name if s.parent >= 0 else ""
            key = {"sdr.solve_v_sdp": "sdp.v", "sdr.solve_w_sdp": "sdp.w"}.get(caller, key)
        groups[key].append((s, st))

    def self_s(*keys):
        return sum(st for k in keys for _, st in groups[k])

    def calls(key):
        return len(groups[key])

    def counted(key, *names):
        return sum(s.counts.get(c, 0) for s, _ in groups[key] if s.counts for c in names)

    def attr_sum(key, name):
        return sum(s.attrs[name] for s, _ in groups[key])

    def iters_of(method):
        its = [r.iters for r in solves if r.method == method and r.status != "Infeasible"]
        return statistics.fmean(its) if its else 0.0

    v_iters = attr_sum("sdp.v", "iters")
    statuses = [r.status for r in solves]
    n_batches = len(batch_walls)
    return {
        "sdp.v.self_s": self_s("sdp.v") / n,
        "sdp.v.iters_per_call": _ratio(v_iters, calls("sdp.v")),
        "sdp.v.s_per_iter": _ratio(sum(s.end - s.start for s, _ in groups["sdp.v"]), v_iters),
        "sdp.v.eigh_per_iter": _ratio(counted("sdp.v", "eigh", "eigvalsh"), v_iters),
        "sdp.v.chol_per_iter": _ratio(counted("sdp.v", "cholesky"), v_iters),
        "sdp.v.optimal_frac": _ratio(attr_sum("sdp.v", "optimal"), calls("sdp.v")),
        "sdp.w.self_s": self_s("sdp.w") / n,
        "sdp.w.iters_per_call": _ratio(attr_sum("sdp.w", "iters"), calls("sdp.w")),
        "sdr.randomize_v.self_s": self_s("sdr.randomize_v") / n,
        "sdr.randomize_w.self_s": self_s("sdr.randomize_w") / n,
        "sdr.outer_iters_per_solve": iters_of("sdr"),
        "sdr.recoveries_per_solve": _ratio(calls("sdr.randomize_v"), calls("sdr.sdr_ao")),
        "sdr.maxiters_below_cap": sum(1 for r in solves if r.method == "sdr"
                                      and r.status == "MaxIters" and r.iters < r.cap),
        "sca.w_step.calls": calls("sca.sca_w_step") / n,
        "sca.w_step.self_s": self_s("sca.sca_w_step") / n,
        "sca.w_step.noop_frac": _ratio(attr_sum("sca.sca_w_step", "noop"),
                                       calls("sca.sca_w_step")),
        "sca.phase_data.self_s": self_s("sca.build_phase_data") / n,
        "sca.bisect_mu.self_s": self_s("sca.bisect_mu") / n,
        "sca.bisect_mu.evals_per_call": _ratio(counted("sca.bisect_mu", "u_of_mu"),
                                               calls("sca.bisect_mu")),
        "sca.outer_iters_per_solve": iters_of("sca"),
        "linalg.herm_eig.calls": calls("linalg.herm_eig") / n,
        "linalg.herm_eig.self_s": self_s("linalg.herm_eig") / n,
        "channel.generate_scenario.self_s": self_s("channel.generate_scenario") / n,
        "init.feasibility_probe.self_s": self_s("init.feasibility_probe") / n,
        "experiments.solve_s_sum": _ratio(sum(r.seconds for r in solves), n_batches),
        "experiments.parallel_eff": _ratio(sum(r.seconds for r in solves),
                                           workers * sum(batch_walls)),
        "experiments.emit_s": _ratio(self_s("experiments.emit_csv", "svg.write_chart"),
                                     n_batches),
        "oracle.evals_per_s": _ratio(candidates * calls("oracle.grid_search_joint"),
                                     sum(s.end - s.start
                                         for s, _ in groups["oracle.grid_search_joint"])),
        "status.converged": statuses.count("Converged"),
        "status.maxiters": statuses.count("MaxIters"),
        "status.infeasible": statuses.count("Infeasible"),
    }
