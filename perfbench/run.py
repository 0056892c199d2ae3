"""Benchmark of the irs_swipt solvers, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py                                  # every workload, untraced and traced
    python3 perfbench/run.py --workload batch_small_n --seed 0 --seconds 50 --trace 0
    python3 perfbench/spread.py --workload batch_small_n --runs 5  # run-to-run spread

A run starts the workload's shards, serial solver processes that run side
by side (see workloads.make).  Each shard sets up (import, instance
generation, one warm-up solve), then solves its share of the instances in
order for --seconds of solve time (at least its share of the first min_units,
the quality panel), checking every output.  With --trace 1 a shard instead
solves for --seconds/2 untraced, then replays the same instances with spans
at every module boundary (see layers.py).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  A table before it prints those, the
environment, and what cannot be gated: solve_s_p50 (on the batch the median
row falls among the N=8 sca and sdr rows, whose times move with the seed:
quartile spread 0.27-0.35 over ten seeds), solve_s_p75 (only with >= 40 solves),
harvested_w_gmean (its spread follows the fading draws), fail_frac (0 when
correct) and per-status counts.  Results and spans are written to .bench_out/.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# One BLAS thread everywhere, shards and pool workers included (they inherit
# the environment): on a 2-core machine, unpinned OpenBLAS under a
# two-process pool made a 24-run batch take 19-110 s instead of 5 s, too
# unsteady to gate.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 170
END_TO_END = [
    ("solves_per_s", "1/s"),
    ("harvested_frac_gmean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# The workloads of BENCHMARK.json, which "all" runs.  sdr_paper and sca_paper
# (the solvers alone at the paper setup) run only when named: on a shared
# 2-vCPU host their 25-s runs spread 0.18-0.60 (quartile distance / median)
# over seeds, past the 0.25 bound, and the batch reaches the same layers.
WORKLOAD_NAMES = ("batch_small_n", "oracle_desk")
UNGATED_WORKLOADS = ("sdr_paper", "sca_paper")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + UNGATED_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="offsets every instance seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="solve time to measure")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    # a shard is started by its parent run: --shard K/S --shard-dir DIR [--setup-only]
    parser.add_argument("--shard", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--shard-dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_workloads():
    """Import the package from this checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "irs_swipt" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'irs_swipt'} not found; run from a repository checkout")
    sys.path.insert(0, str(src))
    import irs_swipt
    if Path(irs_swipt.__file__).resolve().parent != src / "irs_swipt":
        sys.exit(f"perfbench: imported irs_swipt from {irs_swipt.__file__}, not {src}")
    import workloads
    return workloads


def measure(wl, seconds, min_units, first, stride, tracer=None):
    """Units first, first + stride, ... until `seconds` of solve time and at
    least min_units; returns [(solves, wall)] per unit."""
    units, elapsed = [], 0.0
    while len(units) < min_units or elapsed < seconds:
        solves, wall = wl.run(first + stride * len(units), tracer)
        units.append((solves, wall))
        elapsed += wall
    return units


def _encode(units):
    return [[[vars(s) for s in solves], wall] for solves, wall in units]


def traced_passes(wl, seconds, k, count, shard_dir):
    """An untraced pass of seconds/2, then the same units traced."""
    import layers
    from tracer import Tracer
    untraced = measure(wl, seconds / 2.0, 1, k, count)
    tracer = Tracer()
    layers.instrument(tracer, str(shard_dir))
    try:
        traced = measure(wl, 0.0, len(untraced), k, count, tracer)
    finally:
        tracer.uninstall()
    layers.collect_pool_spans(tracer, str(shard_dir))
    return {"untraced": _encode(untraced), "traced": _encode(traced),
            "spans": [s.row() for s in tracer.spans]}


def run_shard(args):
    """One serial solver process; writes its results to --shard-dir."""
    t0 = time.perf_counter()
    workloads = load_workloads()  # numpy and irs_swipt load here
    k, count = (int(x) for x in args.shard.split("/"))
    shard_dir = Path(args.shard_dir)
    wl = workloads.make(args.workload)
    wl.setup(args.seed, shard_dir)
    result = {"setup_s": time.perf_counter() - t0}
    if args.trace and not args.setup_only:
        result.update(traced_passes(wl, args.seconds, k, count, shard_dir))
    elif not args.setup_only:
        result["units"] = _encode(measure(wl, args.seconds, math.ceil(wl.min_units / count),
                                          k, count))
    with open(shard_dir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


def run_shards(args, count, work_dir, setup_only=False):
    """Start `count` shards side by side, wait for all, return their results."""
    procs = []
    try:
        for k in range(count):
            shard_dir = work_dir / f"shard-{k}-of-{count}{'-setup' if setup_only else ''}"
            shard_dir.mkdir(parents=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--shard", f"{k}/{count}",
                   "--shard-dir", str(shard_dir)] + (["--setup-only"] if setup_only else [])
            with open(shard_dir / "stderr.txt", "w") as err:
                procs.append((subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                               stderr=err), shard_dir))
        deadline = time.monotonic() + SUBPROCESS_TIMEOUT_S
        for proc, _ in procs:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    results = []
    for proc, shard_dir in procs:
        if proc.returncode != 0:
            sys.exit(f"perfbench: shard failed ({proc.returncode}):\n"
                     + (shard_dir / "stderr.txt").read_text())
        with open(shard_dir / "result.json") as fh:
            results.append(json.load(fh))
    return results


def peak_rss_mb():
    """Largest peak RSS of this process and every waited-for descendant."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                func = getattr(lib, sym)
                func.argtypes, func.restype = [], ctypes.c_int
                return func()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _decode(workloads, units):
    return [([workloads.Solve(**d) for d in solves], wall) for solves, wall in units]


def _flatten(units):
    return [s for solves, _ in units for s in solves]


def _rate(units):
    return len(_flatten(units)) / sum(w for _, w in units)


def untraced_metrics(workloads, wl, shards, setups):
    """End-to-end metrics; also returns table rows for what cannot be gated."""
    from stats import gmean, p75
    per_shard = [_decode(workloads, r["units"]) for r in shards]
    solves = [s for units in per_shard for s in _flatten(units)]
    # quality panel: each shard's share of the first min_units, solved by every run
    first = math.ceil(wl.min_units / wl.shards)
    panel = [s for units in per_shard for s in _flatten(units[:first])
             if s.failure is None and s.harvested_frac is not None]
    seconds = [s.seconds for s in solves]
    q75 = p75(seconds)
    metrics = {
        "solves_per_s": sum(_rate(units) for units in per_shard),
        "harvested_frac_gmean": gmean([s.harvested_frac for s in panel]) if panel else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = [
        ("solve_s_p50", statistics.median(seconds), "s", f"n={len(seconds)}"),
        ("solve_s_p75", q75, "s", f"n={len(seconds)}" if q75 is not None
         else f"not reported: {len(seconds)} solves < 40"),
        ("harvested_w_gmean", gmean([s.harvested_w for s in panel]) if panel else None, "W",
         f"{len(panel)} feasible in the first {wl.min_units} {wl.units}"),
    ]
    notes = {"solves_per_s": f"{wl.shards} shard(s) side by side",
             "harvested_frac_gmean": "harvested / no-secrecy bound, quality panel",
             "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups)}
    units = [u for shard_units in per_shard for u in shard_units]
    return units, solves, metrics, extra, notes


def traced_metrics(workloads, wl, shards, spans_path):
    """Per-layer metrics from the shards' traced passes, plus tracing overhead."""
    import layers
    from tracer import merge_block, write_spans
    spans, traced, untraced_rate, traced_rate = [], [], 0.0, 0.0
    for r in shards:
        merge_block(spans, r["spans"])
        untraced, shard_traced = _decode(workloads, r["untraced"]), _decode(workloads, r["traced"])
        traced += shard_traced
        untraced_rate += _rate(untraced)
        traced_rate += _rate(shard_traced)
    metrics = layers.per_layer(
        spans, _flatten(traced),
        batch_walls=[w for _, w in traced] if wl.method == "batch" else (),
        workers=getattr(wl, "workers", 1),
        candidates=getattr(wl, "candidates", 0))
    metrics["trace.untraced_solves_per_s"] = untraced_rate
    metrics["trace.solves_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate
    write_spans(spans, spans_path)
    units = [u for r in shards for key in ("untraced", "traced")
             for u in _decode(workloads, r[key])]
    return units, _flatten(units), metrics


def print_table(rows):
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit:6s} {note}")


def run_workload(args):
    workloads = load_workloads()
    wl = workloads.make(args.workload)
    env = environment()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            import layers
            shards = run_shards(args, wl.shards, work_dir)
            units, solves, metrics = traced_metrics(
                workloads, wl, shards, OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
            spec = [(name, unit) for name, unit, _, _ in layers.PER_LAYER]
            extra, notes = [], {name: pred for name, _, _, pred in layers.PER_LAYER}
        else:
            # set-up alone, in separate processes before and after the measured
            # shards, so that the median spans the run
            probes = max(0, SETUP_REPEATS - wl.shards)
            probe = lambda i: run_shards(args, 1, work_dir / f"probe-{i}", setup_only=True)[0]
            before = [probe(i) for i in range(probes // 2)]
            shards = run_shards(args, wl.shards, work_dir)
            after = [probe(i) for i in range(probes // 2, probes)]
            setups = [r["setup_s"] for r in before + shards + after]
            units, solves, metrics, extra, notes = untraced_metrics(workloads, wl, shards, setups)
            spec = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [s for s in solves if s.failure is not None]
    # an untraced run whose quality panel has no feasible pair has checked nothing
    correct = not failed and metrics.get("harvested_frac_gmean", 1.0) > 0.0
    instances = {}  # each instance once: a traced run solves its instances twice
    for s in solves:
        instances.setdefault((s.method, s.seed), s)
    counts = Counter("Error" if s.status.startswith("Error:") else s.status
                     for s in instances.values())
    below_cap = sum(1 for s in instances.values() if s.method == "sdr"
                    and s.status == "MaxIters" and s.iters < s.cap)
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {args.workload} seed {args.seed} {'traced' if args.trace else 'untraced'}: "
          f"{len(solves)} solves ({len(units)} {wl.units}), "
          f"{sum(w for _, w in units):.2f} s of solve time")
    print_table([(name, metrics[name], unit, notes.get(name, "")) for name, unit in spec]
                + extra
                + [("fail_frac", len(failed) / len(solves), "ratio",
                    f"{len(failed)}/{len(solves)} failed")])
    print(f"  status counts over the {len(instances)} instances: "
          + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
          + f"; sdr.maxiters_below_cap={below_cap}")
    for s in failed[:10]:
        print(f"  FAILED {s.method} seed {s.seed}: {s.failure}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics,
              "extra": {name: value for name, value, _, _ in extra},
              "status_counts": counts, "solves": [vars(s) for s in solves]}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(solves), "failed": len(failed),
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in spec}}))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=SUBPROCESS_TIMEOUT_S)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                code = out.returncode
                continue
            results[f"{name}/trace{trace}"] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps({"correct": code == 0 and all(r["correct"] for r in results.values()),
                      "runs": results}))
    return code


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads
    if args.workload == "all":
        return run_all(args)
    if args.shard is not None:
        return run_shard(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
