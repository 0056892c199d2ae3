"""Batch experiment runner: convergence studies, sweeps over the secrecy
target / IRS size / antenna count, baselines, CSV and SVG emission.

Baselines: "random_phase" draws a uniform random profile and only optimizes
the beamformer (surrogate ascent to convergence); "no_irs" forces N = 0 and
does the same.  Scenario seeds depend only on (sweep index, repetition), so
every method sees the same channel realization at a matched point, and the
direct links match between the IRS and no-IRS arms thanks to the fixed draw
order in generate_scenario.
"""

import ctypes
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from .channel import ScenarioConfig, generate_scenario
from .errors import InvalidInput
from .init import alternate
from .metrics import PhaseProfile, harvested_power
from .sca import INNER_TOL, MAX_INNER_W, sca_ao, sca_w_step
from .sdr import sdr_ao
from .svg import write_chart

MODES = ("convergence", "sweep_sr", "sweep_n", "sweep_m", "single")
METHODS = ("sdr", "sca", "random_phase", "no_irs")
CSV_HEADER = "method,seed,sweep,variable,harvested_w,sr_bps_hz,iters,seconds,status"
SWEEP_VARIABLE = {"sweep_sr": "r0", "sweep_n": "N", "sweep_m": "M",
                  "convergence": "none", "single": "none"}
OK_STATUSES = ("Converged", "MaxIters")


@dataclass
class ExperimentSpec:
    mode: str = "single"
    methods: tuple = ("sdr", "sca", "random_phase", "no_irs")
    sweep: tuple = ()
    seeds_per_point: int = 50
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    out_dir: str = "results"
    dump_solutions: bool = False
    workers: int = 0          # 0 = one per CPU
    verbose: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInput(f"mode must be one of {MODES}")
        self.methods = tuple(self.methods)
        if not self.methods:
            raise InvalidInput("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise InvalidInput(f"unknown method {m!r}")
        if self.seeds_per_point < 1:
            raise InvalidInput("at least one seed per point is required")
        if self.workers < 0:
            raise InvalidInput("workers must be >= 0 (0 = one per CPU)")
        if self.mode in ("single", "convergence"):
            self.sweep = (0.0,)  # one point; the base config is used as-is
        elif not self.sweep:
            if self.mode == "sweep_m":
                self.sweep = (float(self.base.M), float(2 * self.base.M))
            elif self.mode == "sweep_n":
                self.sweep = (float(self.base.N),)
            else:
                self.sweep = (self.base.r0,)
        self.sweep = tuple(float(v) for v in self.sweep)
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise InvalidInput("sweep values must be strictly increasing")


@dataclass
class ResultRow:
    method: str
    seed: int
    sweep: float
    variable: str
    harvested_w: float
    sr_bps_hz: float
    iters: int
    seconds: float
    status: str
    w: list = None          # retained only with dump_solutions
    u: list = None
    trace: list = None

    def sort_key(self):
        return (self.method, self.sweep, self.seed)


def optimize_w_fixed_profile(channels, cfg, u):
    """Beamformer-only ascent for a frozen profile (baseline arm)."""
    def step(state, counts):
        w, u = state
        counts["w"] += 1
        w = sca_w_step(u.v, w, channels, cfg).w
        return (w, u), harvested_power(w, u, channels, cfg.zeta)

    return alternate(channels, cfg, u, step, INNER_TOL, MAX_INNER_W)


def _point_config(base, mode, value):
    if mode == "sweep_sr":
        return replace(base, r0=value)
    if mode == "sweep_n":
        return replace(base, N=int(round(value)))
    if mode == "sweep_m":
        return replace(base, M=int(round(value)))
    return base


def _run_one(args):
    method, mode, value, scenario_seed, base = args
    cfg = _point_config(base, mode, value).with_updates(seed=scenario_seed)
    if method == "no_irs":
        cfg = cfg.with_updates(N=0)
    try:
        channels = generate_scenario(cfg)
        if method == "sdr":
            res = sdr_ao(channels, cfg)
        elif method == "sca":
            res = sca_ao(channels, cfg)
        else:
            if method == "random_phase":
                rng = np.random.default_rng(scenario_seed + 987654321)
                u = PhaseProfile(np.exp(-2j * np.pi * rng.random(cfg.N)))
            else:
                u = PhaseProfile(np.zeros(0, dtype=complex))
            res = optimize_w_fixed_profile(channels, cfg, u)
        infeasible = res.status == "Infeasible"
        power = 0.0 if infeasible else harvested_power(res.w.w, res.u, channels, cfg.zeta)
        return ResultRow(
            method=method, seed=scenario_seed, sweep=value,
            variable=SWEEP_VARIABLE[mode], harvested_w=power,
            sr_bps_hz=res.achieved_sr, iters=res.iters_outer,
            seconds=res.wall_clock, status=res.status,
            w=None if infeasible else [[float(x.real), float(x.imag)] for x in res.w.w],
            u=None if infeasible else [[float(x.real), float(x.imag)] for x in res.u.u],
            trace=[float(x) for x in res.harvested_trace])
    except Exception as exc:  # a failed run becomes a row, never aborts the batch
        return ResultRow(method=method, seed=scenario_seed, sweep=value,
                         variable=SWEEP_VARIABLE[mode], harvested_w=0.0,
                         sr_bps_hz=0.0, iters=0, seconds=0.0,
                         status=f"Error:{type(exc).__name__}")


def _openblas_function(name):
    """The loaded OpenBLAS's openblas_<name> (or a 64-bit variant), or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (f"openblas_{name}", f"scipy_openblas_{name}64_", f"openblas_{name}64_"):
            if hasattr(lib, sym):
                return getattr(lib, sym)
    return None


def _single_blas_thread():
    """Pool initializer: one OpenBLAS thread per worker, so that the pool does
    not oversubscribe the cores and inflate the seconds column."""
    set_threads = _openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads(1)


def run_experiment(spec):
    """Execute the batch, emit CSV / summary / SVG files, return the rows."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(method, spec.mode, value, spec.base.seed + 1000 * si + k, spec.base)
             for method in spec.methods
             for si, value in enumerate(spec.sweep)
             for k in range(spec.seeds_per_point)]

    workers = spec.workers or os.cpu_count() or 1
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_single_blas_thread) as pool:
            rows = list(pool.map(_run_one, tasks, chunksize=max(1, len(tasks) // (8 * workers))))
    else:
        rows = [_run_one(t) for t in tasks]
    rows.sort(key=ResultRow.sort_key)
    if spec.verbose:
        for r in rows:
            print(f"{r.method:>12} sweep {r.sweep:g} seed {r.seed}: "
                  f"{r.harvested_w:.4e} W, SR {r.sr_bps_hz:.3f}, {r.status}")

    emit_csv(rows, out / "results.csv")
    _emit_summary(rows, out / "summary.csv")
    if spec.dump_solutions:
        _dump_solutions(rows, out / "solutions.json")
    _emit_plots(spec, rows, out)
    return rows


def emit_csv(rows, path):
    """Write rows with full round-trip float precision; newline-terminated."""
    if not rows:
        raise InvalidInput("no rows to emit")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([r.method, repr(r.seed), repr(r.sweep), r.variable,
                               repr(r.harvested_w), repr(r.sr_bps_hz), repr(r.iters),
                               repr(r.seconds), r.status]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return Path(path)


def parse_csv(path):
    """Inverse of emit_csv (used by tests and the complexity report)."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise InvalidInput(f"unexpected CSV header {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 9:
                raise InvalidInput(f"bad CSV row: {line!r}")
            rows.append(ResultRow(
                method=parts[0], seed=int(parts[1]), sweep=float(parts[2]),
                variable=parts[3], harvested_w=float(parts[4]),
                sr_bps_hz=float(parts[5]), iters=int(parts[6]),
                seconds=float(parts[7]), status=parts[8]))
    return rows


def _emit_summary(rows, path):
    """Per (method, sweep) medians over seeds."""
    groups = {}
    for r in rows:
        groups.setdefault((r.method, r.sweep), []).append(r)
    lines = ["method,sweep,runs,ok_runs,median_harvested_w,median_sr,median_iters,median_seconds"]
    for (method, sweep), rs in sorted(groups.items()):
        ok = [r for r in rs if r.status in OK_STATUSES]
        med = lambda key: median(getattr(r, key) for r in ok) if ok else float("nan")
        lines.append(",".join([method, repr(sweep), str(len(rs)), str(len(ok)),
                               repr(med("harvested_w")), repr(med("sr_bps_hz")),
                               repr(med("iters")), repr(med("seconds"))]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return Path(path)


def _dump_solutions(rows, path):
    payload = [{"method": r.method, "seed": r.seed, "sweep": r.sweep,
                "harvested_w": r.harvested_w, "sr_bps_hz": r.sr_bps_hz,
                "w": r.w, "u": r.u, "trace": r.trace} for r in rows]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return Path(path)


def _emit_plots(spec, rows, out):
    xlabel = {"sweep_sr": "secrecy-rate target (bits/s/Hz)",
              "sweep_n": "IRS elements N", "sweep_m": "AP antennas M"}
    if spec.mode == "convergence":
        series = []
        for method in spec.methods:
            traces = [r.trace for r in rows
                      if r.method == method and r.trace and r.status in OK_STATUSES]
            if not traces:
                continue
            depth = max(len(t) for t in traces)
            padded = [t + [t[-1]] * (depth - len(t)) for t in traces]
            med = [median(col) for col in zip(*padded)]
            series.append((method, list(range(len(med))), med))
        write_chart(out / "convergence.svg", series, "iteration",
                    "harvested power (W)", "Convergence")
    elif spec.mode in xlabel:
        series = []
        for method in spec.methods:
            pts = {}
            for r in rows:
                if r.method == method and r.status in OK_STATUSES:
                    pts.setdefault(r.sweep, []).append(r.harvested_w)
            if pts:
                xs = sorted(pts)
                series.append((method, xs, [median(pts[x]) for x in xs]))
        write_chart(out / f"{spec.mode}.svg", series, xlabel[spec.mode],
                    "median harvested power (W)", spec.mode)


def compare_complexity(rows):
    """Wall-clock and iteration comparison of the two solvers at matched
    instances.  Rows with N = 0 (no phase subproblem) are excluded.  Returns a
    summary dict; empty (with a warning entry) when either method is missing.
    """
    usable = [r for r in rows if r.status in OK_STATUSES
              and not (r.variable == "N" and r.sweep == 0)]
    by_method = {}
    for r in usable:
        by_method.setdefault(r.method, {})[(r.sweep, r.seed)] = r
    if "sdr" not in by_method or "sca" not in by_method:
        return {"warning": "need both 'sdr' and 'sca' rows", "points": {}}
    matched = sorted(set(by_method["sdr"]) & set(by_method["sca"]))
    points = {}
    for sweep in sorted({k[0] for k in matched}):
        keys = [k for k in matched if k[0] == sweep]
        sdr_t = [by_method["sdr"][k].seconds for k in keys]
        sca_t = [by_method["sca"][k].seconds for k in keys]
        points[sweep] = {
            "runs": len(keys),
            "sdr_median_seconds": median(sdr_t),
            "sca_median_seconds": median(sca_t),
            "time_ratio": median(sdr_t) / median(sca_t) if median(sca_t) > 0 else float("inf"),
            "sdr_median_iters": median(by_method["sdr"][k].iters for k in keys),
            "sca_median_iters": median(by_method["sca"][k].iters for k in keys),
        }
    return {"points": points,
            "sca_faster_everywhere": all(p["time_ratio"] > 1.0 for p in points.values())}
