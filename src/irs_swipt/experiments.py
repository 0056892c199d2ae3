"""Batch experiment runner: convergence studies, sweeps over the secrecy
target / IRS size / antenna count, baselines, CSV and SVG emission.

Baselines: "random_phase" draws a uniform random profile and only optimizes
the beamformer (sca_ao's exact beamformer step, repeated until the trace
stops rising); "no_irs" forces N = 0 and does the same.  Scenario seeds
depend only on (sweep index, repetition), so every method sees the same
channel realization at a matched point, and the direct links match between
the IRS and no-IRS arms thanks to the fixed draw order in generate_scenario.
"""

import ctypes
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from numbers import Integral
from pathlib import Path
from statistics import median

import numpy as np

from .channel import ScenarioConfig, generate_scenario
from .errors import InvalidInput
from .init import alternate, harvested_snr
from .metrics import PhaseProfile, harvested_power
from .sca import sca_ao, sca_w_step
from .sdr import sdr_ao
from .svg import write_chart

# mode: (the ScenarioConfig field its sweep sets, or "none"; its chart's x label, or None)
SWEEPS = {"convergence": ("none", "iteration"),
          "sweep_sr": ("r0", "secrecy-rate target (bits/s/Hz)"),
          "sweep_n": ("N", "IRS elements N"),
          "sweep_m": ("M", "AP antennas M"),
          "single": ("none", None)}
MODES = tuple(SWEEPS)
METHODS = ("sdr", "sca", "random_phase", "no_irs")
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
OK_STATUSES = ("Converged", "MaxIters")


@dataclass
class ExperimentSpec:
    mode: str = "single"
    methods: tuple = METHODS
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
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise InvalidInput(f"unknown method {m!r}")
            if m in self.methods[:i]:
                raise InvalidInput(f"method {m!r} is repeated")
        for name in ("seeds_per_point", "workers"):
            if not isinstance(getattr(self, name), Integral):
                raise InvalidInput(f"{name} must be an integer")
        if self.seeds_per_point < 1:
            raise InvalidInput("at least one seed per point is required")
        if self.workers < 0:
            raise InvalidInput("workers must be >= 0 (0 = one per CPU)")
        variable = SWEEPS[self.mode][0]
        if variable == "none":
            self.sweep = (0.0,)  # one point; the base config is used as-is
        elif not self.sweep:
            value = getattr(self.base, variable)
            self.sweep = (value, 2 * value) if self.mode == "sweep_m" else (value,)
        self.sweep = tuple(float(v) for v in self.sweep)
        if not np.all(np.isfinite(self.sweep)):
            raise InvalidInput("sweep values must be finite")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise InvalidInput("sweep values must be strictly increasing")
        if _FIELD_TYPES.get(variable) is int and any(v != int(v) for v in self.sweep):
            raise InvalidInput(f"{self.mode} values must be integers")
        for v in self.sweep:  # an out-of-range point fails here, not mid-batch
            try:
                _point_config(self.base, self.mode, v)
            except InvalidInput as exc:
                raise InvalidInput(f"{self.mode} value {v:g}: {exc}") from None


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
    w: list = None          # None on Infeasible, Error and read-back CSV rows;
    u: list = None          # written out only with --dump-solutions
    trace: list = None

    def sort_key(self):
        return (self.method, self.sweep, self.seed)


CSV_COLUMNS = fields(ResultRow)[:9]
CSV_HEADER = ",".join(f.name for f in CSV_COLUMNS)


def optimize_w_fixed_profile(channels, cfg, u):
    """Beamformer-only optimization for a frozen profile (baseline arm); the
    step is exact, so the second one confirms the first and ends the run."""
    def step(problem, state, counts):
        w, u = state
        w = sca_w_step(u.v, w, problem).w
        return (w, u), harvested_snr(u.v, w, problem)

    return alternate(channels, cfg, u, step)


def _point_config(base, mode, value):
    variable = SWEEPS[mode][0]
    if variable == "none":
        return base
    return replace(base, **{variable: _FIELD_TYPES[variable](value)})


def _run_one(args):
    method, mode, value, scenario_seed, base = args
    cfg = _point_config(base, mode, value).with_updates(seed=scenario_seed)
    if method == "no_irs":
        cfg = cfg.with_updates(N=0)
    identity = dict(method=method, seed=scenario_seed, sweep=value, variable=SWEEPS[mode][0])
    try:
        channels = generate_scenario(cfg)
        if method in ("sdr", "sca"):
            res = (sdr_ao if method == "sdr" else sca_ao)(channels, cfg)
        else:  # a uniform random profile; the empty one when N = 0 (no_irs)
            rng = np.random.default_rng(scenario_seed + 987654321)
            u = PhaseProfile(np.exp(-2j * np.pi * rng.random(cfg.N)))
            res = optimize_w_fixed_profile(channels, cfg, u)
        row = ResultRow(**identity, harvested_w=0.0, sr_bps_hz=res.achieved_sr,
                        iters=res.iters_outer, seconds=res.wall_clock, status=res.status,
                        trace=[float(x) for x in res.harvested_trace])
        if res.status != "Infeasible":
            row.harvested_w = harvested_power(res.w.w, res.u, channels, cfg.zeta)
            row.w, row.u = ([[float(x.real), float(x.imag)] for x in z]
                            for z in (res.w.w, res.u.u))
        return row
    except Exception as exc:  # a failed run becomes a row, never aborts the batch
        return ResultRow(**identity, harvested_w=0.0, sr_bps_hz=0.0, iters=0, seconds=0.0,
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

    # fork starts every worker at the first submit, so never more than the runs
    workers = min(spec.workers or os.cpu_count() or 1, len(tasks))
    if workers > 1:
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
        values = (getattr(r, f.name) for f in CSV_COLUMNS)
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in values))
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
            if len(parts) != len(CSV_COLUMNS):
                raise InvalidInput(f"bad CSV row: {line!r}")
            rows.append(ResultRow(**{f.name: f.type(p) for f, p in zip(CSV_COLUMNS, parts)}))
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
    keys = ("method", "seed", "sweep", "harvested_w", "sr_bps_hz", "w", "u", "trace")
    payload = [{k: getattr(r, k) for k in keys} for r in rows]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return Path(path)


def _emit_plots(spec, rows, out):
    """Per method, the median harvested power at each sweep point or iteration."""
    xlabel = SWEEPS[spec.mode][1]
    if xlabel is None:
        return
    convergence = spec.mode == "convergence"
    series = []
    for method in spec.methods:
        ok = [r for r in rows if r.method == method and r.status in OK_STATUSES]
        if convergence:  # a trace that ended early holds its last value
            traces = [r.trace for r in ok if r.trace]
            depth = max(map(len, traces), default=0)
            padded = [t + [t[-1]] * (depth - len(t)) for t in traces]
            points = dict(enumerate(zip(*padded)))
        else:
            points = {}
            for r in ok:
                points.setdefault(r.sweep, []).append(r.harvested_w)
        if points:
            xs = sorted(points)
            series.append((method, xs, [median(points[x]) for x in xs]))
    write_chart(out / f"{spec.mode}.svg", series, xlabel,
                "harvested power (W)" if convergence else "median harvested power (W)",
                "Convergence" if convergence else spec.mode)


def compare_complexity(rows):
    """Wall-clock and iteration comparison of the two solvers at matched
    instances.  The N = 0 points of an N sweep (no phase subproblem) are
    excluded; rows of other modes are kept whatever their N.  Returns a
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
