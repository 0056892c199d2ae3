"""The workloads: fixed instance sets built from the workload seed, one
run of the package's public entry point per unit of work, and a check of
every output against ``irs_swipt.metrics``.

Instance seeds of workload seed s are s * SEED_STRIDE + k, so distinct seeds
give disjoint instance sets and seed 0 gives the paper's seed list 0, 1, ....
"""

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import irs_swipt as isw
import irs_swipt.cli  # noqa: F401  (isw.cli.main is looked up at call time)

from stats import AO_STATUSES, failure_reason

SEED_STRIDE = 100_000
# The warm-up instance is fixed, so that setup_s does not depend on the seed.
WARMUP_SEED = 4_999_999
DESK = dict(M=2, N=2, r0=1.0, d_ap_bob=10.0, d_ap_eve=20.0, d_ap_ehr=6.0,
            d_irs_bob=12.0, d_irs_eve=25.0, d_irs_ehr=4.0)
DESK_GRID = isw.GridSpec(phase_levels=256, subspace_points=1500, power_levels=1)
# Warm-up grid: the same code path at 1/300 of the work.
WARMUP_GRID = isw.GridSpec(phase_levels=32, subspace_points=200, power_levels=1)
BATCH_R0 = 3.0
BATCH_N = (8, 24)
BATCH_SEEDS = 6
# random_phase is left out: with four methods, exactly half the rows are the
# cheap baselines, so the median row time fell in the gap between the cheap
# and the costly rows and jumped from seed to seed.  no_irs still runs
# sca_w_step with no phase step.
BATCH_METHODS = ("sdr", "sca", "no_irs")
BATCH_WORKERS = 2


@dataclass
class Solve:
    """One solve as the benchmark saw it."""

    method: str
    seed: int
    status: str
    seconds: float
    iters: int = 0
    cap: int = 0
    harvested_w: float = None
    harvested_frac: float = None
    failure: str = None


def harvested_bound(cfg, channels):
    """zeta * Ps * (sum_i ||H_r[i, :]||)^2, an upper bound on the harvested
    power of any unit-modulus profile and budget-feasible beamformer."""
    rows = np.linalg.norm(channels.H_r, axis=1)
    return cfg.zeta * cfg.ps_w * float(np.sum(rows)) ** 2


def judge(method, cfg, channels, status, seconds, iters=0, w=None, u=None, trace=None,
          value=None, allowed=AO_STATUSES):
    """Check one returned solution and record it.  ``value`` is the harvested
    power the program reported for the pair, compared with our own."""
    feasible = power = frac = None
    misreported = False
    if w is not None and status in allowed and status != "Infeasible":
        u = u if isinstance(u, isw.PhaseProfile) else isw.PhaseProfile(u)
        power = isw.harvested_power(w, u, channels, cfg.zeta)
        feasible = bool(isw.check_feasible(w, u, cfg, channels))
        misreported = value is not None and not math.isclose(value, power, rel_tol=1e-9)
        frac = power / harvested_bound(cfg, channels)
    failure = failure_reason(status, feasible, trace, allowed)
    if failure is None and misreported:
        failure = "reported harvested power differs"
    if failure is None and status != "Infeasible" and power is None:
        failure = "no pair returned"
    return Solve(method, cfg.seed, status, seconds, iters, cfg.max_outer_iters,
                 power, frac, failure)


def _error(exc):
    return f"Error:{type(exc).__name__}: {exc}"


class Workload:
    """A fixed instance set; by default one unit of work is one in-process solve.

    ``shards`` serial solver processes run concurrently, shard k taking units
    k, k + shards, ...; ``min_units`` first units are solved by every run and
    form its quality panel; ``size`` instances exceed what a run can use.
    """

    units = "solves"

    def __init__(self, name, method, size, min_units, shards):
        self.name, self.method = name, method
        self.size, self.min_units, self.shards = size, min_units, shards

    def run(self, i, tracer=None):
        """Solve instance i; returns ([Solve], wall seconds)."""
        cfg, channels = self.instances[i % self.size]
        if tracer is None:
            solve = self._solve(cfg, channels)
        else:
            with tracer.root("bench.solve", f"solve:{i}"):
                solve = self._solve(cfg, isw.generate_scenario(cfg))
        return [solve], solve.seconds


class AoWorkload(Workload):
    """One alternating-optimization solver at the paper setup (M=4, N=50, r0=1)."""

    def setup(self, seed, work_dir):
        self.instances = []
        for k in range(self.size):
            cfg = isw.ScenarioConfig(seed=seed * SEED_STRIDE + k)
            self.instances.append((cfg, isw.generate_scenario(cfg)))
        cfg = isw.ScenarioConfig(seed=WARMUP_SEED)
        self._solve(cfg, isw.generate_scenario(cfg))

    def _solve(self, cfg, channels):
        solver = isw.sdr_ao if self.method == "sdr" else isw.sca_ao
        t0 = time.perf_counter()
        try:
            res = solver(channels, cfg)
        except Exception as exc:  # a raising solve is a counted failure
            return judge(self.method, cfg, channels, _error(exc), time.perf_counter() - t0)
        seconds = time.perf_counter() - t0
        return judge(self.method, cfg, channels, res.status, seconds, res.iters_outer,
                     res.w.w, res.u, res.harvested_trace)


class OracleWorkload(Workload):
    """grid_search_joint at the desk geometry and grid of acceptance criterion 2."""

    units = "grid searches"
    candidates = DESK_GRID.phase_levels ** DESK["N"] * DESK_GRID.subspace_points \
        * DESK_GRID.power_levels  # nominal: the grid asks for this many directions

    def setup(self, seed, work_dir):
        self.instances = []
        for k in range(self.size):
            cfg = isw.ScenarioConfig(seed=seed * SEED_STRIDE + k, **DESK)
            self.instances.append((cfg, isw.generate_scenario(cfg)))
        cfg = isw.ScenarioConfig(seed=WARMUP_SEED, **DESK)
        isw.grid_search_joint(isw.generate_scenario(cfg), cfg, WARMUP_GRID)

    def _solve(self, cfg, channels):
        t0 = time.perf_counter()
        try:
            w, u, value = isw.grid_search_joint(channels, cfg, DESK_GRID)
        except Exception as exc:  # a raising solve is a counted failure
            return judge("oracle", cfg, channels, _error(exc), time.perf_counter() - t0,
                         allowed=("Optimal",))
        seconds = time.perf_counter() - t0
        return judge("oracle", cfg, channels, "Optimal", seconds, w=w, u=u, value=value,
                     allowed=("Optimal",))


class BatchWorkload(Workload):
    """``irs-swipt run`` in sweep_n mode, N in {8, 24}, r0 = 3, methods sdr,
    sca and no_irs, two pool workers; one unit of work is one whole batch."""

    units = "batches"
    workers = BATCH_WORKERS

    def _write_config(self, path, base_seed, seeds_per_point):
        path.write_text(f"r0 = {BATCH_R0:g}\nseed = {base_seed}\nmode = sweep_n\n"
                        f"methods = {', '.join(BATCH_METHODS)}\n"
                        f"sweep = {', '.join(str(n) for n in BATCH_N)}\n"
                        f"seeds_per_point = {seeds_per_point}\n")
        return path

    def setup(self, seed, work_dir):
        self.work_dir = Path(work_dir)
        self.configs = [self._write_config(self.work_dir / f"batch-{j}.cfg",
                                           seed * SEED_STRIDE + j * BATCH_SEEDS, BATCH_SEEDS)
                        for j in range(self.size)]
        warm = self._write_config(self.work_dir / "warmup.cfg", WARMUP_SEED, 1)
        self._batch(warm, self.work_dir / "warmup")

    def _batch(self, config, out):
        argv = ["run", "--config", str(config), "--out", str(out),
                "--workers", str(BATCH_WORKERS), "--dump-solutions"]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            isw.cli.main(argv)  # exit code 1 only flags Infeasible/Error rows, judged below
        wall = time.perf_counter() - t0
        rows = isw.parse_csv(out / "results.csv")
        with open(out / "solutions.json") as fh:
            dumped = json.load(fh)
        shutil.rmtree(out)
        return rows, dumped, wall

    def run(self, j, tracer=None):
        """Run batch j; returns ([Solve] per results.csv row, wall seconds)."""
        out = self.work_dir / f"out-{j}"
        if tracer is None:
            rows, dumped, wall = self._batch(self.configs[j % self.size], out)
        else:
            with tracer.root("bench.batch", f"batch:{j}"):
                rows, dumped, wall = self._batch(self.configs[j % self.size], out)
        if len(rows) != len(dumped):
            raise RuntimeError("results.csv and solutions.json disagree on the row count")
        return [self._judge_row(row, sol) for row, sol in zip(rows, dumped)], wall

    def _judge_row(self, row, sol):
        n = 0 if row.method == "no_irs" else int(round(row.sweep))
        cfg = isw.ScenarioConfig(r0=BATCH_R0, N=n, seed=row.seed)
        channels = isw.generate_scenario(cfg)
        if (sol["method"], sol["seed"], sol["sweep"]) != (row.method, row.seed, row.sweep):
            return Solve(row.method, row.seed, row.status, row.seconds, row.iters,
                         cfg.max_outer_iters, failure="solutions.json row mismatch")
        to_c = lambda pairs: None if pairs is None else np.array([complex(*p) for p in pairs])
        return judge(row.method, cfg, channels, row.status, row.seconds, row.iters,
                     to_c(sol["w"]), to_c(sol["u"]), sol["trace"], value=row.harvested_w)


def make(name):
    """The workload called ``name``.

    The solver workloads run two shards (= nproc): a solve's cost varies by
    about 50% between instances, so a steady run needs about twice the
    instances one serial process gets through.  The oracle needs ~0.5 GB per
    process and costs the same on every instance, and the batch has its own
    pool of two, so those run one shard.
    """
    if name == "sdr_paper":
        return AoWorkload(name, "sdr", size=150, min_units=40, shards=2)
    if name == "sca_paper":
        return AoWorkload(name, "sca", size=500, min_units=128, shards=2)
    if name == "oracle_desk":
        return OracleWorkload(name, "oracle", size=24, min_units=3, shards=1)
    if name == "batch_small_n":
        return BatchWorkload(name, "batch", size=40, min_units=6, shards=1)
    raise ValueError(f"unknown workload {name!r}")
