"""Write the reference outputs of fixed CLI batches, for a comparison
between two source trees.

    python tools/reference_outputs.py [--src PATH] OUT

runs, against the package under PATH (default: this repository's src/),
each with 2 workers and --dump-solutions:

- OUT/batch: sweep_n over N = 8, 24 at r0 = 3 with methods sdr, sca and
  no_irs, 12 seeds per point (the benchmark's batch at more seeds);
- OUT/paper: configs/paper.cfg in single mode at 4 seeds;
- OUT/edge: the desk layout at M = 3, N = 6, random initial phases and a
  cap of 3 outer rounds, sweep_sr over r0 = 1, 3, 9, 30 at 5 seeds, so that
  Converged, Infeasible and MaxIters rows all occur;
- OUT/small: the desk layout at M = 1, sweep_n over N = 0, 1, 2 at 5 seeds;
- OUT/convergence: M = 2, N = 8, r0 = 2 in convergence mode at 4 seeds;
- OUT/sweep_m: M = 2, N = 6, r0 = 2, sweep_m over its default (2, 4) at 3
  seeds;
- OUT/oracle/searches.txt: grid_search_joint, which no CLI mode reaches, on
  the benchmark's 96 desk instances (M = N = 2, r0 = 1, seeds 0-47 and
  100000-100047, 256 levels), on the desk layout at M 1-3, N 0-3, r0 0.01,
  1, 3, 6, seeds 0-2 and 2, 3 or 8 levels, and at M = 2, N = 3, 32 levels:
  one line per search, with the repr of the value, w and u or the name of
  the exception raised.

Every CLI run but batch uses all four methods.  The wall-clock columns,
`seconds` of results.csv and `median_seconds` of summary.csv, are removed,
so that

    diff -r OUT_A OUT_B

is empty exactly when two trees give the same outputs;
tools/compare_outputs.py OUT_A OUT_B accepts differences by rounding.
"""

import argparse
from pathlib import Path
import subprocess
import sys

REPO = Path(__file__).resolve().parent.parent
DESK_DISTANCES = dict(d_ap_bob=10.0, d_ap_eve=20.0, d_ap_ehr=6.0,
                      d_irs_bob=12.0, d_irs_eve=25.0, d_irs_ehr=4.0)
DESK = "".join(f"{k} = {v:g}\n" for k, v in DESK_DISTANCES.items())
ALL_METHODS = "methods = sdr, sca, random_phase, no_irs\n"
# run name: (config file text, or None for configs/paper.cfg; extra CLI arguments)
RUNS = {
    "batch": ("r0 = 3\nseed = 0\nmode = sweep_n\nmethods = sdr, sca, no_irs\n"
              "sweep = 8, 24\nseeds_per_point = 12\n", ()),
    "paper": (None, ("--mode", "single", "--seeds", "4")),
    "edge": (DESK + ALL_METHODS + "m = 3\nn = 6\nseed = 11\ninit_phases = random\n"
             "max_outer_iters = 3\nmode = sweep_sr\nsweep = 1, 3, 9, 30\n"
             "seeds_per_point = 5\n", ()),
    "small": (DESK + ALL_METHODS + "m = 1\nseed = 5\nmode = sweep_n\nsweep = 0, 1, 2\n"
              "seeds_per_point = 5\n", ()),
    "convergence": (ALL_METHODS + "m = 2\nn = 8\nr0 = 2\nseed = 3\nmode = convergence\n"
                    "seeds_per_point = 4\n", ()),
    "sweep_m": (ALL_METHODS + "m = 2\nn = 6\nr0 = 2\nseed = 7\nmode = sweep_m\n"
                "seeds_per_point = 3\n", ()),
}
TIMED_COLUMNS = {"results.csv": "seconds", "summary.csv": "median_seconds"}
# oracle searches: (M, N, r0, seed, phase levels) at DESK_DISTANCES
ORACLE_SEARCHES = (
    [(2, 2, 1.0, seed, 256) for seed in (*range(48), *range(100_000, 100_048))]
    + [(m, n, r0, seed, levels) for m in (1, 2, 3) for n in range(4)
       for r0 in (0.01, 1.0, 3.0, 6.0) for seed in range(3) for levels in (2, 3, 8)]
    + [(2, 3, 1.0, 0, 32)])
ORACLE_FILE = "searches.txt"


# The child imports the package from SRC only: an installed copy (say, the
# .pth entry of an editable install) must not stand in for it.
CHILD = """import sys
from pathlib import Path
src = Path(sys.argv.pop(1))
sys.path.insert(0, str(src))
import irs_swipt
if Path(irs_swipt.__file__).resolve().parent != src / "irs_swipt":
    sys.exit(f"imported irs_swipt from {irs_swipt.__file__}, not {src}")
if sys.argv[1] == "oracle":
    import runpy
    runpy.run_path(sys.argv[2])["write_searches"](Path(sys.argv[3]))
    sys.exit()
from irs_swipt.cli import main
sys.exit(main())
"""


def search_line(search):
    """One oracle search as a line: its parameters, then the repr of the
    value and of w's and u's entries, or the name of the exception raised.
    Imports the package at call time, so that the child's copy is used."""
    import irs_swipt as isw
    m, n, r0, seed, levels = search
    cfg = isw.ScenarioConfig(M=m, N=n, r0=r0, seed=seed, **DESK_DISTANCES)
    try:
        w, u, value = isw.grid_search_joint(isw.generate_scenario(cfg), cfg,
                                            isw.GridSpec(phase_levels=levels))
    except isw.IrsSwiptError as exc:
        return f"{search}\t{type(exc).__name__}"
    return f"{search}\t{float(value)!r}\t{[complex(x) for x in w]!r}\t{[complex(x) for x in u]!r}"


def write_searches(path):
    path.parent.mkdir(parents=True)
    path.write_text("".join(search_line(s) + "\n" for s in ORACLE_SEARCHES))


def run_oracle(src, path):
    subprocess.run([sys.executable, "-c", CHILD, str(src), "oracle", __file__, str(path)],
                   check=True)


def run_cli(src, config, out, *extra):
    # exit code 1 also flags Infeasible or Error rows, which belong in the outputs
    subprocess.run([sys.executable, "-c", CHILD, str(src), "run", "--config", str(config),
                    "--out", str(out), "--workers", "2", "--dump-solutions", *extra],
                   stdout=subprocess.DEVNULL)
    if not (out / "results.csv").exists():
        sys.exit(f"irs-swipt run --config {config} wrote no results under {src}")


def drop_column(path, name):
    lines = path.read_text().splitlines()
    k = lines[0].split(",").index(name)
    kept = [",".join(p for j, p in enumerate(line.split(",")) if j != k) for line in lines]
    path.write_text("\n".join(kept) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="the src/ tree holding the irs_swipt package")
    parser.add_argument("out", type=Path, help="output directory, which must not exist")
    args = parser.parse_args(argv)
    src, out = args.src.resolve(), args.out.resolve()
    if not (src / "irs_swipt" / "__init__.py").is_file():
        sys.exit(f"{src / 'irs_swipt'} is not a package; --src must be a src/ tree")
    out.mkdir(parents=True)  # a stale result would pass for a failed run

    for run, (text, extra) in RUNS.items():
        config = out / f"{run}.cfg"
        config.write_text(text or (REPO / "configs" / "paper.cfg").read_text())
        run_cli(src, config, out / run, *extra)
        config.unlink()
        for name, column in TIMED_COLUMNS.items():
            drop_column(out / run / name, column)
    run_oracle(src, out / "oracle" / ORACLE_FILE)


if __name__ == "__main__":
    main()
