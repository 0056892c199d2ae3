"""Command-line experiment runner.

    irs-swipt run --config scenario.cfg --mode sweep_sr --out results/ \
        [--seeds K] [--dump-solutions] [--verbose] [--workers W]

Exit code 0 iff every run ended Converged or MaxIters, 1 when some run did
not, and 2 on bad input (an unreadable or invalid config, a bad option).
"""

import argparse
import sys

from .config import parse_config
from .errors import InvalidInput
from .experiments import MODES, ExperimentSpec, OK_STATUSES, compare_complexity, run_experiment


def build_parser():
    parser = argparse.ArgumentParser(
        prog="irs-swipt",
        description="Secure SWIPT downlink experiments: joint transmit beamforming "
                    "and IRS phase-shift optimization for harvested power.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment batch from a config file")
    run.add_argument("--config", required=True, help="key/value config file")
    run.add_argument("--mode", default=None,
                     help="override mode: " + " | ".join(MODES))
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--seeds", type=int, default=None, help="override seeds per sweep point")
    run.add_argument("--dump-solutions", action="store_true",
                     help="also write solutions.json with (w, u) per run")
    run.add_argument("--verbose", action="store_true", help="print one line per run")
    run.add_argument("--workers", type=int, default=0, help="worker processes (0 = per CPU)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        base, exp_kwargs = parse_config(args.config)
        if args.mode is not None:
            exp_kwargs["mode"] = args.mode
        if args.seeds is not None:
            exp_kwargs["seeds_per_point"] = args.seeds
        spec = ExperimentSpec(base=base, out_dir=args.out, dump_solutions=args.dump_solutions,
                              verbose=args.verbose, workers=args.workers, **exp_kwargs)
    except (InvalidInput, OSError) as exc:
        parser.error(str(exc))  # exit code 2, as for a bad option
    rows = run_experiment(spec)

    summary = compare_complexity(rows)
    if summary.get("points"):
        print("sdr/sca wall-clock ratio by sweep point:")
        for sweep, p in summary["points"].items():
            print(f"  {sweep:g}: ratio {p['time_ratio']:.2f} "
                  f"(sdr {p['sdr_median_seconds']:.3f}s / sca {p['sca_median_seconds']:.3f}s, "
                  f"iters {p['sdr_median_iters']:g} vs {p['sca_median_iters']:g})")
    bad = [r for r in rows if r.status not in OK_STATUSES]
    print(f"{len(rows)} runs, {len(rows) - len(bad)} ok, results in {spec.out_dir}")
    if bad:
        statuses = sorted({r.status for r in bad})
        print(f"non-ok statuses: {', '.join(statuses)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
