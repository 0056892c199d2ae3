"""Compare two reference-output trees of tools/reference_outputs.py within
the solver tolerance.

    python tools/compare_outputs.py A B

For each run, batch and paper, results.csv must list the same rows in the
same order with identical method, seed, sweep, variable, iters and status;
harvested_w and sr_bps_hz may differ by rounding.  Prints, per run, how many
rows differ and the worst relative difference of each value column.  Exits 1
on a key, iters or status mismatch, or on a relative difference above
sdp.DEFAULT_TOL.
"""

import csv
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from irs_swipt.sdp import DEFAULT_TOL  # noqa: E402

KEYS = ("method", "seed", "sweep", "variable", "iters", "status")
VALUES = ("harvested_w", "sr_bps_hz")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rel_diff(a, b):
    a, b = float(a), float(b)
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def compare(a, b):
    """Print the comparison of two trees; True when they agree."""
    ok = True
    for run in ("batch", "paper"):
        rows = [read_rows(tree / run / "results.csv") for tree in (a, b)]
        if [[r[k] for k in KEYS] for r in rows[0]] != [[r[k] for k in KEYS] for r in rows[1]]:
            print(f"{run}: the rows differ in {', '.join(KEYS)}")
            ok = False
            continue
        worst = {v: max((rel_diff(x[v], y[v]) for x, y in zip(*rows)), default=0.0)
                 for v in VALUES}
        differ = sum(x != y for x, y in zip(*rows))
        print(f"{run}: {differ} of {len(rows[0])} rows differ; worst relative difference "
              + ", ".join(f"{v} {worst[v]:.3g}" for v in VALUES))
        ok = ok and max(worst.values()) <= DEFAULT_TOL
    return ok


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    return 0 if compare(*map(Path, argv)) else 1


if __name__ == "__main__":
    sys.exit(main())
