"""Compare two reference-output trees of tools/reference_outputs.py within
the solver tolerance.

    python tools/compare_outputs.py A B

The two trees must hold the same runs, at least one.  For each run, results.csv must list
the same rows in the same order with identical method, seed, sweep,
variable, iters and status; harvested_w and sr_bps_hz may differ by
rounding.  Prints, per run, how many rows differ and the worst relative
difference of each value column.  Exits 1 on different runs, on a key,
iters or status mismatch, on a relative difference above sdp.DEFAULT_TOL,
or on a value that differs and is not finite on either side.
"""

import csv
import math
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
    """Relative difference of two CSV values; inf when they differ and
    either is not finite (max() would drop a NaN that does not come first)."""
    if a == b:
        return 0.0
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def runs(tree):
    return sorted(p.parent.name for p in tree.glob("*/results.csv"))


def compare(a, b):
    """Print the comparison of two trees; True when they agree."""
    names = runs(a)
    if not names or runs(b) != names:
        print(f"the trees hold different runs, or none: {', '.join(names)} against "
              f"{', '.join(runs(b))}")
        return False
    ok = True
    for run in names:
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
