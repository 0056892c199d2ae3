"""Compare two reference-output trees of tools/reference_outputs.py within
the solver tolerance.

    python tools/compare_outputs.py A B

The two trees must hold the same runs, at least one.  For each run, results.csv must list
the same rows in the same order with identical method, seed, sweep,
variable, iters and status; harvested_w and sr_bps_hz may differ by
rounding.  An oracle run's searches.txt must list the same searches in the
same order, each with the same outcome and, where it has one, the same
profile u and a value within ORACLE_TOL relative (w is not compared: the
value is its harvested power).  Prints, per run, how many rows differ and
the worst relative difference of each value column.  Exits 1 on different
runs, on a key, iters, status, outcome or profile mismatch, on a relative
difference above sdp.DEFAULT_TOL (ORACLE_TOL for the oracle's values), or
on a value that differs and is not finite on either side.
"""

import ast
import csv
import math
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from irs_swipt.sdp import DEFAULT_TOL  # noqa: E402

KEYS = ("method", "seed", "sweep", "variable", "iters", "status")
VALUES = ("harvested_w", "sr_bps_hz")
ORACLE_FILE = "searches.txt"
ORACLE_TOL = 1e-12


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
    return sorted(p.parent.name for name in ("results.csv", ORACLE_FILE)
                  for p in tree.glob(f"*/{name}"))


def read_searches(path):
    """(search, outcome, value, u) per line of an oracle run: the outcome is
    "value", or the name of the exception raised, and then value and u are None."""
    searches = []
    for line in path.read_text().splitlines():
        search, *result = line.split("\t")
        if len(result) == 1:
            searches.append((search, result[0], None, None))
        else:
            searches.append((search, "value", result[0], ast.literal_eval(result[2])))
    return searches


def compare_searches(run, a, b):
    """Print the comparison of two oracle runs; True when they agree."""
    searches = [read_searches(tree / run / ORACLE_FILE) for tree in (a, b)]
    keys = [[(search, outcome, u) for search, outcome, _, u in x] for x in searches]
    if keys[0] != keys[1]:
        print(f"{run}: the searches differ in search, outcome or u")
        return False
    worst = max((rel_diff(x[2], y[2]) for x, y in zip(*searches) if x[1] == "value"),
                default=0.0)
    differ = sum(x != y for x, y in zip(*searches))
    print(f"{run}: {differ} of {len(keys[0])} searches differ; worst relative difference "
          f"value {worst:.3g}")
    return worst <= ORACLE_TOL


def compare(a, b):
    """Print the comparison of two trees; True when they agree."""
    names = runs(a)
    if not names or runs(b) != names:
        print(f"the trees hold different runs, or none: {', '.join(names)} against "
              f"{', '.join(runs(b))}")
        return False
    ok = True
    for run in names:
        if (a / run / ORACLE_FILE).exists():
            ok = compare_searches(run, a, b) and ok
            continue
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
