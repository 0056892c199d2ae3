"""The benchmark's own arithmetic: failure rule, percentiles, means, spread.

Pure functions on plain numbers, so they can be tested without running a
solver.
"""

import math
import statistics

AO_STATUSES = ("Converged", "MaxIters", "Infeasible")
MONOTONE_RTOL = 1e-8  # relative tolerance of acceptance criterion 1
P75_MIN_SAMPLES = 40  # p75 needs >= 10 samples beyond it


def is_monotone(trace, rtol=MONOTONE_RTOL):
    """True if trace never drops by more than rtol relative to the previous value."""
    return all(b >= a * (1.0 - rtol) for a, b in zip(trace, trace[1:]))


def failure_reason(status, pair_feasible, trace, allowed=AO_STATUSES):
    """Why a solve failed, or None if it counts as good.

    A solve fails if it raised or returned ``Error:*``, returned a status
    outside ``allowed``, returned a non-``Infeasible`` pair that failed the
    feasibility check, or returned a trace that is not non-decreasing.
    ``pair_feasible`` and ``trace`` may be None when there is nothing to check.
    """
    if status.startswith("Error:"):
        return status
    if status not in allowed:
        return f"status {status}"
    if status != "Infeasible" and pair_feasible is False:
        return "infeasible pair"
    if trace is not None and not is_monotone(trace):
        return "non-monotone trace"
    return None


def p75(samples):
    """75th percentile, or None when fewer than P75_MIN_SAMPLES samples exist
    (so that at least ten samples lie beyond it)."""
    if len(samples) < P75_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=4)[2]


def gmean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
