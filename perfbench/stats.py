"""Order statistics used by every report of the benchmark."""

import math
import statistics

# The tail is reported only where it rests on at least this many
# samples beyond it; fewer and one outlier decides it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile ``q`` in (0, 100] of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n, beyond=TAIL_BEYOND):
    """The highest whole percentile in [50, 99] that leaves at least
    ``beyond`` of ``n`` samples above its nearest rank, or None when
    even the median does not."""
    best = None
    for q in range(50, 100):
        if n - math.ceil(q / 100.0 * n) >= beyond:
            best = q
    return best


def tail(values, beyond=TAIL_BEYOND):
    """``(value, percentile, samples)`` of the tail of ``values``; the
    value and percentile are None when there are too few samples."""
    q = tail_percentile(len(values), beyond)
    if q is None:
        return None, None, len(values)
    return percentile(values, q), q, len(values)


def spread(values):
    """Median, first and third quartile and count of repeated runs."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "runs": 1}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values)}
