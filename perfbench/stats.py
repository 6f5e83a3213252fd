"""Small statistics shared by the benchmark's processes."""

import math
import statistics
import time

TAIL_BEYOND = 10
# Above p99.9 a pass's slowest ops are the interpreter's full garbage
# collections (seven per operad pass) and host preemptions, not the workload;
# the eleventh slowest of 76k operad ops moved by a factor of two between
# runs of one seed.
TAIL_CAP = 99.9


def tail_percentile(pass_sizes):
    """The highest percentile that leaves ``TAIL_BEYOND`` ops of every pass
    above it, capped at ``TAIL_CAP``."""
    return min(100.0 * (1 - TAIL_BEYOND / min(pass_sizes)), TAIL_CAP)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered) - 1e-9)
    return ordered[max(rank - 1, 0)]


def fit_exponent(points):
    """Least-squares slope of log(median time) against log(size).

    ``points`` maps a size to its list of times; at least three sizes.
    """
    xs = sorted(points)
    if len(xs) < 3:
        raise ValueError("a scaling exponent needs at least three sizes")
    lx = [math.log(x) for x in xs]
    ly = [math.log(statistics.median(points[x])) for x in xs]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


# ---------------------------------------------------------------------------
# Host speed.  On shared virtual machines the CPU speed drifts by a quarter
# and more over seconds to minutes, for all code alike.  A fixed piece of
# plain Python, timed between ops, tracks that drift; times are reported as
# they would read at the reference speed, where it takes REFERENCE_NS.

REFERENCE_NS = 1_000_000
CALIBRATE_EVERY_NS = 100_000_000


_CALIBRATION_TABLE = {i: i * i for i in range(64)}


def calibrate():
    """Wall time of a fixed piece of plain Python in ns; the median of three
    timings, so that one preempted timing does not count.  It allocates only
    ints and strings, which the cyclic garbage collector does not track, so it
    does not move the collections of the workload around it."""
    table = _CALIBRATION_TABLE
    times = []
    for _ in range(3):
        began = time.perf_counter_ns()
        total = 0
        for i in range(2500):
            total += len(str(i * 7919 % 100003)) + table.get(i % 97, 1) % 13
        times.append(time.perf_counter_ns() - began)
    return statistics.median(times)


def speed_factors(count, samples):
    """Per op, the host slowness around it relative to the reference.

    ``samples`` holds ``(position, ns)`` calibration readings, a reading at
    position ``k`` being taken just before op ``k``.  An op uses the median of
    the five readings around it, which smooths out the jitter of one reading.
    """
    factors = []
    k = 0
    for i in range(count):
        while k + 1 < len(samples) and samples[k + 1][0] <= i:
            k += 1
        around = [ns for _, ns in samples[max(k - 2, 0):k + 3]]
        factors.append(statistics.median(around) / REFERENCE_NS)
    return factors
