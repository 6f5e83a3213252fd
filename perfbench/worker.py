"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --pass K --scale full
        [--trace SPANS_PATH] [--setup-only]

Set-up (interpreter start, ``import avalg``, seeded inputs, fixtures) ends
with a ``READY`` line on stdout, which the parent times.  The pass then runs
and the last stdout line is one JSON object with the latencies, the checks
and, when traced, the per-layer summary.  avalg must be importable, which
the parent arranges through ``PYTHONPATH``.
"""

import argparse
import json
import resource
import sys


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import instrument
    import workloads

    size = workloads.SIZES[args.scale]
    ops = workloads.BUILDERS[args.workload](
        workloads.pass_rng(args.seed, args.workload, args.pass_index), size)
    caches = instrument.find_caches()
    after_setup = instrument.cache_state(caches)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = instrument.Tracer().install() if args.trace else None
    problems = []
    if instrument.cache_state(caches) != after_setup:
        problems.append("caches changed between set-up and the timed phase")
    outputs, latencies, wall_ns, memo, calibration = workloads.run_pass(
        args.workload, ops, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache_layers = instrument.cache_layers(instrument.cache_state(caches))
    if tracer is not None:
        tracer.uninstall()
    failures, pass_problems = workloads.check(args.workload, ops, outputs, memo)
    result = {
        "ops": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "problems": problems + pass_problems,
        "wall_ns": wall_ns,
        "latencies_ns": latencies,
        "calibration": calibration,
        "peak_rss_kb": peak_kb,
        "caches": cache_layers,
        "memo": None if memo is None else [memo.hits, memo.lookups],
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["exponents"] = exponents(args.workload, ops, tracer)
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


# family -> (span whose outermost calls are timed, metric name)
EXPONENTS = {
    ("algebra", "depth"): ("algebra.reduce", "algebra.reduce.exp_depth"),
    ("algebra", "breadth"): ("algebra.reduce", "algebra.reduce.exp_breadth"),
    ("rewrite", "depth"): ("algebra.rewrite_reduce", "algebra.rewrite_reduce.exp_depth"),
}


def exponents(workload, ops, tracer):
    """Scaling exponent per family, from the spans of the family's ops."""
    import stats
    import workloads

    out = {}
    for (wl, family), (span, metric) in EXPONENTS.items():
        if wl != workload:
            continue
        points = {}
        for op_index, ns in tracer.root_durations(span):
            tag = workloads.tag_of(ops[op_index]) if op_index >= 0 else None
            if tag is not None and tag[0] == family:
                points.setdefault(tag[1], []).append(ns)
        out[metric] = stats.fit_exponent(points)
    return out


if __name__ == "__main__":
    sys.exit(main())
