"""The avalg benchmark: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, one after another
    python3 perfbench/run.py --smoke        # every workload, both modes, tiny sizes

Run it from the repository root; avalg is imported from ``src``.  Every
workload is a closed loop with one caller: one pass of seeded ops runs in a
fresh process (``tables``: one process per op), and passes repeat until
``--seconds`` have gone by.  Each pass starts with cold caches, as a script or
a CLI call does.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` pass 0 runs once untraced and once traced, and it reports the
per-layer metrics.  Earlier lines print every metric with its unit, the
failures, the tail percentile and the environment.  Each result is also
appended to ``.perfbench/results.jsonl``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("algebra", "rewrite", "operad", "tables")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("words.parse_word.calls", "count"),
    ("words.parse_word.self_s", "s"),
    ("words.render_word.calls", "count"),
    ("words.render_word.self_s", "s"),
    ("words.AveragingWord.validations", "count"),
    ("words.AveragingWord.self_s", "s"),
    ("words.BracketedWord.constructed", "count"),
    ("words.hash_calls", "count"),
    ("words.cache_entries", "count"),
    ("algebra.reduce.calls", "count"),
    ("algebra.reduce.self_s", "s"),
    ("algebra.diamond.self_s", "s"),
    ("algebra.apply_p.self_s", "s"),
    ("algebra.lincomb_mul.self_s", "s"),
    ("algebra.universal_map.self_s", "s"),
    ("algebra.reduce.exp_depth", "1"),
    ("algebra.reduce.exp_breadth", "1"),
    ("algebra.rewrite_reduce.calls", "count"),
    ("algebra.rewrite_reduce.self_s", "s"),
    ("algebra.rewrite_reduce.exp_depth", "1"),
    ("algebra.cache_entries", "count"),
    ("instances.multiply.calls", "count"),
    ("instances.multiply.self_s", "s"),
    ("instances.operator.self_s", "s"),
    ("instances.check.self_s", "s"),
    ("instances.cache_entries", "count"),
    ("enumeration.census.self_s", "s"),
    ("enumeration.series.self_s", "s"),
    ("enumeration.schroeder.self_s", "s"),
    ("enumeration.words_generated", "count"),
    ("enumeration.cache_entries", "count"),
    ("enumeration.cache_hit_ratio", "1"),
    ("trees.phi.calls", "count"),
    ("trees.phi.self_s", "s"),
    ("trees.phi_inverse.self_s", "s"),
    ("trees.AveragingTree.validations", "count"),
    ("trees.AveragingTree.self_s", "s"),
    ("trees.hash_calls", "count"),
    ("trees.enumerate_schroeder.self_s", "s"),
    ("trees.cache_entries", "count"),
    ("operad.compose.calls", "count"),
    ("operad.compose.self_s", "s"),
    ("operad.memo_lookup_s", "s"),
    ("operad.memo_hit_ratio", "1"),
    ("operad.cache_entries", "count"),
    ("cli.startup_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "B"),
    ("cli.census.wall_s", "s"),
    ("cli.series.wall_s", "s"),
    ("cli.schroeder.wall_s", "s"),
    ("cli.schroeder-trees.wall_s", "s"),
    ("cli.check-instance.wall_s", "s"),
    ("cli.normalize.wall_s", "s"),
    ("cli.compose.wall_s", "s"),
    ("cli.word2tree.wall_s", "s"),
    ("cli.cache_entries", "count"),
    ("trace.ops_per_s_untraced", "ops/s"),
    ("trace.ops_per_s_traced", "ops/s"),
    ("trace.overhead_ratio", "1"),
    ("trace.uncovered_share", "1"),
)


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha():
    """HEAD of the checkout, read without running git; "unknown" outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# In-process workloads: one worker process per pass

def run_worker(workload, seed, pass_index, scale, trace_path=None, setup_only=False):
    """Spawn a worker; returns ((seconds from spawn to READY, calibration
    reading taken just before the spawn), result or None)."""
    import stats

    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--pass", str(pass_index), "--scale", scale]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    if setup_only:
        argv.append("--setup-only")
    calibration = stats.calibrate()
    began = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env())
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - began
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if ready.strip() != b"READY" or code != 0:
        raise BenchError(f"worker {workload} pass {pass_index} exited {code}")
    if setup_only:
        return (setup, calibration), None
    return (setup, calibration), json.loads(rest.splitlines()[-1])


def measure_inprocess(workload, seed, seconds, scale):
    passes, setups = [], []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < seconds:
        setup, result = run_worker(workload, seed, len(passes), scale)
        setups.append(setup)
        passes.append(result)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, len(setups), scale, setup_only=True)[0])
    return passes, setups


def trace_inprocess(workload, seed, scale, trace_dir):
    _, plain = run_worker(workload, seed, 0, scale)
    _, traced = run_worker(workload, seed, 0, scale,
                           trace_path=trace_dir / f"{workload}.spans")
    summary = traced["trace"]
    summary["caches"] = traced["caches"]
    special = dict(traced["exponents"])
    if traced["memo"] is not None:
        hits, lookups = traced["memo"]
        special["operad.memo_hit_ratio"] = hits / lookups
    return plain, traced, summary, special


# ---------------------------------------------------------------------------
# tables: CLI processes driven from this process

def tables_context(scale, tmp):
    import tables

    return tables.Tables(scale, tmp, child_env(), CHILD_TIMEOUT_S)


def measure_tables(seed, seconds, scale, tmp):
    import workloads

    ctx = tables_context(scale, tmp)
    setups = [ctx.setup_time() for _ in range(SETUP_SAMPLES)]
    passes = []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < seconds:
        passes.append(ctx.run_pass(workloads.pass_rng(seed, "tables", len(passes))))
    return passes, setups


def trace_tables(seed, scale, tmp, trace_dir):
    import tables
    import workloads

    ctx = tables_context(scale, tmp)
    plain = ctx.run_pass(workloads.pass_rng(seed, "tables", 0))
    child_dir = trace_dir / "tables"
    shutil.rmtree(child_dir, ignore_errors=True)
    child_dir.mkdir(parents=True)
    traced = ctx.run_pass(workloads.pass_rng(seed, "tables", 0), trace_dir=child_dir)
    summary = tables.merge_children(traced["children"])
    special = {"cli.startup_s": summary["startup_s"], "cli.stdout_bytes": traced["stdout_bytes"]}
    for kind, wall in traced["command_wall_s"].items():
        special[f"cli.{kind}.wall_s"] = wall
    return plain, traced, summary, special


# ---------------------------------------------------------------------------
# Metrics

def at_reference_speed(p):
    """(latencies, wall) of a pass in ns, scaled by its calibration readings."""
    import stats

    factors = stats.speed_factors(p["ops"], p["calibration"])
    scaled = [ns / f for ns, f in zip(p["latencies_ns"], factors)]
    return scaled, p["wall_ns"] * sum(scaled) / sum(p["latencies_ns"])


def end_to_end(passes, setups):
    """The end-to-end metrics, every time scaled to the reference host speed."""
    import stats

    ops = sum(p["ops"] for p in passes)
    pooled, wall_ns = [], 0
    for p in passes:
        scaled, wall = at_reference_speed(p)
        pooled += scaled
        wall_ns += wall
    raw_wall_ns = sum(p["wall_ns"] for p in passes)
    sizes = [p["ops"] for p in passes]
    tail_pct = stats.tail_percentile(sizes)
    values = {
        "ops_per_s": ops / (wall_ns / 1e9),
        "latency_p50_ms": statistics.median(pooled) / 1e6,
        "latency_tail_ms": stats.percentile(pooled, tail_pct) / 1e6,
        "setup_s": statistics.median(s * stats.REFERENCE_NS / c for s, c in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    notes = {
        "ops_per_s": (f"at reference speed; as timed {ops / (raw_wall_ns / 1e9):.6g} ops/s, "
                      f"the host ran at {raw_wall_ns / wall_ns:.3f} x the reference time"),
        "latency_tail_ms": (f"p{tail_pct:.3f} over {len(pooled)} ops of {len(passes)} passes, "
                            f"{len(pooled) - math.ceil(tail_pct / 100 * len(pooled) - 1e-9)} "
                            f"of them above it"),
        "latency_p50_ms": f"over {len(pooled)} ops",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": f"median over {len(passes)} passes of the largest process",
    }
    return values, notes


def per_layer(summary, special, plain, traced):
    """Every PER_LAYER value from a traced summary; 0 where a layer did no work."""
    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif field in ("calls", "validations"):
            values[name] = summary["calls"].get(base, 0)
        elif field == "self_s":
            values[name] = summary["self_ns"].get(base, 0) / 1e9
        elif field == "cache_entries":
            values[name] = summary["caches"].get(base, [0, 0, 0])[2]
        else:
            values[name] = summary["counts"].get(name, 0)
    hits, misses, _ = summary["caches"].get("enumeration", [0, 0, 0])
    values["enumeration.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    values["operad.memo_lookup_s"] = summary["total_ns"].get("operad.memo_lookup", 0) / 1e9
    untraced = plain["ops"] / (at_reference_speed(plain)[1] / 1e9)
    traced_rate = traced["ops"] / (at_reference_speed(traced)[1] / 1e9)
    values["trace.ops_per_s_untraced"] = untraced
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_ratio"] = untraced / traced_rate
    values["trace.uncovered_share"] = max(0.0, 1 - summary["root_ns"] / traced["wall_ns"])
    return values


# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace, scale):
    """Measure one workload; returns (result line, printable lines, record)."""
    import reference

    problems = []
    try:
        reference.check_recurrence()
    except AssertionError as exc:
        problems.append(str(exc))
    WORKDIR.mkdir(exist_ok=True)
    trace_dir = WORKDIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORKDIR))
    try:
        if trace:
            if workload == "tables":
                plain, traced, summary, special = trace_tables(seed, scale, tmp, trace_dir)
            else:
                plain, traced, summary, special = trace_inprocess(workload, seed, scale, trace_dir)
            passes = [plain, traced]
            values = per_layer(summary, special, plain, traced)
            units = dict(PER_LAYER)
            notes = {name: "the workload does not exercise it" for name, v in values.items()
                     if v == 0}
        else:
            if workload == "tables":
                passes, setups = measure_tables(seed, seconds, scale, tmp)
            else:
                passes, setups = measure_inprocess(workload, seed, seconds, scale)
            values, notes = end_to_end(passes, setups)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems += [msg for p in passes for msg in p["problems"]]
    failures = [msg for p in passes for msg in p["failures"]]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    env = environment(seed)
    lines = [f"env {json.dumps(env)} workload={workload} trace={trace} scale={scale}"]
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    lines.append(f"failed_ratio {failed / attempted:.6g} 1  ({failed} of {attempted} ops)")
    lines += [f"FAILED {msg}" for msg in failures[:10]]
    lines += [f"PROBLEM {msg}" for msg in problems]
    record = dict(result, env=env, workload=workload, trace=trace, scale=scale,
                  seconds=seconds, passes=len(passes), problems=problems,
                  failures=failures[:10], time=time.time())
    return result, lines, record


def emit(result, lines, record):
    for line in lines:
        print(line)
    with open(WORKDIR / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="default: every workload, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="default 0; with --smoke both")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    args = parser.parse_args(argv)
    if not (SRC / "avalg" / "__init__.py").is_file():
        print(f"perfbench: no avalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = [args.workload] if args.workload else WORKLOADS
    traces = [args.trace] if args.trace is not None else [0, 1] if args.smoke else [0]
    try:
        for workload in names:
            for trace in traces:
                emit(*run(workload, args.seed, 0 if args.smoke else args.seconds, trace,
                          "smoke" if args.smoke else "full"))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
