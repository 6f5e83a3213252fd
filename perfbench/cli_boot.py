"""Run ``avalg.cli.main`` with the benchmark's tracer installed.

    PERFBENCH_TRACE_OUT=PATH PERFBENCH_SPAWN_NS=NS python3 perfbench/cli_boot.py ARGS...

Behaves as ``python -m avalg ARGS...``.  On exit it writes the per-layer
summary to ``PATH.json`` and the spans to ``PATH.spans``.  ``NS`` is the
parent's ``time.monotonic_ns()`` just before the spawn, so the summary can
carry the time from spawn to ``main``.
"""

import json
import os
import sys
import time


def main():
    import avalg.cli

    import instrument

    caches = instrument.find_caches()
    tracer = instrument.Tracer().install()
    startup_ns = time.monotonic_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])
    try:
        code = avalg.cli.main(sys.argv[1:])
        sys.stdout.flush()
    finally:
        tracer.uninstall()
        out = os.environ["PERFBENCH_TRACE_OUT"]
        summary = tracer.summary()
        summary["startup_ns"] = startup_ns
        summary["caches"] = instrument.cache_layers(instrument.cache_state(caches))
        with open(out + ".json", "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        tracer.dump(out + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
