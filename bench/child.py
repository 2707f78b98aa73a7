"""One benchmark run in a fresh process: set up, call popnetgen once, report.

    python3 child.py '<spec json>' <spawned>

The spec names the mode ("setup", "generate" or "stats"), the plan, the
population size and seed, the output or input directory, the result file
and whether to trace.  ``spawned`` is the parent's time.monotonic() just
before it started this process; both clocks are CLOCK_MONOTONIC, so set-up
time counts interpreter start.  The result file holds setup_s, run_s,
peak_rss_mb and, when traced, the span summary and counters.  The exit code
is popnetgen's.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    spawned = float(argv[1])
    mode = spec["mode"]
    traced = spec.get("trace", False)

    from tracing import Tracer, instrument

    tracer = Tracer()
    from popnetgen import cli
    from popnetgen.plan import load_plan, validate_plan

    if spec.get("plan"):
        with tracer.span("plan.load_validate"):
            plan = load_plan(spec["plan"])
            issues = validate_plan(plan)
        if any(issue.severity == "error" for issue in issues):
            print("\n".join(map(str, issues)), file=sys.stderr)
            return cli.EXIT_INVALID
    setup_s = time.monotonic() - spawned

    code = cli.EXIT_OK
    run_s = 0.0
    if mode != "setup":
        if traced:
            instrument(tracer)
        start = time.perf_counter()
        with tracer.span("run"):
            if mode == "generate":
                cli.run(plan, seed=spec["seed"], population=spec["population"], out=spec["out"])
            else:
                code = cli.main(["stats", spec["input"]])
        run_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        result["spans"] = tracer.summary()
        result["counters"] = tracer.counters
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
