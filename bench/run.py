"""popnetgen benchmark: end-to-end and per-layer numbers for two workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each popnetgen call runs in a fresh
single-threaded Python process (bench/child.py), one at a time: a closed
loop with one client.  Within ``--seconds`` the benchmark repeats the call
on the same inputs, checks every output, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics from separately
traced calls with ``--trace 1``.

A call that exits non-zero or fails an output check counts in ``failed``,
so the failed share is failed / attempted.  Per-layer ``_s`` metrics are
self times: a span's duration minus that of its child spans.  Unmet demand
and distribution error are per-layer ``quality.*`` metrics because
stats-40k generates nothing; they are read from ``report.txt``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from synth import write_stats_input

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work" / str(os.getpid())  # run outputs, removed at exit

DEFAULT_SEED = 1
SETUP_PROBES = 3
MIN_CALLS = 2
TIME_LIMIT_S = 150.0  # no call starts that would end after this; the hard limit is 180 s
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "generate" or "stats"
    size: int
    plan: str = ""


# Two workloads, each run for a long window: on a shared host, time spread
# between runs shrinks with the window length, and the benchmark's whole
# budget (4 + 22 runs per workload) does not allow long windows for more.
WORKLOADS = {
    "kenya-5k": Workload("generate", 5_000, "plans/kenya/kenya.plan"),
    "stats-40k": Workload("stats", 40_000),
}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

HOMOPHILY_TYPES = ("spouses", "motherOf", "friendship", "colleagues")
TRANSITIVE_TYPES = ("fatherOf", "siblings")
SCOPES = ("collapsed", "colleagues", "fatherOf", "friendship", "motherOf", "siblings", "spouses")
RULE_COUNTS = {
    "prototype_links": "prototype_links",
    "fallback_links": "fallback_links",
    "fallback_rejections": "fallback_rejections",
    "orphans": "orphan_agents",
    "unfulfilled": "unfulfilled",
}
TIMED_SPANS = (
    ["plan.load_validate", "plan.load_bn", "plan.build_rule", "population.generate",
     "population.learn_marginals", "metrics.error_report"]
    + [f"matching.{t}" for t in HOMOPHILY_TYPES]
    + ["sampling.sample", "population.query_candidates", "inference.posterior"]
    + [f"transitivity.{t}" for t in TRANSITIVE_TYPES]
    + [f"metrics.stats.{s}" for s in SCOPES]
    + ["metrics.stats_for_edges", "export.write", "export.read"]
)
PER_LAYER = (
    {f"{name}_s": "s" for name in TIMED_SPANS}
    | {
        "population.learn_marginals_calls": "count",
        "population.query_candidates_calls": "count",
        "population.candidates_returned": "count",
        "inference.posterior_calls": "count",
        "sampling.prototype_draws": "count",
        "matching.prototype_hit_ratio": "ratio",
        "export.bytes_written": "B",
    }
    | {f"matching.{t}.{c}": "count" for t in HOMOPHILY_TYPES for c in RULE_COUNTS}
    | {
        "quality.unmet_demand": "ratio",
        "quality.distribution_error": "ratio",
        "trace.coverage": "ratio",
        "trace.overhead": "ratio",
    }
)


def plan_layout(plan_path: Path) -> tuple[list[str], list[str], list[Path]]:
    """Declared link types, the homophily types whose rule counts both
    endpoints (from the plan, else from the matching file header), and the
    network files the plan names."""
    types, counted, files = [], [], []
    for raw in plan_path.read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        options = dict(t.split("=", 1) for t in tokens if "=" in t)
        for key in ("attributes", "bn"):
            if key in options:
                files.append(plan_path.parent / options[key])
        if tokens[:1] == ["linktype"]:
            types.append(tokens[1])
        elif tokens[:2] == ["rule", "homophily"]:
            counts = options.get("counts")
            if counts is None:
                header = (plan_path.parent / options["bn"]).read_text(encoding="utf-8")
                for token in header.split("\n", 1)[0].split():
                    if token.startswith("counts="):
                        counts = token.split("=", 1)[1]
            if (counts or "both") == "both":
                counted.append(tokens[2])
    return types, counted, files


def input_digest(name: str, seed: int, scratch: Path) -> str:
    """sha256 over everything a workload reads: the plan and the network
    files it names, or the synthetic stats input of this seed."""
    workload = WORKLOADS[name]
    if workload.kind == "generate":
        plan = ROOT / workload.plan
        paths = [plan] + plan_layout(plan)[2]
    else:
        write_stats_input(scratch, workload.size, seed)
        paths = [scratch / "agents.csv", scratch / "edges_all.csv"]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Session:
    """Child processes of one benchmark invocation and their check results."""

    def __init__(self, name: str, seed: int, started: float):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.reference: dict[str, str] | None = None
        self.report: dict[str, str] = {}
        self.runs = 0
        if self.workload.kind == "generate":
            self.plan = ROOT / self.workload.plan
            self.types, self.counted, _ = plan_layout(self.plan)
        else:
            self.plan = None
            self.input = WORK / "input"
            self.types = sorted(write_stats_input(self.input, self.workload.size, seed))
            self.input_digests = checks.digests(self.input)

    def spawn(self, mode: str, trace: bool = False, measured: bool = True) -> None:
        """Start one child, wait for it, and check what it wrote."""
        self.runs += 1
        run_dir = WORK / f"run{self.runs:03d}"
        out_dir = run_dir / "out"
        out_dir.mkdir(parents=True)
        result_path = run_dir / "result.json"
        spec = {"mode": mode, "trace": trace, "result": str(result_path)}
        if self.plan is not None:
            spec.update(plan=str(self.plan), seed=self.seed, population=self.workload.size,
                        out=str(out_dir))
        if mode == "stats":
            spec["input"] = str(self.input)
        env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
        with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec), repr(spawned)],
                stdout=out, stderr=err, cwd=run_dir, env=env,
            )
            try:
                code = proc.wait(timeout=max(5.0, self.started + 175.0 - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
        if not measured:
            shutil.rmtree(run_dir)
            return
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        elif not result_path.exists():
            problems = ["no result file"]
        else:
            result = json.loads(result_path.read_text())
            problems = self.check(mode, run_dir)
        if problems:
            self.failed += 1
            tail = (run_dir / "stderr.txt").read_text(errors="replace").strip()[-300:]
            self.problems += [f"{run_dir.name} ({mode}): {p}" for p in problems]
            if tail:
                self.problems.append(f"{run_dir.name} stderr: {tail}")
        else:
            self.setup_s.append(result["setup_s"])
            if mode != "setup":
                (self.traced if trace else self.plain).append(result)
        shutil.rmtree(run_dir)

    def check(self, mode: str, run_dir: Path) -> list[str]:
        if mode == "setup":
            return []
        if mode == "stats":
            output = checks.read_report(run_dir / "stdout.txt")
            edges = checks.read_edges(self.input / "edges_all.csv")
            problems = checks.check_counts(output, self.workload.size, edges, self.types)
            if checks.digests(self.input) != self.input_digests:
                problems.append("stats changed its input files")
            found = {"stdout.txt": checks.digests(run_dir)["stdout.txt"]}
        else:
            out_dir = run_dir / "out"
            found = checks.digests(out_dir)
            if self.reference is not None:
                return checks.check_identical(self.reference, found)
            problems = checks.check_generate_output(
                out_dir, self.workload.size, self.types, self.counted)
            self.report = checks.read_report(out_dir / "report.txt")
        if self.reference is None:
            self.reference = found
            return problems
        return problems + checks.check_identical(self.reference, found)


def layer_metrics(result: dict, report: dict[str, str], plain_run_s: float) -> dict[str, float]:
    """Per-layer numbers from one traced call and the run's report."""
    spans = result["spans"]
    counters = result["counters"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    out: dict[str, float] = {f"{name}_s": span(name, "self_s") for name in TIMED_SPANS}
    out["population.learn_marginals_calls"] = span("population.learn_marginals", "calls")
    out["population.query_candidates_calls"] = span("population.query_candidates", "calls")
    out["population.candidates_returned"] = counters.get("population.candidates_returned", 0)
    out["inference.posterior_calls"] = span("inference.posterior", "calls")
    draws = span("sampling.sample", "calls")
    out["sampling.prototype_draws"] = draws
    out["export.bytes_written"] = counters.get("export.bytes_written", 0)

    rules: dict[str, dict[str, int]] = {}
    demand = unfulfilled = 0
    index = 0
    while f"rule.{index}.kind" in report:
        prefix = f"rule.{index}"
        index += 1
        if report[f"{prefix}.kind"] != "homophily":
            continue
        counts = rules.setdefault(report[f"{prefix}.type"], dict.fromkeys(RULE_COUNTS, 0))
        for metric, key in RULE_COUNTS.items():
            counts[metric] += int(report[f"{prefix}.{key}"])
        demand += int(report[f"{prefix}.demand"])
        unfulfilled += int(report[f"{prefix}.unfulfilled"])
    for link_type in HOMOPHILY_TYPES:
        for metric in RULE_COUNTS:
            out[f"matching.{link_type}.{metric}"] = rules.get(link_type, {}).get(metric, 0)
    prototype_links = sum(c["prototype_links"] for c in rules.values())
    out["matching.prototype_hit_ratio"] = prototype_links / draws if draws else 0.0
    out["quality.unmet_demand"] = unfulfilled / demand if demand else 0.0
    out["quality.distribution_error"] = float(report.get("error.distribution", 0.0))
    out["trace.coverage"] = 1.0 - span("run", "self_s") / span("run", "total_s")
    out["trace.overhead"] = result["run_s"] / plain_run_s - 1.0
    return out


def measure(session: Session, seconds: float, trace: bool) -> None:
    """Warm up, probe set-up, then repeat the call until the time is used."""
    mode = session.workload.kind
    session.spawn("setup", measured=False)
    for _ in range(0 if trace else SETUP_PROBES):
        session.spawn("setup")
    begun = time.monotonic()
    calls = 0
    while True:
        # With tracing on, traced and untraced calls alternate so that the
        # overhead compares calls made under the same conditions.
        session.spawn(mode, trace=trace and calls % 2 == 1)
        calls += 1
        now = time.monotonic()
        mean = (now - begun) / calls
        if session.failed or now + mean > session.started + TIME_LIMIT_S:
            break
        if calls >= MIN_CALLS and now + mean > begun + seconds:
            break


def summarize(session: Session, trace: bool) -> dict[str, dict]:
    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    plain_run_s = median([r["run_s"] for r in session.plain])
    if not trace:
        values = {
            "setup_s": median(session.setup_s),
            "run_s": plain_run_s,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in session.plain]),
        }
        units = END_TO_END
    else:
        per_call = [layer_metrics(r, session.report, plain_run_s) for r in session.traced]
        values = {name: median([m[name] for m in per_call]) for name in PER_LAYER}
        units = PER_LAYER
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "popnetgen" / "cli.py"]
    if workload.plan:
        needed.append(ROOT / workload.plan)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"benchmark: not a popnetgen checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    WORK.mkdir(parents=True)
    try:
        session = Session(args.workload, args.seed, started)
        measure(session, args.seconds, bool(args.trace))
        metrics = summarize(session, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:  # another invocation still uses it
            pass
    for problem in session.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
