"""Command-line entry point: run, validate, or re-measure a generation plan.

    popnetgen generate <plan> [--seed S] [--population N] [--out DIR]
    popnetgen validate <plan>
    popnetgen stats <dir>

Exit codes: 0 success, 1 usage, 2 invalid plan or network, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bn import BnError, load_bn
from .export import (
    RUN_FILE,
    ExportError,
    export_interaction_network,
    export_manifest,
    export_network,
    export_reports,
    manifest_link_types,
    output_names,
    read_agents,
    read_edges_all,
    read_manifest,
    report_text,
)
from .inference import InferenceError
from .matching import MatchingError, RuleReport, run_homophily_rule
from .metrics import (
    ErrorReport,
    NetworkStats,
    build_error_report,
    graph_statistics,
    stats_for_edges,
)
from .plan import (
    GenerationPlan,
    HomophilyPlanRule,
    PlanError,
    build_homophily_rule,
    link_type_name_problem,
    load_plan,
    validate_plan,
)
from .population import (
    LearnedMarginals,
    PopulationError,
    PopulationStore,
    generate_population,
    learn_marginals,
)
from .sampling import substream
from .transitivity import run_transitivity_rule

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse usage errors onto exit code 1
        raise _UsageError(message)


@dataclass
class GenerationResult:
    plan: GenerationPlan
    store: PopulationStore
    rule_reports: list[RuleReport]
    error_report: ErrorReport | None
    stats: list[NetworkStats]
    learned: LearnedMarginals | None
    out_dir: Path
    files: list[Path] = field(default_factory=list)


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def run(
    plan: GenerationPlan,
    *,
    seed: int | None = None,
    population: int | None = None,
    out: Path | str | None = None,
    write: bool = True,
) -> GenerationResult:
    """Execute the whole pipeline: population, rules in order, metrics, export."""
    seed = plan.seed if seed is None else seed
    size = plan.population_size if population is None else population
    out_dir = Path(out) if out is not None else (plan.output_dir or plan.base_dir / "out")
    if write:  # before any work: the output path must be able to become a directory
        holder = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not holder.is_dir():
            raise NotADirectoryError(f"cannot write to {out_dir}: {holder} is not a directory")
        names = output_names(
            (lt.name for lt in plan.link_types), size, bool(plan.interaction_weights)
        )
        for path in (out_dir / name for name in names):
            if path.exists() and not path.is_file():
                raise FileExistsError(f"cannot write {path}: it is not a file")
        earlier = read_manifest(out_dir) or {}

    attribute_bn = plan.attribute_bn or load_bn(plan.attribute_bn_path)
    _progress(f"generating population: N={size} seed={seed}")
    store = generate_population(
        attribute_bn, size, substream(seed, "population"), plan.link_types
    )

    reports: list[RuleReport] = []
    occurrences: dict[tuple[str, str], int] = {}
    for index, plan_rule in enumerate(plan.rules):
        # A stable stream label: reordering other rules must not change this
        # rule's draws, so the label carries kind, type, and occurrence.
        kind = "homophily" if isinstance(plan_rule, HomophilyPlanRule) else "transitive"
        occurrence = occurrences.get((kind, plan_rule.link_type), 0)
        occurrences[kind, plan_rule.link_type] = occurrence + 1
        rng = substream(seed, f"rule/{kind}/{plan_rule.link_type}/{occurrence}")
        if isinstance(plan_rule, HomophilyPlanRule):
            report = run_homophily_rule(store, build_homophily_rule(plan_rule), rng)
        else:
            report = run_transitivity_rule(store, plan_rule, rng)
        reports.append(report)
        note = "vacuous rule" if report.vacuous else (
            f"{report.links_created} links, {report.unfulfilled} unfulfilled demand"
        )
        _progress(f"[{index + 1}/{len(plan.rules)}] {report.kind} {report.link_type}: {note}")

    learned = None
    error_report = None
    if len(store) > 0:
        learned = learn_marginals(store, attribute_bn)
        error_report = build_error_report(learned, attribute_bn, reports)

    stats = [graph_statistics(store, "collapsed")]
    for name in sorted(store.link_types):
        stats.append(graph_statistics(store, name))

    result = GenerationResult(
        plan, store, reports, error_report, stats,
        learned, out_dir,
    )
    if write:  # staged, so that a failed write leaves the earlier run whole
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out_dir) as staging:
            try:
                files = export_network(store, staging)
                if plan.interaction_weights:
                    files.append(
                        export_interaction_network(store, plan.interaction_weights, staging)
                    )
                header = {"population.size": size, "population.seed": seed}
                text = report_text(error_report, stats, reports, header)
                files += export_reports(text, learned.bn if learned else None, staging)
                files.append(export_manifest(files, staging))
            except OSError as exc:  # name the file where the run would have left it
                raise OSError(str(exc).replace(staging, str(out_dir), 1)) from None
            for path in files:  # the manifest last
                os.replace(path, out_dir / path.name)
        result.files = [out_dir / path.name for path in files]
        for name in set(earlier) - {path.name for path in files}:  # left by an earlier run
            if RUN_FILE.fullmatch(name) and (out_dir / name).is_file():
                (out_dir / name).unlink()
        print(text, end="")
    return result


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_generate(args) -> int:
    plan = load_plan(args.plan)
    issues = validate_plan(plan)
    for issue in issues:
        _progress(str(issue))
    if any(issue.severity == "error" for issue in issues):
        return EXIT_INVALID
    run(plan, seed=args.seed, population=args.population, out=args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    plan = load_plan(args.plan)
    issues = validate_plan(plan)
    for issue in issues:
        print(issue)
    if any(issue.severity == "error" for issue in issues):
        return EXIT_INVALID
    print(f"plan ok: {len(plan.rules)} rules, {len(plan.link_types)} link types")
    return EXIT_OK


def _cmd_stats(args) -> int:
    directory = Path(args.dir)
    declared = manifest_link_types(directory)
    n = read_agents(directory / "agents.csv")
    ends, kinds, names = read_edges_all(directory / "edges_all.csv")
    for problem in filter(None, map(link_type_name_problem, names)):  # as a plan names them
        raise ExportError(f"{directory / 'edges_all.csv'}: {problem}")
    outside = ((ends < 0) | (ends >= n)).any(axis=1)
    if outside.any():
        source, target = ends[np.argmax(outside)].tolist()
        raise ExportError(
            f"{directory / 'edges_all.csv'}: link {source},{target} "
            f"names an agent outside [0, {n})"
        )
    all_stats = [stats_for_edges(n, ends, "collapsed")]
    code = {name: k for k, name in enumerate(names)}
    for name in sorted(declared.union(names)):  # a type with no links is coded -1
        mine = kinds == code.get(name, -1)  # every link: the collapsed graph again
        same = mine.all() and not all_stats[0].path_length_estimated  # a sample is per scope
        stats = replace(all_stats[0], scope=name) if same else stats_for_edges(n, ends[mine], name)
        all_stats.append(stats)
    print(report_text(None, all_stats, []), end="")
    return EXIT_OK


def _population_size(text: str) -> int:
    """argparse type of --population: a non-negative integer."""
    try:
        size = int(text)
    except ValueError:
        size = -1
    if size < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return size


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="popnetgen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="run a generation plan")
    generate.add_argument("plan", help="plan file")
    generate.add_argument("--seed", type=int, default=None, help="override the plan seed")
    generate.add_argument(
        "--population", type=_population_size, default=None, help="override the population size"
    )
    generate.add_argument("--out", default=None, help="output directory")
    generate.set_defaults(handler=_cmd_generate)

    validate = sub.add_parser("validate", help="check a plan without generating")
    validate.add_argument("plan", help="plan file")
    validate.set_defaults(handler=_cmd_validate)

    stats = sub.add_parser("stats", help="recompute statistics from exported files")
    stats.add_argument("dir", help="directory holding agents.csv and edges_all.csv")
    stats.set_defaults(handler=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except (PlanError, BnError, MatchingError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ExportError as exc:
        print(f"invalid network files: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PopulationError, InferenceError, OSError, MemoryError) as exc:
        print(f"runtime failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
