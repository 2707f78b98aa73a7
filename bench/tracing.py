"""Span recording around popnetgen's public functions, from outside the package.

A Tracer keeps every span in memory as (name, start, end, parent).  The
wrappers installed by ``instrument`` open a span around each call into a
layer; the span open at call time becomes the parent.  A span's self time
is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import os
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed self time and summed duration."""
        out: dict[str, dict[str, float]] = {}
        for i, own in enumerate(self.self_times()):
            entry = out.setdefault(self.names[i], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += self.ends[i] - self.starts[i]
        return out


def _wrap(tracer: Tracer, func, name_of, after=None):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = tracer.begin(name_of(*args, **kwargs))
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(result)
        return result

    return traced


def _bytes_written(tracer: Tracer):
    def after(result):
        paths = result if isinstance(result, list) else [result]
        tracer.count("export.bytes_written", sum(os.path.getsize(p) for p in paths))

    return after


def instrument(tracer: Tracer) -> None:
    """Patch the names that popnetgen.cli and popnetgen.matching call so that
    each call opens a span.  Only module attributes are replaced; the
    package's source is untouched."""
    from popnetgen import cli, inference, matching, metrics

    def fixed(name):
        return lambda *a, **k: name

    cli.generate_population = _wrap(
        tracer, cli.generate_population, fixed("population.generate"))
    cli.run_homophily_rule = _wrap(
        tracer, cli.run_homophily_rule, lambda store, rule, rng: f"matching.{rule.link_type}")
    cli.run_transitivity_rule = _wrap(
        tracer, cli.run_transitivity_rule, lambda store, rule, rng: f"transitivity.{rule.t3}")
    cli.build_homophily_rule = _wrap(
        tracer, cli.build_homophily_rule, fixed("plan.build_rule"))
    cli.load_bn = _wrap(tracer, cli.load_bn, fixed("plan.load_bn"))
    learn = _wrap(tracer, cli.learn_marginals, fixed("population.learn_marginals"))
    cli.learn_marginals = learn
    metrics.learn_marginals = learn
    cli.build_error_report = _wrap(
        tracer, cli.build_error_report, fixed("metrics.error_report"))
    cli.graph_statistics = _wrap(
        tracer, cli.graph_statistics,
        lambda store, scope="collapsed", **k: f"metrics.stats.{scope}")
    cli.stats_for_edges = _wrap(tracer, cli.stats_for_edges, fixed("metrics.stats_for_edges"))
    for name in ("export_network", "export_interaction_network", "export_reports"):
        setattr(cli, name, _wrap(
            tracer, getattr(cli, name), fixed("export.write"), _bytes_written(tracer)))
    for name in ("read_agents", "read_edges_all"):
        setattr(cli, name, _wrap(tracer, getattr(cli, name), fixed("export.read")))

    def candidates_returned(result):
        tracer.count("population.candidates_returned", len(result))

    matching.query_candidates = _wrap(
        tracer, matching.query_candidates, fixed("population.query_candidates"),
        candidates_returned)
    inference.Engine.posterior = _wrap(
        tracer, inference.Engine.posterior, fixed("inference.posterior"))

    # Only the matcher's sampler is traced: population synthesis draws one
    # prototype per agent through the same class, and those draws are part
    # of population.generate, not of the homophily rules.
    class TracedSampler(matching.PrototypeSampler):
        sample = _wrap(tracer, matching.PrototypeSampler.sample, fixed("sampling.sample"))

    matching.PrototypeSampler = TracedSampler
