"""Each output check passes a valid output and catches a corrupted one."""
import shutil
from pathlib import Path

import pytest

import checks
import run
from synth import synthesize, write_stats_input

TYPES = ["friendship", "motherOf", "spouses"]
COUNTED = ["friendship", "spouses"]


def write_output(directory: Path, edges: dict[str, list[tuple[int, int]]], rc=None) -> Path:
    """A small generate output: 5 agents, three link types."""
    directory.mkdir(parents=True, exist_ok=True)
    rc = rc or {"spouses": [1, 1, 0, 1, 1], "friendship": [2, 2, 2, 2, 2]}
    rows = ["id,gender,RC_spouses,RC_friendship"]
    rows += [f"{i},female,{rc['spouses'][i]},{rc['friendship'][i]}" for i in range(5)]
    (directory / "agents.csv").write_text("\n".join(rows) + "\n")
    all_rows = ["source,target,type"]
    for kind in sorted(edges):
        lines = ["source,target"] + [f"{s},{t}" for s, t in edges[kind]]
        (directory / f"edges_{kind}.csv").write_text("\n".join(lines) + "\n")
        all_rows += [f"{s},{t},{kind}" for s, t in edges[kind]]
    (directory / "edges_all.csv").write_text("\n".join(all_rows) + "\n")
    report = [f"stats.collapsed.nodes = 5", f"stats.collapsed.links = {len(all_rows) - 1}"]
    report += [f"stats.{kind}.links = {len(edges[kind])}" for kind in sorted(edges)]
    (directory / "report.txt").write_text("\n".join(report) + "\n")
    return directory


VALID = {"spouses": [(0, 1), (3, 4)], "motherOf": [(0, 2)], "friendship": [(1, 2), (2, 3)]}


def problems_of(directory: Path) -> list[str]:
    return checks.check_generate_output(directory, 5, TYPES, COUNTED)


def test_valid_output_passes(tmp_path):
    assert problems_of(write_output(tmp_path, VALID)) == []


def test_self_link_is_caught(tmp_path):
    edges = dict(VALID, friendship=[(1, 2), (2, 2)])
    assert any("self link" in p for p in problems_of(write_output(tmp_path, edges)))


def test_repeated_pair_is_caught(tmp_path):
    edges = dict(VALID, friendship=[(1, 2), (1, 0)])
    assert any("repeated pairs" in p for p in problems_of(write_output(tmp_path, edges)))


def test_type_files_must_add_up(tmp_path):
    out = write_output(tmp_path, VALID)
    (out / "edges_friendship.csv").write_text("source,target\n1,2\n")
    assert any("add up" in p for p in problems_of(out))


def test_degree_above_required_count_is_caught(tmp_path):
    rc = {"spouses": [1, 1, 0, 1, 1], "friendship": [2, 2, 1, 2, 2]}
    problems = problems_of(write_output(tmp_path, VALID, rc=rc))
    assert problems == ["1 agents exceed RC_friendship, e.g. agent 2"]


def test_degree_of_uncounted_type_is_not_checked(tmp_path):
    rc = {"spouses": [1, 1, 0, 1, 1], "friendship": [2, 2, 2, 2, 2]}
    edges = dict(VALID, motherOf=[(0, 2), (0, 3)])  # agent 0 has RC_spouses 1
    assert problems_of(write_output(tmp_path, edges, rc=rc)) == []


def test_wrong_reported_counts_are_caught(tmp_path):
    out = write_output(tmp_path, VALID)
    text = (out / "report.txt").read_text().replace("stats.spouses.links = 2", "stats.spouses.links = 3")
    (out / "report.txt").write_text(text)
    assert problems_of(out) == ["stats.spouses.links = 3, expected 2"]


def test_missing_file_is_caught(tmp_path):
    out = write_output(tmp_path, VALID)
    (out / "edges_spouses.csv").unlink()
    assert problems_of(out) == ["missing output files: edges_spouses.csv"]


def test_changed_or_stale_file_breaks_identity(tmp_path):
    first = write_output(tmp_path / "a", VALID)
    second = write_output(tmp_path / "b", VALID)
    assert checks.check_identical(checks.digests(first), checks.digests(second)) == []
    (second / "report.txt").write_text((second / "report.txt").read_text() + "x = 1\n")
    (second / "network.dot").write_text("// left over from an earlier run\n")
    problems = checks.check_identical(checks.digests(first), checks.digests(second))
    assert problems == ["output differs between runs of one seed: network.dot, report.txt"]


def test_synthetic_stats_input_is_seeded_and_valid(tmp_path):
    assert synthesize(2000, 5) == synthesize(2000, 5)
    assert synthesize(2000, 5) != synthesize(2000, 6)
    counts = write_stats_input(tmp_path, 2000, 5)
    edges = checks.read_edges(tmp_path / "edges_all.csv")
    by_type = {}
    for s, t, kind in edges:
        by_type.setdefault(kind, []).append((s, t))
    assert checks.check_links(edges, by_type) == []
    assert sorted(counts) == sorted(by_type) and all(counts.values())


def test_stats_counts_are_checked_against_input(tmp_path):
    write_stats_input(tmp_path, 2000, 5)
    edges = checks.read_edges(tmp_path / "edges_all.csv")
    output = {"stats.collapsed.nodes": "2000", "stats.collapsed.links": str(len(edges))}
    output.update({f"stats.{t}.links": str(sum(e[2] == t for e in edges)) for t in TYPES})
    assert checks.check_counts(output, 2000, edges, TYPES) == []
    output["stats.collapsed.nodes"] = "1999"
    assert checks.check_counts(output, 2000, edges, TYPES) == [
        "stats.collapsed.nodes = 1999, expected 2000"]


@pytest.fixture
def tiny_workloads(tmp_path, monkeypatch):
    """Small workloads run through the real child processes."""
    plans = tmp_path / "plans"
    shutil.copytree(run.ROOT / "plans" / "inconsistent", plans / "ok")
    shutil.copytree(run.ROOT / "plans" / "inconsistent", plans / "bad")
    bad = plans / "bad" / "inconsistent.plan"
    bad.write_text(bad.read_text().replace("linktype spouses undirected", ""))
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload("generate", 300, str(plans / "ok" / "inconsistent.plan")))
    monkeypatch.setitem(run.WORKLOADS, "tiny-bad", run.Workload("generate", 300, str(bad)))
    monkeypatch.setitem(run.WORKLOADS, "tiny-stats", run.Workload("stats", 500))


@pytest.mark.parametrize("name", ["tiny", "tiny-stats"])
def test_runs_pass_their_checks(tiny_workloads, name):
    session = run.Session(name, 3, run.time.monotonic())
    run.measure(session, 0, trace=True)
    assert session.problems == []
    assert (session.attempted, session.failed) == (2, 0)
    metrics = run.summarize(session, trace=True)
    assert set(metrics) == set(run.PER_LAYER)
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0


def test_failing_run_counts_as_failed(tiny_workloads):
    session = run.Session("tiny-bad", 3, run.time.monotonic())
    run.measure(session, 0, trace=False)
    assert session.failed >= 1 and session.attempted >= session.failed
    assert any("exit code 2" in p for p in session.problems)
