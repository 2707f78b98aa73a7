"""File exports: canonical ordering, round-trips, interaction weights."""
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popnetgen import csvscan
from popnetgen.bn import parse_bn, read_text, serialize_bn
from popnetgen.cli import run
from popnetgen.export import (
    ExportError,
    MissingWeightError,
    export_interaction_network,
    export_network,
    export_reports,
    read_agents,
    read_edges_all,
    report_text,
)
from popnetgen.matching import RuleReport
from popnetgen.metrics import ErrorReport, stats_for_edges
from popnetgen.plan import load_plan
from popnetgen.population import (
    LinkType,
    PopulationStore,
    generate_population,
    learn_marginals,
)
from popnetgen.sampling import substream

from helpers import (
    build_store,
    canonical_agents,
    canonical_edges_all,
    oracle_interaction,
    oracle_network_files,
    parse_report,
    read_edge_file,
)


def demo_store():
    store = build_store(
        [LinkType("friendship", False), LinkType("motherOf", True)],
        [{"color": ("red", "blue")[i % 2]} for i in range(4)],
        [{"friendship": 1}] * 4,
    )
    store.record_link(1, 0, "friendship")
    store.record_link(1, 2, "motherOf", count_source=False, count_target=False)
    return store


class TestExportNetwork:
    def test_empty_network_header_only(self, tmp_path):
        store = PopulationStore([LinkType("friendship", False)])
        export_network(store, tmp_path)
        assert (tmp_path / "edges_friendship.csv").read_text() == "source,target\n"
        assert (tmp_path / "edges_all.csv").read_text() == "source,target,type\n"
        assert (tmp_path / "agents.csv").read_text().startswith("id")

    def test_undirected_link_canonical(self, tmp_path):
        store = demo_store()
        export_network(store, tmp_path)
        text = (tmp_path / "edges_friendship.csv").read_text()
        assert text == "source,target\n0,1\n"

    def test_one_file_per_declared_type(self, tmp_path):
        export_network(demo_store(), tmp_path)
        assert (tmp_path / "edges_friendship.csv").exists()
        assert (tmp_path / "edges_motherOf.csv").exists()

    def test_round_trip_reconstructs_link_multiset(self, tmp_path):
        store = demo_store()
        export_network(store, tmp_path)
        ends, kinds, names = read_edges_all(tmp_path / "edges_all.csv")
        got = sorted(zip(map(tuple, ends.tolist()), (names[k] for k in kinds)))
        expected = sorted(
            (tuple(pair), name) for name in store.link_types for pair in store.edges(name).tolist()
        )
        assert got == expected
        friendship = read_edge_file(tmp_path / "edges_friendship.csv")
        assert friendship.tolist() == store.edges("friendship").tolist()

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        export_network(demo_store(), a)
        export_network(demo_store(), b)
        for name in ("agents.csv", "edges_all.csv", "edges_friendship.csv", "network.dot"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dot_file_written_for_small_networks(self, tmp_path):
        export_network(demo_store(), tmp_path)
        dot = (tmp_path / "network.dot").read_text().splitlines()
        assert "0 -- 1 [type=friendship]" in dot
        assert "1 -> 2 [type=motherOf]" in dot

    def test_dot_file_skipped_above_cap(self, tmp_path):
        store = build_store([LinkType("friendship", False)], [{}] * 2001)
        export_network(store, tmp_path)
        assert not (tmp_path / "network.dot").exists()

    def test_agents_csv_readable(self, tmp_path):
        export_network(demo_store(), tmp_path)
        lines = (tmp_path / "agents.csv").read_text().splitlines()
        assert lines[:2] == ["id,color,RC_friendship", "0,red,1"]
        assert read_agents(tmp_path / "agents.csv") == len(demo_store())

    def test_kenya_export_holds_no_python_object_per_line(self, tmp_path):
        # At N=40000 (72,378 links) the f-string writers peaked at 18.3 MiB
        # of traced memory; a block of rows at a time stays far below.
        plan = load_plan(Path(__file__).resolve().parent.parent / "plans" / "kenya" / "kenya.plan")
        store = run(plan, seed=1, population=40_000, write=False).store
        tracemalloc.start()
        try:
            export_network(store, tmp_path)
            export_interaction_network(store, plan.interaction_weights, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


# Ids at each change of digit count, the largest int64 among them.
WRITTEN_IDS = st.one_of(
    st.sampled_from(sorted({0, 2**63 - 1, *(10**k + d for k in range(1, 19) for d in (-1, 0))})),
    st.integers(0, 2**63 - 1),
)
LABELS = ["red", "\u00e9", "\u0663", "", "long label", "\u00e9t\u00e9"]
PROBABILITIES = [0.0, 1.0, 0.1, 1e-05, 5e-324]
WRITE_BLOCKS = st.sampled_from([1, 3, csvscan.WRITE_BLOCK])


def formatted(parts, block) -> bytes:
    with patch.object(csvscan, "WRITE_BLOCK", block):
        blocks = list(csvscan.format_rows(parts))
    assert all(len(b) for b in blocks) and len(blocks) <= -(-len(parts[0]) // block)
    return b"".join(blocks)


class TestFormatRows:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(WRITTEN_IDS, WRITTEN_IDS, st.integers(0, len(LABELS) - 1),
                                st.integers(0, len(PROBABILITIES) - 1)), max_size=12),
        directed=st.booleans(),
        block=WRITE_BLOCKS,
    )
    def test_writes_what_the_f_string_writers_write(self, rows, directed, block):
        source, target, label, weight = np.array(rows, np.int64).reshape(-1, 4).T
        labels = [f",{name}".encode() for name in LABELS]
        got = formatted([source, b",", target, (label, labels), b"\n"], block)
        assert got == "".join(f"{s},{t},{LABELS[k]}\n" for s, t, k, _ in rows).encode()
        probability = [f",{p!r}\n".encode() for p in PROBABILITIES]
        got = formatted([source, b",", target, (weight, probability)], block)
        assert got == "".join(f"{s},{t},{PROBABILITIES[k]!r}\n" for s, t, _, k in rows).encode()
        arrow = "->" if directed else "--"
        got = formatted([source, f" {arrow} ".encode(), target, " [type=\u00e9]\n".encode()], block)
        assert got == "".join(f"{s} {arrow} {t} [type=\u00e9]\n" for s, t, _, _ in rows).encode()

    @settings(max_examples=60, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True),
        agents=st.integers(0, 30),
        links=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29), st.integers(0, 2)),
                       max_size=40),
        weights=st.lists(st.sampled_from(PROBABILITIES), min_size=3, max_size=3),
        block=WRITE_BLOCKS,
    )
    def test_export_matches_the_f_string_writers(
        self, tmp_path_factory, labels, agents, links, weights, block
    ):
        types = [LinkType("b\u00e9", True), LinkType("a", False), LinkType("\u0663", False)]
        store = build_store(
            types,
            [{"color": labels[i % len(labels)], "size": str(i % 3)} for i in range(agents)],
            [{"a": i % 4} for i in range(agents)],
        )
        for source, target, kind in links:
            if source < agents and target < agents and source != target \
                    and target not in store.partners_of(source):
                store.record_link(source, target, types[kind].name,
                                  count_source=False, count_target=False)
        weights = dict(zip((t.name for t in types), weights))
        out = tmp_path_factory.mktemp("out")
        with patch.object(csvscan, "WRITE_BLOCK", block):
            files = export_network(store, out)
            files.append(export_interaction_network(store, weights, out))
        expected = {**oracle_network_files(store), "interaction.csv": oracle_interaction(store, weights)}
        assert {path.name: path.read_bytes() for path in files} == {
            name: text.encode() for name, text in expected.items()
        }
        assert read_agents(out / "agents.csv") == agents
        ends, kinds, names = read_edges_all(out / "edges_all.csv")
        assert sorted(zip(map(tuple, ends.tolist()), (names[k] for k in kinds))) == sorted(
            (tuple(pair), t.name) for t in types for pair in store.edges(t.name).tolist()
        )
        for t in types:
            assert read_edge_file(out / f"edges_{t.name}.csv").tolist() == sorted(
                store.edges(t.name).tolist()
            )


ID_TOKENS = st.one_of(
    st.integers(-2**64, 2**64).map(str),
    st.sampled_from([
        "+5", " 5", "5 ", "1_0", "_1", "1__0", "0x10", "1.0", "", "x", "\u0663",
        "-0", "00", "01", "-01", "-", str(10**18 - 1), str(-10**18 + 1),
        str(10**18), str(-10**18), "0" * 18 + "1",
        str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1),
    ]),
)
TYPE_TOKENS = st.sampled_from(["pair", "friendship", "", "a b", "\u00e9"])
EDGE_LINES = st.one_of(
    st.tuples(ID_TOKENS, ID_TOKENS, TYPE_TOKENS).map(",".join),
    st.just(""),
    st.tuples(ID_TOKENS, ID_TOKENS, TYPE_TOKENS, TYPE_TOKENS).map(",".join),  # extra field
    st.tuples(ID_TOKENS, ID_TOKENS).map(",".join),  # missing field
    st.text(alphabet="0123456789,_+- x\r\x1c\u0085\u2028", max_size=12),
)
# Blocks of the byte parser small enough to cut the drawn files into many.
READ_BLOCKS = st.sampled_from([1, 3, 8, csvscan.READ_BLOCK])


def assert_reads_as_reference(read, reference, path, block):
    """``read`` at block size ``block`` returns what the strict ``reference``
    returns, dtypes and shapes included, or raises the same ExportError,
    which names the file and the reference's first bad line."""
    try:
        expected = reference(path, read_text(path, ExportError))
    except ExportError as exc:
        with pytest.raises(ExportError) as got, patch.object(csvscan, "READ_BLOCK", block):
            read(path)
        assert str(got.value) == str(exc)
        return
    with patch.object(csvscan, "READ_BLOCK", block):
        got = read(path)
    if isinstance(expected, int):
        assert type(got) is int and got == expected
        return
    for array, want in zip(got[:2], expected[:2]):
        assert array.dtype == want.dtype and array.shape == want.shape
        assert np.array_equal(array, want)
    assert got[2] == expected[2]


class TestReadEdgesAll:
    @settings(max_examples=400, deadline=None)
    @given(
        lines=st.lists(EDGE_LINES, max_size=12),
        well_formed=st.booleans(),
        header=st.sampled_from(["source,target,type", "source,target"]),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        block=READ_BLOCKS,
    )
    def test_reads_as_the_reference_or_refuses_its_first_bad_line(
        self, tmp_path_factory, lines, well_formed, header, newline, block
    ):
        if well_formed:  # most drawn files hold a bad line; keep half clean
            lines = [f"{len(line)},{len(line) % 5},t{len(line) % 3}" for line in lines]
        path = tmp_path_factory.mktemp("edges") / "edges_all.csv"
        path.write_text(newline.join([header, *lines]) + newline, encoding="utf-8")
        assert_reads_as_reference(read_edges_all, canonical_edges_all, path, block)

    @pytest.mark.parametrize("body", [
        # ids of 18 digits are read, of 19 refused
        "999999999999999999,-999999999999999999,t\n1000000000000000000,0,t\n",
        "9223372036854775808,1,t\n",  # past int64
        "1,2,t,u\n3,4\n",  # the right comma count, but not three per line
        "1,2,t\u0085\n",  # line breaks of str.splitlines, kept in the type name
        "1,2,t\u2028\n",
        "1,2,t\r3,4,t\n",
        "1,2,t\r\r\n",
        "-0,00,t\n01,-01,t\n",
        "+5,1,t\n",
        "0,1,t\n\n\r\n2,x,t\n",  # blank lines count
    ])
    def test_reads_as_the_reference_or_refuses_on(self, tmp_path, body):
        path = tmp_path / "edges_all.csv"
        path.write_text("source,target,type\n" + body, encoding="utf-8")
        for block in (1, csvscan.READ_BLOCK):
            assert_reads_as_reference(read_edges_all, canonical_edges_all, path, block)

    def test_peak_memory_is_a_few_times_the_file(self, tmp_path):
        types = ["colleagues", "fatherOf", "friendship", "motherOf", "siblings", "spouses"]
        rows = [f"{i},{(i * 7919) % 100_000},{types[i * 6 // 100_000]}" for i in range(100_000)]
        path = tmp_path / "edges_all.csv"
        path.write_text("\n".join(["source,target,type", *rows]) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            ends, _, names = read_edges_all(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ends.shape == (100_000, 2) and names == types
        assert peak < 6 * path.stat().st_size


AGENT_ROWS = st.one_of(
    st.sampled_from(["ok", "ok", "ok", "blank", "extra", "short", "skip"]),
    st.sampled_from(["-0", "00", "01", "+1", " 1", "\u0661", "1 ", "x", ""]),  # id as written
)


class TestReadAgents:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(AGENT_ROWS, max_size=12),
        header=st.sampled_from(["id,color", "color,id", "id", "color", "color,ID"]),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        block=READ_BLOCKS,
    )
    def test_reads_as_the_reference_or_refuses_its_first_bad_line(
        self, tmp_path_factory, rows, header, newline, block
    ):
        columns = header.split(",")
        lines = [header]
        for row in rows:
            if row == "blank":
                lines.append("")
                continue
            k = len([line for line in lines[1:] if line])
            agent_id = {"ok": str(k), "extra": str(k), "short": str(k), "skip": str(k + 1)}
            fields = [agent_id.get(row, row) if column == "id" else "red" for column in columns]
            if row == "extra":
                fields.append("x")
            elif row == "short":
                fields.pop()
            lines.append(",".join(fields))
        path = tmp_path_factory.mktemp("agents") / "agents.csv"
        path.write_text(newline.join(lines) + newline, encoding="utf-8")
        assert_reads_as_reference(read_agents, canonical_agents, path, block)

    @pytest.mark.parametrize("text", [
        "c,id,d\na,0,b,1,c\nx\n",  # each id between two commas, but five fields then one
        "c,id,d\r\na,0,b\r\n\r\na,1,b",
        "\ufeffid\n0\n1\n",
        "id\r0\r1\r",
        "id\n0\n+1\n",
        "id\n0\n2\n",
        "",
        "\n",
    ])
    def test_reads_as_the_reference_or_refuses_on(self, tmp_path, text):
        path = tmp_path / "agents.csv"
        path.write_text(text, encoding="utf-8")
        for block in (1, csvscan.READ_BLOCK):
            assert_reads_as_reference(read_agents, canonical_agents, path, block)


class TestInteractionNetwork:
    def test_weights_applied_per_type(self, tmp_path):
        store = demo_store()
        path = export_interaction_network(
            store, {"friendship": 0.3, "motherOf": 0.9}, tmp_path
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "source,target,probability"
        assert "0,1,0.3" in lines
        assert "1,2,0.9" in lines

    def test_weight_one_and_zero(self, tmp_path):
        store = demo_store()
        path = export_interaction_network(
            store, {"friendship": 1.0, "motherOf": 0.0}, tmp_path
        )
        body = path.read_text()
        assert "0,1,1.0" in body
        assert "1,2,0.0" in body

    def test_missing_weight_for_present_type(self, tmp_path):
        with pytest.raises(MissingWeightError, match="motherOf"):
            export_interaction_network(demo_store(), {"friendship": 0.5}, tmp_path)

    def test_out_of_range_weight(self, tmp_path):
        with pytest.raises(ExportError):
            export_interaction_network(
                demo_store(), {"friendship": 1.5, "motherOf": 0.1}, tmp_path
            )

    def test_absent_type_needs_no_weight(self, tmp_path):
        store = build_store(
            [LinkType("friendship", False), LinkType("unused", False)],
            [{}, {}],
            [{"friendship": 1}, {"friendship": 1}],
        )
        store.record_link(0, 1, "friendship")
        path = export_interaction_network(store, {"friendship": 0.5}, tmp_path)
        assert path.exists()


COIN_DOC = "variable coin { heads, tails }\ncpt coin { 1.0, 0.0 }\n"


class TestReports:
    def reports(self):
        rule_reports = [
            RuleReport("friendship", "homophily", demand_total=4,
                       links_created=1, unfulfilled=2, prototype_links=1,
                       orphan_agents=2),
            RuleReport("fatherOf", "transitive", demand_total=3, links_created=3),
        ]
        error = ErrorReport(0.0123, 2, {"friendship": 0.5})
        stats = [stats_for_edges(4, [(0, 1), (1, 2)], "collapsed")]
        return error, stats, rule_reports

    def test_report_round_trip(self, tmp_path):
        error, stats, rule_reports = self.reports()
        text = report_text(error, stats, rule_reports, {"population.size": 4})
        parsed = parse_report(text)
        assert parsed["population.size"] == 4
        assert parsed["error.distribution"] == 0.0123
        assert parsed["error.matching.friendship"] == 0.5
        assert parsed["rule.0.links"] == 1
        assert parsed["rule.1.kind"] == "transitive"
        assert parsed["stats.collapsed.density"] == stats[0].density
        # serialize -> parse -> serialize is stable
        assert parse_report(text) == parse_report(
            report_text(error, stats, rule_reports, {"population.size": 4})
        )

    def test_path_length_omitted_when_undefined(self):
        stats = [stats_for_edges(3, [], "collapsed")]
        text = report_text(None, stats, [])
        assert "average_path_length" not in text

    def test_learned_bn_reserialized(self, tmp_path):
        bn = parse_bn(COIN_DOC)
        store = generate_population(bn, 5, substream(0, "p"))
        learned = learn_marginals(store, bn)
        error, stats, rule_reports = self.reports()
        files = export_reports(report_text(error, stats, rule_reports), learned.bn, tmp_path)
        names = {f.name for f in files}
        assert names == {"report.txt", "learned_attributes.bn"}
        # deterministic run: learned network identical to the input after
        # canonicalization
        learned_text = (tmp_path / "learned_attributes.bn").read_text()
        assert learned_text == serialize_bn(bn)

    def test_learned_bn_reparses_as_valid(self, tmp_path):
        doc = """
        variable a { x, y, z }
        variable b { u, v }
        cpt a { 0.2, 0.5, 0.3 }
        cpt b | a { x: 0.9, 0.1
          y: 0.4, 0.6
          z: 0.5, 0.5 }
        """
        bn = parse_bn(doc)
        store = generate_population(bn, 300, substream(3, "p"))
        learned = learn_marginals(store, bn)
        again = parse_bn(serialize_bn(learned.bn))
        assert again.names == bn.names

    def test_report_keys_cover_every_rule(self, tmp_path):
        error, stats, rule_reports = self.reports()
        files = export_reports(report_text(error, stats, rule_reports), None, tmp_path)
        parsed = parse_report((tmp_path / "report.txt").read_text())
        for i in range(len(rule_reports)):
            assert f"rule.{i}.type" in parsed

    def test_ten_seed_batch_parses_losslessly(self, tmp_path):
        bn = parse_bn("variable c { h, t }\ncpt c { 0.5, 0.5 }\n")
        for seed in range(10):
            store = generate_population(bn, 50, substream(seed, "p"))
            learned = learn_marginals(store, bn)
            from popnetgen.metrics import build_error_report

            error = build_error_report(learned, bn, [])
            stats = [stats_for_edges(50, [], "collapsed")]
            text = report_text(error, stats, [], {"population.seed": seed})
            parsed = parse_report(text)
            assert parsed["population.seed"] == seed
            assert parsed["error.distribution"] == error.distribution_error
