"""Plan parsing, validation warnings, and the command-line pipeline."""
import errno
import hashlib
import importlib
import inspect
import os
import pkgutil
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import popnetgen
from popnetgen import bn as bn_module
from popnetgen import cli, csvscan, metrics
from popnetgen import matching as matching_module
from popnetgen import plan as plan_module
from popnetgen.bn import BnCycleError, BnSyntaxError, BnValidationError, parse_bn
from popnetgen.cli import EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, run
from popnetgen.export import output_names
from popnetgen.inference import Engine
from popnetgen.plan import (
    HomophilyPlanRule,
    PlanSyntaxError,
    load_plan,
    parse_plan,
    validate_plan,
)
from popnetgen.population import LinkType, generate_population
from popnetgen.sampling import substream
from popnetgen.transitivity import TransitivityRule

REPO = Path(__file__).resolve().parent.parent
KENYA_PLAN = REPO / "plans" / "kenya" / "kenya.plan"

ATTR_DOC = """
variable role { seeker, target }
variable RC_pair { 0, 1 }
cpt role { 0.5, 0.5 }
cpt RC_pair | role {
  seeker: 0.0, 1.0
  target: 0.0, 1.0
}
"""

MATCH_DOC = """
matching pair link=link a1=a1_ a2=a2_ counts=both
variable a1_role { seeker, target }
variable a2_role { seeker, target }
variable link { yes, no }
cpt a1_role { 0.5, 0.5 }
cpt a2_role { 0.5, 0.5 }
cpt link | a1_role, a2_role {
  seeker, seeker: 0.0, 1.0
  seeker, target: 1.0, 0.0
  target, seeker: 1.0, 0.0
  target, target: 0.0, 1.0
}
"""

MINIMAL_PLAN = """
# minimal always-compatible pairing plan
population N=10 seed=1 attributes=attributes.bn
linktype pair undirected
rule homophily pair bn=pair.bn counts=both
interact pair p=1.0
"""


def package_exceptions() -> list[type]:
    """Every exception class the package defines.  The parser's private
    usage error is left out: only argument parsing raises it (exit 1)."""
    found = set()
    for info in pkgutil.iter_modules(popnetgen.__path__):
        module = importlib.import_module(f"popnetgen.{info.name}")
        found |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__ and not obj.__name__.startswith("_")
        }
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


# Constructor arguments of the classes that take more than a message.
EXCEPTION_ARGS = {
    BnSyntaxError: ("injected", 1),
    BnCycleError: (["a", "a"],),
    BnValidationError: ([],),
    PlanSyntaxError: ("injected", 1),
}


@pytest.fixture()
def plan_dir(tmp_path):
    (tmp_path / "attributes.bn").write_text(ATTR_DOC)
    (tmp_path / "pair.bn").write_text(MATCH_DOC)
    (tmp_path / "plan.txt").write_text(MINIMAL_PLAN)
    return tmp_path


class TestParsePlan:
    def test_minimal_plan(self, plan_dir):
        plan = load_plan(plan_dir / "plan.txt")
        assert plan.population_size == 10
        assert plan.seed == 1
        assert plan.attribute_bn_path == plan_dir / "attributes.bn"
        assert [lt.name for lt in plan.link_types] == ["pair"]
        assert isinstance(plan.rules[0], HomophilyPlanRule)
        assert plan.interaction_weights == {"pair": 1.0}

    def test_kenya_plan_parses(self):
        plan = load_plan(KENYA_PLAN)
        assert plan.population_size == 10_000
        assert len(plan.rules) == 6
        kinds = [type(r).__name__ for r in plan.rules]
        assert kinds == [
            "HomophilyPlanRule", "HomophilyPlanRule",
            "TransitivityRule", "TransitivityRule",
            "HomophilyPlanRule", "HomophilyPlanRule",
        ]
        transitive = plan.rules[2]
        assert isinstance(transitive, TransitivityRule)
        assert (transitive.t1, transitive.t2) == ("spouses", "motherOf")
        assert transitive.probability == 1.0

    def test_missing_population_line(self):
        with pytest.raises(PlanSyntaxError):
            parse_plan("linktype a undirected\n", ".")

    def test_bad_directive(self):
        with pytest.raises(PlanSyntaxError) as err:
            parse_plan("population N=1 seed=0 attributes=x.bn\nbogus line\n", ".")
        assert err.value.line == 2

    @pytest.mark.parametrize("option", ["p=1.5", "p=nan", "p=1 pattern=sideways"])
    def test_bad_transitive_line_refused_at_its_line(self, plan_dir, capsys, option):
        text = MINIMAL_PLAN.replace(
            "interact pair p=1.0", f"rule transitive pair from pair pair {option}"
        )
        with pytest.raises(PlanSyntaxError) as raised:
            parse_plan(text, plan_dir)
        assert raised.value.line == 6
        (plan_dir / "plan.txt").write_text(text)
        for command in ("validate", "generate"):
            assert main([command, str(plan_dir / "plan.txt")]) == EXIT_INVALID
            err = capsys.readouterr().err
            assert "line 6:" in err and "generating population" not in err

    def test_rule_order_preserved(self):
        text = (
            "population N=5 seed=0 attributes=a.bn\n"
            "linktype x undirected\nlinktype y undirected\n"
            "rule homophily y bn=y.bn\n"
            "rule transitive x from y y p=0.5 pattern=any-any\n"
            "rule homophily x bn=x.bn\n"
        )
        plan = parse_plan(text, ".")
        assert [r.link_type for r in plan.rules] == ["y", "x", "x"]


class TestValidatePlan:
    def test_consistent_plan_empty_report(self, plan_dir):
        assert validate_plan(load_plan(plan_dir / "plan.txt")) == []

    def test_kenya_plan_empty_report(self):
        assert validate_plan(load_plan(KENYA_PLAN)) == []

    def test_undeclared_rule_type(self, plan_dir):
        text = MINIMAL_PLAN.replace("rule homophily pair", "rule homophily ghost")
        plan = parse_plan(text, plan_dir)
        issues = validate_plan(plan)
        assert any(i.severity == "error" and "ghost" in i.message for i in issues)

    def test_transitive_before_producer_warns(self, plan_dir):
        text = (
            "population N=10 seed=1 attributes=attributes.bn\n"
            "linktype pair undirected\nlinktype tri undirected\n"
            "rule transitive tri from pair pair p=1.0 pattern=any-any\n"
            "rule homophily pair bn=pair.bn\n"
        )
        plan = parse_plan(text, plan_dir)
        issues = validate_plan(plan)
        assert any(
            i.severity == "warning" and "no earlier rule" in i.message for i in issues
        )

    def test_vacuous_matching_bn_warns(self, plan_dir):
        vacuous = MATCH_DOC.replace(
            "seeker, target: 1.0, 0.0", "seeker, target: 0.0, 1.0"
        ).replace("target, seeker: 1.0, 0.0", "target, seeker: 0.0, 1.0")
        (plan_dir / "pair.bn").write_text(vacuous)
        issues = validate_plan(load_plan(plan_dir / "plan.txt"))
        assert any("vacuous" in i.message for i in issues)

    def test_missing_bn_file(self, plan_dir):
        (plan_dir / "pair.bn").unlink()
        issues = validate_plan(load_plan(plan_dir / "plan.txt"))
        assert any(i.severity == "error" for i in issues)

    def test_rc_for_undeclared_type_warns(self, plan_dir):
        doc = ATTR_DOC.replace("RC_pair", "RC_ghost")
        (plan_dir / "attributes.bn").write_text(doc)
        issues = validate_plan(load_plan(plan_dir / "plan.txt"))
        assert any("RC_ghost" in i.message for i in issues)

    def test_missing_weight_for_unproduced_type_warns(self, plan_dir):
        text = MINIMAL_PLAN.replace(
            "interact pair p=1.0", "linktype spare undirected\ninteract pair p=1.0"
        )
        plan = parse_plan(text, plan_dir)
        issues = validate_plan(plan)
        assert [(i.severity, "'spare'" in i.message) for i in issues] == [("warning", True)]

    def test_interaction_weight_out_of_range(self, plan_dir):
        text = MINIMAL_PLAN.replace("interact pair p=1.0", "interact pair p=1.5")
        (plan_dir / "plan.txt").write_text(text)
        issues = validate_plan(load_plan(plan_dir / "plan.txt"))
        assert any("outside" in i.message for i in issues)


class TestRun:
    def test_minimal_plan_deterministic_artifacts(self, plan_dir):
        out_a = plan_dir / "out_a"
        out_b = plan_dir / "out_b"
        plan = load_plan(plan_dir / "plan.txt")
        run(plan, out=out_a)
        run(plan, out=out_b)
        names = [
            "agents.csv", "edges_pair.csv", "edges_all.csv",
            "interaction.csv", "network.dot", "report.txt",
            "learned_attributes.bn",
        ]
        for name in names:
            assert (out_a / name).exists(), name
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_overrides_change_run(self, plan_dir):
        plan = load_plan(plan_dir / "plan.txt")
        result = run(plan, population=20, seed=5, write=False)
        assert len(result.store) == 20

    def test_seed_change_keeps_guarantees(self, plan_dir):
        plan = load_plan(plan_dir / "plan.txt")
        seen = []
        for seed in (1, 2, 3):
            store = run(plan, population=60, seed=seed, write=False).store
            pairs = [(min(s, t), max(s, t)) for s, t in store.edges().tolist()]
            assert len(pairs) == len(set(pairs))
            assert all(a != b for a, b in pairs)
            assert (store.remaining("pair") >= 0).all()
            seen.append(sorted(pairs))
        assert seen[0] != seen[1] or seen[1] != seen[2]

    def test_optional_outputs_of_an_earlier_run_removed(self, plan_dir):
        out = plan_dir / "shared"
        run(load_plan(plan_dir / "plan.txt"), out=out)
        assert (out / "network.dot").exists() and (out / "interaction.csv").exists()
        (out / "notes.txt").write_text("kept")
        (plan_dir / "bare.txt").write_text(
            "population N=2001 seed=1 attributes=attributes.bn\nlinktype pair undirected\n"
        )
        bare = load_plan(plan_dir / "bare.txt")
        files = run(bare, out=out).files  # no rules, no interact lines, too large for a dot file
        assert sorted(output_names(["pair"], 2001, False)) == sorted(p.name for p in files)
        assert not (out / "network.dot").exists()
        assert not (out / "interaction.csv").exists()
        assert (out / "learned_attributes.bn").exists()
        files = run(bare, population=0, out=out).files  # no agents to learn from
        assert sorted(output_names(["pair"], 0, False)) == sorted(p.name for p in files)
        assert not (out / "learned_attributes.bn").exists()
        assert (out / "network.dot").exists()
        assert (out / "notes.txt").read_text() == "kept"
        assert (out / "agents.csv").read_text() == "id,role,RC_pair\n"

    def test_manifest_lists_every_written_file(self, plan_dir):
        out = plan_dir / "out"
        result = run(load_plan(plan_dir / "plan.txt"), out=out)
        lines = (out / "manifest.txt").read_text().splitlines()
        names = [line.split("  ", 1)[1] for line in lines]
        assert names == sorted(p.name for p in result.files if p.name != "manifest.txt")
        assert sorted(output_names(["pair"], 10, True)) == sorted(p.name for p in result.files)
        for line in lines:
            digest, name = line.split("  ", 1)
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_stale_edge_file_of_an_earlier_run_removed(self, plan_dir):
        out = plan_dir / "shared"
        plan = load_plan(plan_dir / "plan.txt")
        plan.link_types.append(LinkType("spare", False))
        run(plan, out=out)
        assert (out / "edges_spare.csv").exists()
        (out / "edges_mine.csv").write_text("kept")  # never in a manifest
        run(load_plan(plan_dir / "plan.txt"), out=out)
        assert not (out / "edges_spare.csv").exists()
        assert (out / "edges_mine.csv").read_text() == "kept"
        assert "edges_spare.csv" not in (out / "manifest.txt").read_text()

    def test_manifest_deletes_only_bare_file_names(self, plan_dir):
        out = plan_dir / "out"
        (plan_dir / "x").write_text("kept")
        (out / "sub").mkdir(parents=True)
        (out / "sub" / "y").write_text("kept")
        (out / "notes.txt").write_text("kept")
        # "sub" names a directory; notes.txt is a bare name no run writes
        entries = ("../x", "sub/y", "sub", "notes.txt")
        (out / "manifest.txt").write_text("".join(f"{'0' * 64}  {e}\n" for e in entries))
        run(load_plan(plan_dir / "plan.txt"), out=out)
        assert (plan_dir / "x").read_text() == "kept"
        assert (out / "sub" / "y").read_text() == "kept"
        assert (out / "notes.txt").read_text() == "kept"

    def test_empty_population_run(self, plan_dir):
        plan = load_plan(plan_dir / "plan.txt")
        out = plan_dir / "empty"
        result = run(plan, population=0, out=out)
        assert len(result.store) == 0
        assert result.error_report is None
        assert (out / "edges_pair.csv").read_text() == "source,target\n"

    def test_rule_stream_stable_under_reordering(self, plan_dir):
        # adding an unrelated earlier rule must not change a rule's own draws
        base = load_plan(plan_dir / "plan.txt")
        text = MINIMAL_PLAN.replace(
            "rule homophily pair bn=pair.bn counts=both",
            "rule transitive pair from pair pair p=0.0 pattern=any-any\n"
            "rule homophily pair bn=pair.bn counts=both",
        )
        (plan_dir / "plan2.txt").write_text(text)
        shuffled = load_plan(plan_dir / "plan2.txt")
        links_a = run(base, write=False).store.edges("pair")
        links_b = run(shuffled, write=False).store.edges("pair")
        assert links_a.tolist() == links_b.tolist()


class TestCli:
    @pytest.mark.parametrize("sampled", [False, True])
    def test_generate_and_stats(self, plan_dir, capsys, monkeypatch, sampled):
        out = plan_dir / "cli_out"
        args = ["generate", str(plan_dir / "plan.txt"), "--out", str(out)]
        if sampled:
            # Components above the limit sample their path-length sources; a
            # run with a seed other than 0 must sample as stats does.
            monkeypatch.setattr(metrics, "EXACT_PATH_LIMIT", 10)
            monkeypatch.setattr(metrics, "PATH_SAMPLE_SOURCES", 5)
            args = ["generate", str(KENYA_PLAN), "--out", str(out),
                    "--population", "300", "--seed", "7"]
        code = main(args)
        assert code == EXIT_OK
        report_echo = capsys.readouterr().out
        assert "stats.collapsed.density" in report_echo
        assert (out / "report.txt").exists()

        code = main(["stats", str(out)])
        assert code == EXIT_OK
        stats_out = capsys.readouterr().out
        assert "stats.collapsed.links" in stats_out
        if sampled:
            assert "stats.collapsed.path_length_estimated = true" in stats_out.splitlines()
        report = (out / "report.txt").read_text().splitlines()
        assert stats_out.splitlines() == [l for l in report if l.startswith("stats.")]

    def test_generate_reads_vacuity_off_the_shared_supports(self, tmp_path, monkeypatch):
        # validate and run read vacuity off one function: it runs once per
        # Kenya homophily rule, in validate, whose result the run reuses,
        # and p(link = yes) is never asked.
        sites = [("validate_plan", "plan.py"), ("run", "cli.py")]
        callers = []
        rule_supports = matching_module.rule_supports

        def counted(rule, engine):
            frames = {(f.function, Path(f.filename).name) for f in inspect.stack(0)}
            callers.extend(name for name, module in sites if (name, module) in frames)
            return rule_supports(rule, engine)

        def refused(engine, evidence, query):
            raise AssertionError("generate asked for a posterior")

        monkeypatch.setattr(matching_module, "rule_supports", counted)
        monkeypatch.setattr(Engine, "posterior", refused)
        args = ["generate", str(KENYA_PLAN), "--population", "300", "--out", str(tmp_path / "o")]
        assert main(args) == EXIT_OK
        assert callers == ["validate_plan"] * 4

    def test_a_replaced_rule_analyses_its_own_network(self):
        # validate_plan analysed the spouses rule; the same rule on the
        # colleagues network reads that network's supports, not the old ones
        plan = load_plan(KENYA_PLAN)
        assert not [issue for issue in validate_plan(plan) if issue.severity == "error"]
        spouses = next(rule.loaded for rule in plan.rules if rule.link_type == "spouses")
        spouses.supports  # analysed and kept
        colleagues = matching_module.load_matching_bn_file(KENYA_PLAN.parent / "colleagues.bn")
        moved = replace(spouses, bn=colleagues.bn, link_variable=colleagues.link_variable)
        store = generate_population(plan.attribute_bn, 500, substream(1, "population"))
        everyone = np.arange(len(store))
        got, want = (matching_module.class_tables(rule, Engine(rule.bn), store, everyone)
                     for rule in (moved, colleagues))
        assert np.array_equal(got.a1_class, want.a1_class)
        assert np.array_equal(got.a2_class, want.a2_class)
        assert got.rows == want.rows

    def test_generate_reads_each_network_once(self, tmp_path, monkeypatch):
        # run takes the networks validate parsed: the attribute network and
        # Kenya's four matching files are each read once
        read = []
        read_text = plan_module.read_text

        def counted(path, *error):
            read.append(Path(path).name)
            return read_text(path, *error)

        for module in (plan_module, bn_module, matching_module):
            monkeypatch.setattr(module, "read_text", counted)
        args = ["generate", str(KENYA_PLAN), "--population", "300", "--out", str(tmp_path / "o")]
        assert main(args) == EXIT_OK
        assert sorted(read) == sorted([
            "kenya.plan", "attributes.bn", "spouses.bn", "motherOf.bn", "friendship.bn",
            "colleagues.bn",
        ])

    def test_validate_subcommand(self, plan_dir, capsys):
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_OK
        assert "plan ok" in capsys.readouterr().out

    def test_undeclared_type_is_invalid_exit(self, plan_dir, capsys):
        text = MINIMAL_PLAN.replace("rule homophily pair", "rule homophily ghost")
        (plan_dir / "plan.txt").write_text(text)
        code = main(["generate", str(plan_dir / "plan.txt"), "--out", str(plan_dir / "o")])
        assert code == EXIT_INVALID
        assert "ghost" in capsys.readouterr().err

    def test_usage_error(self):
        assert main([]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("size", ["-5", "x"])
    def test_population_flag_must_be_a_count(self, plan_dir, capsys, size):
        out = plan_dir / "o"
        code = main(["generate", str(plan_dir / "plan.txt"), "--population", size, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--population" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("in_plan", [False, True], ids=["flag", "plan"])
    def test_unshapeable_population_is_runtime_exit(self, plan_dir, capsys, in_plan):
        # validate refuses a plan whose population cannot be shaped, so
        # generate stops before it starts; a --population value is checked
        # only when generate shapes the population.
        size = str(10**20)
        args = ["generate", str(plan_dir / "plan.txt"), "--out", str(plan_dir / "o")]
        if in_plan:
            (plan_dir / "plan.txt").write_text(MINIMAL_PLAN.replace("N=10", f"N={size}"))
            assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
            assert f"cannot hold {size} agents" in capsys.readouterr().out
            assert main(args) == EXIT_INVALID
            err = capsys.readouterr().err
            assert f"cannot hold {size} agents" in err
            assert "generating population" not in err
        else:
            args += ["--population", size]
            assert main(args) == EXIT_RUNTIME
            err = capsys.readouterr().err
            assert f"runtime failure: cannot hold {size} agents" in err
        assert "Traceback" not in err
        assert not (plan_dir / "o").exists()

    def test_out_of_memory_is_runtime_exit(self, plan_dir, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "generate_population", exhausted)
        code = main(["generate", str(plan_dir / "plan.txt"), "--out", str(plan_dir / "o")])
        assert code == EXIT_RUNTIME
        assert "runtime failure: MemoryError" in capsys.readouterr().err

    def test_validate_out_of_memory_is_runtime_exit(self, plan_dir, capsys, monkeypatch):
        # the rule's supports are eliminations that may run out of memory
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(Engine, "joint", exhausted)
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime failure: MemoryError" in err and "Traceback" not in err

    def test_demand_beyond_int64_is_summed_exactly(self, tmp_path, capsys):
        # four agents that each want 2**62 links: the demand, 2**64, and
        # what stays open overflow int64
        (tmp_path / "attributes.bn").write_text(
            "variable g { x }\nvariable RC_pair { 4611686018427387904 }\n"
            "cpt g { 1.0 }\ncpt RC_pair { 1.0 }\n"
        )
        (tmp_path / "pair.bn").write_text(
            "matching pair link=link a1=a1_ a2=a2_ counts=both\n"
            "variable a1_g { x }\nvariable a2_g { x }\nvariable link { yes, no }\n"
            "cpt a1_g { 1.0 }\ncpt a2_g { 1.0 }\ncpt link { 1.0, 0.0 }\n"
        )
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "population N=4 seed=1 attributes=attributes.bn\nlinktype pair undirected\n"
            "rule homophily pair bn=pair.bn\n"
        )
        assert main(["validate", str(plan)]) == EXIT_OK
        assert "plan ok" in capsys.readouterr().out
        assert main(["generate", str(plan), "--out", str(tmp_path / "o")]) == EXIT_OK
        report = (tmp_path / "o" / "report.txt").read_text().splitlines()
        assert {
            "rule.0.demand = 18446744073709551616",
            "rule.0.links = 6",
            "rule.0.unfulfilled = 18446744073709551604",
            "error.matching.pair = 1.0",
        } <= set(report)

    @pytest.mark.parametrize("labels", ["-1, 0, 1", "0, 1, 99999999999999999999"])
    def test_rc_label_that_is_not_a_count_is_invalid(self, plan_dir, capsys, labels):
        doc = ATTR_DOC.replace("RC_pair { 0, 1 }", f"RC_pair {{ {labels} }}")
        doc = doc.replace("0.0, 1.0", "0.5, 0.0, 0.5")
        (plan_dir / "attributes.bn").write_text(doc)
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "RC_pair" in out and "plan ok" not in out
        out_dir = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out_dir)]) == EXIT_INVALID
        assert "generating population" not in capsys.readouterr().err
        assert not out_dir.exists()

    def test_attribute_named_like_the_id_column_is_invalid(self, plan_dir, capsys):
        # agents.csv would carry two 'id' columns
        (plan_dir / "attributes.bn").write_text(ATTR_DOC.replace("role", "id"))
        (plan_dir / "pair.bn").write_text(MATCH_DOC.replace("role", "id"))
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "error: attribute variable 'id'" in out and "plan ok" not in out
        out_dir = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out_dir)]) == EXIT_INVALID
        assert "error: attribute variable 'id'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_warnings_go_to_each_commands_stream(self, plan_dir, capsys):
        # validate reports on stdout, generate on stderr; a warning stops neither
        text = MINIMAL_PLAN.replace(
            "interact pair p=1.0", "linktype spare undirected\ninteract pair p=1.0"
        )
        (plan_dir / "plan.txt").write_text(text)
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("warning: ") and "'spare'" in captured.out
        assert "plan ok" in captured.out and "warning" not in captured.err
        out_dir = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out_dir)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: ") and "'spare'" in captured.err
        assert "warning" not in captured.out
        assert (out_dir / "agents.csv").exists()

    def test_nan_probability_is_invalid(self, plan_dir, capsys):
        doc = "variable role { seeker, target }\ncpt role { nan, 1.0 }\n"
        with pytest.raises(BnValidationError, match="outside"):
            parse_bn(doc)
        (plan_dir / "attributes.bn").write_text(doc)
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        assert "plan ok" not in capsys.readouterr().out
        out = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_INVALID
        assert not out.exists()

    def test_missing_plan_file(self, tmp_path):
        assert main(["generate", str(tmp_path / "nope.plan")]) == EXIT_INVALID

    def test_unwritable_output_is_runtime_exit(self, plan_dir, capsys):
        # refused before any agent is drawn, also for a path under the file
        blocker = plan_dir / "blocked"
        blocker.write_text("not a directory")
        for out in (blocker, blocker / "sub"):
            code = main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)])
            assert code == EXIT_RUNTIME
            err = capsys.readouterr().err
            assert f"{blocker} is not a directory" in err
            assert "generating population" not in err and "Traceback" not in err
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize("name", ["agents.csv", "edges_pair.csv", "report.txt", "manifest.txt"])
    def test_output_name_taken_by_a_directory_is_runtime_exit(self, plan_dir, capsys, name):
        # refused before any agent is drawn, so no file of the run is written
        out = plan_dir / "o"
        (out / name).mkdir(parents=True)
        code = main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"cannot write {out / name}" in err
        assert "generating population" not in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == [name]

    def test_failed_output_write_is_runtime_exit(self, tmp_path, monkeypatch, capsys):
        # The writer fails on its k-th file, for every k.  The run exits 3
        # naming that file, and the directory holds the earlier run byte for
        # byte, which stats still reads.
        out = tmp_path / "o"
        args = ["generate", str(REPO / "plans" / "inconsistent" / "inconsistent.plan"),
                "--out", str(out)]
        assert main([*args, "--population", "300", "--seed", "1"]) == EXIT_OK
        earlier = {path.name: path.read_bytes() for path in out.iterdir()}
        report = earlier["report.txt"].decode().splitlines(keepends=True)
        stats = "".join(line for line in report if line.startswith("stats."))
        open_ = Path.open
        for k in range(1, len(earlier) + 1):
            written = []

            def failing(path, mode="r", *rest, **options):
                if mode == "wb":
                    written.append(path)
                    if len(written) == k:
                        raise OSError(errno.ENOSPC, "No space left on device")
                return open_(path, mode, *rest, **options)

            capsys.readouterr()
            with monkeypatch.context() as patch:
                patch.setattr(Path, "open", failing)
                assert main([*args, "--population", "400", "--seed", "2"]) == EXIT_RUNTIME
            err = capsys.readouterr().err
            assert f"runtime failure: cannot write {out / written[-1].name}: No space left" in err
            assert "Traceback" not in err and ".staging-" not in err
            assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier
            assert main(["stats", str(out)]) == EXIT_OK
            assert capsys.readouterr().out == stats
        assert written[-1].name == "manifest.txt"

    def test_write_failing_on_a_later_block_is_runtime_exit(self, tmp_path, monkeypatch, capsys):
        # One row per block: agents.csv fails on its third write, after its
        # header and first row reached the staged file.  The half-written
        # file stays out of the directory, which holds the earlier run.
        out = tmp_path / "o"
        args = ["generate", str(REPO / "plans" / "inconsistent" / "inconsistent.plan"),
                "--out", str(out)]
        assert main([*args, "--population", "300", "--seed", "1"]) == EXIT_OK
        earlier = {path.name: path.read_bytes() for path in out.iterdir()}
        report = earlier["report.txt"].decode().splitlines(keepends=True)
        stats = "".join(line for line in report if line.startswith("stats."))
        open_, staged = Path.open, []

        class FailingFile:
            def __init__(self, path, fh):
                self.path, self.fh, self.writes = path, fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes == 3:
                    self.fh.flush()
                    staged.append(self.path.read_bytes())
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(chunk)

        def opening(path, mode="r", *rest, **options):
            fh = open_(path, mode, *rest, **options)
            return FailingFile(path, fh) if mode == "wb" and path.name == "agents.csv" else fh

        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(Path, "open", opening)
            patch.setattr(csvscan, "WRITE_BLOCK", 1)
            assert main([*args, "--population", "400", "--seed", "2"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"runtime failure: cannot write {out / 'agents.csv'}: No space left" in err
        assert "Traceback" not in err and ".staging-" not in err
        assert staged[0].startswith(b"id,") and staged[0].count(b"\n") == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier
        assert main(["stats", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == stats

    def test_dangling_symlink_at_an_output_name_is_replaced(self, tmp_path, capsys):
        # the files are moved into place, so the link itself gives way to
        # the new run's file and the directory holds that run alone
        out = tmp_path / "o"
        args = ["generate", str(REPO / "plans" / "inconsistent" / "inconsistent.plan"),
                "--out", str(out)]
        assert main([*args, "--population", "300", "--seed", "1"]) == EXIT_OK
        (out / "report.txt").unlink()
        (out / "report.txt").symlink_to(tmp_path / "nowhere" / "report.txt")
        assert main([*args, "--population", "400", "--seed", "2"]) == EXIT_OK
        assert not (out / "report.txt").is_symlink()
        assert not (tmp_path / "nowhere").exists()
        for line in (out / "manifest.txt").read_text().splitlines():
            digest, name = line.split("  ", 1)
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert sorted(path.name for path in out.iterdir()) == sorted(
            output_names(["spouses"], 400, False)
        )

    def test_byte_order_marks_change_no_output(self, plan_dir, capsys):
        plan = str(plan_dir / "plan.txt")
        assert main(["generate", plan, "--out", str(plan_dir / "plain")]) == EXIT_OK
        for name in ("plan.txt", "attributes.bn", "pair.bn"):
            path = plan_dir / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["validate", plan]) == EXIT_OK
        assert main(["generate", plan, "--out", str(plan_dir / "marked")]) == EXIT_OK
        names = sorted(p.name for p in (plan_dir / "plain").iterdir())
        assert names == sorted(p.name for p in (plan_dir / "marked").iterdir())
        for name in names:
            assert (plan_dir / "plain" / name).read_bytes() == (plan_dir / "marked" / name).read_bytes()

    @pytest.mark.parametrize("name", ["plan.txt", "attributes.bn", "pair.bn"])
    def test_directory_in_place_of_an_input_is_invalid_exit(self, plan_dir, capsys, name):
        (plan_dir / name).unlink()
        (plan_dir / name).mkdir()
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert f"{plan_dir / name}: Is a directory" in captured.out + captured.err
        out = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "generating population" not in err and "Traceback" not in err
        assert not out.exists()

    def test_matching_file_error_names_its_own_line(self, tmp_path, capsys):
        plan_dir = tmp_path / "inconsistent"
        shutil.copytree(REPO / "plans" / "inconsistent", plan_dir)
        path = plan_dir / "spouses.bn"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[8] == "  male, female: 1.0, 0.0\n"
        lines[8] = "  male, female: 1.0, oops\n"
        path.write_text("".join(lines))
        assert main(["validate", str(plan_dir / "inconsistent.plan")]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert "rule 1 (spouses): line 9, column 6: expected probability, got 'oops'" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("prefixes", ["a1=a2_ a2=a2_", "a1=a a2=a2_"])
    def test_prefixes_that_claim_one_variable_are_invalid_exit(self, tmp_path, capsys, prefixes):
        plan_dir = tmp_path / "inconsistent"
        shutil.copytree(REPO / "plans" / "inconsistent", plan_dir)
        path = plan_dir / "spouses.bn"
        path.write_text(path.read_text().replace("a1=a1_ a2=a2_", prefixes, 1))
        # the header, on the file's first line, causes the problem
        message = "rule 1 (spouses): line 1: 'a2_gender' carries both the a1 and the a2 prefix"
        assert main(["validate", str(plan_dir / "inconsistent.plan")]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert message in captured.out and "Traceback" not in captured.err
        out = plan_dir / "o"
        assert main(["generate", str(plan_dir / "inconsistent.plan"), "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert message in err
        assert "generating population" not in err and "Traceback" not in err
        assert not out.exists()

    def test_broken_bn_is_invalid_exit(self, plan_dir):
        (plan_dir / "attributes.bn").write_text("variable g { a, b }\ncpt g { 0.9, 0.9 }\n")
        code = main(["generate", str(plan_dir / "plan.txt"), "--out", str(plan_dir / "o")])
        assert code == EXIT_INVALID

    def test_matching_options_refused_by_validate_and_generate(self, plan_dir, capsys):
        text = MINIMAL_PLAN.replace("counts=both", "counts=both retries=0 smallset=-1")
        (plan_dir / "plan.txt").write_text(text)
        # the plan's options, not the matching file's header, cause these:
        # they name no line
        message = "error: rule 1 (pair): retries must be at least 1; small_set must be non-negative"
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        assert message in capsys.readouterr().out.splitlines()
        out = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert message in err.splitlines()
        assert "generating population" not in err
        assert not out.exists()

    def test_bad_counts_reported_once(self, plan_dir, capsys):
        text = MINIMAL_PLAN.replace("counts=both", "counts=foo")
        (plan_dir / "plan.txt").write_text(text)
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        errors = [l for l in capsys.readouterr().out.splitlines() if l.startswith("error")]
        assert len(errors) == 1 and "counts must be one of" in errors[0]

    def test_missing_weight_exits_before_generating(self, plan_dir, capsys):
        text = MINIMAL_PLAN.replace(
            "interact pair p=1.0", "linktype spare undirected\ninteract spare p=0.5"
        )
        (plan_dir / "plan.txt").write_text(text)
        out = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_INVALID
        assert "no interaction probability" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("edges_all.csv", "source,target\n0,1\n"),  # header of a per-type file
            ("edges_all.csv", "source,target,type\n0,x,pair\n"),  # non-integer id
            ("edges_all.csv", "source,target,type\n0,1\n"),  # too few fields
            ("edges_all.csv", "source,target,type\n0,1,pair,extra\n"),  # too many
            ("edges_all.csv", "source,target,type\n0,10,pair\n"),  # id == N
            ("edges_all.csv", "source,target,type\n-1,1,pair\n"),  # negative id
            ("edges_all.csv", "source,target,type\n0,99999999999999999999,pair\n"),  # > int64
            ("agents.csv", "id,role,RC_pair\n0,seeker\n"),  # ragged agent row
            # no id column, then ids shifted by 7: both with ten rows
            ("agents.csv", "role,RC_pair\n" + "seeker,1\n" * 10),
            ("agents.csv", "id,role,RC_pair\n" + "".join(f"{k + 7},seeker,1\n" for k in range(10))),
            # not UTF-8: written as Latin-1, "\xff" is the byte 0xff
            ("agents.csv", "id,role,RC_pair\n0,seeker\xff,1\n"),
            ("edges_all.csv", "source,target,type\n0,1,pair\xff\n"),
            ("manifest.txt", "\xff  agents.csv\n"),
        ],
    )
    def test_malformed_stats_input_is_invalid_exit(self, plan_dir, capsys, name, text):
        out = plan_dir / "cli_out"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        (out / "manifest.txt").unlink()  # else the digest check refuses first
        (out / name).write_text(text, encoding="latin-1")
        assert main(["stats", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "invalid network files" in err and name in err

    @pytest.mark.parametrize("rows, error", [
        ("0,1,pair\n\r\n+5,1,pair\n", "edges_all.csv:4: agent id '+5' is not"),  # blank lines count
        ("0,1,pair\r1,2,pair\r", "edges_all.csv:2: expected 3 fields, got 5"),
        ("0,1,pair\n\n0,2,pair\u2028\n", "edges_all.csv: link type name 'pair\\u2028'"),
    ])
    def test_stats_refuses_spellings_popnetgen_never_writes(self, plan_dir, capsys, rows, error):
        # other line breaks are ordinary characters: a lone '\r' joins lines,
        # and a break inside a type name fails the plan's name check
        out = plan_dir / "cli_out"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        (out / "manifest.txt").unlink()
        (out / "edges_all.csv").write_text("source,target,type\n" + rows, encoding="utf-8")
        assert main(["stats", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"invalid network files: {out}/{error}" in err

    @pytest.mark.parametrize("name", ["collapsed", "COLLAPSED", "all", "a b", "x = y", ""])
    def test_stats_refuses_a_link_type_name_that_a_plan_refuses(self, plan_dir, capsys, name):
        # such a name would shadow the collapsed scope's stats.collapsed.*
        # keys or break the 'key = value' lines
        out = plan_dir / "cli_out"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_OK
        assert main(["stats", str(out)]) == EXIT_OK  # the run's own names pass
        capsys.readouterr()
        (out / "manifest.txt").unlink()  # else the digest check refuses first
        with open(out / "edges_all.csv", "a") as fh:
            fh.write(f"0,1,{name}\n")
        assert main(["stats", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"{out / 'edges_all.csv'}: link type name {name!r} is reserved" in err

    def test_path_through_a_file_is_invalid_exit(self, plan_dir, capsys):
        (plan_dir / "plan.txt").write_text(MINIMAL_PLAN.replace("bn=pair.bn", "bn=pair.bn/x.bn"))
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        assert f"{plan_dir / 'pair.bn' / 'x.bn'}: Not a directory" in capsys.readouterr().out
        assert main(["stats", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        assert "invalid network files" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, keep_manifest",
        [("agents.csv", True), ("agents.csv", False), ("edges_all.csv", True),
         ("edges_all.csv", False), ("manifest.txt", False)],
    )
    def test_stats_refuses_a_directory_in_place_of_a_file(self, plan_dir, capsys, name, keep_manifest):
        out = plan_dir / "cli_out"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        if not keep_manifest:
            (out / "manifest.txt").unlink()
        if (out / name).exists():
            (out / name).unlink()
        (out / name).mkdir()
        assert main(["stats", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"invalid network files: {out / name}: Is a directory" in err

    @pytest.mark.parametrize("name", ["agents.csv", "edges_all.csv"])
    def test_stats_refuses_files_that_do_not_match_the_manifest(self, plan_dir, capsys, name):
        out = plan_dir / "cli_out"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        with open(out / name, "a") as fh:
            fh.write("\n")  # still well formed, no longer the run's file
        assert main(["stats", str(out)]) == EXIT_INVALID
        assert f"{name}: does not match its digest" in capsys.readouterr().err

    def test_stats_keeps_declared_types_without_links(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["generate", str(KENYA_PLAN), "--out", str(out), "--population", "0"]
        assert main(args) == EXIT_OK
        capsys.readouterr()
        report = (out / "report.txt").read_text().splitlines()
        assert main(["stats", str(out)]) == EXIT_OK
        stats_out = capsys.readouterr().out.splitlines()
        assert stats_out == [line for line in report if line.startswith("stats.")]
        assert len({line.split(".")[1] for line in stats_out}) == 7
        # Without a manifest only the types present in edges_all.csv count.
        (out / "manifest.txt").unlink()
        assert main(["stats", str(out)]) == EXIT_OK
        assert {line.split(".")[1] for line in capsys.readouterr().out.splitlines()} == {
            "collapsed"
        }

    @pytest.mark.parametrize("sampled", [False, True])
    def test_stats_measures_a_type_holding_every_link_once(self, tmp_path, capsys, monkeypatch,
                                                          sampled):
        # A 25 x 200 grid of one type a: a's scope is the collapsed graph.
        # A sampled path length draws from each scope's own stream, so then
        # both scopes are measured.
        out = tmp_path / "grid"
        out.mkdir()
        (out / "agents.csv").write_text("id\n" + "".join(f"{v}\n" for v in range(5000)))
        edges = [(v, v + 1) for v in range(5000) if v % 200 < 199]
        edges += [(v, v + 200) for v in range(4800)]
        (out / "edges_all.csv").write_text(
            "source,target,type\n" + "".join(f"{a},{b},a\n" for a, b in edges))
        if sampled:
            monkeypatch.setattr(metrics, "EXACT_PATH_LIMIT", 10)
            monkeypatch.setattr(metrics, "PATH_SAMPLE_SOURCES", 5)
        scopes, stats_for_edges = [], cli.stats_for_edges

        def recorded(n, ends, scope):
            scopes.append(scope)
            return stats_for_edges(n, ends, scope)
        monkeypatch.setattr(cli, "stats_for_edges", recorded)
        assert main(["stats", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert scopes == ["collapsed", "a"][:1 + sampled]
        assert f"stats.a.path_length_estimated = {str(sampled).lower()}" in lines
        if not sampled:
            renamed = [line.replace("stats.collapsed.", "stats.a.", 1) for line in lines
                       if line.startswith("stats.collapsed.")]
            assert renamed == [line for line in lines if line.startswith("stats.a.")]

    @pytest.mark.parametrize("name", ["all", "All", "collapsed", "COLLAPSED", "sib,x"])
    def test_link_type_name_refused(self, plan_dir, capsys, name):
        text = MINIMAL_PLAN.replace(
            "linktype pair undirected", f"linktype pair undirected\nlinktype {name} directed"
        )
        (plan_dir / "plan.txt").write_text(text)
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        assert f"link type name {name!r}" in capsys.readouterr().err
        out = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_INVALID
        assert "generating population" not in capsys.readouterr().err
        assert not out.exists()

    def test_link_types_differing_only_in_case_refused(self, plan_dir, capsys):
        # edges_pair.csv and edges_Pair.csv are one file where case is ignored
        text = MINIMAL_PLAN.replace(
            "linktype pair undirected", "linktype pair undirected\nlinktype Pair directed"
        )
        (plan_dir / "plan.txt").write_text(text)
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        assert "link type 'Pair' declared more than once" in capsys.readouterr().out
        out = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_INVALID
        assert "generating population" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("error", package_exceptions(), ids=lambda cls: cls.__name__)
    def test_every_package_error_has_an_exit_code(self, plan_dir, capsys, monkeypatch, error):
        def failing_run(*args, **kwargs):
            raise error(*EXCEPTION_ARGS.get(error, ("injected",)))

        monkeypatch.setattr(cli, "run", failing_run)
        code = main(["generate", str(plan_dir / "plan.txt"), "--out", str(plan_dir / "o")])
        assert code in (EXIT_INVALID, EXIT_RUNTIME)
        assert "Traceback" not in capsys.readouterr().err


SCIPY_FREE_RUN = """
import sys
from popnetgen.cli import main
plan, out = sys.argv[1:]
codes = [
    main(["validate", plan]),
    main(["generate", plan, "--population", "500", "--out", out]),
    main(["stats", out]),
]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_kenya_run_loads_no_scipy(tmp_path):
    # Importing scipy.sparse would about double the start-up of every call;
    # only path lengths of very deep components may load it.  Nor does the
    # run load numpy.ma, which a bare np.unique imports on its first call in
    # numpy 2.4 (12-20 ms).  A fresh process, as the tests themselves may
    # have loaded either.
    package_root = str(Path(popnetgen.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(KENYA_PLAN), str(tmp_path / "run")],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.splitlines()[-2:] == ["[0, 0, 0] []", "[]"]
