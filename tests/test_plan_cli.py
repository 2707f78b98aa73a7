"""Plan parsing, validation warnings, and the command-line pipeline."""
import hashlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import popnetgen
from popnetgen import cli, metrics
from popnetgen.bn import BnCycleError, BnSyntaxError, BnValidationError, parse_bn
from popnetgen.cli import EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, run
from popnetgen.export import output_names
from popnetgen.plan import (
    HomophilyPlanRule,
    PlanSyntaxError,
    load_plan,
    parse_plan,
    validate_plan,
)
from popnetgen.population import LinkType
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
            assert (store.created["pair"] <= store.required["pair"]).all()
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
        entries = ("../x", "sub/y", "sub")  # the last names a directory
        (out / "manifest.txt").write_text("".join(f"{'0' * 64}  {e}\n" for e in entries))
        run(load_plan(plan_dir / "plan.txt"), out=out)
        assert (plan_dir / "x").read_text() == "kept"
        assert (out / "sub" / "y").read_text() == "kept"

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

    def test_broken_bn_is_invalid_exit(self, plan_dir):
        (plan_dir / "attributes.bn").write_text("variable g { a, b }\ncpt g { 0.9, 0.9 }\n")
        code = main(["generate", str(plan_dir / "plan.txt"), "--out", str(plan_dir / "o")])
        assert code == EXIT_INVALID

    def test_matching_options_refused_by_validate_and_generate(self, plan_dir, capsys):
        text = MINIMAL_PLAN.replace("counts=both", "counts=both retries=0 smallset=-1")
        (plan_dir / "plan.txt").write_text(text)
        assert main(["validate", str(plan_dir / "plan.txt")]) == EXIT_INVALID
        assert "retries must be at least 1" in capsys.readouterr().out
        out = plan_dir / "o"
        assert main(["generate", str(plan_dir / "plan.txt"), "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "small_set must be non-negative" in err
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
