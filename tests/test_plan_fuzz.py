"""Whole-plan fuzzing: what validate accepts, generate runs, a rule validate
calls vacuous is the one the run reports vacuous, and stats on the run's
files prints the report's statistics."""
import contextlib
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popnetgen.bn import BayesianNetwork, Cpt, serialize_bn
from popnetgen.cli import EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, main

from helpers import make_random_bn
from test_matching import make_random_matching_rule

# Each choice is mostly valid, so that about half the plans pass validate.
LINK_TYPES = ["pair", "kin", "x-y_1"]
# reserved in any case, breaks the CSV files, or clashes with "pair" where
# case is ignored
BAD_LINK_TYPES = ["all", "All", "collapsed", "a,b", "Pair"]
COUNT_LABELS = [("0", "1", "2"), ("1",), ("0", "3")]
BAD_COUNT_LABELS = [("0", "-1"), ("0", "two")]
HOMOPHILY_OPTIONS = [
    "counts=both", "counts=a1", "counts=a2", "retries=1", "retries=3",
    "smallset=0", "smallset=5", "smallset=100000",
    "counts=none", "retries=0", "smallset=-1",
]
PATTERNS = ["any-any", "source-target", "target-source", "any-source"] * 2 + ["source-side"]


def sometimes(rng, valid: list, invalid: list, rate: float = 1 / 16):
    """One of ``invalid`` at the given rate, else one of ``valid``.  The
    numpy stream decides: hypothesis draws small integers far more often
    than uniformly."""
    choices = invalid if rng.random() < rate else valid
    return choices[int(rng.integers(len(choices)))]


@st.composite
def plan_directories(draw) -> dict[str, str | None]:
    """Files of one plan directory by name, ``plan.txt`` among them.  Text
    is written with ``surrogateescape``, so "\\udcff" stands for the byte 0xff;
    a leading "\\ufeff" is a byte-order mark, and None a directory.

    The attribute network has attributes p0, p1, ... with labels x0, x1, ...
    and ``RC_`` variables for most link types; matching files copy p0 (and
    p1) with domains of their own, so some rules read labels the attribute
    network lacks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    types = draw(st.lists(st.sampled_from(LINK_TYPES), min_size=1, max_size=3, unique=True))
    if rng.random() < 1 / 3:
        types.append(draw(st.sampled_from(BAD_LINK_TYPES)))

    def link_type():
        return sometimes(rng, types, ["ghost"], 1 / 24)  # ghost is never declared

    attributes = make_random_bn(rng, max_vars=3, max_domain=4)
    text = re.sub(r"\bv(\d+)\b", r"p\1", serialize_bn(attributes))
    counted = [name for name in types if rng.random() < 7 / 8] + ["ghost"] * (rng.random() < 1 / 8)
    for name in counted:
        labels = sometimes(rng, COUNT_LABELS, BAD_COUNT_LABELS)
        probs = ", ".join(map(repr, rng.dirichlet(np.ones(len(labels))).tolist()))
        text += f"variable RC_{name} {{ {', '.join(labels)} }}\ncpt RC_{name} {{ {probs} }}\n"
    files = {"attributes.bn": text}

    lines = [
        f"population N={sometimes(rng, [rng.integers(2, 201)], [0, 1], 1 / 8)} "
        f"seed={rng.integers(0, 10)} attributes=attributes.bn",
        *(f"linktype {name} {draw(st.sampled_from(['directed', 'undirected']))}" for name in types),
    ]
    for k in range(rng.integers(0, 5)):
        name = link_type()
        if rng.random() < 2 / 3:
            counts = draw(st.sampled_from(["both", "a1", "a2"]))
            a1 = sometimes(rng, ["a1_"], ["a2_"], 1 / 8)  # both prefixes claim the a2 copies
            bn = make_random_matching_rule(rng).bn
            if rng.random() < 1 / 6:  # vacuous: link = yes has probability 0 in every row
                link = bn.cpts["link"]
                link = Cpt("link", link.parents, dict.fromkeys(link.rows, (0.0, 1.0)))
                bn = BayesianNetwork(bn.variables, {**bn.cpts, "link": link})
            files[f"m{k}.bn"] = (
                f"matching {name} link=link a1={a1} a2=a2_ counts={counts}\n" + serialize_bn(bn)
            )
            options = [
                sometimes(rng, HOMOPHILY_OPTIONS[:8], HOMOPHILY_OPTIONS[8:])
                for _ in range(rng.integers(0, 3))
            ]
            options = list({option.partition("=")[0]: option for option in options}.values())
            lines.append(" ".join([f"rule homophily {name} bn=m{k}.bn", *options]))
        else:
            p = sometimes(rng, ["0", "0.5", "1"], ["1.5"])
            pattern = sometimes(rng, PATTERNS[:4], PATTERNS[4:])
            lines.append(
                f"rule transitive {name} from {link_type()} {link_type()} p={p} pattern={pattern}"
            )
    if draw(st.booleans()):
        for name in {link_type() for _ in range(len(types) + 1)}:
            lines.append(f"interact {name} p={sometimes(rng, ['0.25', '1'], ['2'])}")
    files["plan.txt"] = "\n".join(lines) + "\n"
    if rng.random() < 1 / 10:  # one file that is not UTF-8
        name = sorted(files)[int(rng.integers(len(files)))]
        files[name] = "# \udcff\n" + files[name]
    for name in sorted(files):
        if rng.random() < 1 / 8:
            files[name] = "\ufeff" + files[name]
    if rng.random() < 1 / 8:  # a directory in place of a network file
        networks = sorted(name for name in files if name != "plan.txt")
        files[networks[int(rng.integers(len(networks)))]] = None
    return files


def vacuous_plan(position: int) -> dict[str, str | None]:
    """Two homophily rules of one type, the one at ``position`` vacuous.  The
    other cannot link two men, so it is not vacuous although its first
    support cell (a1 male, a2 male) is empty."""
    combos = ("male, male", "male, female", "female, male", "female, female")
    linked, vacuous = ("0.0, 1.0", "1.0, 0.0", "0.5, 0.5", "0.0, 1.0"), ("0.0, 1.0",) * 4
    files = {
        "attributes.bn": "variable gender { male, female }\nvariable RC_pair { 0, 1, 2 }\n"
        "cpt gender { 0.5, 0.5 }\ncpt RC_pair { 0.2, 0.4, 0.4 }\n",
    }
    lines = ["population N=60 seed=3 attributes=attributes.bn", "linktype pair undirected"]
    for k in range(2):
        rows = vacuous if k == position else linked
        files[f"m{k}.bn"] = (
            "matching pair link=link a1=a1_ a2=a2_ counts=both\n"
            "variable a1_gender { male, female }\nvariable a2_gender { male, female }\n"
            "variable link { yes, no }\ncpt a1_gender { 0.5, 0.5 }\ncpt a2_gender { 0.5, 0.5 }\n"
            "cpt link | a1_gender, a2_gender {\n"
            + "".join(f"  {c}: {p}\n" for c, p in zip(combos, rows)) + "}\n"
        )
        lines.append(f"rule homophily pair bn=m{k}.bn")
    files["plan.txt"] = "\n".join(lines) + "\n"
    return files


def write_files(base: Path, files: dict[str, str | None], marks: bool = True) -> None:
    """The plan directory on disk; ``marks=False`` drops the byte-order marks."""
    for name, text in files.items():
        if text is None:
            (base / name).mkdir(exist_ok=True)
        else:
            text = text if marks else text.removeprefix("\ufeff")
            (base / name).write_text(text, encoding="utf-8", errors="surrogateescape")


def run_cli(*args) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command run in-process; an
    exception that escapes ``main`` fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in args])
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(plan_directories(), st.integers(0, 2**32 - 1))
# Hypothesis repeats seeds, so a run may draw no vacuous rule at all.
@example(vacuous_plan(0), 0)
@example(vacuous_plan(1), 5)
def test_validate_agrees_with_generate_and_stats_with_report(files, failing_write):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        plan, out = base / "plan.txt", base / "out"
        texts = [text for text in files.values() if text is not None]
        marked = any(text.startswith("\ufeff") for text in texts)
        if marked and not any("\udcff" in text for text in texts):
            # a byte-order mark changes nothing validate prints; an
            # undecodable byte's offset counts the mark
            write_files(base, files, marks=False)
            unmarked = run_cli("validate", plan)
            write_files(base, files)
            assert run_cli("validate", plan) == unmarked
        write_files(base, files)
        verdict, checked, _ = run_cli("validate", plan)
        assert verdict in (EXIT_OK, EXIT_INVALID)
        if None in files.values() or any("\udcff" in text for text in texts):
            assert verdict == EXIT_INVALID
        code, _, err = run_cli("generate", plan, "--out", out)
        if verdict == EXIT_INVALID:
            assert code == EXIT_INVALID
            assert "generating population" not in err
            return
        assert code == EXIT_OK, err
        code, stats_out, err = run_cli("stats", out)
        assert code == EXIT_OK, err
        report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
        # validate warns of rule k exactly when the run reports rule.<k-1> vacuous
        warned = re.findall(r"^warning: rule (\d+) \(.*\): .*\(vacuous rule\)$", checked, re.M)
        reported = re.findall(r"^rule\.(\d+)\.vacuous = true$", "\n".join(report), re.M)
        assert [int(k) for k in warned] == [int(i) + 1 for i in reported]
        assert stats_out.splitlines() == [line for line in report if line.startswith("stats.")]

        # The run again into the same directory, with the writer failing on
        # its k-th file: exit 3, and the first run's files stay as they were.
        # k is uniform over the files: hypothesis favours small integers.
        earlier = {path.name: path.read_bytes() for path in out.iterdir()}
        k = 1 + int(np.random.default_rng(failing_write).integers(len(earlier)))
        written, open_ = [], Path.open

        def failing(path, mode="r", *rest, **options):
            if mode == "wb":
                written.append(path)
                if len(written) == k:
                    raise OSError(28, "No space left on device")
            return open_(path, mode, *rest, **options)

        with mock.patch.object(Path, "open", failing):
            code, _, err = run_cli("generate", plan, "--out", out)
        assert code == EXIT_RUNTIME, err
        assert f"cannot write {out / written[-1].name}: No space left" in err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier
        assert run_cli("stats", out) == (EXIT_OK, stats_out, "")
