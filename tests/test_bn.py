"""Network grammar, validation, topological order, and round-tripping."""
import pytest

from popnetgen.bn import (
    BayesianNetwork,
    BnCycleError,
    BnError,
    BnSyntaxError,
    BnValidationError,
    Cpt,
    Variable,
    parse_bn,
    read_text,
    serialize_bn,
    topological_order,
    validate,
)

from helpers import make_random_bn
import numpy as np

GENDER_DOC = """
# a single fair root variable
variable gender { male, female }
cpt gender { 0.5, 0.5 }
"""

CHAIN_DOC = """
variable a { x, y }
variable b { x, y }
variable c { x, y }
cpt a { 0.3, 0.7 }
cpt b | a {
  x: 1.0, 0.0
  y: 0.2, 0.8
}
cpt c | b {
  x: 0.5, 0.5
  y: 0.9, 0.1
}
"""

MARITAL_DOC = """
variable gender { male, female }
variable ageSlices { 0-14, 15-19, 20-24, 25-29, 30-34, 35-39, 40-44, 45-49, 50-54 }
variable maritalStatus { no, yes }
cpt gender { 0.5, 0.5 }
cpt ageSlices { 0.4675324675324675, 0.1233766233766234, 0.1071428571428571, 0.0909090909090909, 0.0746753246753247, 0.0584415584415584, 0.0422077922077922, 0.0259740259740260, 0.0097402597402597 }
cpt maritalStatus | gender, ageSlices {
  male, 0-14: 1.0, 0.0
  male, 15-19: 0.981, 0.019
  male, 20-24: 0.816, 0.184
  male, 25-29: 0.381, 0.619
  male, 30-34: 0.207, 0.793
  male, 35-39: 0.107, 0.893
  male, 40-44: 0.114, 0.886
  male, 45-49: 0.057, 0.943
  male, 50-54: 0.062, 0.938
  female, 0-14: 1.0, 0.0
  female, 15-19: 0.506, 0.494
  female, 20-24: 0.311, 0.689
  female, 25-29: 0.261, 0.739
  female, 30-34: 0.241, 0.759
  female, 35-39: 0.268, 0.732
  female, 40-44: 0.279, 0.721
  female, 45-49: 0.279, 0.721
  female, 50-54: 0.279, 0.721
}
"""


class TestParse:
    def test_single_root_variable(self):
        bn = parse_bn(GENDER_DOC)
        assert bn.names == ("gender",)
        assert bn.domain("gender") == ("male", "female")
        assert bn.cpts["gender"].rows[()] == (0.5, 0.5)

    def test_degenerate_single_value_domain(self):
        bn = parse_bn("variable only { v }\ncpt only { 1.0 }")
        assert bn.domain("only") == ("v",)
        assert bn.cpts["only"].rows[()] == (1.0,)

    def test_row_sum_below_one_rejected(self):
        doc = "variable g { a, b }\ncpt g { 0.5, 0.4 }"
        with pytest.raises(BnValidationError) as err:
            parse_bn(doc)
        assert any("sums to" in str(v) and v.variable == "g" for v in err.value.violations)

    def test_rounded_row_renormalized(self):
        # three decimals that do not sum to 1 in binary but are inside tolerance
        doc = "variable g { a, b, c }\ncpt g { 0.3333333334, 0.3333333333, 0.3333333333 }"
        bn = parse_bn(doc)
        assert abs(sum(bn.cpts["g"].rows[()]) - 1.0) < 1e-12

    def test_syntax_error_carries_line(self):
        with pytest.raises(BnSyntaxError) as err:
            parse_bn("variable g { a, b }\nnonsense here\n")
        assert err.value.line == 2

    def test_undeclared_parent(self):
        doc = "variable g { a, b }\ncpt g | ghost { x: 0.5, 0.5 }"
        with pytest.raises(BnSyntaxError) as err:
            parse_bn(doc)
        assert "ghost" in str(err.value)

    def test_duplicate_variable(self):
        doc = "variable g { a }\nvariable g { b }"
        with pytest.raises(BnSyntaxError):
            parse_bn(doc)

    def test_duplicate_row(self):
        doc = CHAIN_DOC + "\n"
        doc = doc.replace("y: 0.2, 0.8", "x: 0.2, 0.8", 1)
        with pytest.raises(BnSyntaxError) as err:
            parse_bn(doc)
        assert "duplicate row" in str(err.value)

    def test_missing_row_is_violation(self):
        doc = """
        variable a { x, y }
        variable b { x, y }
        cpt a { 0.5, 0.5 }
        cpt b | a { x: 1.0, 0.0 }
        """
        with pytest.raises(BnValidationError) as err:
            parse_bn(doc)
        assert any("missing row" in v.problem for v in err.value.violations)

    def test_comments_and_blank_lines(self):
        doc = "# leading comment\n\nvariable g { a, b }  # trailing\ncpt g { 0.5, 0.5 }\n"
        assert parse_bn(doc).names == ("g",)

    def test_marital_table_parses_clean(self):
        bn = parse_bn(MARITAL_DOC)
        assert validate(bn) == []
        assert bn.cpts["maritalStatus"].rows[("male", "15-19")] == (0.981, 0.019)


def _outcome(text):
    """A document's CPT rows by child, or its error's type, line and text."""
    try:
        bn = parse_bn(text)
    except BnError as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)
    return {name: cpt.rows for name, cpt in bn.cpts.items()}


AB = "variable a { u, v }\nvariable b { x, y }\n"
AB_ROWS = {"a": {(): (0.5, 0.5)}, "b": {("u",): (0.1, 0.9), ("v",): (0.2, 0.8)}}


class TestCptLayouts:
    """Every layout a cpt block may take, and the errors of broken ones."""

    @pytest.mark.parametrize("text, expected", [
        ("variable a { u, v }\ncpt a { 0.5, 0.5 }\n", {"a": {(): (0.5, 0.5)}}),
        (AB + "cpt a {\n  0.5, 0.5\n}\ncpt b | a {\n  u: 0.1, 0.9\n  v: 0.2, 0.8\n}\n", AB_ROWS),
        (AB + "cpt a {\n  0.5, 0.5 }\ncpt b | a {\n  u: 0.1, 0.9\n  v: 0.2, 0.8 }\n", AB_ROWS),
        (AB + "cpt a { 0.5, 0.5\n}\ncpt b | a { u: 0.1, 0.9\n  v: 0.2, 0.8 }\n", AB_ROWS),
        (AB + "cpt a { 0.5, 0.5 }\ncpt b | a {  # rows follow\n\n  # u first\n"
         "  u: 0.1, 0.9  # trailing\n   \n  v: 0.2, 0.8\n  # last\n\n}  # done\n", AB_ROWS),
        (AB + "cpt a { 0.5, 0.5 }\ncpt b | a {\n  u: 0.1: 0.9\n  v: 0.2, 0.8\n}\n",
         ("BnSyntaxError", 5, "line 5, column 1: expected probability, got '0.1: 0.9'")),
        ("variable a { u, v }\ncpt a {\n  0.5, 0.5\nvariable b { x, y }\n",
         ("BnSyntaxError", 2, "line 2, column 1: unterminated cpt for 'a'")),
        (AB + "cpt a {\n  0.5, 0.5\ncpt b | a {\n  u: 0.1, 0.9\n  v: 0.2, 0.8\n}\n",
         ("BnSyntaxError", 3, "line 3, column 1: unterminated cpt for 'a'")),
        ("variable a { cpt x, v }\nvariable b { x, y }\ncpt a { 0.5, 0.5 }\n"
         "cpt b | a {\n  cpt x: 0.1, 0.9\n  v: 0.2, 0.8\n}\n",
         {"a": {(): (0.5, 0.5)}, "b": {("cpt x",): (0.1, 0.9), ("v",): (0.2, 0.8)}}),
        ("variable a { u, v }\ncpt a {\n  0.5, 0.5\n\n# trailing comment\n",
         ("BnSyntaxError", 2, "line 2, column 1: unterminated cpt for 'a'")),
        ("variable a { u, v }\ncpt a { }\n",
         ("BnValidationError", None, "invalid network:\n  - a [prior]: missing row")),
    ], ids=[
        "one-line", "braces-alone", "brace-ends-last-row", "first-row-on-header",
        "comments-and-blanks", "two-colons", "variable-in-open-block", "cpt-in-open-block",
        "cpt-x-label", "eof-in-block", "empty-block",
    ])
    def test_layout(self, text, expected):
        assert _outcome(text) == expected


class TestReadText:
    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "g.bn"
        path.write_bytes(b"\xef\xbb\xbfvariable g { a, b }\r\ncpt g { 0.5, 0.5 }\n")
        assert read_text(path).splitlines() == ["variable g { a, b }", "cpt g { 0.5, 0.5 }"]

    @pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"])
    def test_undecodable_byte_counted_from_the_file_start(self, tmp_path, prefix):
        path = tmp_path / "g.bn"
        path.write_bytes(prefix + b"# \xff\n")
        with pytest.raises(ValueError, match=f"not UTF-8 text at byte {len(prefix) + 2}$"):
            read_text(path, ValueError)

    def test_directory_raises_the_given_error(self, tmp_path):
        with pytest.raises(ValueError, match="Is a directory"):
            read_text(tmp_path, ValueError)


class TestValidate:
    def test_valid_chain_empty_report(self):
        assert validate(parse_bn(CHAIN_DOC)) == []

    def test_cycle_detected(self):
        variables = (Variable("a", ("x", "y")), Variable("b", ("x", "y")))
        row = {("x",): (0.5, 0.5), ("y",): (0.5, 0.5)}
        bn = BayesianNetwork(variables, {
            "a": Cpt("a", ("b",), dict(row)),
            "b": Cpt("b", ("a",), dict(row)),
        })
        assert any("cycle" in v.problem for v in validate(bn))
        with pytest.raises(BnCycleError):
            topological_order(bn)

    def test_cycle_named_once_without_its_descendants(self):
        row = {("x",): (0.5, 0.5), ("y",): (0.5, 0.5)}
        bn = BayesianNetwork(
            tuple(Variable(n, ("x", "y")) for n in "cab"),
            {
                "c": Cpt("c", ("a",), dict(row)),
                "a": Cpt("a", ("b",), dict(row)),
                "b": Cpt("b", ("a",), dict(row)),
            },
        )
        assert [str(v) for v in validate(bn)] == ["a: cycle through a -> b -> a"]
        with pytest.raises(BnCycleError, match="^cycle through a -> b -> a$") as info:
            topological_order(bn)
        assert info.value.cycle == ["a", "b", "a"]

    def test_missing_cpt(self):
        bn = BayesianNetwork((Variable("a", ("x",)),), {})
        assert any("no cpt" in v.problem for v in validate(bn))

    def test_probability_out_of_range(self):
        bn = BayesianNetwork(
            (Variable("a", ("x", "y")),),
            {"a": Cpt("a", (), {(): (1.5, -0.5)})},
        )
        assert any("outside [0, 1]" in v.problem for v in validate(bn))

    def test_perturbed_random_networks_rejected(self):
        # property check: breaking one row of a valid network is always caught
        rng = np.random.default_rng(7)
        for _ in range(25):
            bn = make_random_bn(rng, max_vars=6)
            assert validate(bn) == []
            name = bn.names[int(rng.integers(len(bn.names)))]
            cpt = bn.cpts[name]
            combo = list(cpt.rows)[int(rng.integers(len(cpt.rows)))]
            probs = list(cpt.rows[combo])
            probs[0] += 0.5  # breaks row sum (and maybe the [0,1] bound)
            broken_rows = dict(cpt.rows)
            broken_rows[combo] = tuple(probs)
            broken = BayesianNetwork(
                bn.variables,
                {**bn.cpts, name: Cpt(name, cpt.parents, broken_rows)},
            )
            assert validate(broken) != []


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order(parse_bn(CHAIN_DOC)) == ["a", "b", "c"]

    def test_marital_network_orders_parents_first(self):
        doc = """
        variable ageDetail { 1, 2 }
        variable ageSlices { s1, s2 }
        variable gender { male, female }
        variable maritalStatus { no, yes }
        cpt ageDetail { 0.5, 0.5 }
        cpt ageSlices | ageDetail { 1: 1.0, 0.0
          2: 0.0, 1.0 }
        cpt gender { 0.5, 0.5 }
        cpt maritalStatus | gender, ageSlices {
          male, s1: 1.0, 0.0
          male, s2: 0.5, 0.5
          female, s1: 1.0, 0.0
          female, s2: 0.4, 0.6
        }
        """
        order = topological_order(parse_bn(doc))
        assert order.index("ageDetail") < order.index("ageSlices")
        assert order.index("ageSlices") < order.index("maritalStatus")
        assert order.index("gender") < order.index("maritalStatus")

    def test_declaration_order_breaks_ties(self):
        doc = "variable x { a }\nvariable y { a }\ncpt x { 1.0 }\ncpt y { 1.0 }"
        assert topological_order(parse_bn(doc)) == ["x", "y"]

    def test_parent_precedence_on_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            bn = make_random_bn(rng, max_vars=8)
            order = topological_order(bn)
            position = {n: i for i, n in enumerate(order)}
            for name in bn.names:
                for parent in bn.parents(name):
                    assert position[parent] < position[name]


class TestRoundTrip:
    def test_serialize_parse_is_identity_on_canonical_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            bn = make_random_bn(rng, max_vars=6)
            canonical = serialize_bn(parse_bn(serialize_bn(bn)))
            assert canonical == serialize_bn(parse_bn(canonical))

    def test_round_trip_preserves_structure(self):
        bn = parse_bn(MARITAL_DOC)
        again = parse_bn(serialize_bn(bn))
        assert again.names == bn.names
        for name in bn.names:
            assert again.cpts[name].parents == bn.cpts[name].parents
            assert again.cpts[name].rows == bn.cpts[name].rows
