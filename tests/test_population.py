"""Population store: generation, candidate queries, links, learned CPTs."""
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popnetgen import population
from popnetgen.bn import BayesianNetwork, Cpt, Variable, load_bn, parse_bn, serialize_bn
from popnetgen.cli import run
from popnetgen.export import export_network
from popnetgen.inference import Engine
from popnetgen.matching import load_matching_bn, run_homophily_rule
from popnetgen.plan import load_plan
from popnetgen.population import (
    DemandExceededError,
    DyadOccupiedError,
    LinkType,
    PopulationError,
    PopulationStore,
    SelfLinkError,
    UnknownAgentError,
    UnknownLinkTypeError,
    check_population_size,
    generate_population,
    isin_sorted,
    learn_marginals,
    query_candidates,
)
from popnetgen.sampling import PrototypeSampler, substream

from helpers import build_store, make_random_bn, oneshot_population_codes, undershoot_draw

KENYA_ATTRIBUTES = Path(__file__).resolve().parent.parent / "plans" / "kenya" / "attributes.bn"

ATTR_DOC = """
variable gender { male, female }
variable ageSlices { young, adult }
variable location { v1, v2 }
variable RC_friendship { 0, 1, 2 }
cpt gender { 0.5, 0.5 }
cpt ageSlices { 0.4, 0.6 }
cpt location { 0.3, 0.7 }
cpt RC_friendship | ageSlices {
  young: 0.2, 0.5, 0.3
  adult: 0.5, 0.3, 0.2
}
"""


@pytest.fixture()
def attribute_bn():
    return parse_bn(ATTR_DOC)


def small_store():
    return build_store(
        [LinkType("friendship", False), LinkType("motherOf", True)],
        [{"x": "1"}, {"x": "2"}, {"x": "2"}],
        [{"friendship": 1}, {"friendship": 2}, {"friendship": 0}],
    )


class TestGeneratePopulation:
    def test_empty_population(self, attribute_bn):
        store = generate_population(attribute_bn, 0, substream(0, "p"))
        assert len(store) == 0

    def test_deterministic_single_variable(self):
        bn = parse_bn("variable only { v }\ncpt only { 1.0 }")
        store = generate_population(bn, 5, substream(0, "p"))
        assert len(store) == 5
        assert all(store.attributes(i) == {"only": "v"} for i in range(5))

    def test_gender_fraction_within_three_sigma(self, attribute_bn):
        store = generate_population(attribute_bn, 10_000, substream(7, "p"))
        j = store.column("gender")
        males = int((store.codes[:, j] == store.labels[j].index("male")).sum())
        assert abs(males / 10_000 - 0.5) <= 0.015

    def test_required_links_filled_and_created_zeroed(self, attribute_bn):
        store = generate_population(attribute_bn, 50, substream(1, "p"))
        assert store.columns == ("gender", "ageSlices", "location", "RC_friendship")
        assert set(store.demand) == {"friendship"}
        j = store.column("RC_friendship")
        required = [int(store.labels[j][code]) for code in store.codes[:, j]]
        assert store.remaining("friendship").shape == (50,)
        assert 0 <= min(required) <= max(required) <= 2
        # no link is counted yet: open demand is the whole requirement
        assert store.remaining("friendship").tolist() == required

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 40),
        deficit=st.sampled_from([0.0, 2.0**-52, 1e-3, 0.1]),
    )
    def test_column_sampler_matches_one_agent_at_a_time(self, seed, size, deficit):
        # Zero entries (often trailing) and rows summing under 1, so that
        # some uniforms land past the last cumulative sum of their row.
        bn = make_random_bn(np.random.default_rng(seed), max_vars=5, zero_fraction=0.4)
        bn = BayesianNetwork(bn.variables, {
            name: Cpt(name, cpt.parents, {
                combo: tuple(p * (1.0 - deficit) for p in row)
                for combo, row in cpt.rows.items()
            })
            for name, cpt in bn.cpts.items()
        })
        store = generate_population(bn, size, substream(seed, "p"))
        sampler, rng = PrototypeSampler(Engine(bn)), substream(seed, "p")
        expected = [sampler.sample({}, rng) for _ in range(size)]
        assert [store.attributes(i) for i in range(size)] == expected

    def test_non_integer_rc_label_rejected(self):
        bn = parse_bn("variable RC_x { none }\ncpt RC_x { 1.0 }")
        with pytest.raises(Exception, match="non-integer"):
            generate_population(bn, 1, substream(0, "p"))

    @pytest.mark.parametrize("label", ["-1", "9223372036854775808"])
    def test_rc_label_outside_counts_rejected(self, label):
        # refused even where no agent carries the label
        bn = parse_bn(f"variable RC_x {{ 1, {label} }}\ncpt RC_x {{ 1.0, 0.0 }}")
        with pytest.raises(PopulationError, match="not a count"):
            generate_population(bn, 1, substream(0, "p"))


class TestBlockDraw:
    """generate_population draws POPULATION_BLOCK agents at a time into codes
    of the smallest unsigned dtype; the codes equal the all-at-once draw's."""

    @pytest.mark.parametrize("block, size", [(1, 300), (7, 1003), (2048, 5003)])
    def test_kenya_codes_match_the_oneshot_draw(self, monkeypatch, block, size):
        bn = load_bn(KENYA_ATTRIBUTES)
        monkeypatch.setattr(population, "POPULATION_BLOCK", block)
        store = generate_population(bn, size, substream(1, "population"))
        assert store.codes.dtype == np.uint8  # 55 ageDetail labels at most
        assert store.codes.flags.f_contiguous
        expected = oneshot_population_codes(bn, size, substream(1, "population"))
        assert np.array_equal(store.codes, expected)

    def test_300_labels_take_uint16_with_the_oneshot_outputs(self, monkeypatch, tmp_path):
        # Codes above 255, through every reader of the codes: the CPT row of
        # a child, the learned CPTs, a rule's classes and the agent table.
        rng = np.random.default_rng(5)
        weights = np.full(300, 0.4 / 298)
        weights[[0, 299]] = 0.3
        labels = ", ".join(f"l{k}" for k in range(300))
        rows = "\n".join(
            f"  l{k}: " + ", ".join(map(repr, rng.dirichlet(np.ones(3)).tolist()))
            for k in range(300)
        )
        bn = parse_bn(
            f"variable big {{ {labels} }}\nvariable RC_pair {{ 0, 1, 2 }}\n"
            f"cpt big {{ {', '.join(map(repr, weights.tolist()))} }}\n"
            f"cpt RC_pair | big {{\n{rows}\n}}\n"
        )
        rule = load_matching_bn(
            "matching pair link=link a1=a1_ a2=a2_ counts=both\n"
            "variable a1_big { l0, l299 }\nvariable a2_big { l0, l299 }\n"
            "variable link { yes, no }\ncpt a1_big { 0.5, 0.5 }\ncpt a2_big { 0.5, 0.5 }\n"
            "cpt link | a1_big, a2_big {\n  l0, l0: 0.0, 1.0\n  l0, l299: 0.9, 0.1\n"
            "  l299, l0: 0.9, 0.1\n  l299, l299: 0.2, 0.8\n}\n"
        )
        types = [LinkType("pair", False)]
        monkeypatch.setattr(population, "POPULATION_BLOCK", 7)
        store = generate_population(bn, 2000, substream(2, "population"), types)
        assert store.codes.dtype == np.uint16
        columns = {v.name: v.domain for v in bn.variables}
        codes = oneshot_population_codes(bn, 2000, substream(2, "population"))
        oracle = PopulationStore(types, columns, codes)
        assert oracle.codes.dtype == np.intp and np.array_equal(store.codes, codes)
        outputs = []
        for side, generated in (("uint16", store), ("intp", oracle)):
            report = run_homophily_rule(generated, rule, substream(3, "rule"))
            export_network(generated, tmp_path / side)
            files = {path.name: path.read_bytes() for path in (tmp_path / side).iterdir()}
            learned = serialize_bn(learn_marginals(generated, bn).bn)
            outputs.append((report, files, learned))
        assert outputs[0][0].links_created > 0
        assert outputs[0] == outputs[1]

    def test_peak_memory_follows_the_codes(self, monkeypatch):
        # Kenya at N=40000 in blocks of 4,096 agents, and at N=5000 in one
        # block of the default size.  Drawn all at once into intp codes, the
        # first peaked at 27.2 MB of traced memory, 62 times these codes;
        # the store's four demand lists take about 3 times.  Comparing each
        # uniform with every label of its row at once, the second peaked at
        # 56 times.
        bn = load_bn(KENYA_ATTRIBUTES)
        for size, block, times in [(40_000, 4096, 7), (5_000, population.POPULATION_BLOCK, 20)]:
            monkeypatch.setattr(population, "POPULATION_BLOCK", block)
            tracemalloc.start()
            try:
                store = generate_population(bn, size, substream(1, "population"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert store.codes.nbytes == size * 11
            assert peak <= times * store.codes.nbytes, (size, peak)


class FixedUniforms:
    """Stands in for a generator whose one ``random`` call gives ``uniforms``."""

    def __init__(self, uniforms: np.ndarray):
        self.uniforms = uniforms

    def random(self, shape):
        assert shape == self.uniforms.shape
        return self.uniforms


@st.composite
def cpt_rows(draw):
    """A child's CPT rows: zeros anywhere in a row, and sums short of 1 by up
    to 1e-9."""
    labels = draw(st.integers(1, 6))
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        weights = np.array(draw(st.lists(weight, min_size=labels, max_size=labels)))
        if not weights.any():
            weights[draw(st.integers(0, labels - 1))] = 1.0
        rows.append(weights / weights.sum() * (1.0 - draw(st.floats(0.0, 1e-9))))
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(cpt_rows(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))
def test_label_bounds_draw_as_the_undershoot_fix_up(rows, extra):
    # Per row, uniforms just below, at and past each running sum (the row's
    # total included), and a few anywhere.  A parent p with a label per row
    # picks the child c's row; a root q draws from the first row.
    parent = tuple(f"r{r}" for r in range(len(rows)))
    labels = tuple(f"x{k}" for k in range(rows.shape[1]))
    bn = BayesianNetwork(
        (Variable("p", parent), Variable("c", labels), Variable("q", labels)),
        {
            "p": Cpt("p", (), {(): (1.0 / len(parent),) * len(parent)}),
            "c": Cpt("c", ("p",), {(r,): tuple(row) for r, row in zip(parent, rows.tolist())}),
            "q": Cpt("q", (), {(): tuple(rows[0].tolist())}),
        },
    )
    agents = []
    for r, sums in enumerate(np.cumsum(rows, axis=1)):
        near = [np.nextafter(s, side) for s in sums for side in (0.0, 1.0)]
        agents += [(r, u) for u in [*sums, *near, *extra] if 0.0 <= u < 1.0]
    row = np.array([r for r, _ in agents], dtype=np.intp)
    u = np.array([u for _, u in agents])
    order = Engine(bn).order
    uniforms = np.empty((len(agents), 3))
    uniforms[:, order.index("p")] = (row + 0.5) / len(parent)
    uniforms[:, order.index("c")] = uniforms[:, order.index("q")] = u
    codes = generate_population(bn, len(agents), FixedUniforms(uniforms)).codes
    assert codes[:, 0].tolist() == row.tolist()
    assert codes[:, 1].tolist() == undershoot_draw(rows, row, u).tolist()
    assert codes[:, 2].tolist() == undershoot_draw(rows[:1], np.zeros_like(row), u).tolist()


@pytest.mark.parametrize(
    "size, variables",
    [
        (0, 3),
        (2**63 // 24, 3),  # 24 bytes an agent: the largest that fits
        (2**63 // 24 + 1, 3),
        (2**60 - 1, 0),  # numpy counts a zero-length axis as one
        (2**60, 0),
        (10**20, 3),
        (-1, 3),
    ],
)
def test_population_size_check_matches_numpy(size, variables):
    # A broadcast view asks numpy whether it can shape the int64 codes
    # without allocating them.
    try:
        np.broadcast_to(np.zeros((1, 1), dtype=np.int64), (size, variables))
        shapeable = True
    except ValueError:
        shapeable = False
    if shapeable:
        check_population_size(size, variables)
    else:
        with pytest.raises(PopulationError, match=f"cannot hold {size} agents"):
            check_population_size(size, variables)


# Small ints, so that values often hit keys, and ints around +-2**62.
NEAR_KEYS = st.one_of(st.integers(-8, 8), *(st.integers(c - 4, c + 4) for c in (-2**62, 2**62)))


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(NEAR_KEYS, unique=True, max_size=10), values=st.lists(NEAR_KEYS, max_size=20))
@example(keys=[], values=[])
@example(keys=[], values=[3, 3])
@example(keys=[-2**62, 0, 2**62], values=[])
@example(keys=[-2**62, 0, 2**62], values=[-2**62 - 1, -2**62, 0, 0, 1, 2**62, 2**62 + 1])
def test_isin_sorted_is_np_isin(keys, values):
    keys = np.sort(np.array(keys, dtype=np.int64))
    values = np.array(values, dtype=np.int64)
    got = isin_sorted(values, keys)
    assert got.dtype == bool and got.tolist() == np.isin(values, keys).tolist()


class TestQueryCandidates:
    def test_drops_only_the_agent_itself(self):
        store = small_store()
        assert query_candidates(store, np.arange(3), None, 0).tolist() == [1, 2]

    def test_keeps_given_ids_in_order(self):
        store = small_store()
        assert query_candidates(store, np.array([1, 2]), None, 0).tolist() == [1, 2]
        assert query_candidates(store, np.array([], dtype=np.intp), None, 0).tolist() == []

    def test_unknown_demand_type(self):
        store = small_store()
        with pytest.raises(UnknownLinkTypeError):
            query_candidates(store, np.arange(3), "ghost", 0)

    def test_combined_constraint_query(self):
        # open friendship demand + the agent itself + its partners
        store = small_store()
        store.record_link(1, 2, "friendship")
        # agent 2 excluded (no remaining demand and the agent itself);
        # agent 1 still has demand 2-1=1 but is linked with 2 -> excluded
        assert query_candidates(store, np.array([1, 2]), "friendship", 2).tolist() == []
        assert query_candidates(store, np.array([1, 2]), "friendship", 0).tolist() == [1]

    def test_matches_brute_force_on_fuzzed_stores(self, attribute_bn):
        rng = np.random.default_rng(17)
        store = generate_population(
            attribute_bn, 200, substream(3, "p"), [LinkType("friendship", False)]
        )
        # sprinkle some links
        for _ in range(60):
            a, b = rng.integers(0, 200, size=2)
            if a != b and b not in store.partners_of(int(a)):
                store.record_link(int(a), int(b), "friendship",
                                  count_source=False, count_target=False)
        for _ in range(50):
            ids = np.flatnonzero(rng.random(200) < rng.random())
            demand = "friendship" if rng.random() < 0.5 else None
            agent = int(rng.integers(0, 200))

            got = query_candidates(store, ids, demand, agent).tolist()
            expected = []
            for candidate in range(len(store)):
                if candidate not in ids or candidate == agent:
                    continue
                if candidate in store.partners_of(agent):
                    continue
                if demand and store.remaining(demand)[candidate] <= 0:
                    continue
                expected.append(candidate)
            assert got == expected


def refusal_store():
    """Five agents, friendship demand (0, 1, 1, 0, 0), links 1 - 2 and 0 -> 3."""
    store = build_store(
        [LinkType("friendship", False), LinkType("motherOf", True)],
        [{"x": "1"}] * 5,
        [{"friendship": d} for d in (0, 1, 1, 0, 0)],
    )
    store.record_link(2, 1, "friendship", count_source=False, count_target=False)
    store.record_link(0, 3, "motherOf", count_source=False, count_target=False)
    return store


def store_state(store):
    """Demand, each agent's partners in link order, and every link."""
    partners = [list(store.partners_of(a)) for a in range(len(store))]
    return {t: list(d) for t, d in store.demand.items()}, partners, store.edges().tolist()


class TestRecordLink:
    def test_fresh_dyad_inserted(self):
        store = small_store()
        assert store.record_link(0, 1, "friendship") == (0, 1)
        assert 1 in store.partners_of(0) and 0 in store.partners_of(1)

    def test_same_pair_different_type_rejected(self):
        store = small_store()
        store.record_link(0, 1, "friendship")
        with pytest.raises(DyadOccupiedError):
            store.record_link(1, 0, "motherOf")

    def test_self_link_rejected(self):
        store = small_store()
        with pytest.raises(SelfLinkError):
            store.record_link(1, 1, "friendship")

    def test_unknown_type_rejected(self):
        store = small_store()
        with pytest.raises(UnknownLinkTypeError):
            store.record_link(0, 1, "ghost")

    def test_undirected_stored_canonically(self):
        store = small_store()
        assert store.record_link(2, 0, "friendship") == (0, 2)
        assert store.edges("friendship").tolist() == [[0, 2]]

    def test_directed_preserves_orientation(self):
        store = small_store()
        link = store.record_link(2, 0, "motherOf", count_source=False, count_target=False)
        assert link == (2, 0)
        assert store.edges("motherOf").tolist() == [[2, 0]]

    def test_demand_enforcement(self):
        store = small_store()
        store.record_link(0, 1, "friendship", enforce_demand=True)
        # agent 0 had demand 1, now exhausted
        with pytest.raises(DemandExceededError):
            store.record_link(0, 2, "friendship", enforce_demand=True)

    def test_counters_follow_count_flags(self):
        store = small_store()
        before = {t: store.remaining(t) for t in ("friendship", "motherOf")}
        store.record_link(1, 0, "friendship", count_source=True, count_target=False)
        assert (before["friendship"] - store.remaining("friendship")).tolist() == [0, 1, 0]
        assert (before["motherOf"] - store.remaining("motherOf")).tolist() == [0, 0, 0]

    def test_open_demand_tracking(self):
        store = small_store()
        assert store.remaining("friendship").tolist() == [1, 2, 0]
        store.record_link(0, 1, "friendship", enforce_demand=True)
        assert store.remaining("friendship").tolist() == [0, 1, 0]

    def test_dyad_uniqueness_under_fuzzed_operations(self):
        rng = np.random.default_rng(29)
        store = build_store(
            [LinkType("a", False), LinkType("b", True)],
            [{"x": str(int(rng.integers(3)))} for _ in range(40)],
        )
        links = 0
        for _ in range(600):
            s, t = int(rng.integers(40)), int(rng.integers(40))
            name = "a" if rng.random() < 0.5 else "b"
            try:
                store.record_link(s, t, name, count_source=False, count_target=False)
                links += 1
            except (SelfLinkError, DyadOccupiedError):
                continue
        all_links = store.edges().tolist()
        assert len(all_links) == links
        pairs = [(min(s, t), max(s, t)) for s, t in all_links]
        assert len(pairs) == len(set(pairs)), "a dyad carries more than one link"

    def test_created_sum_matches_link_counts(self):
        store = small_store()
        before = {t: store.remaining(t) for t in ("friendship", "motherOf")}
        store.record_link(0, 1, "friendship")  # undirected, both counted
        store.record_link(1, 2, "motherOf", count_source=True, count_target=False)
        undirected_total = int((before["friendship"] - store.remaining("friendship")).sum())
        assert undirected_total == 2 * len(store.edges("friendship"))
        directed_total = int((before["motherOf"] - store.remaining("motherOf")).sum())
        assert directed_total == len(store.edges("motherOf"))

    @pytest.mark.parametrize("source, target, link_type, error, message", [
        (0, 0, "ghost", SelfLinkError, "agent 0 cannot link to itself"),
        (1, 2, "ghost", UnknownLinkTypeError, "ghost"),
        (2, 1, "motherOf", DyadOccupiedError, "agents 1 and 2 already linked"),
        (3, 0, "friendship", DyadOccupiedError, "agents 0 and 3 already linked"),
        (0, 1, "friendship", DemandExceededError, "agent 0 has no remaining 'friendship' demand"),
        (1, 3, "friendship", DemandExceededError, "agent 3 has no remaining 'friendship' demand"),
        (4, 0, "friendship", DemandExceededError, "agent 4 has no remaining"),
        (0, 4, "friendship", DemandExceededError, "agent 0 has no remaining"),
        (-1, 0, "friendship", UnknownAgentError, "agent -1 is not one of the 5 agents"),
        (1, 5, "friendship", UnknownAgentError, "agent 5 is not one of the 5 agents"),
        (5, 5, "ghost", UnknownAgentError, "agent 5 "),
    ])
    def test_refusal_changes_nothing(self, source, target, link_type, error, message):
        # Checks run agent ids, self link, type, dyad, then demand, source
        # before target; most cases also fail a later check, which must not
        # be the one reported.  A negative id must not reach agent 4.
        store = refusal_store()
        before = store_state(store)
        with pytest.raises(error, match=message):
            store.record_link(source, target, link_type, enforce_demand=True)
        assert store_state(store) == before

    def test_edges_are_owned_copies(self):
        store = small_store()
        store.record_link(0, 1, "friendship")
        one_type, every_type = store.edges("friendship"), store.edges()
        # a view into the store's buffer would make this extend raise
        store.record_link(2, 1, "friendship")
        store.record_link(2, 0, "motherOf")
        assert one_type.tolist() == every_type.tolist() == [[0, 1]]
        one_type[0] = every_type[0] = (2, 2)
        assert store.edges().tolist() == [[0, 1], [1, 2], [2, 0]]


class TestAddLinks:
    @pytest.mark.parametrize("rows, error, message", [
        ([(0, 5)], UnknownAgentError, "agent 5 is not one of the 5 agents"),
        ([(2, 4), (-1, 4)], UnknownAgentError, "agent -1 is not one of"),
        ([(2, 4), (3, 3)], SelfLinkError, "agent 3 cannot link to itself"),
        ([(2, 4), (1, 2)], DyadOccupiedError, "agents 1 and 2 already linked"),
        ([(2, 4), (4, 2)], DyadOccupiedError, "agents 2 and 4 already linked"),
        ([(2, 4)], UnknownLinkTypeError, "ghost"),
    ])
    def test_refused_last_row_raises_after_the_rows_before_it(self, rows, error, message):
        store, loop = refusal_store(), refusal_store()
        link_type = "ghost" if error is UnknownLinkTypeError else "friendship"
        for source, target in rows[:-1]:
            loop.record_link(source, target, link_type)
        with pytest.raises(error, match=message):
            store.add_links(link_type, rows)
        assert store_state(store) == store_state(loop)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_a_record_link_loop(self, data):
        """Same links, demand, partners in link order and error, with the
        same rows inserted first, for ids one past either end too."""
        n = data.draw(st.integers(0, 7))
        required = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        earlier = data.draw(st.lists(st.tuples(
            st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
            st.sampled_from(("friendship", "motherOf")),
        ), max_size=2 * n))
        link_type = data.draw(st.sampled_from(("friendship", "motherOf", "ghost")))
        agent = st.integers(-1, n)
        rows = data.draw(st.lists(st.tuples(agent, agent), max_size=12))

        def outcome(insert):
            store = build_store(
                [LinkType("friendship", False), LinkType("motherOf", True)],
                [{"x": "1"}] * n, [{"friendship": r, "motherOf": r} for r in required],
            )
            for source, target, name in earlier:
                if source != target and target not in store.partners_of(source):
                    store.record_link(source, target, name)
            try:
                insert(store)
                error = None
            except PopulationError as exc:
                error = type(exc), str(exc)
            return error, store_state(store)

        def loop(store):
            for source, target in rows:
                store.record_link(source, target, link_type)

        assert outcome(lambda store: store.add_links(link_type, rows)) == outcome(loop)

    def test_registry_bytes_per_link_end(self):
        # At Kenya N=10k, seed 1, the list and its int64 buffers take 35.1 B
        # per link end (a dict of sets took 114.6 B); the bound leaves room
        # for the growth policy of other Python versions.
        plan = load_plan(Path(__file__).resolve().parent.parent / "plans/kenya/kenya.plan")
        store = run(plan, seed=1, population=10_000, write=False).store
        buffers = [store.partners_of(a) for a in range(len(store))]
        size = sys.getsizeof(store._partners) + sum(sys.getsizeof(b) for b in buffers if b)
        assert size <= 40 * 2 * len(store.edges())


class TestLearnMarginals:
    def test_deterministic_bn_learned_exactly(self):
        bn = parse_bn("variable only { v }\ncpt only { 1.0 }")
        store = generate_population(bn, 4, substream(0, "p"))
        learned = learn_marginals(store, bn)
        assert learned.bn.cpts["only"].rows == bn.cpts["only"].rows
        assert learned.unobserved == []

    def test_fair_coin_within_three_sigma(self, attribute_bn):
        store = generate_population(attribute_bn, 10_000, substream(11, "p"))
        learned = learn_marginals(store, attribute_bn)
        prior = learned.bn.cpts["gender"].rows[()]
        assert abs(prior[0] - 0.5) <= 0.015

    def test_single_agent_rows_point_mass_or_unobserved(self, attribute_bn):
        store = generate_population(attribute_bn, 1, substream(2, "p"))
        learned = learn_marginals(store, attribute_bn)
        unobserved = set(learned.unobserved)
        for name, cpt in learned.bn.cpts.items():
            for combo, probs in cpt.rows.items():
                if (name, combo) in unobserved:
                    continue
                assert sorted(probs, reverse=True)[0] == 1.0

    def test_matches_counting_loop(self):
        bn = make_random_bn(np.random.default_rng(8), n_vars=6, max_parents=2)
        store = generate_population(bn, 300, substream(8, "p"))
        agents = [store.attributes(i) for i in range(len(store))]
        learned = learn_marginals(store, bn)
        for variable in bn.variables:
            cpt = bn.cpts[variable.name]
            for combo, row in learned.bn.cpts[variable.name].rows.items():
                tally = [0] * len(variable.domain)
                for agent in agents:
                    if tuple(agent[p] for p in cpt.parents) == combo:
                        tally[variable.domain.index(agent[variable.name])] += 1
                if sum(tally):
                    assert row == tuple(c / sum(tally) for c in tally)
                else:
                    assert row == cpt.rows[combo]
                    assert (variable.name, combo) in learned.unobserved

    def test_rc_variables_included(self, attribute_bn):
        store = generate_population(attribute_bn, 500, substream(4, "p"))
        learned = learn_marginals(store, attribute_bn)
        assert "RC_friendship" in learned.bn.cpts


class TestAgentsCsv:
    def test_header_and_rows(self, attribute_bn, tmp_path):
        store = generate_population(attribute_bn, 3, substream(6, "p"))
        export_network(store, tmp_path)
        text = (tmp_path / "agents.csv").read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "id,gender,ageSlices,location,RC_friendship"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] in ("male", "female")
