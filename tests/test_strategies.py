import pytest
from hypothesis import given, settings, strategies as st

from signedspread import engine
from signedspread.engine import Label, run
from signedspread.errors import InputError
from signedspread.families import (
    gen_cycle,
    gen_gn,
    gen_gst,
    gen_path,
    gen_random_connected,
    gen_random_tree,
)
from signedspread.graph import SignedGraph, switch
from signedspread.strategies import (
    POLICIES,
    balanced_partition_first,
    circuit_strategy,
    max_degree_first,
    policy_bound,
    rescue_priority,
    tree_frontier,
)

from plain_search import (
    assert_trace_matches_reference,
    reference_balanced_partition_first,
    reference_circuit_strategy,
    reference_max_degree_first,
    reference_rescue_priority,
    reference_tree_frontier,
)

REFERENCES = {
    "tree_frontier": reference_tree_frontier,
    "circuit_strategy": reference_circuit_strategy,
    "max_degree_first": reference_max_degree_first,
    "rescue_priority": reference_rescue_priority,
    "balanced_partition_first": reference_balanced_partition_first,
}


def reference_vertices(name, g):
    """The vertices the named policy's plain reference places on g."""
    placements, _ = REFERENCES[name](g)
    return [v for v, _ in placements]


def test_policies_registry():
    assert set(POLICIES) == {
        "tree_frontier",
        "circuit_strategy",
        "max_degree_first",
        "rescue_priority",
        "balanced_partition_first",
    }
    for name, fn in POLICIES.items():
        assert callable(fn)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(2, 10))
def test_tree_frontier_zero_confusion(seed, n):
    g = gen_random_tree(seed, n)
    trace = tree_frontier(g)
    assert trace.complete
    assert trace.confused_count() == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.sampled_from([1, 2, 3, 5, 8, 13, 30, 60]))
def test_tree_frontier_is_its_frontier_rule(seed, n):
    g = gen_random_tree(seed, n)
    got = [pl.vertex for pl in tree_frontier(g).strategy.placements]
    assert got == reference_vertices("tree_frontier", g)


def test_tree_frontier_rejects_non_tree():
    with pytest.raises(InputError):
        tree_frontier(gen_cycle(4))


@pytest.mark.parametrize("k", range(3, 9))
def test_circuit_strategy_every_signature(k):
    for mask in range(1 << k):
        signs = [-1 if (mask >> i) & 1 else 1 for i in range(k)]
        g = gen_cycle(k, signs)
        trace = circuit_strategy(g)
        want = 1 if (k == 5 and mask == (1 << k) - 1) else 0
        assert trace.complete, (k, mask)
        assert trace.confused_count() == want, (k, mask)


def test_circuit_strategy_rejects_non_circuit():
    with pytest.raises(InputError):
        circuit_strategy(gen_path(4))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(4, 10))
def test_max_degree_first_bound(seed, n):
    g = gen_random_connected(seed, n)
    d = g.max_degree()
    trace = max_degree_first(g)
    assert trace.complete
    bound = 0 if d >= n - 2 else n - 2 - d
    assert trace.confused_count() <= bound


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(5, 10))
def test_rescue_priority_ratio_bound(seed, n):
    g = gen_random_connected(seed, n)
    d = g.max_degree()
    if d < 3:
        return
    trace = rescue_priority(g)
    assert trace.complete
    assert trace.confused_count() <= (1 - 2 / d) * n + 1e-9


def test_balanced_partition_first_bound():
    for n in (6, 8, 10):
        g = gen_gn(n)
        trace = balanced_partition_first(g)
        assert trace.complete
        assert trace.confused_count() <= n / 2 - 2
    ok4 = balanced_partition_first(gen_cycle(4))
    assert ok4.complete and ok4.confused_count() == 0


def test_balanced_partition_first_rejects():
    with pytest.raises(InputError):
        balanced_partition_first(gen_cycle(3, [-1, 1, 1]))  # unbalanced
    with pytest.raises(InputError):
        balanced_partition_first(gen_path(3))  # n < 4


def test_policy_bound_values():
    tree = gen_random_tree(3, 7)
    assert policy_bound("tree_frontier", tree) == 0
    assert policy_bound("circuit_strategy", gen_cycle(5, [-1] * 5)) == 1
    assert policy_bound("circuit_strategy", gen_cycle(5)) == 0
    g = gen_gn(8)  # n=8, maxdeg 4
    assert policy_bound("max_degree_first", g) == 2
    assert policy_bound("rescue_priority", g) == (1 - 2 / 4) * 8
    assert policy_bound("balanced_partition_first", g) == 2
    with pytest.raises(InputError):
        policy_bound("nonsense", g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(3, 30), st.sampled_from([4, 8]))
def test_rescue_priority_matches_pending_signals_pick(seed, n, mean_degree):
    g = gen_random_connected(seed, n, min(1.0, mean_degree / n))
    got = [pl.vertex for pl in rescue_priority(g).strategy.placements]
    assert got == reference_vertices("rescue_priority", g)
    assert all(type(v) is int for v in got)


def test_rescue_priority_matches_pending_signals_pick_on_gst():
    g = gen_gst(30, 3)
    got = [pl.vertex for pl in rescue_priority(g).strategy.placements]
    assert got == reference_vertices("rescue_priority", g)


def test_policies_build_no_step_context(monkeypatch):
    # a policy's run steps one bytearray; it needs no per-graph context
    built = []
    init = engine.StepContext.__init__
    monkeypatch.setattr(engine.StepContext, "__init__",
                        lambda ctx, g: built.append(g) or init(ctx, g))
    for name, g in (("tree_frontier", gen_random_tree(3, 9)), ("circuit_strategy", gen_cycle(8)),
                    ("max_degree_first", gen_gst(5, 3)), ("rescue_priority", gen_gst(5, 3)),
                    ("balanced_partition_first", gen_gn(8))):
        assert POLICIES[name](g).complete
    assert built == []


@st.composite
def policy_inputs(draw, max_n=30):
    """(policy name, graph) with the graph, on at most max_n vertices,
    meeting the policy's precondition: a tree, a cycle, a connected
    graph, or a connected balanced graph on at least 4 vertices."""
    name = draw(st.sampled_from(sorted(POLICIES)))
    seed = draw(st.integers(0, 99999))
    if name == "tree_frontier":
        g = gen_random_tree(seed, draw(st.integers(1, max_n)))
    elif name == "circuit_strategy":
        k = draw(st.integers(3, max_n))
        g = gen_cycle(k, draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k)))
    elif name == "balanced_partition_first":
        n = draw(st.integers(4, min(14, max_n)))
        positive = gen_random_connected(seed, n, 0.4, neg_prob=0.0)
        g = switch(positive, draw(st.sets(st.integers(0, n - 1))))
    else:
        g = gen_random_connected(seed, draw(st.integers(1, max_n)), draw(st.sampled_from([0.2, 0.5])))
    return name, g


@settings(max_examples=100, deadline=None)
@given(policy_inputs())
def test_policy_returns_its_complete_run(case):
    name, g = case
    trace = POLICIES[name](g)
    assert trace.complete and trace.graph is g
    assert trace.strategy.mode == "ID"
    assert all(p.info is Label.A for p in trace.strategy.placements)
    assert trace == run(g, trace.strategy)


@settings(max_examples=300, deadline=None)
@given(policy_inputs(12))
def test_policy_matches_its_plain_reference(case):
    # the reference picks from whole snapshots, each stepped by
    # reference_step; the policy from the run's bytearray and heard
    name, g = case
    assert_trace_matches_reference(POLICIES[name](g), *REFERENCES[name](g))


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_policies_on_the_empty_graph(name):
    # each policy either returns the complete empty run or refuses with
    # its precondition; none reaches a bare ValueError
    g = SignedGraph(0, ())
    try:
        trace = POLICIES[name](g)
    except InputError:
        assert name in ("tree_frontier", "circuit_strategy", "balanced_partition_first")
        return
    assert trace.complete and trace.strategy.placements == ()
    assert trace == run(g, trace.strategy)
