import pytest
from hypothesis import given, settings, strategies as st

from signedspread.engine import Label, StepContext, run
from signedspread.errors import InputError
from signedspread.families import (
    gen_cycle,
    gen_gn,
    gen_gst,
    gen_path,
    gen_random_connected,
    gen_random_tree,
)
from signedspread import strategies
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

from plain_search import pending_signals


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


def reference_tree_frontier_placements(g):
    """tree_frontier's own rule before it reused rescue_priority: vertex
    0 first, then the first Zero vertex next to an informed one."""
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    placements = []
    while (labels == int(Label.ZERO)).any():
        zeros = [v for v in range(g.n) if labels[v] == int(Label.ZERO)]
        v = next(v for v in zeros if not placements or any(
            labels[w] in (int(Label.A), int(Label.NEG_A)) for w in g.neighbors(v)))
        placements.append(v)
        labels = ctx.step(labels, v, int(Label.A))
    return placements


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.sampled_from([1, 2, 3, 5, 8, 13, 30, 60]))
def test_tree_frontier_is_its_frontier_rule(seed, n):
    g = gen_random_tree(seed, n)
    got = [pl.vertex for pl in tree_frontier(g).strategy.placements]
    assert got == reference_tree_frontier_placements(g)


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


def reference_rescue_placements(g):
    """rescue_priority's rule on the plain-Python pending_signals."""
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    placements = []
    while (labels == int(Label.ZERO)).any():
        hp, hm = pending_signals(g, labels)
        zeros = [v for v in range(g.n) if labels[v] == int(Label.ZERO)]
        v = next((v for v in zeros if hp[v] and hm[v]),
                 next((v for v in zeros if hp[v] or hm[v]), zeros[0]))
        placements.append(v)
        labels = ctx.step(labels, v, int(Label.A))
    return placements


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(3, 30), st.sampled_from([4, 8]))
def test_rescue_priority_matches_pending_signals_pick(seed, n, mean_degree):
    g = gen_random_connected(seed, n, min(1.0, mean_degree / n))
    got = [pl.vertex for pl in rescue_priority(g).strategy.placements]
    assert got == reference_rescue_placements(g)
    assert all(type(v) is int for v in got)


def test_rescue_priority_matches_pending_signals_pick_on_gst():
    g = gen_gst(30, 3)
    got = [pl.vertex for pl in rescue_priority(g).strategy.placements]
    assert got == reference_rescue_placements(g)


def test_rescue_priority_builds_one_step_context(monkeypatch):
    built = []

    class Counting(StepContext):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(strategies, "StepContext", Counting)
    rescue_priority(gen_gst(5, 3))
    assert len(built) == 1


@st.composite
def policy_inputs(draw):
    """(policy name, graph) with the graph meeting the policy's
    precondition: a tree, a cycle, a connected graph, or a connected
    balanced graph on at least 4 vertices."""
    name = draw(st.sampled_from(sorted(POLICIES)))
    seed = draw(st.integers(0, 99999))
    if name == "tree_frontier":
        g = gen_random_tree(seed, draw(st.integers(1, 30)))
    elif name == "circuit_strategy":
        k = draw(st.integers(3, 30))
        g = gen_cycle(k, draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k)))
    elif name == "balanced_partition_first":
        n = draw(st.integers(4, 14))
        positive = gen_random_connected(seed, n, 0.4, neg_prob=0.0)
        g = switch(positive, draw(st.sets(st.integers(0, n - 1))))
    else:
        g = gen_random_connected(seed, draw(st.integers(1, 30)), draw(st.sampled_from([0.2, 0.5])))
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
