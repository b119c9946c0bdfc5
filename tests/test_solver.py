import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signedspread.engine import MODE_ID, MODE_RID, Label, StepContext, Strategy, run
from signedspread.errors import CapacityError, InputError
from signedspread.families import (
    gen_cycle,
    gen_gn,
    gen_gst,
    gen_ktt_tau,
    gen_path,
    gen_random_connected,
    gen_random_tree,
)
from signedspread.graph import SignedGraph, negate_signature, switch
from signedspread.solver import (
    Budget,
    _StepBound,
    brute_oracle,
    exact_confusion,
    exact_relaxed_confusion,
    min_steps,
    relaxed_via_class,
)
from signedspread.strategies import rescue_priority

from plain_search import PlainSteps, pack, plain_min_steps, plain_solve


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.integers(3, 6))
def test_exact_matches_brute_oracle(seed, n):
    g = gen_random_connected(seed, n)
    assert exact_confusion(g).optimum == brute_oracle(g, MODE_ID)
    assert exact_relaxed_confusion(g).optimum == brute_oracle(g, MODE_RID)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.integers(3, 7))
def test_witness_replays_to_optimum(seed, n):
    g = gen_random_connected(seed, n)
    for solve in (exact_confusion, exact_relaxed_confusion):
        report = solve(g)
        assert report.optimal
        trace = run(g, report.witness)
        assert trace.complete
        assert trace.confused_count() == report.optimum
        assert report.witness.mode == report.mode


def test_witness_is_lexicographically_smallest():
    g = gen_path(3)
    report = exact_confusion(g)
    assert report.optimum == 0
    assert [(p.vertex, p.info) for p in report.witness.placements] == [
        (0, Label.A),
        (2, Label.A),
    ]
    relaxed = exact_relaxed_confusion(gen_path(3, [-1, -1]))
    assert relaxed.optimum == 0
    # first placement pinned to A; later ties resolve A before -A
    assert [(p.vertex, p.info) for p in relaxed.witness.placements] == [
        (0, Label.A),
        (2, Label.A),
    ]


def test_relaxed_never_exceeds_strict():
    for seed in range(12):
        g = gen_random_connected(4200 + seed, 6)
        assert exact_relaxed_confusion(g).optimum <= exact_confusion(g).optimum


def test_known_values():
    assert exact_confusion(gen_cycle(5, [-1] * 5)).optimum == 1
    assert exact_confusion(gen_gn(6)).optimum == 1
    assert exact_confusion(gen_ktt_tau(3)).optimum == 1
    assert exact_relaxed_confusion(gen_cycle(5, [-1] * 5)).optimum == 0
    assert exact_confusion(gen_random_tree(77, 9)).optimum == 0


def test_node_budget_degrades_to_heuristic():
    g = gen_ktt_tau(4)
    full = exact_confusion(g)
    tight = exact_confusion(g, Budget(nodes=1))
    assert full.optimal and not tight.optimal
    assert tight.optimum >= full.optimum
    trace = run(g, tight.witness)
    assert trace.complete and trace.confused_count() == tight.optimum


def test_time_budget_zero_degrades():
    g = gen_ktt_tau(4)
    report = exact_confusion(g, Budget(seconds=0.0))
    assert not report.optimal
    assert run(g, report.witness).complete


@pytest.mark.parametrize(
    "kwargs", [{"nodes": -3}, {"seconds": -1.0}, {"seconds": float("nan")}, {"max_n": -5}]
)
def test_budget_rejects_malformed_limits(kwargs):
    with pytest.raises(InputError):
        Budget(**kwargs)


def test_zero_budget_stays_legal():
    assert Budget(nodes=0).nodes == 0 and Budget(seconds=0.0).seconds == 0.0
    assert Budget(max_n=0).max_n == 0


def test_max_n_cap_and_override():
    g = gen_random_connected(9, 9)
    with pytest.raises(CapacityError):
        exact_confusion(g, Budget(max_n=8))
    ok = exact_confusion(g, Budget(max_n=9))
    assert ok.optimal


def test_disconnected_rejected():
    g = SignedGraph.from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(InputError):
        exact_confusion(g)
    with pytest.raises(InputError):
        min_steps(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3000), st.integers(3, 6))
def test_via_class_agrees_and_translates_witness(seed, n):
    g = gen_random_connected(seed, n)
    direct = exact_relaxed_confusion(g)
    via = relaxed_via_class(g)
    assert via.optimum == direct.optimum
    trace = run(g, via.witness)
    assert trace.complete
    assert trace.confused_count() == via.optimum
    assert via.witness.mode == MODE_RID


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3000), st.integers(3, 6), st.sets(st.integers(0, 5)))
def test_relaxed_switching_invariance(seed, n, members):
    g = gen_random_connected(seed, n)
    members = {v for v in members if v < n}
    assert (
        exact_relaxed_confusion(switch(g, members)).optimum
        == exact_relaxed_confusion(g).optimum
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3000), st.integers(3, 6))
def test_relaxed_negation_invariance(seed, n):
    g = gen_random_connected(seed, n)
    assert (
        exact_relaxed_confusion(g).optimum
        == exact_relaxed_confusion(negate_signature(g)).optimum
    )


def test_min_steps_values_and_witness():
    report = min_steps(gen_path(6))
    assert report.optimal and report.steps == 2
    trace = run(gen_path(6), report.witness)
    assert trace.complete and trace.steps == 2
    assert min_steps(gen_path(2)).steps == 1
    assert min_steps(gen_cycle(5, [-1] * 5), MODE_RID).steps == 2
    single = min_steps(gen_path(3))
    assert single.steps == 1  # middle placement floods both ends


def test_min_steps_never_below_flood_radius():
    for seed in range(8):
        g = gen_random_connected(5100 + seed, 7)
        report = min_steps(g)
        assert report.optimal
        assert 1 <= report.steps <= g.n
        trace = run(g, report.witness)
        assert trace.complete and trace.steps == report.steps
        # one fewer placement must not complete for any witness prefix
        if report.steps > 1:
            prefix = Strategy(MODE_ID, report.witness.placements[:-1])
            assert not run(g, prefix).complete


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000), st.integers(3, 8), st.lists(st.integers(0, 63), max_size=4),
       st.booleans())
def test_step_bound_cuts_only_infeasible_states(seed, n, picks, allow_neg):
    g = gen_random_connected(seed, n, 0.3)
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    for pick in picks:  # random placements reach a random state
        zeros = np.flatnonzero(labels == int(Label.ZERO))
        if len(zeros) == 0:
            break
        info = Label.NEG_A if allow_neg and pick % 2 else Label.A
        labels = ctx.step(labels, int(zeros[pick % len(zeros)]), int(info))
    bound = _StepBound(g)
    plain = PlainSteps(g, MODE_RID)  # relaxed placements: a superset of ID's
    for k in range(n + 1):
        if bound.cuts(pack(labels), k):
            assert not plain.feasible(labels, k)


def test_step_bound_cuts_long_paths():
    ctx = StepContext(gen_path(10))
    bound = _StepBound(gen_path(10))
    # balls of radius 2 and 1 hold at most 5 + 3 of the 10 vertices
    assert bound.cuts(0, 2) and not bound.cuts(0, 3)
    # a transmitter at vertex 0 reaches 0..2 within 2 steps; 7 remain
    assert not bound.cuts(pack(ctx.step(ctx.zeros_state(), 0, int(Label.A))), 2)
    assert bound.cuts(pack(ctx.step(ctx.zeros_state(), 0, int(Label.A))), 1)
    # -A transmits too: 0 and 1 hold -A, and placing at 6 then 10 completes
    ctx = StepContext(gen_path(12))
    state = ctx.step(ctx.zeros_state(), 0, int(Label.NEG_A))
    assert not _StepBound(gen_path(12)).cuts(pack(state), 2)


def witness_moves(report):
    return [(p.vertex, int(p.info)) for p in report.witness.placements]


@pytest.mark.parametrize("mode", [MODE_ID, MODE_RID])
@pytest.mark.parametrize("family", ["path", "cycle"])
def test_min_steps_matches_unbounded_reference(family, mode):
    for n in range(3 if family == "cycle" else 1, 21):
        g = gen_path(n) if family == "path" else gen_cycle(n)
        report = min_steps(g, mode, Budget(max_n=20))
        assert report.optimal
        assert (report.steps, witness_moves(report)) == plain_min_steps(g, mode), n


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.integers(3, 9), st.sampled_from([MODE_ID, MODE_RID]))
def test_min_steps_matches_plain_search_on_random_graphs(seed, n, mode):
    g = gen_random_connected(seed, n, 0.4)
    report = min_steps(g, mode)
    assert report.optimal
    assert (report.steps, witness_moves(report)) == plain_min_steps(g, mode)


def counted_solve(solve, g):
    """The report of solve(g) and how many times it called StepContext.expand."""
    expand, calls = StepContext.expand, []

    def counting(self, *args):
        calls.append(None)
        return expand(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StepContext, "expand", counting)
        report = solve(g)
    return report, len(calls)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 9), st.floats(0.2, 0.8), st.floats(0.0, 1.0))
def test_solvers_match_plain_search_in_one_pass(seed, n, edge_prob, neg_prob):
    g = gen_random_connected(seed, n, edge_prob, neg_prob)
    for solve, plain in (
        (exact_confusion, lambda: plain_solve(g, MODE_ID)),
        (exact_relaxed_confusion, lambda: plain_solve(g, MODE_RID)),
        (lambda g: min_steps(g, MODE_ID), lambda: plain_min_steps(g, MODE_ID)),
        (lambda g: min_steps(g, MODE_RID), lambda: plain_min_steps(g, MODE_RID)),
    ):
        report, expands = counted_solve(solve, g)
        assert report.optimal
        assert (report.optimum, witness_moves(report)) == plain()
        # each node expands once, the root once over all rounds, and
        # nothing expands after the search: no second pass for the witness
        assert expands <= report.nodes


def test_min_steps_long_path_and_cycle_past_the_cap():
    # without the step bound neither finishes in hours
    budget = Budget(seconds=30, max_n=200)
    for g, mode, want in ((gen_path(60), MODE_ID, 7), (gen_cycle(40), MODE_RID, 6)):
        report = min_steps(g, mode, budget)
        assert report.optimal and report.steps == want
        trace = run(g, report.witness)
        assert trace.complete and trace.steps == want


@pytest.mark.parametrize(
    "solve",
    [
        lambda: exact_confusion(gen_gn(8)),
        lambda: exact_relaxed_confusion(gen_cycle(7, [-1] * 7)),
        lambda: relaxed_via_class(gen_cycle(6, [-1] * 6)),
        lambda: min_steps(gen_path(12)),
        lambda: min_steps(gen_cycle(10), MODE_RID),
        lambda: exact_confusion(gen_gn(8), Budget(nodes=3)),
        # past 2n nodes, so the search finds the group and keys on orbits
        lambda: exact_relaxed_confusion(gen_gst(10, 3), Budget(max_n=200)),
        lambda: min_steps(gen_path(12), MODE_ID, Budget(nodes=0)),
    ],
)
def test_solve_leaves_no_cyclic_garbage(solve):
    gc.collect()
    gc.disable()
    try:
        solve()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_oracle_cap():
    with pytest.raises(CapacityError):
        brute_oracle(gen_random_connected(3, 9))


def test_budget_json_fields():
    report = exact_confusion(gen_path(4))
    payload = report.to_json()
    assert payload["schema"] == 1
    assert payload["optimum"] == 0
    assert payload["optimal"] is True
    assert payload["mode"] == MODE_ID
    assert isinstance(payload["nodes"], int) and payload["nodes"] > 0
    ms = min_steps(gen_path(4)).to_json()
    assert ms["schema"] == 1 and ms["optimum"] == 2
    assert list(ms) == list(payload)


@pytest.mark.parametrize(
    "solve, mode",
    [
        (exact_confusion, MODE_ID),
        (exact_relaxed_confusion, MODE_RID),
        (relaxed_via_class, MODE_RID),
        (min_steps, MODE_ID),
    ],
)
def test_exhausted_budget_falls_back_to_rescue_priority(solve, mode):
    g = gen_ktt_tau(4)
    report = solve(g, budget=Budget(nodes=1))
    assert not report.optimal and report.nodes <= 1
    assert report.witness.mode == mode == report.mode
    assert report.witness.placements == rescue_priority(g).strategy.placements
    trace = run(g, report.witness)
    assert trace.complete
    if solve is min_steps:
        assert report.optimum == report.steps == trace.steps
    else:
        assert report.optimum == trace.confused_count()
