import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signedspread.engine import MODE_ID, MODE_RID, StepContext, run
from signedspread.families import (
    gen_cycle,
    gen_gn,
    gen_gst,
    gen_ktt_tau,
    gen_path,
    gen_random_connected,
)
from signedspread.graph import SignedGraph
from signedspread.solver import (
    Budget,
    _Limits,
    _OrbitKey,
    _Search,
    _StepBound,
    brute_oracle,
    exact_confusion,
    exact_relaxed_confusion,
    relaxed_via_class,
)
from signedspread.symmetry import _MAX_IMAGES, _Refiner, automorphisms

from plain_search import PlainSearch, PlainSteps, plain_min_steps, plain_solve, unpack


def relabeled(g, seed):
    p = np.random.default_rng(seed).permutation(g.n)
    return SignedGraph.from_edge_list(g.n, [(int(p[u]), int(p[v]), s) for u, v, s in g.edges])


def doubled(seed, k):
    """Two copies of a random signed graph on k vertices, vertex i of one
    joined to vertex i of the other with a random sign: swapping the
    copies is a signed automorphism."""
    rng = np.random.default_rng(seed)
    h = gen_random_connected(seed, k)
    edges = [(u + side * k, v + side * k, s) for u, v, s in h.edges for side in (0, 1)]
    edges += [(i, i + k, int(rng.choice((-1, 1)))) for i in range(k)]
    return SignedGraph.from_edge_list(2 * k, edges)


def forced_solve(g, mode, perms, steps=False):
    """The search with the orbit key of perms from the root on, for the
    confusion objective or, with steps, the step objective."""
    ctx = StepContext(g)
    search = _Search(ctx, mode == MODE_RID, _Limits(Budget()), _OrbitKey(perms, mode == MODE_RID),
                     _StepBound(g) if steps else None)
    optimum = search.optimum()
    return optimum, [(p.vertex, int(p.info)) for p in search.witness()]


def preserves_every_edge(g, perm):
    signs = {(u, v): s for u, v, s in g.edges}
    for u, v, s in g.edges:
        a, b = sorted((int(perm[u]), int(perm[v])))
        if signs.get((a, b)) != s:
            return False
    return True


def petersen():
    rings = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SignedGraph.from_edge_list(10, [(u, v, 1) for u, v in rings + [(i, i + 5) for i in range(5)]])


def shrikhande():
    """Z4 x Z4, steps (0, 1), (1, 0), (1, 1) and their negatives: strongly
    regular, so refinement alone splits nothing after one vertex."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return SignedGraph.from_edge_list(16, [
        (a, b, 1) for a in range(16) for b in range(a + 1, 16)
        if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in steps
    ])


GROUPS = [
    (gen_gst(3, 3), 36),
    (gen_gst(5, 3), 60),
    (gen_gst(12, 3), 144),
    (gen_ktt_tau(3), 12),
    (gen_ktt_tau(4, negated=True), 48),
    (gen_ktt_tau(6), 1440),
    (gen_gn(6), 12),
    (gen_gn(8), 48),
    (gen_gn(12), 1440),
    (gen_cycle(9), 18),
    (gen_cycle(8, [1, -1] * 4), 8),
    (gen_path(7), 2),
    (petersen(), 120),
    (shrikhande(), 192),
]


@pytest.mark.parametrize("g, order", GROUPS)
@pytest.mark.parametrize("seed", [1, 2])
def test_group_order_on_relabeled_families(g, order, seed):
    group = automorphisms(relabeled(g, seed))
    assert group is not None and len(group) == order
    assert len({row.tobytes() for row in group}) == order
    assert np.array_equal(group[0], np.arange(g.n))


def test_gst_group_orders_follow_the_ring():
    # rotations and reflections of the ring times the 3! slot permutations;
    # the 4-ring is a signed K_{6,6} with more symmetry
    for s in (3, 5, 6, 7, 8, 9, 10):
        assert len(automorphisms(relabeled(gen_gst(s, 3), s))) == 12 * s


@pytest.mark.parametrize("g", [g for g, _ in GROUPS] + [doubled(4, 5), doubled(9, 6)])
def test_every_element_preserves_every_signed_edge(g):
    g = relabeled(g, 3)
    group = automorphisms(g)
    assert group is not None
    for perm in group:
        assert sorted(perm.tolist()) == list(range(g.n))
        assert preserves_every_edge(g, perm)


def test_trivial_and_tiny_groups():
    assert automorphisms(SignedGraph.from_edge_list(1, [])) is None
    # an asymmetric tree: branches of lengths 1, 2 and 3 at vertex 2
    tree = SignedGraph.from_edge_list(
        7, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (2, 6, 1)]
    )
    assert automorphisms(tree) is None
    # the Frucht graph: cubic, so refinement splits nothing, yet no
    # automorphism but the identity; every leaf must fail its certificate
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    frucht = SignedGraph.from_edge_list(
        12, {tuple(sorted((i, (i + d) % 12))) + (1,) for i in range(12) for d in (1, lcf[i])}
    )
    assert all(frucht.degree(v) == 3 for v in range(12))
    assert automorphisms(frucht) is None
    # the edge sign is an edge colour: a path with different end signs
    assert automorphisms(gen_path(3, [1, -1])) is None
    assert len(automorphisms(gen_path(3, [-1, -1]))) == 2


def brute_group(g):
    """Every vertex permutation that maps each edge onto one of the same sign."""
    return {p for p in itertools.permutations(range(g.n)) if preserves_every_edge(g, p)}


def found_group(g):
    group = automorphisms(g)
    return {tuple(range(g.n))} if group is None else {tuple(p) for p in group.tolist()}


@pytest.mark.parametrize("g", [gen_gn(6), gen_ktt_tau(3), gen_cycle(7), gen_path(7)])
def test_small_groups_equal_brute_force(g):
    assert found_group(g) == brute_group(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 7))
def test_random_small_groups_equal_brute_force(seed, n):
    g = relabeled(gen_random_connected(seed, n), seed)
    assert found_group(g) == brute_group(g)


@pytest.mark.parametrize("g", [g for g, _ in GROUPS])
def test_refiner_certificate_matches_edge_check(g):
    g = relabeled(g, 6)
    rng = np.random.default_rng(g.n)
    group = automorphisms(g)
    swapped = group[rng.integers(len(group), size=10)]
    swapped[:, [0, 1]] = swapped[:, [1, 0]]  # one transposition off a group element
    perms = np.concatenate((group[:10], swapped, [rng.permutation(g.n) for _ in range(20)]))
    got = _Refiner(g, lambda: False).preserves(perms)
    assert got.tolist() == [preserves_every_edge(g, p) for p in perms]
    assert got.any() and not got.all()


def test_refiner_certificate_reads_signs_and_spans_chunks():
    # the reflection of a path with different end signs maps every edge
    # onto an edge, but the positive one onto the negative one
    g = gen_path(3, [1, -1])
    assert _Refiner(g, lambda: False).preserves(np.array([[2, 1, 0], [0, 1, 2]])).tolist() == [
        False, True]
    # gn(12): 1,440 elements and 600 random permutations, past one chunk of rows
    g = relabeled(gen_gn(12), 8)
    rng = np.random.default_rng(8)
    perms = np.concatenate((automorphisms(g), [rng.permutation(g.n) for _ in range(600)]))
    assert len(perms) > _MAX_IMAGES // g.m
    got = _Refiner(g, lambda: False).preserves(perms)
    assert got.tolist() == [preserves_every_edge(g, p) for p in perms]


@pytest.mark.parametrize("g", [g for g, _ in GROUPS] + [doubled(4, 5)])
def test_refine_is_idempotent_and_stops_at_discrete(g):
    g = relabeled(g, 9)
    ref = _Refiner(g, lambda: False)
    unit = ref.refine(np.zeros(g.n, dtype=np.int64))
    _, random_cells = np.unique(np.random.default_rng(g.n).integers(0, 3, g.n), return_inverse=True)
    for col in (np.zeros(g.n, dtype=np.int64), ref.individualize(unit, g.n - 1), random_cells):
        once = ref.refine(col)
        assert np.array_equal(ref.refine(once), once)
    discrete = np.random.default_rng(0).permutation(g.n)
    rounds = ref.rounds
    assert ref.refine(discrete) is discrete and ref.rounds == rounds  # no confirming round


def symmetric_graph(kind, seed, size):
    if kind == "doubled":
        return relabeled(doubled(seed, size), seed)
    if kind == "cycle":
        signs = np.random.default_rng(seed).choice((-1, 1), size=2).tolist()
        return relabeled(gen_cycle(2 * size, signs * size), seed)
    if kind == "gn":
        return relabeled(gen_gn(2 * size + 2), seed)
    return relabeled(gen_ktt_tau(size, negated=seed % 2 == 1), seed)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["doubled", "cycle", "gn", "ktt"]),
    st.integers(0, 10_000),
    st.integers(3, 5),
    st.sampled_from([MODE_ID, MODE_RID]),
    st.booleans(),
)
def test_orbit_key_from_the_root_matches_plain_search(kind, seed, size, mode, steps):
    g = symmetric_graph(kind, seed, size)
    group = automorphisms(g)
    assert group is not None
    rng = np.random.default_rng(seed)
    subset = group[rng.random(len(group)) < 0.5]
    if len(subset) == 0:
        subset = group[rng.integers(len(group))][None]
    want = plain_min_steps(g, mode) if steps else plain_solve(g, mode)
    assert forced_solve(g, mode, group, steps) == want
    assert forced_solve(g, mode, subset, steps) == want
    if g.n <= 8 and not steps:
        assert want[0] == brute_oracle(g, mode)


@pytest.mark.parametrize("s", [9, 10])
@pytest.mark.parametrize("solve, mode", [(exact_confusion, MODE_ID),
                                         (exact_relaxed_confusion, MODE_RID)])
def test_solver_witness_equals_plain_search_on_relabeled_gst(s, solve, mode):
    g = relabeled(gen_gst(s, 3), 100 + s)
    report = solve(g, Budget(max_n=200))
    assert report.nodes > 2 * g.n  # past the point where the group is found
    want = plain_solve(g, mode)
    assert (report.optimum, [(p.vertex, int(p.info)) for p in report.witness.placements]) == want


def assert_bounds_hold(search, plain):
    """Every _need entry is at most the plain value of its key state."""
    for key, bound in search._need.items():
        state = unpack(key, plain.ctx.graph.n)
        assert bound <= plain.value(state, at_root=not state.any())


@pytest.mark.parametrize("g, mode", [
    (gen_gst(10, 3), MODE_ID),
    (gen_gst(10, 3), MODE_RID),
    # ID values are not invariant under negation here: rID's negated
    # images must stay out of ID keys
    (doubled(9, 7), MODE_ID),
    (doubled(24, 8), MODE_ID),
])
def test_every_memo_entry_is_the_value_of_its_key_state(g, mode):
    g = relabeled(g, 5)
    ctx = StepContext(g)
    limits = _Limits(Budget())
    search = _Search(ctx, mode == MODE_RID, limits)
    search.optimum()
    assert limits.nodes_used > 2 * g.n  # the later entries are keyed on orbits
    assert_bounds_hold(search, PlainSearch(g, mode))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["doubled", "cycle", "gn", "ktt"]),
    st.integers(0, 10_000),
    st.integers(3, 4),
    st.sampled_from([MODE_ID, MODE_RID]),
    st.booleans(),
    st.booleans(),
)
def test_memo_bounds_hold_for_both_objectives(kind, seed, size, mode, steps, orbits):
    g = symmetric_graph(kind, seed, size)
    ctx = StepContext(g)
    orbit_key = _OrbitKey(automorphisms(g), mode == MODE_RID) if orbits else None
    search = _Search(ctx, mode == MODE_RID, _Limits(Budget()), orbit_key,
                     _StepBound(g) if steps else None)
    optimum = search.optimum()
    witness = [(p.vertex, int(p.info)) for p in search.witness()]
    assert (optimum, witness) == (plain_min_steps if steps else plain_solve)(g, mode)
    assert_bounds_hold(search, PlainSteps(g, mode) if steps else PlainSearch(g, mode))


@pytest.mark.parametrize("g", [gen_gst(4, 3), gen_gst(10, 3)])  # one and two packed words
def test_orbit_key_representatives_are_orbit_minima(g):
    g = relabeled(g, 7)
    group = automorphisms(g)
    rng = np.random.default_rng(0)
    states = rng.integers(0, 4, size=(20, g.n)).astype(np.int8)
    for negate in (False, True):
        reps = _OrbitKey(group, negate).representatives(states)
        for state, rep in zip(states, reps):
            images = [state[p] for p in group]
            if negate:
                images += [np.array([0, 2, 1, 3], dtype=np.int8)[state][p] for p in group]
            assert rep.tolist() == min(image.tolist() for image in images)


def test_group_cap_keeps_a_subset():
    g = gen_gn(16)  # 2 * 8! = 80,640 elements, past the cap
    group = automorphisms(g)
    assert 1 < len(group) < 2 * math.factorial(8)
    assert len(group) * g.n <= 1 << 16
    assert all(preserves_every_edge(g, perm) for perm in group)


def test_orbit_key_solves_large_rings_past_the_cap():
    # 77,866 and 57,480 nodes with raw keys
    budget = Budget(seconds=30, max_n=200)
    for solve, s, want in ((exact_confusion, 14, 9), (exact_relaxed_confusion, 12, 8)):
        g = relabeled(gen_gst(s, 3), s)
        report = solve(g, budget)
        assert report.optimal and report.optimum == want
        assert report.nodes < 1000


@pytest.mark.parametrize("solve, mode", [(exact_confusion, MODE_ID),
                                         (exact_relaxed_confusion, MODE_RID)])
def test_witness_costs_no_node_past_the_search(solve, mode):
    g = relabeled(gen_gst(8, 3), 108)
    searched = solve(g, Budget(max_n=200)).nodes
    # the witness is read off the search, so its budget is the search's own
    report = solve(g, Budget(nodes=searched, max_n=200))
    assert report.optimal and report.nodes == searched
    assert (report.optimum, [(p.vertex, int(p.info)) for p in report.witness.placements]) == (
        plain_solve(g, mode))
    assert not solve(g, Budget(nodes=searched - 1, max_n=200)).optimal


def test_relaxed_via_class_witness_replays_under_every_budget():
    # ID optimum 2 at mask 0, class minimum 1, first met at mask 4: a budget
    # that runs out after mask 4 stops a sweep that improved and is above 0
    g = gen_random_connected(187, 10)
    own = exact_confusion(g).optimum
    full = relaxed_via_class(g)
    assert full.optimal and run(g, full.witness).confused_count() == full.optimum
    improved = False
    # about 13 nodes per switching: the budgets stop the sweep inside its first switchings
    for nodes in [*range(200), 500, full.nodes - 1]:
        report = relaxed_via_class(g, Budget(nodes=nodes))
        assert not report.optimal
        assert run(g, report.witness).confused_count() == report.optimum
        improved |= report.optimum < own
    assert improved


def test_detection_stops_at_the_deadline():
    g = relabeled(gen_gst(8, 3), 3)
    full = {tuple(p) for p in automorphisms(g).tolist()}
    assert automorphisms(g, lambda: True) is None
    calls = itertools.count()
    part = automorphisms(g, lambda: next(calls) >= 3)
    assert part is not None and len(part) < len(full)
    assert {tuple(p) for p in part.tolist()} <= full


def test_detection_memory_stays_near_the_cap():
    g = gen_gn(64)  # 2 * 32! elements; the cap keeps 1,024
    tracemalloc.start()
    try:
        group = automorphisms(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(group) == _MAX_IMAGES // g.n
    assert peak < 16 * _MAX_IMAGES * 8  # int64 arrays of a few times the cap
