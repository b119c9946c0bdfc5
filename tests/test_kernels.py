import ast
import inspect
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from signedspread import _kernels, graph
from signedspread.engine import (
    MODE_ID,
    MODE_RID,
    Label,
    Placement,
    StepContext,
    Strategy,
    run,
    step,
)
from signedspread.families import gen_cycle, gen_ktt_tau, gen_path, gen_random_connected
from signedspread.graph import SignedGraph
from signedspread.solver import exact_confusion, exact_relaxed_confusion, min_steps
from signedspread.strategies import rescue_priority
from signedspread.symmetry import automorphisms

from frustration_table import edge_shift_arrays, table_scan
from plain_search import pack, reference_step, unpack


def reference_expand(g, labels, allow_neg):
    """(children as label lists, moves, added, done) by reference_step:
    added is each child's confused count minus labels', done whether the
    child has no Zero vertex."""
    infos = (1, 2) if allow_neg else (1,)
    moves = [(v, info) for v in range(g.n) if labels[v] == int(Label.ZERO) for info in infos]
    children = [reference_step(g, labels, v, info).tolist() for v, info in moves]
    held = int((labels == int(Label.CONFUSED)).sum())
    added = [child.count(int(Label.CONFUSED)) - held for child in children]
    done = [int(Label.ZERO) not in child for child in children]
    return children, moves, added, done


# label dtypes other than int8 that step must read as label codes
OTHER_DTYPES = (np.int64, np.int32, np.uint8)


def assert_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def assert_expand_matches_reference(ctx, labels, allow_neg):
    children, moves, added, done = ctx.expand(pack(labels), allow_neg)
    assert ([unpack(child, ctx.graph.n).tolist() for child in children], moves, added, done) == (
        reference_expand(ctx.graph, labels, allow_neg))


@st.composite
def random_states(draw):
    n = draw(st.integers(3, 8))
    g = gen_random_connected(draw(st.integers(0, 99999)), n)
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    for _ in range(draw(st.integers(0, 3))):
        zeros = np.flatnonzero(labels == int(Label.ZERO))
        if len(zeros) == 0:
            break
        v = int(draw(st.sampled_from([int(z) for z in zeros])))
        info = draw(st.sampled_from([1, 2]))
        labels = ctx.step(labels, v, info)
    return g, labels


@settings(max_examples=100, deadline=None)
@given(random_states(), st.sampled_from([1, 2]), st.data())
def test_step_matches_reference(gl, info, data):
    g, labels = gl
    zeros = np.flatnonzero(labels == int(Label.ZERO))
    if len(zeros) == 0:
        return
    v = int(data.draw(st.sampled_from([int(z) for z in zeros])))
    want = StepContext(g).step(labels, v, info)
    assert_identical(want, reference_step(g, labels, v, info))
    for dtype in OTHER_DTYPES:  # read as int8 label codes, not as raw bytes
        assert_identical(StepContext(g).step(labels.astype(dtype), v, info), want)


@settings(max_examples=100, deadline=None)
@given(random_states(), st.booleans())
def test_expand_matches_reference(gl, allow_neg):
    g, labels = gl
    assert_expand_matches_reference(StepContext(g), labels, allow_neg)


def test_large_sparse_path_matches_reference():
    # path(2002) placing every third vertex, as the simulate benchmark does
    g = gen_path(2002)
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    for v in range(0, g.n, 3):
        after = ctx.step(labels, v, int(Label.A))
        assert_identical(after, reference_step(g, labels, v, int(Label.A)))
        labels = after
        if v in (1935, 1998):
            for allow_neg in (False, True):
                assert_expand_matches_reference(ctx, labels, allow_neg)
    assert not (labels == int(Label.ZERO)).any()


@pytest.mark.parametrize("g", [gen_random_connected(3, 7), gen_path(5)])
def test_expand_on_complete_state(g):
    # no Zero vertex: no child, in the same dtypes as any other expansion
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    for v in range(g.n):
        if labels[v] == int(Label.ZERO):
            labels = ctx.step(labels, v, int(Label.NEG_A))
    assert not (labels == int(Label.ZERO)).any()
    for allow_neg in (False, True):
        assert ctx.expand(pack(labels), allow_neg) == ([], [], [], [])
        assert_expand_matches_reference(ctx, labels, allow_neg)


@pytest.mark.parametrize("signs", [None, [1, -1, -1] * 4])
def test_expand_matches_reference_on_mixed_states(signs):
    # A at 0, then -A at 3: vertex 2 hears both values and is confused,
    # and vertices 5..9 stay Zero, so the state holds C, A, -A and Zero
    g = gen_cycle(12, signs)
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    for v, info in ((0, 1), (3, 2)):
        labels = ctx.step(labels, v, info)
    assert set(labels.tolist()) == {0, 1, 2, 3}
    for allow_neg in (False, True):
        assert_expand_matches_reference(ctx, labels, allow_neg)


def test_run_never_builds_bit_masks():
    # the neighbour masks take up to n^2/8 bytes (2 MB here), and a trace
    # that kept a snapshot per step n bytes a step (5.3 MB over these 1,334
    # steps); a run keeps one bytearray, when and its final labels, and
    # reads the per-vertex neighbour rows, so its peak stays linear in n
    g = gen_path(4000)
    g._adj  # the graph's own rows, built once per graph, are not the run's
    strategy = Strategy(MODE_ID, [Placement(v, Label.A) for v in range(0, g.n, 3)])
    tracemalloc.start()
    try:
        trace = run(g, strategy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.complete
    assert peak < 40 * g.n  # 16 bytes a vertex measured


def test_rescue_priority_on_a_path_of_100000_is_linear():
    # one snapshot kept per step would take n * 50,001 bytes, 5 GB here
    g = gen_path(100000)
    start = time.perf_counter()
    trace = rescue_priority(g)
    assert time.perf_counter() - start < 5  # about 0.5 s on a 2-core VM
    assert trace.complete and trace.steps == 50000
    tracemalloc.start()
    try:
        again = rescue_priority(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == trace
    # 6.3 MB measured: the 50,000 placements, when, final and the bytearray
    assert peak < 160 * g.n


class CountingRows:
    """A graph's neighbour rows that count how many are read."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return self.rows[v]


def test_run_on_long_path_reads_a_few_rows_per_step():
    # each step reads the rows of the vertices the last round informed
    # (at most two on a path) and of the placed vertex, never all 2m entries
    g = gen_path(4000)
    # a round reads the rows the graph caches, so count reads there
    rows = vars(g)["_adj"] = CountingRows(g._adj)
    strategy = Strategy(MODE_ID, [Placement(v, Label.A) for v in range(0, g.n, 3)])
    assert run(g, strategy).complete
    assert rows.reads <= 2 * g.n


def test_step_outputs_are_read_only():
    g = gen_cycle(6)
    ctx = StepContext(g)
    first = ctx.step(ctx.zeros_state(), 0, int(Label.A))
    for out in (first, ctx.step(first, 3, int(Label.NEG_A)), run(g, Strategy(MODE_ID, [
            Placement(0, Label.A), Placement(3, Label.A)])).final,
            step(g, [0] * g.n, Placement(2, Label.A))):
        assert out.dtype == np.int8 and not out.flags.writeable
        with pytest.raises(ValueError):
            out.setflags(write=True)
        with pytest.raises(ValueError):
            out[0] = int(Label.ZERO)


def chain_frontier_steps(g, mode, picks, branch_at):
    """Step g through one context along picks ((index into the Zero
    vertices, place -A in rID)), checking every step against
    reference_step; then branch twice from the state after branch_at
    steps, as brute_oracle does. Returns the last state of the chain."""
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    states = [labels]

    def checked_step(labels, v, info):
        after = ctx.step(labels, v, info)
        assert_identical(after, reference_step(g, labels, v, info))
        return after

    def pick(labels, index, neg):
        zeros = np.flatnonzero(labels == int(Label.ZERO)).tolist()
        info = int(Label.NEG_A) if mode == MODE_RID and neg else int(Label.A)
        return zeros[index % len(zeros)], info

    for index, neg in picks:
        if not (labels == int(Label.ZERO)).any():
            break
        labels = checked_step(labels, *pick(labels, index, neg))
        states.append(labels)
    base = states[min(branch_at, len(states) - 1)]
    if (base == int(Label.ZERO)).any():
        for index, neg in picks[:2]:
            child = checked_step(base, *pick(base, index, neg))
            if (child == int(Label.ZERO)).any():
                checked_step(child, *pick(child, index, not neg))
    return labels


@st.composite
def frontier_cases(draw):
    n = draw(st.integers(3, 12))
    g = gen_random_connected(draw(st.integers(0, 99999)), n, draw(st.sampled_from([0.3, 0.6])))
    mode = draw(st.sampled_from([MODE_ID, MODE_RID]))
    picks = draw(st.lists(st.tuples(st.integers(0, 11), st.booleans()), min_size=n, max_size=n))
    return g, mode, picks, draw(st.integers(0, n))


# Each case confuses a vertex with two Zero pendants, one of which is
# placed next: a confused vertex sends nothing, so the other must stay
# Zero. ID: the all-negative 5-cycle, A at 0 then at 2 confuses 3. rID:
# the path 0-1-2-3 with pendants 4 and 5 at 2, A at 0 then -A at 3
# confuses 2.
CONFUSING_CASES = [
    (SignedGraph.from_edge_list(7, [(0, 1, -1), (1, 2, -1), (2, 3, -1), (3, 4, -1),
                                    (0, 4, -1), (3, 5, 1), (3, 6, 1)]),
     MODE_ID, [(0, False)] * 4, 1),
    (SignedGraph.from_edge_list(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1)]),
     MODE_RID, [(0, False), (1, True), (0, False), (0, False)], 1),
]


@pytest.mark.parametrize("case", CONFUSING_CASES)
def test_frontier_cases_reach_confusion(case):
    final = chain_frontier_steps(*case)
    assert (final == int(Label.CONFUSED)).any()


@settings(max_examples=150, deadline=None)
@given(frontier_cases())
@example(CONFUSING_CASES[0])
@example(CONFUSING_CASES[1])
def test_frontier_steps_match_reference(case):
    chain_frontier_steps(*case)


@st.composite
def reachable_states(draw):
    """(graph on n <= 10 vertices, a state reached by legal placements,
    whether -A may be placed), the first placement A as in the solvers."""
    n = draw(st.integers(2, 10))
    g = gen_random_connected(draw(st.integers(0, 99999)), n, draw(st.sampled_from([0.3, 0.6])))
    allow_neg = draw(st.booleans())
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    for i in range(draw(st.integers(0, n))):
        zeros = np.flatnonzero(labels == int(Label.ZERO)).tolist()
        if not zeros:
            break
        info = draw(st.sampled_from([1, 2])) if allow_neg and i else 1
        labels = ctx.step(labels, draw(st.sampled_from(zeros)), info)
    return g, labels, allow_neg


@settings(max_examples=150, deadline=None)
@given(reachable_states())
def test_bitset_children_equal_step_on_their_placements(case):
    # the two rounds check each other: each bitset child is the frontier step
    g, labels, allow_neg = case
    ctx = StepContext(g)
    children, moves, added, done = ctx.expand(pack(labels), allow_neg)
    zeros = np.flatnonzero(labels == int(Label.ZERO)).tolist()
    assert moves == [(v, info) for v in zeros for info in ((1, 2) if allow_neg else (1,))]
    assert len(children) == len(added) == len(done) == len(moves)
    held = int((labels == int(Label.CONFUSED)).sum())
    for child, (v, info), cost, complete in zip(children, moves, added, done):
        want = ctx.step(labels, v, info)
        assert_identical(unpack(child, g.n), want)
        assert cost == int((want == int(Label.CONFUSED)).sum()) - held
        assert complete == (not (want == int(Label.ZERO)).any())


def relabel(g, perm):
    return SignedGraph.from_edge_list(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 99999), st.integers(3, 8), st.randoms(use_true_random=False))
def test_optimum_invariant_under_relabeling(seed, n, rnd):
    g = gen_random_connected(seed, n)
    perm = list(range(n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert exact_confusion(h).optimum == exact_confusion(g).optimum
    assert exact_relaxed_confusion(h).optimum == exact_relaxed_confusion(g).optimum


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 99999), st.integers(3, 10), st.randoms(use_true_random=False))
def test_step_optimum_and_group_invariant_under_relabeling(seed, n, rnd):
    # node counts are not invariant (the children's lexicographic order
    # changes), but the optimum is, and the group the search keys its
    # memo on is found from either labeling
    g = gen_random_connected(seed, n)
    perm = list(range(n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    for mode in (MODE_ID, MODE_RID):
        report = min_steps(h, mode)
        assert report.optimum == min_steps(g, mode).optimum
        trace = run(h, report.witness)
        assert trace.complete and trace.steps == report.optimum
    group_g, group_h = automorphisms(g), automorphisms(h)
    assert (group_g is None) == (group_h is None)
    if group_g is not None:
        assert len(group_g) == len(group_h)


@st.composite
def signed_edge_lists(draw, max_n=10):
    """(n, edges) on n = 1..max_n vertices, any subset of the pairs: edges
    at vertex 0, isolated vertices and disconnected graphs all occur."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return n, [(u, v, draw(st.sampled_from([1, -1]))) for u, v in sorted(picked)]


def reference_scan(n, edges):
    """Negative edges of every switch set over vertices 1..n-1 (bit b is
    vertex b + 1), counted one mask at a time."""
    counts = []
    for mask in range(1 << (n - 1)):
        side = [0] + [(mask >> (v - 1)) & 1 for v in range(1, n)]
        counts.append(sum((s < 0) != (side[u] != side[v]) for u, v, s in edges))
    best = min(counts)
    return best, [mask for mask, c in enumerate(counts) if c == best]


def reference_pick(n, edges):
    """frustration_scan's (best, mask), one mask at a time: among the
    tied masks, the smallest sorted list of negative edges, and the
    smallest mask among equal lists."""
    best, masks = reference_scan(n, edges)

    def negatives(mask):
        side = [0] + [(mask >> (v - 1)) & 1 for v in range(1, n)]
        return sorted((u, v) for u, v, s in edges if (s < 0) != (side[u] != side[v]))

    return best, min(masks, key=lambda mask: (negatives(mask), mask))


@settings(max_examples=150, deadline=None)
@given(signed_edge_lists())
@example((1, []))
@example((10, [(0, 9, -1), (0, 4, 1), (4, 9, 1)]))  # edges at vertex 0, 6 isolated
@example((9, [(0, 1, -1), (2, 3, -1), (3, 8, -1), (2, 8, -1), (5, 6, 1)]))  # 3 parts
def test_frustration_scan_matches_reference(case):
    # the numpy table the tests keep as the planes' reference
    n, edges = case
    shifts = edge_shift_arrays(SignedGraph.from_edge_list(n, edges))
    best, masks = table_scan(*shifts, 1 << (n - 1))
    assert masks.dtype == np.int64
    assert (best, masks.tolist()) == reference_scan(n, edges)


@settings(max_examples=150, deadline=None)
@given(signed_edge_lists(), st.integers(1, 4))
@example((1, []), 4)
@example((2, [(0, 1, -1)]), 1)
@example((10, [(0, 9, -1), (0, 4, 1), (4, 9, 1)]), 2)  # edges at vertex 0, 6 isolated
@example((9, [(0, 1, -1), (2, 3, -1), (3, 8, -1), (2, 8, -1), (5, 6, 1)]), 3)  # 3 parts
@example((8, [(u, v, -1) for u in range(8) for v in range(u + 1, 8)]), 2)  # counts up to 28
def test_plane_scan_matches_numpy_scan(case, direct_bits):
    # the planes count every mask as the table does, with the vertices
    # past direct_bits added by doubling
    n, edges = case
    shifts = edge_shift_arrays(SignedGraph.from_edge_list(n, edges))
    best, masks = table_scan(*shifts, 1 << (n - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_DIRECT_BITS", direct_bits)
        planes = _kernels._count(n - 1, edges)
    plane_best, tied = _kernels._minimum(planes, (1 << (1 << (n - 1))) - 1)
    assert plane_best == best
    assert [x for x in range(1 << (n - 1)) if tied >> x & 1] == masks.tolist()


def test_patterns_switch_their_vertex():
    # each width's patterns are doubled from the width below
    for n_bits in (0, 1, 2, 3, 4, 12, 13, 14):
        pats = _kernels._vertex_patterns(n_bits)
        assert len(pats) == n_bits + 1 and pats[0] == 0
        for w in range(1, n_bits + 1):
            bits = "".join(str(x >> (w - 1) & 1) for x in reversed(range(1 << n_bits)))
            assert pats[w] == int(bits, 2)


@settings(max_examples=150, deadline=None)
@given(signed_edge_lists(max_n=12), st.integers(1, 4), st.integers(0, 3))
@example((12, [(0, 1, -1), (0, 2, -1), (1, 2, -1)]), 2, 0)  # ties in every block
@example((12, [(3, 10, -1), (3, 11, -1), (10, 11, -1), (0, 9, 1)]), 2, 1)  # ties span blocks
@example((11, [(4, 9, -1), (4, 10, 1), (9, 10, 1), (1, 2, -1), (1, 5, 1), (2, 5, -1)]), 1, 2)
@example((12, [(u, v, -1) for u in range(12) for v in range(u + 1, 12)]), 3, 1)
def test_blocks_match_reference(case, direct_bits, extra):
    # small widths make the doubling, the blocks and the witness pick in
    # each block all run on graphs the reference can count
    n, edges = case
    if not edges:
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_DIRECT_BITS", direct_bits)
        patch.setattr(_kernels, "_BLOCK_BITS", min(direct_bits + extra, 4))
        got = _kernels.frustration_scan(n, edges)
    assert got == reference_pick(n, edges)


def test_scan_modules_import_no_numpy():
    # the switching scan runs on Python ints alone, so neither module
    # may pull numpy into a process that only needs the frustration index
    for module in (_kernels, graph):
        tree = ast.parse(inspect.getsource(module))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [name for name in names if name.split(".")[0] == "numpy"], module.__name__


@settings(max_examples=60, deadline=None)
@given(random_states(), st.sampled_from([1, 2]))
def test_step_monotone_labels(gl, info):
    # a round only fills Zeros: informed and confused labels never change
    g, labels = gl
    zeros = np.flatnonzero(labels == int(Label.ZERO))
    if len(zeros) == 0:
        return
    after = StepContext(g).step(labels, int(zeros[-1]), info)
    nonzero = labels != int(Label.ZERO)
    assert np.array_equal(after[nonzero], labels[nonzero])
    assert int((after == int(Label.ZERO)).sum()) <= len(zeros) - 1


def test_expand_row_order_is_lexicographic():
    g = gen_ktt_tau(3)
    ctx = StepContext(g)
    children, moves, added, done = ctx.expand(0, True)
    assert moves == sorted(moves)
    assert len(moves) == 2 * g.n
    assert len(children) == 2 * g.n
    assert len(added) == len(done) == 2 * g.n
