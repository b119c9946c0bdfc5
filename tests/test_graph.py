import re
import tracemalloc
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signedspread import _kernels, graph as graph_module
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
from signedspread.graph import (
    FRUSTRATION_SCAN_MAX_N,
    JSON_MAX_N,
    SignedGraph,
    _bulk_canonical,
    equivalent,
    frustration_index,
    graph_from_json,
    graph_to_json,
    is_antibalanced,
    is_balanced,
    min_deletion_balancing,
    negate_signature,
    negative_cycles,
    realize_min_signature,
    switch,
)
from signedspread.solver import brute_oracle
from signedspread.verify import burning_number_brute

from frustration_table import edge_shift_arrays, table_frustration, table_scan
from plain_search import (
    reference_connected,
    reference_from_edge_list,
    reference_graph_from_json,
    reference_max_degree,
)


@st.composite
def signed_graphs(draw, max_n=7, connected=False):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    for u, v in pairs:
        if draw(st.booleans()):
            edges.append((u, v, draw(st.sampled_from([1, -1]))))
    g = SignedGraph.from_edge_list(n, edges)
    if connected and not g.connected():
        # fall back to a seeded connected instance of the same order
        return gen_random_connected(draw(st.integers(0, 10_000)), n)
    return g


def test_from_edge_list_normalizes_and_sorts():
    g = SignedGraph.from_edge_list(4, [(3, 1, -1), (2, 0, 1), (0, 1, 1)])
    assert g.edges == ((0, 1, 1), (0, 2, 1), (1, 3, -1))
    assert g.sign_of(3, 1) == -1
    assert g.has_edge(1, 3) and not g.has_edge(0, 3)
    assert g.neighbors(0) == (1, 2)
    assert g.degree(1) == 2 and g.max_degree() == 2


_EDGE_LIST_REJECTS = [
    (3, [(0, 0, 1)], "self-loop at vertex 0"),
    (3, [(0, 1, 1), (1, 0, -1)], "duplicate edge 0-1"),
    (3, [(0, 3, 1)], "edge 0-3 out of range for n=3"),
    (3, [(0, 1, 2)], "edge 0-1 has sign 2, expected 1 or -1"),
    (3, [(0, 1)], "edge (0, 1) is not a (u, v, sign) triple"),
    (-1, [], "vertex count must be nonnegative"),
    (3, [(True, 2, 1)], "edge (True, 2, 1) has non-integer endpoints"),
    (3, [(0, 2, True)], "edge 0-2 has sign True, expected 1 or -1"),
    # the first bad edge in input order is the one named
    (4, [(0, 1, 1), (2, 1, -1), (3, 3, 1), (0, 9, 1)], "self-loop at vertex 3"),
    (4, [(2, 3, 1), (0, 1, -1), (3, 7, 1), (1, 1, 1)], "edge 3-7 out of range for n=4"),
]


# ids as pytest derives them from (n, edges) alone
@pytest.mark.parametrize("n,edges,message", _EDGE_LIST_REJECTS,
                         ids=[f"{n}-edges{i}" for i, (n, _, _) in enumerate(_EDGE_LIST_REJECTS)])
def test_from_edge_list_rejects(n, edges, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        SignedGraph.from_edge_list(n, edges)


class _Vertex(IntEnum):
    ZERO = 0
    ONE = 1


@pytest.mark.parametrize("k", [3, 40])  # a short list and a long one
@pytest.mark.parametrize(
    "form",
    [
        lambda e: [(0, 1, float(e[0][2]))] + e[1:],
        lambda e: [(_Vertex.ZERO, _Vertex.ONE, e[0][2])] + e[1:],
        lambda e: [list(edge) for edge in e],
        lambda e: (edge for edge in e),
    ],
    ids=["float-sign", "intenum-end", "list-triples", "generator"],
)
def test_from_edge_list_loop_inputs_match_int_tuples(form, k):
    """A sign of 1.0, IntEnum ends, list triples and a generator give the
    graph that plain int tuples give. edges is the k-cycle, whose last
    edge has u > v, so no form is canonical and the loop reads them all."""
    edges = [(i, (i + 1) % k, 1 if i % 2 else -1) for i in range(k)]
    assert SignedGraph.from_edge_list(k, form(edges)) == SignedGraph.from_edge_list(k, edges)
    assert _bulk_canonical(k, list(form(edges))) is None


def test_sign_of_missing_edge():
    g = SignedGraph.from_edge_list(3, [(0, 1, 1)])
    with pytest.raises(InputError):
        g.sign_of(0, 2)


@settings(max_examples=200, deadline=None)
@given(signed_graphs(max_n=9))
def test_edge_queries_match_the_edge_list(g):
    signs = {(u, v): s for u, v, s in g.edges}
    # both orders of every pair, u == v, and ends outside 0..n-1
    for u in range(-2, g.n + 2):
        for v in range(-2, g.n + 2):
            sign = signs.get((min(u, v), max(u, v)))
            assert g.has_edge(u, v) is (sign is not None)
            if sign is not None:
                assert g.sign_of(u, v) == sign
            else:
                with pytest.raises(InputError, match=f"^no edge {min(u, v)}-{max(u, v)}$"):
                    g.sign_of(u, v)


@settings(max_examples=60, deadline=None)
@given(signed_graphs())
def test_json_roundtrip(g):
    assert graph_from_json(graph_to_json(g)) == g


_JSON_REJECTS = [
    ([], "graph JSON must be an object"),
    ({"n": 3}, "graph JSON needs 'n' and 'edges'"),
    ({"n": "3", "edges": []}, "'n' must be an integer"),
    ({"n": 3, "edges": [{"u": 0, "v": 1}]}, "edge entry {'u': 0, 'v': 1} needs 'u', 'v', 'sign'"),
    ({"n": 3, "edges": [[0, 1, 1]]}, "edge entry [0, 1, 1] must be an object"),
    ({"n": JSON_MAX_N + 1, "edges": []},
     f"'n' = {JSON_MAX_N + 1} exceeds the graph JSON limit of {JSON_MAX_N}"),
    # the first bad entry in input order is the one named
    ({"n": 3, "edges": [{"u": 0, "v": 1, "sign": 1}, {"u": 1, "sign": 1}, [1, 2, 1]]},
     "edge entry {'u': 1, 'sign': 1} needs 'u', 'v', 'sign'"),
    ({"n": 3, "edges": [{"u": 0, "v": 1, "sign": 1}, None, {"u": 1}]},
     "edge entry None must be an object"),
]


# ids as pytest derives them from payload alone
@pytest.mark.parametrize("payload,message", _JSON_REJECTS,
                         ids=[f"payload{i}" for i in range(len(_JSON_REJECTS))])
def test_graph_from_json_rejects(payload, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        graph_from_json(payload)


def _outcome(read, *args):
    """repr of what read(*args) returns, or the text of its InputError."""
    try:
        return repr(read(*args))
    except InputError as exc:
        return f"InputError: {exc}"


_BAD_ENDS = [-1, 9, True, False, 1.0, 2.5, "1", None, _Vertex.ONE]
_BAD_SIGNS = [0, 2, True, -1.0, 1.0, "1", None, _Vertex.ONE]


@st.composite
def edge_lists(draw):
    """(n, edges, clean): distinct pairs with signs in any order, or
    sorted, with perturbations drawn on top; clean when the only
    perturbation is swapped ends."""
    n = draw(st.integers(0, 12))  # up to 66 pairs
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.permutations(pairs)) if pairs else []
    edges = [(u, v, draw(st.sampled_from([1, -1]))) for u, v in chosen[:draw(st.integers(0, len(chosen)))]]
    if draw(st.booleans()):
        edges.sort()  # canonical order, unless a perturbation breaks it
    clean = True
    kinds = ["swap", "repeat", "loop", "end", "sign", "length", "list"]
    # the last two change an item's shape, so they come after the others
    for kind in sorted(draw(st.lists(st.sampled_from(kinds), max_size=3)), key=kinds.index):
        if kind != "swap":
            clean = False
        if kind in ("swap", "repeat") and not edges:
            continue
        if kind == "swap":
            i = draw(st.integers(0, len(edges) - 1))
            u, v, s = edges[i]
            edges[i] = (v, u, s)
        elif kind == "repeat":
            u, v, _ = edges[draw(st.integers(0, len(edges) - 1))]
            if draw(st.booleans()):
                u, v = v, u
            edges.insert(draw(st.integers(0, len(edges))), (u, v, draw(st.sampled_from([1, -1]))))
        elif kind == "loop":
            v = draw(st.integers(0, max(n - 1, 0)))
            edges.insert(draw(st.integers(0, len(edges))), (v, v, 1))
        elif kind in ("end", "sign") and edges:
            i = draw(st.integers(0, len(edges) - 1))
            item = list(edges[i])
            if kind == "end":
                item[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_ENDS))
            else:
                item[2] = draw(st.sampled_from(_BAD_SIGNS))
            edges[i] = tuple(item)
        elif kind == "length" and edges:
            i = draw(st.integers(0, len(edges) - 1))
            edges[i] = edges[i][:2] if draw(st.booleans()) else edges[i] + (1,)
        elif kind == "list" and edges:
            i = draw(st.integers(0, len(edges) - 1))
            edges[i] = list(edges[i])
    return n, edges, clean


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_from_edge_list_matches_per_edge_loop(case):
    """from_edge_list, and the bulk test alone, against the per-edge
    loop. The bulk test passes exactly the lists already in canonical
    order, tuples of exact ints as the loop would leave them, and passes
    each as the same list."""
    n, edges, clean = case
    want = _outcome(reference_from_edge_list, n, edges)
    assert _outcome(SignedGraph.from_edge_list, n, edges) == want
    given_list = list(edges)
    canon = _bulk_canonical(n, given_list)
    assert given_list == edges  # left as it was
    exact = all(type(e) is tuple and all(type(x) is int for x in e) for e in edges)
    assert (canon is not None) == (exact and repr(SignedGraph(n, tuple(edges))) == want)
    if canon is not None:
        assert canon is given_list
        assert repr(SignedGraph(n, tuple(canon))) == want
    if clean:
        g = SignedGraph.from_edge_list(n, edges)
        assert g.connected() == reference_connected(g)
        assert g.max_degree() == reference_max_degree(g)


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.data())
def test_graph_from_json_matches_per_edge_loop(case, data):
    n, edges, _ = case
    raw = [{"u": e[0], "v": e[1], "sign": e[2]} if len(e) == 3 else list(e) for e in edges]
    if raw and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(raw) - 1))
        entry = raw[i]
        if data.draw(st.booleans()) and isinstance(entry, dict):
            del entry[data.draw(st.sampled_from(["u", "v", "sign"]))]
        else:
            raw[i] = data.draw(st.sampled_from([[0, 1, 1], 7, "edge", None]))
    payload = {"n": n, "edges": raw}
    assert _outcome(graph_from_json, payload) == _outcome(reference_graph_from_json, payload)


def reference_rows(g):
    """Each vertex's (neighbour, sign) pairs, sorted by neighbour."""
    rows = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        rows[u].append((v, s))
        rows[v].append((u, s))
    return tuple(tuple(sorted(row)) for row in rows)


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.data())
def test_adjacency_rows_come_sorted_from_canonical_edges(case, data):
    """_adj keeps the order the canonical edges give, with no sort of
    its own: every row is sorted, for a graph read from an edge list and
    for what switch and negate_signature make of it, and
    realize_min_signature for the edge sets of frustration_index and
    min_deletion_balancing, all built straight from its edges."""
    n, edges, _ = case
    try:
        g = SignedGraph.from_edge_list(n, edges)
    except InputError:
        return
    members = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    graphs = [g, switch(g, members), negate_signature(g),
              realize_min_signature(g, frustration_index(g)[1])]
    if g.m <= 8:
        _, dropped = min_deletion_balancing(g)
        graphs.append(realize_min_signature(g, dropped))
    for h in graphs:
        assert h._adj == reference_rows(h)


@pytest.mark.parametrize("family", [
    lambda: gen_path(2002),
    lambda: gen_gst(500, 3),
    lambda: gen_cycle(1500),
    lambda: gen_random_tree(7, 2000),
], ids=["path", "gst", "cycle", "tree"])
def test_graph_json_of_relabeled_graphs_passes_the_bulk_test(family, monkeypatch):
    """The relabeled large graphs that simulate reads, as graph_to_json
    writes them, reach SignedGraph as the same list graph_from_json
    read, with no pass through the loop."""
    g0 = family()
    p = np.random.default_rng(g0.n).permutation(g0.n)
    g = SignedGraph.from_edge_list(g0.n, [(int(p[u]), int(p[v]), s) for u, v, s in g0.edges])
    seen = []

    def spy(n, edges):
        seen.append((edges, _bulk_canonical(n, edges)))
        return seen[-1][1]

    monkeypatch.setattr(graph_module, "_bulk_canonical", spy)
    assert graph_from_json(graph_to_json(g)) == g
    [(edges, canon)] = seen
    assert canon is edges


@settings(max_examples=60, deadline=None)
@given(signed_graphs(max_n=9))
def test_connected_and_max_degree_match_references(g):
    assert g.connected() == reference_connected(g)
    assert g.max_degree() == reference_max_degree(g)


@settings(max_examples=60, deadline=None)
@given(signed_graphs(), st.sets(st.integers(0, 6)))
def test_switch_involution(g, members):
    members = {v for v in members if v < g.n}
    assert switch(switch(g, members), members) == g


@settings(max_examples=30, deadline=None)
@given(signed_graphs())
def test_switch_trivial_sets(g):
    assert switch(g, set()) == g
    assert switch(g, range(g.n)) == g  # full set flips nothing
    assert negate_signature(negate_signature(g)) == g


def test_switch_rejects_out_of_range():
    g = SignedGraph.from_edge_list(3, [(0, 1, 1)])
    with pytest.raises(InputError):
        switch(g, {5})
    with pytest.raises(InputError):
        switch(g, [True])
    # numpy integers are vertices, as in placements
    assert switch(g, np.array([1])) == switch(g, [1])


def test_balance_basics():
    g = gen_gn(6)
    part = is_balanced(g)
    assert part is not None
    assert set(part.u1) == {0, 1, 2} and set(part.u2) == {3, 4, 5}
    assert is_antibalanced(negate_signature(g)) is not None
    # odd all-negative cycle is unbalanced, even one is balanced
    assert is_balanced(gen_cycle(3, [-1, -1, -1])) is None
    assert is_balanced(gen_cycle(4, [-1] * 4)) is not None


@settings(max_examples=60, deadline=None)
@given(signed_graphs())
def test_balanced_iff_no_negative_cycles(g):
    assert (is_balanced(g) is not None) == (len(negative_cycles(g)) == 0)


@settings(max_examples=60, deadline=None)
@given(signed_graphs())
def test_antibalance_is_balance_of_negation(g):
    assert (is_antibalanced(g) is not None) == (
        is_balanced(negate_signature(g)) is not None
    )


@settings(max_examples=40, deadline=None)
@given(signed_graphs(), st.sets(st.integers(0, 6)))
def test_equivalent_recovers_switching(g, members):
    members = {v for v in members if v < g.n}
    h = switch(g, members)
    witness = equivalent(g, h)
    assert witness is not None
    assert switch(g, witness) == h


def test_equivalent_negative_and_errors():
    g = gen_cycle(3)
    h = gen_cycle(3, [-1, 1, 1])  # one negative triangle is unbalanced
    assert equivalent(g, h) is None
    with pytest.raises(InputError):
        equivalent(g, gen_cycle(4))


def test_negative_cycles_canonical():
    g = gen_cycle(5, [-1] * 5)
    cycles = negative_cycles(g)
    assert cycles == frozenset({(0, 1, 2, 3, 4)})
    assert negative_cycles(gen_cycle(4, [-1] * 4)) == frozenset()


def test_negative_cycles_cap():
    with pytest.raises(CapacityError):
        negative_cycles(gen_random_connected(1, 11))


def test_frustration_known_values():
    assert frustration_index(gen_gn(8))[0] == 0
    assert frustration_index(gen_cycle(3, [-1, 1, 1]))[0] == 1
    for t, want in ((3, 2), (4, 4), (5, 5)):
        # t >= 4 gives value t; at t=3 switching at {a0, a1, b2} leaves
        # only two negative edges, so the value drops to 2
        assert frustration_index(gen_ktt_tau(t))[0] == want


@settings(max_examples=25, deadline=None)
@given(signed_graphs(max_n=5))
def test_frustration_matches_deletion_oracle(g):
    if g.m > 10:
        return
    value, witness = frustration_index(g)
    oracle_value, _ = min_deletion_balancing(g)
    assert value == oracle_value
    assert len(witness) == value


@settings(max_examples=25, deadline=None)
@given(signed_graphs(max_n=6), st.sets(st.integers(0, 5)))
def test_frustration_switching_invariant(g, members):
    members = {v for v in members if v < g.n}
    assert frustration_index(g)[0] == frustration_index(switch(g, members))[0]


def reference_frustration(g):
    """Every switch set, vertex 0 included; the minimum negative count and
    the lexicographically smallest sorted negative edge set attaining it."""
    best = None
    for bits in range(1 << g.n):
        neg = sorted(
            (u, v) for u, v, s in g.edges if (s < 0) != bool(((bits >> u) ^ (bits >> v)) & 1)
        )
        if best is None or (len(neg), neg) < best:
            best = (len(neg), neg)
    return best[0], frozenset(best[1])


@settings(max_examples=60, deadline=None)
@given(signed_graphs(max_n=7))
def test_frustration_matches_switching_reference(g):
    # signed_graphs draws disconnected graphs too, whose free components
    # make many switchings tie
    assert frustration_index(g) == reference_frustration(g)


@pytest.mark.parametrize(
    "edges, want",
    [
        # all-negative triangle plus 15 isolated vertices: those leave
        # every count unchanged, so the tied masks spread over all 2^17
        # entries of the table
        ([(0, 1, -1), (0, 2, -1), (1, 2, -1)], (1, {(0, 1)})),
        # the last bit (vertex 17) has back edges to vertex 0 and to bit 0;
        # both halves of the table reach the minimum, but only the lower
        # half's masks (vertex 17 unswitched) give the smallest witness
        ([(0, 1, -1), (0, 17, 1), (1, 17, 1)], (1, {(0, 1)})),
        # the edge 0-17 is negative in every mask of the lower half, so the
        # minimum lies only in the upper half (vertex 17 switched)
        ([(0, 17, -1), (2, 3, -1), (2, 4, -1), (3, 4, -1)], (1, {(2, 3)})),
    ],
)
def test_frustration_ties_across_scan_chunks(edges, want):
    value, witness = frustration_index(SignedGraph.from_edge_list(18, edges))
    assert (value, set(witness)) == want


def _sparse_random(seed, n, m):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = rng.choice(len(pairs), size=m, replace=False)
    return SignedGraph.from_edge_list(
        n, [(*pairs[i], int(rng.choice([1, -1]))) for i in picked]
    )


def negatives_after_switch(g, mask):
    """The negative edges after switching the vertices of mask (bit b is
    vertex b + 1), one edge at a time."""
    out = []
    for u, v, s in g.edges:
        in_u = u != 0 and (mask >> (u - 1)) & 1 == 1
        in_v = v != 0 and (mask >> (v - 1)) & 1 == 1
        if (s < 0) != (in_u != in_v):  # negative sign xor cut by the switch
            out.append((u, v))
    return out


@pytest.mark.parametrize(
    "g",
    [
        # all-negative triangle plus 17 isolated vertices: 393,216 tied masks
        SignedGraph.from_edge_list(20, [(0, 1, -1), (0, 2, -1), (1, 2, -1)]),
        # two all-negative triangles, the second not touching vertex 0
        SignedGraph.from_edge_list(
            16, [(0, 1, -1), (0, 2, -1), (1, 2, -1), (7, 9, -1), (7, 12, -1), (9, 12, -1)]
        ),
        gen_ktt_tau(5),
        _sparse_random(1, 14, 9),
        _sparse_random(2, 16, 12),
    ],
)
def test_frustration_witness_matches_smallest_sorted_rule(g):
    assert frustration_index(g) == smallest_sorted_rule(g)


def smallest_sorted_rule(g):
    """The minimum, and the smallest sorted negative edge list over every
    tied mask of the numpy table, picked the slow way."""
    best, masks = table_scan(*edge_shift_arrays(g), 1 << (g.n - 1))
    return best, frozenset(min(sorted(negatives_after_switch(g, int(mask))) for mask in masks))


def _triangle_and_two_edges(seed, n):
    """An all-negative triangle and two random signed edges: most vertices
    are isolated, so many switchings tie at a nonzero minimum."""
    rng = np.random.default_rng(seed)
    a, b, c = sorted(rng.choice(n, 3, replace=False).tolist())
    edges = {(a, b): -1, (a, c): -1, (b, c): -1}
    while len(edges) < 5:
        u, v = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.setdefault((u, v), int(rng.choice([1, -1])))
    return SignedGraph.from_edge_list(n, [(u, v, s) for (u, v), s in edges.items()])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 99999), st.integers(4, 20), st.sampled_from([None, 0.2, 0.5]))
def test_frustration_matches_the_table(seed, n, edge_prob):
    # the value and witness of the one scan against the numpy table and
    # its own witness pick; the tie-heavy graphs (m = 5) keep up to
    # hundreds of thousands of tied masks
    if edge_prob is None:
        g = _triangle_and_two_edges(seed, n)
    else:
        g = gen_random_connected(seed, n, edge_prob)
    assert frustration_index(g) == table_frustration(g)


@pytest.mark.parametrize(
    "edges",
    [
        # an all-negative triangle through two of the vertices the blocks
        # fix (18 to 21), 19 vertices isolated
        [(0, 19, -1), (0, 21, -1), (19, 21, -1)],
        # one all-negative triangle below the blocks' vertices and one
        # through them, and a positive edge between two of them
        [(1, 2, -1), (1, 3, -1), (2, 3, -1), (5, 18, -1), (5, 20, -1), (18, 20, -1),
         (19, 21, 1)],
    ],
)
def test_frustration_ties_across_blocks(edges):
    g = SignedGraph.from_edge_list(22, edges)
    best, masks = table_scan(*edge_shift_arrays(g), 1 << 21)
    assert len({*(masks >> _kernels._BLOCK_BITS).tolist()}) > 1  # tied masks span blocks
    assert frustration_index(g, max_n=22) == table_frustration(g)


def test_frustration_picks_once_per_tied_block(monkeypatch):
    # all-negative triangle plus 17 isolated vertices: the 393,216 tied
    # masks fill all 4 blocks of 2^17, and each block narrows its ties
    # in one pick
    g = SignedGraph.from_edge_list(20, [(0, 1, -1), (0, 2, -1), (1, 2, -1)])
    picks = []
    pick = _kernels._smallest_tied_mask
    monkeypatch.setattr(_kernels, "_smallest_tied_mask",
                        lambda *args: picks.append(args) or pick(*args))
    assert frustration_index(g) == table_frustration(g)
    assert 0 < len(picks) <= 4


def test_frustration_memory_stays_a_few_planes():
    # the table's counts alone take 2^23 bytes (8 MiB) at n = 24; the
    # scan holds a few planes of one block's 2^17 bits, and the vertex
    # patterns of every width up to a block's, built here in the call
    # (1.0 MB measured; 0.4 MB with the patterns cached)
    g = _sparse_random(3, 24, 100)
    _kernels._vertex_patterns.cache_clear()
    tracemalloc.start()
    try:
        frustration_index(g, max_n=24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_frustration_zero_iff_balanced():
    assert frustration_index(gen_gn(6))[0] == 0
    g = gen_cycle(5, [-1] * 5)
    assert frustration_index(g)[0] > 0 and is_balanced(g) is None


def test_frustration_cap():
    with pytest.raises(CapacityError):
        frustration_index(gen_random_connected(2, 9), max_n=8)


@pytest.mark.parametrize("routine, cap", [
    (negative_cycles, "max_n"),
    (frustration_index, "max_n"),
    (min_deletion_balancing, "max_edges"),
    (brute_oracle, "max_n"),
    (burning_number_brute, "max_n"),
])
def test_capped_routines_refuse_a_negative_cap(routine, cap):
    # the same refusal everywhere, on the empty graph too
    for g in (gen_path(3), SignedGraph.from_edge_list(0, [])):
        with pytest.raises(InputError, match="^size cap must be nonnegative, got -1$"):
            routine(g, **{cap: -1})


@pytest.mark.parametrize("n", [FRUSTRATION_SCAN_MAX_N + 1, 40, 64])
def test_frustration_scan_ceiling_ignores_max_n(n):
    # the scan's time doubles with each vertex; the refusal comes before it starts
    with pytest.raises(CapacityError, match=f"n <= {FRUSTRATION_SCAN_MAX_N}"):
        frustration_index(gen_path(n), max_n=n)


@pytest.mark.parametrize(
    "n, want, ties",
    [
        (17, 64, 24_310),  # m = 136: past int8
        (20, 90, 92_378),  # m = 190
        (24, 132, 1_352_078),  # m = 276: past uint8
    ],
)
def test_frustration_counts_wider_than_8_bits(n, want, ties):
    g = SignedGraph.from_edge_list(n, [(u, v, -1) for u in range(n) for v in range(u + 1, n)])
    best, masks = table_scan(*edge_shift_arrays(g), 1 << (n - 1))
    assert (best, len(masks)) == (want, ties)
    assert frustration_index(g, max_n=n) == table_frustration(g)


def is_switching_of(g, negatives):
    """Plain-Python 2-colouring: is `negatives` the negative edge set of
    some switching of g? Switching flips exactly the edges across the
    switch set, so the sides must satisfy side[u] ^ side[v] == flipped."""
    adj = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        flipped = (s < 0) != ((u, v) in negatives)
        adj[u].append((v, flipped))
        adj[v].append((u, flipped))
    side = [None] * g.n
    for root in range(g.n):
        if side[root] is not None:
            continue
        side[root] = False
        stack = [root]
        while stack:
            u = stack.pop()
            for v, flipped in adj[u]:
                if side[v] is None:
                    side[v] = side[u] != flipped
                    stack.append(v)
                elif side[v] != (side[u] != flipped):
                    return False
    return True


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 99999), st.integers(12, 18), st.randoms(use_true_random=False))
def test_frustration_invariant_under_relabeling(seed, n, rnd):
    g = gen_random_connected(seed, n)
    perm = list(range(n))
    rnd.shuffle(perm)
    h = SignedGraph.from_edge_list(n, [(perm[u], perm[v], s) for u, v, s in g.edges])
    value, witness = frustration_index(g)
    assert frustration_index(h)[0] == value
    for graph, (v, w) in ((g, (value, witness)), (h, frustration_index(h))):
        assert len(w) == v and w <= {(a, b) for a, b, _ in graph.edges}
        assert is_switching_of(graph, w)


def test_realize_min_signature():
    g = gen_ktt_tau(4)
    value, witness = frustration_index(g)
    assert value == 4
    realized = realize_min_signature(g, witness)
    assert set(realized.negative_edges()) == set(witness)
    assert equivalent(g, realized) is not None
    with pytest.raises(InputError):
        realize_min_signature(g, [(0, 1)])  # not an edge (same side)
    with pytest.raises(InputError, match="^edge 0-9 not in graph$"):
        realize_min_signature(g, [(9, 0)])
    with pytest.raises(InputError):
        # deleting a single matching edge does not balance the rest
        realize_min_signature(g, [(0, 4)])
    # numpy integers are integers
    assert realize_min_signature(g, [(np.int64(a), np.int64(a + 4)) for a in range(4)]) == realized


# a bool is not an integer here either: (False, True) is not the pair 0-1
@pytest.mark.parametrize("e_set", [[(0,)], [(0, "a")], [(0, 4, 1)], [None], ["ab"], [(0, 4.0)], 5, None,
                                   [(False, True)], [(0, True)], [(np.int64(0), False)]])
def test_realize_min_signature_refuses_non_integer_pairs(e_set):
    with pytest.raises(InputError, match="^edge set must hold \\(u, v\\) pairs of integers"):
        realize_min_signature(gen_ktt_tau(4), e_set)


def test_connected():
    assert gen_cycle(5).connected()
    assert not SignedGraph.from_edge_list(4, [(0, 1, 1), (2, 3, -1)]).connected()
    assert SignedGraph.from_edge_list(1, []).connected()
