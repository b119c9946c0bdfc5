"""Plain references for reading a graph, the round, the runs, the
placement policies and the exact solvers: SignedGraph.from_edge_list's
and graph_from_json's per-edge loops as they were before the bulk test,
and connectivity and maximum degree from the edge list; the hearing
rule and the round in plain Python; runs and the five policies' pick
rules over whole snapshots, each stepped from the last by
reference_step; and searches over int8 label arrays stepped one
placement at a time with StepContext.step, where every transmitter
sends, with raw state keys, no orbit keys, no step bound and no
thresholds. None of them uses the bitset kernel of
StepContext.expand, or the run loop behind engine.run and the
policies, which they check; assert_trace_matches_reference compares a
Trace with a reference run."""

import numpy as np

from signedspread.engine import MODE_RID, Label, StepContext, levels
from signedspread.errors import InputError
from signedspread.graph import JSON_MAX_N, SignedGraph, is_balanced

ZERO = int(Label.ZERO)
A = int(Label.A)
NEG_A = int(Label.NEG_A)
CONFUSED = int(Label.CONFUSED)



def reference_from_edge_list(n, edges):
    """SignedGraph.from_edge_list as one per-edge loop, with no bulk test."""
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    seen = set()
    canon = []
    for item in edges:
        try:
            u, v, s = item
        except (TypeError, ValueError):
            raise InputError(f"edge {item!r} is not a (u, v, sign) triple") from None
        if (not (isinstance(u, int) and isinstance(v, int))
                or isinstance(u, bool) or isinstance(v, bool)):
            raise InputError(f"edge {item!r} has non-integer endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge {u}-{v} out of range for n={n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if isinstance(s, bool) or s not in (1, -1):
            raise InputError(f"edge {u}-{v} has sign {s!r}, expected 1 or -1")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise InputError(f"duplicate edge {u}-{v}")
        seen.add((u, v))
        canon.append((u, v, int(s)))
    canon.sort()
    return SignedGraph(n, tuple(canon))


def reference_graph_from_json(payload):
    """graph_from_json reading every edge entry in a loop, then
    reference_from_edge_list."""
    if not isinstance(payload, dict):
        raise InputError("graph JSON must be an object")
    try:
        n = payload["n"]
        raw = payload["edges"]
    except (KeyError, TypeError):
        raise InputError("graph JSON needs 'n' and 'edges'") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError("'n' must be an integer")
    if n > JSON_MAX_N:
        raise InputError(f"'n' = {n} exceeds the graph JSON limit of {JSON_MAX_N}")
    if not isinstance(raw, list):
        raise InputError("'edges' must be a list")
    edges = []
    for item in raw:
        if not isinstance(item, dict):
            raise InputError(f"edge entry {item!r} must be an object")
        try:
            edges.append((item["u"], item["v"], item["sign"]))
        except KeyError:
            raise InputError(f"edge entry {item!r} needs 'u', 'v', 'sign'") from None
    return reference_from_edge_list(n, edges)


def reference_connected(g):
    """Whether g is connected, by merging the ends of each edge in a
    union-find over g.edges."""
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v, _ in g.edges:
        parent[root(u)] = root(v)
    return len({root(v) for v in range(g.n)}) <= 1


def reference_max_degree(g):
    """The largest number of edges of g.edges at one vertex, 0 when none."""
    degree = [0] * g.n
    for u, v, _ in g.edges:
        degree[u] += 1
        degree[v] += 1
    return max(degree, default=0)

def pending_signals(g, labels):
    """Per-vertex (hears A, hears -A) flags for the Zero vertices, in
    plain Python: the reference for StepContext.hearing."""
    hears_p = [False] * g.n
    hears_m = [False] * g.n
    for v in range(g.n):
        if labels[v] != ZERO:
            continue
        for w, s in g._adj[v]:
            lw = labels[w]
            if lw == A:
                val = s
            elif lw == NEG_A:
                val = -s
            else:
                continue
            if val > 0:
                hears_p[v] = True
            else:
                hears_m[v] = True
    return hears_p, hears_m


def reference_step(g, labels, v, info):
    """One round in plain Python, on the hearing rule of pending_signals."""
    placed = labels.copy()
    placed[v] = info
    hears_p, hears_m = pending_signals(g, placed)
    out = placed.copy()
    for w in range(g.n):
        if placed[w] != ZERO:
            continue
        if hears_p[w] and hears_m[w]:
            out[w] = CONFUSED
        elif hears_p[w]:
            out[w] = A
        elif hears_m[w]:
            out[w] = NEG_A
    return out


def reference_run(g, pick, count=None):
    """(placements, snapshots) of the run whose i-th placement is
    pick(labels, i), a (vertex, value) pair: count placements, or with
    count None, until no vertex is Zero. Every snapshot is a whole int8
    array, stepped from the last by reference_step."""
    labels = np.zeros(g.n, dtype=np.int8)
    placements, snapshots = [], [labels]
    while len(placements) != count if count is not None else (labels == ZERO).any():
        v, info = pick(labels, len(placements))
        placements.append((v, info))
        labels = reference_step(g, labels, v, info)
        snapshots.append(labels)
    return placements, snapshots


def reference_levels(placements, snapshots):
    """levels as it was defined over whole snapshots: the j-th placed
    vertex (from 1) has level j - 1, any other vertex the first step at
    which its label is nonzero."""
    placed = {v: j for j, (v, _) in enumerate(placements)}
    return {v: placed[v] if v in placed else
            next(i for i in range(1, len(snapshots)) if snapshots[i][v] != ZERO)
            for v in range(len(snapshots[0]))}


def assert_trace_matches_reference(trace, placements, snapshots):
    """trace against reference_run's (placements, snapshots): its
    placements, len, every snapshot by index and by iteration (each a
    read-only int8 array), the last and final, confused(), complete, and
    levels when complete."""
    assert [(p.vertex, int(p.info)) for p in trace.strategy.placements] == placements
    assert all(type(p.vertex) is int for p in trace.strategy.placements)
    assert len(trace.snapshots) == len(snapshots) and trace.steps == len(placements)
    want = [snap.tolist() for snap in snapshots]
    by_index = [trace.snapshots[i] for i in range(len(snapshots))]
    last = [trace.snapshots[-1], trace.final]
    for got in (by_index, list(trace.snapshots), last):
        assert all(snap.dtype == np.int8 and not snap.flags.writeable for snap in got)
    assert [snap.tolist() for snap in by_index] == want
    assert [snap.tolist() for snap in trace.snapshots] == want
    assert [snap.tolist() for snap in last] == want[-1:] * 2
    final = snapshots[-1]
    assert trace.confused() == tuple(v for v in range(len(final)) if final[v] == CONFUSED)
    assert trace.complete == (ZERO not in final.tolist())
    if trace.complete:
        assert levels(trace) == reference_levels(placements, snapshots)


def _zeros(labels):
    return [v for v in range(len(labels)) if labels[v] == ZERO]


def reference_policy(g, pick):
    """reference_run placing A on pick(labels, i) until no vertex is Zero."""
    return reference_run(g, lambda labels, i: (pick(labels, i), A))


def reference_rescue_priority(g):
    """rescue_priority's rule on pending_signals: the first Zero vertex
    about to hear both values, else the first about to hear one, else the
    first Zero vertex."""
    def pick(labels, i):
        hp, hm = pending_signals(g, labels)
        zeros = _zeros(labels)
        return next((v for v in zeros if hp[v] and hm[v]),
                    next((v for v in zeros if hp[v] or hm[v]), zeros[0]))

    return reference_policy(g, pick)


def reference_tree_frontier(g):
    """tree_frontier's own rule: vertex 0 first, then the first Zero
    vertex next to an informed one."""
    def pick(labels, i):
        return next(v for v in _zeros(labels) if i == 0 or any(
            labels[w] in (A, NEG_A) for w in g.neighbors(v)))

    return reference_policy(g, pick)


def reference_max_degree_first(g):
    """A maximum-degree vertex first (the smallest), then the first Zero
    vertex."""
    return reference_policy(
        g, lambda labels, i: max(range(g.n), key=g.degree) if i == 0 else _zeros(labels)[0])


def reference_balanced_partition_first(g):
    """The first vertex of the larger sign side with a neighbour on the
    other side (else the side's first), then the side's first Zero vertex
    next to an informed one, else the side's first Zero vertex, else the
    first Zero vertex."""
    part = is_balanced(g)
    side_a, side_b = set(part.u1), set(part.u2)
    if len(side_a) < len(side_b):
        side_a, side_b = side_b, side_a

    def pick(labels, i):
        zeros = _zeros(labels)
        first_zeros = [v for v in zeros if v in side_a]
        if not first_zeros:
            return zeros[0]
        near = [v for v in first_zeros if (any(w in side_b for w in g.neighbors(v)) if i == 0
                                           else any(labels[w] in (A, NEG_A) for w in g.neighbors(v)))]
        return (near or first_zeros)[0]

    return reference_policy(g, pick)


def reference_circuit_strategy(g):
    """Walk the cycle from 0 towards its smaller neighbour and place on
    every other vertex, the tail set by the length mod 3; on 5 vertices,
    0 and 2 when all signs are negative, else the ends of the first run
    of three edges with positive sign product."""
    order = [0, min(g.neighbors(0))]
    while len(order) < g.n:
        order.append(next(w for w in g.neighbors(order[-1]) if w != order[-2]))
    k, t = g.n, g.n // 3
    if k == 5:
        signs = [g.sign_of(order[j], order[(j + 1) % 5]) for j in range(5)]
        starts = [j for j in range(5) if signs[j] * signs[(j + 1) % 5] * signs[(j + 2) % 5] > 0]
        spots = [order[0], order[2]] if not starts else [order[starts[0]], order[(starts[0] + 3) % 5]]
    else:
        idxs = {0: [2 * i for i in range(t)], 1: [2 * i for i in range(t + 1)],
                2: [0, 4] + [2 * i for i in range(3, t + 1)]}[k % 3]
        spots = [order[j] for j in idxs]
    return reference_run(g, lambda labels, i: (spots[i], A), len(spots))


def pack(labels):
    """The bitset state a | b << n | c << 2n of an int8 label array."""
    n = len(labels)
    state = 0
    for v, label in enumerate(labels.tolist()):
        if label != ZERO:
            state |= 1 << (v + (label - 1) * n)
    return state


def unpack(state, n):
    """The int8 label array of a bitset state."""
    return np.array([A if state >> v & 1 else NEG_A if state >> (v + n) & 1
                     else CONFUSED if state >> (v + 2 * n) & 1 else ZERO
                     for v in range(n)], dtype=np.int8)


def placements(ctx, labels, allow_neg):
    """(child, (vertex, value)) for every placement on a Zero vertex, in
    lexicographic order, each child stepped as it is asked for."""
    infos = (A, NEG_A) if allow_neg else (A,)
    for v in np.flatnonzero(labels == ZERO).tolist():
        for info in infos:
            yield ctx.step(labels, v, info), (v, info)


class PlainSearch:
    """The raw-keyed confusion search with stored best moves."""

    def __init__(self, g, mode):
        self.ctx = StepContext(g)
        self.allow_neg = mode == MODE_RID
        self.memo = {}

    def value(self, labels, at_root=False):
        key = labels.tobytes()
        if key not in self.memo:
            best, move = 0, None
            if (labels == ZERO).any():
                cur = int((labels == CONFUSED).sum())
                best = None
                for child, placed in placements(self.ctx, labels, self.allow_neg and not at_root):
                    added = int((child == CONFUSED).sum()) - cur
                    if best is not None and added >= best:
                        continue
                    total = added + self.value(child)
                    if best is None or total < best:
                        best, move = total, placed
                        if best == 0:
                            break
            self.memo[key] = (best, move)
        return self.memo[key][0]


def plain_solve(g, mode):
    """(optimum, witness) of the raw-keyed confusion search."""
    search = PlainSearch(g, mode)
    labels = search.ctx.zeros_state()
    optimum = search.value(labels, at_root=True)
    witness = []
    while (move := search.memo[labels.tobytes()][1]) is not None:
        witness.append(move)
        labels = search.ctx.step(labels, *move)
    return optimum, witness


class PlainSteps:
    """Iterative deepening on the step budget, memoized on (state, steps
    left), with no step bound. The first placement is pinned to A, as in
    min_steps."""

    def __init__(self, g, mode):
        self.ctx = StepContext(g)
        self.allow_neg = mode == MODE_RID
        self.memo = {}

    def feasible(self, labels, remaining, at_root=False):
        """Whether `remaining` or fewer placements complete labels."""
        if not (labels == ZERO).any():
            return True
        if remaining == 0:
            return False
        key = (labels.tobytes(), remaining, at_root)
        if key not in self.memo:
            self.memo[key] = any(
                self.feasible(child, remaining - 1)
                for child, _ in placements(self.ctx, labels, self.allow_neg and not at_root))
        return self.memo[key]

    def value(self, labels, at_root=False):
        """The fewest steps that complete labels."""
        return next(t for t in range(self.ctx.graph.n + 1) if self.feasible(labels, t, at_root))


def plain_min_steps(g, mode):
    """(steps, witness) of the plain step search: at each state, the first
    child in lexicographic order that completes within the steps left."""
    search = PlainSteps(g, mode)
    labels = search.ctx.zeros_state()
    steps = search.value(labels, at_root=True)
    witness = []
    for left in range(steps, 0, -1):
        labels, placed = next(
            (child, placed)
            for child, placed in placements(search.ctx, labels, search.allow_neg and bool(witness))
            if search.feasible(child, left - 1))
        witness.append(placed)
    return steps, witness
