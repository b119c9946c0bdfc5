"""Plain references for the round and the exact solvers: the hearing rule
in plain Python, and searches over int8 label arrays stepped one
placement at a time with StepContext.step (the frontier round), with raw
state keys, no orbit keys, no step bound and no thresholds. None of them
uses the bitset kernel of StepContext.expand, which they check."""

import numpy as np

from signedspread.engine import MODE_RID, Label, StepContext

ZERO = int(Label.ZERO)
A = int(Label.A)
NEG_A = int(Label.NEG_A)
CONFUSED = int(Label.CONFUSED)


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
