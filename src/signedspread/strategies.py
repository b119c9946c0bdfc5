"""Placement policies with per-policy confusion guarantees.

Every policy returns the Trace of its complete ID run (placements carry
value A only); trace.strategy is the strategy it chose. Choices that
the guarantee leaves free are resolved toward the smallest vertex id,
so each policy is deterministic.
"""

from __future__ import annotations

from .engine import _CONFUSED, MODE_ID, Label, Placement, Strategy, Trace, _trace, run
from .errors import InputError
from .graph import SignedGraph, is_balanced


def _drive(g: SignedGraph, pick) -> Trace:
    """Run until no vertex is Zero, placing A on pick(labels, heard, i)
    at step i, with labels and heard as engine._trace gives them."""
    return _trace(g, MODE_ID, lambda labels, heard, i: Placement(pick(labels, heard, i), Label.A))


def _first_zero(order):
    """A function of a run's labels that gives the first vertex of order
    still Zero in them, or None. A run never makes a vertex Zero again,
    so that position only moves up: O(len(order)) over the whole run."""
    pos = 0

    def first(labels):
        nonlocal pos
        while pos < len(order) and labels[order[pos]]:
            pos += 1
        return order[pos] if pos < len(order) else None

    return first


POLICIES = {}
_BOUNDS = {}


def _policy(bound):
    """Register the decorated policy in POLICIES under its name, with
    bound(g), the confusion it guarantees on g."""
    def register(fn):
        POLICIES[fn.__name__] = fn
        _BOUNDS[fn.__name__] = bound
        return fn
    return register


@_policy(lambda g: 0.0)
def tree_frontier(g: SignedGraph) -> Trace:
    """On trees: grow from vertex 0, always placing on a Zero vertex
    adjacent to an informed one. Guarantees zero confusion. This is
    rescue_priority's rule: it picks vertex 0 first, and from then on
    the informed set is a connected subtree, which a vertex outside it
    touches at most once, so no Zero vertex hears both values and the
    first that hears one is the first next to an informed vertex."""
    if not g.connected() or g.m != g.n - 1:
        raise InputError("tree_frontier expects a tree")
    return rescue_priority(g)


def _cycle_order(g: SignedGraph) -> list[int]:
    """The vertices of g, a single cycle, in order around it from 0
    toward its smaller neighbour."""
    rows = g._adj
    a, b = 0, rows[0][0][0]
    order = [a, b]
    while len(order) < g.n:
        (w, _), (x, _) = rows[b]
        a, b = b, x if w == a else w
        order.append(b)
    return order


@_policy(lambda g: 1.0 if g.n == 5 and all(s < 0 for _, _, s in g.edges) else 0.0)
def circuit_strategy(g: SignedGraph) -> Trace:
    """On a single cycle: place on every other vertex, with the residue
    of the length mod 3 deciding the tail. Guarantees zero confusion,
    except the all-negative 5-cycle, where one confused vertex is
    unavoidable and the strategy concedes exactly one."""
    if g.n < 3 or {*map(len, g._adj)} != {2} or not g.connected():
        raise InputError("circuit_strategy expects a cycle of length >= 3")
    order = _cycle_order(g)
    k = g.n
    all_neg = all(s < 0 for _, _, s in g.edges)
    if k == 5 and all_neg:
        idxs = [0, 2]
    elif k == 5:
        # some stretch of three consecutive edges has positive sign
        # product; inform its four vertices from both ends first
        start = None
        for j in range(5):
            prod = 1
            for d in range(3):
                prod *= g.sign_of(order[(j + d) % 5], order[(j + d + 1) % 5])
            if prod > 0:
                start = j
                break
        assert start is not None
        order = [order[(start + d) % 5] for d in range(5)]
        idxs = [0, 3]
    else:
        r = k % 3
        t = k // 3
        if r == 0:
            idxs = [2 * i for i in range(t)]
        elif r == 1:
            idxs = [2 * i for i in range(t)] + [2 * t]
        else:
            idxs = [0, 4] + [2 * i for i in range(3, t + 1)]
    return run(g, Strategy(MODE_ID, tuple(Placement(order[j], Label.A) for j in idxs)))


@_policy(lambda g: float(max(0, g.n - 2 - g.max_degree())))
def max_degree_first(g: SignedGraph) -> Trace:
    """Place on a maximum-degree vertex first, then sweep the remaining
    Zero vertices in id order. Guarantees at most
    max(0, n - 2 - max_degree) confused vertices."""
    if not g.connected():
        raise InputError("max_degree_first expects a connected graph")

    smallest_zero = _first_zero(range(g.n))

    def pick(labels, heard, i):
        if i == 0:
            degrees = list(map(len, g._adj))
            return degrees.index(max(degrees))  # the first of maximum degree
        return smallest_zero(labels)

    return _drive(g, pick)


@_policy(lambda g: float(g.n) if g.max_degree() < 3 else (1.0 - 2.0 / g.max_degree()) * g.n)
def rescue_priority(g: SignedGraph) -> Trace:
    """Each step, place on a Zero vertex about to hear both values;
    failing that, one about to hear a single value; failing that, the
    smallest Zero vertex. Guarantees at most (1 - 2/max_degree) * n
    confused vertices when max_degree >= 3.

    The vertices about to hear anything are those the last round's
    frontier reaches, which the run computed as heard: each is picked
    from at most once, so the picks cost O(n) over the whole run."""
    if not g.connected():
        raise InputError("rescue_priority expects a connected graph")
    smallest_zero = _first_zero(range(g.n))

    def pick(labels, heard, i):
        both = [w for w, bits in heard.items() if bits == _CONFUSED]
        if both:
            return min(both)
        return min(heard) if heard else smallest_zero(labels)

    return _drive(g, pick)


@_policy(lambda g: max(0.0, g.n / 2.0 - 2.0))
def balanced_partition_first(g: SignedGraph) -> Trace:
    """On a balanced graph: saturate the larger side of the sign
    partition first (within it, only frontier placements), then cross
    over. Guarantees at most n/2 - 2 confused vertices for n >= 4.

    A Zero vertex next to a transmitter is one the last round's frontier
    reaches, a key of heard: each vertex is one at most once, so the
    frontier picks cost O(n) over the whole run."""
    if not g.connected():
        raise InputError("balanced_partition_first expects a connected graph")
    if g.n < 4:
        raise InputError("balanced_partition_first expects n >= 4")
    part = is_balanced(g)
    if part is None:
        raise InputError("balanced_partition_first expects a balanced graph")
    side_a, side_b = set(part.u1), set(part.u2)
    if len(side_a) < len(side_b):
        side_a, side_b = side_b, side_a
    order_a = sorted(side_a)
    first = next((v for v in order_a if any(w in side_b for w in g.neighbors(v))), order_a[0])
    first_zero_a, smallest_zero = _first_zero(order_a), _first_zero(range(g.n))

    def pick(labels, heard, i):
        if i == 0:
            return first
        near = [w for w in heard if w in side_a]
        if near:
            return min(near)
        v = first_zero_a(labels)
        return smallest_zero(labels) if v is None else v

    return _drive(g, pick)


def policy_bound(name: str, g: SignedGraph) -> float:
    """The confusion guarantee the named policy carries on g."""
    if name not in _BOUNDS:
        raise InputError(f"unknown policy {name!r}")
    return _BOUNDS[name](g)
