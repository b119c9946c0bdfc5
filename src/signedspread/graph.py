"""Signed graphs: construction, switching, balance, frustration.

A signed graph is a simple undirected graph on vertices 0..n-1 whose
edges each carry a sign +1 or -1. Switching at a vertex set X flips the
sign of every edge with exactly one end in X; two signatures on the same
underlying graph are equivalent when one arises from the other this way.
A graph is balanced when its vertices split into two sides with positive
edges inside the sides and negative edges across, and antibalanced when
negating every sign makes it balanced.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice, repeat
from operator import add, index, itemgetter, lt, mul
from typing import Iterable, Optional

from . import _kernels
from .errors import CapacityError, InputError

SwitchSet = frozenset  # of vertex ids
CycleSet = frozenset  # of canonical vertex tuples

NEGATIVE_CYCLES_MAX_N = 10
FRUSTRATION_MAX_N = 20
# hard ceiling whatever max_n says: the switching scan's time doubles
# with each vertex, about 0.4 s at n = 28 (the _kernels timing table)
FRUSTRATION_SCAN_MAX_N = 28
# largest vertex count graph JSON may declare; the engine allocates O(n)
# arrays up front, so a huge declared n must fail before any allocation
JSON_MAX_N = 1_000_000
_EDGE_FIELDS = itemgetter("u", "v", "sign")
_SIGNS = frozenset((1, -1))


def _bulk_canonical(n: int, edges: list) -> Optional[list]:
    """edges itself, when it is already in the canonical order that
    graph_to_json writes: tuples (u, v, sign) of exact ints, every sign
    1 or -1, 0 <= u < v < n, and the pairs strictly increasing, so none
    twice. None otherwise. A few passes that run in C; any list that is
    not canonical is left to the loop in SignedGraph.from_edge_list."""
    if not edges:
        return edges
    if {*map(type, edges)} != {tuple} or {*map(len, edges)} != {3}:
        return None
    us, vs, signs = zip(*edges)
    if {*map(type, us), *map(type, vs), *map(type, signs)} != {int} or not _SIGNS.issuperset(signs):
        return None
    if not all(map(lt, us, vs)) or min(us) < 0 or (top := max(vs)) >= n:
        return None
    # 0 <= u < v <= top, so u * (top + 1) + v orders the pairs as tuples do
    keys = list(map(add, map(mul, us, repeat(top + 1)), vs))
    return edges if all(map(lt, keys, islice(keys, 1, None))) else None


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed graph; edges are (u, v, sign) with u < v, sorted."""

    n: int
    edges: tuple

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple]) -> "SignedGraph":
        """Validate and canonicalize an edge list into a SignedGraph.

        A list already in canonical order is taken as it is, once
        _bulk_canonical has checked it. Any other goes through the
        per-edge loop, the one canonicalizer and the only source of
        error messages, which names the first bad edge in input order."""
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        if type(edges) is not list:
            edges = list(edges)
        if _bulk_canonical(n, edges) is not None:
            return cls(n, tuple(edges))
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
        return cls(n, tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adj(self) -> tuple:
        adj = [[] for _ in range(self.n)]
        for u, v, s in self.edges:
            adj[u].append((v, s))
            adj[v].append((u, s))
        return tuple(map(tuple, adj))

    def _sign(self, u: int, v: int) -> int:
        """The sign of edge u-v from v's entry in the sorted row _adj[u];
        0 when there is no such edge, an end outside 0..n-1 included."""
        row = self._adj[u] if 0 <= u < self.n else ()
        i = bisect_left(row, (v,))
        return row[i][1] if i < len(row) and row[i][0] == v else 0

    def has_edge(self, u: int, v: int) -> bool:
        return self._sign(u, v) != 0

    def sign_of(self, u: int, v: int) -> int:
        if not (sign := self._sign(u, v)):
            raise InputError(f"no edge {min(u, v)}-{max(u, v)}")
        return sign

    def neighbors(self, v: int) -> tuple:
        return tuple(w for w, _ in self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0)

    def edge_pairs(self) -> tuple:
        return tuple((u, v) for u, v, _ in self.edges)

    def negative_edges(self) -> tuple:
        return tuple((u, v) for u, v, s in self.edges if s < 0)

    def connected(self) -> bool:
        if self.n <= 1:
            return True
        rows = self._adj
        seen = bytearray(self.n)
        seen[0] = 1
        count, stack = 1, [0]
        while stack:
            for w, _ in rows[stack.pop()]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
        return count == self.n


@dataclass(frozen=True)
class BalancePartition:
    """The two sides of a balance 2-coloring, each a sorted vertex tuple."""

    u1: tuple
    u2: tuple


def graph_to_json(g: SignedGraph) -> dict:
    """JSON-ready dict; edges listed with u < v in lexicographic order."""
    return {
        "schema": 1,
        "n": g.n,
        "edges": [{"u": u, "v": v, "sign": s} for u, v, s in g.edges],
    }


def graph_from_json(payload: dict) -> SignedGraph:
    """Parse the graph JSON format, rejecting duplicates and self-loops."""
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
    return SignedGraph.from_edge_list(n, _edge_triples(raw))


def _edge_triples(raw: list) -> list:
    """(u, v, sign) of each graph JSON edge entry, in one pass when all
    are objects with those fields; otherwise the loop raises InputError
    on the first entry that is not."""
    if {*map(type, raw)} <= {dict}:
        try:
            return list(map(_EDGE_FIELDS, raw))
        except KeyError:
            pass
    edges = []
    for item in raw:
        if not isinstance(item, dict):
            raise InputError(f"edge entry {item!r} must be an object")
        try:
            edges.append((item["u"], item["v"], item["sign"]))
        except KeyError:
            raise InputError(f"edge entry {item!r} needs 'u', 'v', 'sign'") from None
    return edges


def _integer(x) -> int:
    """x as a Python int, when it is a Python or numpy integer and not a
    bool; otherwise TypeError. The one integer rule of vertex ids."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool, not an integer")
    return index(x)


def _vertex(v, n: int, what: str) -> int:
    """v as a Python int, when it is an integer (_integer) in 0..n-1;
    otherwise InputError "{what} {v!r} out of range". The one vertex
    rule of switch, placements and StepContext.step."""
    try:
        if 0 <= (i := _integer(v)) < n:
            return i
    except TypeError:
        pass
    raise InputError(f"{what} {v!r} out of range")


def _size_cap(cap: int) -> int:
    """cap, the size cap of an exhaustive routine; InputError when it is
    negative. The one cap rule of Budget and the capped routines."""
    if cap < 0:
        raise InputError(f"size cap must be nonnegative, got {cap}")
    return cap


def switch(g: SignedGraph, members: Iterable[int]) -> SignedGraph:
    """Flip the sign of every edge with exactly one end in `members`."""
    x = frozenset([_vertex(v, g.n, "switch set member") for v in members])
    flipped = [
        (u, v, -s if ((u in x) != (v in x)) else s) for u, v, s in g.edges
    ]
    return SignedGraph(g.n, tuple(flipped))


def negate_signature(g: SignedGraph) -> SignedGraph:
    """Flip every edge sign."""
    return SignedGraph(g.n, tuple((u, v, -s) for u, v, s in g.edges))


def is_balanced(g: SignedGraph) -> Optional[BalancePartition]:
    """Balance partition via BFS 2-coloring, or None when unbalanced.

    A positive edge forces equal colors, a negative edge opposite colors.
    Each component's smallest vertex lands on side u1, so the edgeless
    graph yields (all vertices, empty).
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w, s in g._adj[u]:
                want = color[u] if s > 0 else 1 - color[u]
                if color[w] == -1:
                    color[w] = want
                    queue.append(w)
                elif color[w] != want:
                    return None
    u1 = tuple(v for v in range(g.n) if color[v] == 0)
    u2 = tuple(v for v in range(g.n) if color[v] == 1)
    return BalancePartition(u1, u2)


def is_antibalanced(g: SignedGraph) -> Optional[BalancePartition]:
    """Balance partition of the negated signature, or None."""
    return is_balanced(negate_signature(g))


def equivalent(g1: SignedGraph, g2: SignedGraph) -> Optional[SwitchSet]:
    """Switch set carrying g1 onto g2, or None when inequivalent.

    Both graphs must share the underlying (unsigned) graph. The witness
    never contains the smallest vertex of any component, making it the
    canonical choice among the per-component complements.
    """
    if g1.n != g2.n or g1.edge_pairs() != g2.edge_pairs():
        raise InputError("graphs differ in vertices or underlying edges")
    product = SignedGraph(
        g1.n,
        tuple((u, v, s1 * s2) for (u, v, s1), (_, _, s2) in zip(g1.edges, g2.edges)),
    )
    part = is_balanced(product)
    if part is None:
        return None
    witness = frozenset(part.u2)
    assert switch(g1, witness) == g2
    return witness


def negative_cycles(g: SignedGraph, max_n: int = NEGATIVE_CYCLES_MAX_N) -> CycleSet:
    """All negative simple circuits, each as its canonical vertex tuple.

    Canonical form: start at the circuit's smallest vertex and take the
    lexicographically smaller of the two traversal directions.
    """
    if g.n > _size_cap(max_n):
        raise CapacityError(f"negative_cycles capped at n <= {max_n}, got {g.n}")
    out = set()

    def extend(path, seen, sign):
        u = path[-1]
        s = path[0]
        for w, ws in g._adj[u]:
            if w == s and len(path) >= 3:
                if path[1] < path[-1] and sign * ws < 0:
                    out.add(tuple(path))
            elif w > s and w not in seen:
                seen.add(w)
                path.append(w)
                extend(path, seen, sign * ws)
                path.pop()
                seen.remove(w)

    for s in range(g.n):
        extend([s], {s}, 1)
    return frozenset(out)


def frustration_index(g: SignedGraph, max_n: int = FRUSTRATION_MAX_N):
    """Minimum negative-edge count over the switching class, with witness.

    Returns (value, witness) where witness is the negative edge set of a
    minimizing switching; ties pick the lexicographically smallest edge
    set. Equals the minimum number of edge deletions that balance g.
    Raises CapacityError past max_n, and always past
    FRUSTRATION_SCAN_MAX_N, before the scan starts, and
    InputError for a negative max_n.
    """
    cap = min(_size_cap(max_n), FRUSTRATION_SCAN_MAX_N)
    if g.n > cap:
        raise CapacityError(f"frustration_index capped at n <= {cap}, got {g.n}")
    if g.m == 0:
        return 0, frozenset()
    best, mask = _kernels.frustration_scan(g.n, g.edges)
    return best, frozenset(_kernels.negative_edges(g.edges, mask))


def realize_min_signature(g: SignedGraph, e_set: Iterable[tuple]) -> SignedGraph:
    """Equivalent signature whose negative edges all lie inside `e_set`.

    `e_set` must be a set of edges whose deletion balances g. When its
    size equals the frustration index, the negative edges of the result
    are exactly `e_set`.
    """
    try:
        pairs = [(_integer(u), _integer(v)) for u, v in e_set]
    except (TypeError, ValueError):
        raise InputError(f"edge set must hold (u, v) pairs of integers, got {e_set!r}") from None
    wanted = set()
    for u, v in pairs:
        if u > v:
            u, v = v, u
        if not g.has_edge(u, v):
            raise InputError(f"edge {u}-{v} not in graph")
        wanted.add((u, v))
    rest = tuple(e for e in g.edges if (e[0], e[1]) not in wanted)
    part = is_balanced(SignedGraph(g.n, rest))
    if part is None:
        raise InputError("deleting the given edges does not balance the graph")
    return switch(g, part.u2)


def min_deletion_balancing(g: SignedGraph, max_edges: int = 14):
    """Smallest edge set whose deletion balances g, by subset enumeration.

    Exponential in the edge count; intended as an independent cross-check
    for frustration_index on small graphs.
    """
    if g.m > _size_cap(max_edges):
        raise CapacityError(f"deletion enumeration capped at m <= {max_edges}")
    for k in range(g.m + 1):
        for combo in combinations(range(g.m), k):
            dropped = set(combo)
            rest = tuple(e for i, e in enumerate(g.edges) if i not in dropped)
            if is_balanced(SignedGraph(g.n, rest)) is not None:
                return k, frozenset((g.edges[i][0], g.edges[i][1]) for i in combo)
    raise AssertionError("deleting all edges always balances")
