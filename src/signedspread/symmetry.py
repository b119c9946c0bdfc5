"""Signed automorphisms of a graph, found from the graph alone.

A signed automorphism is a vertex permutation that maps every edge onto
an edge of the same sign. The spreading process commutes with these
permutations, which lets the exact search treat every state of an orbit
as one state.

The group is found by individualization-refinement (McKay & Piperno,
*Practical graph isomorphism II*, 2014):

- colour refinement splits vertex cells by the neighbours of each cell
  a vertex has across positive and across negative edges, until the
  ordered partition is equitable;
- a base b_0, b_1, ... is picked by individualizing the first vertex of
  the first non-singleton cell until the partition is discrete;
- for each base level, deepest first, every vertex x in b_i's cell that
  the automorphisms found so far do not already reach is tried: x is
  individualized in place of b_i and the search goes down to a discrete
  partition, backtracking over the cells below, until the leaf's vertex
  map is an automorphism or the cell is exhausted;
- the reached vertices give one automorphism per coset of the next
  stabilizer (a transversal), and the group is the product of the
  transversals.

Every element is certified edge by edge before it is returned: each
candidate leaf, and then every element of the composed group. The
certificate reads a signed adjacency table of n^2 int8 entries, the sign
of edge u-v at u * n + v and at v * n + u and 0 off the edges, built once
per detection; an element passes when the table holds each edge's own
sign at the image of its ends, one gather and one compare per image
edge. The table's n^2 bytes are paid only once a search has spent 2n
nodes, and that search already holds up to n^2/8 bytes of neighbour
masks.

The enumeration stops at _MAX_IMAGES // n elements and the search at
_MAX_REFINES refinement rounds or at the caller's deadline, which is
asked before each candidate leaf. Any stop only loses elements: any set
of automorphisms keys a memo soundly, a smaller one merges fewer states.
A round costs O(n + m) numpy work, and refinement stops without a round
once the partition is discrete, since a discrete partition is already
equitable. A round measured 11-14 us on gst(14,3) (m = 126) and
100-120 us on gn(200) (m = 10,000, 10,196 rounds, 1.5 s) on a 2-core
Xeon VM, so a run to the round cap on a dense graph of 200 vertices
takes seconds; only the deadline bounds it tighter.
"""

from __future__ import annotations

import numpy as np

from .graph import SignedGraph

# the enumeration stops at this many vertex images (elements times n),
# which bounds the orbit key's weight table and its work per node, and
# the arrays built while composing and certifying the group
_MAX_IMAGES = 1 << 16
_MAX_REFINES = 20_000


class _Refiner:
    """Colour refinement with the edge sign as an edge colour.

    A colouring is an int array of cell indices 0..k-1. A round splits
    each cell by a hash of its vertices' neighbour multisets, summing a
    fixed random 64-bit word per (edge sign, neighbour cell); the parts
    keep their cell's place and are ordered by hash. Neither step reads
    a vertex id, so any automorphism that fixes the individualized
    vertices maps the refined partition of a path onto that of its image
    with the same cell indices. A hash collision only leaves a cell
    coarser, which costs search but never soundness: every leaf is
    certified.
    """

    def __init__(self, g: SignedGraph, expired):
        self._expired = expired
        e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 3)
        self.n = g.n
        self.src = np.concatenate((e[:, 0], e[:, 1]))
        self.dst = np.concatenate((e[:, 1], e[:, 0]))
        # the word of neighbour w in cell j is _words[side + j], side = n on a
        # negative edge and 0 on a positive one
        self._side = np.where(np.concatenate((e[:, 2], e[:, 2])) < 0, g.n, 0)
        self._words = np.random.default_rng(0).integers(
            0, np.iinfo(np.uint64).max, size=(2, g.n), dtype=np.uint64, endpoint=True
        ).ravel()
        self._eu, self._ev = e[:, 0], e[:, 1]
        self._es = e[:, 2].astype(np.int8)
        # the sign of edge u-v at u * n + v and at v * n + u, 0 off the edges
        self._signs = np.zeros(g.n * g.n, dtype=np.int8)
        self._signs[self._eu * g.n + self._ev] = self._es
        self._signs[self._ev * g.n + self._eu] = self._es
        self.rounds = 0

    def spent(self) -> bool:
        """Past _MAX_REFINES rounds or past the caller's deadline."""
        return self.rounds > _MAX_REFINES or self._expired()

    def refine(self, col: np.ndarray) -> np.ndarray:
        """The coarsest equitable partition that refines col (up to hash
        collisions)."""
        k = int(col.max()) + 1
        while k < self.n:  # a discrete partition is already equitable
            self.rounds += 1
            h = np.zeros(self.n, dtype=np.uint64)
            np.add.at(h, self.src, self._words[self._side + col[self.dst]])
            order = np.lexsort((h, col))
            c, hs = col[order], h[order]
            new = np.empty(self.n, dtype=np.int64)
            new[order[0]] = 0  # a new part starts wherever (col, h) changes
            new[order[1:]] = parts = ((c[1:] != c[:-1]) | (hs[1:] != hs[:-1])).cumsum()
            cells = int(parts[-1]) + 1
            if cells == k:
                break
            col, k = new, cells
        return col

    def individualize(self, col: np.ndarray, v: int) -> np.ndarray:
        """Refine col after splitting v off its cell, into a cell just
        after it."""
        split = col + (col > col[v])
        split[v] += 1
        return self.refine(split)

    def preserves(self, perms: np.ndarray) -> np.ndarray:
        """Per row P: does v -> P[v] map every edge onto one of the same sign?"""
        rows = max(1, _MAX_IMAGES // len(self._es))  # rows per chunk
        return np.concatenate([self._preserves(perms[i:i + rows])
                               for i in range(0, len(perms), rows)])

    def _preserves(self, perms: np.ndarray) -> np.ndarray:
        images = perms[:, self._eu] * self.n + perms[:, self._ev]
        return (self._signs[images] == self._es).all(axis=1)


def _target(col: np.ndarray) -> int:
    """Index of the first non-singleton cell, or -1 for a discrete col."""
    big = np.flatnonzero(np.bincount(col) > 1)
    return int(big[0]) if len(big) else -1


def _close_orbit(orbit: dict, gens: list):
    """Extend orbit (point -> automorphism taking the base point there)
    to every point the generators reach."""
    queue = list(orbit)
    while queue:
        y = queue.pop()
        u = orbit[y]
        for gen in gens:
            z = int(gen[y])
            if z not in orbit:
                orbit[z] = gen[u]
                queue.append(z)


class _Base:
    """The base path: the partitions cols[0..k] after individualizing
    b_0, ..., b_{k-1} in turn; cols[k] is discrete."""

    def __init__(self, ref: _Refiner):
        self.ref = ref
        self.cols = [ref.refine(np.zeros(ref.n, dtype=np.int64))]
        self.points = []
        while (cell := _target(self.cols[-1])) >= 0:
            self.points.append(int(np.flatnonzero(self.cols[-1] == cell)[0]))
            self.cols.append(ref.individualize(self.cols[-1], self.points[-1]))
        self._shapes = [np.bincount(c) for c in self.cols]

    def fits(self, col: np.ndarray, level: int) -> bool:
        # an automorphism keeps every cell's size at every level
        return np.array_equal(np.bincount(col), self._shapes[level])

    def leaf(self, col: np.ndarray, level: int) -> np.ndarray | None:
        """An automorphism that maps the base path to one through col, a
        partition at level that fits it, or None if there is none."""
        if level == len(self.points):
            perm = np.argsort(col)[self.cols[-1]]
            return perm if self.ref.preserves(perm[None])[0] else None
        for y in np.flatnonzero(col == _target(self.cols[level])):
            if self.ref.spent():
                return None
            nxt = self.ref.individualize(col, int(y))
            if self.fits(nxt, level + 1):
                found = self.leaf(nxt, level + 1)
                if found is not None:
                    return found
        return None


def automorphisms(g: SignedGraph, expired=lambda: False) -> np.ndarray | None:
    """Signed automorphisms of g as rows P mapping vertex v to P[v],
    the identity first; None when only the identity is found, and for a
    graph without edges.

    All of the group unless it has more than _MAX_IMAGES // n elements,
    the search runs past _MAX_REFINES rounds, or expired() turns true
    (it is asked before each candidate leaf); then a subset of it.
    """
    if g.m == 0:
        return None
    ref = _Refiner(g, expired)
    base = _Base(ref)
    identity = np.arange(g.n)
    gens = []
    transversals = []
    for i in reversed(range(len(base.points))):
        b, col_i = base.points[i], base.cols[i]
        orbit = {b: identity}
        _close_orbit(orbit, gens)
        for x in np.flatnonzero(col_i == col_i[b]):
            if int(x) in orbit or ref.spent():
                continue
            col = ref.individualize(col_i, int(x))
            found = base.leaf(col, i + 1) if base.fits(col, i + 1) else None
            if found is not None:
                gens.append(found)
                _close_orbit(orbit, gens)
        transversals.append(np.array(list(orbit.values())))
    group = identity[None]
    cap = _MAX_IMAGES // g.n
    for trans in transversals:  # deepest level first: group = T_i o group
        # trim before composing, so no product grows past the cap
        group = trans[:, group[: max(1, cap // len(trans))]].reshape(-1, g.n)[:cap]
    group = group[ref.preserves(group)]
    return group if len(group) > 1 else None
