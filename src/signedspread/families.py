"""Parameterized graph families and seeded random generators.

Vertex numbering is stable: the twin-clique family uses 0..k-1 for the
first clique and k..2k-1 for the second with partners i and k+i; the
layered family maps layer i, slot j to vertex i*t + j. Random
generators use numpy's PCG64 so seeds are portable across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import JSON_MAX_N, SignedGraph


def _check_size(n: int, m: int) -> None:
    """Refuse a graph of more than JSON_MAX_N vertices or edges before
    its edge list is built; m counts every edge the generator builds,
    or every pair it samples."""
    for count, what in ((n, "vertices"), (m, "edges")):
        if count > JSON_MAX_N:
            raise InputError(f"{count} {what} exceed the graph limit of {JSON_MAX_N}")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def gen_gn(n: int) -> SignedGraph:
    """Two all-positive cliques of size n/2 joined by a negative
    perfect matching (vertex i paired with vertex n/2 + i)."""
    if n < 6 or n % 2 != 0:
        raise InputError("gen_gn needs an even order n >= 6")
    k = n // 2
    _check_size(n, k * k)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j, 1))
            edges.append((k + i, k + j, 1))
        edges.append((i, k + i, -1))
    return SignedGraph.from_edge_list(n, edges)


def gen_ktt_tau(t: int, negated: bool = False) -> SignedGraph:
    """Complete bipartite K_{t,t} (sides 0..t-1 and t..2t-1) whose
    negative edges form the perfect matching (i, t+i); negated flips
    every sign."""
    if t < 3:
        raise InputError("gen_ktt_tau needs t >= 3")
    _check_size(2 * t, t * t)
    edges = []
    for i in range(t):
        for j in range(t):
            sign = -1 if i == j else 1
            if negated:
                sign = -sign
            edges.append((i, t + j, sign))
    return SignedGraph.from_edge_list(2 * t, edges)


def gen_gst(s: int, t: int, layer_signs=None) -> SignedGraph:
    """Ring of s layers of t vertices; consecutive layers (indices mod
    s) are joined completely. Flag i True gives the pair (U_i, U_{i+1})
    a negative perfect matching with all other pair edges positive;
    False gives the negated signature on that pair."""
    if s < 3 or t < 3:
        raise InputError("gen_gst needs s >= 3 and t >= 3")
    if layer_signs is None:
        flags = (True,) * s
    else:
        flags = tuple(bool(x) for x in layer_signs)
        if len(flags) != s:
            raise InputError(f"layer_signs must have length s={s}")
    _check_size(s * t, s * t * t)
    edges = []
    for i in range(s):
        nxt = (i + 1) % s
        for j in range(t):
            for j2 in range(t):
                sign = -1 if j == j2 else 1
                if not flags[i]:
                    sign = -sign
                edges.append((i * t + j, nxt * t + j2, sign))
    return SignedGraph.from_edge_list(s * t, edges)


def check_gst_member(g: SignedGraph, s: int, t: int) -> bool:
    """True iff g is a member of the layered ring family for (s, t)
    under the canonical vertex numbering: consecutive layers complete,
    no other edges, and within each layer pair either the negative or
    the positive edges form a perfect matching."""
    if s < 3 or t < 3 or g.n != s * t or g.m != s * t * t:
        return False
    layers = [range(i * t, (i + 1) * t) for i in range(s)]
    for layer, nxt in zip(layers, layers[1:] + layers[:1]):
        if not all(g.has_edge(u, v) for u in layer for v in nxt):
            return False
        neg = [[g.sign_of(u, v) < 0 for v in nxt] for u in layer]
        # row and column sums of the negative-edge indicator: all 1 for
        # a negative matching, all t - 1 for a positive one
        sums = {*map(sum, neg), *map(sum, zip(*neg))}
        if sums != {1} and sums != {t - 1}:
            return False
    return True


def _sign_vector(signs, m: int) -> list[int]:
    if signs is None:
        return [1] * m
    out = [int(x) for x in signs]
    if len(out) != m:
        raise InputError(f"expected {m} signs, got {len(out)}")
    if any(x not in (-1, 1) for x in out):
        raise InputError("signs must be +1 or -1")
    return out


def gen_cycle(k: int, signs=None) -> SignedGraph:
    """Cycle 0-1-...-k-1-0; signs[i] is the sign of edge (i, i+1 mod k),
    defaulting to all positive."""
    if k < 3:
        raise InputError("gen_cycle needs k >= 3")
    _check_size(k, k)
    ss = _sign_vector(signs, k)
    edges = [(i, (i + 1) % k, ss[i]) for i in range(k)]
    return SignedGraph.from_edge_list(k, edges)


def gen_path(n: int, signs=None) -> SignedGraph:
    """Path 0-1-...-n-1 with n-1 signs, defaulting to all positive."""
    if n < 1:
        raise InputError("gen_path needs n >= 1")
    _check_size(n, n - 1)
    ss = _sign_vector(signs, n - 1)
    edges = [(i, i + 1, ss[i]) for i in range(n - 1)]
    return SignedGraph.from_edge_list(n, edges)


def gen_random_tree(seed: int, n: int, neg_prob: float = 0.5) -> SignedGraph:
    """Random recursive tree: vertex v >= 1 attaches to a uniform
    earlier vertex; each edge is negative with probability neg_prob."""
    if n < 1:
        raise InputError("gen_random_tree needs n >= 1")
    if not 0.0 <= neg_prob <= 1.0:
        raise InputError("neg_prob must lie in [0, 1]")
    _check_size(n, n - 1)
    rng = _rng(seed)
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        sign = -1 if rng.random() < neg_prob else 1
        edges.append((u, v, sign))
    return SignedGraph.from_edge_list(n, edges)


def gen_random_connected(
    seed: int,
    n: int,
    edge_prob: float = 0.5,
    neg_prob: float = 0.5,
    max_tries: int = 200,
) -> SignedGraph:
    """G(n, p) with random signs, resampled until connected (same rng
    stream, so the result is still a pure function of the seed)."""
    if n < 1:
        raise InputError("gen_random_connected needs n >= 1")
    for name, p in (("edge_prob", edge_prob), ("neg_prob", neg_prob)):
        if not 0.0 <= p <= 1.0:
            raise InputError(f"{name} must lie in [0, 1]")
    _check_size(n, n * (n - 1) // 2)
    rng = _rng(seed)
    for _ in range(max_tries):
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < edge_prob:
                    sign = -1 if rng.random() < neg_prob else 1
                    edges.append((u, v, sign))
        g = SignedGraph.from_edge_list(n, edges)
        if g.connected():
            return g
    raise InputError(
        f"no connected sample in {max_tries} tries (n={n}, edge_prob={edge_prob})"
    )


_GENERATORS = {
    "gn": gen_gn,
    "ktt_tau": gen_ktt_tau,
    "gst": gen_gst,
    "cycle": gen_cycle,
    "path": gen_path,
    "random_tree": gen_random_tree,
    "random_connected": gen_random_connected,
}

KINDS = tuple(sorted(_GENERATORS))


@dataclass(frozen=True)
class FamilySpec:
    """A buildable, hashable description of one family instance."""

    kind: str
    params: tuple

    @classmethod
    def make(cls, kind: str, **params) -> "FamilySpec":
        if kind not in _GENERATORS:
            raise InputError(f"unknown family kind {kind!r}; known: {', '.join(KINDS)}")
        frozen = tuple(
            (k, tuple(v) if isinstance(v, (list, tuple)) else v)
            for k, v in sorted(params.items())
        )
        return cls(kind, frozen)

    def as_dict(self) -> dict:
        return dict(self.params)

    def build(self) -> SignedGraph:
        try:
            return _GENERATORS[self.kind](**self.as_dict())
        except TypeError as exc:
            raise InputError(f"bad parameters for {self.kind}: {exc}") from exc

    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"
