"""Exact solvers and oracles for confusion numbers and step counts.

Every exact solver runs one threshold search over label states:
depth-first iterative deepening (Korf 1985) with a table of bounds
(Reinefeld and Marsland 1994). It branches on every Zero vertex (and
both placement values in relaxed mode, except the first placement,
which is pinned to A by the global negation symmetry), children in
lexicographic (vertex, value) order. A placement costs the confusion it
adds; min_steps passes its step bound, and then a placement costs one
step instead.

A state is one Python int, the bitsets of its A, -A and C vertices
packed as a | b << n | c << 2n (StepContext.expand), and that int, C
included, is its memo key.

_within(state, c) asks whether the state can complete at cost at most
c. It skips a child that costs more than c on its own and stops at the
first child that fits in what is left. The memo holds _need, a proven
lower bound on every completion of a key. A call that fails stores the
least total its children showed, which exceeds c (fail-soft), and the
root loop raises c straight to that bound until a call succeeds, so the
first c that fits is the optimum.

Keys are states up to symmetry. The process commutes with the graph's
signed automorphisms (vertex permutations that keep every edge and its
sign), and in relaxed mode with the global negation A <-> -A, so all
states of one orbit share their least cost. Once a search has charged 2n
nodes it finds the group from the graph (symmetry.automorphisms), rekeys
the entries it has on their orbits, and from then on keys a state by its
orbit representative, the lexicographically smallest image of the state
over the group (and its negated images in relaxed mode). Representatives
are found in numpy: a node's children are unpacked to int8 label rows in
one pass, and their representatives packed back to ints. A smaller
search, which never finds the group, never unpacks a state.

The witness is read off the round that fits. A call succeeds only when
every call above it does, since a child's success returns at once
through its ancestors, so a failed round has no success in it. In the
round that fits, each call on the success chain takes the first child
in lexicographic order that completes within what is left, and every
answer it reads is exact. Each such call records its move as it
returns, and those moves, root first, are the lexicographically
smallest optimal placement sequence: the one a search without orbit
keys or thresholds settles on. A solve whose budget runs out reports
the rescue_priority strategy instead, marked not optimal.

min_steps also prunes with _StepBound, a ball-counting bound (the
covering argument behind the burning number): a state it rules out at
threshold k gets _need k + 1 without costing a node. Confusion only
slows spreading, so it cuts only states that cannot complete in k
steps, and every answer, and so the witness, is the unpruned search's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from .engine import (
    _A,
    _CONFUSED,
    _NEG_A,
    _NEGATED,
    _ZERO,
    _check_mode,
    MODE_ID,
    MODE_RID,
    Label,
    Placement,
    StepContext,
    Strategy,
    strategy_to_json,
)
from .errors import BudgetExceeded, CapacityError, InputError
from .graph import SignedGraph, _size_cap, switch
from .strategies import rescue_priority
from .symmetry import automorphisms

EXACT_MAX_N = 15
CLASS_MAX_N = 12
ORACLE_MAX_N = 8

# base-4 digits per float64 word of an orbit key: 4**26 <= 2**52, so
# every packed word and every partial sum of one is exact
_DIGITS = 26


@dataclass(frozen=True)
class Budget:
    """Limits for the exhaustive solvers; None means unlimited."""

    nodes: int | None = None
    seconds: float | None = None
    max_n: int | None = None

    def __post_init__(self):
        if self.nodes is not None and self.nodes < 0:
            raise InputError(f"node budget must be nonnegative, got {self.nodes}")
        if self.seconds is not None and not self.seconds >= 0:  # also rejects NaN
            raise InputError(f"time budget must be nonnegative, got {self.seconds}")
        if self.max_n is not None:
            _size_cap(self.max_n)

    def cap(self, default: int) -> int:
        return default if self.max_n is None else self.max_n


@dataclass(frozen=True)
class SolveReport:
    """Result of a solve. The optimum is a confused count, or for
    min_steps a step count; the witness replays to it either way."""

    optimum: int
    witness: Strategy
    optimal: bool
    nodes: int
    millis: float

    @property
    def mode(self) -> str:
        return self.witness.mode

    @property
    def steps(self) -> int:
        return len(self.witness.placements)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "optimum": self.optimum,
            "witness": strategy_to_json(self.witness),
            "optimal": self.optimal,
            "nodes": self.nodes,
            "millis": self.millis,
            "mode": self.mode,
        }


class _Limits:
    def __init__(self, budget: Budget):
        self.nodes_used = 0
        self._max_nodes = budget.nodes
        self._deadline = (
            time.perf_counter() + budget.seconds if budget.seconds is not None else None
        )

    def expired(self) -> bool:
        return self._deadline is not None and time.perf_counter() > self._deadline

    def charge(self):
        if self._max_nodes is not None and self.nodes_used >= self._max_nodes:
            raise BudgetExceeded("node budget exhausted")
        if self.expired():
            raise BudgetExceeded("time budget exhausted")
        self.nodes_used += 1


class _OrbitKey:
    """Canonical representatives of label states under a set of signed
    automorphisms, and in rID also under the global negation A <-> -A.

    A state's representative is the lexicographically smallest labels[P]
    over the rows P (and over the negated copies in rID). Each row packs
    into base-4 float64 words of _DIGITS digits, earlier vertices more
    significant, so one matrix product packs every candidate of every
    child and the smallest word tuple is the smallest row. keys does the
    same for bitset states: it unpacks them to label rows with one
    unpackbits and packs the representatives back with one packbits.
    """

    def __init__(self, perms: np.ndarray, negate: bool):
        n_perms, n = perms.shape
        self._perms = perms
        self._negate = negate
        words = -(-n // _DIGITS)
        # labels[P][pos] = labels[u] with pos = inv[P, u]
        inv = np.argsort(perms, axis=1)
        weights = np.zeros((n, words, n_perms))
        weights[np.arange(n)[None, :], inv // _DIGITS, np.arange(n_perms)[:, None]] = (
            4.0 ** (_DIGITS - 1 - inv % _DIGITS)
        )
        self._weights = weights.reshape(n, words * n_perms)
        self._words = words
        self._n = n

    def keys(self, states: list) -> list:
        """The packed representative of each packed state."""
        n, width = self._n, -(-3 * self._n // 8)  # bytes of a packed state
        raw = np.frombuffer(b"".join(s.to_bytes(width, "little") for s in states), dtype=np.uint8)
        a, b, c = np.unpackbits(raw.reshape(-1, width), axis=1, count=3 * n,
                                bitorder="little").reshape(-1, 3, n).transpose(1, 0, 2)
        reps = self.representatives((a | c | (b | c) << 1).astype(np.int8))
        data = np.packbits(np.concatenate((reps == _A, reps == _NEG_A, reps == _CONFUSED), axis=1),
                           axis=1, bitorder="little").tobytes()
        return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]

    def representatives(self, states: np.ndarray) -> np.ndarray:
        """The representative of each row of states."""
        sides = np.stack((states, _NEGATED[states]) if self._negate else (states,))
        n_sides, k, n = sides.shape
        n_perms = self._perms.shape[0]
        packed = (sides.reshape(-1, n).astype(np.float64) @ self._weights).reshape(
            n_sides, k, self._words, n_perms
        )
        packed = packed.transpose(1, 2, 0, 3).reshape(k, self._words, n_sides * n_perms)
        best = packed[:, 0] == packed[:, 0].min(axis=1, keepdims=True)
        for w in range(1, self._words):
            word = np.where(best, packed[:, w], np.inf)
            best = word == word.min(axis=1, keepdims=True)
        side, row = np.divmod(best.argmax(axis=1), n_perms)
        return sides[side[:, None], np.arange(k)[:, None], self._perms[row]]


class _StepBound:
    """Ball-counting test that a state cannot complete in k more steps.

    The j-th of k placements informs at most the ball of radius
    k - j + 1 around it, and a current transmitter (A or -A) at most its
    ball of radius k: confused vertices only block spreading, so graph
    distance over-approximates reach. The Zero vertices farther than k
    from every transmitter must therefore fit in k new balls, at most
    cover[k] = sum of max_v |B(v, r)| over r = 1..k vertices.

    Balls are bitsets, built one radius at a time as a test first needs
    them: B(v, r) is the OR of B(u, r - 1) over v and its neighbours u.
    """

    def __init__(self, g: SignedGraph):
        self._n = g.n
        self._near = [(v,) + g.neighbors(v) for v in range(g.n)]
        self._balls = [[1 << v for v in range(g.n)]]  # _balls[r][v] = B(v, r)
        self._cover = [0]

    def _ball(self, k: int) -> list:
        """B(v, k) for every v, with cover[k]."""
        while len(self._balls) <= k:
            prev = self._balls[-1]
            balls = [reduce(or_, map(prev.__getitem__, near)) for near in self._near]
            self._balls.append(balls)
            self._cover.append(self._cover[-1] + max(map(int.bit_count, balls), default=0))
        return self._balls[k]

    def cuts(self, state: int, k: int) -> bool:
        n = self._n
        full = (1 << n) - 1
        zero = full ^ ((state | state >> n | state >> 2 * n) & full)
        if k == 0:  # no placement left: cut unless already complete
            return zero != 0
        balls = self._ball(k)
        if zero.bit_count() <= self._cover[k]:
            return False
        sends = (state | state >> n) & full
        while sends:
            low = sends & -sends
            zero &= ~balls[low.bit_length() - 1]
            sends ^= low
        return zero.bit_count() > self._cover[k]


@dataclass(eq=False)
class _Node:
    """An expanded state: its children in lexicographic order, their
    moves, what each placement costs, which children are complete, and
    their orbit representatives once some child needs them."""

    children: list
    moves: list
    costs: list
    done: list
    reps: list | None = None


class _Search:
    """Least cost to complete a label state, by threshold search.

    States are packed bitsets (StepContext.expand), and the root is the
    all-Zero state 0. A placement costs the confusion it adds, or one
    step when a step bound is given; expand gives each child's added
    confusion and completion. A memo key is a packed state: the state
    itself until the orbit key is known, its orbit representative after.
    A call under way when detection rekeys the memo still stores its own
    state; that is sound, as every key is a state of its orbit.
    """

    def __init__(self, ctx: StepContext, allow_neg: bool, limits: _Limits,
                 orbit_key: _OrbitKey | None = None, bound: _StepBound | None = None):
        self._ctx = ctx
        self._allow_neg = allow_neg
        self._limits = limits
        self._need = {}
        self._moves = []  # the success chain's moves, last placement first
        self._orbit_key = orbit_key
        self._bound = bound
        self._root = None  # the root's expansion, kept across thresholds
        self._n = ctx.graph.n
        # Ski rental: finding the group costs about as much as 2n nodes
        # (0.7 to 1.1 times the solve's first 2n nodes on the relabeled
        # gst(9..12,3) ladder, 1.0-2.1 ms, medians of 21 solves on a
        # 2-core Xeon VM), so it runs only once the search has spent
        # that many. A solve that ends sooner never pays for
        # it; one that goes on pays at most about twice what an oracle
        # choosing up front would.
        self._detect_at = None if orbit_key is not None else limits.nodes_used + 2 * ctx.graph.n

    def _expand(self, state: int, at_root: bool) -> _Node:
        if at_root and self._root is not None:
            return self._root
        children, moves, added, done = self._ctx.expand(state, self._allow_neg and not at_root)
        costs = added if self._bound is None else [1] * len(added)
        node = _Node(children, moves, costs, done)
        if at_root:
            self._root = node
        return node

    def _key(self, node: _Node, i: int) -> int:
        """The memo key of child i: the child, or once the orbit key is
        known, its orbit representative."""
        if self._orbit_key is None:
            return node.children[i]
        if node.reps is None:
            node.reps = self._orbit_key.keys(node.children)
        return node.reps[i]

    def _detect(self):
        """Find the group, and rekey every entry on its orbit: the states
        of one orbit share their least cost, so their bounds merge."""
        perms = automorphisms(self._ctx.graph, self._limits.expired)
        if perms is not None:
            self._orbit_key = _OrbitKey(perms, self._allow_neg)
            keys = list(self._need)
            merged = {}
            for key, rep in zip(keys, self._orbit_key.keys(keys)):
                merged[rep] = max(merged.get(rep, 0), self._need[key])
            self._need = merged

    def _within(self, state: int, key: int, c: int, at_root: bool = False) -> bool:
        """Whether state can complete at cost at most c. If so, the
        moves of a completion are on _moves, last placement first;
        if not, _need[key] > c."""
        if self._need.get(key, 0) > c:
            return False
        if self._bound is not None and self._bound.cuts(state, c):
            self._need[key] = c + 1
            return False
        self._limits.charge()
        if self._limits.nodes_used == self._detect_at:
            self._detect_at = None
            self._detect()
        node = self._expand(state, at_root)
        need = math.inf  # a searched state is incomplete, so it has children
        for i, cost in enumerate(node.costs):
            if cost > c:
                need = min(need, cost)
            elif node.done[i] or self._within(node.children[i], child := self._key(node, i),
                                              c - cost):
                self._moves.append(node.moves[i])
                return True
            else:  # the key the child's call stored under, even if it rekeyed
                need = min(need, cost + self._need[child])
        self._need[key] = need
        return False

    def optimum(self) -> int:
        """The least cost to complete the root, the all-Zero state 0:
        raise the threshold to the lower bound each failed round proved,
        until a round fits."""
        c = 0
        while self._n and not self._within(0, 0, c, at_root=True):
            c = self._need[0]
        return c

    def witness(self) -> list:
        """The lexicographically smallest optimal placements, read off
        the round of optimum() that fit."""
        return [Placement(vertex, Label(info)) for vertex, info in reversed(self._moves)]


def _report(t0: float, limits: _Limits, optimum: int, witness: Strategy,
            optimal: bool) -> SolveReport:
    millis = (time.perf_counter() - t0) * 1000.0
    return SolveReport(optimum, witness, optimal, limits.nodes_used, millis)


def _fallback(g: SignedGraph, mode: str, t0: float, limits: _Limits,
              count_steps: bool = False) -> SolveReport:
    """The report of a solve whose budget ran out: the rescue_priority
    strategy, not optimal, valued by its confused count or its steps."""
    trace = rescue_priority(g)
    optimum = trace.steps if count_steps else trace.confused_count()
    return _report(t0, limits, optimum, Strategy(mode, trace.strategy.placements), False)


def _branch_solve(g: SignedGraph, mode: str, budget: Budget,
                  count_steps: bool = False) -> SolveReport:
    t0 = time.perf_counter()
    limits = _Limits(budget)
    search = _Search(StepContext(g), mode == MODE_RID, limits,
                     bound=_StepBound(g) if count_steps else None)
    try:
        value = search.optimum()
        witness = Strategy(mode, search.witness())
    except BudgetExceeded:
        return _fallback(g, mode, t0, limits, count_steps)
    return _report(t0, limits, value, witness, True)


def _check_exact_pre(g: SignedGraph, budget: Budget, default_cap: int, op: str):
    cap = budget.cap(default_cap)
    if g.n > cap:
        raise CapacityError(f"{op} capped at n <= {cap}, got {g.n}")
    if not g.connected():
        raise InputError(f"{op} expects a connected graph")


def exact_confusion(g: SignedGraph, budget: Budget | None = None) -> SolveReport:
    """Minimum confused count over all complete ID strategies."""
    budget = budget or Budget()
    _check_exact_pre(g, budget, EXACT_MAX_N, "exact_confusion")
    return _branch_solve(g, MODE_ID, budget)


def exact_relaxed_confusion(g: SignedGraph, budget: Budget | None = None) -> SolveReport:
    """Minimum confused count over all complete rID strategies."""
    budget = budget or Budget()
    _check_exact_pre(g, budget, EXACT_MAX_N, "exact_relaxed_confusion")
    return _branch_solve(g, MODE_RID, budget)


def relaxed_via_class(g: SignedGraph, budget: Budget | None = None) -> SolveReport:
    """Relaxed optimum as the minimum ID optimum over the switching class.

    Scans the 2^(n-1) switchings with vertex 0 pinned, ascending by mask,
    keeping strict improvements. The witness is the minimizing
    switching's ID witness translated back to an rID strategy on g (the
    placement value flips exactly on placed vertices inside the switch
    set), so the replay invariant holds on g itself.
    """
    budget = budget or Budget()
    _check_exact_pre(g, budget, CLASS_MAX_N, "relaxed_via_class")
    t0 = time.perf_counter()
    limits = _Limits(budget)
    best, best_witness, exhausted = None, None, False
    try:
        for mask in range(1 << max(0, g.n - 1)):
            members = frozenset(v for v in range(1, g.n) if (mask >> (v - 1)) & 1)
            search = _Search(StepContext(switch(g, members)), False, limits)
            value = search.optimum()
            if best is None or value < best:
                placements = search.witness()
                best = value
                best_witness = Strategy(
                    MODE_RID,
                    tuple(
                        Placement(p.vertex, Label.NEG_A if p.vertex in members else Label.A)
                        for p in placements
                    ),
                )
                if best == 0:
                    break
    except BudgetExceeded:
        exhausted = True
    if best is None:
        return _fallback(g, MODE_RID, t0, limits)
    return _report(t0, limits, best, best_witness, not exhausted)


def min_steps(g: SignedGraph, mode: str = MODE_ID, budget: Budget | None = None) -> SolveReport:
    """Minimum number of steps over complete strategies (confusion is
    ignored): the threshold search with every placement costing one step.
    A state that the ball-counting bound rules out is answered without a
    node."""
    _check_mode(mode)
    budget = budget or Budget()
    _check_exact_pre(g, budget, EXACT_MAX_N, "min_steps")
    return _branch_solve(g, mode, budget, count_steps=True)


def brute_oracle(g: SignedGraph, mode: str = MODE_ID, max_n: int = ORACLE_MAX_N) -> int:
    """Exhaustive minimum confused count: every placement sequence, and
    in relaxed mode every value sequence, with no memo and no pruning."""
    _check_mode(mode)
    if g.n > _size_cap(max_n):
        raise CapacityError(f"brute_oracle capped at n <= {max_n}, got {g.n}")
    ctx = StepContext(g)
    infos = (_A, _NEG_A) if mode == MODE_RID else (_A,)

    def rec(labels):
        zeros = np.flatnonzero(labels == _ZERO).tolist()
        if not zeros:
            return int((labels == _CONFUSED).sum())
        return min(rec(ctx.step(labels, v, info)) for v in zeros for info in infos)

    return rec(ctx.zeros_state())
