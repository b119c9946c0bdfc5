"""Exact solvers and oracles for confusion numbers and step counts.

The branching solvers run a depth-first search over label states,
branching on every Zero vertex (and both placement values in relaxed
mode, except the first placement, which is pinned to A by the global
negation symmetry). Values are memoized on the packed label state alone:
the process is Markovian in the state, and the confused count is
derivable from it. Children are explored in lexicographic (vertex,
value) order; a child whose already-incurred confusion cannot beat the
best completed total at its state is skipped, and search under a state
stops once a zero-confusion completion is found. Both prunes keep the
memo exact, so the reported witness is the lexicographically smallest
optimal placement sequence. A solve whose budget runs out reports the
rescue_priority strategy instead, marked not optimal.

min_steps deepens the step budget one step at a time, memoized on
(state, steps left), and prunes with a ball-counting step bound (the
covering argument behind the burning number): with k steps left, the
Zero vertices farther than k from every transmitter must fit in the
balls of radii k, ..., 1 around the k new placements, so a state where
they outnumber the sum of the largest ball sizes is answered infeasible
before it costs a node. Confusion only slows spreading, so the bound
cuts only states that cannot complete in k steps: every answer, and so
the lexicographically smallest witness, is that of the unpruned search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .engine import (
    MODE_ID,
    MODE_RID,
    Label,
    Placement,
    StepContext,
    Strategy,
    run,
    strategy_to_json,
)
from .errors import BudgetExceeded, CapacityError, InputError
from .graph import SignedGraph, distance_table, switch
from .strategies import rescue_priority

EXACT_MAX_N = 15
CLASS_MAX_N = 12
ORACLE_MAX_N = 8

_CONFUSED = int(Label.CONFUSED)
_ZERO = int(Label.ZERO)
_A = int(Label.A)
_NEG_A = int(Label.NEG_A)


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
    mode: str

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

    def charge(self):
        if self._max_nodes is not None and self.nodes_used >= self._max_nodes:
            raise BudgetExceeded("node budget exhausted")
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise BudgetExceeded("time budget exhausted")
        self.nodes_used += 1


def _search(ctx: StepContext, root: np.ndarray, allow_neg: bool, limits: _Limits):
    """Fill a memo of exact future-confusion values and best moves."""
    memo = {}
    root_key = root.tobytes()

    def eval_state(labels, key, at_root):
        cached = memo.get(key)
        if cached is not None:
            return cached[0]
        if not (labels == _ZERO).any():
            memo[key] = (0, None)
            return 0
        limits.charge()
        cur_c = int((labels == _CONFUSED).sum())
        children, moves, ccounts = ctx.expand(labels, allow_neg and not at_root)
        best = None
        best_move = None
        for i in range(len(ccounts)):
            added = int(ccounts[i]) - cur_c
            if best is not None and added >= best:
                continue
            child = children[i]
            total = added + eval_state(child, child.tobytes(), False)
            if best is None or total < best:
                best = total
                best_move = (int(moves[i, 0]), int(moves[i, 1]))
                if best == 0:
                    break
        memo[key] = (best, best_move)
        return best

    try:
        eval_state(root, root_key, True)
    finally:
        del eval_state  # the closure refers to itself; free it with the memo
    return memo, root_key


def _extract_strategy(ctx: StepContext, memo: dict, root: np.ndarray, mode: str) -> Strategy:
    placements = []
    labels = root
    while True:
        _, move = memo[labels.tobytes()]
        if move is None:
            break
        placements.append(Placement(move[0], Label(move[1])))
        labels = ctx.step(labels, move[0], move[1])
    return Strategy(mode, tuple(placements))


def _report(t0: float, limits: _Limits, optimum: int, witness: Strategy,
            optimal: bool) -> SolveReport:
    millis = (time.perf_counter() - t0) * 1000.0
    return SolveReport(optimum, witness, optimal, limits.nodes_used, millis, witness.mode)


def _fallback(g: SignedGraph, mode: str, t0: float, limits: _Limits,
              count_steps: bool = False) -> SolveReport:
    """The report of a solve whose budget ran out: the rescue_priority
    strategy, not optimal, valued by its confused count or its steps."""
    witness = Strategy(mode, rescue_priority(g).placements)
    optimum = len(witness.placements) if count_steps else run(g, witness).confused_count()
    return _report(t0, limits, optimum, witness, False)


def _branch_solve(g: SignedGraph, mode: str, budget: Budget) -> SolveReport:
    t0 = time.perf_counter()
    ctx = StepContext(g)
    limits = _Limits(budget)
    root = ctx.zeros_state()
    try:
        memo, root_key = _search(ctx, root, mode == MODE_RID, limits)
    except BudgetExceeded:
        return _fallback(g, mode, t0, limits)
    value, _ = memo[root_key]
    return _report(t0, limits, value, _extract_strategy(ctx, memo, root, mode), True)


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
    best = None
    best_witness = None
    n_masks = 1 << max(0, g.n - 1)
    exhausted = False
    try:
        for mask in range(n_masks):
            members = frozenset(v for v in range(1, g.n) if (mask >> (v - 1)) & 1)
            sg = switch(g, members)
            ctx = StepContext(sg)
            memo, root_key = _search(ctx, ctx.zeros_state(), False, limits)
            value, _ = memo[root_key]
            if best is None or value < best:
                best = value
                id_witness = _extract_strategy(ctx, memo, ctx.zeros_state(), MODE_ID)
                best_witness = Strategy(
                    MODE_RID,
                    tuple(
                        Placement(p.vertex, Label.NEG_A if p.vertex in members else Label.A)
                        for p in id_witness.placements
                    ),
                )
                if best == 0:
                    break
    except BudgetExceeded:
        exhausted = True
    if best is None:
        return _fallback(g, MODE_RID, t0, limits)
    return _report(t0, limits, best, best_witness, not exhausted)


class _StepBound:
    """Ball-counting test that a state cannot complete in k more steps.

    The j-th of k placements informs at most the ball of radius
    k - j + 1 around it, and a current transmitter (A or -A) at most its
    ball of radius k: confused vertices only block spreading, so graph
    distance over-approximates reach. The Zero vertices farther than k
    from every transmitter must therefore fit in k new balls, at most
    cover[k] = sum of max_v |B(v, r)| over r = 1..k vertices.
    """

    def __init__(self, g: SignedGraph):
        n = g.n
        self._dist = distance_table(g)
        # hist[v, d]: vertices at distance d from v (d = n: unreachable)
        hist = np.bincount(
            (np.arange(n)[:, None] * (n + 1) + self._dist).ravel(), minlength=n * (n + 1)
        ).reshape(n, n + 1)
        max_ball = hist.cumsum(axis=1).max(axis=0, initial=0)
        self._cover = np.concatenate(([0], np.cumsum(max_ball[1:])))

    def cuts(self, labels: np.ndarray, k: int) -> bool:
        zero = labels == _ZERO
        if np.count_nonzero(zero) <= self._cover[k]:
            return False
        sends = (labels == _A) | (labels == _NEG_A)
        if sends.any():
            zero &= self._dist[sends].min(axis=0) > k
        return np.count_nonzero(zero) > self._cover[k]


def min_steps(g: SignedGraph, mode: str = MODE_ID, budget: Budget | None = None) -> SolveReport:
    """Minimum number of steps over complete strategies, by iterative
    deepening on the step budget (confusion is ignored). A state that
    the ball-counting bound rules out is answered without a node."""
    if mode not in (MODE_ID, MODE_RID):
        raise InputError(f"mode must be {MODE_ID!r} or {MODE_RID!r}")
    budget = budget or Budget()
    _check_exact_pre(g, budget, EXACT_MAX_N, "min_steps")
    t0 = time.perf_counter()
    ctx = StepContext(g)
    bound = _StepBound(g)
    limits = _Limits(budget)
    allow_neg = mode == MODE_RID
    memo = {}

    def feasible(labels, key, remaining, at_root):
        if not (labels == _ZERO).any():
            return True
        if remaining == 0:
            return False
        mk = (key, remaining)
        cached = memo.get(mk)
        if cached is not None:
            return cached
        if bound.cuts(labels, remaining):
            memo[mk] = False
            return False
        limits.charge()
        children, _, _ = ctx.expand(labels, allow_neg and not at_root)
        ans = False
        for i in range(children.shape[0]):
            child = children[i]
            if feasible(child, child.tobytes(), remaining - 1, False):
                ans = True
                break
        memo[mk] = ans
        return ans

    root = ctx.zeros_state()
    try:
        steps = next((t for t in range(1, g.n + 1) if feasible(root, root.tobytes(), t, True)), 0)
        # reconstruct the lexicographically smallest shortest witness
        placements = []
        labels = root
        for remaining in range(steps, 0, -1):
            children, moves, _ = ctx.expand(labels, allow_neg and labels is not root)
            for i in range(children.shape[0]):
                child = children[i]
                if feasible(child, child.tobytes(), remaining - 1, False):
                    placements.append(Placement(int(moves[i, 0]), Label(int(moves[i, 1]))))
                    labels = child
                    break
    except BudgetExceeded:
        return _fallback(g, mode, t0, limits, count_steps=True)
    finally:
        del feasible  # the closure refers to itself; free it with the memo
    return _report(t0, limits, steps, Strategy(mode, tuple(placements)), True)


def brute_oracle(g: SignedGraph, mode: str = MODE_ID, max_n: int = ORACLE_MAX_N) -> int:
    """Exhaustive minimum confused count: every placement sequence, and
    in relaxed mode every value sequence, with no memo and no pruning."""
    if mode not in (MODE_ID, MODE_RID):
        raise InputError(f"mode must be {MODE_ID!r} or {MODE_RID!r}")
    if g.n > max_n:
        raise CapacityError(f"brute_oracle capped at n <= {max_n}, got {g.n}")
    ctx = StepContext(g)
    allow_neg = mode == MODE_RID

    def rec(labels):
        children, _, _ = ctx.expand(labels, allow_neg)
        if children.shape[0] == 0:
            return int((labels == _CONFUSED).sum())
        return min(rec(children[i]) for i in range(children.shape[0]))

    return rec(ctx.zeros_state())
