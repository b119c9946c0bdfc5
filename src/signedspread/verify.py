"""Quantitative claim checks and the conjecture explorer.

Every closed-form value, bound, and equality the library is built
around is registered here as a claim that re-derives it at desk scale
with the exact solvers. Claims are pure and independent; run_suite
executes them one after another and reports them by claim id.

The two conjectured bounds are evaluated literally, ceiling included.
They fail on small instances of the very families whose exact values
are verified by the other claims (see the explorer's reports), so the
two conjecture claims are expected to come back red; they stay in the
registry because the explorer's contract is to report what holds, not
what is hoped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial

from .engine import MODE_ID, MODE_RID, mirror_trace, run
from .errors import BudgetExceeded, CapacityError, InputError
from .families import (
    FamilySpec,
    gen_cycle,
    gen_gn,
    gen_gst,
    gen_ktt_tau,
    gen_path,
    gen_random_connected,
    gen_random_tree,
)
from .graph import (
    FRUSTRATION_MAX_N,
    SignedGraph,
    _size_cap,
    frustration_index,
    graph_to_json,
    is_antibalanced,
    is_balanced,
    min_deletion_balancing,
    negate_signature,
    switch,
)
from .solver import (
    Budget,
    brute_oracle,
    exact_confusion,
    exact_relaxed_confusion,
    min_steps,
    relaxed_via_class,
)
from .strategies import (
    balanced_partition_first,
    circuit_strategy,
    max_degree_first,
    rescue_priority,
    tree_frontier,
)

import numpy.random as _nprandom


@dataclass
class ClaimResult:
    claim_id: str
    instance: str
    expected: str
    observed: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    repro: str = ""

    def to_json(self) -> dict:
        return {"schema": 1, **asdict(self)}


def _cap(budget: Budget, max_n: int) -> Budget:
    """budget with max_n as its size cap, unless the caller set one."""
    return replace(budget, max_n=budget.cap(max_n))


def _opt(report):
    """Optimum of a solve report, or a budget signal if it is partial."""
    if not report.optimal:
        raise BudgetExceeded("solver budget exhausted mid-claim")
    return report.optimum


def conjecture_ceiling(n: int) -> int:
    """ceil(3n/5 - 4) as exact integer arithmetic."""
    return -((20 - 3 * n) // 5)


# ---------------------------------------------------------------------------
# deterministic instance builders


def _all_sign(g: SignedGraph, sign: int) -> SignedGraph:
    return SignedGraph.from_edge_list(g.n, [(u, v, sign) for u, v, _ in g.edges])


def _drop_edge(g: SignedGraph, u: int, v: int) -> SignedGraph:
    edges = [(a, b, s) for a, b, s in g.edges if (a, b) != (min(u, v), max(u, v))]
    return SignedGraph.from_edge_list(g.n, edges)


def _random_balanced(seed: int, n: int, edge_prob: float = 0.6) -> SignedGraph:
    """Connected graph with signs induced by a random 2-coloring:
    within-part edges positive, cross edges negative (the all-positive
    sample switched at colour class 1). Balanced by construction."""
    base = gen_random_connected(seed, n, edge_prob, 0.0)
    colors = _nprandom.default_rng(seed + 90001).integers(0, 2, n)
    return switch(base, colors.nonzero()[0].tolist())


def _one_negative(seed: int, n: int) -> SignedGraph:
    """Connected all-positive graph with a single flipped edge, so the
    frustration index is at most 1."""
    base = gen_random_connected(seed, n, 0.5, 0.0)
    rng = _nprandom.default_rng(seed + 70001)
    idx = int(rng.integers(0, base.m))
    edges = [
        (u, v, -1 if i == idx else 1) for i, (u, v, _) in enumerate(base.edges)
    ]
    return SignedGraph.from_edge_list(n, edges)


def _corpus(count: int, seed0: int, n_lo: int, n_hi: int, min_maxdeg: int = 0):
    """Deterministic list of (label, graph) random connected instances."""
    out = []
    seed = seed0
    while len(out) < count:
        n = n_lo + (len(out) + seed - seed0) % (n_hi - n_lo + 1)
        spec = FamilySpec.make("random_connected", seed=seed, n=n)
        g = spec.build()
        seed += 1
        if g.max_degree() >= min_maxdeg:
            out.append((spec.label(), g))
    return out


def _aggregate(claim_id, instance, expected, checks, repro=""):
    """Fold (label, ok, note) triples into one ClaimResult."""
    fails = [(label, note) for label, ok, note in checks if not ok]
    notes = "; ".join(f"{label}: {note}" for label, note in fails[:4])
    if fails and len(fails) > 4:
        notes += f"; (+{len(fails) - 4} more)"
    return ClaimResult(
        claim_id=claim_id,
        instance=instance,
        expected=expected,
        observed="all hold" if not fails else f"{len(fails)}/{len(checks)} failed",
        status="pass" if not fails else "fail",
        detail=notes,
        repro=repro,
    )


# claim id -> claim(budget, **params) -> ClaimResult
CLAIMS = {}


def _claim(claim_id, instance, expected, repro):
    """Register the decorated body as claim_id. The body takes the
    budget and any keyword-only params and returns its (label, ok, note)
    checks; instance may name those params, as "t={t}" does, and is
    formatted from the body's defaults overridden by the caller's."""
    def register(body):
        def claim(budget, **params):
            checks = body(budget, **params)
            text = instance.format(**{**(body.__kwdefaults__ or {}), **params})
            return _aggregate(claim_id, text, expected, checks, repro)
        CLAIMS[claim_id] = claim
        return body
    return register


# ---------------------------------------------------------------------------
# checks: each returns one (label, ok, note) triple for _aggregate


def _value(label, got, want):
    return (label, got == want, f"got {got}, want {want}")


def _at_most(label, got, bound):
    # bounds like (1 - 2/d) * n are floats; the tolerance absorbs rounding
    return (label, got <= bound + 1e-9, f"{got} > {bound}")


def _policy(label, g, policy, bound, exact=False):
    """policy(g)'s run completes and confuses at most (or, with exact,
    exactly) bound vertices."""
    trace = policy(g)
    got = trace.confused_count()
    ok = got == bound if exact else got <= bound + 1e-9
    return (label, trace.complete and ok,
            f"policy confused {got}, bound {bound}, complete {trace.complete}")


# ---------------------------------------------------------------------------
# claims: exact family values


@_claim("gn_balance", "gn(n in [6, 8])",
        "matching signature balanced; negation antibalanced",
        "signedspread generate gn 6 | signedspread balance")
def _gn_balance(budget: Budget) -> list:
    checks = []
    for n in (6, 8):
        g = gen_gn(n)
        checks.append((f"gn(n={n}) balanced", is_balanced(g) is not None, "no partition"))
        anti = is_antibalanced(negate_signature(g)) is not None
        checks.append((f"gn(n={n}) negated antibalanced", anti, "no partition"))
    return checks


@_claim("gn_confusion", "gn(n in [6, 8, 10]) and all-negative twins",
        "confusion = n/2 - 2",
        "signedspread generate gn 6 | signedspread solve --exact")
def _gn_confusion(budget: Budget) -> list:
    checks = []
    for n in (6, 8, 10):
        want = n // 2 - 2
        checks.append(_value(f"gn(n={n})", _opt(exact_confusion(gen_gn(n), budget)), want))
        got_neg = _opt(exact_confusion(_all_sign(gen_gn(n), -1), budget))
        checks.append(_value(f"gn(n={n}) all-negative", got_neg, want))
    return checks


@_claim("gn_confusion_zero", "gn(n in [6, 8, 10]) negated and all-positive twins",
        "confusion = 0",
        "signedspread generate gn 6 | signedspread switch --negate | signedspread solve --exact")
def _gn_confusion_zero(budget: Budget) -> list:
    checks = []
    for n in (6, 8, 10):
        got = _opt(exact_confusion(negate_signature(gen_gn(n)), budget))
        checks.append(_value(f"gn(n={n}) negated", got, 0))
        got_pos = _opt(exact_confusion(_all_sign(gen_gn(n), 1), budget))
        checks.append(_value(f"gn(n={n}) all-positive", got_pos, 0))
    return checks


@_claim("balanced_bound", "8 random balanced (n in 4..10) + attainment instances",
        "balanced implies confusion <= n/2 - 2; equality at the twin-clique family",
        "signedspread generate gn 8 | signedspread solve --exact")
def _balanced_bound(budget: Budget) -> list:
    checks = []
    for i in range(8):
        n = 4 + i % 7  # 4..10
        g = _random_balanced(100 + i, n)
        bound = n / 2 - 2
        got = _opt(exact_confusion(g, budget))
        checks.append(_at_most(f"balanced seed={100 + i} n={n}", got, bound))
        checks.append(
            _policy(f"policy on seed={100 + i} n={n}", g, balanced_partition_first, bound)
        )
    for n in (6, 8):
        got = _opt(exact_confusion(gen_gn(n), budget))
        checks.append(_value(f"attained gn(n={n})", got, n // 2 - 2))
    got4 = _opt(exact_confusion(gen_cycle(4), budget))
    checks.append(_value("attained cycle(4) all-positive", got4, 0))
    return checks


@_claim("tree_zero", "5 random signed trees, n <= 10",
        "confusion = 0",
        "signedspread generate tree 9 --seed 200 | signedspread solve --exact")
def _tree_zero(budget: Budget) -> list:
    checks = []
    for i, n in enumerate((5, 7, 8, 9, 10)):
        g = gen_random_tree(200 + i, n)
        got = _opt(exact_confusion(g, budget))
        checks.append(_value(f"tree seed={200 + i} n={n}", got, 0))
        checks.append(
            _policy(f"frontier policy seed={200 + i}", g, tree_frontier, 0, exact=True)
        )
    return checks


@_claim("c5_allneg", "cycle(5) all-negative",
        "confusion = 1",
        "signedspread generate cycle 5 --all-negative | signedspread solve --exact")
def _c5_allneg(budget: Budget) -> list:
    g = gen_cycle(5, [-1] * 5)
    return [
        _value("exact", _opt(exact_confusion(g, budget)), 1),
        _value("oracle", brute_oracle(g, MODE_ID), 1),
        _policy("strategy concedes exactly one", g, circuit_strategy, 1, exact=True),
    ]


@_claim("circuit_values", "cycles k in [3, 4, 5, 6, 7, 8], every signature",
        "confusion = 0 except the all-negative 5-cycle (= 1); strategy matches",
        "signedspread generate cycle 7 | signedspread solve --exact")
def _circuit_values(budget: Budget) -> list:
    checks = []
    for k in range(3, 9):
        bad = []
        for mask in range(1 << k):
            signs = [-1 if (mask >> i) & 1 else 1 for i in range(k)]
            g = gen_cycle(k, signs)
            want = 1 if (k == 5 and all(s < 0 for s in signs)) else 0
            got = _opt(exact_confusion(g, budget))
            label, ok, note = _value(f"mask={mask} exact", got, want)
            if ok:
                label, ok, note = _policy(f"mask={mask}", g, circuit_strategy, want, exact=True)
            if not ok:
                bad.append(f"{label}: {note}")
        checks.append((f"cycle(k={k}), {1 << k} signatures", not bad, "; ".join(bad[:3])))
    return checks


@_claim("maxdeg_zero", "random-signed complete graphs and near-complete graphs, n in 5..7",
        "max degree >= n - 2 implies confusion = 0",
        "signedspread generate random 7 --seed 33 --edge-prob 1.0 | signedspread solve --exact")
def _maxdeg_zero(budget: Budget) -> list:
    checks = []
    for n, seed in ((5, 31), (6, 32), (7, 33)):
        got = _opt(exact_confusion(gen_random_connected(seed, n, edge_prob=1.0), budget))
        checks.append(_value(f"complete n={n}", got, 0))
    for n, seed in ((6, 41), (7, 42)):
        g = _drop_edge(gen_random_connected(seed, n, edge_prob=1.0), 0, 1)
        got = _opt(exact_confusion(g, budget))
        checks.append(_value(f"complete minus one edge n={n}", got, 0))
        checks.append(_policy(f"policy n={n}", g, max_degree_first, 0, exact=True))
    return checks


@_claim("maxdeg_bound",
        "10 random connected (3 <= maxdeg < n-2, n <= 10) + twin-clique attainment",
        "confusion <= n - 2 - maxdeg, tight on the twin-clique family",
        "signedspread generate random 8 --seed 300 | signedspread solve --exact")
def _maxdeg_bound(budget: Budget) -> list:
    checks = []
    picked = 0
    seed = 300
    while picked < 10 and seed < 360:
        n = 6 + (seed % 5)  # 6..10
        g = gen_random_connected(seed, n, 0.5, 0.5)
        seed += 1
        d = g.max_degree()
        if d < 3 or d >= n - 2:
            continue
        picked += 1
        bound = n - 2 - d
        got = _opt(exact_confusion(g, budget))
        checks.append(_at_most(f"seed={seed - 1} n={n} maxdeg={d}", got, bound))
        checks.append(_policy(f"policy seed={seed - 1}", g, max_degree_first, bound))
    for n in (6, 8, 10):
        g = gen_gn(n)
        got = _opt(exact_confusion(g, budget))
        checks.append(_value(f"attained gn(n={n})", got, n - 2 - g.max_degree()))
    return checks


@_claim("maxdeg_ratio", "8 random connected graphs, maxdeg >= 3, n <= 10",
        "confusion and rescue-policy trace <= (1 - 2/maxdeg) * n",
        "signedspread generate random 9 --seed 500 | signedspread solve --greedy rescue_priority")
def _maxdeg_ratio(budget: Budget) -> list:
    checks = []
    for label, g in _corpus(8, 500, 6, 10, min_maxdeg=3):
        bound = (1.0 - 2.0 / g.max_degree()) * g.n
        checks.append(_at_most(label, _opt(exact_confusion(g, budget)), bound))
        checks.append(_policy(f"rescue policy {label}", g, rescue_priority, bound))
    return checks


@_claim("gst_confusion", "layered ring family, s in (4,5,6), t={t}",
        "confusion = n/2-3 (s=4), 3n/5-4 (s=5), n/2-4 (s=6)",
        "signedspread generate gst 4 3 | signedspread solve --exact")
def _gst_confusion(budget: Budget, *, t=3) -> list:
    checks = []
    for s, want in ((4, 2 * t - 3), (5, 3 * t - 4), (6, 3 * t - 4)):
        got = _opt(exact_confusion(gen_gst(s, t), _cap(budget, s * t)))
        checks.append(_value(f"gst(s={s}, t={t})", got, want))
    for flags in ((True, False, True, True, False), (False, False, True, False, True)):
        got = _opt(exact_confusion(gen_gst(5, t, flags), _cap(budget, 5 * t)))
        checks.append(_value(f"gst(s=5, t={t}, flags={flags})", got, 3 * t - 4))
    return checks


@_claim("ktt_confusion", "matched bipartite family, t in [3, 4, 5]",
        "confusion = t - 2",
        "signedspread generate ktt 4 | signedspread solve --exact")
def _ktt_confusion(budget: Budget) -> list:
    return [
        _value(f"ktt(t={t})", _opt(exact_confusion(gen_ktt_tau(t), budget)), t - 2)
        for t in (3, 4, 5)
    ]


# ---------------------------------------------------------------------------
# claims: relaxed mode


@_claim("relaxed_switch_invariance", "6 random graphs x 5 random switchings, n <= 8",
        "relaxed confusion invariant under switching",
        "signedspread generate random 7 --seed 400 | signedspread solve --relaxed")
def _relaxed_switch_invariance(budget: Budget) -> list:
    checks = []
    for idx, (label, g) in enumerate(_corpus(6, 400, 5, 8)):
        base = _opt(exact_relaxed_confusion(g, budget))
        rng = _nprandom.default_rng(4000 + idx)
        check = (label, True, "")
        for _ in range(5):
            members = frozenset(int(v) for v in range(g.n) if rng.random() < 0.5)
            got = _opt(exact_relaxed_confusion(switch(g, members), budget))
            if got != base:
                check = _value(f"{label} switch {sorted(members)}", got, base)
                break
        checks.append(check)
    return checks


@_claim("relaxed_class_min", "6 random connected graphs, n <= 8",
        "relaxed optimum = min confusion over the switching class",
        "signedspread generate random 7 --seed 420 | signedspread solve --via-class")
def _relaxed_class_min(budget: Budget) -> list:
    checks = []
    for label, g in _corpus(6, 420, 5, 8):
        direct = _opt(exact_relaxed_confusion(g, budget))
        checks.append(_value(label, _opt(relaxed_via_class(g, budget)), direct))
    return checks


@_claim("relaxed_negation", "6 random connected graphs, n <= 8",
        "relaxed confusion equal under signature negation; mirrored witness replays",
        "signedspread generate random 7 --seed 440 | signedspread solve --relaxed")
def _relaxed_negation(budget: Budget) -> list:
    checks = []
    for label, g in _corpus(6, 440, 5, 8):
        rep = exact_relaxed_confusion(g, budget)
        a = _opt(rep)
        b = _opt(exact_relaxed_confusion(negate_signature(g), budget))
        if a != b:
            checks.append(_value(f"{label} negated", b, a))
            continue
        trace = run(g, rep.witness)
        mirrored = mirror_trace(trace)
        replay = run(negate_signature(g), mirrored.strategy)
        ok = (
            replay.complete
            and replay.confused() == trace.confused()
            and replay == mirrored
        )
        checks.append((label, ok, "mirror replay mismatch"))
    return checks


@_claim("relaxed_balanced_zero", "10 random balanced + 10 antibalanced graphs, n <= 10",
        "relaxed confusion = 0",
        "signedspread generate gn 8 | signedspread solve --relaxed")
def _relaxed_balanced_zero(budget: Budget) -> list:
    checks = []
    for i in range(10):
        n = 5 + (i % 6)  # 5..10
        g = _random_balanced(600 + i, n)
        got = _opt(exact_relaxed_confusion(g, budget))
        checks.append(_value(f"balanced seed={600 + i} n={n}", got, 0))
        got_a = _opt(exact_relaxed_confusion(negate_signature(g), budget))
        checks.append(_value(f"antibalanced seed={600 + i} n={n}", got_a, 0))
    return checks


@_claim("relaxed_transfer",
        "trees, all-negative cycles, one-negative-edge graphs, bounded-degree corpus",
        "relaxed confusion: 0 on trees/circuits/frustration<=1; degree bounds transfer",
        "signedspread generate cycle 5 --all-negative | signedspread solve --relaxed")
def _relaxed_transfer(budget: Budget) -> list:
    checks = []
    for seed, n in ((210, 6), (211, 8), (212, 10)):
        got = _opt(exact_relaxed_confusion(gen_random_tree(seed, n), budget))
        checks.append(_value(f"tree seed={seed} n={n}", got, 0))
    for k in (4, 5, 6):
        got = _opt(exact_relaxed_confusion(gen_cycle(k, [-1] * k), budget))
        checks.append(_value(f"all-negative cycle k={k}", got, 0))
    for seed, n in ((220, 6), (221, 7), (222, 8)):
        g = _one_negative(seed, n)
        ell, _ = frustration_index(g)
        checks.append(_at_most(f"frustration one-negative seed={seed} n={n}", ell, 1))
        got = _opt(exact_relaxed_confusion(g, budget))
        checks.append(_value(f"one-negative seed={seed} n={n}", got, 0))
    for label, g in _corpus(4, 460, 6, 9, min_maxdeg=3):
        d = g.max_degree()
        got = _opt(exact_relaxed_confusion(g, budget))
        checks.append(_at_most(label, got, min(max(0, g.n - 2 - d), (1.0 - 2.0 / d) * g.n)))
    for t in (3, 4):
        g = gen_ktt_tau(t)
        got = _opt(exact_relaxed_confusion(g, budget))
        want = g.n - 2 - g.max_degree()
        checks.append(_value(f"degree-gap attained ktt(t={t})", got, want))
    return checks


@_claim("relaxed_families", "matched bipartite t in (3,4); layered ring s in (4,5,6), t={t}",
        "relaxed values equal the strict ones on these families",
        "signedspread generate gst 4 3 | signedspread solve --relaxed")
def _relaxed_families(budget: Budget, *, t=3) -> list:
    checks = []
    for tt in (3, 4):
        got = _opt(exact_relaxed_confusion(gen_ktt_tau(tt), budget))
        checks.append(_value(f"ktt(t={tt})", got, tt - 2))
    for s, want in ((4, 2 * t - 3), (5, 3 * t - 4), (6, 3 * t - 4)):
        got = _opt(exact_relaxed_confusion(gen_gst(s, t), _cap(budget, s * t)))
        checks.append(_value(f"gst(s={s}, t={t}) relaxed", got, want))
    return checks


@_claim("frustration_family", "matched bipartite family, t in [3, 4, 5, 6]",
        "frustration = t; relaxed/frustration = (t-2)/t, strictly increasing",
        "signedspread generate ktt 4 | signedspread frustration")
def _frustration_family(budget: Budget) -> list:
    checks = []
    ratios = []
    ts = (3, 4, 5, 6)
    for t in ts:
        g = gen_ktt_tau(t)
        ell, _ = frustration_index(g)
        checks.append(_value(f"frustration ktt(t={t})", ell, t))
        relaxed = _opt(exact_relaxed_confusion(g, budget))
        checks.append((f"relaxed < frustration at t={t}", relaxed < ell, f"{relaxed} !< {ell}"))
        ratios.append(relaxed / ell)
    want = [(t - 2) / t for t in ts]
    close = all(abs(a - b) < 1e-12 for a, b in zip(ratios, want))
    checks.append(("ratio values", close, f"{ratios} != {want}"))
    rising = all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 1.0
    checks.append(("ratio strictly increases toward 1", rising, f"{ratios}"))
    oracle = min_deletion_balancing(gen_ktt_tau(3))
    checks.append(("deletion oracle ktt(t=3)", oracle[0] == 3, f"oracle {oracle[0]}"))
    return checks


# ---------------------------------------------------------------------------
# burning number


def burning_number_brute(g: SignedGraph, max_n: int = 18) -> int:
    """Exact burning number by searching center tuples with radii
    k-1, k-2, ..., 0 whose balls cover the vertex set. Requiring each
    center to enlarge the covered set is lossless: while uncovered
    vertices exist, centering on one adds it at any radius."""
    if g.n > _size_cap(max_n):
        raise CapacityError(f"burning_number_brute capped at n <= {max_n}, got {g.n}")
    if g.n == 0:
        return 0
    if not g.connected():
        raise InputError("burning_number_brute expects a connected graph")
    n = g.n
    full = (1 << n) - 1
    # balls[r][v]: the vertices within distance r of v, as a bitset
    balls = [[1 << v for v in range(n)]]

    def covers(k, i, covered):
        # center i of k burns with radius k - 1 - i
        if covered == full:
            return True
        if i == k:
            return False
        for ball in balls[k - 1 - i]:
            nb = covered | ball
            if nb != covered and covers(k, i + 1, nb):
                return True
        return False

    for k in range(1, n + 1):
        if covers(k, 0, 0):
            return k
        # B(v, k) joins B(v, k - 1) with B(u, k - 1) of each neighbour u
        prev = balls[-1]
        ball = list(prev)
        for u, v, _ in g.edges:
            ball[u] |= prev[v]
            ball[v] |= prev[u]
        balls.append(ball)
    return n


@_claim("burning_relation", "all-positive paths and cycles, n in 4..16",
        "minimum step count within {burning - 1, burning}",
        "signedspread generate path 9 | signedspread solve --min-steps")
def _burning_relation(budget: Budget) -> list:
    cap = _cap(budget, 16)
    solved = []  # (label, graph, min_steps report)
    for n in range(4, 17):
        for name, g in (("path", gen_path(n)), ("cycle", gen_cycle(n))):
            k = min_steps(g, MODE_ID, cap)
            if not k.optimal:
                raise BudgetExceeded("min_steps budget exhausted")
            solved.append((f"all-positive {name}(n={n})", g, k))
    for label, g in (("relaxed on balanced tree n=6", gen_random_tree(230, 6)),
                     ("relaxed on antibalanced cycle n=6", gen_cycle(6, [-1] * 6))):
        solved.append((label, g, min_steps(g, MODE_RID, cap)))
    checks = []
    for label, g, k in solved:
        b = burning_number_brute(g)
        checks.append(
            (label, k.optimal and b - 1 <= k.steps <= b, f"steps {k.steps} outside [{b - 1}, {b}]")
        )
    return checks


# ---------------------------------------------------------------------------
# conjecture explorer


@dataclass
class Violation:
    label: str
    n: int
    observed: int
    bound: int
    frustration: int | None
    graph: dict
    report: dict

    def to_json(self) -> dict:
        return {"schema": 1, **asdict(self)}


@dataclass
class ExploreReport:
    which: str
    checked: int = 0
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def to_json(self) -> dict:
        # "violations" keeps its place in the field order
        return {"schema": 1, **asdict(self),
                "violations": [v.to_json() for v in self.violations]}


# the corpus costs about max_n^3, and the exact solvers skip n > 15; the
# random instances are built before that skip, so they share the cap
FAMILY_MAX_N = 100


def family_instances(max_n: int = 12):
    """Every family instance of order at most max_n, labeled."""
    if max_n < 3:
        raise InputError(f"family instances need max_n >= 3, got {max_n}")
    if max_n > FAMILY_MAX_N:
        raise InputError(f"family instances need max_n <= {FAMILY_MAX_N}, got {max_n}")
    make = FamilySpec.make
    specs = [make("gn", n=n) for n in range(6, max_n + 1, 2)]
    for t in range(3, max_n // 2 + 1):
        specs += [make("ktt_tau", t=t), make("ktt_tau", t=t, negated=True)]
    specs += [make("gst", s=s, t=t) for s, t in ((3, 3), (3, 4), (4, 3)) if s * t <= max_n]
    if 9 <= max_n:
        specs.append(make("gst", s=3, t=3, layer_signs=(True, False, True)))
    for k in range(3, min(8, max_n) + 1):
        specs += [make("cycle", k=k), make("cycle", k=k, signs=(-1,) * k),
                  make("cycle", k=k, signs=(-1,) + (1,) * (k - 1))]
    for n in range(3, min(8, max_n) + 1):
        specs += [make("path", n=n), make("path", n=n, signs=(-1,) * (n - 1))]
    specs += [make("random_tree", seed=seed, n=n)
              for seed, n in ((11, 6), (12, 9), (13, 12)) if n <= max_n]
    return [(spec.label(), spec.build()) for spec in specs]


def random_instances(count: int = 100, max_n: int = 8, seed: int = 7):
    if max_n < 3:
        raise InputError(f"random instances need max_n >= 3, got {max_n}")
    if max_n > FAMILY_MAX_N:
        raise InputError(f"random instances need max_n <= {FAMILY_MAX_N}, got {max_n}")
    if count < 0:
        raise InputError(f"random instance count must be >= 0, got {count}")
    if seed < 0:
        raise InputError(f"random instance seed must be >= 0, got {seed}")
    # instance i has 3..max_n vertices, cycling
    specs = [FamilySpec.make("random_connected", seed=seed * 1000 + i, n=3 + i % (max_n - 2))
             for i in range(count)]
    return [(spec.label(), spec.build()) for spec in specs]


def explore_conjecture(
    which: str,
    graphs=None,
    budget: Budget | None = None,
    max_n: int = 12,
    random_count: int = 100,
    random_max_n: int = 8,
    seed: int = 7,
) -> ExploreReport:
    """Evaluate one conjectured bound literally over a corpus.

    which = "conj1": confusion <= ceil(3n/5 - 4).
    which = "conj2": relaxed confusion <= min(frustration, ceil(3n/5 - 4)).
    Violations carry the graph and solve report verbatim so they can be
    re-run standalone. conj2 computes the frustration index only when the
    solve is optimal and the relaxed optimum is positive or above the
    ceiling: an optimum of 0 meets min(frustration, ceiling) whenever the
    ceiling is nonnegative.
    """
    if which not in ("conj1", "conj2"):
        raise InputError("which must be 'conj1' or 'conj2'")
    budget = budget or Budget()
    if graphs is None:
        graphs = family_instances(max_n) + random_instances(random_count, random_max_n, seed)
    report = ExploreReport(which=which)
    for label, g in graphs:
        ell = None
        bound = conjecture_ceiling(g.n)
        try:
            solve = exact_confusion if which == "conj1" else exact_relaxed_confusion
            rep = solve(g, budget)
            if not rep.optimal:
                report.skipped.append(f"{label}: budget exhausted")
                continue
            # an optimum of 0 is at most min(ell, bound) for every ell
            # once bound >= 0: ell cannot decide a violation there
            if which == "conj2" and (rep.optimum > 0 or rep.optimum > bound):
                ell, _ = frustration_index(g, max_n=max(FRUSTRATION_MAX_N, g.n))
                bound = min(ell, bound)
        except CapacityError as exc:
            report.skipped.append(f"{label}: {exc}")
            continue
        report.checked += 1
        if rep.optimum > bound:
            report.violations.append(
                Violation(
                    label=label,
                    n=g.n,
                    observed=rep.optimum,
                    bound=bound,
                    frustration=ell,
                    graph=graph_to_json(g),
                    report=rep.to_json(),
                )
            )
    return report


def _claim_conjecture(which: str, claim_id: str, budget: Budget) -> ClaimResult:
    rep = explore_conjecture(which, budget=budget)
    instance = "all family instances n <= 12 + 100 random connected n <= 8"
    repro = f"signedspread explore-conjecture {which}"
    if rep.skipped and not rep.checked:
        return ClaimResult(claim_id, instance, "no violations", "-", "skipped",
                           detail="; ".join(rep.skipped[:3]), repro=repro)
    lead = "; ".join(
        f"{v.label}: value {v.observed} > bound {v.bound}" for v in rep.violations[:3]
    )
    if rep.violations and len(rep.violations) > 3:
        lead += f"; (+{len(rep.violations) - 3} more)"
    if rep.skipped:
        lead = (lead + "; " if lead else "") + f"{len(rep.skipped)} skipped"
    return ClaimResult(
        claim_id=claim_id,
        instance=instance,
        expected="0 violations",
        observed=f"{len(rep.violations)} violations over {rep.checked} instances",
        status="pass" if not rep.violations else "fail",
        detail=lead,
        repro=repro,
    )


# ---------------------------------------------------------------------------
# registry


# the conjecture claims report the explorer's counts, not _aggregate's
CLAIMS.update((claim_id, partial(_claim_conjecture, which, claim_id))
              for which, claim_id in (("conj1", "conjecture_bound"),
                                      ("conj2", "conjecture_relaxed_bound")))


def verify_claim(claim_id: str, params: dict | None = None, budget: Budget | None = None) -> ClaimResult:
    """Run one registered claim; params narrow its default scope."""
    if claim_id not in CLAIMS:
        raise InputError(f"unknown claim {claim_id!r}; known: {', '.join(sorted(CLAIMS))}")
    budget = budget or Budget()
    if budget.nodes == 0 or budget.seconds == 0:
        return ClaimResult(claim_id, "-", "-", "-", "skipped", detail="zero budget")
    try:
        return CLAIMS[claim_id](budget, **(params or {}))
    except TypeError as exc:
        raise InputError(f"bad params for claim {claim_id!r}: {exc}") from exc
    except BudgetExceeded as exc:
        return ClaimResult(claim_id, "-", "-", "-", "skipped", detail=str(exc))


def run_suite(budget: Budget | None = None, claim_ids=None) -> list[ClaimResult]:
    """Run registered claims, ordered by claim id."""
    if claim_ids is None:
        ids = sorted(CLAIMS)
    else:
        ids = sorted(set(claim_ids))
        for cid in ids:
            if cid not in CLAIMS:
                raise InputError(f"unknown claim {cid!r}")
    return [verify_claim(cid, None, budget) for cid in ids]
