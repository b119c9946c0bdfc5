"""Seeded inputs, job lists and output checks for the four workloads.

Every job is a closure over inputs built here. It calls the program
through attribute lookups on the `signedspread` package and its modules
at call time, so that the tracer in `tracer.py` sees the call when it is
installed. Checks run after a pass, outside the timed region, and
return None for a correct output or a one-line reason.

Seed 0 keeps each family's own vertex ids; any other seed relabels the
vertices of every graph with a seeded permutation and reseeds the
random generators. Optima, step minima, claim statuses and frustration
indices of the fixed families do not change under relabeling, so their
recorded references hold for every seed.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import signedspread as ss
from signedspread import cli, verify

# Budgets: every solve runs under a time limit; exhausting it is a failure.
SOLVE_SECONDS = 30.0
SMALL_SOLVE_SECONDS = 10.0
MAX_N = 200
PATH_LABELINGS = 3
PATH_LABELING_SEED = 2024

# Recorded at seed 0; invariant under relabeling unless marked seed-0 only.
# (mode, s) -> optimum of gst(s, 3).
LADDER_OPTIMA = {
    ("ID", 4): 3, ("ID", 8): 5, ("ID", 9): 6, ("ID", 10): 6, ("ID", 11): 8, ("ID", 12): 8,
    ("rID", 3): 1, ("rID", 8): 5, ("rID", 9): 6, ("rID", 10): 6,
}
# (mode, family, n) -> minimum step count.
MIN_STEPS = {
    ("ID", "path", 8): 2, ("ID", "path", 20): 4, ("ID", "path", 21): 4,
    ("ID", "path", 22): 4, ("ID", "path", 23): 4, ("ID", "path", 24): 4,
    ("rID", "cycle", 7): 2, ("rID", "cycle", 18): 4, ("rID", "cycle", 19): 4,
    ("rID", "cycle", 20): 4, ("rID", "cycle", 21): 4, ("rID", "cycle", 22): 4,
}
# Claims that fail by design (README: targets that are literally wrong).
FAILING_CLAIMS = {"conjecture_bound", "conjecture_relaxed_bound", "frustration_family"}
TINY_CLAIMS = ("c5_allneg", "frustration_family", "gn_balance")
# t -> frustration index of ktt_tau(t).
KTT_FRUSTRATION = {3: 2, 4: 4, 8: 8, 9: 9, 10: 10}
# Seed-0 only: the policies break ties by vertex id, so other seeds are
# checked by replay and against the policy ceiling. (policy, size) -> confused.
GREEDY_SEED0 = {
    ("rescue_priority", 500): 333, ("rescue_priority", 10): 8,
    ("circuit_strategy", 1500): 0, ("circuit_strategy", 30): 0,
    ("max_degree_first", 2000): 0, ("max_degree_first", 50): 0,
}
# Explorer violation totals, (conjecture, family_instances max_n) -> total.
FAMILY_VIOLATIONS = {("conj1", 8): 21, ("conj1", 12): 24, ("conj2", 8): 19, ("conj2", 12): 21}
# Seed-0 only: (conjecture, random count, random max_n) -> total.
RANDOM_VIOLATIONS_SEED0 = {("conj1", 20, 8): 11, ("conj1", 1000, 12): 300,
                           ("conj2", 20, 8): 11, ("conj2", 1000, 12): 300}


@dataclass
class Job:
    """One closed-loop request: `call` runs the program, `check` judges it."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    nodes: Callable[[object], int] | None = None


@dataclass
class Workload:
    name: str
    jobs: list
    # checks over a pass: (indices of the jobs they cover, check(results) -> reason)
    pass_checks: list = field(default_factory=list)


class Inputs:
    """Seeded relabelings and random seeds; same seed, same inputs."""

    def __init__(self, seed: int):
        self.seed = seed
        self.random_seed = 7 + seed  # 7 is the library's own explorer seed
        self._rng = np.random.default_rng(seed)

    def relabel(self, g):
        p = np.arange(g.n) if self.seed == 0 else self._rng.permutation(g.n)
        return relabeled(g, p), p


def relabeled(g, p):
    """g with vertex v renamed p[v]."""
    return ss.SignedGraph.from_edge_list(g.n, [(int(p[u]), int(p[v]), s) for u, v, s in g.edges])


# ---------------------------------------------------------------------------
# reference replay (sparse, plain Python; independent of the kernels)


def adjacency(g) -> list:
    adj = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        adj[u].append((v, s))
        adj[v].append((u, s))
    return adj


def replay(n: int, adj: list, placements) -> list:
    """Final labels (0 Zero, 1 A, 2 -A, 3 confused) after the placements.

    After a round, a vertex informed earlier has no Zero neighbour left,
    so only the vertex placed now and the vertices informed in the last
    round can be heard.
    """
    lab = [0] * n
    fresh = []
    for v, info in placements:
        if lab[v] != 0:
            raise ValueError(f"vertex {v} is not Zero")
        lab[v] = info
        heard = {}
        for x in fresh + [v]:
            val = 1 if lab[x] == 1 else -1
            for w, s in adj[x]:
                if lab[w] == 0:
                    heard[w] = heard.get(w, 0) | (1 if val * s > 0 else 2)
        fresh = []
        for w, h in heard.items():
            lab[w] = h
            if h != 3:
                fresh.append(w)
    return lab


def _placements(witness_json) -> list:
    return [(p["vertex"], 1 if p["info"] == "A" else 2) for p in witness_json]


def _replay_report(g, rep_json) -> str | None:
    """A report's witness must complete on g with its stated optimum."""
    lab = replay(g.n, adjacency(g), _placements(rep_json["witness"]))
    if 0 in lab:
        return "witness does not complete"
    if lab.count(3) != rep_json["optimum"]:
        return f"witness replays to {lab.count(3)}, report says {rep_json['optimum']}"
    return None


# ---------------------------------------------------------------------------
# ladder and min-steps: deep memoized search


def _solve_check(g, ref: int):
    def check(rep):
        if not rep.optimal:
            return "budget exhausted"
        if rep.optimum != ref:
            return f"optimum {rep.optimum} != reference {ref}"
        trace = ss.run(g, rep.witness)
        if not trace.complete or trace.confused_count() != rep.optimum:
            return "witness does not replay through engine.run"
        return None

    return check


def _minsteps_check(g, ref: int):
    def check(rep):
        if not rep.optimal:
            return "budget exhausted"
        if rep.steps != ref:
            return f"steps {rep.steps} != reference {ref}"
        trace = ss.run(g, rep.witness)
        if not trace.complete or trace.steps != rep.steps:
            return f"witness completes={trace.complete} in {trace.steps} steps"
        return None

    return check


def ladder(inp: Inputs, tiny: bool) -> Workload:
    id_sizes, rid_sizes = ((4,), (3,)) if tiny else (range(8, 13), range(8, 11))
    budget = ss.Budget(seconds=SOLVE_SECONDS, max_n=MAX_N)
    jobs = []
    for mode, sizes in (("ID", id_sizes), ("rID", rid_sizes)):
        for s in sizes:
            g, _ = inp.relabel(ss.gen_gst(s, 3))
            if mode == "ID":
                call = lambda g=g: ss.exact_confusion(g, budget)
            else:
                call = lambda g=g: ss.exact_relaxed_confusion(g, budget)
            jobs.append(Job(f"{mode} gst({s},3)", call,
                            _solve_check(g, LADDER_OPTIMA[(mode, s)]),
                            nodes=lambda rep: rep.nodes))
    return Workload("ladder", jobs)


def min_steps(inp: Inputs, tiny: bool) -> Workload:
    paths, cycles = ((8,), (7,)) if tiny else (range(20, 25), range(18, 23))
    budget = ss.Budget(seconds=SOLVE_SECONDS, max_n=MAX_N)
    jobs = []

    def add(g, mode, name, ref):
        call = lambda: ss.min_steps(g, mode, budget)
        jobs.append(Job(f"min_steps {mode} {name}", call, _minsteps_check(g, ref),
                        nodes=lambda rep: rep.nodes))

    # The vertex order moves min_steps' node count on a path by up to 3x,
    # enough to swamp the timings if the seed chose it. So every seed
    # solves each path under the same labelings: its own ids and fixed
    # permutations. The cycles, whose count barely moves, follow the seed.
    for n in paths:
        fixed = np.random.default_rng(PATH_LABELING_SEED + n)
        for copy in range(PATH_LABELINGS):
            p = np.arange(n) if copy == 0 else fixed.permutation(n)
            add(relabeled(ss.gen_path(n), p), "ID", f"path({n}) #{copy}",
                MIN_STEPS[("ID", "path", n)])
    for n in cycles:
        g, _ = inp.relabel(ss.gen_cycle(n))
        add(g, "rID", f"cycle({n})", MIN_STEPS[("rID", "cycle", n)])
    return Workload("min-steps", jobs)


# ---------------------------------------------------------------------------
# simulate: in-process CLI on large sparse graphs


def cli_call(argv: list, stdin_text: str) -> tuple:
    """cli.main with stdin and stdout held in memory; returns (code, out)."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), out
    try:
        code = cli.main(argv)
    finally:
        sys.stdin, sys.stdout = saved
    return code, out.getvalue()


def _simulate_check(g, placements):
    def check(res):
        code, out = res
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        want = [("0", "A", "-A", "C")[x] for x in replay(g.n, adjacency(g), placements)]
        if doc["snapshots"][-1] != want:
            return "final snapshot differs from the reference replay"
        if doc["complete"] is not True or doc["confused"] != []:
            return f"complete={doc['complete']} confused={len(doc['confused'])}"
        return None

    return check


def _greedy_check(g, policy: str, size: int, seed: int):
    def check(res):
        code, out = res
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        if doc["complete"] is not True:
            return "policy run did not complete"
        why = _replay_report(g, doc)
        if why:
            return why
        if doc["optimum"] > doc["bound"]:
            return f"confused {doc['optimum']} above the policy ceiling {doc['bound']}"
        if seed == 0 and doc["optimum"] != GREEDY_SEED0[(policy, size)]:
            return f"confused {doc['optimum']} != reference {GREEDY_SEED0[(policy, size)]}"
        return None

    return check


def simulate(inp: Inputs, tiny: bool) -> Workload:
    n_path, s_gst, n_cycle, n_tree = (31, 10, 30, 50) if tiny else (2002, 500, 1500, 2000)
    jobs = []
    g, p = inp.relabel(ss.gen_path(n_path))
    placements = [(int(p[v]), 1) for v in range(0, n_path, 3)]
    argv = ["simulate"]
    for v, _ in placements:
        argv += ["--place", f"{v}:A"]
    text = json.dumps(ss.graph_to_json(g))
    jobs.append(Job(f"simulate path({n_path})", lambda text=text: cli_call(argv, text),
                    _simulate_check(g, placements)))
    for policy, g0, size in (
        ("rescue_priority", ss.gen_gst(s_gst, 3), s_gst),
        ("circuit_strategy", ss.gen_cycle(n_cycle), n_cycle),
        ("max_degree_first", ss.gen_random_tree(inp.random_seed, n_tree), n_tree),
    ):
        g, _ = inp.relabel(g0)
        text = json.dumps(ss.graph_to_json(g))
        jobs.append(Job(f"solve --greedy {policy} n={g.n}",
                        lambda text=text, policy=policy: cli_call(["solve", "--greedy", policy], text),
                        _greedy_check(g, policy, size, inp.seed)))
    return Workload("simulate", jobs)


# ---------------------------------------------------------------------------
# corpus: many short jobs


def _explore_check(g):
    def check(rep):
        if rep.skipped or rep.checked != 1:
            return f"checked {rep.checked}, skipped {'; '.join(rep.skipped)}"
        for v in rep.violations:
            why = _replay_report(g, v.report)
            if why:
                return why
            if v.observed <= v.bound:
                return f"violation {v.observed} <= bound {v.bound}"
        return None

    return check


def _suite_check(claim_ids):
    def check(results):
        got = {r.claim_id: r.status for r in results}
        want = {cid: "fail" if cid in FAILING_CLAIMS else "pass" for cid in claim_ids}
        if got != want:
            bad = sorted(c for c in want if got.get(c) != want[c])
            return f"claim status differs from reference: {', '.join(bad)}"
        return None

    return check


def _switch_balanced(g, negatives) -> bool:
    """True when g switches to the signature whose negatives are `negatives`."""
    neg = {tuple(e) for e in negatives}
    side = [None] * g.n
    adj = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        target = -1 if (u, v) in neg else 1
        flip = 0 if s == target else 1
        adj[u].append((v, flip))
        adj[v].append((u, flip))
    for root in range(g.n):
        if side[root] is not None:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for w, flip in adj[x]:
                if side[w] is None:
                    side[w] = side[x] ^ flip
                    stack.append(w)
                elif side[w] != side[x] ^ flip:
                    return False
    return True


def _frustration_check(g, ref: int | None):
    def check(res):
        value, witness = res
        if value != len(witness):
            return f"value {value} != witness size {len(witness)}"
        if not _switch_balanced(g, witness):
            return "witness is not the negative set of a switching"
        if ref is not None and value != ref:
            return f"frustration {value} != reference {ref}"
        return None

    return check


def _violation_total_check(which: str, ref: int):
    def check(results):
        total = sum(len(r.violations) for r in results)
        return None if total == ref else f"{which}: {total} violations != reference {ref}"

    return check


def corpus(inp: Inputs, tiny: bool) -> Workload:
    fam_max, rnd_count, rnd_max = (8, 20, 8) if tiny else (12, 1000, 12)
    budget = ss.Budget(seconds=SMALL_SOLVE_SECONDS)
    parts = (("family", verify.family_instances(fam_max)),
             ("random", verify.random_instances(rnd_count, rnd_max, inp.random_seed)))
    jobs, pass_checks = [], []
    for which in ("conj1", "conj2"):
        for part, items in parts:
            first = len(jobs)
            for label, g0 in items:
                g, _ = inp.relabel(g0)
                call = lambda which=which, label=label, g=g: ss.explore_conjecture(
                    which, graphs=[(label, g)], budget=budget)
                jobs.append(Job(f"{which} {label}", call, _explore_check(g)))
            if part == "family":
                ref = FAMILY_VIOLATIONS[(which, fam_max)]
            elif inp.seed == 0:
                ref = RANDOM_VIOLATIONS_SEED0[(which, rnd_count, rnd_max)]
            else:
                continue
            pass_checks.append((range(first, len(jobs)), _violation_total_check(which, ref)))
    claim_ids = TINY_CLAIMS if tiny else None
    suite_budget = ss.Budget(seconds=SOLVE_SECONDS)
    jobs.append(Job("run_suite", lambda: ss.run_suite(suite_budget, claim_ids),
                    _suite_check(claim_ids or sorted(ss.CLAIMS))))
    ktts, ns = ((3, 4), (8, 9)) if tiny else ((8, 9, 10), (18, 19, 20))
    for t in ktts:
        g, _ = inp.relabel(ss.gen_ktt_tau(t))
        jobs.append(Job(f"frustration ktt({t})", lambda g=g: ss.frustration_index(g),
                        _frustration_check(g, KTT_FRUSTRATION[t])))
    for n in ns:
        g, _ = inp.relabel(ss.gen_random_connected(1000 * inp.random_seed + n, n))
        jobs.append(Job(f"frustration random({n})", lambda g=g: ss.frustration_index(g),
                        _frustration_check(g, None)))
    return Workload("corpus", jobs, pass_checks)


BUILDERS = {"ladder": ladder, "min-steps": min_steps, "simulate": simulate, "corpus": corpus}


def build(name: str, seed: int, tiny: bool) -> Workload:
    return BUILDERS[name](Inputs(seed), tiny)
