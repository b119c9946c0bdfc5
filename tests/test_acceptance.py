"""Acceptance gate: ten criteria, one test and one printed verdict each.

Each test prints a single [PASS]/[FAIL] line on the real stdout so the
verdicts survive pytest's capture in piped output. Two criteria are
known-red and stay that way on purpose: the target frustration value is
wrong at the smallest matched-bipartite instance (the true value there
is 2, not 3, which also breaks the strict ratio growth), and the two
conjectured ceilings are violated outright at small orders. The checks
state the targets literally and report the honest result.
"""

import itertools
import json
import time

import numpy as np
import pytest

from signedspread.engine import MODE_ID, MODE_RID, run
from signedspread.families import (
    gen_cycle,
    gen_gn,
    gen_gst,
    gen_ktt_tau,
    gen_path,
    gen_random_tree,
)
from signedspread.graph import (
    SignedGraph,
    frustration_index,
    is_balanced,
    min_deletion_balancing,
    negate_signature,
    switch,
)
from signedspread.solver import (
    Budget,
    brute_oracle,
    exact_confusion,
    exact_relaxed_confusion,
    min_steps,
    relaxed_via_class,
)
from signedspread.strategies import balanced_partition_first, rescue_priority
from signedspread.verify import burning_number_brute, explore_conjecture


def _verdict(cap, num, title, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    tail = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    line = f"[{status}] criterion {num}: {title}{tail}"
    with cap.disabled():  # keep the verdict visible under fd capture
        print("\n" + line, flush=True)
    assert not failures, line + " :: " + "; ".join(failures[:6])


def _check(failures, ok, note):
    if not ok:
        failures.append(note)


def _all_positive(g):
    return SignedGraph.from_edge_list(g.n, [(u, v, 1) for u, v, _ in g.edges])


def _random_balanced(seed, n, edge_prob=0.6):
    rng = np.random.default_rng(seed)
    colors = rng.integers(0, 2, size=n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v, 1 if colors[u] == colors[v] else -1))
    g = SignedGraph.from_edge_list(n, edges)
    if not g.connected():
        return _random_balanced(seed + 4000, n, edge_prob)
    return g


def test_criterion_1_strict_values_on_named_families(capfd):
    t0 = time.perf_counter()
    failures = []
    for seed in range(21, 26):
        tree = gen_random_tree(seed, 5 + seed % 5)
        got = exact_confusion(tree).optimum
        _check(failures, got == 0, f"tree seed {seed}: {got} != 0")
    for k in range(3, 9):
        for mask in itertools.product((1, -1), repeat=k):
            got = exact_confusion(gen_cycle(k, list(mask))).optimum
            want = 1 if (k == 5 and all(s < 0 for s in mask)) else 0
            _check(failures, got == want, f"circuit k={k} {mask}: {got} != {want}")
    for n in (6, 8, 10):
        g = gen_gn(n)
        got = exact_confusion(g).optimum
        _check(failures, got == n // 2 - 2, f"gn({n}): {got} != {n // 2 - 2}")
        for variant, vg in (("negated", negate_signature(g)), ("all-positive", _all_positive(g))):
            got = exact_confusion(vg).optimum
            _check(failures, got == 0, f"gn({n}) {variant}: {got} != 0")
    for t in (3, 4, 5):
        got = exact_confusion(gen_ktt_tau(t)).optimum
        _check(failures, got == t - 2, f"ktt({t}): {got} != {t - 2}")
    for s, want in ((4, 3), (5, 5)):
        got = exact_confusion(gen_gst(s, 3)).optimum
        _check(failures, got == want, f"gst({s},3): {got} != {want}")
    got = exact_confusion(gen_gst(6, 3), Budget(max_n=18)).optimum
    _check(failures, got == 5, f"gst(6,3): {got} != 5")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed <= 120.0, f"took {elapsed:.1f}s > 120s")
    _verdict(capfd, 1, "strict optimum matches every published family value", failures, elapsed)


def test_criterion_2_relaxed_values_on_named_families(capfd):
    t0 = time.perf_counter()
    failures = []
    for i in range(10):
        g = _random_balanced(500 + i, 5 + i % 6)
        got = exact_relaxed_confusion(g).optimum
        _check(failures, got == 0, f"balanced seed {500 + i}: {got} != 0")
        got = exact_relaxed_confusion(negate_signature(g)).optimum
        _check(failures, got == 0, f"antibalanced seed {500 + i}: {got} != 0")
    for t in (3, 4):
        got = exact_relaxed_confusion(gen_ktt_tau(t)).optimum
        _check(failures, got == t - 2, f"ktt({t}) relaxed: {got} != {t - 2}")
    for s, want in ((4, 3), (5, 5), (6, 5)):
        got = exact_relaxed_confusion(gen_gst(s, 3), Budget(max_n=18)).optimum
        _check(failures, got == want, f"gst({s},3) relaxed: {got} != {want}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed <= 120.0, f"took {elapsed:.1f}s > 120s")
    _verdict(capfd, 2, "relaxed optimum equals the strict value on the same families", failures, elapsed)


def test_criterion_3_exact_solver_matches_brute_oracle(corpus50, capfd):
    failures = []
    for idx, g in enumerate(corpus50):
        strict = exact_confusion(g)
        _check(
            failures,
            strict.optimal and strict.optimum == brute_oracle(g, MODE_ID),
            f"graph {idx} strict mismatch",
        )
        relaxed = exact_relaxed_confusion(g)
        _check(
            failures,
            relaxed.optimal and relaxed.optimum == brute_oracle(g, MODE_RID),
            f"graph {idx} relaxed mismatch",
        )
    _verdict(capfd, 3, "branch solver equals the unpruned oracle on 50 random graphs", failures)


def test_criterion_4_class_minimum_equals_direct_relaxed(corpus25, capfd):
    failures = []
    for idx, g in enumerate(corpus25):
        via = relaxed_via_class(g)
        direct = exact_relaxed_confusion(g)
        _check(
            failures,
            via.optimal and via.optimum == direct.optimum,
            f"graph {idx}: via-class {via.optimum} != direct {direct.optimum}",
        )
        replay = run(g, via.witness)
        _check(
            failures,
            replay.complete and replay.confused_count() == via.optimum,
            f"graph {idx}: translated witness does not replay",
        )
    _verdict(capfd, 4, "switching-class minimum agrees with the direct relaxed solve", failures)


def test_criterion_5_negation_invariance_and_mirrored_witnesses(corpus25, capfd):
    from signedspread.engine import mirror_trace

    failures = []
    for idx, g in enumerate(corpus25):
        rep = exact_relaxed_confusion(g)
        neg = negate_signature(g)
        rep_neg = exact_relaxed_confusion(neg)
        _check(
            failures,
            rep.optimum == rep_neg.optimum,
            f"graph {idx}: {rep.optimum} != negated {rep_neg.optimum}",
        )
        mirrored = mirror_trace(run(g, rep.witness))
        _check(failures, mirrored.graph == neg, f"graph {idx}: mirror lands off-graph")
        replay = run(neg, mirrored.strategy)
        _check(
            failures,
            replay == mirrored and replay.confused_count() == rep.optimum,
            f"graph {idx}: mirrored witness does not replay to {rep.optimum}",
        )
    _verdict(capfd, 5, "relaxed optimum is negation-invariant with mirrored witnesses", failures)


def test_criterion_6_switching_invariance(corpus25, capfd):
    failures = []
    rng = np.random.default_rng(97)
    for idx, g in enumerate(corpus25):
        base = exact_relaxed_confusion(g).optimum
        for _ in range(5):
            picks = frozenset(int(v) for v in range(g.n) if rng.random() < 0.5)
            got = exact_relaxed_confusion(switch(g, picks)).optimum
            _check(
                failures,
                got == base,
                f"graph {idx} switched at {sorted(picks)}: {got} != {base}",
            )
    _verdict(capfd, 6, "relaxed optimum is invariant under vertex switching", failures)


def test_criterion_7_degree_rescue_and_balance_bounds(corpus_bounds, capfd):
    failures = []
    for idx, g in enumerate(corpus_bounds):
        n, d = g.n, g.max_degree()
        got = exact_confusion(g).optimum
        if d >= n - 2:
            _check(failures, got == 0, f"graph {idx}: degree {d} >= n-2 but value {got}")
        else:
            _check(
                failures, got <= n - 2 - d, f"graph {idx}: {got} > n-2-degree = {n - 2 - d}"
            )
        if n >= 5 and d >= 3:
            trace = rescue_priority(g)
            cap = (1 - 2 / d) * n
            _check(
                failures,
                trace.complete and trace.confused_count() <= cap,
                f"graph {idx}: rescue trace {trace.confused_count()} > {cap:.2f}",
            )
    for i in range(10):
        g = _random_balanced(700 + i, 6 + i % 5)
        got = exact_confusion(g).optimum
        _check(failures, got <= g.n / 2 - 2, f"balanced seed {700 + i}: {got} > n/2-2")
        trace = balanced_partition_first(g)
        _check(
            failures,
            trace.complete and trace.confused_count() <= g.n / 2 - 2,
            f"balanced seed {700 + i}: policy trace exceeds n/2-2",
        )
    _verdict(capfd, 7, "degree, rescue-policy, and balance ceilings all hold", failures)


def test_criterion_8_frustration_targets(corpus25, capfd):
    failures = []
    for t in (3, 4, 5):
        ell, witness = frustration_index(gen_ktt_tau(t))
        _check(failures, ell == t, f"ktt({t}): frustration {ell} != {t}")
        _check(failures, len(witness) == ell, f"ktt({t}): witness size {len(witness)}")
    for idx, g in enumerate(corpus25):
        if g.m > 14:
            continue
        ell, _ = frustration_index(g)
        oracle, _ = min_deletion_balancing(g)
        _check(failures, ell == oracle, f"graph {idx}: scan {ell} != deletion {oracle}")
    for i in range(10):
        base = _all_positive(_random_balanced(900 + i, 4 + i % 5))
        u, v, _ = base.edges[0]
        flipped = SignedGraph.from_edge_list(
            base.n, [(a, b, -1 if (a, b) == (u, v) else 1) for a, b, _ in base.edges]
        )
        ell, _ = frustration_index(flipped)
        _check(failures, ell <= 1, f"one-negative seed {900 + i}: frustration {ell} > 1")
        got = exact_relaxed_confusion(flipped).optimum
        _check(failures, got == 0, f"one-negative seed {900 + i}: relaxed value {got} != 0")
    ratios = []
    for t in (3, 4, 5, 6):
        ell, _ = frustration_index(gen_ktt_tau(t))
        ratios.append((t - 2) / ell)
    _check(
        failures,
        all(a < b for a, b in zip(ratios, ratios[1:])),
        f"ratio sequence {ratios} is not strictly increasing",
    )
    _verdict(capfd, 8, "frustration equals the matched-family target with growing ratios", failures)


def test_criterion_9_step_minimum_tracks_burning_number(capfd):
    failures = []
    cap = Budget(max_n=16)
    for n in range(4, 17):
        for name, g in (("path", gen_path(n)), ("cycle", gen_cycle(n))):
            rep = min_steps(g, MODE_ID, cap)
            b = burning_number_brute(g)
            _check(
                failures,
                rep.optimal and b - 1 <= rep.steps <= b,
                f"{name}({n}): steps {rep.steps} outside [{b - 1}, {b}]",
            )
    _verdict(capfd, 9, "fewest completion steps sit within one of the burning number", failures)


def test_criterion_10_conjectured_ceilings_hold_on_corpus(capfd):
    failures = []
    for which in ("conj1", "conj2"):
        rep = explore_conjecture(which)
        _check(failures, not rep.skipped, f"{which}: {len(rep.skipped)} instances skipped")
        if rep.violations:
            failures.append(
                f"{which}: {len(rep.violations)} violations over {rep.checked} instances"
            )
            for v in rep.violations[:3]:
                # captured, so pytest replays the witnesses on the failure
                print(
                    f"  {which} witness {v.label}: value {v.observed} > bound {v.bound}\n"
                    f"  repro graph: {json.dumps(v.graph)}"
                )
    _verdict(capfd, 10, "conjectured ceilings survive the family and random corpus", failures)
