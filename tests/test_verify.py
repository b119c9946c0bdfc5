import io
import json
import math
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from signedspread.errors import CapacityError, InputError
from signedspread.families import gen_cycle, gen_gst, gen_path
from signedspread.graph import SignedGraph, frustration_index, graph_from_json, graph_to_json
from signedspread.solver import Budget, exact_confusion, exact_relaxed_confusion
from signedspread import cli, verify
from signedspread.verify import (
    CLAIMS,
    burning_number_brute,
    conjecture_ceiling,
    explore_conjecture,
    family_instances,
    random_instances,
    run_suite,
    verify_claim,
)

SUITE_JSON = Path(__file__).parent / "data" / "suite.json"

# Claims that assert literal target values known to be off at the
# smallest instances; they are kept failing on purpose.
EXPECTED_RED = {"conjecture_bound", "conjecture_relaxed_bound", "frustration_family"}


def test_run_suite_statuses():
    results = run_suite()
    assert [r.claim_id for r in results] == sorted(CLAIMS)
    by_status = {r.claim_id: r.status for r in results}
    assert {cid for cid, s in by_status.items() if s == "fail"} == EXPECTED_RED
    assert all(s == "pass" for cid, s in by_status.items() if cid not in EXPECTED_RED)
    # every field, text included, is frozen: a refactor of the registry
    # must report each claim byte for byte as before
    assert [r.to_json() for r in results] == json.loads(SUITE_JSON.read_text())


def test_every_claim_repro_runs(monkeypatch, capsys):
    # each pipeline stage runs in process, fed the previous stage's stdout
    golden = json.loads(SUITE_JSON.read_text())
    assert [r["claim_id"] for r in golden] == sorted(CLAIMS)
    for result in golden:
        out = ""
        for stage in result["repro"].split(" | "):
            program, *argv = shlex.split(stage)
            assert program == "signedspread"
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            code = cli.main(argv)
            out, err = capsys.readouterr()
            if argv[0] == "explore-conjecture":
                assert code == 1 and "violation(s)" in out, (stage, err)
            else:
                assert code == 0, (stage, err)
                assert json.loads(out)["schema"] == 1, stage


def test_run_suite_zero_budget_skips_everything():
    results = run_suite(budget=Budget(nodes=0))
    assert len(results) == len(CLAIMS)
    assert all(r.status == "skipped" for r in results)


@pytest.mark.parametrize("claim_id", ["conjecture_bound", "conjecture_relaxed_bound"])
def test_conjecture_claim_with_every_instance_skipped(claim_id):
    # verify_claim answers a zero budget itself; the claim body, called
    # directly, sees every solve run out and reports the normal claim's
    # instance and repro
    normal = next(r for r in json.loads(SUITE_JSON.read_text()) if r["claim_id"] == claim_id)
    result = CLAIMS[claim_id](Budget(nodes=0))
    assert result.status == "skipped"
    assert (result.instance, result.repro) == (normal["instance"], normal["repro"])
    first = [label for label, _ in family_instances()[:3]]
    assert result.detail == "; ".join(f"{label}: budget exhausted" for label in first)


def test_run_suite_claim_filter():
    results = run_suite(claim_ids=["tree_zero"])
    assert len(results) == 1 and results[0].claim_id == "tree_zero"
    pair = run_suite(claim_ids=["tree_zero", "c5_allneg", "tree_zero"])
    assert [r.claim_id for r in pair] == ["c5_allneg", "tree_zero"]


def test_verify_claim_json_shape():
    res = verify_claim("c5_allneg")
    assert res.status == "pass"
    payload = res.to_json()
    assert payload["schema"] == 1
    assert payload["claim_id"] == "c5_allneg"
    assert set(payload) >= {"instance", "expected", "observed", "status"}


def test_balanced_bound_spans_its_stated_sizes(monkeypatch):
    seen = []
    aggregate = verify._aggregate

    def record(claim_id, instance, expected, checks, repro=""):
        seen.extend(label for label, _, _ in checks)
        return aggregate(claim_id, instance, expected, checks, repro)

    monkeypatch.setattr(verify, "_aggregate", record)
    res = verify_claim("balanced_bound")
    assert res.status == "pass" and "n in 4..10" in res.instance
    sizes = {int(label.rsplit("n=", 1)[1]) for label in seen if label.startswith("balanced ")}
    assert sizes == set(range(4, 11))


def test_verify_claim_unknown():
    with pytest.raises(InputError):
        verify_claim("perpetual_motion")
    with pytest.raises(InputError):
        verify_claim("tree_zero", params={"bogus_kw": 1})


@pytest.mark.parametrize("claim_id", ["gst_confusion", "relaxed_families"])
@pytest.mark.parametrize("t", [4, 20])
def test_layered_ring_claims_past_default_cap(claim_id, t):
    # gst(4,4) already has n = 16 > 15: each solve raises only max_n.
    # At t = 20 this is the paper's headline: 3t - 4 = 56 of the 100
    # actors of gst(5,20) are confused under every ID and every rID strategy.
    res = verify_claim(claim_id, {"t": t})
    assert res.status == "pass" and f"t={t}" in res.instance


def test_layered_ring_claims_keep_caller_node_limit():
    # gst(5,20) takes n + 1 = 101 nodes, past a 50-node budget
    assert verify_claim("gst_confusion", {"t": 20}, Budget(nodes=50)).status == "skipped"


@pytest.mark.parametrize("n", range(4, 11))
def test_burning_matches_sqrt_ceiling(n):
    want = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    assert burning_number_brute(gen_path(n)) == want
    assert burning_number_brute(gen_cycle(n)) == want


def test_burning_edge_cases():
    assert burning_number_brute(gen_path(1)) == 1
    ball = SignedGraph.from_edge_list(5, [(0, v, 1) for v in range(1, 5)])
    assert burning_number_brute(ball) == 2
    two_parts = SignedGraph.from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(InputError):
        burning_number_brute(two_parts)
    with pytest.raises(CapacityError):
        burning_number_brute(gen_path(19))
    assert burning_number_brute(gen_path(19), max_n=19) == 5


@pytest.mark.parametrize("n", range(0, 120))
def test_conjecture_ceiling_exact(n):
    assert conjecture_ceiling(n) == math.ceil(Fraction(3 * n, 5) - 4)


def test_explorer_violations_are_reproducible():
    rep = explore_conjecture("conj1", max_n=8, random_count=12, random_max_n=6)
    assert rep.which == "conj1" and rep.checked > 0
    assert rep.violations, "small orders sit above the conjectured ceiling"
    for v in rep.violations[:3]:
        g = graph_from_json(v.graph)
        assert g.n == v.n
        fresh = exact_confusion(g)
        assert fresh.optimal and fresh.optimum == v.observed
        assert v.observed > v.bound
        assert v.report["optimum"] == v.observed
        assert v.frustration is None


def test_explorer_conj2_uses_frustration():
    rep = explore_conjecture("conj2", max_n=6, random_count=8, random_max_n=5)
    assert rep.violations
    v = rep.violations[0]
    assert v.frustration is not None
    assert v.bound == min(v.frustration, conjecture_ceiling(v.n))
    fresh = exact_relaxed_confusion(graph_from_json(v.graph))
    assert fresh.optimum == v.observed
    payload = rep.to_json()
    assert payload["schema"] == 1
    assert payload["violations"][0]["label"] == v.label
    with pytest.raises(InputError):
        explore_conjecture("conj3")


def test_explorer_conj2_scans_frustration_only_where_it_can_bind(monkeypatch):
    graphs = family_instances(8) + random_instances(60, 8, 7)
    want, binding = [], 0
    for label, g in graphs:  # the eager reference: every instance scanned
        rep = exact_relaxed_confusion(g)
        ell, _ = frustration_index(g)
        ceiling = conjecture_ceiling(g.n)
        binding += rep.optimum > 0 or rep.optimum > ceiling
        if rep.optimum > min(ell, ceiling):
            want.append([label, g.n, rep.optimum, min(ell, ceiling), ell, graph_to_json(g),
                         {**rep.to_json(), "millis": None}])
    scanned = []
    monkeypatch.setattr(verify, "frustration_index",
                        lambda g, **kw: scanned.append(g) or frustration_index(g, **kw))
    rep = explore_conjecture("conj2", graphs)
    assert rep.checked == len(graphs) and not rep.skipped
    assert len(scanned) == binding < len(graphs)
    assert want and [[v.label, v.n, v.observed, v.bound, v.frustration, v.graph,
                      {**v.report, "millis": None}] for v in rep.violations] == want
    # a solve cut short by its budget is skipped before any scan, also
    # on a graph past the scan's n <= 28 ceiling
    scanned.clear()
    rep = explore_conjecture("conj2", graphs=[("gst(10,3)", gen_gst(10, 3))],
                             budget=Budget(nodes=5, max_n=40))
    assert not scanned and rep.checked == 0 and rep.skipped == ["gst(10,3): budget exhausted"]


def test_family_instances_bounded_and_distinct():
    pairs = family_instances(max_n=12)
    assert pairs and all(g.n <= 12 for _, g in pairs)
    labels = [label for label, _ in pairs]
    assert len(set(labels)) == len(labels)
    assert any(label.startswith("gn") for label in labels)
    assert any(label.startswith("gst") for label in labels)


def test_random_instances_deterministic():
    a = random_instances(count=6, max_n=6, seed=7)
    b = random_instances(count=6, max_n=6, seed=7)
    assert [lab for lab, _ in a] == [lab for lab, _ in b]
    assert all(ga == gb for (_, ga), (_, gb) in zip(a, b))
    assert {g.n for _, g in a} <= set(range(3, 7))


@pytest.mark.parametrize("max_n", [2, 1, 0])
def test_random_instances_need_three_vertices(max_n):
    # every random instance has n >= 3, so a smaller cap cannot be met
    with pytest.raises(InputError):
        random_instances(count=4, max_n=max_n)


@pytest.mark.parametrize("count", [-1, -3])
def test_random_instances_reject_negative_count(count):
    with pytest.raises(InputError, match="count"):
        random_instances(count=count, max_n=8)
    assert random_instances(count=0, max_n=8) == []


@pytest.mark.parametrize("max_n", [2, 1, 0, -4])
def test_family_instances_need_three_vertices(max_n):
    # the smallest family instances (cycle(3), path(3)) have n = 3
    with pytest.raises(InputError, match="family instances"):
        family_instances(max_n)
    assert family_instances(3)
