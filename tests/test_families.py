import pytest
from hypothesis import given, settings, strategies as st

from signedspread.errors import InputError
from signedspread.families import (
    KINDS,
    FamilySpec,
    check_gst_member,
    gen_cycle,
    gen_gn,
    gen_gst,
    gen_ktt_tau,
    gen_path,
    gen_random_connected,
    gen_random_tree,
)
from signedspread.graph import SignedGraph, is_antibalanced, is_balanced, negate_signature


def test_gen_gn_structure():
    g = gen_gn(8)
    k = 4
    assert g.n == 8 and g.m == 2 * (k * (k - 1) // 2) + k
    for u in range(k):
        for v in range(u + 1, k):
            assert g.sign_of(u, v) == 1
            assert g.sign_of(k + u, k + v) == 1
    for i in range(k):
        assert g.sign_of(i, k + i) == -1
    assert is_balanced(g) is not None
    assert is_antibalanced(negate_signature(g)) is not None


@pytest.mark.parametrize("bad", [4, 5, 7, 0, -2])
def test_gen_gn_rejects(bad):
    with pytest.raises(InputError):
        gen_gn(bad)


def test_gen_ktt_tau_structure():
    g = gen_ktt_tau(4)
    assert g.n == 8 and g.m == 16
    assert set(g.negative_edges()) == {(i, 4 + i) for i in range(4)}
    neg = gen_ktt_tau(4, negated=True)
    assert neg == negate_signature(g)
    with pytest.raises(InputError):
        gen_ktt_tau(2)


def test_gen_gst_structure():
    g = gen_gst(4, 3)
    assert g.n == 12 and g.m == 4 * 9
    assert check_gst_member(g, 4, 3)
    mixed = gen_gst(4, 3, (True, False, True, False))
    assert check_gst_member(mixed, 4, 3)
    assert mixed != g
    assert not check_gst_member(gen_ktt_tau(3), 3, 3)
    assert not check_gst_member(g, 4, 4) and not check_gst_member(g, 3, 3)
    with pytest.raises(InputError):
        gen_gst(2, 3)
    with pytest.raises(InputError):
        gen_gst(3, 2)
    with pytest.raises(InputError):
        gen_gst(3, 3, (True,))  # wrong flag count


@pytest.mark.parametrize("flags", [(True,) * 4, (True, False, True, False)])
def test_check_gst_member_refuses_non_members_of_the_right_size(flags):
    g = gen_gst(4, 3, flags)
    edges = list(g.edges)
    # one sign flipped inside the layer pair (U_0, U_1)
    u, v, s = edges[0]
    flipped = SignedGraph.from_edge_list(g.n, [(u, v, -s), *edges[1:]])
    assert flipped.m == g.m and not check_gst_member(flipped, 4, 3)
    # the edge 0-3 moved inside layer U_0, so m is still s * t^2
    moved = SignedGraph.from_edge_list(g.n, [(0, 1, 1), *(e for e in edges if e[:2] != (0, 3))])
    assert moved.m == g.m and not check_gst_member(moved, 4, 3)


def test_gen_cycle_and_path():
    c = gen_cycle(5, [1, -1, 1, 1, -1])
    assert c.n == 5 and c.m == 5
    assert c.sign_of(1, 2) == -1 and c.sign_of(4, 0) == -1
    assert all(c.degree(v) == 2 for v in range(5))
    p = gen_path(4, [-1, 1, -1])
    assert p.m == 3 and p.sign_of(0, 1) == -1 and p.sign_of(2, 3) == -1
    assert gen_path(1).m == 0
    with pytest.raises(InputError):
        gen_cycle(2)
    with pytest.raises(InputError):
        gen_path(0)
    with pytest.raises(InputError):
        gen_cycle(4, [1, 1])  # wrong signs length
    with pytest.raises(InputError):
        gen_path(3, [1, 2])  # bad sign value


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_gen_random_tree_is_tree(seed, n):
    g = gen_random_tree(seed, n)
    assert g.n == n and g.m == n - 1
    assert g.connected()
    assert gen_random_tree(seed, n) == g  # deterministic


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_gen_random_connected(seed, n):
    g = gen_random_connected(seed, n)
    assert g.n == n and g.connected()
    assert gen_random_connected(seed, n) == g


def test_gen_random_connected_gives_up():
    with pytest.raises(InputError):
        gen_random_connected(1, 5, edge_prob=0.0, max_tries=5)


def test_family_spec_roundtrip():
    spec = FamilySpec.make("gst", s=4, t=3, layer_signs=[True, False, True, False])
    g = spec.build()
    assert check_gst_member(g, 4, 3)
    assert spec.as_dict()["layer_signs"] == (True, False, True, False)
    assert "gst" in spec.label() and "s=4" in spec.label()
    again = FamilySpec.make(spec.kind, **spec.as_dict())
    assert again.build() == g


def test_family_spec_rejects():
    with pytest.raises(InputError):
        FamilySpec.make("hypercube", n=4)
    with pytest.raises(InputError):
        FamilySpec.make("gn", wrong_param=6).build()
    assert "random_tree" in KINDS and "gn" in KINDS
