import json
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from signedspread.engine import (
    MODE_ID,
    MODE_RID,
    Label,
    Placement,
    StepContext,
    Strategy,
    Trace,
    _LABEL_TEXT,
    _dumps_trace,
    label_to_str,
    levels,
    mirror_trace,
    run,
    step,
    str_to_label,
    strategy_from_json,
    strategy_to_json,
    trace_to_json,
)
from signedspread.errors import InputError, StrategyError
from signedspread.families import gen_cycle, gen_gn, gen_gst, gen_path, gen_random_connected
from signedspread.graph import SignedGraph, negate_signature, switch
from signedspread.solver import exact_relaxed_confusion

from plain_search import assert_trace_matches_reference, pending_signals, reference_run


def test_label_negation_and_strings():
    assert Label.A.negated() is Label.NEG_A
    assert Label.NEG_A.negated() is Label.A
    assert Label.ZERO.negated() is Label.ZERO
    assert Label.CONFUSED.negated() is Label.CONFUSED
    for lab in Label:
        assert str_to_label(label_to_str(lab)) is lab
    for text in ("B", ["A"], None, 1):
        with pytest.raises(InputError, match="unknown label"):
            str_to_label(text)
    for code in (7, "A", 1.5, None):
        with pytest.raises(InputError, match="unknown label code"):
            label_to_str(code)


def test_single_step_transmission_signs():
    # 0 -(+)- 1 -(-)- 2: placing on 1 sends A left and -A right
    g = SignedGraph.from_edge_list(3, [(0, 1, 1), (1, 2, -1)])
    state = step(g, StepContext(g).zeros_state(), Placement(1, Label.A))
    assert list(state) == [int(Label.A), int(Label.A), int(Label.NEG_A)]


def test_informed_vertices_retransmit_every_round():
    # path 0-1-2-3, all positive: after placing 0, vertex 1 is informed;
    # at the next step it transmits again, reaching 2 alongside 3's signal
    g = gen_path(4)
    trace = run(g, Strategy(MODE_ID, (Placement(0, Label.A), Placement(3, Label.A))))
    assert trace.complete
    assert [list(s) for s in trace.snapshots][1] == [1, 1, 0, 0]
    assert list(trace.final) == [1, 1, 1, 1]
    assert trace.confused() == ()


def test_conflicting_signals_confuse():
    # all-negative 5-cycle, placements 0 then 2: vertex 3 hears -A from 2
    # and A from 4 in the same round
    g = gen_cycle(5, [-1] * 5)
    trace = run(g, Strategy(MODE_ID, (Placement(0, Label.A), Placement(2, Label.A))))
    assert trace.complete
    assert trace.confused() == (3,)
    assert trace.confused_count() == 1
    assert trace.steps == 2


def test_confused_vertices_stay_silent():
    # extend the confusing cycle with a pendant on the confused vertex:
    # the pendant must stay Zero until something places there
    edges = [(0, 1, -1), (1, 2, -1), (2, 3, -1), (3, 4, -1), (0, 4, -1), (3, 5, 1)]
    g = SignedGraph.from_edge_list(6, edges)
    trace = run(g, Strategy(MODE_ID, (Placement(0, Label.A), Placement(2, Label.A))))
    assert not trace.complete
    assert trace.final[3] == int(Label.CONFUSED)
    assert trace.final[5] == int(Label.ZERO)
    done = run(
        g,
        Strategy(
            MODE_ID,
            (Placement(0, Label.A), Placement(2, Label.A), Placement(5, Label.A)),
        ),
    )
    assert done.complete and done.confused() == (3,)


def test_run_validations():
    g = gen_path(3)
    with pytest.raises(StrategyError):
        run(g, Strategy(MODE_ID, (Placement(0, Label.NEG_A),)))
    with pytest.raises(StrategyError):
        # vertex 1 is informed after step 1
        run(g, Strategy(MODE_ID, (Placement(0, Label.A), Placement(1, Label.A))))
    with pytest.raises(InputError):
        run(g, Strategy(MODE_ID, (Placement(7, Label.A),)))
    with pytest.raises(InputError):
        run(g, strategy_from_json(MODE_ID, [{"vertex": True, "info": "A"}]))
    with pytest.raises(InputError):
        step(g, StepContext(g).zeros_state(), Placement(True, Label.A))
    with pytest.raises(InputError):
        Strategy("bogus", ())
    err = None
    try:
        run(g, Strategy(MODE_ID, (Placement(0, Label.A), Placement(1, Label.A))))
    except StrategyError as exc:
        err = exc
    assert err is not None and err.step == 2


@pytest.mark.parametrize("entry", [None, (2, Label.A), 2])
def test_run_rejects_an_entry_that_is_not_a_placement(entry):
    # the placements before the entry already complete path(3): run still
    # reaches the entry and raises instead of stopping early
    g = gen_path(3)
    with pytest.raises(InputError, match="step 2: strategy entry .* is not a Placement"):
        run(g, Strategy(MODE_ID, (Placement(1, Label.A), entry)))
    with pytest.raises(InputError, match="step 1: "):
        run(g, Strategy(MODE_ID, (entry,)))


@pytest.mark.parametrize("vertex", [np.int64(1), np.int32(1), np.uint8(1)])
def test_run_accepts_numpy_integer_vertices(vertex):
    g = gen_path(3)
    trace = run(g, Strategy("ID", [Placement(vertex, Label.A)]))
    assert trace.complete and trace.strategy.placements == (Placement(1, Label.A),)
    assert type(trace.strategy.placements[0].vertex) is int
    assert json.dumps(strategy_to_json(trace.strategy)) == '[{"vertex": 1, "info": "A"}]'
    assert list(step(g, [0] * 3, Placement(vertex, Label.A))) == [1, 1, 1]
    for flag in (True, np.bool_(True)):  # a bool is not a vertex
        with pytest.raises(InputError, match="out of range"):
            run(g, Strategy("ID", [Placement(flag, Label.A)]))


@pytest.mark.parametrize("vertex, info", [(-1, 1), (4, 1), (0, 0), (0, 3), (0, 7),
                                          (1.5, 1), ("1", 1), (True, 1)])
def test_step_context_checks_vertex_and_value(vertex, info):
    # a bare IndexError, or a label no run can hold, before these checks
    g = gen_path(4)
    ctx = StepContext(g)
    with pytest.raises(InputError):
        ctx.step(ctx.zeros_state(), vertex, info)


def test_step_context_stores_the_value_as_a_code():
    # 1.0 passes as A, as Label(1.0) does in a placement
    ctx = StepContext(gen_path(4))
    z = ctx.zeros_state()
    assert ctx.step(z, 0, 1.0).tolist() == ctx.step(z, 0, 1).tolist() == [1, 1, 0, 0]


# None, bools, numpy bools, ints, numpy ints, floats, strings, lists, dicts
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_),
    st.integers(-3, 6), st.integers(-3, 6).map(np.int64), st.integers(0, 6).map(np.uint8),
    st.floats(allow_nan=True), st.text(max_size=3), st.sampled_from(list(_LABEL_TEXT)),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)


def _outcome(call, *args):
    """True when call(*args) returns, False when it raises InputError or
    StrategyError; any other exception fails the test."""
    try:
        call(*args)
    except (InputError, StrategyError):
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(_ANY_VALUE)
@example(None)
@example(5)
@example({"vertex": 0, "info": "A"})
@example("A")
def test_readers_raise_only_input_errors(x):
    g = gen_path(4)
    ctx = StepContext(g)
    z = ctx.zeros_state()
    # placements come as a list, and nothing else is read as one
    assert _outcome(strategy_from_json, MODE_ID, x) == (type(x) is list and not x)
    _outcome(str_to_label, x)
    _outcome(label_to_str, x)
    _outcome(lambda: run(g, strategy_from_json(MODE_RID, [{"vertex": 0, "info": x}])))
    _outcome(step, g, z, Placement(0, x))
    _outcome(ctx.step, z, 0, x)
    # the one vertex rule: every reader of a vertex takes the same values
    accepted = {
        _outcome(lambda: run(g, strategy_from_json(MODE_ID, [{"vertex": x, "info": "A"}]))),
        _outcome(step, g, z, Placement(x, Label.A)),
        _outcome(ctx.step, z, x, 1),
        _outcome(switch, g, [x]),
    }
    assert len(accepted) == 1


def draw_prefix(draw, g, relaxed):
    """A random legal placement prefix on g, and the labels after it."""
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    placements = []
    for _ in range(draw(st.integers(0, g.n))):
        zeros = np.flatnonzero(labels == int(Label.ZERO)).tolist()
        if not zeros:
            break
        info = draw(st.sampled_from([Label.A, Label.NEG_A])) if relaxed else Label.A
        placements.append(Placement(draw(st.sampled_from(zeros)), info))
        labels = ctx.step(labels, placements[-1].vertex, int(info))
    return placements, labels


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 99999), st.integers(1, 9), st.booleans(), st.data())
def test_run_returns_the_strategy_it_ran(seed, n, relaxed, data):
    g = gen_random_connected(seed, n)
    placements, labels = draw_prefix(data.draw, g, relaxed)
    strategy = Strategy(MODE_RID if relaxed else MODE_ID, tuple(placements))
    trace = run(g, strategy)
    assert trace.strategy == strategy
    assert trace.steps == len(placements)
    assert np.array_equal(trace.final, labels)
    assert trace.complete == (not (labels == int(Label.ZERO)).any())


def random_graph(draw, max_n):
    """A graph on 0..max_n vertices with any subset of the pairs, each
    edge of either sign: isolated vertices and disconnected graphs occur."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SignedGraph.from_edge_list(
        n, [(u, v, draw(st.sampled_from([1, -1]))) for u, v in pairs if draw(st.booleans())])


@st.composite
def reference_runs(draw):
    """(graph on n <= 12 vertices, mode, placements, snapshots): a prefix,
    complete or not, of the plain reference run of random placements."""
    g = random_graph(draw, 12)
    relaxed = draw(st.booleans())

    def pick(labels, i):
        zeros = [v for v in range(g.n) if labels[v] == int(Label.ZERO)]
        return draw(st.sampled_from(zeros)), draw(st.sampled_from([1, 2])) if relaxed else 1

    placements, snapshots = reference_run(g, pick)
    k = draw(st.integers(0, len(placements)))
    return g, MODE_RID if relaxed else MODE_ID, placements[:k], snapshots[:k + 1]


@settings(max_examples=300, deadline=None)
@given(reference_runs())
def test_run_matches_plain_reference(case):
    g, mode, placements, snapshots = case
    trace = run(g, Strategy(mode, tuple(Placement(v, Label(info)) for v, info in placements)))
    assert_trace_matches_reference(trace, placements, snapshots)
    if trace.complete and mode == MODE_RID:
        assert mirror_trace(mirror_trace(trace)) == trace


def test_run_snapshots_are_a_read_only_sequence():
    g = gen_path(6)
    trace = run(g, Strategy(MODE_ID, (Placement(0, Label.A), Placement(5, Label.A))))
    snaps = trace.snapshots
    assert isinstance(snaps, Sequence) and len(snaps) == 3
    assert [s.tolist() for s in snaps[1:]] == [[1, 1, 0, 0, 0, 0], [1, 1, 1, 0, 1, 1]]
    assert snaps[np.int64(-3)].tolist() == [0] * 6
    for i in (3, -4):
        with pytest.raises(IndexError):
            snaps[i]
    with pytest.raises(TypeError):
        snaps[0] = snaps[1]
    for snap in (snaps[0], snaps[1], *snaps):
        with pytest.raises(ValueError):
            snap[0] = int(Label.A)


def test_traces_that_differ_compare_unequal():
    g = gen_path(4)
    base = run(g, Strategy(MODE_ID, (Placement(0, Label.A), Placement(3, Label.A))))
    parts = (base.graph, base.strategy, base.final, base.when)
    assert Trace(*parts) == base
    final, when = base.final.copy(), base.when.copy()
    final[2], when[2] = int(Label.NEG_A), 1
    for i, other in enumerate((gen_path(4, [1, -1, 1]), Strategy(MODE_RID, base.strategy.placements),
                               final, when)):
        differ = Trace(*parts[:i], other, *parts[i + 1:])
        assert differ != base and base != differ, i
    assert (base == object()) is False and base != object()


def test_relaxed_mode_allows_negative_placement():
    g = gen_path(3, [-1, -1])
    trace = run(g, Strategy(MODE_RID, (Placement(1, Label.NEG_A),)))
    assert trace.complete
    assert list(trace.final) == [int(Label.A), int(Label.NEG_A), int(Label.A)]


def test_levels():
    g = gen_path(4)
    trace = run(g, Strategy(MODE_ID, (Placement(0, Label.A), Placement(3, Label.A))))
    assert levels(trace) == {0: 0, 1: 1, 2: 2, 3: 1}
    with pytest.raises(InputError):
        levels(run(g, Strategy(MODE_ID, ())))


@st.composite
def relaxed_runs(draw):
    n = draw(st.integers(3, 7))
    g = gen_random_connected(draw(st.integers(0, 9999)), n)
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    placements = []
    while (labels == int(Label.ZERO)).any():
        zeros = [int(v) for v in np.flatnonzero(labels == int(Label.ZERO))]
        v = draw(st.sampled_from(zeros))
        info = draw(st.sampled_from([Label.A, Label.NEG_A]))
        placements.append(Placement(v, info))
        labels = ctx.step(labels, v, int(info))
    return g, Strategy(MODE_RID, tuple(placements))


@settings(max_examples=40, deadline=None)
@given(relaxed_runs())
def test_mirror_trace_replays_on_negation(gs):
    g, strategy = gs
    trace = run(g, strategy)
    assert trace.complete
    mirrored = mirror_trace(trace)
    assert mirrored.graph == negate_signature(g)
    assert mirrored.confused() == trace.confused()
    replay = run(mirrored.graph, mirrored.strategy)
    assert replay == mirrored
    assert mirror_trace(mirrored) == trace


def test_mirror_trace_requires_complete_relaxed_trace():
    g = gen_path(3)
    with pytest.raises(InputError):
        mirror_trace(run(g, Strategy(MODE_ID, (Placement(1, Label.A),))))
    with pytest.raises(InputError):
        mirror_trace(run(g, Strategy(MODE_RID, ())))


@pytest.mark.parametrize("state", [[0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 5], [0, -1, 0, 0],
                                   [[0, 0, 0, 0]], [0.0, 0.0, 0.0, 0.0]])
def test_step_rejects_malformed_states(state):
    # a wrong length or a label outside 0..3 is an input error, never a
    # traceback nor a silently stepped state
    g = gen_path(4)
    with pytest.raises(InputError):
        step(g, np.array(state), Placement(0, Label.A))
    with pytest.raises(InputError):
        step(g, state, Placement(0, Label.A))


def test_pending_signals():
    g = gen_cycle(5, [-1] * 5)
    state = step(g, StepContext(g).zeros_state(), Placement(0, Label.A))
    hears_p, hears_m = pending_signals(g, state)
    # zeros are 2 and 3; each hears A from its informed -A neighbor
    # through a negative edge
    assert hears_p == [False, False, True, True, False]
    assert hears_m == [False] * 5


def test_strategy_json_roundtrip():
    s = Strategy(MODE_RID, (Placement(0, Label.A), Placement(2, Label.NEG_A)))
    payload = strategy_to_json(s)
    assert payload == [{"vertex": 0, "info": "A"}, {"vertex": 2, "info": "-A"}]
    assert strategy_from_json(MODE_RID, payload) == s
    with pytest.raises(InputError):
        strategy_from_json(MODE_ID, [{"vertex": 0}])
    with pytest.raises(InputError, match="unknown label"):
        strategy_from_json(MODE_ID, [{"vertex": 0, "info": ["A"]}])
    # a dict payload is not read as the list of its keys
    with pytest.raises(InputError, match="^placements must be a list, got {'vertex': 0, 'info': 'A'}$"):
        strategy_from_json(MODE_ID, {"vertex": 0, "info": "A"})
    with pytest.raises(InputError, match="^placements must be a list, got None$"):
        strategy_from_json(MODE_ID, None)


def test_trace_json_fields():
    g = gen_cycle(5, [-1] * 5)
    trace = run(g, Strategy(MODE_ID, (Placement(0, Label.A), Placement(2, Label.A))))
    payload = trace_to_json(trace)
    assert payload["schema"] == 1
    assert payload["mode"] == MODE_ID
    assert payload["confused"] == [3]
    assert payload["complete"] is True
    assert payload["snapshots"][0] == ["0"] * 5
    assert payload["snapshots"][-1].count("C") == 1


def test_gn_balanced_play_floods_without_confusion():
    g = gen_gn(6)
    # place inside one clique, then the matched twin of the other side
    trace = run(g, Strategy(MODE_ID, (Placement(0, Label.A),)))
    assert trace.final[3] == int(Label.NEG_A)  # matched partner flips
    assert trace.final[1] == int(Label.A) and trace.final[2] == int(Label.A)


def test_trace_json_snapshots_match_label_to_str():
    gst = gen_gst(4, 3)
    real = run(gst, exact_relaxed_confusion(gst).witness)  # 3 confused
    assert {int(x) for snap in real.snapshots for x in snap} == {int(label) for label in Label}
    payload = trace_to_json(real)
    assert payload["snapshots"] == [[label_to_str(x) for x in s] for s in real.snapshots]
    assert all(type(x) is str for snap in payload["snapshots"] for x in snap)


@st.composite
def traces(draw):
    """The run of a random legal placement prefix (so complete or not) on
    a random graph with n from 0 to 12, in either mode."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = SignedGraph.from_edge_list(
        n, [(u, v, draw(st.sampled_from([1, -1]))) for u, v in pairs if draw(st.booleans())])
    relaxed = draw(st.booleans())
    mode = MODE_RID if relaxed else MODE_ID
    placements, _ = draw_prefix(draw, g, relaxed)
    return run(g, Strategy(mode, tuple(placements)))


@settings(max_examples=300, deadline=None)
@given(traces())
def test_dumps_trace_equals_json_dumps_of_trace_to_json(trace):
    text = _dumps_trace(trace)
    assert text == json.dumps(trace_to_json(trace))
    assert json.loads(text) == trace_to_json(trace)


def relabeled_path(n, rng):
    """path(n) with random edge signs and vertex v renamed p[v], and p."""
    p = rng.permutation(n)
    edges = [(int(p[v]), int(p[v + 1]), int(rng.choice([1, -1]))) for v in range(n - 1)]
    return SignedGraph.from_edge_list(n, edges), p


def random_run(g, rng, count):
    """The rID run on g of up to count placements, each a random value
    on a random Zero vertex."""
    ctx = StepContext(g)
    labels = ctx.zeros_state()
    placements = []
    while len(placements) < count and (labels == int(Label.ZERO)).any():
        v = int(rng.choice(np.flatnonzero(labels == int(Label.ZERO))))
        placements.append(Placement(v, Label(int(rng.integers(1, 3)))))
        labels = ctx.step(labels, v, int(placements[-1].info))
    return run(g, Strategy(MODE_RID, tuple(placements)))


def assert_dumps_trace_matches(trace):
    """_dumps_trace(trace) == json.dumps(trace_to_json(trace)); a mismatch
    names the first differing character rather than diffing megabytes."""
    text, want = _dumps_trace(trace), json.dumps(trace_to_json(trace))
    if text != want:
        at = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b), min(len(text), len(want)))
        pytest.fail(f"lengths {len(text)}, {len(want)}; first difference at {at}: "
                    f"{text[max(at - 30, 0):at + 30]!r} != {want[max(at - 30, 0):at + 30]!r}")


# around the encoder's 64-vertex chunks: none, one short, one full, a
# full one and a single vertex, two full ones and a single vertex
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
def test_dumps_trace_across_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    g, _ = relabeled_path(n, rng)
    assert_dumps_trace_matches(random_run(g, rng, n))


def test_dumps_trace_on_the_simulate_benchmark_path():
    # relabeled path(2002) placing every third vertex, as perfbench's
    # simulate job does: 669 snapshots of 32 chunks each
    g, p = relabeled_path(2002, np.random.default_rng(2001))
    trace = run(g, Strategy(MODE_ID, tuple(Placement(int(p[v]), Label.A) for v in range(0, 2002, 3))))
    assert trace.complete and len(trace.snapshots) == 669
    assert_dumps_trace_matches(trace)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 200), st.integers(0, 2**32 - 1))
def test_dumps_trace_equals_json_dumps_on_multi_chunk_traces(n, seed):
    """A random run, complete or not, on a relabeled path of up to 200
    vertices."""
    rng = np.random.default_rng(seed)
    g, _ = relabeled_path(n, rng)
    assert_dumps_trace_matches(random_run(g, rng, int(rng.integers(0, n + 1))))


def test_dumps_trace_on_a_step_that_informs_many_chunks():
    # a star on 300 vertices, signs mixed: placing the centre informs the
    # 299 leaves, in all five 64-vertex chunks, in one step
    rng = np.random.default_rng(5)
    g = SignedGraph.from_edge_list(300, [(0, v, int(rng.choice([1, -1]))) for v in range(1, 300)])
    trace = run(g, Strategy(MODE_ID, (Placement(0, Label.A),)))
    assert trace.complete and len(set((np.flatnonzero(trace.when == 1) // 64).tolist())) == 5
    assert_dumps_trace_matches(trace)
    # gn(200): its second step informs vertices in chunks 1, 2 and 3
    trace = run(gen_gn(200), Strategy(MODE_ID, (Placement(7, Label.A), Placement(100, Label.A))))
    assert set((np.flatnonzero(trace.when == 2) // 64).tolist()) == {1, 2, 3}
    assert_dumps_trace_matches(trace)
