"""Discrete-time information spread on signed graphs.

Each step places a value on a still-uninformed (Zero) vertex, then runs
one synchronous round: informed and confused vertices keep their labels;
a Zero vertex that hears exactly one signed value from informed
neighbors (edge sign times neighbor value) adopts it, hears both values
becomes confused, hears nothing stays Zero. Confused vertices transmit
nothing, and the vertex placed this step keeps its placed value. In ID
mode every placement carries A; relaxed (rID) mode may place -A.
"""

from __future__ import annotations

import json
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import InputError, StrategyError
from .graph import SignedGraph, _vertex, graph_to_json, negate_signature

MODE_ID = "ID"
MODE_RID = "rID"


class Label(IntEnum):
    ZERO = 0
    A = 1
    NEG_A = 2
    CONFUSED = 3

    def negated(self) -> "Label":
        return Label(int(_NEGATED[self]))


_ZERO = int(Label.ZERO)
_A = int(Label.A)
_NEG_A = int(Label.NEG_A)
_CONFUSED = int(Label.CONFUSED)
# label code -> its code under the global negation A <-> -A
_NEGATED = np.array([_ZERO, _NEG_A, _A, _CONFUSED], dtype=np.int8)
# label code -> its text, and its JSON token for snapshots written from their bytes
_LABEL_TEXT = ("0", "A", "-A", "C")
_LABEL_TOKENS = tuple(map(json.dumps, _LABEL_TEXT))
# vertices per snapshot chunk, the unit _dumps_trace joins again when one changes
_SNAPSHOT_CHUNK = 64


def label_to_str(label) -> str:
    """The text of a Label or of a value equal to a label code 0..3."""
    try:
        return _LABEL_TEXT[Label(label)]
    except ValueError:
        raise InputError(f"unknown label code {label!r}, expected one of 0..3") from None


def str_to_label(text: str) -> Label:
    try:
        return Label(_LABEL_TEXT.index(text))
    except ValueError:
        raise InputError(f"unknown label {text!r}, expected one of 0, A, -A, C") from None


def _check_mode(mode: str) -> None:
    if mode not in (MODE_ID, MODE_RID):
        raise InputError(f"mode must be {MODE_ID!r} or {MODE_RID!r}")


@dataclass(frozen=True)
class Placement:
    vertex: int
    info: Label


@dataclass(frozen=True)
class Strategy:
    mode: str
    placements: tuple

    def __post_init__(self):
        _check_mode(self.mode)
        object.__setattr__(self, "placements", tuple(self.placements))


def _label_codes(state, n: int) -> np.ndarray:
    """state as an int8 array of label codes, when it holds n integer
    codes 0..3; otherwise InputError. The one label-state rule of
    StepContext.step, engine.step and Trace."""
    labels = np.asarray(state)
    if labels.shape != (n,):
        raise InputError(f"state has shape {labels.shape}, expected {n} labels")
    if labels.dtype.kind not in "iu" or (n and not 0 <= labels.min() <= labels.max() <= 3):
        raise InputError("state labels must be integer codes 0..3")
    return labels.astype(np.int8, copy=False)


def _heard(rows, labels, senders):
    """{Zero vertex: hearing bits} of what the senders send (1: hears A,
    2: hears -A, 3: both). rows[v] lists v's (neighbour, edge sign)
    pairs; labels is indexable by vertex (bytes or a bytearray of label
    codes) and gives each sender's value, A or -A."""
    out = {}
    get = out.get
    for s in senders:
        # the edge sign under which s's value arrives as A
        sends_a = 1 if labels[s] == _A else -1
        for w, sign in rows[s]:
            if not labels[w]:
                out[w] = get(w, 0) | (_A if sign == sends_a else _NEG_A)
    return out


def _neighbour_masks(n, edges):
    """(pos, neg): per-vertex bitsets of the positive and of the negative
    neighbours, bit w of pos[v] set when v and w share a positive edge."""
    pos, neg = [0] * n, [0] * n
    for u, v, s in edges:
        side = pos if s > 0 else neg
        side[u] |= 1 << v
        side[v] |= 1 << u
    return pos, neg


class StepContext:
    """Per-graph adjacency for one broadcast round. step runs on int8
    label arrays (other integer dtypes are converted on entry) over the
    graph's per-vertex (neighbour, sign) rows, O(n + m) memory at any n;
    expand runs on bitset states, ints a | b << n | c << 2n over the
    sets a, b and c of A, -A and C vertices, with the neighbour masks of
    _neighbour_masks (up to n^2/8 bytes), built on its first call. Runs
    step through engine._trace, which needs neither.
    """

    # perfbench's tracer keys its step byte count on this; it selects
    # nothing. ROADMAP item 1b deletes it with the tracer's reading.
    backend = "numpy"

    def __init__(self, g: SignedGraph):
        self.graph = g

    @cached_property
    def _masks(self):
        return _neighbour_masks(self.graph.n, self.graph.edges)

    def zeros_state(self) -> np.ndarray:
        return np.zeros(self.graph.n, dtype=np.int8)

    def step(self, labels: np.ndarray, vertex: int, info: int) -> np.ndarray:
        """labels after placing info on the Zero vertex `vertex` and one
        round, as a read-only int8 view of bytes. labels of any integer
        dtype are read as label codes (_label_codes). A vertex that
        graph._vertex refuses, an info other than A or -A, or labels
        that _label_codes refuses raise InputError; a vertex that is not
        Zero raises StrategyError."""
        vertex = _vertex(vertex, self.graph.n, "vertex")
        if info != _A and info != _NEG_A:
            raise InputError(f"placed value must be A or -A, got {info!r}")
        labels = _label_codes(labels, self.graph.n)
        if labels[vertex] != _ZERO:
            raise StrategyError(f"vertex {vertex} is not Zero")
        senders = np.flatnonzero((labels == _A) | (labels == _NEG_A)).tolist()
        buf = bytearray(labels.tobytes())
        buf[vertex] = int(info)
        heard = _heard(self.graph._adj, buf, senders + [vertex])
        for w, bits in heard.items():
            buf[w] = bits  # the hearing bits are the label codes A, -A, C
        return np.frombuffer(bytes(buf), dtype=np.int8)

    def expand(self, state: int, allow_neg: bool):
        """(children, moves, added, done) of every placement on a Zero
        vertex of the bitset state, ordered by vertex, A before -A: child
        states, (vertex, value) pairs, the confusion each adds, and whether
        each child is complete. What the transmitters send is ORed once;
        each child adds its placed vertex's masks, and each Zero vertex
        adopts the one value it hears or is confused by both."""
        pos, neg = self._masks
        n = self.graph.n
        full = (1 << n) - 1
        a, b, c = state & full, state >> n & full, state >> 2 * n
        hear_a = hear_b = 0  # vertices that hear A, and -A
        for side, same, other in ((a, pos, neg), (b, neg, pos)):
            while side:
                low = side & -side
                v = low.bit_length() - 1
                hear_a |= same[v]
                hear_b |= other[v]
                side ^= low
        zero = full ^ (a | b | c)
        children, moves, added, done = [], [], [], []
        rest = zero
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            z = zero ^ low
            p, q = pos[v], neg[v]
            # v holds A: its positive neighbours hear A, its negative ones -A
            za, zb = z & (hear_a | p), z & (hear_b | q)
            both = za & zb
            children.append(low | a | za ^ both | (b | zb ^ both) << n | (c | both) << 2 * n)
            moves.append((v, _A))
            added.append(both.bit_count())
            done.append(z == za | zb)
            if allow_neg:  # v holds -A: the other way round
                za, zb = z & (hear_a | q), z & (hear_b | p)
                both = za & zb
                children.append(a | za ^ both | (low | b | zb ^ both) << n | (c | both) << 2 * n)
                moves.append((v, _NEG_A))
                added.append(both.bit_count())
                done.append(z == za | zb)
        return children, moves, added, done


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _RunSnapshots(Sequence):
    """The snapshots of a run, from its final labels and when: snapshot i
    is final where when <= i and Zero elsewhere, a read-only int8 array
    built on access in O(n). Iterating, like _dumps_trace, reads
    _informed, which steps one bytearray forward writing only the
    vertices each step informed, so a pass over all s snapshots writes n
    labels and copies s times n bytes, not s arrays built whole."""

    def __init__(self, final: np.ndarray, when: np.ndarray, count: int):
        self.final, self.when, self._count = final, when, count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(self._count)))
        i = operator.index(i)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("snapshot index out of range")
        if i == self._count - 1:
            return self.final
        return _freeze(np.where(self.when <= i, self.final, np.int8(_ZERO)))

    def _informed(self):
        """(labels, informed) for each snapshot in order: its label codes
        as bytes, and the vertices the step to it informed, read off when
        (none at snapshot 0, the all-Zero state)."""
        final = self.final.tobytes()
        order = np.argsort(self.when, kind="stable").tolist()
        # ends[i]: how many vertices snapshot i has informed
        ends = np.cumsum(np.bincount(self.when, minlength=self._count)).tolist()
        buf = bytearray(len(final))
        start = 0
        for end in ends[:self._count]:
            informed = order[start:end]
            for v in informed:
                buf[v] = final[v]
            start = end
            yield bytes(buf), informed

    def __iter__(self):
        for labels, _ in self._informed():
            yield np.frombuffer(labels, dtype=np.int8)


class Trace:
    """A run of the process from the all-Zero state, as run, a policy or
    mirror_trace makes it.

    A run informs each vertex once and never relabels it, so it is fixed
    by final, its last labels (int8 codes), and when: when[v] is the step
    that informed v, or steps + 1 while v is Zero. A trace keeps these two
    arrays, made read-only, and derives the rest: steps is the number of
    placements, snapshots[i] the state after step i (_RunSnapshots builds
    it from final and when), and complete whether no vertex of final is
    Zero. levels, mirror_trace, confused and == read final and when.
    final must hold n label codes (_label_codes) and when n integers,
    1..steps where final is informed and steps + 1 where it is Zero;
    anything else raises InputError."""

    def __init__(self, graph: SignedGraph, strategy: Strategy, final: np.ndarray, when: np.ndarray):
        self.graph, self.strategy = graph, strategy
        self.steps = len(strategy.placements)
        final = _label_codes(final, graph.n)
        when = np.asarray(when)
        late = self.steps + 1
        zero = final == _ZERO
        if (when.shape != final.shape or when.dtype.kind not in "iu"
                or (graph.n and not 1 <= when.min() <= when.max() <= late)
                or np.count_nonzero((when == late) != zero)):
            raise InputError(f"when must hold {graph.n} steps, 1..{self.steps} where final "
                             f"is informed and {late} where it is Zero")
        self.final, self.when = _freeze(final), _freeze(when)
        self.snapshots = _RunSnapshots(self.final, self.when, late)
        self.complete = not np.count_nonzero(zero)

    def confused(self) -> tuple:
        return tuple(np.flatnonzero(self.final == _CONFUSED).tolist())

    def confused_count(self) -> int:
        return len(self.confused())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.graph == other.graph
                and self.strategy == other.strategy
                and np.array_equal(self.final, other.final)
                and np.array_equal(self.when, other.when))


def _at(idx: int | None) -> str:
    return "" if idx is None else f"step {idx}: "


def _check_placement(g: SignedGraph, labels, p: Placement,
                     mode: str | None = None, idx: int | None = None) -> Placement:
    """p, once checked legal on labels (and in mode), with its vertex a
    Python int (graph._vertex) and its value a Label."""
    if not isinstance(p, Placement):
        raise InputError(f"{_at(idx)}strategy entry {p!r} is not a Placement")
    v = _vertex(p.vertex, g.n, f"{_at(idx)}placement vertex")
    try:
        info = Label(p.info)
    except ValueError:
        raise InputError(f"{_at(idx)}invalid placement value {p.info!r}") from None
    if mode == MODE_ID and info is not Label.A:
        raise StrategyError(f"{_at(idx)}ID mode only places A", step=idx)
    if info is not Label.A and info is not Label.NEG_A:
        raise StrategyError(f"{_at(idx)}placement value must be A or -A, got {info!r}", step=idx)
    if labels[v] != _ZERO:
        raise StrategyError(f"{_at(idx)}vertex {v} is not Zero", step=idx)
    return p if v is p.vertex and p.info is info else Placement(v, info)


def step(g: SignedGraph, state: np.ndarray, placement: Placement) -> np.ndarray:
    """Place on a Zero vertex and run one synchronous round. state must
    hold n integer label codes 0..3 (_label_codes), else InputError."""
    labels = _label_codes(state, g.n)
    p = _check_placement(g, labels, placement)
    return StepContext(g).step(labels, p.vertex, int(p.info))


def _trace(g: SignedGraph, mode: str, pick, count: int | None = None) -> Trace:
    """The run from the all-Zero state whose i-th placement (from 0) is
    pick(labels, heard, i), checked by _check_placement: count
    placements, or with count None, until no vertex is Zero.

    labels is the run's one bytearray of label codes, stepped in place.
    heard maps each Zero vertex that the last round's frontier (the
    vertices it informed) reaches to its hearing bits, as _heard gives
    them. pick reads both and changes neither.

    A round leaves no Zero neighbour next to any vertex that sent in it,
    so only the frontier and the placed vertex send in the next round,
    and heard is what a state sends. Each round computes heard once from
    its frontier's rows, and a step adds only the placed vertex's row.
    Each vertex is written once, with its step in when, and a counter of
    Zero vertices ends the run. So a run costs O(n + m) plus O(1) per
    placement, and O(n) memory, beyond what pick spends."""
    n = g.n
    rows = g._adj
    labels = bytearray(n)
    when = array("i", bytes(4 * n))
    heard = {}
    zeros = n
    placements = []
    i = 0  # steps taken
    while i != count if count is not None else zeros:
        p = _check_placement(g, labels, pick(labels, heard, i), mode, i + 1)
        placements.append(p)
        i += 1
        v, info = p.vertex, p.info
        labels[v] = info
        when[v] = i
        heard.pop(v, None)
        sends_a = 1 if info == _A else -1
        for w, sign in rows[v]:
            if not labels[w]:
                heard[w] = heard.get(w, 0) | (_A if sign == sends_a else _NEG_A)
        frontier = []
        for w, bits in heard.items():
            labels[w] = bits  # the hearing bits are the label codes A, -A, C
            when[w] = i
            if bits != _CONFUSED:
                frontier.append(w)
        zeros -= 1 + len(heard)
        heard = _heard(rows, labels, frontier)
    final = np.frombuffer(bytes(labels), dtype=np.int8)
    informed = np.frombuffer(when, dtype=np.intc).copy()
    informed[final == _ZERO] = i + 1
    return Trace(g, Strategy(mode, tuple(placements)), final, informed)


def run(g: SignedGraph, strategy: Strategy) -> Trace:
    """Run a full strategy from the all-Zero state."""
    given = strategy.placements
    return _trace(g, strategy.mode, lambda labels, heard, i: given[i], len(given))


def _level_array(trace: Trace) -> np.ndarray:
    if not trace.complete:
        raise InputError("levels are defined only for complete traces")
    out = trace.when.copy()
    placements = trace.strategy.placements
    out[[int(p.vertex) for p in placements]] = np.arange(len(placements))
    return out


def levels(trace: Trace) -> dict:
    """Level map of a complete trace.

    The j-th placed vertex has level j-1; every other vertex has the
    first step index at which its label became nonzero, when[v].
    """
    return dict(enumerate(_level_array(trace).tolist()))


def mirror_trace(trace: Trace) -> Trace:
    """Mirror a complete rID trace onto the negated signature.

    Placement values and final labels are negated exactly on odd-level
    vertices (confused stays confused), and when is kept, so every
    snapshot is mirrored alike; the result replays as a valid complete
    trace on negate_signature(graph) with the same confused set. Applying
    it twice returns the original trace.
    """
    if trace.strategy.mode != MODE_RID:
        raise InputError("mirror_trace expects an rID trace")
    if not trace.complete:
        raise InputError("mirror_trace expects a complete trace")
    odd = _level_array(trace) % 2 == 1
    placements = tuple(
        Placement(p.vertex, Label(p.info).negated() if odd[p.vertex] else Label(p.info))
        for p in trace.strategy.placements
    )
    final = np.where(odd, _NEGATED[trace.final], trace.final)
    return Trace(negate_signature(trace.graph), Strategy(MODE_RID, placements), final, trace.when)


def strategy_to_json(strategy: Strategy) -> list:
    return [
        {"vertex": p.vertex, "info": label_to_str(p.info)} for p in strategy.placements
    ]


def strategy_from_json(mode: str, payload: list) -> Strategy:
    if not isinstance(payload, list):
        raise InputError(f"placements must be a list, got {payload!r}")
    placements = []
    for item in payload:
        try:
            placements.append(Placement(item["vertex"], str_to_label(item["info"])))
        except (KeyError, TypeError):
            raise InputError(f"placement entry {item!r} needs 'vertex' and 'info'") from None
    return Strategy(mode, tuple(placements))


def trace_to_json(trace: Trace) -> dict:
    """The trace as a JSON document. `simulate` writes its json.dumps
    text, byte for byte, through `_dumps_trace`, which joins again only
    the snapshot chunks that change; the tests named
    test_dumps_trace_* in tests/test_engine.py tie the two, across chunk
    boundaries too."""
    return {
        "schema": 1,
        "graph": graph_to_json(trace.graph),
        "mode": trace.strategy.mode,
        "placements": strategy_to_json(trace.strategy),
        "snapshots": [[_LABEL_TEXT[b] for b in snap.tobytes()] for snap in trace.snapshots],
        "confused": list(trace.confused()),
        "complete": trace.complete,
    }


def _dumps_trace(trace: Trace) -> str:
    """json.dumps(trace_to_json(trace)), byte for byte, without a str per
    label. Each snapshot, one int8 label code per vertex, is cut into
    _SNAPSHOT_CHUNK-vertex chunks of its bytes. One list, row, holds the
    current snapshot's chunk texts (", "-joined label tokens) with their
    separators; each snapshot goes into the one list the document is
    joined from as "[" plus row, one list extend that runs in C.

    Between snapshots only the chunks that hold a vertex the step
    informed are joined again, read off when (_RunSnapshots._informed).
    A run informs each vertex once and never relabels it, so over a run
    at most n chunks are joined again. A trace of s snapshots on n
    vertices then costs ceil(n/64) chunk texts for the all-Zero state,
    one 64-token join per changed chunk, and s extends of 2 ceil(n/64)
    list entries."""
    head = json.dumps({
        "schema": 1,
        "graph": graph_to_json(trace.graph),
        "mode": trace.strategy.mode,
        "placements": strategy_to_json(trace.strategy),
    })
    tail = json.dumps({"confused": list(trace.confused()), "complete": trace.complete})
    tok = _LABEL_TOKENS
    size = _SNAPSHOT_CHUNK
    n = trace.graph.n
    # row[2c] is chunk c's text and row[2c + 1] the separator after it;
    # the last separator closes the snapshot (and is all of row when n = 0)
    zero = tok[_ZERO]
    row = []
    for i in range(0, n, size):
        row += (", ".join([zero] * min(size, n - i)), ", ")
    row[-1:] = ["], "]
    parts = [head[:-1], ', "snapshots": [']
    for labels, informed in trace.snapshots._informed():
        for c in {v // size for v in informed}:
            i = c * size
            row[2 * c] = ", ".join([tok[b] for b in labels[i:i + size]])
        parts.append("[")
        parts += row
    parts[-1] = "]], "  # the last snapshot closes the list
    parts.append(tail[1:])
    return "".join(parts)
