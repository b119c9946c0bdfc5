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
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import InputError, StrategyError
from .graph import SignedGraph, graph_to_json, negate_signature

MODE_ID = "ID"
MODE_RID = "rID"


class Label(IntEnum):
    ZERO = 0
    A = 1
    NEG_A = 2
    CONFUSED = 3

    def negated(self) -> "Label":
        if self is Label.A:
            return Label.NEG_A
        if self is Label.NEG_A:
            return Label.A
        return self


_ZERO = int(Label.ZERO)
_A = int(Label.A)
_NEG_A = int(Label.NEG_A)
_CONFUSED = int(Label.CONFUSED)
_LABEL_STR = {Label.ZERO: "0", Label.A: "A", Label.NEG_A: "-A", Label.CONFUSED: "C"}
_STR_LABEL = {s: l for l, s in _LABEL_STR.items()}
# label code -> its string, for whole snapshots at once
_LABEL_STRS = np.array([_LABEL_STR[Label(code)] for code in range(len(Label))], dtype=object)
# label code -> its JSON token, for snapshots written from their bytes
_LABEL_TOKENS = tuple(json.dumps(text) for text in _LABEL_STRS)
# vertices per snapshot chunk that _dumps_trace encodes once and reuses
_SNAPSHOT_CHUNK = 64


def label_to_str(label) -> str:
    return _LABEL_STR[Label(int(label))]


def str_to_label(text: str) -> Label:
    try:
        return _STR_LABEL[text]
    except KeyError:
        raise InputError(f"unknown label {text!r}, expected one of 0, A, -A, C") from None


@dataclass(frozen=True)
class Placement:
    vertex: int
    info: Label


@dataclass(frozen=True)
class Strategy:
    mode: str
    placements: tuple

    def __post_init__(self):
        if self.mode not in (MODE_ID, MODE_RID):
            raise InputError(f"mode must be {MODE_ID!r} or {MODE_RID!r}")
        object.__setattr__(self, "placements", tuple(self.placements))


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
    """Per-graph adjacency for the broadcast round. step and hearing run
    on int8 label arrays (other integer dtypes are converted on entry)
    over the graph's per-vertex (neighbour, sign) rows, O(n + m) memory
    at any n; expand runs on bitset states, ints
    a | b << n | c << 2n over the sets a, b and c of A, -A and C
    vertices, with the neighbour masks of _neighbour_masks (up
    to n^2/8 bytes), built on its first call. run, simulate and the
    greedy policies never build the masks.

    A round leaves no Zero neighbour next to any vertex that sent in it,
    so only the vertices it informed (its frontier) and the next placed
    vertex can reach anyone in the next round. step returns read-only
    int8 views of bytes and remembers the last one with its frontier:
    stepping or hearing that very object reads only the frontier's rows.
    On any other state every transmitter (A or -A) is a sender.
    """

    # perfbench's tracer keys its step byte count on this; it selects
    # nothing. ROADMAP item 1 deletes it with the tracer's reading.
    backend = "numpy"

    def __init__(self, g: SignedGraph):
        self.graph = g
        # (the state step returned last, its frontier), one tuple so that
        # it is always read and replaced whole
        self._last = None

    @cached_property
    def _masks(self):
        return _neighbour_masks(self.graph.n, self.graph.edges)

    def zeros_state(self) -> np.ndarray:
        return np.zeros(self.graph.n, dtype=np.int8)

    def _senders(self, labels: np.ndarray) -> list:
        last = self._last
        if last is not None and labels is last[0]:
            return last[1]
        return np.flatnonzero((labels == _A) | (labels == _NEG_A)).tolist()

    def step(self, labels: np.ndarray, vertex: int, info: int) -> np.ndarray:
        """labels after placing info on the Zero vertex `vertex` and one
        round, as a read-only int8 view of bytes. labels of any other
        integer dtype are read as int8 label codes."""
        labels = np.asarray(labels, dtype=np.int8)
        senders = self._senders(labels)
        buf = bytearray(labels.tobytes())
        buf[vertex] = info
        heard = _heard(self.graph._adj, buf, senders + [vertex])
        for w, bits in heard.items():
            buf[w] = bits  # the hearing bits are the label codes A, -A, C
        out = np.frombuffer(bytes(buf), dtype=np.int8)
        self._last = out, [w for w, bits in heard.items() if bits != _CONFUSED]
        return out

    def hearing(self, labels: np.ndarray) -> np.ndarray:
        """Hearing bits (1: hears A, 2: hears -A, 3: both) of the Zero
        vertices under the signals labels sends, 0 elsewhere. labels of
        any other integer dtype are read as int8 label codes."""
        labels = np.asarray(labels, dtype=np.int8)
        heard = _heard(self.graph._adj, labels.tobytes(), self._senders(labels))
        out = np.zeros(self.graph.n, dtype=np.int8)
        out[list(heard)] = list(heard.values())
        return out

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


@dataclass(eq=False)
class Trace:
    """A run of the process: snapshots[i] is the state after step i."""

    graph: SignedGraph
    strategy: Strategy
    snapshots: tuple
    complete: bool

    @property
    def steps(self) -> int:
        return len(self.snapshots) - 1

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]

    def confused(self) -> tuple:
        return tuple(int(v) for v in np.flatnonzero(self.final == int(Label.CONFUSED)))

    def confused_count(self) -> int:
        return len(self.confused())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.strategy == other.strategy
            and self.complete == other.complete
            and len(self.snapshots) == len(other.snapshots)
            and all(
                np.array_equal(a, b) for a, b in zip(self.snapshots, other.snapshots)
            )
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_placement(g: SignedGraph, labels: np.ndarray, p: Placement,
                     mode: str | None = None, idx: int | None = None) -> Label:
    """The placed value, once p is checked legal on labels (and in mode)."""
    where = "" if idx is None else f"step {idx}: "
    if not isinstance(p, Placement):
        raise InputError(f"{where}strategy entry {p!r} is not a Placement")
    v = p.vertex
    if isinstance(v, bool) or not (isinstance(v, int) and 0 <= v < g.n):
        raise InputError(f"{where}placement vertex {v!r} out of range")
    try:
        info = Label(p.info)
    except ValueError:
        raise InputError(f"{where}invalid placement value {p.info!r}") from None
    if mode == MODE_ID and info is not Label.A:
        raise StrategyError(f"{where}ID mode only places A", step=idx)
    if info not in (Label.A, Label.NEG_A):
        raise StrategyError(f"{where}placement value must be A or -A, got {info!r}", step=idx)
    if labels[v] != _ZERO:
        raise StrategyError(f"{where}vertex {v} is not Zero", step=idx)
    return info


def step(g: SignedGraph, state: np.ndarray, placement: Placement,
         ctx: StepContext | None = None) -> np.ndarray:
    """Place on a Zero vertex and run one synchronous round."""
    ctx = ctx or StepContext(g)
    labels = np.asarray(state)
    if labels.shape != (g.n,):
        raise InputError(f"state has shape {labels.shape}, expected {g.n} labels")
    if labels.dtype.kind not in "iu" or (g.n and not 0 <= labels.min() <= labels.max() <= 3):
        raise InputError("state labels must be integer codes 0..3")
    info = _check_placement(g, labels, placement)
    return ctx.step(labels, placement.vertex, int(info))


def _trace(g: SignedGraph, mode: str, ctx: StepContext, pick, count: int | None = None) -> Trace:
    """The run from the all-Zero state whose i-th placement (from 0) is
    pick(labels, i), checked by _check_placement on the state labels:
    count placements, or with count None, until no vertex is Zero."""
    labels = ctx.zeros_state()
    placements, snapshots = [], [_freeze(labels.copy())]
    while len(placements) != count if count is not None else (labels == _ZERO).any():
        p = pick(labels, len(placements))
        info = _check_placement(g, labels, p, mode, len(placements) + 1)
        labels = ctx.step(labels, p.vertex, int(info))
        placements.append(p)
        snapshots.append(labels)
    complete = not bool((labels == _ZERO).any())
    return Trace(g, Strategy(mode, tuple(placements)), tuple(snapshots), complete)


def run(g: SignedGraph, strategy: Strategy, ctx: StepContext | None = None) -> Trace:
    """Run a full strategy from the all-Zero state."""
    given = strategy.placements
    return _trace(g, strategy.mode, ctx or StepContext(g), lambda labels, i: given[i], len(given))


def levels(trace: Trace) -> dict:
    """Level map of a complete trace.

    The j-th placed vertex has level j-1; every other vertex has the
    first step index at which its label became nonzero.
    """
    if not trace.complete:
        raise InputError("levels are defined only for complete traces")
    placed = {p.vertex: j for j, p in enumerate(trace.strategy.placements, start=1)}
    out = {}
    for v in range(trace.graph.n):
        if v in placed:
            out[v] = placed[v] - 1
            continue
        for i in range(1, len(trace.snapshots)):
            if trace.snapshots[i][v] != _ZERO:
                out[v] = i
                break
    return out


def mirror_trace(trace: Trace) -> Trace:
    """Mirror a complete rID trace onto the negated signature.

    Placement values and snapshot labels are negated exactly on
    odd-level vertices (confused stays confused); the result replays as
    a valid complete trace on negate_signature(graph) with the same
    confused set. Applying it twice returns the original trace.
    """
    if trace.strategy.mode != MODE_RID:
        raise InputError("mirror_trace expects an rID trace")
    if not trace.complete:
        raise InputError("mirror_trace expects a complete trace")
    lv = levels(trace)
    odd = np.array([lv[v] % 2 == 1 for v in range(trace.graph.n)], dtype=bool)
    placements = tuple(
        Placement(p.vertex, p.info.negated() if odd[p.vertex] else Label(p.info))
        for p in trace.strategy.placements
    )
    snapshots = []
    for snap in trace.snapshots:
        out = snap.copy()
        was_a = odd & (snap == int(Label.A))
        was_neg = odd & (snap == int(Label.NEG_A))
        out[was_a] = int(Label.NEG_A)
        out[was_neg] = int(Label.A)
        snapshots.append(_freeze(out))
    return Trace(
        graph=negate_signature(trace.graph),
        strategy=Strategy(MODE_RID, placements),
        snapshots=tuple(snapshots),
        complete=True,
    )


def strategy_to_json(strategy: Strategy) -> list:
    return [
        {"vertex": p.vertex, "info": label_to_str(p.info)} for p in strategy.placements
    ]


def strategy_from_json(mode: str, payload: Iterable[dict]) -> Strategy:
    placements = []
    for item in payload:
        try:
            placements.append(Placement(item["vertex"], str_to_label(item["info"])))
        except (KeyError, TypeError):
            raise InputError(f"placement entry {item!r} needs 'vertex' and 'info'") from None
    return Strategy(mode, tuple(placements))


def trace_to_json(trace: Trace) -> dict:
    """The trace as a JSON document. `simulate` writes its json.dumps
    text, byte for byte, through `_dumps_trace`, which encodes snapshot
    chunks once and reuses their text; the tests named
    test_dumps_trace_* in tests/test_engine.py tie the two, across chunk
    boundaries too."""
    return {
        "schema": 1,
        "graph": graph_to_json(trace.graph),
        "mode": trace.strategy.mode,
        "placements": strategy_to_json(trace.strategy),
        "snapshots": [_LABEL_STRS[snap].tolist() for snap in trace.snapshots],
        "confused": list(trace.confused()),
        "complete": trace.complete,
    }


def _dumps_trace(trace: Trace) -> str:
    """json.dumps(trace_to_json(trace)), byte for byte, without a str per
    label. Each snapshot, one int8 label code per vertex, is cut into
    _SNAPSHOT_CHUNK-vertex chunks of its bytes; a memo local to this call
    maps each distinct chunk to its ", "-joined label tokens, and the
    chunk texts go straight into the one list the document is joined
    from.

    A run informs each vertex once and never relabels it, so consecutive
    snapshots differ only at the vertices the last round informed, and
    each such vertex makes at most one new chunk. A trace of s snapshots
    on n vertices then holds at most n + ceil(n/64) distinct chunks:
    O(64 n) token work and s * ceil(n/64) dict lookups, against n * s
    tokens when every snapshot is encoded whole. The bound holds only
    for traces made by `run`, whose snapshots are int8; on snapshots that
    differ everywhere every chunk is new and the memo only adds work."""
    head = json.dumps({
        "schema": 1,
        "graph": graph_to_json(trace.graph),
        "mode": trace.strategy.mode,
        "placements": strategy_to_json(trace.strategy),
    })
    tail = json.dumps({"confused": list(trace.confused()), "complete": trace.complete})
    tok = _LABEL_TOKENS
    n = trace.graph.n
    starts = range(0, n, _SNAPSHOT_CHUNK)
    memo = {}
    parts = [head[:-1], ', "snapshots": [']
    for snap in trace.snapshots:
        raw = snap.tobytes()
        parts.append("[")
        for i in starts:
            chunk = raw[i:i + _SNAPSHOT_CHUNK]
            text = memo.get(chunk)
            if text is None:
                text = memo[chunk] = ", ".join([tok[b] for b in chunk])
            parts += (text, ", ")
        if n:
            parts[-1] = "], "  # the last chunk's separator closes the snapshot
        else:
            parts.append("], ")
    parts[-1] = "]], "  # the last snapshot closes the list
    parts.append(tail[1:])
    return "".join(parts)
