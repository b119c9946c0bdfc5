"""Numerical kernels: the broadcast round and the switching scan.

The broadcast round is plain Python over per-vertex signed neighbour
rows. heard ORs what a list of senders sends into their Zero neighbours.
A round never leaves a Zero neighbour next to a vertex that sent in it,
so StepContext.step passes only the vertices the last round informed
plus the placed vertex, and reads O(sum of their degrees) row entries
on top of an O(n) byte copy of the state. run, simulate and the greedy
policies step this way, in O(n + m) memory at any n.

The exact search expands bitset states instead (StepContext.expand),
one Python int a | b << n | c << 2n over the sets a, b and c of A, -A
and C vertices. neighbour_masks gives each vertex the bitsets of its
positive and negative neighbours: hearing is the OR of the transmitters'
masks, and a child a few bit operations against the Zero set.

The switching scan behind the frustration index builds the negative-edge
count of all 2^(n-1) switchings in one numpy table by doubling, one
vertex at a time after a directly counted base table, in O(2^(n-1))
memory (a few bytes per switching) and O(2^(n-1)) time times one plus
the average back-degree, and returns the minimum with every mask
attaining it; graph.frustration_index refuses
n > FRUSTRATION_SCAN_MAX_N (28) before the table exists.

Label codes: 0 = Zero (uninformed), 1 = A, 2 = -A, 3 = C (confused).
A Zero vertex adopts the unique signed value it hears from informed
neighbors (edge sign times the neighbor's value), becomes confused when
it hears both values, and stays Zero when it hears nothing. Confused
vertices transmit nothing. The placed vertex keeps its placed value.
"""

from __future__ import annotations

import importlib.util

import numpy as np

# perfbench/run.py stamps these into each run's environment record; they
# select nothing. ROADMAP item 1 deletes them with that stamp.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
ENV_FLAG = "SIGNEDSPREAD_BACKEND"


def resolve_backend() -> str:
    return "numpy"


INFO_A = 1
INFO_NEG_A = 2

# the switching scan counts the table of this many low mask bits directly:
# below it, numpy's fixed cost per call outweighs the doubling's savings
_BASE_BITS = 8


# ---------------------------------------------------------------------------
# broadcast round on per-vertex signed rows


def heard(rows, labels, senders):
    """{Zero vertex: hearing bits} of what the senders send (1: hears A,
    2: hears -A, 3: both). rows[v] lists v's (neighbour, edge sign)
    pairs; labels is indexable by vertex (bytes or a bytearray of label
    codes) and gives each sender's value, A or -A."""
    out = {}
    get = out.get
    for s in senders:
        # the edge sign under which s's value arrives as A
        sends_a = 1 if labels[s] == INFO_A else -1
        for w, sign in rows[s]:
            if not labels[w]:
                out[w] = get(w, 0) | (INFO_A if sign == sends_a else INFO_NEG_A)
    return out


def neighbour_masks(n, edges):
    """(pos, neg): per-vertex bitsets of the positive and of the negative
    neighbours, bit w of pos[v] set when v and w share a positive edge."""
    pos, neg = [0] * n, [0] * n
    for u, v, s in edges:
        side = pos if s > 0 else neg
        side[u] |= 1 << v
        side[v] |= 1 << u
    return pos, neg


# ---------------------------------------------------------------------------
# switching scan


def frustration_scan_numpy(shift_u, shift_v, eneg, n_masks):
    """Minimum negative-edge count over all switchings, and its masks.

    Masks encode switch sets over vertices 1..n-1: bit b is vertex b + 1,
    and vertex 0 is pinned outside (shift 63). Returns (best, every mask
    attaining it in increasing order as an int64 array).

    The count of every mask is built in one table by doubling. Each edge
    is charged once, at its later bit (an edge to vertex 0 at its other
    end). The table of the low _BASE_BITS bits is counted directly, in
    one broadcast over masks and the edges charged there. Each further
    bit b doubles it: with bits 0..b-1 placed, c0[mask] counts the
    negative edges among b's back edges when b is not switched, and
    switching b flips each of its d back edges, so the table for bits
    0..b is [counts + c0, counts + d - c0]. That costs
    O(2^(n-1) * (1 + average back-degree)) time and a few bytes per mask,
    in the narrowest unsigned dtype that holds m.
    """
    dtype = np.min_scalar_type(len(shift_u))
    n_bits = n_masks.bit_length() - 1
    lo, hi = np.minimum(shift_u, shift_v), np.maximum(shift_u, shift_v)
    pinned = hi == 63
    hi[pinned], lo[pinned] = lo[pinned], 63
    low_bits = min(n_bits, _BASE_BITS)
    base = hi < low_bits
    # a mask shifted by 63 is 0: vertex 0 is never switched
    masks = np.arange(1 << low_bits)[:, None]
    flip = ((masks >> lo[base]) ^ (masks >> hi[base])) & 1
    counts = (flip ^ eneg[base]).sum(axis=1, dtype=dtype)
    back = [[] for _ in range(n_bits)]
    for a, b, e in zip(lo[~base].tolist(), hi[~base].tolist(), eneg[~base].tolist()):
        back[b].append((a, e))
    for b in range(low_bits, n_bits):
        half = 1 << b
        c0 = np.zeros(half, dtype=dtype)
        # with b unswitched, an edge to vertex 0 is negative iff its sign
        # is, and an edge to bit a iff bit a of the mask is 1 - e
        for a, e in back[b]:
            if a == 63:
                c0 += e
            else:
                c0.reshape(-1, 2, 1 << a)[:, 1 - e, :] += 1
        out = np.empty(2 * half, dtype=dtype)
        np.add(counts, c0, out=out[:half])
        np.subtract(len(back[b]), c0, out=out[half:])
        out[half:] += counts
        counts = out
    best = int(counts.min())
    return best, np.flatnonzero(counts == best)

