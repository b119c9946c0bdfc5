"""The switching scan behind the frustration index, in two forms.

frustration_scan_numpy builds the negative-edge count of all 2^(n-1)
switchings in one numpy table by doubling, one vertex at a time after a
directly counted base table, in O(2^(n-1)) memory (a few bytes per
switching) and O(2^(n-1)) time times one plus the average back-degree,
and returns the minimum with every mask attaining it;
graph.frustration_index refuses n > FRUSTRATION_SCAN_MAX_N (28) before
the table exists.

frustration_scan_planes counts the same switchings as bit planes of
Python ints, a few int operations per edge and no numpy call, so it
skips numpy's fixed cost per call, which is most of a small graph's
scan. Its work grows as m * 2^(n-1) where the table's grows as
2^(n-1) * (1 + average back-degree), so graph.frustration_index takes
the planes while m * 2^(n-1) <= PLANE_SCAN_MAX_BITS (2^20), and the
table above. The numpy table stays the tests' reference. Per call,
median of 3 random graphs, each timed best of 5 (2-core Xeon VM,
Python 3.11, numpy 2.4):

    n, m          m * 2^(n-1)   numpy    planes
    12, 20        2^15.3        186 us   26 us
    14, 91        2^19.5        528 us   278 us
    15, 64        2^20          486 us   371 us
    20, 2         2^20          2.0 ms   0.14 ms
    16, 64        2^21          603 us   491 us
    18, 16        2^21          464 us   474 us
    16, 120       2^21.9        1.0 ms   1.3 ms
    18, 40        2^22.3        538 us   1127 us

The gate stays below 2^21, where the two cross, with ktt_tau(8)
(n = 16, m = 64, exactly 2^21) on the numpy side.
"""

from __future__ import annotations

import functools
import importlib.util

import numpy as np

# perfbench/run.py stamps these into each run's environment record; they
# select nothing. ROADMAP item 1 deletes them with that stamp.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
ENV_FLAG = "SIGNEDSPREAD_BACKEND"


def resolve_backend() -> str:
    return "numpy"


# the switching scan counts the table of this many low mask bits directly:
# below it, numpy's fixed cost per call outweighs the doubling's savings
_BASE_BITS = 8


def frustration_scan_numpy(lo, hi, eneg, n_masks):
    """Minimum negative-edge count over all switchings, and its masks.

    Masks encode switch sets over vertices 1..n-1: bit b is vertex b + 1,
    and vertex 0 is pinned outside (shift 63). Per edge u < v, lo is the
    shift of u and hi, always below 63, the shift of v, as
    graph._edge_shift_arrays gives them. Returns (best, every mask
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
    dtype = np.min_scalar_type(len(lo))
    n_bits = n_masks.bit_length() - 1
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


# graph.frustration_index runs frustration_scan_planes while m * 2^(n-1),
# the bits of all its edge rows together, is at most this, and the numpy
# table above it (crossover table in the module docstring)
PLANE_SCAN_MAX_BITS = 1 << 20
# bit x of _PERIODS[j] * k is bit j of x, for j < 3 and x < 8k
_PERIODS = (b"\xaa", b"\xcc", b"\xf0")


@functools.cache  # one entry per mask width, filled on first use
def _vertex_patterns(n_bits):
    """Per vertex w, the int whose bit x is 1 when mask x switches w (bit
    w - 1 of x), over the 2^n_bits masks; 0 for vertex 0, which no mask
    switches. A plane scan admitted by PLANE_SCAN_MAX_BITS has m >= 1, so
    n_bits <= 20 and the cache holds at most 21 entries of n_bits * 2^n_bits
    bits."""
    width = 1 << n_bits
    full = (1 << width) - 1
    out = [0]
    for j in range(n_bits):
        # runs of 2^j zeros, then 2^j ones; bytes from j = 3 on
        period = _PERIODS[j] if j < 3 else bytes(1 << (j - 3)) + b"\xff" * (1 << (j - 3))
        reps = max(1, width // (8 * len(period)))
        out.append(int.from_bytes(period * reps, "little") & full)
    return tuple(out)


def frustration_scan_planes(n, edges):
    """frustration_scan_numpy's minimum and tied masks, as bit planes of
    Python ints, for small inputs.

    edges are (u, v, sign) triples on vertices 0..n-1; masks are
    frustration_scan_numpy's (bit b is vertex b + 1, vertex 0 pinned). An
    edge's row is the int whose bit x is 1 when the edge is negative after
    switching mask x: its ends' vertex patterns XORed, complemented when
    its sign is negative. The counts of all masks are kept as bit planes,
    plane i holding bit i of every count, and each row is added into them
    by ripple carry, so every mask is counted at once in a few int
    operations per edge (bit slicing, Biham 1997). A pass from the top
    plane down then keeps, plane by plane, the masks whose count bit is 0
    whenever any of those left has it. Returns (best, tied, rows): the
    minimum, the int whose bit x is set when mask x attains it, and each
    edge's row in the order given.
    """
    patterns = _vertex_patterns(n - 1)
    full = (1 << (1 << (n - 1))) - 1
    planes = []
    rows = []
    for u, v, sign in edges:
        carry = patterns[u] ^ patterns[v]
        if sign < 0:
            carry ^= full
        rows.append(carry)
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    best, tied = 0, full
    for i in range(len(planes) - 1, -1, -1):
        low = tied & ~planes[i]
        if low:
            tied = low
        else:
            best |= 1 << i
    return best, tied, rows
