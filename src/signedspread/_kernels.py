"""The switching scan behind the frustration index.

It builds the negative-edge count of all 2^(n-1) switchings in one numpy
table by doubling, one vertex at a time after a directly counted base
table, in O(2^(n-1)) memory (a few bytes per switching) and O(2^(n-1))
time times one plus the average back-degree, and returns the minimum
with every mask attaining it; graph.frustration_index refuses
n > FRUSTRATION_SCAN_MAX_N (28) before the table exists.
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

