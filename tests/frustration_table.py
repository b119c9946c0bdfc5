"""The numpy doubling table that counted every switching before the bit
planes of _kernels.frustration_scan, with its witness pick: the
reference the scan is property-tested against. table_frustration gives
frustration_index's value and witness from it."""

from itertools import chain

import numpy as np

# the table of this many low mask bits is counted directly, in one broadcast
BASE_BITS = 8


def edge_shift_arrays(g):
    """(shift_u, shift_v, eneg): per edge, the mask bits of its ends and
    whether its sign is negative."""
    u, v, s = np.fromiter(chain.from_iterable(g.edges), dtype=np.int64,
                          count=3 * g.m).reshape(-1, 3).T
    # vertex w is mask bit w - 1, and vertex 0, pinned outside every switch
    # set, wraps to shift 63, so (mask >> 63) == 0 for all masks used here
    return (u - 1) & 63, (v - 1) & 63, (s < 0).astype(np.int64)


def table_scan(lo, hi, eneg, n_masks):
    """Minimum negative-edge count over all switchings, and its masks.

    Masks encode switch sets over vertices 1..n-1: bit b is vertex b + 1,
    and vertex 0 is pinned outside (shift 63). Per edge u < v, lo is the
    shift of u and hi, always below 63, the shift of v, as
    edge_shift_arrays gives them. Returns (best, every mask attaining it
    in increasing order as an int64 array).

    The count of every mask is built in one table by doubling. Each edge
    is charged once, at its later bit (an edge to vertex 0 at its other
    end). The table of the low BASE_BITS bits is counted directly, in
    one broadcast over masks and the edges charged there. Each further
    bit b doubles it: with bits 0..b-1 placed, c0[mask] counts the
    negative edges among b's back edges when b is not switched, and
    switching b flips each of its d back edges, so the table for bits
    0..b is [counts + c0, counts + d - c0], in the narrowest unsigned
    dtype that holds m.
    """
    dtype = np.min_scalar_type(len(lo))
    n_bits = n_masks.bit_length() - 1
    low_bits = min(n_bits, BASE_BITS)
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


def table_witness_mask(shift_u, shift_v, eneg, masks) -> int:
    """A tied mask whose negative edges form the lexicographically
    smallest sorted edge list.

    Tied sets share one size and edges are in sorted order, so that list
    has the lexicographically largest negative-edge indicator row. Edge
    by edge, keep the masks that make the edge negative whenever any do.
    """
    # masks are int64 below 2^27, so a shift by 63 reads vertex 0 as 0
    for su, sv, neg in zip(shift_u.tolist(), shift_v.tolist(), eneg.tolist()):
        if len(masks) == 1:
            break
        negative = ((masks >> su) ^ (masks >> sv)) & 1 != neg
        if negative.any():
            masks = masks[negative]
    return int(masks[0])


def table_frustration(g):
    """frustration_index(g)'s (value, witness), from the table and its
    witness pick."""
    if g.m == 0:
        return 0, frozenset()
    shift_u, shift_v, eneg = edge_shift_arrays(g)
    best, masks = table_scan(shift_u, shift_v, eneg, 1 << (g.n - 1))
    if best == 0:
        return 0, frozenset()
    mask = table_witness_mask(shift_u, shift_v, eneg, masks)
    # an edge is negative after the switch when its sign is, unless it is cut
    return best, frozenset(
        e[:2] for e, su, sv, neg in zip(g.edges, shift_u.tolist(), shift_v.tolist(), eneg.tolist())
        if (mask >> su ^ mask >> sv) & 1 != neg)
