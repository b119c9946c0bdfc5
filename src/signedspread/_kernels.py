"""The switching scan behind the frustration index.

frustration_scan counts the negative edges of all 2^(n-1) switchings as
bit planes of Python ints (bit slicing, Biham 1997), in a few ints of at
most 2^_BLOCK_BITS bits at any n, and picks the witness once in each
block of 2^_BLOCK_BITS switchings that reaches the minimum. Per call:
the best call of 6 processes, each making 20 calls at n <= 14, 5 at
n = 16..24 and 3 at n >= 26; and the largest peak RSS of those
processes. Random graphs draw m pairs and signs from
random.Random(1000 n + m); "triangle" is an all-negative triangle and 17
isolated vertices (393,216 tied masks), K24 the all-negative complete
graph (1,352,078 tied masks). 2-core Xeon VM, Python 3.11.

    n, m                  time       peak RSS
    12, 20                0.026 ms,  36.2 MB
    14, 91                0.14 ms,   36.2 MB
    16, 64 (ktt(8))       0.16 ms,   36.2 MB
    16, 120               0.31 ms,   36.2 MB
    18, 40                0.38 ms,   36.2 MB
    20, 3                 0.046 ms,  36.3 MB
    20, 3 (triangle)      0.23 ms,   36.4 MB
    20, 60                0.77 ms,   36.2 MB
    20, 100 (ktt(10))     0.80 ms,   36.4 MB
    20, 190               1.4 ms,    36.2 MB
    22, 80                4.2 ms,    36.2 MB
    24, 100               17 ms,     36.2 MB
    24, 276 (K24)         32 ms,     36.2 MB
    26, 120               80 ms,     36.2 MB
    28, 150               350 ms,    36.3 MB
"""

from __future__ import annotations

import functools
import importlib.util
from itertools import zip_longest

# perfbench/run.py stamps these into each run's environment record; they
# select nothing. ROADMAP item 1b deletes them with that stamp.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
ENV_FLAG = "SIGNEDSPREAD_BACKEND"


def resolve_backend() -> str:
    return "numpy"


# mask bits counted directly, one ripple-carry add per edge
_DIRECT_BITS = 12
# mask bits of a block; the switchings of the vertices above are enumerated
_BLOCK_BITS = 17


@functools.cache  # one entry per width up to _BLOCK_BITS, 0.56 MB in all
def _vertex_patterns(n_bits):
    """Per vertex w, the int whose bit x is 1 when mask x switches w (bit
    w - 1 of x), over the 2^n_bits masks; 0 for vertex 0. Each width
    doubles the one below: every pattern repeated, and vertex n_bits
    switching the upper half."""
    if n_bits == 0:
        return (0,)
    width = 1 << (n_bits - 1)
    below = _vertex_patterns(n_bits - 1)
    return (*[p | p << width for p in below], ((1 << width) - 1) << width)


def _add_row(planes, row):
    """Add the 0/1 count row into planes in place, by ripple carry."""
    for i, plane in enumerate(planes):
        planes[i] = plane ^ row
        row &= plane
        if not row:
            return
    if row:
        planes.append(row)


def _add(planes, other):
    """planes + other, both counts as bit planes, lowest plane first."""
    out, carry = [], 0
    for a, b in zip_longest(planes, other, fillvalue=0):
        half = a ^ b
        out.append(half ^ carry)
        carry = a & b | carry & half
    if carry:
        out.append(carry)
    return out


def _count(n_bits, edges):
    """The negative-edge counts of the 2^n_bits masks as bit planes
    (plane i holds bit i of every count). Edges with v > n_bits are left
    out."""
    low = min(n_bits, _DIRECT_BITS)
    direct = _vertex_patterns(low)
    width = 1 << low
    full = (1 << width) - 1
    planes = []
    back = [[] for _ in range(low, n_bits)] if n_bits > low else ()
    for u, v, s in edges:
        if v > low:
            if v <= n_bits:
                back[v - low - 1].append((u, s))
            continue
        carry = direct[u] ^ direct[v]
        if s < 0:
            carry ^= full
        # _add_row, inlined: a call per edge is a fifth of a small graph's scan
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    for bits, edges_v in enumerate(back, low):
        # the masks width..2 * width - 1 switch the next vertex
        planes = [p | p << width for p in planes]
        if edges_v:
            # its back edges, negative with it unswitched; switched, each flips
            pats = _vertex_patterns(bits)
            kept, flipped = [], []
            for u, s in edges_v:
                row = pats[u] if s > 0 else pats[u] ^ full
                _add_row(kept, row)
                _add_row(flipped, row ^ full)
            planes = _add(planes, [k | f << width for k, f in zip_longest(kept, flipped, fillvalue=0)])
        width <<= 1
        full = (1 << width) - 1
    return planes


def _minimum(planes, tied):
    """(best, tied): the least count in planes among the masks in tied, and those with it."""
    best = 0
    for i in range(len(planes) - 1, -1, -1):
        rest = tied ^ tied & planes[i]  # no negative ints: those cost a copy
        if rest:
            tied = rest
        else:
            best |= 1 << i
    return best, tied


def _smallest_tied_mask(edges, pats, tied) -> int:
    """The tied mask (a bit of tied) with the smallest negative_edges
    list: edge by edge, keep the masks under which the edge is negative
    whenever any does.
    pats[w] has bit x set when mask x switches vertex w."""
    for u, v, s in edges:
        if not tied & (tied - 1):
            break
        cut = tied & (pats[u] ^ pats[v])  # the tied masks that switch one end
        negative = tied ^ cut if s < 0 else cut
        if negative:
            tied = negative
    return (tied & -tied).bit_length() - 1


def negative_edges(edges, mask) -> list:
    """The (u, v) of the edges (u, v, sign) that switching mask leaves
    negative, in edge order. Bit w - 1 of mask switches vertex w."""
    side = mask << 1  # bit w is vertex w; vertex 0 is never switched
    # an edge is negative after the switch when its sign is, unless it is cut
    return [(u, v) for u, v, s in edges if (s < 0) ^ (side >> u ^ side >> v) & 1]


def frustration_scan(n, edges):
    """(best, mask): the fewest negative edges over all switchings of
    the signed graph with sorted edges (u, v, sign) on n >= 2 vertices,
    and the switching with the smallest sorted negative edge list among
    those (the smallest mask on a tie). Bit w - 1 of a mask switches
    vertex w; none switches vertex 0.

    Masks are counted and picked from in blocks of the low _BLOCK_BITS
    bits, where an edge from u below to t above is an edge 0-u whose
    sign flips when t is switched. Of the blocks' winners at the
    minimum, the one with the smallest negative_edges list wins, the
    first on a tie.
    """
    n_bits = n - 1
    low = min(n_bits, _BLOCK_BITS)
    pats = _vertex_patterns(low)
    planes = _count(low, edges)
    # in a block an edge between vertices above low, or from vertex 0 to
    # one, is a constant; those from u below count a or b as u is switched
    fixed, links = [], {}
    for u, v, s in edges:
        if v > low:
            if 0 < u <= low:
                links.setdefault(u, []).append((v, s))
            else:
                fixed.append((u, v, s))
    wide = (1 << (1 << low)) - 1
    best = pick = None
    for block in range(1 << (n_bits - low)):
        side = block << low + 1  # bit w is vertex w, for w > low
        kept, const = [], 0
        for u, v, s in fixed:
            const += (s < 0) ^ (side >> u & 1) ^ (side >> v & 1)
        for u, ends in links.items():
            a = sum((s < 0) ^ (side >> v & 1) for v, s in ends)
            b = len(ends) - a
            const += min(a, b)  # and the rest on the side that has more
            for _ in range(abs(a - b)):
                _add_row(kept, pats[u] ^ wide if a > b else pats[u])
        count, tied = _minimum(_add(planes, kept) if kept else planes, wide)
        count += const
        if best is not None and count > best:
            continue
        if count == 0:  # no tied mask has a negative edge: take the smallest
            return 0, (tied & -tied).bit_length() - 1 | block << low
        # a vertex above low is switched in all of the block's masks or in none
        top = (*pats, *[wide if side >> w & 1 else 0 for w in range(low + 1, n)])
        mask = _smallest_tied_mask(edges, top, tied) | block << low
        if best is None or count < best:
            best, pick = count, mask
        elif negative_edges(edges, mask) < negative_edges(edges, pick):
            pick = mask
    return best, pick
