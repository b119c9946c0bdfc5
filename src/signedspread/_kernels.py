"""The switching scan behind the frustration index.

frustration_scan counts the negative edges of all 2^(n-1) switchings as
bit planes of Python ints (bit slicing, Biham 1997), in a few ints of at
most 2^_BLOCK_BITS bits at any n. Per call before (the numpy doubling
table, now tests/frustration_table.py, where m * 2^(n-1) > 2^20; direct
bit planes on rows marked *) and now: the best call in 6 processes per
side over two rounds of 5 calls (also 6 of 20 calls at n = 12 and 14, 4
of 3 at n >= 26), and their largest peak RSS, 35.5 MB once signedspread
is imported. Random graphs draw m pairs and signs from
random.Random(1000 n + m); "triangle" is an all-negative triangle and 17
isolated vertices (393,216 tied masks). 2-core Xeon VM, Python 3.11,
numpy 2.4.

    n, m                  before               now
    12, 20 *              0.024 ms,  35.7 MB   0.022 ms, 35.7 MB
    14, 91 *              0.22 ms,   35.8 MB   0.19 ms,  35.8 MB
    16, 64 (ktt(8))       0.39 ms,   36.0 MB   0.20 ms,  35.6 MB
    16, 120               0.55 ms,   36.0 MB   0.37 ms,  35.7 MB
    18, 40                0.48 ms,   36.0 MB   0.37 ms,  35.7 MB
    20, 3                 1.4 ms,    37.5 MB   0.15 ms,  35.7 MB
    20, 3 (triangle)      8.9 ms,    46.7 MB   1.8 ms,   35.6 MB
    20, 60                1.5 ms,    37.1 MB   0.83 ms,  35.6 MB
    20, 100 (ktt(10))     4.1 ms,    37.2 MB   1.0 ms,   35.6 MB
    20, 190               4.6 ms,    37.1 MB   1.7 ms,   35.8 MB
    22, 80                7.3 ms,    41.2 MB   4.3 ms,   35.6 MB
    24, 100               33 ms,     57.1 MB   17 ms,    35.7 MB
    26, 120               88 ms,    121.0 MB   80 ms,    35.8 MB
    28, 150               603 ms,   356.2 MB   373 ms,   35.6 MB
"""

from __future__ import annotations

import functools
import importlib.util
from itertools import zip_longest

# perfbench/run.py stamps these into each run's environment record; they
# select nothing. ROADMAP item 1 deletes them with that stamp.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
ENV_FLAG = "SIGNEDSPREAD_BACKEND"


def resolve_backend() -> str:
    return "numpy"


# mask bits counted directly, one ripple-carry add per edge; the masks
# of a chunk of the witness pick
_DIRECT_BITS = 12
# mask bits of a block; the switchings of the vertices above are enumerated
_BLOCK_BITS = 17


def _widen(pats, bits, n_bits):
    """Vertex patterns over 2^bits masks widened to 2^n_bits: each one
    repeated, and each further vertex switching the upper half."""
    width = 1 << bits
    for _ in range(bits, n_bits):
        pats = [p | p << width for p in pats] + [((1 << width) - 1) << width]
        width <<= 1
    return pats


@functools.cache  # one entry per width up to _DIRECT_BITS, filled on first use
def _vertex_patterns(n_bits):
    """Per vertex w, the int whose bit x is 1 when mask x switches w (bit
    w - 1 of x), over the 2^n_bits masks; 0 for vertex 0."""
    return tuple(_widen([0], 0, n_bits))


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


def _count(n_bits, edges, pats):
    """(planes, rows): the negative-edge counts of the 2^n_bits masks as
    bit planes (plane i holds bit i of every count), and the rows of the
    edges counted directly. Edges with v > n_bits are left out; pats are
    vertex patterns at least as wide as any back edge's row."""
    low = min(n_bits, _DIRECT_BITS)
    direct = _vertex_patterns(low)
    width = 1 << low
    full = (1 << width) - 1
    planes, rows = [], []
    back = [[] for _ in range(low, n_bits)] if n_bits > low else ()
    for u, v, s in edges:
        if v > low:
            if v <= n_bits:
                back[v - low - 1].append((u, s))
            continue
        carry = direct[u] ^ direct[v]
        if s < 0:
            carry ^= full
        rows.append(carry)
        # _add_row, inlined: a call per edge is a fifth of a small graph's scan
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    for edges_v in back:
        # the masks width..2 * width - 1 switch the next vertex
        planes = [p | p << width for p in planes]
        if edges_v:
            # its back edges, negative with it unswitched; switched, each flips
            kept, flipped = [], []
            for u, s in edges_v:
                row = pats[u] & full if s > 0 else pats[u] & full ^ full
                _add_row(kept, row)
                _add_row(flipped, row ^ full)
            planes = _add(planes, [k | f << width for k, f in zip_longest(kept, flipped, fillvalue=0)])
        width <<= 1
        full = (1 << width) - 1
    return planes, rows


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


def _smallest_tied_mask(rows, tied) -> int:
    """The tied mask (a bit of tied) with the largest negative-edge
    indicator, so the smallest sorted negative edge list: edge by edge,
    keep the masks whose row (bit x set when the edge is negative under
    mask x) has the edge negative whenever any does."""
    for row in rows:
        if not tied & (tied - 1):
            break
        negative = tied & row
        if negative:
            tied = negative
    return (tied & -tied).bit_length() - 1


def _indicator(edges, mask) -> int:
    """The negative edges after switching mask, as an int whose most
    significant of m bits is the first edge."""
    side = mask << 1  # bit w is vertex w; vertex 0 is never switched
    out = 0
    for u, v, sign in edges:
        out = out << 1 | ((sign < 0) ^ (side >> u & 1) ^ (side >> v & 1))
    return out


def frustration_scan(n, edges):
    """(best, mask): the fewest negative edges over all switchings of
    the signed graph with sorted edges (u, v, sign) on n >= 2 vertices,
    and the switching with the smallest sorted negative edge list among
    those (the smallest mask on a tie). Bit w - 1 of a mask switches
    vertex w; none switches vertex 0.

    Past _DIRECT_BITS bits, masks are counted in blocks of the low
    _BLOCK_BITS bits and picked from in chunks of the low _DIRECT_BITS,
    where an edge from u below to t above is an edge 0-u whose sign
    flips when t is switched. Of the chunks' winners at the minimum, the
    one with the largest negative-edge indicator wins, the first on a tie.
    """
    n_bits = n - 1
    if n_bits <= _DIRECT_BITS:  # one block, one chunk
        planes, rows = _count(n_bits, edges, ())
        best, tied = _minimum(planes, (1 << (1 << n_bits)) - 1)
        return best, _smallest_tied_mask(rows, tied) if best else (tied & -tied).bit_length() - 1
    low = min(n_bits, _BLOCK_BITS)
    # back rows span at most half a block; rows of edges to vertices above, all
    pats = _widen(_vertex_patterns(_DIRECT_BITS), _DIRECT_BITS, low if n_bits > low else low - 1)
    planes, rows = _count(low, edges, pats)
    # in a block an edge between vertices above low, or from vertex 0 to
    # one, is a constant; those from u below count a or b as u is switched
    fixed = [e for e in edges if e[1] > low and not 0 < e[0] <= low]
    links = {}
    for u, v, s in edges:
        if v > low and 0 < u <= low:
            links.setdefault(u, []).append((v, s))
    wide = (1 << (1 << low)) - 1
    bits = _DIRECT_BITS
    full = (1 << (1 << bits)) - 1
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
        chunk = block << (low - bits)  # the chunk of tied's bit 0
        while tied:
            skip = (tied & -tied).bit_length() - 1 >> bits
            part = tied >> (skip << bits) & full
            tied >>= skip + 1 << bits
            chunk += skip
            side = chunk << bits + 1  # bit w is vertex w, for w > bits
            if part & (part - 1):
                # the chunk's rows in order: the count's for edges below
                # bits, built here for those to a vertex above
                direct_rows = iter(rows)
                part = 1 << _smallest_tied_mask(
                    (next(direct_rows) if v <= bits
                     else pats[u] & full ^ (full if (s < 0) ^ (side >> v & 1) else 0)
                     for u, v, s in edges if u <= bits), part)
            mask = part.bit_length() - 1 | chunk << bits
            if best is None or count < best:
                best, pick = count, mask
            elif _indicator(edges, mask) > _indicator(edges, pick):
                pick = mask
            chunk += 1
    return best, pick
