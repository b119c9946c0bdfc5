"""Numerical kernels: the broadcast round and the switching scan.

One broadcast round and child expansion run on a CSR adjacency in numpy.
The switching scan behind the frustration index exists twice, compiled
with numba and in pure numpy (which finds the minimum and every mask
attaining it in one pass); the environment variable
SIGNEDSPREAD_BACKEND ("numba" or "numpy"; unset/auto picks numba when it
is importable and numpy otherwise) chooses between those two.

Label codes: 0 = Zero (uninformed), 1 = A, 2 = -A, 3 = C (confused).
A Zero vertex adopts the unique signed value it hears from informed
neighbors (edge sign times the neighbor's value), becomes confused when
it hears both values, and stays Zero when it hears nothing. Confused
vertices transmit nothing. The placed vertex keeps its placed value.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

ENV_FLAG = "SIGNEDSPREAD_BACKEND"

ZERO = 0
INFO_A = 1
INFO_NEG_A = 2
CONFUSED = 3

_CHUNK = 1 << 16


def resolve_backend(override: str | None = None) -> str:
    """Map an explicit override or the env flag to "numba" or "numpy"."""
    req = (override or os.environ.get(ENV_FLAG, "auto") or "auto").strip().lower()
    if req in ("", "auto"):
        return "numba" if HAVE_NUMBA else "numpy"
    if req == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("backend 'numba' requested but numba is not importable")
        return "numba"
    if req == "numpy":
        return "numpy"
    raise RuntimeError(f"unknown backend {req!r} (expected 'numba' or 'numpy')")


# ---------------------------------------------------------------------------
# broadcast round on a CSR adjacency: row w of (indptr, nbrs, sgn) lists the
# neighbors of w and the edge signs; rows[e] is the vertex owning entry e

# value a label transmits: A +1, -A -1, Zero and C nothing
_SIGNAL = np.array([0, 1, -1, 0], dtype=np.int8)
# hearing bit of a received signal, indexed by the signal: +1 -> A, and
# -1, which numpy reads as the last entry, -> -A
_HEARS = np.array([0, INFO_A, INFO_NEG_A], dtype=np.int8)


def csr_adjacency(n, edges):
    """(indptr, nbrs, sgn, rows) of an undirected (u, v, sign) edge list."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    src = np.concatenate((e[:, 0], e[:, 1]))
    order = np.argsort(src, kind="stable")
    nbrs = np.concatenate((e[:, 1], e[:, 0]))[order]
    sgn = np.concatenate((e[:, 2], e[:, 2])).astype(np.int8)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, nbrs, sgn, src[order]


def hearing(csr, labels):
    """Per-vertex hearing bits of what labels sends (1: hears A, 2: hears
    -A, 3: both), for every vertex whatever its own label."""
    _, nbrs, sgn, rows = csr
    sig = _SIGNAL[labels][nbrs] * sgn
    heard = np.zeros(labels.shape[0], dtype=np.int8)
    heard[rows[sig > 0]] = INFO_A
    heard[rows[sig < 0]] |= INFO_NEG_A
    return heard


def place_and_round(csr, labels, verts, infos):
    """Children of `labels`, row i placing infos[i] on Zero vertex verts[i].

    A Zero vertex's hearing is a bit set (1: hears A, 2: hears -A) whose
    value is its new label code. Placing on v only adds v's own row of
    signals to what the current state sends, so the hearing of the
    current state is computed once and each row ORs in its vertex's row.
    Costs O(n + m) plus O(n + deg v) per row; rows keep labels' dtype.
    """
    indptr, nbrs, sgn, _ = csr
    heard = hearing(csr, labels)
    zero = labels == ZERO
    base = labels.copy()
    base[zero] = heard[zero]

    k = len(verts)
    lo = indptr[verts]
    deg = indptr[verts + 1] - lo
    # CSR entries of each candidate's row, concatenated, and their output row
    row = np.repeat(np.arange(k), deg)
    ent = np.arange(row.shape[0]) + np.repeat(lo - (np.cumsum(deg) - deg), deg)
    w = nbrs[ent]
    # only Zero neighbors listen; the bit is 0 for the others. The graph is
    # simple, so no (row, w) pair repeats and the fancy |= loses no bit.
    bits = _HEARS[sgn[ent] * _SIGNAL[infos][row]] * zero[w]
    children = np.repeat(base[None], k, axis=0)
    children[row, w] |= bits
    children[np.arange(k), verts] = infos
    return children


# ---------------------------------------------------------------------------
# pure-numpy switching scan


def frustration_scan_numpy(shift_u, shift_v, eneg, n_masks):
    """Minimum negative-edge count over all switchings, scanned by mask.

    Masks encode switch sets over vertices 1..n-1 (vertex 0 is pinned
    outside). Returns (best, every mask attaining it in increasing
    order as an int64 array), both gathered in one chunked pass.
    """
    m = len(shift_u)
    best = m + 1
    tied = []
    # uint64 >> int64 has no safe common type in numpy; shift as uint64
    su = shift_u.astype(np.uint64)
    sv = shift_v.astype(np.uint64)
    eneg64 = [np.uint64(x) for x in eneg]
    one = np.uint64(1)
    for lo in range(0, n_masks, _CHUNK):
        hi = min(lo + _CHUNK, n_masks)
        masks = np.arange(lo, hi, dtype=np.uint64)
        counts = np.zeros(hi - lo, dtype=np.int64)
        for j in range(m):
            flip = ((masks >> su[j]) ^ (masks >> sv[j])) & one
            counts += (flip ^ eneg64[j]).astype(np.int64)
        cbest = int(counts.min())
        if cbest < best:
            best, tied = cbest, []
        if cbest == best:
            tied.append(masks[counts == best].astype(np.int64))
    return best, np.concatenate(tied)


# ---------------------------------------------------------------------------
# numba switching scan

if HAVE_NUMBA:

    @njit(cache=True)
    def frustration_scan_numba(shift_u, shift_v, eneg, n_masks):
        m = shift_u.shape[0]
        best = m + 1
        first_mask = 0
        ties = 0
        for mask in range(n_masks):
            c = 0
            for j in range(m):
                flip = ((mask >> shift_u[j]) ^ (mask >> shift_v[j])) & 1
                c += flip ^ eneg[j]
                if c > best:
                    break
            if c < best:
                best = c
                first_mask = mask
                ties = 1
            elif c == best:
                ties += 1
        return best, first_mask, ties

    @njit(cache=True)
    def frustration_collect_numba(shift_u, shift_v, eneg, n_masks, target, out):
        m = shift_u.shape[0]
        k = 0
        for mask in range(n_masks):
            c = 0
            for j in range(m):
                flip = ((mask >> shift_u[j]) ^ (mask >> shift_v[j])) & 1
                c += flip ^ eneg[j]
                if c > target:
                    break
            if c == target:
                out[k] = mask
                k += 1
        return k
