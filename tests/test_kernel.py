"""The packed enumeration kernel against the byte equality scan it replaced.

``byte_scan_distribution`` is the former ``distance._weight_distribution``:
it tables the suffix block with ``np.vstack`` and folds each lead-one prefix
in with ``block == t`` and ``count_nonzero``.  It stays here, and only here,
as the reference: the bit-plane kernel must return the same counts, best
weight, best message, completion flag and op count, with and without an
early stop.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constacyclic import distance
from constacyclic.galois import tower_for


def _suffix_block(G, tables, rows):
    q = tables.q
    n = G.shape[1]
    block = np.zeros((1, n), dtype=np.uint8)
    for r in rows:
        parts = [block]
        for s in range(1, q):
            srow = tables.mul[s, G[r]]
            parts.append(tables.add[block, srow[None, :]])
        block = np.vstack(parts)
    return block


def _combine(G, tables, msg):
    out = np.zeros(G.shape[1], dtype=np.uint8)
    for j, d in enumerate(msg):
        if d:
            out = tables.add[out, tables.mul[d, G[j]]]
    return out


def _lead_one_prefixes(k, q):
    for lead in range(k):
        head = (0,) * lead + (1,)
        for rest in itertools.product(range(q), repeat=k - lead - 1):
            yield head + rest


def _digits(i, j, q):
    out = []
    for _ in range(j):
        out.append(i % q)
        i //= q
    return tuple(out)


def byte_scan_distribution(G, tables, stop_at=None):
    k, n = G.shape
    q = int(tables.q)
    rows_cap = max(distance._BLOCK_BYTES // max(n, 1), 1)
    j = 0
    while j < k and q ** (j + 1) <= rows_cap:
        j += 1
    block = _suffix_block(G, tables, list(range(k - j, k)))
    wt = np.count_nonzero(block, axis=1)
    hist_suffix = np.bincount(wt, minlength=n + 1).astype(object)
    ops_done = block.shape[0] * n
    best_w, best_msg = n + 1, None
    if wt.size > 1:
        i = int(np.argmin(wt[1:])) + 1
        best_w = int(wt[i])
        best_msg = (0,) * (k - j) + _digits(i, j, q)
    e0 = np.zeros(n + 1, dtype=object)
    e0[0] = 1
    if k == j:
        counts, completed = hist_suffix, True
    else:
        acc = (hist_suffix - e0) // (q - 1)
        stopped = stop_at is not None and best_w <= stop_at
        if not stopped:
            for prefix in _lead_one_prefixes(k - j, q):
                t = tables.neg[_combine(G, tables, prefix)]
                matches = np.count_nonzero(block == t[None, :], axis=1)
                acc += np.bincount(matches,
                                   minlength=n + 1)[::-1].astype(object)
                ops_done += block.shape[0] * n
                mmax = int(matches.max())
                if n - mmax < best_w:
                    best_w = n - mmax
                    best_msg = tuple(prefix) + _digits(
                        int(np.argmax(matches)), j, q)
                    if stop_at is not None and best_w <= stop_at:
                        stopped = True
                        break
        completed = not stopped
        counts = e0 + (q - 1) * acc if completed else None
    if completed:
        counts = {w: int(c) for w, c in enumerate(counts) if c}
    return counts, best_w, best_msg, completed, ops_done


@st.composite
def kernel_cases(draw):
    # 25 and 27 have codes past 16, where a*q + b no longer fits in a byte
    q = draw(st.sampled_from([3, 4, 5, 7, 9, 25, 27]))
    # 63, 64 and 65 straddle one 64-bit word; 130 needs three
    n = draw(st.one_of(st.integers(1, 24), st.sampled_from([63, 64, 65, 130])))
    k = draw(st.integers(1, max(1, int(np.log(3000) / np.log(q)))))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    G = np.random.default_rng(seed).integers(0, q, (k, n), dtype=np.uint8)
    # a whole-code block builds every suffix sum, nonzero plus nonzero
    block_rows = draw(st.one_of(st.just(q ** k), st.integers(1, q ** k + 1)))
    chunk_rows = draw(st.integers(1, 40))
    stop_at = draw(st.one_of(st.none(), st.integers(0, n)))
    return q, G, block_rows, chunk_rows, stop_at


@settings(max_examples=150)
@given(kernel_cases())
def test_packed_kernel_matches_byte_scan(case):
    q, G, block_rows, chunk_rows, stop_at = case
    n = G.shape[1]
    tables = tower_for(q, 2, 1).subfield_tables()
    # a small block and small chunks put prefixes, several chunks and a
    # partial last chunk into reach of codes this small
    with mock.patch.object(distance, "_BLOCK_BYTES", block_rows * n), \
            mock.patch.object(distance, "_CHUNK_ROWS", chunk_rows):
        for stop in (None, stop_at):
            got = distance._weight_distribution(G, tables, op_budget=10 ** 12,
                                                stop_at=stop)
            assert got == byte_scan_distribution(G, tables, stop_at=stop)


@pytest.mark.parametrize("q", [25, 27, 49, 131, 251])
def test_packed_kernel_large_fields(q):
    # two suffix rows add nonzero codes to nonzero codes; past q = 16 (or
    # p = 128) the sums overflow a byte unless the kernel widens them
    tables = tower_for(q, 2, 1).subfield_tables()
    G = np.random.default_rng(q).integers(0, q, (2, 7), dtype=np.uint8)
    np.testing.assert_array_equal(
        distance._suffix_block(G, tables, range(2)),
        _suffix_block(G, tables, range(2)))
    got = distance._weight_distribution(G, tables, op_budget=10 ** 12)
    assert got == byte_scan_distribution(G, tables)
    assert sum(got[0].values()) == q ** 2
