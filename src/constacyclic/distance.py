"""Minimum-distance and weight-enumerator engines, and the planner that
turns them into certificates.

Engines, each given an operation cap and returning what it spent:

* exhaustive message enumeration, vectorized in blocks: all combinations of a
  suffix of generator rows are tabled once and packed into ceil(log2 q)
  bit-planes, one bit of every symbol code per plane, in words of up to 64
  bits.  Two codes are equal exactly when all their bits are, so the weight
  of a suffix word minus a prefix codeword's negation t is
  popcount(OR_b(plane_b ^ t_b)) (after Boothby and Bradshaw, "Bitslicing
  and the Method of Four Russians over larger finite fields", 2009), taken
  over the rows in cache-sized chunks.  Only messages whose first nonzero
  symbol is 1 are counted, and counts are scaled by q-1;
* support search at one weight w: every vector of weight w is tested by
  syndrome, so an empty scan proves that no codeword has weight w;
* the prefix probe, which enumerates the span of the first generator rows to
  find an explicit codeword (an upper bound).

``certify`` and ``certify_pair`` run one planner against one ledger: the
operations left of ``op_budget`` plus a trace of what each stage actually
spent.  Every engine is granted min(remaining, stage cap) and the ledger is
debited with what it spent, so a certificate's trace never sums to more
than its budget (a pair shares one budget).  The stages, in order:

1. bounds: closed-form hints, ``bch_search`` and the weight-modulus lift;
2. a weight distribution, handed in or enumerated on the cheaper side when
   affordable: the code itself stops early at the lower bound, the dual is
   followed by the MacWilliams transform; then a witness of weight d, from
   the code's own enumeration or a support scan at d when its predicted
   cost fits min(remaining, op_budget // 10);
3. otherwise the prefix probe, within min(remaining, op_budget // 100),
   which stops at the first word whose weight meets the lower bound;
4. without a distribution, a support scan ramping up from the lower bound.

A result is labeled exact only when an explicit codeword meets the proven
lower bound.  op_budget is the one knob: both stage caps are fixed shares
of the budget a planner run is given (for the dual of ``certify_pair``,
what the code's certificate left).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParams, BudgetExceeded
from .families import bch_search

DEFAULT_OP_BUDGET = 200_000_000_000  # q^k * n elementary operations
_BLOCK_BYTES = 64 << 20
_CHUNK_ROWS = 1 << 14   # rows per kernel step, sized for the cache
_SCAN_CHUNK = 4096      # supports per syndrome batch


@dataclass(frozen=True)
class WeightEnumerator:
    """counts[w] = number of codewords of Hamming weight w (zeros omitted,
    except counts[0] = 1)."""

    n: int
    q: int
    k: int
    counts: dict

    def min_distance(self):
        pos = [w for w, c in self.counts.items() if w > 0 and c > 0]
        if not pos:
            raise BadParams("zero code has no minimum distance")
        return min(pos)


@dataclass(frozen=True)
class DistanceResult:
    """Reconciled bounds: lower from progressions and exhausted searches,
    upper from explicit codewords; exact when they meet with a witness."""

    lower: int
    upper: int
    exact: bool
    witness_codeword: tuple
    method_trace: tuple

    def to_json(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "witness_codeword": (list(self.witness_codeword)
                                 if self.witness_codeword is not None else None),
            "method_trace": [{"method": m, "ops": o, "note": s}
                             for (m, o, s) in self.method_trace],
        }


def _add_into(out, a, row, tables):
    """out = a + row over GF(q), elementwise on uint8 codes, row broadcast
    over the rows of a.  The uint8 shortcuts are taken only where their
    intermediates fit in a byte; larger fields index the addition table."""
    if tables.s == 1 and 2 * (tables.p - 1) < 256:
        # codes are residues mod p; uint8 wraps below zero
        np.add(a, row, out=out)
        np.minimum(out, out - tables.p, out=out)
    elif tables.s > 1 and tables.q * tables.q <= 256:
        # a*q + row < q^2 indexes the flattened addition table
        np.multiply(a, tables.q, out=out)
        np.add(out, row, out=out)
        out[...] = tables.add.ravel()[out]
    else:
        out[...] = tables.add[a, row]


def _suffix_block(G, tables, rows):
    """All q^len(rows) combinations of the given generator rows.

    Row index encodes the message digits: digit for rows[t] is
    (index // q^t) % q.
    """
    q = tables.q
    block = np.zeros((q ** len(rows), G.shape[1]), dtype=np.uint8)
    size = 1
    for r in rows:
        for s in range(1, q):
            _add_into(block[s * size:(s + 1) * size], block[:size],
                      tables.mul[s, G[r]], tables)
        size *= q
    return block


def _planes(count, n, nbits):
    """Zeroed bit-planes for count words of length n: (nbits, count, W)
    little-endian unsigned words, the narrowest of 8 to 64 bits that holds
    n, and W = ceil(n/64) words of 64 bits beyond that."""
    size = 8 if n > 32 else 4 if n > 16 else 2 if n > 8 else 1
    return np.zeros((nbits, count, -(-n // (8 * size))), dtype=f"<u{size}")


def _pack_into(planes, rows):
    """Bit b of the uint8 symbol code rows[r, i] goes to bit i % L of word
    i // L of planes[b, r], for words of L bits."""
    c, n = rows.shape
    nbytes = (n + 7) // 8
    dest = planes.view(np.uint8)
    bits = np.zeros((c, 8 * nbytes), dtype=np.uint8)  # rows padded to bytes
    for b in range(len(planes)):
        np.right_shift(rows, b, out=bits[:, :n])
        np.bitwise_and(bits, 1, out=bits)
        dest[b, :, :nbytes] = np.packbits(
            bits.ravel(), bitorder="little").reshape(c, nbytes)


class _PackedBlock:
    """A suffix block as bit-planes, scanned in chunks of _CHUNK_ROWS rows.

    Two symbol codes are equal exactly when all their bits are, so row r
    differs from a target word t where OR_b(plane_b ^ t_b) has a 1, and the
    weight of row r - t is the popcount of that mask.
    """

    def __init__(self, block, nbits):
        rows, n = block.shape
        self.n = n
        self.planes = _planes(rows, n, nbits)
        for lo in range(0, rows, _CHUNK_ROWS):
            _pack_into(self.planes[:, lo:lo + _CHUNK_ROWS],
                       block[lo:lo + _CHUNK_ROWS])
        shape = (min(rows, _CHUNK_ROWS), self.planes.shape[2])
        self._diff = np.empty(shape, dtype=self.planes.dtype)
        self._tmp = np.empty(shape, dtype=self.planes.dtype)
        self._pop = np.empty(shape, dtype=np.uint8)
        self._sum = np.empty(shape[0], dtype=np.intp)

    def _weights(self, target, lo, hi):
        diff, tmp = self._diff[:hi - lo], self._tmp[:hi - lo]
        np.bitwise_xor(self.planes[0, lo:hi], target[0], out=diff)
        for b in range(1, len(target)):
            np.bitwise_xor(self.planes[b, lo:hi], target[b], out=tmp)
            np.bitwise_or(diff, tmp, out=diff)
        pop = np.bitwise_count(diff, out=self._pop[:hi - lo])
        if pop.shape[1] == 1:
            return pop[:, 0]
        return np.sum(pop, axis=1, out=self._sum[:hi - lo])

    def scan(self, target, best_w, first=0):
        """Weights of every row minus target, a word given as its planes.

        Returns (hist, w, row): hist[w] counts the rows of weight w; w is the
        least weight of the rows >= first and row the first row of that
        weight when w < best_w, else (best_w, None).
        """
        hist = np.zeros(self.n + 1, dtype=np.int64)
        row = None
        for lo in range(0, self.planes.shape[1], _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, self.planes.shape[1])
            wts = self._weights(target, lo, hi)
            h = np.bincount(wts, minlength=self.n + 1)
            hist += h
            skip = max(first - lo, 0)
            if skip:
                h = np.bincount(wts[skip:], minlength=self.n + 1)
            present = np.flatnonzero(h)
            if present.size and present[0] < best_w:
                best_w = int(present[0])
                row = lo + skip + int(np.argmin(wts[skip:]))
        return hist, best_w, row


def _digits(index, j, q):
    """The j message digits of a suffix-block row, lowest row first."""
    return tuple(index // q ** t % q for t in range(j))


def _combine(G, tables, msg):
    """Codeword of a message via the subfield tables (uint8 vector)."""
    n = G.shape[1]
    out = np.zeros(n, dtype=np.uint8)
    for j, d in enumerate(msg):
        if d:
            out = tables.add[out, tables.mul[d, G[j]]]
    return out


def _lead_one_prefixes(k, q):
    """Messages over GF(q)^k whose first nonzero digit is 1, in lex order."""
    for lead in range(k):
        head = (0,) * lead + (1,)
        for rest in itertools.product(range(q), repeat=k - lead - 1):
            yield head + rest


def _weight_distribution(G, tables, *, op_budget, stop_at=None):
    """Block-enumerate the row space of G.

    Returns (counts, best_weight, best_message, completed, ops_done); counts
    is None when an early stop was requested and taken.
    """
    k, n = G.shape
    q = int(tables.q)
    nominal = (q ** k) * n
    if nominal > op_budget:
        raise BudgetExceeded(
            f"enumeration needs q^k*n = {nominal} ops > budget {op_budget}")
    rows_cap = max(_BLOCK_BYTES // max(n, 1), 1)
    j = 0
    while j < k and q ** (j + 1) <= rows_cap:
        j += 1
    nbits = (q - 1).bit_length()
    block = _PackedBlock(_suffix_block(G, tables, range(k - j, k)), nbits)
    target = _planes(1, n, nbits)
    hist_suffix, best_w, i = block.scan(target[:, 0], n + 1, first=1)
    hist_suffix = hist_suffix.astype(object)
    ops_done = q ** j * n
    best_msg = None if i is None else (0,) * (k - j) + _digits(i, j, q)

    e0 = np.zeros(n + 1, dtype=object)
    e0[0] = 1
    if k == j:
        counts = hist_suffix
        completed = True
    else:
        acc = (hist_suffix - e0) // (q - 1)
        completed = True
        stopped = stop_at is not None and best_w <= stop_at
        if not stopped:
            for prefix in _lead_one_prefixes(k - j, q):
                t = tables.neg[_combine(G, tables, prefix)]
                _pack_into(target, t[None])
                hist, best_w, i = block.scan(target[:, 0], best_w)
                acc += hist.astype(object)
                ops_done += q ** j * n
                if i is not None:
                    best_msg = tuple(prefix) + _digits(i, j, q)
                    if stop_at is not None and best_w <= stop_at:
                        stopped = True
                        break
        if stopped:
            counts = None
            completed = False
        else:
            counts = e0 + (q - 1) * acc
    if completed:
        if counts.sum() != q ** k:
            raise ArithmeticError("weight distribution does not count q^k "
                                  "codewords")
        counts = {w: int(c) for w, c in enumerate(counts) if c}
    return counts, best_w, best_msg, completed, ops_done


def exhaustive_enumerator(code, op_budget=DEFAULT_OP_BUDGET):
    """Full weight distribution by message-space enumeration."""
    if code.k == 0:
        return WeightEnumerator(n=code.n, q=code.tower.q, k=0, counts={0: 1})
    tables = code.tower.subfield_tables()
    counts, _, _, _, _ = _weight_distribution(code.generator_matrix(), tables,
                                              op_budget=op_budget)
    return WeightEnumerator(n=code.n, q=code.tower.q, k=code.k, counts=counts)


def _scalar_patterns(q, w):
    """All (s_1..s_w) with s_1 = 1, s_j nonzero, as a (P, w) uint8 array."""
    pats = list(itertools.product(range(1, q), repeat=w - 1))
    arr = np.ones((len(pats), w), dtype=np.uint8)
    if w > 1:
        arr[:, 1:] = np.array(pats, dtype=np.uint8)
    return arr


def _low_weight_cost(n, w, q, rows):
    return math.comb(n, w) * (q - 1) ** (w - 1) * w * max(rows, 1)


def _syndrome_hit(Hc, patterns, tables):
    """First (pattern, support) pair in the chunk with zero syndrome.

    Hc has shape (rows, chunk, w); patterns (P, w).  Returns (pi, ci) indices
    or None.  Prime fields go through one integer tensordot; extension fields
    check digit planes pattern by pattern.
    """
    rows, chunk, w = Hc.shape
    if tables.s == 1:
        pat_cap = max(1, 8_000_000 // max(rows * chunk, 1))
        for base in range(0, len(patterns), pat_cap):
            sub = patterns[base:base + pat_cap].astype(np.int32)
            syn = np.tensordot(sub, Hc.astype(np.int32), axes=([1], [2]))
            syn %= tables.p  # (P, rows, chunk)
            ok = ~syn.any(axis=1)
            if ok.any():
                pi, ci = np.argwhere(ok)[0]
                return int(pi) + base, int(ci)
        return None
    for pi, pat in enumerate(patterns):
        prod = tables.mul[pat[None, None, :], Hc]  # (rows, chunk, w)
        ok = np.ones(chunk, dtype=bool)
        for t in range(tables.s):
            syn = tables.dig[t][prod].astype(np.int32).sum(axis=2) % tables.p
            ok &= ~syn.any(axis=0)
        if ok.any():
            return pi, int(np.flatnonzero(ok)[0])
    return None


def low_weight_search(code, w, op_budget=DEFAULT_OP_BUDGET):
    """Test every vector of weight w for membership.

    Returns (witness, ops): the first codeword of weight w found, or None
    after an exhaustive empty scan, which proves no codeword has weight w;
    ops counts the supports tested, never more than the predicted cost
    checked against the budget.
    """
    n, q = code.n, code.tower.q
    H = code.parity_check_matrix()
    rows = H.shape[0]
    if rows == 0:
        return (1,) * w + (0,) * (n - w), 0
    cost = _low_weight_cost(n, w, q, rows)
    if cost > op_budget:
        raise BudgetExceeded(
            f"low-weight scan needs ~{cost} ops > budget {op_budget}")
    tables = code.tower.subfield_tables()
    patterns = _scalar_patterns(q, w)
    combos = itertools.combinations(range(n), w)
    spent = 0
    while True:
        batch = np.array(list(itertools.islice(combos, _SCAN_CHUNK)),
                         dtype=np.int64)
        if batch.size == 0:
            return None, spent
        spent += len(batch) * len(patterns) * w * rows
        hit = _syndrome_hit(H[:, batch], patterns, tables)
        if hit is not None:
            pi, ci = hit
            word = [0] * n
            for pos, val in zip(batch[ci], patterns[pi]):
                word[int(pos)] = int(val)
            word = tuple(word)
            if not code.contains(word):
                raise ArithmeticError("support scan hit is not a codeword")
            return word, spent


def prefix_subcode_probe(code, op_budget, stop_at=None):
    """Upper-bound probe: enumerate the span of the first t generator rows.

    t is the largest row count affordable within the budget.  Low-degree
    message polynomials often reach minimum-weight words in these codes, and
    the scan is deterministic.  With stop_at, the scan ends at the first
    word of weight <= stop_at.  Returns (weight, witness, ops), or
    (None, None, 0) when not even one row is affordable.
    """
    k, n, q = code.k, code.n, code.tower.q
    if k == 0:
        return None, None, 0
    t = 1
    while t < k and q ** (t + 1) * n <= op_budget:
        t += 1
    if q ** t * n > op_budget:
        return None, None, 0
    tables = code.tower.subfield_tables()
    _, best_w, best_msg, _, ops = _weight_distribution(
        code.generator_matrix()[:t], tables, op_budget=op_budget,
        stop_at=stop_at)
    return best_w, code.encode(tuple(best_msg) + (0,) * (k - t)), ops


def _krawtchouk(j, i, n, q):
    total = 0
    for s in range(j + 1):
        if s > i or j - s > n - i:
            continue
        total += (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) \
            * math.comb(n - i, j - s)
    return total


def macwilliams_transform(counts, n, q):
    """Weight distribution of the dual from that of the code (exact ints)."""
    size = sum(counts.values())
    out = {}
    for j in range(n + 1):
        tot = 0
        for i, Ai in counts.items():
            if Ai:
                tot += Ai * _krawtchouk(j, i, n, q)
        val, rem = divmod(tot, size)
        if rem or val < 0:
            raise ArithmeticError("transform produced a non-count; "
                                  "input distribution is inconsistent")
        if val:
            out[j] = val
    return out


def _min_weight(counts):
    return min(w for w, c in counts.items() if w > 0 and c > 0)


@dataclass(frozen=True)
class _Settled:
    """A distance d certified by a weight distribution, with the ops it cost.

    witness is a weight-d codeword when the code itself was enumerated, None
    when its dual was (d then comes from the MacWilliams transform).
    """

    d: int
    witness: tuple
    ops: int
    early: bool = False

    def entry(self):
        if self.witness is None:
            return ("dual-enumeration", self.ops,
                    f"distribution certifies d = {self.d}")
        note = (f"stopped early at weight {self.d}" if self.early
                else f"exact d = {self.d}")
        return ("enumeration", self.ops, note)


def _settle(code, op_budget, stop_at=None, dual=None):
    """Settle d on the cheaper side: enumerate the generator matrix when
    k <= n - k, else the parity-check matrix (the dual's generator matrix),
    and take the other side's d from the MacWilliams transform.

    Returns (the code's _Settled, the dual's or None).  The dual's, asked
    for by passing the dual code, costs 0 ops: the code's certificate pays
    for the one enumeration.  Without a dual, the code's own enumeration
    stops at the first word of weight <= stop_at.
    """
    n, k, q = code.n, code.k, code.tower.q
    own = k <= n - k
    counts, best_w, best_msg, completed, ops = _weight_distribution(
        code.generator_matrix() if own else code.parity_check_matrix(),
        code.tower.subfield_tables(), op_budget=op_budget,
        stop_at=stop_at if own and dual is None else None)
    if own:
        mine = _Settled(best_w, code.encode(best_msg), ops,
                        early=not completed)
        theirs = None if dual is None else _Settled(
            _min_weight(macwilliams_transform(counts, n, q)), None, 0)
    else:
        mine = _Settled(_min_weight(macwilliams_transform(counts, n, q)),
                        None, ops)
        theirs = None if dual is None else _Settled(
            best_w, dual.encode(best_msg), 0)
    return mine, theirs


class _Ledger:
    """Operations left of the budget, and the trace of what each stage spent."""

    def __init__(self, budget):
        self.remaining = budget
        self.trace = []

    def debit(self, method, ops, note):
        self.remaining -= ops
        self.trace.append((method, ops, note))


def _plan(code, hints, op_budget, settled=None):
    """Run the certification stages of the module docstring, in order.

    settled is a distribution certify_pair enumerated before planning;
    without one, stage 2 enumerates when affordable.  Never raises on
    exhaustion; the result simply stays non-exact.
    """
    n, k, q = code.n, code.k, code.tower.q
    if k == 0:
        raise BadParams("zero code has no minimum distance")
    if k == n:
        e = (1,) + (0,) * (n - 1)
        return DistanceResult(lower=1, upper=1, exact=True, witness_codeword=e,
                              method_trace=(("full-space", 0, "d = 1"),))
    led = _Ledger(op_budget)
    if settled is not None:
        led.debit(*settled.entry())      # paid for before planning began
    wmod = getattr(hints, "weight_modulus", None)

    def lift(bound):
        # all weights divisible by wmod: round the bound up to a multiple
        return bound + (-bound) % wmod if wmod else bound

    def done(lower, upper, witness):
        return DistanceResult(lower=lower, upper=upper,
                              exact=lower == upper and witness is not None,
                              witness_codeword=witness,
                              method_trace=tuple(led.trace))

    def scan(w):
        # support scan at weight w: a codeword of weight w, or None
        word, ops = low_weight_search(code, w, op_budget=led.remaining)
        led.debit("support-scan", ops, f"witness of weight {w}"
                  if word is not None else f"no codeword of weight {w}")
        return word

    def scan_cost(w):
        return _low_weight_cost(n, w, q, n - k)

    # 1. bounds
    lower = 1
    if hints is not None and hints.distance_lb:
        lower = hints.distance_lb
        led.debit("closed-form", 0, f"lower >= {lower}")
    wit = bch_search(code.defining_set)
    lower = lift(max(lower, wit.delta))
    led.debit("bch-search", 0,
              f"delta = {wit.delta} (b = {wit.b}, a = {wit.a})")

    # 2. a weight distribution certifies d; then find a weight-d witness
    if settled is None and q ** min(k, n - k) * n <= led.remaining:
        settled, _ = _settle(code, led.remaining, stop_at=lower)
        led.debit(*settled.entry())
    if settled is not None:
        d = settled.d
        if d < lower:
            raise ArithmeticError(
                f"found weight {d} below certified bound {lower}")
        if settled.witness is not None:
            return done(d, d, settled.witness)
        lower = d
        if scan_cost(d) <= min(led.remaining, op_budget // 10):
            word = scan(d)
            if word is None:
                raise ArithmeticError(f"no codeword of certified weight {d}")
            return done(d, d, word)

    # 3. (and the last witness resort) the prefix probe, stopping at the
    # first word that meets the lower bound
    upper, witness = n, None
    w, word, ops = prefix_subcode_probe(
        code, op_budget=min(led.remaining, op_budget // 100), stop_at=lower)
    if w is not None:
        if w < lower:
            raise ArithmeticError(
                f"found weight {w} below certified bound {lower}")
        upper, witness = w, word
        led.debit("prefix-probe", ops, f"upper <= {upper}")

    # 4. without a distribution, ramp the support scan up from the lower bound
    if settled is None:
        while lower < upper and scan_cost(lower) <= led.remaining:
            word = scan(lower)
            if word is not None:
                return done(lower, lower, word)
            lower = min(lift(lower + 1), upper)
    return done(lower, upper, witness)


def certify(code, hints=None, op_budget=DEFAULT_OP_BUDGET):
    """Reconcile lower bounds with explicit codewords into a certificate,
    spending at most op_budget operations (see the module docstring)."""
    return _plan(code, hints, op_budget)


def certify_pair(code, hints=None, dual_hints=None,
                 op_budget=DEFAULT_OP_BUDGET):
    """Certify a code and its dual against one shared op_budget.

    A self-dual code is certified once; the dual's certificate repeats it at
    no cost.  Otherwise the cheaper side is enumerated fully once, when
    affordable, and that distribution settles both sides.
    """
    dual = code.dual()
    if dual.defining_set == code.defining_set:
        res = _plan(code, hints, op_budget)
        return res, replace(res, method_trace=(
            ("self-dual", 0, "the code is its own dual"),))
    n, k, q = code.n, code.k, code.tower.q
    settled = (None, None)
    if 0 < k < n and q ** min(k, n - k) * n <= op_budget:
        settled = _settle(code, op_budget, dual=dual)
    res = _plan(code, hints, op_budget, settled[0])
    spent = sum(ops for _, ops, _ in res.method_trace)
    dres = _plan(dual, dual_hints, op_budget - spent, settled[1])
    return res, dres
