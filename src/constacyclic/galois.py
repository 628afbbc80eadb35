"""Finite-field towers GF(p) <= GF(q) <= GF(q^m) on precomputed exponent tables.

The working field GF(p^(s*m)) is presented through a fixed primitive element
beta: a nonzero element is stored as its discrete log (an int in 0..N-1, where
N = p^(s*m) - 1) and zero as the sentinel ``ZERO``.  Multiplication is then
integer addition mod N, and addition costs one Zech-logarithm lookup.

The coefficient subfield GF(q), q = p^s, is addressed by integer codes: code
``sum(a_i * p**i)`` denotes ``sum(a_i * w**i)`` with w the designated
primitive element of GF(q).  When the tower is built from a degree-m modulus
over GF(q), w is the generator of the GF(q) presentation; otherwise
w = beta**(N // (q-1)).  For prime q a code is just the residue mod p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParams, CoefficientLeak, DivByZero, NotPrimitive

ZERO = -1  # log-representation sentinel for the zero element
ONE = 0    # beta^0

# Largest p^(s*m) we are willing to table; keeps exp/log/Zech under ~100 MB.
ZECH_TABLE_LIMIT = 1 << 22

# Moduli used by the published worked examples, keyed by (q, m).  Lengths
# disambiguate the coefficient field: s*m+1 ints over GF(p), m+1 codes over
# GF(q).  Selected with preset="paper" so reports match those examples.
PAPER_MODULI = {
    (3, 2): (2, 2, 1),          # x^2 + 2x + 2
    (3, 4): (2, 0, 0, 2, 1),    # x^4 + 2x^3 + 2
    (5, 3): (3, 3, 0, 1),       # x^3 + 3x + 3
    (4, 4): (2, 2, 2, 1, 1),    # x^4 + x^3 + w*x^2 + w*x + w over GF(4)
}


def factorize(n):
    """Prime factorization by trial division; fine for n <= 2**22-ish."""
    if n < 1:
        raise BadParams(f"cannot factor {n}")
    out = {}
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n):
    return n >= 2 and factorize(n) == {n: 1}


def prime_power(q):
    """Decompose q = p**s; raise BadParams if q is not a prime power."""
    f = factorize(q)
    if len(f) != 1:
        raise BadParams(f"q = {q} is not a prime power")
    ((p, s),) = f.items()
    return p, s


# ----------------------------------------------------------------------
# polynomial helpers over GF(p), used only while building tables
# ----------------------------------------------------------------------

def _poly_mulmod(a, b, mod, p):
    # ascending-coefficient tuples, mod monic
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    d = len(mod) - 1
    for i in range(len(res) - 1, d - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(d):
                if mod[j]:
                    res[i - d + j] = (res[i - d + j] - c * mod[j]) % p
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return tuple(res)


def _poly_powmod(a, e, mod, p):
    result = (1,)
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


@lru_cache(maxsize=None)
def find_primitive_modulus(p, degree):
    """Lexicographically smallest monic primitive polynomial over GF(p).

    Coefficient tuples (c_0, ..., c_{degree-1}) are compared low-degree-first.
    """
    order = p ** degree - 1
    prime_divisors = sorted(factorize(order))
    x = (0, 1)
    for tail in itertools.product(range(p), repeat=degree):
        if tail[0] == 0:
            continue  # x | f makes x a zero divisor
        mod = tail + (1,)
        if _poly_powmod(x, order, mod, p) != (1,):
            continue
        if all(_poly_powmod(x, order // d, mod, p) != (1,) for d in prime_divisors):
            return mod
    raise NotPrimitive(f"no primitive polynomial of degree {degree} over GF({p})")


def _shift_reduce(state, mod_low, p, add=None, mul=None, neg=None):
    """Multiply a coefficient vector by the generator and reduce.

    With add/mul/neg given, coefficients are subfield codes; otherwise plain
    residues mod p.
    """
    top = state[-1]
    new = [0] + state[:-1]
    if top:
        for j, cj in enumerate(mod_low):
            if cj:
                if add is None:
                    new[j] = (new[j] - top * cj) % p
                else:
                    new[j] = add[new[j]][neg[mul[top][cj]]]
    return new


# ----------------------------------------------------------------------
# small coefficient fields GF(p^s) on integer codes
# ----------------------------------------------------------------------

class SmallField:
    """Arithmetic tables for GF(p^s) on codes 0..q-1 (base-p packed)."""

    def __init__(self, p, s):
        self.p, self.s, self.q = p, s, p ** s
        if s == 1:
            self.modulus = None
            self.add_t = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_t = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            self.modulus = find_primitive_modulus(p, s)
            q = self.q
            exp = [0] * (q - 1)
            logt = [None] * q
            pw = [p ** i for i in range(s)]
            state = [0] * s
            state[0] = 1
            for k in range(q - 1):
                v = sum(state[i] * pw[i] for i in range(s))
                exp[k] = v
                logt[v] = k
                state = _shift_reduce(state, self.modulus[:-1], p)
            if sum(state[i] * pw[i] for i in range(s)) != 1:
                raise NotPrimitive("internal: small-field modulus not primitive")
            self._exp, self._log = exp, logt

            def digits(c):
                return [(c // pw[i]) % p for i in range(s)]

            def pack(ds):
                return sum(d * pw[i] for i, d in enumerate(ds))

            self.add_t = [
                [pack([(x + y) % p for x, y in zip(digits(a), digits(b))])
                 for b in range(q)]
                for a in range(q)
            ]
            self.mul_t = [
                [0 if (a == 0 or b == 0) else exp[(logt[a] + logt[b]) % (q - 1)]
                 for b in range(q)]
                for a in range(q)
            ]
        self.neg_t = [next(b for b in range(self.q) if self.add_t[a][b] == 0)
                      for a in range(self.q)]

    def add(self, a, b):
        return self.add_t[a][b]

    def mul(self, a, b):
        return self.mul_t[a][b]


@lru_cache(maxsize=None)
def small_field(p, s):
    return SmallField(p, s)


# ----------------------------------------------------------------------
# the tower proper
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """Shape of a tower: GF(p) <= GF(q=p^s) <= GF(q^m), shift order r."""

    p: int
    s: int
    m: int
    r: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise BadParams(f"p = {self.p} is not prime")
        if self.s < 1 or self.m < 2:
            raise BadParams("need s >= 1 and m >= 2")
        if self.q <= 2:
            raise BadParams("need q = p^s > 2")
        if self.r < 1 or (self.q - 1) % self.r:
            raise BadParams(f"r = {self.r} must divide q - 1 = {self.q - 1}")

    @property
    def q(self):
        return self.p ** self.s

    @property
    def N(self):
        return self.q ** self.m - 1

    @property
    def n(self):
        return self.N // self.r


@dataclass(frozen=True)
class SubfieldTables:
    """numpy GF(q) code tables for the vectorized engines."""

    p: int
    s: int
    q: int
    add: np.ndarray   # (q, q) uint8
    mul: np.ndarray   # (q, q) uint8
    neg: np.ndarray   # (q,)   uint8
    inv: np.ndarray   # (q,)   uint8, inv[0] unused
    dig: np.ndarray   # (s, q) uint8, base-p digits of each code


class ExtensionTower:
    """GF(p^(s*m)) with a primitive beta and log/exp/Zech tables.

    Immutable after construction; every operation is pure, so instances are
    safe to share between threads.
    """

    def __init__(self, spec, modulus, modulus_field, exp, log, zech):
        self.spec = spec
        self.modulus = modulus              # as given (GF(p) ints or GF(q) codes)
        self.modulus_field = modulus_field  # "p" or "q"
        self.N = spec.N
        self.n = spec.n
        self.r = spec.r
        self.q = spec.q
        self.p = spec.p
        self._exp = exp
        self._log = log
        self._zech = zech
        self.beta = 1  # log of the construction generator
        self.lambda_log = spec.n % spec.N
        self._code_to_log, self._log_to_code = self._subfield_maps()
        self._tables = None

    # -- element arithmetic (log representation) --

    def mul(self, a, b):
        if a == ZERO or b == ZERO:
            return ZERO
        return (a + b) % self.N

    def add(self, a, b):
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        z = self._zech[(b - a) % self.N]
        if z == ZERO:
            return ZERO
        return (a + int(z)) % self.N

    def neg(self, a):
        if a == ZERO or self.p == 2:
            return a
        return (a + self.N // 2) % self.N

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def inv(self, a):
        if a == ZERO:
            raise DivByZero("zero has no inverse")
        return (-a) % self.N

    def pow(self, a, e):
        if a == ZERO:
            if e > 0:
                return ZERO
            if e == 0:
                return ONE
            raise DivByZero("negative power of zero")
        return (a * e) % self.N

    # -- subfield coding --

    def _subfield_maps(self):
        q, p, s = self.spec.q, self.spec.p, self.spec.s
        code_to_log = [ZERO] * q
        if self.modulus_field == "q":
            for c in range(1, q):
                code_to_log[c] = int(self._log[c])
        elif s == 1:
            acc = ZERO
            for c in range(1, q):
                acc = self.add(acc, ONE)
                code_to_log[c] = acc
        else:
            w = self.N // (q - 1)  # log of the canonical GF(q) generator
            pw = [p ** i for i in range(s)]
            for tup in itertools.product(range(p), repeat=s):
                if not any(tup):
                    continue
                acc = ZERO
                for i, ai in enumerate(tup):
                    term = (i * w) % self.N
                    for _ in range(ai):
                        acc = self.add(acc, term)
                code_to_log[sum(a * pw[i] for i, a in enumerate(tup))] = acc
        log_to_code = {lg: c for c, lg in enumerate(code_to_log) if lg != ZERO}
        return code_to_log, log_to_code

    def from_code(self, code):
        """GF(q) code -> element log."""
        if not 0 <= code < self.q:
            raise BadParams(f"code {code} out of range for GF({self.q})")
        return ZERO if code == 0 else self._code_to_log[code]

    def subfield_code(self, a):
        """Element log -> GF(q) code; CoefficientLeak if a is not in GF(q)."""
        if a == ZERO:
            return 0
        code = self._log_to_code.get(a % self.N)
        if code is None:
            raise CoefficientLeak(f"beta^{a} lies outside GF({self.q})")
        return code

    def in_subfield(self, a):
        """True when the element beta^a lies in GF(q)."""
        return a == ZERO or (a % self.N) % (self.N // (self.q - 1)) == 0

    @property
    def lambda_code(self):
        return self.subfield_code(self.lambda_log)

    @property
    def omega_log(self):
        """Log of the designated GF(q) generator w (None for prime q)."""
        if self.spec.s == 1:
            return None
        if self.modulus_field == "q":
            return self._code_to_log[self.p]
        return self.N // (self.q - 1)

    def subfield_tables(self):
        """Dense numpy GF(q) tables for the enumeration engines (cached)."""
        if self._tables is None:
            q, p, s = self.q, self.p, self.spec.s
            add = np.zeros((q, q), dtype=np.uint8)
            mul = np.zeros((q, q), dtype=np.uint8)
            logs = [self.from_code(c) for c in range(q)]
            for a in range(q):
                for b in range(q):
                    add[a, b] = self.subfield_code(self.add(logs[a], logs[b]))
                    mul[a, b] = self.subfield_code(self.mul(logs[a], logs[b]))
            neg = np.array(
                [self.subfield_code(self.neg(logs[a])) for a in range(q)],
                dtype=np.uint8)
            inv = np.zeros(q, dtype=np.uint8)
            for a in range(1, q):
                inv[a] = self.subfield_code(self.inv(logs[a]))
            dig = np.array(
                [[(c // p ** t) % p for c in range(q)] for t in range(s)],
                dtype=np.uint8)
            self._tables = SubfieldTables(p=p, s=s, q=q, add=add, mul=mul,
                                          neg=neg, inv=inv, dig=dig)
        return self._tables

    def descriptor(self):
        return {
            "p": self.spec.p,
            "s": self.spec.s,
            "m": self.spec.m,
            "r": self.spec.r,
            "modulus": list(self.modulus),
            "modulus_field": self.modulus_field,
        }

    def __repr__(self):
        s = self.spec
        return (f"ExtensionTower(GF({s.q}^{s.m}), r={s.r}, "
                f"modulus={list(self.modulus)} over GF({s.p if self.modulus_field == 'p' else s.q}))")


def _build_exp_log(spec, modulus, modulus_field):
    p, s, m = spec.p, spec.s, spec.m
    N = spec.N
    size = p ** (s * m)
    log = np.full(size, -2, dtype=np.int64)
    exp = np.empty(N, dtype=np.int64)
    if modulus_field == "p":
        d = s * m
        pw = [p ** i for i in range(d)]
        state = [0] * d
        state[0] = 1
        step = lambda st: _shift_reduce(st, modulus[:-1], p)
    else:
        K = small_field(p, s)
        pw = [K.q ** j for j in range(m)]
        state = [0] * m
        state[0] = 1
        mod_low = modulus[:-1]
        step = lambda st: _shift_reduce(st, mod_low, p,
                                        add=K.add_t, mul=K.mul_t, neg=K.neg_t)
    for k in range(N):
        v = sum(c * pw[i] for i, c in enumerate(state))
        if log[v] != -2:
            raise NotPrimitive(
                f"modulus {list(modulus)} gives a generator of order {k} < {N}")
        exp[k] = v
        log[v] = k
        state = step(state)
    if sum(c * pw[i] for i, c in enumerate(state)) != 1:
        raise NotPrimitive(f"modulus {list(modulus)} is not primitive")
    return exp, log


def _build_zech(exp, log, p):
    d0 = exp % p
    bumped = np.where(d0 == p - 1, exp - (p - 1), exp + 1)
    z = log[bumped]
    return np.where(bumped == 0, ZERO, z)


@lru_cache(maxsize=64)
def _build_tower_cached(p, s, m, r, modulus, modulus_field):
    spec = FieldSpec(p=p, s=s, m=m, r=r)
    exp, log = _build_exp_log(spec, modulus, modulus_field)
    zech = _build_zech(exp, log, p)
    return ExtensionTower(spec, modulus, modulus_field, exp, log, zech)


def build_tower(p, s, m, r, modulus=None):
    """Construct (or fetch from cache) the tower GF(p^(s*m)) with beta^n = lambda.

    ``modulus`` may be ascending GF(p) coefficients of length s*m+1, or, when
    s > 1, ascending GF(q) codes of length m+1.  Omitted, the lexicographically
    smallest monic primitive polynomial of degree s*m over GF(p) is used.
    """
    spec = FieldSpec(p=p, s=s, m=m, r=r)  # validate early
    if p ** (s * m) > ZECH_TABLE_LIMIT:
        raise BadParams(
            f"tower GF({p}^{s * m}) exceeds the table limit 2^22; "
            "larger fields are out of scope")
    if modulus is None:
        modulus = find_primitive_modulus(p, s * m)
        field = "p"
    else:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) == s * m + 1:
            field = "p"
            if any(not 0 <= c < p for c in modulus):
                raise BadParams("GF(p) modulus coefficients out of range")
        elif s > 1 and len(modulus) == m + 1:
            field = "q"
            if any(not 0 <= c < spec.q for c in modulus):
                raise BadParams("GF(q) modulus codes out of range")
        else:
            raise BadParams(
                f"modulus length {len(modulus)} matches neither degree "
                f"{s * m} over GF({p}) nor degree {m} over GF({spec.q})")
        if modulus[-1] != 1:
            raise BadParams("modulus must be monic")
        if modulus[0] == 0:
            raise NotPrimitive("modulus has zero constant term")
    return _build_tower_cached(p, s, m, r, modulus, field)


def tower_for(q, m, r, modulus=None, preset=None):
    """Convenience wrapper taking the prime power q directly."""
    p, s = prime_power(q)
    if modulus is None and preset == "paper":
        modulus = PAPER_MODULI.get((q, m))
    return build_tower(p, s, m, r, modulus=modulus)
