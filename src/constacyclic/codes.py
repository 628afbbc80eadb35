"""Constacyclic codes as defining sets.

A code is identified with the set of exponents i (inside one residue class
mod r) where its generator vanishes at beta^i.  Everything else follows:
g = product of minimal polynomials over the set's coset leaders, h the
cofactor, duals and complements by set algebra, matrices in shift-register
form, membership by divisibility.

g and h are computed once, in GF(q) code space: each coset's minimal
polynomial (a log-domain ``Poly`` in the extension field) is multiplied into
a uint8 code array with ``mul_codes``, and h = (x^n - lambda) / g comes from
``divmod_codes``, with lambda the code's own shift constant.  Matrices,
encoding and membership read those arrays; ``code.g`` and ``code.h`` are
``Poly`` views of them for display and serialization.  Self-duality
compares g with the dual's generator, the monic reciprocal of h, in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BadParams, LengthMismatch, NotCosetClosed, ShiftMismatch)
from .galois import build_tower
from .polyring import Poly, divmod_codes, minimal_polynomial, mul_codes
from .qadic import cyclotomic_coset, index_universe


@dataclass(frozen=True)
class DefiningSet:
    """A union of q-cyclotomic cosets inside one residue-class universe."""

    universe: object              # IndexUniverse (cached singleton; identity eq)
    leaders: tuple
    members: frozenset = field(compare=False, repr=False)

    def __len__(self):
        return len(self.members)

    def _check_same(self, other):
        if self.universe is not other.universe:
            raise ShiftMismatch("defining sets live in different universes")

    def union(self, other):
        self._check_same(other)
        return defining_set(self.universe,
                            leaders=sorted(set(self.leaders) | set(other.leaders)))

    def complement(self):
        """Omega \\ members, still coset-closed."""
        mine = set(self.leaders)
        rest = [l for l in self.universe.gamma1 if l not in mine]
        return defining_set(self.universe, leaders=rest)

    def reflect(self):
        """{N - z : z in members}, landing in the residue class -residue."""
        uni = self.universe
        other = index_universe(uni.q, uni.r, uni.N, (-uni.residue) % uni.r)
        return defining_set(other, members={(uni.N - z) % uni.N for z in self.members})

    def issubset(self, other):
        self._check_same(other)
        return self.members <= other.members


def defining_set(universe, leaders=None, members=None):
    """Build a DefiningSet from coset leaders or from a closed member set."""
    if (leaders is None) == (members is None):
        raise BadParams("give exactly one of leaders= or members=")
    if leaders is not None:
        leaders = tuple(sorted(set(int(x) for x in leaders)))
        valid = set(universe.gamma1)
        for l in leaders:
            if l not in valid:
                raise NotCosetClosed(
                    f"{l} is not a coset leader in this residue class")
        mem = set()
        for l in leaders:
            mem.update(universe.coset(l))
        return DefiningSet(universe=universe, leaders=leaders,
                           members=frozenset(mem))
    members = {int(x) % universe.N for x in members}
    lead = set()
    for x in members:
        if not universe.contains(x):
            raise NotCosetClosed(
                f"{x} is outside the residue class {universe.residue} mod {universe.r}")
        lead.add(universe.leader_of(x))
    closure = set()
    for l in lead:
        closure.update(universe.coset(l))
    if closure != members:
        raise NotCosetClosed("member set is not a union of q-cyclotomic cosets")
    return DefiningSet(universe=universe, leaders=tuple(sorted(lead)),
                       members=frozenset(members))


class ConstacyclicCode:
    """A lambda-constacyclic code of length n over GF(q).

    lambda = beta^(residue * n); the defining set fixes the code completely.
    Instances are immutable; matrices are cached lazily.
    """

    def __init__(self, tower, dset):
        uni = dset.universe
        if (uni.q, uni.r, uni.N) != (tower.q, tower.r, tower.N):
            raise ShiftMismatch("defining set universe does not match the tower")
        self.tower = tower
        self.defining_set = dset
        self.residue = uni.residue
        self.n = tower.n
        self.lambda_log = (uni.residue * tower.n) % tower.N
        self._tables = tower.subfield_tables()
        self._g_codes = self._generator()
        self._h_codes = self._cofactor()
        self.g = Poly.from_codes(tower, self._g_codes.tolist())
        self.h = Poly.from_codes(tower, self._h_codes.tolist())
        self.k = self.n - len(dset)
        self._G = None
        self._H = None

    # -- construction --

    def _generator(self):
        """Ascending GF(q) codes of the product of the minimal polynomials."""
        t = self.tower
        g = np.ones(1, dtype=np.uint8)
        for leader in self.defining_set.leaders:
            f = minimal_polynomial(cyclotomic_coset(leader, t.q, t.N), t)
            g = mul_codes(g, f.codes(), self._tables)
        return g

    def _cofactor(self):
        """Ascending GF(q) codes of (x^n - lambda) / g."""
        target = np.zeros(self.n + 1, dtype=np.uint8)
        target[0] = self._tables.neg[self.lambda_code]
        target[-1] = 1
        quo, rem = divmod_codes(target, self._g_codes, self._tables)
        if len(rem):
            raise ArithmeticError("generator does not divide x^n - lambda; "
                                  "internal inconsistency")
        return quo

    @property
    def lambda_code(self):
        return self.tower.subfield_code(self.lambda_log)

    @property
    def params(self):
        return (self.n, self.k)

    # -- derived codes --

    def dual(self):
        """lambda^{-1}-constacyclic, generator = reciprocal of h."""
        comp = self.defining_set.complement()
        return ConstacyclicCode(self.tower, comp.reflect())

    def complement(self):
        """Same lambda, generator h."""
        return ConstacyclicCode(self.tower, self.defining_set.complement())

    def reverse(self):
        """lambda^{-1}-constacyclic, generator = reciprocal of g."""
        return ConstacyclicCode(self.tower, self.defining_set.reflect())

    def intersect(self, other):
        self._check_compatible(other)
        return ConstacyclicCode(self.tower,
                                self.defining_set.union(other.defining_set))

    def is_subcode(self, other):
        """self <= other iff Z(other) <= Z(self)."""
        self._check_compatible(other)
        return other.defining_set.issubset(self.defining_set)

    def _check_compatible(self, other):
        if self.tower is not other.tower:
            raise ShiftMismatch("codes live over different towers")
        if self.residue != other.residue:
            raise ShiftMismatch("codes have different shift constants")

    # -- vectors --

    def _as_codes(self, word, what, dim, length):
        """A vector of GF(q) codes as a uint8 array of the given length."""
        word = np.array([int(c) for c in word], dtype=np.int64)
        if len(word) != length:
            raise LengthMismatch(f"{what} length {len(word)} != {dim} = {length}")
        bad = (word < 0) | (word >= self.tower.q)
        if bad.any():
            raise BadParams(f"code {word[bad][0]} out of range for "
                            f"GF({self.tower.q})")
        return word.astype(np.uint8)

    def encode(self, message):
        message = self._as_codes(message, "message", "k", self.k)
        word = mul_codes(message, self._g_codes, self._tables).tolist()
        return tuple(word) + (0,) * (self.n - len(word))

    def contains(self, word):
        word = self._as_codes(word, "word", "n", self.n)
        return not len(divmod_codes(word, self._g_codes, self._tables)[1])

    def twisted_shift(self, word):
        """(lambda * c_{n-1}, c_0, ..., c_{n-2})"""
        word = tuple(int(c) for c in word)
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n = {self.n}")
        tab = self.tower.subfield_tables()
        return (int(tab.mul[self.lambda_code, word[-1]]),) + word[:-1]

    def generator_matrix(self):
        """k x n shift-register form: row j holds x^j * g(x)."""
        if self._G is None:
            gc = self._g_codes
            G = np.zeros((self.k, self.n), dtype=np.uint8)
            for j in range(self.k):
                G[j, j:j + len(gc)] = gc
            self._G = G
        return self._G

    def parity_check_matrix(self):
        """(n-k) x n matrix whose rows generate the dual (shifts of h-hat)."""
        if self._H is None:
            if self.k == self.n:
                self._H = np.zeros((0, self.n), dtype=np.uint8)
            else:
                hc = self._dual_generator()
                H = np.zeros((self.n - self.k, self.n), dtype=np.uint8)
                for j in range(self.n - self.k):
                    H[j, j:j + len(hc)] = hc
                self._H = H
        return self._H

    def _dual_generator(self):
        """Ascending GF(q) codes of the monic reciprocal of h, the
        generator of the dual."""
        h, tab = self._h_codes, self._tables
        return tab.mul[tab.inv[h[0]], h[::-1]]

    # -- self-duality --

    def is_self_dual(self):
        """C == C^perp: k = n/2, lambda = lambda^-1 and g equals the dual's
        generator, each code's unique monic word of least degree.

        When lambda is self-inverse the defining-set criterion
        (Z and -Z partition the class) is computed too and must agree.
        """
        involutive = (2 * self.lambda_log) % self.tower.N == 0
        method_b = (2 * self.k == self.n and involutive
                    and np.array_equal(self._g_codes, self._dual_generator()))
        if involutive:
            z = self.defining_set
            neg = z.reflect()
            method_a = (not (z.members & neg.members)
                        and (z.members | neg.members) == set(z.universe.omega1))
            if method_a != method_b:
                raise ArithmeticError(
                    "self-duality criteria disagree; internal inconsistency")
        return method_b

    # -- serialization --

    def descriptor(self, family_tag=None):
        return {
            "tower": self.tower.descriptor(),
            "residue": self.residue,
            "r": self.tower.r,
            "n": self.n,
            "k": self.k,
            "leaders": list(self.defining_set.leaders),
            "g": list(self.g.codes()),
            "family_tag": family_tag,
        }

    def __repr__(self):
        lam = self.lambda_code
        kind = "negacyclic" if (self.tower.r == 2 and self.residue == 1) else \
            f"lambda={lam}-constacyclic"
        return f"ConstacyclicCode([{self.n},{self.k}] {kind} over GF({self.tower.q}))"


def code_from_descriptor(obj):
    td = obj["tower"]
    tower = build_tower(td["p"], td["s"], td["m"], td["r"],
                        modulus=tuple(td["modulus"]))
    uni = index_universe(tower.q, tower.r, tower.N, obj.get("residue", 1))
    code = ConstacyclicCode(tower, defining_set(uni, leaders=obj["leaders"]))
    if list(code.g.codes()) != list(obj["g"]):
        raise BadParams("descriptor generator polynomial does not match "
                        "the reconstructed code")
    return code
