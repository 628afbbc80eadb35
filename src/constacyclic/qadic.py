"""q-adic digit machinery and q-cyclotomic cosets modulo N = q^m - 1.

Everything here is plain integer arithmetic: digit expansions and their two
weights, the valuation v_q, orbits of multiplication by q mod N, and the index
universe splitting {c + r*i} into cosets of its leaders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import OutOfRange

__all__ = [
    "qweight", "digit_weight", "valuation", "CyclotomicCoset",
    "cyclotomic_coset", "IndexUniverse", "index_universe",
]


def qweight(i, q):
    """Digit sum of the full q-adic expansion of i >= 0."""
    w = 0
    while i:
        w += i % q
        i //= q
    return w


def digit_weight(i, q):
    """Number of nonzero q-adic digits of i >= 0."""
    w = 0
    while i:
        if i % q:
            w += 1
        i //= q
    return w


def valuation(i, q):
    """v_q(i): largest j with q^j | i, for i >= 1."""
    if i < 1:
        raise OutOfRange("valuation needs i >= 1")
    j = 0
    while i % q == 0:
        i //= q
        j += 1
    return j


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of i under multiplication by q mod N, in orbit order."""

    N: int
    leader: int
    members: tuple

    @property
    def size(self):
        return len(self.members)


def cyclotomic_coset(i, q, N):
    i %= N
    members = [i]
    x = (i * q) % N
    while x != i:
        members.append(x)
        x = (x * q) % N
    return CyclotomicCoset(N=N, leader=min(members), members=tuple(members))


@dataclass(frozen=True, eq=False)
class IndexUniverse:
    """The residue class {c + r*i mod N} split into q-cyclotomic cosets.

    gamma1 lists the coset leaders lying in this residue class, in ascending
    order; omega1 is the class itself.  Instances are cached singletons, so
    identity comparison is the intended equality.
    """

    q: int
    r: int
    N: int
    residue: int
    n: int
    gamma1: tuple
    omega1: tuple
    cosets: dict = field(repr=False)        # leader -> members, this class only
    leader_arr: np.ndarray = field(repr=False)  # (x - residue)//r -> leader

    def contains(self, x):
        return 0 <= x < self.N and x % self.r == self.residue

    def leader_of(self, x):
        if not self.contains(x):
            raise OutOfRange(f"{x} is not in this residue class")
        return int(self.leader_arr[(x - self.residue) // self.r])

    def coset(self, leader):
        return self.cosets[leader]


def index_universe(q, r, N, residue=1):
    """Enumerate all cosets mod N with an O(N) visited sweep.

    Instances are cached singletons keyed on the normalized residue, so two
    calls describing the same class hand back the same object.
    """
    return _index_universe(q, r, N, residue % r)


@lru_cache(maxsize=128)
def _index_universe(q, r, N, residue):
    """Walk the indices in ascending order: the first unvisited one is the
    least of its orbit, its leader, and one cyclotomic_coset call from it
    gives the orbit in orbit order.  Leaders come out ascending."""
    n = N // r
    gamma1 = []
    cosets = {}
    leader_arr = np.full(n, -1, dtype=np.int64)
    seen = bytearray(N)
    for i in range(N):
        if seen[i]:
            continue
        members = cyclotomic_coset(i, q, N).members
        for x in members:
            seen[x] = 1
        if i % r == residue:
            cosets[i] = members
            gamma1.append(i)
            for x in members:
                leader_arr[(x - residue) // r] = i
    omega1 = tuple((residue + r * i) % N for i in range(n))
    return IndexUniverse(q=q, r=r, N=N, residue=residue, n=n,
                         gamma1=tuple(gamma1), omega1=omega1,
                         cosets=cosets, leader_arr=leader_arr)
