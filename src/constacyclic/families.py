"""The construction families and their closed-form guarantees.

Two base constructions: the parity split of the odd residue class by Hamming
digit weight (negacyclic, r = 2), and the q-weight classes T_(q,m,l) =
{i : wt_q(i) = 1 + (q-1)l} (r = q-1), together with the projective
Reed-Muller unions D_(q,m,l) and four subcode families S1..S4.

FamilyParams validates an instance once; family_defining_set then builds
its defining set, a parity class or a union of q-weight classes (plus one or
two cosets for S1 and S2).  For every family this module knows the
closed-form dimension and, where a progression argument applies, a distance
lower bound together with the explicit arithmetic progression witnessing it.
Witnesses are validated member-by-member against the enumerated defining
sets, never trusted.

bch_search sweeps progressions directly and is independent of the closed
forms, so the two sides cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import ConstacyclicCode, defining_set
from .errors import BadParams, NoProgression
from .galois import prime_power, tower_for
from .qadic import (cyclotomic_coset, digit_weight, index_universe, qweight,
                    valuation)

FAMILIES = ("parity", "qweight", "cprm", "s1", "s2", "s3", "s4")


# ----------------------------------------------------------------------
# family parameters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyParams:
    """Which construction, over which field, with which knobs."""

    family: str
    q: int
    m: int
    ell: int = None
    i: int = None
    selectors: tuple = None

    def __post_init__(self):
        q, m = self.q, self.m
        prime_power(q)
        if q <= 2:
            raise BadParams("constructions need q > 2")
        if m < 2:
            raise BadParams("constructions need m >= 2")
        f = self.family
        if f not in FAMILIES:
            raise BadParams(f"unknown family {f!r}")
        if f == "parity":
            if q % 2 == 0:
                raise BadParams("parity family needs odd q (r = 2 must divide q-1)")
            if self.i not in (0, 1):
                raise BadParams("parity family needs i in {0, 1}")
        elif f == "qweight":
            if self.ell is None or not 0 <= self.ell <= m - 1:
                raise BadParams("qweight family needs 0 <= ell <= m-1")
        elif f == "cprm":
            if self.ell is None or not 0 <= self.ell <= m - 2:
                raise BadParams("cprm family needs 0 <= ell <= m-2")
        elif f in ("s1", "s2"):
            if m < 5 or m % 2 == 0:
                raise BadParams(f"{f} family needs odd m >= 5")
        elif f == "s3":
            if m < 4:
                raise BadParams("s3 family needs m >= 4")
            if self.ell is None or not 0 <= self.ell <= (m - 2) // 2:
                raise BadParams("s3 family needs 0 <= ell <= (m-2)//2")
        elif f == "s4":
            if q != 3:
                raise BadParams("s4 family is ternary (q = 3)")
            if m < 4 or m % 2:
                raise BadParams("s4 family needs even m >= 4")
            sel = self.selectors
            if sel is None or len(sel) != m // 2:
                raise BadParams(f"s4 family needs {m // 2} selectors")
            for idx, j in enumerate(sel):
                if j not in (idx, m - 1 - idx):
                    raise BadParams(
                        f"selector {j} at position {idx} not in {{{idx}, {m - 1 - idx}}}")
            object.__setattr__(self, "selectors", tuple(sel))

    @property
    def r(self):
        return 2 if self.family == "parity" else self.q - 1

    @property
    def N(self):
        return self.q ** self.m - 1

    @property
    def n(self):
        return self.N // self.r

    def to_json(self):
        out = {"family": self.family, "q": self.q, "m": self.m}
        if self.ell is not None:
            out["ell"] = self.ell
        if self.i is not None:
            out["i"] = self.i
        if self.selectors is not None:
            out["selectors"] = list(self.selectors)
        return out


# ----------------------------------------------------------------------
# defining sets
# ----------------------------------------------------------------------

def _universe(q, m, r):
    return index_universe(q, r, q ** m - 1, 1)


@lru_cache(maxsize=512)
def _parity_members(q, m, i):
    uni = _universe(q, m, 2)
    return frozenset(h for h in uni.omega1 if digit_weight(h, q) % 2 == i)


@lru_cache(maxsize=512)
def _qweight_members(q, m, ell):
    N = q ** m - 1
    target = 1 + (q - 1) * ell
    return frozenset(i for i in range(1, N) if qweight(i, q) == target)


def parity_family_size(q, m, i):
    """Closed form: |T_(1,n)| = (q^m - (2-q)^m)/4, |T_(0,n)| its complement."""
    if i == 1:
        return (q ** m - (2 - q) ** m) // 4
    return (q ** m + (2 - q) ** m - 2) // 4


def _comb0(a, b):
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def qweight_family_size(q, m, ell):
    """Alternating binomial closed form for |T_(q,m,ell)|."""
    return sum((-1) ** h * math.comb(m, h)
               * _comb0((q - 1) * ell - h * q + m, 1 + (q - 1) * ell - h * q)
               for h in range(m + 1))


def family_defining_set(params):
    """The defining set of a validated instance: the parity class T_(i,n),
    or a union of q-weight classes T_(q,m,ell), plus for S1 the coset of 1
    and for S2 also that of 2q^(m-1) - 1."""
    p, q, m = params, params.q, params.m
    if p.family == "parity":
        return defining_set(_universe(q, m, 2),
                            members=_parity_members(q, m, p.i))
    if p.family == "qweight":
        classes = (p.ell,)
    elif p.family == "cprm":
        classes = range(p.ell + 1)
    elif p.family == "s3":
        classes = (p.ell, m - 1 - p.ell)
    elif p.family == "s4":
        classes = p.selectors
    else:  # s1, s2
        classes = ((m - 1) // 2,)
    members = set()
    for ell in classes:
        members |= _qweight_members(q, m, ell)
    if p.family in ("s1", "s2"):
        members.update(cyclotomic_coset(1, q, p.N).members)
    if p.family == "s2":
        members.update(cyclotomic_coset(2 * q ** (m - 1) - 1, q, p.N).members)
    return defining_set(_universe(q, m, q - 1), members=members)


def family_code(params, modulus=None, preset=None):
    """Build the family instance over its tower (default or preset modulus)."""
    tower = tower_for(params.q, params.m, params.r, modulus=modulus, preset=preset)
    return ConstacyclicCode(tower, family_defining_set(params))


def family_dimension(params):
    """Closed-form dimension, family by family."""
    p, q, m = params, params.q, params.m
    n = p.n
    if p.family == "parity":
        return parity_family_size(q, m, p.i ^ 1)
    if p.family == "qweight":
        return n - qweight_family_size(q, m, p.ell)
    if p.family == "cprm":
        return n - sum(qweight_family_size(q, m, i) for i in range(p.ell + 1))
    if p.family == "s1":
        return n - qweight_family_size(q, m, (m - 1) // 2) - m
    if p.family == "s2":
        return n - qweight_family_size(q, m, (m - 1) // 2) - 2 * m
    if p.family == "s3":
        return n - qweight_family_size(q, m, p.ell) \
                 - qweight_family_size(q, m, m - 1 - p.ell)
    if p.family == "s4":
        return (3 ** m - 1) // 4
    raise BadParams(p.family)


# ----------------------------------------------------------------------
# BCH progression witnesses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BchWitness:
    """Arithmetic progression {(b + a*i) mod N : h <= i <= h+delta-2}.

    Contained in a defining set it certifies d >= delta; in the complement,
    the same for the dual.
    """

    b: int
    a: int
    h: int
    delta: int
    progression: tuple


def make_witness(b, a, h, delta, N):
    b %= N
    a %= N
    prog = tuple((b + a * i) % N for i in range(h, h + delta - 1))
    return BchWitness(b=b, a=a, h=h, delta=delta, progression=prog)


def check_witness(w, target_members, N, r, n, residue=1):
    """Member-by-member validation; True only if every invariant holds."""
    if not 2 <= w.delta <= n:
        return False
    if w.b % r != residue % r:
        return False
    if w.a % N == 0 or math.gcd(w.a % N, N) != r:
        return False
    expect = tuple((w.b + w.a * i) % N for i in range(w.h, w.h + w.delta - 1))
    if expect != w.progression:
        return False
    return all(x in target_members for x in w.progression)


def _reflect_witness(w, N):
    prog = tuple((N - x) % N for x in w.progression)
    return BchWitness(b=(N - w.b) % N, a=(N - w.a) % N, h=w.h,
                      delta=w.delta, progression=prog)


def parity_odd_m_witnesses(q, m):
    """Progressions in T_(1,n) and T_(0,n) for odd m >= 3 (any odd q > 2).

    epsilon = 0 for q = 3 and q-2 otherwise; deltas q^h+1+eps and
    (q-1)q^(h-1)+1 with h = (m-1)/2.
    """
    if m < 3 or m % 2 == 0:
        raise BadParams("needs odd m >= 3")
    N = q ** m - 1
    h = (m - 1) // 2
    eps = 0 if q == 3 else q - 2
    primal = make_witness(b=(q - 2) * q ** (2 * h), a=q ** h + 1, h=-eps,
                          delta=q ** h + eps + 1, N=N)
    dual = make_witness(b=2 * q ** (2 * h - 1) + q ** (h - 1), a=q ** h + 1,
                        h=0, delta=(q - 1) * q ** (h - 1) + 1, N=N)
    return primal, dual


def parity_even_m_witnesses(q, m):
    """Progressions in T_(1,n), T_(0,n) for q >= 5 and m = 2^e * l, odd l >= 3."""
    e = valuation(m, 2) if m % 2 == 0 else 0
    if q < 5 or e < 1 or (m >> e) < 3:
        raise BadParams("needs q >= 5 and m = 2^e * l with odd l >= 3")
    N = q ** m - 1
    h = (m + 2 ** e) // 2
    delta = q ** (h - 2 ** e) + q
    primal = make_witness(b=q ** (h - 2 ** e + 1), a=q ** h + 1,
                          h=-(q - 2), delta=delta, N=N)
    dual = make_witness(b=q ** (h - 2 ** e + 1) + (q - 1) * q ** (h - 2 ** e),
                        a=q ** h + 1, h=-(q - 2), delta=delta, N=N)
    return primal, dual


def parity_ternary_even_witness(m):
    """Progression in T_(1,n) for q = 3 and even m >= 4 (self-dual case).

    delta = 3^((m-2)/2) + 3 for m = 2 mod 4; (3^((m-2)/2) + 15)/2 otherwise.
    """
    if m < 4 or m % 2:
        raise BadParams("needs even m >= 4")
    N = 3 ** m - 1
    n = N // 2
    if m % 4 == 2:
        h = (m + 2) // 2
        return make_witness(b=3 ** (h - 1), a=3 ** h + 1, h=-1,
                            delta=3 ** (h - 2) + 3, N=N)
    h = (m - 2) // 2
    b = 3 ** (m - 1) - 4 * (3 ** h - 1)
    v = n + 3 ** h - 1
    return make_witness(b=b, a=v, h=1, delta=(3 ** h + 15) // 2, N=N)


def qweight_progressions(q, m, ell):
    """All progressions this module knows inside T_(q,m,ell), by the m mod 4
    case split (empty for m = 2, which no progression argument covers)."""
    if not 0 <= ell <= m - 1:
        raise BadParams("need 0 <= ell <= m-1")
    N = q ** m - 1
    out = []
    if m < 3:
        return tuple(out)
    if m % 2:
        step = q ** ((m + 1) // 2) - 1
        if ell <= (m - 3) // 2:
            out.append(make_witness(b=2 * q ** ell - 1, a=step, h=0,
                                    delta=2 * q ** ell + 1, N=N))
        if ell == (m - 1) // 2:
            out.append(make_witness(b=q ** (m - 1), a=q ** ((m - 1) // 2) - 1,
                                    h=1, delta=q ** ell + 1, N=N))
        if ell >= (m + 1) // 2:
            out.append(make_witness(b=q ** m - (q - 1) * q ** (m - 1 - ell),
                                    a=N - step, h=0,
                                    delta=(q - 1) * q ** (m - 1 - ell) + 1, N=N))
    elif m % 4 == 0:
        big = q ** ((m + 2) // 2) - 1
        small = q ** ((m - 2) // 2) - 1
        if ell <= (m - 4) // 2:
            out.append(make_witness(b=2 * q ** ell - 1, a=big, h=0,
                                    delta=2 * q ** ell + 1, N=N))
        if ell == (m - 2) // 2:
            out.append(make_witness(b=q ** (m - 1), a=small, h=1,
                                    delta=q ** ell + 1, N=N))
        if ell == m // 2:
            out.append(make_witness(b=2 * q ** (m - 1) - 1, a=N - small, h=1,
                                    delta=q ** ((m - 2) // 2) + 1, N=N))
        if ell >= (m + 2) // 2:
            out.append(make_witness(b=q ** m - (q - 1) * q ** (m - 1 - ell),
                                    a=N - big, h=0,
                                    delta=(q - 1) * q ** (m - 1 - ell) + 1, N=N))
    else:  # m = 2 mod 4, m >= 6
        if m < 6:
            return tuple(out)
        big = q ** ((m + 4) // 2) - 1
        small = q ** ((m - 4) // 2) - 1
        if ell <= (m - 6) // 2:
            out.append(make_witness(b=2 * q ** ell - 1, a=big, h=0,
                                    delta=2 * q ** ell + 1, N=N))
        if ell == (m - 4) // 2:
            out.append(make_witness(b=q ** (m - 1), a=small, h=1,
                                    delta=q ** ell + 1, N=N))
        if ell == (m - 2) // 2:
            out.append(make_witness(b=q ** (m - 1) + (q - 1) * q ** (m - 2),
                                    a=small, h=1,
                                    delta=q ** ((m - 4) // 2) + 1, N=N))
        if ell == m // 2:
            out.append(make_witness(
                b=q ** (m - 1) + (q - 1) * q ** (m - 2) + (q - 1) * q ** (m - 3),
                a=small, h=1, delta=q ** ((m - 4) // 2) + 1, N=N))
        if ell == (m + 2) // 2:
            out.append(make_witness(b=2 * q ** (m - 1) - 1, a=N - small, h=1,
                                    delta=q ** ((m - 4) // 2) + 1, N=N))
        if ell >= (m + 4) // 2:
            out.append(make_witness(b=q ** m - (q - 1) * q ** (m - 1 - ell),
                                    a=N - big, h=0,
                                    delta=(q - 1) * q ** (m - 1 - ell) + 1, N=N))
    return tuple(out)


def qweight_complement_progression(q, m, ell):
    """Progression avoiding T_(q,m,ell): {1 + (q-1)i mod N} over the stated
    window; certifies the dual bound q^(m-1-ell) + 2(q^ell-1)/(q-1)."""
    if m < 3:
        raise BadParams("needs m >= 3")
    N = q ** m - 1
    delta = q ** (m - 1 - ell) + 2 * (q ** ell - 1) // (q - 1)
    return make_witness(b=1, a=q - 1, h=-(q ** (m - 1 - ell) - 1),
                        delta=delta, N=N)


def s1_witnesses(q, m):
    FamilyParams(family="s1", q=q, m=m)
    N = q ** m - 1
    M = q ** ((m - 1) // 2)
    primal = make_witness(b=q ** (m - 1), a=M - 1, h=-(q - 1),
                          delta=M + q + 1, N=N)
    dual = make_witness(b=1, a=N - (q - 1), h=1, delta=M, N=N)
    return primal, dual


def s2_witnesses(q, m):
    FamilyParams(family="s2", q=q, m=m)
    N = q ** m - 1
    M = q ** ((m - 1) // 2)
    primal = make_witness(b=q ** (m - 1), a=M - 1, h=-(q - 1),
                          delta=M + 2 * q + 1, N=N)
    dual = make_witness(b=q ** m - (q - 1) * q ** ((m - 3) // 2),
                        a=N - (q ** ((m + 1) // 2) - 1), h=0,
                        delta=(q - 1) * q ** ((m - 3) // 2) + 1, N=N)
    return primal, dual


# ----------------------------------------------------------------------
# closed-form reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormReport:
    """Dimension plus witness-backed distance bounds for a family instance."""

    params: FamilyParams
    n: int
    dimension: int
    dual_dimension: int
    distance_lb: int = None
    witness: BchWitness = None
    dual_distance_lb: int = None
    dual_witness: BchWitness = None
    expected_distance: int = None   # exact value known from outside results
    weight_modulus: int = None      # every nonzero weight divisible by this
    notes: tuple = ()

    def dual_view(self):
        """The same report seen from the dual code's side."""
        return ClosedFormReport(
            params=self.params, n=self.n, dimension=self.dual_dimension,
            dual_dimension=self.dimension, distance_lb=self.dual_distance_lb,
            witness=self.dual_witness, dual_distance_lb=self.distance_lb,
            dual_witness=self.witness, expected_distance=None,
            weight_modulus=self.weight_modulus,
            notes=self.notes + ("dual view",))

    def to_json(self):
        def wj(w):
            if w is None:
                return None
            return {"b": w.b, "a": w.a, "h": w.h, "delta": w.delta,
                    "progression": list(w.progression)}
        return {
            "family": self.params.to_json(),
            "n": self.n,
            "dimension": self.dimension,
            "dual_dimension": self.dual_dimension,
            "distance_lb": self.distance_lb,
            "witness": wj(self.witness),
            "dual_distance_lb": self.dual_distance_lb,
            "dual_witness": wj(self.dual_witness),
            "expected_distance": self.expected_distance,
            "notes": list(self.notes),
        }


def _best_valid(cands, target, N, r, n):
    best = None
    for w in cands:
        if w is None:
            continue
        if check_witness(w, target, N, r, n):
            if best is None or w.delta > best.delta:
                best = w
    return best


def closed_form_bounds(params):
    """Closed-form dimension and validated progression bounds.

    Cases outside every stated hypothesis come back with the distance fields
    None and an explanatory note; that is an outcome, not an error.
    """
    p = params
    q, m, N, n, r = p.q, p.m, p.N, p.n, p.r
    dset = family_defining_set(p)
    dim = family_dimension(p)
    if dim != n - len(dset):
        raise ArithmeticError(
            f"closed-form dimension {dim} != enumerated {n - len(dset)}")
    members = dset.members
    comp = dset.complement().members
    notes = []
    d_lb = w = dd_lb = dw = expected = wmod = None
    # self-dual ternary instances are self-orthogonal: all weights = 0 mod 3
    if q == 3 and (p.family == "s4"
                   or (p.family == "parity" and m % 2 == 0)):
        wmod = 3

    if p.family == "parity":
        if m % 2 and m >= 3:
            prim, du = parity_odd_m_witnesses(q, m)
            notes.append("odd-m progression pair")
        elif q == 3 and m >= 4:
            prim = parity_ternary_even_witness(m)
            du = _reflect_witness(prim, N)
            notes.append("ternary even-m self-dual progression")
        elif q >= 5 and m % 2 == 0 and (m >> valuation(m, 2)) >= 3:
            prim, du = parity_even_m_witnesses(q, m)
            notes.append("even-m progression pair for q >= 5")
        else:
            prim = du = None
            notes.append(f"no stated progression covers (q, m) = ({q}, {m})")
        if prim is not None:
            t1 = _parity_members(q, m, 1)
            t0 = _parity_members(q, m, 0)
            if p.i == 1:
                w = _best_valid([prim], t1, N, r, n)
                dw = _best_valid([du], t0, N, r, n)
            else:
                w = _best_valid([du], t0, N, r, n)
                dw = _best_valid([prim], t1, N, r, n)
            d_lb = w.delta if w else None
            dd_lb = dw.delta if dw else None

    elif p.family == "qweight":
        w = _best_valid(qweight_progressions(q, m, p.ell), members, N, r, n)
        d_lb = w.delta if w else None
        if m >= 3:
            dw = _best_valid([qweight_complement_progression(q, m, p.ell)],
                             comp, N, r, n)
            dd_lb = dw.delta if dw else None
        if w is None:
            notes.append("no stated progression covers this (m, ell)")

    elif p.family == "cprm":
        expected = 3 * q ** p.ell
        notes.append("exact distance 3*q^ell from the projective "
                     "Reed-Muller connection")
        cands = []
        for i in range(p.ell + 1):
            cands.extend(qweight_progressions(q, m, i))
        w = _best_valid(cands, members, N, r, n)
        d_lb = w.delta if w else None
        dcands = []
        for i in range(p.ell + 1, m):
            dcands.extend(qweight_progressions(q, m, i))
        dw = _best_valid(dcands, comp, N, r, n)
        dd_lb = dw.delta if dw else None

    elif p.family in ("s1", "s2"):
        prim, du = (s1_witnesses if p.family == "s1" else s2_witnesses)(q, m)
        w = _best_valid([prim], members, N, r, n)
        dw = _best_valid([du], comp, N, r, n)
        d_lb = w.delta if w else None
        dd_lb = dw.delta if dw else None

    elif p.family == "s3":
        cands = list(qweight_progressions(q, m, p.ell))
        cands += qweight_progressions(q, m, m - 1 - p.ell)
        w = _best_valid(cands, members, N, r, n)
        d_lb = w.delta if w else None
        dcands = []
        for lp in range(m):
            if lp not in (p.ell, m - 1 - p.ell):
                dcands.extend(qweight_progressions(q, m, lp))
        dcands.append(qweight_complement_progression(q, m, p.ell))
        dcands.append(qweight_complement_progression(q, m, m - 1 - p.ell))
        dw = _best_valid(dcands, comp, N, r, n)
        dd_lb = dw.delta if dw else None

    elif p.family == "s4":
        cands = []
        for j in p.selectors:
            cands.extend(qweight_progressions(q, m, j))
        w = _best_valid(cands, members, N, r, n)
        if w is not None:
            # self-dual ternary distances are multiples of 3
            d_lb = w.delta + (-w.delta) % 3
            dw = _best_valid([_reflect_witness(w, N)], comp, N, r, n)
            dd_lb = d_lb if dw is not None else None
            notes.append("bound lifted to the next multiple of 3 "
                         "(ternary self-dual)")

    return ClosedFormReport(params=p, n=n, dimension=dim,
                            dual_dimension=n - dim, distance_lb=d_lb,
                            witness=w, dual_distance_lb=dd_lb, dual_witness=dw,
                            expected_distance=expected, weight_modulus=wmod,
                            notes=tuple(notes))


# ----------------------------------------------------------------------
# progression search
# ----------------------------------------------------------------------

def default_step_candidates(q, r, N):
    """Valid steps a (gcd(a, N) = r): the full sweep when affordable,
    otherwise the power-adjacent steps the closed forms use."""
    n = N // r
    full = [a for a in range(r, N, r) if math.gcd(a, N) == r]
    if len(full) * n <= 20_000_000:
        return full
    m = 1
    while q ** m - 1 < N:
        m += 1
    cands = {r}
    for h in range(1, m + 1):
        for a in (q ** h + 1, q ** h - 1, N - q ** h - 1, N - q ** h + 1,
                  n + q ** h - 1):
            a %= N
            if a and math.gcd(a, N) == r:
                cands.add(a)
    return sorted(cands)


def bch_search(dset):
    """Best progression inside the defining set.

    Exhaustive over starting points for every step of
    default_step_candidates: for a fixed step a the walk b, b+a, b+2a, ...
    visits the whole residue class with period n, so one circular sweep
    finds the longest run.  The sweep ends at the first step whose run
    covers the class (delta = n).  Ties prefer the smallest step, then the
    smallest starting point.  For the dual's bound, search the complement.
    """
    uni = dset.universe
    N, r, n, residue = uni.N, uni.r, uni.n, uni.residue
    if not dset.members:
        raise NoProgression("empty target set")
    flags_by_elem = np.zeros(n, dtype=bool)
    for x in dset.members:
        flags_by_elem[(x - residue) // r] = True
    idx = np.arange(n, dtype=np.int64)
    best = None  # (delta, a, b)
    for a in default_step_candidates(uni.q, r, N):
        walk = (residue + a * idx) % N
        flags = flags_by_elem[(walk - residue) // r]
        if flags.all():
            delta, b = n, int(walk[0])
        else:
            # runs of flags between consecutive gaps, the last one wrapping
            gaps = np.flatnonzero(~flags)
            gaps = np.append(gaps, gaps[0] + n)
            runs = np.diff(gaps) - 1
            longest = int(runs.max())
            if longest == 0:
                continue  # unreachable for a nonempty target
            starts = gaps[:-1][runs == longest] + 1
            delta, b = min(longest + 1, n), int(walk[starts % n].min())
        if best is None or delta > best[0]:
            best = (delta, a, b)
            if delta >= n:
                break
    if best is None:
        raise NoProgression("no progression of length >= 1 found")
    delta, a, b = best
    return make_witness(b=b, a=a, h=0, delta=delta, N=N)
