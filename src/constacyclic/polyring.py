"""Univariate polynomials over a tower, x^n - lambda and minimal
polynomials of cyclotomic cosets.

Coefficients are stored in the tower's log representation (ascending powers,
no trailing zeros).  Polynomials whose coefficients lie in GF(q) round-trip
through integer code lists; the pretty printer emits the descending-power
string form, e.g. "x^8 + 2x^7 + x^5 + x^3 + 2x + 1".

``Poly`` arithmetic loops over coefficients in Python.  It is kept for work
in the extension field (minimal polynomials) and as the reference the tests
check the fast paths against.  GF(q) polynomials of code length use
``mul_codes`` and ``divmod_codes`` instead: ascending uint8 code arrays and
the tower's ``SubfieldTables``, one vector update per coefficient.
"""

from __future__ import annotations

import numpy as np

from .errors import (CoefficientLeak, DivByZero, ShiftMismatch,
                     ZeroConstantTerm)
from .galois import ONE, ZERO


class Poly:
    """Polynomial over a tower; immutable, compared by coefficients."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == ZERO:
            coeffs.pop()
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, tower):
        return cls(tower, ())

    @classmethod
    def one(cls, tower):
        return cls(tower, (ONE,))

    @classmethod
    def from_codes(cls, tower, codes):
        return cls(tower, (tower.from_code(c) for c in codes))

    def codes(self):
        """Ascending GF(q) codes; CoefficientLeak if any coefficient escapes."""
        return tuple(self.tower.subfield_code(c) for c in self.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if self.is_zero():
            raise DivByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == ONE

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.tower is other.tower
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.tower), self.coeffs))

    def _check_same(self, other):
        if self.tower is not other.tower:
            raise ShiftMismatch("polynomials live over different towers")

    def __add__(self, other):
        self._check_same(other)
        t = self.tower
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = t.add(out[i], c)
        return Poly(t, out)

    def __neg__(self):
        t = self.tower
        return Poly(t, (t.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same(other)
        t = self.tower
        if self.is_zero() or other.is_zero():
            return Poly.zero(t)
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == ZERO:
                continue
            for j, b in enumerate(other.coeffs):
                if b != ZERO:
                    out[i + j] = t.add(out[i + j], (a + b) % t.N)
        return Poly(t, out)

    def scale(self, c):
        t = self.tower
        if c == ZERO:
            return Poly.zero(t)
        return Poly(t, (t.mul(x, c) for x in self.coeffs))

    def divmod(self, divisor):
        self._check_same(divisor)
        if divisor.is_zero():
            raise DivByZero("polynomial division by zero")
        t = self.tower
        inv_lc = t.inv(divisor.lc())
        rem = list(self.coeffs)
        dd = divisor.degree
        quo = [ZERO] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == ZERO:
                continue
            f = t.mul(c, inv_lc)
            quo[i - dd] = f
            for j, dj in enumerate(divisor.coeffs):
                if dj != ZERO:
                    rem[i - dd + j] = t.sub(rem[i - dd + j], t.mul(f, dj))
        return Poly(t, quo), Poly(t, rem[:dd])

    def __mod__(self, divisor):
        return self.divmod(divisor)[1]

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.tower.inv(self.lc()))

    def eval(self, point):
        """Horner evaluation at a tower element (log representation)."""
        t = self.tower
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = t.add(t.mul(acc, point), c)
        return acc

    def reciprocal(self):
        """f0^{-1} x^deg f(1/x); needs f(0) != 0."""
        if self.is_zero() or self.coeffs[0] == ZERO:
            raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
        t = self.tower
        inv0 = t.inv(self.coeffs[0])
        return Poly(t, (t.mul(c, inv0) for c in reversed(self.coeffs)))

    # -- presentation --

    def _coeff_str(self, code):
        t = self.tower
        if t.spec.s == 1:
            return str(code)
        if code == 1:
            return "1"
        # exponent of the coefficient as a power of w inside the subfield
        unit = t.N // (t.q - 1)
        a = (t.from_code(code) % t.N) // unit
        b = t.omega_log // unit
        e = a * pow(b, -1, t.q - 1) % (t.q - 1)
        return "w" if e == 1 else f"w^{e}"

    def pretty(self):
        """Descending-power display form, matching the report conventions."""
        if self.is_zero():
            return "0"
        prime = self.tower.spec.s == 1
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == ZERO:
                continue
            cs = self._coeff_str(self.tower.subfield_code(c))
            if e == 0:
                terms.append(cs)
                continue
            xs = "x" if e == 1 else f"x^{e}"
            if cs == "1":
                terms.append(xs)
            elif prime:
                terms.append(f"{cs}{xs}")
            else:
                terms.append(f"{cs}*{xs}")
        return " + ".join(terms)

    def to_json(self):
        return {"field": self.tower.q, "coeffs": list(self.codes())}

    def __repr__(self):
        return f"Poly({self.pretty()})"


def _trim(codes):
    """Drop trailing zero codes (the zero polynomial is the empty array)."""
    nz = np.flatnonzero(codes)
    return codes[:nz[-1] + 1] if len(nz) else codes[:0]


def mul_codes(a, b, tables):
    """Product of two GF(q) polynomials given as ascending code arrays.

    One vector pass over the longer factor per nonzero coefficient of the
    shorter one; returns a trimmed uint8 array.
    """
    a = _trim(np.asarray(a, dtype=np.uint8))
    b = _trim(np.asarray(b, dtype=np.uint8))
    if not len(a) or not len(b):
        return np.zeros(0, dtype=np.uint8)
    if len(a) < len(b):
        a, b = b, a
    add, mul = tables.add, tables.mul
    out = np.zeros(len(a) + len(b) - 1, dtype=np.uint8)
    for i, c in enumerate(b.tolist()):
        if c:
            seg = out[i:i + len(a)]
            seg[:] = add[seg, mul[c, a]]
    return out


def divmod_codes(a, b, tables):
    """(quotient, remainder) of GF(q) code arrays by synthetic division.

    Each quotient coefficient f costs one vector update of deg(b) + 1
    entries, rem[i - deg b : i + 1] += f * (-b), read from a precomputed
    (q, deg b + 1) table.  Both results are trimmed uint8 arrays.
    """
    a = _trim(np.asarray(a, dtype=np.uint8))
    b = _trim(np.asarray(b, dtype=np.uint8))
    if not len(b):
        raise DivByZero("polynomial division by zero")
    db = len(b) - 1
    rem = a.copy()
    if len(rem) <= db:
        return np.zeros(0, dtype=np.uint8), rem
    add, mul = tables.add, tables.mul
    inv_lc = int(tables.inv[b[-1]])
    step = mul[:, tables.neg[b]]           # step[f] = f * (-b)
    quo = np.zeros(len(rem) - db, dtype=np.uint8)
    for i in range(len(rem) - 1, db - 1, -1):
        c = int(rem[i])
        if c:
            f = int(mul[c, inv_lc])
            quo[i - db] = f
            seg = rem[i - db:i + 1]
            seg[:] = add[seg, step[f]]
    return quo, _trim(rem[:db])


def xn_minus_lambda(tower):
    """x^n - lambda in the tower's coefficient field."""
    coeffs = [tower.neg(tower.lambda_log)] + [ZERO] * (tower.n - 1) + [ONE]
    return Poly(tower, coeffs)


def minimal_polynomial(coset, tower):
    """Product of (x - beta^j) over a coset; monic, coefficients in GF(q)."""
    t = tower
    f = Poly.one(t)
    for j in coset.members:
        f = f * Poly(t, (t.neg(t.pow(t.beta, j)), ONE))
    for c in f.coeffs:
        if c != ZERO and not t.in_subfield(c):
            raise CoefficientLeak(
                f"minimal polynomial of beta^{coset.leader} left GF({t.q}); "
                "tower tables are inconsistent")
    return f


def reciprocal(f):
    return f.reciprocal()
