import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constacyclic.errors import (CoefficientLeak, DivByZero, ShiftMismatch,
                                 ZeroConstantTerm)
from constacyclic.galois import (ONE, ZERO, SubfieldTables, factorize,
                                 tower_for)
from constacyclic.polyring import (Poly, divmod_codes, minimal_polynomial,
                                   mul_codes, xn_minus_lambda)
from constacyclic.qadic import cyclotomic_coset, index_universe

TOWERS = [(3, 2, 2), (3, 3, 2), (3, 4, 2), (5, 2, 2), (5, 3, 4),
          (7, 2, 2), (9, 2, 2), (4, 3, 3)]


def T(q, m, r, preset=None):
    return tower_for(q, m, r, preset=preset)


# ----------------------------------------------------------------------
# references: the coset factorization, gcd and an irreducibility test
# ----------------------------------------------------------------------

def factor_xn_minus_lambda(tower):
    """Gamma^(1) leader -> its minimal polynomial; the values multiply to
    x^n - lambda."""
    q, N = tower.q, tower.N
    return {leader: minimal_polynomial(cyclotomic_coset(leader, q, N), tower)
            for leader in index_universe(q, tower.r, N).gamma1}


def poly_gcd(a, b):
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _frobenius_mod(b, f, times):
    """b(x)^(q^times) mod f, by square-and-multiply."""
    for _ in range(times):
        result, base, e = Poly.one(f.tower), b, f.tower.q
        while e:
            if e & 1:
                result = (result * base) % f
            base = (base * base) % f
            e >>= 1
        b = result
    return b


def is_irreducible(f):
    """Rabin's test over GF(q): x^(q^d) = x mod f, and x^(q^(d/p)) - x is
    coprime to f for every prime p | d."""
    d = f.degree
    if d <= 0:
        return False
    x = Poly(f.tower, (ZERO, ONE)) % f
    if _frobenius_mod(x, f, d) != x:
        return False
    return all(poly_gcd(f, _frobenius_mod(x, f, d // p) - x).degree == 0
               for p in factorize(d))


def test_mul_example():
    t = T(3, 2, 2)
    a = Poly.from_codes(t, (1, 1))      # x + 1
    b = Poly.from_codes(t, (2, 1))      # x - 1 = x + 2
    assert (a * b).codes() == (2, 0, 1)  # x^2 + 2


def test_divmod_by_factors():
    t = T(3, 2, 2, preset="paper")
    target = xn_minus_lambda(t)
    for leader in index_universe(3, 2, 8).gamma1:
        g = minimal_polynomial(cyclotomic_coset(leader, 3, 8), t)
        quo, rem = target.divmod(g)
        assert rem.is_zero()
        assert quo * g == target
    with pytest.raises(DivByZero):
        target.divmod(Poly.zero(t))


@given(st.data())
def test_divmod_invariant(data):
    t = T(3, 3, 2)
    deg_a = data.draw(st.integers(0, 10))
    deg_b = data.draw(st.integers(0, 6))
    a = Poly.from_codes(t, data.draw(
        st.lists(st.integers(0, 2), min_size=deg_a + 1, max_size=deg_a + 1)))
    b = Poly.from_codes(t, data.draw(
        st.lists(st.integers(0, 2), min_size=deg_b + 1, max_size=deg_b + 1)))
    if b.is_zero():
        return
    quo, rem = a.divmod(b)
    assert quo * b + rem == a
    assert rem.degree < b.degree


def test_eval_modulus_root():
    t = T(3, 2, 2, preset="paper")
    f = Poly.from_codes(t, (2, 2, 1))
    assert f.eval(t.beta) == ZERO
    assert f.eval(ZERO) == t.from_code(2)


def test_minimal_polynomial_quartic():
    t = T(3, 4, 2, preset="paper")
    coset = cyclotomic_coset(1, 3, 80)
    f = minimal_polynomial(coset, t)
    assert f.is_monic() and f.degree == coset.size == 4
    for j in coset.members:
        assert f.eval(t.pow(t.beta, j)) == ZERO
    for j in (0, 2, 5):  # spot-check non-roots
        assert f.eval(t.pow(t.beta, j)) != ZERO
    assert is_irreducible(f)


def test_minimal_polynomial_trivial_cosets():
    t = T(3, 2, 2)
    f = minimal_polynomial(cyclotomic_coset(0, 3, 8), t)
    assert f.codes() == (2, 1)  # x - 1
    # beta^4 = -1 lies in GF(3): linear minimal polynomial
    f = minimal_polynomial(cyclotomic_coset(4, 3, 8), t)
    assert f.degree == 1


@pytest.mark.parametrize("q,m,r", TOWERS)
def test_factorization_reconstructs(q, m, r):
    t = T(q, m, r)
    factors = factor_xn_minus_lambda(t)
    uni = index_universe(q, r, t.N)
    assert set(factors) == set(uni.gamma1)
    prod = Poly.one(t)
    for leader in sorted(factors):
        f = factors[leader]
        assert f.is_monic()
        assert f.degree == len(uni.coset(leader))
        prod = prod * f
    assert prod == xn_minus_lambda(t)


@pytest.mark.parametrize("q,m,r", [(3, 3, 2), (5, 2, 4), (4, 3, 3)])
def test_factors_irreducible(q, m, r):
    t = T(q, m, r)
    for f in factor_xn_minus_lambda(t).values():
        assert is_irreducible(f)
    assert not is_irreducible(xn_minus_lambda(t))


def test_reciprocal_examples():
    t = T(3, 2, 2)
    f = Poly.from_codes(t, (2, 2, 1))
    assert f.reciprocal().codes() == (2, 1, 1)   # x^2 + x + 2
    g = Poly.from_codes(t, (1, 1))
    assert g.reciprocal() == g                   # palindromic
    c = Poly.from_codes(t, (2,))
    assert c.reciprocal() == Poly.one(t)
    with pytest.raises(ZeroConstantTerm):
        Poly.from_codes(t, (0, 1)).reciprocal()


def test_reciprocal_against_evaluation_oracle():
    t = T(5, 3, 4)
    f = Poly.from_codes(t, (3, 0, 2, 1, 4))
    fr = f.reciprocal()
    inv0 = t.inv(f.coeffs[0])
    for a in range(1, t.N, 17):
        lhs = fr.eval(a)
        rhs = t.mul(inv0, t.mul(t.pow(a, f.degree), f.eval(t.inv(a))))
        assert lhs == rhs
    # double reciprocal returns the monic normalization
    assert fr.reciprocal() == f.monic()


def test_gcd():
    t = T(3, 3, 2)
    a = Poly.from_codes(t, (1, 1))
    b = Poly.from_codes(t, (2, 1))
    assert poly_gcd(a * b, a * a) == a.monic()
    assert poly_gcd(a, Poly.zero(t)) == a.monic()


def test_tower_mismatch():
    p1 = Poly.one(T(3, 2, 2))
    p2 = Poly.one(T(3, 3, 2))
    with pytest.raises(ShiftMismatch):
        p1 * p2


def test_pretty_and_json():
    t = T(5, 3, 4, preset="paper")
    f = minimal_polynomial(cyclotomic_coset(1, 5, 124), t)
    assert f.pretty() == "x^3 + 3x + 3"
    assert f.to_json() == {"field": 5, "coeffs": [3, 3, 0, 1]}
    assert Poly.zero(t).pretty() == "0"
    assert Poly.from_codes(t, (1,)).pretty() == "1"

    t4 = T(4, 2, 3)
    f = Poly.from_codes(t4, (2, 3, 1))  # w + w^2 x + x^2
    assert f.pretty() == "x^2 + w^2*x + w"


def test_coefficient_leak_guard():
    t = T(3, 4, 2)
    # a non-closed root set leaks coefficients outside GF(3)
    from constacyclic.qadic import CyclotomicCoset

    fake = CyclotomicCoset(N=80, leader=1, members=(1, 3))
    with pytest.raises(CoefficientLeak):
        minimal_polynomial(fake, t)


def test_pretty_generator_exponents_for_any_construction():
    # a GF(4)-side modulus whose generator is the square of the canonical
    # one; printed exponents must still be relative to that generator
    from constacyclic.galois import build_tower

    t = build_tower(2, 2, 2, 3, modulus=(3, 1, 1))
    assert t.omega_log == 2 * (t.N // 3)
    f = Poly.from_codes(t, (2, 3, 1))
    assert f.pretty() == "x^2 + w^2*x + w"


# ----------------------------------------------------------------------
# code-space product and division against the log-domain Poly path
# ----------------------------------------------------------------------

# one small tower per coefficient field; GF(2) has none (towers need q > 2)
CODE_SPACE_TOWERS = {3: (3, 3, 2), 4: (4, 3, 3), 5: (5, 2, 4), 7: (7, 2, 6),
                     8: (8, 2, 7), 9: (9, 2, 8), 25: (25, 2, 2),
                     27: (27, 2, 2)}

GF2_TABLES = SubfieldTables(
    p=2, s=1, q=2,
    add=np.array([[0, 1], [1, 0]], dtype=np.uint8),
    mul=np.array([[0, 0], [0, 1]], dtype=np.uint8),
    neg=np.array([0, 1], dtype=np.uint8),
    inv=np.array([0, 1], dtype=np.uint8),
    dig=np.array([[0, 1]], dtype=np.uint8))


def _gf2_divmod(a, b):
    """Schoolbook GF(2) division on trimmed ascending 0/1 lists."""
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        if rem[i + len(b) - 1]:
            quo[i] = 1
            for j, c in enumerate(b):
                rem[i + j] ^= c
    return _strip(quo), _strip(rem[:len(b) - 1])


def _strip(codes):
    codes = list(codes)
    while codes and codes[-1] == 0:
        codes.pop()
    return tuple(codes)


def _gf2_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= x & y
    return _strip(out)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_code_space_matches_poly(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25, 27]))
    deg_b = data.draw(st.integers(0, 8))
    # deg_a < deg_b happens: a dividend shorter than the divisor
    deg_a = data.draw(st.integers(0, 24))
    a = data.draw(st.lists(st.integers(0, q - 1), min_size=deg_a + 1,
                           max_size=deg_a + 1))
    b = data.draw(st.lists(st.integers(0, q - 1), min_size=deg_b,
                           max_size=deg_b)) + [data.draw(st.integers(1, q - 1))]
    if q == 2:
        tables = GF2_TABLES
        prod, (quo, rem) = _gf2_mul(a, b), _gf2_divmod(_strip(a), b)
    else:
        t = tower_for(*CODE_SPACE_TOWERS[q])
        tables = t.subfield_tables()
        pa, pb = Poly.from_codes(t, a), Poly.from_codes(t, b)
        prod = (pa * pb).codes()
        quo, rem = (x.codes() for x in pa.divmod(pb))
    got_prod = mul_codes(np.array(a, dtype=np.uint8), b, tables)
    got_quo, got_rem = divmod_codes(a, np.array(b, dtype=np.uint8), tables)
    assert tuple(got_prod.tolist()) == prod
    assert tuple(got_quo.tolist()) == quo
    assert tuple(got_rem.tolist()) == rem
    assert len(got_rem) < len(b)
    # quotient * divisor + remainder == dividend, in code space
    back = mul_codes(got_quo, b, tables)
    back = np.concatenate([back, np.zeros(max(len(got_rem) - len(back), 0),
                                          dtype=np.uint8)])
    back[:len(got_rem)] = tables.add[back[:len(got_rem)], got_rem]
    assert _strip(back.tolist()) == _strip(a)


def test_code_space_edge_cases():
    tables = tower_for(3, 3, 2).subfield_tables()
    # degree-0 divisor: the quotient is the dividend scaled by its inverse
    quo, rem = divmod_codes([1, 2, 0, 1], [2], tables)
    assert quo.tolist() == [2, 1, 0, 2] and rem.tolist() == []
    # a dividend shorter than the divisor is its own remainder
    quo, rem = divmod_codes([2, 1], [1, 0, 1], tables)
    assert quo.tolist() == [] and rem.tolist() == [2, 1]
    # zero operands and trailing zeros
    assert mul_codes([], [1, 1], tables).tolist() == []
    assert mul_codes([0, 0], [1, 1], tables).tolist() == []
    assert mul_codes([1, 1, 0], [2, 0], tables).tolist() == [2, 2]
    assert divmod_codes([0, 0], [1, 1], tables)[0].tolist() == []
    with pytest.raises(DivByZero):
        divmod_codes([1, 2], [0, 0], tables)
