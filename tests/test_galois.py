import itertools
import math

import pytest

from constacyclic.errors import BadParams, CoefficientLeak, DivByZero, NotPrimitive
from constacyclic.galois import (ONE, ZERO, FieldSpec, build_tower,
                                 find_primitive_modulus, prime_power,
                                 tower_for)

SMALL_TOWERS = [(3, 2, 2), (3, 3, 2), (5, 2, 4), (4, 2, 3), (9, 2, 2)]


def all_elements(t):
    return [ZERO] + list(range(t.N))


def test_prime_power_decomposition():
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(4) == (2, 2)
    with pytest.raises(BadParams):
        prime_power(12)


def test_default_modulus_is_lex_smallest():
    # hand-checked: x^2+1, x^2+x+1, x^2+2x+1, x^2+2 all fail; x^2+x+2 works
    assert find_primitive_modulus(3, 2) == (2, 1, 1)


def test_default_modulus_search_runs_once():
    # a cached default-modulus tower must not repeat the modulus search
    find_primitive_modulus.cache_clear()
    assert tower_for(3, 8, 2) is tower_for(3, 8, 2)
    info = find_primitive_modulus.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_paper_preset_towers():
    t = tower_for(3, 2, 2, preset="paper")
    assert t.modulus == (2, 2, 1)
    assert t.N == 8 and t.n == 4
    # lambda = beta^4 = 2 = -1
    assert t.lambda_code == 2
    assert t.pow(t.beta, 4) == t.from_code(2)

    t = tower_for(3, 4, 2, preset="paper")
    assert t.modulus == (2, 0, 0, 2, 1)
    assert t.N == 80 and t.lambda_code == 2

    t = tower_for(5, 3, 4, preset="paper")
    assert t.modulus == (3, 3, 0, 1)
    assert t.lambda_code == 2 and t.N // math.gcd(t.lambda_log, t.N) == 4

    t = tower_for(4, 4, 3, preset="paper")
    assert t.modulus == (2, 2, 2, 1, 1) and t.modulus_field == "q"
    assert t.lambda_code == 2  # the GF(4) generator w
    assert t.N // math.gcd(t.lambda_log, t.N) == 3


def test_non_primitive_modulus_rejected():
    # x^2 + 1 over GF(3): x has order 4 != 8
    with pytest.raises(NotPrimitive):
        build_tower(3, 1, 2, 2, modulus=(1, 0, 1))
    with pytest.raises(NotPrimitive):
        build_tower(3, 1, 2, 2, modulus=(0, 1, 1))  # x | f


def test_bad_params():
    with pytest.raises(BadParams):
        build_tower(2, 1, 3, 1)          # q = 2
    with pytest.raises(BadParams):
        build_tower(3, 1, 3, 4)          # 4 does not divide 2
    with pytest.raises(BadParams):
        build_tower(4, 1, 2, 3)          # p not prime
    with pytest.raises(BadParams):
        build_tower(3, 1, 15, 2)         # above the table limit
    with pytest.raises(BadParams):
        FieldSpec(p=3, s=1, m=1, r=2)    # m >= 2


def test_mul_exponents_add():
    t = tower_for(3, 2, 2, preset="paper")
    assert t.mul(3, 5) == 0  # beta^3 * beta^5 = beta^8 = 1


def test_additive_identity_and_inverse():
    for q, m, r in SMALL_TOWERS:
        t = tower_for(q, m, r)
        for a in all_elements(t):
            assert t.add(a, ZERO) == a
            assert t.add(a, t.neg(a)) == ZERO
            if a != ZERO:
                assert t.mul(a, t.inv(a)) == ONE
    with pytest.raises(DivByZero):
        tower_for(3, 2, 2).inv(ZERO)


def test_field_axioms_exhaustive_small():
    # exhaustive pairs everywhere, exhaustive triples on GF(9)
    t = tower_for(3, 2, 2)
    elems = all_elements(t)
    for a, b in itertools.product(elems, repeat=2):
        assert t.add(a, b) == t.add(b, a)
        assert t.mul(a, b) == t.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert t.add(t.add(a, b), c) == t.add(a, t.add(b, c))
        assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
        assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))


def test_field_axioms_sampled_larger():
    import random

    rng = random.Random(7)
    for q, m, r in [(5, 2, 4), (9, 2, 2), (4, 3, 3)]:
        t = tower_for(q, m, r)
        elems = all_elements(t)
        for _ in range(300):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
            assert t.add(t.add(a, b), c) == t.add(a, t.add(b, c))


def test_unit_group_order():
    for q, m, r in SMALL_TOWERS:
        t = tower_for(q, m, r)
        for a in range(t.N):
            assert t.pow(a, t.N) == ONE


def test_lambda_has_exact_order_r():
    for q, m, r in [(3, 2, 2), (3, 3, 2), (5, 2, 2), (5, 2, 4), (7, 2, 6),
                    (9, 2, 8), (4, 3, 3)]:
        t = tower_for(q, m, r)
        lam = t.pow(t.beta, t.n)
        assert lam == t.lambda_log
        assert t.pow(lam, r) == ONE
        for r2 in range(1, r):
            assert t.pow(lam, r2) != ONE
        assert t.in_subfield(lam)


def test_frobenius_fixes_exactly_the_subfield():
    for q, m, r in [(3, 2, 2), (3, 4, 2), (9, 2, 2), (4, 3, 3), (5, 3, 4)]:
        t = tower_for(q, m, r)
        for a in all_elements(t):
            assert (t.pow(a, t.q) == a) == t.in_subfield(a)


def test_in_subfield_examples():
    t = tower_for(9, 2, 8)
    assert t.in_subfield(ZERO)
    assert not t.in_subfield(t.beta)
    # lambda = beta^n with r = q-1 has order dividing q-1
    assert t.in_subfield(t.pow(t.beta, t.n))
    # exponent-divisibility oracle
    step = t.N // (t.q - 1)
    for a in range(t.N):
        assert t.in_subfield(a) == (a % step == 0)


def test_subfield_codes_round_trip():
    for q, m, r in SMALL_TOWERS:
        t = tower_for(q, m, r)
        for code in range(q):
            assert t.subfield_code(t.from_code(code)) == code
    t = tower_for(3, 3, 2)
    with pytest.raises(CoefficientLeak):
        t.subfield_code(t.beta)


def test_subfield_tables_agree_with_ops():
    for q, m, r in [(3, 2, 2), (4, 2, 3), (9, 2, 2)]:
        t = tower_for(q, m, r)
        tab = t.subfield_tables()
        for a in range(q):
            for b in range(q):
                ea, eb = t.from_code(a), t.from_code(b)
                assert tab.add[a, b] == t.subfield_code(t.add(ea, eb))
                assert tab.mul[a, b] == t.subfield_code(t.mul(ea, eb))


def test_towers_are_cached_singletons():
    assert tower_for(3, 2, 2) is tower_for(3, 2, 2)


def test_descriptor_rebuild():
    t = tower_for(5, 3, 4, preset="paper")
    d = t.descriptor()
    t2 = build_tower(d["p"], d["s"], d["m"], d["r"], modulus=tuple(d["modulus"]))
    assert t2 is t


def test_pow_edge_cases():
    t = tower_for(3, 2, 2)
    assert t.pow(ZERO, 0) == ONE
    assert t.pow(ZERO, 5) == ZERO
    with pytest.raises(DivByZero):
        t.pow(ZERO, -1)
    assert t.pow(t.beta, -1) == t.inv(t.beta)
