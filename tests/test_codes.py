import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constacyclic.codes import (ConstacyclicCode, code_from_descriptor,
                                defining_set)
from constacyclic.errors import (LengthMismatch, NotCosetClosed, ShiftMismatch)
from constacyclic.galois import ONE, ZERO, tower_for
from constacyclic.polyring import Poly, minimal_polynomial, xn_minus_lambda
from constacyclic.qadic import cyclotomic_coset, index_universe
from constacyclic import families as F

from test_families import family_set


def make_code(q, m, r, leaders, preset=None):
    t = tower_for(q, m, r, preset=preset)
    uni = index_universe(q, r, t.N)
    return ConstacyclicCode(t, defining_set(uni, leaders=leaders))


def parity_code(q, m, i=1, preset=None):
    return F.family_code(F.FamilyParams(family="parity", q=q, m=m, i=i),
                         preset=preset)


def qweight_code(q, m, ell, preset=None):
    return F.family_code(F.FamilyParams(family="qweight", q=q, m=m, ell=ell),
                         preset=preset)


def test_empty_and_full_defining_sets():
    c = make_code(3, 2, 2, [])
    assert c.k == c.n == 4 and c.g == Poly.one(c.tower)
    uni = index_universe(3, 2, 8)
    z = ConstacyclicCode(c.tower, defining_set(uni, leaders=uni.gamma1))
    assert z.k == 0
    assert z.g == xn_minus_lambda(c.tower)
    # dual of the full space is the zero code, and conversely
    assert c.dual().k == 0
    assert z.dual().k == z.n


def test_defining_set_closure_validation():
    uni = index_universe(3, 2, 80)
    with pytest.raises(NotCosetClosed):
        defining_set(uni, members={1, 3})          # missing 9, 27
    with pytest.raises(NotCosetClosed):
        defining_set(uni, members={2})             # wrong residue class
    with pytest.raises(NotCosetClosed):
        defining_set(uni, leaders=[3])             # 3 is not a leader
    ds = defining_set(uni, members={1, 3, 9, 27})
    assert ds.leaders == (1,)


TOWERS = [(3, 2, 2), (3, 3, 2), (3, 4, 2), (5, 2, 4), (5, 2, 2),
          (7, 2, 6), (9, 2, 8), (4, 3, 3), (5, 3, 4)]


@pytest.mark.parametrize("q,m,r", TOWERS)
def test_generator_check_identity_all_subsets_or_random(q, m, r):
    t = tower_for(q, m, r)
    uni = index_universe(q, r, t.N)
    leaders = uni.gamma1
    pools = (list(itertools.chain.from_iterable(
        itertools.combinations(leaders, k) for k in range(len(leaders) + 1)))
        if len(leaders) <= 4 else None)
    if pools is None:
        import random

        rng = random.Random(q * 100 + m)
        pools = [tuple(sorted(rng.sample(leaders, rng.randrange(len(leaders) + 1))))
                 for _ in range(12)]
    for chosen in pools:
        c = ConstacyclicCode(t, defining_set(uni, leaders=chosen))
        assert c.g * c.h == xn_minus_lambda(t)
        assert c.g.degree == len(c.defining_set)
        assert c.k == c.n - c.g.degree
        # roots: the generator vanishes exactly on the defining set
        for z in sorted(c.defining_set.members)[:5]:
            assert c.g.eval(t.pow(t.beta, z)) == ZERO
        for z in sorted(set(uni.omega1) - c.defining_set.members)[:3]:
            assert c.g.eval(t.pow(t.beta, z)) != ZERO


def test_dimension_and_dual_dimension():
    c = parity_code(3, 3)
    assert c.params == (13, 6)
    d = c.dual()
    assert d.params == (13, 7)
    assert c.k + d.k == c.n


def test_dual_involution_and_complement():
    for q, m, r in [(3, 3, 2), (5, 2, 4), (4, 3, 3)]:
        t = tower_for(q, m, r)
        uni = index_universe(q, r, t.N)
        c = ConstacyclicCode(t, defining_set(uni, leaders=uni.gamma1[:2]))
        assert c.dual().dual().g == c.g
        assert c.complement().complement().g == c.g
        # dual = reverse of complement
        assert c.dual().g == c.complement().reverse().g
        assert c.dual().residue == (-c.residue) % r


def test_dual_generator_is_reciprocal_of_check():
    for q, m, r in [(3, 3, 2), (5, 2, 4), (4, 3, 3), (9, 2, 8)]:
        t = tower_for(q, m, r)
        uni = index_universe(q, r, t.N)
        c = ConstacyclicCode(t, defining_set(uni, leaders=uni.gamma1[:1]))
        assert c.dual().g == c.h.reciprocal().monic()


def test_parameter_equality_triples():
    # C-perp vs complement, and C vs reverse: same (n, k); same d at desk scale
    from constacyclic.distance import exhaustive_enumerator

    c = parity_code(3, 3)
    dual, comp, rev = c.dual(), c.complement(), c.reverse()
    assert dual.params == comp.params
    assert c.params == rev.params
    assert exhaustive_enumerator(dual).min_distance() == \
        exhaustive_enumerator(comp).min_distance() == 5
    assert exhaustive_enumerator(c).min_distance() == \
        exhaustive_enumerator(rev).min_distance() == 6


def test_reverse_of_mirror_closed_set_is_same_code():
    # odd m keeps each parity class mirror-closed, so C equals its reverse
    c = parity_code(3, 3)
    assert c.reverse().g == c.g


def test_encode_and_contains():
    c = parity_code(3, 3)
    zero = c.encode((0,) * c.k)
    assert zero == (0,) * c.n and c.contains(zero)
    for msg in [(1, 0, 2, 0, 0, 1), (2, 2, 2, 2, 2, 2), (0, 1, 0, 1, 0, 1)]:
        word = c.encode(msg)
        assert c.contains(word)
        # twisted shift stays inside the code
        assert c.contains(c.twisted_shift(word))
    assert not c.contains((1,) + (0,) * (c.n - 1))
    with pytest.raises(LengthMismatch):
        c.encode((0,) * (c.k + 1))
    with pytest.raises(LengthMismatch):
        c.contains((0,) * (c.n - 1))


def test_twisted_shift_convention():
    # shifting the generator to the top degree wraps with a lambda factor
    c = parity_code(3, 2, preset="paper")
    word = c.encode((0, 1))          # x * g(x), degree 3 = n - 1
    shifted = c.twisted_shift(word)  # x^2 g = lambda-wrapped word
    assert c.contains(shifted)
    tab = c.tower.subfield_tables()
    expected = (int(tab.mul[c.lambda_code, word[-1]]),) + word[:-1]
    assert shifted == expected


def test_matrices():
    for code in [parity_code(3, 3), qweight_code(4, 3, 1), parity_code(5, 2)]:
        G = code.generator_matrix()
        H = code.parity_check_matrix()
        assert G.shape == (code.k, code.n)
        assert H.shape == (code.n - code.k, code.n)
        tab = code.tower.subfield_tables()
        # G H^T = 0 over GF(q), entry by entry through the tables
        t = code.tower
        for i in range(code.k):
            for j in range(code.n - code.k):
                acc = -1
                for pos in range(code.n):
                    prod = t.mul(t.from_code(int(G[i, pos])),
                                 t.from_code(int(H[j, pos])))
                    acc = t.add(acc, prod)
                assert acc == -1  # ZERO
        # every G row is a codeword
        for row in G:
            assert code.contains(tuple(int(x) for x in row))


def test_self_duality():
    assert parity_code(3, 2, preset="paper").is_self_dual()
    assert parity_code(3, 4, preset="paper").is_self_dual()
    assert not parity_code(3, 3).is_self_dual()   # odd length
    assert not parity_code(5, 2).is_self_dual()
    # method A agrees by construction; spot-check it explicitly
    c = parity_code(3, 4)
    z = c.defining_set
    neg = z.reflect()
    assert not (z.members & neg.members)
    assert z.members | neg.members == set(z.universe.omega1)


def test_intersect_and_sum():
    c = qweight_code(3, 3, 1)
    full = make_code(3, 3, 2, [])
    assert c.intersect(full).g == c.g
    assert c.is_subcode(full)
    assert not full.is_subcode(c)
    # projective RM chain: D_(3,3,1) = D_(3,3,0) union T_(3,3,1)
    d0 = F.family_code(F.FamilyParams(family="cprm", q=3, m=3, ell=0))
    d1 = F.family_code(F.FamilyParams(family="cprm", q=3, m=3, ell=1))
    assert d0.intersect(c).defining_set == d1.defining_set
    with pytest.raises(ShiftMismatch):
        c.intersect(parity_code(5, 2))


def test_descriptor_round_trip():
    for code in [parity_code(3, 3), qweight_code(5, 3, 2, preset="paper"),
                 qweight_code(4, 3, 1)]:
        d = code.descriptor(family_tag="t")
        c2 = code_from_descriptor(d)
        assert c2.g == code.g
        assert c2.defining_set.leaders == code.defining_set.leaders
        assert c2.descriptor(family_tag="t") == d


small_universe = index_universe(3, 2, 26)


@settings(max_examples=100)
@given(st.sets(st.sampled_from(small_universe.gamma1)))
def test_random_defining_sets_properties(leaders):
    t = tower_for(3, 3, 2)
    c = ConstacyclicCode(t, defining_set(small_universe, leaders=sorted(leaders)))
    assert c.g * c.h == xn_minus_lambda(t)
    assert c.k + c.dual().k == c.n
    assert c.dual().dual().g == c.g
    if 0 < c.k:
        word = c.encode(tuple([1] + [0] * (c.k - 1)))
        assert c.contains(word)
        assert c.contains(c.twisted_shift(word))


# ----------------------------------------------------------------------
# code-space g and h against the log-domain Poly path
# ----------------------------------------------------------------------

# (q, m, r, residue): r > 2 and residue != 1 included
CODE_SPACE_CLASSES = [(3, 3, 2, 1), (3, 4, 2, 1), (5, 2, 4, 3), (5, 3, 4, 1),
                      (5, 3, 4, 3), (7, 2, 6, 5), (4, 3, 3, 2), (9, 2, 8, 3),
                      (25, 2, 2, 1)]


def poly_path_g_h(code):
    """g as a Poly product of minimal polynomials and h = (x^n - lambda) / g."""
    t = code.tower
    g = Poly.one(t)
    for leader in code.defining_set.leaders:
        g = g * minimal_polynomial(cyclotomic_coset(leader, t.q, t.N), t)
    target = Poly(t, [t.neg(code.lambda_log)] + [ZERO] * (code.n - 1) + [ONE])
    if code.residue == 1:
        assert target == xn_minus_lambda(t)
    h, rem = target.divmod(g)
    assert rem.is_zero()
    return g, h


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generator_and_check_match_poly_path(data):
    q, m, r, residue = data.draw(st.sampled_from(CODE_SPACE_CLASSES))
    t = tower_for(q, m, r)
    uni = index_universe(q, r, t.N, residue)
    kind = data.draw(st.sampled_from(["random", "full", "single", "empty"]))
    if kind == "random":
        leaders = data.draw(st.sets(st.sampled_from(uni.gamma1)))
    elif kind == "full":
        leaders = uni.gamma1
    elif kind == "single":
        leaders = [data.draw(st.sampled_from(uni.gamma1))]
    else:
        leaders = []
    c = ConstacyclicCode(t, defining_set(uni, leaders=sorted(leaders)))
    g, h = poly_path_g_h(c)
    assert c.g == g and c.h == h
    assert c.g.degree == c.n - c.k and c.h.degree == c.k
    if c.k < c.n:
        H = c.parity_check_matrix()
        hhat = h.reciprocal().codes()
        assert H[0, :len(hhat)].tolist() == list(hhat)


def test_cofactor_rejects_a_mutated_generator():
    for code in [parity_code(3, 4, preset="paper"), qweight_code(5, 3, 1),
                 make_code(7, 2, 6, [1, 19])]:
        tab = code.tower.subfield_tables()
        good = code._g_codes
        # every change to one non-leading coefficient breaks divisibility
        for pos in range(len(good) - 1):
            for delta in range(1, code.tower.q):
                bad = good.copy()
                bad[pos] = tab.add[bad[pos], delta]
                code._g_codes = bad
                with pytest.raises(ArithmeticError):
                    code._cofactor()
        code._g_codes = good
        assert code._cofactor().tolist() == list(code.h.codes())


# sha256 of bytes(g.codes()) and bytes(h.codes()) for qweight q=3 m=8 l=3
# [3280,2264] over the default modulus, pinned from the log-domain Poly path
QW_3_8_3_G_SHA256 = ("ae745a731c40850f416b5113b52f716b"
                     "4f7ab6cf79c558c4c881d65f8c3233a4")
QW_3_8_3_H_SHA256 = ("a3875dd19885c1b5ba3ab582e14c4d4e"
                     "dd60db7b9bfebf6a423dfab202e87415")


def test_generator_bytes_pinned_at_scale():
    c = qweight_code(3, 8, 3)
    assert (c.n, c.k) == (3280, 2264)
    assert hashlib.sha256(bytes(c.g.codes())).hexdigest() == QW_3_8_3_G_SHA256
    assert hashlib.sha256(bytes(c.h.codes())).hexdigest() == QW_3_8_3_H_SHA256


# ----------------------------------------------------------------------
# Gram products: the reference for is_self_dual
# ----------------------------------------------------------------------

def _gram_mod_p(G, p):
    """G G^T mod p for a matrix of GF(p) codes, by a float64 BLAS product.

    Every entry of the product is a sum of n terms below p^2, so it is exact
    while (p - 1)^2 n < 2^53.
    """
    if (p - 1) ** 2 * G.shape[1] >= 2 ** 53:
        raise ArithmeticError("float64 Gram product would not be exact")
    F = G.astype(np.float64)
    return (F @ F.T).astype(np.int64) % p


def _gram_is_zero(code):
    """G G^T = 0 over GF(q); extension fields go digit by digit."""
    tab = code.tower.subfield_tables()
    if tab.s == 1:
        return not _gram_mod_p(code.generator_matrix(), tab.p).any()
    G = code.generator_matrix().astype(np.int64)
    for t in range(tab.s):
        digmul = tab.dig[t][tab.mul].astype(np.int64)  # digit t of products
        for i in range(code.k):
            if (digmul[G[i][None, :], G].sum(axis=1) % tab.p).any():
                return False
    return True


def _gram_self_dual(code):
    return 2 * code.k == code.n and _gram_is_zero(code)


def test_float_gram_matches_int64():
    self_dual = parity_code(3, 6)
    other = make_code(3, 4, 2, [5, 23, 25, 41, 53])
    assert (self_dual.n, self_dual.k) == (364, 182)
    assert 2 * other.k == other.n
    for code, expect in [(self_dual, True), (other, False)]:
        G = code.generator_matrix()
        exact = (G.astype(np.int64) @ G.astype(np.int64).T) % 3
        assert np.array_equal(_gram_mod_p(G, 3), exact)
        assert _gram_is_zero(code) is expect
        assert code.is_self_dual() is expect


def test_float_gram_refuses_inexact_sizes():
    # a zero-stride view: the size check runs before anything is allocated
    G = np.broadcast_to(np.uint8(1), (1, 2 ** 51))
    with pytest.raises(ArithmeticError):
        _gram_mod_p(G, 3)


def test_self_duality_matches_gram_reference():
    codes = []
    for m in (4, 6, 8):
        tower = tower_for(3, m, 2)
        for sel in itertools.product(*[(j, m - 1 - j) for j in range(m // 2)]):
            dset = family_set("s4", 3, m, selectors=sel)
            codes.append(ConstacyclicCode(tower, dset))
    assert len(codes) == 28
    for q in (3, 4, 5, 7, 9):
        for m in (2, 3):
            base = [qweight_code(q, m, ell) for ell in range(m)]
            if q % 2:
                base += [parity_code(q, m, i) for i in (0, 1)]
            for c in base:
                codes += [c, c.dual(), c.complement(), c.reverse()]
    # every defining set of size n/2 at small lengths (lambda = -1 and
    # lambda of order 3, 4, 6), and over GF(9) the [40,20] negacyclic codes
    # that take one coset of each pair {Z_l, -Z_l}, which are self-dual
    for q, m, r in ((3, 2, 2), (5, 2, 2), (7, 2, 3), (7, 2, 6), (9, 2, 4)):
        uni = index_universe(q, r, q ** m - 1)
        size = {l: len(uni.coset(l)) for l in uni.gamma1}
        for j in range(len(size) + 1):
            for leaders in itertools.combinations(size, j):
                if 2 * sum(size[l] for l in leaders) == uni.n:
                    codes.append(make_code(q, m, r, leaders))
    uni = index_universe(9, 2, 80)
    pairs = sorted({tuple(sorted((l, uni.leader_of(80 - l))))
                    for l in uni.gamma1})
    for side in (0, 1):
        codes.append(make_code(9, 2, 2, [pair[side] for pair in pairs]))
    verdicts = [c.is_self_dual() for c in codes]
    assert verdicts == [_gram_self_dual(c) for c in codes]
    assert all(verdicts[:28]) and all(verdicts[-2:])
    assert any(verdicts[28:-2]) and not all(verdicts[28:-2])
