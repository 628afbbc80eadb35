import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constacyclic import families as F
from constacyclic.codes import defining_set
from constacyclic.errors import BadParams, NoProgression
from constacyclic.qadic import (cyclotomic_coset, qweight, index_universe,
                                valuation)


def family_set(family, q, m, **knobs):
    """The defining set of a family instance that FamilyParams validates."""
    return F.family_defining_set(F.FamilyParams(family=family, q=q, m=m,
                                                **knobs))


def parity_members_oracle(q, m, i):
    N = q ** m - 1
    return {h for h in range(1, N, 2)
            if sum(1 for j in range(m) if (h // q ** j) % q) % 2 == i}


# ----------------------------------------------------------------------
# the paper's stated bounds and digit formula, as literal references
# ----------------------------------------------------------------------

def qweight_distance_bound(q, m, ell):
    """The stated primal lower bound for the q-weight family, or None when
    the hypotheses cover no case (m = 2)."""
    if m % 2:
        if ell <= (m - 3) // 2:
            return 2 * q ** ell + 1
        if ell == (m - 1) // 2:
            return q ** ((m - 1) // 2) + 1
        return (q - 1) * q ** (m - 1 - ell) + 1
    if m % 4 == 0:
        if ell <= (m - 4) // 2:
            return 2 * q ** ell + 1
        if ell in ((m - 2) // 2, m // 2):
            return q ** ((m - 2) // 2) + 1
        return (q - 1) * q ** (m - 1 - ell) + 1
    if m == 2:
        return None
    if ell <= (m - 6) // 2:
        return 2 * q ** ell + 1
    if ell <= (m + 2) // 2:
        return q ** ((m - 4) // 2) + 1
    return (q - 1) * q ** (m - 1 - ell) + 1


def qweight_dual_distance_bound(q, m, ell):
    if m < 3:
        return None
    return q ** (m - 1 - ell) + 2 * (q ** ell - 1) // (q - 1)


def middle_progression_qweight(q, m, i):
    """Piecewise value of wt_q(q^(m-1) + (q^((m-1)/2) - 1) * i), odd m >= 5
    and -(M-1) <= i <= 2M with M = q^((m-1)/2)."""
    M = q ** ((m - 1) // 2)
    half = (m - 1) // 2
    if i == 0:
        return 1
    if 1 <= i <= M:
        return 1 + (q - 1) * half
    if i == M + 1:
        return 1 + (q - 1) * (m - 1)
    if i >= M + 2:
        return 1 + (q - 1) * (half + valuation(i - M - 1, q))
    return 1 + (q - 1) * (half - valuation(-i, q))


def qweight_members_oracle(q, m, ell):
    N = q ** m - 1
    return {h for h in range(1, N) if qweight(h, q) == 1 + (q - 1) * ell}


def test_parity_set_matches_oracle_and_closed_form():
    for q, m in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (9, 2)]:
        t0 = family_set("parity", q, m, i=0)
        t1 = family_set("parity", q, m, i=1)
        assert t0.members == parity_members_oracle(q, m, 0)
        assert t1.members == parity_members_oracle(q, m, 1)
        assert len(t0) == F.parity_family_size(q, m, 0)
        assert len(t1) == F.parity_family_size(q, m, 1)
        # the two halves partition the residue class
        uni = t0.universe
        assert t0.members | t1.members == set(uni.omega1)
        assert not (t0.members & t1.members)
    with pytest.raises(BadParams):
        family_set("parity", 4, 2, i=1)


def test_parity_size_examples():
    assert F.parity_family_size(3, 3, 1) == (27 + 1) // 4 == 7
    assert F.parity_family_size(3, 3, 0) == (27 - 1 - 2) // 4 == 6
    assert F.parity_family_size(3, 4, 0) == 20
    assert F.parity_family_size(5, 3, 0) == 24
    assert F.parity_family_size(7, 2, 1) == 6
    assert F.parity_family_size(7, 2, 0) == 18


def test_ternary_mirror():
    # i -> 3^m-1-i swaps T_(0,n) and T_(1,n) for even m, fixes each for odd m
    for m in (2, 3, 4, 5, 6):
        N = 3 ** m - 1
        t0 = family_set("parity", 3, m, i=0).members
        t1 = family_set("parity", 3, m, i=1).members
        assert {N - i for i in t0} == (t1 if m % 2 == 0 else t0)


def test_qweight_sets_and_sizes():
    assert sorted(family_set("qweight", 5, 3, ell=0).members) == [1, 5, 25]
    assert sorted(family_set("qweight", 5, 3, ell=2).members) == \
        [49, 69, 73, 89, 93, 97, 109, 113, 117, 121]
    for q, m in [(3, 3), (3, 4), (3, 5), (4, 3), (5, 3), (7, 3), (9, 2)]:
        N = q ** m - 1
        seen = set()
        for ell in range(m):
            T = family_set("qweight", q, m, ell=ell)
            assert T.members == qweight_members_oracle(q, m, ell)
            assert len(T) == F.qweight_family_size(q, m, ell)
            seen |= T.members
        # the classes partition the residue class of 1 mod q-1
        assert seen == set(index_universe(q, q - 1, N).omega1)


def test_qweight_size_examples():
    assert F.qweight_family_size(5, 3, 0) == 3
    assert F.qweight_family_size(3, 3, 1) == 7
    assert F.qweight_family_size(4, 3, 1) == 12


def test_qweight_zero_class_is_power_coset():
    for q, m in [(3, 4), (5, 3), (7, 2)]:
        T = family_set("qweight", q, m, ell=0)
        assert T.members == set(cyclotomic_coset(1, q, q ** m - 1).members)


def test_cprm_nesting():
    for ell in range(0, 2):
        d_small = family_set("cprm", 3, 4, ell=ell)
        d_big = family_set("cprm", 3, 4, ell=ell + 1)
        assert d_small.members < d_big.members


def test_subcode_sets():
    # S4 with the published selector pair
    s4 = family_set("s4", 3, 4, selectors=(0, 2))
    assert sorted(s4.members) == [1, 3, 9, 17, 23, 25, 27, 35, 41, 43, 47,
                                  49, 51, 59, 61, 65, 67, 69, 73, 75]
    # identity selectors reproduce the projective RM union
    s4_id = family_set("s4", 3, 4, selectors=(0, 1))
    assert s4_id.members == family_set("cprm", 3, 4, ell=1).members
    # S1, S2 disjoint unions have the right sizes
    s1 = family_set("s1", 3, 5)
    assert len(s1) == F.qweight_family_size(3, 5, 2) + 5
    s2 = family_set("s2", 3, 5)
    assert len(s2) == F.qweight_family_size(3, 5, 2) + 10
    with pytest.raises(BadParams):
        family_set("s4", 3, 4, selectors=(0, 3))
    with pytest.raises(BadParams):
        family_set("s1", 3, 4)


def test_family_dimensions_match_enumeration():
    cases = [
        F.FamilyParams(family="parity", q=3, m=4, i=0),
        F.FamilyParams(family="parity", q=7, m=2, i=1),
        F.FamilyParams(family="qweight", q=4, m=3, ell=1),
        F.FamilyParams(family="cprm", q=3, m=4, ell=1),
        F.FamilyParams(family="s1", q=3, m=5),
        F.FamilyParams(family="s2", q=5, m=5),
        F.FamilyParams(family="s3", q=3, m=4, ell=0),
        F.FamilyParams(family="s4", q=3, m=6, selectors=(0, 4, 3)),
    ]
    for params in cases:
        dset = F.family_defining_set(params)
        assert F.family_dimension(params) == params.n - len(dset)


def test_family_params_validation_and_json():
    with pytest.raises(BadParams):
        F.FamilyParams(family="qweight", q=3, m=3, ell=3)
    with pytest.raises(BadParams):
        F.FamilyParams(family="cprm", q=3, m=3, ell=2)
    with pytest.raises(BadParams):
        F.FamilyParams(family="nope", q=3, m=3)
    with pytest.raises(BadParams):
        F.FamilyParams(family="parity", q=3, m=3)   # missing i
    p = F.FamilyParams(family="s4", q=3, m=4, selectors=(0, 2))
    assert p.to_json() == {"family": "s4", "q": 3, "m": 4, "selectors": [0, 2]}


# ----------------------------------------------------------------------
# progression witnesses
# ----------------------------------------------------------------------

def assert_valid(witness, members, q, m, r, residue=1):
    N = q ** m - 1
    assert F.check_witness(witness, members, N, r, N // r, residue), (
        witness, q, m)


def test_parity_odd_m_witnesses():
    for q, m in [(3, 3), (3, 5), (3, 7), (5, 3), (5, 5), (7, 3), (9, 3)]:
        prim, dual = F.parity_odd_m_witnesses(q, m)
        assert_valid(prim, family_set("parity", q, m, i=1).members, q, m, 2)
        assert_valid(dual, family_set("parity", q, m, i=0).members, q, m, 2)
        eps = 0 if q == 3 else q - 2
        assert prim.delta == q ** ((m - 1) // 2) + 1 + eps
        assert dual.delta == (q - 1) * q ** ((m - 3) // 2) + 1


def test_parity_odd_m_small_example():
    # (q, m) = (3, 3): the progression {9, 13, 17} inside T_(1,13)
    prim, _ = F.parity_odd_m_witnesses(3, 3)
    assert prim.progression == (9, 13, 17)
    assert prim.a == 4 and prim.delta == 4


def test_parity_even_m_witnesses():
    for q, m in [(5, 6), (9, 6)]:
        prim, dual = F.parity_even_m_witnesses(q, m)
        assert_valid(prim, family_set("parity", q, m, i=1).members, q, m, 2)
        assert_valid(dual, family_set("parity", q, m, i=0).members, q, m, 2)
        assert prim.delta == dual.delta == q ** ((m - 2) // 2) + q
    with pytest.raises(BadParams):
        F.parity_even_m_witnesses(3, 6)
    with pytest.raises(BadParams):
        F.parity_even_m_witnesses(5, 4)  # m = 2^2, odd part 1


def test_parity_ternary_even_witness():
    for m in (4, 6, 8):
        w = F.parity_ternary_even_witness(m)
        assert_valid(w, family_set("parity", 3, m, i=1).members, 3, m, 2)
        if m % 4 == 0:
            assert w.delta == (3 ** ((m - 2) // 2) + 15) // 2
        else:
            assert w.delta == 3 ** ((m - 2) // 2) + 3
    assert F.parity_ternary_even_witness(4).delta == 9


@pytest.mark.parametrize("q,m", [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7),
                                 (3, 8), (5, 3), (5, 4), (5, 5), (4, 4)])
def test_qweight_progressions_all_ell(q, m):
    for ell in range(m):
        T = family_set("qweight", q, m, ell=ell).members
        wits = F.qweight_progressions(q, m, ell)
        assert wits, (q, m, ell)
        for w in wits:
            assert_valid(w, T, q, m, q - 1)
        best = max(w.delta for w in wits)
        assert best == qweight_distance_bound(q, m, ell)


@pytest.mark.parametrize("q,m", [(3, 3), (3, 4), (3, 5), (3, 8), (5, 3), (4, 3)])
def test_qweight_complement_progressions(q, m):
    uni = index_universe(q, q - 1, q ** m - 1)
    for ell in range(m):
        T = family_set("qweight", q, m, ell=ell).members
        comp = set(uni.omega1) - T
        w = F.qweight_complement_progression(q, m, ell)
        assert_valid(w, comp, q, m, q - 1)
        assert w.delta == qweight_dual_distance_bound(q, m, ell)


def test_s1_s2_witnesses():
    for q, m in [(3, 5), (3, 7), (5, 5)]:
        uni = index_universe(q, q - 1, q ** m - 1)
        for kind, ctor in (("s1", F.s1_witnesses), ("s2", F.s2_witnesses)):
            Z = family_set(kind, q, m).members
            prim, dual = ctor(q, m)
            assert_valid(prim, Z, q, m, q - 1)
            assert_valid(dual, set(uni.omega1) - Z, q, m, q - 1)
        M = q ** ((m - 1) // 2)
        assert F.s1_witnesses(q, m)[0].delta == M + q + 1
        assert F.s1_witnesses(q, m)[1].delta == M
        assert F.s2_witnesses(q, m)[0].delta == M + 2 * q + 1
        assert F.s2_witnesses(q, m)[1].delta == (q - 1) * q ** ((m - 3) // 2) + 1


@pytest.mark.parametrize("q,m", [(3, 5), (3, 7), (5, 5)])
def test_middle_progression_qweight_formula(q, m):
    M = q ** ((m - 1) // 2)
    N = q ** m - 1
    for i in range(-(M - 1), 2 * M + 1):
        value = qweight((q ** (m - 1) + (M - 1) * i) % N, q)
        assert value == middle_progression_qweight(q, m, i), (q, m, i)


# ----------------------------------------------------------------------
# closed-form reports
# ----------------------------------------------------------------------

def test_closed_form_parity():
    rep = F.closed_form_bounds(F.FamilyParams(family="parity", q=3, m=4, i=1))
    assert rep.dimension == 20 and rep.distance_lb == 9
    assert rep.dual_distance_lb == 9

    rep = F.closed_form_bounds(F.FamilyParams(family="parity", q=3, m=3, i=1))
    assert (rep.dimension, rep.distance_lb, rep.dual_distance_lb) == (6, 4, 3)

    rep = F.closed_form_bounds(F.FamilyParams(family="parity", q=5, m=3, i=1))
    assert rep.distance_lb == 5 + 1 + 3 == 9

    # m = 2 falls outside every stated case: dimension only
    rep = F.closed_form_bounds(F.FamilyParams(family="parity", q=5, m=2, i=1))
    assert rep.dimension == 8 and rep.distance_lb is None
    assert any("no stated progression" in s for s in rep.notes)


def test_closed_form_qweight():
    rep = F.closed_form_bounds(F.FamilyParams(family="qweight", q=3, m=3, ell=1))
    assert (rep.dimension, rep.distance_lb, rep.dual_distance_lb) == (6, 4, 5)
    rep = F.closed_form_bounds(F.FamilyParams(family="qweight", q=5, m=2, ell=0))
    assert rep.distance_lb is None and rep.dimension == 4


def test_closed_form_s4_lift():
    rep = F.closed_form_bounds(
        F.FamilyParams(family="s4", q=3, m=4, selectors=(0, 2)))
    assert rep.dimension == 20
    assert rep.distance_lb == 6  # progression delta 4, lifted to 6
    assert rep.dual_distance_lb == 6


def test_closed_form_cprm():
    rep = F.closed_form_bounds(F.FamilyParams(family="cprm", q=3, m=3, ell=0))
    assert rep.expected_distance == 3
    rep = F.closed_form_bounds(F.FamilyParams(family="cprm", q=3, m=4, ell=1))
    assert rep.expected_distance == 9 and rep.dimension == 20


def test_reverse_code_identity_ternary():
    # reversing swaps ell and m-1-ell in the ternary q-weight family
    for m in (2, 3, 4, 5):
        for ell in range(m):
            a = F.family_code(F.FamilyParams(family="qweight", q=3, m=m, ell=ell))
            b = F.family_code(
                F.FamilyParams(family="qweight", q=3, m=m, ell=m - 1 - ell))
            assert a.reverse().g == b.g


def test_parameters_invariant_under_modulus_choice():
    # a different primitive modulus permutes coordinates but fixes (n, k, d)
    from constacyclic.distance import exhaustive_enumerator

    for params in [F.FamilyParams(family="parity", q=3, m=2, i=1),
                   F.FamilyParams(family="qweight", q=5, m=3, ell=0)]:
        default = F.family_code(params)
        preset = F.family_code(params, preset="paper")
        assert default.tower.modulus != preset.tower.modulus
        assert default.params == preset.params
        assert exhaustive_enumerator(default.dual()).counts == \
            exhaustive_enumerator(preset.dual()).counts


def test_reverse_identity_fails_for_larger_q():
    a = F.family_code(F.FamilyParams(family="qweight", q=5, m=3, ell=0))
    b = F.family_code(F.FamilyParams(family="qweight", q=5, m=3, ell=2))
    assert a.reverse().g != b.g


# ----------------------------------------------------------------------
# progression search
# ----------------------------------------------------------------------

def test_bch_search_parity_13():
    ds = family_set("parity", 3, 3, i=1)
    w = F.bch_search(ds)
    assert w.delta >= 4
    assert F.check_witness(w, ds.members, 26, 2, 13)
    # the closed-form progression {9, 13, 17} is one of the valid witnesses
    assert {9, 13, 17} <= ds.members


def test_bch_search_single_coset():
    uni = index_universe(3, 2, 80)
    from constacyclic.codes import defining_set

    ds = defining_set(uni, leaders=[1])
    w = F.bch_search(ds)
    assert 2 <= w.delta <= 5


def test_bch_search_complement_variant():
    ds = family_set("qweight", 3, 3, ell=1)
    w = F.bch_search(ds.complement())
    uni = ds.universe
    comp = set(uni.omega1) - ds.members
    assert F.check_witness(w, comp, 26, 2, 13)
    assert w.delta >= qweight_dual_distance_bound(3, 3, 1)


def test_bch_search_full_class():
    uni = index_universe(3, 2, 8)
    from constacyclic.codes import defining_set

    ds = defining_set(uni, leaders=uni.gamma1)
    w = F.bch_search(ds)
    assert w.delta == 4  # capped at n
    with pytest.raises(NoProgression):
        F.bch_search(defining_set(uni, leaders=()))


def test_bch_beats_or_meets_stated_bounds():
    for q, m, ell in [(3, 3, 0), (3, 3, 1), (3, 4, 1), (4, 3, 1), (5, 3, 1)]:
        ds = family_set("qweight", q, m, ell=ell)
        w = F.bch_search(ds)
        assert w.delta >= qweight_distance_bound(q, m, ell)


def test_bch_search_on_dual_universe():
    # duals of r > 2 codes live in the residue class r-1; the sweep must
    # respect that class throughout
    code = F.family_code(F.FamilyParams(family="qweight", q=4, m=3, ell=1))
    dual = code.dual()
    ds = dual.defining_set
    assert ds.universe.residue == 2
    w = F.bch_search(ds)
    assert F.check_witness(w, ds.members, 63, 3, 21, residue=2)
    assert w.delta >= 2


def bch_search_reference(dset):
    """The run scan as a Python list of (run, start) pairs per step: the
    reference for the vectorised scan in families.bch_search."""
    uni = dset.universe
    N, r, n, residue = uni.N, uni.r, uni.n, uni.residue
    if not dset.members:
        raise NoProgression("empty target set")
    flags_by_elem = np.zeros(n, dtype=bool)
    for x in dset.members:
        flags_by_elem[(x - residue) // r] = True
    idx = np.arange(n, dtype=np.int64)
    best = None  # (delta, a, b)
    for a in F.default_step_candidates(uni.q, r, N):
        walk = (residue + a * idx) % N
        flags = flags_by_elem[(walk - residue) // r]
        if flags.all():
            delta, b = n, int(walk[0])
        else:
            gaps = np.flatnonzero(~flags)
            runs = np.diff(gaps) - 1
            starts = gaps[:-1] + 1
            run_list = list(zip(runs.tolist(), starts.tolist()))
            wrap_run = int(gaps[0]) + n - 1 - int(gaps[-1])
            run_list.append((wrap_run, int(gaps[-1]) + 1))
            longest = max(r0 for r0, _ in run_list)
            if longest == 0:
                continue
            bs = [int(walk[s % n]) for r0, s in run_list if r0 == longest]
            delta, b = min(longest + 1, n), min(bs)
        if best is None or delta > best[0]:
            best = (delta, a, b)
            if delta >= n:
                break
    if best is None:
        raise NoProgression("no progression of length >= 1 found")
    delta, a, b = best
    return F.make_witness(b=b, a=a, h=0, delta=delta, N=N)


# (q, r, N, residue)
BCH_UNIVERSES = [(3, 2, 26, 1), (3, 2, 80, 1), (3, 2, 242, 1), (3, 2, 728, 1),
                 (4, 3, 63, 1), (4, 3, 63, 2), (5, 2, 24, 1), (5, 4, 124, 3),
                 (7, 6, 48, 5), (9, 8, 80, 1)]


def _search_or_error(search, dset):
    try:
        w = search(dset)
    except NoProgression:
        return "NoProgression"
    return (w.delta, w.a, w.b)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bch_search_matches_reference_scan(data):
    q, r, N, residue = data.draw(st.sampled_from(BCH_UNIVERSES))
    uni = index_universe(q, r, N, residue)
    kind = data.draw(st.sampled_from(["random", "full", "single"]))
    if kind == "random":
        leaders = data.draw(st.sets(st.sampled_from(uni.gamma1)))
    elif kind == "full":
        leaders = uni.gamma1
    else:
        leaders = [data.draw(st.sampled_from(uni.gamma1))]
    ds = defining_set(uni, leaders=sorted(leaders))
    if data.draw(st.booleans()):
        ds = ds.complement()
    assert (_search_or_error(F.bch_search, ds)
            == _search_or_error(bch_search_reference, ds))


def test_weight_modulus_marks_self_dual_instances():
    rep = F.closed_form_bounds(F.FamilyParams(family="parity", q=3, m=4, i=1))
    assert rep.weight_modulus == 3
    assert rep.dual_view().weight_modulus == 3
    rep = F.closed_form_bounds(
        F.FamilyParams(family="s4", q=3, m=4, selectors=(0, 2)))
    assert rep.weight_modulus == 3
    # odd length, not self-dual: no modulus
    rep = F.closed_form_bounds(F.FamilyParams(family="parity", q=3, m=3, i=1))
    assert rep.weight_modulus is None
    rep = F.closed_form_bounds(F.FamilyParams(family="parity", q=5, m=2, i=1))
    assert rep.weight_modulus is None
