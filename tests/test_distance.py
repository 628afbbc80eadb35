import itertools

import pytest

from constacyclic import families as F
from constacyclic.codes import ConstacyclicCode, defining_set
from constacyclic.distance import (certify, certify_pair,
                                   exhaustive_enumerator, low_weight_search,
                                   macwilliams_transform, prefix_subcode_probe)
from constacyclic.errors import BadParams, BudgetExceeded
from constacyclic.galois import tower_for
from constacyclic.qadic import index_universe


def parity_code(q, m, i=1, preset=None):
    return F.family_code(F.FamilyParams(family="parity", q=q, m=m, i=i),
                         preset=preset)


def qweight_code(q, m, ell):
    return F.family_code(F.FamilyParams(family="qweight", q=q, m=m, ell=ell))


def naive_distribution(code):
    counts = {}
    q = code.tower.q
    for msg in itertools.product(range(q), repeat=code.k):
        w = sum(1 for x in code.encode(msg) if x)
        counts[w] = counts.get(w, 0) + 1
    return counts


def test_enumerator_mds_example():
    we = exhaustive_enumerator(parity_code(3, 2, preset="paper"))
    assert we.counts == {0: 1, 3: 8}
    assert we.min_distance() == 3


def test_enumerator_zero_code():
    t = tower_for(3, 2, 2)
    uni = index_universe(3, 2, 8)
    z = ConstacyclicCode(t, defining_set(uni, leaders=uni.gamma1))
    we = exhaustive_enumerator(z)
    assert we.counts == {0: 1}
    with pytest.raises(BadParams):
        we.min_distance()


@pytest.mark.parametrize("code_fn", [
    lambda: parity_code(3, 3),
    lambda: parity_code(3, 3, i=0),
    lambda: parity_code(5, 2).dual(),
    lambda: qweight_code(3, 3, 1),
    lambda: qweight_code(4, 3, 0).dual(),   # quaternary table path
    lambda: qweight_code(3, 4, 0).dual(),
    lambda: qweight_code(9, 2, 0).dual(),   # GF(9) table path
])
def test_enumerator_matches_naive(code_fn):
    code = code_fn()
    assert code.tower.q ** code.k <= 10_000
    we = exhaustive_enumerator(code)
    assert we.counts == naive_distribution(code)
    assert sum(we.counts.values()) == code.tower.q ** code.k


def test_enumerator_scalar_divisibility():
    for code in [parity_code(3, 3), qweight_code(5, 3, 0).dual(),
                 qweight_code(4, 3, 1)]:
        we = exhaustive_enumerator(code)
        for w, c in we.counts.items():
            if w:
                assert c % (code.tower.q - 1) == 0


def test_enumerator_budget_refusal():
    with pytest.raises(BudgetExceeded):
        exhaustive_enumerator(parity_code(3, 4), op_budget=10 ** 6)


def lightest_word(code, w_max):
    """(w, word) at the least weight up to w_max holding a codeword, one
    support scan per weight, or (None, None)."""
    for w in range(1, w_max + 1):
        word, _ = low_weight_search(code, w)
        if word is not None:
            return w, word
    return None, None


def test_cross_method_agreement():
    # exhaustive minimum equals the support-scan minimum
    for code in [parity_code(3, 3), parity_code(5, 2), qweight_code(4, 2, 0)]:
        d = exhaustive_enumerator(code).min_distance()
        found, word = lightest_word(code, d)
        assert found == d
        assert sum(1 for x in word if x) == d
        assert code.contains(word)
        assert lightest_word(code, d - 1) == (None, None)


def test_low_weight_search_examples():
    s3 = F.family_code(F.FamilyParams(family="s3", q=3, m=4, ell=0),
                       preset="paper")
    assert lightest_word(s3, 4) == (None, None)  # d >= 5
    word, _ = low_weight_search(s3, 5)
    assert sum(1 for x in word if x) == 5 and s3.contains(word)

    c = parity_code(3, 3)
    w, word = lightest_word(c, 6)
    assert w == 6

    assert lightest_word(c, 0) == (None, None)


def test_low_weight_budget_refusal():
    with pytest.raises(BudgetExceeded):
        low_weight_search(parity_code(3, 4), 9, op_budget=10 ** 6)


def test_macwilliams_pairs():
    for code in [parity_code(3, 3), qweight_code(4, 3, 1),
                 parity_code(3, 2, preset="paper")]:
        we = exhaustive_enumerator(code)
        dual = code.dual()
        wed = exhaustive_enumerator(dual)
        assert macwilliams_transform(we.counts, code.n, code.tower.q) == wed.counts
        assert macwilliams_transform(wed.counts, code.n, code.tower.q) == we.counts


def test_probes_return_real_codewords():
    code = parity_code(3, 4)
    w, word, _ = prefix_subcode_probe(code, op_budget=10 ** 7)
    assert word is not None and code.contains(word)
    assert sum(1 for x in word if x) == w
    # with rows beyond one suffix block, stopping at the weight the full scan
    # reaches returns a codeword of that weight for fewer operations
    w, _, ops = prefix_subcode_probe(code, op_budget=10 ** 9)
    w2, word2, ops2 = prefix_subcode_probe(code, op_budget=10 ** 9, stop_at=w)
    assert w2 == w and code.contains(word2)
    assert sum(1 for x in word2 if x) == w
    assert ops2 < ops


def test_certify_exact_small():
    params = F.FamilyParams(family="parity", q=3, m=3, i=1)
    res = certify(F.family_code(params), hints=F.closed_form_bounds(params))
    assert res.exact and res.lower == res.upper == 6
    assert res.witness_codeword is not None
    assert sum(1 for x in res.witness_codeword if x) == 6
    methods = [m for m, _, _ in res.method_trace]
    assert "closed-form" in methods and "bch-search" in methods


def test_certify_full_space_and_zero():
    t = tower_for(3, 2, 2)
    uni = index_universe(3, 2, 8)
    full = ConstacyclicCode(t, defining_set(uni, leaders=()))
    res = certify(full)
    assert res.exact and res.lower == 1
    zero = ConstacyclicCode(t, defining_set(uni, leaders=uni.gamma1))
    with pytest.raises(BadParams):
        certify(zero)


def test_certify_zero_budget_gives_bound_only():
    params = F.FamilyParams(family="parity", q=3, m=4, i=1)
    res = certify(F.family_code(params), hints=F.closed_form_bounds(params),
                  op_budget=0)
    assert not res.exact
    assert res.lower == 9          # progression bounds are free
    assert res.upper == 40 and res.witness_codeword is None
    methods = [m for m, _, _ in res.method_trace]
    assert methods == ["closed-form", "bch-search"]


def test_certify_monotone_trace():
    params = F.FamilyParams(family="qweight", q=3, m=3, ell=1)
    res = certify(F.family_code(params), hints=F.closed_form_bounds(params))
    assert res.exact and res.lower == 6
    # lower bounds quoted along the trace never decrease
    lows = []
    for _, _, note in res.method_trace:
        if "lower >= " in note:
            lows.append(int(note.split("lower >= ")[1].split()[0]))
    assert lows == sorted(lows)


def test_certify_pair_agrees_with_direct():
    code = parity_code(3, 3)
    res, dres = certify_pair(code)
    assert res.exact and res.lower == 6
    assert dres.exact and dres.lower == 5
    alone = certify(code)
    assert alone.lower == res.lower


def test_certify_pair_transform_side_witness():
    # [21,9,9] enumerated directly; [21,12,7] settled by transform + witness
    code = qweight_code(4, 3, 1)
    res, dres = certify_pair(code)
    assert res.exact and res.lower == 9
    assert dres.exact and dres.lower == 7
    assert dres.witness_codeword is not None


def test_distance_result_json():
    res = certify(parity_code(3, 3))
    blob = res.to_json()
    assert blob["exact"] is True and blob["lower"] == 6
    assert isinstance(blob["method_trace"], list)


def _spent(*results):
    return sum(ops for r in results for _, ops, _ in r.method_trace)


def test_certify_pair_shares_one_budget():
    # Table 2 [57,54] q=7: its dual costs 7^3 * 57 = 19551 ops to enumerate; the
    # probes that follow on the [57,54] side draw on what is left
    params = F.FamilyParams(family="qweight", q=7, m=3, ell=0)
    code = F.family_code(params)
    assert (code.n, code.k) == (57, 54)
    hints = F.closed_form_bounds(params)
    res, dres = certify_pair(code, hints, hints.dual_view(), op_budget=10 ** 5)
    assert _spent(res, dres) <= 10 ** 5
    assert dres.exact and dres.lower == 49


def test_certify_pair_support_scan_replaces_sparse_probe():
    # [57,54] q=7: the dual's distribution gives d = 3 but no witness; a
    # support scan at weight 3 (~1.3e6 ops) supplies it
    params = F.FamilyParams(family="qweight", q=7, m=3, ell=0)
    code = F.family_code(params)
    hints = F.closed_form_bounds(params)
    res, dres = certify_pair(code, hints, hints.dual_view())
    assert res.exact and res.lower == 3
    assert code.contains(res.witness_codeword)
    assert dres.exact and dres.lower == 49
    methods = [m for r in (res, dres) for m, _, _ in r.method_trace]
    assert "support-scan" in methods
    assert [m for m, _, _ in res.method_trace][-1] == "support-scan"


def test_certify_pair_self_dual_certified_once():
    params = F.FamilyParams(family="parity", q=3, m=4, i=1)
    code = F.family_code(params, preset="paper")
    hints = F.closed_form_bounds(params)
    res, dres = certify_pair(code, hints, hints.dual_view())
    for r in (res, dres):
        assert r.exact and r.lower == r.upper == 9
        assert code.contains(r.witness_codeword)
    # no full 3^20-word enumeration, and the dual side costs nothing more
    assert all(ops < 3 ** 20 for _, ops, _ in res.method_trace)
    assert _spent(dres) == 0


def _within_shares(result, budget):
    # the prefix probe gets a hundredth of the budget, the support scan for
    # the witness of a settled distribution a tenth
    prev = None
    for method, ops, _ in result.method_trace:
        if method == "prefix-probe":
            assert ops <= budget // 100, (method, ops)
        if method == "support-scan" and prev == "dual-enumeration":
            assert ops <= budget // 10, (method, ops)
        prev = method


@pytest.mark.parametrize("budget", [0, 10 ** 4, 10 ** 6, 10 ** 8])
def test_certify_never_overspends(budget):
    # [21,18] q=4 settles its distance by its dual's distribution, so its
    # witness comes from a support scan once a tenth of the budget affords it
    for params in [F.FamilyParams(family="parity", q=3, m=4, i=1),
                   F.FamilyParams(family="qweight", q=4, m=3, ell=1),
                   F.FamilyParams(family="qweight", q=5, m=3, ell=1),
                   F.FamilyParams(family="qweight", q=4, m=3, ell=0)]:
        code = F.family_code(params)
        hints = F.closed_form_bounds(params)
        res = certify(code, hints, op_budget=budget)
        assert _spent(res) <= budget
        pair = certify_pair(code, hints, hints.dual_view(), op_budget=budget)
        assert _spent(*pair) <= budget
        for r in (res, *pair):
            _within_shares(r, budget)


@pytest.mark.parametrize("params, interval, dual_interval", [
    (F.FamilyParams(family="parity", q=5, m=3, i=1), (9, 24), (6, 14)),
    (F.FamilyParams(family="qweight", q=3, m=5, ell=1), (7, 13), (29, 45)),
    (F.FamilyParams(family="qweight", q=7, m=3, ell=1), (11, 24), (9, 17)),
    (F.FamilyParams(family="qweight", q=7, m=3, ell=2), (7, 12), (17, 24)),
])
def test_open_rows_keep_their_intervals(params, interval, dual_interval):
    # the four published rows that stay open at the default budget
    code = F.family_code(params)
    hints = F.closed_form_bounds(params)
    for target, h, want in ((code, hints, interval),
                            (code.dual(), hints.dual_view(), dual_interval)):
        res = certify(target, hints=h)
        assert (res.lower, res.upper) == want and not res.exact
        assert target.contains(res.witness_codeword)
        assert sum(1 for x in res.witness_codeword if x) == res.upper


def test_prefix_probe_stops_at_the_lower_bound():
    # the [40,20] self-dual code at a budget below its 3^20-word enumeration:
    # the probe ends at the first word of weight 9, the proven lower bound
    params = F.FamilyParams(family="parity", q=3, m=4, i=1)
    code = F.family_code(params, preset="paper")
    res = certify(code, hints=F.closed_form_bounds(params),
                  op_budget=10 ** 10)
    assert res.exact and res.lower == res.upper == 9
    assert code.contains(res.witness_codeword)
    probe = [ops for m, ops, _ in res.method_trace if m == "prefix-probe"]
    assert probe and probe[0] < 10 ** 8
