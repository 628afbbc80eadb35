import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from constacyclic.errors import OutOfRange
from constacyclic.qadic import (cyclotomic_coset, digit_weight, index_universe,
                                qweight, valuation)


def coset_oracle(i, q, N):
    # independent orbit walk
    out = {i % N}
    x = (i * q) % N
    while x not in out:
        out.add(x)
        x = (x * q) % N
    return out


def digits(i, q, m):
    # independent base-q expansion, m digits, low first
    return [(i // q ** j) % q for j in range(m)]


def valuation_identity_check(i, q, m):
    """wt_q(i-1) == wt_q(i) - 1 + (q-1)*v_q(i) for 1 <= i <= q^m - 2."""
    assert 1 <= i <= q ** m - 2
    return qweight(i - 1, q) == qweight(i, q) - 1 + (q - 1) * valuation(i, q)


def weight_constancy_check(coset, q, m):
    """wt_q and wt are constant across a coset mod q^m - 1."""
    expansions = [digits(x, q, m) for x in coset.members]
    return (len({sum(ds) for ds in expansions}) == 1
            and len({sum(1 for d in ds if d) for ds in expansions}) == 1)


def gcd_power_check(h, m, q):
    """gcd(q^h + 1, q^m - 1); 2 whenever m/gcd(h,m) is odd and q is odd."""
    return math.gcd(q ** h + 1, q ** m - 1)


def test_valuation():
    assert valuation(9, 3) == 2
    assert valuation(7, 3) == 0
    with pytest.raises(OutOfRange):
        valuation(0, 3)


def test_valuation_identity_examples():
    # wt_q(8) = 4, wt_q(9) = 1, v = 2: 4 == 1 - 1 + 2*2
    assert qweight(8, 3) == 4 and qweight(9, 3) == 1
    assert valuation_identity_check(9, 3, 3)
    assert valuation_identity_check(1, 3, 3)


@pytest.mark.parametrize("q,m", [(3, 4), (5, 3), (7, 2), (4, 3), (3, 8)])
def test_valuation_identity_exhaustive(q, m):
    for i in range(1, q ** m - 1):
        assert valuation_identity_check(i, q, m)


@given(st.integers(min_value=1, max_value=3 ** 8 - 2))
def test_valuation_identity_property(i):
    assert valuation_identity_check(i, 3, 8)


def test_cyclotomic_coset_examples():
    c = cyclotomic_coset(1, 3, 80)
    assert c.members == (1, 3, 9, 27) and c.leader == 1 and c.size == 4
    assert coset_oracle(1, 3, 80) == set(c.members)

    c = cyclotomic_coset(0, 5, 124)
    assert c.members == (0,) and c.size == 1

    c = cyclotomic_coset(2 * 3 ** 2 - 1, 3, 26)
    assert set(c.members) == {17, 25, 23} and c.leader == 17
    assert coset_oracle(17, 3, 26) == set(c.members)


def test_index_universe_examples():
    uni = index_universe(3, 2, 8)
    assert uni.omega1 == (1, 3, 5, 7)
    assert uni.gamma1 == (1, 5)
    assert uni.coset(1) == (1, 3) and uni.coset(5) == (5, 7)

    assert len(index_universe(3, 2, 26).omega1) == 13
    uni = index_universe(5, 4, 124)
    assert len(uni.omega1) == 31 and uni.omega1[:3] == (1, 5, 9)


@pytest.mark.parametrize("q,r,m", [(3, 2, 2), (3, 2, 3), (3, 2, 4), (3, 2, 8),
                                   (5, 4, 2), (5, 4, 3), (5, 2, 3),
                                   (7, 6, 2), (9, 8, 2), (4, 3, 3)])
def test_partition_property(q, r, m):
    N = q ** m - 1
    uni = index_universe(q, r, N)
    seen = set()
    for leader in uni.gamma1:
        members = set(uni.coset(leader))
        assert not (members & seen)
        seen |= members
        # orbit closure
        for x in members:
            assert (x * q) % N in members
        assert leader == min(members)
    assert seen == set(uni.omega1)


def test_leader_lookup():
    uni = index_universe(3, 2, 80)
    assert uni.leader_of(27) == 1
    with pytest.raises(OutOfRange):
        uni.leader_of(2)


@pytest.mark.parametrize("q,m", [(3, 4), (3, 8), (5, 3), (9, 2)])
def test_qweight_mirror_identity(q, m):
    N = q ** m - 1
    for i in range(1, N):
        assert qweight(N - i, q) + qweight(i, q) == (q - 1) * m


def test_qweight_congruence():
    for q, m in [(3, 4), (5, 3)]:
        for i in range(q ** m - 1):
            assert qweight(i, q) % (q - 1) == i % (q - 1)


def test_weight_constancy():
    assert weight_constancy_check(cyclotomic_coset(1, 3, 80), 3, 4)
    c = cyclotomic_coset(17, 3, 26)
    assert weight_constancy_check(c, 3, 3)
    assert sum(digits(17, 3, 3)) == 5
    assert weight_constancy_check(cyclotomic_coset(0, 3, 26), 3, 3)
    # all cosets of a universe
    uni = index_universe(5, 4, 624)
    for leader in uni.gamma1:
        assert weight_constancy_check(cyclotomic_coset(leader, 5, 624), 5, 4)


def test_gcd_power_examples():
    assert gcd_power_check(1, 3, 3) == 2
    assert gcd_power_check(2, 3, 5) == 2
    assert gcd_power_check(3, 5, 3) == 2
    assert math.gcd(5 ** 2 + 1, 5 ** 3 - 1) == 2  # independent check


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=2, max_value=10),
       st.sampled_from([3, 5, 7, 9]))
def test_gcd_power_identity(h, m, q):
    if (m // math.gcd(h, m)) % 2 == 1:
        assert gcd_power_check(h, m, q) == 2


@pytest.mark.parametrize("q", [3, 5])
def test_odd_digit_sum_count(q):
    # brute-force count of tuples with odd coordinate sum is (q-1)^t / 2
    import itertools

    for t in range(1, 7):
        count = sum(1 for xs in itertools.product(range(1, q), repeat=t)
                    if sum(xs) % 2 == 1)
        assert count == (q - 1) ** t // 2


def test_digit_weight_matches_profile():
    for i in range(5 ** 3):
        assert digit_weight(i, 5) == sum(1 for d in digits(i, 5, 3) if d)
        assert qweight(i, 5) == sum(digits(i, 5, 3))
