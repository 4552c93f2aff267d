"""Exponent-pair construction and the supporting gcd closed forms.

All closed forms are checked against big-integer math.gcd; the order-based
guarantee is checked against directly computed gcds, in both directions
(guaranteed => coprime, no-guarantee => the prime actually divides 2^k + 1).
"""

from math import gcd

import pytest

from nihoperm.exponents import (
    NihoParams,
    check_theorem1,
    gcd_mersenne_like,
    gcd_p_2k1_guaranteed_one,
    make_niho,
    order_of_two,
)


def test_make_niho_worked_example():
    p = make_niho(3, 1, 3, 3)
    assert (p.n, p.d1, p.d2) == (6, 10, 52)
    assert check_theorem1(p).gcd_d1_ok


def test_make_niho_negative_raw_d2_canonicalized():
    # (s - l) * (2^m - 1) + e = -11 for m=3, s=1, l=3, e=3: canonical 52
    p = make_niho(3, 1, 3, 3)
    assert p.d2 == (-11) % 63 + 63 * 0 or p.d2 == 52
    assert p.d2 == 52


def test_make_niho_exponents_congruent_to_e():
    for m in (2, 3, 4, 5):
        step = 2**m - 1
        for s in range(-3, 6):
            for l in range(0, 7):
                for e in range(1, 6):
                    p = make_niho(m, s, l, e)
                    assert 1 <= p.d1 <= 2**p.n - 1
                    assert 1 <= p.d2 <= 2**p.n - 1
                    assert (p.d1 - e) % step == 0
                    assert (p.d2 - e) % step == 0
                    assert (p.d1 - p.d2) % step == 0


def test_make_niho_gcd_flag_matches_direct_gcd():
    for m in (2, 3, 4, 5, 6):
        mult_order = 2 ** (2 * m) - 1
        for s in range(-4, 8):
            for e in range(1, 9):
                p = make_niho(m, s, 2, e)
                assert check_theorem1(p).gcd_d1_ok == (gcd(p.d1, mult_order) == 1), p


def test_make_niho_validation():
    with pytest.raises(ValueError):
        make_niho(1, 1, 3, 3)
    with pytest.raises(ValueError):
        make_niho(3, 1, 3, 0)
    with pytest.raises(ValueError):
        make_niho(3, 1, 3, -2)


def test_make_niho_is_frozen():
    p = make_niho(3, 1, 3, 3)
    with pytest.raises(AttributeError):
        p.s = 5
    assert p == NihoParams(3, 1, 3, 3, 6, 10, 52)


# -- gcd(2^r +- 1, 2^s +- 1) --------------------------------------------------


def test_gcd_mersenne_like_all_cases_against_direct_gcd():
    for r in range(1, 21):
        for s in range(1, 21):
            for sr in (-1, 1):
                for ss in (-1, 1):
                    got = gcd_mersenne_like(r, sr, s, ss)
                    want = gcd(2**r + sr, 2**s + ss)
                    assert got == want, (r, sr, s, ss)


def test_gcd_mersenne_like_known_values():
    assert gcd_mersenne_like(3, -1, 6, -1) == 7  # gcd(7, 63)
    assert gcd_mersenne_like(1, 1, 3, 1) == 3  # gcd(3, 9), both quotients odd
    assert gcd_mersenne_like(2, 1, 4, 1) == 1  # 4/2 even
    assert gcd_mersenne_like(2, -1, 3, 1) == 3  # r/g = 2 even -> 2^1 + 1
    assert gcd_mersenne_like(3, -1, 3, 1) == 1  # r/g = 1 odd


def test_gcd_mersenne_like_validation():
    with pytest.raises(ValueError):
        gcd_mersenne_like(0, -1, 3, -1)
    with pytest.raises(ValueError):
        gcd_mersenne_like(3, 2, 3, -1)


# -- multiplicative order of 2 and the coprimality guarantee ------------------


def test_order_of_two_against_brute_force():
    primes = [p for p in range(3, 200, 2) if all(p % f for f in range(3, p, 2))]
    for p in primes:
        r = order_of_two(p)
        assert pow(2, r, p) == 1
        assert all(pow(2, i, p) != 1 for i in range(1, r))
        assert (p - 1) % r == 0  # Lagrange


def test_order_of_two_validation():
    for bad in (1, 2, 4, 9, 15, -7):
        with pytest.raises(ValueError):
            order_of_two(bad)


def test_guarantee_examples():
    # order of 2 mod 7 is 3 (odd): always coprime
    assert all(gcd_p_2k1_guaranteed_one(7, k) for k in range(1, 30))
    # order of 2 mod 11 is 10: r/2 = 5 divides 5 and 2k/r = 1 odd -> no guarantee
    assert not gcd_p_2k1_guaranteed_one(11, 5)
    assert gcd_p_2k1_guaranteed_one(11, 3)
    assert gcd_p_2k1_guaranteed_one(11, 10)  # 2k/r = 2 even


def test_guarantee_is_sound_and_sharp():
    primes = [p for p in range(3, 100, 2) if all(p % f for f in range(3, p, 2))]
    for p in primes:
        for k in range(1, 41):
            if gcd_p_2k1_guaranteed_one(p, k):
                assert gcd(p, 2**k + 1) == 1, (p, k)
            else:
                # in the undetermined case the prime in fact divides 2^k + 1
                assert (2**k + 1) % p == 0, (p, k)


def test_guarantee_validation():
    with pytest.raises(ValueError):
        gcd_p_2k1_guaranteed_one(11, 0)
    with pytest.raises(ValueError):
        gcd_p_2k1_guaranteed_one(9, 2)
