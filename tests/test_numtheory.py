import random

import pytest

from nmdscodes.errors import HypothesisError
from nmdscodes.numtheory import (
    divisors,
    factorize,
    integer_nth_root,
    is_prime,
    mobius,
    padic_valuation,
    prime_power_radical,
)

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_is_prime_small_range():
    for n in range(100):
        assert is_prime(n) == (n in PRIMES_BELOW_100)


def test_is_prime_large_values():
    assert is_prime(3946183)
    assert is_prime(2**61 - 1)
    assert not is_prime(3946183 * 3946181)


def test_is_prime_past_the_twelve_base_bound():
    # psi_12 (OEIS A014233) is a strong pseudoprime to the bases 2..37;
    # base 41 proves it composite
    assert not is_prime(318665857834031151167461)
    # past psi_13 no base proving compositeness leaves only a probable prime
    with pytest.raises(HypothesisError, match="cannot certify"):
        is_prime(2**89 - 1)
    assert not is_prime((2**89 - 1) * 3946183)
    assert is_prime(3317044064679887385961981 - 168)  # the largest prime below psi_13


def test_factorize_random_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10**7)
        factors = factorize(n)
        prod = 1
        for prime, exp in factors.items():
            assert is_prime(prime)
            prod *= prime**exp
        assert prod == n


def test_divisors_of_360():
    d = divisors(360)
    assert d == sorted(d)
    assert len(d) == 24
    assert d[0] == 1 and d[-1] == 360


def test_mobius_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
                10: 1, 12: 0, 30: -1, 210: 1}
    for n, mu in expected.items():
        assert mobius(n) == mu


def test_mobius_sum_over_divisors_is_zero():
    # sum_{d | n} mu(d) = [n == 1]
    for n in range(1, 200):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_prime_power_radical():
    assert prime_power_radical(7) == 7
    assert prime_power_radical(343) == 7
    assert prime_power_radical(49) == 7
    assert prime_power_radical(12) is None
    assert prime_power_radical(1) is None


def test_integer_nth_root():
    assert integer_nth_root(343, 3) == 7
    assert integer_nth_root(344, 3) == 7
    assert integer_nth_root(10**18, 2) == 10**9
    # exact past the float range (3000 bits), perfect powers and their
    # neighbours included
    rng = random.Random(22)
    for _ in range(300):
        k = rng.randint(1, 60)
        base = rng.getrandbits(rng.randint(1, 3000 // k))
        cases = (rng.getrandbits(rng.randint(1, 3000)), base**k - 1, base**k, base**k + 1)
        for n in cases:
            if n >= 0:
                r = integer_nth_root(n, k)
                assert r**k <= n < (r + 1) ** k, (n, k)


def test_padic_valuation():
    assert padic_valuation(8, 2) == 3
    assert padic_valuation(9, 3) == 2
    assert padic_valuation(10, 3) == 0
    with pytest.raises(ValueError):
        padic_valuation(0, 3)
