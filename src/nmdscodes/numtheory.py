"""Small exact number-theory helpers used throughout the package.

Everything here works on plain Python integers and is deterministic.
"""

from .errors import HypothesisError

# The first 13 primes as Miller-Rabin bases: no composite below PSI_13
# is a strong pseudoprime to all of them (OEIS A014233); the first 12
# alone stop at 318665857834031151167461, itself such a composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin on _MR_BASES.  A base
    that proves n composite is a certificate at any size; at n >= PSI_13
    a number that no base proves composite is only a probable prime, and
    HypothesisError is raised instead of a verdict."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_13:
        raise HypothesisError(
            f"cannot certify {n} prime: Miller-Rabin is deterministic only below {PSI_13}"
        )
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    """Moebius function: 0 if n has a squared factor, else (-1)^#primes."""
    if n < 1:
        raise ValueError(f"mobius undefined for {n}")
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) computed exactly, by Newton's step on integers
    from the upper bound 2^ceil(bits(n)/k); no float is involved."""
    if n < 0 or k < 1:
        raise ValueError("integer_nth_root needs n >= 0, k >= 1")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // k)
    while True:  # the step stays at or above the root and falls until it stops
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power_radical(n: int) -> int | None:
    """The prime r with n = r**e, or None if n is not a prime power."""
    if n < 2:
        return None
    if is_prime(n):
        return n
    for e in range(2, n.bit_length() + 1):
        r = integer_nth_root(n, e)
        if r**e == n and is_prime(r):
            return r
    return None


def padic_valuation(n: int, p: int) -> int:
    """Largest v with p**v dividing n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
