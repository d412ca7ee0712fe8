"""Exact number theory of extdecide._primes.

The fixed cases need nothing beyond the package.  The sweeps use sympy as
an oracle only, and are skipped where it is not installed: the package
itself never imports it.
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from extdecide._primes import (
    _MR_BASES,
    _MR_LIMIT,
    _iroot,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    factorize,
    is_prime,
    prime_power,
)
from test_tower import SEMIPRIME

SRC = Path(__file__).resolve().parent.parent / "src"

CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    # (6k+1)(12k+1)(18k+1) at k = 100010036: above the Miller-Rabin bound
    # and a strong pseudoprime to base 2, so only the Lucas test rejects it
    1296390242802544826734940689,
)
CHERNICK_K = 100010036

# strong pseudoprimes to every base in the prefix of _MR_BASES they list
STRONG_PSEUDOPRIMES = {
    2047: 1,
    3215031751: 4,
    3825123056546413051: 9,
    318665857834031151167461: 12,
    3317044064679887385961981: 13,
}

# the composites below 20,000 that pass the strong Lucas test with
# Selfridge's parameters (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)


class TestIsPrime:
    @pytest.mark.parametrize("n", CARMICHAEL)
    def test_carmichael_numbers_composite(self, n):
        assert not is_prime(n)

    def test_large_carmichael_needs_the_lucas_test(self):
        k = CHERNICK_K
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = CARMICHAEL[-1]
        assert factors[0] * factors[1] * factors[2] == n
        assert all(is_prime(p) and (n - 1) % (p - 1) == 0 for p in factors)
        assert n > _MR_LIMIT and _strong_probable_prime(n, 2)
        assert not _strong_lucas_probable_prime(n)

    @pytest.mark.parametrize("n", sorted(STRONG_PSEUDOPRIMES))
    def test_strong_pseudoprimes_composite(self, n):
        fooled = _MR_BASES[: STRONG_PSEUDOPRIMES[n]]
        assert all(_strong_probable_prime(n, a) for a in fooled)
        assert not is_prime(n)

    def test_strong_lucas_test_below_20000(self):
        odd_non_squares = [
            n for n in range(43, 20000, 2) if _iroot(n, 2) ** 2 != n
        ]
        passed = {n for n in odd_non_squares if _strong_lucas_probable_prime(n)}
        composites = sorted(n for n in passed if not is_prime(n))
        assert composites == list(STRONG_LUCAS_PSEUDOPRIMES)
        assert all(n in passed for n in odd_non_squares if is_prime(n))

    def test_known_large_numbers(self):
        for e in (61, 89, 107, 127, 521):
            assert is_prime(2**e - 1)
        for e in (67, 101, 128, 257):
            assert not is_prime(2**e - 1)
        assert not is_prime((2**89 - 1) ** 2)
        assert not is_prime((2**61 - 1) * (2**89 - 1))

    def test_small_values(self):
        assert [n for n in range(-5, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert is_prime(997) and not is_prime(1000**2) and is_prime(1000003)

    def test_large_modulus_decided_quickly(self):
        started = time.perf_counter()
        assert not is_prime(2**4000 + 3)
        assert prime_power(2**4000 + 3) is None
        assert time.perf_counter() - started < 0.5


class TestPrimePower:
    def test_prime_power_split(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(2**61) == (2, 61)
        assert prime_power(2**89 - 1) == (2**89 - 1, 1)  # a Mersenne prime
        for q in (0, 1, 12, 36, SEMIPRIME):
            assert prime_power(q) is None

    def test_powers_without_small_factors(self):
        assert prime_power(1009**6) == (1009, 6)
        assert prime_power(1009**433) == (1009, 433)
        assert prime_power((2**127 - 1) ** 31) == (2**127 - 1, 31)
        for q in ((1009 * 1013) ** 2, 1009**2 * 1013, (2**89 - 1) ** 4 * 1009):
            assert prime_power(q) is None

    def test_integer_roots(self):
        rng = random.Random(3)
        for _ in range(300):
            k = rng.randrange(2, 40)
            base = rng.getrandbits(rng.randrange(1, 200)) + 1
            for n in (base**k - 1, base**k, base**k + 1, rng.getrandbits(400) + 1):
                if n >= 1:
                    root = _iroot(n, k)
                    assert root**k <= n < (root + 1) ** k


class TestFactorize:
    def test_fixed_cases(self):
        assert factorize(1) == {}
        assert factorize(2**64 + 1) == {274177: 1, 67280421310721: 1}
        n = (10**6 + 3) ** 2 * (2**31 - 1) * 2**5 * 999983
        assert factorize(n) == {2: 5, 999983: 1, 10**6 + 3: 2, 2**31 - 1: 1}
        assert list(factorize(n)) == sorted(factorize(n))
        with pytest.raises(ValueError):
            factorize(0)


class TestSympyParity:
    def test_is_prime_below_a_million(self):
        sympy = pytest.importorskip("sympy")
        found = [n for n in range(10**6) if is_prime(n)]
        assert found == list(sympy.sieve.primerange(10**6))

    def test_is_prime_random_64_to_256_bits(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(64)
        for bits in range(64, 257, 4):
            p1 = sympy.nextprime(rng.getrandbits(bits // 2))
            p2 = sympy.nextprime(rng.getrandbits(bits - bits // 2))
            cases = [rng.getrandbits(bits) | 1 for _ in range(40)]
            cases += [sympy.nextprime(rng.getrandbits(bits)), p1 * p2, p1 * p1]
            for n in cases:
                assert is_prime(n) == sympy.isprime(n), n

    def test_prime_power_below_100000(self):
        sympy = pytest.importorskip("sympy")
        limit = 10**5
        expect = {}
        for p in sympy.sieve.primerange(limit):
            q, e = p, 1
            while q < limit:
                expect[q] = (p, e)
                q, e = q * p, e + 1
        assert {q: prime_power(q) for q in range(limit)} == {
            q: expect.get(q) for q in range(limit)
        }

    def test_prime_power_matches_perfect_power_rule(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5)
        cases = []
        for _ in range(150):
            p = sympy.nextprime(rng.getrandbits(rng.randrange(2, 80)))
            r = rng.getrandbits(rng.randrange(2, 40)) + 2
            e = rng.randrange(1, 9)
            cases += [p**e, r**e, p**e * r, p**e + 1]
        for q in cases:
            root, e = sympy.perfect_power(q) or (q, 1)
            rule = (int(root), int(e)) if sympy.isprime(root) else None
            assert prime_power(q) == rule, q

    def test_factorize_below_100000(self):
        # a factorization into ascending primes is unique, so this is
        # parity with factorint
        sympy = pytest.importorskip("sympy")
        primes = set(sympy.sieve.primerange(10**5))
        for n in range(1, 10**5):
            found = factorize(n)
            assert primes.issuperset(found)
            assert math.prod(map(pow, found, found.values())) == n

    def test_factorize_matches_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        for _ in range(100):
            n = 1
            for _ in range(rng.randrange(1, 5)):
                n *= sympy.nextprime(rng.getrandbits(rng.randrange(2, 24)))
            assert factorize(n) == sympy.factorint(n), n


def test_cli_import_loads_no_sympy():
    code = (
        "import sys, extdecide.cli; "
        "print([m for m in sys.modules if m == 'sympy' or m.startswith('sympy.')])"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
