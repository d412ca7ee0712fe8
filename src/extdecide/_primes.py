"""Exact primality, prime powers and factoring on plain Python ints.

is_prime is deterministic Miller-Rabin on the first 13 prime bases below
3,317,044,064,679,887,385,961,981, where those bases are proven to
suffice (Sorenson and Webster, Math. Comp. 86 (2017)).  From that bound on
it is Baillie-PSW: a base-2 strong test plus a strong Lucas test with
Selfridge's parameters, which no composite is known to pass.
"""

from __future__ import annotations

import math

# The small-prime screen: a number with no prime factor below _SCREEN has
# every prime factor at least 2 ** _SCREEN_BITS, and is prime if it is
# below _SCREEN ** 2.
_SCREEN = 1000
_SCREEN_BITS = _SCREEN.bit_length() - 1
_SMALL_PRIMES = tuple(
    n for n in range(2, _SCREEN) if all(n % d for d in range(2, math.isqrt(n) + 1))
)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = math.prod(_SMALL_PRIMES)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong (Miller-Rabin) test of the odd n > a to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of the odd non-square n > 41, with Selfridge's
    method A: D is the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1 and Q = (1 - D) / 4."""
    d = 5
    while _jacobi(d, n) != -1:
        if math.gcd(abs(d), n) > 1:
            return False  # n > |d|, so a common factor is a proper one
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> s
    # U_1, V_1 and Q^1; each bit after the leading one doubles the index,
    # and a set bit adds one (halving mod the odd n)
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d * u + v
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether the integer n is prime."""
    if n < 2:
        return False
    if math.gcd(n, _PRIMORIAL) > 1:
        return n in _SMALL_PRIME_SET
    if n < _SCREEN**2:
        return True
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    if math.isqrt(n) ** 2 == n:
        return False
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, k >= 2, by Newton's method on ints."""
    if k == 2:
        return math.isqrt(n)
    # start from about 50 correct leading bits; the first Newton step
    # then lands on or above the root, and every later one descends
    shift = max(n.bit_length() - 64, 0)
    log2 = math.log2(n >> shift) + shift
    low = max(int(log2 / k) - 52, 0)
    x = max(int(2.0 ** (log2 / k - low)) << low, 1)
    x = ((k - 1) * x + n // x ** (k - 1)) // k
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int):
    """(p, e) with q = p^e and p prime, or None when q is no prime power.

    The small-prime screen decides every q with a factor below _SCREEN.
    Otherwise each prime factor is at least 2^_SCREEN_BITS, which bounds e,
    and only prime exponents up to that bound are tried.
    """
    if q < 2:
        return None
    p = math.gcd(q, _PRIMORIAL)
    if p > 1:
        if p not in _SMALL_PRIME_SET:
            return None  # two distinct small primes divide q
        e = 0
        while q % p == 0:
            q //= p
            e += 1
        return (p, e) if q == 1 else None
    if q < _SCREEN**2:
        return (q, 1)
    for k in range(2, q.bit_length() // _SCREEN_BITS + 1):
        if not is_prime(k):
            continue
        root = _iroot(q, k)
        if root**k == q:
            inner = prime_power(root)
            return None if inner is None else (inner[0], inner[1] * k)
    return (q, 1) if is_prime(q) else None


def _rho(n: int) -> int:
    """A proper factor of the odd composite n with no factor below _SCREEN
    (Pollard's rho, with Brent's cycle search)."""
    for c in range(1, n):
        x = y = 2
        g, steps, span = 1, 0, 1
        while g == 1:
            if steps == span:  # restart the tortoise at a power of two
                x, steps, span = y, 0, 2 * span
            y = (y * y + c) % n
            steps += 1
            g = math.gcd(x - y, n)
        if g != n:
            return g
    raise ArithmeticError(f"no factor of {n} found")


def factorize(n: int) -> dict:
    """Prime factorization {p: e} of the integer n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            pending += [f, m // f]
    return dict(sorted(out.items()))
