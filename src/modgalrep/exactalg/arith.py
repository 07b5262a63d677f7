"""Arbitrary-precision integer helpers and unit groups of Z/nZ.

It holds what the package reads of the integers: primality, factoring,
divisors, the totient, the primes up to a bound, the order of a unit mod n,
and the unit groups, whose generators are CRT lifts built from the
modular inverses of Python's pow.
Everything in this package is exact; no floating point is used anywhere.
Primality is the Miller-Rabin test with the 13 prime bases 2..41, which
decides every n < 3,317,044,064,679,887,385,961,981 (J. Sorenson and
J. Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
2017).  At or above that bound a number that passes every base raises
ValueError rather than being reported prime; a number some base proves
composite is reported composite at any size.  Factorization is trial
division that stops once the cofactor left is prime.
"""

from functools import lru_cache
from math import gcd, prod

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Whether the integer n is prime (Miller-Rabin, bases 2..41).

    ValueError for an n >= _MR_LIMIT that passes every base."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError("primality of %d is not decided by bases 2..41" % n)
    return True


def factorint(n):
    """Prime factorization {p: e} of n >= 1, primes ascending."""
    if n < 1:
        raise ValueError("factorint needs a positive integer, got %d" % n)
    factors = {}
    d = 2
    while n > 1 and not is_prime(n):
        # n is composite, so its least prime factor is at most sqrt(n)
        while n % d:
            d += 1 if d == 2 else 2
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        factors[d] = e
    if n > 1:
        factors[n] = 1
    return factors


def euler_phi(n):
    """Euler's totient of n >= 1."""
    if n < 1:
        raise ValueError("totient is defined for positive integers")
    return prod(p ** (e - 1) * (p - 1) for p, e in factorint(n).items())


def divisors(n):
    """Sorted list of the positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorint(n).items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=None)
def primes_up_to(bound):
    """Tuple of all primes <= bound (simple sieve)."""
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(bound ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i in range(bound + 1) if sieve[i])


def multiplicative_order(a, n):
    """Order of a in (Z/nZ)*."""
    a %= n
    if gcd(a, n) != 1:
        raise ValueError("%d is not a unit modulo %d" % (a, n))
    order = euler_phi(n)
    for p in factorint(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def _least_primitive_root(q):
    # q an odd prime power; deterministic least generator of (Z/qZ)*.
    target = euler_phi(q)
    factors = list(factorint(target))
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, target // p, q) != 1 for p in factors):
            return g
    raise ValueError("no primitive root modulo %d" % q)


def _crt_lift(residue, q, n):
    # x = residue mod q, x = 1 mod n/q (q and n/q coprime).
    m = n // q
    return (residue * pow(m, -1, q) * m + pow(q, -1, m) * q) % n


class UnitGroup:
    """(Z/nZ)* presented by independent generators of known orders.

    Generators are CRT lifts of the least primitive root modulo each odd
    prime power, plus -1 and 5 for the 2-part when 8 | n.  The direct
    product of the cyclic groups they generate is all of (Z/nZ)*.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("modulus must be positive")
        self.n = n
        gens, orders = [], []
        for p, e in sorted(factorint(n).items()):
            q = p ** e
            if p == 2:
                if e == 2:
                    gens.append(_crt_lift(3, q, n))
                    orders.append(2)
                elif e >= 3:
                    gens.append(_crt_lift(q - 1, q, n))
                    orders.append(2)
                    gens.append(_crt_lift(5, q, n))
                    orders.append(2 ** (e - 2))
            else:
                gens.append(_crt_lift(_least_primitive_root(q), q, n))
                orders.append(euler_phi(q))
        self.generators = tuple(gens)
        self.orders = tuple(orders)
        assert prod(orders, start=1) == euler_phi(n)
        self._dlog = None

    @property
    def order(self):
        return prod(self.orders, start=1)

    def _dlog_table(self):
        if self._dlog is None:
            table = {1 % self.n: (0,) * len(self.generators)}
            # enumerate the group as a product of cyclic factors
            frontier = [(1 % self.n, (0,) * len(self.generators))]
            for j, (g, o) in enumerate(zip(self.generators, self.orders)):
                new = []
                for x, exps in frontier:
                    y, e = x, list(exps)
                    for t in range(1, o):
                        y = y * g % self.n
                        e[j] = t
                        new.append((y, tuple(e)))
                frontier.extend(new)
                table.update(new)
            self._dlog = table
        return self._dlog

    def elements(self):
        """Sorted tuple of all units modulo n."""
        return tuple(sorted(self._dlog_table()))

    def dlog(self, x):
        """Exponent vector (e_j) with x = prod g_j^e_j, or ValueError."""
        try:
            return self._dlog_table()[x % self.n]
        except KeyError:
            raise ValueError("%d is not a unit modulo %d" % (x, self.n)) from None

    def is_unit(self, x):
        return gcd(x, self.n) == 1

    def __repr__(self):
        return "UnitGroup(%d)" % self.n


@lru_cache(maxsize=None)
def unit_group(n):
    """Canonical (cached) UnitGroup for modulus n."""
    return UnitGroup(n)
