"""Dirichlet characters: products, induction, conductor, kernel and
reduction at a place above ell.

Characters never touch complex numbers.  A character mod n is stored as an
exponent vector against a fixed root of unity zeta_m: its value on the j-th
canonical generator of (Z/nZ)* is zeta_m^(e_j).  Reduction mod a place
turns zeta_m into a concrete element of a finite field.

Characters with values in a finite field are evaluated here only: the
kernel subgroup and the selection of an input form reduce a character by
`reduce_at_ell`, at the canonical place for its order, and the diamond
character of an eigensystem is a `ResidualCharacter` too.
"""

from math import gcd, lcm
from functools import lru_cache

from .exactalg.arith import is_prime, multiplicative_order, unit_group
from .exactalg.gf import element_of_order, fq_field


class DirichletCharacter:
    """Character of (Z/nZ)* with values in the zeta_m exponent lattice."""

    __slots__ = ("modulus", "zeta_order", "exponents")

    def __init__(self, modulus, zeta_order, exponents):
        if zeta_order < 1:
            raise ValueError("root-of-unity order must be positive, got %d"
                             % zeta_order)
        group = unit_group(modulus)
        exponents = tuple(e % zeta_order for e in exponents)
        if len(exponents) != len(group.generators):
            raise ValueError("need one exponent per unit-group generator")
        for e, order in zip(exponents, group.orders):
            value_order = zeta_order // gcd(zeta_order, e)
            if order % value_order:
                raise ValueError(
                    "image order %d incompatible with generator order %d"
                    % (value_order, order))
        self.modulus = modulus
        self.zeta_order = zeta_order
        self.exponents = exponents

    @property
    def order(self):
        m = self.zeta_order
        return lcm(*(m // gcd(m, e) for e in self.exponents)) if self.exponents else 1

    def is_trivial(self):
        return all(e == 0 for e in self.exponents)

    def normalized(self):
        """Equivalent character written against zeta of exact order."""
        m2 = self.order
        if m2 == self.zeta_order:
            return self
        exps = tuple(e * m2 // self.zeta_order for e in self.exponents)
        return DirichletCharacter(self.modulus, m2, exps)

    def exponent_at(self, x):
        """e with value(x) = zeta_m^e; raises ValueError on non-units."""
        dlog = unit_group(self.modulus).dlog(x)
        return sum(e * t for e, t in zip(self.exponents, dlog)) % self.zeta_order

    def __mul__(self, other):
        if self.modulus != other.modulus:
            raise ValueError("characters live at different moduli")
        m = lcm(self.zeta_order, other.zeta_order)
        exps = tuple(
            (a * (m // self.zeta_order) + b * (m // other.zeta_order)) % m
            for a, b in zip(self.exponents, other.exponents))
        return DirichletCharacter(self.modulus, m, exps)

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return (a.modulus, a.zeta_order, a.exponents) == (b.modulus, b.zeta_order, b.exponents)

    def __hash__(self):
        a = self.normalized()
        return hash((a.modulus, a.zeta_order, a.exponents))

    def is_even(self):
        n = self.modulus
        if n <= 2:
            return True
        return self.exponent_at(n - 1) == 0

    def __repr__(self):
        return "DirichletCharacter(mod %d, order %d)" % (self.modulus, self.order)


def trivial_character(n):
    return DirichletCharacter(n, 1, (0,) * len(unit_group(n).generators))


def induce(chi, n):
    """The character mod n induced through reduction to the modulus of chi."""
    d = chi.modulus
    if n % d:
        raise ValueError("%d does not divide %d" % (d, n))
    group = unit_group(n)
    exps = tuple(chi.exponent_at(g % d) for g in group.generators)
    return DirichletCharacter(n, chi.zeta_order, exps)


def conductor(chi):
    """Smallest divisor d of the modulus with chi trivial on 1 + dZ units."""
    n = chi.modulus
    units = unit_group(n).elements()
    divs = [d for d in range(1, n + 1) if n % d == 0]
    for d in divs:
        if all(chi.exponent_at(x) == 0 for x in units if (x - 1) % d == 0):
            return d
    return n


def kernel(chi):
    """Sorted list of units where the character is 1."""
    return sorted(x for x in unit_group(chi.modulus).elements()
                  if chi.exponent_at(x) == 0)


class PlaceAboveEll:
    """A reduction map from roots of unity to a finite field of char ell.

    Images of zeta_m for every m dividing m_max (after stripping the
    ell-part) are powers of one chosen element of exact order m_max, so
    images are automatically compatible under divisibility.
    """

    __slots__ = ("ell", "m_max", "field", "base")

    def __init__(self, ell, m_max):
        if not is_prime(ell):
            raise ValueError("ell must be prime, got %d" % ell)
        m_max = _prime_to_ell_part(m_max, ell)
        self.ell = ell
        self.m_max = m_max
        r = multiplicative_order(ell, m_max) if m_max > 1 else 1
        self.field = fq_field(ell, r)
        self.base = element_of_order(self.field, m_max)

    def root_image(self, m):
        """Image of zeta_m, m = m1 ell^k with m1 prime to ell: that of zeta_m1
        to the power ell^(-k) mod m1, as zeta_m^(ell^k) = zeta_m1."""
        m1 = _prime_to_ell_part(m, self.ell)
        if self.m_max % m1:
            raise ValueError("place only covers orders dividing %d" % self.m_max)
        return self.base ** (self.m_max // m1 * pow(m // m1, -1, m1))

    def __repr__(self):
        return "PlaceAboveEll(%d, m_max=%d)" % (self.ell, self.m_max)


def _prime_to_ell_part(m, ell):
    while m % ell == 0:
        m //= ell
    return m


@lru_cache(maxsize=None)
def place_above(ell, m_max):
    """Canonical (cached) place of residue characteristic ell covering m_max."""
    return PlaceAboveEll(ell, m_max)


class ResidualCharacter:
    """Character of (Z/nZ)* with values in a finite field of char ell."""

    __slots__ = ("modulus", "field", "values")

    def __init__(self, modulus, field, values):
        group = unit_group(modulus)
        values = tuple(values)
        if len(values) != len(group.generators):
            raise ValueError("need one value per unit-group generator")
        one = field.one()
        for v, order in zip(values, group.orders):
            if v ** order != one:
                raise ValueError("value order does not divide generator order")
        self.modulus = modulus
        self.field = field
        self.values = values

    def value(self, x):
        dlog = unit_group(self.modulus).dlog(x)
        acc = self.field.one()
        for v, t in zip(self.values, dlog):
            if t:
                acc = acc * v ** t
        return acc

    def __eq__(self, other):
        return (isinstance(other, ResidualCharacter)
                and self.modulus == other.modulus
                and self.field == other.field
                and self.values == other.values)

    def __hash__(self):
        return hash((self.modulus, self.field.ell, self.field.modulus, self.values))

    def __repr__(self):
        return "ResidualCharacter(mod %d over F_%d^%d)" % (
            self.modulus, self.field.ell, self.field.r)


def reduce_mod(chi, place):
    """Reduction of a character at a place above ell."""
    root = place.root_image(chi.zeta_order)
    return ResidualCharacter(chi.modulus, place.field,
                             [root ** e for e in chi.exponents])


def reduce_at_ell(chi, ell):
    """Reduction of a character at the canonical place above ell, the one
    for its order: equal characters reduce alike, whatever root of unity
    they are written against."""
    chi = chi.normalized()
    return reduce_mod(chi, place_above(ell, chi.zeta_order))


def parse_character(text):
    """Parse the CLI literal `n:g1^e1,g2^e2@m` or `triv:n`."""
    text = text.strip()
    if text.startswith("triv:"):
        return trivial_character(int(text[5:]))
    head, _, tail = text.partition(":")
    n = int(head)
    body, _, order = tail.partition("@")
    if not order:
        raise ValueError("character literal needs an explicit @order")
    m = int(order)
    group = unit_group(n)
    images = {}
    if body:
        for part in body.split(","):
            g_txt, _, e_txt = part.partition("^")
            if not e_txt:
                raise ValueError("generator image must look like g^e")
            images[int(g_txt)] = int(e_txt)
    exps = []
    for g in group.generators:
        exps.append(images.pop(g, 0))
    if images:
        raise ValueError("unknown generators %s; canonical generators are %s"
                         % (sorted(images), list(group.generators)))
    return DirichletCharacter(n, m, tuple(exps))


def character_literal(chi):
    """Inverse of parse_character, using canonical generators."""
    if chi.is_trivial():
        return "triv:%d" % chi.modulus
    chi = chi.normalized()
    gens = unit_group(chi.modulus).generators
    body = ",".join("%d^%d" % (g, e) for g, e in zip(gens, chi.exponents))
    return "%d:%s@%d" % (chi.modulus, body, chi.zeta_order)
