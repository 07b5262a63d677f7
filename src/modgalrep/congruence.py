"""Congruence subgroups between Gamma_1(n) and Gamma_0(n).

A subgroup H of (Z/nZ)* determines the group Gamma_H(n) of integral
unimodular matrices with lower-left entry divisible by n and lower-right
entry in H mod n.  Cosets of its image in PSL2(Z) are unimodular bottom
rows (c:d) mod n up to scaling by +-H, which is all that is needed for
elliptic point, cusp and genus counts, and for the index formulas.  The
coset table holds each coset's cusp, its orbit under T.
"""

from math import gcd

from .dirichlet import induce, reduce_at_ell
from .exactalg.arith import euler_phi, is_prime, unit_group


class SubgroupH:
    """A subgroup of (Z/nZ)*, kept as a sorted tuple of residues."""

    __slots__ = ("level", "elements")

    def __init__(self, level, elements):
        if level < 1:
            raise ValueError("level must be positive")
        elements = sorted({x % level for x in elements} or {1 % level})
        group = unit_group(level)
        for x in elements:
            if not group.is_unit(x):
                raise ValueError("%d is not a unit modulo %d" % (x, level))
        size = len(elements)
        if group.order % size:
            raise ValueError("size %d does not divide phi(%d)" % (size, level))
        elset = set(elements)
        for x in elements:
            for y in elements:
                if x * y % level not in elset:
                    raise ValueError("element set is not closed under products")
        self.level = level
        self.elements = tuple(elements)

    @classmethod
    def from_generators(cls, level, gens):
        elems = {1 % level}
        frontier = [1 % level]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % level
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return cls(level, elems)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x % self.level in self.elements

    def is_subgroup_of(self, other):
        if self.level != other.level:
            raise ValueError("subgroups live at different levels")
        big = set(other.elements)
        return all(x in big for x in self.elements)

    def project(self, m):
        """Image modulo a divisor m of the level."""
        if self.level % m:
            raise ValueError("%d does not divide %d" % (m, self.level))
        return SubgroupH(m, {x % m for x in self.elements})

    def generators(self):
        """A short generating list (greedy)."""
        gens = []
        span = {1 % self.level}
        for x in self.elements:
            if x not in span:
                gens.append(x)
                span = set(SubgroupH.from_generators(self.level, gens).elements)
                if len(span) == len(self.elements):
                    break
        return gens

    def is_full(self):
        return len(self.elements) == unit_group(self.level).order

    def __eq__(self, other):
        return (isinstance(other, SubgroupH)
                and self.level == other.level
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.level, self.elements))

    def __repr__(self):
        return "SubgroupH(%d, order %d)" % (self.level, len(self.elements))


def full_subgroup(n):
    return SubgroupH(n, unit_group(n).elements())

def trivial_subgroup(n):
    return SubgroupH(n, [1])


def plus_minus(level, subgroup=None):
    """+-H, H trivial for None: Gamma_H(n) and Gamma_{+-H}(n) have one
    image in PSL2(Z)."""
    h = trivial_subgroup(level) if subgroup is None else subgroup
    return SubgroupH(h.level, [s * x for x in h.elements for s in (1, -1)])


def realization_level(level, weight, ell):
    """The level N' of the weight-2 realization: N*ell above weight 2, N
    in weight 2."""
    return level if weight == 2 else level * ell


def h_from_eigenform(eps, k, i, ell):
    """Kernel subgroup attached to an eigenform datum.

    For weight k > 2 this is the set of units x modulo N' = N*ell with
    eps(x) * x^(k-2-2i) = 1 at the canonical place above ell (that of
    dirichlet.reduce_at_ell); for k = 2 it
    is the kernel of the reduction of eps, at N' = N.
    """
    n = eps.modulus
    if not is_prime(ell):
        raise ValueError("ell must be prime, got %d" % ell)
    if ell >= 5 and n % ell == 0:
        raise ValueError("ell must not divide the level")
    if not 0 <= i <= ell - 1:
        raise ValueError("twist exponent out of range")
    nprime = realization_level(n, k, ell)
    e = 0 if k == 2 else (k - 2 - 2 * i) % (ell - 1)
    red = reduce_at_ell(induce(eps, nprime), ell)
    one = red.field.one()
    return SubgroupH(nprime, [
        x for x in unit_group(nprime).elements()
        if red.value(x) * red.field.from_int(x) ** e == one])


class CosetTable:
    """Cosets of +-Gamma_H(n) in PSL2(Z) with the S and T actions.

    Cosets are canonical unimodular bottom rows (c:d) mod n up to +-H
    scaling; the canonical form is the lexicographically least pair of
    least non-negative residues in the scaling class.  cusp_of[x] is the
    cusp g(inf) of the coset x = Gamma g, the index of its orbit under
    g -> gT (Gamma g inf = Gamma g' inf exactly when g' is in Gamma g <+-T>),
    with orbits numbered in order of their least coset.
    """

    __slots__ = ("level", "subgroup", "reps", "index_of", "s_perm", "t_perm",
                 "cusp_of")

    def __init__(self, subgroup):
        n = subgroup.level
        scalars = plus_minus(n, subgroup).elements
        index_of = {}
        reps = []
        for c in range(n):
            for d in range(n):
                if gcd(gcd(c, d), n) != 1 or (c, d) in index_of:
                    continue
                orbit = {((u * c) % n, (u * d) % n) for u in scalars}
                idx = len(reps)
                reps.append(min(orbit))
                for pair in orbit:
                    index_of[pair] = idx
        self.level = n
        self.subgroup = subgroup
        self.reps = reps
        self.index_of = index_of
        self.s_perm = [index_of[(d % n, (-c) % n)] for c, d in reps]
        self.t_perm = [index_of[(c, (c + d) % n)] for c, d in reps]
        self.cusp_of = [-1] * len(reps)
        cusps = 0
        for i in range(len(reps)):
            if self.cusp_of[i] < 0:
                j = i
                while self.cusp_of[j] < 0:
                    self.cusp_of[j] = cusps
                    j = self.t_perm[j]
                cusps += 1

    def __len__(self):
        return len(self.reps)

    def __repr__(self):
        return "CosetTable(level %d, %d cosets)" % (self.level, len(self.reps))


class CurveInvariants:
    """Index, elliptic point counts, cusp count and genus of a modular curve."""

    __slots__ = ("index", "nu2", "nu3", "cusps", "genus")

    def __init__(self, index, nu2, nu3, cusps, genus):
        self.index = index
        self.nu2 = nu2
        self.nu3 = nu3
        self.cusps = cusps
        self.genus = genus

    def to_dict(self):
        return {"index": self.index, "nu2": self.nu2, "nu3": self.nu3,
                "cusps": self.cusps, "genus": self.genus}

    def __repr__(self):
        return ("CurveInvariants(index=%d, nu2=%d, nu3=%d, cusps=%d, genus=%d)"
                % (self.index, self.nu2, self.nu3, self.cusps, self.genus))


def curve_invariants(table):
    """Elliptic/cusp counts and genus from the coset permutations."""
    mu = len(table)
    s, t = table.s_perm, table.t_perm
    nu2 = sum(1 for i, j in enumerate(s) if i == j)
    nu3 = sum(1 for i in range(mu) if t[s[i]] == i)
    cusps = max(table.cusp_of) + 1
    twelve_g = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * cusps
    if twelve_g % 12:
        raise AssertionError("genus formula did not come out integral")
    return CurveInvariants(mu, nu2, nu3, cusps, twelve_g // 12)


def predicted_kernel_order(m, ell, e):
    """phi(m) * gcd(ell-1, e) / (ell-1), for ell a prime factor of m."""
    if m % ell:
        raise ValueError("ell must divide m")
    return euler_phi(m) * gcd(ell - 1, e) // (ell - 1)


def gamma0_criterion(ell, k, i):
    """Whether the kernel subgroup is everything, i.e. (ell-1) | (k-2-2i)."""
    return (k - 2 - 2 * i) % (ell - 1) == 0


def intermediate_subgroups(n):
    """All subgroups of (Z/nZ)*, i.e. all groups between Gamma_1 and Gamma_0.

    Breadth-first closure over one-element extensions; deterministic order
    (sorted by size then elements).  Refuses n beyond 200.
    """
    if n > 200:
        raise ValueError("level %d too large for exhaustive enumeration" % n)
    units = unit_group(n).elements()
    found = {trivial_subgroup(n).elements: trivial_subgroup(n)}
    frontier = [trivial_subgroup(n)]
    while frontier:
        h = frontier.pop()
        for x in units:
            if x in h:
                continue
            bigger = SubgroupH.from_generators(n, list(h.elements) + [x])
            if bigger.elements not in found:
                found[bigger.elements] = bigger
                frontier.append(bigger)
    return sorted(found.values(), key=lambda h: (len(h), h.elements))
