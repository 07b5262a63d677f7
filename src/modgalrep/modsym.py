"""Weight-k Manin symbols for Gamma_1(n) with exact integral structure.

Symbols are pairs (monomial X^a Y^(k-2-a), coset), where cosets are
unimodular bottom rows (c:d) mod n up to sign; only even weights are
supported, so the sign quotient is harmless.  The ambient lattice is the
free part of the quotient of Z^symbols by the two- and three-term
relations; its torsion is recorded and discarded.  The coordinates of a
symbol are the values of a saturated basis of the integer linear forms
that vanish on every relation (quotient_by_relations), which keeps them
small, and all operators are integer matrices on the dual basis.  A
fingerprint of these coordinates identifies the basis in the disk cache.

Hecke operators use the determinant-p family of integral matrices
enumerated by the a > b >= 0, d > c >= 0 inequalities; diamond operators
scale the coset; the star involution is (c:d) -> (-c:d) with X -> -X.
Subspaces (cuspidal, plus, H-invariant) are integer kernels, hence
saturated sublattices, and restricted operators are exact integral solves.
"""

import hashlib
from functools import cached_property, lru_cache
from math import comb, gcd

import numpy as np

from .congruence import coset_table, trivial_subgroup
from .exactalg.arith import xgcd
from .exactalg.intmat import (
    _INT64_SAFE,
    identity_matrix,
    kernel_int,
    mat_mul,
    quotient_by_relations,
    solve_int,
    transpose,
)


@lru_cache(maxsize=None)
def merel_family(p):
    """Integral matrices of determinant p with a > b >= 0, d > c >= 0."""
    mats = []
    for a in range(1, p + 1):
        for d in range((p + a - 1) // a, p + 2 - a):
            bc = a * d - p
            if bc == 0:
                for b in range(a):
                    mats.append((a, b, 0, d))
                for c in range(1, d):
                    mats.append((a, 0, c, d))
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        mats.append((a, b, bc // b, d))
    return tuple(mats)


def _binom_table(u, v, k):
    # t[i][j] = coefficient of X^j Y^(i-j) in (u*X + v*Y)^i, 0 <= i <= k-2
    t = [[0] * (i + 1) for i in range(k - 1)]
    t[0][0] = 1
    for i in range(k - 2):
        for j in range(i + 1):
            c = t[i][j]
            if c:
                t[i + 1][j] += v * c
                t[i + 1][j + 1] += u * c
    return t


def _action_coeffs(aa, bb, cc, dd, k):
    # per monomial exponent a, the k-1 coefficients of the transformed monomial
    p1 = _binom_table(aa, bb, k)
    p2 = _binom_table(cc, dd, k)
    out = []
    for a in range(k - 1):
        pa, pb = p1[a], p2[k - 2 - a]
        coeffs = [0] * (k - 1)
        for u, x in enumerate(pa):
            if x:
                for v, y in enumerate(pb):
                    if y:
                        coeffs[u + v] += x * y
        out.append(coeffs)
    return out


def lift_unimodular(c, d, n):
    """Lift a pair (c:d) mod n with gcd(c, d, n) = 1 to gcd(c1, d1) = 1."""
    c %= n
    d %= n
    if n == 1:
        return 0, 1
    if c == 0 and gcd(d, n) == 1 and d != 1:
        return n, d
    if c == 0:
        return (n, d) if d != 1 else (0, 1)
    for t in range(c + 1):
        if gcd(c, d + t * n) == 1:
            return c, d + t * n
    raise AssertionError("no unimodular lift found")


class CuspClasses:
    """Cusp classes of +-Gamma_1(n), discovered on demand.

    Cusps are primitive integer pairs (p, q); two are identified when
    (p2, q2) = +-(p1 + j*q1, q1) mod n for some integer j.
    """

    def __init__(self, n):
        self.n = n
        self.reps = []

    def _equiv(self, a, b):
        n = self.n
        p1, q1 = a
        p2, q2 = b
        g = gcd(q1, n)
        for s in (1, -1):
            if (q2 - s * q1) % n == 0 and (p2 - s * p1) % g == 0:
                return True
        return False

    def index(self, pair):
        for i, rep in enumerate(self.reps):
            if self._equiv(rep, pair):
                return i
        self.reps.append(pair)
        return len(self.reps) - 1

    def __len__(self):
        return len(self.reps)


class _Ambient:
    """The full weight-k Manin symbol quotient for Gamma_1(n)."""

    def __init__(self, level, weight):
        if weight < 2 or weight % 2:
            raise ValueError("only even weights >= 2 are supported")
        self.level = level
        self.weight = weight
        self.table = coset_table(trivial_subgroup(level))
        ncos = len(self.table)
        k = weight
        self.nsym = (k - 1) * ncos
        rows = []
        for x, (c, d) in enumerate(self.table.reps):
            sx = self.table.index_of[(d % level, (-c) % level)]
            tx = self.table.index_of[(d % level, (-c - d) % level)]
            ux = self.table.index_of[((-c - d) % level, c % level)]
            for a in range(k - 1):
                # two-term: x + x|S = 0
                row = {}
                _acc(row, a * ncos + x, 1)
                _acc(row, (k - 2 - a) * ncos + sx, (-1) ** a)
                rows.append(row)
                # three-term: x + x|(ST) + x|(ST)^2 = 0
                row = {}
                _acc(row, a * ncos + x, 1)
                for j in range(k - 2 - a + 1):
                    _acc(row, j * ncos + tx,
                         (-1) ** (k - 2 + j) * comb(k - 2 - a, j))
                for j in range(a + 1):
                    _acc(row, (k - 2 - a + j) * ncos + ux,
                         (-1) ** (k - 2 - a + j) * comb(a, j))
                rows.append(row)
        qm = quotient_by_relations(self.nsym, rows)
        self.qm = qm
        self.dim = qm.dim
        self.torsion = qm.torsion
        self.proj_rows = qm.proj_rows
        self.lifts = qm.lifts
        self._proj_np = None
        self._proj_max = max((abs(x) for row in qm.proj_rows for x in row),
                             default=0)
        if self._proj_max < _INT64_SAFE:
            self._proj_np = np.array(qm.proj_rows, dtype=np.int64) \
                if self.dim else np.zeros((self.nsym, 0), dtype=np.int64)
        self._boundary = None
        self._cusps = None

    @cached_property
    def fingerprint(self):
        """SHA-256 of the projection rows, which fix the lattice basis."""
        text = "\n".join(" ".join(map(str, row)) for row in self.proj_rows)
        return hashlib.sha256(text.encode()).hexdigest()

    # -- operators on the lattice basis ------------------------------------

    def _combine_lift_images(self, images):
        cols = []
        for lift in self.lifts:
            acc = [0] * self.dim
            for sym, coeff in lift:
                img = images[sym]
                for t in range(self.dim):
                    acc[t] += coeff * img[t]
            cols.append(acc)
        return transpose(cols)  # dim x dim, columns indexed by basis

    def _support(self):
        return sorted({sym for lift in self.lifts for sym, _ in lift})

    def hecke_on_basis(self, p):
        n, k = self.level, self.weight
        mats = merel_family(p)
        if (k == 2 and self._proj_np is not None
                and (len(mats) + 1) * self._proj_max * 4 < _INT64_SAFE):
            return self._hecke_weight2_np(mats)
        ncos = len(self.table)
        prepared = []
        for aa, bb, cc, dd in mats:
            prepared.append((aa, bb, cc, dd, _action_coeffs(aa, bb, cc, dd, k)))
        images = {}
        for sym in self._support():
            a_exp, x = divmod(sym, ncos)
            c, d = self.table.reps[x]
            acc = [0] * self.dim
            for aa, bb, cc, dd, coeff_tab in prepared:
                c1 = (c * aa + d * cc) % n
                d1 = (c * bb + d * dd) % n
                xi = self.table.index_of.get((c1, d1))
                if xi is None:
                    continue
                for j, coeff in enumerate(coeff_tab[a_exp]):
                    if coeff:
                        row = self.proj_rows[j * ncos + xi]
                        for t in range(self.dim):
                            acc[t] += coeff * row[t]
            images[sym] = acc
        return self._combine_lift_images(images)

    def _hecke_weight2_np(self, mats):
        n = self.level
        ncos = len(self.table)
        cs = np.array([c for c, _ in self.table.reps], dtype=np.int64)
        ds = np.array([d for _, d in self.table.reps], dtype=np.int64)
        lookup = -np.ones((n, n), dtype=np.int64)
        for (c, d), i in self.table.index_of.items():
            lookup[c, d] = i
        out = np.zeros((ncos, self.dim), dtype=np.int64)
        for aa, bb, cc, dd in mats:
            c1 = (cs * aa + ds * cc) % n
            d1 = (cs * bb + ds * dd) % n
            idx = lookup[c1, d1]
            valid = np.nonzero(idx >= 0)[0]
            if valid.size:
                out[valid] += self._proj_np[idx[valid]]
        images = {x: [int(v) for v in out[x]] for x in range(ncos)}
        return self._combine_lift_images(images)

    def diamond_on_basis(self, d):
        n = self.level
        if gcd(d, n) != 1:
            raise ValueError("%d is not a unit modulo %d" % (d, n))
        ncos = len(self.table)
        images = {}
        for sym in self._support():
            a_exp, x = divmod(sym, ncos)
            c, dd = self.table.reps[x]
            xi = self.table.index_of[(c * d % n, dd * d % n)]
            images[sym] = self.proj_rows[a_exp * ncos + xi]
        return self._combine_lift_images(images)

    def star_on_basis(self):
        n, k = self.level, self.weight
        ncos = len(self.table)
        images = {}
        for sym in self._support():
            a_exp, x = divmod(sym, ncos)
            c, d = self.table.reps[x]
            xi = self.table.index_of[((-c) % n, d)]
            row = self.proj_rows[a_exp * ncos + xi]
            if a_exp % 2:
                row = [-v for v in row]
            images[sym] = row
        return self._combine_lift_images(images)

    def boundary_matrix(self):
        """Boundary map to the cusp module, on the lattice basis."""
        if self._boundary is None:
            n, k = self.level, self.weight
            ncos = len(self.table)
            cusps = CuspClasses(n)
            entries = {}  # (cusp, basiscol) -> coeff
            for col, lift in enumerate(self.lifts):
                for sym, coeff in lift:
                    a_exp, x = divmod(sym, ncos)
                    if a_exp != 0 and a_exp != k - 2:
                        continue
                    c, d = self.table.reps[x]
                    c1, d1 = lift_unimodular(c, d, n)
                    g, u, v = xgcd(d1, c1)
                    assert g == 1
                    a_top, b_top = u, -v
                    if a_exp == k - 2:
                        key = (cusps.index((a_top, c1)), col)
                        entries[key] = entries.get(key, 0) + coeff
                    if a_exp == 0:
                        key = (cusps.index((b_top, d1)), col)
                        entries[key] = entries.get(key, 0) - coeff
            mat = [[0] * self.dim for _ in range(len(cusps))]
            for (r, ccol), v in entries.items():
                mat[r][ccol] = v
            self._boundary = mat
            self._cusps = cusps
        return self._boundary


def _acc(row, key, val):
    nv = row.get(key, 0) + val
    if nv:
        row[key] = nv
    elif key in row:
        del row[key]


class ModularSymbolSpace:
    """A saturated Hecke-stable sublattice of a Manin symbol quotient."""

    def __init__(self, ambient, parent=None, basis=None, cuspidal=False,
                 plus=False, h_subgroup=None, cache=None):
        self.ambient = ambient
        self.parent = parent
        self.basis = basis  # list of vectors in parent coordinates
        self.is_cuspidal = cuspidal
        self.is_plus = plus
        self.h_subgroup = h_subgroup
        self._ops = {}
        self._cache = cache if parent is None else None

    @property
    def level(self):
        return self.ambient.level

    @property
    def weight(self):
        return self.ambient.weight

    @property
    def dim(self):
        if self.parent is None:
            return self.ambient.dim
        return len(self.basis)

    @property
    def torsion(self):
        return self.ambient.torsion

    def set_cache(self, cache):
        if self.parent is None:
            self._cache = cache
        else:
            self.parent.set_cache(cache)

    # -- operator matrices --------------------------------------------------

    def _ambient_op(self, label, compute):
        if label in self._ops:
            return self._ops[label]
        mat = None
        if self._cache is not None:
            mat = self._cache.load(self.level, self.weight, label,
                                   self.ambient.fingerprint)
        if mat is None:
            mat = compute()
            if self._cache is not None:
                self._cache.store(self.level, self.weight, label, mat,
                                  self.ambient.fingerprint)
        self._ops[label] = mat
        return mat

    def _operator(self, label, compute_ambient):
        if self.parent is None:
            return self._ambient_op(label, compute_ambient)
        if label not in self._ops:
            parent_mat = self.parent._operator(label, compute_ambient)
            self._ops[label] = self._restrict(parent_mat)
        return self._ops[label]

    def _restrict(self, parent_mat):
        b = transpose(self.basis)  # parent.dim x s
        return solve_int(b, mat_mul(parent_mat, b))

    def hecke_matrix(self, p):
        """Integer matrix of T_p on this space's lattice basis."""
        return self._operator("T%d" % p, lambda: self.ambient.hecke_on_basis(p))

    def diamond_matrix(self, d):
        d %= self.level if self.level > 1 else 1
        if self.level == 1:
            return identity_matrix(self.dim)
        return self._operator("d%d" % d, lambda: self.ambient.diamond_on_basis(d))

    def star_matrix(self):
        return self._operator("star", self.ambient.star_on_basis)

    # -- subspaces ------------------------------------------------------------

    def _child(self, basis, **flags):
        merged = dict(cuspidal=self.is_cuspidal, plus=self.is_plus,
                      h_subgroup=self.h_subgroup)
        merged.update(flags)
        return ModularSymbolSpace(self.ambient, parent=self, basis=basis,
                                  **merged)

    def _kernel_space(self, mat, **flags):
        basis = kernel_int(mat, self.dim)
        return self._child(basis, **flags)

    def to_ambient(self):
        """Basis matrix of this space in ambient coordinates (columns)."""
        if self.parent is None:
            return None
        b = transpose(self.basis)
        up = self.parent.to_ambient()
        return b if up is None else mat_mul(up, b)

    def cuspidal_subspace(self):
        """Kernel of the boundary map, a saturated Hecke-stable sublattice."""
        if self.is_cuspidal:
            raise ValueError("space is already cuspidal")
        bnd = self.ambient.boundary_matrix()
        up = self.to_ambient()
        if up is not None:
            bnd = mat_mul(bnd, up)
        return self._kernel_space(bnd, cuspidal=True)

    def star_plus_subspace(self):
        """The +1 eigenspace of the star involution."""
        mat = [row[:] for row in self.star_matrix()]
        for i in range(self.dim):
            mat[i][i] -= 1
        return self._kernel_space(mat, plus=True)

    def h_invariant_subspace(self, subgroup):
        """Intersection of the kernels of <h> - 1 over generators of H."""
        if subgroup.level != self.level:
            raise ValueError("subgroup level %d != space level %d"
                             % (subgroup.level, self.level))
        space = self
        for h in subgroup.generators():
            mat = [row[:] for row in space.diamond_matrix(h)]
            for i in range(space.dim):
                mat[i][i] -= 1
            space = space._kernel_space(mat, h_subgroup=subgroup)
        if space is self:
            space = self._child([_unit_vector(self.dim, j)
                                 for j in range(self.dim)],
                                h_subgroup=subgroup)
        return space

    def __repr__(self):
        tags = []
        if self.is_cuspidal:
            tags.append("cuspidal")
        if self.is_plus:
            tags.append("plus")
        if self.h_subgroup is not None:
            tags.append("H#%d" % len(self.h_subgroup))
        return "ModularSymbolSpace(level %d, weight %d, dim %d%s)" % (
            self.level, self.weight, self.dim,
            ", " + " ".join(tags) if tags else "")


def _unit_vector(n, j):
    v = [0] * n
    v[j] = 1
    return v


_AMBIENTS = {}


def build_space(level, weight, cache=None):
    """The full weight-k modular symbol space for Gamma_1(level).

    Ambient presentations are shared process-wide, so repeated calls are
    cheap and operator matrices are computed once per (level, weight).
    """
    key = (level, weight)
    if key not in _AMBIENTS:
        _AMBIENTS[key] = ModularSymbolSpace(_Ambient(level, weight),
                                            cache=cache)
    space = _AMBIENTS[key]
    if cache is not None:
        space.set_cache(cache)
    return space


def clear_space_registry():
    _AMBIENTS.clear()
