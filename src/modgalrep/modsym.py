"""Weight-k Manin symbols for Gamma_H(n) with exact integral structure.

Symbols are pairs (monomial X^a Y^(k-2-a), coset), where cosets are
unimodular bottom rows (c:d) mod n up to +-H: Gamma_H(n) has bottom rows
(0, h) mod n, so (c:d) ~ (hc:hd), with no character factor at the even
weights supported (W. Stein, Modular Forms: A Computational Approach, GSM
79, 2007, ch. 8).  The ambient lattice is the free part of the quotient of
Z^symbols by the two- and three-term relations, one block of each per orbit
of S and of ST on the cosets: -I = S^2 = (ST)^3 acts trivially at even
weight, so the blocks of x|S and x|ST are Z-combinations of those of x.
Its torsion is computed on first read and discarded.  The coordinates of a
symbol are the values of a saturated basis of the integer linear forms that
vanish on every relation (quotient_by_relations), and all operators are
integer matrices on the dual basis.  The basis is not reduced: the largest
coordinate has 28 bits at (level, weight) = (6, 12), 53 at (9, 12), 115 at
(10, 12), 130 at (12, 12) and 192 at (14, 12), so past int64 the projection
is held on Python integers.  A fingerprint of these coordinates identifies
the basis in the disk cache.

Every ambient operator is a sum over integer matrices g acting on symbols,
and one numpy kernel (_Ambient._apply) computes them all, several in one
pass: T_p, p prime, sums over Cremona's Heilbronn matrices of determinant p
(J. Cremona, Algorithms for Modular Elliptic Curves, 2nd ed., 1997), kept
once per run in its cache at their narrowest width; <d> is (d, 0, 0, d)
with the identity's table, the star involution (-1, 0, 0, 1), sending (c:d)
to (-c:d) and X to -X.  Mod ell the table of g, its action on the monomials,
depends on g mod ell only; a call builds one per residue class it meets.  A
pass tags each g with its operator, sorts the keys (operator, symbol, target
coset) once and sums the table rows of each key, read through the class of
each g, in one reduceat into a dense W, (operator, symbol) x (coset,
exponent); the images of the symbols the lifts use are then one product W P
with the projection P, and each operator one product of its images with the
lifts.  _Ambient.operator_arrays makes one pass per chunk of the operators
asked for, each capped by its largest transients (_CHUNK); the first pass
builds the arrays the kernel reads.
The sum is a ring computation, so it runs over Z or, term by term, mod ell
(W. Stein, Modular Forms: A Computational Approach, GSM 79, 2007, ch. 8),
with tables, projection and lifts reduced mod ell.
Either way every product goes through intmat.product, on float64 BLAS
below 2^53, where it is exact, and on int64 or Python integers beyond.
The eigensystems need the operators mod ell only, and get them that way;
over Z the kernel computes the star involution, which cuts the plus space,
and T_p and <d> for `mgr hecke` and the tests' oracles.

A subspace is an integer kernel in the coordinates of the space it is cut
from, its parent, hence a saturated sublattice.  The cuspidal subspace is
the kernel of the boundary map on the full space, whose cusps are the
T-orbits of the coset table: Gamma g inf = Gamma g' inf exactly when g'
lies in Gamma g <+-T>, and g(0) is the cusp gS(inf) of the coset S sends
Gamma g to.  The plus subspace is the fixed space of the star involution
M, the kernel of M - I; the H-invariant subspace of a Gamma_1 space, the
tests' oracle for the Gamma_H ambient, is one kernel of M - I stacked over
<h> for each generator h of H.  Each subspace composes its basis into
ambient coordinates once, B = B_parent B_local, with the dual basis
D = D_local D_parent, so D B = I; a composite of saturated bases is
saturated, so D is integral.  An ambient operator T restricts to any
subspace as X = D (T B), checked as T B = B X: exactly over Z, and mod
ell only over F_ell.  Every operator of one call restricts in one product
pair, on the images T B of all of them side by side.  A space between the
two computes the operator only when asked for it.

A run keeps its spaces in one MatrixCache, one presentation for each
(level, weight, +-H), and nothing outlives it.  Each space keeps its
operators in one store, ring -> {key: array}, keyed p for T_p, -d for <d>
and 0 for the star involution; operators(keys, ell) is the one way to
them, and hecke_matrix, diamond_matrix and star_matrix are views of it;
the eigensystem code keys its operators mod ell the same way.  With a
directory, the cache keeps the root's operators over each ring in one
stacked entry of fixed-width binary integers (see MatrixCache), so a warm
run parses no decimal text.
"""

import hashlib
import os
import sys
import tempfile
from contextlib import suppress
from functools import cached_property, partial
from math import comb, gcd
from types import SimpleNamespace

import numpy as np

from .congruence import CosetTable, plus_minus
from .exactalg.arith import is_prime
from .exactalg.intmat import (
    abs_max,
    as_operand,
    dual_basis,
    exact_dtype,
    kernel_int,
    narrow_dtype,
    product,
    product_dtype,
    quotient_by_relations,
    SaturationError,
)


# the most entries a chunk's transients may hold (operator_arrays)
_CHUNK = 2 ** 14


def heilbronn_cremona(p):
    """Cremona's Heilbronn matrices of determinant p, as rows (a, b, c, d).

    Their sum gives T_p on Manin symbols of any level.  Besides (1, 0, 0, p),
    each r with |r| <= p/2 contributes the matrices met along the continued
    fraction of -p/r with nearest-integer quotients, halves rounded away
    from zero; all r are expanded at once.  No entry exceeds p in absolute
    value, so they are kept as int16 for p < 2^15 and as int32 beyond.
    """
    dtype = np.int16 if p < 2 ** 15 else np.int32
    if p == 2:
        return np.array([(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1),
                         (1, 0, 1, 2)], dtype=dtype)
    r = np.arange(-(p // 2), p // 2 + 1, dtype=np.int64)
    a, b = np.full_like(r, -p), r
    x1, x2 = np.full_like(r, p), -r
    y1, y2 = np.zeros_like(r), np.ones_like(r)
    out = [np.array([(1, 0, 0, p)], dtype=dtype)]
    while True:
        out.append(np.stack([x1, x2, y1, y2], axis=1).astype(dtype))
        live = b != 0
        if not live.any():
            return np.concatenate(out)
        a, b, x1, x2, y1, y2 = (v[live] for v in (a, b, x1, x2, y1, y2))
        q = (2 * np.abs(a) + np.abs(b)) // (2 * np.abs(b)) * np.sign(a * b)
        a, b = -b, a - b * q
        x1, x2 = x2, q * x2 - x1
        y1, y2 = y2, q * y2 - y1


def _monomial_tables(groups, k, rows, ell=None):
    """(classes, t): t[i, e, j] is the coefficient of X^j Y^(k-2-j) in
    (aX + bY)^e (cX + dY)^(k-2-e) for the i-th class of the matrices
    g = (a, b, c, d) in the arrays of groups, e < rows; classes(g) gives the
    classes of an array g of them.  A class is, mod ell while ell^4 < 2^62,
    the code ((a ell + b) ell + c) ell + d of g mod ell; otherwise each
    matrix, of all of them in order.  At weight 2 the one table is the
    identity.  Over Z, int64 when no entry can overflow, Python integers
    otherwise; given ell, residues reduced as they are built, at their
    narrowest.
    """
    if k == 2:
        return (lambda g: np.zeros(len(g), np.int64),
                np.ones((1, rows, 1), np.int8))
    coded = ell is not None and ell ** 4 < 2 ** 62
    if coded:
        place, codes = ell ** np.arange(3, -1, -1), np.zeros(0, np.int64)
        for g in groups:
            codes = np.sort(np.append(codes, g.astype(np.int64) % ell @ place))
            codes = codes[np.diff(codes, prepend=-1) != 0]
        g = codes[:, None] // place % ell
    else:
        g = np.concatenate(groups, dtype=np.int64)

    def classes(mats):
        if coded:
            return np.searchsorted(codes, mats.astype(np.int64) % ell @ place)
        return np.arange(len(mats))

    if ell is None:
        m = int(np.abs(g).reshape(-1, 2, 2).sum(axis=2).max(initial=0))
        g = g.astype(exact_dtype(m ** (k - 2)))
    else:
        # each entry below sums at most k - 1 products of two residues
        g = (g % ell).astype(narrow_dtype((k + 2) * ell * ell))

    def powers(u, v, n):
        # pw[:, i, j]: coefficient of X^j Y^(i-j) in (uX + vY)^i, i < n
        pw = np.zeros((len(g), n, k - 1), dtype=g.dtype)
        pw[:, :1, 0] = 1
        for i in range(n - 1):
            pw[:, i + 1] = v[:, None] * pw[:, i]
            pw[:, i + 1, 1:] += u[:, None] * pw[:, i, :-1]
            if ell is not None:
                pw[:, i + 1] %= ell
        return pw

    p1 = powers(g[:, 0], g[:, 1], rows)
    p2 = powers(g[:, 2], g[:, 3], k - 1)
    out = np.zeros_like(p1)
    for e in range(rows):
        tail = p2[:, k - 2 - e, :k - 1 - e]
        for u in range(e + 1):
            out[:, e, u:u + k - 1 - e] += p1[:, e, u, None] * tail
    return classes, (out if ell is None
                     else (out % ell).astype(narrow_dtype(ell - 1)))


class _Ambient:
    """The full weight-k Manin symbol quotient for Gamma_H(n), from one
    block of relations per S- and ST-orbit of cosets, with its torsion and
    its kernel arrays computed when first read."""

    def __init__(self, level, weight, subgroup=None, cache=None):
        if weight < 2 or weight % 2:
            raise ValueError("only even weights >= 2 are supported")
        pm = plus_minus(level, subgroup)
        if pm.level != level:
            raise ValueError("subgroup level %d != space level %d"
                             % (pm.level, level))
        self.level = level
        self.weight = weight
        # the run's cache keeps the Heilbronn matrices of each p and the
        # coset table of each +-H once
        cache = MatrixCache() if cache is None else cache
        self._recall = cache.recall
        self.table = cache.cosets(pm)
        # a nontrivial +-H keeps its disk entries apart, named by generators
        self.cache_prefix = ("H%s/" % "-".join(map(str, pm.generators()))
                             if len(pm) > 2 else "")
        ncos = len(self.table)
        k = weight
        self.nsym = (k - 1) * ncos
        rows = []
        for x, (c, d) in enumerate(self.table.reps):
            sx = self.table.s_perm[x]
            tx = self.table.index_of[(d % level, (-c - d) % level)]
            ux = self.table.index_of[((-c - d) % level, c % level)]
            for a in range(k - 1):
                # two-term: x + x|S = 0, once per S-orbit {x, sx}
                if x <= sx:
                    row = {}
                    _acc(row, a * ncos + x, 1)
                    _acc(row, (k - 2 - a) * ncos + sx, (-1) ** a)
                    rows.append(row)
                # three-term: x + x|(ST) + x|(ST)^2 = 0, once per ST-orbit
                if x <= min(tx, ux):
                    row = {}
                    _acc(row, a * ncos + x, 1)
                    for j in range(k - 2 - a + 1):
                        _acc(row, j * ncos + tx,
                             (-1) ** (k - 2 + j) * comb(k - 2 - a, j))
                    for j in range(a + 1):
                        _acc(row, (k - 2 - a + j) * ncos + ux,
                             (-1) ** (k - 2 - a + j) * comb(a, j))
                    rows.append(row)
        self.quotient = qm = quotient_by_relations(self.nsym, rows)
        self.dim, self.proj_rows, self.lifts = qm.dim, qm.proj_rows, qm.lifts
        self._boundary = None

    @cached_property
    def fingerprint(self):
        """SHA-256 of the projection rows, which fix the lattice basis."""
        line = " ".join(["%d"] * self.dim)
        rows = self.proj_rows.tolist()
        text = "\n".join(line % tuple(row) for row in rows)
        return hashlib.sha256(text.encode()).hexdigest()

    @cached_property
    def _kernel(self):
        """What _apply reads, built on the first kernel pass: the projection
        rows as (coset, exponent) x dim, the coset index of (c:d) at
        c * level + d (-1 off the table), the cosets and exponents of the
        symbols the lifts use, and the lifts as a (support symbol) x dim
        matrix; proj_max and lift_max bound the two matrices' entries."""
        ncos, level = len(self.table), self.level
        proj = np.ascontiguousarray(self.proj_rows.reshape(
            self.weight - 1, ncos, self.dim).transpose(1, 0, 2)).reshape(
                self.nsym, self.dim)
        lookup = np.full(level * level, -1, dtype=np.int64)
        for (c, d), i in self.table.index_of.items():
            lookup[c * level + d] = i
        support = np.flatnonzero(self.lifts.any(axis=1))
        sup_exp, sup_cos = np.divmod(support, ncos)
        reps = np.array(self.table.reps, dtype=np.int64).reshape(-1, 2)
        lift = self.lifts[support]
        return SimpleNamespace(
            proj=proj, proj_max=int(abs_max(proj)), lookup=lookup,
            sup_exp=sup_exp, sup_c=reps[sup_cos, 0], sup_d=reps[sup_cos, 1],
            lift=lift, exponents=int(sup_exp.max(initial=-1)) + 1,
            lift_max=int(abs_max(lift)))

    # -- operators on the lattice basis ------------------------------------

    def _apply(self, mats, tables, ell, counts):
        """The operators sum_g g on the lattice basis, one for each group of
        counts[i] consecutive matrices of mats, as a list of arrays.

        tables is (index, t): each g = (a, b, c, d) of mats sends the coset
        (c0:d0) to (c0 a + d0 c : c0 b + d0 d), or to nothing off the coset
        table, and the monomial of exponent e to the sum over j of
        t[index[g], e, j] X^j Y^(k-2-j), for the exponents e below
        _kernel.exponents that the lifts use.  One sort and one reduceat over
        every g give the dense W[(i, s), (x, j)]: the table rows summed over
        the g of group i that send the support symbol s to the coset x.  The
        images of the support symbols are then one product W P with the
        projection rows, and each operator one product of its images with
        the lifts, through intmat.product, over Z or, given ell, mod ell.
        """
        n, k1, kern = self.level, self.weight - 1, self._kernel
        index, tables = tables
        ncos, nsupp = len(self.table), len(kern.sup_exp)
        g = np.array(mats, dtype=np.int64).reshape(-1, 4)
        # the target coset x of each support symbol s under each g of group
        # i, as the key (i * nsupp + s) * ncos + x, -1 off the table; these
        # g x support arrays set the peak memory, so each goes as soon as it
        # is used
        c1 = np.multiply.outer(g[:, 0], kern.sup_c)
        c1 += np.multiply.outer(g[:, 2], kern.sup_d)
        c1 %= n
        c1 *= n
        d1 = np.multiply.outer(g[:, 1], kern.sup_c)
        d1 += np.multiply.outer(g[:, 3], kern.sup_d)
        d1 %= n
        c1 += d1
        del d1
        key = kern.lookup[c1]
        del c1
        off = key < 0
        key += np.arange(0, nsupp * ncos, ncos)
        key += np.repeat(np.arange(0, len(counts) * nsupp * ncos,
                                   nsupp * ncos), counts)[:, None]
        key[off] = -1
        del off
        key = key.ravel()
        order = np.argsort(key)
        key = key[order]
        start = np.searchsorted(key, 0)
        key, order = key[start:], order[start:]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        # the rows of W: the table rows (class of g) * kern.exponents +
        # (exponent of s), summed over the g of each key; g_sum bounds the
        # sum of the absolute values in a row, mod ell len(g) (ell - 1)
        s = order % nsupp
        order = index[order // nsupp]
        order *= kern.exponents
        order += kern.sup_exp[s]
        del s
        g_sum = len(g) * (ell - 1) if ell else int(np.abs(tables).sum(
            axis=2).max(axis=1, initial=0)[index].sum(dtype=object))
        w = np.add.reduceat(tables.reshape(-1, k1)[order], first, axis=0,
                            dtype=exact_dtype(g_sum))
        del order
        proj, lift, w_max = kern.proj, kern.lift, g_sum
        if ell is not None:
            # the products take entries below ell, which the projection and
            # the lifts often have already (both at weight 2, say)
            w %= ell
            w_max = ell - 1
            proj = proj if kern.proj_max < ell else proj % ell
            lift = lift if kern.lift_max < ell else lift % ell
        dense = np.zeros((len(counts) * nsupp * ncos, k1),
                         dtype=product_dtype(w_max))
        dense[key[first]] = w
        del w
        images = product(dense.reshape(-1, self.nsym), proj, ell)
        del dense
        # the lifts go into one product per group, so they are converted once
        lift = as_operand(lift)
        return [product(images[i * nsupp:(i + 1) * nsupp].T, lift, ell)
                for i in range(len(counts))]

    def operator_arrays(self, keys, ell=None):
        """T_p for each key p > 0, <d> for each key -d and the star
        involution for the key 0 on the lattice basis, over Z or, given
        ell, over F_ell, as arrays in the order of keys.

        T_p sums Cremona's Heilbronn matrices of determinant p, <d> is the
        one matrix (d, 0, 0, d) with the identity's table, and the star the
        one matrix (-1, 0, 0, 1).  One table build serves the call, but over
        Z and past ell^4 < 2^62 each chunk builds its own.  The keys go
        through the kernel in chunks, the star and T_p before <d>, one
        _apply each.  A chunk takes keys while its largest transients stay
        within _CHUNK entries: the g x support key arrays, the powers of its
        own tables, g x (k-1) x (k-1), and the dense W, (operator, support
        symbol) x (coset, exponent).  It always takes at least one key.
        """
        kern = self._kernel
        k, rows, nsupp = self.weight, kern.exponents, len(kern.sup_exp)
        mats = {}
        for key in keys:
            if key > 0:
                mats[key] = self._recall(("heilbronn", key),
                                         partial(heilbronn_cremona, key))
            elif key == 0:
                mats[key] = np.array([(-1, 0, 0, 1)], dtype=np.int64)
            else:
                mats[key] = np.array([(-key, 0, 0, -key)], dtype=np.int64)
        per_g, per_op = max(nsupp, (k - 1) ** 2), nsupp * self.nsym
        chunks = []
        for key in sorted(mats, key=lambda key: (key < 0, abs(key))):
            size = len(mats[key])
            if chunks and max((used + size) * per_g,
                              (len(chunks[-1]) + 1) * per_op) <= _CHUNK:
                chunks[-1].append(key)
                used += size
            else:
                chunks.append([key])
                used = size
        # the matrices whose tables the keys read, the identity for <d>
        read = {key: np.array([(1, 0, 0, 1)]) if key < 0 else mats[key]
                for key in mats}
        own = k > 2 and (ell is None or ell ** 4 >= 2 ** 62)
        out = {}
        for chunk in chunks:
            if own or chunk is chunks[0]:
                classes, tables = _monomial_tables(
                    [read[key] for key in (chunk if own else read)], k, rows,
                    ell)
            index = classes(np.concatenate([read[key] for key in chunk]))
            group = [mats[key] for key in chunk]
            out.update(zip(chunk, self._apply(
                np.concatenate(group), (index, tables), ell,
                [len(g) for g in group])))
        return [out[key] for key in keys]

    def hecke_on_basis(self, p):
        """T_p on the lattice basis over Z, as a list of rows."""
        return self.operator_arrays([p])[0].tolist()

    def diamond_on_basis(self, d):
        return self.operator_arrays([-d])[0].tolist()

    def star_on_basis(self):
        return self.operator_arrays([0])[0].tolist()

    def boundary_matrix(self):
        """Boundary map to the cusp module, on the lattice basis.

        The symbol X^(k-2) (c:d) at the coset Gamma g goes to its cusp
        g(inf), and X^0 (c:d) to minus g(0) = gS(inf); at weight 2 a symbol
        goes to both.  Rows are the cusps in order of first appearance, the
        lifts read column by column.
        """
        if self._boundary is None:
            ncos, top = len(self.table), self.weight - 2
            cusp_of, s_perm = self.table.cusp_of, self.table.s_perm
            rows = {}
            cols, syms = np.nonzero(self.lifts.T)
            for col, sym, coeff in zip(cols.tolist(), syms.tolist(),
                                       self.lifts[syms, cols].tolist()):
                a, x = divmod(sym, ncos)
                for end, cusp, sign in ((top, cusp_of[x], 1),
                                        (0, cusp_of[s_perm[x]], -1)):
                    if a == end:
                        rows.setdefault(cusp, [0] * self.dim)[col] += (
                            sign * coeff)
            self._boundary = list(rows.values())
        return self._boundary


def _acc(row, key, val):
    nv = row.get(key, 0) + val
    if nv:
        row[key] = nv
    elif key in row:
        del row[key]


class ModularSymbolSpace:
    """A saturated Hecke-stable sublattice of a Manin symbol quotient: the
    full space (parent None), or a saturated kernel cut from its parent,
    with basis in the parent's coordinates.  Cuspidal is the boundary
    kernel of the full space; plus and H-invariant are fixed spaces, each
    taken in one kernel."""

    def __init__(self, ambient, parent=None, basis=None, cache=None):
        self.ambient = ambient
        self.parent = parent
        self.root = self if parent is None else parent.root
        self.basis = basis  # array, one row per vector in parent coordinates
        # ring (None for Z, ell for F_ell) -> {key: operator as an array},
        # keyed p for T_p, -d for <d> and 0 for the star involution
        self._store = {}
        # the root's operators go to and from the cache's directory, if any
        self._disk = cache if cache is not None and cache.directory else None

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
        return self.ambient.quotient.torsion

    # -- operator matrices --------------------------------------------------

    def operators(self, keys, ell=None):
        """The operators of keys (p for T_p, p prime, -d for <d>, d a unit
        modulo the level, 0 for the star involution) on this space's
        lattice basis, over Z or, given ell, over F_ell, as arrays in the
        order of keys.  The keys are checked before any cache is read, which
        may hold T_n for composite n from older builds.  The root computes
        what it lacks (_fill), a subspace restricts the root's operators,
        and both keep them; a zero-dimensional space computes nothing."""
        for key in keys:
            if key > 0 and not is_prime(key):
                raise ValueError("T_p needs a prime p, got %d" % key)
            if key < 0 and gcd(key, self.level) != 1:
                raise ValueError("%d is not a unit modulo %d"
                                 % (-key, self.level))
        held = self._store.setdefault(ell, {})
        missing = [key for key in dict.fromkeys(keys) if key not in held]
        if missing and not self.dim:
            held.update((key, np.zeros((0, 0), np.int64)) for key in missing)
        elif missing and self.parent is None:
            self._fill(missing, ell)
        elif missing:
            held.update(zip(missing, self._restrict(
                self.root.operators(missing, ell), ell)))
        return [held[key] for key in keys]

    def _fill(self, missing, ell):
        """Hold the root's operators of the keys in missing over Z or F_ell:
        read the cache's entry for (this ambient, the ring) the first time,
        compute what it lacks in one operator_arrays call, and rewrite the
        entry with every operator held, one row [key, entries] each."""
        held = self._store[ell]
        label = self.ambient.cache_prefix + ("Z" if ell is None
                                             else "mod%d" % ell)
        if self._disk is not None and not held:
            stacked = self._disk.load(self.level, self.weight, label,
                                      self.ambient.fingerprint)
            if stacked is not None:
                held.update((int(row[0]), row[1:].reshape(self.dim, self.dim))
                            for row in stacked)
                missing = [key for key in missing if key not in held]
        if not missing:
            return
        held.update(zip(missing, self.ambient.operator_arrays(missing, ell)))
        if self._disk is not None:
            stacked = np.stack([np.append(key, held[key])
                                for key in sorted(held)])
            self._disk.store(self.level, self.weight, label, stacked,
                             self.ambient.fingerprint)

    @cached_property
    def _bases(self):
        """(B, D): the basis as columns and its dual basis in ambient
        coordinates, D B = I.  B = B_parent B_local is saturated, as a
        composite of saturated bases, so D = D_local D_parent is
        integral."""
        b, d = self.basis.T, dual_basis(self.basis)
        if self.parent.parent is not None:
            pb, pd = self.parent._bases
            b, d = product(pb, b), product(d, pd)
        return b, d

    def _restrict(self, ts, ell=None):
        """X with T B = B X for each ambient operator T of ts, over Z or,
        given ell, mod ell: X = D (T B) through the composed bases, checked
        as B X = T B.  Mod ell, X is exact because D B = I over Z, but the
        check is weaker than the exact one over Z.  B and D are reduced and
        converted once per call, and the images T B of all of ts, side by
        side, take one product by D and one check; stacking the n x n T
        themselves would raise the peak memory."""
        if not ts:
            return []
        b, d = self._bases
        if ell is not None:
            b, d = b % ell, d % ell
        b, d = as_operand(b), as_operand(d)
        tb = np.concatenate([product(t, b, ell) for t in ts], axis=1)
        x = product(d, tb, ell)
        if (product(b, x, ell) != tb).any():
            raise SaturationError("operator does not preserve the subspace")
        return list(x.reshape(len(x), len(ts), len(x)).swapaxes(0, 1))

    def _keys(self, primes=(), units=()):
        """The keys of T_p for the p of primes and of <d> for the d of units,
        which operators checks; below 1, p would name the star or a <d>.
        <d> takes the residue of d in 1..level, the level itself for d = 0
        modulo it, which is no unit unless the level is 1."""
        if min(primes, default=1) < 1:
            raise ValueError("T_p needs a prime p, got %d" % min(primes))
        return list(primes) + [-(d % self.level or self.level)
                               for d in units]

    def hecke_matrix(self, p):
        """Integer matrix of T_p, p prime, on this space's lattice basis."""
        return self.operators(self._keys([p]))[0].tolist()

    def diamond_matrix(self, d):
        return self.operators(self._keys(units=[d]))[0].tolist()

    def star_matrix(self):
        return self.operators([0])[0].tolist()

    # -- subspaces ------------------------------------------------------------

    def _fixed_space(self, mats):
        """The saturated sublattice fixed by every matrix in mats, lists of
        rows as the views give them: one kernel of M - I stacked over them,
        the whole space for none."""
        n = self.dim
        a = np.array(mats, dtype=object).reshape(len(mats) * n, n)
        a[np.arange(len(a)), np.arange(len(a)) % n] -= 1
        return ModularSymbolSpace(self.ambient, parent=self,
                                  basis=kernel_int(a))

    def cuspidal_subspace(self):
        """Kernel of the boundary map on the full space, a saturated
        Hecke-stable sublattice."""
        if self.parent is not None:
            raise ValueError("the cuspidal subspace is cut from the full space")
        rows = self.ambient.boundary_matrix()
        return ModularSymbolSpace(self.ambient, parent=self, basis=kernel_int(
            np.array(rows, dtype=object).reshape(len(rows), self.dim)))

    def star_plus_subspace(self):
        """The +1 eigenspace of the star involution."""
        return self._fixed_space([self.star_matrix()])

    def h_invariant_subspace(self, subgroup):
        """The space fixed by <h> for every generator h of H: the tests'
        oracle for the Gamma_H ambient, whose H-coinvariants are, over Q,
        isomorphic to these H-invariants as Hecke modules."""
        return self._fixed_space([self.diamond_matrix(h)
                                  for h in subgroup.generators()])

    def __repr__(self):
        return "ModularSymbolSpace(level %d, weight %d, dim %d)" % (
            self.level, self.weight, self.dim)


def build_space(level, weight, cache=None, subgroup=None):
    """The full weight-k modular symbol space for Gamma_H(level).

    H is trivial for None.  The cache holds one presentation per (level,
    weight, +-H), so repeated calls with it are cheap and operator matrices
    are computed once per cache; None means a fresh memory-only cache.
    """
    cache = MatrixCache() if cache is None else cache
    key = ("ambient", level, weight, plus_minus(level, subgroup))
    return cache.recall(key, lambda: ModularSymbolSpace(
        _Ambient(level, weight, subgroup, cache), cache=cache))


CACHE_FORMAT = "MSYMMAT 3"


class MatrixCache:
    """A run's spaces, decompositions, coset tables and Heilbronn matrices
    in memory, and the root spaces' operator matrices on disk when it has a
    directory.

    On disk, the operators an ambient computed over one ring share one
    stacked entry: under the label Z over the integers, and under mod{ell}
    over F_ell.  It has one row per operator, its key (p for T_p, -d for
    <d>, 0 for the star involution) and then its entries row by row.  A
    run reads the entry of a ring once, computes what it lacks, and
    rewrites it with everything it holds for that ring.  Entries of one
    operator each, under T{p}, d{d} and star, are left from older builds
    and never read.

    Disk layout: <dir>/msym_v1/L{level}_W{weight}/{label}.mat, the label
    prefixed by H{generators of +-H, joined by "-"}/ on Gamma_H for +-H
    nontrivial, in binary: one ASCII header line "MSYMMAT 3 {rows} {cols}
    {width} {fingerprint}", the entries row by row as little-endian
    two's-complement integers of width bytes each, and the 32-byte SHA-256
    digest of everything before it.  The width is the smallest of 1, 2, 4
    and 8 that holds every entry; a matrix beyond int64 takes as many bytes
    as its largest entry needs.  load returns an array, int64 or, past
    int64, Python integers.  The fingerprint identifies the ambient lattice
    basis the matrix is written in; an entry under another fingerprint is a
    miss, and the next store overwrites it.  Writes are atomic (temp file +
    rename); corrupt entries, and entries of another format version, are
    deleted and recomputed.
    """

    def __init__(self, root=None):
        self.directory = (None if root is None
                          else os.path.join(root, "msym_v1"))
        self._memo = {}

    def recall(self, key, compute):
        """The value kept under key, from compute() the first time."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def cosets(self, subgroup):
        """The coset table of Gamma_H(n), H = subgroup, once per +-H."""
        pm = plus_minus(subgroup.level, subgroup)
        return self.recall(("cosets", pm), partial(CosetTable, pm))

    def _path(self, level, weight, label):
        return os.path.join(self.directory, "L%d_W%d" % (level, weight),
                            "%s.mat" % label)

    def store(self, level, weight, label, mat, fingerprint):
        """Write an integer array (int64 or Python integers)."""
        rows, cols = mat.shape
        width, entries = _encode(mat)
        data = ("%s %d %d %d %s\n" % (CACHE_FORMAT, rows, cols, width,
                                       fingerprint)).encode() + entries
        path = self._path(level, weight, label)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.write(hashlib.sha256(data).digest())
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                with suppress(OSError):
                    os.unlink(tmp)
            print("warning: cache write failed: %s" % exc, file=sys.stderr)

    def load(self, level, weight, label, fingerprint):
        path = self._path(level, weight, label)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        try:
            if hashlib.sha256(data[:-32]).digest() != data[-32:]:
                raise ValueError("checksum mismatch")
            head, _, entries = data[:-32].partition(b"\n")
            head = head.decode("ascii").split()
            if " ".join(head[:2]) != CACHE_FORMAT:
                raise ValueError("version mismatch")
            rows, cols, width = int(head[2]), int(head[3]), int(head[4])
            if head[5] != fingerprint:
                return None
            if len(entries) != rows * cols * width:
                raise ValueError("shape mismatch")
            return _decode(entries, width).reshape(rows, cols)
        except (ValueError, IndexError):
            with suppress(OSError):
                os.unlink(path)
            return None


def _encode(mat):
    """(width, bytes) of an integer array's entries, row by row, as
    little-endian two's complement: numpy casts them while they fit int64,
    and only a matrix beyond int64 is written entry by entry."""
    lo, hi = int(mat.min(initial=0)), int(mat.max(initial=0))
    size = (max(hi.bit_length(), (~lo).bit_length()) + 8) // 8
    if size > 8:
        return size, b"".join(int(x).to_bytes(size, "little", signed=True)
                              for x in mat.flat)
    width = next(w for w in (1, 2, 4, 8) if w >= size)
    return width, mat.astype("<i%d" % width).tobytes()


def _decode(entries, width):
    """The flat array of entries _encode wrote at this width."""
    if width in (1, 2, 4, 8):
        return np.frombuffer(entries, dtype="<i%d" % width).astype(np.int64)
    return np.array([int.from_bytes(entries[i:i + width], "little",
                                    signed=True)
                     for i in range(0, len(entries), width)], dtype=object)
