"""Exact integer linear algebra: products, kernels, dual bases and free
quotients.

Matrices are 2-D integer numpy arrays, of a fixed-width integer dtype or,
past int64, of Python integers (dtype object); every matrix function here
takes and returns them.  exact_dtype is the one rule for numpy work on
them: int64 while a bound computed from the inputs shows that no value can
overflow, Python integers otherwise, so results are always exact.
Elimination applies it to the entries it starts from and then before every
row update, to a bound on the entries that update makes, and turns its
array into Python integers in place the first time int64 cannot hold them.
product, the one matrix product over Z and over F_ell, puts float64 before
it: below 2^53 BLAS on float64 is exact.  A matrix that is kept rather than
worked on, the projection of a quotient, is stored at narrow_dtype, its
narrowest width.

Kernels are computed with a tracked unimodular row transform, which makes
the returned basis generate the full integer kernel lattice; in particular
every kernel here is saturated, which is what keeps reductions mod ell free
of spurious torsion artifacts.  A saturated basis B has an integral dual
basis D with D B = I (dual_basis); coordinates in B are then products with
D, and there is no solve.

The free quotient of Z^n by integer relations is coordinatized by such a
kernel: a saturated basis of the linear forms that vanish on every relation
maps Z^n onto Z^dim, and its dual basis gives a preimage of each coordinate
vector, a column of the n x dim array of lifts.  Its torsion is computed
on first read, from a diagonal form of the relations the sparse
elimination leaves: echelon them, then the transpose of the result, and so
on until every row has one nonzero entry.  Each pass is a unimodular
change of rows or of columns, so the diagonal presents the same torsion,
which is split into prime powers; the Smith divisibility chain is never
needed.
"""

from functools import cached_property

import numpy as np

from .arith import factorint


class SaturationError(Exception):
    """A lattice was not saturated, or an exact map left the sublattice."""


def exact_dtype(bound):
    """int64 while every value is below bound < 2^63 in absolute value,
    Python integers (dtype object) otherwise."""
    return np.int64 if bound < 2 ** 63 else object


def narrow_dtype(bound):
    """The narrowest of int8, int16, int32 and int64 that holds every
    integer of absolute value at most bound; Python integers beyond."""
    return next((t for t in (np.int8, np.int16, np.int32, np.int64)
                 if bound <= np.iinfo(t).max), object)


def product_dtype(bound):
    """The dtype product multiplies in when no partial sum exceeds bound:
    float64 below 2^53, then as exact_dtype."""
    return np.float64 if bound < 2 ** 53 else exact_dtype(bound)


def abs_max(a, axis=None):
    """The largest absolute values of an integer array, or of a float64 one
    of integers, along axis, as Python integers in an object array."""
    a = np.abs(a)
    if a.dtype.kind == "i":
        # np.abs leaves -2^63 as it is, which reads as 2^63 unsigned
        a = a.view("u%d" % a.itemsize)
    m = np.asarray(a.max(axis, initial=0))
    return (m.astype(np.uint64) if m.dtype.kind == "f" else m).astype(object)


def as_operand(a):
    """a as float64, which product takes without a copy, if its entries lie
    below 2^53: an operand of several products is converted once."""
    return a.astype(product_dtype(int(abs_max(a))), copy=False)


def product(a, b, ell=None):
    """a @ b for integer arrays, exactly; given ell, its residues mod ell,
    for entries below ell in absolute value.

    No partial sum of an entry exceeds a bound: over Z the column maxima of
    |a| dotted with the row maxima of |b|, or an entry of either if larger;
    mod ell, n (ell - 1)^2 for inner dimension n.  The product runs in the
    dtype product_dtype gives it, on float64 BLAS below 2^53, where it is
    exact (the FFLAS-FFPACK rule: J.-G. Dumas, P. Giorgi and C. Pernet,
    ACM TOMS 35(3), 2008), on int64 below 2^63 and on Python integers
    beyond.  The result is int64, or Python integers past int64.
    """
    if ell is None:
        a_cols, b_rows = abs_max(a, 0), abs_max(b, 1)
        bound = max(np.dot(a_cols, b_rows), a_cols.max(initial=0),
                    b_rows.max(initial=0))
    else:
        bound = a.shape[-1] * (ell - 1) ** 2
    dtype = product_dtype(bound)
    if dtype is object:
        # float64 operands (as_operand) reach Python integers through int64
        a, b = (m.astype(np.int64) if m.dtype.kind == "f" else m
                for m in (a, b))
    c = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    if dtype is np.float64:
        # exact integers; the remainder is several times faster on int64
        c = c.astype(np.int64)
    if ell is not None:
        c %= ell
    return c


def _subtract_multiples(w, targets, qs, src):
    """w[targets] -= qs * w[src], with w turned into Python integers first
    if a bound on the results rules out int64; returns w."""
    if w.dtype != object:
        bound = (int(np.abs(qs).max()) * int(np.abs(w[src]).max())
                 + int(np.abs(w[targets]).max()))
        w = w.astype(exact_dtype(bound), copy=False)
    w[targets] -= qs[:, None] * w[src][None, :]
    return w


def _echelon(a, ncols_left, clear=False):
    """Unimodular row echelon over the first ncols_left columns.

    Returns (pivot count, the transformed rows as a new array).  With clear
    set, the columns must have full rank and span a saturated lattice; the
    pivot block, then unimodular, is cleared to the identity.  The rows are
    copied to the dtype exact_dtype gives their entries, int64 when it can.
    Before each row update a bound on the updated entries goes through
    exact_dtype again; once int64 cannot hold them, the array turns into
    Python integers and the work carries on from the same pivot.
    """
    w = a.astype(exact_dtype(int(abs_max(a))))
    nrows = w.shape[0]
    piv = 0
    for j in range(ncols_left):
        if piv >= nrows:
            break
        while True:
            col = w[piv:, j]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                break
            if nz.size == 1:
                r = piv + int(nz[0])
                if r != piv:
                    w[[piv, r]] = w[[r, piv]]
                piv += 1
                break
            sel = int(nz[int(np.argmin(np.abs(col[nz])))])
            r = piv + sel
            others = nz[nz != sel] + piv
            w = _subtract_multiples(w, others, w[others, j] // int(w[r, j]), r)
    if clear:
        for i in range(piv - 1, -1, -1):
            if abs(int(w[i, i])) != 1:
                raise SaturationError("pivot block is not unimodular")
            if w[i, i] < 0:
                w[i] = -w[i]
            above = np.nonzero(w[:i, i])[0]
            if above.size:
                w = _subtract_multiples(w, above, w[above, i], i)
    return piv, w


def _augment(a):
    """[A^T | I]: row i holds column i of A, then the i-th unit vector."""
    return np.concatenate((a.T, np.eye(a.shape[1], dtype=a.dtype)), axis=1)


def kernel_int(a):
    """Basis of the integer kernel {x : A x = 0}, as the rows of an array.

    The basis spans the full kernel lattice Z^n intersect ker_Q(A), n the
    number of columns of A, i.e. it is saturated.  The first nonzero entry
    of each row is positive.  Deterministic for a fixed input.
    """
    m = a.shape[0]
    piv, w = _echelon(_augment(a), m)
    basis = w[piv:, m:]
    if basis.size:
        lead = basis[np.arange(len(basis)), (basis != 0).argmax(axis=1)]
        basis[lead < 0] *= -1
    return basis


def dual_basis(forms):
    """The rows x_1..x_k of an array with forms[j] . x_i = delta_ij.

    The k rows of forms must be independent and span a saturated lattice,
    as the bases kernel_int returns do.  The unimodular U that puts the
    n x k matrix F = forms^T in echelon form has U F = [H; 0] with H
    triangular of unit diagonal; clearing H to the identity by row
    operations leaves the x_i in the first k rows of U.
    """
    k = forms.shape[0]
    piv, w = _echelon(_augment(forms), k, clear=True)
    if piv != k:
        raise AssertionError("forms are not independent")
    return w[:k, k:]


def elementary_divisors(diag):
    """Prime-power torsion invariants of a diagonalized quotient, sorted."""
    out = []
    for d in diag:
        d = abs(int(d))
        if d > 1:
            for p, e in factorint(d).items():
                out.append(p ** e)
    return sorted(out)


class QuotientMap:
    """Free quotient of Z^n by a set of integer relation rows.

    proj_rows, an n x dim array, holds in row i the class of the i-th
    generator in Z^dim, after discarding torsion; lifts, n x dim too, holds
    a preimage of basis vector j in column j.  The torsion is computed on
    first read, from the leftover relations, an array over the generators
    left after the sparse elimination.
    """

    def __init__(self, dim, leftovers, proj_rows, lifts):
        self.dim = dim
        self.leftovers = leftovers
        self.proj_rows = proj_rows
        self.lifts = lifts

    @cached_property
    def torsion(self):
        """The sorted prime-power elementary divisors of the quotient."""
        rank, w = _echelon(self.leftovers, self.leftovers.shape[1])
        w = w[:rank]
        while (np.count_nonzero(w, axis=1) > 1).any():
            w = _echelon(w.T, rank)[1][:rank]
        return elementary_divisors(w.flat)


def quotient_by_relations(n, relation_rows):
    """Torsion-free quotient of Z^n by sparse relation rows.

    relation_rows is an iterable of dicts {generator index: coefficient}.
    Unit-coefficient pivots are eliminated sparsely first.  On the t
    generators left, the projection is a saturated basis of the linear
    forms vanishing on the leftover relations (kernel_int), and the lifts
    are its dual basis, on the rows of those generators.  Torsion is
    discarded from the projection; the QuotientMap computes it when first
    read.
    """
    solved = {}       # col -> dict of remaining cols (the substitution)

    def resolved(col):
        """solved[col] over the columns not solved so far, stored back.
        An entry holds only columns solved after its own, so the chains
        end; each is expanded once, the deepest first."""
        stack = [col]
        while stack:
            top = stack[-1]
            stale = [c for c in solved[top] if c in solved]
            deeper = [c for c in stale if any(c2 in solved for c2 in solved[c])]
            if deeper:
                stack += deeper
                continue
            stack.pop()
            if stale:
                sub = solved[top]
                for c in stale:
                    v = sub.pop(c)
                    for c2, v2 in solved[c].items():
                        sub[c2] = sub.get(c2, 0) + v * v2
                solved[top] = {c: v for c, v in sub.items() if v}
        return solved[col]

    def substitute(row):
        for c in [c for c in row if c in solved]:
            coeff = row.pop(c)
            for c2, v2 in resolved(c).items():
                nv = row.get(c2, 0) + coeff * v2
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)

    # substitute until a pass finds no new unit pivot
    pending = [{c: v for c, v in raw.items() if v} for raw in relation_rows]
    while True:
        progressed = False
        waiting = []
        for row in pending:
            substitute(row)
            if not row:
                continue
            units = [c for c, v in row.items() if v in (1, -1)]
            if units:
                target = max(units)
                sign = row.pop(target)
                solved[target] = {c: -v * sign for c, v in row.items()}
                progressed = True
            else:
                waiting.append(row)
        pending = waiting
        if not progressed:
            break
    leftovers = pending

    # every solved column in terms of the free columns
    for target in solved:
        resolved(target)

    remaining = [c for c in range(n) if c not in solved]
    pos = {c: i for i, c in enumerate(remaining)}
    t = len(remaining)

    def dense(rows):
        """The sparse rows over the free columns, at their narrowest."""
        at = [i * t + pos[c] for i, row in enumerate(rows) for c in row]
        values = [v for row in rows for v in row.values()]
        a = np.zeros((len(rows), t),
                     dtype=narrow_dtype(max(map(abs, values), default=0)))
        np.put(a, at, values)
        return a

    # the free columns project by the forms, the solved ones by their
    # substitution times them, or by the substitution alone for forms I
    leftovers = dense(leftovers)
    if len(leftovers):
        forms = kernel_int(leftovers)
        duals = dual_basis(forms)
        subst = product(dense(list(solved.values())), forms.T)
        proj_rows = np.zeros((n, len(forms)), dtype=narrow_dtype(
            max(int(abs_max(forms)), int(abs_max(subst)))))
        proj_rows[remaining] = forms.T
        proj_rows[list(solved)] = subst
    else:
        duals = np.eye(t, dtype=np.int8)
        proj_rows = dense([solved.get(c, {c: 1}) for c in range(n)])
    lifts = np.zeros((n, len(duals)), dtype=narrow_dtype(int(abs_max(duals))))
    lifts[remaining] = duals.T
    return QuotientMap(len(duals), leftovers, proj_rows, lifts)
