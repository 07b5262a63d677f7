"""Mod-ell eigensystems: the Hecke and diamond operators of a space over
F_ell, simultaneous generalized-eigenspace decomposition, and the
twist-matching predicate with its determinant check.

decompose works in two steps.  It first splits the space over F_ell, on
numpy arrays of residues, taking the operators in turn (Hecke at good
primes in order, then diamonds): a block is cut into ker g(T)^e for the
irreducible factors g^e of the operator's characteristic polynomial on it.
A block is its dimension, every operator restricted to it and the factors
that cut it, not a basis: the kernel basis K of a cut is the identity on
its free rows, so X restricts to (X K)[free], checked by K X' = X K, for
all the block's operators stacked in one product.  Two rules spare most
of the work.  A block whose dimension equals the degree of a factor it
already carries is simple, and no operator of the commutative Hecke
algebra splits it, so it is cut no further.  An operator that acts on a
block as a scalar c, as every operator does on a line, has the one factor
T - c and needs no characteristic polynomial.  A final block carries the
factors of the operators that cut it, and all its systems take values in
the one field F_{ell^d}, d the lcm of their degrees; on a simple block
the other values lie in F_ell[T]/(g) for its factor g of degree d.
The second step works in that field: it follows one root of the factor of
largest degree and splits out the other values, and each piece of
dimension one, a line, reads all its remaining values at once.  Its pieces
are subspaces over F_{ell^d}, but each is held as a span over F_ell: F_{ell^d}
is a d-dimensional F_ell-space, an operator acts on each coefficient of an
entry, and a root acts on each entry through its regular representation,
the d x d matrix of multiplication by it; a piece keeps its free rows too.
So both steps run on the one numpy backend over F_ell, with every product
through `intmat.product`, and this module owns the elimination over F_ell
on it: `_rref_mod`, the one echelon form over a finite field in the
package, under the kernels of the cuts and the pieces, and the Hessenberg
reduction of `charpoly_mod`.  The roots of a factor are those of
`irreducible_roots`: one root by equal-degree splitting, with h^e modulo
the factor computed on the same backend, and its Frobenius conjugates by
the field's Frobenius matrix, since every root of a polynomial irreducible
over F_ell is a conjugate of any one.  A block may hold more than one
Frobenius orbit: the systems (a, b) and (a, b^ell) have the same factors
over F_ell, and the Frobenius matrix maps a system to its conjugate.

The result is one representative per Frobenius orbit; the multiplicity of
a system times the degree of its value field, summed over representatives,
is the dimension of the input space; with no operator it is one system
with no values.  Values at primes dividing the level or ell are recorded
when the operator has a single eigenvalue on the system's generalized
eigenspace, and flagged; they never split blocks and never enter match
verdicts.

`match_twist` embeds the value fields in their compositum by the F_ell-linear
maps of `exactalg.gf.embeddings`, trying each map for g against map 0 for f.
Under the chosen maps it compares the diamond characters, the
`dirichlet.ResidualCharacter`s of `Eigensystem.character`, by their values.
"""

from math import lcm

import numpy as np

from .dirichlet import ResidualCharacter
from .exactalg.arith import is_prime, primes_up_to, unit_group
from .exactalg.gf import (
    embeddings,
    fq_field,
    irreducible_roots,
    poly_factor_fq,
    poly_from_ints,
    poly_str,
)
from .exactalg.intmat import exact_dtype, product


# ---------------------------------------------------------------------------
# linear algebra over F_ell on numpy arrays of residues

def _exact_dtype(n, ell):
    """int64 while a sum of n + 2 products of two residues fits in it,
    Python integers beyond that."""
    return exact_dtype((n + 2) * ell * ell)


def _rref_mod(a, ell):
    """Reduced row echelon form of a mod ell, and its pivot columns."""
    a = a % ell
    pivots = []
    for j in range(a.shape[1]):
        r = len(pivots)
        nz = np.flatnonzero(a[r:, j])
        if not nz.size:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r, j:] = a[r, j:] * pow(int(a[r, j]), -1, ell) % ell
        rows = np.flatnonzero(a[:, j])
        rows = rows[rows != r]
        a[rows, j:] = (a[rows, j:] - np.outer(a[rows, j], a[r, j:])) % ell
        pivots.append(j)
        if len(pivots) == a.shape[0]:
            break
    return a[:len(pivots)], pivots


def _kernel_mod(a, ell):
    """Basis K of the kernel of a mod ell, as the columns of an array, and
    its free rows, on which K is the identity."""
    r, pivots = _rref_mod(a, ell)
    free = [j for j in range(a.shape[1]) if j not in pivots]
    ker = np.zeros((a.shape[1], len(free)), dtype=a.dtype)
    ker[free, range(len(free))] = 1
    ker[pivots, :] = -r[:, free] % ell
    return ker, free


def _restrict(xk, ker, free, ell):
    """X' with K X' = X K mod ell, from X K and the free rows of K; for a
    stack of operators X K, one X' each, from one product."""
    x = xk[..., free, :]
    if not np.array_equal(product(ker, x, ell), xk):
        raise AssertionError("target outside the span of a basis")
    return x


def charpoly_mod(a, ell):
    """Characteristic polynomial of a square matrix mod ell, as a list of
    residues, lowest degree first, by reduction to Hessenberg form."""
    h = np.array(a, dtype=_exact_dtype(len(a), ell)) % ell
    n = len(h)
    for j in range(n - 2):
        nz = np.flatnonzero(h[j + 1:, j])
        if not nz.size:
            continue
        i = j + 1 + nz[0]
        h[[i, j + 1]] = h[[j + 1, i]]
        h[:, [i, j + 1]] = h[:, [j + 1, i]]
        u = h[j + 2:, j] * pow(int(h[j + 1, j]), -1, ell) % ell
        h[j + 2:] = (h[j + 2:] - np.outer(u, h[j + 1])) % ell
        h[:, j + 1] = (h[:, j + 1] + product(h[:, j + 2:], u, ell)) % ell
    # p_i = (x - h[i-1,i-1]) p_{i-1}
    #       - sum_{m<i} h[m,m-1] ... h[i-1,i-2] h[m-1,i-1] p_{m-1}
    p = np.zeros((n + 1, n + 1), dtype=h.dtype)
    p[0, 0] = 1
    for i in range(1, n + 1):
        row = np.roll(p[i - 1], 1) - h[i - 1, i - 1] * p[i - 1]
        beta = 1
        for m in range(i - 1, 0, -1):
            beta = beta * h[m, m - 1] % ell
            if not beta:
                break
            row = (row - beta * h[m - 1, i - 1] % ell * p[m - 1]) % ell
        p[i] = row % ell
    return [int(c) for c in p[n]]


def _factor_mod(poly, ell):
    """Monic irreducible factors over F_ell of an int polynomial, as
    (coefficient list, multiplicity)."""
    factors = poly_factor_fq(poly_from_ints(fq_field(ell, 1), poly))
    return [([c.coeffs[0] for c in g], e) for g, e in factors]


def _poly_at(g, x, ell):
    eye = np.eye(len(x), dtype=x.dtype)
    acc = np.zeros_like(x)
    for c in reversed(g):
        acc = (product(acc, x, ell) + c * eye) % ell
    return acc


def _square_up(a, e, ell):
    """a^(2^t) mod ell for the least 2^t >= e, which has the kernel of a^e
    when e bounds the nilpotency index."""
    covered = 1
    while covered < e:
        a = product(a, a, ell)
        covered *= 2
    return a


# ---------------------------------------------------------------------------
# reduced spaces and eigensystems

class ReducedSpace:
    """Hecke and diamond operators of a modular symbol space over F_ell."""

    def __init__(self, level, weight, ell, dim, ops, diamond_gens):
        self.level = level
        self.weight = weight
        self.ell = ell
        self.dim = dim
        # key (p for T_p, -d for <d>, as ModularSymbolSpace.operators keys
        # them) -> the operator over F_ell, an array of residues
        # (reduce_space_mod) or a list of rows of them
        self.ops = ops
        self.diamond_gens = diamond_gens

    def __repr__(self):
        return "ReducedSpace(level %d, weight %d, mod %d, dim %d)" % (
            self.level, self.weight, self.ell, self.dim)


def reduce_space_mod(space, ell, primes):
    """The Hecke operators T_p, p in primes, and the diamonds of the unit
    group's generators on a space, over F_ell.

    They are computed mod ell, never over Z, by the one operator path of
    `ModularSymbolSpace.operators` with the ring F_ell: the ambient
    operators by the operator kernel on residues, restricted to the space
    mod ell through its saturated bases, so they are the reductions of the
    integral matrices, and commutativity is preserved.  The restriction is
    checked mod ell only, which is weaker than the exact check over Z.
    """
    if not is_prime(ell):
        raise ValueError("ell must be prime, got %d" % ell)
    if min(primes, default=2) < 2:
        raise ValueError("T_p needs a prime p, got %d" % min(primes))
    # (Z/nZ)* has no generators for n <= 2
    gens = unit_group(space.level).generators
    keys = list(primes) + [-d for d in gens]
    return ReducedSpace(space.level, space.weight, ell, space.dim,
                        dict(zip(keys, space.operators(keys, ell))), gens)


class Eigensystem:
    """A simultaneous (generalized) eigensystem of a reduced space.

    Values live in the smallest field containing them; `a` maps a prime to
    its T_p value, `diamond` maps each unit-group generator to its value.
    Values at primes dividing level*ell are flagged in `bad_primes`.
    """

    def __init__(self, level, weight, ell, field, a, diamond, multiplicity,
                 provenance, bad_primes):
        self.level = level
        self.weight = weight
        self.ell = ell
        self.field = field
        self.a = a
        self.diamond = diamond
        self.multiplicity = multiplicity
        self.provenance = provenance
        self.bad_primes = bad_primes
        self._character = None

    def value_tuple(self):
        return tuple(self.a[p].encoding() for p in sorted(self.a)) + tuple(
            self.diamond[d].encoding() for d in sorted(self.diamond))

    def character(self):
        """The diamond character, a residual character at the level with
        the diamond values on the generators of the unit group, built on
        the first call."""
        if self._character is None:
            self._character = ResidualCharacter(
                self.level, self.field,
                [self.diamond[g] for g in unit_group(self.level).generators])
        return self._character

    def frobenius(self):
        """The conjugate system with every value raised to the ell-th power."""
        return Eigensystem(
            self.level, self.weight, self.ell, self.field,
            {p: v.frobenius() for p, v in self.a.items()},
            {d: v.frobenius() for d, v in self.diamond.items()},
            self.multiplicity, self.provenance, self.bad_primes)

    def frobenius_orbit(self):
        orbit, key = [self], self.value_tuple()
        while (cur := orbit[-1].frobenius()).value_tuple() != key:
            orbit.append(cur)
        return orbit

    def digest(self):
        parts = []
        for p in sorted(self.a)[:3]:
            parts.append("a%d=%s" % (p, poly_str(self.a[p].coeffs)))
        return "; ".join(parts)

    def __repr__(self):
        return "Eigensystem(level %d, wt %d, mod %d, F_%d^%d, mult %d: %s)" % (
            self.level, self.weight, self.ell, self.field.ell, self.field.r,
            self.multiplicity, self.digest())


def decompose(rspace, primes):
    """Simultaneous generalized-eigenspace decomposition mod ell.

    Uses T_p for the given primes p (each must be among rspace.ops) and
    the diamond operators.  Returns one Eigensystem per Frobenius orbit,
    sorted by field degree and value encodings; sum of multiplicity *
    [field : F_ell] over the output equals the dimension of the input space.
    """
    ell = rspace.ell
    n = rspace.dim
    if n == 0:
        return []
    good = [p for p in primes if (rspace.level * ell) % p]
    good += [-d for d in rspace.diamond_gens]
    bad = [p for p in primes if (rspace.level * ell) % p == 0]
    ops = {k: np.array(rspace.ops[k], dtype=_exact_dtype(n, ell)) % ell
           for k in good + bad}
    blocks = [(n, ops, {})]
    for key in good:
        blocks = [split for block in blocks
                  for split in ([block] if _is_simple(*block) else
                                _split_mod(block, key, ell))]
    systems = []
    for block in blocks:
        field, found = _finish_block(block, good, bad, ell)
        for values, mult in found:
            a = {k: v for k, v in values.items() if k > 0}
            diamond = {-k: v for k, v in values.items() if k < 0}
            systems.append(Eigensystem(
                rspace.level, rspace.weight, ell, field, a, diamond, mult,
                "L%dW%dmod%d/b%d" % (rspace.level, rspace.weight, ell,
                                     len(systems)),
                tuple(sorted(p for p in a if (rspace.level * ell) % p == 0))))
    systems = _dedupe_orbits(systems)
    systems.sort(key=lambda s: (s.field.r, s.value_tuple()))
    return systems


def _is_simple(dim, ops, factors):
    """Whether an operator already acts on the block with an irreducible
    characteristic polynomial: the block is then a simple module, and no
    operator of the algebra splits it."""
    return any(len(g) - 1 == dim for g in factors.values())


def _split_mod(block, key, ell):
    """Split a block (dimension, restricted operators, factors) over F_ell
    into the generalized eigenspaces of one operator, one for each
    irreducible factor of its characteristic polynomial on the block, and
    restrict every operator to each, all of them stacked in one product and
    one check.  An operator that acts as a scalar c has the one factor
    T - c, and needs no characteristic polynomial."""
    dim, ops, factors = block
    x = ops[key]
    c = int(x[0, 0])
    if np.array_equal(x, c * np.eye(dim, dtype=x.dtype)):
        return [(dim, ops, {**factors, key: [-c % ell, 1]})]
    split = _factor_mod(charpoly_mod(x, ell), ell)
    if len(split) == 1:
        return [(dim, ops, {**factors, key: split[0][0]})]
    stack, out = np.stack(list(ops.values())), []
    for g, e in split:
        ker, free = _kernel_mod(_square_up(_poly_at(g, x, ell), e, ell), ell)
        restricted = _restrict(product(stack, ker, ell), ker, free, ell)
        out.append((len(free), dict(zip(ops, restricted)),
                    {**factors, key: g}))
    return out


def _finish_block(block, good, bad, ell):
    """The systems of one block, with their values in F_{ell^d}.

    The block is its dimension s, its restricted operators and its factors.
    Its pieces are F_{ell^d}-subspaces of F_{ell^d}^s.  A piece of dimension
    m over F_{ell^d} is held as an F_ell basis, an array of shape (s*d, m*d)
    whose row i*d + j holds coefficient j of entry i, with the free rows on
    which it is the identity; coordinates on it are read off them.  The
    operator whose factor has the largest degree goes first, and only one of
    its roots is followed: every Frobenius orbit in the block has members
    with that value, and `_dedupe_orbits` keeps one.  A later operator
    splits a larger piece by the roots of its factor; a good key with no
    recorded factor never splits, as the block is simple and its pieces are
    lines, of dimension one, once the lead is followed.  Values at bad keys
    on a larger piece need the operator's characteristic polynomial.  Once
    every operator has gone, each line reads all its missing values at once,
    good and bad keys alike (_line_values).
    Returns the field and a list of (key -> value, multiplicity).
    """
    s, mats, factors = block
    field = fq_field(ell, lcm(1, *(len(g) - 1 for g in factors.values())))
    d = field.r
    lead = max(factors, key=lambda k: len(factors[k]), default=None)
    pieces = [(np.eye(s * d, dtype=_exact_dtype(s * d, ell)),
               np.arange(s * d), {})]
    for key in sorted(good, key=lambda k: k != lead):
        g, roots = factors.get(key), None
        split = []
        for cols, free, values in pieces:
            if g is not None and len(g) == 2:
                found = [(field.from_int(-g[0]), cols, free)]
            elif cols.shape[1] == d:
                split.append((cols, free, values))
                continue
            else:
                if roots is None:
                    roots = irreducible_roots(field, g)
                found = _eigenspaces(field, mats[key], cols, free,
                                     roots[:1] if key == lead else roots)
            split += [(sub, rows, {**values, key: v})
                      for v, sub, rows in found]
        pieces = split
    for key in bad:
        facs = roots = None
        for cols, free, values in pieces:
            if cols.shape[1] == d:
                continue
            if facs is None:
                facs = _factor_mod(charpoly_mod(mats[key], ell), ell)
            if len(facs) == 1 and len(facs[0][0]) == 2:
                values[key] = field.from_int(-facs[0][0][0])
            elif cols.shape[1] < s * d:
                if roots is None:
                    roots = [r for g, _ in facs if d % (len(g) - 1) == 0
                             for r in irreducible_roots(field, g)]
                found = _eigenspaces(field, mats[key], cols, free, roots)
                if len(found) == 1 and found[0][1].shape == cols.shape:
                    values[key] = found[0][0]
    for cols, _, values in pieces:
        missing = [k for k in good + bad if k not in values]
        if cols.shape[1] == d and missing:
            values.update(zip(missing, _line_values(
                field, [mats[k] for k in missing], cols)))
    return field, [(values, cols.shape[1] // d) for cols, _, values in pieces]


def _line_values(field, xs, cols):
    """The eigenvalues of the operators xs on a piece of dimension one over
    field: entry i of x w over entry i of w, for w spanning the piece and
    w_i nonzero, from one product of the stacked rows i of xs with w."""
    w = cols[:, 0].reshape(-1, field.r)
    i = np.flatnonzero(cols[:, 0])[0] // field.r
    inv = field(w[i]).inverse()
    return [field(v) * inv
            for v in product(np.stack([x[i] for x in xs]), w, field.ell)]


def _eigenspaces(field, x, cols, free, roots):
    """Generalized eigenspaces of x inside a piece, for those of the
    candidate eigenvalues that have one: a list of (root, sub-piece, its
    free rows).

    In the F_ell coordinates of the piece, x acts by y and a root by r, the
    matrix of its regular representation on each entry.  Both commute with
    multiplication by the generator, so the kernel of (y - r)^m, m the
    piece's dimension over the field, is again a subspace over the field.
    """
    ell, d = field.ell, field.r
    s, m = len(x), cols.shape[1] // d
    y = _restrict(product(x, cols.reshape(s, -1), ell).reshape(cols.shape),
                  cols, free, ell)
    out = []
    for root in roots:
        mult = np.array([(root * field.gen() ** j).coeffs for j in range(d)],
                        dtype=cols.dtype).T
        r = _restrict(product(mult, cols.reshape(s, d, -1), ell).reshape(
            cols.shape), cols, free, ell)
        ker, rows = _kernel_mod(_square_up((y - r) % ell, m, ell), ell)
        if ker.shape[1]:
            # cols K is the identity on the free rows of K among those of cols
            out.append((root, product(cols, ker, ell), free[rows]))
        if sum(sub.shape[1] for _, sub, _ in out) == cols.shape[1]:
            break
    return out


def _dedupe_orbits(systems):
    """Keep the canonical member of each Frobenius orbit: the one with the
    least value tuple.  A block yields each of its orbits once for every
    conjugate that shares the followed root, all with one multiplicity."""
    out = []
    seen = set()
    for sys in systems:
        # seen holds whole orbits, so a system in it has its orbit there
        if sys.value_tuple() in seen:
            continue
        orbit = sys.frobenius_orbit()
        keys = [s.value_tuple() for s in orbit]
        canon = min(range(len(keys)), key=lambda i: keys[i])
        seen.update(keys)
        out.append(orbit[canon])
    return out


class MatchReport:
    """Outcome of comparing two eigensystems up to a cyclotomic twist."""

    def __init__(self, sys_f, sys_g, i, bound, primes_checked, primes_skipped,
                 verdict, first_failing_prime, embedding_index,
                 weight_congruence, det_check):
        self.sys_f = sys_f
        self.sys_g = sys_g
        self.i = i
        self.bound = bound
        self.primes_checked = primes_checked
        self.primes_skipped = primes_skipped
        self.verdict = verdict
        self.first_failing_prime = first_failing_prime
        self.embedding_index = embedding_index
        self.weight_congruence = weight_congruence
        self.det_check = det_check
        self.heuristic = False  # set by a caller that certifies the bound

    def to_dict(self):
        doc = {
            "system_f": self.sys_f.provenance,
            "system_g": self.sys_g.provenance,
            "twist_exponent": self.i,
            "bound": self.bound,
            "primes_checked": list(self.primes_checked),
            "primes_skipped": list(self.primes_skipped),
            "verdict": self.verdict,
            "determinant_check": self.det_check,
        }
        if self.first_failing_prime is not None:
            doc["first_failing_prime"] = self.first_failing_prime
        if self.embedding_index is not None:
            doc["embedding_index"] = self.embedding_index
        if self.weight_congruence is not None:
            doc["weight_congruence"] = self.weight_congruence
        if self.heuristic:
            doc["heuristic"] = True
        return doc


def match_twist(sys_f, sys_g, i, bound):
    """Test a_p(f) = p^i a_p(g) for all good primes up to the bound.

    The value field of f is embedded into the compositum once, and each
    embedding of that of g is tried; the verdict is true if one embedding
    matches at every checked prime, and at least one prime is checked.
    Primes dividing either level or ell are skipped (recorded).  Under the
    matching embedding, or the one that matched longest, the diamond
    characters are tested against the determinant relation
    eps_g = eps_f * chi^(k_f - k_g - 2i), and when the systems share level
    and diamond character the weight congruence k = k' + 2i (mod ell-1) is
    reported too.  Whether the bound certifies the match is not decided
    here: the report is not heuristic until a caller marks it so.
    """
    ell = sys_f.ell
    if sys_g.ell != ell:
        raise ValueError("systems live over different characteristics")
    big = fq_field(ell, lcm(sys_f.field.r, sys_g.field.r))
    phi_f = embeddings(sys_f.field, big)[0]
    maps_g = embeddings(sys_g.field, big)
    checked, skipped = [], []
    for p in primes_up_to(bound):
        if (sys_f.level * sys_g.level * ell) % p == 0:
            skipped.append(p)
            continue
        if p not in sys_f.a or p not in sys_g.a:
            raise AssertionError(
                "eigensystem values missing at prime %d" % p)
        checked.append(p)
    verdict, embedding, best_fail, best_progress = False, None, None, -1
    # with no prime checked there is no evidence, so no embedding is tried;
    # a failed search reports the embedding that matched longest
    for j, phi_g in enumerate(maps_g if checked else []):
        fail = next((p for p in checked if phi_f(sys_f.a[p])
                     != big.from_int(pow(p, i % (ell - 1), ell))
                     * phi_g(sys_g.a[p])), None)
        if fail is None:
            verdict, embedding = True, j
            break
        if checked.index(fail) > best_progress:
            best_progress, best_fail, embedding = checked.index(fail), fail, j
    phi_g = maps_g[embedding or 0]
    e = (sys_f.weight - sys_g.weight - 2 * i) % (ell - 1)
    eps_f, eps_g = sys_f.character(), sys_g.character()
    weight_congruence = None
    if sys_f.level == sys_g.level and ([phi_f(v) for v in eps_f.values]
                                       == [phi_g(v) for v in eps_g.values]):
        weight_congruence = e == 0
    det = _determinant_check(eps_f, eps_g, e, phi_f, phi_g)
    return MatchReport(sys_f, sys_g, i, bound, checked, skipped, verdict,
                       None if verdict else best_fail, embedding,
                       weight_congruence, det)


def _determinant_check(eps_f, eps_g, e, phi_f, phi_g):
    """eps_g = eps_f * chi^e under the chosen embeddings, chi the cyclotomic
    character mod ell, on the units of the lcm of the moduli and ell."""
    ell = eps_f.field.ell
    return all(
        phi_g(eps_g.value(x))
        == phi_f(eps_f.value(x) * eps_f.field.from_int(pow(x, e, ell)))
        for x in unit_group(lcm(eps_f.modulus, eps_g.modulus, ell)).generators)
