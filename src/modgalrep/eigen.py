"""Mod-ell eigensystems: reduction of integral Hecke matrices, simultaneous
generalized-eigenspace decomposition over finite extensions of F_ell, and
the twist-matching predicate with its determinant check.

decompose returns one representative per Frobenius orbit of systems; the
multiplicity of a system times the degree of its value field, summed over
representatives, accounts for the full dimension of the input space.
Blocks are refined operator by operator (Hecke at good primes in order,
then diamonds); the coefficient field is extended only when an irreducible
factor of degree > 1 turns up.  Values at primes dividing the level or ell
are recorded when the restricted operator is scalar-plus-nilpotent on the
block, and flagged; they never split blocks and never enter match verdicts
unless explicitly requested.
"""

from math import lcm

from .exactalg.arith import primes_up_to, unit_group
from .exactalg.gf import (
    embed_field,
    fq_field,
    fq_str,
    poly_factor_fq,
    poly_roots,
)


# ---------------------------------------------------------------------------
# dense linear algebra over an FqField (lists of lists of FqElem)

def gf_matrix_from_int(field, mat):
    return [[field.from_int(x) for x in row] for row in mat]


def gf_mat_mul(a, b):
    if not a or not b:
        return []
    field = a[0][0].field
    zero = field.zero()
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = zero
            for x, y in zip(row, col):
                if not x.is_zero() and not y.is_zero():
                    acc = acc + x * y
            orow.append(acc)
        out.append(orow)
    return out


def gf_kernel(mat, ncols):
    """Column-vector kernel basis of a matrix over a finite field."""
    if not mat:
        raise ValueError("kernel of an empty matrix is ambiguous")
    field = mat[0][0].field
    zero, one = field.zero(), field.one()
    rows = [list(r) for r in mat]
    pivots = {}
    rank = 0
    for j in range(ncols):
        sel = None
        for i in range(rank, len(rows)):
            if not rows[i][j].is_zero():
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = rows[rank][j].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][j].is_zero():
                c = rows[i][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        pivots[j] = rank
        rank += 1
    basis = []
    free = [j for j in range(ncols) if j not in pivots]
    for j in free:
        vec = [zero] * ncols
        vec[j] = one
        for pj, pr in pivots.items():
            vec[pj] = -rows[pr][j]
        basis.append(vec)
    return basis


def gf_solve(bcols, ycols):
    """Solve B X = Y where B's columns are independent vectors over a field."""
    field = None
    for col in bcols:
        for x in col:
            field = x.field
            break
        break
    n = len(bcols[0])
    s = len(bcols)
    aug = [[bcols[j][i] for j in range(s)] + [y[i] for y in ycols]
           for i in range(n)]
    rank = 0
    pivots = []
    for j in range(s):
        sel = None
        for i in range(rank, n):
            if not aug[i][j].is_zero():
                sel = i
                break
        if sel is None:
            raise ValueError("basis columns are dependent")
        aug[rank], aug[sel] = aug[sel], aug[rank]
        inv = aug[rank][j].inverse()
        aug[rank] = [x * inv for x in aug[rank]]
        for i in range(n):
            if i != rank and not aug[i][j].is_zero():
                c = aug[i][j]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[rank])]
        pivots.append(j)
        rank += 1
    zero = field.zero()
    for i in range(rank, n):
        if any(not aug[i][t].is_zero() for t in range(s, s + len(ycols))):
            raise ValueError("target outside the span")
    out = [[aug[i][s + t] for t in range(len(ycols))] for i in range(s)]
    return out  # s x k, coordinates of ycols in bcols


def gf_charpoly(mat):
    """Characteristic polynomial over the field, via Hessenberg reduction."""
    n = len(mat)
    field = mat[0][0].field if n else None
    if n == 0:
        return []
    h = [list(r) for r in mat]
    zero, one = field.zero(), field.one()
    for j in range(n - 2):
        sel = None
        for i in range(j + 1, n):
            if not h[i][j].is_zero():
                sel = i
                break
        if sel is None:
            continue
        if sel != j + 1:
            h[sel], h[j + 1] = h[j + 1], h[sel]
            for r in range(n):
                h[r][sel], h[r][j + 1] = h[r][j + 1], h[r][sel]
        inv = h[j + 1][j].inverse()
        for i in range(j + 2, n):
            if not h[i][j].is_zero():
                c = h[i][j] * inv
                h[i] = [x - c * y for x, y in zip(h[i], h[j + 1])]
                for r in range(n):
                    h[r][j + 1] = h[r][j + 1] + c * h[r][i]
    # charpoly of Hessenberg matrix by the standard recurrence
    polys = [[one]]  # p_0 = 1
    for i in range(1, n + 1):
        # p_i(x) = (x - h[i-1][i-1]) p_{i-1}(x) - sum_m beta * p_m(x)
        prev = polys[i - 1]
        term = [zero] + prev
        a = h[i - 1][i - 1]
        term = [term[t] - (a * prev[t] if t < len(prev) else zero)
                for t in range(len(term))]
        beta = one
        for m in range(i - 1, 0, -1):
            beta = beta * h[m][m - 1]
            coef = beta * h[m - 1][i - 1]
            pm = polys[m - 1]
            for t in range(len(pm)):
                term[t] = term[t] - coef * pm[t]
        polys.append(term)
    return polys[n]


def gf_map_entries(mat, phi):
    return [[phi(x) for x in row] for row in mat]


# ---------------------------------------------------------------------------
# reduced spaces and eigensystems

class ReducedSpace:
    """Integral operator matrices of a modular symbol space, reduced mod ell."""

    def __init__(self, level, weight, ell, dim, ops, diamond_gens):
        self.level = level
        self.weight = weight
        self.ell = ell
        self.dim = dim
        self.ops = ops  # label -> matrix over F_ell as int lists
        self.diamond_gens = diamond_gens

    def __repr__(self):
        return "ReducedSpace(level %d, weight %d, mod %d, dim %d)" % (
            self.level, self.weight, self.ell, self.dim)


def reduce_space_mod(space, ell, primes, with_diamonds=True):
    """Reduce the integral Hecke and diamond matrices of a space mod ell.

    Entries are reduced to least non-negative residues; the integral
    matrices come from saturated lattices, so reduction is a ring map and
    commutativity is preserved.
    """
    ops = {}
    for p in primes:
        mat = space.hecke_matrix(p)
        ops["T%d" % p] = [[x % ell for x in row] for row in mat]
    gens = ()
    if with_diamonds and space.level > 2:
        gens = unit_group(space.level).generators
        for d in gens:
            mat = space.diamond_matrix(d)
            ops["d%d" % d] = [[x % ell for x in row] for row in mat]
    return ReducedSpace(space.level, space.weight, ell, space.dim, ops, gens)


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

    def value_tuple(self):
        return tuple(self.a[p].encoding() for p in sorted(self.a)) + tuple(
            self.diamond[d].encoding() for d in sorted(self.diamond))

    def diamond_value(self, x):
        """Diamond character value at any unit x modulo the level."""
        group = unit_group(self.level)
        dlog = group.dlog(x)
        acc = self.field.one()
        for g, e in zip(group.generators, dlog):
            if e:
                acc = acc * self.diamond[g] ** e
        return acc

    def diamond_is_trivial(self):
        one = self.field.one()
        return all(v == one for v in self.diamond.values())

    def frobenius(self):
        """The conjugate system with every value raised to the ell-th power."""
        return Eigensystem(
            self.level, self.weight, self.ell, self.field,
            {p: v.frobenius() for p, v in self.a.items()},
            {d: v.frobenius() for d, v in self.diamond.items()},
            self.multiplicity, self.provenance, self.bad_primes)

    def frobenius_orbit(self):
        orbit = [self]
        cur = self.frobenius()
        while cur.value_tuple() != self.value_tuple():
            orbit.append(cur)
            cur = cur.frobenius()
        return orbit

    def minpoly_a(self, p):
        return self.a[p].minpoly()

    def digest(self):
        parts = []
        for p in sorted(self.a)[:3]:
            parts.append("a%d=%s" % (p, fq_str(self.a[p])))
        return "; ".join(parts)

    def __repr__(self):
        return "Eigensystem(level %d, wt %d, mod %d, F_%d^%d, mult %d: %s)" % (
            self.level, self.weight, self.ell, self.field.ell, self.field.r,
            self.multiplicity, self.digest())


def minpoly_prime_field(a):
    """Monic minimal polynomial of a field element over F_ell (int list)."""
    return a.minpoly()


class _Block:
    __slots__ = ("field", "basis", "values")

    def __init__(self, field, basis, values):
        self.field = field
        self.basis = basis      # list of column vectors over field
        self.values = values    # label -> FqElem


def _restrict_to_block(op_int, block):
    field = block.field
    op = gf_matrix_from_int(field, op_int)
    ycols = []
    for col in block.basis:
        img = [sum((op[i][t] * col[t] for t in range(len(col))
                    if not op[i][t].is_zero() and not col[t].is_zero()),
                   field.zero())
               for i in range(len(op))]
        ycols.append(img)
    sol = gf_solve(block.basis, ycols)
    s = len(block.basis)
    return [[sol[i][j] for j in range(s)] for i in range(s)]


def _split_block(block, op_int, label):
    """Refine a block along one operator; returns a list of new blocks."""
    mat = _restrict_to_block(op_int, block)
    s = len(mat)
    charpoly = gf_charpoly(mat)
    factors = poly_factor_fq(charpoly)
    out = []
    for fac, mult in factors:
        deg = len(fac) - 1
        if deg == 1:
            root = -fac[0] * fac[1].inverse()
            field2 = block.field
            basis2 = block.basis
            mat2 = mat
            values2 = dict(block.values)
        else:
            field2 = fq_field(block.field.ell, block.field.r * deg)
            phi = embed_field(block.field, field2)
            fac2 = [phi(c) for c in fac]
            root = _least_root(fac2)
            basis2 = [[phi(x) for x in col] for col in block.basis]
            mat2 = gf_map_entries(mat, phi)
            values2 = {k: phi(v) for k, v in block.values.items()}
        shifted = [row[:] for row in mat2]
        for i in range(s):
            shifted[i][i] = shifted[i][i] - root
        power = shifted
        covered = 1
        while covered < mult:  # ker((M-a)^mult) = ker((M-a)^2^t), 2^t >= mult
            power = gf_mat_mul(power, power)
            covered *= 2
        ker = gf_kernel(power, s)
        if not ker:
            continue
        new_basis = []
        for kv in ker:
            col = [field2.zero()] * len(basis2[0])
            for j, c in enumerate(kv):
                if not c.is_zero():
                    for t in range(len(col)):
                        col[t] = col[t] + c * basis2[j][t]
            new_basis.append(col)
        values2[label] = root
        out.append(_Block(field2, new_basis, values2))
    return out


def _least_root(poly):
    roots = poly_roots(poly)
    if not roots:
        raise ValueError("polynomial has no root in its field")
    return roots[0]


def _subfield_normalize(block, ell):
    """Rewrite block values inside the smallest field containing them."""
    degs = [1]
    for v in block.values.values():
        degs.append(len(v.minpoly()) - 1)
    s = lcm(*degs)
    if s == block.field.r:
        return block.values, block.field
    target = fq_field(ell, s)
    big = block.field
    phi = embed_field(target, big)
    # coordinates of the embedded subfield basis inside the big field
    basis_vecs = []
    cur = big.one()
    gen = phi(target.gen()) if s > 1 else big.one()
    for i in range(s):
        basis_vecs.append(list(cur.coeffs))
        cur = cur * gen
    new_values = {}
    for k, v in block.values.items():
        coords = _solve_coords(basis_vecs, list(v.coeffs), big.ell)
        new_values[k] = target(coords)
    return new_values, target


def _solve_coords(basis_vecs, target, p):
    # solve sum c_i basis_vecs[i] = target over F_p
    rows = [[vec[i] for vec in basis_vecs] + [target[i]]
            for i in range(len(target))]
    ncols = len(basis_vecs)
    rank = 0
    pivots = []
    for j in range(ncols):
        sel = next((i for i in range(rank, len(rows)) if rows[i][j] % p), None)
        if sel is None:
            pivots.append(None)
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j] % p:
                c = rows[i][j]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(rank)
        rank += 1
    for i in range(rank, len(rows)):
        if rows[i][-1] % p:
            raise ValueError("element not in subfield")
    out = [0] * ncols
    for j, r in enumerate(pivots):
        if r is not None:
            out[j] = rows[r][-1] % p
    return out


def decompose(rspace, primes=None):
    """Simultaneous generalized-eigenspace decomposition over extensions.

    Returns one Eigensystem per Frobenius orbit, sorted by field degree and
    value encodings; sum of multiplicity * [field : F_ell] over the output
    equals the dimension of the input space.
    """
    ell = rspace.ell
    if primes is None:
        primes = sorted(int(lbl[1:]) for lbl in rspace.ops if lbl[0] == "T")
    n = rspace.dim
    if n == 0:
        return []
    base = fq_field(ell, 1)
    ident = [[base.one() if i == j else base.zero() for i in range(n)]
             for j in range(n)]
    blocks = [_Block(base, ident, {})]
    good = [p for p in primes if (rspace.level * ell) % p]
    bad = [p for p in primes if (rspace.level * ell) % p == 0]
    labels = [("T%d" % p) for p in good]
    labels += [("d%d" % d) for d in rspace.diamond_gens]
    for label in labels:
        op = rspace.ops[label]
        blocks = [nb for b in blocks for nb in _split_block(b, op, label)]
    systems = []
    for idx, b in enumerate(blocks):
        recorded_bad = []
        for p in bad:
            # record a flagged value only when the block sees one eigenvalue
            mat = _restrict_to_block(rspace.ops["T%d" % p], b)
            facs = poly_factor_fq(gf_charpoly(mat))
            if len(facs) == 1 and len(facs[0][0]) == 2:
                fac = facs[0][0]
                b.values["T%d" % p] = -fac[0] * fac[1].inverse()
                recorded_bad.append(p)
        values, field = _subfield_normalize(b, ell)
        a = {}
        diamond = {}
        for k, v in values.items():
            if k[0] == "T":
                a[int(k[1:])] = v
            else:
                diamond[int(k[1:])] = v
        for d in rspace.diamond_gens:
            diamond.setdefault(d, field.one())
        sys = Eigensystem(rspace.level, rspace.weight, ell, field, a, diamond,
                          len(b.basis),
                          "L%dW%dmod%d/b%d" % (rspace.level, rspace.weight,
                                               ell, idx),
                          tuple(sorted(recorded_bad)))
        systems.append(sys)
    systems = _dedupe_orbits(systems)
    systems.sort(key=lambda s: (s.field.r, s.value_tuple()))
    return systems


def _dedupe_orbits(systems):
    """Keep one representative per Frobenius orbit (summing multiplicities).

    Conjugate blocks arise once per orbit already (one root per irreducible
    factor is followed), so normally this only picks the canonical
    representative of each block's orbit.
    """
    out = []
    seen = set()
    for sys in systems:
        orbit = sys.frobenius_orbit()
        keys = [s.value_tuple() for s in orbit]
        canon = min(range(len(keys)), key=lambda i: keys[i])
        if min(keys) in seen:
            continue
        seen.update(keys)
        out.append(orbit[canon])
    return out


def twist_eigensystem(sys, j):
    """Twist: a_p -> p^j a_p, diamonds unchanged."""
    ell = sys.ell
    a = {p: sys.field.from_int(_chi_power(p, j, ell)) * v
         for p, v in sys.a.items()}
    return Eigensystem(sys.level, sys.weight, sys.ell, sys.field, a,
                       dict(sys.diamond), sys.multiplicity,
                       sys.provenance + "*chi^%d" % j, sys.bad_primes)


def _chi_power(p, j, ell):
    if p % ell:
        return pow(p, j % (ell - 1), ell)
    return 1 if j == 0 else 0


class MatchReport:
    """Outcome of comparing two eigensystems up to a cyclotomic twist."""

    def __init__(self, sys_f, sys_g, i, bound, primes_checked, primes_skipped,
                 verdict, first_failing_prime, embedding_index,
                 weight_congruence, det_check, heuristic):
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
        self.heuristic = heuristic

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


def match_twist(sys_f, sys_g, i, bound, include_bad_primes=False,
                heuristic=False):
    """Test a_p(f) = p^i a_p(g) for all good primes up to the bound.

    All embeddings of the two value fields into their compositum are tried;
    the verdict is true if one embedding matches at every checked prime.
    Primes dividing either level or ell are skipped (recorded) unless
    include_bad_primes is set.  When the systems share level and diamond
    character the weight congruence k = k' + 2i (mod ell-1) is reported;
    otherwise the diamond values are tested against the determinant
    relation eps_g = eps_f * chi^(k_f - k_g - 2i).
    """
    ell = sys_f.ell
    if sys_g.ell != ell:
        raise ValueError("systems live over different characteristics")
    r = lcm(sys_f.field.r, sys_g.field.r)
    big = fq_field(ell, r)
    phi_f = embed_field(sys_f.field, big)
    phi_g = embed_field(sys_g.field, big)
    primes = [p for p in primes_up_to(bound) if p <= bound]
    checked, skipped = [], []
    for p in primes:
        bad = (sys_f.level * sys_g.level * ell) % p == 0
        if bad and not include_bad_primes:
            skipped.append(p)
            continue
        if p not in sys_f.a or p not in sys_g.a:
            if bad:
                skipped.append(p)
                continue
            raise ValueError("eigensystem values missing at prime %d" % p)
        checked.append(p)
    best_fail, best_progress, best_j = None, -1, None
    verdict = False
    embedding = None
    for j in range(sys_g.field.r):
        ok = True
        progress = 0
        fail = None
        for p in checked:
            lhs = phi_f(sys_f.a[p])
            factor = big.from_int(_chi_power(p, i, ell))
            rhs = factor * phi_g(_frob_iter(sys_g.a[p], j))
            if lhs != rhs:
                ok = False
                fail = p
                break
            progress += 1
        if ok:
            verdict = True
            embedding = j
            break
        if progress > best_progress:
            best_progress, best_fail, best_j = progress, fail, j
    if not verdict:
        embedding = best_j
    same_level = (sys_f.level == sys_g.level
                  and _same_diamond(sys_f, sys_g, phi_f, phi_g,
                                    embedding or 0))
    weight_congruence = None
    if same_level:
        weight_congruence = (sys_f.weight - sys_g.weight - 2 * i) % (ell - 1) == 0
    det = _determinant_check(sys_f, sys_g, i, big, phi_f, phi_g,
                             embedding or 0)
    return MatchReport(sys_f, sys_g, i, bound, checked, skipped, verdict,
                       None if verdict else best_fail, embedding,
                       weight_congruence, det, heuristic)


def _frob_iter(x, j):
    for _ in range(j):
        x = x.frobenius()
    return x


def _same_diamond(sys_f, sys_g, phi_f, phi_g, j):
    if set(sys_f.diamond) != set(sys_g.diamond):
        return False
    return all(phi_f(v) == phi_g(_frob_iter(sys_g.diamond[d], j))
               for d, v in sys_f.diamond.items())


def _determinant_check(sys_f, sys_g, i, big, phi_f, phi_g, j):
    """eps_g = eps_f * chi^(k_f - k_g - 2i) on the units of the lcm modulus."""
    ell = sys_f.ell
    e = (sys_f.weight - sys_g.weight - 2 * i) % (ell - 1)
    modulus = lcm(sys_f.level, sys_g.level, ell)
    for x in unit_group(modulus).generators:
        lhs = phi_g(_frob_iter(sys_g.diamond_value(x % sys_g.level)
                               if sys_g.level > 1 else sys_g.field.one(), j))
        rhs = phi_f(sys_f.diamond_value(x % sys_f.level)
                    if sys_f.level > 1 else sys_f.field.one())
        rhs = rhs * big.from_int(pow(x, e, ell))
        if lhs != rhs:
            return False
    return True
