"""Shared independent oracles for the test suite.

Everything here is deliberately naive: exhaustive searches, textbook
formulas, brute-force enumeration.  The point is that none of it shares
code paths with the package internals it checks.
"""

from math import comb, gcd, lcm

import numpy as np

from modgalrep.congruence import CosetTable, curve_invariants
from modgalrep.dirichlet import DirichletCharacter, place_above
from modgalrep.eigen import _exact_dtype, Eigensystem
from modgalrep.exactalg import (
    dual_basis,
    poly_factor_fq,
    poly_from_ints,
    quotient_by_relations,
    unit_group,
    xgcd,
)
from modgalrep.exactalg.gf import (
    poly_degree,
    poly_mod,
    poly_trim,
)
from modgalrep.exactalg.intmat import exact_dtype


def mat_mul(a, b):
    """The product of two integer matrices, lists of rows, on Python
    integers."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def poly_mul(f, g):
    """The product of two polynomials over F_q, lists of FqElem low degree
    first, coefficient by coefficient."""
    if not f or not g:
        return []
    field = f[0].field
    out = [field.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a.is_zero():
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def make_character(n, generator_images, zeta_order=None):
    """Character mod n from exponents of zeta on the unit-group generators."""
    if zeta_order is None:
        zeta_order = unit_group(n).exponent
    return DirichletCharacter(n, zeta_order, generator_images)


def genus_of_subgroup(subgroup):
    return curve_invariants(CosetTable(subgroup)).genus


def naive_is_irreducible(coeffs, p):
    """Exhaustive irreducibility test for a monic poly over F_p (deg <= 4)."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    # root test rules out degrees 2 and 3
    has_root = any(
        sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
        for x in range(p))
    if deg <= 3:
        return not has_root
    if has_root:
        return False
    # degree 4: also rule out a product of two irreducible quadratics
    for b in range(p):
        for c in range(p):
            if not naive_is_irreducible([c, b, 1], p):
                continue
            # divide coeffs by x^2 + bx + c over F_p
            rem = list(coeffs)
            for i in range(deg, 1, -1):
                lead = rem[i] % p
                if lead:
                    rem[i - 1] = (rem[i - 1] - lead * b) % p
                    rem[i - 2] = (rem[i - 2] - lead * c) % p
                rem[i] = 0
            if rem[0] % p == 0 and rem[1] % p == 0:
                return False
    return True


def least_irreducible(p, r):
    """Lex-least monic irreducible of degree r over F_p, by brute force."""
    import itertools
    for tail in itertools.product(range(p), repeat=r):
        coeffs = list(tail) + [1]
        if naive_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError


def poly_roots(f):
    """Roots of f in its coefficient field by full factorization, sorted by
    encoding."""
    roots = [-g[0] * g[1].inverse() for g, _ in poly_factor_fq(f)
             if poly_degree(g) == 1]
    return sorted(roots, key=lambda x: x.encoding())


def embed_field(small, big):
    """The embedding of one canonical field into a larger one that sends
    the generator to the least root of the small modulus in big (to the
    generator when the fields are equal), as a function summing the
    coefficients times the powers of that root."""
    if small.r == 1:
        return lambda x: big.from_int(x.coeffs[0])
    if small == big:
        return lambda x: x
    root = poly_roots(poly_from_ints(big, small.modulus))[0]
    powers = [big.one()]
    for _ in range(small.r - 1):
        powers.append(powers[-1] * root)

    def phi(x):
        acc = big.zero()
        for c, pw in zip(x.coeffs, powers):
            acc = acc + big.from_int(c) * pw
        return acc

    return phi


def naive_powmod(f, e, mod):
    """f^e modulo mod by square-and-multiply on lists of FqElem, one
    product of field elements per pair of coefficients; 0 modulo a unit."""
    if poly_degree(mod) == 0:
        return []
    result, base = [mod[0].field.one()], poly_mod(f, mod)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base), mod)
        base = poly_mod(poly_mul(base, base), mod)
        e >>= 1
    return result


def naive_euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def psl2_index_gamma1(n):
    """#{(c,d) unimodular mod n} / #{+-1}, by enumeration."""
    pairs = sum(1 for c in range(n) for d in range(n)
                if gcd(gcd(c, d), n) == 1)
    return pairs // (1 if n <= 2 else 2)


def dim_cusp_forms(mu, nu2, nu3, cusps, genus, k):
    """dim S_k for even k >= 2 from the curve invariants (textbook formula)."""
    assert k % 2 == 0
    if k == 2:
        return genus
    return ((k - 1) * (genus - 1) + (k // 2 - 1) * cusps
            + nu2 * (k // 4) + nu3 * (k // 3))


def naive_genus(n, subgroup_elements):
    """Genus of Gamma_H by explicit orbit counting on unimodular pairs."""
    scal = set()
    for u in subgroup_elements:
        scal.add(u % n)
        scal.add((-u) % n)
    pairs = [(c, d) for c in range(n) for d in range(n)
             if gcd(gcd(c, d), n) == 1]
    canon = {}
    for c, d in pairs:
        orbit = min((u * c % n, u * d % n) for u in scal)
        canon[(c, d)] = orbit
    reps = sorted(set(canon.values()))
    index_of = {r: i for i, r in enumerate(reps)}
    mu = len(reps)
    s = [index_of[canon[(d % n, (-c) % n)]] for c, d in reps]
    t = [index_of[canon[(c % n, (c + d) % n)]] for c, d in reps]
    nu2 = sum(1 for i in range(mu) if s[i] == i)
    nu3 = sum(1 for i in range(mu) if t[s[i]] == i)
    seen = [False] * mu
    cusps = 0
    for i in range(mu):
        j = i
        if not seen[j]:
            cusps += 1
            while not seen[j]:
                seen[j] = True
                j = t[j]
    num = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * cusps
    assert num % 12 == 0
    return num // 12, mu, nu2, nu3, cusps


def ramanujan_tau(n_max):
    """tau(0..n_max) from the q-expansion of q prod (1 - q^n)^24."""
    c = [1] + [0] * n_max  # prod (1 - q^n)^24 up to q^n_max
    for n in range(1, n_max + 1):
        for _ in range(24):
            for i in range(n_max, n - 1, -1):
                c[i] -= c[i - n]
    return [0] + c[:n_max]


def merel_family(p):
    """Merel's integral matrices of determinant p with a > b >= 0,
    d > c >= 0 (L. Merel, LNM 1585, 1994); their sum gives T_p on Manin
    symbols of any level."""
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


def monomial_tables(mats, k, rows, ell=None):
    """t[g, e, j]: coefficient of X^j Y^(k-2-j) in (aX + bY)^e (cX + dY)^(k-2-e).

    One table for each matrix g = (a, b, c, d) of mats, however many share
    a residue class, for the exponents e < rows.  Over Z, int64 when no
    entry can overflow, Python integers otherwise; given ell, residues mod
    ell, reduced as they are built, so int64 wherever _exact_dtype allows.
    The per-matrix tables the operator kernel built before it built one
    table per class.
    """
    g = np.array(mats, dtype=np.int64).reshape(-1, 4)
    if ell is None:
        m = int(np.abs(g).reshape(-1, 2, 2).sum(axis=2).max(initial=0))
        g = g.astype(exact_dtype(m ** (k - 2)))
    else:
        # each entry below sums at most k - 1 products of two residues
        g = (g % ell).astype(_exact_dtype(k, ell))

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
    return out if ell is None else out % ell


def restrict_level_by_level(space, ambient_mat):
    """An ambient operator restricted to a subspace one step at a time:
    X = D (T B) from each parent to its child, D the dual basis of the
    child's basis B in the parent's coordinates."""
    chain = []
    while space.parent is not None:
        chain.append(space)
        space = space.parent
    mat = ambient_mat
    for sub in reversed(chain):
        if not len(sub.basis):
            return []
        mat = mat_mul(dual_basis(sub.basis).tolist(),
                      mat_mul(mat, transpose(sub.basis.tolist())))
    return mat


def read_line_value(field, x, cols):
    """The eigenvalue of one operator x on a piece of dimension one over
    field, held as an F_ell basis whose row i*d + j is coefficient j of entry
    i: entry i of x w over entry i of w, w the first basis column and i its
    first nonzero entry, by sums over Python integers."""
    d, ell, s = field.r, field.ell, len(x)
    w = [[int(cols[i * d + j, 0]) for j in range(d)] for i in range(s)]
    i = next(i for i in range(s) if any(w[i]))
    xw = [sum(int(x[i][t]) * w[t][j] for t in range(s)) % ell
          for j in range(d)]
    return field(xw) * field(w[i]).inverse()


def charpoly_mod(mat, p):
    """Characteristic polynomial of an integer matrix mod a prime p, low
    degree first, by textbook Hessenberg reduction over F_p."""
    n = len(mat)
    h = [[x % p for x in row] for row in mat]
    for j in range(n - 2):
        r = next((i for i in range(j + 1, n) if h[i][j]), None)
        if r is None:
            continue
        if r != j + 1:
            h[r], h[j + 1] = h[j + 1], h[r]
            for row in h:
                row[r], row[j + 1] = row[j + 1], row[r]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            c = h[i][j] * inv % p
            if c:
                h[i] = [(x - c * y) % p for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = (row[j + 1] + c * row[i]) % p
    # p_i(x) = (x - h[i-1][i-1]) p_{i-1}(x)
    #          - sum_m h[m-1][i-1] * prod_{m <= t < i} h[t][t-1] * p_{m-1}(x)
    polys = [[1]]
    for i in range(1, n + 1):
        prev = polys[-1]
        term = [0] + prev
        for t, c in enumerate(prev):
            term[t] = (term[t] - h[i - 1][i - 1] * c) % p
        beta = 1
        for m in range(i - 1, 0, -1):
            beta = beta * h[m][m - 1] % p
            coef = beta * h[m - 1][i - 1] % p
            for t, c in enumerate(polys[m - 1]):
                term[t] = (term[t] - coef * c) % p
        polys.append(term)
    return polys[n]


def project_vector(qm, vec):
    """The class in Z^dim of the sparse vector [(index, coeff), ...] under
    the quotient map qm, from its projection rows."""
    rows = qm.proj_rows.tolist()
    out = [0] * qm.dim
    for i, c in vec:
        for t in range(qm.dim):
            out[t] += c * rows[i][t]
    return out


def all_characters(n):
    """Every character mod n, against zeta of the group exponent."""
    group = unit_group(n)
    m = group.exponent
    out = []

    def rec(prefix):
        j = len(prefix)
        if j == len(group.orders):
            out.append(DirichletCharacter(n, m, tuple(prefix)))
            return
        step = m // group.orders[j]
        for e in range(0, m, step):
            rec(prefix + [e])

    rec([])
    return out


def teichmuller_lift(rchar, place=None):
    """The character with root-of-unity values reducing back to rchar.

    The lift has values of order prime to ell (dividing the residue field's
    unit group order), reduces to rchar under the place, and has the same
    kernel.  If no place is given, the canonical one for the value orders
    of rchar is used.  Exponents are found by exhaustive search.
    """
    orders = [v.multiplicative_order() for v in rchar.values]
    m = lcm(*orders) if orders else 1
    if place is None:
        place = place_above(rchar.field.ell, m)
    assert place.field == rchar.field
    root = place.root_image(m)
    exps = []
    for v in rchar.values:
        cur = rchar.field.one()
        for e in range(m):
            if cur == v:
                exps.append(e)
                break
            cur = cur * root
        else:
            raise AssertionError("value is not a power of the chosen root")
    return DirichletCharacter(rchar.modulus, m, tuple(exps))


def twist_eigensystem(sys, j):
    """The twist by chi_ell^j, j >= 0: a_p -> p^j a_p, diamonds unchanged."""
    a = {p: sys.field.from_int(pow(p, j, sys.ell)) * v
         for p, v in sys.a.items()}
    return Eigensystem(sys.level, sys.weight, sys.ell, sys.field, a,
                       dict(sys.diamond), sys.multiplicity,
                       sys.provenance + "*chi^%d" % j, sys.bad_primes)


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


def boundary_by_cusp_equivalence(ambient):
    """The boundary map of an ambient on its lattice basis, with each cusp
    g(inf), g(0) of a symbol's coset found by lifting (c:d) to a matrix g
    and testing it against the cusps met so far (CuspClasses); rows in
    order of discovery."""
    n, k = ambient.level, ambient.weight
    ncos = len(ambient.table)
    cusps = CuspClasses(n)
    entries = {}  # (cusp, basiscol) -> coeff
    for col, lift in enumerate(ambient.lifts):
        for sym, coeff in lift:
            a_exp, x = divmod(sym, ncos)
            if a_exp != 0 and a_exp != k - 2:
                continue
            c, d = ambient.table.reps[x]
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
    mat = [[0] * ambient.dim for _ in range(len(cusps))]
    for (r, ccol), v in entries.items():
        mat[r][ccol] = v
    return mat


def full_relation_quotient(ambient):
    """The quotient of an ambient's symbols by every two- and three-term
    relation, one block of each at every coset, in the order the ambient
    emits its own rows (the oracle of the per-orbit relation blocks)."""
    n, k, table = ambient.level, ambient.weight, ambient.table
    ncos = len(table)
    rows = []

    def add(row, key, val):
        row[key] = row.get(key, 0) + val
        if not row[key]:
            del row[key]

    for x, (c, d) in enumerate(table.reps):
        sx = table.s_perm[x]
        tx = table.index_of[(d % n, (-c - d) % n)]
        ux = table.index_of[((-c - d) % n, c % n)]
        for a in range(k - 1):
            row = {}
            add(row, a * ncos + x, 1)
            add(row, (k - 2 - a) * ncos + sx, (-1) ** a)
            rows.append(row)
            row = {}
            add(row, a * ncos + x, 1)
            for j in range(k - 2 - a + 1):
                add(row, j * ncos + tx,
                    (-1) ** (k - 2 + j) * comb(k - 2 - a, j))
            for j in range(a + 1):
                add(row, (k - 2 - a + j) * ncos + ux,
                    (-1) ** (k - 2 - a + j) * comb(a, j))
            rows.append(row)
    return quotient_by_relations(ambient.nsym, rows)
