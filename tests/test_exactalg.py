import random
from hashlib import sha256

import numpy as np
import pytest
import sympy
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from modgalrep.exactalg import (
    divisors,
    dual_basis,
    euler_phi,
    exact_dtype,
    fq_field,
    kernel_int,
    poly_factor_fq,
    poly_from_ints,
    quotient_by_relations,
    unit_group,
)
from modgalrep.exactalg import intmat
from modgalrep.exactalg.arith import factorint, is_prime
from modgalrep.exactalg.gf import (
    _poly_pth_root,
    element_of_order,
    embeddings,
    FqElem,
    irreducible_roots,
    poly_powmod,
    poly_trim,
)

from helpers import (
    embed_field,
    least_irreducible,
    mat_mul,
    naive_euler_phi,
    naive_powmod,
    poly_mul,
    poly_roots,
    project_vector,
    transpose,
)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(33) == 20
    assert euler_phi(42) == 12


def test_euler_phi_against_enumeration():
    for n in range(1, 200):
        assert euler_phi(n) == naive_euler_phi(n)


def test_unit_group_prime_modulus_is_cyclic():
    g = unit_group(11)
    assert len(g.generators) == 1
    assert g.orders == (10,)


def test_unit_group_mod_8():
    g = unit_group(8)
    assert g.orders == (2, 2)


def test_unit_group_trivial():
    assert unit_group(1).generators == ()
    assert unit_group(2).generators == ()


def test_unit_group_generates_everything():
    for n in range(1, 80):
        g = unit_group(n)
        assert len(g.elements()) == euler_phi(n)
        for x in g.elements():
            exps = g.dlog(x)
            acc = 1 % n
            for gen, e in zip(g.generators, exps):
                acc = acc * pow(gen, e, n) % n
            assert acc == x % n


def test_unit_group_deterministic():
    a = unit_group(56)
    assert a is unit_group(56)
    assert a.generators == unit_group(56).generators


# ---------------------------------------------------------------------------
# finite fields

def test_prime_field_modulus_convention():
    assert fq_field(13, 1).modulus == (0, 1)


def test_canonical_modulus_is_lex_least_irreducible():
    # oracle: exhaustive search with a naive irreducibility test
    assert fq_field(13, 2).modulus == least_irreducible(13, 2)
    assert fq_field(5, 4).modulus == least_irreducible(5, 4)
    assert fq_field(7, 3).modulus == least_irreducible(7, 3)


# sha256 of "p,r:c_0,...,c_r" for each pair below, joined by ";"
MODULUS_DIGEST = (
    "1eafda93cc69d3099d6cdc54a7dd7a0eed798f8fc712b95c34be599a1b276707")


def test_canonical_moduli_are_pinned():
    pairs = [(p, r) for p in (2, 3, 5, 7, 11, 13) for r in range(1, 7)]
    pairs.append((7, 10))
    text = ";".join(
        "%d,%d:%s" % (p, r, ",".join(map(str, fq_field(p, r).modulus)))
        for p, r in pairs)
    assert sha256(text.encode()).hexdigest() == MODULUS_DIGEST
    assert fq_field(7, 10).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1)
    assert fq_field(13, 6).modulus == (1, 0, 0, 0, 0, 1, 1)


def test_fq_field_requires_prime():
    with pytest.raises(ValueError):
        fq_field(6, 2)


def test_field_arithmetic_basics():
    F = fq_field(5, 4)
    x = F.gen() + F.from_int(2)
    assert x * x.inverse() == F.one()
    assert x ** (5 ** 4 - 1) == F.one()
    assert (x + F.zero()) == x


def test_frobenius_order_on_generator():
    for ell, r in [(5, 2), (7, 3), (13, 2), (5, 4)]:
        F = fq_field(ell, r)
        x = F.gen()
        y = x
        for i in range(1, r):
            y = y.frobenius()
            assert y != x
        assert y.frobenius() == x


def test_roots_of_unity_distinct():
    # for n <= 50 prime to ell, the n-th roots of unity are all distinct
    for ell in (5, 7, 11, 13):
        for n in range(1, 51):
            if n % ell == 0:
                continue
            r = 1
            while (ell ** r - 1) % n:
                r += 1
            if r > 6:
                continue  # keep the field enumerable in test time
            F = fq_field(ell, r)
            z = element_of_order(F, n)
            powers = set()
            cur = F.one()
            for _ in range(n):
                powers.add(cur.encoding())
                cur = cur * z
            assert len(powers) == n


def test_factor_spec_examples():
    F13 = fq_field(13, 1)
    facs = poly_factor_fq(poly_from_ints(F13, [3, 3, 1]))
    roots = sorted((-f[0]).coeffs[0] for f, _ in facs)
    assert roots == [2, 8]

    F5 = fq_field(5, 1)
    facs = poly_factor_fq(poly_from_ints(F5, [1, 0, 1]))
    roots = sorted((-f[0]).coeffs[0] for f, _ in facs)
    assert roots == [2, 3]

    facs = poly_factor_fq(poly_from_ints(F5, [-1] + [0] * 9 + [1]))
    assert [( [c.coeffs[0] for c in f], m) for f, m in facs] == \
        [([1, 1], 5), ([4, 1], 5)]


def test_factor_linear_polynomial_is_itself():
    rng = random.Random(3)
    for ell, r in [(5, 1), (13, 1), (7, 3)]:
        F = fq_field(ell, r)
        for _ in range(10):
            b = F.from_encoding(rng.randrange(F.order))
            a = F.from_encoding(rng.randrange(1, F.order))
            facs = poly_factor_fq([b, a])
            assert facs == [([b * a.inverse(), F.one()], 1)]
            assert poly_mul([a], facs[0][0]) == [b, a]


def test_factor_roundtrip_random():
    rng = random.Random(7)
    for ell, r in [(5, 1), (7, 1), (13, 2), (5, 2)]:
        F = fq_field(ell, r)
        for _ in range(15):
            deg = rng.randrange(1, 7)
            coeffs = [F.from_encoding(rng.randrange(F.order))
                      for _ in range(deg)] + [F.one()]
            from modgalrep.exactalg.gf import poly_trim
            f = poly_trim(coeffs)
            if len(f) < 2:
                continue
            facs = poly_factor_fq(f)
            prod = [f[-1]]
            for g, m in facs:
                for _ in range(m):
                    prod = poly_mul(prod, g)
            assert prod == f
            # determinism
            assert poly_factor_fq(f) == facs


def test_minpoly_divides_field_degree():
    F = fq_field(7, 4)
    x = F.gen()
    mp = x.minpoly()
    assert len(mp) - 1 == 4
    sub = x ** ((7 ** 4 - 1) // (7 ** 2 - 1))
    assert (len(sub.minpoly()) - 1) in (1, 2)


@pytest.mark.parametrize("r", [1, 2])
def test_inverse_of_zero_raises_zero_division(r):
    # the same error in every field: the CLI reports a ValueError as a
    # domain error, and inverting zero is an internal fault
    F = fq_field(13, r)
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        F.zero() ** -1


@pytest.mark.parametrize("ell, r", [
    (13, 1), (13, 2), (13, 4), (5, 6), (7, 3), (2 ** 61 - 1, 2), (3, 8),
    (11, 10)])
def test_inverse_and_minpoly_against_independent_oracles(ell, r):
    """The inverse is a right inverse and equals Fermat's x^(q-2); the
    minimal polynomial is monic, vanishes at x, has one irreducible factor
    over F_ell and the degree of the orbit of x under x -> x^ell, the powers
    by repeated products alone.  The elements are random ones, the
    generator and one of each subfield F_{ell^s}, s | r."""
    F, prime = fq_field(ell, r), fq_field(ell, 1)
    q = F.order
    rng = random.Random(ell * r)
    xs = [F.from_encoding(rng.randrange(1, q)) for _ in range(40)]
    xs += [F.one(), F.from_int(-1)] + ([F.gen()] if r > 1 else [])
    xs += [xs[0] ** ((q - 1) // (ell ** s - 1)) for s in divisors(r)]
    for x in xs:
        inv = x.inverse()
        assert x * inv == F.one(), x
        assert inv == x ** (q - 2), x
        mp = x.minpoly()
        assert mp[-1] == 1 and all(0 <= c < ell for c in mp), x
        acc = F.zero()
        for c in reversed(mp):
            acc = acc * x + F.from_int(c)
        assert acc.is_zero(), x
        g = poly_from_ints(prime, mp)
        assert poly_factor_fq(g) == [(g, 1)], x
        orbit, c = 1, x ** ell
        while c != x:
            orbit, c = orbit + 1, c ** ell
        assert len(mp) - 1 == orbit and r % orbit == 0, x


def test_embed_field_is_homomorphism():
    small = fq_field(5, 2)
    big = fq_field(5, 4)
    phi = embeddings(small, big)[0]
    a, b = small.gen(), small.gen() + small.one()
    assert phi(a * b) == phi(a) * phi(b)
    assert phi(a + b) == phi(a) + phi(b)
    assert phi(small.one()) == big.one()


@pytest.mark.parametrize("ell, s, r", [
    (5, 1, 4), (5, 2, 4), (7, 2, 6), (7, 3, 6), (13, 2, 4), (13, 4, 4),
    (2 ** 61 - 1, 1, 2)])
def test_embeddings_match_embed_field(ell, s, r):
    # map 0 is the oracle's embedding, map j is map 0 followed by the
    # Frobenius j times, and every map is a ring homomorphism
    small, big = fq_field(ell, s), fq_field(ell, r)
    maps = embeddings(small, big)
    assert len({phi(small.gen()).coeffs for phi in maps}) == s
    oracle = embed_field(small, big)
    basis = [small([int(i == j) for j in range(s)]) for i in range(s)]
    for x in basis:
        assert maps[0](x) == oracle(x), x
    for j, phi in enumerate(maps):
        for x in basis:
            y = maps[0](x)
            for _ in range(j):
                y = y.frobenius()
            assert phi(x) == y, (j, x)
    rng = random.Random(ell * 100 + s * 10 + r)
    for _ in range(10):
        a, b = (small([rng.randrange(ell) for _ in range(s)])
                for _ in range(2))
        for phi in maps:
            assert phi(a * b) == phi(a) * phi(b)
            assert phi(a + b) == phi(a) + phi(b)
            assert phi(small.one()) == big.one()


@pytest.mark.parametrize("ell", [5, 7, 13])
def test_irreducible_roots_match_poly_roots(ell):
    # for each d | r <= 4: the canonical modulus of degree d and four
    # minimal polynomials of random elements of F_{ell^d}; listing every
    # irreducible of degree 4 over F_13 would take minutes
    rng = random.Random(ell)
    for r in range(1, 5):
        big = fq_field(ell, r)
        for d in divisors(r):
            small = fq_field(ell, d)
            polys = {small.modulus}
            while len(polys) < 5:
                g = small.from_encoding(rng.randrange(small.order)).minpoly()
                if len(g) == d + 1:
                    polys.add(tuple(g))
            for g in sorted(polys):
                roots = irreducible_roots(big, g)
                assert len(roots) == d
                assert roots == poly_roots(poly_from_ints(big, g)), (r, g)


def test_irreducible_roots_past_int64():
    ell = 2 ** 61 - 1
    field = fq_field(ell, 2)
    # 3 is not a square mod ell, since ell = 1 mod 3 and ell = 3 mod 4
    g = [-3, 0, 1]
    roots = irreducible_roots(field, g)
    assert roots == poly_roots(poly_from_ints(field, g))
    assert [x * x for x in roots] == [field.from_int(3)] * 2
    assert irreducible_roots(field, [-5, 1]) == [field.from_int(5)]


def _exact_product(a, b, ell):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % ell
             for col in zip(*b.tolist())] for row in a.tolist()]


def _record_product_dtypes(monkeypatch):
    """The dtypes intmat.product multiplies in, in call order."""
    picked = []
    plain = intmat.product_dtype

    def spy(bound):
        picked.append(plain(bound))
        return picked[-1]

    monkeypatch.setattr(intmat, "product_dtype", spy)
    return picked


def test_mul_mod_exact_on_both_sides_of_two_to_the_53(monkeypatch):
    """Every entry ell - 1 makes each sum n (ell - 1)^2, the largest one:
    below 2^53 for n = 2, where BLAS on float64 is exact, and above it for
    n = 3, where the product falls back to int64."""
    ell = 2 ** 26 - 5
    assert is_prime(ell)
    assert 2 * (ell - 1) ** 2 < 2 ** 53 <= 3 * (ell - 1) ** 2
    picked = _record_product_dtypes(monkeypatch)
    for n, dtype in ((2, np.float64), (3, np.int64)):
        for a, b in [(np.full((4, n), ell - 1), np.full((n, 5), ell - 1)),
                     (np.full((4, n), 1 - ell), np.full((n, 5), ell - 1))]:
            picked.clear()
            c = intmat.product(a, b, ell)
            assert picked == [dtype]
            assert c.dtype == np.int64
            assert c.tolist() == _exact_product(a, b, ell), n
    # the float64 rounding the bound keeps out
    x = float(3 * (ell - 1) ** 2 - 1)
    assert int(x) != 3 * (ell - 1) ** 2 - 1


@pytest.mark.parametrize("ell, n, dtype", [
    (1000003, 10 ** 4, np.int64), (2 ** 31 - 1, 4, object),
    (2 ** 61 - 1, 3, object), (13, 50, np.float64)])
def test_mul_mod_on_each_path(monkeypatch, ell, n, dtype):
    picked = _record_product_dtypes(monkeypatch)
    rng = np.random.default_rng(ell % 1000)
    a = np.array([[int(x) for x in row]
                  for row in rng.integers(0, 2 ** 62, (3, n)) % ell],
                 dtype=object)
    b = np.array([[int(x) for x in row]
                  for row in rng.integers(0, 2 ** 62, (n, 2)) % ell],
                 dtype=object)
    a[0, 0], b[0, 0] = ell - 1, 1 - ell
    c = intmat.product(a, b, ell)
    assert picked == [dtype]
    assert c.dtype == (object if dtype is object else np.int64)
    assert c.tolist() == _exact_product(a, b, ell)


@pytest.mark.parametrize("ell", [13, 2 ** 61 - 1])
def test_mul_mod_empty_and_one_row_shapes(ell):
    product = intmat.product
    assert product(np.zeros((0, 5), np.int64), np.ones((5, 3), np.int64),
                   ell).shape == (0, 3)
    assert product(np.ones((4, 0), np.int64), np.zeros((0, 3), np.int64),
                   ell).tolist() == [[0] * 3] * 4
    row = np.array([[1, 2, 3]], dtype=np.int64)
    assert product(row, row.T, ell).tolist() == [[14 % ell]]
    assert product(row.T, row, ell).shape == (3, 3)


POWMOD_FIELDS = [(5, 1), (13, 1), (13, 2), (13, 4), (7, 6), (5, 8),
                 (2 ** 61 - 1, 1), (2 ** 61 - 1, 2)]


def _random_poly(field, rng, length):
    return [field.from_encoding(rng.randrange(field.order))
            for _ in range(length)]


@pytest.mark.parametrize("ell, r", POWMOD_FIELDS)
def test_poly_powmod_matches_square_and_multiply(ell, r):
    field = fq_field(ell, r)
    q = field.order
    rng = random.Random(ell * r)
    for n in range(9):
        # a modulus of degree n, monic or not, and a base of degree up to
        # 2n + 1, so that the base itself needs reducing
        mod = _random_poly(field, rng, n) + [
            field.from_encoding(rng.choice([1, rng.randrange(1, q)]))]
        f = poly_trim(_random_poly(field, rng, rng.randrange(2 * n + 3)))
        # (q^d - 1) / 2 splits products of irreducibles of degree d
        for e in (0, 1, 2, q, (q - 1) // 2, (q ** 2 - 1) // 2,
                  rng.randrange(q ** 2)):
            assert poly_powmod(f, e, mod) == naive_powmod(f, e, mod), (n, e)


def test_poly_powmod_is_zero_modulo_a_unit():
    field = fq_field(13, 2)
    f = [field.gen(), field.one()]
    for c in (field.one(), field.gen()):
        for e in (0, 1, 2, 169):
            assert poly_powmod(f, e, [c]) == []


@pytest.mark.parametrize("ell, r", POWMOD_FIELDS)
def test_frobenius_matrix_and_pth_root(ell, r):
    field = fq_field(ell, r)
    rng = random.Random(r)
    for x in [field.zero(), field.one(), field.gen()] + _random_poly(
            field, rng, 5):
        assert x.frobenius() == x ** ell
    # h^ell = sum h_i^ell x^(i ell), whose ell-th root is h again
    for deg in range(4) if ell < 100 else [0]:
        h = _random_poly(field, rng, deg) + [field.from_int(1 + deg)]
        f = [field.zero()] * (deg * ell + 1)
        f[::ell] = [c ** ell for c in h]
        if ell < 100:
            power = [field.one()]
            for _ in range(ell):
                power = poly_mul(power, h)
            assert power == f
        assert _poly_pth_root(f, field) == h


def test_poly_powmod_multiplies_no_elements_per_bit(monkeypatch):
    """Field elements are multiplied only to reduce the base and to make the
    modulus monic, never once per bit of the exponent."""
    field = fq_field(13, 4)
    q = field.order
    rng = random.Random(4)
    mod = _random_poly(field, rng, 5) + [field.from_int(3)]
    f = _random_poly(field, rng, 7)
    calls = []
    plain = FqElem.__mul__

    def spy(a, b):
        calls.append(1)
        return plain(a, b)

    monkeypatch.setattr(FqElem, "__mul__", spy)
    counts = []
    for e in (q, q ** 4):
        calls.clear()
        poly_powmod(f, e, mod)
        counts.append(len(calls))
    assert counts[1] <= counts[0]


def test_irreducible_roots_rejects_degree_not_dividing():
    with pytest.raises(ValueError):
        irreducible_roots(fq_field(5, 4), fq_field(5, 3).modulus)


def test_element_of_order_compatible_powers():
    F = fq_field(13, 2)
    z12 = element_of_order(F, 12)
    assert z12.multiplicative_order() == 12
    assert z12 ** (12 // 4) == element_of_order(F, 4) ** \
        ((F.order - 1) // (F.order - 1))  # both have order 4
    assert (z12 ** 3).multiplicative_order() == 4


# ---------------------------------------------------------------------------
# integer lattices

def dense_quotient(n, rels):
    return quotient_by_relations(
        n, [{j: v for j, v in enumerate(r) if v} for r in rels])


def test_lattice_quotient_free():
    qm = dense_quotient(2, [])
    assert qm.dim == 2 and qm.torsion == []


def smith_torsion(rels):
    """Oracle: prime-power invariants of sympy's Smith form of the rows."""
    if not rels:
        return []
    return intmat.elementary_divisors(invariant_factors(Matrix(rels)))


def check_torsion(n, rels, dim, torsion):
    qm = dense_quotient(n, rels)
    assert smith_torsion(rels) == torsion
    assert qm.dim == dim and qm.torsion == torsion


def test_lattice_quotient_torsion_single():
    check_torsion(1, [[2]], 0, [2])
    # a primitive relation without a unit coefficient leaves no torsion
    check_torsion(3, [[6, 10, 15]], 2, [])


def test_lattice_quotient_torsion_pair():
    # the Smith form of diag(2, 3) is diag(1, 6); prime-power invariants
    check_torsion(2, [[2, 0], [0, 3]], 0, [2, 3])
    # 2 e0 + e1 = 2 e1 = 0: e1 = -2 e0, so e0 has order 4
    check_torsion(2, [[2, 1], [0, 2]], 0, [4])
    # no unit coefficient: the diagonal form needs column operations
    check_torsion(3, [[2, 2, 0], [0, 4, 6]], 1, [2, 2])


def test_lattice_quotient_rank_permutation_invariant():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(2, 6)
        rels = [[rng.randrange(-4, 5) for _ in range(n)]
                for _ in range(rng.randrange(0, 5))]
        base = dense_quotient(n, rels)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = [[row[p] for p in perm] for row in rels]
        rng.shuffle(shuffled)
        other = dense_quotient(n, shuffled)
        assert base.dim == other.dim
        assert base.torsion == other.torsion == smith_torsion(rels)


def test_quotient_by_relations_projects_relations_to_zero():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 9)
        rows = [{rng.randrange(n): rng.randrange(-5, 6)
                 for _ in range(rng.randrange(1, 4))}
                for _ in range(rng.randrange(0, 12))]
        qm = quotient_by_relations(n, [dict(r) for r in rows])
        # oracle: the rank over Q and the Smith form, from sympy
        dense = [[r.get(j, 0) for j in range(n)] for r in rows]
        assert qm.dim == n - (Matrix(dense).rank() if rows else 0)
        assert qm.torsion == smith_torsion(dense)
        for r in rows:
            assert all(x == 0 for x in project_vector(qm, list(r.items())))
        for j, lift in enumerate(qm.lifts):
            v = project_vector(qm, lift)
            assert v == [1 if t == j else 0 for t in range(qm.dim)]


def test_quotient_idempotent():
    rows = [{0: 2, 1: 1}, {1: 3, 2: -1}]
    a = quotient_by_relations(4, [dict(r) for r in rows])
    b = quotient_by_relations(4, [dict(r) for r in rows])
    assert a.dim == b.dim and a.torsion == b.torsion
    assert np.array_equal(a.proj_rows, b.proj_rows)


def test_kernel_is_saturated_and_complete():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 7)
        a = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        ker = kernel_int(np.array(a)).tolist()
        for v in ker:
            assert all(sum(a[i][j] * v[j] for j in range(n)) == 0
                       for i in range(m))
        # saturation spot check: an integral dual basis exists, and reads
        # the coordinates of 2 * ker[0] off as (2, 0, ..., 0)
        if ker:
            dual = dual_basis(np.array(ker)).tolist()
            comb = [[2 * ker[0][j]] for j in range(n)]
            assert mat_mul(dual, comb) == [[2]] + [[0]] * (len(ker) - 1)


def test_kernel_of_scaled_row_is_primitive():
    assert kernel_int(np.array([[2, 2]])).tolist() == [[1, -1]]


def test_dual_basis_roundtrip():
    rng = random.Random(13)
    done = 0
    while done < 40:
        n = rng.randrange(2, 8)
        a = [[rng.randrange(-4, 5) for _ in range(n)]
             for _ in range(rng.randrange(1, n))]
        ker = kernel_int(np.array(a)).tolist()
        if not ker:
            continue
        b = transpose(ker)  # n x s, a saturated basis as columns
        s = len(ker)
        d = dual_basis(np.array(ker)).tolist()
        assert mat_mul(d, b) == [[int(i == j) for j in range(s)]
                                 for i in range(s)]
        x0 = [[rng.randrange(-9, 10) for _ in range(2)] for _ in range(s)]
        assert mat_mul(d, mat_mul(b, x0)) == x0
        done += 1


def test_exact_dtype_switches_at_two_to_the_63():
    assert exact_dtype(0) is np.int64
    assert exact_dtype(2 ** 63 - 1) is np.int64
    assert exact_dtype(2 ** 63) is object


def _record_dtypes(monkeypatch):
    """The dtypes intmat's exact_dtype returns, in call order."""
    picked = []

    def spy(bound):
        picked.append(exact_dtype(bound))
        return picked[-1]

    monkeypatch.setattr(intmat, "exact_dtype", spy)
    return picked


def _check_kernel(a, n):
    ker = kernel_int(np.array(a, dtype=object))
    for v in ker.tolist():
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    assert len(ker) == n - Matrix(a).rank()
    return ker


def _check_dual(ker, d):
    s = len(ker)
    assert mat_mul(d.tolist(), transpose(ker.tolist())) == [
        [int(i == j) for j in range(s)] for i in range(s)]


def test_elimination_widens_int64_partway(monkeypatch):
    # entries below 2^63 start on int64; the updates outgrow it and the same
    # elimination carries on over Python integers
    picked = _record_dtypes(monkeypatch)
    rng = random.Random(58)
    updates_before_widening = []
    for bits in (58, 58, 58, 60, 62):
        n = 6
        a = [[rng.randrange(-2 ** bits, 2 ** bits) for _ in range(n)]
             for _ in range(3)]
        picked.clear()
        ker = _check_kernel(a, n)
        assert picked[0] is np.int64 and picked[-1] is object
        updates_before_widening.append(len(picked) - 2)
        _check_dual(ker, dual_basis(ker))
    assert max(updates_before_widening) > 0


def test_elimination_starts_on_python_integers(monkeypatch):
    picked = _record_dtypes(monkeypatch)
    rng = random.Random(63)
    for bits in (63, 64, 80):
        n = rng.randrange(3, 7)
        a = [[rng.randrange(-2 ** bits, 2 ** bits) for _ in range(n)]
             for _ in range(rng.randrange(1, n))]
        a[0][0] = 2 ** bits
        picked.clear()
        ker = _check_kernel(a, n)
        assert picked == [object]
        _check_dual(ker, dual_basis(ker))


def test_dual_basis_widens_while_clearing(monkeypatch):
    # the echelon of these forms stays on int64; clearing its pivot block
    # to the identity does not
    picked = _record_dtypes(monkeypatch)
    for seed in range(3):
        rng = random.Random(seed)
        n = 6
        a = [[rng.randrange(-2 ** 16, 2 ** 16) for _ in range(n)]
             for _ in range(3)]
        ker = _check_kernel(a, n)
        picked.clear()
        intmat._echelon(intmat._augment(ker), len(ker))
        assert object not in picked
        picked.clear()
        d = dual_basis(ker)
        assert picked[0] is np.int64 and picked[-1] is object
        _check_dual(ker, d)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(78) == [1, 2, 3, 6, 13, 26, 39, 78]


# strong pseudoprimes to the bases 2..7, 2..31 and 2..37 in turn
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051,
                       318665857834031151167461)


def test_is_prime_against_sympy():
    assert [n for n in range(-2, 10 ** 5) if is_prime(n)] == list(
        sympy.primerange(10 ** 5))
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n) and not sympy.isprime(n)
    assert is_prime(2 ** 61 - 1)


def test_is_prime_refuses_a_probable_prime_past_its_bound():
    # the least strong pseudoprime to every base 2..41
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
    # a divisor or a witness among the bases decides n at any size
    assert not is_prime(3 * 3317044064679887385961981)
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))


def test_factorint_against_sympy():
    for n in range(1, 10 ** 4 + 1):
        assert factorint(n) == sympy.factorint(n)
    for ell in (2, 3, 5, 7, 11, 13):
        for r in range(1, 13):
            assert factorint(ell ** r - 1) == sympy.factorint(ell ** r - 1)
    assert factorint(2 ** 61 - 2) == sympy.factorint(2 ** 61 - 2)
