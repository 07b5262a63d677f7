import random

import pytest
from sympy import Matrix

from modgalrep import eigen
from modgalrep.eigen import (
    charpoly_mod,
    decompose,
    match_twist,
    ReducedSpace,
    reduce_space_mod,
)
from modgalrep.exactalg import fq_field, poly_from_ints, unit_group
from modgalrep.exactalg.gf import poly_divmod
from modgalrep.modsym import build_space

from helpers import read_line_value, twist_eigensystem

PRIMES50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def plus_cuspidal(n, k):
    return build_space(n, k).cuspidal_subspace().star_plus_subspace()


def systems_of(n, k, ell, primes=PRIMES50):
    return decompose(reduce_space_mod(plus_cuspidal(n, k), ell, primes), primes)


def test_reduce_space_preserves_commutation():
    space = plus_cuspidal(13, 2)
    rs = reduce_space_mod(space, 5, [2, 3])
    a, b = rs.ops[2], rs.ops[3]
    n = len(a)
    ab = [[sum(a[i][t] * b[t][j] for t in range(n)) % 5 for j in range(n)]
          for i in range(n)]
    ba = [[sum(b[i][t] * a[t][j] for t in range(n)) % 5 for j in range(n)]
          for i in range(n)]
    assert ab == ba


def test_reduce_trace_example():
    rs = reduce_space_mod(plus_cuspidal(1, 12), 13, [2])
    assert rs.ops[2] == [[2]]  # -24 = 2 mod 13


def test_decompose_level11_mod11():
    systems = systems_of(11, 2, 11)
    assert len(systems) == 1
    s = systems[0]
    assert s.a[2].coeffs == (9,)   # -2 mod 11
    assert s.a[3].coeffs == (10,)  # -1 mod 11
    assert all(v == s.field.one() for v in s.character().values)


def test_decompose_level1_weight12_mod13():
    systems = systems_of(1, 12, 13)
    assert len(systems) == 1
    assert systems[0].a[2].coeffs == (2,)
    assert systems[0].a[3].coeffs == (5,)  # 252 mod 13


def test_decompose_level13_root_splitting():
    systems = systems_of(13, 2, 13)
    assert sorted(s.a[2].encoding() for s in systems) == [2, 8]
    for s in systems:
        assert s.field.r == 1


def test_decompose_completeness_bookkeeping():
    for n, k, ell in [(13, 2, 5), (13, 2, 13), (15, 2, 5), (5, 12, 7),
                      (23, 2, 5)]:
        space = plus_cuspidal(n, k)
        systems = systems_of(n, k, ell)
        assert sum(s.multiplicity * s.field.r for s in systems) == space.dim


def test_galois_stability_of_orbit_expansion():
    for n, k, ell in [(23, 2, 5), (5, 12, 7)]:
        systems = systems_of(n, k, ell)
        expanded = {}
        for s in systems:
            for conj in s.frobenius_orbit():
                expanded[conj.value_tuple()] = conj
        for s in expanded.values():
            assert s.frobenius().value_tuple() in expanded
        # representatives are canonical: least value tuple in the orbit
        for s in systems:
            assert s.value_tuple() == min(c.value_tuple()
                                          for c in s.frobenius_orbit())


def test_diamond_values_multiplicative():
    for s in systems_of(13, 2, 5):
        group = unit_group(13)
        for x in group.elements():
            for y in (2, 5, 7):
                lhs = s.character().value(x * y % 13)
                rhs = s.character().value(x) * s.character().value(y)
                assert lhs == rhs


def test_minpoly_examples():
    F13 = fq_field(13, 1)
    assert F13.from_int(8).minpoly() == [5, 1]  # x - 8
    F49 = fq_field(7, 2)
    mp = F49.gen().minpoly()
    assert len(mp) - 1 == 2 and mp[-1] == 1


def test_matched_minpoly_divides_table_polynomial():
    systems = systems_of(13, 2, 13)
    matched = [s for s in systems if s.a[2].encoding() == 2][0]
    F13 = fq_field(13, 1)
    target = poly_from_ints(F13, [3, 3, 1])
    mp = poly_from_ints(F13, matched.a[2].minpoly())
    _, rem = poly_divmod(target, mp)
    assert not rem


def test_twist_identity_and_fermat():
    s = systems_of(11, 2, 11)[0]
    t0 = twist_eigensystem(s, 0)
    assert all(t0.a[p] == s.a[p] for p in s.a)
    t10 = twist_eigensystem(s, 10)
    assert all(t10.a[p] == s.a[p] for p in s.a if p % 11)


def test_twist_level15_example():
    s = systems_of(15, 2, 5)[0]
    assert s.a[2].coeffs == (4,)  # a_2 = -1
    t = twist_eigensystem(s, 1)
    assert t.a[2].coeffs == (3,)  # 2 * 4 = 8 = 3 mod 5


def test_match_reflexive():
    for s in systems_of(13, 2, 5) + systems_of(5, 12, 7):
        assert match_twist(s, s, 0, 30).verdict


def test_match_equivariance():
    f = [s for s in systems_of(3, 12, 5) if s.a[2].encoding() == 3][0]
    g = systems_of(15, 2, 5)[0]
    assert match_twist(f, g, 1, 50).verdict
    for j in (1, 2, 3):
        tw = twist_eigensystem(f, j)
        assert match_twist(tw, g, 1 + j, 50).verdict


def test_match_delta_level11():
    delta = systems_of(1, 12, 11)[0]
    f2 = systems_of(11, 2, 11)[0]
    r1 = match_twist(delta, f2, 1, 50)
    assert not r1.verdict and r1.first_failing_prime == 2
    r0 = match_twist(delta, f2, 0, 50)
    assert r0.verdict and r0.det_check
    assert 11 in r0.primes_skipped


def test_match_without_a_checked_prime_is_no_verdict():
    s = systems_of(15, 2, 5)[0]
    rep = match_twist(s, s, 0, 1)
    assert rep.primes_checked == [] and not rep.verdict
    # at level 6 and ell 5 every prime up to 5 is bad
    t = systems_of(6, 12, 5, [2, 3, 5, 7])[0]
    rep = match_twist(t, t, 0, 5)
    assert rep.primes_skipped == [2, 3, 5] and rep.primes_checked == []
    assert not rep.verdict and rep.first_failing_prime is None
    assert match_twist(t, t, 0, 7).verdict


def test_match_weight_congruence_reported_same_level():
    systems = systems_of(13, 2, 13)
    a, b = systems[0], systems[1]
    rep = match_twist(a, b, 0, 20)
    # same level but different diamond characters: congruence not in scope
    assert rep.weight_congruence is None
    rep_self = match_twist(a, a, 0, 20)
    assert rep_self.weight_congruence is True


def test_match_det_check_spec_pair():
    f = [s for s in systems_of(3, 12, 5) if s.a[2].encoding() == 3][0]
    g = systems_of(15, 2, 5)[0]
    rep = match_twist(f, g, 1, 50)
    assert rep.verdict and rep.det_check
    assert all(p not in rep.primes_checked for p in (3, 5))


def test_bad_prime_values_flagged():
    systems = decompose(reduce_space_mod(plus_cuspidal(11, 2), 11,
                                         [2, 3, 11]), [2, 3, 11])
    s = systems[0]
    assert 11 in s.bad_primes
    assert 11 in s.a


def test_charpoly_sanity():
    # (x-1)(x-2) = x^2 - 3x + 2 = x^2 + 2x + 2 mod 5
    assert charpoly_mod([[1, 1], [0, 2]], 5) == [2, 2, 1]
    # against sympy's integer characteristic polynomial, on int64 residues
    # and (for 2^61 - 1) on Python integers
    rng = random.Random(1)
    for ell in (5, 13, 2 ** 61 - 1):
        for n in (1, 3, 6, 9):
            mat = [[rng.randrange(ell) if rng.random() < 0.6 else 0
                    for _ in range(n)] for _ in range(n)]
            expected = Matrix(mat).charpoly().all_coeffs()[::-1]
            assert charpoly_mod(mat, ell) == [int(c) % ell for c in expected]


def test_decompose_skips_simple_and_scalar_blocks(monkeypatch):
    # a simple block is not split further, and a scalar operator needs no
    # characteristic polynomial; cutting every block by every operator
    # takes 232 calls here
    calls = []
    plain = eigen.charpoly_mod

    def spy(a, ell):
        calls.append(len(a))
        return plain(a, ell)

    monkeypatch.setattr(eigen, "charpoly_mod", spy)
    systems = systems_of(40, 2, 13)
    assert sum(s.multiplicity * s.field.r for s in systems) == 25
    assert len(calls) <= 60


def test_decompose_beyond_int64():
    # ell^2 * dim exceeds 2^63, so the residues are Python integers
    ell = 2 ** 61 - 1
    t2 = [[1, 1], [0, 2]]
    t3 = [[1, 3], [0, 4]]  # T3 = T2^2
    rspace = ReducedSpace(1, 2, ell, 2, {2: t2, 3: t3}, ())
    systems = decompose(rspace, [2, 3])
    assert [(s.multiplicity, s.value_tuple()) for s in systems] \
        == [(1, (1, 1)), (1, (2, 4))]
    assert charpoly_mod(t2, ell) == [2, ell - 3, 1]
    # an F_{ell^2} block: T2 = diag(C, C) and T3 = diag(C, -C), C the
    # companion matrix of x^2 + 1, give the orbits of (a, a) and (a, -a)
    m = ell - 1
    t2 = [[0, m, 0, 0], [1, 0, 0, 0], [0, 0, 0, m], [0, 0, 1, 0]]
    t3 = [[0, m, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, m, 0]]
    rspace = ReducedSpace(1, 2, ell, 4, {2: t2, 3: t3}, ())
    systems = decompose(rspace, [2, 3])
    assert [(s.field.r, s.multiplicity, s.value_tuple()) for s in systems] \
        == [(2, 1, (ell, ell)), (2, 1, (ell, m * ell))]
    # a simple block: T3 = 3 + 2 T2 is never split on, and its value is read
    # off the one-dimensional piece
    rspace = ReducedSpace(1, 2, ell, 2, {2: [[0, m], [1, 0]],
                                         3: [[3, 2 * m % ell], [2, 3]]}, ())
    systems = decompose(rspace, [2, 3])
    assert [(s.field.r, s.multiplicity, s.value_tuple()) for s in systems] \
        == [(2, 1, (ell, 3 + 2 * ell))]


def test_decompose_refuses_an_operator_that_leaves_a_block():
    # T3 swaps the eigenlines of T2, so it leaves each block that T2 cuts;
    # the restriction of T3 to a block must be checked, not only read off,
    # also between two operators that keep the block in one stacked check
    swap = [[0, 1], [1, 0]]
    for ops in ({2: [[1, 0], [0, 2]], 3: swap},
                {2: [[1, 0], [0, 2]], 3: swap, 5: [[3, 0], [0, 4]]}):
        rspace = ReducedSpace(1, 2, 5, 2, ops, ())
        with pytest.raises(AssertionError,
                           match="outside the span of a basis"):
            decompose(rspace, [2, 3, 5][:len(ops)])


def test_line_values_equal_the_one_label_read(monkeypatch):
    # every value a line reads at once, good and bad operators alike (2, 5 and
    # 13 are bad at level 40 mod 13, and 2, 3 and 7 at level 6 mod 7),
    # equals the value the one-operator oracle reads off the same line
    reads = []
    plain = eigen._line_values

    def spy(field, xs, cols):
        values = plain(field, xs, cols)
        assert values == [read_line_value(field, x, cols) for x in xs]
        reads.append(len(xs))
        return values

    monkeypatch.setattr(eigen, "_line_values", spy)
    for n, k, ell in [(40, 2, 13), (6, 12, 7)]:
        reads.clear()
        systems = systems_of(n, k, ell)
        assert reads and sum(reads) > len(reads)
        bad = [p for p in PRIMES50 if (n * ell) % p == 0]
        assert any(set(bad) <= set(s.a) for s in systems), (n, k, ell)


def test_a_line_with_every_value_known_reads_nothing(monkeypatch):
    # T2 is scalar and T3 cuts the block into lines with linear factors, so
    # no line has a value left to read
    monkeypatch.setattr(eigen, "_line_values", None)
    rspace = ReducedSpace(1, 2, 5, 2, {2: [[2, 0], [0, 2]],
                                       3: [[1, 0], [0, 3]]}, ())
    assert [s.value_tuple() for s in decompose(rspace, [2, 3])] \
        == [(2, 1), (2, 3)]
