import hashlib
import json
import sys

import numpy as np
import pytest
import sympy

from modgalrep.congruence import (
    CosetTable,
    curve_invariants,
    full_subgroup,
    h_from_eigenform,
    intermediate_subgroups,
    SubgroupH,
    trivial_subgroup,
)
from modgalrep.dirichlet import trivial_character
from modgalrep import modsym
from modgalrep.exactalg import intmat
from modgalrep.exactalg.arith import primes_up_to, unit_group
from modgalrep.exactalg.intmat import exact_dtype, kernel_int, SaturationError
from modgalrep.modsym import (
    build_space,
    heilbronn_cremona,
    MatrixCache,
    ModularSymbolSpace,
)

from helpers import (
    boundary_by_cusp_equivalence,
    dim_cusp_forms,
    full_relation_quotient,
    mat_mul,
    merel_family,
    monomial_tables,
    ramanujan_tau,
    restrict_level_by_level,
)
from test_hecke_mod import _batching_cases


def plus_cuspidal(n, k):
    return build_space(n, k).cuspidal_subspace().star_plus_subspace()


def test_merel_family_inequalities():
    for p in (2, 3, 5, 7, 11, 13):
        fam = merel_family(p)
        assert len(fam) == len(set(fam))
        for a, b, c, d in fam:
            assert a * d - b * c == p
            assert a > b >= 0 and d > c >= 0
        # oracle: exhaustive enumeration within the inequality box
        box = [(a, b, c, d)
               for a in range(1, p + 1) for b in range(a)
               for d in range(1, p + 1) for c in range(d)
               if a * d - b * c == p]
        assert sorted(fam) == sorted(box)


def test_merel_family_size_p2():
    assert len(merel_family(2)) == 4


def test_heilbronn_cremona_matrices():
    assert heilbronn_cremona(2).tolist() == [[1, 0, 0, 2], [2, 0, 0, 1],
                                             [2, 1, 0, 1], [1, 0, 1, 2]]
    assert len(heilbronn_cremona(47)) == 170
    assert len(heilbronn_cremona(571)) == 2906
    for p in primes_up_to(600):
        a, b, c, d = heilbronn_cremona(p).T
        assert (a * d - b * c == p).all(), p


def test_heilbronn_matrices_at_the_narrowest_width():
    """Every entry is at most p in absolute value, so int16 holds the
    matrices of p < 2^15 and int32 those beyond."""
    for p in primes_up_to(3000):
        mats = heilbronn_cremona(p)
        assert mats.dtype == np.int16, p
        assert np.abs(mats.astype(np.int64)).max() <= p, p
    big = heilbronn_cremona(32771)
    assert big.dtype == np.int32
    a, b, c, d = big.astype(np.int64).T
    assert (a * d - b * c == 32771).all()
    assert np.abs(big.astype(np.int64)).max() <= 32771


def test_hecke_matches_merel_family(monkeypatch):
    """T_p equals the operator of Merel's family, entry for entry, for every
    prime p <= 100, with p | N and p^2 | N among the levels.  A spy on
    exact_dtype shows that the monomial tables and the operator kernel each
    ran on int64 and on Python integers."""
    picked = set()

    def spy(bound):
        dtype = exact_dtype(bound)
        picked.add((sys._getframe(1).f_code.co_name, dtype))
        return dtype

    monkeypatch.setattr(modsym, "exact_dtype", spy)
    for n, k in [(11, 2), (1, 12), (3, 12), (6, 12), (35, 2), (40, 2),
                 (12, 8), (9, 4), (25, 2)]:
        ambient = build_space(n, k).ambient
        for p in primes_up_to(100):
            mats = merel_family(p)
            classes, tables = modsym._monomial_tables(
                [mats], k, ambient._kernel.exponents)
            assert ambient.hecke_on_basis(p) == ambient._apply(
                mats, (classes(mats), tables), None,
                [len(mats)])[0].tolist(), (n, k, p)
    for name in ("_monomial_tables", "_apply"):
        assert {d for f, d in picked if f == name} == {np.int64, object}


@pytest.mark.parametrize("ell", [None, 2, 3, 5, 7, 13, 46337, 2 ** 61 - 1])
def test_class_tables_equal_the_per_matrix_tables(ell):
    """One build of the tables of every class, read through the class
    index, equals the per-matrix tables of the oracle on the Heilbronn
    matrices and Merel's families of every p <= 100, with the star and
    (-1, -1, -1, -1), at k in {2, 4, 6, 8, 12}, over Z and mod ell.  46337
    is the largest prime with ell^4 < 2^62, so its codes reach the top of
    int64.  The build holds one table per class: one at weight 2, one per
    residue class mod ell while ell^4 < 2^62, one per matrix otherwise."""
    groups = [np.array(f(p), dtype=np.int64) for p in primes_up_to(100)
              for f in (heilbronn_cremona, merel_family)]
    groups.append(np.array([(-1, 0, 0, 1), (-1, -1, -1, -1)]))
    g = np.concatenate(groups)
    for k in (2, 4, 6, 8, 12):
        classes, tables = modsym._monomial_tables(groups, k, k - 1, ell)
        assert np.array_equal(tables[classes(g)],
                              monomial_tables(g, k, k - 1, ell)), (ell, k)
        if k == 2:
            count = 1
        elif ell is None or ell ** 4 >= 2 ** 62:
            count = len(g)
        else:
            count = len({tuple(row) for row in (g % ell).tolist()})
        assert len(tables) == count, (ell, k)


def test_one_table_build_per_operator_call(monkeypatch):
    """In the cap-3000 case of test_batched_operators_equal_one_key_per_call,
    an operators call builds its tables once, over the Heilbronn
    matrices of every prime asked for and the identity, which the diamonds
    read, with one table per class: per residue class mod ell, or the one
    table at weight 2.  Some of those calls run the kernel in several
    chunks."""
    builds, passes = [], []
    plain, apply = modsym._monomial_tables, modsym._Ambient._apply

    def build(groups, k, rows, ell=None):
        classes, tables = plain(groups, k, rows, ell)
        builds.append((sum(len(g) for g in groups), k, len(tables)))
        return classes, tables

    def counted(self, mats, tables, ell=None, counts=None):
        passes.append(len(counts))
        return apply(self, mats, tables, ell, counts)

    primes = list(primes_up_to(50))
    mats = np.concatenate([heilbronn_cremona(p) for p in primes]).astype(
        np.int64)
    chunked = 0
    for make, ell in _batching_cases():
        space = make()
        units = unit_group(space.level).generators
        monkeypatch.setattr(modsym, "_monomial_tables", build)
        monkeypatch.setattr(modsym._Ambient, "_apply", counted)
        monkeypatch.setattr(modsym, "_CHUNK", 3000)
        builds.clear()
        passes.clear()
        keys = primes + [-d for d in units]
        space.operators(keys, ell)
        space.root.operators(keys, ell)
        monkeypatch.undo()
        k = space.weight
        classes = {tuple(row) for row in (mats % ell).tolist()}
        classes |= {(1, 0, 0, 1)} if units else set()
        assert builds == [(len(mats) + len(units), k,
                           1 if k == 2 else len(classes))], (space, ell)
        chunked += len(passes) > 1
    assert chunked


def test_boundary_matches_cusp_equivalence_oracle():
    """The boundary map read off the T-orbits of the coset table equals,
    entry for entry and row for row, the one that lifts each coset to a
    matrix and tests its cusps for equivalence: 95 spaces of weight
    k in {2, 4, 6, 8, 12} with N^2 k <= 1800, and (78, 2)."""
    spaces = [(n, k) for k in (2, 4, 6, 8, 12)
              for n in range(1, 43) if n * n * k <= 1800]
    assert len(spaces) == 95
    for n, k in spaces + [(78, 2)]:
        ambient = build_space(n, k).ambient
        assert ambient.boundary_matrix() == \
            boundary_by_cusp_equivalence(ambient), (n, k)


def _restricted_spaces():
    for n, k in [(11, 2), (1, 12), (6, 12), (12, 8), (35, 2), (40, 2)]:
        yield plus_cuspidal(n, k)
    # H = {1, 9} has one generator; H = <6, 11> of order 6 has two, whose
    # diamonds are stacked into one kernel cut from the plus space
    for n, gens in [(40, [9]), (35, [6, 11])]:
        subgroup = SubgroupH.from_generators(n, gens)
        assert len(subgroup.generators()) == len(gens)
        yield plus_cuspidal(n, 2).h_invariant_subspace(subgroup)


def test_restriction_matches_level_by_level_oracle():
    """Every operator of a subspace equals the ambient operator restricted
    one parent at a time, entry for entry."""
    for space in _restricted_spaces():
        ambient = space.ambient
        for p in primes_up_to(13):
            assert space.hecke_matrix(p) == restrict_level_by_level(
                space, ambient.hecke_on_basis(p)), (space, p)
        if space.level > 2:
            for d in unit_group(space.level).generators:
                assert space.diamond_matrix(d) == restrict_level_by_level(
                    space, ambient.diamond_on_basis(d)), (space, d)
        assert space.star_matrix() == restrict_level_by_level(
            space, ambient.star_on_basis()), space
        b, d = space._bases
        assert (d @ b == np.eye(space.dim, dtype=np.int64)).all(), space


def test_restriction_skips_intermediate_spaces():
    plus = plus_cuspidal(11, 2)
    plus.hecke_matrix(2)
    assert 2 not in plus.parent._store.get(None, {})
    assert 2 in plus.root._store[None]


def test_restrict_raises_outside_subspace():
    full = build_space(11, 2)
    # the line through the first basis vector is saturated, and T_2 moves it
    line = ModularSymbolSpace(full.ambient, parent=full,
                              basis=np.eye(1, full.dim, dtype=np.int64))
    with pytest.raises(SaturationError):
        line.hecke_matrix(2)
    empty = ModularSymbolSpace(full.ambient, parent=full,
                               basis=np.zeros((0, full.dim), np.int64))
    assert empty.hecke_matrix(2) == []
    # the same inside a cuspidal space, a grandchild of the ambient; T_2 is
    # -2 on all of S_2(Gamma_1(11)), but not on S_2(Gamma_1(23))
    cusp = build_space(23, 2).cuspidal_subspace()
    line = ModularSymbolSpace(cusp.ambient, parent=cusp,
                              basis=np.eye(1, cusp.dim, dtype=np.int64))
    with pytest.raises(SaturationError):
        line.hecke_matrix(2)
    empty = ModularSymbolSpace(cusp.ambient, parent=cusp,
                               basis=np.zeros((0, cusp.dim), np.int64))
    assert empty.hecke_matrix(2) == []


def test_restriction_dtype_follows_each_product(monkeypatch):
    # T_5 on plus-cuspidal S_12(Gamma_1(6)): an a-priori bound over all three
    # products is 2^88, but B and D, converted once, and T B, X and B X all
    # lie below 2^53, so each product runs on float64
    plus = plus_cuspidal(6, 12)
    plus.root.hecke_matrix(5)
    plus.hecke_matrix(2)
    picked = []
    plain = intmat.product_dtype

    def spy(bound):
        picked.append(plain(bound))
        return picked[-1]

    monkeypatch.setattr(intmat, "product_dtype", spy)
    plus.hecke_matrix(5)
    assert picked == [np.float64] * 5


def test_batched_restriction_equals_one_operator_at_a_time():
    # every T_p, <d> and the star of a call restrict in one product pair;
    # each equals X = D (T B) taken alone, over Z and mod ell
    subgroup = SubgroupH.from_generators(35, [6, 11])
    gamma_h = build_space(35, 2, subgroup=subgroup).cuspidal_subspace()
    for space in (gamma_h.star_plus_subspace(), plus_cuspidal(6, 12)):
        keys = space._keys(primes_up_to(13),
                           unit_group(space.level).generators) + [0]
        for ell in (None, 13):
            b, d = (m if ell is None else m % ell for m in space._bases)
            ts = space.root.operators(keys, ell)
            batched = space._restrict(ts, ell)
            assert len(batched) == len(keys)
            for t, x in zip(ts, batched):
                one = intmat.product(d, intmat.product(t, b, ell), ell)
                assert x.tolist() == one.tolist(), (space, ell)
            assert space._restrict([], ell) == []


def test_batched_restriction_checks_every_operator():
    # the line through the first basis vector is kept by the scalars and
    # moved by T_2, which stands between them in the call
    full = build_space(11, 2)
    line = ModularSymbolSpace(full.ambient, parent=full,
                              basis=np.eye(1, full.dim, dtype=np.int64))
    eye = np.eye(full.dim, dtype=np.int64)
    for ell in (None, 7):
        t2 = full.operators([2], ell)[0]
        assert [x.tolist() for x in line._restrict([eye, 2 * eye], ell)] \
            == [[[1]], [[2]]]
        with pytest.raises(SaturationError):
            line._restrict([eye, t2, 2 * eye], ell)


def test_restriction_on_python_integers():
    cusp = build_space(23, 2).cuspidal_subspace()
    x = cusp.hecke_matrix(2)
    t = cusp.root.operators([2])[0]
    big = cusp._restrict([t.astype(object) * 2 ** 62])[0].tolist()
    assert big == [[2 ** 62 * v for v in row] for row in x]
    assert any(v >= 2 ** 63 for row in big for v in map(abs, row))


def test_zero_dimensional_space_computes_no_operator(monkeypatch):
    # S_2(Gamma_1(5)) = 0: no ambient T_7 is computed for it
    calls = []
    plain = modsym._Ambient.operator_arrays

    def spy(self, keys, ell=None):
        calls.append(keys)
        return plain(self, keys, ell)

    monkeypatch.setattr(modsym._Ambient, "operator_arrays", spy)
    space = plus_cuspidal(5, 2)
    assert space.dim == 0
    assert space.hecke_matrix(7) == []
    assert calls == []


@pytest.mark.parametrize("cached", [False, True])
def test_diamond_of_a_non_unit_is_refused(tmp_path, cached):
    # d = 12 is 0 modulo the level, the residue that would name the star
    cache = MatrixCache(str(tmp_path)) if cached else None
    root = build_space(12, 4, cache)
    plus = root.cuspidal_subspace().star_plus_subspace()
    assert plus.dim
    for space in (root, plus):
        for d in (12, 2, 3):
            with pytest.raises(ValueError):
                space.diamond_matrix(d)
    assert root.diamond_matrix(5) != root.star_matrix()


def test_odd_weight_rejected():
    with pytest.raises(ValueError):
        build_space(3, 5)


def test_dimensions_match_curve_invariants():
    # independent oracle: textbook dimension formula from coset counting
    for n, k in [(1, 12), (2, 12), (3, 12), (4, 12), (5, 12), (6, 12),
                 (11, 2), (13, 2), (15, 2), (20, 2), (33, 2)]:
        inv = curve_invariants(CosetTable(trivial_subgroup(n)))
        expected = dim_cusp_forms(inv.index, inv.nu2, inv.nu3, inv.cusps,
                                  inv.genus, k)
        space = plus_cuspidal(n, k)
        assert space.dim == expected, (n, k, space.dim, expected)
        cusp = build_space(n, k).cuspidal_subspace()
        assert cusp.dim == 2 * expected


def test_cuspidal_dim_examples():
    assert build_space(1, 12).cuspidal_subspace().dim == 2
    assert build_space(11, 2).cuspidal_subspace().dim == 2
    assert build_space(15, 2).cuspidal_subspace().dim == 2
    assert build_space(33, 2).cuspidal_subspace().dim == 42
    assert build_space(1, 2).cuspidal_subspace().dim == 0


def test_cuspidal_twice_rejected():
    cusp = build_space(11, 2).cuspidal_subspace()
    with pytest.raises(ValueError):
        cusp.cuspidal_subspace()


def test_hecke_eigenvalue_level1_weight12():
    plus = plus_cuspidal(1, 12)
    assert plus.dim == 1
    assert plus.hecke_matrix(2) == [[-24]]
    assert plus.hecke_matrix(3) == [[252]]
    cusp = build_space(1, 12).cuspidal_subspace()
    assert sum(cusp.hecke_matrix(2)[i][i] for i in range(2)) == -48
    # every p <= 50, on both sides of the int64/Python-integer switch
    tau = ramanujan_tau(50)
    for p in primes_up_to(50):
        assert plus.hecke_matrix(p) == [[tau[p]]], p


def test_hecke_eigenvalue_level11_weight2():
    plus = plus_cuspidal(11, 2)
    assert plus.dim == 1
    assert plus.hecke_matrix(2) == [[-2]]
    assert plus.hecke_matrix(3) == [[-1]]


def test_level4_weight12_has_a2_zero_system():
    # the level-4 form q - 516q^3 + ... has a_2 = 0 and a_3 = -516
    plus = plus_cuspidal(4, 12)
    t2 = plus.hecke_matrix(2)
    assert len(kernel_int(np.array(t2, dtype=object))), \
        "T_2 should be singular"
    t3 = [row[:] for row in plus.hecke_matrix(3)]
    for i in range(plus.dim):
        t3[i][i] += 516
    joint = t3 + t2  # a vector with T_3 = -516 and T_2 = 0 simultaneously
    assert len(kernel_int(np.array(joint, dtype=object)))


def test_diamond_identity_and_multiplicativity():
    cusp = build_space(13, 2).cuspidal_subspace()
    n = cusp.dim
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert cusp.diamond_matrix(1) == ident
    d2, d3 = cusp.diamond_matrix(2), cusp.diamond_matrix(3)
    assert mat_mul(d2, d3) == cusp.diamond_matrix(6)


def test_diamond_trivial_on_level11_cuspidal():
    cusp = build_space(11, 2).cuspidal_subspace()
    n = cusp.dim
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for d in (2, 3, 7, 10):
        assert cusp.diamond_matrix(d) == ident


def test_diamond_order_on_level13_cuspidal():
    cusp = build_space(13, 2).cuspidal_subspace()
    d2 = cusp.diamond_matrix(2)
    power = d2
    for _ in range(5):
        power = mat_mul(power, d2)
    n = cusp.dim
    assert power == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_star_involution_squares_to_identity():
    for n, k in [(11, 2), (13, 2), (3, 12)]:
        space = build_space(n, k)
        star = space.star_matrix()
        ident = [[1 if i == j else 0 for j in range(space.dim)]
                 for i in range(space.dim)]
        assert mat_mul(star, star) == ident


def test_star_commutes_with_hecke_and_diamond():
    for n, k in [(11, 2), (13, 2), (4, 12)]:
        space = build_space(n, k)
        star = space.star_matrix()
        for p in (2, 3, 5):
            t = space.hecke_matrix(p)
            assert mat_mul(star, t) == mat_mul(t, star)
        if n > 2:
            d = space.diamond_matrix(2 if n % 2 else 3)
            assert mat_mul(star, d) == mat_mul(d, star)


def test_hecke_commutation():
    for n, k in [(11, 2), (15, 2), (3, 12), (5, 12)]:
        space = build_space(n, k)
        mats = {p: space.hecke_matrix(p) for p in (2, 3, 5, 7)}
        for p in mats:
            for q in mats:
                assert mat_mul(mats[p], mats[q]) == mat_mul(mats[q], mats[p])


def test_hecke_diamond_commutation():
    space = build_space(13, 2)
    d = space.diamond_matrix(2)
    for p in (2, 3, 5, 13):
        t = space.hecke_matrix(p)
        assert mat_mul(d, t) == mat_mul(t, d)


def test_plus_subspace_dims():
    assert plus_cuspidal(11, 2).dim == 1
    assert plus_cuspidal(1, 12).dim == 1
    assert plus_cuspidal(1, 2).dim == 0


def test_h_invariant_whole_space_for_trivial_subgroup():
    cusp = build_space(13, 2).cuspidal_subspace()
    inv = cusp.h_invariant_subspace(trivial_subgroup(13))
    assert inv.dim == cusp.dim


def test_h_invariant_dim_33_full():
    cusp = build_space(33, 2).cuspidal_subspace()
    inv = cusp.h_invariant_subspace(full_subgroup(33))
    assert inv.star_plus_subspace().dim == 3


def test_h_invariant_dim_39_size4():
    h = h_from_eigenform(trivial_character(3), 12, 0, 13)
    assert h.level == 39 and len(h) == 4
    cusp = build_space(39, 2).cuspidal_subspace()
    inv = cusp.h_invariant_subspace(h)
    assert inv.star_plus_subspace().dim == 17


# sympy characteristic polynomials of T_2, T_3 and the diamonds of the
# generators of (Z/N)*, as the first 16 hex digits of the SHA-256 of their
# coefficient lists
H_SPACE_PINS = {
    35: {"dim": 5, "T2": "07df1994e965475d", "T3": "f4e7dd93651c68e0",
         "d22": "7d47fd7948d5af52", "d31": "e7dc7d11a962fc20"},
    39: {"dim": 34, "T2": "183772fadb45b59f", "T3": "d653c42608df9efa",
         "d14": "f6866f1e95202a20", "d28": "bfd476aff77183be"},
    13: {"dim": 4, "T2": "03a702ba51b05527", "T3": "42760917ad6cfcd1",
         "d2": "f327b11750a3b928"},
}


def _sympy_charpoly_digest(mat):
    coeffs = [int(c) for c in sympy.Matrix(mat).charpoly().all_coeffs()]
    return hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()[:16]


@pytest.mark.parametrize("level", sorted(H_SPACE_PINS))
def test_h_invariant_space_is_one_kernel(level):
    """The H-invariant space hangs directly off the space it is cut from,
    whatever the number of generators of H: two at 35 and 39, none for the
    trivial H at 13."""
    if level == 35:
        base = plus_cuspidal(35, 2)
        h = SubgroupH.from_generators(35, [6, 11])
    elif level == 39:
        base = build_space(39, 2).cuspidal_subspace()
        h = h_from_eigenform(trivial_character(3), 12, 0, 13)
    else:
        base = build_space(13, 2).cuspidal_subspace()
        h = trivial_subgroup(13)
    space = base.h_invariant_subspace(h)
    assert space.parent is base
    b, d = space._bases
    assert (d @ b == np.eye(space.dim, dtype=np.int64)).all()
    for g in h.generators():
        assert space.diamond_matrix(g) == [
            [int(i == j) for j in range(space.dim)] for i in range(space.dim)]
    got = {"dim": space.dim}
    for p in (2, 3):
        got["T%d" % p] = _sympy_charpoly_digest(space.hecke_matrix(p))
    for g in unit_group(level).generators:
        got["d%d" % g] = _sympy_charpoly_digest(space.diamond_matrix(g))
    assert got == H_SPACE_PINS[level]


def test_rebuild_is_deterministic():
    space, space2 = build_space(13, 2), build_space(13, 2)
    assert space2 is not space
    assert space2.hecke_matrix(2) == space.hecke_matrix(2)
    assert space2.star_matrix() == space.star_matrix()


def test_bad_prime_hecke_well_defined():
    space = build_space(11, 2)
    u11 = space.hecke_matrix(11)
    t2 = space.hecke_matrix(2)
    assert mat_mul(u11, t2) == mat_mul(t2, u11)


def test_presentation_coefficients_fit_int64():
    # the saturated annihilator keeps the projection small; a Smith-form
    # row transform gave 33,129-bit entries here
    ambient = build_space(6, 12).ambient
    assert max(abs(x) for row in ambient.proj_rows for x in row) < 2 ** 60


def test_orbit_relations_give_the_full_presentation():
    # one relation block per S- and ST-orbit spans the same lattice over Z
    # as a block at every coset, and the elimination finds the same basis
    spaces = ([(n, 2, None) for n in range(1, 41)]
              + [(n, k, None) for k in (4, 6, 8, 10, 12) for n in range(1, 9)]
              + [(n, 2, h) for n in (28, 35, 40)
                 for h in intermediate_subgroups(n)])
    for n, k, h in spaces:
        ambient = modsym._Ambient(n, k, h)
        full = full_relation_quotient(ambient)
        assert ((ambient.dim, ambient.quotient.torsion,
                 ambient.proj_rows.tolist(), ambient.lifts.tolist())
                == (full.dim, full.torsion, full.proj_rows.tolist(),
                    full.lifts.tolist())), (
                    n, k, h)


def test_torsion_is_computed_only_when_read(monkeypatch):
    from modgalrep.cli import run_command
    from modgalrep.pipeline import realize, select_input_form
    reads = []
    torsion = intmat.QuotientMap.torsion

    def spy(self):
        reads.append(self)
        return torsion.func(self)

    monkeypatch.setattr(intmat.QuotientMap, "torsion", property(spy))
    form = select_input_form(3, 12, 5, {"ap": {2: 78, 3: -243}}, bound=50)
    assert realize(form, 5, truncate=50).i == 1
    assert reads == []
    code, doc = run_command(["--no-cache", "msdim", "--level", "6",
                             "--weight", "12"])
    assert code == 0, doc
    assert doc["torsion"] == [2, 2, 2, 3, 3, 3, 3, 4, 4, 4]
    assert len(reads) == 1
