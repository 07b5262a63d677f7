from math import gcd

import pytest

from modgalrep.congruence import (
    CosetTable,
    curve_invariants,
    full_subgroup,
    gamma0_criterion,
    h_from_eigenform,
    intermediate_subgroups,
    predicted_kernel_order,
    SubgroupH,
    trivial_subgroup,
)
from modgalrep.dirichlet import (
    parse_character,
    trivial_character,
)
from modgalrep.exactalg import euler_phi, unit_group

from helpers import (
    genus_of_subgroup,
    make_character,
    naive_genus,
    psl2_index_gamma1,
)


def test_subgroup_validation():
    with pytest.raises(ValueError):
        SubgroupH(10, [1, 2])  # 2 is not a unit mod 10
    with pytest.raises(ValueError):
        SubgroupH(11, [1, 2])  # not closed: 4 missing


def test_subgroup_projection():
    h = SubgroupH.from_generators(39, [14])  # 14 = 1 mod 13, 2 mod 3
    proj = h.project(13)
    assert proj.elements == (1,)


def test_h_from_eigenform_level1_ell11():
    h = h_from_eigenform(trivial_character(1), 12, 0, 11)
    assert h.level == 11
    assert len(h) == 10  # Fermat: x^10 = 1 for every unit


def test_h_from_eigenform_level3_ell13():
    h = h_from_eigenform(trivial_character(3), 12, 0, 13)
    assert h.level == 39 and len(h) == 4
    # oracle: direct enumeration of x with x^10 = 1 mod 13
    direct = sorted(x for x in unit_group(39).elements()
                    if pow(x, 10, 13) == 1)
    assert list(h.elements) == direct


def test_h_from_eigenform_level6_ell7_i4():
    h = h_from_eigenform(trivial_character(6), 12, 4, 7)
    assert h.level == 42 and len(h) == 4
    direct = sorted(x for x in unit_group(42).elements()
                    if pow(x, 2, 7) == 1)
    assert list(h.elements) == direct


def test_h_from_eigenform_weight2_is_character_kernel():
    eps = make_character(13, [1], 6)
    h = h_from_eigenform(eps, 2, 0, 5)
    assert h.level == 13
    # order-6 character reduced at 5 keeps order 6 (gcd(5, 12) = 1)
    assert len(h) == 2


def test_h_from_eigenform_is_one_for_equal_characters():
    # one character written against zeta_6 and zeta_12: the second was
    # reduced at a place for zeta_12, and most of the kernels differed
    a, b = parse_character("9:2^1@6"), parse_character("9:2^2@12")
    assert a == b
    for i in range(7):
        assert h_from_eigenform(a, 12, i, 7) == h_from_eigenform(b, 12, i, 7)


def test_h_from_eigenform_rejects_bad_ell():
    with pytest.raises(ValueError):
        h_from_eigenform(trivial_character(5), 12, 0, 5)


def test_coset_counts():
    assert len(CosetTable(trivial_subgroup(1))) == 1
    assert len(CosetTable(full_subgroup(11))) == 12
    assert len(CosetTable(trivial_subgroup(5))) == 12


def test_coset_count_equals_psl2_index():
    for n in (1, 2, 3, 4, 5, 6, 11, 15):
        assert len(CosetTable(trivial_subgroup(n))) == psl2_index_gamma1(n)


def test_coset_scaling_classes_partition():
    h = SubgroupH.from_generators(35, [6])
    table = CosetTable(h)
    pairs = [(c, d) for c in range(35) for d in range(35)
             if gcd(gcd(c, d), 35) == 1]
    assert len(table.index_of) == len(pairs)
    counts = {}
    for p in pairs:
        counts[table.index_of[p]] = counts.get(table.index_of[p], 0) + 1
    scal = len({u % 35 for u in h.elements} | {(-u) % 35 for u in h.elements})
    assert all(c == scal for c in counts.values())


def test_s_perm_is_involution():
    for n in (7, 12, 33):
        t = CosetTable(trivial_subgroup(n))
        assert all(t.s_perm[t.s_perm[i]] == i for i in range(len(t)))
        r = [t.t_perm[t.s_perm[i]] for i in range(len(t))]
        assert all(r[r[r[i]]] == i for i in range(len(t)))


def test_genus_examples():
    assert curve_invariants(CosetTable(full_subgroup(11))).genus == 1
    assert curve_invariants(CosetTable(trivial_subgroup(33))).genus == 21
    inv = curve_invariants(CosetTable(trivial_subgroup(1)))
    assert inv.index == 1 and inv.genus == 0


def test_genus_against_naive_enumeration():
    for n in (8, 13, 21, 26):
        for h in intermediate_subgroups(n):
            inv = curve_invariants(CosetTable(h))
            g, mu, nu2, nu3, cusps = naive_genus(n, h.elements)
            assert (inv.genus, inv.index, inv.nu2, inv.nu3, inv.cusps) == \
                (g, mu, nu2, nu3, cusps)


def test_genus_formula_integral_up_to_120():
    for n in range(1, 121):
        inv = curve_invariants(CosetTable(full_subgroup(n)))
        assert 12 * (inv.genus - 1) + 3 * inv.nu2 + 4 * inv.nu3 \
            + 6 * inv.cusps == inv.index
        inv1 = curve_invariants(CosetTable(trivial_subgroup(n)))
        assert inv1.genus >= inv.genus


def test_genus_monotone_in_subgroup():
    for n in (13, 20, 33):
        subs = intermediate_subgroups(n)
        for h1 in subs:
            for h2 in subs:
                if h1.is_subgroup_of(h2):
                    assert genus_of_subgroup(h2) <= genus_of_subgroup(h1)


def test_predicted_kernel_order_examples():
    assert predicted_kernel_order(39, 13, 10) == 4
    assert predicted_kernel_order(42, 7, 2) == 4
    assert predicted_kernel_order(55, 11, 0) == euler_phi(55)


def test_index_formula_against_enumeration():
    # trivial nebentypus: #H = phi(N ell) gcd(ell-1, k-2-2i) / (ell-1)
    for n in range(1, 7):
        for ell in (5, 7, 11, 13):
            if n % ell == 0:
                continue
            for i in range(ell):
                h = h_from_eigenform(trivial_character(n), 12, i, ell)
                assert len(h) == predicted_kernel_order(n * ell, ell, 10 - 2 * i)


def test_gamma0_criterion():
    assert gamma0_criterion(11, 12, 0)
    assert not gamma0_criterion(13, 12, 0)
    for k in (4, 6, 8, 12, 14):
        assert gamma0_criterion(k - 1, k, 0)


def test_gamma0_criterion_matches_full_kernel():
    for n in (1, 2, 3):
        for ell in (5, 7, 11, 13):
            for k in range(3, 15):
                for i in range(ell):
                    h = h_from_eigenform(trivial_character(n), k, i, ell)
                    assert h.is_full() == gamma0_criterion(ell, k, i)


def test_intermediate_subgroups_counts():
    assert [len(h) for h in intermediate_subgroups(11)] == [1, 2, 5, 10]
    assert len(intermediate_subgroups(1)) == 1
    assert len(intermediate_subgroups(8)) == 5


def test_intermediate_subgroups_refuses_large_levels():
    with pytest.raises(ValueError):
        intermediate_subgroups(500)
