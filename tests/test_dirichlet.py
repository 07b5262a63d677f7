from math import gcd

import pytest

from modgalrep.dirichlet import (
    character_literal,
    conductor,
    DirichletCharacter,
    induce,
    kernel,
    parse_character,
    place_above,
    reduce_at_ell,
    reduce_mod,
    trivial_character,
)
from modgalrep.exactalg import euler_phi, unit_group

from helpers import all_characters, make_character, teichmuller_lift


def test_make_character_trivial():
    chi = trivial_character(12)
    assert chi.is_trivial()
    assert all(chi.exponent_at(x) == 0 for x in unit_group(12).elements())


def test_make_character_quadratic_mod4():
    chi = make_character(4, [1], 2)
    assert chi.exponent_at(3) == 1
    assert chi.order == 2


def test_make_character_order6_mod13():
    # generator 2 has order 12; sending it to zeta_6 is consistent
    chi = make_character(13, [1], 6)
    assert chi.order == 6
    # multiplicativity at a few points
    for x in (2, 3, 5, 7):
        for y in (2, 3, 11):
            lhs = chi.exponent_at(x * y % 13)
            rhs = (chi.exponent_at(x) + chi.exponent_at(y)) % 6
            assert lhs == rhs


def test_make_character_rejects_incompatible_order():
    with pytest.raises(ValueError):
        # generator of (Z/8)* has order 2; an order-4 value is impossible
        make_character(8, [1, 0], 4)


def test_character_rejects_zero_root_of_unity_order():
    # an order below 1 was a ZeroDivisionError, an internal fault
    with pytest.raises(ValueError, match="order must be positive"):
        parse_character("5:2^1@0")
    with pytest.raises(ValueError, match="order must be positive"):
        DirichletCharacter(5, -4, (1,))


def test_induce_trivial():
    chi = induce(trivial_character(1), 20)
    assert chi.is_trivial() and chi.modulus == 20


def test_induce_quadratic_mod3_to_39():
    chi = induce(make_character(3, [1], 2), 39)
    assert chi.exponent_at(5) == 1  # 5 = 2 mod 3 -> -1
    assert conductor(chi) == 3


def test_induce_identity_case():
    chi = make_character(13, [1], 6)
    assert induce(chi, 13) == chi


def test_conductor_examples():
    assert conductor(trivial_character(42)) == 1
    assert conductor(make_character(13, [1], 12)) == 13


def test_conductor_of_induced_equals_original():
    for d, n in [(3, 39), (4, 20), (5, 60), (8, 104), (12, 120)]:
        for chi in all_characters(d):
            assert conductor(induce(chi, n)) == conductor(chi)


def test_kernel_examples():
    assert kernel(trivial_character(11)) == list(unit_group(11).elements())
    assert kernel(make_character(11, [1], 2)) == [1, 3, 4, 5, 9]
    assert kernel(make_character(13, [1], 12)) == [1]


def test_kernel_is_subgroup():
    for n in (8, 15, 24):
        for chi in all_characters(n):
            ker = set(kernel(chi))
            assert 1 in ker
            for x in ker:
                for y in ker:
                    assert x * y % n in ker


def test_reduce_order10_at_5_collapses_to_quadratic():
    chi = make_character(11, [1], 10)
    place = place_above(5, 10)
    red = reduce_mod(chi, place)
    assert [v.multiplicative_order() for v in red.values] == [2]
    lift = teichmuller_lift(red, place)
    assert lift == make_character(11, [1], 2)


def test_reduce_quadratic_mod4_at_7():
    chi = make_character(4, [1], 2)
    place = place_above(7, 2)
    red = reduce_mod(chi, place)
    vals = {red.value(x).coeffs[0] for x in (1, 3)}
    assert vals == {1, 6}
    # gcd(7, phi(4)) = 1, so the lift recovers the character itself
    assert teichmuller_lift(red, place) == chi


def test_product_compatibility_under_reduction():
    n = 13
    chars = all_characters(n)
    place = place_above(5, 12)
    for c1 in chars[:6]:
        for c2 in chars[:6]:
            lhs = reduce_mod(c1 * c2, place).values
            rhs = zip(reduce_mod(c1, place).values,
                      reduce_mod(c2, place).values)
            assert lhs == tuple(a * b for a, b in rhs)


def test_teichmuller_contract_sample():
    # reduce(lift) is the identity and kernels agree, across moduli and ell
    for n in (4, 5, 7, 9, 11, 12):
        for ell in (5, 7, 11, 13):
            if n % ell == 0:
                continue
            m = unit_group(n).exponent
            place = place_above(ell, m)
            for chi in all_characters(n):
                red = reduce_mod(chi, place)
                lift = teichmuller_lift(red, place)
                assert reduce_mod(lift, place) == red
                assert kernel(lift) == [
                    x for x in unit_group(n).elements()
                    if red.value(x) == red.field.one()]
                if gcd(ell, euler_phi(n)) == 1:
                    assert lift == chi


def test_teichmuller_idempotence():
    place = place_above(7, 10)
    chi = make_character(11, [1], 10)
    red = reduce_mod(chi, place)
    lift = teichmuller_lift(red, place)
    assert teichmuller_lift(reduce_mod(lift, place), place) == lift


def test_place_compatible_root_images():
    place = place_above(7, 12)
    z12 = place.root_image(12)
    assert z12.multiplicative_order() == 12
    for d in (1, 2, 3, 4, 6, 12):
        assert place.root_image(d) == z12 ** (12 // d)
    # ell-part collapse: zeta_{7*3} maps to the image of zeta_3
    assert place.root_image(21) == place.root_image(3)


def test_reduction_is_multiplicative_across_orders():
    # red(chi)^j = red(chi^j) when ell divides the order of chi needs
    # zeta_m, m = m1 ell^k, to go to the image of zeta_m1 to the power
    # ell^(-k) mod m1, not to the image of zeta_m1
    for n, ell in ((31, 5), (31, 3), (11, 5), (29, 7), (27, 3), (25, 5)):
        place = place_above(ell, unit_group(n).exponent)
        for chi in all_characters(n):
            if chi.order % ell:
                continue
            red = reduce_mod(chi, place)
            for j in range(1, chi.order + 1):
                power = DirichletCharacter(
                    n, chi.zeta_order, [j * e for e in chi.exponents])
                assert ([v ** j for v in red.values]
                        == list(reduce_mod(power.normalized(), place).values)
                        ), (n, ell, chi.exponents, j)
    red = reduce_at_ell(make_character(31, [2], 30), 5)
    assert ([v ** 5 for v in red.values]
            == list(reduce_at_ell(make_character(31, [10], 30), 5).values))
    place = place_above(7, 12)
    assert place.root_image(28) ** 7 == place.root_image(4)


def test_parse_character_roundtrip():
    for text in ("triv:8", "13:2^1@6", "4:3^1@2"):
        chi = parse_character(text)
        assert parse_character(character_literal(chi)) == chi


def test_parse_character_rejects_unknown_generator():
    with pytest.raises(ValueError):
        parse_character("13:5^1@6")


def test_character_equality_normalizes_zeta_order():
    a = make_character(13, [2], 12)   # value zeta_12^2 = zeta_6
    b = make_character(13, [1], 6)
    assert a == b
    assert hash(a) == hash(b)
