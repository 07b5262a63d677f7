"""The weight-2 (and higher even-weight) space on Gamma_H(n), built from the
Manin symbols with (c:d) ~ (hc:hd), against the H-invariant subspace of
the Gamma_1(n) space, which the pipeline no longer uses."""

import pytest

from modgalrep import cli, modsym
from modgalrep.congruence import (
    h_from_eigenform,
    intermediate_subgroups,
    plus_minus,
    SubgroupH,
)
from modgalrep.dirichlet import parse_character, trivial_character
from modgalrep.eigen import decompose, reduce_space_mod
from modgalrep.exactalg import primes_up_to
from modgalrep.modsym import build_space, MatrixCache
from modgalrep.pipeline import (
    decompose_level,
    plus_cuspidal_space,
    realize,
    select_input_form,
    TABLE_ROWS,
    table_row_selector,
)

from helpers import genus_of_subgroup


def _sorted_systems(systems):
    return sorted((s.field.r, s.multiplicity, s.value_tuple(),
                   tuple(s.bad_primes)) for s in systems)


def _assert_routes_agree(n, k, h, ell, bound, cache):
    """decompose_level on the Gamma_H ambient gives the systems of the
    H-invariant subspace of the Gamma_1 plus-cuspidal space: field degrees,
    multiplicities, T_p and diamond values, and bad primes."""
    primes = list(primes_up_to(bound))
    oracle = plus_cuspidal_space(n, k, cache).h_invariant_subspace(h)
    expected = decompose(reduce_space_mod(oracle, ell, primes), primes)
    got = decompose_level(n, k, ell, bound, cache, h)
    assert plus_cuspidal_space(n, k, cache, h).dim == oracle.dim, (n, k, h)
    assert _sorted_systems(got) == _sorted_systems(expected), (n, k, h, ell)


def _grid_subgroups():
    """Every grid row's (N', H, ell), for every twist exponent i."""
    out = {}
    for row in TABLE_ROWS:
        n, ell = row["N"], row["ell"]
        eps = (parse_character(row["eps"]) if "eps" in row
               else trivial_character(n))
        for i in range(ell):
            h = h_from_eigenform(eps, 12, i, ell)
            out[(h.level, plus_minus(h.level, h).elements, ell)] = h
    return [(h, ell) for (_, _, ell), h in sorted(out.items())]


def test_gamma_h_matches_h_invariant_route_on_the_grid():
    caches = {}
    for h, ell in _grid_subgroups():
        cache = caches.setdefault(h.level, MatrixCache())
        _assert_routes_agree(h.level, 2, h, ell, 50, cache)


def test_gamma_h_matches_h_invariant_route_for_every_small_subgroup():
    for n in range(1, 25):
        cache = MatrixCache()
        for h in intermediate_subgroups(n):
            _assert_routes_agree(n, 2, h, 5 if n % 5 else 7, 20, cache)


@pytest.mark.parametrize("n, gens, ell", [(13, [3], 7), (20, [9], 5)])
def test_gamma_h_matches_h_invariant_route_at_weight_4(n, gens, ell):
    h = SubgroupH.from_generators(n, gens)
    assert plus_cuspidal_space(n, 4, subgroup=h).dim
    _assert_routes_agree(n, 4, h, ell, 20, MatrixCache())


def test_plus_cuspidal_dim_on_gamma_h_is_the_genus():
    """dim of the weight-2 plus-cuspidal space on Gamma_H(n) is the genus
    of X_H(n) for every H with n <= 40, and so is that of the H-invariant
    subspace of the Gamma_1 space for n in (13, 20, 21)."""
    for n in range(1, 41):
        cache = MatrixCache()
        for h in intermediate_subgroups(n):
            genus = genus_of_subgroup(h)
            assert plus_cuspidal_space(n, 2, cache, h).dim == genus, (n, h)
            if n in (13, 20, 21):
                cusp = build_space(n, 2, cache).cuspidal_subspace()
                assert cusp.h_invariant_subspace(h).star_plus_subspace() \
                    .dim == genus, (n, h)


def test_ambient_rejects_a_subgroup_of_another_level():
    with pytest.raises(ValueError, match="subgroup level 5 != space level 15"):
        modsym._Ambient(15, 2, SubgroupH(5, [1, 4]))
    with pytest.raises(ValueError, match="subgroup level"):
        build_space(15, 2, subgroup=SubgroupH(5, [1, 4]))


def test_one_ambient_per_plus_minus_h():
    # None, {1} and {+-1} are one Gamma_1 presentation; another +-H is not
    cache = MatrixCache()
    gamma1 = build_space(13, 2, cache)
    for h in (SubgroupH(13, [1]), SubgroupH(13, [1, 12])):
        assert build_space(13, 2, cache, h) is gamma1
        assert plus_cuspidal_space(13, 2, cache, h) is \
            plus_cuspidal_space(13, 2, cache)
    other = build_space(13, 2, cache, SubgroupH(13, [1, 5, 8, 12]))
    assert other is not gamma1 and other.dim < gamma1.dim


def _no_h_invariant(monkeypatch):
    def refuse(self, subgroup):
        raise AssertionError("h_invariant_subspace on a pipeline path")

    monkeypatch.setattr(modsym.ModularSymbolSpace, "h_invariant_subspace",
                        refuse)


def test_realize_on_a_grid_row_never_cuts_h_invariants(monkeypatch):
    _no_h_invariant(monkeypatch)
    row = next(r for r in TABLE_ROWS if (r["N"], r["ell"]) == (6, 7))
    cache = MatrixCache()
    form = select_input_form(6, 12, 7, table_row_selector(row), bound=50,
                             cache=cache)
    rep = realize(form, 7, truncate=50, cache=cache)
    assert rep.i == 4 and not rep.is_gamma0 and rep.dh < rep.d1


def test_eigensys_with_a_subgroup_never_cuts_h_invariants(monkeypatch):
    _no_h_invariant(monkeypatch)
    code, doc = cli.run_command(
        ["--no-cache", "eigensys", "--level", "35", "--weight", "2",
         "--ell", "5", "--primes-up-to", "30", "--subgroup", "6,11"])
    assert code == 0, doc
    assert doc["dim"] == genus_of_subgroup(
        SubgroupH.from_generators(35, [6, 11]))


def test_realize_on_a_trivial_plus_minus_h_reuses_the_gamma1_space(
        monkeypatch):
    # H = ker(eps) = {+-1} at 13: realize decomposes the space selection
    # built, and builds no second ambient at level 13
    built = []
    ambient = modsym._Ambient

    def counted(level, weight, subgroup=None, cache=None):
        built.append((level, weight))
        return ambient(level, weight, subgroup, cache)

    monkeypatch.setattr(modsym, "_Ambient", counted)
    cache = MatrixCache()
    eps = parse_character("13:2^1@6")
    form = select_input_form(13, 2, 5, {"index": 0}, eps=eps, bound=50,
                             cache=cache)
    gamma1 = build_space(13, 2, cache)
    rep = realize(form, 5, truncate=50, cache=cache)
    assert rep.subgroup.elements == (1, 12) and rep.system_level == 13
    assert built.count((13, 2)) == 1
    assert plus_cuspidal_space(13, 2, cache, rep.subgroup).root is gamma1
