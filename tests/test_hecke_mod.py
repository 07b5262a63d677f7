"""Operators over F_ell against the reduction of the integer ones.

`reduce_space_mod` computes every ambient T_p and <d> mod ell in the
operator kernel and restricts it mod ell.  Each of those matrices must equal
the reduction mod ell of the integer operator that `hecke_matrix` and
`diamond_matrix` compute, on the ambient and on the plus-cuspidal space:
at every grid row's weight-12 level (primes up to 100, so the integer path
runs on Python integers), on the weight-2 Gamma_H spaces realize uses, at
weights 4 and 6, on zero-dimensional plus spaces, and for ell = 2^61 - 1.
"""

import os

import numpy as np
import pytest

from modgalrep import modsym
from modgalrep.congruence import h_from_eigenform, SubgroupH
from modgalrep.dirichlet import parse_character, trivial_character
from modgalrep.eigen import reduce_space_mod
from modgalrep.exactalg.arith import primes_up_to, unit_group
from modgalrep.modsym import build_space, MatrixCache
from modgalrep.pipeline import (
    decompose_level,
    plus_cuspidal_space,
    TABLE_ROWS,
)


def _refuse(self, *args):
    raise AssertionError("an operator was computed")


def _reduced(mat, ell):
    return [[x % ell for x in row] for row in mat]


def _assert_mod_equals_integer(space, ell, primes):
    """The mod-ell operators of the space and of its root equal the
    reductions of their integer operators."""
    units = unit_group(space.level).generators
    keys = list(primes) + [-d for d in units]
    rspace = reduce_space_mod(space, ell, primes)
    ambient = dict(zip(keys, space.root.operators(keys, ell)))
    for p in primes:
        assert rspace.ops[p].tolist() == _reduced(
            space.hecke_matrix(p), ell), (space, ell, p)
        assert ambient[p].tolist() == _reduced(
            space.root.hecke_matrix(p), ell), (space, ell, p)
    for d in units:
        assert rspace.ops[-d].tolist() == _reduced(
            space.diamond_matrix(d), ell), (space, ell, d)
        assert ambient[-d].tolist() == _reduced(
            space.root.diamond_matrix(d), ell), (space, ell, d)
    return rspace


def test_mod_ell_operators_on_the_weight12_grid_levels():
    by_level = {}
    for row in TABLE_ROWS:
        by_level.setdefault(row["N"], set()).add(row["ell"])
    primes = list(primes_up_to(100))
    for n, ells in sorted(by_level.items()):
        space = plus_cuspidal_space(n, 12)
        for ell in sorted(ells):
            rspace = _assert_mod_equals_integer(space, ell, primes)
            # Python integers over Z from p = 53, int64 residues mod ell
            assert all(m.dtype == np.int64 for m in rspace.ops.values())


def test_mod_ell_operators_on_the_weight2_gamma_h_spaces():
    primes = list(primes_up_to(50))
    for row in TABLE_ROWS:
        n, ell = row["N"], row["ell"]
        eps = (parse_character(row["eps"]) if "eps" in row
               else trivial_character(n))
        for i in sorted({0, row["reference_i"]}):
            h = h_from_eigenform(eps, 12, i, ell)
            space = plus_cuspidal_space(h.level, 2, subgroup=h)
            _assert_mod_equals_integer(space, ell, primes)


@pytest.mark.parametrize("n, k, gens, ell", [
    (13, 4, None, 7), (20, 4, [9], 5), (10, 6, None, 7), (7, 6, None, 5)])
def test_mod_ell_operators_at_weights_4_and_6(n, k, gens, ell):
    h = SubgroupH.from_generators(n, gens) if gens else None
    space = plus_cuspidal_space(n, k, subgroup=h)
    assert space.dim
    _assert_mod_equals_integer(space, ell, list(primes_up_to(30)))


@pytest.mark.parametrize("n, k", [(1, 10), (5, 2)])
def test_zero_dimensional_plus_space_computes_nothing(monkeypatch, n, k):
    space = plus_cuspidal_space(n, k)
    assert space.dim == 0 and space.root.dim
    monkeypatch.setattr(modsym._Ambient, "_apply", _refuse)
    rspace = reduce_space_mod(space, 7, [2, 3])
    assert rspace.dim == 0
    assert all(m.shape == (0, 0) for m in rspace.ops.values())


def test_mod_ell_operators_beyond_int64():
    ell = 2 ** 61 - 1
    for n, k in [(11, 2), (3, 12)]:
        space = plus_cuspidal_space(n, k)
        rspace = _assert_mod_equals_integer(space, ell, [2, 3, 5, 7, 13])
        assert all(m.dtype == object for m in rspace.ops.values())


def test_reduction_never_computes_an_integer_operator(monkeypatch):
    space = plus_cuspidal_space(6, 12)

    plain = modsym._Ambient.operator_arrays
    rings = []

    def refuse_z(self, keys, ell=None):
        rings.append(ell)
        if ell is None:
            raise AssertionError("an integer operator on the mod-ell path")
        return plain(self, keys, ell)

    monkeypatch.setattr(modsym._Ambient, "operator_arrays", refuse_z)
    assert reduce_space_mod(space, 7, [2, 3, 5, 53]).ops[-5].shape \
        == (space.dim, space.dim)
    assert rings == [7]


@pytest.mark.parametrize("p", [0, -3])
def test_reduction_refuses_a_key_that_is_no_prime(p):
    # below 2, a key names the star involution or a diamond, not a T_p
    with pytest.raises(ValueError, match="needs a prime"):
        reduce_space_mod(plus_cuspidal_space(7, 2), 5, [2, p])


def test_heilbronn_matrices_once_per_run(monkeypatch):
    calls = []
    plain = modsym.heilbronn_cremona

    def counted(p):
        calls.append(p)
        return plain(p)

    monkeypatch.setattr(modsym, "heilbronn_cremona", counted)
    cache = MatrixCache()
    for n, k in [(11, 2), (13, 2), (3, 12)]:
        decompose_level(n, k, 5 if n % 5 else 7, 30, cache)
    build_space(11, 2, cache).hecke_matrix(7)
    assert sorted(calls) == list(primes_up_to(30))


def _entries(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


def test_one_stacked_entry_per_ambient_and_ell(tmp_path, monkeypatch):
    root = str(tmp_path)
    cache = MatrixCache(root)
    cold = {ell: decompose_level(3, 12, ell, 30, cache) for ell in (5, 7)}
    decompose_level(3, 12, 5, 50, cache)
    gamma_h = SubgroupH.from_generators(15, [2])
    decompose_level(15, 2, 5, 30, cache, gamma_h)
    prefix = build_space(15, 2, cache, gamma_h).ambient.cache_prefix
    # the integer operators, the star alone here, in one entry Z as well
    assert _entries(root) == [
        os.path.join("msym_v1", "L15_W2", prefix + "Z.mat"),
        os.path.join("msym_v1", "L15_W2", prefix + "mod5.mat"),
        os.path.join("msym_v1", "L3_W12", "Z.mat"),
        os.path.join("msym_v1", "L3_W12", "mod5.mat"),
        os.path.join("msym_v1", "L3_W12", "mod7.mat")]
    # T_p for the 15 primes up to 50 and <2>, one row each, in MSYMMAT 3
    space = build_space(3, 12, cache)
    stacked = cache.load(3, 12, "mod5", space.ambient.fingerprint)
    assert stacked.shape == (16, 1 + space.dim ** 2)
    assert sorted(stacked[:, 0].tolist()) == [-2] + list(primes_up_to(50))
    with open(cache._path(3, 12, "mod5"), "rb") as fh:
        assert fh.readline().startswith(b"MSYMMAT 3 16 65 1 ")
    # a warm run reads every operator and computes none
    monkeypatch.setattr(modsym._Ambient, "_apply", _refuse)
    warm = MatrixCache(root)
    for ell in (5, 7):
        systems = decompose_level(3, 12, ell, 30, warm)
        assert [s.value_tuple() for s in systems] \
            == [s.value_tuple() for s in cold[ell]]


def test_stacked_integer_entry_past_int64(tmp_path, monkeypatch):
    """T_53 on M_12(SL_2(Z)) has the Eisenstein eigenvalue 1 + 53^11 > 2^63,
    so the stacked Z entry holds Python integers; a warm cache serves T_53
    and the star from it and computes nothing."""
    root = str(tmp_path)
    space = build_space(1, 12, MatrixCache(root))
    t53, star = space.hecke_matrix(53), space.star_matrix()
    assert 1 + 53 ** 11 in [x for row in t53 for x in row]
    assert 1 + 53 ** 11 > 2 ** 63
    stacked = MatrixCache(root).load(1, 12, "Z", space.ambient.fingerprint)
    assert stacked.dtype == object
    assert sorted(stacked[:, 0].tolist()) == [0, 53]
    monkeypatch.setattr(modsym._Ambient, "_apply", _refuse)
    warm = build_space(1, 12, MatrixCache(root))
    assert warm.hecke_matrix(53) == t53
    assert warm.star_matrix() == star


def test_stacked_entry_grows_by_the_missing_operators(tmp_path, monkeypatch):
    root = str(tmp_path)
    space = plus_cuspidal_space(11, 2, MatrixCache(root))
    reduce_space_mod(space, 5, [2, 3])
    computed = []
    apply = modsym._Ambient._apply

    def counted(self, mats, tables, ell=None, counts=None):
        computed.append((len(mats), counts))
        return apply(self, mats, tables, ell, counts)

    monkeypatch.setattr(modsym._Ambient, "_apply", counted)
    fresh = plus_cuspidal_space(11, 2, MatrixCache(root))
    ops = reduce_space_mod(fresh, 5, [2, 3, 5]).ops
    # one kernel pass, with one group: the Heilbronn matrices of T_5
    five = len(modsym.heilbronn_cremona(5))
    assert computed == [(five, [five])]
    assert ops[5].tolist() == _reduced(fresh.hecke_matrix(5), 5)
    stacked = MatrixCache(root).load(11, 2, "mod5", fresh.ambient.fingerprint)
    assert sorted(stacked[:, 0].tolist()) == [-2, 2, 3, 5]


def _batching_cases():
    """(space, ell): the weight-2 Gamma_H plus spaces that realize uses at
    levels 35 and 28, weight 12 at levels 3, 4 and 5, weight 6, ell past
    int64, and a zero-dimensional plus space."""
    for row in TABLE_ROWS:
        if row["N"] * row["ell"] in (35, 28):
            eps = (parse_character(row["eps"]) if "eps" in row
                   else trivial_character(row["N"]))
            h = h_from_eigenform(eps, 12, row["reference_i"], row["ell"])
            yield (lambda h=h: plus_cuspidal_space(h.level, 2, subgroup=h),
                   row["ell"])
    for n, ell in [(3, 5), (4, 7), (5, 11)]:
        yield lambda n=n: plus_cuspidal_space(n, 12), ell
    yield lambda: plus_cuspidal_space(10, 6), 7
    yield lambda: plus_cuspidal_space(11, 2), 2 ** 61 - 1
    yield lambda: plus_cuspidal_space(1, 10), 7


@pytest.mark.parametrize("cap", [1, 3000, 2 ** 14])
def test_batched_operators_equal_one_key_per_call(monkeypatch, cap):
    """All the operators one operators call is missing, computed in
    chunks of the kernel's cap, equal those computed one key per call on a
    fresh space, on the root and on the plus space.  The middle cap splits
    some calls into several chunks of several operators each."""
    groups = []
    apply = modsym._Ambient._apply

    def spy(self, mats, tables, ell=None, counts=None):
        groups.append(1 if counts is None else len(counts))
        return apply(self, mats, tables, ell, counts)

    monkeypatch.setattr(modsym._Ambient, "_apply", spy)
    primes = list(primes_up_to(50))
    cases = list(_batching_cases())
    assert len(cases) == 8
    for make, ell in cases:
        space, one = make(), make()
        units = unit_group(space.level).generators
        monkeypatch.setattr(modsym, "_CHUNK", cap)
        keys = primes + [-d for d in units]
        batched = space.operators(keys, ell)
        root = space.root.operators(keys, ell)
        monkeypatch.setattr(modsym, "_CHUNK", 2 ** 14)
        for key, b, r in zip(keys, batched, root):
            assert one.operators([key], ell)[0].tolist() == b.tolist(), \
                (one, ell, key, cap)
            assert one.root.operators([key], ell)[0].tolist() \
                == r.tolist(), (one, ell, key, cap)
    if cap == 1:
        assert set(groups) == {1}
    if cap == 3000:
        assert max(groups) > 1
        assert 1 < len(groups)


def test_mod_ell_restriction_checks_the_subspace():
    full = build_space(11, 2)
    line = modsym.ModularSymbolSpace(full.ambient, parent=full,
                                     basis=np.eye(1, full.dim, dtype=np.int64))
    with pytest.raises(modsym.SaturationError):
        line.operators([2], 7)
