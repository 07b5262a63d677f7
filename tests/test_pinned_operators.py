"""Hecke, diamond and star operators pinned on and off the lattice basis.

The characteristic polynomial of an operator does not depend on the basis
the presentation of the ambient space chooses, so these pins hold across
any change of that presentation.  The integer polynomials have coefficients
of thousands of bits at weight 12, so each is pinned as a digest of its
reductions modulo two word-size primes.  The torsion of the presentation is
an invariant of the group, and is pinned as it stands.  The matrices
themselves are pinned too, which holds the presentation fixed while the
code computing operators on it changes.
"""

import hashlib
import json

import pytest

from modgalrep.congruence import SubgroupH
from modgalrep.modsym import build_space

from helpers import charpoly_mod

PRIMES = (67108859, 67108837)

# (level, weight) -> the diamond operator pinned there
DIAMOND = {(3, 12): 2, (4, 12): 3, (5, 12): 2, (6, 12): 5, (12, 8): 5}

PINNED = {
    (3, 12): {
        "torsion": [2, 3, 3, 3, 4],
        "full": {"T2": "25f2914c03a14164", "T3": "af30cd022551ec1e",
                 "T5": "c6738d188f8644c5", "d2": "27ef1d0c1ff4c52f"},
        "plus": {"T2": "e8b6afb27f5935a3", "T3": "9ba9b41b43e0ba4e",
                 "T5": "32b7588ea81c4bdd", "d2": "7392f5b9b054e2b7"},
    },
    (4, 12): {
        "torsion": [2, 2, 2, 3, 4, 8, 8],
        "full": {"T2": "30c3be580f31af4b", "T3": "ec3737101623c3f5",
                 "T5": "0b6b108406d6b14c", "d3": "ca15660324bc4302"},
        "plus": {"T2": "4a06a49c24c73b9e", "T3": "579a61355edbf7c7",
                 "T5": "fcc11db72fae675f", "d3": "845b05a4f071a84c"},
    },
    (5, 12): {
        "torsion": [2, 3, 4, 5, 5, 25],
        "full": {"T2": "6cf97f739f253950", "T3": "e4686a39c105bd01",
                 "T5": "9a2e7c86d497c18a", "d2": "7a8acf1eae45b88e"},
        "plus": {"T2": "7246dd9781c378f7", "T3": "5769f200952412e5",
                 "T5": "d7a52454dbb3b14b", "d2": "687c6d28a705ec1c"},
    },
    (6, 12): {
        "torsion": [2, 2, 2, 3, 3, 3, 3, 4, 4, 4],
        "full": {"T2": "81dad28059326e4d", "T3": "dadbb2e501483d81",
                 "T5": "598d5d2b7d0a9c9a", "d5": "e12b4f1aa41d1de9"},
        "plus": {"T2": "bb9d4811e8f769bb", "T3": "e69024013b3104e6",
                 "T5": "98572bf0c620faa6", "d5": "157234a973fcc3e6"},
    },
    (12, 8): {
        "torsion": [2, 2, 3, 3, 4, 5, 8, 9],
        "full": {"T2": "83efc494147a1e88", "T3": "b39dd35929fa71d1",
                 "T5": "bfe0bbfa83f9ad4e", "d5": "004a89844bd150a9"},
        "plus": {"T2": "71edd5f6318e9e9e", "T3": "bfae007ee7ae7fe8",
                 "T5": "2627bc204eba53e0", "d5": "ebff1d5db77a7775"},
    },
}


def charpoly_digest(mat):
    polys = [charpoly_mod(mat, p) for p in PRIMES]
    return hashlib.sha256(json.dumps(polys).encode()).hexdigest()[:16]


@pytest.mark.parametrize("level, weight", sorted(PINNED))
def test_charpolys_and_torsion_pinned(level, weight):
    full = build_space(level, weight)
    plus = full.cuspidal_subspace().star_plus_subspace()
    d = DIAMOND[(level, weight)]
    got = {"torsion": list(full.torsion)}
    for name, space in (("full", full), ("plus", plus)):
        ops = {"T%d" % p: charpoly_digest(space.hecke_matrix(p))
               for p in (2, 3, 5)}
        ops["d%d" % d] = charpoly_digest(space.diamond_matrix(d))
        got[name] = ops
    assert got == PINNED[(level, weight)]


# The integer matrices themselves, entry for entry, on the presentation's
# own basis: SHA-256 of their JSON, first 16 hex digits.  T_47 at weight 12
# has entries past 2^63 and T_p at weight 2 stays small, so both integer
# paths of the ambient operators are pinned; (40, 2) also pins the
# restriction to the subspace invariant under H = {1, 9}.
MATRIX_DIAMOND = {(1, 12): None, (6, 12): 5, (35, 2): 2, (40, 2): 3}

MATRIX_PINNED = {
    (1, 12): {
        "full": {"T2": "87a4b469ef66d025", "T3": "5b0d2e63ffa36a67",
                 "T47": "40c54687779cfc24", "star": "093ad187f28e7de6"},
        "plus": {"T2": "0164c33aa64e0a5d", "T3": "cfc71bcfe81c07e6",
                 "T47": "aa9a92f3dff4dd61", "star": "043f347c2cdc0d8c"},
    },
    (6, 12): {
        "full": {"T2": "0a7e84f722c9b46a", "T3": "27809a0b5f20fa34",
                 "T47": "ab224ea1330ffa35", "d5": "47a16e6679492226",
                 "star": "85165534a5594640"},
        "plus": {"T2": "348015950d9b29e8", "T3": "6adaea2af6978c19",
                 "T47": "57eea0b4d81e5c90", "d5": "261683657afe5283",
                 "star": "261683657afe5283"},
    },
    (35, 2): {
        "full": {"T2": "00a162dfa088efba", "T3": "2ee06d38ac38a50e",
                 "T47": "957c0d52e7d04a7b", "d2": "0a8353909c8ce8e9",
                 "star": "5cd0ea074f0b347e"},
        "plus": {"T2": "c57b59318ecf2b72", "T3": "91ae055a63f37257",
                 "T47": "6eb0807b194603b0", "d2": "857ef4fdfe4ce76f",
                 "star": "e14b94c85163ecf7"},
    },
    (40, 2): {
        "full": {"T2": "da360a1546e6bab1", "T3": "4973d01bf3467f83",
                 "T47": "e826110c6aef97c5", "d3": "6098b9e59c1b9f94",
                 "star": "61f68e3872acff49"},
        "plus": {"T2": "333449e9f8246f55", "T3": "5af5f58b4ec13bcd",
                 "T47": "617d315aecd2d444", "d3": "2a4c546497ac797a",
                 "star": "e14b94c85163ecf7"},
        "h": {"T2": "5ceea27b0646bfc5", "T3": "65a10f00d2030630",
              "T47": "0f12dfacd646449d", "d3": "430c10fc547cebad",
              "star": "ce89d96bba74e27a"},
    },
}

# the disk cache keys its entries on this fingerprint
FINGERPRINT_6_12 = (
    "3a5920ab9d94a60d6f6cb632db8c16471b86f51b9ee796b93cc92b20674cca37")
# a projection of 115 bits, held on Python integers
FINGERPRINT_10_12 = (
    "f016a562ef9c950fc752947042723f475367bffcb88d181abb3f80249538821b")
# weight 2 on Gamma_H(35), H = <6, 11>
FINGERPRINT_35_2_H = (
    "d478b71062634a4a0aaf07fe460cd7ec2b1c33bbaeb4dd9c4a12bb8aca50ea3a")


def matrix_digest(mat):
    return hashlib.sha256(json.dumps(mat).encode()).hexdigest()[:16]


def operator_digests(space, diamond):
    out = {"T%d" % p: matrix_digest(space.hecke_matrix(p))
           for p in (2, 3, 47)}
    if diamond is not None:
        out["d%d" % diamond] = matrix_digest(space.diamond_matrix(diamond))
    out["star"] = matrix_digest(space.star_matrix())
    return out


@pytest.mark.parametrize("level, weight", sorted(MATRIX_PINNED))
def test_operator_matrices_pinned(level, weight):
    full = build_space(level, weight)
    plus = full.cuspidal_subspace().star_plus_subspace()
    d = MATRIX_DIAMOND[(level, weight)]
    got = {"full": operator_digests(full, d), "plus": operator_digests(plus, d)}
    if (level, weight) == (40, 2):
        h = plus.h_invariant_subspace(SubgroupH.from_generators(40, [9]))
        assert h.dim == 13
        got["h"] = operator_digests(h, d)
    assert got == MATRIX_PINNED[(level, weight)]


def test_ambient_fingerprint_pinned():
    assert build_space(6, 12).ambient.fingerprint == FINGERPRINT_6_12
    ambient = build_space(10, 12).ambient
    assert ambient.proj_rows.dtype == object
    assert ambient.fingerprint == FINGERPRINT_10_12
    h = SubgroupH.from_generators(35, [6, 11])
    assert (build_space(35, 2, subgroup=h).ambient.fingerprint
            == FINGERPRINT_35_2_H)
