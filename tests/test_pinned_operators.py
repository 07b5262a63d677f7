"""Hecke and diamond operators pinned independently of the lattice basis.

The characteristic polynomial of an operator does not depend on the basis
the presentation of the ambient space chooses, so these pins hold across
any change of that presentation.  The integer polynomials have coefficients
of thousands of bits at weight 12, so each is pinned as a digest of its
reductions modulo two word-size primes.  The torsion of the presentation is
an invariant of the group, and is pinned as it stands.
"""

import hashlib
import json

import pytest

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
