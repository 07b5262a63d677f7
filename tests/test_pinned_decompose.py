"""Mod-ell decompositions pinned by value.

Each case pins a digest of the sorted (field degree, multiplicity, value
tuple, bad primes) of the systems that `decompose` returns for a
plus-cuspidal space with every prime up to 50.  Value tuples are the
encodings of the canonical representative of each Frobenius orbit in the
canonical field of its degree, so the pins hold across any reimplementation
of the decomposition that keeps those conventions.  The cases cover value
fields of degree 2 to 6 and 18, multiplicities up to 7, diamond operators and
primes dividing the level.
"""

import hashlib
import json

import pytest

from modgalrep.eigen import ReducedSpace, decompose, reduce_space_mod
from modgalrep.exactalg.arith import primes_up_to
from modgalrep.modsym import build_space

PRIMES50 = list(primes_up_to(50))

# (level, weight, ell) -> (systems, max field degree, max multiplicity, digest)
PINNED = {
    (5, 12, 7): (7, 2, 2, "b29cd79ffea8534b"),
    (12, 8, 5): (9, 2, 7, "f4ee766af4fa5b7e"),
    (13, 2, 5): (1, 2, 1, "92e8c5d05a1f251b"),
    (23, 2, 5): (3, 5, 2, "3f17aa5993fd92f0"),
    (29, 2, 5): (5, 6, 2, "c006be838952ddd0"),
    (33, 2, 11): (15, 2, 2, "2cef5e4deb60d147"),
    (37, 2, 5): (10, 18, 1, "efa2c39222168ef6"),
    (40, 2, 13): (14, 4, 2, "2d660567d250110d"),
    (78, 2, 13): (59, 2, 6, "1f0831348afde47e"),
}


def record(systems):
    rows = sorted((s.field.r, s.multiplicity, list(s.value_tuple()),
                   list(s.bad_primes)) for s in systems)
    text = json.dumps(rows, separators=(",", ":"))
    return (len(systems), max(s.field.r for s in systems),
            max(s.multiplicity for s in systems),
            hashlib.sha256(text.encode()).hexdigest()[:16])


@pytest.mark.parametrize("level, weight, ell", sorted(PINNED))
def test_pinned_decomposition(level, weight, ell):
    space = build_space(level, weight).cuspidal_subspace().star_plus_subspace()
    systems = decompose(reduce_space_mod(space, ell, PRIMES50), PRIMES50)
    assert sum(s.multiplicity * s.field.r for s in systems) == space.dim
    assert record(systems) == PINNED[level, weight, ell]


def _companion_power(e):
    # C = [[0, 3], [1, 0]] is the companion matrix of x^2 - 3 over F_5
    m = [[1, 0], [0, 1]]
    for _ in range(e):
        m = [[row[1], 3 * row[0] % 5] for row in m]
    return m


def _block_diag(a, b):
    return [a[0] + [0, 0], a[1] + [0, 0], [0, 0] + b[0], [0, 0] + b[1]]


def test_one_block_two_orbits():
    """T2 = diag(C, C), T3 = diag(C, C^5): the values (a, a) and (a, a^5)
    have the same irreducible factors over F_5 but lie in two orbits."""
    c, c5 = _companion_power(1), _companion_power(5)
    rspace = ReducedSpace(1, 2, 5, 4, {2: _block_diag(c, c),
                                       3: _block_diag(c, c5)})
    systems = decompose(rspace, [2, 3])
    assert [(s.field.r, s.multiplicity, s.value_tuple()) for s in systems] \
        == [(2, 1, (8, 8)), (2, 1, (8, 22))]
