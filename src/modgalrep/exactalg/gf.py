"""Finite fields F_{l^r} with canonical moduli, and polynomial factorization.

A field element is a residue polynomial in the generator `a`, stored as a
coefficient tuple of length r.  The defining modulus of F_{l^r} is the
lexicographically least monic irreducible polynomial of degree r over F_l,
comparing coefficient vectors low degree first, so fields are reproducible
across runs and machines.

There is one polynomial type: a plain list of FqElem, lowest degree first.
Factorization is squarefree decomposition, then distinct-degree splitting,
then equal-degree splitting with a pseudo-random source seeded to 0, so
factor lists come out in a fixed order.  The modulus search runs the same
distinct-degree split over F_l: a candidate of degree r is irreducible
exactly when its least-degree factor has degree r.  Both splits spend their
time on h^e modulo a polynomial (D. G. Cantor and H. Zassenhaus, Math.
Comp. 36, 1981; J. von zur Gathen and V. Shoup, Comput. Complexity 2,
1992), and `poly_powmod` computes it with F_l-linear maps on the numpy
backend: F_q[x]/(f) as arrays of residues, each product through the
multiplication tensor each field keeps, a block-Toeplitz matrix and the
map that reduces modulo f.  Each field also keeps its Frobenius matrix,
row i the coefficients of (a^i)^l, which `FqElem.frobenius` applies.

The roots of a polynomial irreducible over F_l whose degree d divides r
need no factoring: `irreducible_roots` splits off one linear factor by
equal-degree splitting alone, with no squarefree or distinct-degree pass,
and returns that root's d Frobenius conjugates, by the Frobenius matrix.
Field embeddings and the eigensystem code find their roots with it.  The
embeddings are F_l-linear maps too, applied like the Frobenius matrix; map
j of `embeddings` is map 0 followed by the Frobenius j times.

Field arithmetic beyond the product goes through the Frobenius too.  The
inverse of a is b / N(a), b the product of the r - 1 conjugates of a and
N(a) = a b in F_l (T. Itoh and S. Tsujii, Inform. and Comput. 78, 1988),
and the minimal polynomial of a over F_l is the product of x - c over the
Frobenius orbit of a (R. Lidl and H. Niederreiter, Finite Fields, Thm.
3.33).  `poly_powmod` and the Hecke operator kernel, the restriction to
subspaces and the eigensystem code put every product of matrices through
`intmat.product`, the one exact product over Z and F_l.
"""

import random
from functools import lru_cache
import operator

import numpy as np

from .arith import factorint, is_prime
from .intmat import exact_dtype, product


# ---------------------------------------------------------------------------
# fields and elements

class FqField:
    """The finite field with ell^r elements, ell prime."""

    __slots__ = ("ell", "r", "modulus", "_pows", "_mul", "_frob",
                 "_primitive", "_card_factors")

    def __init__(self, ell, r, modulus):
        self.ell = ell
        self.r = r
        self.modulus = modulus
        # a^0 .. a^(2r-2) modulo the defining polynomial; _mul[i, j] is
        # a^(i+j), so b @ _mul[j] is b a^j; _frob holds the columns of the
        # Frobenius matrix, whose row i is (a^i)^ell
        pows = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        for _ in range(r - 1):
            lead = pows[-1][-1]
            pows.append(tuple((c - lead * m) % ell for c, m in
                              zip((0,) + pows[-1][:-1], modulus)))
        self._pows = pows
        self._mul = np.array(pows, exact_dtype(ell))[
            np.add.outer(range(r), range(r))]
        x = self.gen() ** ell
        self._frob = tuple(zip(*((x ** i).coeffs for i in range(r))))
        self._primitive = None
        self._card_factors = None

    @property
    def order(self):
        return self.ell ** self.r

    def zero(self):
        return FqElem(self, (0,) * self.r)

    def one(self):
        return FqElem(self, (1,) + (0,) * (self.r - 1))

    def gen(self):
        """The residue class of x, a root of the defining modulus."""
        if self.r == 1:
            return self.zero()
        return FqElem(self, (0, 1) + (0,) * (self.r - 2))

    def __call__(self, value):
        """The element with a given coefficient sequence."""
        coeffs = tuple(int(c) % self.ell for c in value)
        if len(coeffs) > self.r:
            raise ValueError("coefficient vector too long")
        return FqElem(self, coeffs + (0,) * (self.r - len(coeffs)))

    def from_int(self, value):
        """Image of an integer in the prime subfield."""
        return FqElem(self, (value % self.ell,) + (0,) * (self.r - 1))

    def from_encoding(self, code):
        """Inverse of FqElem.encoding()."""
        coeffs = []
        for _ in range(self.r):
            code, c = divmod(code, self.ell)
            coeffs.append(c)
        return FqElem(self, tuple(coeffs))

    def card_factors(self):
        """Factorization of the multiplicative group order ell^r - 1."""
        if self._card_factors is None:
            self._card_factors = dict(factorint(self.order - 1))
        return self._card_factors

    def primitive_element(self):
        """Least generator of the multiplicative group, in encoding order."""
        if self._primitive is None:
            q1 = self.order - 1
            facs = list(self.card_factors())
            code = 2
            while True:
                x = self.from_encoding(code)
                if not x.is_zero() and all(
                    x ** (q1 // p) != self.one() for p in facs
                ):
                    self._primitive = x
                    break
                code += 1
        return self._primitive

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and self.ell == other.ell
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.ell, self.modulus))

    def __repr__(self):
        return "FqField(%d, %d)" % (self.ell, self.r)


@lru_cache(maxsize=None)
def _canonical_modulus(ell, r):
    if r == 1:
        return (0, 1)
    prime_field = fq_field(ell, 1)
    # x divides every candidate with constant term 0, so start at 1; the
    # least-degree factor comes first, so degree r means irreducible.  The
    # candidates are the base-ell digits of m, constant term first, made one
    # at a time so that a large ell costs nothing up front.
    for m in range(ell ** (r - 1), ell ** r):
        f = tuple(m // ell ** (r - 1 - i) % ell for i in range(r)) + (1,)
        if _distinct_degree(poly_from_ints(prime_field, f))[0][1] == r:
            return f
    raise RuntimeError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def fq_field(ell, r):
    """Canonical field with ell^r elements; same (ell, r) gives one object."""
    if ell < 2 or not is_prime(ell):
        raise ValueError("characteristic must be prime, got %d" % ell)
    if r < 1:
        raise ValueError("degree must be positive")
    return FqField(ell, r, _canonical_modulus(ell, r))


class FqElem:
    """An element of an FqField, as a residue polynomial in the generator."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def encoding(self):
        """Integer code sum(c_i * ell^i); fixes a total order on the field."""
        code = 0
        for c in reversed(self.coeffs):
            code = code * self.field.ell + c
        return code

    def __add__(self, other):
        f = self.field
        return FqElem(f, tuple((a + b) % f.ell for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        f = self.field
        return FqElem(f, tuple((a - b) % f.ell for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        f = self.field
        return FqElem(f, tuple(-a % f.ell for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        ell, r = f.ell, f.r
        a, b = self.coeffs, other.coeffs
        if r == 1:
            return FqElem(f, (a[0] * b[0] % ell,))
        prod = [0] * (2 * r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = prod[:r]
        for i in range(r, 2 * r - 1):
            c = prod[i]
            if c:
                red = f._pows[i]
                for j in range(r):
                    out[j] += c * red[j]
        return FqElem(f, tuple(c % ell for c in out))

    def __pow__(self, e):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        result = f.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        """b / N(a), b the product of the conjugates of a other than a
        itself, and N(a) = a b, which lies in the prime field; there the
        inverse is one pow."""
        f = self.field
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        if f.r == 1:
            return FqElem(f, (pow(self.coeffs[0], -1, f.ell),))
        b, conj = f.one(), self
        for _ in range(f.r - 1):
            conj = conj.frobenius()
            b = b * conj
        inv = pow((self * b).coeffs[0], -1, f.ell)
        return FqElem(f, tuple(c * inv % f.ell for c in b.coeffs))

    def frobenius(self):
        """The image under x -> x^ell, by the field's Frobenius matrix."""
        return _linear_image(self.coeffs, self.field._frob, self.field)

    def multiplicative_order(self):
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        order = self.field.order - 1
        one = self.field.one()
        for p in self.field.card_factors():
            while order % p == 0 and self ** (order // p) == one:
                order //= p
        return order

    def minpoly(self):
        """Monic minimal polynomial over the prime field, as an int list:
        the product of x - c over the Frobenius orbit c = a, a^ell, ...,
        whose coefficients the Frobenius fixes."""
        orbit = [self]
        while (c := orbit[-1].frobenius()).coeffs != self.coeffs:
            orbit.append(c)
        zero, poly = self.field.zero(), [self.field.one()]
        for c in orbit:
            poly = [lo - c * hi
                    for lo, hi in zip([zero] + poly, poly + [zero])]
        return [c.coeffs[0] for c in poly]

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.ell, self.field.modulus, self.coeffs))

    def __repr__(self):
        return "FqElem(%d^%d, %s)" % (self.field.ell, self.field.r,
                                      poly_str(self.coeffs))


def poly_str(coeffs, name="a", times="*"):
    """Readable string of a polynomial in the variable name, lowest degree
    first; by default a field element's coefficients in the generator a."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            power = name if i == 1 else "%s^%d" % (name, i)
            terms.append(power if c == 1 else "%d%s%s" % (c, times, power))
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# polynomials over a finite field, as FqElem lists (lowest degree first)

def poly_trim(f):
    while f and f[-1].is_zero():
        f.pop()
    return f


def poly_degree(f):
    return len(f) - 1


def poly_monic(f):
    if not f:
        return f
    inv = f[-1].inverse()
    return [c * inv for c in f]


def poly_sub(f, g):
    zero = (f or g)[0].field.zero()
    return poly_trim([(f[i] if i < len(f) else zero)
                      - (g[i] if i < len(g) else zero)
                      for i in range(max(len(f), len(g)))])


def poly_divmod(f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    field = g[0].field
    rem = list(f)
    inv = g[-1].inverse()
    q = [field.zero()] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g) and rem:
        c = rem[-1] * inv
        shift = len(rem) - len(g)
        q[shift] = c
        for j in range(len(g)):
            rem[shift + j] = rem[shift + j] - c * g[j]
        rem.pop()
        poly_trim(rem)
    return poly_trim(q), rem


def poly_mod(f, g):
    return poly_divmod(f, g)[1]


def poly_gcd(f, g):
    f, g = list(f), list(g)
    while g:
        f, g = g, poly_mod(f, g)
    return poly_monic(f)


def poly_powmod(f, e, mod, red=None):
    """f^e modulo a nonzero polynomial mod of degree n over F_q, q = ell^r.

    Modulo mod, a polynomial is n r residues, coefficient j of its entry at
    x^i at i r + j.  A product takes three F_ell-linear steps, each through
    intmat.product: the field's multiplication tensor makes each entry of
    one factor the r x r matrix that multiplies by it; these fill a
    block-Toeplitz matrix, which sends the other factor to the 2n - 1
    entries of the product; and red, the reduction map of mod, folds the
    top n - 1 back.  Modulo a constant everything is 0, so that gives [].
    """
    field = mod[0].field
    ell, r, n = field.ell, field.r, poly_degree(mod)
    if n == 0:
        return []
    if e == 0:
        return [field.one()]
    red = _reduction_map(poly_monic(mod)) if red is None else red
    i = np.arange(n)[:, None]

    def mul(a, b):
        blocks = product(a.reshape(n, r), field._mul.reshape(r, -1), ell)
        toep = np.zeros((n, r, 2 * n - 1, r), dtype=blocks.dtype)
        toep[i, :, i + i.T, :] = blocks.reshape(n, r, r)
        c = product(b[None], toep.reshape(n * r, -1), ell)[0]
        return (c[:n * r] + product(c[None, n * r:], red, ell)[0]) % ell

    result = base = _residues(poly_mod(f, mod), field, n).ravel()
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return poly_trim([field(c) for c in result.reshape(n, r)])


def _residues(f, field, n):
    # the coefficients of a polynomial of degree below n, as n x r residues
    return np.array([c.coeffs for c in f] + [(0,) * field.r] * (n - len(f)),
                    dtype=field._mul.dtype)


def _reduction_map(mod):
    """The (n - 1) r x n r matrix over F_ell whose row i r + j is a^j x^(n+i)
    modulo a monic polynomial of degree n >= 1 over F_{ell^r}.  Its rows for
    i < m give those for m <= i < 2m: x^m times a row of degree below n has
    its entries at x^n .. x^(n+m-1) folded back by them."""
    field = mod[0].field
    ell, r, n = field.ell, field.r, poly_degree(mod)
    low = -_residues(mod[:n], field, n) % ell
    red = product(low, field._mul, ell).reshape(r, n * r)
    m = 1
    while m < n - 1:
        rows = red.reshape(m * r, n, r)
        shifted = np.zeros_like(rows)
        shifted[:, m:] = rows[:, :n - m]
        folded = product(rows[:, n - m:].reshape(m * r, m * r), red, ell)
        red = np.concatenate(
            [red, (shifted.reshape(m * r, n * r) + folded) % ell])
        m *= 2
    return red[:(n - 1) * r]


def poly_deriv(f):
    if len(f) <= 1:
        return []
    field = f[0].field
    return poly_trim([f[i] * field.from_int(i) for i in range(1, len(f))])


def poly_from_ints(field, coeffs):
    """Build a polynomial from integer coefficients (lowest degree first)."""
    return poly_trim([field.from_int(c) for c in coeffs])


def _poly_pth_root(f, field):
    # f = g(x^ell) over F_{ell^r}; return g, whose coefficients are the
    # ell-th roots of those of f, their images under the Frobenius r - 1 times
    out = f[::field.ell]
    for _ in range(field.r - 1):
        out = [c.frobenius() for c in out]
    return poly_trim(out)


def squarefree_decomposition(f):
    """List of (squarefree factor, multiplicity) with product f (monic)."""
    field = f[0].field
    ell = field.ell
    f = poly_monic(list(f))
    out = []

    def accumulate(g, mult):
        if poly_degree(g) > 0:
            out.append((g, mult))

    def sff(f, mult):
        d = poly_deriv(f)
        if not d:
            # f is an ell-th power
            sff(_poly_pth_root(f, field), mult * ell)
            return
        c = poly_gcd(f, d)
        w, _ = poly_divmod(f, c)
        i = 1
        while poly_degree(w) > 0:
            y = poly_gcd(w, c)
            fac, _ = poly_divmod(w, y)
            accumulate(fac, mult * i)
            w = y
            c, _ = poly_divmod(c, y)
            i += 1
        if poly_degree(c) > 0:
            sff(c, mult)

    # each irreducible factor of f lies in one of the factors found
    sff(f, 1)
    return sorted(out, key=lambda gm: (poly_degree(gm[0]), [c.encoding() for c in gm[0]]))


def _distinct_degree(f):
    # f monic squarefree; list (product of degree-d irreducibles, d) by
    # rising d.  For any monic f, the first d is the least degree of an
    # irreducible factor, which the modulus search relies on.
    field = f[0].field
    q = field.order
    out = []
    x = [field.zero(), field.one()]
    h = list(x)
    rest = list(f)
    d, red = 0, None
    while poly_degree(rest) > 0:
        d += 1
        if 2 * d > poly_degree(rest):
            out.append((rest, poly_degree(rest)))
            break
        red = _reduction_map(poly_monic(rest)) if red is None else red
        h = poly_powmod(h, q, rest, red)
        g = poly_gcd(poly_sub(h, x), rest)
        if poly_degree(g) > 0:
            out.append((g, d))
            rest, _ = poly_divmod(rest, g)
            h, red = poly_mod(h, rest), None
    return out


def _split_once(f, d, rng):
    # Cantor-Zassenhaus: a proper monic factor of a monic squarefree product
    # of at least two irreducibles of degree d.
    field = f[0].field
    n = poly_degree(f)
    q = field.order
    one, red = [field.one()], _reduction_map(poly_monic(f))
    while True:
        h = poly_trim([field.from_encoding(rng.randrange(q)) for _ in range(n)])
        if poly_degree(h) < 1:
            continue
        g = poly_gcd(h, f)
        if not 0 < poly_degree(g) < n:
            t = poly_powmod(h, (q ** d - 1) // 2, f, red)
            g = poly_gcd(poly_sub(t, one), f)
        if 0 < poly_degree(g) < n:
            return g


def _equal_degree(f, d, rng):
    # every irreducible factor of a monic squarefree product of degree-d ones
    if poly_degree(f) == d:
        return [f]
    g = _split_once(f, d, rng)
    rest, _ = poly_divmod(f, g)
    return _equal_degree(g, d, rng) + _equal_degree(rest, d, rng)


def poly_factor_fq(f):
    """Factor a nonzero polynomial over its field of coefficients.

    Returns a list of (monic irreducible factor, multiplicity), sorted by
    degree then by coefficient encodings; the product of the factors times
    the leading coefficient of f reproduces f.
    """
    f = poly_trim(list(f))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    field = f[0].field
    if field.ell == 2:
        raise ValueError("even characteristic is not supported")
    if poly_degree(f) == 1:
        return [(poly_monic(f), 1)]
    rng = random.Random(0)
    factors = []
    for sq, mult in squarefree_decomposition(f):
        for prod_d, d in _distinct_degree(sq):
            for irr in _equal_degree(prod_d, d, rng):
                factors.append((poly_monic(irr), mult))
    factors.sort(key=lambda gm: (poly_degree(gm[0]), [c.encoding() for c in gm[0]]))
    return factors


def irreducible_roots(field, g):
    """Roots in field of a monic polynomial g, irreducible over F_ell, whose
    degree d divides field.r; g is given by its integer coefficients, lowest
    degree first.

    One root comes from equal-degree splitting alone, always keeping one
    factor; the roots are its d Frobenius conjugates, by the field's
    Frobenius matrix, sorted by encoding.
    """
    f = poly_from_ints(field, g)
    d = poly_degree(f)
    if d < 1 or field.r % d:
        raise ValueError("degree %d does not divide %d" % (d, field.r))
    if field.ell == 2 and d > 1:
        raise ValueError("even characteristic is not supported")
    rng = random.Random(0)
    while poly_degree(f) > 1:
        f = _split_once(f, 1, rng)
    roots = [-f[0]]
    for _ in range(d - 1):
        roots.append(roots[-1].frobenius())
    return sorted(roots, key=lambda x: x.encoding())


def element_of_order(field, m):
    """Canonical element of multiplicative order m in the field.

    Taken as g^((q-1)/m) for g the least primitive element, so compatible
    powers give compatible roots of unity for every divisor of m.
    """
    q1 = field.order - 1
    if m <= 0 or q1 % m:
        raise ValueError("no element of order %d in %r" % (m, field))
    return field.primitive_element() ** (q1 // m)


def _linear_image(coeffs, cols, field):
    # the coefficient vector times the matrix with the given columns, as an
    # element of field; on Python ints, faster than numpy for one element
    ell = field.ell
    return FqElem(field, tuple([sum(map(operator.mul, coeffs, col)) % ell
                                for col in cols]))


@lru_cache(maxsize=None)
def embeddings(small, big):
    """The small.r embeddings of one canonical field into another, as
    F_ell-linear maps, each applied like the Frobenius: the coefficients
    times a matrix whose row i is the image of a^i.

    Map j sends the generator to root^(ell^j), root the least root of the
    small modulus in big (the generator itself when the fields are equal),
    so map j is map 0 followed by the Frobenius j times.  Requires
    small.r | big.r and equal characteristic.  Canonical fields are one
    object each, so the list is built once per pair and shared.
    """
    if small.ell != big.ell or big.r % small.r:
        raise ValueError("no embedding of %r into %r" % (small, big))
    images = [big.one()]
    if small.r > 1:
        root = (big.gen() if small == big
                else irreducible_roots(big, small.modulus)[0])
        for _ in range(small.r - 1):
            images.append(images[-1] * root)
    maps = []
    for _ in range(small.r):
        cols = tuple(zip(*(x.coeffs for x in images)))
        maps.append(lambda x, cols=cols: _linear_image(x.coeffs, cols, big))
        images = [x.frobenius() for x in images]
    return maps
