"""End-to-end drivers: twist search and largest-subgroup realization.

Given a weight-k eigensystem datum mod ell, `find_twist` locates the
smallest (i, k', M) such that a weight-k' system g at level M | N matches
a_p(f) = p^i a_p(g) at all good primes up to the bound, walking
candidates in the fixed loop order (i ascending, k' ascending, M
ascending) and pre-filtering by the weight congruence k = k' + 2i mod
(ell - 1).  `realize` then builds the weight-2 space on Gamma_H at each
divisor level, H projected there, and returns the first verified weight-2
system, together with the index data and both curve dimensions.

These searches and `largest_subgroup_audit` run one walk over candidates,
each with its search bound: sturm_bound(N) for the twist, sturm_bound(M)
at each weight-2 level M, sturm_bound(N') for the audit, where
sturm_bound(n, ell, k) = floor(index(Gamma_1(n))/12 * (ell^2 - 1 + k)).
The walk cuts it to the truncation, if any, and to the bound the input
form's values were computed up to, with a warning.  Both systems of a
match at level M live at lcm(N, M): the match is certified at
sturm_bound(lcm(N, M), ell, k) and flagged heuristic below it.
"""

from math import lcm

from .congruence import (
    curve_invariants,
    h_from_eigenform,
    intermediate_subgroups,
    plus_minus,
    predicted_kernel_order,
    realization_level,
    trivial_subgroup,
)
from .dirichlet import conductor, reduce_at_ell, trivial_character
from .eigen import characters_agree, decompose, match_twist, reduce_space_mod
from .exactalg.arith import divisors, factorint, is_prime, primes_up_to
from .exactalg.gf import (
    embeddings,
    fq_field,
    poly_from_ints,
    poly_gcd,
    poly_monic,
    poly_str,
)
from .modsym import MatrixCache, build_space


class PipelineError(ValueError):
    """A search that the theory guarantees should succeed came up empty."""


def sl2_index_gamma1(n):
    """Index of Gamma_1(n) in SL2(Z)."""
    psi = n
    phi = n
    for p in factorint(n):
        psi = psi // p * (p + 1)
        phi = phi // p * (p - 1)
    return phi * psi


def sturm_bound(level, ell, k):
    """Prime bound certifying a twisted eigensystem identity between a
    weight-k system and one of weight at most k."""
    return sl2_index_gamma1(level) * (ell * ell - 1 + k) // 12


class InputForm:
    """A resolved weight-k eigensystem datum at level N mod ell, with the
    bound its values were computed up to."""

    def __init__(self, level, weight, eps, system, bound):
        self.level = level
        self.weight = weight
        self.eps = eps
        self.system = system
        self.bound = bound

    def __repr__(self):
        return "InputForm(level %d, weight %d, mod %d: %s)" % (
            self.level, self.weight, self.system.ell, self.system.digest())


def plus_cuspidal_space(level, weight, cache=None, subgroup=None):
    """Plus-cuspidal modular symbol space on Gamma_H(level), H trivial for
    None, built once per cache on its ambient; None means a fresh cache."""
    cache = MatrixCache() if cache is None else cache
    return cache.recall(
        ("plus", level, weight, plus_minus(level, subgroup)),
        lambda: build_space(level, weight, cache, subgroup)
        .cuspidal_subspace().star_plus_subspace())


def decompose_level(level, weight, ell, bound, cache=None, subgroup=None):
    """Eigensystems of the plus-cuspidal space on Gamma_H(level) mod ell.

    Values are computed for all primes up to the bound; results are kept in
    the cache under (level, weight, ell, bound, +-H).
    """
    cache = MatrixCache() if cache is None else cache

    def compute():
        space = plus_cuspidal_space(level, weight, cache, subgroup)
        primes = list(primes_up_to(bound))
        return decompose(reduce_space_mod(space, ell, primes), primes)

    return cache.recall(("decomposed", level, weight, ell, bound,
                         plus_minus(level, subgroup)), compute)


def select_input_form(level, weight, ell, selector, eps=None, bound=None,
                      cache=None):
    """Resolve a selector to exactly one eigensystem of the weight-k space.

    The selector may fix integer values {"ap": {p: value}}, constrain
    minimal polynomials {"ap_minpoly": {p: coeffs}}, give a polynomial
    relation {"ap_poly": {p: (coeffs_in_a2, denominator)}}, or pick an
    index {"index": j}.  Systems whose diamond character disagrees with
    eps are never candidates.  Values go up to the rigorous bound at the
    level N' = N*ell (N at weight 2) that realize matches at, or below; a
    selector prime that is no prime or lies above that bound is refused.
    """
    if weight % 2:
        raise ValueError("odd weights are not supported")
    if ell < 5 or level % ell == 0:
        raise ValueError("need a prime ell >= 5 not dividing the level")
    if eps is None:
        eps = trivial_character(level)
    if eps.modulus != level:
        raise ValueError("the character has modulus %d, not the level %d"
                         % (eps.modulus, level))
    rigorous = sturm_bound(realization_level(level, weight, ell), ell, weight)
    bound = rigorous if bound is None else min(bound, rigorous)
    for key in ("ap", "ap_minpoly", "ap_poly"):
        for p in selector.get(key, ()):
            if not (is_prime(p) and p <= bound):
                raise ValueError("selector prime %d: the selection has values "
                                 "at the primes up to %d only" % (p, bound))
    systems = decompose_level(level, weight, ell, bound, cache)
    red = reduce_at_ell(eps, ell)
    candidates = [s for s in systems if _diamond_matches(s, red)]
    if "index" in selector:
        j = selector["index"]
        if not 0 <= j < len(candidates):
            raise PipelineError("selector index %d out of range" % j)
        candidates = [candidates[j]]
    if "ap" in selector:
        for p, v in sorted(selector["ap"].items()):
            candidates = [s for s in candidates
                          if p in s.a and s.a[p] == s.field.from_int(v)]
    if "ap_minpoly" in selector:
        for p, coeffs in sorted(selector["ap_minpoly"].items()):
            candidates = [s for s in candidates
                          if p in s.a and _minpoly_divides(s.a[p], coeffs, ell)]
    if "ap_poly" in selector:
        for p, (coeffs, den) in sorted(selector["ap_poly"].items()):
            if den % ell == 0:
                continue  # relation degenerates at this ell
            candidates = [s for s in candidates
                          if p in s.a and _poly_relation_holds(s, p, coeffs, den)]
    if not candidates:
        raise PipelineError("no eigensystem matches the selector")
    if len(candidates) > 1:
        raise PipelineError(
            "ambiguous selector: %d systems match" % len(candidates))
    return InputForm(level, weight, eps, candidates[0], bound)


def _diamond_matches(sys, red):
    """Whether the system's diamond character is a reduced character red
    under one of the embeddings of its value field."""
    big = fq_field(sys.ell, lcm(red.field.r, sys.field.r))
    phi_e = embeddings(red.field, big)[0]
    return any(characters_agree(red, sys.character(), 0, phi_e, phi)
               for phi in embeddings(sys.field, big))


def _minpoly_divides(value, coeffs, ell):
    field = fq_field(ell, 1)
    target = poly_from_ints(field, coeffs)
    mp = poly_from_ints(field, value.minpoly())
    return poly_gcd(mp, target) == poly_monic(mp)


def _poly_relation_holds(sys, p, coeffs, den):
    a2 = sys.a.get(2)
    if a2 is None:
        return False
    field = sys.field
    acc = field.zero()
    for c in reversed(coeffs):
        acc = acc * a2 + field.from_int(c)
    expected = acc * field.from_int(den).inverse()
    return sys.a[p] == expected


def _check_ell(form, ell):
    if ell != form.system.ell:
        raise ValueError("the form is a system mod %d, not mod %d"
                         % (form.system.ell, ell))


def _walk(form, candidates, truncate, cache, warnings):
    """Yield (candidate, report) for each candidate (i, level, weight,
    subgroup, search bound), its bound cut as the module docstring says,
    the report that of the first system on Gamma_H(level), H trivial for
    None, that matches the form as a twist by p^i and passes the
    determinant check, or None; a heuristic match's report is marked so.
    """
    ell, k = form.system.ell, form.weight
    for i, level, weight, subgroup, bound in candidates:
        if truncate is not None:
            bound = min(bound, truncate)
        if form.bound < bound:
            bound = form.bound
            note = "the input form has values only up to %d" % bound
            if note not in warnings:
                warnings.append(note)
        reports = (match_twist(form.system, g, i, bound) for g in
                   decompose_level(level, weight, ell, bound, cache, subgroup))
        report = next((r for r in reports if r.verdict and r.det_check), None)
        if report is not None:
            report.heuristic = bound < sturm_bound(lcm(form.level, level),
                                                   ell, k)
        yield (i, level, weight, subgroup, bound), report


class TwistResult:
    """Outcome of the twist search, read from its match report."""

    def __init__(self, report, warnings):
        self.i = report.i
        self.system = report.sys_g
        self.kprime = report.sys_g.weight
        self.level_m = report.sys_g.level
        self.report = report
        self.heuristic = report.heuristic
        self.warnings = warnings

    def to_dict(self):
        doc = {
            "twist_exponent": self.i,
            "companion_weight": self.kprime,
            "companion_level": self.level_m,
            "companion_digest": self.system.digest(),
            "bound": self.report.bound,
            "heuristic": self.heuristic,
            "match": self.report.to_dict(),
        }
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        return doc


def find_twist(form, ell, truncate=None, cache=None):
    """Smallest (i, k', M) realizing the system as a twist of lower weight.

    Follows the fixed loop order with the weight-congruence filter; when
    ell >= k - 1 the pair (0, k) is used immediately and only the level M
    is searched.  Raises PipelineError when no candidate matches, which
    signals reducibility or an insufficient bound.
    """
    _check_ell(form, ell)
    cache = MatrixCache() if cache is None else cache
    k = form.weight
    n = form.level
    if ell >= k - 1:
        pairs = [(0, k)]
    else:
        pairs = [(i, kp)
                 for i in range(ell)
                 for kp in range(2, ell + 2)
                 if (k - kp - 2 * i) % (ell - 1) == 0]
    cond = conductor(form.eps)
    levels = [m for m in divisors(n) if m % cond == 0]
    bound = sturm_bound(n, ell, k)
    candidates = [(i, m, kp, None, bound) for i, kp in pairs for m in levels]
    warnings = []
    for _, report in _walk(form, candidates, truncate, cache, warnings):
        if report is not None:
            return TwistResult(report, warnings)
    raise PipelineError(
        "twist search exhausted: representation may be reducible or the "
        "bound too small")


class RealizationReport:
    """The full output record of the realization pipeline."""

    def __init__(self, form, subgroup, predicted_index, d1, dh, report, twist,
                 warnings):
        self.form = form
        self.ell = form.system.ell
        self.i = report.i
        self.subgroup = subgroup
        self.index = len(subgroup)
        self.predicted_index = predicted_index
        self.d1 = d1
        self.dh = dh
        self.is_gamma0 = subgroup.is_full()
        self.system = f2 = report.sys_g
        self.system_level = f2.level
        self.report = report
        self.minpoly_a2 = f2.a[2].minpoly() if 2 in f2.a else None
        self.det_check = report.det_check
        self.twist = twist
        self.warnings = warnings
        self.caveats = {
            "irreducibility_assumed": True,
            "multiplicity_one_unchecked": [
                "weight equals ell",
                "representation unramified at ell",
                "Frobenius at ell acts as a scalar",
            ],
        }

    def to_dict(self):
        doc = {
            "level": self.form.level,
            "weight": self.form.weight,
            "ell": self.ell,
            "twist_exponent": self.i,
            "subgroup_level": self.subgroup.level,
            "subgroup_order": self.index,
            "subgroup_elements": list(self.subgroup.elements),
            "is_gamma0": self.is_gamma0,
            "d1": self.d1,
            "dH": self.dh,
            "weight2_level": self.system_level,
            "weight2_field_degree": self.system.field.r,
            "weight2_values": {
                "a%d" % p: poly_str(self.system.a[p].coeffs)
                for p in sorted(self.system.a)[:6]},
            "minpoly_a2": self.minpoly_a2,
            "determinant_check": self.det_check,
            "match": self.report.to_dict(),
            "caveats": self.caveats,
        }
        if self.predicted_index is not None:
            doc["predicted_index"] = self.predicted_index
        if self.twist is not None:
            doc["twist_search"] = self.twist.to_dict()
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        return doc


def realize(form, ell, truncate=None, cache=None):
    """Realize the system in a weight-2 space on the largest subgroup.

    Returns the twist exponent i, the kernel subgroup H at level N'
    (N' = N*ell for weight > 2, N' = N in weight 2), both curve dimensions
    d_1 >= d_H, and the first matching weight-2 eigensystem along the
    ascending divisor levels of M' (M' = M*ell for the twist level M, or
    N in weight 2).  find_twist, called first, rejects a mismatched ell.
    """
    cache = MatrixCache() if cache is None else cache
    n, k = form.level, form.weight
    nprime = realization_level(n, k, ell)
    twist = find_twist(form, ell, truncate=truncate, cache=cache)
    i = twist.i
    mprime = n if k == 2 else twist.level_m * ell
    warnings = list(twist.warnings)
    if twist.heuristic:
        warnings.append("twist search used a truncated bound")
    subgroup = h_from_eigenform(form.eps, k, i, ell)
    d1, dh = (curve_invariants(cache.cosets(h)).genus
              for h in (trivial_subgroup(nprime), subgroup))
    predicted = None
    if form.eps.is_trivial() and k > 2:
        predicted = predicted_kernel_order(nprime, ell, k - 2 - 2 * i)
        if predicted != len(subgroup):
            raise AssertionError("index formula mismatch: %d != %d"
                                 % (predicted, len(subgroup)))
    candidates = ((i, m, 2, subgroup.project(m), sturm_bound(m, ell, k))
                  for m in divisors(mprime))
    for (_, m, _, _, bound), report in _walk(
            form, candidates, truncate, cache, warnings):
        if report is not None:
            if report.heuristic:  # the search bound or the truncation
                warnings.append("weight-2 match used a truncated bound"
                                if bound < sturm_bound(m, ell, k) else
                                "weight-2 match searched below the bound "
                                "at level %d" % lcm(n, m))
            return RealizationReport(form, subgroup, predicted, d1, dh,
                                     report, twist, warnings)
    raise PipelineError(
        "no weight-2 match at any divisor level of %d" % mprime)


def largest_subgroup_audit(form, truncate=None, cache=None):
    """Check that a weight-2 match exists exactly on subgroups inside H.

    For every subgroup H' of the units at level N', the weight-2 space on
    Gamma_H' admits a matching system if and only if H' is contained in the
    kernel subgroup H, for ell that of the form and i that of find_twist.
    Returns the audit table, heuristic if the walk cut sturm_bound(N').
    """
    cache = MatrixCache() if cache is None else cache
    ell = form.system.ell
    i = find_twist(form, ell, truncate=truncate, cache=cache).i
    nprime = realization_level(form.level, form.weight, ell)
    subgroup = h_from_eigenform(form.eps, form.weight, i, ell)
    rigorous = sturm_bound(nprime, ell, form.weight)  # lcm(N, N') = N'
    candidates = [(i, nprime, 2, hp, rigorous)
                  for hp in intermediate_subgroups(nprime)]
    rows, warnings, cut = [], [], rigorous
    for (_, _, _, hp, bound), report in _walk(
            form, candidates, truncate, cache, warnings):
        cut = min(cut, bound)
        rows.append({
            "subgroup": list(hp.elements),
            "order": len(hp),
            "contained_in_h": hp.is_subgroup_of(subgroup),
            "match": report is not None,
        })
    ok = all(r["match"] == r["contained_in_h"] for r in rows)
    doc = {"level": nprime, "twist_exponent": i, "consistent": ok,
           "kernel_subgroup": list(subgroup.elements),
           "heuristic": cut < rigorous, "rows": rows}
    if warnings:
        doc["warnings"] = warnings
    return doc


# ---------------------------------------------------------------------------
# bundled weight-12 demonstration grid (one row per (N, ell))

TABLE_ROWS = [
    {"N": 1, "ell": 11, "selector": {"ap": {2: -24, 3: 252}}, "reference_i": 1},
    {"N": 1, "ell": 13, "selector": {"ap": {2: -24, 3: 252}}, "reference_i": 0},
    {"N": 3, "ell": 5, "selector": {"ap": {2: 78, 3: -243}}, "reference_i": 1},
    {"N": 3, "ell": 7, "selector": {"ap": {2: 78, 3: -243}}, "reference_i": 0},
    {"N": 3, "ell": 11, "selector": {"ap": {2: 78, 3: -243}}, "reference_i": 0},
    {"N": 3, "ell": 13, "selector": {"ap": {2: 78, 3: -243}}, "reference_i": 0},
    {"N": 4, "ell": 5, "selector": {"ap": {2: 0, 3: -516}}, "reference_i": 1},
    {"N": 4, "ell": 7, "selector": {"ap": {2: 0, 3: -516}}, "reference_i": 0},
    {"N": 4, "ell": 11, "selector": {"ap": {2: 0, 3: -516}}, "reference_i": 0},
    {"N": 4, "ell": 13, "selector": {"ap": {2: 0, 3: -516}}, "reference_i": 0},
    {"N": 5, "ell": 7, "eps": "5:2^1@2", "reference_i": 0},
    {"N": 5, "ell": 11, "eps": "5:2^1@2", "reference_i": 0},
    {"N": 5, "ell": 13, "eps": "5:2^1@2", "reference_i": 0},
    {"N": 6, "ell": 5, "selector": {"ap": {2: -32, 3: -243}}, "reference_i": 0},
    {"N": 6, "ell": 7, "selector": {"ap": {2: -32, 3: -243}}, "reference_i": 4},
    {"N": 6, "ell": 11, "selector": {"ap": {2: -32, 3: -243}}, "reference_i": 0},
    {"N": 6, "ell": 13, "selector": {"ap": {2: -32, 3: -243}}, "reference_i": 0},
]

# level-5 input data: a_2 generates a quartic field; each ell column pins a
# prime of that field by a second polynomial in a_2 (denominators cleared),
# and a_3 is a rational polynomial in a_2
_LEVEL5_QUARTIC = [2496256, 0, 4132, 0, 1]
_LEVEL5_LAMBDA = {
    7: [1976, 0, 1],
    11: [1736, 0, 1],
    13: [-234752, 3236, -112, 1],
}
_LEVEL5_A3 = ([0, -2900, 0, -1], 112)  # a_3 = (-a^3 - 2900 a) / 112


def table_row_selector(row):
    """Selector dict for a bundled grid row (resolving level-5 prime data)."""
    if "selector" in row:
        return row["selector"]
    ell = row["ell"]
    field = fq_field(ell, 1)
    g = poly_gcd(poly_from_ints(field, _LEVEL5_QUARTIC),
                 poly_from_ints(field, _LEVEL5_LAMBDA[ell]))
    coeffs = [c.coeffs[0] for c in g]
    return {"ap_minpoly": {2: coeffs}, "ap_poly": {3: _LEVEL5_A3}}
