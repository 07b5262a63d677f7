import pytest

from modgalrep.dirichlet import parse_character
from modgalrep.modsym import build_space, MatrixCache
from modgalrep.pipeline import (
    find_twist,
    InputForm,
    largest_subgroup_audit,
    PipelineError,
    plus_cuspidal_space,
    realize,
    select_input_form,
    sl2_index_gamma1,
    sturm_bound,
    TABLE_ROWS,
    table_row_selector,
)

from helpers import make_character, psl2_index_gamma1


def test_sl2_index():
    assert sl2_index_gamma1(1) == 1
    assert sl2_index_gamma1(2) == 3
    for n in (3, 4, 5, 6, 11, 15, 78):
        expected = psl2_index_gamma1(n) * (2 if n > 2 else 1)
        assert sl2_index_gamma1(n) == expected


def test_sturm_bound_examples():
    assert sturm_bound(1, 11, 12) == 11
    assert sturm_bound(1, 13, 12) == 15
    assert sturm_bound(3, 11, 12) == 88


def test_select_input_form_delta():
    form = select_input_form(1, 12, 11, {"ap": {2: -24}}, bound=50)
    assert form.system.a[2].coeffs == (9,)
    assert form.system.a[3].coeffs == (10,)


def test_select_input_form_unique_without_constraints():
    form = select_input_form(1, 12, 11, {}, bound=50)
    assert form.system.a[2].coeffs == (9,)


def test_select_input_form_ambiguous():
    # level 13 weight 2 mod 13 has two trivial-diamond... none; use (4, 12, 7)
    with pytest.raises(PipelineError):
        select_input_form(4, 12, 7, {}, bound=50)


def test_select_input_form_no_match():
    with pytest.raises(PipelineError):
        select_input_form(1, 12, 11, {"ap": {2: 1}}, bound=50)


def test_select_level5_quartic_rows():
    quad5 = make_character(5, [1], 2)
    for row in TABLE_ROWS:
        if row["N"] != 5:
            continue
        sel = table_row_selector(row)
        form = select_input_form(5, 12, row["ell"], sel, eps=quad5, bound=50)
        assert form.system.field.r == 2


def test_select_input_form_takes_eps_at_any_root_of_unity_order():
    # 5:2^2@4 is the quadratic character 5:2^1@2; its reduction needed a
    # place for zeta_4 and was refused with "place only covers orders
    # dividing 2"
    row = next(r for r in TABLE_ROWS if r["N"] == 5 and r["ell"] == 7)
    forms = [select_input_form(5, 12, 7, table_row_selector(row),
                               eps=parse_character(text), bound=50)
             for text in ("5:2^1@2", "5:2^2@4", "5:2^3@6")]
    assert len({f.system.value_tuple() for f in forms}) == 1


def test_find_twist_delta_mod13_immediate():
    form = select_input_form(1, 12, 13, {"ap": {2: -24}}, bound=50)
    tw = find_twist(form, 13, truncate=50)
    assert (tw.i, tw.kprime, tw.level_m) == (0, 12, 1)


def test_find_twist_level3_mod5():
    form = select_input_form(3, 12, 5, {"ap": {2: 78}}, bound=50)
    tw = find_twist(form, 5, truncate=50)
    assert (tw.i, tw.kprime, tw.level_m) == (1, 6, 3)
    # the weight-6 companion has a_2 = -6 = 4 mod 5
    assert tw.system.a[2].coeffs == ((-6) % 5,)
    # weight congruence 12 = 6 + 2*1 mod 4
    assert (12 - 6 - 2 * 1) % 4 == 0


def test_find_twist_level6_mod7():
    form = select_input_form(6, 12, 7, {"ap": {2: -32, 3: -243}}, bound=50)
    tw = find_twist(form, 7, truncate=50)
    assert tw.i == 4 and tw.kprime == 4


def test_realize_delta_mod11():
    form = select_input_form(1, 12, 11, {"ap": {2: -24}}, bound=50)
    rep = realize(form, 11, truncate=50)
    assert rep.i == 0
    assert rep.is_gamma0 and rep.subgroup.level == 11
    assert (rep.d1, rep.dh) == (1, 1)
    assert rep.system.a[2].coeffs == (9,) and rep.system.a[3].coeffs == (10,)
    assert rep.det_check
    assert rep.index == 10 and rep.predicted_index == 10


def test_select_input_form_defaults_to_the_realize_bound(monkeypatch):
    # the rigorous bound at N' = N*ell, 576 for (3, 12, 5), not the level-N
    # one of 24; an explicit bound is cut to it.  The spy stops each run
    # before any space is built.
    from modgalrep import pipeline
    bounds = []

    class Stop(Exception):
        pass

    def spy(level, weight, ell, bound, *args, **kwargs):
        bounds.append(bound)
        raise Stop

    monkeypatch.setattr(pipeline, "decompose_level", spy)
    for bound in (None, 10 ** 6, 50):
        with pytest.raises(Stop):
            select_input_form(3, 12, 5, {"ap": {2: 78}}, bound=bound)
    with pytest.raises(Stop):
        select_input_form(1, 12, 11, {"ap": {2: -24}})
    assert bounds == [576, 576, 50, 1320]
    assert bounds[0] == sturm_bound(15, 5, 12) and sturm_bound(3, 5, 12) == 24


def test_realize_stops_at_the_input_bound():
    # selected at bound 11; realize must not match past it
    form = select_input_form(1, 12, 11, {"ap": {2: -24}}, bound=11)
    assert form.bound == 11
    rep = realize(form, 11, truncate=50)
    assert rep.i == 0 and rep.system_level == 11
    assert rep.report.heuristic and rep.report.bound == 11
    assert "the input form has values only up to 11" in rep.warnings


def test_realize_level3_mod11():
    form = select_input_form(3, 12, 11, {"ap": {2: 78}}, bound=50)
    rep = realize(form, 11, truncate=50)
    assert rep.i == 0
    assert (rep.d1, rep.dh) == (21, 3)
    assert rep.is_gamma0  # (ell-1) | (k-2): 10 | 10
    # f2 = q + q^2 - q^3 mod 11
    assert rep.system.a[2].coeffs == (1,)
    assert rep.system.a[3].coeffs == (10,)


def test_realize_weight2_input():
    # a weight-2 input uses H = ker(eps-bar) at level N directly
    eps = make_character(13, [1], 6)
    form = select_input_form(13, 2, 5, {"index": 0}, eps=eps, bound=50)
    rep = realize(form, 5, truncate=50)
    assert rep.i == 0
    assert rep.subgroup.level == 13
    assert len(rep.subgroup) == 2  # kernel of the order-6 character
    assert rep.d1 == 2 and rep.dh == 2


def test_realize_index_coherence():
    for n, ell in [(3, 13), (4, 7)]:
        form = select_input_form(
            n, 12, ell,
            {"ap": {2: 78 if n == 3 else 0, 3: -243 if n == 3 else -516}},
            bound=50)
        rep = realize(form, ell, truncate=50)
        assert rep.index == len(rep.subgroup)
        assert rep.predicted_index == rep.index
        assert rep.dh <= rep.d1


def test_realization_report_document_shape():
    form = select_input_form(1, 12, 13, {"ap": {2: -24}}, bound=50)
    rep = realize(form, 13, truncate=50)
    doc = rep.to_dict()
    assert doc["d1"] == 2 and doc["dH"] == 2
    assert doc["determinant_check"] is True
    assert doc["caveats"]["irreducibility_assumed"] is True
    assert "minpoly_a2" in doc
    assert doc["match"]["verdict"] is True


def test_untruncated_row_1_11():
    """Row (1, 11) at its rigorous bound of 1,320, with no heuristic flag.
    This pins the computed i = 0; the table's reference_i is 1, and which
    of the two the paper's convention gives is still open."""
    row = next(r for r in TABLE_ROWS if (r["N"], r["ell"]) == (1, 11))
    cache = MatrixCache()
    form = select_input_form(1, 12, 11, table_row_selector(row), cache=cache)
    assert form.bound == 1320
    rep = realize(form, 11, cache=cache)
    assert (rep.i, rep.d1, rep.dh, rep.system_level) == (0, 1, 1, 11)
    assert not rep.twist.heuristic and not rep.warnings
    assert "heuristic" not in rep.report.to_dict()
    assert rep.report.bound == 1320


def test_audit_delta_mod11():
    form = select_input_form(1, 12, 11, {"ap": {2: -24}}, bound=50)
    audit = largest_subgroup_audit(form, 11, 0, truncate=50)
    assert audit["consistent"]
    assert len(audit["rows"]) == 4
    assert all(r["match"] for r in audit["rows"])  # H is everything


def test_audit_trivial_subgroup_always_matches():
    form = select_input_form(1, 12, 13, {"ap": {2: -24}}, bound=50)
    audit = largest_subgroup_audit(form, 13, 0, truncate=50)
    assert audit["consistent"]
    triv = [r for r in audit["rows"] if r["order"] == 1][0]
    assert triv["match"]


def test_one_presentation_per_cache():
    # each cache holds one ambient per (N, k), and the plus-cuspidal space
    # hangs off it; another cache builds its own, with the same operators
    first, second = MatrixCache(), MatrixCache()
    plus = plus_cuspidal_space(11, 2, first)
    assert plus.root is build_space(11, 2, first)
    assert plus_cuspidal_space(11, 2, first) is plus
    other = build_space(11, 2, second)
    assert plus_cuspidal_space(11, 2, second).root is other
    assert other is not plus.root
    assert other.hecke_matrix(2) == plus.root.hecke_matrix(2)
    assert other.star_matrix() == plus.root.star_matrix()


def _constant_system(level, weight, values):
    """A mod-7 system at the level with trivial diamond character and the
    given T_p values, p up to 5,760."""
    from modgalrep.eigen import Eigensystem
    from modgalrep.exactalg import fq_field, primes_up_to, unit_group
    field = fq_field(7, 1)
    return Eigensystem(
        level, weight, 7, field,
        {p: field.from_int(values(p)) for p in primes_up_to(5760)},
        {d: field.one() for d in unit_group(level).generators}, 1,
        "level %d weight %d" % (level, weight), ())


@pytest.mark.parametrize("twist_level, weight2_level, heuristic", [
    (2, 14, True), (6, 42, False)])
def test_realize_certifies_at_the_lcm_of_both_levels(
        monkeypatch, twist_level, weight2_level, heuristic):
    # a weight-12 form at level 6 mod 7 with values up to 5,760, a_p = p^2,
    # twists by p^2 to a weight-2 system with a_p = 1 at the twist level and
    # at one weight-2 level M' only.  Realize searches M' = 14 at its own
    # bound of 720, but both systems live at lcm(6, 14) = 42, whose bound is
    # 5,760: the match is heuristic.  At M' = 42 the two bounds agree.
    from modgalrep import pipeline
    from modgalrep.dirichlet import trivial_character
    form = InputForm(6, 12, trivial_character(6), {},
                     _constant_system(6, 12, lambda p: p * p), 5760)
    calls = []

    def spy(level, weight, ell, bound, cache=None, subgroup=None):
        # the twist search passes no subgroup, realize one at every level
        calls.append((level, weight, bound, subgroup is None))
        hit = twist_level if subgroup is None else weight2_level
        if (level, weight) == (hit, 2):
            return [_constant_system(level, 2, lambda p: 1)]
        return []

    monkeypatch.setattr(pipeline, "decompose_level", spy)
    rep = realize(form, 7)
    assert (rep.i, rep.twist.level_m, rep.system_level) == (
        2, twist_level, weight2_level)
    assert not rep.twist.heuristic
    assert rep.report.bound == sturm_bound(weight2_level, 7, 12)
    assert (weight2_level, 2, rep.report.bound, False) in calls
    assert rep.report.heuristic is heuristic
    # the search bound fell short, not a truncation
    assert "weight-2 match used a truncated bound" not in rep.warnings
    assert ("weight-2 match searched below the bound at level 42"
            in rep.warnings) is heuristic
    assert ("heuristic" in rep.to_dict()["match"]) is heuristic


def test_a_form_mod_another_ell_is_refused_before_any_space(monkeypatch):
    from modgalrep import pipeline
    form = select_input_form(1, 12, 11, {"ap": {2: -24}}, bound=50)

    def spy(*args, **kwargs):
        raise AssertionError("a space was built")

    monkeypatch.setattr(pipeline, "decompose_level", spy)
    for run in (lambda: find_twist(form, 13, truncate=50),
                lambda: realize(form, 13, truncate=50),
                lambda: largest_subgroup_audit(form, 13, 0, truncate=50)):
        with pytest.raises(ValueError, match="system mod 11, not mod 13"):
            run()
