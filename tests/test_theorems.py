import dataclasses
import itertools
import json

import pytest

from oracles import minimal_rp2, minimal_s2, nonunital_category_corpus, trivial_monoid
from ssethom import fixtures as fx
from ssethom import theorems as th
from ssethom.cat import (FunctorData, FinMonoid, FinNonUnitalCategory, comma_under_object,
                         grothendieck_group, identity_functor, is_commutative_monoid,
                         monoid_as_category, nerve, nerve_map, validate_functor, validate_monoid)
from ssethom.homalg import (
    FPAbelianGroup,
    chain_map_from_sset_map,
    graded_homology,
    homology_coordinates,
    induced_map_on_homology,
    mapping_cone,
    normalized_chains,
    unnormalized_chains,
)
from ssethom.sset import (
    boundary_semi_simplex,
    free_degeneracies,
    standard_semi_simplex,
    standard_simplicial_simplex,
)


def cmp_table(rep):
    return [(c.degree, str(c.left), str(c.right)) for c in rep.comparisons]


# -- adjunction unit ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(fx.sset_corpus()))
def test_adj_units_on_corpus(name):
    rep = th.check_adj_units(fx.sset_corpus()[name], 5)
    assert rep.verdict == "pass"


def test_adj_units_point_small_cutoff():
    rep = th.check_adj_units(standard_semi_simplex(0), 3)
    assert rep.verdict == "pass"
    assert rep.trusted_through == 2


def test_adj_units_random_seeds():
    for seed in range(20):
        rep = th.check_adj_units(fx.random_semi_simplicial(seed), 5)
        assert rep.verdict == "pass", seed


def test_adj_units_zero_cutoff_is_untrusted():
    rep = th.check_adj_units(standard_semi_simplex(0), 0)
    assert rep.verdict == "untrusted-at-cutoff"


# -- fat vs thin chains ------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fat_thin_standard_simplices(n):
    rep = th.check_fat_thin(standard_simplicial_simplex(n), 5)
    assert rep.verdict == "pass"


def test_fat_thin_free_circle_and_rp2():
    assert th.check_fat_thin(free_degeneracies(boundary_semi_simplex(2)), 5).verdict == "pass"
    assert th.check_fat_thin(free_degeneracies(fx.real_projective_plane()), 5).verdict == "pass"


def test_fat_thin_random_seeds():
    for seed in range(20):
        rep = th.check_fat_thin(fx.random_simplicial(seed), 5)
        assert rep.verdict == "pass", seed


@pytest.mark.parametrize("Y,groups,squared", [
    (minimal_rp2(), ["Z", "Z/2", "0"], ["Z", "Z/2 + Z/2", "Z/2"]),
    (minimal_s2(), ["Z", "0", "Z"], ["Z", "0", "Z^2"]),
], ids=["rp2", "s2"])
def test_checks_pass_on_a_generator_with_a_degenerate_face(Y, groups, squared):
    # the thin chains drop the degenerate face s_0 v, and the enumerations
    # behind the three checks meet it again, inside longer words
    assert [str(h) for h in graded_homology(normalized_chains(Y))] == groups
    assert th.check_fat_thin(Y, 4).verdict == "pass"
    rep = th.check_products(Y, Y, 3)
    assert rep.verdict == "pass"
    assert cmp_table(rep) == [(k, g, g) for k, g in enumerate(squared)]
    assert th.check_ez_diagonal(Y, standard_simplicial_simplex(2), 3).verdict == "pass"


# -- diagonal vs total complex -----------------------------------------------


def test_ez_diagonal_torus_values():
    circle = free_degeneracies(boundary_semi_simplex(2))
    rep = th.check_ez_diagonal(circle, circle, 5)
    assert rep.verdict == "pass"
    assert cmp_table(rep) == [(0, "Z", "Z"), (1, "Z^2", "Z^2"),
                              (2, "Z", "Z"), (3, "0", "0")]


@pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (2, 1), (2, 2)])
def test_ez_diagonal_prisms_are_points(n, m):
    rep = th.check_ez_diagonal(standard_simplicial_simplex(n),
                               standard_simplicial_simplex(m), 4)
    assert rep.verdict == "pass"
    assert cmp_table(rep)[0] == (0, "Z", "Z")
    assert all(left == "0" for _, left, _ in cmp_table(rep)[1:])


def test_ez_diagonal_point_factor():
    circle = free_degeneracies(boundary_semi_simplex(2))
    rep = th.check_ez_diagonal(circle, standard_simplicial_simplex(0), 5)
    assert rep.verdict == "pass"
    assert cmp_table(rep) == [(0, "Z", "Z"), (1, "Z", "Z"), (2, "0", "0"), (3, "0", "0")]


def test_ez_diagonal_random_seeds():
    for seed in range(20):
        rep = th.check_ez_diagonal(fx.random_simplicial(2 * seed), fx.random_simplicial(2 * seed + 1), 5)
        assert rep.verdict == "pass", seed


# -- Kunneth -----------------------------------------------------------------


def test_products_rp2_squared_degree_three_torsion():
    rp2 = free_degeneracies(fx.real_projective_plane())
    rep = th.check_products(rp2, rp2, 5)
    assert rep.verdict == "pass"
    assert cmp_table(rep)[3] == (3, "Z/2", "Z/2")


def test_products_torus_and_point():
    circle = free_degeneracies(boundary_semi_simplex(2))
    rep = th.check_products(circle, circle, 5)
    assert cmp_table(rep)[:3] == [(0, "Z", "Z"), (1, "Z^2", "Z^2"), (2, "Z", "Z")]
    rep = th.check_products(circle, standard_simplicial_simplex(0), 5)
    assert rep.verdict == "pass"
    assert cmp_table(rep)[1] == (1, "Z", "Z")


# -- unitalization -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(nonunital_category_corpus()))
def test_krannich_on_corpus(name):
    rep = th.check_krannich(nonunital_category_corpus()[name], 5)
    assert rep.verdict == "pass"


# -- terminal objects --------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_terminal_contractible_posets(n):
    rep = th.check_terminal_contractible(fx.poset_category(n), 5)
    assert rep.verdict == "pass"
    assert (0, "Z", "Z") in cmp_table(rep)


def test_terminal_contractible_grid():
    assert th.check_terminal_contractible(fx.grid_poset_category(), 4).verdict == "pass"


def test_terminal_rejects_nonunital_and_terminal_free():
    with pytest.raises(ValueError):
        th.check_terminal_contractible(fx.composable_pair_category(), 4)
    from ssethom.cat import FinNonUnitalCategory
    two_points = FinNonUnitalCategory(2, (0, 1), (0, 1),
                                      {(0, 0): 0, (1, 1): 1}, units=(0, 1))
    with pytest.raises(ValueError):
        th.check_terminal_contractible(two_points, 4)


# -- Theorem A shadow ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(fx.quillen_functor_corpus()))
def test_quillen_corpus_passes(name):
    rep = th.check_quillen_a(fx.quillen_functor_corpus()[name], 5)
    assert rep.verdict == "pass", [(i.label, i.detail) for i in rep.hypotheses if not i.ok]


def test_quillen_identity_on_unital_fixtures():
    cats = [fx.poset_category(3), fx.grid_poset_category(),
            monoid_as_category(fx.cyclic_group_monoid(2))]
    for C in cats:
        rep = th.check_quillen_a(identity_functor(C), 4)
        assert rep.verdict == "pass"


def test_quillen_disconnected_fiber_reports_hypotheses_not_met():
    rep = th.check_quillen_a(fx.discrete_pair_into_interval(), 5)
    assert rep.verdict == "fail"
    assert "hypotheses not met" in rep.notes
    bad = [i for i in rep.hypotheses if not i.ok]
    assert bad and bad[0].label == "fiber under object 0 has point homology"
    assert "Z^2" in bad[0].detail
    assert all("row" not in i.label for i in rep.hypotheses)


def test_quillen_needs_unital_target():
    F = identity_functor(fx.composable_pair_category())
    with pytest.raises(ValueError):
        th.check_quillen_a(F, 3)


def test_quillen_a_without_units_fails_on_a_two_object_target():
    # the discrete category on three objects into 0 -a-> 1 with an idempotent
    # e on 1 (a then e = a): both fibers are points, yet BC is three points
    # and BD is contractible, so Theorem A needs units in the target
    D = FinNonUnitalCategory(2, (0, 1), (1, 1), {(0, 1): 0, (1, 1): 1})
    F = FunctorData(fx.discrete_category(3), D, (0, 0, 1), ())
    assert validate_functor(F).ok

    def homology(C):
        return graded_homology(unnormalized_chains(nerve(C, 4).sset), through=3)

    point = (FPAbelianGroup(1),) + (FPAbelianGroup(0),) * 3
    assert [homology(comma_under_object(F, b)) for b in range(2)] == [point, point]
    assert homology(F.source)[0] == FPAbelianGroup(3)
    assert homology(D) == point
    cone = mapping_cone(chain_map_from_sset_map(nerve_map(F, 4)))
    assert graded_homology(cone, through=3)[1] == FPAbelianGroup(2)
    with pytest.raises(ValueError, match="this check needs a unital target category"):
        th.check_quillen_a(F, 4)


# -- resolution triangle -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(fx.quillen_functor_corpus()))
def test_resolution_triangle_on_corpus(name):
    rep = th.check_resolution_triangle(fx.quillen_functor_corpus()[name], 4)
    assert rep.verdict == "pass"


def test_resolution_triangle_constant_functor():
    F = FunctorData(fx.poset_category(1), fx.poset_category(0), (0, 0), (0, 0, 0))
    assert th.check_resolution_triangle(F, 4).verdict == "pass"


def test_resolution_triangle_discrete_pair_needs_no_hypothesis():
    rep = th.check_resolution_triangle(fx.discrete_pair_into_interval(), 4)
    assert rep.verdict == "pass"


# -- bar constructions ---------------------------------------------------------


@pytest.mark.parametrize("monoid", ["cyclic2", "cyclic3", "absorbing", "trivial"])
def test_bar_acyclic(monoid):
    M = {"cyclic2": fx.cyclic_group_monoid(2), "cyclic3": fx.cyclic_group_monoid(3),
         "absorbing": fx.absorbing_pair_monoid(), "trivial": trivial_monoid()}[monoid]
    rep = th.check_bar_acyclic(M, 6)
    assert rep.verdict == "pass"
    labels = [i.label for i in rep.hypotheses]
    assert any("matrix-exact" in s for s in labels)


# -- group completion ----------------------------------------------------------


def test_group_completion_free_rank_one():
    rep = th.group_completion_report(fx.free_rank_one_presentation(), 5)
    assert rep.verdict == "pass"
    labels = [i.label for i in rep.hypotheses]
    assert "Grothendieck group is Z" in labels
    assert "localized degree-0 ring is Z[t,t^-1]" in labels


def test_group_completion_glued_pair_is_z():
    rep = th.group_completion_report(fx.glued_pair_presentation(), 5)
    assert "Grothendieck group is Z" in [i.label for i in rep.hypotheses]


def test_group_completion_absorbing_pair_collapses():
    rep = th.group_completion_report(fx.absorbing_pair_monoid(), 7)
    assert rep.verdict == "pass"
    assert "Grothendieck group is 0" in [i.label for i in rep.hypotheses]
    assert cmp_table(rep) == [(k, "Z" if k == 0 else "0", "Z" if k == 0 else "0")
                              for k in range(7)]


def test_group_completion_cyclic2_values():
    rep = th.group_completion_report(fx.cyclic_group_monoid(2), 5)
    assert rep.verdict == "pass"
    assert "localized degree-0 ring is Z[Z/2]" in [i.label for i in rep.hypotheses]
    assert cmp_table(rep) == [(0, "Z", "Z"), (1, "Z/2", "Z/2"), (2, "0", "0"),
                              (3, "Z/2", "Z/2"), (4, "0", "0")]


def test_group_completion_rejects_noncommutative():
    left_zero = FinMonoid(table=((0, 1, 2), (1, 1, 1), (2, 2, 2)), unit=0)
    with pytest.raises(ValueError):
        th.group_completion_report(left_zero, 4)


def commutative_monoid_tables(n):
    """Every commutative monoid table on 0..n-1 with unit 0: the (n-1)^2
    entries off the unit row and column run over all values."""
    off = [(a, b) for a in range(1, n) for b in range(1, n)]
    for values in itertools.product(range(n), repeat=len(off)):
        table = [[a + b if 0 in (a, b) else 0 for b in range(n)] for a in range(n)]
        for (a, b), v in zip(off, values):
            table[a][b] = v
        M = FinMonoid(table=tuple(map(tuple, table)), unit=0)
        if is_commutative_monoid(M) and validate_monoid(M).ok:
            yield M


def test_finite_monoids_have_finite_completions():
    # m^i = m^j with i < j makes m^(j-i) = 1 in Gr(M): every generator has
    # finite order, so the report always compares BM with B of the completion
    N = 3
    monoids = [M for n in (1, 2, 3) for M in commutative_monoid_tables(n)]
    assert len(monoids) == 1 + 2 + 9
    for M in monoids:
        assert grothendieck_group(M).rank == 0
        rep = th.group_completion_report(M, N)
        assert [c.degree for c in rep.comparisons] == list(range(N))


def test_abelian_invariants_oracle():
    assert th.abelian_invariants_from_table(fx.cyclic_group_monoid(6)) == (6,)
    assert th.abelian_invariants_from_table(fx.klein_four_monoid()) == (2, 2)
    assert th.abelian_invariants_from_table(trivial_monoid()) == ()
    z2z4 = th._cyclic_product_monoid((2, 4))
    assert th.abelian_invariants_from_table(z2z4) == (2, 4)


def test_localized_ring_strings():
    assert th.localized_ring_string(FPAbelianGroup(0)) == "Z"
    assert th.localized_ring_string(FPAbelianGroup(1)) == "Z[t,t^-1]"
    assert th.localized_ring_string(FPAbelianGroup(2)) == "Z[t1,t1^-1,t2,t2^-1]"
    assert th.localized_ring_string(FPAbelianGroup(0, (2,))) == "Z[Z/2]"
    assert th.localized_ring_string(FPAbelianGroup(1, (3,))) == "Z[t,t^-1][Z/3]"


# -- skeleta -------------------------------------------------------------------


def test_skeletal_shadow_sphere_skeleta():
    assert th.check_skeletal_shadow(boundary_semi_simplex(3), 1, 5).verdict == "pass"
    assert th.check_skeletal_shadow(standard_semi_simplex(3), 2, 5).verdict == "pass"


@pytest.mark.parametrize("name", sorted(fx.sset_corpus()))
def test_skeletal_shadow_corpus_all_degrees(name):
    X = fx.sset_corpus()[name]
    for n in range(4):
        rep = th.check_skeletal_shadow(X, n, 5)
        assert rep.verdict in ("pass", "untrusted-at-cutoff"), (name, n)
        if X.truncated_at is None or n < X.truncated_at:
            assert rep.verdict == "pass", (name, n)


def test_skeletal_shadow_builds_the_inclusion_through_one_above_the_degree(monkeypatch):
    # H_3 of the skeleton and of a truncated nerve read levels through 4 only
    X = nerve(monoid_as_category(fx.cyclic_group_monoid(4)), 6).sset
    built = []
    monkeypatch.setattr(th, "chain_map_from_sset_map", lambda f, through=None,
                        build=th.chain_map_from_sset_map: built.append(through) or build(f, through))
    rep = th.check_skeletal_shadow(X, 3, 6)
    assert (built, rep.verdict, rep.trusted_through) == ([4], "pass", 3)


def test_skeletal_shadow_degree_must_be_below_cutoff():
    with pytest.raises(ValueError):
        th.check_skeletal_shadow(standard_semi_simplex(2), 5, 5)


# -- Segal condition -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_segal_nerve_cyclic_groups(n):
    rep = th.check_segal_nerve(fx.cyclic_group_monoid(n), 5)
    assert rep.verdict == "pass"
    assert sum("Segal map" in i.label for i in rep.hypotheses) == 5


@pytest.mark.parametrize("M", [fx.absorbing_pair_monoid(),
                               FinMonoid(table=((0, 1, 2), (1, 1, 1), (2, 2, 2)), unit=0)],
                         ids=["absorbing", "left-zero"])
def test_segal_nerve_passes_on_monoids_that_are_not_groups(M):
    # X_p = M^p in the one-object nerve, so every Segal map is a bijection,
    # and the path space is B(*, M, M), contractible for every monoid
    rep = th.check_segal_nerve(M, 5)
    assert rep.verdict == "pass"
    assert [i.ok for i in rep.hypotheses] == [True] * 8


# -- constant spaces -----------------------------------------------------------


def test_constant_sizes():
    rep = th.check_constant(5, 6)
    assert rep.verdict == "pass"
    assert cmp_table(rep)[0] == (0, "Z^5", "Z^5")
    assert th.check_constant(0, 4).verdict == "pass"
    assert th.check_constant(1, 4).verdict == "pass"


# -- report plumbing ------------------------------------------------------------


def test_reports_are_deterministic():
    reps_a = [
        th.check_quillen_a(fx.point_into_interval(), 5),
        th.group_completion_report(fx.cyclic_group_monoid(2), 5),
        th.check_ez_diagonal(fx.random_simplicial(6), fx.random_simplicial(7), 5),
        th.check_segal_nerve(fx.cyclic_group_monoid(2), 4),
    ]
    reps_b = [
        th.check_quillen_a(fx.point_into_interval(), 5),
        th.group_completion_report(fx.cyclic_group_monoid(2), 5),
        th.check_ez_diagonal(fx.random_simplicial(6), fx.random_simplicial(7), 5),
        th.check_segal_nerve(fx.cyclic_group_monoid(2), 4),
    ]
    for a, b in zip(reps_a, reps_b):
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_seconds_not_serialized_and_not_compared():
    rep = th.check_constant(2, 3)
    assert "seconds" not in rep.to_dict()
    assert rep == th.check_constant(2, 3)
    # a report carries no timing at all; the command line times the call
    assert "seconds" not in {f.name for f in dataclasses.fields(rep)}


def test_nat_trans_sides_induce_equal_homology_maps():
    # a natural transformation forces nerve(F) and nerve(G) to agree on homology
    C = fx.poset_category(1)
    F = identity_functor(C)
    G = FunctorData(C, C, (1, 1), (2, 2, 2))
    N = 4
    cf = chain_map_from_sset_map(nerve_map(F, N))
    cg = chain_map_from_sset_map(nerve_map(G, N))
    for k in range(N - 1):
        src = homology_coordinates(cf.source, k)
        tgt = homology_coordinates(cf.target, k)
        assert induced_map_on_homology(cf, k, src, tgt) == induced_map_on_homology(cg, k, src, tgt)
