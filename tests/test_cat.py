import dataclasses

import pytest

from oracles import nonunital_category_corpus, parallel_arrows_category, trivial_monoid
from ssethom.cat import (
    FinMonoid,
    FinNonUnitalCategory,
    FunctorData,
    MonoidAction,
    MonoidPresentation,
    NatTransData,
    bar_construction,
    chain_object,
    comma_resolution,
    comma_under_object,
    eta_fiber,
    grothendieck_group,
    identity_functor,
    is_commutative_monoid,
    is_group,
    monoid_as_category,
    monoid_presentation,
    nat_trans_homotopy,
    nerve,
    nerve_map,
    nerve_path_contraction,
    over_category,
    regular_action,
    row_contraction,
    trivial_action,
    unitalize,
    validate_action,
    validate_category,
    validate_functor,
    validate_monoid,
    validate_nat_trans,
    validate_presentation,
)
from ssethom.fixtures import (
    absorbing_pair_monoid,
    composable_pair_category,
    cyclic_group_monoid,
    discrete_category,
    free_rank_one_presentation,
    glued_pair_presentation,
    grid_poset_category,
    idempotent_category,
    klein_four_monoid,
    point_into_interval,
    poset_category,
    strict_poset_category,
)
from ssethom.homalg import (
    FPAbelianGroup,
    acyclic_through,
    chain_homotopy_from_certificate,
    check_chain_homotopy,
    graded_homology,
    unnormalized_chains,
)
from ssethom.sset import (
    check_certificate,
    check_sset_map,
    standard_semi_simplex,
    validate_bisset,
    validate_sset,
)


Z = FPAbelianGroup(1, ())
ZERO = FPAbelianGroup(0, ())


def test_validate_poset_categories():
    for n in range(4):
        assert validate_category(poset_category(n)).ok
        assert poset_category(n).is_unital
        assert validate_category(strict_poset_category(n)).ok
        assert not strict_poset_category(n).is_unital
    assert poset_category(2).n_morphisms == 6
    assert strict_poset_category(2).n_morphisms == 3


def test_validate_catches_broken_composition():
    C = composable_pair_category()
    bad = FinNonUnitalCategory(C.n_objects, C.src, C.tgt, {})
    rep = validate_category(bad)
    assert not rep.ok
    assert "missing" in rep.problems[0]


def test_validate_catches_bad_associativity():
    # one object, two endomorphisms with a non-associative table
    comp = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 0}
    bad = FinNonUnitalCategory(1, (0, 0), (0, 0), comp)
    rep = validate_category(bad)
    assert not rep.ok
    assert any("associativity" in p for p in rep.problems)


def test_validate_catches_bad_unit():
    C = poset_category(1)
    bad = FinNonUnitalCategory(C.n_objects, C.src, C.tgt, C.comp, units=(1, 2))
    assert not validate_category(bad).ok


def test_nerve_interval_sizes_and_faces():
    nd = nerve(poset_category(1), 4)
    assert nd.sset.sizes == (2, 3, 4, 5, 6)
    assert validate_sset(nd.sset).ok
    assert nd.chains[2] == ((0, 0), (0, 1), (1, 2), (2, 2))
    # faces of the chain (0, 1): drop, compose, drop
    assert nd.sset.face(2, 0, 1) == 1
    assert nd.sset.face(2, 1, 1) == 1
    assert nd.sset.face(2, 2, 1) == 0
    # edges: d_1 = source, d_0 = target
    assert nd.sset.faces[1][1] == (0, 0, 1)
    assert nd.sset.faces[1][0] == (0, 1, 1)


def test_nerve_composable_pair_is_a_triangle():
    nd = nerve(composable_pair_category(), 3)
    assert nd.sset.sizes == (3, 3, 1, 0)
    # morphisms are lex: (0,1)=0, (0,2)=1, (1,2)=2; the unique 2-chain is (0, 2)
    assert nd.sset.faces[2] == ((2,), (1,), (0,))
    assert graded_homology(unnormalized_chains(nd.sset), through=2) == (Z, ZERO, ZERO)


def test_nerve_empty_category():
    nd = nerve(FinNonUnitalCategory(0, (), (), {}), 2)
    assert nd.sset.sizes == (0, 0, 0)
    assert validate_sset(nd.sset).ok


def test_nerve_of_z2_doubles():
    nd = nerve(monoid_as_category(cyclic_group_monoid(2)), 4)
    assert nd.sset.sizes == (1, 2, 4, 8, 16)
    assert nd.chains[2] == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert nd.sset.face(2, 1, 3) == 0  # the two generators multiply to 1


def test_classifying_space_of_z2():
    nd = nerve(monoid_as_category(cyclic_group_monoid(2)), 6)
    C = unnormalized_chains(nd.sset)
    assert graded_homology(C, through=5) == (
        Z,
        FPAbelianGroup(0, (2,)),
        ZERO,
        FPAbelianGroup(0, (2,)),
        ZERO,
        FPAbelianGroup(0, (2,)),
    )


def test_nerve_map_of_functor():
    f = nerve_map(point_into_interval(), 3)
    assert check_sset_map(f).ok
    assert f.tables[0] == (1,)
    assert f.tables[1] == (2,)


def test_unit_insertion_gives_degeneracy_identities():
    C = poset_category(2)
    nd = nerve(C, 3)
    for p in range(3):
        for s, chain in enumerate(nd.chains[p]):
            for i in range(p + 1):
                # the unit of the i-th visited object, spliced in one level up
                u = C.units[chain_object(C, chain, i)]
                t = nd.index[p + 1][chain[:i] + (u,) + chain[i:] if p else (u,)]
                assert nd.sset.face(p + 1, i, t) == s
                assert nd.sset.face(p + 1, i + 1, t) == s


def test_path_space_contraction_of_unital_nerve():
    cert = nerve_path_contraction(poset_category(1), 4)
    rep = check_certificate(cert)
    assert rep.ok
    h = chain_homotopy_from_certificate(cert)
    assert check_chain_homotopy(h).ok
    ok, failures = acyclic_through(h.source, 2)
    assert ok, failures
    with pytest.raises(ValueError, match=r"^path space needs levels through 1$"):
        nerve_path_contraction(poset_category(1), 0)


def test_path_space_contraction_of_group_nerve():
    cert = nerve_path_contraction(monoid_as_category(cyclic_group_monoid(3)), 4)
    assert check_certificate(cert).ok
    h = chain_homotopy_from_certificate(cert)
    assert check_chain_homotopy(h).ok


def test_unitalize_composable_pair():
    C = composable_pair_category()
    plus = unitalize(C)
    assert validate_category(plus).ok
    assert plus.is_unital
    assert plus.n_morphisms == 6
    assert plus.units == (3, 4, 5)
    assert nerve(plus, 2).sset.sizes == (3, 6, 10)
    inclusion = FunctorData(C, plus, tuple(range(C.n_objects)), tuple(range(C.n_morphisms)))
    assert check_sset_map(nerve_map(inclusion, 2)).ok


def test_unitalize_always_adds_fresh_units():
    plus = unitalize(poset_category(0))
    assert plus.n_morphisms == 2
    assert validate_category(plus).ok


@pytest.mark.parametrize("name", sorted(nonunital_category_corpus()))
def test_unitalize_adds_exactly_the_unit_laws(name):
    C = nonunital_category_corpus()[name]
    m, n = C.n_morphisms, C.n_objects
    plus = unitalize(C)
    units = tuple(m + c for c in range(n))
    assert plus.units == units
    assert (plus.src, plus.tgt) == (C.src + tuple(range(n)), C.tgt + tuple(range(n)))
    want = dict(C.comp)
    for f in range(m):
        want[(units[C.src[f]], f)] = want[(f, units[C.tgt[f]])] = f
    want.update({(u, u): u for u in units})
    assert plus.comp == want


def test_over_category_of_poset():
    over = over_category(poset_category(2), 2)
    assert validate_category(over).ok
    assert over.is_unital
    assert (over.n_objects, over.n_morphisms) == (3, 6)
    nd = nerve(over, 3)
    assert graded_homology(unnormalized_chains(nd.sset), through=2) == (Z, ZERO, ZERO)


def test_under_category_of_poset():
    under = comma_under_object(identity_functor(poset_category(2)), 0)
    assert validate_category(under).ok
    assert under.is_unital
    assert (under.n_objects, under.n_morphisms) == (3, 6)


def test_over_category_non_unital():
    over = over_category(composable_pair_category(), 2)
    # arrows into 2: the composite and the second leg
    assert over.n_objects == 2
    assert validate_category(over).ok
    assert not over.is_unital


def test_comma_resolution_sizes():
    res = comma_resolution(identity_functor(poset_category(1)), 2)
    assert res.bisset.sizes == ((3, 4, 5), (4, 5, 6), (5, 6, 7))
    assert validate_bisset(res.bisset).ok


@pytest.mark.parametrize("dual", [False, True])
def test_comma_resolution_projections_are_simplicial(dual):
    for F in (identity_functor(poset_category(2)),
              point_into_interval()):
        res = comma_resolution(F, 2, dual=dual)
        B = res.bisset
        assert validate_bisset(B).ok
        cn, dn = res.c_nerve.sset, res.d_nerve.sset
        for p in range(3):
            for q in range(3):
                for s in range(B.sizes[p][q]):
                    for i in range(p + 1):
                        if p >= 1:
                            t = B.dh[p][q][i][s]
                            assert res.eps[p - 1][q][t] == cn.face(p, i, res.eps[p][q][s])
                            assert res.eta[p - 1][q][t] == res.eta[p][q][s]
                    for j in range(q + 1):
                        if q >= 1:
                            t = B.dv[p][q][j][s]
                            assert res.eps[p][q - 1][t] == res.eps[p][q][s]
                            assert res.eta[p][q - 1][t] == dn.face(q, j, res.eta[p][q][s])


def test_row_contractions_certify():
    res = comma_resolution(identity_functor(poset_category(1)), 3)
    with pytest.raises(ValueError, match="dual resolution"):
        row_contraction(res, 0)


def test_dual_row_contractions_certify():
    res = comma_resolution(identity_functor(poset_category(1)), 3, dual=True)
    for p in range(4):
        rep = check_certificate(row_contraction(res, p))
        assert rep.ok, rep.problems


def test_row_is_a_valid_sset():
    res = comma_resolution(point_into_interval(), 3, dual=True)
    for p in range(4):
        assert validate_sset(row_contraction(res, p).space).ok


def test_eta_fibers_of_identity_resolution():
    res = comma_resolution(identity_functor(poset_category(1)), 2)
    fib0 = eta_fiber(res, 0, 0)
    assert fib0.sizes == (1, 1, 1)
    fib1 = eta_fiber(res, 0, 1)
    assert fib1.sizes == (2, 3, 4)
    assert validate_sset(fib1).ok
    assert graded_homology(unnormalized_chains(fib1), through=1) == (Z, ZERO)
    # over the 1-chain at the non-trivial edge the fiber is again a point
    edge_fiber = eta_fiber(res, 1, 1)
    assert edge_fiber.sizes == (1, 1, 1)


def test_nat_trans_to_constant_functor():
    C = poset_category(1)
    F = identity_functor(C)
    G = FunctorData(C, C, (1, 1), (2, 2, 2))
    assert validate_functor(G).ok
    eta = NatTransData(F, G, (1, 2))
    assert validate_nat_trans(eta).ok
    cert = nat_trans_homotopy(eta, 3)
    rep = check_certificate(cert)
    assert rep.ok, rep.problems
    assert cert.f == nerve_map(G, 3)
    assert cert.g == nerve_map(F, 3)
    h = chain_homotopy_from_certificate(cert)
    assert check_chain_homotopy(h).ok


def _edited(tables, at, value):
    """``tables`` (nested tuples) with the entry at index path ``at`` set to ``value``."""
    i, *rest = at
    entry = _edited(tables[i], rest, value) if rest else value
    return tables[:i] + (entry,) + tables[i + 1:]


def test_certificate_problem_lists_are_exact():
    # prism sections of id => constant on the poset 0 < 1 < 2, one entry of
    # H[2][0] and one of H[2][2] moved: every identity family fails once
    C = poset_category(2)
    G = FunctorData(C, C, (2, 2, 2), (C.units[2],) * C.n_morphisms)
    prism = nat_trans_homotopy(NatTransData(identity_functor(C), G, (2, 4, 5)), 3)
    tri = _edited(_edited(prism.tri, (2, 0, 1), 0), (2, 2, 5), 0)
    assert check_certificate(dataclasses.replace(prism, tri=tri)).problems == (
        "d_0 H[2][0] != f at simplex 1",
        "d_3 H[2][2] != g at simplex 5",
        "glue d_1 H[2][1] != d_1 H[2][0] at simplex 1",
        "glue d_2 H[2][2] != d_2 H[2][1] at simplex 5",
        "d_2 H[2][0] != H[1][0] d_1 at simplex 1",
        "d_3 H[2][0] != H[1][0] d_2 at simplex 1",
        "d_0 H[2][2] != H[1][1] d_0 at simplex 5",
        "d_1 H[2][2] != H[1][1] d_1 at simplex 5",
    )
    # the bar contraction of Z/2 with h_2 sending simplex 2 to 0
    bar = nerve_path_contraction(monoid_as_category(cyclic_group_monoid(2)), 4)
    assert check_certificate(dataclasses.replace(bar, up=_edited(bar.up, (1, 2), 0))).problems == (
        "d_2 h_2 != id at level 1 simplex 2",
        "d_1 h_2 != h_1 d_1 at level 1 simplex 2",
        "d_0 h_3 != h_2 d_0 at level 2 simplex 2",
        "d_0 h_3 != h_2 d_0 at level 2 simplex 6",
        "d_1 h_3 != h_2 d_1 at level 2 simplex 2",
        "d_1 h_3 != h_2 d_1 at level 2 simplex 4",
        "d_2 h_3 != h_2 d_2 at level 2 simplex 4",
        "d_2 h_3 != h_2 d_2 at level 2 simplex 7",
    )
    # an augmentation that is not constant on two edges names only the first
    split = dataclasses.replace(bar, space=standard_semi_simplex(2), aug_size=2, aug=(0, 1, 1),
                                h0=(0, 1), up=())
    assert check_certificate(split).problems == ("augmentation not constant on edge 0",)


def test_nat_trans_validation_catches_wrong_component():
    C = poset_category(1)
    F = identity_functor(C)
    G = FunctorData(C, C, (1, 1), (2, 2, 2))
    assert not validate_nat_trans(NatTransData(F, G, (0, 2))).ok


def test_functor_validation():
    assert validate_functor(point_into_interval()).ok
    C = poset_category(1)
    broken = FunctorData(poset_category(0), C, (1,), (1,))
    assert not validate_functor(broken).ok


def test_monoid_validation_and_forms():
    for M in (cyclic_group_monoid(2), cyclic_group_monoid(3),
              klein_four_monoid(), absorbing_pair_monoid()):
        assert validate_monoid(M).ok
        assert is_commutative_monoid(M)
    assert is_group(cyclic_group_monoid(5))
    assert not is_group(absorbing_pair_monoid())
    assert validate_presentation(free_rank_one_presentation()).ok
    bad = FinMonoid(table=((0, 1), (1, 0)), unit=1)
    assert not validate_monoid(bad).ok


def test_a_monoid_with_a_table_and_a_presentation_is_refused():
    with pytest.raises(TypeError):
        FinMonoid(table=((0,),), unit=0, gens=1)
    with pytest.raises(TypeError):
        MonoidPresentation(gens=1, relations=(), table=((0,),))


def test_monoid_as_category_round_trip():
    M = cyclic_group_monoid(4)
    C = monoid_as_category(M)
    assert validate_category(C).ok
    assert C.is_unital
    pres = monoid_presentation(M)
    assert pres.gens == 4
    assert len(pres.relations) == 10


def test_monoid_presentation_refuses_a_non_commutative_table():
    # a presentation of the left-zero table would present a different,
    # commutative monoid, whose completion is 0
    left_zero = FinMonoid(table=((0, 1, 2), (1, 1, 1), (2, 2, 2)), unit=0)
    assert validate_monoid(left_zero).ok
    with pytest.raises(ValueError, match="needs a commutative monoid"):
        monoid_presentation(left_zero)


def test_actions_validate():
    M = cyclic_group_monoid(3)
    for A in (trivial_action(M, "left"), trivial_action(M, "right"),
              regular_action(M, "left"), regular_action(M, "right")):
        assert validate_action(A).ok
    bad = MonoidAction(M, 2, ((0, 1), (1, 0), (0, 1)), "left")
    assert not validate_action(bad).ok


# -- exact problem lists: shapes first, then each law on whole tables, cut at 20 --


def _table_category(rows, units=None) -> FinNonUnitalCategory:
    """One object; composing a then b is rows[a][b]."""
    n = len(rows)
    return FinNonUnitalCategory(1, (0,) * n, (0,) * n,
                                {(a, b): rows[a][b] for a in range(n) for b in range(n)}, units)


def test_validate_category_lists_the_first_20_associativity_failures():
    C = _table_category([[(a - b) % 4 for b in range(4)] for a in range(4)])
    assert validate_category(C).problems == tuple(
        f"associativity fails on ({f},{g},{h})" for f, g, h in (
            (0, 0, 1), (0, 0, 3), (0, 1, 1), (0, 1, 3), (0, 2, 1), (0, 2, 3), (0, 3, 1),
            (0, 3, 3), (1, 0, 1), (1, 0, 3), (1, 1, 1), (1, 1, 3), (1, 2, 1), (1, 2, 3),
            (1, 3, 1), (1, 3, 3), (2, 0, 1), (2, 0, 3), (2, 1, 1), (2, 1, 3)))


def test_validate_category_names_the_first_unit_law_failure():
    # the right law fails at morphism 1 and the left law at morphism 2;
    # morphism by morphism, the right law at 1 comes first
    C = _table_category([(0, 1, 0)] * 3, units=(0,))
    assert validate_category(C).problems == ("unit law fails on the right of morphism 1",)


def test_validate_functor_lists_the_first_20_failures():
    C = poset_category(3)
    F = FunctorData(C, C, (0, 1, 2, 3), tuple(range(9, -1, -1)))
    assert validate_functor(F).problems == tuple(
        f"morphism {f}: endpoints not preserved" for f in range(10)) + tuple(
        f"composite of ({f},{g}) not preserved" for f, g in (
            (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (2, 7), (2, 8), (3, 9), (4, 4)))


def test_validate_nat_trans_lists_the_first_20_failures():
    # id => negation on Z/23: the square at f commutes only for f = 0
    C = monoid_as_category(cyclic_group_monoid(23))
    G = FunctorData(C, C, (0,), tuple(-f % 23 for f in range(23)))
    assert validate_functor(G).ok
    rep = validate_nat_trans(NatTransData(identity_functor(C), G, (5,)))
    assert rep.problems == tuple(f"naturality square fails at morphism {f}" for f in range(1, 21))


def test_validate_monoid_lists_the_first_20_failures():
    M = FinMonoid(table=tuple(tuple((a - b) % 3 for b in range(3)) for a in range(3)), unit=0)
    assert validate_monoid(M).problems == (
        "unit law fails at element 1", "unit law fails at element 2") + tuple(
        f"associativity fails at ({a},{b},{c})" for a in range(3) for b in range(3)
        for c in (1, 2))


def test_validate_monoid_cuts_unit_law_failures_at_20():
    # subtraction on Z/21: the unit law fails at 20 elements, and the
    # associativity failures after them are all cut
    M = FinMonoid(table=tuple(tuple((a - b) % 21 for b in range(21)) for a in range(21)), unit=0)
    assert validate_monoid(M).problems == tuple(
        f"unit law fails at element {a}" for a in range(1, 21))


def test_validate_action_lists_the_first_20_failures_on_either_side():
    M = cyclic_group_monoid(3)
    left = MonoidAction(M, 8, tuple(tuple(x * (m + 2) % 8 for x in range(8)) for m in range(3)),
                        "left")
    right = MonoidAction(M, 8, tuple(zip(*left.table)), "right")
    units = tuple(f"unit does not fix element {x}" for x in range(1, 8))
    failing = ((0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 5), (0, 0, 6), (0, 0, 7), (0, 1, 1),
               (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 1, 7))
    assert validate_action(left).problems == units + tuple(
        f"associativity fails at ({m},{m2},{x})" for m, m2, x in failing)
    assert validate_action(right).problems == units + tuple(
        f"associativity fails at ({x},{m},{m2})" for m, m2, x in failing)


def test_validate_action_cuts_unit_law_failures_at_20():
    # the unit of Z/2 shifts all 21 elements
    M = cyclic_group_monoid(2)
    A = MonoidAction(M, 21, (tuple((x + 1) % 21 for x in range(21)), tuple(range(21))), "left")
    assert validate_action(A).problems == tuple(f"unit does not fix element {x}" for x in range(20))


# -- nested documents ---------------------------------------------------------------


def test_functor_is_valid_only_when_its_categories_are():
    C = poset_category(1)
    broken = FinNonUnitalCategory(C.n_objects, C.src, C.tgt,
                                  {k: v for k, v in C.comp.items() if k != (2, 2)}, C.units)
    rep = validate_functor(FunctorData(broken, broken, (0, 1), (0, 1, 2)))
    assert rep.problems == ("source: composition missing on [(2, 2)]",
                            "target: composition missing on [(2, 2)]")


def test_nat_trans_functors_are_validated_before_naturality():
    # F sends the arrow 0 -> 1 to the unit of 0, so the square at it does not
    # compose; F is reported instead of the square being looked up
    C = poset_category(1)
    F = FunctorData(C, C, (0, 1), (0, 0, 2))
    rep = validate_nat_trans(NatTransData(F, identity_functor(C), (0, 2)))
    assert rep.problems == ("F: morphism 1: endpoints not preserved",
                            "F: composite of (1,2) not preserved")


def test_nat_trans_compares_equal_categories_not_identical_ones():
    C = poset_category(1)
    copy = FinNonUnitalCategory(C.n_objects, C.src, C.tgt, dict(C.comp), C.units)
    eta = NatTransData(identity_functor(C), identity_functor(copy), C.units)
    assert validate_nat_trans(eta).ok
    other = identity_functor(poset_category(0))
    assert validate_nat_trans(NatTransData(identity_functor(C), other, C.units)).problems == (
        "the two functors do not share source and target",)


def test_action_is_valid_only_when_its_monoid_is():
    bad = FinMonoid(table=((0, 1), (1, 0)), unit=1)
    A = MonoidAction(bad, 1, ((0,), (0,)), "left")
    assert validate_action(A).problems == ("monoid: unit law fails at element 0",
                                           "monoid: unit law fails at element 1")


def test_action_over_a_presentation_is_reported_not_raised():
    A = MonoidAction(free_rank_one_presentation(), 1, ((0,),), "left")
    assert validate_action(A).problems == ("an action needs a table-form monoid",)


def test_bar_of_trivial_actions_is_the_nerve():
    M = cyclic_group_monoid(2)
    B = bar_construction(trivial_action(M, "right"), M, trivial_action(M, "left"), 3)
    nd = nerve(monoid_as_category(M), 3)
    assert B.sizes == nd.sset.sizes
    assert B.faces == nd.sset.faces


def test_bar_one_sided_sizes():
    M = cyclic_group_monoid(2)
    B = bar_construction(trivial_action(M, "right"), M, regular_action(M, "left"), 3)
    assert B.sizes == (2, 4, 8, 16)
    assert validate_sset(B).ok


def test_bar_rejects_mismatched_actions():
    M = cyclic_group_monoid(2)
    with pytest.raises(ValueError):
        bar_construction(trivial_action(M, "left"), M, regular_action(M, "left"), 2)


LEFT_ZERO = FinMonoid(table=((0, 1, 2), (1, 1, 1), (2, 2, 2)), unit=0)


@pytest.mark.parametrize("M", [cyclic_group_monoid(2), cyclic_group_monoid(3),
                               klein_four_monoid(), absorbing_pair_monoid(),
                               trivial_monoid(), LEFT_ZERO],
                         ids=["Z2", "Z3", "V4", "absorbing", "trivial", "left-zero"])
def test_monoid_path_contraction_is_the_bar_contraction(M):
    # B(*, M, M) is the path space of the nerve of M: level p of both lists
    # (m_1, .., m_p, x) in base |M|, and appending x as a letter restarts at
    # the unit, so h_{p+1} sends position s to s * |M| + unit
    for N in range(6):
        cert = nerve_path_contraction(monoid_as_category(M), N + 1)
        bar = bar_construction(trivial_action(M, "right"), M, regular_action(M, "left"), N)
        assert cert.space == bar
        assert (cert.aug_size, cert.aug, cert.h0) == (1, (0,) * bar.sizes[0], (M.unit,))
        assert cert.up == tuple(tuple(s * M.size + M.unit for s in range(bar.sizes[p]))
                                for p in range(N))


@pytest.mark.parametrize("M", [cyclic_group_monoid(2), cyclic_group_monoid(3),
                               absorbing_pair_monoid()])
def test_bar_path_contraction_contracts(M):
    cert = nerve_path_contraction(monoid_as_category(M), 5)
    rep = check_certificate(cert)
    assert rep.ok, rep.problems
    h = chain_homotopy_from_certificate(cert)
    assert check_chain_homotopy(h).ok
    ok, failures = acyclic_through(h.source, 3)
    assert ok, failures


HOMOTOPIES = {
    "bar": lambda: nerve_path_contraction(monoid_as_category(cyclic_group_monoid(2)), 4),
    "prism": lambda: nat_trans_homotopy(NatTransData(
        identity_functor(poset_category(1)),
        FunctorData(poset_category(1), poset_category(1), (1, 1), (2, 2, 2)), (1, 2)), 3),
}


@pytest.mark.parametrize("kind", sorted(HOMOTOPIES))
def test_scaled_homotopy_matrix_is_refused(kind):
    # P_k enters dP + Pd in degrees k and k + 1, so doubling it breaks both
    h = chain_homotopy_from_certificate(HOMOTOPIES[kind]())
    assert check_chain_homotopy(h).ok
    for k in range(len(h.P)):
        P = h.P[:k] + (h.P[k].scale(2),) + h.P[k + 1:]
        rep = check_chain_homotopy(dataclasses.replace(h, P=P))
        assert not rep.ok
        assert rep.problems == tuple(f"dP + Pd != to - from in degree {j}"
                                     for j in (k, k + 1) if j <= h.through)


def test_grothendieck_groups():
    assert grothendieck_group(free_rank_one_presentation()) == FPAbelianGroup(1, ())
    assert grothendieck_group(glued_pair_presentation()) == FPAbelianGroup(1, ())
    assert grothendieck_group(absorbing_pair_monoid()) == FPAbelianGroup(0, ())
    assert grothendieck_group(cyclic_group_monoid(2)) == FPAbelianGroup(0, (2,))
    assert grothendieck_group(cyclic_group_monoid(6)) == FPAbelianGroup(0, (6,))
    assert grothendieck_group(klein_four_monoid()) == FPAbelianGroup(0, (2, 2))


def test_grothendieck_rejects_noncommutative():
    # S_3 as the symmetries of a triangle
    import itertools
    elems = list(itertools.permutations(range(3)))
    pos = {e: i for i, e in enumerate(elems)}
    table = tuple(
        tuple(pos[tuple(b[a[k]] for k in range(3))] for b in elems) for a in elems)
    M = FinMonoid(table=table, unit=pos[(0, 1, 2)])
    assert validate_monoid(M).ok
    with pytest.raises(ValueError):
        grothendieck_group(M)


def test_nonunital_fixture_categories_validate():
    for C in (idempotent_category(), discrete_category(3),
              parallel_arrows_category(2), grid_poset_category()):
        assert validate_category(C).ok
    assert grid_poset_category().is_unital


def test_parallel_arrows_nerve_is_a_wedge():
    nd = nerve(parallel_arrows_category(3), 2)
    assert nd.sset.sizes == (2, 3, 0)
    H = graded_homology(unnormalized_chains(nd.sset))
    assert H[0] == Z
    assert H[1] == FPAbelianGroup(2, ())
