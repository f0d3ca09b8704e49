import pytest

from ssethom.cat import (
    FinMonoid,
    FinNonUnitalCategory,
    FunctorData,
    MonoidAction,
    NatTransData,
    bar_construction,
    bar_extra_degeneracy,
    comma_resolution,
    comma_under_object,
    eta_fiber,
    grothendieck_group,
    identity_functor,
    insert_unit_chain,
    is_commutative_monoid,
    is_group,
    monoid_as_category,
    monoid_presentation,
    nat_trans_homotopy,
    nerve,
    nerve_map,
    nerve_path_contraction,
    nerve_unitalize_inclusion,
    over_category,
    regular_action,
    resolution_row,
    row_contraction,
    trivial_action,
    unitalize,
    validate_action,
    validate_category,
    validate_functor,
    validate_monoid,
    validate_nat_trans,
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
    parallel_arrows_category,
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
from ssethom.sset import check_certificate, check_sset_map, validate_bisset, validate_sset


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
                longer = insert_unit_chain(C, chain, i)
                t = nd.index[p + 1][longer]
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
    f = nerve_unitalize_inclusion(C, 2)
    assert check_sset_map(f).ok


def test_unitalize_always_adds_fresh_units():
    plus = unitalize(poset_category(0))
    assert plus.n_morphisms == 2
    assert validate_category(plus).ok


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
    res = comma_resolution(point_into_interval(), 3)
    for p in range(4):
        assert validate_sset(resolution_row(res, p)).ok


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
    assert validate_monoid(free_rank_one_presentation()).ok
    assert not free_rank_one_presentation().is_table
    bad = FinMonoid(table=((0, 1), (1, 0)), unit=1)
    assert not validate_monoid(bad).ok


def test_monoid_as_category_round_trip():
    M = cyclic_group_monoid(4)
    C = monoid_as_category(M)
    assert validate_category(C).ok
    assert C.is_unital
    pres = monoid_presentation(M)
    assert pres.gens == 4
    assert len(pres.relations) == 10


def test_actions_validate():
    M = cyclic_group_monoid(3)
    for A in (trivial_action(M, "left"), trivial_action(M, "right"),
              regular_action(M, "left"), regular_action(M, "right")):
        assert validate_action(A).ok
    bad = MonoidAction(M, 2, ((0, 1), (1, 0), (0, 1)), "left")
    assert not validate_action(bad).ok


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


@pytest.mark.parametrize("M", [cyclic_group_monoid(2), cyclic_group_monoid(3),
                               absorbing_pair_monoid()])
def test_bar_extra_degeneracy_contracts(M):
    cert = bar_extra_degeneracy(M, 4)
    rep = check_certificate(cert)
    assert rep.ok, rep.problems
    h = chain_homotopy_from_certificate(cert)
    assert check_chain_homotopy(h).ok
    ok, failures = acyclic_through(h.source, 3)
    assert ok, failures


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
