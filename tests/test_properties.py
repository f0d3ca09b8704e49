"""Cross-module property suites.

Everything here runs with the rest of the tests under a single ``pytest``
invocation; the suites sweep whole fixture families rather than single
examples.
"""

import json

from oracles import (
    monotone_to_simplex_ref,
    nonunital_category_corpus,
    simplex_ref_to_monotone,
    trivial_monoid,
)
from ssethom.cat import (
    FinMonoid,
    FunctorData,
    NatTransData,
    bar_construction,
    bar_extra_degeneracy,
    comma_resolution,
    eta_fiber,
    identity_functor,
    monoid_as_category,
    nat_trans_homotopy,
    nerve,
    nerve_path_contraction,
    regular_action,
    row_contraction,
    trivial_action,
    unitalize,
)
from ssethom.fixtures import (
    absorbing_pair_monoid,
    composable_pair_category,
    cyclic_group_monoid,
    grid_poset_category,
    klein_four_monoid,
    parallel_edges,
    poset_category,
    quillen_functor_corpus,
    random_semi_simplicial,
    random_simplicial,
    real_projective_plane,
    sset_corpus,
)
from ssethom.homalg import (
    bicomplex,
    chain_homotopy_from_certificate,
    check_chain_homotopy,
    normalized_chains,
    total_complex,
    unnormalized_chains,
)
from ssethom.sset import (
    SemiSimplicialSet,
    SimplexRef,
    boundary_semi_simplex,
    check_certificate,
    enumerate_simplicial,
    exterior_product,
    free_degeneracies,
    iter_simplices,
    normalize_face,
    standard_semi_simplex,
    standard_simplicial_simplex,
    unit_map,
    validate_bisset,
    validate_simplicial,
    validate_sset,
)
from ssethom import theorems


def test_simplicial_identity_validation():
    for X in sset_corpus().values():
        assert validate_sset(X).ok
    for seed in range(8):
        assert validate_sset(random_semi_simplicial(seed)).ok
        assert validate_simplicial(random_simplicial(seed)).ok
    broken = SemiSimplicialSet(
        (2, 2, 1), ((), ((0, 1), (1, 0)), ((0,), (1,), (0,))))
    rep = validate_sset(broken)
    assert not rep.ok
    assert any("face identity" in p for p in rep.problems)


def test_normalize_face_exhaustive_oracle():
    # on the standard simplicial n-simplex every simplex is a monotone map
    # into [n] and d_i deletes the i-th value; independent of the canonical
    # word arithmetic that normalize_face uses
    for n in range(4):
        Y = standard_simplicial_simplex(n)
        for p in range(1, 4):
            for ref in iter_simplices(Y, p):
                vals = simplex_ref_to_monotone(n, ref)
                assert monotone_to_simplex_ref(n, vals) == ref
                for i in range(p + 1):
                    want = monotone_to_simplex_ref(n, vals[:i] + vals[i + 1:])
                    assert normalize_face(Y, i, ref) == want


def test_adjunction_triangle_identities():
    # the unit of the free/underlying adjunction sends each simplex to its
    # own nondegenerate generator, on semi-simplicial sets and on the
    # underlying sets of simplicial sets
    level = 3
    spaces = [boundary_semi_simplex(2), real_projective_plane(), parallel_edges(3)]
    spaces += [enumerate_simplicial(Y, level).sset
               for Y in (standard_simplicial_simplex(2),
                         free_degeneracies(boundary_semi_simplex(2)),
                         random_simplicial(5))]
    for X in spaces:
        f, en = unit_map(X, level)
        for p in range(min(level, len(X.sizes) - 1) + 1):
            for s in range(X.sizes[p]):
                assert en.refs[p][f.tables[p][s]] == SimplexRef((), p, s)


def _complex_zoo():
    out = []
    for X in sset_corpus().values():
        out.append(unnormalized_chains(X))
    for seed in range(4):
        out.append(normalized_chains(random_simplicial(seed)))
    for M in (cyclic_group_monoid(3), klein_four_monoid(), absorbing_pair_monoid()):
        out.append(unnormalized_chains(nerve(monoid_as_category(M), 4).sset))
        out.append(unnormalized_chains(
            bar_construction(trivial_action(M, "right"), M,
                             regular_action(M, "left"), 4)))
    circle = sset_corpus()["circle"]
    out.append(total_complex(bicomplex(exterior_product(circle, circle))).complex)
    for F in quillen_functor_corpus().values():
        res = comma_resolution(F, 3)
        out.append(total_complex(bicomplex(res.bisset)).complex)
    return out


def test_boundary_squared_is_zero_everywhere():
    for C in _complex_zoo():
        for k in range(2, C.top_degree + 1):
            assert C.boundary(k - 1).mul(C.boundary(k)).is_zero()


def _certificate_zoo():
    certs = []
    for n in range(4):
        certs.append(nerve_path_contraction(poset_category(n), 4))
    certs.append(nerve_path_contraction(grid_poset_category(), 4))
    certs.append(nerve_path_contraction(unitalize(composable_pair_category()), 4))
    for M in (trivial_monoid(), cyclic_group_monoid(2), cyclic_group_monoid(3),
              klein_four_monoid(), absorbing_pair_monoid()):
        certs.append(nerve_path_contraction(monoid_as_category(M), 4))
        certs.append(bar_extra_degeneracy(M, 4))
    for F in quillen_functor_corpus().values():
        res = comma_resolution(F, 3, dual=True)
        for p in range(4):
            certs.append(row_contraction(res, p))
    for n in (1, 2):
        C = poset_category(n)
        arrows_to_top = [next(m for m in range(C.n_morphisms)
                              if C.src[m] == a and C.tgt[m] == n)
                         for a in range(C.n_objects)]
        G = FunctorData(C, C, (n,) * C.n_objects,
                        tuple(C.units[n] for _ in range(C.n_morphisms)))
        eta = NatTransData(identity_functor(C), G, tuple(arrows_to_top))
        certs.append(nat_trans_homotopy(eta, 4))
    return certs


def test_chain_homotopy_identity_for_every_certificate():
    certs = _certificate_zoo()
    assert len(certs) > 30
    for cert in certs:
        assert check_certificate(cert).ok
        h = chain_homotopy_from_certificate(cert)
        assert check_chain_homotopy(h).ok


def _inverts(listing, index):
    return list(index.items()) == [(x, s) for s, x in enumerate(listing)]


def _self_maps_of_two_points():
    """The four self-maps of {0, 1} under "f then g": a noncommutative monoid."""
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]
    return FinMonoid(table=tuple(tuple(maps.index((g[f[0]], g[f[1]])) for g in maps)
                                 for f in maps), unit=0)


def test_listed_spaces_index_their_listing_and_validate():
    monoids = (trivial_monoid(), cyclic_group_monoid(2), cyclic_group_monoid(3),
               klein_four_monoid(), absorbing_pair_monoid(), _self_maps_of_two_points())
    categories = list(nonunital_category_corpus().values()) + [
        grid_poset_category(), unitalize(composable_pair_category())] + [
        monoid_as_category(M) for M in monoids]
    for C in categories:
        nd = nerve(C, 4)
        assert validate_sset(nd.sset).ok
        assert all(_inverts(*level) for level in zip(nd.chains, nd.index))
    for Y in [standard_simplicial_simplex(3)] + [random_simplicial(seed) for seed in range(6)]:
        en = enumerate_simplicial(Y, 3)
        assert validate_sset(en.sset).ok
        assert all(_inverts(*level) for level in zip(en.refs, en.index))
    for F in quillen_functor_corpus().values():
        for dual in (False, True):
            res = comma_resolution(F, 3, dual)
            assert validate_bisset(res.bisset).ok
            assert all(_inverts(*level) for rows in zip(res.elements, res.index)
                       for level in zip(*rows))
            for q in range(4):
                for b in {b for row in res.eta for b in row[q]}:
                    assert validate_sset(eta_fiber(res, q, b)).ok
    for M in monoids:
        for left in (trivial_action, regular_action):
            for right in (trivial_action, regular_action):
                B = bar_construction(left(M, "right"), M, right(M, "left"), 4)
                assert validate_sset(B).ok
    spaces = list(sset_corpus().values())
    for n in range(6):
        assert validate_sset(standard_semi_simplex(n)).ok
    for X in spaces:
        for Y in spaces[:5]:
            assert validate_bisset(exterior_product(X, Y)).ok


def test_report_determinism():
    runs = [
        lambda: theorems.check_adj_units(real_projective_plane(), 4),
        lambda: theorems.check_ez_diagonal(random_simplicial(26), random_simplicial(27), 3),
        lambda: theorems.check_quillen_a(quillen_functor_corpus()["endpoint"], 3),
        lambda: theorems.group_completion_report(absorbing_pair_monoid(), 5),
        lambda: theorems.check_segal_nerve(cyclic_group_monoid(2), 4),
    ]
    for make in runs:
        a, b = make(), make()
        assert a == b
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)
        assert "seconds" not in a.to_dict()
