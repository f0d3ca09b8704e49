"""Acceptance gate: one test per advertised capability.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per item.
"""

import test_properties
from oracles import diagonal, nonunital_category_corpus
from test_specseq import induced_d1

from ssethom import theorems as th
from ssethom.cat import monoid_as_category, nerve
from ssethom.fixtures import (
    absorbing_pair_monoid,
    cyclic_group_monoid,
    discrete_pair_into_interval,
    free_rank_one_presentation,
    glued_pair_presentation,
    quillen_functor_corpus,
    random_semi_simplicial,
    random_simplicial,
    real_projective_plane,
    sset_corpus,
)
from ssethom.homalg import (
    FPAbelianGroup,
    bicomplex,
    graded_homology,
    total_complex,
    unnormalized_chains,
)
from ssethom.specseq import check_convergence, spectral_sequence
from ssethom.sset import (
    boundary_semi_simplex,
    euler_characteristic,
    exterior_product,
    free_degeneracies,
    standard_semi_simplex,
    standard_simplicial_simplex,
)

Z = FPAbelianGroup(1)
Z2 = FPAbelianGroup(0, (2,))
ZERO = FPAbelianGroup(0)


def groups(X, through=None):
    return graded_homology(unnormalized_chains(X), through=through)


def test_criterion_01_classical_homology():
    assert groups(boundary_semi_simplex(2)) == (Z, Z)
    assert groups(boundary_semi_simplex(3)) == (Z, ZERO, Z)
    assert groups(boundary_semi_simplex(4)) == (Z, ZERO, ZERO, Z)
    assert groups(real_projective_plane()) == (Z, Z2, ZERO)
    bz2 = nerve(monoid_as_category(cyclic_group_monoid(2)), 7).sset
    assert groups(bz2, through=5) == (Z, Z2, ZERO, Z2, ZERO, Z2)


def test_criterion_02_free_unit_map_is_equivalence():
    corpus = sset_corpus()
    assert len(corpus) >= 10
    for name, X in corpus.items():
        assert th.check_adj_units(X, 5).verdict == "pass", name
    for seed in range(20):
        assert th.check_adj_units(random_semi_simplicial(seed), 5).verdict == "pass", seed


def test_criterion_03_fat_thin_comparison():
    spaces = [standard_simplicial_simplex(n) for n in range(4)]
    spaces.append(free_degeneracies(boundary_semi_simplex(2)))
    spaces.append(free_degeneracies(real_projective_plane()))
    for Y in spaces:
        assert th.check_fat_thin(Y, 5).verdict == "pass"


def test_criterion_04_diagonal_is_weak_equivalence():
    for n in range(3):
        for m in range(3):
            rep = th.check_ez_diagonal(standard_simplicial_simplex(n),
                                       standard_simplicial_simplex(m), 3)
            assert rep.verdict == "pass", (n, m)
    circle2 = free_degeneracies(boundary_semi_simplex(2))
    rep = th.check_ez_diagonal(circle2, circle2, 4)
    assert rep.verdict == "pass"
    assert [(c.degree, c.left) for c in rep.comparisons] == \
        [(0, Z), (1, FPAbelianGroup(2)), (2, Z)]
    rp2 = free_degeneracies(real_projective_plane())
    assert th.check_ez_diagonal(rp2, rp2, 4).verdict == "pass"
    for seed in range(20):
        rep = th.check_ez_diagonal(random_simplicial(2 * seed), random_simplicial(2 * seed + 1), 3)
        assert rep.verdict == "pass", seed
    # the diagonal of a product of two intervals is a triangle, not a
    # square: its Euler characteristic is 3, yet the total complex of the
    # product still has point homology
    s1 = standard_semi_simplex(1)
    B = exterior_product(s1, s1)
    assert euler_characteristic(diagonal(B)) == 3
    tot = total_complex(bicomplex(B)).complex
    assert graded_homology(tot) == (Z, ZERO, ZERO)


def test_criterion_05_products_match_kunneth_oracle():
    for n in range(3):
        for m in range(3):
            rep = th.check_products(standard_simplicial_simplex(n),
                                    standard_simplicial_simplex(m), 3)
            assert rep.verdict == "pass", (n, m)
    circle2 = free_degeneracies(boundary_semi_simplex(2))
    assert th.check_products(circle2, circle2, 4).verdict == "pass"
    rp2 = free_degeneracies(real_projective_plane())
    rep = th.check_products(rp2, rp2, 4)
    assert rep.verdict == "pass"
    degree3 = [c for c in rep.comparisons if c.degree == 3]
    assert degree3 and degree3[0].left == Z2 and degree3[0].right == Z2


def test_criterion_06_unitalization_inclusion():
    corpus = nonunital_category_corpus()
    assert len(corpus) >= 5
    for name, C in corpus.items():
        assert th.check_krannich(C, 5).verdict == "pass", name


def test_criterion_07_fiber_criterion_with_resolution():
    functors = quillen_functor_corpus()
    for name in ("endpoint", "collapse", "id0", "id1", "id2"):
        assert th.check_quillen_a(functors[name], 4).verdict == "pass", name
        assert th.check_resolution_triangle(functors[name], 4).verdict == "pass", name
    rep = th.check_quillen_a(discrete_pair_into_interval(), 4)
    assert rep.verdict == "fail"
    assert "hypotheses not met" in rep.notes


def test_criterion_08_group_completion_and_bar():
    rep = th.group_completion_report(free_rank_one_presentation(), 0)
    labels = [it.label for it in rep.hypotheses]
    assert "Grothendieck group is Z" in labels
    assert "localized degree-0 ring is Z[t,t^-1]" in labels
    rep = th.group_completion_report(glued_pair_presentation(), 0)
    assert "Grothendieck group is Z" in [it.label for it in rep.hypotheses]
    rep = th.group_completion_report(absorbing_pair_monoid(), 7)
    assert rep.verdict == "pass"
    assert "Grothendieck group is 0" in [it.label for it in rep.hypotheses]
    assert len(rep.comparisons) == 7
    assert all(c.equal for c in rep.comparisons)
    for M in (cyclic_group_monoid(2), cyclic_group_monoid(3), absorbing_pair_monoid()):
        rep = th.check_bar_acyclic(M, 6)
        assert rep.verdict == "pass"
        assert any("matrix-exact" in it.label and it.ok for it in rep.hypotheses)


def test_criterion_09_spectral_sequence_pages():
    corpus = sset_corpus()
    interval, circle = corpus["interval"], corpus["circle"]

    D = bicomplex(exterior_product(interval, interval))
    pages = spectral_sequence(D, "F2")
    for page in pages:
        if page.r >= 2:
            assert {k: v for k, v in page.dims.items() if v} == {(0, 0): 1}
    assert {k: v for k, v in pages[-1].dims.items() if v} == {(0, 0): 1}

    T = bicomplex(exterior_product(circle, circle))
    tpages = spectral_sequence(T, "Q")
    last = tpages[-1]
    totals = [sum(d for (p, q), d in last.dims.items() if p + q == n) for n in range(3)]
    assert totals == [1, 2, 1]
    conv = check_convergence(tpages, total_complex(T), "Q")
    assert conv.ok

    for D2, prime, pp in ((D, 2, pages), (T, None, tpages)):
        checked = 0
        for (p, q), matrix in pp[1].diff.items():
            assert matrix == induced_d1(D2, prime, pp, p, q)
            checked += 1
        assert checked > 0

    for D2, ring in ((D, "F2"), (T, "Q")):
        cols = spectral_sequence(D2, ring, orientation="cols")[-1]
        rows = spectral_sequence(D2, ring, orientation="rows")[-1]
        top = len(D2.sizes) + len(D2.sizes[0])
        for n in range(top):
            assert sum(d for (p, q), d in cols.dims.items() if p + q == n) == \
                sum(d for (p, q), d in rows.dims.items() if p + q == n)


def test_criterion_10_skeleton_shadow_full_sweep():
    for name, X in sset_corpus().items():
        for n in range(4):
            rep = th.check_skeletal_shadow(X, n, 4)
            assert rep.verdict == "pass", (name, n, rep.verdict)


def test_criterion_11_segal_and_path_space():
    for k in (2, 3):
        rep = th.check_segal_nerve(cyclic_group_monoid(k), 5)
        assert rep.verdict == "pass"
        assert any("acyclic" in it.label and it.ok for it in rep.hypotheses)


def test_criterion_12_property_suites():
    test_properties.test_simplicial_identity_validation()
    test_properties.test_normalize_face_exhaustive_oracle()
    test_properties.test_adjunction_triangle_identities()
    test_properties.test_boundary_squared_is_zero_everywhere()
    test_properties.test_chain_homotopy_identity_for_every_certificate()
    test_properties.test_report_determinism()
