import contextlib
import glob
import os
import random
from math import gcd, prod

import pytest

from oracles import reference_snf, time_limit
from ssethom import formats
from ssethom.cat import (
    FinMonoid,
    FinNonUnitalCategory,
    FunctorData,
    MonoidAction,
    MonoidPresentation,
    bar_construction,
    comma_resolution,
    monoid_as_category,
    nerve,
    nerve_map,
    trivial_action,
    unitalize,
)
from ssethom.fixtures import (
    cyclic_group_monoid,
    idempotent_category,
    klein_four_monoid,
    quillen_functor_corpus,
    random_simplicial,
    sset_corpus,
)
from ssethom.homalg import (
    _chain_parts,
    _table_matrix,
    ChainComplex,
    ChainMap,
    DoubleComplex,
    FPAbelianGroup,
    acyclic_through,
    alexander_whitney,
    augmented_complex,
    bicomplex,
    chain_homotopy_from_certificate,
    chain_map_from_sset_map,
    check_chain_homotopy,
    compose_chain_maps,
    direct_sum_groups,
    graded_homology,
    group_from_cyclic_orders,
    homology,
    homology_coordinates,
    induced_map_on_homology,
    kunneth_oracle,
    make_chain_complex,
    mapping_cone,
    normalized_chains,
    parse_ring,
    ring_prime,
    tensor_double_complex,
    tensor_groups,
    tor_groups,
    total_complex,
    unnormalized_chains,
)
from ssethom.snf import SparseIntMatrix, smith_normal_form
from ssethom.sset import (
    BiSemiSimplicialSet,
    ExtraDegeneracy,
    PrismHomotopy,
    SemiSimplicialSet,
    SimplicialSet,
    SSetMap,
    boundary_semi_simplex,
    check_certificate,
    constant_sset,
    enumerate_simplicial,
    euler_characteristic,
    exterior_product,
    free_degeneracies,
    skeleton_inclusion,
    standard_semi_simplex,
    validate_sset,
)

Z = FPAbelianGroup(1)
ZERO = FPAbelianGroup(0)


def Zmod(*torsion):
    return FPAbelianGroup(0, torsion)


# -- groups --------------------------------------------------------------------


def count_killed_by(orders, n):
    """Number of x with n*x = 0 in the direct sum of Z/t, one t per entry.

    Together with the total order this separates finite abelian groups, so it
    is an isomorphism-complete oracle for canonicalization.
    """
    out = 1
    for t in orders:
        out *= gcd(n, t)
    return out


def test_group_canonicalization_frozen():
    assert group_from_cyclic_orders(0, [2, 2, 3]).torsion == (2, 6)
    assert group_from_cyclic_orders(0, [6, 4]).torsion == (2, 12)
    assert group_from_cyclic_orders(0, [4, 6, 5]).torsion == (2, 60)
    assert group_from_cyclic_orders(0, [2, 3]).torsion == (6,)
    assert group_from_cyclic_orders(2, [1, 1]) == FPAbelianGroup(2)
    assert str(Zmod(2, 6)) == "Z/2 + Z/6"
    assert str(FPAbelianGroup(2, (2,))) == "Z^2 + Z/2"
    assert str(ZERO) == "0"


def test_group_canonicalization_random():
    # the Mersenne primes 2^61 - 1 and 2^89 - 1 keep trial division running
    # for hours; the probes run over every divisor of the orders' exponent
    rng = random.Random(7)
    m61, m89 = 2 ** 61 - 1, 2 ** 89 - 1
    cases = [[rng.randint(1, 24) for _ in range(rng.randint(0, 5))] for _ in range(200)]
    cases += [[rng.choice((1, 2, 3, 4, 6)) * rng.choice((1, m61, m89))
               for _ in range(rng.randint(0, 5))] for _ in range(50)]
    cases.append([2] * 10 ** 4 + [3] * 10 ** 4)
    probes = list(range(1, 25)) + [m * k for m in (m61, m89, m61 * m89) for k in (1, 2, 3, 4, 6, 12)]
    with time_limit(10):
        groups = [group_from_cyclic_orders(0, orders) for orders in cases]
    assert groups[-1].torsion == (6,) * 10 ** 4
    for orders, g in zip(cases, groups):
        assert g.rank == 0 and prod(g.torsion) == prod(orders)
        for n in probes:
            assert count_killed_by(g.torsion, n) == count_killed_by(orders, n), (orders, n)


def test_group_validation():
    with pytest.raises(ValueError):
        FPAbelianGroup(0, (2, 3))  # not a divisibility chain
    with pytest.raises(ValueError):
        FPAbelianGroup(0, (1, 2))


def test_tensor_and_tor():
    a = FPAbelianGroup(1, (4,))
    b = Zmod(6)
    assert tensor_groups(a, b) == Zmod(2, 6)
    assert tor_groups(a, b) == Zmod(2)
    assert tensor_groups(Z, Z) == Z
    assert tor_groups(Z, Zmod(5)) == ZERO
    assert direct_sum_groups([Z, Zmod(2), Zmod(4)]) == FPAbelianGroup(1, (2, 4))


def test_kunneth_oracle_projective_plane_square():
    h = [Z, Zmod(2), ZERO]
    assert kunneth_oracle(h, h, 0) == Z
    assert kunneth_oracle(h, h, 1) == Zmod(2, 2)
    assert kunneth_oracle(h, h, 2) == Zmod(2)
    assert kunneth_oracle(h, h, 3) == Zmod(2)
    assert kunneth_oracle(h, h, 4) == ZERO


# -- chains of complexes and spheres ---------------------------------------------


def test_ring_parsing():
    assert parse_ring("z") == "Z"
    assert parse_ring("F2") == "F2"
    assert parse_ring(" q ") == "Q"
    with pytest.raises(ValueError):
        parse_ring("F4")
    with pytest.raises(ValueError):
        parse_ring("R")


def test_ring_parsing_large_moduli():
    # primality is decided by deterministic Miller-Rabin, not trial division
    assert parse_ring(f"F{2 ** 61 - 1}") == f"F{2 ** 61 - 1}"
    assert parse_ring("F1000000000039") == "F1000000000039"
    assert parse_ring("F100000000000000000039") == "F100000000000000000039"
    # a Carmichael number, a square of a Mersenne prime, and the least strong
    # pseudoprime to the first 12 prime bases
    for n in (561, (2 ** 31 - 1) ** 2, 318665857834031151167461):
        with pytest.raises(ValueError, match="must be prime"):
            parse_ring(f"F{n}")
    with pytest.raises(ValueError, match="too large"):
        parse_ring(f"F{10 ** 25 + 13}")


def test_sphere_homology():
    for n in (2, 3, 4):
        C = unnormalized_chains(boundary_semi_simplex(n))
        assert C.complete
        hs = graded_homology(C)
        assert hs[0] == Z
        assert hs[n - 1] == Z
        for k in range(1, n - 1):
            assert hs[k] == ZERO


def test_simplex_contractible():
    C = unnormalized_chains(standard_semi_simplex(3))
    assert graded_homology(C) == (Z, ZERO, ZERO, ZERO)
    for ring in ("Q", "F2", "F5"):
        assert [h.rank for h in graded_homology(C, ring=ring)] == [1, 0, 0, 0]


def test_projective_plane_from_face_tables():
    """Two triangles glued along all three edges with a flip."""
    # vertices 0, 1; edges a, b: 0 -> 1 and c: 0 -> 0 (d_0 is the far end)
    edges_d0 = (1, 1, 0)
    edges_d1 = (0, 0, 0)
    tri = ((0, 1), (1, 0), (2, 2))  # d_0, d_1, d_2 of the two triangles
    X = SemiSimplicialSet(
        (2, 3, 2),
        ((), (edges_d0, edges_d1), tri),
    )
    C = unnormalized_chains(X)
    assert graded_homology(C) == (Z, Zmod(2), ZERO)
    # mod 2 the top class survives, over Q nothing does
    assert [h.rank for h in graded_homology(C, ring="F2")] == [1, 1, 1]
    assert [h.rank for h in graded_homology(C, ring="Q")] == [1, 0, 0]


def test_euler_characteristic_equals_alternating_ranks():
    for X in (boundary_semi_simplex(3), standard_semi_simplex(3)):
        hs = graded_homology(unnormalized_chains(X), ring="Q")
        assert euler_characteristic(X) == sum((-1) ** k * h.rank for k, h in enumerate(hs))


def test_truncated_top_is_untrusted():
    X = constant_sset(1, 3)  # a point listed through level 3, truncated there
    C = unnormalized_chains(X)
    assert not C.complete
    assert C.trusted_through == 2
    assert graded_homology(C, through=2) == (Z, ZERO, ZERO)
    with pytest.raises(ValueError):
        acyclic_through(C, 3)


@pytest.mark.parametrize("build", [
    unnormalized_chains,
    lambda X, through: augmented_complex(X, 1, (0,), through),
    lambda X, through: normalized_chains(free_degeneracies(X), through),
], ids=["unnormalized", "augmented", "normalized"])
def test_chains_of_a_truncated_space_refuse_unlisted_levels(build):
    # one truncation rule for the fat and the thin chains: levels above the
    # listed ones of a truncated space are unknown, not zero
    X = constant_sset(1, 3)
    assert build(X, 3).dims[-1] == 1
    with pytest.raises(ValueError) as refused:
        build(X, 4)
    assert str(refused.value) == "levels above 3 are unknown (truncated)"


def test_homology_is_read_in_the_listed_degrees_only():
    C = unnormalized_chains(boundary_semi_simplex(2))
    for k in (-1, 2):
        with pytest.raises(ValueError) as refused:
            homology(C, k)
        assert str(refused.value) == f"degree {k} outside the listed range"


def test_coordinates_refuse_the_top_of_a_truncated_complex():
    C = unnormalized_chains(constant_sset(1, 3))
    assert homology_coordinates(C, 2).group == ZERO
    with pytest.raises(ValueError) as refused:
        homology_coordinates(C, 3)
    assert str(refused.value) == "homology at the top of a truncated complex is not trusted"


# -- random three-term complexes with known homology ------------------------------


def scaled_kernel_complex(rng):
    """0 -> Z^z -> Z^a -> Z^b with the middle map a scaled kernel basis.

    The kernel basis columns are saturated, so after scaling column j by m_j
    the middle homology is exactly the direct sum of Z/m_j.
    """
    b = rng.randint(1, 4)
    a = rng.randint(1, 6)
    A = SparseIntMatrix.from_entries(
        b, a, ((r, c, rng.randint(-3, 3)) for r in range(b) for c in range(a)))
    s = smith_normal_form(A, transforms=True)
    kb = [s.V.column(j) for j in range(s.rank, a)]
    ms = [rng.randint(1, 6) for _ in kb]
    data = {}
    for j, (col, m) in enumerate(zip(kb, ms)):
        for r, v in col.items():
            data.setdefault(r, {})[j] = v * m
    K = SparseIntMatrix(a, len(kb), data)
    C = make_chain_complex((b, a, len(kb)), [A, K], complete=True)
    return C, A, ms


def uct_dim(h_k, h_prev, p):
    if p is None:
        return h_k.rank
    return (h_k.rank
            + sum(1 for t in h_k.torsion if t % p == 0)
            + sum(1 for t in h_prev.torsion if t % p == 0))


@contextlib.contextmanager
def recording_smith_forms():
    """The shape of every matrix homalg puts in Smith form, in call order."""
    from ssethom import homalg

    shapes = []

    def recording(A, transforms=False):
        shapes.append((A.rows, A.cols))
        return smith_normal_form(A, transforms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homalg, "smith_normal_form", recording)
        yield shapes


def test_scaled_kernel_homology_and_uct():
    rng = random.Random(31)
    for _ in range(25):
        C, A, ms = scaled_kernel_complex(rng)
        with recording_smith_forms() as shapes:
            hs = graded_homology(C)
            assert hs[1] == group_from_cyclic_orders(0, ms)
            assert hs[2] == ZERO
            assert sum((-1) ** k * h.rank for k, h in enumerate(hs)) == \
                C.dims[0] - C.dims[1] + C.dims[2]
            for ring, p in (("Q", None), ("F2", 2), ("F3", 3), ("F5", 5)):
                for k in range(3):
                    prev = hs[k - 1] if k else ZERO
                    assert homology(C, k, ring).rank == uct_dim(hs[k], prev, p), (ring, k)
        assert len(shapes) == 2  # d_1 and d_2, once for all five rings


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _fixture_spaces():
    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.ss.json"))
                   + glob.glob(os.path.join(FIXTURES, "*.simp.json")))
    return {os.path.basename(path): (lambda path=path: formats.read_document(path))
            for path in paths}


UCT_SPACES = {
    **_fixture_spaces(),
    "bz4.nerve": lambda: nerve(monoid_as_category(cyclic_group_monoid(4)), 4).sset,
    "bklein4.nerve": lambda: nerve(monoid_as_category(klein_four_monoid()), 4).sset,
}


def _chains(X):
    if isinstance(X, SemiSimplicialSet):
        return unnormalized_chains(X)
    return normalized_chains(X)


@pytest.mark.parametrize("name", sorted(UCT_SPACES))
def test_universal_coefficients_on_corpus_and_nerves(name):
    """dim H_k(X; F_p) and dim H_k(X; Q) follow from H_k(X; Z) and H_{k-1}(X; Z)."""
    C = _chains(UCT_SPACES[name]())
    with recording_smith_forms() as shapes:
        hz = graded_homology(C, C.trusted_through)
        if name.endswith(".nerve"):
            assert hz[1].torsion and not hz[1].rank  # the oracle sees torsion
        for ring, p in (("Q", None), ("F2", 2), ("F3", 3)):
            for k in range(C.trusted_through + 1):
                prev = hz[k - 1] if k else ZERO
                assert homology(C, k, ring).rank == uct_dim(hz[k], prev, p), (ring, k)
    assert len(shapes) == C.top_degree  # each residual d_k once, for all four rings


# -- free-pair reduction against the full Smith form -------------------------------


def assert_matches_full_smith(C):
    """boundary_rank over Z, F2, F3 and Q, and the torsion of H_{k-1} over Z,
    read off smith_normal_form of the unreduced d_k."""
    with recording_smith_forms() as shapes:
        for k in range(1, C.top_degree + 1):
            full = smith_normal_form(C.boundary(k)).factors
            for ring in ("Z", "F2", "F3", "Q"):
                p = ring_prime(ring)
                want = len(full) if p is None else sum(1 for d in full if d % p)
                assert C.boundary_rank(k, ring) == want, (ring, k)
            assert homology(C, k - 1).torsion == tuple(d for d in full if d > 1), k
    assert len(shapes) == C.top_degree  # each residual d_k once, for all four rings


def _corpus_complex(path):
    """The integer chain complex a fixture document stands for, or None."""
    name = os.path.basename(path)
    if name.endswith(".batch.json"):
        return None
    obj = formats.read_document(path)
    if isinstance(obj, SparseIntMatrix):
        return make_chain_complex((obj.rows, obj.cols), [obj], complete=True)
    if isinstance(obj, MonoidPresentation):
        return None
    if isinstance(obj, FinMonoid):
        return unnormalized_chains(nerve(monoid_as_category(obj), 5).sset)
    if isinstance(obj, FinNonUnitalCategory):
        return unnormalized_chains(nerve(obj, 4).sset)
    if isinstance(obj, MonoidAction):
        Y = trivial_action(obj.monoid, "right")
        return unnormalized_chains(bar_construction(Y, obj.monoid, obj, 4))
    if isinstance(obj, FunctorData):
        return total_complex(bicomplex(comma_resolution(obj, 3).bisset)).complex
    if isinstance(obj, BiSemiSimplicialSet):
        return total_complex(bicomplex(obj)).complex
    return _chains(obj)


CORPUS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(FIXTURES, "*.json")))


@pytest.mark.parametrize("name", CORPUS)
def test_free_pair_reduction_on_the_corpus(name):
    C = _corpus_complex(os.path.join(FIXTURES, name))
    if C is None:
        pytest.skip(f"{name} is not a finite complex")
    assert_matches_full_smith(C)


def _scaled_identity(X, k):
    C = unnormalized_chains(X)
    return ChainMap(C, C, tuple(SparseIntMatrix.identity(n).scale(k) for n in C.dims))


def _unitalize_inclusion(C, N):
    """The nerve of the inclusion C -> unitalize(C), as check_krannich builds it."""
    F = FunctorData(C, unitalize(C), tuple(range(C.n_objects)), tuple(range(C.n_morphisms)))
    return nerve_map(F, N)


CONE_MAPS = {
    "identity": lambda: _scaled_identity(boundary_semi_simplex(3), 1),
    "times-two": lambda: _scaled_identity(boundary_semi_simplex(3), 2),
    "skeleton": lambda: chain_map_from_sset_map(skeleton_inclusion(standard_semi_simplex(2), 1)),
    "alexander-whitney": lambda: alexander_whitney(
        boundary_semi_simplex(2), boundary_semi_simplex(2))[0],
    "unitalize": lambda: chain_map_from_sset_map(_unitalize_inclusion(idempotent_category(), 3)),
}


@pytest.mark.parametrize("name", sorted(CONE_MAPS))
def test_free_pair_reduction_on_mapping_cones(name):
    assert_matches_full_smith(mapping_cone(CONE_MAPS[name]()))


def test_free_pair_reduction_at_the_top_of_a_truncated_nerve():
    C = unnormalized_chains(nerve(monoid_as_category(cyclic_group_monoid(4)), 5).sset)
    assert not C.complete
    assert_matches_full_smith(C)
    top = C.top_degree
    full = smith_normal_form(C.boundary(top)).factors
    for ring in ("Z", "F2", "F3", "Q"):
        p = ring_prime(ring)
        rank = len(full) if p is None else sum(1 for d in full if d % p)
        assert homology(C, top, ring).rank == C.dims[top] - rank, ring


def _random_unimodular(rng, n):
    """A random unimodular n x n matrix and its inverse."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        # P <- (I + c e_ij) P and Pinv <- Pinv (I - c e_ij)
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        for row in Pinv:
            row[j] -= c * row[i]
    return SparseIntMatrix.from_dense(P, n), SparseIntMatrix.from_dense(Pinv, n)


def random_cyclic_pieces_complex(rng):
    """A sum of Z --n--> Z pieces and free Z's under random base changes.

    Returns the complex and, for each k, the orders n of the pieces in d_k.
    Degree k lists the targets of d_{k+1}'s pieces, then the sources of
    d_k's pieces, then the free generators.
    """
    top = rng.randint(1, 4)
    pieces = [[]] + [[rng.choice((1, 1, -1, 2, -2, 3, 4, 6)) for _ in range(rng.randint(0, 3))]
                     for _ in range(top)]
    ups = [len(pieces[k + 1]) if k < top else 0 for k in range(top + 1)]
    dims = [ups[k] + len(pieces[k]) + rng.randint(0, 2) for k in range(top + 1)]
    bases = [_random_unimodular(rng, n) for n in dims]
    boundaries = []
    for k in range(1, top + 1):
        d = SparseIntMatrix.from_entries(dims[k - 1], dims[k],
                                         ((i, ups[k] + i, n) for i, n in enumerate(pieces[k])))
        boundaries.append(bases[k - 1][0].mul(d).mul(bases[k][1]))
    return make_chain_complex(dims, boundaries, complete=True), pieces


def test_free_pair_reduction_on_random_cyclic_pieces():
    rng = random.Random(606)
    for trial in range(60):
        C, pieces = random_cyclic_pieces_complex(rng)
        assert_matches_full_smith(C)
        for k in range(1, C.top_degree + 1):
            orders = [abs(n) for n in pieces[k]]
            assert homology(C, k - 1).torsion == group_from_cyclic_orders(0, orders).torsion, trial
            assert C.boundary_rank(k) == len(orders), trial


def test_lone_non_unit_entry_is_not_paired():
    C = make_chain_complex((1, 1), [SparseIntMatrix.from_dense([[2]])], complete=True)
    for ring, rank in (("Z", 1), ("F2", 0), ("F3", 1), ("Q", 1)):
        assert C.boundary_rank(1, ring) == rank, ring
    assert C._free_pairs[1] == (0, 0)
    assert graded_homology(C) == (Zmod(2), ZERO)


def test_bz4_homology_through_degree_six_from_level_seven():
    C = unnormalized_chains(nerve(monoid_as_category(cyclic_group_monoid(4)), 7).sset)
    assert C.trusted_through == 6
    assert graded_homology(C, through=6) == (Z,) + tuple(Zmod(4) if k % 2 else ZERO for k in range(1, 7))


# d_1 has no unit entry, so its first pick is a gcd pivot: -2 at (0, 0) moves
# to column 1 and ends as -1, after steps that changed row 0 of the column
# transform.  Its second pivot is a unit pick in column 2 whose step adds that
# row.  So d_1's unit prefix is empty: leaving out row 2 of d_2 too would read
# H_1 = Z/3, but the complex is acyclic.
GCD_THEN_UNIT = make_chain_complex((2, 3, 1), [SparseIntMatrix.from_dense([[-2, 3, 3], [0, 2, 3]]),
                                               SparseIntMatrix.from_dense([[-3], [-6], [4]])],
                                   complete=True)


def test_factors_match_the_reference_snf_of_the_unreduced_boundary():
    """Each ``C._factors(k)`` leaves out the rows of d_k at the unit-prefix
    pivots of d_{k-1}; it must equal the nonzero diagonal of ``reference_snf``
    of the full d_k, and F2, F3 and Q must follow from Z by universal
    coefficients.  In some sampled d_{k-1} a gcd pivot comes before the last
    pivot, so the prefix stops short of the rank."""
    from ssethom import homalg

    forms = []

    def recording(A):
        forms.append(smith_normal_form(A))
        return forms[-1]

    rng = random.Random(2323)
    sample = [random_cyclic_pieces_complex(rng)[0] for _ in range(150)]
    sample += [unnormalized_chains(nerve(monoid_as_category(M), 4).sset)
               for M in (cyclic_group_monoid(4), klein_four_monoid())]
    stopped = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homalg, "smith_normal_form", recording)
        for i, C in enumerate(sample + [GCD_THEN_UNIT]):
            forms.clear()
            for k in range(1, C.top_degree + 1):
                assert C._factors(k) == reference_snf(C.boundary(k).to_dense()), (i, k)
            if any(len(s.unit_pivots) < s.rank - 1 for s in forms[:-1]):
                stopped.append(i)
            hz = graded_homology(C)
            for ring, p in (("Q", None), ("F2", 2), ("F3", 3)):
                for k in range(C.top_degree + 1):
                    prev = hz[k - 1] if k else ZERO
                    assert homology(C, k, ring).rank == uct_dim(hz[k], prev, p), (i, ring, k)
    assert graded_homology(GCD_THEN_UNIT) == (ZERO, ZERO, ZERO)
    assert stopped[0] < len(sample)  # not only the complex above


def test_residual_smith_forms_are_lazy():
    C = unnormalized_chains(nerve(monoid_as_category(cyclic_group_monoid(4)), 6).sset)
    with recording_smith_forms() as shapes:
        assert homology(C, 0) == Z
        # only d_1 is factored, and d_1 has at most C.dims[1] columns
        assert len(shapes) == 1 and shapes[0][1] <= C.dims[1]
        for _ in range(2):
            graded_homology(C)
    assert len(shapes) == C.top_degree  # each residual d_k once
    assert max(rows for rows, _ in shapes) < C.dims[C.top_degree - 1]
    # free pairs leave 1, 3, 9, 27, 81, 243, 3459 generators in degrees 0..6;
    # the rows at d_{k-1}'s unit-prefix pivots leave d_k too, from d_3 on
    assert shapes == [(1, 3), (3, 9), (7, 27), (21, 81), (61, 243), (183, 3459)]


def test_bad_ring_is_rejected_where_it_is_read():
    C = unnormalized_chains(boundary_semi_simplex(2))
    for ring in ("F4", "R", "F1"):
        with pytest.raises(ValueError):
            C.boundary_rank(1, ring)
        with pytest.raises(ValueError):
            C.boundary_rank(0, ring)  # outside the listed range too
        with pytest.raises(ValueError):
            homology(C, 1, ring)
        with pytest.raises(ValueError):
            graded_homology(C, ring=ring)
    assert graded_homology(C, ring=" q ") == graded_homology(C, ring="Q") == (Z, Z)


# -- face tables as matrices ---------------------------------------------------------


def _face_tables(obj):
    """(rows, cols, tables) of every signed face sum a fixture document holds:
    the boundaries of a semi-simplicial set (of the enumerated simplices for a
    simplicial one) and the dh and dv of a bi-semi-simplicial set."""
    if isinstance(obj, SimplicialSet):
        top = len(obj.gen_sizes) - 1 if obj.truncated_at is None else obj.truncated_at
        obj = enumerate_simplicial(obj, top).sset
    if isinstance(obj, SemiSimplicialSet):
        return [(obj.sizes[k - 1], obj.sizes[k], obj.faces[k]) for k in range(1, len(obj.sizes))]
    P, Q = obj.p_levels, obj.q_levels
    return ([(obj.size(p - 1, q), obj.size(p, q), obj.dh[p][q])
             for p in range(1, P) for q in range(Q)]
            + [(obj.size(p, q - 1), obj.size(p, q), obj.dv[p][q])
               for p in range(P) for q in range(1, Q)])


def _insertion_order(m):
    return [(r, list(row)) for r, row in m.data.items()]


FACE_TABLE_FIXTURES = sorted(os.path.basename(p) for pattern in ("*.ss.json", "*.simp.json", "*.bis.json")
                             for p in glob.glob(os.path.join(FIXTURES, pattern)))


@pytest.mark.parametrize("name", FACE_TABLE_FIXTURES)
def test_table_matrix_matches_from_entries(name):
    """Same matrix and same row and column insertion order as from_entries of
    the signed entries taken face by face, then simplex by simplex; the
    free-pair worklist follows that order."""
    for rows, cols, tables in _face_tables(formats.read_document(os.path.join(FIXTURES, name))):
        for signs in (None, [1] * len(tables), [3 - i for i in range(len(tables))]):
            got = _table_matrix(rows, cols, tables, signs)
            want = SparseIntMatrix.from_entries(rows, cols, [
                (tab[s], s, (-1) ** i if signs is None else signs[i])
                for i, tab in enumerate(tables) for s in range(cols)])
            assert got == want
            assert _insertion_order(got) == _insertion_order(want)


def test_table_matrix_takes_none_entries_but_not_short_or_long_tables():
    """A None entry adds nothing, but every table has one entry per column,
    so a table of the wrong length is an error rather than a zero column."""
    assert _table_matrix(2, 3, [(0, None, 1)], [1]) == SparseIntMatrix.from_entries(
        2, 3, [(0, 0, 1), (1, 2, 1)])
    for tab in [(0, 1), (0, 1, 1, 0)]:
        with pytest.raises(ValueError):
            _table_matrix(2, 3, [tab])


def test_complex_validation():
    bad = SparseIntMatrix.from_dense([[1]])
    with pytest.raises(ValueError, match="boundary squared is nonzero in degree 2"):
        make_chain_complex((1, 1, 1), [bad, bad])  # d*d = 1 != 0
    with pytest.raises(ValueError):
        make_chain_complex((2, 1), [SparseIntMatrix.zero(1, 1)])


_POINT = make_chain_complex((1,), [])
_TWO_POINTS = make_chain_complex((1, 1), [SparseIntMatrix.zero(1, 1)])
_ONE = SparseIntMatrix.identity(1)


@pytest.mark.parametrize("build, message", [
    (lambda: ChainComplex((), ()), "a chain complex needs at least degree 0"),
    (lambda: ChainComplex((1, 1), (SparseIntMatrix.zero(0, 1),)), "diffs and dims length mismatch"),
    (lambda: ChainComplex((1,), (SparseIntMatrix.zero(1, 1),)),
     "diffs[0] must be the empty matrix on degree 0"),
    (lambda: ChainComplex((1,), (SparseIntMatrix.zero(0, 2),)),
     "diffs[0] must be the empty matrix on degree 0"),
    (lambda: ChainMap(_POINT, _POINT, ()), "chain map must cover every source degree"),
    (lambda: ChainMap(_TWO_POINTS, _POINT, (_ONE, _ONE)), "target has fewer degrees than source"),
    (lambda: ChainMap(_POINT, _POINT, (SparseIntMatrix.zero(1, 2),)),
     "degree 0: map shape 1x2 does not fit"),
    (lambda: compose_chain_maps(ChainMap(_TWO_POINTS, _TWO_POINTS, (_ONE, _ONE)),
                                ChainMap(_POINT, _POINT, (_ONE,))),
     "composition endpoints do not match"),
], ids=["no-degrees", "diffs-short", "diffs0-rows", "diffs0-cols", "map-short", "target-short",
        "map-shape", "composition"])
def test_complex_and_map_shape_refusals_are_exact(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_unnormalized_chains_are_certified_by_the_face_identities():
    # tables in range, but d_0 d_1 != d_0 d_0 on the 2-simplex, and so
    # d_1 d_2 = 3 v_0 - 3 v_1 != 0: only the face identities refuse the
    # chains, since no boundary product is taken
    X = SemiSimplicialSet((2, 2, 1), ((), ((0, 1), (1, 0)), ((0,), (1,), (0,))))
    first = validate_sset(X).first()
    assert first == "face identity fails at level 2, simplex 0: d_0 d_1 = 1 but d_0 d_0 = 0"
    with pytest.raises(ValueError) as refused:
        unnormalized_chains(X)
    assert str(refused.value) == first
    with pytest.raises(ValueError, match="boundary squared is nonzero in degree 2"):
        make_chain_complex(*_chain_parts(X, X.sizes, X.faces, None))


def test_homology_of_a_nerve_document_checks_its_identities_once(monkeypatch, capsys, tmp_path):
    # the loader's validate_sset certifies the chains too: one identity pass
    # and no boundary product per homology call
    from ssethom import cli, sset

    doc = tmp_path / "c3.nerve.json"
    assert cli.main(["nerve", os.path.join(FIXTURES, "c3.mon.json"), "--cutoff", "4"]) == 0
    doc.write_text(capsys.readouterr().out)
    calls = {"identity passes": 0, "products": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(sset, "_level_identities",
                        counted("identity passes", sset._level_identities))
    monkeypatch.setattr(SparseIntMatrix, "mul", counted("products", SparseIntMatrix.mul))
    assert cli.main(["homology", str(doc)]) == 0
    assert "H_1 = Z/3" in capsys.readouterr().err
    assert calls == {"identity passes": 1, "products": 0}


# -- products ---------------------------------------------------------------------


def test_torus_as_tensor_square_of_circle():
    A = unnormalized_chains(boundary_semi_simplex(2))
    tot = total_complex(tensor_double_complex(A, A))
    C = tot.complex
    assert C.complete
    hs = graded_homology(C)
    assert hs == (Z, FPAbelianGroup(2), Z)
    hx = list(graded_homology(A))
    for n in range(3):
        assert kunneth_oracle(hx, hx, n) == hs[n]
    assert sum((-1) ** k * n for k, n in enumerate(C.dims)) == 0


def test_bicomplex_of_exterior_product_matches_tensor():
    X = boundary_semi_simplex(2)
    D1 = bicomplex(exterior_product(X, X))
    A = unnormalized_chains(X)
    D2 = tensor_double_complex(A, A)
    assert D1.sizes == D2.sizes
    for p in range(D1.p_levels):
        for q in range(D1.q_levels):
            assert D1.dh[p][q] == D2.dh[p][q]
            assert D1.dv[p][q] == D2.dv[p][q]


def test_moore_space_products():
    m = make_chain_complex((1, 1), [SparseIntMatrix.from_dense([[2]])], complete=True)
    assert graded_homology(m) == (Zmod(2), ZERO)
    tot = total_complex(tensor_double_complex(m, m)).complex
    assert tot.dims == (1, 2, 1)
    hs = graded_homology(tot)
    assert hs == (Zmod(2), Zmod(2), ZERO)
    for ring, want in (("F2", [1, 2, 1]), ("Q", [0, 0, 0]), ("F3", [0, 0, 0])):
        assert [h.rank for h in graded_homology(tot, ring=ring)] == want


def test_total_layout_interval_square():
    A = unnormalized_chains(standard_semi_simplex(1))
    tot = total_complex(tensor_double_complex(A, A))
    assert tot.complex.dims == (4, 4, 1)
    # Tot_1 is block (0, 1) at 0..2 then block (1, 0) at 2..4
    assert tot.starts == ((0, 4, 4), (0, 2, 4), (0, 0, 1))
    assert graded_homology(tot.complex) == (Z, ZERO, ZERO)


def unit_double(P, Q, dh, dv):
    """Every bidegree of size 1; dh and dv map (p, q) to the 1x1 entry (default 0)."""
    def mat(vals, p, q, leaves):
        return SparseIntMatrix.from_dense([[vals.get((p, q), 0)]] if leaves else [], 1)
    return DoubleComplex(
        tuple((1,) * Q for _ in range(P)),
        tuple(tuple(mat(dh, p, q, p > 0) for q in range(Q)) for p in range(P)),
        tuple(tuple(mat(dv, p, q, q > 0) for q in range(Q)) for p in range(P)))


@pytest.mark.parametrize("P,Q,dh,dv,broken", [
    (2, 2, {(1, 0): 1, (1, 1): 1}, {(0, 1): 1, (1, 1): 1}, ("dv", (1, 1), 2)),
    (3, 1, {(1, 0): 1}, {}, ("dh", (2, 0), 1)),
    (1, 3, {}, {(0, 1): 1}, ("dv", (0, 2), 1)),
], ids=["squares-do-not-commute", "dh-squared", "dv-squared"])
def test_total_complex_checks_the_double_complex_identities(P, Q, dh, dv, broken):
    total_complex(unit_double(P, Q, dh, dv))  # accepted without the defect
    which, pq, v = broken
    bad = {"dh": dict(dh), "dv": dict(dv)}
    bad[which][pq] = v
    with pytest.raises(ValueError, match="boundary squared is nonzero"):
        total_complex(unit_double(P, Q, bad["dh"], bad["dv"]))


def test_a_cut_total_complex_is_not_complete():
    # the torus bisset is complete in both directions; only the cut hides
    # degree 2, so only the cut may make Tot incomplete
    circle = boundary_semi_simplex(2)
    D = bicomplex(exterior_product(circle, circle))
    full = total_complex(D).complex
    assert (full.complete, full.trusted_through) == (True, 2)
    cut = total_complex(D, through=1).complex
    assert (cut.complete, cut.trusted_through) == (False, 0)


def test_alexander_whitney_interval_square():
    I = standard_semi_simplex(1)
    aw, tot = alexander_whitney(I, I)
    # the diagonal of the exterior product has four vertices and one edge
    assert aw.source.dims == (4, 1)
    # AW of the diagonal edge: vertex (x) edge plus edge (x) vertex
    assert aw.mats[1].column(0) == {0: 1, 3: 1}


def test_alexander_whitney_circle_square():
    S = boundary_semi_simplex(2)
    aw, tot = alexander_whitney(S, S)
    assert aw.source.dims == (9, 9)
    # building the ChainMap already asserted it commutes with the boundary
    assert tot.complex.dims[1] == 18


def front_face(X, n, p, s):
    """Reference: restrict to vertices 0..p by deleting the back vertices, top down."""
    cur = s
    lvl = n
    for v in range(n, p, -1):
        cur = X.face(lvl, v, cur)
        lvl -= 1
    return cur


def back_face(X, n, q, s):
    """Reference: restrict to the last q+1 vertices by deleting the front ones, top down."""
    cur = s
    lvl = n
    for v in range(n - q - 1, -1, -1):
        cur = X.face(lvl, v, cur)
        lvl -= 1
    return cur


def nonempty_blocks(tot, n):
    """(p, q, offset) of each nonempty block of Tot_n, read off the block table."""
    row = tot.starts[n]
    return [(p, n - p, row[p]) for p in range(len(row) - 1) if row[p + 1] > row[p]]


def full_tot(X, Y):
    return total_complex(tensor_double_complex(unnormalized_chains(X), unnormalized_chains(Y)))


def truncate_complex(C, top):
    """Forget all degrees above ``top`` (padding with zeros if C ends sooner);
    built through ``make_chain_complex``, so d o d is checked again."""
    dims = tuple(C.dim(k) for k in range(top + 1))
    boundaries = [C.boundary(k) for k in range(1, top + 1)]
    return make_chain_complex(dims, boundaries, C.complete and top >= C.top_degree)


def aw_pairs():
    rp2 = enumerate_simplicial(formats.read_document(os.path.join(FIXTURES, "freerp2.simp.json")),
                               4).sset
    yield "freerp2-4", rp2, rp2
    for seed in range(4):
        yield (f"random-{seed}", enumerate_simplicial(random_simplicial(2 * seed), 3).sset,
               enumerate_simplicial(random_simplicial(2 * seed + 1), 3).sset)


AW_TRUNCATED = list(aw_pairs())
AW_COMPLETE = [("circle-square", boundary_semi_simplex(2), boundary_semi_simplex(2)),
               ("interval-square", standard_semi_simplex(1), standard_semi_simplex(1)),
               ("triangle-by-sphere", standard_semi_simplex(2), boundary_semi_simplex(3))]


@pytest.mark.parametrize("name,X,Y", AW_TRUNCATED + AW_COMPLETE,
                         ids=[c[0] for c in AW_TRUNCATED + AW_COMPLETE])
def test_alexander_whitney_columns_are_front_tensor_back(name, X, Y):
    aw, tot = alexander_whitney(X, Y)
    for n, m in enumerate(aw.mats):
        ny = Y.sizes[n]
        want = SparseIntMatrix.from_entries(m.rows, m.cols, (
            (off + front_face(X, n, p, s // ny) * Y.sizes[q] + back_face(Y, n, q, s % ny), s, 1)
            for s in range(m.cols) for (p, q, off) in nonempty_blocks(tot, n)))
        assert m == want, n


@pytest.mark.parametrize("name,X,Y", AW_TRUNCATED, ids=[c[0] for c in AW_TRUNCATED])
def test_alexander_whitney_cuts_tot_above_the_source(name, X, Y):
    aw, tot = alexander_whitney(X, Y)
    S = aw.source.top_degree
    full = full_tot(X, Y)
    assert not aw.source.complete and full.complex.top_degree > S + 1
    assert tot.complex == truncate_complex(full.complex, S + 1)
    assert tot.starts == full.starts[:S + 2]
    # the cone into the cut Tot is the cone of the same matrices into the full one
    assert mapping_cone(aw) == mapping_cone(ChainMap(aw.source, full.complex, aw.mats))


@pytest.mark.parametrize("name,X,Y", AW_COMPLETE, ids=[c[0] for c in AW_COMPLETE])
def test_alexander_whitney_keeps_the_full_tot_of_complete_inputs(name, X, Y):
    aw, tot = alexander_whitney(X, Y)
    full = full_tot(X, Y)
    assert aw.source.complete and tot.complex.complete
    assert tot.complex.top_degree == len(X.sizes) + len(Y.sizes) - 2
    assert (tot.complex, tot.starts) == (full.complex, full.starts)


def _entry_order(C):
    return [[(r, list(row.items())) for r, row in d.data.items()] for d in C.diffs]


@pytest.mark.parametrize("name", sorted(quillen_functor_corpus()))
def test_resolution_tot_cut_at_n_is_its_truncation(name):
    F = quillen_functor_corpus()[name]
    for N in range(6):
        D = bicomplex(comma_resolution(F, N).bisset)
        cut, full = total_complex(D, through=N), total_complex(D)
        assert cut.complex == truncate_complex(full.complex, N), N
        assert _entry_order(cut.complex) == _entry_order(truncate_complex(full.complex, N)), N
        assert cut.starts == full.starts[:N + 1], N


def block_table_cases():
    corpus = sset_corpus()
    for a, X in corpus.items():
        for b, Y in corpus.items():
            yield f"{a}-{b}", bicomplex(exterior_product(X, Y)), None
    sphere = unnormalized_chains(boundary_semi_simplex(3))
    yield "sphere-tensor-cut", tensor_double_complex(sphere, sphere, 2), 2
    for name, F in sorted(quillen_functor_corpus().items()):
        D = bicomplex(comma_resolution(F, 3).bisset)
        yield f"{name}-resolution", D, None
        yield f"{name}-resolution-cut", D, 3


def test_block_table_sizes_are_the_antidiagonal():
    # starts[n] covers every column p; a block off the grid is empty, so no
    # row bound is needed to skip it
    for name, D, through in block_table_cases():
        tot = total_complex(D, through)
        assert len(tot.starts) == len(tot.complex.dims), name
        for n, row in enumerate(tot.starts):
            assert len(row) == D.p_levels + 1 and row[0] == 0, (name, n)
            for p in range(D.p_levels):
                q = n - p
                want = D.sizes[p][q] if 0 <= q < D.q_levels else 0
                assert row[p + 1] - row[p] == want, (name, n, p)
            assert row[-1] == tot.complex.dims[n], (name, n)


# -- chain maps, cones, induced maps ----------------------------------------------


def test_mapping_cone_of_identity_is_acyclic():
    C = unnormalized_chains(boundary_semi_simplex(3))
    cone = mapping_cone(ChainMap(C, C, tuple(SparseIntMatrix.identity(n) for n in C.dims)))
    assert cone.complete
    ok, failures = acyclic_through(cone, cone.top_degree)
    assert ok, failures
    assert sum((-1) ** k * n for k, n in enumerate(cone.dims)) == 0


def _zero_map(S, T, src_complete, tgt_complete):
    """The zero map between complexes of rank 1 in degrees 0..S and 0..T."""
    src, tgt = (make_chain_complex((1,) * (top + 1), [SparseIntMatrix.zero(1, 1)] * top, done)
                for top, done in ((S, src_complete), (T, tgt_complete)))
    return ChainMap(src, tgt, (SparseIntMatrix.zero(1, 1),) * (S + 1))


@pytest.mark.parametrize("S, T, tops", [
    # both complete, source only, target only, neither
    (0, 2, (2, 2, 1, 1)),
    (1, 1, (2, 1, 2, 1)),
])
def test_mapping_cone_tops(S, T, tops):
    # cone_n = src_{n-1} + tgt_n is known where both summands are: up to the
    # least top of an incomplete side (S + 1 or T), or to the larger top when
    # both sides are complete, and only then is the cone complete
    cones = [mapping_cone(_zero_map(S, T, a, b))
             for a, b in ((True, True), (True, False), (False, True), (False, False))]
    assert [(c.top_degree, c.complete) for c in cones] == [
        (top, i == 0) for i, top in enumerate(tops)]


def test_skeleton_inclusion_iso_range():
    X = standard_semi_simplex(2)
    f = chain_map_from_sset_map(skeleton_inclusion(X, 1))
    assert acyclic_through(mapping_cone(f), 1)[0]
    ok, failures = acyclic_through(mapping_cone(f), 2)
    assert not ok
    # the edge loop of the skeleton dies in the full simplex
    assert failures == [(2, Z)]


def test_chain_map_must_commute():
    C = unnormalized_chains(boundary_semi_simplex(2))
    mats = [SparseIntMatrix.identity(3), SparseIntMatrix.zero(3, 3)]
    with pytest.raises(ValueError):
        ChainMap(C, C, tuple(mats))


def test_homology_coordinates_circle():
    C = unnormalized_chains(boundary_semi_simplex(2))
    hc = homology_coordinates(C, 1)
    assert hc.group == Z
    # edges in lex order: {0,1}, {0,2}, {1,2}
    loop = {0: 1, 1: -1, 2: 1}
    coord = hc.project(loop)
    assert coord in ((1,), (-1,))
    assert hc.project({k: 3 * v for k, v in loop.items()}) == (3 * coord[0],)
    rep = hc.representative(0)
    assert hc.project(rep) == (1,)
    with pytest.raises(ValueError):
        hc.project({0: 1})  # a single edge is not a cycle


def test_homology_coordinates_torsion():
    m = make_chain_complex((1, 1), [SparseIntMatrix.from_dense([[2]])], complete=True)
    hc = homology_coordinates(m, 0)
    assert hc.group == Zmod(2)
    assert hc.project({0: 1}) == (1,)
    assert hc.project({0: 2}) == (0,)
    assert hc.project({0: 5}) == (1,)


def test_induced_identity_map():
    C = unnormalized_chains(boundary_semi_simplex(2))
    ident = ChainMap(C, C, tuple(SparseIntMatrix.identity(n) for n in C.dims))
    hc = homology_coordinates(C, 1)
    assert induced_map_on_homology(ident, 1, hc, hc) == [(1,)]


def assert_coordinates_are_exact(C, seed=0):
    """In every trusted degree: the group is the free-pair path's, each
    representative projects to its unit vector, every boundary projects to 0,
    an integer combination of representatives and boundaries projects to its
    coefficients mod the orders, and a chain that is not a cycle raises."""
    rng = random.Random(seed)
    for k in range(C.trusted_through + 1):
        hc = homology_coordinates(C, k)
        assert hc.group == homology(C, k), k
        n = len(hc.positions)
        orders = [hc.orders[i] for i in hc.positions]
        reps = [hc.representative(pos) for pos in range(n)]
        for pos, rep in enumerate(reps):
            assert hc.project(rep) == tuple(int(i == pos) for i in range(n)), (k, pos)
        above = C.boundary(k + 1)
        for c in range(above.cols):
            assert hc.project(above.column(c)) == (0,) * n, (k, c)
        coef = [rng.randint(-5, 5) for _ in range(n)]
        v = {}
        for a, rep in zip(coef, reps):
            for i, x in rep.items():
                v[i] = v.get(i, 0) + a * x
        for c in range(above.cols):
            b = rng.randint(-3, 3)
            for i, x in above.column(c).items():
                v[i] = v.get(i, 0) + b * x
        v = {i: x for i, x in v.items() if x}
        assert hc.project(v) == tuple(a % m if m else a for a, m in zip(coef, orders)), k
        d = C.boundary(k)
        hit = next((j for j in range(d.cols) if d.column(j)), None)
        if hit is not None:
            with pytest.raises(ValueError, match="not a cycle"):
                hc.project({hit: 1})


@pytest.mark.parametrize("name", sorted(_fixture_spaces()))
def test_homology_coordinates_on_fixture_spaces(name):
    assert_coordinates_are_exact(_chains(_fixture_spaces()[name]()))


@pytest.mark.parametrize("name", sorted(CONE_MAPS))
def test_homology_coordinates_on_mapping_cones(name):
    assert_coordinates_are_exact(mapping_cone(CONE_MAPS[name]()))


def test_coordinates_random_representatives_roundtrip():
    rng = random.Random(99)
    for seed in range(10):
        C, _, ms = scaled_kernel_complex(rng)
        hc = homology_coordinates(C, 1)
        assert hc.group == group_from_cyclic_orders(0, ms)
        assert_coordinates_are_exact(C, seed)


def test_homology_coordinates_factor_each_matrix_once(monkeypatch):
    # one transform SNF for d_k and one for the relations among its cycles,
    # however many boundary columns there are; none when projecting
    from ssethom import homalg, snf

    real = snf.smith_normal_form
    shapes = []

    def counting(A, transforms=False):
        if transforms:
            shapes.append((A.rows, A.cols))
        return real(A, transforms)

    monkeypatch.setattr(snf, "smith_normal_form", counting)
    monkeypatch.setattr(homalg, "smith_normal_form", counting)
    C = unnormalized_chains(nerve(monoid_as_category(cyclic_group_monoid(4)), 6).sset)
    counts = {}
    for k in (2, 3):
        shapes.clear()
        hc = homology_coordinates(C, k)
        counts[C.boundary(k + 1).cols] = len(shapes)
    assert counts == {64: 2, 256: 2}
    assert hc.group == Zmod(4)
    shapes.clear()
    for _ in range(5):
        assert hc.project(hc.representative(0)) == (1,)
    assert shapes == []


# -- normalization ------------------------------------------------------------------


def test_free_simplicial_chains_match_unnormalized():
    for X in (boundary_semi_simplex(2), standard_semi_simplex(2)):
        EX = free_degeneracies(X)
        Cn = normalized_chains(EX)
        Cu = unnormalized_chains(X)
        assert Cn.dims == Cu.dims
        assert Cn.diffs == Cu.diffs


def test_projection_to_normalized_is_quasi_iso():
    X = boundary_semi_simplex(2)
    EX = free_degeneracies(X)
    enum = enumerate_simplicial(EX, 4)
    Cu = unnormalized_chains(enum.sset)
    Cn = normalized_chains(EX, through=4)
    mats = []
    for k in range(5):
        entries = []
        for idx, ref in enumerate(enum.refs[k]):
            if not ref.word:
                entries.append((ref.gen, idx, 1))
        mats.append(SparseIntMatrix.from_entries(Cn.dims[k], Cu.dims[k], entries))
    proj = ChainMap(Cu, Cn, tuple(mats))
    assert acyclic_through(mapping_cone(proj), 3)[0]
    assert graded_homology(Cn, through=3) == (Z, Z, ZERO, ZERO)


# -- chain homotopies from certificates ----------------------------------------------


def test_contraction_certificates_give_chain_contractions():
    cert = ExtraDegeneracy(constant_sset(1, 3), aug_size=1, aug=(0,), h0=(0,),
                           up=((0,), (0,), (0,)))
    assert check_certificate(cert).ok
    ch = chain_homotopy_from_certificate(cert)
    rep = check_chain_homotopy(ch)
    assert rep.ok, rep.problems
    ok, failures = acyclic_through(ch.source, 3)
    assert ok, failures


def test_homotopy_certificate_interval():
    pt = constant_sset(1, 0)
    I = standard_semi_simplex(1)
    f = SSetMap(pt, I, ((1,),))
    g = SSetMap(pt, I, ((0,),))
    cert = PrismHomotopy(f=f, g=g, tri=(((0,),),))
    assert check_certificate(cert).ok
    ch = chain_homotopy_from_certificate(cert)
    rep = check_chain_homotopy(ch)
    assert rep.ok, rep.problems
    # dP + Pd = g - f lands the two endpoint classes on each other
    assert ch.maps_to[0].sub(ch.maps_from[0]) == SparseIntMatrix.from_dense([[1], [-1]])


def test_augmented_complex_of_contractible_space():
    X = constant_sset(1, 3)
    A = augmented_complex(X, 1, (0,), through=3)
    assert A.dims == (1, 1, 1, 1, 1)
    ok, failures = acyclic_through(A, 3)
    assert ok, failures
