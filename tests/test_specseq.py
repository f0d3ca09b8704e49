import dataclasses
import hashlib
from fractions import Fraction

import pytest

from ssethom.cat import comma_resolution, identity_functor, nerve
from ssethom.fixtures import poset_category, quillen_functor_corpus
from ssethom.homalg import (
    DoubleComplex,
    bicomplex,
    graded_homology,
    make_chain_complex,
    ring_prime,
    tensor_double_complex,
    total_complex,
    unnormalized_chains,
)
from ssethom.snf import SparseIntMatrix
from ssethom.specseq import (
    SSPage,
    _Echelon,
    check_convergence,
    spectral_sequence,
    transpose_double_complex,
)
from ssethom.sset import (
    boundary_semi_simplex,
    constant_sset,
    exterior_product,
    listed_sset,
    standard_semi_simplex,
)


def interval_square():
    X = standard_semi_simplex(1)
    return bicomplex(exterior_product(X, X))


def torus():
    S = boundary_semi_simplex(2)
    return bicomplex(exterior_product(S, S))


def staircase():
    """a at (2,0), b at (1,0), c at (1,1), d at (0,1), with dh a = b, dv c = b
    and dh c = d.  By columns, E^1 keeps a and d, and d_2 a = +-d kills both."""
    sizes = ((0, 1), (1, 1), (1, 0))

    def arrow(rows, cols, hit):
        return SparseIntMatrix.from_entries(rows, cols, [(0, 0, 1)] if hit else [])

    dh = tuple(tuple(arrow(sizes[p - 1][q] if p else 0, sizes[p][q], (p, q) in ((2, 0), (1, 1)))
                     for q in range(2)) for p in range(3))
    dv = tuple(tuple(arrow(sizes[p][q - 1] if q else 0, sizes[p][q], (p, q) == (1, 1))
                     for q in range(2)) for p in range(3))
    return DoubleComplex(sizes, dh, dv, True, True)


def id2_resolution():
    """The comma resolution of id2 through level 3, perfbench's specseq-pages input."""
    return bicomplex(comma_resolution(quillen_functor_corpus()["id2"], 3).bisset)


# -- echelon scaffolding -------------------------------------------------------


def test_echelon_coordinates_recover_combinations():
    ech = _Echelon(None)
    assert ech.add({0: Fraction(1), 1: Fraction(2)})
    assert ech.add({1: Fraction(1), 2: Fraction(1)})
    coords = ech.coordinates({0: Fraction(2), 1: Fraction(7), 2: Fraction(3)})
    assert coords == {0: Fraction(2), 1: Fraction(3)}
    assert ech.coordinates({2: Fraction(1)}) is None


def test_echelon_mod_p_tags_skip_failed_adds():
    ech = _Echelon(5)
    assert ech.add({0: 1, 1: 2})
    assert not ech.add({0: 2, 1: 4})  # dependent, still consumes tag 1
    assert ech.add({1: 1})
    assert ech.coordinates({0: 1}) == {0: 1, 2: 3}  # (1,2) + 3*(0,1) = (1,5) = (1,0)


# -- the square of an interval over F2 ------------------------------------------


def test_interval_square_page_dims_mod_two():
    pages = spectral_sequence(interval_square(), "F2")
    assert [page.r for page in pages] == [0, 1, 2]
    assert pages[0].dims == {(0, 0): 4, (0, 1): 2, (1, 0): 2, (1, 1): 1}
    assert pages[1].dims == {(0, 0): 2, (1, 0): 1}
    assert pages[2].dims == {(0, 0): 1}


def test_interval_square_converges_to_point():
    D = interval_square()
    pages = spectral_sequence(D, "F2")
    report = check_convergence(pages, total_complex(D), "F2")
    assert report.ok
    assert report.degrees == ((0, 1, 1), (1, 0, 0), (2, 0, 0))


# -- the torus over Q ------------------------------------------------------------


def test_torus_rational_page_two():
    pages = spectral_sequence(torus(), "Q")
    assert pages[1].dims == {(0, 0): 3, (1, 0): 3, (0, 1): 3, (1, 1): 3}
    assert pages[2].dims == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    for matrix in pages[2].diff.values():
        assert all(not any(row) for row in matrix)


def test_torus_convergence_is_one_two_one():
    D = torus()
    pages = spectral_sequence(D, "Q")
    report = check_convergence(pages, total_complex(D), "Q")
    assert report.ok
    assert [dim_h for (_, _, dim_h) in report.degrees] == [1, 2, 1]
    assert [total for (_, total, _) in report.degrees] == [1, 2, 1]


# -- the convergence tally names each of its problems ------------------------------


def test_convergence_names_pages_cut_before_the_stable_page():
    D = bicomplex(exterior_product(constant_sset(1, 2), constant_sset(1, 2)))
    pages = spectral_sequence(D, "Q")
    assert [page.r for page in pages] == [0, 1, 2, 3]
    report = check_convergence(pages[:-1], total_complex(D), "Q")
    assert not report.ok
    assert report.problems == ("pages stop at r=2, before the stable page r=3",)


def test_convergence_names_a_differential_left_on_the_last_page():
    D = torus()
    pages = spectral_sequence(D, "Q")
    last = dataclasses.replace(pages[-1], diff={(1, 0): ((Fraction(1),),)})
    report = check_convergence(pages[:-1] + [last], total_complex(D), "Q")
    assert not report.ok
    assert report.problems == ("the last page still carries a nonzero differential",)


def test_convergence_names_a_degree_whose_total_disagrees():
    D = torus()
    pages = spectral_sequence(D, "Q")
    last = dataclasses.replace(pages[-1], dims={**pages[-1].dims, (0, 1): 2})
    report = check_convergence(pages[:-1] + [last], total_complex(D), "Q")
    assert not report.ok
    assert report.problems == ("degree 1: E-infinity total 3 != dim H 2",)


# -- d1 against the column-wise induced maps -------------------------------------


def block_part(T, n, p, vec):
    off, end = T.starts[n][p:p + 2]
    return list(vec[off:end])


def solve_dense(columns, b, prime):
    """Some x with sum_j x[j] * columns[j] = b, or None if b is not in the span.

    Gauss-Jordan elimination on residues mod prime, or on Fractions when prime
    is None; independent of the sparse echelon in ssethom.specseq.
    """
    def conv(v):
        return Fraction(v) if prime is None else v % prime

    ncols = len(columns)
    mat = [[conv(col[i]) for col in columns] + [conv(b[i])] for i in range(len(b))]
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(len(pivots), len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        top = len(pivots)
        mat[top], mat[piv] = mat[piv], mat[top]
        inv = 1 / mat[top][c] if prime is None else pow(mat[top][c], -1, prime)
        mat[top] = [conv(a * inv) for a in mat[top]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != top and f:
                mat[i] = [conv(a - f * t) for a, t in zip(mat[i], mat[top])]
        pivots.append(c)
    if any(row[ncols] for row in mat[len(pivots):]):
        return None
    x = [conv(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = mat[i][ncols]
    return x


def rank_dense(matrix, prime):
    """Rank of a row-major matrix by Gaussian elimination on residues mod prime,
    or on Fractions when prime is None; independent of ssethom.specseq."""
    def conv(v):
        return Fraction(v) if prime is None else v % prime

    rows = [[conv(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c] if prime is None else pow(rows[rank][c], -1, prime)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv
            if f:
                rows[i] = [conv(a - f * t) for a, t in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def induced_d1(D, prime, pages, p, q):
    """The matrix of the horizontal map on vertical homology, built directly
    from the double complex data and the page-1 representatives."""
    T = total_complex(D)
    source = [block_part(T, p + q, p, v) for v in pages[1].basis[(p, q)]]
    target_reps = [block_part(T, p + q - 1, p - 1, v)
                   for v in pages[1].basis.get((p - 1, q), ())]
    # the image of the vertical boundary into block (p-1, q)
    vertical = []
    if q + 1 < D.q_levels:
        dv = D.dv[p - 1][q + 1].to_dense()
        vertical = [[row[c] for row in dv] for c in range(D.size(p - 1, q + 1))]
    # the target classes are independent modulo the vertical image, so their
    # coefficients are the same in every solution below
    for t, w in enumerate(target_reps):
        assert solve_dense(vertical + target_reps[:t], w, prime) is None
    dh = D.dh[p][q].to_dense()
    cols = []
    for s in source:
        img = [sum(a * x for a, x in zip(row, s)) for row in dh]
        x = solve_dense(target_reps + vertical, img, prime)
        assert x is not None
        cols.append(x[:len(target_reps)])
    return tuple(tuple(col[i] for col in cols) for i in range(len(target_reps)))


@pytest.mark.parametrize("build, ring", [
    (interval_square, "F2"),
    (torus, "Q"),
    (interval_square, "F5"),
])
def test_d1_matches_induced_horizontal_map(build, ring):
    D = build()
    pages = spectral_sequence(D, ring)
    checked = 0
    for (p, q), matrix in pages[1].diff.items():
        assert matrix == induced_d1(D, ring_prime(ring), pages, p, q)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("build, ring", [
    (build, ring) for build in (interval_square, torus, staircase) for ring in ("F2", "F3", "Q")
] + [(id2_resolution, "F2"), (id2_resolution, "Q")])
def test_next_page_is_the_homology_of_d_r(build, ring):
    # dim E^{r+1}(p,q) = dim E^r(p,q) - rank d_r out of (p,q) - rank d_r into (p,q)
    D = build()
    prime = ring_prime(ring)
    for orientation in ("cols", "rows"):
        pages = spectral_sequence(D, ring, orientation=orientation)
        for page, after in zip(pages, pages[1:]):
            dp, dq = (-page.r, page.r - 1) if page.r else (0, -1)
            rank = {spot: rank_dense(matrix, prime) for spot, matrix in page.diff.items()}
            for (p, q) in set(page.dims) | set(after.dims):
                assert after.dims.get((p, q), 0) == (page.dims.get((p, q), 0)
                                                     - rank.get((p, q), 0)
                                                     - rank.get((p - dp, q - dq), 0)), \
                    (orientation, page.r, (p, q))


def test_staircase_has_a_nonzero_d2():
    pages = spectral_sequence(staircase(), "Q")
    assert pages[2].dims == {(0, 1): 1, (2, 0): 1}
    assert pages[2].diff == {(2, 0): ((Fraction(1),),)}
    assert pages[3].dims == {}


def test_page_one_basis_is_pure_and_vertical():
    D = torus()
    pages = spectral_sequence(D, "Q")
    T = total_complex(D)
    for (p, q), vecs in pages[1].basis.items():
        n = p + q
        off, end = T.starts[n][p:p + 2]
        for v in vecs:
            assert any(v[off:end])
            assert not any(v[:off]) and not any(v[end:])
            # vertical part of the total boundary vanishes on the block below
            if q >= 1:
                img = [0] * T.complex.dim(n - 1)
                for (r, c, val) in T.complex.boundary(n).entries():
                    if v[c]:
                        img[r] += val * v[c]
                boff, bend = T.starts[n - 1][p:p + 2]
                assert not any(img[boff:bend])


# -- squares, orientations, degenerate shapes ------------------------------------


def compose(mat_a, mat_b, prime):
    """Rows-by-columns product of two row-major tuple matrices."""
    if not mat_a or not mat_b:
        return ()
    rows, mid, cols = len(mat_a), len(mat_b), len(mat_b[0]) if mat_b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            s = sum(mat_a[i][k] * mat_b[k][j] for k in range(mid))
            row.append(s % prime if prime else s)
        out.append(tuple(row))
    return tuple(out)


def assert_differentials_square_to_zero(pages, prime):
    for page in pages:
        step = (-(page.r), page.r - 1) if page.r else (0, -1)
        for (p, q), matrix in page.diff.items():
            tgt = (p + step[0], q + step[1])
            again = page.diff.get(tgt)
            if again is not None:
                product = compose(again, matrix, prime)
                assert all(not any(row) for row in product)


@pytest.mark.parametrize("build, ring", [(interval_square, "F2"), (torus, "Q")])
def test_differentials_square_to_zero_on_every_page(build, ring):
    D = build()
    for orientation in ("cols", "rows"):
        assert_differentials_square_to_zero(
            spectral_sequence(D, ring, orientation=orientation), ring_prime(ring))


def test_row_orientation_agrees_with_columns():
    for build, ring in ((interval_square, "F2"), (torus, "Q")):
        D = build()
        cols = spectral_sequence(D, ring, orientation="cols")[-1]
        rows = spectral_sequence(D, ring, orientation="rows")[-1]
        assert rows.dims == {(q, p): d for (p, q), d in cols.dims.items()}


def test_dims_never_grow_between_pages():
    for build, ring in ((interval_square, "F2"), (torus, "Q")):
        pages = spectral_sequence(build(), ring)
        for earlier, later in zip(pages, pages[1:]):
            for spot, d in later.dims.items():
                assert d <= earlier.dims.get(spot, 0)


def test_single_column_stabilizes_on_page_one():
    A = unnormalized_chains(standard_semi_simplex(0))
    B = unnormalized_chains(boundary_semi_simplex(2))
    D = tensor_double_complex(A, B)
    pages = spectral_sequence(D, "Q")
    assert pages[-1].r == 1
    assert pages[-1].dims == {(0, 0): 1, (0, 1): 1}
    assert check_convergence(pages, total_complex(D), "Q").ok


def test_pages_stop_at_the_stable_page_of_the_nonzero_spots():
    # a point listed through level 3 with empty levels 1-3: E^0 lives in
    # column 0, so d_1 already leaves it, however many columns the grid lists
    X = listed_sset([[0], [], [], []], lambda p, i, x: x, 3)[0]
    D = bicomplex(exterior_product(X, constant_sset(1, 1)))
    pages = spectral_sequence(D, "q")
    assert [page.r for page in pages] == [0, 1]
    assert check_convergence(pages, total_complex(D), "q").ok


def test_transpose_is_an_involution():
    D = torus()
    again = transpose_double_complex(transpose_double_complex(D))
    assert again == D


def test_integer_coefficients_are_rejected():
    D = interval_square()
    for ring in ("Z", "z", "F4", "R"):
        with pytest.raises(ValueError):
            spectral_sequence(D, ring)
        with pytest.raises(ValueError):
            check_convergence([SSPage(0, "cols", {}, {}, {})], total_complex(D), ring)


def test_unknown_orientation_rejected():
    with pytest.raises(ValueError):
        spectral_sequence(interval_square(), "Q", orientation="diag")


# -- a resolution converging to the homology of a nerve ---------------------------


def test_comma_resolution_of_identity_converges():
    C = poset_category(1)
    res = comma_resolution(identity_functor(C), 2)
    D = bicomplex(res.bisset)
    pages = spectral_sequence(D, "Q")
    report = check_convergence(pages, total_complex(D), "Q")
    assert report.ok
    assert report.degrees[0] == (0, 1, 1)
    assert report.degrees[1] == (1, 0, 0)
    # the identity's nerve is a point, and the trusted low degrees agree with it
    nerve_h = graded_homology(unnormalized_chains(nerve(C, 3).sset), through=1, ring="Q")
    assert [g.rank for g in nerve_h] == [1, 0]


def test_pages_are_deterministic():
    for orientation in ("cols", "rows"):
        a = spectral_sequence(torus(), "Q", orientation=orientation)
        b = spectral_sequence(torus(), "Q", orientation=orientation)
        assert a == b


# -- value types, non-unit pivots, the benchmark input ----------------------------


def page_entries(page):
    for vecs in page.basis.values():
        yield from (x for v in vecs for x in v)
    for matrix in page.diff.values():
        yield from (x for row in matrix for x in row)


def assert_value_types(pages, prime):
    """Fractions over Q, residues as ints in range(p) over F_p."""
    for page in pages:
        for x in page_entries(page):
            if prime is None:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < prime


@pytest.mark.parametrize("ring", ["F2", "F3", "F5", "Q"])
def test_page_values_have_the_ring_type(ring):
    for build in (interval_square, torus):
        for orientation in ("cols", "rows"):
            pages = spectral_sequence(build(), ring, orientation=orientation)
            assert_value_types(pages, ring_prime(ring))


@pytest.mark.parametrize("a_first", [True, False])
@pytest.mark.parametrize("space", [standard_semi_simplex(0), boundary_semi_simplex(2),
                                   standard_semi_simplex(1)],
                         ids=["point", "circle", "interval"])
def test_non_unit_pivots(space, a_first):
    # A = (Q <- Q^2 by [2 1]) puts pivots 2 and 1/2 into the elimination
    A = make_chain_complex((1, 2), [SparseIntMatrix.from_dense([[2, 1]])], complete=True)
    C = unnormalized_chains(space)
    D = tensor_double_complex(A, C) if a_first else tensor_double_complex(C, A)
    for orientation, work in (("cols", D), ("rows", transpose_double_complex(D))):
        pages = spectral_sequence(D, "Q", orientation=orientation)
        assert check_convergence(pages, total_complex(D), "Q").ok
        assert_differentials_square_to_zero(pages, None)
        assert_value_types(pages, None)
        assert any(abs(x) == Fraction(1, 2) for page in pages for x in page_entries(page))
        for (p, q), matrix in pages[1].diff.items():
            assert matrix == induced_d1(work, None, pages, p, q)


# the comma resolution of id2 through level 3, the input of perfbench's
# specseq-pages workload; these pages are what the dense-vector echelon printed
ID2_PAGES = [
    [(0, 0, 6), (0, 1, 10), (0, 2, 15), (0, 3, 21), (1, 0, 10), (1, 1, 15),
     (1, 2, 21), (1, 3, 28), (2, 0, 15), (2, 1, 21), (2, 2, 28), (2, 3, 36),
     (3, 0, 21), (3, 1, 28), (3, 2, 36), (3, 3, 45)],
    [(0, 0, 3), (0, 3, 13), (1, 0, 6), (1, 3, 18), (2, 0, 10), (2, 3, 24),
     (3, 0, 15), (3, 3, 31)],
    [(0, 0, 1), (0, 3, 9), (3, 0, 9), (3, 3, 21)],
    [(0, 0, 1), (0, 3, 9), (3, 0, 9), (3, 3, 21)],
    [(0, 0, 1), (0, 3, 9), (3, 0, 9), (3, 3, 21)],
]


# sha256 of repr((sorted(basis.items()), sorted(diff.items()))) for each page,
# as the two-echelon page construction printed them
ID2_PAGE_DIGESTS = {
    ("F2", "cols"): [
        "95f5c7557a2dc5b5eeff249939c33517b5b532fce2f03edf74886573e718ae6b",
        "d7c3d2b7cbcb1b08fcb57d81414d9e6127365e1113a457a6d296fca19c8f017f",
        "5913989e2fa2ecee49ac35071b922d4fd2c0d0e4492aebfcdcc525f1bcd2e686",
        "c21b59c317f9ac04e5ce6375a542fc1b175b1cbdc22bb884c51ba33b140ee5c2",
        "c21b59c317f9ac04e5ce6375a542fc1b175b1cbdc22bb884c51ba33b140ee5c2",
    ],
    ("F2", "rows"): [
        "1cf76de5298153b5279ff3aad185e3d320fbfbd9e6580e9914ceaec8ef47db9d",
        "6fd05dc901e7a7204c59d35b12eb1103cb2ef4d9b7ea83b86350749ea3ae6baf",
        "b766f2af0d87598a2baed9b8b5801528f1932dbe643b4339886c852c1347c59f",
        "b766f2af0d87598a2baed9b8b5801528f1932dbe643b4339886c852c1347c59f",
        "b766f2af0d87598a2baed9b8b5801528f1932dbe643b4339886c852c1347c59f",
    ],
    ("Q", "cols"): [
        "5df886443894ac280d8d20596981cd29078123f0b8a148360d11efb3915d6a11",
        "f658e9e77e28ea39f53e472b20bc1bed6688ee5109b4a24c6c16713dff6a913e",
        "e935c9ef2237a5af56ad925c5265673db38d2d917b7e213207659181378654b8",
        "d675b33d7af0d1014cc1ca3a59293f12c2025536dde6f7b5b4a45d1df0838ea8",
        "d675b33d7af0d1014cc1ca3a59293f12c2025536dde6f7b5b4a45d1df0838ea8",
    ],
    ("Q", "rows"): [
        "9f9b3a0847a40bc3844c0690f5ebe8178c89b266b64e324d3a9b57032a143d44",
        "152ff0ca0c03262dc93edf2f5009cb251e762bcb050ca0c7c2b24861533a2702",
        "685ae52e6ef9234d2c3d0c058bb01e651e17a1c536178b7a03e5fb1f138dd3df",
        "685ae52e6ef9234d2c3d0c058bb01e651e17a1c536178b7a03e5fb1f138dd3df",
        "685ae52e6ef9234d2c3d0c058bb01e651e17a1c536178b7a03e5fb1f138dd3df",
    ],
}


def page_digest(page):
    text = repr((sorted(page.basis.items()), sorted(page.diff.items())))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("ring", ["F2", "Q"])
def test_benchmark_input_pages_are_pinned(ring):
    D = id2_resolution()
    for orientation in ("cols", "rows"):
        pages = spectral_sequence(D, ring, orientation=orientation)
        assert [sorted((p, q, d) for (p, q), d in page.dims.items() if d)
                for page in pages] == ID2_PAGES
        assert [page_digest(page) for page in pages] == ID2_PAGE_DIGESTS[(ring, orientation)]
        assert check_convergence(pages, total_complex(D), ring).ok
