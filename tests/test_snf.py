import hashlib
import random
from fractions import Fraction

import pytest

from oracles import reference_snf, time_limit
from ssethom.homalg import make_chain_complex
from ssethom.snf import SparseIntMatrix, invariant_factors, smith_normal_form


def reference_rank(dense, p=None):
    """Rank over F_p, or over Q when p is None, by dense Gaussian elimination.

    Runs on residues mod p or on Fractions, independent of the production
    code, which reads field ranks off the integer Smith form.
    """
    mat = [[Fraction(v) if p is None else v % p for v in row] for row in dense]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c] if p is None else pow(mat[rank][c], -1, p)
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
                if p is not None:
                    mat[i] = [a % p for a in mat[i]]
        rank += 1
    return rank


FIELDS = (("Q", None), ("F2", 2), ("F3", 3), ("F5", 5))


def field_rank(dense, cols, ring):
    """Rank over ``ring`` of the matrix as the one boundary d_1 of a complex."""
    a = SparseIntMatrix.from_dense(dense, cols)
    return make_chain_complex((len(dense), cols), [a]).boundary_rank(1, ring)


def dense_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][x] * b[x][j] for x in range(k)) for j in range(m)] for i in range(n)]


def random_dense(rng, rows, cols, lo=-6, hi=6, density=0.7):
    return [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def test_identity():
    assert smith_normal_form(SparseIntMatrix.identity(3)).factors == (1, 1, 1)


def test_zero_and_empty():
    assert smith_normal_form(SparseIntMatrix.zero(3, 4)).factors == ()
    assert smith_normal_form(SparseIntMatrix.zero(0, 5)).factors == ()
    assert smith_normal_form(SparseIntMatrix.zero(5, 0)).factors == ()


def test_diagonal_already_smith():
    m = SparseIntMatrix.from_dense([[2, 0], [0, 4]])
    assert smith_normal_form(m).factors == (2, 4)


def test_two_by_two_with_torsion():
    # det = -8, gcd of entries 2: invariant factors (2, 4)
    m = SparseIntMatrix.from_dense([[2, 4], [6, 8]])
    assert smith_normal_form(m).factors == (2, 4)
    assert reference_snf([[2, 4], [6, 8]]) == (2, 4)


def test_rank_deficient():
    m = SparseIntMatrix.from_dense([[1, 0], [0, 0]])
    assert smith_normal_form(m).factors == (1,)
    m2 = SparseIntMatrix.from_dense([[1, 2], [2, 4]])
    assert smith_normal_form(m2).factors == (1,)


def test_divisibility_chain_needs_mixing():
    # diag(2, 3) is not in Smith form; the chain is (1, 6)
    m = SparseIntMatrix.from_dense([[2, 0], [0, 3]])
    assert smith_normal_form(m).factors == (1, 6)


def test_klein_bottle_style_relation():
    # coker of [[2]] next to a unit relation
    m = SparseIntMatrix.from_dense([[1, 1], [1, -1]])
    assert smith_normal_form(m).factors == (1, 2)


def test_big_integers_exact():
    big = 2 ** 100
    m = SparseIntMatrix.from_dense([[big, 1], [1, 1]])
    assert smith_normal_form(m).factors == (1, big - 1)


def test_oracle_agreement_random():
    rng = random.Random(20260816)
    for trial in range(200):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        dense = random_dense(rng, rows, cols)
        a = SparseIntMatrix.from_dense(dense, cols)
        assert smith_normal_form(a).factors == reference_snf(dense), (trial, dense)


def test_oracle_agreement_larger_entries():
    rng = random.Random(7)
    for trial in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        dense = random_dense(rng, rows, cols, lo=-50, hi=50, density=0.9)
        a = SparseIntMatrix.from_dense(dense, cols)
        assert smith_normal_form(a).factors == reference_snf(dense), (trial, dense)


def test_oracle_agreement_with_sympy():
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(424242)
    for trial in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        lo, hi = (-50, 50) if trial % 3 == 0 else (-6, 6)
        dense = random_dense(rng, rows, cols, lo=lo, hi=hi)
        a = SparseIntMatrix.from_dense(dense, cols)
        # sympy pads with zeros up to min(rows, cols)
        want = tuple(abs(int(d)) for d in invariant_factors(Matrix(dense), domain=ZZ) if d)
        assert smith_normal_form(a).factors == want, (trial, dense)


def test_invariant_factors_merge():
    # one factor per order, 1s kept, least first
    assert invariant_factors(()) == ()
    assert invariant_factors((2, 3)) == (1, 6)
    assert invariant_factors((6, 4, 1)) == (1, 2, 12)
    assert invariant_factors((4, 2, 8, 3)) == (1, 2, 4, 24)
    with pytest.raises(ValueError):
        invariant_factors((2, 0))


def test_a_long_diagonal_is_eliminated_in_linear_time():
    # a pivot checked against every remaining row makes this quadratic
    n = 4000
    a = SparseIntMatrix(n, n, {i: {i: 6 if i % 2 else 2} for i in range(n)})
    with time_limit(2):
        s = smith_normal_form(a)
    assert s.factors == (2,) * (n // 2) + (6,) * (n // 2)
    assert sorted(s.diagonal) == list(s.factors)


def test_transforms_diagonalize():
    # V V_inv = I, columns rank: of A V vanish, and column i < rank of A V is
    # diagonal[i] times a column of a unimodular matrix: the quotient columns
    # have all-unit invariant factors, so they extend to a basis of Z^rows.
    # Together that is A = U^-1 D V^-1 for some unimodular U, with D the
    # diagonal, whose invariant factors are the factors.
    rng = random.Random(99)
    for trial in range(120):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        lo, hi = (-30, 30) if trial % 3 == 0 else (-6, 6)
        dense = random_dense(rng, rows, cols, lo=lo, hi=hi)
        a = SparseIntMatrix.from_dense(dense, cols)
        s = smith_normal_form(a, transforms=True)
        assert s.factors == reference_snf(dense), (trial, dense)
        assert s.V.mul(s.V_inv) == SparseIntMatrix.identity(cols), (trial, dense)
        av = dense_mul(dense, s.V.to_dense())
        quotient = []
        for i in range(rows):
            assert all(av[i][j] == 0 for j in range(s.rank, cols)), (trial, dense)
            assert all(av[i][j] % s.diagonal[j] == 0 for j in range(s.rank)), (trial, dense)
            quotient.append([av[i][j] // s.diagonal[j] for j in range(s.rank)])
        if s.rank:
            assert reference_snf(quotient) == (1,) * s.rank, (trial, dense)


def test_kernel_basis_spans_and_is_killed():
    # the kernel basis is columns rank: of V
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        dense = random_dense(rng, rows, cols)
        a = SparseIntMatrix.from_dense(dense, cols)
        s = smith_normal_form(a, transforms=True)
        ker = [s.V.column(j) for j in range(s.rank, cols)]
        assert len(ker) == cols - smith_normal_form(a).rank
        for v in ker:
            assert a.apply(v) == {}
        if ker:
            # the kernel vectors extend to a basis of Z^cols, so they are
            # linearly independent and saturated
            km = SparseIntMatrix(cols, len(ker),
                                 {r: {j: v[r] for j, v in enumerate(ker) if r in v}
                                  for r in range(cols)})
            assert smith_normal_form(km).factors == (1,) * len(ker)


def test_field_ranks():
    m = [[2, 4], [6, 8]]
    want = {"Q": 2, "F2": 0, "F3": 2, "F5": 2}  # invariant factors (2, 4)
    n = [[1, 1], [1, 1]]
    zero = [[0] * 3 for _ in range(3)]
    for ring, p in FIELDS:
        assert field_rank(m, 2, ring) == reference_rank(m, p) == want[ring]
        assert field_rank(n, 2, ring) == reference_rank(n, p) == 1
        assert field_rank(zero, 3, ring) == reference_rank(zero, p) == 0


def random_rank_cases(seed, **kw):
    """The matrices of one seeded sweep, with their column counts."""
    rng = random.Random(seed)
    for _ in range(40):
        dense = random_dense(rng, rng.randint(1, 5), rng.randint(1, 5), **kw)
        yield dense, len(dense[0])


def test_field_rank_matches_smith_rank_over_q():
    for dense, cols in random_rank_cases(31):
        a = SparseIntMatrix.from_dense(dense, cols)
        assert field_rank(dense, cols, "Q") == reference_rank(dense) == smith_normal_form(a).rank, dense


def test_rank_mod_p_from_invariant_factors():
    # rank over F_p = number of invariant factors not divisible by p
    for dense, cols in random_rank_cases(13, lo=-9, hi=9):
        fac = smith_normal_form(SparseIntMatrix.from_dense(dense, cols)).factors
        for ring, p in FIELDS[1:]:
            got = field_rank(dense, cols, ring)
            assert got == reference_rank(dense, p) == sum(1 for d in fac if d % p), (ring, dense)


def test_field_ranks_agree_with_sympy():
    pytest.importorskip("sympy")
    from sympy import GF, QQ
    from sympy.polys.matrices import DomainMatrix

    cases = list(random_rank_cases(31)) + list(random_rank_cases(13, lo=-9, hi=9))
    for dense, cols in cases:
        for ring, p in FIELDS:
            want = DomainMatrix.from_list(dense, QQ if p is None else GF(p)).rank()
            assert field_rank(dense, cols, ring) == want, (ring, dense)


def test_matrix_ops_shape_errors():
    a = SparseIntMatrix.zero(2, 3)
    b = SparseIntMatrix.zero(3, 2)
    with pytest.raises(ValueError):
        a.add(b)
    with pytest.raises(ValueError):
        a.mul(a)
    assert a.mul(b) == SparseIntMatrix.zero(2, 2)


def test_block_assembly():
    f = SparseIntMatrix.from_dense([[1, 2]])
    d = SparseIntMatrix.from_dense([[3]])
    m = SparseIntMatrix.block({(0, 0): f, (1, 1): d}, [1, 1], [2, 1])
    assert m.to_dense() == [[1, 2, 0], [0, 0, 3]]
    t = m.transpose()
    assert t.to_dense() == [[1, 0], [2, 0], [0, 3]]
    # one wrong side of a block is enough to refuse it
    for rows, cols in (([1, 1], [3, 1]), ([2, 1], [2, 1])):
        with pytest.raises(ValueError, match=r"^block shape mismatch$"):
            SparseIntMatrix.block({(0, 0): f}, rows, cols)


def test_smith_forms_are_pinned(monkeypatch):
    """Pins the exact factors, V and V_inv of a fixed seeded set.

    The set: the free-pair residuals of the level-5 nerves of Z/4 and
    Z/2 x Z/2 (factors only, as ``ChainComplex`` factors them: bottom-up,
    each d_k without the rows at d_{k-1}'s unit-prefix pivots, which leaves
    its factors as they were), the transform forms of the level-4 nerve
    boundaries of Z/3, and 20 seeded random matrices without unit entries,
    with and without transforms, so that gcd pivots run and pivots that do
    not divide one another reach ``invariant_factors``.  The invariant
    factors are unique, but V and V_inv are not: they follow the pivot
    order.  Any change of pivot choice, pivot order or column step moves
    this pin even when every factor stays right, so a deliberate change must
    pass the oracles above and take the pin again.
    """
    from ssethom import homalg
    from ssethom.cat import monoid_as_category, nerve
    from ssethom.fixtures import cyclic_group_monoid, klein_four_monoid
    from ssethom.homalg import unnormalized_chains

    lines = []

    def record(s):
        lines.append(repr((s.factors,
                           None if s.V is None else tuple(s.V.entries()),
                           None if s.V_inv is None else tuple(s.V_inv.entries()))))
        return s

    with monkeypatch.context() as m:
        m.setattr(homalg, "smith_normal_form",
                  lambda A, transforms=False: record(smith_normal_form(A, transforms)))
        for M in (cyclic_group_monoid(4), klein_four_monoid()):
            C = unnormalized_chains(nerve(monoid_as_category(M), 5).sset)
            for k in range(1, C.top_degree + 1):
                C.boundary_rank(k)
    C = unnormalized_chains(nerve(monoid_as_category(cyclic_group_monoid(3)), 4).sset)
    for k in range(1, C.top_degree + 1):
        record(smith_normal_form(C.boundary(k), transforms=True))
    rng = random.Random(1717)
    for _ in range(20):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        dense = [[rng.choice((0, 0, 2, -2, 3, -3, 4, 6, -9)) for _ in range(cols)]
                 for _ in range(rows)]
        a = SparseIntMatrix.from_dense(dense, cols)
        record(smith_normal_form(a))
        record(smith_normal_form(a, transforms=True))
    assert len(lines) == 54
    got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert got == "f3de9a7cfafcedc7b4aa7a61b4fb6364382a34a4ef298f8c18a7bca7fdc2dae2"


def stores_no_zero(m):
    """No stored row is empty and no stored entry is zero."""
    return all(row and all(row.values()) for row in m.data.values())


def cancelling_entries(rng, rows, cols):
    """Seeded entries: some are zero, about half are followed by their
    negative, and every position of row 0 also gets a 2 and a -2."""
    entries = []
    for _ in range(rows * cols):
        r, c, v = rng.randrange(rows), rng.randrange(cols), rng.randint(-3, 3)
        entries.append((r, c, v))
        if rng.random() < 0.5:
            entries.append((r, c, -v))
    if rows:
        entries += [(0, c, k) for c in range(cols) for k in (2, -2)]
    rng.shuffle(entries)
    return entries


def dense_of(rows, cols, entries):
    out = [[0] * cols for _ in range(rows)]
    for r, c, v in entries:
        out[r][c] += v
    return out


def test_constructor_is_the_only_zero_filter():
    """Every builder and every operation hands its raw sums to the constructor,
    which drops the zero entries and the empty rows; the results still equal
    a dense oracle."""
    rng = random.Random(1905)
    for _ in range(60):
        n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        ea, eb = cancelling_entries(rng, n, k), cancelling_entries(rng, k, m)
        a, b = SparseIntMatrix.from_entries(n, k, ea), SparseIntMatrix.from_entries(k, m, eb)
        da, db = dense_of(n, k, ea), dense_of(k, m, eb)
        # a row that is the sum of two others makes a sign-alternating row of
        # the left factor cancel in the product
        if n and k >= 3:
            db[2] = [x + y for x, y in zip(db[0], db[1])]
            b = SparseIntMatrix.from_dense(db, m)
            da[0][:3] = [1, 1, -1]
            a = SparseIntMatrix.from_dense(da, k)
        c = SparseIntMatrix.from_entries(n, k, [(r, j, -v) for r, j, v in ea[::2]])
        dc = dense_of(n, k, [(r, j, -v) for r, j, v in ea[::2]])
        results = [
            (a, da),
            (b, db),
            (a.mul(b), dense_mul(da, db) if k else [[0] * m for _ in range(n)]),
            (a.add(c), [[x + y for x, y in zip(p, q)] for p, q in zip(da, dc)]),
            (a.add(a.scale(-1)), [[0] * k for _ in range(n)]),
            (a.sub(a), [[0] * k for _ in range(n)]),
            (a.scale(0), [[0] * k for _ in range(n)]),
            (a.scale(-2), [[-2 * x for x in row] for row in da]),
            (a.transpose(), [list(col) for col in zip(*da)] if n else [[] for _ in range(k)]),
            (SparseIntMatrix.block({(0, 0): a, (1, 1): a.scale(0), (1, 0): c}, [n, n], [k, k]),
             [p + [0] * k for p in da] + [q + [0] * k for q in dc]),
        ]
        for got, want in results:
            assert stores_no_zero(got), got.data
            assert got.to_dense() == want
    assert SparseIntMatrix.from_dense([[0, 0], [0, 3]]).data == {1: {1: 3}}


def test_constructor_range_checks_are_pinned():
    for rows, cols in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match=r"^negative matrix dimensions$"):
            SparseIntMatrix(rows, cols)
    with pytest.raises(ValueError, match=r"^row index 2 out of range$"):
        SparseIntMatrix(2, 3, {2: {0: 1}})
    with pytest.raises(ValueError, match=r"^row index -1 out of range$"):
        SparseIntMatrix.from_entries(2, 3, [(-1, 0, 5)])
    with pytest.raises(ValueError, match=r"^col index 3 out of range$"):
        SparseIntMatrix(2, 3, {0: {1: 1, 3: 1}})
    with pytest.raises(ValueError, match=r"^col index -4 out of range$"):
        SparseIntMatrix.from_entries(2, 3, [(1, -4, 1)])
    # a zero entry is dropped before its position is checked
    assert SparseIntMatrix(2, 3, {7: {0: 0}, 0: {9: 0, 1: 4}}).data == {0: {1: 4}}
    assert SparseIntMatrix.from_entries(2, 3, [(5, 0, 1), (5, 0, -1), (0, 8, 0)]).is_zero()
    assert SparseIntMatrix.from_dense([[1, 0, 0]], 1).data == {0: {0: 1}}
