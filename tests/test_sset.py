import itertools
import math
import random

import dataclasses

import pytest

from oracles import (
    diagonal,
    factor_monotone,
    insert_letter,
    minimal_rp2,
    minimal_s2,
    monotone_to_simplex_ref,
    nonunital_category_corpus,
    simplex_ref_to_monotone,
    surjection_to_word,
    word_to_surjection,
)
from ssethom import cat, homalg, sset
from ssethom import fixtures as fx
from ssethom.cat import (
    FinMonoid,
    NatTransData,
    identity_functor,
    monoid_as_category,
    nerve,
    regular_action,
    validate_action,
    validate_category,
    validate_functor,
    validate_monoid,
    validate_nat_trans,
)
from ssethom.sset import (
    BiSemiSimplicialSet,
    ExtraDegeneracy,
    PrismHomotopy,
    SemiSimplicialSet,
    SimplexRef,
    SSetMap,
    _staged,
    boundary_semi_simplex,
    check_certificate,
    check_sset_map,
    constant_sset,
    enumerate_simplicial,
    euler_characteristic,
    exterior_product,
    free_degeneracies,
    is_canonical_word,
    iter_simplices,
    levelwise_product,
    normalize_face,
    path_space,
    segal_map,
    skeleton,
    skeleton_inclusion,
    standard_semi_simplex,
    standard_simplicial_simplex,
    unit_map,
    validate_bisset,
    validate_simplicial,
    validate_sset,
)


# -- semi-simplicial basics --------------------------------------------------


def test_standard_simplex_sizes_and_validity():
    for n in range(5):
        s = standard_semi_simplex(n)
        assert validate_sset(s).ok
        assert s.sizes == tuple(math.comb(n + 1, q + 1) for q in range(n + 1))
        assert s.top_dim == n
        assert euler_characteristic(s) == 1


def test_boundary_simplex():
    for n in range(1, 5):
        b = boundary_semi_simplex(n)
        assert validate_sset(b).ok
        assert len(b.sizes) == n
    # boundary of the 3-simplex is a 2-sphere
    assert euler_characteristic(boundary_semi_simplex(3)) == 2
    assert euler_characteristic(boundary_semi_simplex(2)) == 0  # a circle


def test_empty_boundary_of_point():
    b = boundary_semi_simplex(0)
    assert b.sizes == ()
    assert b.top_dim == -1
    assert euler_characteristic(b) == 0


def test_euler_characteristic_of_a_simplicial_set_counts_generators():
    assert euler_characteristic(standard_simplicial_simplex(2)) == 1
    assert euler_characteristic(free_degeneracies(boundary_semi_simplex(3))) == 2
    with pytest.raises(ValueError, match="truncated complex is not determined"):
        euler_characteristic(free_degeneracies(constant_sset(2, 3)))


def test_constant_sset():
    c = constant_sset(2, 4)
    assert validate_sset(c).ok
    assert c.truncated_at == 4
    assert c.top_dim is None
    with pytest.raises(ValueError):
        euler_characteristic(c)


def test_validate_catches_bad_identity():
    # a fake 2-level complex where d_0 d_1 != d_0 d_0 style identities break
    X = SemiSimplicialSet(
        (2, 2, 1),
        ((),
         ((0, 1), (1, 0)),
         ((0,), (1,), (0,))),
    )
    rep = validate_sset(X)
    assert not rep.ok
    assert "face identity" in rep.first()


def test_validate_lists_the_first_21_identity_failures():
    # d_1 on the 2-simplices of the standard 4-simplex, rotated by one
    X = standard_semi_simplex(4)
    faces = list(X.faces)
    faces[2] = (faces[2][0], faces[2][1][1:] + faces[2][1][:1], faces[2][2])
    rep = validate_sset(SemiSimplicialSet(X.sizes, tuple(faces)))
    # the list the per-simplex walk produced, in its order, cut at 21
    assert rep.problems == (
        "face identity fails at level 2, simplex 0: d_0 d_1 = 3 but d_0 d_0 = 2",
        "face identity fails at level 2, simplex 1: d_0 d_1 = 4 but d_0 d_0 = 3",
        "face identity fails at level 2, simplex 2: d_0 d_1 = 3 but d_0 d_0 = 4",
        "face identity fails at level 2, simplex 3: d_0 d_1 = 4 but d_0 d_0 = 3",
        "face identity fails at level 2, simplex 5: d_0 d_1 = 3 but d_0 d_0 = 4",
        "face identity fails at level 2, simplex 6: d_0 d_1 = 4 but d_0 d_0 = 3",
        "face identity fails at level 2, simplex 9: d_0 d_1 = 2 but d_0 d_0 = 4",
        "face identity fails at level 2, simplex 5: d_1 d_2 = 0 but d_1 d_1 = 1",
        "face identity fails at level 2, simplex 8: d_1 d_2 = 1 but d_1 d_1 = 2",
        "face identity fails at level 2, simplex 9: d_1 d_2 = 2 but d_1 d_1 = 0",
        "face identity fails at level 3, simplex 0: d_0 d_2 = 5 but d_1 d_0 = 6",
        "face identity fails at level 3, simplex 2: d_0 d_2 = 6 but d_1 d_0 = 8",
        "face identity fails at level 3, simplex 3: d_0 d_2 = 8 but d_1 d_0 = 1",
        "face identity fails at level 3, simplex 4: d_0 d_2 = 8 but d_1 d_0 = 1",
        "face identity fails at level 3, simplex 1: d_1 d_2 = 2 but d_1 d_1 = 3",
        "face identity fails at level 3, simplex 2: d_1 d_2 = 2 but d_1 d_1 = 5",
        "face identity fails at level 3, simplex 3: d_1 d_2 = 3 but d_1 d_1 = 5",
        "face identity fails at level 3, simplex 4: d_1 d_2 = 6 but d_1 d_1 = 8",
        "face identity fails at level 3, simplex 0: d_1 d_3 = 2 but d_2 d_1 = 1",
        "face identity fails at level 3, simplex 1: d_1 d_3 = 2 but d_2 d_1 = 1",
        "face identity fails at level 3, simplex 2: d_1 d_3 = 3 but d_2 d_1 = 2",
    )


def test_validate_bisset_reports_short_tables():
    B = BiSemiSimplicialSet(((1,), (2,)), (((),), (((0,), (0,)),)), (((),), ((),)))
    assert validate_bisset(B).problems == (
        "column 0: level 1 face 0: table length 1 != 2",
        "column 0: level 1 face 1: table length 1 != 2")
    B = BiSemiSimplicialSet(((1, 2),), (((), ()),), (((), ((0,),)),))
    assert validate_bisset(B).problems == ("row 0: level 1: expected 2 face maps, got 1",)


def test_validate_bisset_reports_a_grid_mismatch():
    B = BiSemiSimplicialSet(((1,), (1,), (1,)), (((),), (((0,), (0,)),)), (((),), ((),)))
    assert validate_bisset(B).problems == ("dh tables do not match the 3x1 size grid",)


def test_validate_bisset_lists_the_first_20_failures():
    # three swapped pairs in the square of a 2-simplex and a 3-simplex break
    # all three identity families, 30 simplex checks in all
    B = exterior_product(standard_semi_simplex(2), standard_semi_simplex(3))
    dh = [list(row) for row in B.dh]
    dv = [list(row) for row in B.dv]
    for grid, p, q, k in ((dh, 2, 1, 2), (dv, 1, 2, 0), (dh, 2, 2, 1)):
        cell = list(grid[p][q])
        cell[k] = (cell[k][1], cell[k][0]) + cell[k][2:]
        grid[p][q] = tuple(cell)
    rep = validate_bisset(BiSemiSimplicialSet(B.sizes, tuple(map(tuple, dh)),
                                              tuple(map(tuple, dv))))
    # the list the per-simplex walk produced, in its order, cut at 20
    assert rep.problems == (
        "horizontal identity fails at (2,1) simplex 0",
        "horizontal identity fails at (2,1) simplex 1",
        "horizontal identity fails at (2,1) simplex 0",
        "horizontal identity fails at (2,1) simplex 1",
        "horizontal identity fails at (2,2) simplex 0",
        "horizontal identity fails at (2,2) simplex 1",
        "horizontal identity fails at (2,2) simplex 0",
        "horizontal identity fails at (2,2) simplex 1",
        "vertical identity fails at (1,2) simplex 0",
        "vertical identity fails at (1,2) simplex 1",
        "vertical identity fails at (1,3) simplex 0",
        "vertical identity fails at (1,3) simplex 0",
        "dh/dv do not commute at (1,2) simplex 0",
        "dh/dv do not commute at (1,2) simplex 1",
        "dh/dv do not commute at (1,2) simplex 0",
        "dh/dv do not commute at (1,2) simplex 1",
        "dh/dv do not commute at (2,1) simplex 0",
        "dh/dv do not commute at (2,1) simplex 1",
        "dh/dv do not commute at (2,2) simplex 0",
        "dh/dv do not commute at (2,2) simplex 1",
    )


def test_truncation_flag_must_match_levels():
    X = SemiSimplicialSet((1,), ((),), truncated_at=3)
    assert not validate_sset(X).ok


def test_shape_messages_name_the_listed_levels():
    X = SemiSimplicialSet((1, 1), ((), ((0,), (0,))), truncated_at=3)
    assert validate_sset(X).problems == ("truncated_at=3 but levels run 0..1",)
    Y = standard_simplicial_simplex(2)
    assert validate_simplicial(dataclasses.replace(Y, truncated_at=5)).problems == (
        "truncated_at=5 but generator degrees run 0..2",)
    one_face = (Y.gen_faces[0], Y.gen_faces[1][:1], Y.gen_faces[2])
    assert validate_simplicial(dataclasses.replace(Y, gen_faces=one_face)).problems == (
        "degree 1: expected 2 face maps",)


def test_skeleton_and_inclusion():
    s = standard_semi_simplex(3)
    sk = skeleton(s, 1)
    assert sk.sizes == (4, 6)
    assert sk.top_dim == 1
    inc = skeleton_inclusion(s, 1)
    assert check_sset_map(inc).ok
    # skeleton of a truncated complex above its truncation is refused
    c = constant_sset(1, 2)
    with pytest.raises(ValueError):
        skeleton(c, 3)
    assert skeleton(c, 2).truncated_at is None


def test_identity_and_composition():
    s = standard_semi_simplex(2)
    i = SSetMap(s, s, tuple(tuple(range(n)) for n in s.sizes))
    assert check_sset_map(i).ok


def test_check_sset_map_lists_the_first_21_failures():
    # the standard 3-simplex into itself, levels 0-2 permuted: 22 squares fail
    X = standard_semi_simplex(3)
    f = SSetMap(X, X, ((1, 2, 3, 0), (5, 4, 3, 2, 1, 0), (3, 2, 1, 0), (0,)))
    # the list the per-simplex walk produced, in level, face, simplex order,
    # cut at 21 (the 22nd, d_3 at level 3, is dropped)
    assert check_sset_map(f).problems == tuple(
        f"does not commute with d_{i} at level {p}, simplex {s}" for p, i, s in (
            (1, 0, 0), (1, 0, 2), (1, 0, 4), (1, 0, 5),
            (1, 1, 0), (1, 1, 3), (1, 1, 4), (1, 1, 5),
            (2, 0, 0), (2, 0, 1), (2, 0, 2), (2, 0, 3),
            (2, 1, 1), (2, 1, 2),
            (2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 2, 3),
            (3, 0, 0), (3, 1, 0), (3, 2, 0)))


# -- products ----------------------------------------------------------------


def test_exterior_product_validates():
    a = standard_semi_simplex(1)
    b = boundary_semi_simplex(2)
    e = exterior_product(a, b)
    assert validate_bisset(e).ok
    assert e.size(1, 1) == 1 * 3


def test_diagonal_of_interval_square():
    a = standard_semi_simplex(1)
    d = diagonal(exterior_product(a, a))
    assert validate_sset(d).ok
    assert d.sizes == (4, 1)
    # the naive semi-simplicial diagonal is not a square: chi = 3, not 1
    assert euler_characteristic(d) == 3


@pytest.mark.parametrize("X,Y", [
    (boundary_semi_simplex(2), standard_semi_simplex(2)),
    (enumerate_simplicial(free_degeneracies(boundary_semi_simplex(2)), 3).sset,
     enumerate_simplicial(standard_simplicial_simplex(1), 4).sset),
    (standard_semi_simplex(3), boundary_semi_simplex(2)),
    (boundary_semi_simplex(3), enumerate_simplicial(standard_simplicial_simplex(2), 4).sset),
], ids=["complete", "truncated-3-and-4", "unequal-levels", "complete-by-truncated"])
def test_levelwise_product_is_the_diagonal_of_the_exterior_product(X, Y):
    P = levelwise_product(X, Y)
    assert P == diagonal(exterior_product(X, Y))
    assert validate_sset(P).ok
    assert len(P.sizes) == min(len(X.sizes), len(Y.sizes))
    assert (P.truncated_at is None) == (X.truncated_at is None and Y.truncated_at is None)


def test_interior_product_of_intervals_is_a_square():
    d1 = standard_simplicial_simplex(1)
    sq = levelwise_product(enumerate_simplicial(d1, 3).sset, enumerate_simplicial(d1, 3).sset)
    assert validate_sset(sq).ok
    # level p counts monotone-map pairs: (p+2)^2
    assert sq.sizes == tuple((p + 2) ** 2 for p in range(4))


# -- path space and Segal ----------------------------------------------------


def test_path_space_shifts():
    s = standard_semi_simplex(2)
    p = path_space(s)
    assert validate_sset(p).ok
    assert p.sizes == (3, 1)


def test_path_space_of_two_levels_is_one_level():
    # PX_0 = X_1: the interval's path space is its one edge
    p = path_space(standard_semi_simplex(1))
    assert (p.sizes, p.faces, p.truncated_at) == ((1,), ((),), None)


def test_path_space_rejects_low_truncation():
    with pytest.raises(ValueError):
        path_space(constant_sset(1, 1))


def test_segal_on_standard_simplex():
    s = standard_semi_simplex(2)
    # kappa_2 of the top cell picks out the two short edges: injective, but
    # one simplex cannot cover the 3^2 edge tuples
    assert s.sizes[2] == 1 and s.sizes[1] ** 2 == 9
    [(e1, e2)] = segal_map(s, 2)
    subs = list(itertools.combinations(range(3), 2))
    assert subs[e1] == (0, 1)
    assert subs[e2] == (1, 2)


def segal_walk(X, p):
    """Reference: edge j of each p-simplex, deleting the other vertices one at
    a time in decreasing order."""
    out = []
    for s in range(X.sizes[p]):
        comps = []
        for j in range(1, p + 1):
            cur = s
            lvl = p
            for v in range(p, -1, -1):
                if v != j - 1 and v != j:
                    cur = X.face(lvl, v, cur)
                    lvl -= 1
            comps.append(cur)
        out.append(tuple(comps))
    return out


SEGAL_CATEGORIES = {**nonunital_category_corpus(),
                    "C3": monoid_as_category(fx.cyclic_group_monoid(3))}


@pytest.mark.parametrize("name", sorted(SEGAL_CATEGORIES))
def test_segal_map_of_a_nerve_lists_the_arrows_of_each_chain(name):
    nd = nerve(SEGAL_CATEGORIES[name], 4)
    for p in range(1, 5):
        want = [tuple(nd.index[1][(f,)] for f in chain) for chain in nd.chains[p]]
        assert segal_map(nd.sset, p) == want, p


def test_segal_map_of_the_standard_simplex_takes_consecutive_vertices():
    X = standard_semi_simplex(4)
    edges = list(itertools.combinations(range(5), 2))
    for p in range(1, 5):
        want = [tuple(edges.index(t[j - 1:j + 1]) for j in range(1, p + 1))
                for t in itertools.combinations(range(5), p + 1)]
        assert segal_map(X, p) == want, p
    assert [edges[e] for e in segal_map(X, 4)[0]] == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_segal_map_matches_the_vertex_walk_on_random_tables():
    """Seeded face tables, valid and invalid (entries in range, identities
    not checked), against the walk that deletes vertices one at a time."""
    rng = random.Random(404)
    cases = invalid = 0
    for seed in range(120):
        Xs = [enumerate_simplicial(free_degeneracies(skeleton(
            fx.random_semi_simplicial(seed), 3)), 4).sset]
        sizes = [rng.randint(1, 4) for _ in range(6)]
        Xs.append(SemiSimplicialSet(tuple(sizes), ((),) + tuple(
            tuple(tuple(rng.randrange(sizes[p - 1]) for _ in range(sizes[p]))
                  for _ in range(p + 1)) for p in range(1, 6))))
        for X in Xs:
            invalid += not validate_sset(X).ok
            for p in range(1, len(X.sizes)):
                assert segal_map(X, p) == segal_walk(X, p), (seed, p)
                cases += 1
    assert cases == 1080 and invalid >= 100


# -- degeneracy words --------------------------------------------------------


def test_insert_letter_examples():
    assert insert_letter(0, ()) == (0,)
    assert insert_letter(0, (0,)) == (1, 0)
    assert insert_letter(2, (1, 0)) == (2, 1, 0)
    assert insert_letter(0, (2, 1)) == (3, 2, 0)


def test_insert_letter_stays_canonical():
    for deg in range(4):
        for k in range(3):
            for word in itertools.combinations(range(deg + k - 1, -1, -1), k):
                if not is_canonical_word(word, deg):
                    continue
                for a in range(deg + k + 1):
                    out = insert_letter(a, word)
                    assert is_canonical_word(out, deg), (a, word, out)


def test_word_surjection_roundtrip():
    for p in range(6):
        for q in range(p + 1):
            k = p - q
            for word in itertools.combinations(range(p - 1, -1, -1), k):
                surj = word_to_surjection(word, q)
                assert len(surj) == p + 1
                assert surj[0] == 0 and surj[-1] == q
                assert all(surj[i + 1] - surj[i] in (0, 1) for i in range(p))
                assert surjection_to_word(surj) == word


def test_factor_monotone():
    word, image = factor_monotone((0, 0, 2, 3, 3))
    assert image == (0, 2, 3)
    assert word == (3, 0)
    # reassemble: image[surj] == vals
    surj = word_to_surjection(word, len(image) - 1)
    assert tuple(image[v] for v in surj) == (0, 0, 2, 3, 3)


# -- simplicial sets and normalize_face ---------------------------------------


def rewrite_oracle(Y, i, ref):
    """Slow independent evaluation of d_i on a canonical simplex.

    Keeps an operator list [("d", i), ("s", j1), ...] over a generator and
    blindly applies the mixed identities at the leftmost applicable spot
    until the single face operator is absorbed or reaches the generator.
    """
    ops = [("d", i)] + [("s", j) for j in ref.word]
    changed = True
    while changed:
        changed = False
        for t in range(len(ops) - 1):
            a, b = ops[t], ops[t + 1]
            if a[0] == "d" and b[0] == "s":
                di, sj = a[1], b[1]
                if di == sj or di == sj + 1:
                    ops[t:t + 2] = []
                elif di < sj:
                    ops[t:t + 2] = [("s", sj - 1), ("d", di)]
                else:
                    ops[t:t + 2] = [("s", sj), ("d", di - 1)]
                changed = True
                break
    deg, gen = ref.deg, ref.gen
    word: tuple[int, ...] = ()
    if ops and ops[-1][0] == "d":
        face = Y.gen_faces[deg][ops.pop()[1]][gen]
        word, deg, gen = face.word, face.deg, face.gen
    assert all(op[0] == "s" for op in ops)
    for t in range(len(ops) - 1, -1, -1):
        word = insert_letter(ops[t][1], word)
    return SimplexRef(word, deg, gen)


def test_normalize_face_against_rewrite_oracle():
    # the minimal RP^2 and S^2 have generators with the degenerate face
    # s_0 v, so a letter meets a word that does not start below it:
    # d_2 s_0 of their 2-cell is s_0 s_0 v = s_1 s_0 v
    spaces = [
        free_degeneracies(boundary_semi_simplex(2)),
        free_degeneracies(standard_semi_simplex(2)),
        standard_simplicial_simplex(3),
        minimal_rp2(),
        minimal_s2(),
    ]
    for Y in spaces:
        assert validate_simplicial(Y).ok
        for p in range(1, 6):
            for ref in iter_simplices(Y, p):
                for i in range(p + 1):
                    got = normalize_face(Y, i, ref)
                    want = rewrite_oracle(Y, i, ref)
                    assert got == want, (ref, i, got, want)
                    assert is_canonical_word(got.word, got.deg), (ref, i, got)


def test_normalize_face_against_monotone_oracle():
    # on the simplicial n-simplex, simplices are monotone maps into [n] and
    # d_i deletes the i-th value; completely independent semantics
    for n in range(4):
        Y = standard_simplicial_simplex(n)
        for p in range(1, 5):
            for ref in iter_simplices(Y, p):
                vals = simplex_ref_to_monotone(n, ref)
                assert monotone_to_simplex_ref(n, vals) == ref
                for i in range(p + 1):
                    got = normalize_face(Y, i, ref)
                    want = monotone_to_simplex_ref(n, vals[:i] + vals[i + 1:])
                    assert got == want, (n, ref, i)


def test_validate_simplicial_standard():
    for n in range(4):
        assert validate_simplicial(standard_simplicial_simplex(n)).ok


def test_validate_simplicial_requires_strictly_decreasing_words():
    # s_1 s_1 is not canonical (s_1 s_1 = s_2 s_1); the loader refuses such
    # a word, and so must the in-memory validator, or enumeration fails
    assert not is_canonical_word((1, 1), 1)
    Y = standard_simplicial_simplex(4)
    level = [list(tab) for tab in Y.gen_faces[4]]
    level[0][0] = SimplexRef((1, 1), 1, 0)
    faces = Y.gen_faces[:4] + (tuple(map(tuple, level)),)
    report = validate_simplicial(dataclasses.replace(Y, gen_faces=faces))
    assert report.problems == ("degree 4 face 0 generator 0: word (1, 1) not canonical",)


def test_free_degeneracies_enumeration_sizes():
    X = boundary_semi_simplex(2)
    E = free_degeneracies(X)
    assert validate_simplicial(E).ok
    enum = enumerate_simplicial(E, 4)
    assert validate_sset(enum.sset).ok
    for p in range(5):
        want = sum(math.comb(p, p - q) * X.sizes[q] for q in range(min(p, 1) + 1))
        assert enum.sset.sizes[p] == want
    assert enum.sset.sizes == (3, 6, 9, 12, 15)


def test_unit_map_commutes():
    X = boundary_semi_simplex(2)
    u, enum = unit_map(X, 4)
    assert check_sset_map(u).ok
    # the unit is injective: distinct simplices stay distinct generators
    for p in range(len(X.sizes)):
        assert len(set(u.tables[p])) == X.sizes[p]


def test_unit_map_source_is_x_itself():
    # X is complete and listed through level 1, below the enumeration's 4
    X = boundary_semi_simplex(2)
    u, _ = unit_map(X, 4)
    assert u.source is X
    assert check_sset_map(u).ok


def test_enumeration_order_is_by_degree_then_word():
    Y = standard_simplicial_simplex(1)
    enum = enumerate_simplicial(Y, 2)
    # level 2: degenerate vertices first (deg 0), then degenerate edges
    level = enum.refs[2]
    assert level[0] == SimplexRef((1, 0), 0, 0)
    assert level[1] == SimplexRef((1, 0), 0, 1)
    assert {r.word for r in level[2:]} == {(0,), (1,)}


# -- certificates --------------------------------------------------------------


def test_contraction_certificates_on_constant():
    X = constant_sset(1, 3)
    cert = ExtraDegeneracy(X, aug_size=1, aug=(0,), h0=(0,), up=((0,), (0,), (0,)))
    rep = check_certificate(cert)
    assert rep.ok, rep.problems


def test_homotopy_certificate_on_interval():
    pt = standard_semi_simplex(0)
    iv = standard_semi_simplex(1)
    far = SSetMap(pt, iv, ((1,),))
    near = SSetMap(pt, iv, ((0,),))
    cert = PrismHomotopy(f=far, g=near, tri=(((0,),),))
    rep = check_certificate(cert)
    assert rep.ok, rep.problems
    # swapping the endpoint maps breaks the prism identities
    bad = PrismHomotopy(f=near, g=far, tri=(((0,),),))
    assert not check_certificate(bad).ok


def test_prism_maps_must_share_both_endpoints():
    # g has f's source but another target; both maps are valid
    pt, interval, triangle = (standard_semi_simplex(n) for n in range(3))
    f, g = SSetMap(pt, interval, ((0,),)), SSetMap(pt, triangle, ((0,),))
    assert check_certificate(PrismHomotopy(f=f, g=g, tri=())).problems == (
        "f and g have different endpoints",)


def test_prism_levels_past_the_source_are_reported_not_read():
    pt, tri = standard_semi_simplex(0), standard_semi_simplex(2)
    f = g = SSetMap(pt, tri, ((0,),))
    cert = PrismHomotopy(f=f, g=g, tri=(((3,),), ((0,), (0,))))
    assert check_certificate(cert).problems == ("tables run past the listed levels of the source",)


def test_certificate_detects_broken_table():
    X = constant_sset(2, 2)
    cert = ExtraDegeneracy(X, aug_size=1, aug=(0, 0), h0=(0,), up=((0, 0), (0, 0)))
    rep = check_certificate(cert)
    # d_{p+1} h != id on simplex 1 since everything maps to 0
    assert not rep.ok


# -- the one table checker -----------------------------------------------------


def _table_cases():
    """(validator, input, problems): a short table and an out-of-range entry
    for every validator, each named by ``_table_problems`` by its position."""
    broken = SemiSimplicialSet((2, 1), ((), ((0,), (5,))))
    interval, pt = standard_semi_simplex(1), standard_semi_simplex(0)
    X2 = constant_sset(2, 2)
    ends = SSetMap(pt, interval, ((0,),))
    C = fx.poset_category(1)  # morphisms 0 = id_0, 1: 0 -> 1, 2 = id_1
    F = identity_functor(C)
    eta = NatTransData(F, F, C.units)
    M = fx.cyclic_group_monoid(3)
    A = regular_action(M, "left")
    B = BiSemiSimplicialSet
    r = dataclasses.replace
    return {
        "sset-short": (validate_sset, SemiSimplicialSet((2, 3), ((), ((0, 1), (0, 1, 0)))),
                       ("level 1 face 0: table length 2 != 3",)),
        "sset-range": (validate_sset, SemiSimplicialSet((2, 3), ((), ((0, 1, 2), (1, -1, 0)))),
                       ("level 1 face 0: entry 2 = 2 out of range [0, 2)",
                        "level 1 face 1: entry 1 = -1 out of range [0, 2)")),
        "bisset-short": (validate_bisset, B(((1,), (2,)), (((),), (((0,), (0,)),)), (((),), ((),))),
                         ("column 0: level 1 face 0: table length 1 != 2",
                          "column 0: level 1 face 1: table length 1 != 2")),
        "bisset-range": (validate_bisset, B(((1,), (1,)), (((),), (((5,), (0,)),)), (((),), ((),))),
                         ("column 0: level 1 face 0: entry 0 = 5 out of range [0, 1)",)),
        "map-short": (check_sset_map, SSetMap(interval, interval, ((0,), (0,))),
                      ("level 0: table length 1 != 2",)),
        "map-range": (check_sset_map, SSetMap(interval, interval, ((0, 2), (0,))),
                      ("level 0: entry 1 = 2 out of range [0, 2)",)),
        "map-space": (check_sset_map, SSetMap(broken, broken, ((0, 1), (0,))),
                      ("source: level 1 face 1: entry 0 = 5 out of range [0, 2)",
                       "target: level 1 face 1: entry 0 = 5 out of range [0, 2)")),
        "map-target-space": (check_sset_map, SSetMap(pt, broken, ((0,),)),
                             ("target: level 1 face 1: entry 0 = 5 out of range [0, 2)",)),
        "extra-degeneracy-short": (
            check_certificate, ExtraDegeneracy(X2, 1, (0, 0), (), ((0, 1), (0, 1))),
            ("h0: table length 0 != 1",)),
        "extra-degeneracy-range": (
            check_certificate, ExtraDegeneracy(X2, 1, (0, 1), (0,), ((0, 1), (0, 1))),
            ("augmentation: entry 1 = 1 out of range [0, 1)",)),
        "extra-degeneracy-space": (
            check_certificate,
            ExtraDegeneracy(SemiSimplicialSet((1, 1), ((), ((0,), (3,)))), 1, (0,), (0,), ((0,),)),
            ("space: level 1 face 1: entry 0 = 3 out of range [0, 1)",)),
        "prism-short": (check_certificate, PrismHomotopy(ends, ends, (((),),)),
                        ("H[0][0]: table length 0 != 1",)),
        "prism-range": (check_certificate, PrismHomotopy(ends, ends, (((2,),),)),
                        ("H[0][0]: entry 0 = 2 out of range [0, 1)",)),
        "prism-map": (check_certificate,
                      PrismHomotopy(*[SSetMap(broken, broken, ((0, 1), (0,)))] * 2, (((0, 0),),)),
                      ("f is not a map: source: level 1 face 1: entry 0 = 5 out of range [0, 2)",)),
        "category-short": (validate_category, r(C, tgt=C.tgt[:2]), ("tgt: table length 2 != 3",)),
        "category-range": (validate_category, r(C, comp={**C.comp, (0, 1): 7}),
                           ("comp: entry 1 = 7 out of range [0, 3)",)),
        "units-short": (validate_category, r(C, units=(0,)), ("units: table length 1 != 2",)),
        "units-range": (validate_category, r(C, units=(0, 9)),
                        ("units: entry 1 = 9 out of range [0, 3)",)),
        "functor-short": (validate_functor, r(F, obj_map=(0,)), ("obj_map: table length 1 != 2",)),
        "functor-range": (validate_functor, r(F, mor_map=(0, 1, 3)),
                          ("mor_map: entry 2 = 3 out of range [0, 3)",)),
        "nat-trans-short": (validate_nat_trans, r(eta, components=(0,)),
                            ("components: table length 1 != 2",)),
        "nat-trans-range": (validate_nat_trans, r(eta, components=(0, -1)),
                            ("components: entry 1 = -1 out of range [0, 3)",)),
        "monoid-short": (validate_monoid, FinMonoid(table=((0, 1, 2), (1, 2), (2, 0, 1)), unit=0),
                         ("row 1: table length 2 != 3",)),
        "monoid-range": (validate_monoid, FinMonoid(table=((0, 1, 2), (1, 2, 0), (2, 0, 3)), unit=0),
                         ("row 2: entry 2 = 3 out of range [0, 3)",)),
        "action-short": (validate_action, r(A, table=((0, 1, 2), (1, 2, 0), (2, 0))),
                         ("row 2: table length 2 != 3",)),
        "action-range": (validate_action, r(A, table=((0, 1, 2), (1, 2, -1), (2, 0, 1))),
                         ("row 1: entry 2 = -1 out of range [0, 3)",)),
    }


@pytest.mark.parametrize("case", sorted(_table_cases()))
def test_one_table_checker_names_the_first_bad_entry(case):
    validate, x, problems = _table_cases()[case]
    rep = validate(x)
    assert not rep.ok
    assert rep.problems == problems


# -- the one validation policy -------------------------------------------------


def test_staged_never_runs_a_stage_after_a_failing_one():
    @_staged(20)
    def validate(x):
        yield []
        yield [f"{x} is wrong"]
        raise AssertionError("a stage after a failing stage ran")

    rep = validate("x")
    assert (rep.ok, rep.problems) == (False, ("x is wrong",))


def test_staged_cuts_an_endless_stage_to_its_limit():
    @_staged(21)
    def validate():
        yield (f"problem {s}" for s in itertools.count())

    assert validate().problems == tuple(f"problem {s}" for s in range(21))


def test_staged_reports_ok_when_every_stage_passes():
    @_staged(20)
    def validate():
        yield []
        yield iter(())

    assert validate() == sset.ValidationReport(True, ())
    assert validate().problems == ()


@pytest.mark.parametrize("module, name", [
    (sset, "check_sset_map"), (sset, "validate_bisset"), (sset, "validate_simplicial"),
    (sset, "check_certificate"), (cat, "validate_category"), (cat, "validate_functor"),
    (cat, "validate_nat_trans"), (cat, "validate_monoid"), (cat, "validate_presentation"),
    (cat, "validate_action"), (homalg, "check_chain_homotopy"),
])
def test_staged_validators_keep_their_name_and_module(module, name):
    # the benchmark's tracer finds the verify spans by name and module
    validate = getattr(module, name)
    assert (validate.__name__, validate.__module__) == (name, module.__name__)
    assert validate.__wrapped__.__name__ == name
