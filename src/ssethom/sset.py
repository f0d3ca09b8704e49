"""Finite semi-simplicial and simplicial sets.

Semi-simplicial sets are stored as plain level sizes plus face tables:
``faces[p][i][s]`` is the i-th face of simplex ``s`` at level ``p`` (p >= 1,
0 <= i <= p).  Simplicial sets are stored by a generator presentation: only
the nondegenerate simplices are listed, and every simplex is named by a
canonical pair (degeneracy word, generator).  A degeneracy word is a strictly
decreasing tuple (j_1 > ... > j_k) standing for s_{j_1} ... s_{j_k}.

Every listed object (a standard simplex, an enumeration, an exterior
product, and in ``cat`` the nerves, bar constructions and comma resolutions)
is built by ``listed_sset`` or ``listed_bisset`` from its levels in order and
a face function; ``levelwise_product`` writes its tables directly.  Every
table's length and range is checked by ``_table_problems``, and every table
law by comparing two whole tables.  A certificate is an
``ExtraDegeneracy`` or a ``PrismHomotopy``, checked by ``check_certificate``.
Every validator here and in ``cat``, and ``homalg.check_chain_homotopy``, has
one policy, ``_staged(limit)``: it yields nested documents, shapes and ranges,
then laws, and reports the first stage with problems, at most ``limit`` of them:
20 in ``validate_bisset`` and ``cat``, 21 in the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import NamedTuple


# ---------------------------------------------------------------------------
# semi-simplicial sets


def _staged(limit: int):
    """The one validation policy.  The decorated generator yields the
    problems of each stage in order; the report holds the first stage with
    problems, cut to ``limit`` entries, and a later stage runs only once
    every earlier one has passed, so it may assume their shapes."""
    def decorate(stages):
        @wraps(stages)
        def validate(*args, **kwargs) -> ValidationReport:
            for stage in stages(*args, **kwargs):
                problems = tuple(itertools.islice(stage, limit))
                if problems:
                    return ValidationReport(False, problems)
            return ValidationReport(True)
        return validate
    return decorate


@dataclass(frozen=True)
class SemiSimplicialSet:
    """Levels 0..L-1 with face tables.

    ``truncated_at = N`` means levels above N were deliberately not computed
    (the object may well have nonempty levels there).  ``truncated_at = None``
    means the listed levels are all there is, and so does a listed empty level.
    """

    sizes: tuple[int, ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]
    truncated_at: int | None = None

    def face(self, p: int, i: int, s: int) -> int:
        return self.faces[p][i][s]

    @property
    def top_dim(self) -> int | None:
        """Largest nonempty level, or None when truncation hides it.

        A size-0 level forces every higher level to be empty (faces must land
        somewhere), so a listed zero makes the complex complete regardless of
        the truncation flag.  An everywhere-empty complex reports -1.
        """
        if self.truncated_at is None or any(s == 0 for s in self.sizes):
            nonempty = [p for p, s in enumerate(self.sizes) if s]
            return nonempty[-1] if nonempty else -1
        return None

    @cached_property
    @_staged(21)
    def _report(self) -> ValidationReport:
        """``validate_sset``'s report, kept on the object: it is frozen and
        its tables are tuples, so the report cannot go stale."""
        L = len(self.sizes)
        if len(self.faces) != L:
            yield [f"faces has {len(self.faces)} levels, sizes has {L}"]
        problems = []
        if self.truncated_at is not None and self.truncated_at != L - 1:
            problems.append(f"truncated_at={self.truncated_at} but levels run 0..{L - 1}")
        yield problems + _shape_problems(self.sizes, self.faces)
        yield _identity_problems(_level_identities(
            self.faces, lambda p, i, j: f"face identity fails at level {p}, simplex {{s}}: "
                                        f"d_{i} d_{j} = {{left}} but d_{j - 1} d_{i} = {{right}}"))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...] = ()

    def first(self) -> str:
        return self.problems[0] if self.problems else ""


def validate_sset(X: SemiSimplicialSet) -> ValidationReport:
    """Shapes and ranges, then d_i d_j = d_{j-1} d_i on whole tables for
    p >= 2 and i < j; once per space object, which keeps the report."""
    return X._report


def _shape_problems(sizes, faces) -> list[str]:
    """The shape pass of ``validate_sset``: face counts, then each table of
    ``faces`` through ``_table_problems``, named ``level p face i``."""
    problems = []
    if sizes and len(faces[0]) != 0:
        problems.append("level 0 must have an empty face table")
    for p in range(1, len(sizes)):
        if len(faces[p]) != p + 1:
            problems.append(f"level {p}: expected {p + 1} face maps, got {len(faces[p])}")
            continue
        for i, tab in enumerate(faces[p]):
            problems += _table_problems(f"level {p} face {i}", tab, sizes[p], sizes[p - 1])
    return problems


def _table_problems(name: str, tab, length: int, high: int) -> list[str]:
    """The one shape and range check of every validator: ``tab`` must have
    ``length`` entries, each in 0..high-1.  A whole-table ``min``/``max``
    comes before any walk, and only the first bad entry is named, by its
    position in ``tab``."""
    if len(tab) != length:
        return [f"{name}: table length {len(tab)} != {length}"]
    if tab and not (0 <= min(tab) and max(tab) < high):
        s = next(s for s, v in enumerate(tab) if not 0 <= v < high)
        return [f"{name}: entry {s} = {tab[s]} out of range [0, {high})"]
    return []


def _level_identities(levels, template):
    """(d_i d_j, d_{j-1} d_i, message template) per level p >= 2 and i < j,
    each side a composed face table of levels[p] into levels[p - 2]."""
    for p in range(2, len(levels)):
        up, down = levels[p], levels[p - 1]
        for j in range(1, p + 1):
            for i in range(j):
                yield ([down[i][t] for t in up[j]], [down[j - 1][t] for t in up[i]],
                       template(p, i, j).format)


def _identity_problems(identities):
    """A message per position where the two tables of an identity differ,
    made lazily; whole tables are compared before any position is walked.
    ``message(s=, left=, right=)`` names position s: a template's ``format``,
    or a function that looks up the position's label."""
    for lefts, rights, message in identities:
        if lefts != rights:
            for s, (left, right) in enumerate(zip(lefts, rights)):
                if left != right:
                    yield message(s=s, left=left, right=right)


def _nested_problems(**reports: ValidationReport) -> list[str]:
    """The problems of nested documents, each prefixed with its field."""
    return [f"{name}: {p}" for name, rep in reports.items() for p in rep.problems]


@dataclass(frozen=True)
class SSetMap:
    """Levelwise map of semi-simplicial sets; tables[p][s] is the image index."""

    source: SemiSimplicialSet
    target: SemiSimplicialSet
    tables: tuple[tuple[int, ...], ...]


@_staged(21)
def check_sset_map(f: SSetMap) -> ValidationReport:
    src, tgt = f.source, f.target
    yield _nested_problems(source=validate_sset(src), target=validate_sset(tgt))
    if len(f.tables) != len(src.sizes):
        yield [f"map covers {len(f.tables)} levels, source has {len(src.sizes)}"]
    if len(tgt.sizes) < len(src.sizes):
        yield ["target has fewer listed levels than source"]
    yield (m for p, tab in enumerate(f.tables)
           for m in _table_problems(f"level {p}", tab, src.sizes[p], tgt.sizes[p]))
    yield _identity_problems((
        ([tgt.faces[p][i][v] for v in f.tables[p]], [f.tables[p - 1][t] for t in src.faces[p][i]],
         f"does not commute with d_{i} at level {p}, simplex {{s}}".format)
        for p in range(1, len(src.sizes)) for i in range(p + 1)))


# -- listings ----------------------------------------------------------------


def listed_sset(levels, face, truncated_at: int | None = None
                ) -> tuple[SemiSimplicialSet, tuple[dict, ...]]:
    """The semi-simplicial set whose level p lists ``levels[p]`` in order, with
    d_i x at the position of ``face(p, i, x)`` in level p - 1, and each
    level's ``{simplex: position}`` index."""
    index = tuple({x: s for s, x in enumerate(level)} for level in levels)
    faces = tuple(tuple(tuple(index[p - 1][face(p, i, x)] for x in levels[p])
                        for i in range(p + 1)) if p else ()
                  for p in range(len(levels)))
    return SemiSimplicialSet(tuple(map(len, levels)), faces, truncated_at), index


def listed_bisset(levels, hface, vface, trunc_p: int | None, trunc_q: int | None
                  ) -> tuple[BiSemiSimplicialSet, tuple[tuple[dict, ...], ...]]:
    """The bi-semi-simplicial set whose (p, q) level lists ``levels[p][q]`` in
    order, with dh_i x at the position of ``hface(p, q, i, x)`` in level
    (p - 1, q) and dv_j x at that of ``vface(p, q, j, x)`` in level (p, q - 1),
    and each level's ``{bisimplex: position}`` index."""
    index = tuple(tuple({x: s for s, x in enumerate(level)} for level in row) for row in levels)
    dh = tuple(tuple(tuple(tuple(index[p - 1][q][hface(p, q, i, x)] for x in level)
                           for i in range(p + 1)) if p else ()
                     for q, level in enumerate(row)) for p, row in enumerate(levels))
    dv = tuple(tuple(tuple(tuple(index[p][q - 1][vface(p, q, j, x)] for x in level)
                           for j in range(q + 1)) if q else ()
                     for q, level in enumerate(row)) for p, row in enumerate(levels))
    sizes = tuple(tuple(map(len, row)) for row in levels)
    return BiSemiSimplicialSet(sizes, dh, dv, trunc_p, trunc_q), index


# -- standard complexes ------------------------------------------------------


def _vertex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All (k+1)-element subsets of {0..n}, lex ordered."""
    return list(itertools.combinations(range(n + 1), k + 1))


def standard_semi_simplex(n: int) -> SemiSimplicialSet:
    """The semi-simplicial n-simplex: level q lists the (q+1)-subsets of {0..n}."""
    levels = [_vertex_subsets(n, q) for q in range(n + 1)]
    return listed_sset(levels, lambda q, i, t: t[:i] + t[i + 1:])[0]


def boundary_semi_simplex(n: int) -> SemiSimplicialSet:
    """The boundary of the semi-simplicial n-simplex (drop the top cell)."""
    return skeleton(standard_semi_simplex(n), n - 1)


def constant_sset(size: int, n: int) -> SemiSimplicialSet:
    """``size`` simplices at every level through n, all faces the identity."""
    return listed_sset([range(size)] * (n + 1), lambda p, i, s: s, n if size else None)[0]


def known_through(n: int, *spaces) -> int:
    """The largest level <= n that every space determines: n, lowered to the
    truncation level of each space whose ``top_dim`` the truncation hides."""
    return min([n] + [X.truncated_at for X in spaces if X.top_dim is None])


def skeleton(X: SemiSimplicialSet, n: int) -> SemiSimplicialSet:
    """Everything of dimension <= n.  Always a complete complex."""
    if known_through(n, X) < n:
        raise ValueError(f"cannot take the {n}-skeleton of a complex truncated at {X.truncated_at}")
    m = min(n + 1, len(X.sizes))
    return SemiSimplicialSet(X.sizes[:m], X.faces[:m])


def skeleton_inclusion(X: SemiSimplicialSet, n: int) -> SSetMap:
    sk = skeleton(X, n)
    return SSetMap(sk, X, tuple(tuple(range(sz)) for sz in sk.sizes))


def euler_characteristic(X: SemiSimplicialSet | SimplicialSet) -> int:
    """The alternating count of the simplices of a semi-simplicial set, or of
    the generators (the nondegenerate simplices) of a simplicial set."""
    top = X.top_dim
    if top is None:
        raise ValueError("Euler characteristic of a truncated complex is not determined")
    sizes = X.gen_sizes if isinstance(X, SimplicialSet) else X.sizes
    return sum((-1) ** p * sizes[p] for p in range(top + 1))


# -- products ----------------------------------------------------------------


@dataclass(frozen=True)
class BiSemiSimplicialSet:
    """Rectangular grid of levels with commuting horizontal/vertical faces.

    ``sizes[p][q]`` is the number of (p, q)-bisimplices; ``dh[p][q][i][s]``
    (0 <= i <= p, p >= 1) lands in (p-1, q) and ``dv[p][q][j][s]``
    (0 <= j <= q, q >= 1) lands in (p, q-1).
    """

    sizes: tuple[tuple[int, ...], ...]
    dh: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]
    dv: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]
    trunc_p: int | None = None
    trunc_q: int | None = None

    def size(self, p: int, q: int) -> int:
        return self.sizes[p][q]

    @property
    def p_levels(self) -> int:
        return len(self.sizes)

    @property
    def q_levels(self) -> int:
        return len(self.sizes[0]) if self.sizes else 0


@_staged(20)
def validate_bisset(B: BiSemiSimplicialSet) -> ValidationReport:
    P, Q = B.p_levels, B.q_levels
    for p in range(P):
        if len(B.sizes[p]) != Q:
            yield [f"ragged size grid at row {p}"]
    for name, tables in (("dh", B.dh), ("dv", B.dv)):
        if len(tables) != P or any(len(row) != Q for row in tables):
            yield [f"{name} tables do not match the {P}x{Q} size grid"]
    yield [f"column {q}: {m}" for q in range(Q) for m in _shape_problems(
        [row[q] for row in B.sizes], [row[q] for row in B.dh])] + \
        [f"row {p}: {m}" for p in range(P) for m in _shape_problems(B.sizes[p], B.dv[p])]

    def identities():
        # horizontal identity in each fixed q, vertical in each fixed p
        for q in range(Q):
            yield from _level_identities(
                [B.dh[p][q] for p in range(P)],
                lambda p, i, j, q=q: f"horizontal identity fails at ({p},{q}) simplex {{s}}")
        for p in range(P):
            yield from _level_identities(
                B.dv[p], lambda q, i, j, p=p: f"vertical identity fails at ({p},{q}) simplex {{s}}")
        for p in range(1, P):
            for q in range(1, Q):
                for i in range(p + 1):
                    for j in range(q + 1):
                        yield ([B.dv[p - 1][q][j][t] for t in B.dh[p][q][i]],
                               [B.dh[p][q - 1][i][t] for t in B.dv[p][q][j]],
                               f"dh/dv do not commute at ({p},{q}) simplex {{s}}".format)

    yield _identity_problems(identities())


def exterior_product(X: SemiSimplicialSet, Y: SemiSimplicialSet) -> BiSemiSimplicialSet:
    """The bi-semi-simplicial set with (p, q) level X_p x Y_q.

    The pair (x, y) gets index x * |Y_q| + y.
    """
    levels = [[tuple(itertools.product(range(nx), range(ny))) for ny in Y.sizes] for nx in X.sizes]
    return listed_bisset(levels, lambda p, q, i, xy: (X.faces[p][i][xy[0]], xy[1]),
                         lambda p, q, j, xy: (xy[0], Y.faces[q][j][xy[1]]),
                         X.truncated_at, Y.truncated_at)[0]


def levelwise_product(X: SemiSimplicialSet, Y: SemiSimplicialSet) -> SemiSimplicialSet:
    """Level p is X_p x Y_p, (x, y) indexed x * |Y_p| + y, d_i(x, y) = (d_i x, d_i y):
    the diagonal levels (p, p) of ``exterior_product(X, Y)``, whose face is
    dh_i then dv_i, with their face tables written directly."""
    L = min(len(X.sizes), len(Y.sizes))
    faces = ((),) + tuple(
        tuple(tuple(a * Y.sizes[p - 1] + b for a in X.faces[p][i] for b in Y.faces[p][i])
              for i in range(p + 1))
        for p in range(1, L))
    trunc = None if X.truncated_at is None and Y.truncated_at is None else L - 1
    return SemiSimplicialSet(tuple(X.sizes[p] * Y.sizes[p] for p in range(L)), faces, trunc)


# -- path spaces and Segal maps ----------------------------------------------


def path_space(X: SemiSimplicialSet) -> SemiSimplicialSet:
    """Shift down: PX_p = X_{p+1} with faces d_0..d_p (d_{p+1} is dropped)."""
    if len(X.sizes) < 2:
        raise ValueError("path space needs levels through 1")
    sizes = X.sizes[1:]
    faces = [()]
    for p in range(1, len(sizes)):
        faces.append(tuple(X.faces[p + 1][i] for i in range(p + 1)))
    trunc = None if X.truncated_at is None else X.truncated_at - 1
    return SemiSimplicialSet(sizes, tuple(faces), truncated_at=trunc)


def _restriction_tables(X: SemiSimplicialSet, top: int, face) -> list:
    """tabs[n][k][s]: simplex s of X_n cut down to a k-simplex one vertex at a
    time, deleting vertex face(n, k) of the n-simplex first; tabs[n][n] is the
    identity."""
    tabs = []
    for n in range(top + 1):
        tabs.append([tuple(tabs[n - 1][k][t] for t in X.faces[n][face(n, k)]) for k in range(n)]
                    + [range(X.sizes[n])])
    return tabs


def segal_map(X: SemiSimplicialSet, p: int) -> list[tuple[int, ...]]:
    """kappa_p: X_p -> X_1^p by restricting to the edges {j-1, j}.

    Edge j is the back 1-face of the front j-face, cut as Alexander-Whitney cuts.
    """
    if p < 1 or p >= len(X.sizes):
        raise ValueError("segal map needs 1 <= p <= top listed level")
    front = _restriction_tables(X, p, lambda n, k: n)[p]
    back = _restriction_tables(X, p, lambda n, k: n - k - 1)
    edges = [[back[j][1][t] for t in front[j]] for j in range(1, p + 1)]
    return list(zip(*edges))


# ---------------------------------------------------------------------------
# degeneracy words


def is_canonical_word(word: tuple[int, ...], deg: int) -> bool:
    # strictly decreasing, so letter 0 below deg + len(word) puts letter m
    # at most deg + len(word) - 1 - m, as the canonical form asks
    return all(a > b for a, b in zip(word, word[1:])) and all(0 <= a < deg + len(word) for a in word)


class SimplexRef(NamedTuple):
    """A simplex of a simplicial set: s_word applied to generator gen of degree deg."""

    word: tuple[int, ...]
    deg: int
    gen: int

    @property
    def total(self) -> int:
        return self.deg + len(self.word)


@dataclass(frozen=True)
class SimplicialSet:
    """Generator presentation: gen_faces[q][i][g] is d_i of generator g (q >= 1);
    ``truncated_at`` reads as for ``SemiSimplicialSet``, but a degree without
    generators ends nothing (see ``top_dim``)."""

    gen_sizes: tuple[int, ...]
    gen_faces: tuple[tuple[tuple[SimplexRef, ...], ...], ...]
    truncated_at: int | None = None

    @property
    def top_dim(self) -> int | None:
        """Largest generator degree, -1 without generators, or None when
        truncated: unlike a listed zero level, a degree without generators
        still has degenerate simplices, so it ends nothing."""
        if self.truncated_at is not None:
            return None
        nonempty = [q for q, s in enumerate(self.gen_sizes) if s]
        return nonempty[-1] if nonempty else -1


def normalize_face(Y: SimplicialSet, i: int, ref: SimplexRef) -> SimplexRef:
    """d_i applied to a canonical simplex, in canonical form.

    Pushes the face through the degeneracy word with the mixed identities:
    d_i s_j is s_{j-1} d_i for i < j, the identity for i in {j, j+1}, and
    s_j d_{i-1} for i > j + 1.  The adjusted letter a goes into the inner
    face's word by s_a s_b = s_{b+1} s_a for a <= b: a plain prepend is
    canonical only when the word starts below a, which fails once a
    generator's face is degenerate (s_0 s_0 v is canonically s_1 s_0 v).
    """
    word, deg, gen = ref
    if not word:
        if deg == 0:
            raise ValueError("a 0-simplex has no faces")
        return Y.gen_faces[deg][i][gen]
    j = word[0]
    rest = SimplexRef(word[1:], deg, gen)
    if i == j or i == j + 1:
        return rest
    if i < j:
        inner = normalize_face(Y, i, rest)
        j -= 1
    else:
        inner = normalize_face(Y, i - 1, rest)
    w, k = inner.word, 0
    while k < len(w) and w[k] >= j:
        k += 1
    return SimplexRef(tuple(b + 1 for b in w[:k]) + (j,) + w[k:], inner.deg, inner.gen)


@_staged(21)
def validate_simplicial(Y: SimplicialSet) -> ValidationReport:
    problems = []
    L = len(Y.gen_sizes)
    if len(Y.gen_faces) != L:
        yield [f"gen_faces has {len(Y.gen_faces)} levels, gen_sizes has {L}"]
    if Y.truncated_at is not None and Y.truncated_at != L - 1:
        problems.append(f"truncated_at={Y.truncated_at} but generator degrees run 0..{L - 1}")
    for q in range(1, L):
        if len(Y.gen_faces[q]) != q + 1:
            problems.append(f"degree {q}: expected {q + 1} face maps")
            continue
        for i in range(q + 1):
            tab = Y.gen_faces[q][i]
            if len(tab) != Y.gen_sizes[q]:
                problems.append(f"degree {q} face {i}: table length mismatch")
                continue
            for g, ref in enumerate(tab):
                if ref.total != q - 1:
                    problems.append(f"degree {q} face {i} generator {g}: lands in degree {ref.total}, wanted {q - 1}")
                elif not is_canonical_word(ref.word, ref.deg):
                    problems.append(f"degree {q} face {i} generator {g}: word {ref.word} not canonical")
                elif not 0 <= ref.gen < Y.gen_sizes[ref.deg]:  # deg is in 0..q-1 here
                    problems.append(f"degree {q} face {i} generator {g}: generator out of range")
    yield problems
    through = Y.truncated_at if Y.top_dim is None else Y.top_dim + 2
    # the face-face identity on every simplex through that level;
    # the mixed and degeneracy-only identities hold by construction of the
    # canonical form, so this is the only content to verify
    yield (f"d_{i} d_{j} != d_{j - 1} d_{i} on {ref}"
           for p in range(2, through + 1) for ref in iter_simplices(Y, p)
           for j in range(1, p + 1) for i in range(j)
           if normalize_face(Y, i, normalize_face(Y, j, ref))
           != normalize_face(Y, j - 1, normalize_face(Y, i, ref)))


def iter_simplices(Y: SimplicialSet, p: int):
    """All simplices of total degree p: (word, deg, gen) with word a
    descending subset of {0..p-1}, ordered by (deg, word, gen)."""
    for q in range(min(p, len(Y.gen_sizes) - 1) + 1):
        k = p - q
        for word in itertools.combinations(range(p - 1, -1, -1), k):
            for g in range(Y.gen_sizes[q]):
                yield SimplexRef(word, q, g)


@dataclass(frozen=True)
class Enumeration:
    """A simplicial set flattened to a semi-simplicial one through level N.

    ``refs[p]`` lists the canonical simplices at level p; ``index[p]`` inverts
    the listing.  The face tables of ``sset`` are normalize_face in these
    coordinates.
    """

    space: SimplicialSet
    sset: SemiSimplicialSet
    refs: tuple[tuple[SimplexRef, ...], ...]
    index: tuple[dict, ...] = field(repr=False)


def enumerate_simplicial(Y: SimplicialSet, n: int) -> Enumeration:
    if known_through(n, Y) < n:
        raise ValueError(f"cannot enumerate through {n}: presentation truncated at {Y.truncated_at}")
    refs = tuple(tuple(iter_simplices(Y, p)) for p in range(n + 1))
    sset, index = listed_sset(refs, lambda p, i, ref: normalize_face(Y, i, ref), n)
    return Enumeration(Y, sset, refs, index)


def free_degeneracies(X: SemiSimplicialSet) -> SimplicialSet:
    """Left adjoint to forgetting degeneracies: one generator per simplex of X,
    complete when X is: a listed empty level leaves no generators above it."""
    gen_faces = [()]
    for p in range(1, len(X.sizes)):
        gen_faces.append(tuple(
            tuple(SimplexRef((), p - 1, X.face(p, i, s)) for s in range(X.sizes[p]))
            for i in range(p + 1)))
    return SimplicialSet(X.sizes, tuple(gen_faces), X.truncated_at if X.top_dim is None else None)


def unit_map(X: SemiSimplicialSet, n: int) -> tuple[SSetMap, Enumeration]:
    """X -> (underlying semi-simplicial set of the free simplicial set on X).

    Each simplex goes to itself as a generator (empty word), read off the
    enumeration's ``index``.  The source is X itself, which may list fewer
    levels than the enumeration through n.
    """
    if len(X.sizes) - 1 > n:
        raise ValueError("enumerate at least through the top listed level of X")
    enum = enumerate_simplicial(free_degeneracies(X), n)
    tables = tuple(tuple(enum.index[p][SimplexRef((), p, s)] for s in range(size))
                   for p, size in enumerate(X.sizes))
    return SSetMap(X, enum.sset, tables), enum


def standard_simplicial_simplex(n: int) -> SimplicialSet:
    """The simplicial n-simplex: nondegenerate part is the semi-simplicial one."""
    return free_degeneracies(standard_semi_simplex(n))


# ---------------------------------------------------------------------------
# homotopy certificates


@dataclass(frozen=True)
class ExtraDegeneracy:
    """A contraction of ``space``, augmented by ``aug`` onto ``aug_size``
    points with section ``h0``: ``up[p]`` is h_{p+1}, level p to level p+1,
    with d_{p+1} h_{p+1} = id, d_i h_{p+1} = h_p d_i and d_0 h_1 = h_0 aug.
    The path-space contractions (B(*, M, M) for a monoid) and the dual
    comma-resolution row contractions are of this kind."""

    space: SemiSimplicialSet
    aug_size: int
    aug: tuple[int, ...]
    h0: tuple[int, ...]
    up: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PrismHomotopy:
    """``f`` and ``g`` map X to Y, and ``tri[p][i]`` (0 <= i <= p) are the
    prism sections X_p to Y_{p+1}, as a natural transformation gives."""

    f: SSetMap
    g: SSetMap
    tri: tuple[tuple[tuple[int, ...], ...], ...]


@_staged(21)
def check_certificate(cert: ExtraDegeneracy | PrismHomotopy) -> ValidationReport:
    """Verify a certificate: the space of an extra degeneracy, then table
    shapes and ranges, then each defining identity on whole tables, naming
    at most 21 failing simplices."""
    yield from (_extra_degeneracy_stages if isinstance(cert, ExtraDegeneracy)
                else _prism_stages)(cert)


def _extra_degeneracy_stages(cert: ExtraDegeneracy):
    X, aug, h0, up = cert.space, cert.aug, cert.h0, cert.up
    yield _nested_problems(space=validate_sset(X))
    if len(up) >= len(X.sizes):
        yield ["certificate tables run past the listed levels"]
    yield _table_problems("augmentation", aug, X.sizes[0], cert.aug_size) + \
        _table_problems("h0", h0, cert.aug_size, X.sizes[0]) + \
        [m for p, h in enumerate(up) for m in _table_problems(f"h_{p + 1}", h, X.sizes[p], X.sizes[p + 1])]
    # the augmentation is constant on edges; only its first failing edge is named
    edges = itertools.islice(_identity_problems((
        ([aug[t] for t in X.faces[1][0]], [aug[t] for t in X.faces[1][1]],
         "augmentation not constant on edge {s}".format),)), 1) if len(X.sizes) > 1 else ()

    def identities():
        yield [aug[v] for v in h0], list(range(cert.aug_size)), "augmentation of h0[{s}] is not {s}".format
        for p, h in enumerate(up):
            d = X.faces[p + 1]
            yield ([d[p + 1][v] for v in h], list(range(X.sizes[p])),
                   f"d_{p + 1} h_{p + 1} != id at level {p} simplex {{s}}".format)
            if p == 0:
                yield [d[0][v] for v in h], [h0[a] for a in aug], "d_0 h_1 != h_0 aug at simplex {s}".format
                continue
            for i in range(p + 1):
                yield ([d[i][v] for v in h], [up[p - 1][t] for t in X.faces[p][i]],
                       f"d_{i} h_{p + 1} != h_{p} d_{i} at level {p} simplex {{s}}".format)

    yield itertools.chain(edges, _identity_problems(identities()))


def _prism_stages(cert: PrismHomotopy):
    f, g, tri = cert.f, cert.g, cert.tri
    X, Y = f.source, f.target
    for name, m in (("f", f), ("g", g)):
        yield [f"{name} is not a map: {p}" for p in check_sset_map(m).problems[:1]]
    if g.source != X or g.target != Y:
        yield ["f and g have different endpoints"]
    if len(tri) >= len(Y.sizes):
        yield ["tables run past the listed levels of the target"]
    if len(tri) > len(X.sizes):
        yield ["tables run past the listed levels of the source"]
    problems = []
    for p, level in enumerate(tri):
        if len(level) != p + 1:
            problems.append(f"level {p}: expected {p + 1} prism tables, got {len(level)}")
            continue
        for i, tab in enumerate(level):
            problems += _table_problems(f"H[{p}][{i}]", tab, X.sizes[p], Y.sizes[p + 1])
    yield problems

    def identities():
        for p, H in enumerate(tri):
            d = Y.faces[p + 1]
            yield [d[0][v] for v in H[0]], list(f.tables[p]), f"d_0 H[{p}][0] != f at simplex {{s}}".format
            yield ([d[p + 1][v] for v in H[p]], list(g.tables[p]),
                   f"d_{p + 1} H[{p}][{p}] != g at simplex {{s}}".format)
            for i in range(1, p + 1):
                yield ([d[i][v] for v in H[i]], [d[i][v] for v in H[i - 1]],
                       f"glue d_{i} H[{p}][{i}] != d_{i} H[{p}][{i - 1}] at simplex {{s}}".format)
            for j in range(p + 1):
                for i in range(j):
                    yield ([d[i][v] for v in H[j]], [tri[p - 1][j - 1][t] for t in X.faces[p][i]],
                           f"d_{i} H[{p}][{j}] != H[{p - 1}][{j - 1}] d_{i} at simplex {{s}}".format)
                for i in range(j + 2, p + 2):
                    yield ([d[i][v] for v in H[j]], [tri[p - 1][j][t] for t in X.faces[p][i - 1]],
                           f"d_{i} H[{p}][{j}] != H[{p - 1}][{j}] d_{i - 1} at simplex {{s}}".format)

    yield _identity_problems(identities())
