"""Finite non-unital categories and monoids.

Nerves, unitalization, over and comma categories (the under category of c is
the comma category c\\id), the bi-semi-simplicial comma resolution with its
augmentations, two-sided bar constructions, and Grothendieck groups.  Extra
degeneracies have one builder per nerve: ``nerve_path_contraction`` for the
path space of a unital nerve (B(*, M, M) for a monoid M), ``row_contraction``
for the rows of the dual comma resolution.

Composition is stored diagrammatically: the table maps a composable pair
(f, g) with tgt(f) = src(g) to the composite "f then g" (written g . f).
Every category built here (over and comma categories, the one-object
category of a monoid, the unitalization) comes from ``listed_category``,
which lists its objects and morphisms in order.

Every validator is ``sset._staged(20)``: the documents nested in it (categories,
functors, monoid), then shapes and ranges through ``sset._table_problems``,
then laws; it reports the first stage with problems, at most 20 of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .homalg import FPAbelianGroup
from .snf import SparseIntMatrix, smith_normal_form
from .sset import (
    BiSemiSimplicialSet,
    ExtraDegeneracy,
    PrismHomotopy,
    SemiSimplicialSet,
    SSetMap,
    ValidationReport,
    _identity_problems,
    _nested_problems,
    _staged,
    _table_problems,
    listed_bisset,
    listed_sset,
    path_space,
)


@dataclass(frozen=True)
class FinNonUnitalCategory:
    n_objects: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    comp: dict[tuple[int, int], int]
    units: tuple[int, ...] | None = None

    @property
    def n_morphisms(self) -> int:
        return len(self.src)

    @property
    def is_unital(self) -> bool:
        return self.units is not None


def listed_category(objects, morphisms, ends, compose, unit=None) -> FinNonUnitalCategory:
    """The category whose objects list ``objects`` and whose morphisms list
    ``morphisms`` in order.

    ``ends(m)`` is the (source, target) pair of objects of morphism m, and
    ``compose(f, g)`` the morphism "f then g", asked only of the arrows g
    leaving the target of f; ``unit(x)``, when given, is the unit at x.
    """
    obj_index = {x: i for i, x in enumerate(objects)}
    mor_index = {m: i for i, m in enumerate(morphisms)}
    src, tgt = [], []
    leaving = [[] for _ in obj_index]
    for j, m in enumerate(morphisms):
        a, b = ends(m)
        src.append(obj_index[a])
        tgt.append(obj_index[b])
        leaving[src[-1]].append((j, m))
    comp = {(i, j): mor_index[compose(f, g)]
            for i, f in enumerate(morphisms) for j, g in leaving[tgt[i]]}
    units = None if unit is None else tuple(mor_index[unit(x)] for x in objects)
    return FinNonUnitalCategory(len(obj_index), tuple(src), tuple(tgt), comp, units=units)


def _at(labels, template):
    """A law message that names position s by the tuple ``labels[s]``."""
    return lambda s, **_: template.format(*labels[s])


@_staged(20)
def validate_category(C: FinNonUnitalCategory) -> ValidationReport:
    """Entry s of the ``comp`` table is the composite of its s-th pair in sorted order."""
    m = C.n_morphisms
    problems = _table_problems("src", C.src, m, C.n_objects) + \
        _table_problems("tgt", C.tgt, m, C.n_objects)
    if len(C.tgt) != m:
        yield problems
    composable = {(f, g) for f in range(m) for g in range(m) if C.tgt[f] == C.src[g]}
    missing, extra = composable - C.comp.keys(), C.comp.keys() - composable
    if missing:
        problems.append(f"composition missing on {sorted(missing)[:5]}")
    if extra:
        problems.append(f"composition defined on non-composable {sorted(extra)[:5]}")
    problems += _table_problems("comp", [C.comp[fg] for fg in sorted(C.comp)], len(C.comp), m)
    problems += [f"composite of ({f},{g}) has wrong endpoints" for (f, g), h in C.comp.items()
                 if (f, g) in composable and 0 <= h < m
                 and (C.src[h] != C.src[f] or C.tgt[h] != C.tgt[g])]
    yield problems
    comp = C.comp
    triples = [(f, g, h) for f in range(m) for g in range(m) if C.tgt[f] == C.src[g]
               for h in range(m) if C.tgt[g] == C.src[h]]
    yield _identity_problems(((
        [comp[(comp[(f, g)], h)] for f, g, h in triples],
        [comp[(f, comp[(g, h)])] for f, g, h in triples],
        _at(triples, "associativity fails on ({},{},{})")),))
    if C.units is None:
        return
    units = C.units
    yield _table_problems("units", units, C.n_objects, m) + [
        f"unit of object {c} is not an endomorphism of it" for c, u in zip(range(C.n_objects), units)
        if 0 <= u < m and (C.src[u] != c or C.tgt[u] != c)]
    # only the first failing unit law is named, the left one before the right
    yield itertools.islice(_identity_problems(((
        [(comp[(units[C.src[f]], f)], comp[(f, units[C.tgt[f]])]) for f in range(m)],
        [(f, f) for f in range(m)],
        lambda s, left, right: "unit law fails on the "
                               f"{'left' if left[0] != s else 'right'} of morphism {s}"),)), 1)


@dataclass(frozen=True)
class FunctorData:
    source: FinNonUnitalCategory
    target: FinNonUnitalCategory
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]


@_staged(20)
def validate_functor(F: FunctorData) -> ValidationReport:
    C, D = F.source, F.target
    yield _nested_problems(source=validate_category(C), target=validate_category(D))
    yield _table_problems("obj_map", F.obj_map, C.n_objects, D.n_objects) + \
        _table_problems("mor_map", F.mor_map, C.n_morphisms, D.n_morphisms)
    ob, mor = F.obj_map, F.mor_map
    yield _identity_problems((
        ([(D.src[mor[f]], D.tgt[mor[f]]) for f in range(C.n_morphisms)],
         [(ob[C.src[f]], ob[C.tgt[f]]) for f in range(C.n_morphisms)],
         "morphism {s}: endpoints not preserved".format),
        ([mor[h] for h in C.comp.values()],
         [D.comp.get((mor[f], mor[g])) for f, g in C.comp],
         _at(list(C.comp), "composite of ({},{}) not preserved"))))


def identity_functor(C: FinNonUnitalCategory) -> FunctorData:
    return FunctorData(C, C, tuple(range(C.n_objects)), tuple(range(C.n_morphisms)))


@dataclass(frozen=True)
class NatTransData:
    F: FunctorData
    G: FunctorData
    components: tuple[int, ...]


@_staged(20)
def validate_nat_trans(eta: NatTransData) -> ValidationReport:
    F, G = eta.F, eta.G
    yield _nested_problems(F=validate_functor(F), G=validate_functor(G))
    if F.source != G.source or F.target != G.target:
        yield ["the two functors do not share source and target"]
    C, D, k = F.source, F.target, eta.components
    yield _table_problems("components", k, C.n_objects, D.n_morphisms) + [
        f"component at object {c} does not run F(c) -> G(c)" for c, u in zip(range(C.n_objects), k)
        if 0 <= u < D.n_morphisms and (D.src[u] != F.obj_map[c] or D.tgt[u] != G.obj_map[c])]
    yield _identity_problems(((
        [D.comp[(F.mor_map[f], k[C.tgt[f]])] for f in range(C.n_morphisms)],
        [D.comp[(k[C.src[f]], G.mor_map[f])] for f in range(C.n_morphisms)],
        "naturality square fails at morphism {s}".format),))


# -- monoids and actions ---------------------------------------------------------


@dataclass(frozen=True)
class FinMonoid:
    """A full multiplication table with the index of its unit."""

    table: tuple[tuple[int, ...], ...]
    unit: int

    @property
    def size(self) -> int:
        return len(self.table)

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]


@dataclass(frozen=True)
class MonoidPresentation:
    """A commutative monoid presented by generators and relation pairs of
    exponent vectors."""

    gens: int
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()


@_staged(20)
def validate_monoid(M: FinMonoid) -> ValidationReport:
    n = len(M.table)
    yield (m for a, row in enumerate(M.table) for m in _table_problems(f"row {a}", row, n, n))
    if not (0 <= M.unit < n):
        yield ["table form needs a unit index"]
    e, t = M.unit, M.table
    triples = list(itertools.product(range(n), repeat=3))
    yield _identity_problems((
        ([(t[e][a], t[a][e]) for a in range(n)], [(a, a) for a in range(n)],
         "unit law fails at element {s}".format),
        ([t[t[a][b]][c] for a, b, c in triples], [t[a][t[b][c]] for a, b, c in triples],
         _at(triples, "associativity fails at ({},{},{})"))))


@_staged(20)
def validate_presentation(P: MonoidPresentation) -> ValidationReport:
    if P.gens < 0:
        yield ["presentation form needs a generator count"]
    problems = []
    for i, (lhs, rhs) in enumerate(P.relations):
        if len(lhs) != P.gens or len(rhs) != P.gens:
            problems.append(f"relation {i} has wrong arity")
        elif any(v < 0 for v in lhs + rhs):
            problems.append(f"relation {i} has a negative exponent")
    yield problems


def is_commutative_monoid(M: FinMonoid) -> bool:
    n = M.size
    return all(M.table[a][b] == M.table[b][a] for a in range(n) for b in range(a))


def is_group(M: FinMonoid) -> bool:
    e = M.unit
    for a in range(M.size):
        if not any(M.table[a][b] == e and M.table[b][a] == e for b in range(M.size)):
            return False
    return True


def monoid_as_category(M: FinMonoid) -> FinNonUnitalCategory:
    """One object; composing f then g multiplies f<dot>g, so nerve chains read
    left to right like bar construction strings."""
    return listed_category((0,), range(M.size), lambda a: (0, 0), M.mult,
                           lambda x: M.unit)


def monoid_presentation(M: FinMonoid) -> MonoidPresentation:
    """Present a commutative monoid on one generator per element, for its
    group completion; a non-commutative table has no commutative presentation
    and is refused."""
    if not is_commutative_monoid(M):
        raise ValueError("group completion needs a commutative monoid")
    n = M.size
    e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rels = [(tuple(x + y for x, y in zip(e[a], e[b])), e[M.table[a][b]])
            for a in range(n) for b in range(a + 1)]
    return MonoidPresentation(n, tuple(rels))


@dataclass(frozen=True)
class MonoidAction:
    """Left actions store table[m][x] = m.x; right actions table[x][m] = x.m."""

    monoid: FinMonoid
    size: int
    table: tuple[tuple[int, ...], ...]
    side: str

    def act_left(self, m: int, x: int) -> int:
        return self.table[m][x]

    def act_right(self, x: int, m: int) -> int:
        return self.table[x][m]


@_staged(20)
def validate_action(A: MonoidAction) -> ValidationReport:
    M = A.monoid
    if not isinstance(M, FinMonoid):
        yield ["an action needs a table-form monoid"]
    yield _nested_problems(monoid=validate_monoid(M))
    if A.side not in ("left", "right"):
        yield [f"unknown side {A.side!r}"]
    n, k = M.size, A.size
    shape = (n, k) if A.side == "left" else (k, n)
    if len(A.table) != shape[0]:
        yield ["action table has wrong shape"]
    yield (m for r, row in enumerate(A.table) for m in _table_problems(f"row {r}", row, shape[1], k))
    left = A.side == "left"
    t = A.table if left else tuple(zip(*A.table))  # t[m][x] is m.x or x.m
    triples = list(itertools.product(range(n), range(n), range(k)))
    yield _identity_problems((
        ([t[M.unit][x] for x in range(k)], list(range(k)), "unit does not fix element {s}".format),
        ([t[m][t[m2][x]] if left else t[m2][t[m][x]] for m, m2, x in triples],
         [t[M.mult(m, m2)][x] for m, m2, x in triples],
         _at(triples if left else [(x, m, m2) for m, m2, x in triples],
             "associativity fails at ({},{},{})"))))


def trivial_action(M: FinMonoid, side: str) -> MonoidAction:
    if side == "left":
        return MonoidAction(M, 1, tuple((0,) for _ in range(M.size)), "left")
    return MonoidAction(M, 1, ((0,) * M.size,), "right")


def regular_action(M: FinMonoid, side: str) -> MonoidAction:
    n = M.size
    return MonoidAction(M, n, tuple(tuple(M.table[a][b] for b in range(n))
                                    for a in range(n)), side)


# -- nerves ------------------------------------------------------------------------


def _nerve_faces(C: FinNonUnitalCategory):
    """``face(p, i, chain)``, d_i of a p-chain of the nerve of C: drop an end
    or compose two neighbours; a 1-chain drops to the object at the far end."""
    src, tgt, comp = C.src, C.tgt, C.comp

    def face(p, i, chain):
        if p == 1:
            return tgt[chain[0]] if i == 0 else src[chain[0]]
        if i == 0:
            return chain[1:]
        if i == p:
            return chain[:-1]
        return chain[:i - 1] + (comp[(chain[i - 1], chain[i])],) + chain[i + 1:]

    return face


@dataclass(frozen=True)
class NerveData:
    """The nerve together with its chain lists and index lookups.

    chains[0] lists object indices; chains[p] for p >= 1 lists composable
    p-tuples of morphisms lexicographically.
    """

    sset: SemiSimplicialSet
    chains: tuple
    index: tuple


def nerve(C: FinNonUnitalCategory, N: int) -> NerveData:
    """Composable-chain nerve through level N; d_1 = src and d_0 = tgt on edges."""
    by_source = [[] for _ in range(C.n_objects)]
    for f in range(C.n_morphisms):
        by_source[C.src[f]].append(f)
    chains = [tuple(range(C.n_objects)), tuple((f,) for f in range(C.n_morphisms))][:N + 1]
    for p in range(2, N + 1):
        chains.append(tuple(chain + (g,) for chain in chains[-1]
                            for g in by_source[C.tgt[chain[-1]]]))
    sset, index = listed_sset(chains, _nerve_faces(C), N)
    return NerveData(sset, tuple(chains), index)


def nerve_map(F: FunctorData, N: int) -> SSetMap:
    nc = nerve(F.source, N)
    nd = nerve(F.target, N)
    tables = [tuple(F.obj_map)]
    for p in range(1, N + 1):
        tables.append(tuple(
            nd.index[p][tuple(F.mor_map[f] for f in chain)] for chain in nc.chains[p]))
    return SSetMap(nc.sset, nd.sset, tuple(tables))


def chain_object(C: FinNonUnitalCategory, chain, i: int) -> int:
    """The i-th object visited by a chain (an object index at level 0)."""
    if isinstance(chain, int):
        return chain
    return C.src[chain[0]] if i == 0 else C.tgt[chain[i - 1]]


def nerve_path_contraction(C: FinNonUnitalCategory, N: int) -> ExtraDegeneracy:
    """Contraction of the path space of a unital nerve onto the objects.

    The extra degeneracy appends the unit of the chain's final object, the
    augmentation is d_0 (the far-end object of the leading edge).
    """
    if not C.is_unital:
        raise ValueError("path-space contraction needs units")
    nd = nerve(C, N)
    px = path_space(nd.sset)
    h0 = tuple(nd.index[1][(C.units[c],)] for c in range(C.n_objects))
    up = []
    for p in range(N - 1):
        table = []
        for chain in nd.chains[p + 1]:
            longer = chain + (C.units[C.tgt[chain[-1]]],)
            table.append(nd.index[p + 2][longer])
        up.append(tuple(table))
    return ExtraDegeneracy(px, nd.sset.sizes[0], nd.sset.faces[1][0], h0, tuple(up))


# -- unitalization and slice categories ------------------------------------------


def unitalize(C: FinNonUnitalCategory) -> FinNonUnitalCategory:
    """Adjoin one fresh unit per object (even if C already had units): the
    morphisms of C, then the unit of object c at n_morphisms + c, listed by
    ``listed_category``."""
    m, objects = C.n_morphisms, range(C.n_objects)
    src, tgt = C.src + tuple(objects), C.tgt + tuple(objects)
    return listed_category(objects, range(m + C.n_objects), lambda f: (src[f], tgt[f]),
                           lambda f, g: g if f >= m else f if g >= m else C.comp[(f, g)],
                           lambda c: m + c)


def over_category(C: FinNonUnitalCategory, c: int) -> FinNonUnitalCategory:
    """Objects are the arrows into c; a morphism from g to f is any h with
    f . h = g."""
    if not (0 <= c < C.n_objects):
        raise ValueError(f"object {c} out of range")
    objects = [f for f in range(C.n_morphisms) if C.tgt[f] == c]
    mors = [(h, f) for h in range(C.n_morphisms) for f in objects
            if C.tgt[h] == C.src[f]]
    unit = None if C.units is None else lambda f: (C.units[C.src[f]], f)
    return listed_category(objects, mors, lambda hf: (C.comp[hf], hf[1]),
                           lambda hg, hf: (C.comp[(hg[0], hf[0])], hf[1]), unit)


def comma_under_object(F: FunctorData, d: int) -> FinNonUnitalCategory:
    """The category d\\F: objects (a, u : d -> F(a)), morphisms h with
    F(h) . u = u'.  Objects are ordered by u, then a; morphisms by their
    source object, then h.  For F = id this is the under category of d."""
    C, D = F.source, F.target
    if not (0 <= d < D.n_objects):
        raise ValueError(f"object {d} out of range")
    objects = [(a, u) for u in range(D.n_morphisms) for a in range(C.n_objects)
               if D.src[u] == d and D.tgt[u] == F.obj_map[a]]
    mors = [(h, u) for a, u in objects for h in range(C.n_morphisms) if C.src[h] == a]
    unit = None
    if C.units is not None and D.units is not None and \
            all(F.mor_map[C.units[a]] == D.units[F.obj_map[a]] for a in range(C.n_objects)):
        unit = lambda x: (C.units[x[0]], x[1])
    return listed_category(
        objects, mors,
        lambda hu: ((C.src[hu[0]], hu[1]), (C.tgt[hu[0]], D.comp[(hu[1], F.mor_map[hu[0]])])),
        lambda hu, hv: (C.comp[(hu[0], hv[0])], hu[1]), unit)


# -- the comma resolution -----------------------------------------------------------


@dataclass(frozen=True)
class CommaResolution:
    """Levels (p, q) hold pairs (a-chain of the source nerve, connected
    (q+1)-chain of the target nerve).

    In the primal direction the target chain starts at F(end of a) and the
    gluing happens when dh at i = p composes F(last arrow) into the front;
    eps projects to the source p-chain and eta to the target q-chain (with the
    connecting arrow dropped).  With dual=True the target chain ends at
    F(start of a), dh at i = 0 glues, and the projections play xi and zeta.
    """

    functor: FunctorData
    dual: bool
    bisset: BiSemiSimplicialSet
    eps: tuple
    eta: tuple
    elements: tuple
    index: tuple
    c_nerve: NerveData
    d_nerve: NerveData


def comma_resolution(F: FunctorData, N: int, dual: bool = False) -> CommaResolution:
    C, D = F.source, F.target
    cn = nerve(C, N)
    dn = nerve(D, N + 1)
    pool: dict[tuple[int, int], list] = {}  # (length, anchor object) -> target chains
    for ln in range(1, N + 2):
        for chain in dn.chains[ln]:
            pool.setdefault((ln, D.tgt[chain[-1]] if dual else D.src[chain[0]]), []).append(chain)
    elements = tuple(tuple(tuple(
        (a_idx, u) for a_idx, a in enumerate(cn.chains[p])
        for u in pool.get((q + 1, F.obj_map[chain_object(C, a, 0 if dual else p)]), ()))
        for q in range(N + 1)) for p in range(N + 1))

    c_faces, d_face = cn.sset.faces, _nerve_faces(D)

    def hface(p, q, i, elem):
        a_idx, u = elem
        if dual and i == 0:
            u = u[:-1] + (D.comp[(u[-1], F.mor_map[cn.chains[p][a_idx][0]])],)
        elif not dual and i == p:
            u = (D.comp[(F.mor_map[cn.chains[p][a_idx][-1]], u[0])],) + u[1:]
        return c_faces[p][i][a_idx], u

    def vface(p, q, j, elem):
        return elem[0], d_face(q + 1, j if dual else j + 1, elem[1])

    bisset, index = listed_bisset(elements, hface, vface, N, N)
    eps = tuple(tuple(tuple(a_idx for a_idx, u in elements[p][q])
                      for q in range(N + 1)) for p in range(N + 1))

    def eta_of(q, u):  # the target q-chain with the connecting arrow dropped
        if q == 0:
            return D.src[u[0]] if dual else D.tgt[u[0]]
        return dn.index[q][u[:-1] if dual else u[1:]]

    eta = tuple(tuple(tuple(eta_of(q, u) for _, u in elements[p][q])
                      for q in range(N + 1)) for p in range(N + 1))
    return CommaResolution(F, dual, bisset, eps, eta, elements, index, cn, dn)


def row_contraction(res: CommaResolution, p: int) -> ExtraDegeneracy:
    """Extra degeneracy of a row of the dual resolution over the source
    nerve, appending the unit of the anchor object (needs a unital target
    category).  The row is the fixed-p semi-simplicial set in the q
    direction, built from the bisset's sizes[p] and vertical faces dv[p]."""
    F = res.functor
    C, D = F.source, F.target
    if not res.dual:
        raise ValueError("row contraction needs the dual resolution")
    if D.units is None:
        raise ValueError("row contraction needs a unital target")
    B = res.bisset
    N = B.q_levels - 1
    row = SemiSimplicialSet(tuple(B.sizes[p]), B.dv[p], truncated_at=N)

    def unit_of(a_idx):
        return D.units[F.obj_map[chain_object(C, res.c_nerve.chains[p][a_idx], 0)]]

    h0 = tuple(res.index[p][0][(a_idx, (unit_of(a_idx),))]
               for a_idx in range(len(res.c_nerve.chains[p])))
    up = []
    for q in range(N):
        tab = []
        for a_idx, u in res.elements[p][q]:
            tab.append(res.index[p][q + 1][(a_idx, u + (unit_of(a_idx),))])
        up.append(tuple(tab))
    return ExtraDegeneracy(row, len(res.c_nerve.chains[p]), res.eps[p][0], h0, tuple(up))


def eta_fiber(res: CommaResolution, q: int, b: int) -> SemiSimplicialSet:
    """The p-direction fiber of eta over the q-chain with index b."""
    B = res.bisset
    P = B.p_levels
    members = [[s for s in range(B.sizes[p][q]) if res.eta[p][q][s] == b]
               for p in range(P)]
    return listed_sset(members, lambda p, i, s: B.dh[p][q][i][s], P - 1)[0]


def nat_trans_homotopy(eta: NatTransData, N: int) -> PrismHomotopy:
    """The prism sections carrying nerve(G) to nerve(F) along the components."""
    rep = validate_nat_trans(eta)
    if not rep.ok:
        raise ValueError(f"invalid natural transformation: {rep.problems[0]}")
    F, G = eta.F, eta.G
    C, D = F.source, F.target
    fmap = nerve_map(G, N)
    gmap = nerve_map(F, N)
    dn = nerve(D, N)
    cn = nerve(C, N)
    tri = []
    for p in range(N):
        level = []
        for i in range(p + 1):
            tab = []
            for chain in cn.chains[p]:
                c_i = chain_object(C, chain, i)
                if p == 0:
                    prism = (eta.components[c_i],)
                else:
                    prism = tuple(F.mor_map[f] for f in chain[:i]) + \
                        (eta.components[c_i],) + \
                        tuple(G.mor_map[f] for f in chain[i:])
                tab.append(dn.index[p + 1][prism])
            level.append(tuple(tab))
        tri.append(tuple(level))
    return PrismHomotopy(fmap, gmap, tuple(tri))


# -- bar constructions ---------------------------------------------------------------


def bar_construction(Y: MonoidAction, M: FinMonoid, X: MonoidAction, N: int) -> SemiSimplicialSet:
    """Two-sided bar construction: level p lists (y, m_1, .., m_p, x) in Y x
    M^p x X lexicographically, so the tuple has position
    ((y * |M| + m_1) * |M| + .. + m_p) * |X| + x.

    d_0 absorbs m_1 into y, d_p absorbs m_p into x, inner faces multiply
    adjacent letters.
    """
    if Y.monoid is not M or X.monoid is not M:
        raise ValueError("actions must be over the given monoid")
    if Y.side != "right" or X.side != "left":
        raise ValueError("expected a right action and a left action")
    levels = [tuple(itertools.product(range(Y.size), *[range(M.size)] * p, range(X.size)))
              for p in range(N + 1)]

    def face(p, i, t):
        merge = Y.act_right if i == 0 else X.act_left if i == p else M.mult
        return t[:i] + (merge(t[i], t[i + 1]),) + t[i + 2:]

    return listed_sset(levels, face, N)[0]


# -- Grothendieck groups ---------------------------------------------------------------


def grothendieck_group(M: FinMonoid | MonoidPresentation) -> FPAbelianGroup:
    """Group completion of a commutative monoid, as the cokernel of the
    relation-difference matrix of its presentation."""
    P = monoid_presentation(M) if isinstance(M, FinMonoid) else M
    k = P.gens
    entries = []
    for j, (lhs, rhs) in enumerate(P.relations):
        for i in range(k):
            entries.append((i, j, lhs[i] - rhs[i]))
    mat = SparseIntMatrix.from_entries(k, len(P.relations), entries)
    s = smith_normal_form(mat)
    torsion = tuple(d for d in s.factors if d > 1)
    return FPAbelianGroup(k - s.rank, torsion)
