"""Shared example objects: spaces, categories, monoids, functors.

Everything here is deterministic; the random generators take explicit seeds.
"""

from __future__ import annotations

import itertools
import operator
import random

from .cat import (
    FinMonoid,
    FinNonUnitalCategory,
    FunctorData,
    MonoidPresentation,
    identity_functor,
    listed_category,
)
from .sset import (
    SemiSimplicialSet,
    SimplicialSet,
    boundary_semi_simplex,
    constant_sset,
    free_degeneracies,
    levelwise_product,
    standard_semi_simplex,
)


# -- semi-simplicial fixtures -------------------------------------------------


def real_projective_plane() -> SemiSimplicialSet:
    """Two vertices, three edges, two triangles; the minimal model."""
    return SemiSimplicialSet(
        (2, 3, 2),
        ((), ((1, 1, 0), (0, 0, 0)), ((0, 1), (1, 0), (2, 2))))


def parallel_edges(k: int) -> SemiSimplicialSet:
    """Two vertices joined by k edges (a wedge of k-1 circles)."""
    return SemiSimplicialSet((2, k), ((), ((1,) * k, (0,) * k)))


def sset_corpus() -> dict[str, SemiSimplicialSet]:
    circle = boundary_semi_simplex(2)
    return {
        "point": standard_semi_simplex(0),
        "interval": standard_semi_simplex(1),
        "simplex2": standard_semi_simplex(2),
        "simplex3": standard_semi_simplex(3),
        "circle": circle,
        "sphere2": boundary_semi_simplex(3),
        "sphere3": boundary_semi_simplex(4),
        "rp2": real_projective_plane(),
        "parallel3": parallel_edges(3),
        "threepoints": constant_sset(3, 2),
        "diagsquare": levelwise_product(circle, circle),
    }


def random_semi_simplicial(seed: int) -> SemiSimplicialSet:
    """A pseudo-random valid semi-simplicial set through level 3, truncated
    there: one to five vertices, and at each level above up to five samples
    of the face-compatible tuples over the level below."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 5)]
    faces: list[tuple] = [()]
    for p in range(1, 4):
        prev = sizes[p - 1]
        cands = []
        for tup in itertools.product(range(prev), repeat=p + 1):
            ok = True
            for j in range(1, p + 1):
                for i in range(j):
                    if p >= 2 and faces[p - 1][i][tup[j]] != faces[p - 1][j - 1][tup[i]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                cands.append(tup)
        count = rng.randint(0, min(5, len(cands)))
        chosen = rng.sample(cands, count) if count else []
        sizes.append(len(chosen))
        faces.append(tuple(tuple(tup[i] for tup in chosen) for i in range(p + 1)))
    return SemiSimplicialSet(tuple(sizes), tuple(faces), truncated_at=3)


def random_simplicial(seed: int) -> SimplicialSet:
    return free_degeneracies(random_semi_simplicial(seed))


# -- categories ----------------------------------------------------------------


def _order_category(elements, relation, unital: bool) -> FinNonUnitalCategory:
    """One morphism (a, b) per related pair of elements, listed
    lexicographically by element position; (a, b) then (b, c) is (a, c)."""
    mors = [(a, b) for a in elements for b in elements if relation(a, b)]
    return listed_category(elements, mors, lambda m: m, lambda ab, bc: (ab[0], bc[1]),
                           (lambda e: (e, e)) if unital else None)[0]


def poset_category(n: int) -> FinNonUnitalCategory:
    """The poset 0 <= 1 <= ... <= n as a unital category; morphisms (i, j)
    listed lexicographically."""
    return _order_category(range(n + 1), operator.le, unital=True)


def strict_poset_category(n: int) -> FinNonUnitalCategory:
    """The strict order 0 < 1 < ... < n: no identities, so non-unital."""
    return _order_category(range(n + 1), operator.lt, unital=False)


def composable_pair_category() -> FinNonUnitalCategory:
    """Two arrows and their composite, no identities."""
    return strict_poset_category(2)


def idempotent_category() -> FinNonUnitalCategory:
    """One object with a single idempotent endomorphism, units not declared."""
    return FinNonUnitalCategory(1, (0,), (0,), {(0, 0): 0})


def discrete_category(n: int) -> FinNonUnitalCategory:
    return FinNonUnitalCategory(n, (), (), {})


def grid_poset_category() -> FinNonUnitalCategory:
    """The product order on {0,1} x {0,1} (a commuting square with units)."""
    return _order_category([(0, 0), (0, 1), (1, 0), (1, 1)],
                           lambda a, b: a[0] <= b[0] and a[1] <= b[1], unital=True)


# -- monoids --------------------------------------------------------------------


def cyclic_group_monoid(n: int) -> FinMonoid:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FinMonoid(table=table, unit=0)


def klein_four_monoid() -> FinMonoid:
    table = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    return FinMonoid(table=table, unit=0)


def absorbing_pair_monoid() -> FinMonoid:
    """{1, z} with z absorbing (z*z = z)."""
    return FinMonoid(table=((0, 1), (1, 1)), unit=0)


def free_rank_one_presentation() -> MonoidPresentation:
    """The natural numbers: one generator, no relations."""
    return MonoidPresentation(gens=1, relations=())


def glued_pair_presentation() -> MonoidPresentation:
    """Two generators identified: (1,0) ~ (0,1)."""
    return MonoidPresentation(gens=2, relations=(((1, 0), (0, 1)),))


# -- functors ----------------------------------------------------------------------


def point_into_interval() -> FunctorData:
    """The endpoint inclusion {1} into the walking arrow."""
    return FunctorData(poset_category(0), poset_category(1), (1,), (2,))


def interval_to_point() -> FunctorData:
    return FunctorData(poset_category(1), poset_category(0), (0, 0), (0, 0, 0))


def discrete_pair_into_interval() -> FunctorData:
    """Both objects of a discrete pair land in the walking arrow; the fiber
    over the far end is disconnected."""
    return FunctorData(discrete_category(2), poset_category(1), (0, 1), ())


def quillen_functor_corpus() -> dict[str, FunctorData]:
    out = {
        "endpoint": point_into_interval(),
        "collapse": interval_to_point(),
    }
    for n in range(3):
        out[f"id{n}"] = identity_functor(poset_category(n))
    return out
