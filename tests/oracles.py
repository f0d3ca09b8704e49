"""Independent oracles and test-only example objects, shared by the tests.

A simplex of the simplicial n-simplex is a monotone map into [n], and a
canonical degeneracy word is the descending list of a monotone surjection's
flat steps.  None of this goes through ``normalize_face``, the canonical word
arithmetic the package uses.  ``reference_snf`` is a dense textbook Smith
normal form that shares no code with ``ssethom.snf``.  ``diagonal`` reads
the diagonal of a bi-semi-simplicial set off its own tables.  The categories
and the monoid under "test-only examples" are examples that only tests
build.  ``time_limit`` is a wall-clock guard, so that a test of a
super-linear trap fails instead of hanging.
"""

from __future__ import annotations

import contextlib
import itertools
import signal

import pytest

from ssethom.cat import FinMonoid, FinNonUnitalCategory
from ssethom.fixtures import (
    composable_pair_category,
    discrete_category,
    idempotent_category,
    strict_poset_category,
)
from ssethom.sset import BiSemiSimplicialSet, SemiSimplicialSet, SimplexRef, SimplicialSet


def insert_letter(a: int, word: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical word for s_a composed in front of s_word.

    Uses s_a s_b = s_{b+1} s_a for a <= b, pushing a inward until it is the
    largest remaining letter.
    """
    if not word or a > word[0]:
        return (a,) + word
    return (word[0] + 1,) + insert_letter(a, word[1:])


def word_to_surjection(word: tuple[int, ...], deg: int) -> tuple[int, ...]:
    """Value table of the monotone surjection [deg + len(word)] ->> [deg]."""
    p = deg + len(word)
    vals = list(range(p + 1))
    for letter in word:
        vals = [v if v <= letter else v - 1 for v in vals]
    return tuple(vals)


def surjection_to_word(vals: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical word of a monotone surjection: its flat steps, descending."""
    return tuple(j for j in range(len(vals) - 2, -1, -1) if vals[j] == vals[j + 1])


def factor_monotone(vals: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a monotone map into (degeneracy word, image vertices).

    vals = inj . surj where inj is the sorted image and surj collapses the
    flat steps recorded by the word.
    """
    image = sorted(set(vals))
    rank = {v: k for k, v in enumerate(image)}
    surj = tuple(rank[v] for v in vals)
    return surjection_to_word(surj), tuple(image)


def simplex_ref_to_monotone(n: int, ref: SimplexRef) -> tuple[int, ...]:
    """Identify simplices of the simplicial n-simplex with monotone maps into
    [n]; its generators in degree q are the (q+1)-subsets of {0..n}, lex
    ordered."""
    verts = list(itertools.combinations(range(n + 1), ref.deg + 1))[ref.gen]
    surj = word_to_surjection(ref.word, ref.deg)
    return tuple(verts[v] for v in surj)


def monotone_to_simplex_ref(n: int, vals: tuple[int, ...]) -> SimplexRef:
    """The inverse of ``simplex_ref_to_monotone``."""
    word, image = factor_monotone(vals)
    subs = list(itertools.combinations(range(n + 1), len(image)))
    return SimplexRef(word, len(image) - 1, subs.index(tuple(image)))


def reference_snf(dense):
    """Slow textbook Smith normal form on a dense matrix, used as an oracle.

    Works the submatrix at (t, t) with swap / gcd row and column steps until
    the pivot divides everything, then recurses.  Completely independent of
    the sparse production code.
    """
    mat = [list(row) for row in dense]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    out = []
    t = 0
    while t < min(nrows, ncols):
        # find a nonzero entry of minimal absolute value in the submatrix
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = mat[i][j]
                if v and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        mat[t], mat[i0] = mat[i0], mat[t]
        for row in mat:
            row[t], row[j0] = row[j0], row[t]
        p = mat[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            q = mat[i][t] // p
            if q:
                for j in range(t, ncols):
                    mat[i][j] -= q * mat[t][j]
            if mat[i][t]:
                dirty = True
        for j in range(t + 1, ncols):
            q = mat[t][j] // p
            if q:
                for i in range(t, nrows):
                    mat[i][j] -= q * mat[i][t]
            if mat[t][j]:
                dirty = True
        if dirty:
            continue
        off = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if mat[i][j] % p:
                    off = i
                    break
            if off is not None:
                break
        if off is not None:
            for j in range(t, ncols):
                mat[t][j] += mat[off][j]
            continue
        out.append(abs(p))
        t += 1
    return tuple(out)


def diagonal(B: BiSemiSimplicialSet) -> SemiSimplicialSet:
    """Restrict a bi-semi-simplicial set to its diagonal levels.

    d_i on the diagonal is dh_i followed by dv_i (the order does not matter
    since the two directions commute).  Read off the exterior product's
    tables, it is an oracle for ``levelwise_product``, which writes the
    same tables directly.
    """
    L = min(B.p_levels, B.q_levels)
    sizes = tuple(B.size(p, p) for p in range(L))
    faces = [()]
    for p in range(1, L):
        faces.append(tuple(
            tuple(B.dv[p - 1][p][i][t] for t in B.dh[p][p][i])
            for i in range(p + 1)))
    trunc = None
    if B.trunc_p is not None or B.trunc_q is not None:
        trunc = L - 1
    return SemiSimplicialSet(sizes, tuple(faces), truncated_at=trunc)


# -- test-only examples ----------------------------------------------------------


def parallel_arrows_category(k: int) -> FinNonUnitalCategory:
    """Two objects with k parallel arrows between them; nothing composes."""
    return FinNonUnitalCategory(2, (0,) * k, (1,) * k, {})


def nonunital_category_corpus() -> dict[str, FinNonUnitalCategory]:
    return {
        "idempotent": idempotent_category(),
        "discrete3": discrete_category(3),
        "pair": composable_pair_category(),
        "strict1": strict_poset_category(1),
        "strict3": strict_poset_category(3),
        "parallel2": parallel_arrows_category(2),
    }


def trivial_monoid() -> FinMonoid:
    return FinMonoid(table=((0,),), unit=0)


def minimal_rp2() -> SimplicialSet:
    """One vertex v, one edge e and one 2-cell with faces (e, s_0 v, e).

    Its d_1 is degenerate, so d_2 s_0 of the 2-cell is s_0 s_0 v, whose
    canonical word is (1, 0): the degenerate-face case of ``normalize_face``.
    """
    v, e, s0v = SimplexRef((), 0, 0), SimplexRef((), 1, 0), SimplexRef((0,), 0, 0)
    return SimplicialSet((1, 1, 1), ((), ((v,), (v,)), ((e,), (s0v,), (e,))))


def minimal_s2() -> SimplicialSet:
    """One vertex v and one 2-cell whose every face is s_0 v."""
    s0v = SimplexRef((0,), 0, 0)
    return SimplicialSet((1, 0, 1), ((), ((), ()), ((s0v,), (s0v,), (s0v,))))


# -- wall-clock guard --------------------------------------------------------------


class RunTooLong(BaseException):
    """Raised by ``time_limit``.  It is not an ``Exception``, so ``cli.main``
    cannot turn it into exit 3."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise ``RunTooLong`` in the block once ``seconds`` of wall-clock time
    have passed (SIGALRM, so main thread only)."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("the wall-clock guard needs signal.setitimer")

    def alarm(signum, frame):
        raise RunTooLong(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
