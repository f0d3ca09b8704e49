"""Independent oracles for degeneracy words, shared by the simplicial-set tests.

A simplex of the simplicial n-simplex is a monotone map into [n], and a
canonical degeneracy word is the descending list of a monotone surjection's
flat steps.  None of this goes through ``normalize_face``, the canonical word
arithmetic the package uses.
"""

from __future__ import annotations

import itertools

from ssethom.sset import SimplexRef


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
