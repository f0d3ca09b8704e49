"""Seeded in-memory mutants through every validator, pinned by one digest.

Broken categories, functors, natural transformations, monoids, actions and
homotopy certificates are made from the fixture corpus by random table edits,
a few hundred of each kind, and run through ``validate_category``,
``validate_functor``, ``validate_nat_trans``, ``validate_monoid``,
``validate_action`` and ``check_certificate``.  No validator may raise, no
report may list more than 21 problems, and the sha256 of the ``(kind, ok,
problems)`` lines must equal ``DIGEST``.  A changed validator message, or a
changed listing order of a builder whose output feeds the mutants (the
``comp`` order of a category, say), moves the pin: check the new reports
before updating it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

from oracles import nonunital_category_corpus, trivial_monoid
from ssethom import cat
from ssethom import fixtures as fx
from ssethom.sset import PrismHomotopy, check_certificate

SEED = 1
PER_KIND = 200
DIGEST = "95e54540ee1d3e5020e0f8a9ea3362e96a4ceb0b0ea398b3f76f66fcf5cda5ca"


def _mutate_category(rng, C, count):
    """``count`` random edits of the tables of a category."""
    comp, src, tgt = dict(C.comp), list(C.src), list(C.tgt)
    units = list(C.units) if C.units is not None else None
    m = len(src)
    for _ in range(count):
        roll = rng.random()
        if comp and roll < 0.45:
            f, g = rng.choice(sorted(comp))
            same = [h for h in range(m) if src[h] == src[f] and tgt[h] == tgt[g]]
            comp[(f, g)] = rng.choice(same or range(m))
        elif units and roll < 0.6:
            c = rng.randrange(len(units))
            units[c] = rng.choice([h for h in range(m) if src[h] == tgt[h] == c] or [0])
        elif comp and roll < 0.7:
            del comp[rng.choice(sorted(comp))]
        elif comp and roll < 0.8:
            comp[rng.choice(sorted(comp))] = rng.randrange(-1, m + 1)
        elif m and roll < 0.9:
            (src if rng.random() < 0.5 else tgt)[rng.randrange(m)] = rng.randrange(C.n_objects + 1)
        elif units is not None:
            units[rng.randrange(len(units))] = rng.randrange(-1, m + 1)
        elif m:
            comp[(rng.randrange(m), rng.randrange(m))] = rng.randrange(m)
    return type(C)(C.n_objects, tuple(src), tuple(tgt), comp,
                   units=None if units is None else tuple(units))


def _mutate_map(rng, values, high):
    values = list(values)
    if values:
        values[rng.randrange(len(values))] = rng.randrange(-1, high + 1) \
            if rng.random() < 0.2 else rng.randrange(max(high, 1))
    return tuple(values)


def _monoids():
    return [fx.cyclic_group_monoid(n) for n in range(2, 6)] + [
        fx.klein_four_monoid(), fx.absorbing_pair_monoid(), trivial_monoid()]


def _categories():
    out = [fx.poset_category(n) for n in range(4)]
    out += [fx.strict_poset_category(n) for n in range(4)]
    out += [fx.grid_poset_category(), cat.unitalize(fx.strict_poset_category(2))]
    out += list(nonunital_category_corpus().values())
    out += [cat.monoid_as_category(M) for M in _monoids()]
    return out


def _to_terminal(C):
    """id => the constant functor at the last object, when that object is
    terminal, else None."""
    t = C.n_objects - 1
    arrows = {C.src[m]: m for m in range(C.n_morphisms) if C.tgt[m] == t}
    if C.units is None or len(arrows) != C.n_objects:
        return None
    G = cat.FunctorData(C, C, (t,) * C.n_objects, (C.units[t],) * C.n_morphisms)
    return cat.NatTransData(cat.identity_functor(C), G, tuple(arrows[c] for c in range(C.n_objects)))


def _validator_inputs(rng, count):
    """(kind, validator, input), ``count`` inputs of each kind."""
    cats = _categories()
    for _ in range(count):
        yield "category", cat.validate_category, _mutate_category(rng, rng.choice(cats), rng.randint(1, 8))

    functors = list(fx.quillen_functor_corpus().values())
    functors += [cat.identity_functor(C) for C in cats]
    for _ in range(count):
        F = rng.choice(functors)
        roll = rng.random()
        if roll < 0.25:
            F = dataclasses.replace(F, source=_mutate_category(rng, F.source, rng.randint(1, 3)))
        elif roll < 0.35:
            F = dataclasses.replace(F, target=_mutate_category(rng, F.target, rng.randint(1, 3)))
        elif roll < 0.45:
            F = dataclasses.replace(F, obj_map=_mutate_map(rng, F.obj_map, F.target.n_objects))
        for _ in range(rng.randint(1, 6) if roll >= 0.35 else 0):
            F = dataclasses.replace(F, mor_map=_mutate_map(rng, F.mor_map, F.target.n_morphisms))
        yield "functor", cat.validate_functor, F

    etas = [eta for eta in map(_to_terminal, cats) if eta is not None]
    for _ in range(count):
        eta = rng.choice(etas)
        roll = rng.random()
        if roll < 0.15:  # equal categories that are not the same object
            C = eta.G.source
            copy = type(C)(C.n_objects, C.src, C.tgt, dict(C.comp), units=C.units)
            eta = dataclasses.replace(eta, G=dataclasses.replace(eta.G, source=copy, target=copy))
        elif roll < 0.3:
            C = _mutate_category(rng, eta.F.source, rng.randint(1, 3))
            eta = dataclasses.replace(eta, F=dataclasses.replace(eta.F, source=C, target=C))
        elif roll < 0.5:
            which = "F" if rng.random() < 0.5 else "G"
            H = getattr(eta, which)
            H = dataclasses.replace(H, mor_map=_mutate_map(rng, H.mor_map, H.target.n_morphisms))
            eta = dataclasses.replace(eta, **{which: H})
        for _ in range(rng.randint(1, 4) if roll >= 0.5 else 0):
            eta = dataclasses.replace(eta, components=_mutate_map(
                rng, eta.components, eta.F.target.n_morphisms))
        yield "nat-trans", cat.validate_nat_trans, eta

    # a 21-element monoid can fail the unit law at more than 20 elements
    monoids = _monoids() + [fx.cyclic_group_monoid(21)]
    for _ in range(count):
        M = rng.choice(monoids)
        n = M.size
        table = [list(row) for row in M.table]
        unit = M.unit
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if roll < 0.8:
                table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            elif roll < 0.9:
                unit = rng.randrange(n)
            else:
                table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(-1, n + 1)
        yield "monoid", cat.validate_monoid, cat.FinMonoid(table=tuple(map(tuple, table)), unit=unit)

    actions = [make(M, side) for M in monoids for side in ("left", "right")
               for make in (cat.regular_action, cat.trivial_action)]
    for _ in range(count):
        A = rng.choice(actions)
        table = [list(row) for row in A.table]
        if rng.random() < 0.2:
            M = A.monoid
            t = [list(row) for row in M.table]
            t[rng.randrange(M.size)][rng.randrange(M.size)] = rng.randrange(M.size)
            A = dataclasses.replace(A, monoid=cat.FinMonoid(table=tuple(map(tuple, t)), unit=M.unit))
        if rng.random() < 0.2:  # the unit moves every element one step
            e = A.monoid.unit
            for x in range(A.size):
                if A.side == "left":
                    table[e][x] = (table[e][x] + 1) % A.size
                else:
                    table[x][e] = (table[x][e] + 1) % A.size
        for _ in range(rng.randint(1, 12)):
            row = table[rng.randrange(len(table))]
            row[rng.randrange(len(row))] = rng.randrange(A.size) \
                if rng.random() < 0.9 else rng.randrange(-1, A.size + 1)
        yield "action", cat.validate_action, dataclasses.replace(A, table=tuple(map(tuple, table)))

    corpus = _corpus_certificates()
    for _ in range(count):
        yield "certificate", check_certificate, _mutate_certificate(rng, rng.choice(corpus))


def _corpus_certificates():
    certs = [cat.bar_extra_degeneracy(M, N) for M in _monoids() for N in (2, 3)]
    certs += [cat.nerve_path_contraction(C, N) for C in _categories()
              if C.units is not None and C.n_morphisms <= 9 for N in (2, 3)]
    for F in fx.quillen_functor_corpus().values():
        res = cat.comma_resolution(F, 2, dual=True)
        certs += [cat.row_contraction(res, p) for p in range(3)]
    certs += [cat.nat_trans_homotopy(eta, N) for eta in map(_to_terminal, _categories()[:4])
              for N in (2, 3)]
    return certs


def _mutate_certificate(rng, cert):
    """Edit 1-6 table entries of a certificate, each to a value in range."""
    if isinstance(cert, PrismHomotopy):
        Y = cert.f.target
        tri = [[list(tab) for tab in level] for level in cert.tri]
        for _ in range(rng.randint(1, 6)):
            p = rng.randrange(len(tri))
            tab = rng.choice(tri[p])
            if tab:
                tab[rng.randrange(len(tab))] = rng.randrange(Y.sizes[p + 1])
        return dataclasses.replace(cert, tri=tuple(tuple(map(tuple, level)) for level in tri))
    X = cert.space
    aug, h0, up = list(cert.aug), list(cert.h0), [list(h) for h in cert.up]
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.15 and aug:
            aug[rng.randrange(len(aug))] = rng.randrange(cert.aug_size)
        elif roll < 0.3 and h0:
            h0[rng.randrange(len(h0))] = rng.randrange(X.sizes[0])
        else:
            p = rng.randrange(len(up))
            if up[p]:
                up[p][rng.randrange(len(up[p]))] = rng.randrange(X.sizes[p + 1])
    return dataclasses.replace(cert, aug=tuple(aug), h0=tuple(h0), up=tuple(map(tuple, up)))


def test_validators_on_seeded_mutants():
    lines = []
    for kind, validate, x in _validator_inputs(random.Random(SEED), PER_KIND):
        rep = validate(x)
        assert len(rep.problems) <= 21, (kind, rep.problems)
        lines.append(json.dumps([kind, rep.ok, list(rep.problems)]))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
