"""Compare the law checkers of two source trees on seeded random broken inputs.

Run from the repository root:

    python3 scripts/compare_validators.py OLD_SRC NEW_SRC [--count N] [--seed S]

OLD_SRC and NEW_SRC are ``src`` directories of two checkouts.  Each tree runs
in its own process on the same mutants: ``validate_category``,
``validate_functor``, ``validate_nat_trans``, ``validate_monoid`` and
``validate_action`` on N broken documents each, and ``check_certificate`` on
5N mutants of the corpus certificates whose table entries stay in range.

A validator's ``(ok, problems)`` must be identical in both trees, except in
three cases, each counted on its own line:

- nested: the new tree reports a document nested in the input as invalid;
- equal: the old tree rejected two functors whose categories are equal but
  not the same object;
- cut: a monoid or action had more than 20 problems, and the new list is the
  old one cut at 20.

A certificate must get the same ``ok``; where the old tree lists 20 or fewer
problems, the same set of problems, and otherwise 21.  An exception is
recorded as a problem list of its own, so a crash in either tree is a
difference.  The script exits 1 if any input falls outside these cases.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import random
import subprocess
import sys

NESTED = ("source: ", "target: ", "F: ", "G: ", "monoid: ")


# -- mutants (run inside one tree) -----------------------------------------------


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


def _categories(fx, cat):
    out = [fx.poset_category(n) for n in range(4)]
    out += [fx.strict_poset_category(n) for n in range(4)]
    out += [fx.grid_poset_category(), cat.unitalize(fx.strict_poset_category(2))]
    out += list(fx.nonunital_category_corpus().values())
    out += [cat.monoid_as_category(M) for M in _monoids(fx)]
    return out


def _monoids(fx):
    return [fx.cyclic_group_monoid(n) for n in range(2, 6)] + [
        fx.klein_four_monoid(), fx.absorbing_pair_monoid(), fx.trivial_monoid()]


def _to_terminal(cat, C):
    """id => the constant functor at the last object, when that object is
    terminal, else None."""
    t = C.n_objects - 1
    arrows = {C.src[m]: m for m in range(C.n_morphisms) if C.tgt[m] == t}
    if C.units is None or len(arrows) != C.n_objects:
        return None
    G = cat.FunctorData(C, C, (t,) * C.n_objects, (C.units[t],) * C.n_morphisms)
    return cat.NatTransData(cat.identity_functor(C), G, tuple(arrows[c] for c in range(C.n_objects)))


def _validator_inputs(rng, count):
    """(kind, flags, input) for every validator, ``count`` of each kind."""
    from ssethom import cat
    from ssethom import fixtures as fx

    cats = _categories(fx, cat)
    for _ in range(count):
        yield "category", {}, _mutate_category(rng, rng.choice(cats), rng.randint(1, 8))

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
        yield "functor", {}, F

    etas = [eta for eta in (_to_terminal(cat, C) for C in cats) if eta is not None]
    for _ in range(count):
        eta = rng.choice(etas)
        roll = rng.random()
        if roll < 0.15:
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
        F, G = eta.F, eta.G
        equal = (F.source == G.source and F.target == G.target
                 and (F.source is not G.source or F.target is not G.target))
        yield "nat-trans", {"equal": equal}, eta

    # a 21-element monoid can fail the unit law at more than 20 elements
    monoids = _monoids(fx) + [fx.cyclic_group_monoid(21)]
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
        yield "monoid", {}, cat.FinMonoid(table=tuple(map(tuple, table)), unit=unit)

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
        yield "action", {}, dataclasses.replace(A, table=tuple(map(tuple, table)))


def _corpus_certificates():
    from ssethom import cat
    from ssethom import fixtures as fx

    certs = [cat.bar_extra_degeneracy(M, N) for M in _monoids(fx) for N in (2, 3)]
    certs += [cat.nerve_path_contraction(C, N) for C in _categories(fx, cat)
              if C.units is not None and C.n_morphisms <= 9 for N in (2, 3)]
    for F in fx.quillen_functor_corpus().values():
        res = cat.comma_resolution(F, 2, dual=True)
        certs += [cat.row_contraction(res, p) for p in range(3)]
    certs += [cat.nat_trans_homotopy(eta, N) for eta in
              (_to_terminal(cat, C) for C in _categories(fx, cat)[:4]) for N in (2, 3)]
    return certs


def _mutate_certificate(rng, cert):
    """Edit 1-6 table entries of a certificate, each to a value in range."""
    if _is_prism(cert):
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


def _is_prism(cert) -> bool:
    """Whether a certificate holds prism sections; read from its fields, so
    that a tree with one certificate class for both kinds reads the same."""
    return getattr(cert, "f", None) is not None


def _certificate_fields(cert) -> tuple:
    if _is_prism(cert):
        return cert.f, cert.g, cert.tri
    return cert.space, cert.aug_size, cert.aug, cert.h0, cert.up


def _run(call, arg):
    try:
        rep = call(arg)
    except Exception as e:  # a crash is a result to compare, not a failure of the script
        return None, [f"raised {type(e).__name__}: {e}"]
    return rep.ok, list(rep.problems)


def dump(count: int, seed: int) -> None:
    """One JSON line per input: its kind, flags, a digest of its fields and
    the result of its checker in this tree."""
    from ssethom import cat
    from ssethom.sset import check_certificate

    checkers = {"category": cat.validate_category, "functor": cat.validate_functor,
                "nat-trans": cat.validate_nat_trans, "monoid": cat.validate_monoid,
                "action": cat.validate_action}
    rng = random.Random(seed)
    cases = [(kind, flags, repr(x), _run(checkers[kind], x))
             for kind, flags, x in _validator_inputs(rng, count)]
    corpus = _corpus_certificates()
    for _ in range(5 * count):
        cert = _mutate_certificate(rng, rng.choice(corpus))
        cases.append(("certificate", {}, repr(_certificate_fields(cert)), _run(check_certificate, cert)))
    for kind, flags, text, (ok, problems) in cases:
        print(json.dumps({"kind": kind, "flags": flags, "ok": ok, "problems": problems,
                          "input": hashlib.sha256(text.encode()).hexdigest()[:16]}))


# -- comparison --------------------------------------------------------------------


def classify(old: dict, new: dict) -> str:
    """Which allowed case a pair of results falls in, or "UNEXPECTED"."""
    po, pn = old["problems"], new["problems"]
    if old["kind"] == "certificate":
        if old["ok"] != new["ok"]:
            return "UNEXPECTED"
        if po == pn:
            return "same"
        if len(po) <= 20:
            return "same set, other order" if sorted(po) == sorted(pn) else "UNEXPECTED"
        return "more than 20 at the old tree, 21 at the new" if len(pn) == 21 else "UNEXPECTED"
    if (old["ok"], po) == (new["ok"], pn):
        return "same"
    if pn and all(p.startswith(NESTED) for p in pn):
        return "nested"
    if new["flags"].get("equal") and po == ["the two functors do not share source and target"]:
        return "equal"
    if new["kind"] in ("monoid", "action") and len(po) > 20 and pn == po[:20]:
        return "cut"
    return "UNEXPECTED"


def _dump_in(src: str, count: int, seed: int) -> list[dict]:
    out = subprocess.run(
        [sys.executable, __file__, "--dump", "--count", str(count), "--seed", str(seed)],
        env={"PYTHONPATH": src}, stdout=subprocess.PIPE, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--count", type=int, default=600)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.count, args.seed)
        return 0
    old = _dump_in(args.old_src, args.count, args.seed)
    new = _dump_in(args.new_src, args.count, args.seed)
    if [r["input"] for r in old] != [r["input"] for r in new]:
        print("the two trees generated different inputs")
        return 1
    tally = collections.Counter()
    for o, n in zip(old, new):
        case = classify(o, n)
        if o["kind"] == "certificate" and not o["ok"]:
            case += " (failing)"
        tally[(n["kind"], case)] += 1
        if o["ok"] is None or n["ok"] is None:
            tally[(n["kind"], "raised at old" if o["ok"] is None else "raised at new")] += 1
    for (kind, case), k in sorted(tally.items()):
        print(f"{kind:12} {case:45} {k}")
    return 1 if any("UNEXPECTED" in case or case == "raised at new" for _, case in tally) else 0


if __name__ == "__main__":
    sys.exit(main())
