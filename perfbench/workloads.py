"""The four benchmark workloads: seeded inputs, fixed operation lists, oracles.

A workload's ``setup(seed, work)`` writes its input documents under
``<work>/<workload>/`` and returns its operation list.  The seed only
chooses an isomorphic relabelling of each input (non-unit monoid elements,
morphisms of categories, simplices or generators within a level),
so every oracle answer is the same for every seed and only the matrix
ordering changes.

Each operation is one ``ssethom`` command line.  Its oracle reads the
command's stdout and returns a seed-independent answer, or raises
``OracleError``.  The expected values come from classical facts (group
homology, simplex counts of nerves and bar constructions, Euler
characteristics), not from the code under test.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

WORK = ".perfbench_work"


class OracleError(Exception):
    """An operation's answer disagrees with its oracle."""


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    oracle: Callable[[str], object]
    ring: str | None = None  # "z", "fp" or "q" for operations over one ring
    out: str | None = None  # stdout is saved here for later operations


# -- relabelling tagged JSON documents ------------------------------------------


def _perm(rng: random.Random, n: int, fixed: int | None = None) -> list[int]:
    """A random permutation of range(n) as a list old -> new, keeping ``fixed``."""
    movable = [i for i in range(n) if i != fixed]
    images = movable[:]
    rng.shuffle(images)
    p = list(range(n))
    for a, b in zip(movable, images):
        p[a] = b
    return p


def _place(n: int, pairs) -> list:
    out = [None] * n
    for i, v in pairs:
        out[i] = v
    return out


def relabel_monoid(doc: dict, rng) -> dict:
    table, unit = doc["table"], doc["unit"]
    p = _perm(rng, len(table), fixed=unit)
    new = [[None] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            new[p[a]][p[b]] = p[ab]
    return {"type": "monoid", "table": new, "unit": unit}


def _relabel_category(doc: dict, rng) -> tuple[dict, list]:
    """Morphisms are permuted; objects keep their numbers, which commands name."""
    mors = _perm(rng, len(doc["morphisms"]))
    out = {
        **doc,
        "morphisms": _place(len(mors), ((mors[m], e) for m, e in enumerate(doc["morphisms"]))),
        "compose": sorted(({"f": mors[c["f"]], "g": mors[c["g"]], "gf": mors[c["gf"]]}
                           for c in doc["compose"]), key=lambda c: (c["f"], c["g"])),
    }
    if doc.get("units") is not None:
        out["units"] = [mors[u] for u in doc["units"]]
    return out, mors


def relabel_category(doc: dict, rng) -> dict:
    return _relabel_category(doc, rng)[0]


def relabel_functor(doc: dict, rng) -> dict:
    source, s_mor = _relabel_category(doc["source"], rng)
    target, t_mor = _relabel_category(doc["target"], rng)
    mor_map = _place(len(s_mor), ((s_mor[m], t_mor[v]) for m, v in enumerate(doc["mor_map"])))
    return {**doc, "source": source, "target": target, "mor_map": mor_map}


def relabel_sset(doc: dict, rng) -> dict:
    perms = [_perm(rng, level["size"]) for level in doc["levels"]]
    levels = []
    for p, level in enumerate(doc["levels"]):
        entry = {"size": level["size"]}
        if p > 0:
            entry["faces"] = [_place(level["size"], ((perms[p][s], perms[p - 1][f])
                                                     for s, f in enumerate(tab)))
                              for tab in level["faces"]]
        levels.append(entry)
    return {**doc, "levels": levels}


def relabel_simplicial(doc: dict, rng) -> dict:
    perms = [_perm(rng, g["size"]) for g in doc["generators"]]
    gens = []
    for q, g in enumerate(doc["generators"]):
        entry = {"size": g["size"]}
        if q > 0:
            entry["faces"] = [_place(g["size"], ((perms[q][i], {**ref, "idx": perms[ref["deg"]][ref["idx"]]})
                                                 for i, ref in enumerate(tab)))
                              for tab in g["faces"]]
        gens.append(entry)
    return {**doc, "generators": gens}


RELABEL = {
    "monoid": relabel_monoid,
    "category": relabel_category,
    "functor": relabel_functor,
    "sset": relabel_sset,
    "simplicial": relabel_simplicial,
}


def _relabelled(doc: dict, rng) -> dict:
    """``doc`` under a seeded relabelling; types without one are kept as they are."""
    fn = RELABEL.get(doc["type"])
    return fn(doc, rng) if fn is not None else doc


def _write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fresh_dir(work: str, workload: str) -> str:
    d = os.path.join(work, workload)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def _rng(workload: str, seed: int, what: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{what}")


# -- oracles ----------------------------------------------------------------------


def _expect(got, want, what: str):
    if got != want:
        raise OracleError(f"{what}: got {got!r}, expected {want!r}")
    return got


def _report(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as e:
        raise OracleError(f"stdout is not one JSON document: {e}") from None


def _homology(want: list) -> Callable[[str], object]:
    """Oracle for ``homology``: ``want`` lists (rank, torsion) per degree."""
    def check(stdout):
        got = [(g["rank"], g["torsion"]) for g in _report(stdout)["groups"]]
        return _expect(got, want, "homology groups")
    return check


def _z4_integral(k: int):
    # H_k(B Z/n; Z) is Z/n in odd degrees and 0 in positive even degrees.
    return (1, []) if k == 0 else (0, [4] if k % 2 else [])


def _v4_integral(k: int):
    # Kunneth for B(Z/2 x Z/2): the Z/2-rank of H_k is (k+3)/2 for odd k, k/2 for even k > 0.
    if k == 0:
        return (1, [])
    return (0, [2] * ((k + 3) // 2 if k % 2 else k // 2))


def _field(dims: list) -> list:
    return [(d, []) for d in dims]


def _sizes(want: list, trunc=None) -> Callable[[str], object]:
    """Oracle for a command that writes a semi-simplicial document."""
    def check(stdout):
        doc = _report(stdout)
        _expect(doc.get("type"), "sset", "document type")
        _expect(doc.get("truncated_at"), trunc, "truncated_at")
        return _expect([level["size"] for level in doc["levels"]], want, "level sizes")
    return check


def _verdict(trusted: int) -> Callable[[str], object]:
    """Oracle for one named check: it passes, trusted through ``trusted``."""
    def check(stdout):
        d = _report(stdout)
        _expect(d["verdict"], "pass", f"{d['check']} verdict")
        return [d["check"], d["verdict"], _expect(d["trusted_through"], trusted, "trusted_through")]
    return check


def _converges(stdout: str):
    d = _report(stdout)
    _expect(d["convergence"]["ok"], True, "convergence.ok")
    return [d["pages"], d["convergence"]["degrees"]]


# -- nerve-homology ---------------------------------------------------------------


def _nerve_homology(seed: int, work: str) -> list[Op]:
    from ssethom import fixtures as fx, formats

    d = _fresh_dir(work, "nerve-homology")
    groups = {"z4": (fx.cyclic_group_monoid(4), _z4_integral, [1] * 6),
              "v4": (fx.klein_four_monoid(), _v4_integral, [k + 1 for k in range(6)])}
    ops = []
    for name, (M, integral, f2_dims) in groups.items():
        mon = os.path.join(d, f"{name}.mon.json")
        _write(mon, relabel_monoid(formats.save_document(M), _rng("nerve-homology", seed, name)))
        doc = os.path.join(d, f"{name}.nerve.json")
        ops.append(Op(f"nerve {name}", ("nerve", mon, "--cutoff", "6"),
                      _sizes([4 ** k for k in range(7)], trunc=6), out=doc))
        for coeff, ring, want in (
                ("z", "z", [integral(k) for k in range(6)]),
                ("f2", "fp", _field(f2_dims)),
                ("q", "q", _field([1, 0, 0, 0, 0, 0]))):
            ops.append(Op(f"homology {name} {coeff}", ("homology", doc, "--coeff", coeff),
                          _homology(want), ring=ring))
    return ops


# -- check-suite ---------------------------------------------------------------------


def _check_suite(seed: int, work: str) -> list[Op]:
    from ssethom import fixtures as fx, formats
    from ssethom.cat import monoid_as_category, nerve

    d = _fresh_dir(work, "check-suite")

    def put(name: str, doc: dict) -> str:
        path = os.path.join(d, name)
        _write(path, _relabelled(doc, _rng("check-suite", seed, name)))
        return path

    with open(os.path.join("fixtures", "freerp2.simp.json"), encoding="utf-8") as fh:
        rp2 = json.load(fh)
    a, b = put("rp2a.simp.json", rp2), put("rp2b.simp.json", rp2)
    id2 = put("id2.fun.json", formats.save_document(fx.quillen_functor_corpus()["id2"]))
    z4 = relabel_monoid(formats.save_document(fx.cyclic_group_monoid(4)),
                        _rng("check-suite", seed, "z4"))
    bz4 = put("bz4.ss.json", formats.save_document(
        nerve(monoid_as_category(formats.load_document(z4)), 6).sset))
    z3 = put("z3.mon.json", formats.save_document(fx.cyclic_group_monoid(3)))
    v4 = put("v4.mon.json", formats.save_document(fx.klein_four_monoid()))
    # The expected trusted_through values follow each check's truncation rule
    # (a space listed through level N is trusted through degree N-1, products
    # and resolutions lose the degrees their constructions consume).
    return [
        Op("ez-diagonal", ("check", "ez-diagonal", a, b, "--cutoff", "6"), _verdict(4)),
        Op("resolution-triangle", ("check", "resolution-triangle", id2, "--cutoff", "6"), _verdict(4)),
        Op("skeletal-shadow", ("check", "skeletal-shadow", bz4, "--cutoff", "6", "--degree", "3"),
           _verdict(3)),
        Op("bar-acyclic", ("check", "bar-acyclic", z3, "--cutoff", "6"), _verdict(5)),
        Op("segal-nerve", ("check", "segal-nerve", v4, "--cutoff", "5"), _verdict(4)),
        Op("products", ("check", "products", a, b, "--cutoff", "5"), _verdict(4)),
        Op("quillen-a", ("check", "quillen-a", id2, "--cutoff", "4"), _verdict(2)),
    ]


# -- specseq-pages --------------------------------------------------------------------


def _specseq_pages(seed: int, work: str) -> list[Op]:
    from ssethom import fixtures as fx, formats
    from ssethom.cat import comma_resolution

    d = _fresh_dir(work, "specseq-pages")
    F = relabel_functor(formats.save_document(fx.quillen_functor_corpus()["id2"]),
                        _rng("specseq-pages", seed, "id2"))
    bis = os.path.join(d, "id2.bis.json")
    formats.write_document(bis, comma_resolution(formats.load_document(F), 3).bisset)
    return [Op(f"specseq {orient} {coeff}",
               ("specseq", bis, "--orientation", orient, "--coeff", coeff),
               _converges, ring="fp" if coeff == "f2" else "q")
            for orient in ("cols", "rows") for coeff in ("f2", "q")]


# -- cli-corpus -------------------------------------------------------------------------


def _valid(stdout: str):
    return _expect(_report(stdout)["ok"], True, "validate ok")


def _euler(want: int):
    return lambda stdout: _expect(_report(stdout)["value"], want, "euler characteristic")


def _category(objects: int, morphisms: int):
    """Oracle for a command that writes a category document."""
    def check(stdout):
        doc = _report(stdout)
        return [_expect(doc["objects"], objects, "objects"),
                _expect(len(doc["morphisms"]), morphisms, "morphisms")]
    return check


def _resolved(stdout: str):
    doc = _report(stdout)
    return _expect(doc["bisset"]["type"], "bisset", "resolution document type")


def _batch(n: int):
    def check(stdout):
        reports = _report(stdout)
        _expect(len(reports), n, "batch size")
        return [_expect(r["verdict"], "pass", f"{r['check']} verdict") for r in reports]
    return check


# Fixture documents the cli-corpus workload copies (relabelled where a
# relabelling exists) into its work directory.  checks.batch.json names its
# files relative to its own directory, so they travel together.
_CORPUS = ("rp2.ss.json", "sphere2.ss.json", "freerp2.simp.json", "pair.cat.json",
           "poset2.cat.json", "endpoint.fun.json", "id1.fun.json", "c2.mon.json",
           "c3.mon.json", "torus.bis.json")


def _cli_corpus(seed: int, work: str) -> list[Op]:
    d = _fresh_dir(work, "cli-corpus")
    for name in _CORPUS:
        with open(os.path.join("fixtures", name), encoding="utf-8") as fh:
            doc = json.load(fh)
        _write(os.path.join(d, name), _relabelled(doc, _rng("cli-corpus", seed, name)))
    shutil.copyfile(os.path.join("fixtures", "checks.batch.json"),
                    os.path.join(d, "checks.batch.json"))

    def f(name):
        return os.path.join(d, name)

    rp2 = f("rp2.ss.json")
    return [
        Op("validate", ("validate", rp2), _valid),
        # RP^2: H = Z, Z/2, 0 over Z; F2 in every degree; Q only in degree 0.
        Op("homology z", ("homology", rp2, "--coeff", "z"),
           _homology([(1, []), (0, [2]), (0, [])]), ring="z"),
        Op("homology f2", ("homology", rp2, "--coeff", "f2"), _homology(_field([1, 1, 1])), ring="fp"),
        Op("homology q", ("homology", rp2, "--coeff", "q"), _homology(_field([1, 0, 0])), ring="q"),
        Op("euler", ("euler", f("sphere2.ss.json")), _euler(2)),
        # The boundary of the 3-simplex has 4 vertices and 6 edges.
        Op("skeleton", ("skeleton", f("sphere2.ss.json"), "--degree", "1"), _sizes([4, 6])),
        # The nerve of a group of order n has n^k k-simplices.
        Op("nerve", ("nerve", f("c3.mon.json"), "--cutoff", "3"),
           _sizes([3 ** k for k in range(4)], trunc=3)),
        # Three arrows of the strict order 0 < 1 < 2 plus one unit per object.
        Op("unitalize", ("unitalize", f("pair.cat.json")), _category(3, 6)),
        # Over 1 in 0 <= 1 <= 2: the arrows 0->1 and 1->1, two units and one arrow between them.
        Op("over", ("over", f("poset2.cat.json"), "--object", "1"), _category(2, 3)),
        # B(*, Z/2, Z/2) has 2^p simplices of M^p times 2 points of X at level p.
        Op("bar", ("bar", f("c2.mon.json"), "--cutoff", "3"),
           _sizes([2 ** (p + 1) for p in range(4)], trunc=3)),
        Op("resolve", ("resolve", f("id1.fun.json"), "--cutoff", "2"), _resolved),
        Op("specseq", ("specseq", f("torus.bis.json"), "--coeff", "f2"), _converges, ring="fp"),
        # The group completion of Z/3 is Z/3, and H_1(B Z/3) = Z/3.
        Op("group-complete", ("group-complete", f("c3.mon.json"), "--cutoff", "3"), _verdict(2)),
        Op("check batch", ("check", "--batch", f("checks.batch.json")), _batch(9)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], list]  # (seed, work directory) -> operations
    subprocess: bool  # each operation is its own ssethom process


WORKLOADS = {w.name: w for w in (
    Workload("nerve-homology", _nerve_homology, False),
    Workload("check-suite", _check_suite, False),
    Workload("specseq-pages", _specseq_pages, False),
    Workload("cli-corpus", _cli_corpus, True),
)}
