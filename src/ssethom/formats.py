"""Tagged JSON documents for the objects the command line reads and writes.

One document per file, UTF-8 JSON with a top-level "type" tag.  Loading
checks shapes, integer types, and index ranges, and names the offending
field on failure.  The structural laws (simplicial identities,
associativity, functoriality) are the validators' business, not the
loader's.  ``save_document`` followed by ``load_document`` is the identity
on every supported object.
"""

from __future__ import annotations

import json

from .cat import (FinMonoid, FinNonUnitalCategory, FunctorData, MonoidAction, MonoidPresentation,
                  NatTransData, validate_action, validate_category, validate_functor,
                  validate_monoid, validate_nat_trans, validate_presentation)
from .snf import SparseIntMatrix
from .sset import (BiSemiSimplicialSet, SemiSimplicialSet, SimplexRef, SimplicialSet,
                   validate_bisset, validate_simplicial, validate_sset)


class FormatError(ValueError):
    """A malformed document; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path or "$"
        self.message = message
        super().__init__(f"{self.path}: {message}")


def _obj(x, path: str) -> dict:
    if not isinstance(x, dict):
        raise FormatError(path, f"expected an object, got {type(x).__name__}")
    return x


def _list(x, path: str, length: int | None = None) -> list:
    if not isinstance(x, list):
        raise FormatError(path, f"expected an array, got {type(x).__name__}")
    if length is not None and len(x) != length:
        raise FormatError(path, f"expected {length} entries, got {len(x)}")
    return x


def _field(obj: dict, key: str, path: str):
    if key not in obj:
        raise FormatError(path, f"missing field {key!r}")
    return obj[key]


def _sub(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _int(x, path: str, low: int | None = None, high: int | None = None) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise FormatError(path, f"expected an integer, got {x!r}")
    if low is not None and x < low:
        raise FormatError(path, f"value {x} below minimum {low}")
    if high is not None and x >= high:
        raise FormatError(path, f"value {x} out of range (must be < {high})")
    return x


def _count(obj: dict, key: str, path: str) -> int:
    """A size the document declares: a non-negative integer field."""
    return _int(_field(obj, key, path), _sub(path, key), low=0)


def _level(obj: dict, key: str, path: str) -> int | None:
    """An optional truncation level; absent or null means untruncated."""
    return None if obj.get(key) is None else _count(obj, key, path)


def _int_list(x, path: str, length: int | None = None,
              low: int | None = None, high: int | None = None) -> tuple:
    """A list of ``_int`` entries.  The whole table is scanned for type and
    by ``min``/``max`` first; only a table that fails the scan is walked
    entry by entry, so that ``_int`` names its first bad entry."""
    xs = _list(x, path, length)
    if set(map(type, xs)) <= {int} and (
            not xs or (low is None or low <= min(xs)) and (high is None or max(xs) < high)):
        return tuple(xs)
    return tuple(_int(v, f"{path}[{i}]", low, high) for i, v in enumerate(xs))


def _tables(x, path: str, count: int | None = None, length: int | None = None,
            high: int | None = None) -> tuple:
    """An array of ``count`` tables of non-negative integers, each read by
    ``_int_list``."""
    return tuple(_int_list(tab, f"{path}[{i}]", length, low=0, high=high)
                 for i, tab in enumerate(_list(x, path, count)))


def _nested(data: dict, key: str, path: str, cls: type, message: str):
    """The document in field ``key``, which must load into a ``cls``."""
    obj = load_document(_field(data, key, path), _sub(path, key))
    if not isinstance(obj, cls):
        raise FormatError(_sub(path, key), message)
    return obj


# ---------------------------------------------------------------------------
# semi-simplicial sets


def _load_sset(data: dict, path: str) -> SemiSimplicialSet:
    levels = _list(_field(data, "levels", path), _sub(path, "levels"))
    sizes: list[int] = []
    faces: list[tuple] = []
    for p, entry in enumerate(levels):
        lp = f"{_sub(path, 'levels')}[{p}]"
        entry = _obj(entry, lp)
        sizes.append(_count(entry, "size", lp))
        if p == 0:
            if "faces" in entry and _list(entry["faces"], _sub(lp, "faces")):
                raise FormatError(_sub(lp, "faces"), "level 0 has no faces")
            faces.append(())
            continue
        faces.append(_tables(_field(entry, "faces", lp), _sub(lp, "faces"), p + 1,
                             length=sizes[p], high=sizes[p - 1]))
    return SemiSimplicialSet(tuple(sizes), tuple(faces),
                             truncated_at=_level(data, "truncated_at", path))


def _save_sset(X: SemiSimplicialSet) -> dict:
    levels = []
    for p, size in enumerate(X.sizes):
        entry: dict = {"size": size}
        if p > 0:
            entry["faces"] = [list(tab) for tab in X.faces[p]]
        levels.append(entry)
    doc: dict = {"levels": levels}
    if X.truncated_at is not None:
        doc["truncated_at"] = X.truncated_at
    return doc


# ---------------------------------------------------------------------------
# simplicial sets by generators


def _load_ref(data, path: str, gen_sizes: list[int]) -> SimplexRef:
    data = _obj(data, path)
    word = _int_list(_field(data, "word", path), _sub(path, "word"), low=0)
    for a, b in zip(word, word[1:]):
        if a <= b:
            raise FormatError(_sub(path, "word"),
                              f"degeneracy word {list(word)} must be strictly decreasing")
    deg = _int(_field(data, "deg", path), _sub(path, "deg"), low=0, high=len(gen_sizes))
    idx = _int(_field(data, "idx", path), _sub(path, "idx"), low=0, high=gen_sizes[deg])
    return SimplexRef(word, deg, idx)


def _load_simplicial(data: dict, path: str) -> SimplicialSet:
    gens = _list(_field(data, "generators", path), _sub(path, "generators"))
    sizes: list[int] = []
    for q, entry in enumerate(gens):
        gp = f"{_sub(path, 'generators')}[{q}]"
        sizes.append(_count(_obj(entry, gp), "size", gp))
    faces: list[tuple] = []
    for q, entry in enumerate(gens):
        gp = f"{_sub(path, 'generators')}[{q}]"
        if q == 0:
            faces.append(())
            continue
        fp = _sub(gp, "faces")
        tabs = _list(_field(entry, "faces", gp), fp, q + 1)
        faces.append(tuple(
            tuple(_load_ref(ref, f"{fp}[{i}][{g}]", sizes)
                  for g, ref in enumerate(_list(tab, f"{fp}[{i}]", sizes[q])))
            for i, tab in enumerate(tabs)))
    return SimplicialSet(tuple(sizes), tuple(faces),
                         truncated_at=_level(data, "truncated_at", path))


def _save_simplicial(Y: SimplicialSet) -> dict:
    gens = []
    for q, size in enumerate(Y.gen_sizes):
        entry: dict = {"size": size}
        if q > 0:
            entry["faces"] = [
                [{"word": list(r.word), "deg": r.deg, "idx": r.gen} for r in tab]
                for tab in Y.gen_faces[q]]
        gens.append(entry)
    doc: dict = {"generators": gens}
    if Y.truncated_at is not None:
        doc["truncated_at"] = Y.truncated_at
    return doc


# ---------------------------------------------------------------------------
# bi-semi-simplicial sets


def _load_bisset(data: dict, path: str) -> BiSemiSimplicialSet:
    sp = _sub(path, "sizes")
    rows = _list(_field(data, "sizes", path), sp)
    if not rows:
        raise FormatError(sp, "needs at least one row")
    if not _list(rows[0], f"{sp}[0]"):
        raise FormatError(f"{sp}[0]", "rows must be nonempty")
    sizes = _tables(rows, sp, length=len(rows[0]))
    P, Q = len(sizes), len(sizes[0])

    def tables(key: str, count, prev_size):
        kp = _sub(path, key)
        return tuple(
            tuple(_tables(cell, f"{kp}[{p}][{q}]", count(p, q), length=sizes[p][q],
                          high=prev_size(p, q))
                  for q, cell in enumerate(_list(row, f"{kp}[{p}]", Q)))
            for p, row in enumerate(_list(_field(data, key, path), kp, P)))

    dh = tables("dh", lambda p, q: 0 if p == 0 else p + 1,
                lambda p, q: sizes[p - 1][q] if p > 0 else 1)
    dv = tables("dv", lambda p, q: 0 if q == 0 else q + 1,
                lambda p, q: sizes[p][q - 1] if q > 0 else 1)
    return BiSemiSimplicialSet(sizes, dh, dv, trunc_p=_level(data, "trunc_p", path),
                               trunc_q=_level(data, "trunc_q", path))


def _save_bisset(B: BiSemiSimplicialSet) -> dict:
    def grid(d):
        return [[[list(tab) for tab in cell] for cell in row] for row in d]

    doc: dict = {"sizes": [list(r) for r in B.sizes], "dh": grid(B.dh), "dv": grid(B.dv)}
    if B.trunc_p is not None:
        doc["trunc_p"] = B.trunc_p
    if B.trunc_q is not None:
        doc["trunc_q"] = B.trunc_q
    return doc


# ---------------------------------------------------------------------------
# categories, functors, natural transformations


def _load_category(data: dict, path: str) -> FinNonUnitalCategory:
    n_obj = _count(data, "objects", path)
    mors = _list(_field(data, "morphisms", path), _sub(path, "morphisms"))
    src, tgt = [], []
    for i, m in enumerate(mors):
        mp = f"{_sub(path, 'morphisms')}[{i}]"
        m = _obj(m, mp)
        src.append(_int(_field(m, "src", mp), _sub(mp, "src"), low=0, high=n_obj))
        tgt.append(_int(_field(m, "tgt", mp), _sub(mp, "tgt"), low=0, high=n_obj))
    n_mor = len(mors)
    comp: dict = {}
    for i, c in enumerate(_list(_field(data, "compose", path), _sub(path, "compose"))):
        cp = f"{_sub(path, 'compose')}[{i}]"
        c = _obj(c, cp)
        f = _int(_field(c, "f", cp), _sub(cp, "f"), low=0, high=n_mor)
        g = _int(_field(c, "g", cp), _sub(cp, "g"), low=0, high=n_mor)
        gf = _int(_field(c, "gf", cp), _sub(cp, "gf"), low=0, high=n_mor)
        if (f, g) in comp:
            raise FormatError(cp, f"duplicate composition entry for f={f}, g={g}")
        comp[(f, g)] = gf
    units = data.get("units")
    if units is not None:
        units = _int_list(units, _sub(path, "units"), length=n_obj, low=0, high=n_mor)
    return FinNonUnitalCategory(n_obj, tuple(src), tuple(tgt), comp, units=units)


def _save_category(C: FinNonUnitalCategory) -> dict:
    return {
        "objects": C.n_objects,
        "morphisms": [{"src": C.src[m], "tgt": C.tgt[m]} for m in range(C.n_morphisms)],
        "compose": [{"f": f, "g": g, "gf": gf}
                    for (f, g), gf in sorted(C.comp.items())],
        "units": list(C.units) if C.units is not None else None,
    }


def _load_functor(data: dict, path: str) -> FunctorData:
    source = _nested(data, "source", path, FinNonUnitalCategory,
                     "functor source must be a category document")
    target = _nested(data, "target", path, FinNonUnitalCategory,
                     "functor target must be a category document")
    obj_map = _int_list(_field(data, "obj_map", path), _sub(path, "obj_map"),
                        length=source.n_objects, low=0, high=target.n_objects)
    mor_map = _int_list(_field(data, "mor_map", path), _sub(path, "mor_map"),
                        length=source.n_morphisms, low=0, high=target.n_morphisms)
    return FunctorData(source, target, obj_map, mor_map)


def _save_functor(F: FunctorData) -> dict:
    return {
        "source": save_document(F.source),
        "target": save_document(F.target),
        "obj_map": list(F.obj_map),
        "mor_map": list(F.mor_map),
    }


def _load_nat_trans(data: dict, path: str) -> NatTransData:
    F = _nested(data, "F", path, FunctorData, "expected a functor document")
    G = _nested(data, "G", path, FunctorData, "expected a functor document")
    components = _int_list(_field(data, "components", path), _sub(path, "components"),
                           length=F.source.n_objects, low=0,
                           high=F.target.n_morphisms)
    return NatTransData(F, G, components)


def _save_nat_trans(eta: NatTransData) -> dict:
    return {
        "F": save_document(eta.F),
        "G": save_document(eta.G),
        "components": list(eta.components),
    }


# ---------------------------------------------------------------------------
# monoids and actions


def _load_monoid(data: dict, path: str) -> FinMonoid:
    rows = _list(_field(data, "table", path), _sub(path, "table"))
    n = len(rows)
    table = _tables(rows, _sub(path, "table"), length=n, high=n)
    if n == 0:
        raise FormatError(_sub(path, "table"), "a monoid needs at least the unit")
    unit = _int(_field(data, "unit", path), _sub(path, "unit"), low=0, high=n)
    return FinMonoid(table=table, unit=unit)


def _save_monoid(M: FinMonoid) -> dict:
    return {"table": [list(r) for r in M.table], "unit": M.unit}


def _load_presentation(data: dict, path: str) -> MonoidPresentation:
    k = _count(data, "generators", path)
    rels = []
    for i, rel in enumerate(_list(_field(data, "relations", path), _sub(path, "relations"))):
        rp = f"{_sub(path, 'relations')}[{i}]"
        rel = _list(rel, rp)
        if len(rel) != 2:
            raise FormatError(rp, "a relation is a pair of exponent vectors")
        lhs = _int_list(rel[0], f"{rp}[0]", length=k, low=0)
        rhs = _int_list(rel[1], f"{rp}[1]", length=k, low=0)
        rels.append((lhs, rhs))
    return MonoidPresentation(k, tuple(rels))


def _save_presentation(P: MonoidPresentation) -> dict:
    return {
        "generators": P.gens,
        "relations": [[list(lhs), list(rhs)] for lhs, rhs in P.relations],
    }


def _load_action(data: dict, path: str) -> MonoidAction:
    M = _nested(data, "monoid", path, FinMonoid, "expected a table-form monoid document")
    size = _count(data, "size", path)
    side = _field(data, "side", path)
    if side not in ("left", "right"):
        raise FormatError(_sub(path, "side"), f"side must be 'left' or 'right', got {side!r}")
    rows, cols = (M.size, size) if side == "left" else (size, M.size)
    table = _tables(_field(data, "table", path), _sub(path, "table"), rows,
                    length=cols, high=size)
    return MonoidAction(M, size, table, side)


def _save_action(A: MonoidAction) -> dict:
    return {
        "monoid": save_document(A.monoid),
        "size": A.size,
        "side": A.side,
        "table": [list(r) for r in A.table],
    }


# ---------------------------------------------------------------------------
# integer matrices


def _load_matrix(data: dict, path: str) -> SparseIntMatrix:
    rows = _count(data, "rows", path)
    cols = _count(data, "cols", path)
    entries = []
    for k, e in enumerate(_list(_field(data, "entries", path), _sub(path, "entries"))):
        ep = f"{_sub(path, 'entries')}[{k}]"
        e = _list(e, ep)
        if len(e) != 3:
            raise FormatError(ep, "an entry is [row, col, value]")
        i = _int(e[0], f"{ep}[0]", low=0, high=rows)
        j = _int(e[1], f"{ep}[1]", low=0, high=cols)
        v = _int(e[2], f"{ep}[2]")
        entries.append((i, j, v))
    return SparseIntMatrix.from_entries(rows, cols, entries)


def _save_matrix(A: SparseIntMatrix) -> dict:
    entries = sorted([i, j, v] for i, row in A.data.items() for j, v in row.items())
    return {"rows": A.rows, "cols": A.cols, "entries": entries}


# ---------------------------------------------------------------------------
# the document table


def _truncation(X) -> str:
    return f", truncated at {X.truncated_at}" if X.truncated_at is not None else ""


# One row per document type: (tag, class, name, loader, saver, validator or
# None, description).  A saver writes every field but the tag.  The rows stay
# plain tuples and are read from this global at call time, so that a tracer
# that rebinds functions inside module-level tuples reaches the validators.
_DOCUMENTS = (
    ("sset", SemiSimplicialSet, "semi-simplicial set", _load_sset, _save_sset, validate_sset,
     lambda X: f"semi-simplicial set with level sizes {tuple(X.sizes)}{_truncation(X)}"),
    ("simplicial", SimplicialSet, "simplicial set", _load_simplicial, _save_simplicial,
     validate_simplicial,
     lambda Y: f"simplicial set with generator counts {tuple(Y.gen_sizes)}{_truncation(Y)}"),
    ("bisset", BiSemiSimplicialSet, "bi-semi-simplicial set", _load_bisset, _save_bisset,
     validate_bisset,
     lambda B: (f"bi-semi-simplicial set on a {len(B.sizes)}x{len(B.sizes[0])} grid, "
                f"{sum(map(sum, B.sizes))} simplices")),
    ("category", FinNonUnitalCategory, "category", _load_category, _save_category,
     validate_category,
     lambda C: (f"category with {C.n_objects} objects, {C.n_morphisms} morphisms, "
                + ("unital" if C.units is not None else "no units"))),
    ("functor", FunctorData, "functor", _load_functor, _save_functor, validate_functor,
     lambda F: (f"functor from {F.source.n_objects} objects / {F.source.n_morphisms} "
                f"morphisms to {F.target.n_objects} / {F.target.n_morphisms}")),
    ("nat-trans", NatTransData, "natural transformation", _load_nat_trans, _save_nat_trans,
     validate_nat_trans,
     lambda eta: f"natural transformation with {len(eta.components)} components"),
    ("monoid", FinMonoid, "monoid", _load_monoid, _save_monoid, validate_monoid,
     lambda M: f"monoid with {M.size} elements"),
    ("monoid-presentation", MonoidPresentation, "monoid presentation", _load_presentation,
     _save_presentation, validate_presentation,
     lambda P: (f"commutative monoid presentation on {P.gens} generators, "
                f"{len(P.relations)} relations")),
    ("action", MonoidAction, "monoid action", _load_action, _save_action, validate_action,
     lambda A: f"{A.side} action of a {A.monoid.size}-element monoid on {A.size} elements"),
    ("matrix", SparseIntMatrix, "matrix", _load_matrix, _save_matrix, None,
     lambda A: f"{A.rows}x{A.cols} integer matrix"),
)


def document_type(obj) -> tuple:
    """The ``_DOCUMENTS`` row of an object whose type is the row's class."""
    for row in _DOCUMENTS:
        if type(obj) is row[1]:
            return row
    raise TypeError(f"no document form for {type(obj).__name__}")


def load_document(data, path: str = ""):
    """Parse one tagged document (already JSON-decoded) into its object."""
    data = _obj(data, path)
    tag = _field(data, "type", path)
    for row in _DOCUMENTS:
        if row[0] == tag:
            return row[3](data, path)
    known = ", ".join(sorted(row[0] for row in _DOCUMENTS))
    raise FormatError(_sub(path, "type"), f"unknown document type {tag!r} (known: {known})")


def save_document(obj) -> dict:
    """The inverse of load_document, up to field ordering."""
    tag, _, _, _, save, _, _ = document_type(obj)
    return {"type": tag, **save(obj)}


def read_json(filename: str):
    """Decode one UTF-8 JSON file.  I/O problems propagate as OSError; any
    decoding fault (bad bytes, over-long integers, deep nesting) raises FormatError."""
    try:
        with open(filename, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as e:
        raise FormatError("", f"not valid JSON: {e}") from e
    except RecursionError:
        raise FormatError("", "nested too deeply") from None


def read_document(filename: str):
    """``read_json`` and ``load_document``; nesting too deep to load is a FormatError."""
    try:
        return load_document(read_json(filename))
    except RecursionError:
        raise FormatError("", "nested too deeply") from None


def write_document(filename: str, obj) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(obj))


def dumps_json(doc) -> str:
    """The one JSON byte format of documents and reports: keys sorted, a
    two-space indent and a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dumps_document(obj) -> str:
    return dumps_json(save_document(obj))
