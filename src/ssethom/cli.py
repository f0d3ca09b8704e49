"""Command-line front end over the tagged JSON document formats.

Every run writes exactly one JSON report (or document) to stdout; the bytes
are stable across reruns with the same inputs, so timing and other
human-facing summaries go to stderr instead.  Exit status: 0 on success or a
passing check, 1 when a check or validation fails (any verdict but "pass"),
2 on usage errors or malformed input, 3 on an internal error (a bug: the
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from concurrent import futures
from dataclasses import replace

from . import formats, theorems
from .cat import (
    FinMonoid,
    FinNonUnitalCategory,
    FunctorData,
    MonoidPresentation,
    bar_construction,
    comma_resolution,
    comma_under_object,
    identity_functor,
    monoid_as_category,
    nerve,
    over_category,
    regular_action,
    trivial_action,
    unitalize,
)
from .fixtures import random_semi_simplicial, random_simplicial
from .homalg import bicomplex, homology, parse_ring, total_complex, unnormalized_chains, normalized_chains
from .specseq import check_convergence, spectral_sequence
from .sset import (
    BiSemiSimplicialSet,
    SemiSimplicialSet,
    SimplicialSet,
    euler_characteristic,
    skeleton,
)


class UsageError(Exception):
    """Bad arguments or bad input; maps to exit status 2."""


def _emit(doc) -> None:
    sys.stdout.write(formats.dumps_json(doc))


def _say(line: str = "") -> None:
    print(line, file=sys.stderr)


def _ring(coeff: str) -> str:
    try:
        return parse_ring(coeff)
    except ValueError as e:
        raise UsageError(str(e)) from None


# ---------------------------------------------------------------------------
# loading with validation

def _describe(obj) -> str:
    return formats.document_type(obj)[6](obj)


def _load_schema(path: str):
    try:
        return formats.read_document(path)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}") from None
    except formats.FormatError as e:
        raise UsageError(f"{path}: {e}") from None


def _load_checked(path: str, want: type | tuple, what: str):
    """Load a document, insist on its kind, and run the owning validator."""
    obj = _load_schema(path)
    _, _, name, _, _, checker, _ = formats.document_type(obj)
    if not isinstance(obj, want):
        raise UsageError(f"{path}: expected {what}, found a {name} document")
    if checker is not None:
        rep = checker(obj)
        if not rep.ok:
            raise UsageError(f"{path}: invalid {name}: {rep.problems[0]}")
    return obj


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    obj = _load_schema(args.file)
    tag, _, _, _, _, checker, describe = formats.document_type(obj)
    if checker is None:
        ok, problems = True, []
    else:
        rep = checker(obj)
        ok, problems = rep.ok, list(rep.problems)
    _emit({"command": "validate", "file": args.file,
           "type": tag, "ok": ok, "problems": problems})
    _say(f"{describe(obj)}: {'ok' if ok else 'INVALID'}")
    for p in problems:
        _say(f"  {p}")
    return 0 if ok else 1


def _cmd_homology(args) -> int:
    obj = _load_checked(args.file, (SemiSimplicialSet, SimplicialSet),
                        "a semi-simplicial or simplicial document")
    ring = _ring(args.coeff)
    req = args.max_degree
    notes = []
    if isinstance(obj, SemiSimplicialSet):
        complete = obj.is_complete
        make = lambda th: unnormalized_chains(obj, through=th)
    else:
        complete = obj.truncated_at is None
        make = lambda th: normalized_chains(obj, through=th)
    C = make(req + 1) if (req is not None and complete) else make(None)
    top = C.trusted_through if req is None else min(req, C.trusted_through)
    if req is not None and top < req:
        notes.append(f"degrees above {top} are not determined by the truncated input")
    groups = []
    for k in range(top + 1):
        d = {"degree": k, **homology(C, k, ring).to_dict()}
        if ring != "Z":
            r = d["rank"]
            d["pretty"] = "0" if r == 0 else ring if r == 1 else f"{ring}^{r}"
        groups.append(d)
    _emit({"command": "homology", "file": args.file, "coeff": ring,
           "complete": complete, "groups": groups, "notes": notes})
    for g in groups:
        _say(f"H_{g['degree']} = {g['pretty']}")
    for n in notes:
        _say(f"note: {n}")
    return 0


def _cmd_euler(args) -> int:
    obj = _load_checked(args.file, (SemiSimplicialSet, SimplicialSet),
                        "a semi-simplicial or simplicial document")
    try:
        value = euler_characteristic(obj)
    except ValueError as e:
        raise UsageError(f"{args.file}: {e}") from None
    _emit({"command": "euler", "file": args.file, "value": value})
    _say(f"euler characteristic: {value}")
    return 0


def _cmd_skeleton(args) -> int:
    X = _load_checked(args.file, (SemiSimplicialSet,), "a semi-simplicial document")
    try:
        S = skeleton(X, args.degree)
    except ValueError as e:
        raise UsageError(f"{args.file}: {e}") from None
    sys.stdout.write(formats.dumps_document(S))
    _say(f"{args.degree}-skeleton: {_describe(S)}")
    return 0


def _cmd_nerve(args) -> int:
    obj = _load_checked(args.file, (FinNonUnitalCategory, FinMonoid),
                        "a category or monoid document")
    if isinstance(obj, FinMonoid):
        obj = monoid_as_category(obj)
    X = nerve(obj, args.cutoff).sset
    sys.stdout.write(formats.dumps_document(X))
    _say(f"nerve through level {args.cutoff}: {_describe(X)}")
    return 0


def _cmd_unitalize(args) -> int:
    C = _load_checked(args.file, (FinNonUnitalCategory,), "a category document")
    sys.stdout.write(formats.dumps_document(unitalize(C)))
    _say(f"adjoined {C.n_objects} fresh units")
    return 0


def _cmd_over(args) -> int:
    C = _load_checked(args.file, (FinNonUnitalCategory,), "a category document")
    if not (0 <= args.object < C.n_objects):
        raise UsageError(f"object {args.object} out of range (category has "
                         f"{C.n_objects} objects)")
    D = (comma_under_object(identity_functor(C), args.object) if args.under
         else over_category(C, args.object))
    sys.stdout.write(formats.dumps_document(D))
    kind = "under" if args.under else "over"
    _say(f"{kind} category at object {args.object}: {_describe(D)}")
    return 0


def _cmd_bar(args) -> int:
    M = _load_checked(args.file, (FinMonoid,), "a monoid document")
    act = {"trivial": trivial_action, "regular": regular_action}
    Y = act[args.left](M, "right")
    X = act[args.right](M, "left")
    B = bar_construction(Y, M, X, args.cutoff)
    sys.stdout.write(formats.dumps_document(B))
    _say(f"bar construction B({args.left}, M, {args.right}) through level "
         f"{args.cutoff}: {_describe(B)}")
    return 0


def _cmd_resolve(args) -> int:
    F = _load_checked(args.file, (FunctorData,), "a functor document")
    res = comma_resolution(F, args.cutoff, dual=args.dual)
    doc = {
        "command": "resolve",
        "file": args.file,
        "cutoff": args.cutoff,
        "dual": args.dual,
        "bisset": formats.save_document(res.bisset),
        "eps": [[list(tab) for tab in row] for row in res.eps],
        "eta": [[list(tab) for tab in row] for row in res.eta],
    }
    _emit(doc)
    _say(f"comma resolution ({'dual' if args.dual else 'primal'}): "
         f"{_describe(res.bisset)}")
    return 0


def _cmd_specseq(args) -> int:
    B = _load_checked(args.file, (BiSemiSimplicialSet,), "a bi-semi-simplicial document")
    ring = _ring(args.coeff)
    if ring == "Z":
        raise UsageError("spectral sequences need field coefficients; "
                         "pass --coeff q or --coeff f<p>")
    D = bicomplex(B)
    pages = spectral_sequence(D, ring, orientation=args.orientation)
    conv = check_convergence(pages, total_complex(D), ring)
    doc = {
        "command": "specseq",
        "file": args.file,
        "coeff": ring,
        "orientation": args.orientation,
        "pages": [{"r": page.r,
                   "entries": sorted([p, q, d] for (p, q), d in page.dims.items() if d)}
                  for page in pages],
        "convergence": {"ok": conv.ok,
                        "degrees": [list(d) for d in conv.degrees],
                        "problems": list(conv.problems)},
    }
    _emit(doc)
    for page in pages:
        live = sum(1 for d in page.dims.values() if d)
        _say(f"page r={page.r}: {live} nonzero spots")
    _say(f"convergence: {'ok' if conv.ok else 'FAILED'}")
    for p in conv.problems:
        _say(f"  {p}")
    return 0 if conv.ok else 1


def _cmd_group_complete(args) -> int:
    M = _load_checked(args.file, (FinMonoid, MonoidPresentation),
                      "a monoid or monoid-presentation document")
    if isinstance(M, FinMonoid) and args.cutoff is None:
        raise UsageError("--cutoff is required for a table-form monoid "
                         "(it bounds the classifying-space comparison)")

    def run():
        try:
            return theorems.group_completion_report(M, args.cutoff or 0)
        except ValueError as e:
            raise UsageError(f"{args.file}: {e}") from None

    return _timed_report(run)


# ---------------------------------------------------------------------------
# the check suite


# One row per named check: (id, input kinds, what the inputs are, the extra
# parameter it reads or None, the check, how a seed makes the inputs or None).
# An input kind is a class, or a tuple of the classes that input may be.
# The check is called as check(*inputs, extra, cutoff), without extra when it
# reads none; with --seed s the inputs are make(s).
_CHECKS = (
    ("adj-units", (SemiSimplicialSet,), "a semi-simplicial document", None,
     theorems.check_adj_units, lambda s: (random_semi_simplicial(s),)),
    ("fat-thin", (SimplicialSet,), "a simplicial document", None,
     theorems.check_fat_thin, lambda s: (random_simplicial(s),)),
    ("ez-diagonal", (SimplicialSet, SimplicialSet), "two simplicial documents", None,
     theorems.check_ez_diagonal, lambda s: (random_simplicial(2 * s), random_simplicial(2 * s + 1))),
    ("products", (SimplicialSet, SimplicialSet), "two simplicial documents", None,
     theorems.check_products, None),
    ("krannich", (FinNonUnitalCategory,), "a category document", None,
     theorems.check_krannich, None),
    ("terminal-contractible", (FinNonUnitalCategory,), "a category document", None,
     theorems.check_terminal_contractible, None),
    ("quillen-a", (FunctorData,), "a functor document", None,
     theorems.check_quillen_a, None),
    ("resolution-triangle", (FunctorData,), "a functor document", None,
     theorems.check_resolution_triangle, None),
    ("bar-acyclic", (FinMonoid,), "a table-form monoid document", None,
     theorems.check_bar_acyclic, None),
    ("group-completion", ((FinMonoid, MonoidPresentation),),
     "a monoid or monoid-presentation document", None,
     theorems.group_completion_report, None),
    ("skeletal-shadow", (SemiSimplicialSet,), "a semi-simplicial document", "degree",
     theorems.check_skeletal_shadow, None),
    ("segal-nerve", (FinMonoid,), "a group multiplication table", None,
     theorems.check_segal_nerve, None),
    ("constant", (), "no file (pass --size instead)", "size",
     theorems.check_constant, None),
)


def _check_row(check_id) -> tuple:
    for row in _CHECKS:
        if row[0] == check_id:
            return row
    known = ", ".join(sorted(row[0] for row in _CHECKS))
    raise UsageError(f"unknown check {check_id!r} (known: {known})")


def _check_request(check_id, files: list, cutoff, seed, degree, size) -> None:
    """Reject a check request on everything that needs no file contents.

    A single check and every entry of a batch pass through here before any
    check runs, so a bad batch entry stops the batch before its first entry.
    """
    _, kinds, what, param, _, seeded = _check_row(check_id)
    extra = {"degree": degree, "size": size}
    for name, value in extra.items():
        if value is not None and name != param:
            raise UsageError(f"check {check_id} does not read --{name}")
    if cutoff is None:
        raise UsageError(f"check {check_id} needs --cutoff")
    if seed is not None:
        if seeded is None:
            allowed = ", ".join(sorted(row[0] for row in _CHECKS if row[5] is not None))
            raise UsageError(f"--seed only applies to the randomized checks ({allowed})")
        if files:
            raise UsageError("--seed generates the input; do not pass files with it")
        return
    if len(files) != len(kinds):
        raise UsageError(f"check {check_id} takes {what}, got {len(files)} file(s)")
    if param is not None and extra[param] is None:
        raise UsageError(f"check {check_id} needs --{param}")


def _run_check(check_id: str, files: list, cutoff, seed, degree, size):
    """Run a request that ``_check_request`` accepted."""
    _, kinds, what, param, check, seeded = _check_row(check_id)
    if seed is not None:
        rep = check(*seeded(seed), cutoff)
        return replace(rep, notes=rep.notes + (f"seed={seed}",))
    args = [_load_checked(f, k, what) for f, k in zip(files, kinds)]
    if param is not None:
        args.append({"degree": degree, "size": size}[param])
    try:
        return check(*args, cutoff)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _timed_report(run) -> int:
    """Time ``run()``, emit the report it returns, render it with the time
    taken, and return the exit status of its verdict."""
    t0 = time.perf_counter()
    rep = run()
    seconds = time.perf_counter() - t0
    _emit(rep.to_dict())
    _render_report(rep.to_dict(), seconds)
    return 0 if rep.verdict == "pass" else 1


def _render_report(d: dict, seconds: float | None = None) -> None:
    timing = f"  [{seconds:.3f}s]" if seconds is not None else ""
    _say(f"{d['check']}: {d['verdict']}  (cutoff {d['cutoff']}, "
         f"trusted through {d['trusted_through']}){timing}")
    for it in d["hypotheses"]:
        mark = "ok  " if it["ok"] else "FAIL"
        tail = f": {it['detail']}" if it["detail"] else ""
        _say(f"  {mark} {it['label']}{tail}")
    for c in d["comparisons"]:
        mark = "==" if c["equal"] else "!="
        _say(f"  H_{c['degree']}: {c['left']['pretty']} {mark} {c['right']['pretty']}")
    for n in d["notes"]:
        _say(f"  note: {n}")


_BATCH_PARAMS = ("cutoff", "seed", "degree", "size")
_BATCH_KEYS = {"check", "files", *_BATCH_PARAMS}


def _check_batch_items(path: str) -> list:
    try:
        items = formats.read_json(path)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}") from None
    except formats.FormatError as e:
        raise UsageError(f"{path} is {e.message}") from None
    if not isinstance(items, list):
        raise UsageError(f"{path}: a batch file holds an array of check entries")
    for i, item in enumerate(items):
        where = f"{path}[{i}]"
        if not isinstance(item, dict) or "check" not in item:
            raise UsageError(f"{where}: each entry is an object with a 'check' field")
        extra = set(item) - _BATCH_KEYS
        if extra:
            raise UsageError(f"{where}: unknown field {sorted(extra)[0]!r}")
        files = item.get("files", [])
        if not isinstance(files, list) or any(not isinstance(f, str) for f in files):
            raise UsageError(f"{where}: 'files' must be an array of paths")
        for key in _BATCH_PARAMS:
            v = item.get(key)
            if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
                raise UsageError(f"{where}: {key} must be an integer")
            if key != "seed" and v is not None and v < 0:
                raise UsageError(f"{where}: {key} must be non-negative")
        try:
            _check_request(item["check"], files, *(item.get(k) for k in _BATCH_PARAMS))
        except UsageError as e:
            raise UsageError(f"{where}: {e}") from None
    return items


def _pool_size(jobs: int, items: int) -> int:
    """Workers for a batch: never more than asked, than items, or than CPUs."""
    return max(1, min(jobs, items, os.cpu_count() or 1))


def _batch_worker(work: tuple) -> dict:
    item, base, where = work
    files = [f if os.path.isabs(f) else os.path.join(base, f) for f in item.get("files", [])]
    try:
        rep = _run_check(item["check"], files, *(item.get(k) for k in _BATCH_PARAMS))
    except UsageError as e:
        raise UsageError(f"{where}: {e}") from None
    return rep.to_dict()


def _cmd_check(args) -> int:
    if args.batch is not None:
        if args.check_id is not None or args.files:
            raise UsageError("--batch replaces the check id and files")
        given = [f"--{k}" for k in _BATCH_PARAMS if getattr(args, k) is not None]
        if given:
            raise UsageError(f"--batch takes its parameters from the file, not {given[0]}")
        items = _check_batch_items(args.batch)
        base = os.path.dirname(os.path.abspath(args.batch))
        work = [(item, base, f"{args.batch}[{i}]") for i, item in enumerate(items)]
        workers = _pool_size(args.jobs, len(work))
        if workers > 1:
            with futures.ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(_batch_worker, work))
        else:
            reports = [_batch_worker(w) for w in work]
        _emit(reports)
        for d in reports:
            _render_report(d)
        passed = sum(1 for d in reports if d["verdict"] == "pass")
        _say(f"{passed}/{len(reports)} checks passed")
        return 0 if passed == len(reports) else 1
    if args.check_id is None:
        raise UsageError("pass a check id or --batch FILE")
    if args.jobs != 1:
        raise UsageError("--jobs only applies to --batch runs")
    request = (args.check_id, args.files, args.cutoff, args.seed, args.degree, args.size)
    _check_request(*request)
    return _timed_report(lambda: _run_check(*request))


# ---------------------------------------------------------------------------
# parser


def _bounded_int(least: int):
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if v < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {v}")
        return v
    return parse


_nonneg_int = _bounded_int(0)
_positive_int = _bounded_int(1)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ssethom",
        description="Homology, nerves, bar constructions, and exact homological "
                    "checks over tagged JSON documents.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name, func, help_text, file_help=None):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        if file_help is not None:
            sp.add_argument("file", help=file_help)
        sp.set_defaults(func=func)
        return sp

    cmd("validate", _cmd_validate,
        "Check a document against its structural laws.", "document to validate")

    sp = cmd("homology", _cmd_homology,
             "Integral or field homology of a complex.", "sset or simplicial document")
    sp.add_argument("--coeff", default="z", help="z, q, or f<p> (default z)")
    sp.add_argument("--max-degree", type=_nonneg_int, default=None,
                    help="report degrees 0..N (default: everything determined)")

    cmd("euler", _cmd_euler, "Euler characteristic of a complete complex.",
        "sset or simplicial document")

    sp = cmd("skeleton", _cmd_skeleton,
             "Write the n-skeleton of a semi-simplicial set.", "sset document")
    sp.add_argument("--degree", type=_nonneg_int, required=True, help="keep levels 0..n")

    sp = cmd("nerve", _cmd_nerve,
             "Write the nerve of a category or monoid through a level cutoff.",
             "category or monoid document")
    sp.add_argument("--cutoff", type=_nonneg_int, required=True,
                    help="highest nerve level to compute")

    cmd("unitalize", _cmd_unitalize,
        "Freely adjoin one identity per object.", "category document")

    sp = cmd("over", _cmd_over,
             "Write the over (or under) category at an object.", "category document")
    sp.add_argument("--object", type=_nonneg_int, required=True, help="base object index")
    sp.add_argument("--under", action="store_true",
                    help="take the under category instead")

    sp = cmd("bar", _cmd_bar,
             "Write a two-sided bar construction B(Y, M, X).", "monoid document")
    sp.add_argument("--cutoff", type=_nonneg_int, required=True,
                    help="highest bar level to compute")
    sp.add_argument("--left", choices=("trivial", "regular"), default="trivial",
                    help="right action in the left slot (default trivial)")
    sp.add_argument("--right", choices=("trivial", "regular"), default="regular",
                    help="left action in the right slot (default regular)")

    sp = cmd("resolve", _cmd_resolve,
             "Write the bi-semi-simplicial comma resolution of a functor.",
             "functor document")
    sp.add_argument("--cutoff", type=_nonneg_int, required=True,
                    help="highest resolution level in each direction")
    sp.add_argument("--dual", action="store_true",
                    help="use the dual comma direction")

    sp = cmd("specseq", _cmd_specseq,
             "Spectral sequence pages of a bi-semi-simplicial set, with the "
             "convergence tally.", "bisset document")
    sp.add_argument("--coeff", required=True, help="q or f<p> (a field)")
    sp.add_argument("--orientation", choices=("cols", "rows"), default="cols")

    sp = cmd("group-complete", _cmd_group_complete,
             "Grothendieck group of a commutative (or group) monoid, with the "
             "classifying-space comparison for table input.", "monoid document")
    sp.add_argument("--cutoff", type=_nonneg_int, default=None,
                    help="homology comparison range (required for table input)")

    def reading(param):
        return ", ".join(row[0] for row in _CHECKS if row[3] == param)

    sp = sub.add_parser(
        "check",
        help="Run one named homological check, or a batch of them.",
        description="Run one named check and report pass/fail.  Known checks: "
                    + ", ".join(sorted(row[0] for row in _CHECKS)) + ".")
    sp.add_argument("check_id", nargs="?", default=None, metavar="check",
                    help="which check to run")
    sp.add_argument("files", nargs="*", help="input documents for the check")
    sp.add_argument("--cutoff", type=_nonneg_int, default=None,
                    help="homological range of the check (required)")
    sp.add_argument("--seed", type=int, default=None,
                    help="generate a random input instead of reading files ("
                         + ", ".join(row[0] for row in _CHECKS if row[5] is not None) + ")")
    sp.add_argument("--degree", type=_nonneg_int, default=None,
                    help=f"skeleton degree ({reading('degree')} only)")
    sp.add_argument("--size", type=_nonneg_int, default=None,
                    help=f"number of points ({reading('size')} only)")
    sp.add_argument("--batch", default=None, metavar="FILE",
                    help="run every check listed in a JSON batch file")
    sp.add_argument("--jobs", type=_positive_int, default=1,
                    help="parallel workers for a batch run")
    sp.set_defaults(func=_cmd_check)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return 3
    _say(f"[{time.perf_counter() - t0:.3f}s]")
    return code


if __name__ == "__main__":
    sys.exit(main())
