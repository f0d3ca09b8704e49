"""Malformed documents never crash the command line.

Seeded mutants of every fixture document run in process through
``cli.main``, each under a command that reads its kind.  A mutant drops,
duplicates or reverses a field or an entry, gives a value (a ``type`` field
too) the wrong JSON type, or nudges an integer by one or sets it to -1, 0 or
64; no declared size goes above 64.  Every run must exit 0, 1 or 2, and a
run that exits 2 must write nothing to stdout.  One sha256 per seed over
every run's exit status and stdout, with the mutant's path masked, pins
what the command line answers.  A per-run wall-clock guard turns runaway
work into a failure instead of a hang (``oracles.time_limit``); its
exception is not an ``Exception``, so ``cli.main`` cannot turn it into exit 3.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import time

import pytest

from oracles import RunTooLong, time_limit
from ssethom import cli

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SEEDS = (1, 2, 3, 4)
MUTANTS_PER_SEED = 300
RUN_LIMIT_S = 4.0
SIZE_CAP = 64
# sha256 over every run of a seed: its exit status, then its masked stdout
PINNED = {1: "e6823c8d178f7dcc08ad5fef02e4b4b63a20ccbcc830e67bd6d3376fd757feb8",
          2: "a0f0709fc32acbdca6b955b3ee1c51aa8ecbfa35aa9f4db5c930c5b7a47a1e21",
          3: "53f1954bf17c9a6071cdfc70e4f15bf12b22651bfed7092f0eb77a66caa6c8a0",
          4: "aebefd9e4d6c329dad781e082d11b2632b0e8e81eb0d394882b18ae605fe8679"}


def fixture(name):
    return os.path.join(FIXTURES, name)


_MONOID = [("validate", "{}"), ("nerve", "{}", "--cutoff", "2"), ("bar", "{}", "--cutoff", "2"),
           ("group-complete", "{}", "--cutoff", "2"),
           ("check", "bar-acyclic", "{}", "--cutoff", "2"),
           ("check", "group-completion", "{}", "--cutoff", "2"),
           ("check", "segal-nerve", "{}", "--cutoff", "2")]

# The commands that read each document kind, by file suffix; "{}" is the mutant.
COMMANDS = {
    ".ss.json": [("validate", "{}"), ("homology", "{}"), ("euler", "{}"),
                 ("skeleton", "{}", "--degree", "1"),
                 ("check", "adj-units", "{}", "--cutoff", "2"),
                 ("check", "skeletal-shadow", "{}", "--cutoff", "2", "--degree", "1")],
    ".simp.json": [("validate", "{}"), ("homology", "{}"), ("euler", "{}"),
                   ("check", "fat-thin", "{}", "--cutoff", "2"),
                   ("check", "ez-diagonal", "{}", fixture("freecircle.simp.json"), "--cutoff", "2"),
                   ("check", "products", fixture("freecircle.simp.json"), "{}", "--cutoff", "2")],
    ".cat.json": [("validate", "{}"), ("nerve", "{}", "--cutoff", "2"), ("unitalize", "{}"),
                  ("over", "{}", "--object", "0"), ("over", "{}", "--object", "0", "--under"),
                  ("check", "krannich", "{}", "--cutoff", "2"),
                  ("check", "terminal-contractible", "{}", "--cutoff", "2")],
    ".mon.json": _MONOID,
    ".pres.json": _MONOID,
    ".fun.json": [("validate", "{}"), ("resolve", "{}", "--cutoff", "2"),
                  ("resolve", "{}", "--cutoff", "2", "--dual"),
                  ("check", "quillen-a", "{}", "--cutoff", "2"),
                  ("check", "resolution-triangle", "{}", "--cutoff", "2")],
    ".bis.json": [("validate", "{}"), ("specseq", "{}", "--coeff", "q"),
                  ("specseq", "{}", "--coeff", "f2", "--orientation", "rows")],
    ".act.json": [("validate", "{}")],
    ".mat.json": [("validate", "{}")],
}


def runs() -> list[tuple[str, tuple]]:
    """(fixture name, command) for every fixture document and every command
    that reads its kind."""
    names = sorted(n for n in os.listdir(FIXTURES) if n != "checks.batch.json")
    out = []
    for name in names:
        suffix = next(s for s in COMMANDS if name.endswith(s))
        out += [(name, command) for command in COMMANDS[suffix]]
    return out


# -- mutations ---------------------------------------------------------------


def _positions(doc, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _positions(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_WRONG = (None, True, "x", 1.5, 7, [], [1], {}, {"a": 1})


def _drop(doc, path, rng):
    del _at(doc, path[:-1])[path[-1]]


def _duplicate(doc, path, rng):
    parent, key = _at(doc, path[:-1]), path[-1]
    if isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:  # a field takes a sibling's value
        parent[key] = copy.deepcopy(parent[rng.choice(sorted(parent))])


def _reverse(doc, path, rng):
    parent, key = _at(doc, path[:-1]), path[-1]
    value = parent[key]
    parent[key] = value[::-1] if isinstance(value, list) else dict(reversed(value.items()))


def _retype(doc, path, rng):
    value = _at(doc, path)
    wrong = [w for w in _WRONG if type(w) is not type(value)]
    if path:
        _at(doc, path[:-1])[path[-1]] = copy.deepcopy(rng.choice(wrong))
    else:
        doc.clear()
        doc["type"] = rng.choice(wrong)


def _nudge(doc, path, rng):
    value = _at(doc, path)
    choices = [v for v in (value - 1, value + 1, -1, 0, SIZE_CAP) if v <= SIZE_CAP and v != value]
    _at(doc, path[:-1])[path[-1]] = rng.choice(choices)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# (mutation, which positions it applies to)
MUTATIONS = (
    (_drop, lambda path, value: bool(path)),
    (_duplicate, lambda path, value: bool(path)),
    (_reverse, lambda path, value: bool(path) and isinstance(value, (list, dict)) and len(value) > 1),
    (_retype, lambda path, value: True),
    (_retype, lambda path, value: bool(path) and path[-1] == "type"),
    (_nudge, lambda path, value: bool(path) and _is_int(value) and value <= SIZE_CAP),
)


def mutate(doc, rng: random.Random):
    """A copy of ``doc`` with one mutation at a position it applies to."""
    doc = copy.deepcopy(doc)
    positions = list(_positions(doc))
    while True:
        mutation, applies = rng.choice(MUTATIONS)
        targets = [p for p in positions if applies(p, _at(doc, p))]
        if targets:
            mutation(doc, rng.choice(targets), rng)
            return doc


# -- the runs ----------------------------------------------------------------


def run_guarded(argv: list[str], limit: float = RUN_LIMIT_S) -> tuple[int, str]:
    """``cli.main(argv)`` under the wall-clock guard: (exit status, stdout)."""
    out = io.StringIO()
    with time_limit(limit), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_the_guard_stops_a_run_that_does_not_end(monkeypatch):
    def endless(args):
        time.sleep(60)

    monkeypatch.setattr(cli, "_cmd_validate", endless)
    with pytest.raises(RunTooLong):
        run_guarded(["validate", fixture("point.ss.json")], limit=0.05)


@pytest.mark.parametrize("seed", SEEDS)
def test_malformed_documents_exit_cleanly(seed, tmp_path):
    rng = random.Random(seed)
    pairs = runs()
    docs = {}
    for name in {name for name, _ in pairs}:
        with open(fixture(name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    path = str(tmp_path / "mutant.json")
    bad = []
    digest = hashlib.sha256()
    for i in range(MUTANTS_PER_SEED):
        name, command = pairs[(i + seed) % len(pairs)]
        mutant = mutate(docs[name], rng)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mutant, fh)
        argv = [path if a == "{}" else a for a in command]
        try:
            code, out = run_guarded(argv)
        except RunTooLong:
            code, out = "timeout", ""
        if code not in (0, 1, 2) or (code == 2 and out):
            bad.append(f"{name} {' '.join(command)}: exit {code}: {json.dumps(mutant)[:200]}")
        digest.update(f"{code}\n{out.replace(path, '<mutant>')}\0".encode())
    assert len(pairs) <= MUTANTS_PER_SEED  # every command meets a mutant of each document
    assert bad == []
    assert digest.hexdigest() == PINNED[seed]
