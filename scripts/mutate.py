"""Mutation probe: run tier-1 on seeded one-site mutants of one module.

Run from the repository root:

    python3 scripts/mutate.py src/ssethom/sset.py --sites 30 --seed 1 --timeout 120

A site is one operator of the module:

- a comparison, swapped < and <=, > and >=, == and !=;
- an arithmetic operator, swapped + and -, * and //;
- a boolean operator, swapped ``and`` and ``or`` (every junction of it).

``--sites`` of them are drawn with ``--seed``.  The tree is copied to a
temporary directory once, and each mutant is written there in turn, so
``src/`` is never edited in place.  Tier-1 runs on the unmutated copy first
and must pass.  Then, for each mutant, tier-1 runs with ``-x`` under the
``--timeout`` limit in seconds: the mutant is killed when a test fails or
the run is out of time, and survives when every test passes.  One line per
mutant goes to stdout, then the survivors; nothing is written to the tree.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

# operator type -> (its spelling, a pattern that finds it between operands, its swap)
SWAPS = {
    ast.Lt: ("<", r"<(?![<=])", ast.LtE), ast.LtE: ("<=", r"<=", ast.Lt),
    ast.Gt: (">", r"(?<![-=>])>(?![>=])", ast.GtE), ast.GtE: (">=", r">=", ast.Gt),
    ast.Eq: ("==", r"==", ast.NotEq), ast.NotEq: ("!=", r"!=", ast.Eq),
    ast.Add: ("+", r"\+(?!=)", ast.Sub), ast.Sub: ("-", r"-(?![=>])", ast.Add),
    ast.Mult: ("*", r"(?<!\*)\*(?![*=])", ast.FloorDiv), ast.FloorDiv: ("//", r"//(?!=)", ast.Mult),
    ast.And: ("and", r"\band\b", ast.Or), ast.Or: ("or", r"\bor\b", ast.And),
}


def sites(tree) -> list[tuple]:
    """(node, field, index, gaps) for every swappable operator: ``gaps``
    are the (left operand, right operand) pairs its spelling sits between."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            found += [(node, "ops", i, [(operands[i], operands[i + 1])])
                      for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((node, "op", None, [(node.left, node.right)]))
        elif isinstance(node, ast.BoolOp):
            found.append((node, "op", None, list(zip(node.values, node.values[1:]))))
    return sorted(found, key=lambda site: (site[3][0][0].end_lineno, site[3][0][0].end_col_offset))


def _offset(line_starts, lineno, col) -> int:
    return line_starts[lineno - 1] + col


def mutant(source: bytes, tree, site) -> tuple[bytes, str] | None:
    """The source with the site's operator swapped and a label for it, or
    None when the spelling cannot be found between the operands, or the
    edit does not parse to the swapped tree."""
    node, name, index, gaps = site
    op = getattr(node, name) if index is None else node.ops[index]
    spelling, pattern, swap = SWAPS[type(op)]
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    out, end = [], len(source)
    for left, right in reversed(gaps):
        lo = _offset(line_starts, left.end_lineno, left.end_col_offset)
        hi = _offset(line_starts, right.lineno, right.col_offset)
        if not lo <= hi <= end:
            return None
        gap = source[lo:hi].decode("utf-8")
        match = re.search(pattern, gap)
        if match is None or "#" in gap[:match.start()]:
            return None
        swapped = gap[:match.start()] + SWAPS[swap][0] + gap[match.end():]
        line = left.end_lineno + gap.count("\n", 0, match.start())
        out[:0] = [swapped.encode("utf-8"), source[hi:end]]
        end = lo
    text = source[:end] + b"".join(out)
    if index is None:
        setattr(node, name, swap())
    else:
        node.ops[index] = swap()
    expected = ast.dump(tree)
    if index is None:
        setattr(node, name, op)
    else:
        node.ops[index] = op
    try:
        if ast.dump(ast.parse(text)) != expected:
            return None
    except SyntaxError:
        return None
    return text, f"{line}: {spelling} -> {SWAPS[swap][0]}"


def run_tier1(tree_dir: str, timeout: float, stop_first: bool) -> tuple[str, float]:
    """'passed', 'failed' or 'timeout' for tier-1 in ``tree_dir``, with its wall time."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree_dir, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"] + (["-x"] if stop_first else [])
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=tree_dir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the run and any worker it started
        proc.wait()
        return "timeout", time.perf_counter() - start
    return ("passed" if code == 0 else "failed"), time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module path from the repository root, e.g. src/ssethom/sset.py")
    parser.add_argument("--sites", type=int, default=30, help="number of sites to mutate")
    parser.add_argument("--seed", type=int, default=1, help="seed of the site sample")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per tier-1 run")
    args = parser.parse_args(argv)
    path = os.path.join(ROOT, args.module)
    with open(path, "rb") as fh:
        source = fh.read()
    tree = ast.parse(source)
    candidates = [m for m in (mutant(source, tree, s) for s in sites(tree)) if m is not None]
    chosen = sorted(random.Random(args.seed).sample(range(len(candidates)),
                                                    min(args.sites, len(candidates))))
    print(f"{args.module}: {len(candidates)} sites, {len(chosen)} drawn with seed {args.seed}")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree_dir = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree_dir, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_work"))
        target = os.path.join(tree_dir, args.module)
        status, seconds = run_tier1(tree_dir, args.timeout, stop_first=False)
        print(f"unmutated: {status} in {seconds:.1f} s", flush=True)
        if status != "passed":
            return 1
        survivors = []
        for k in chosen:
            text, label = candidates[k]
            with open(target, "wb") as fh:
                fh.write(text)
            status, seconds = run_tier1(tree_dir, args.timeout, stop_first=True)
            verdict = "survived" if status == "passed" else f"killed ({status})"
            print(f"{verdict:18} {args.module}:{label}  {seconds:.1f} s", flush=True)
            if status == "passed":
                survivors.append(label)
    print(f"{len(chosen) - len(survivors)} killed, {len(survivors)} survived")
    for label in survivors:
        print(f"survivor {args.module}:{label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
