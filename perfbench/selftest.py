"""Self-test of the traced run: counts repeat exactly, answers do not depend on the seed.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all four) this makes three short traced runs of
``run.py``: two with seed 1 and one with seed 2.  It passes when

* every run is correct,
* the two seed-1 runs report identical values for every count,
* the seed-independent counts (``SEED_FREE``) are equal for seeds 1 and 2,
* the oracle answers (their sha256 on the ``answers`` line) are the same
  for seeds 1 and 2.

Counts that differ between the seeds are listed for information: they
depend on the relabelling (for instance the bytes of a document).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED_FREE = ("cat.simplices", "snf.smith_calls", "snf.transform_cells")


def _traced(workload: str, seed: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n" + proc.stdout)
    answers = next(line.split()[-1] for line in lines if line.strip().startswith("answers sha256"))
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    return counts, answers


def main(argv: list[str]) -> int:
    problems = []
    for w in argv or list(workloads.WORKLOADS):
        (a, ans_a), (b, _), (c, ans_c) = _traced(w, 1), _traced(w, 1), _traced(w, 2)
        problems += [f"{w}: {k} is {a[k]} then {b[k]} with the same seed" for k in a if a[k] != b[k]]
        problems += [f"{w}: {k} is {a[k]} for seed 1 but {c[k]} for seed 2"
                     for k in SEED_FREE if a[k] != c[k]]
        if ans_a != ans_c:
            problems.append(f"{w}: oracle answers differ between seeds 1 and 2")
        seeded = sorted(k for k in a if a[k] != c[k])
        print(f"{w}: {len(a)} counts repeat; seed-dependent counts: {', '.join(seeded) or 'none'}",
              flush=True)
    for p in problems:
        print("FAILED", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
