"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload nerve-homology --seeds 1-10 --seconds 25

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
each metric the median over the runs and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  This is how the bounds in BENCHMARK.json were chosen: a metric's
bound should be at least three times its spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", type=int, default=25)
    args = p.parse_args()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        print(f"seed {seed}: " + "  ".join(f"{k}={m['value']:.6g}" for k, m in
                                          sorted(result["metrics"].items()))
              + f"  ({time.perf_counter() - t0:.0f} s)", flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]
    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        print(f"{args.workload} {k}: median {med:.6g} {units[k]}, "
              f"spread {(q3 - q1) / med:.4f} of the median, n={len(vs)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
