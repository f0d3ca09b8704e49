"""Benchmark of the ssethom command line: exact answers, wall time, memory, layers.

Run from the repository root:

    python3 perfbench/run.py --workload check-suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run sets up the workload's seeded inputs, then repeats the workload's
fixed operation list (a "pass") for as many passes as fit in ``--seconds``,
at least two.  Every operation's stdout is checked by an oracle and hashed.
The human-readable report goes to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``pass_s`` (median pass),
``setup_s`` (median of SETUP_SAMPLES set-ups in fresh processes, taken
between operations and spread over the run) and ``peak_rss_mib`` (the
process that ran the passes; for cli-corpus the largest ssethom child).
Times are rescaled to a fixed host speed, measured by ``_chunk`` between
operations; the wall times are printed next to them.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics from
the spans of ``layertrace.py``, rescaled by the same factors, the import
cost of each module and the tracing overhead.

The program is taken from ``src/`` and ``fixtures/`` next to this directory;
without them the run stops with status 2 before printing a result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 15
REF_CHUNK_S = 0.025  # what _chunk() takes on the host the bounds were measured on
REF_START_S = 0.12  # what _start() takes on that host
IMPORT_SAMPLES = 5
CLI_MAIN = "import sys; from ssethom.cli import main; sys.exit(main())"
START_IMPORTS = ("import argparse, dataclasses, fractions, hashlib, itertools, json, random, shutil,"
                 " statistics")
RINGS = ("z", "fp", "q")


class Unavailable(Exception):
    """The program under test is not in this checkout."""


_CHUNK_RNG = random.Random(0)
_CHUNK_ROWS = [{_CHUNK_RNG.randrange(300): _CHUNK_RNG.randrange(1, 9) for _ in range(12)}
               for _ in range(40)]


def _chunk() -> float:
    """Time a fixed pure-Python loop of sparse row updates.

    The shared host's speed drifts by tens of percent within seconds and
    between minutes.  Each operation's time is rescaled by ``REF_CHUNK_S``
    over the time this loop took just before and just after it, so that the
    reported seconds are seconds at a fixed host speed.  The loop does not
    touch ssethom.
    """
    rows = [dict(r) for r in _CHUNK_ROWS]
    gc.disable()
    t0 = time.perf_counter()
    for a, b in zip(rows, rows[1:]):
        for _ in range(20):
            for k, v in a.items():
                b[k] = (b.get(k, 0) + 3 * v) % 1000003
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def _host_speed(after_s: float) -> float:
    """Mean ``_chunk`` time, sampled longer after longer operations."""
    return statistics.mean(_chunk() for _ in range(1 + int(after_s)))


def _start() -> float:
    """Wall time of a fresh interpreter that imports a fixed set of standard modules.

    Set-ups and imports start a process and take about 0.2 s, and one
    ``_chunk`` varies more than they do.  Each of them is therefore rescaled
    by ``REF_START_S`` over the time of this process, started right after
    it: a reference of the same kind of work, which does not touch ssethom.
    """
    t0 = time.perf_counter()
    code, _, _ = _run_child([sys.executable, "-c", START_IMPORTS])
    if code != 0:
        raise RuntimeError(f"reference process exited with status {code}")
    return time.perf_counter() - t0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_program() -> None:
    if not (os.path.isfile(os.path.join(SRC, "ssethom", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "fixtures"))):
        raise Unavailable(f"no ssethom sources: expected src/ssethom and fixtures/ under {ROOT}")
    sys.path.insert(0, SRC)
    import ssethom
    if os.path.dirname(os.path.dirname(os.path.abspath(ssethom.__file__))) != SRC:
        raise Unavailable(f"imported ssethom from {ssethom.__file__}, not from {SRC}")


# -- running operations -----------------------------------------------------------


def _run_child(argv: list) -> tuple[int, bytes, int]:
    """Run a child process to its end: exit status, stdout and peak RSS in KiB."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=_child_env()) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class Runner:
    """Runs passes of one workload and keeps every measurement."""

    def __init__(self, workload, ops: list, setup_argv: list | None = None, seconds: int = 1):
        self.workload = workload
        self.ops = ops
        self.attempted = 0
        self.failed = 0  # operations that raised, exited non-zero or failed their oracle
        self.failures: list[str] = []
        self.answers = None  # oracle answers of the first pass
        self.digests: set[str] = set()
        self.tracer = layertrace.Tracer()
        self.child_spans: list = []
        self.peak_child_kib = 0  # largest ssethom child, for workloads that start one per operation
        # Set-ups in fresh processes, spread over the measured time (None: none are taken).
        self.setup_argv = setup_argv
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.setup_scaled: list[float] = []
        self.setup_wall: list[float] = []
        self.setup_time = 0.0  # wall time spent taking set-ups, which passes do not count

    def pass_elapsed(self) -> float:
        return time.perf_counter() - self.t0 - self.setup_time

    def _in_process(self, op):
        from ssethom import cli
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as e:
                code = e.code
        return time.perf_counter() - t0, code, out.getvalue().encode("utf-8")

    def _subprocess(self, op, traced: bool):
        span_file = os.path.join(workloads.WORK, "child-spans.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "child.py"), span_file, *op.argv]
        else:
            argv = [sys.executable, "-c", CLI_MAIN, *op.argv]
        t0 = time.perf_counter()
        code, stdout, peak_kib = _run_child(argv)
        dt = time.perf_counter() - t0
        if traced:
            with open(span_file, encoding="utf-8") as fh:
                got = json.load(fh)
            os.remove(span_file)
            self.child_spans.append((self.tracer.op, got))
        else:
            self.peak_child_kib = max(self.peak_child_kib, peak_kib)
        return dt, code, stdout

    def sample_setup(self) -> float:
        """Time one set-up in a fresh process; returns the host speed measured after it."""
        t0 = time.perf_counter()
        code, out, _ = _run_child(self.setup_argv)
        if code != 0:
            raise RuntimeError(f"set-up process exited with status {code}")
        dt = json.loads(out.decode("utf-8").splitlines()[-1])["setup_s"]
        self.setup_wall.append(dt)
        self.setup_scaled.append(dt * REF_START_S / _start())
        after = _host_speed(0.0)
        self.setup_time += time.perf_counter() - t0
        return after

    def _setup_due(self) -> bool:
        """Keep set-ups on an even schedule of SETUP_SAMPLES over ``seconds`` of passes."""
        if self.setup_argv is None or len(self.setup_wall) >= SETUP_SAMPLES:
            return False
        return len(self.setup_wall) < SETUP_SAMPLES * self.pass_elapsed() / self.seconds

    def finish_setups(self) -> None:
        """Take the set-ups the schedule has not reached yet."""
        while len(self.setup_wall) < SETUP_SAMPLES:
            self.sample_setup()

    def run_pass(self, traced: bool) -> dict:
        """One pass over the operation list; returns its timings."""
        if self.workload.subprocess:
            run = functools.partial(self._subprocess, traced=traced)
        else:
            run = self._in_process
        if traced:
            self.tracer.reset()
            self.child_spans = []
            if not self.workload.subprocess:
                self.tracer.install()
        gc.collect()
        digest = hashlib.sha256()
        answers, op_s, ring_s, total, wall = [], [], dict.fromkeys(RINGS, 0.0), 0.0, 0.0
        factors = []  # host-speed factor of each operation: REF_CHUNK_S over its _chunk time
        before = _host_speed(0.0)
        try:
            for i, op in enumerate(self.ops):
                self.tracer.op = i
                self.attempted += 1
                dt, stdout, answer = 0.0, None, None
                try:
                    dt, code, stdout = run(op)
                    if code != 0:
                        raise workloads.OracleError(f"exit status {code}")
                    answer = op.oracle(stdout.decode("utf-8"))
                except Exception as e:  # noqa: BLE001 - every failure is counted, not fatal
                    self.failed += 1
                    self.failures.append(f"{op.name}: {type(e).__name__}: {e}")
                    stdout = None
                finally:
                    self.tracer.op = None
                after = _host_speed(dt)
                factors.append(REF_CHUNK_S * 2 / (before + after))
                before = after
                answers.append(answer)
                if stdout is not None:
                    scaled = dt * factors[-1]
                    wall += dt
                    total += scaled
                    op_s.append((op.name, scaled))
                    if op.ring:
                        ring_s[op.ring] += scaled
                    digest.update(stdout)
                    if op.out:
                        with open(op.out, "wb") as fh:
                            fh.write(stdout)
                if not traced and self._setup_due():
                    before = self.sample_setup()
        finally:
            if traced and not self.workload.subprocess:
                self.tracer.uninstall()
        self.digests.add(digest.hexdigest())
        if self.answers is None:
            self.answers = answers
        elif answers != self.answers:
            self.failures.append("oracle answers differ between passes")
        return {"pass_s": total, "wall_s": wall, "op_s": op_s, "factors": factors,
                **{f"ring.{r}_s": s for r, s in ring_s.items()}}

    def traced_layers(self, factors: list[float]) -> tuple[dict, dict]:
        """Layer times and counts of the traced pass just run, whose op factors are given."""
        if not self.workload.subprocess:
            return layertrace.layer_metrics(self.tracer.spans, factors), dict(self.tracer.counts)
        times: dict = {}
        counts = dict.fromkeys(layertrace.COUNTS, 0)
        for op, child in self.child_spans:
            spans = [[*s[:4], op] for s in child["spans"]]
            for k, v in layertrace.layer_metrics(spans, factors).items():
                times[k] = times.get(k, 0.0) + v
            layertrace.add_counts(counts, child["counts"])
        return times, counts

    def all_spans(self) -> list:
        if not self.workload.subprocess:
            return self.tracer.spans
        return [[*s[:4], op] for op, child in self.child_spans for s in child["spans"]]


# -- import samples ---------------------------------------------------------------------


def _import_costs() -> dict[str, list[float]]:
    """Self import time of each layer module, from ``python -X importtime``, rescaled."""
    costs: dict[str, list[float]] = {layer: [] for layer in layertrace.LAYERS}
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ssethom.cli"],
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             env=_child_env(), check=True, text=True)
        factor = REF_START_S / _start()
        for line in out.stderr.splitlines():
            # import time: self [us] | cumulative | imported package
            parts = [p.strip() for p in line.split(":", 1)[-1].split("|")]
            if len(parts) == 3 and parts[2].startswith("ssethom."):
                layer = parts[2].split(".", 1)[1]
                if layer in costs:
                    costs[layer].append(int(parts[0]) / 1e6 * factor)
    return costs


# -- reporting ----------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _say(name: str, values: list[float], unit: str) -> None:
    q1, med, q3 = _quartiles(values)
    print(f"  {name:<22} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def run_workload(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    # Set-up processes write elsewhere, so that they leave the documents of the passes alone.
    ops = workload.setup(args.seed, os.path.join(workloads.WORK, "setup") if args.setup_only
                         else workloads.WORK)
    setup_first = time.perf_counter() - T_START
    if args.setup_only:
        return {"setup_s": setup_first}
    setup_argv = None
    if not args.trace:
        setup_argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
                      "--setup-only"]
    runner = Runner(workload, ops, setup_argv, args.seconds)
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    counts: list[dict] = []
    # Start another round only if it is expected to end within --seconds of passes.
    min_rounds = 1 if args.trace else MIN_PASSES
    rounds: list[float] = []
    while len(rounds) < min_rounds or (
            runner.pass_elapsed() + statistics.median(rounds) <= args.seconds):
        r0 = runner.pass_elapsed()
        plain.append(runner.run_pass(traced=False))
        if args.trace:
            traced.append(runner.run_pass(traced=True))
            t, c = runner.traced_layers(traced[-1]["factors"])
            layers.append(t)
            counts.append(c)
        rounds.append(runner.pass_elapsed() - r0)
    if setup_argv:
        runner.finish_setups()
    if workload.subprocess:
        peak_kib = runner.peak_child_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(ops)} operations per pass, {len(plain)} untraced and {len(traced)} traced passes")
    if len(runner.digests) != 1:
        runner.failures.append(f"stdout differs between passes: {len(runner.digests)} digests")
    for d in sorted(runner.digests):
        print(f"  stdout sha256 {d}")
    answers = json.dumps(runner.answers, sort_keys=True).encode("utf-8")
    print(f"  answers sha256 {hashlib.sha256(answers).hexdigest()}")
    metrics: dict[str, tuple[float, str]] = {}

    def med(name: str, values: list[float], unit: str) -> None:
        _say(name, values, unit)
        metrics[name] = (statistics.median(values), unit)

    pass_s = [p["pass_s"] for p in plain]
    rings = {r: [p[f"ring.{r}_s"] for p in plain] for r in RINGS}
    if not args.trace:
        med("pass_s", pass_s, "s")
        _say("pass_s (wall)", [p["wall_s"] for p in plain], "s")
        for r in RINGS:
            if any(rings[r]):
                _say(f"ring.{r}_s", rings[r], "s")
        per_op: dict[str, list[float]] = {}
        for p in plain:
            for name, dt in p["op_s"]:
                per_op.setdefault(name, []).append(dt)
        for name, values in per_op.items():
            _say(f"op {name}", values, "s")
        med("setup_s", runner.setup_scaled, "s")
        _say("setup_s (wall)", runner.setup_wall, "s")
        metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
        print(f"  {'peak_rss_mib':<22} {peak_kib / 1024:.6g} MiB")
    else:
        for r in RINGS:
            med(f"ring.{r}_s", rings[r], "s")
        traced_s = [p["pass_s"] for p in traced]
        _say("pass_s (untraced)", pass_s, "s")
        _say("pass_s (traced)", traced_s, "s")
        overhead = statistics.median(traced_s) - statistics.median(pass_s)
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"  {'trace.overhead_s':<22} {overhead:.6g} s "
              f"({100 * overhead / statistics.median(pass_s):.1f}% of the untraced pass)")
        for name in layers[0]:
            med(name, [t[name] for t in layers], "s")
        for name, value in counts[0].items():
            if any(c[name] != value for c in counts):
                runner.failures.append(f"count {name} differs between traced passes")
            metrics[name] = (value, "count")
            print(f"  {name:<22} {value}")
        for layer, values in _import_costs().items():
            med(f"{layer}.import_s", values or [0.0], "s")
        spans_path = os.path.join(workloads.WORK, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": [op.name for op in ops], "spans": runner.all_spans()}, fh)
        print(f"  spans of the last traced pass: {spans_path}")
    for f in runner.failures:
        print(f"  FAILED {f}")
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        out["correct"] = out["correct"] and result["correct"]
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            out["metrics"][f"{name}/{k}"] = v
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    os.chdir(ROOT)
    try:
        _import_program()
    except Unavailable as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    os.makedirs(workloads.WORK, exist_ok=True)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0 if result.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
