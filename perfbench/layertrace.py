"""Span tracing of the ssethom layers, installed from outside the package.

``Tracer.install`` wraps every public module-level function of the nine
package modules, plus ``SparseIntMatrix.mul`` and the ``__post_init__``
invariant checks of ``ChainComplex`` and ``ChainMap``.  A wrapped call
records a span (name, start, end, parent span, operation id) in memory.
Because the package copies names between modules (``from .snf import
smith_normal_form``) and keeps functions in dispatch tables
(``cli._PLAIN_CHECKS``, ``cli._KINDS``), every module global that holds an
original function, directly or inside a dict or tuple, is rebound to its
wrapper.  ``uninstall`` puts every original back, so traced and untraced
passes can alternate in one process.

``layer_metrics`` turns the spans of a pass and the host-speed factors of
its operations into the per-layer times listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("snf", "sset", "cat", "homalg", "specseq", "theorems", "fixtures", "formats", "cli")

# Inclusive time at named boundaries: a span counts when no ancestor span is
# in the same group, so recursion and nesting are not counted twice.
# ``inclusive_groups`` adds ``sset.verify_s``, whose names are read from ``sset``.
INCLUSIVE = {
    "snf.smith_s": {"snf.smith_normal_form"},
    "snf.field_rank_s": {"snf.rank_mod_p", "snf.rank_rational"},
    "snf.solve_s": {"snf.solve", "snf.kernel_basis"},
    "snf.matmul_s": {"snf.SparseIntMatrix.mul"},
    "homalg.verify_s": {"homalg.ChainComplex.__post_init__", "homalg.ChainMap.__post_init__",
                        "homalg.check_chain_homotopy"},
    "homalg.coords_s": {"homalg.homology_coordinates", "homalg.induced_map_on_homology"},
}

COUNTS = (
    "snf.smith_calls", "snf.transform_calls", "snf.solve_calls", "snf.field_rank_calls",
    "snf.matmul_calls", "snf.input_nnz", "snf.max_cols", "snf.transform_cells",
    "homalg.complexes", "homalg.verify_calls", "cat.simplices", "sset.simplices",
    "specseq.pages", "formats.bytes_in", "formats.bytes_out", "cli.invocations",
)

_METHODS = (
    ("snf", "SparseIntMatrix", "mul"),
    ("homalg", "ChainComplex", "__post_init__"),
    ("homalg", "ChainMap", "__post_init__"),
)

_ELIMINATIONS = {"snf.smith_normal_form", "snf.rank_mod_p", "snf.rank_rational"}


def _public_functions(layer: str):
    """(name, function) for every public function defined in ``ssethom.<layer>``."""
    m = importlib.import_module(f"ssethom.{layer}")
    return [(name, obj) for name, obj in vars(m).items()
            if inspect.isfunction(obj) and obj.__module__ == m.__name__
            and not name.startswith("_")]


@functools.cache
def inclusive_groups() -> dict[str, set[str]]:
    """``INCLUSIVE`` plus ``sset.verify_s``: every ``sset.validate_*`` and ``sset.check_*``."""
    verify = {f"sset.{name}" for name, _ in _public_functions("sset")
              if name.startswith(("validate_", "check_"))}
    return {**INCLUSIVE, "sset.verify_s": verify}


def _simplices(obj) -> int:
    """Sum of the level sizes of a built space, 0 for anything else."""
    for attr in ("sset", "bisset"):
        inner = getattr(obj, attr, None)
        if inner is not None and hasattr(inner, "sizes"):
            return _simplices(inner)
    sizes = getattr(obj, "sizes", None)
    if sizes is None:
        sizes = getattr(obj, "gen_sizes", None)
    if not isinstance(sizes, tuple):
        return 0
    return sum(sum(s) if isinstance(s, tuple) else s for s in sizes)


class Tracer:
    """In-memory spans and counters for one traced stretch of work."""

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = None
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []

    def _count(self, name: str, args, kwargs, result, parent_layer) -> None:
        c = self.counts
        layer = name.split(".", 1)[0]
        if name in _ELIMINATIONS:
            A = args[0]
            c["snf.input_nnz"] += A.nnz()
            c["snf.max_cols"] = max(c["snf.max_cols"], A.cols)
            if name == "snf.smith_normal_form":
                c["snf.smith_calls"] += 1
                if kwargs.get("transforms", args[1] if len(args) > 1 else False):
                    c["snf.transform_calls"] += 1
                    c["snf.transform_cells"] += A.rows ** 2 + A.cols ** 2
            else:
                c["snf.field_rank_calls"] += 1
        elif name in ("snf.solve", "snf.kernel_basis"):
            c["snf.solve_calls"] += 1
        elif name == "snf.SparseIntMatrix.mul":
            c["snf.matmul_calls"] += 1
        elif name == "homalg.ChainComplex.__post_init__":
            c["homalg.complexes"] += 1
        elif name == "specseq.spectral_sequence":
            c["specseq.pages"] += len(result)
        elif name == "formats.read_document":
            c["formats.bytes_in"] += os.path.getsize(args[0])
        elif name == "formats.dumps_document":
            c["formats.bytes_out"] += len(result.encode("utf-8"))
        elif name == "cli.main":
            c["cli.invocations"] += 1
        if name in INCLUSIVE["homalg.verify_s"]:
            c["homalg.verify_calls"] += 1
        if layer in ("cat", "sset") and parent_layer != layer:
            c[f"{layer}.simplices"] += _simplices(result)

    def wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent, self.op))  # completed below
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            parent_layer = spans[parent][0].split(".", 1)[0] if parent >= 0 else None
            self._count(name, args, kwargs, result, parent_layer)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every public function of every layer to a traced wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"ssethom.{layer}") for layer in LAYERS}
        mods["__init__"] = importlib.import_module("ssethom")
        wrappers = {obj: self.wrap(f"{layer}.{name}", obj)
                    for layer in LAYERS for name, obj in _public_functions(layer)}
        for layer, cls_name, meth in _METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", orig))
            self._restore.append((setattr, cls, meth, orig))
        for m in mods.values():
            for name, val in list(vars(m).items()):
                new = self._rebound(val, wrappers)
                if new is not val:
                    if isinstance(val, dict):
                        self._restore.append((dict.update, val, dict(val)))
                        val.update(new)
                    else:
                        setattr(m, name, new)
                        self._restore.append((setattr, m, name, val))

    def _rebound(self, val, wrappers):
        """``val`` with originals replaced by wrappers, or ``val`` itself."""
        if inspect.isfunction(val):
            return wrappers.get(val, val)
        if type(val) is tuple:
            items = tuple(self._rebound(v, wrappers) for v in val)
            return val if all(a is b for a, b in zip(items, val)) else items
        if isinstance(val, dict):
            new = {k: wrappers[v] for k, v in val.items()
                   if inspect.isfunction(v) and v in wrappers}
            return new or val
        return val

    def uninstall(self) -> None:
        for fn, *args in reversed(self._restore):
            fn(*args)
        self._restore = []

    def dump(self, path: str) -> None:
        """Write the spans and counters as JSON (one traced process)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


# -- turning spans into metrics --------------------------------------------


def layer_metrics(spans: list, factors: list[float]) -> dict[str, float]:
    """Self time per layer and inclusive time per named boundary, in seconds.

    ``spans`` is a list of (name, start, end, parent, op) with every parent
    listed before its children, as ``Tracer`` records them.  A span's
    duration is multiplied by ``factors[op]``, the host-speed factor of its
    operation, so that layer times are in the same units as ``pass_s``.
    """
    n = len(spans)
    dur = [(t1 - t0) * factors[op] for _name, t0, t1, _parent, op in spans]
    child_time = [0.0] * n
    for i, (_name, _t0, _t1, parent, _op) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        out[span[0].split(".", 1)[0] + ".self_s"] += dur[i] - child_time[i]
    for metric, group in inclusive_groups().items():
        covered = [False] * n  # some ancestor is in the group
        total = 0.0
        for i, (name, _t0, _t1, parent, _op) in enumerate(spans):
            if parent >= 0:
                covered[i] = covered[parent] or spans[parent][0] in group
            if name in group and not covered[i]:
                total += dur[i]
        out[metric] = total
    return out


def add_counts(into: dict, counts: dict) -> None:
    for k, v in counts.items():
        into[k] = max(into[k], v) if k == "snf.max_cols" else into[k] + v
