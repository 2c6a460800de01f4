"""Per-layer tracing of lieinduct from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces each
layer's public functions with timing wrappers in the namespace of every
module that binds them: the modules import names with ``from ... import``, so
patching only the defining module would miss most calls.  Each consumer gets
its own wrapper, which is how calls are attributed to the module that made
them.  Spans (name, start, end, parent, op id) are kept in compact arrays and
written out by ``write``; counts and times per layer are accumulated as the
spans close.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "root_system", "rep_theory", "tensor_ops", "deletion", "induction")


def _summands(tr, args, result):
    tr.extra["tensor_ops.summands"] += len(result.summands)
    tr.extra["tensor_ops.source_dim"] += result.source_dimension


def _orbit_weights(tr, args, result):
    tr.extra["rep_theory.orbit_weights"] += len(result)


def _freudenthal_miss(tr, args, result):
    # Caches are cleared before each op, so the first request for a character
    # within an op is the miss that computes its weight system; the system's
    # size is summed from the dominant weights once tracing is off.
    key = (args[0].type, tuple(args[1]))
    if key not in tr.op_characters:
        tr.op_characters[key] = (args[0], tuple(result.entries))


def _levels(tr, args, result):
    tr.extra["deletion.levels"] += len(result.levels)


def _admitted(tr, args, result):
    tr.extra["induction.candidates_admitted"] += sum(c is not None for c in result)


def _states(tr, args, result):
    tr.extra["induction.states"] += len(result)


# Extra counts taken from particular functions' results: name -> hook.
HOOKS = {
    "tensor_ops.tensor_decompose": _summands,
    "tensor_ops.wedge2_decompose": _summands,
    "tensor_ops.sym2_decompose": _summands,
    "tensor_ops.decompose_character": _summands,
    "rep_theory.weyl_orbit": _orbit_weights,
    "rep_theory.CharacterTable.expand": _orbit_weights,
    "rep_theory.freudenthal_character": _freudenthal_miss,
    "deletion.delete_node": _levels,
    "induction.next_level_candidates": _admitted,
    "induction.induction_search": _states,
}

# Methods traced besides the module-level public functions.
METHODS = {"rep_theory": [("CharacterTable", "expand")]}


def short_name(module) -> str:
    return module.__name__.rpartition(".")[2]


def find_caches(modules) -> dict[str, object]:
    """Every functools cache bound in the modules or their classes, found by
    its ``cache_clear`` attribute; keyed ``module.qualname``."""
    found = {}
    for mod in modules:
        scopes = [vars(mod)] + [
            vars(c) for c in vars(mod).values()
            if inspect.isclass(c) and c.__module__ == mod.__name__
        ]
        for scope in scopes:
            for obj in scope.values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    owner = obj.__module__.rpartition(".")[2]
                    found[f"{owner}.{obj.__qualname__}"] = obj
    return dict(sorted(found.items()))


class Tracer:
    """Spans and counts of one traced pass; ``clock`` returns seconds."""

    def __init__(self, modules, caches: dict[str, object], clock) -> None:
        self.modules = modules
        self.clock = clock
        self.caches = caches
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.nid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self.stack: list[list] = []
        self.calls: Counter = Counter()  # (consumer, function) -> calls
        self.inclusive: defaultdict = defaultdict(float)  # outermost calls only
        self.self_time: defaultdict = defaultdict(float)  # per layer
        self.depth: Counter = Counter()
        self.extra: Counter = Counter()
        self.cache_totals: Counter = Counter()  # (cache, "hits"|"misses")
        self.op_characters: dict = {}  # (type, weight) -> (rs, dominant weights)
        self.missed_characters: list = []
        self._patches: list = []

    # -- instrumentation ----------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, consumer: str):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        key = (consumer, name)
        after = HOOKS.get(name)
        perf = self.clock
        tr, stack, calls, depths = self, self.stack, self.calls, self.depth
        starts, ends = self.start, self.end
        add_nid, add_parent, add_op = self.nid.append, self.parent.append, self.op.append
        add_start, add_end = starts.append, ends.append
        self_time, inclusive = self.self_time, self.inclusive

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            add_nid(nid)
            add_parent(stack[-1][0] if stack else -1)
            add_op(tr.op_id)
            add_start(0.0)
            add_end(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            calls[key] += 1
            depth = depths[name]
            depths[name] = depth + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depths[name] = depth
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if depth == 0:
                    inclusive[name] += dur
            if after:
                after(tr, args, result)
            return result

        return traced

    def install(self) -> None:
        originals = {}  # id(function) -> (layer, qualified name)
        for mod in self.modules:
            layer = short_name(mod)
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    originals[id(obj)] = (layer, f"{layer}.{attr}")
            for cls_name, meth in METHODS.get(layer, []):
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                name = f"{layer}.{cls_name}.{meth}"
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(layer, name, fn, layer))
        for mod in self.modules:
            consumer = short_name(mod)
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None:
                    layer, name = hit
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(layer, name, obj, consumer))

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._patches):
            setattr(target, attr, obj)
        self._patches.clear()

    def end_op(self) -> None:
        """Snapshot every cache's statistics at the end of an op (the caches
        are cleared, and their statistics reset, before each op)."""
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.cache_totals[name, "hits"] += info.hits
            self.cache_totals[name, "misses"] += info.misses
        self.missed_characters.extend(self.op_characters.values())
        self.op_characters.clear()

    # -- results ------------------------------------------------------------

    def count(self, name: str, consumer: str | None = None) -> int:
        return sum(n for (c, f), n in self.calls.items()
                   if f == name and (consumer is None or c == consumer))

    def cache_sum(self, prefix: str, kind: str) -> int:
        return sum(n for (c, k), n in self.cache_totals.items()
                   if k == kind and c.startswith(prefix))

    def write(self, path: Path, meta: dict) -> None:
        """Spans as raw arrays (``<path>.bin``) described by ``<path>.json``."""
        columns = [("name_id", self.nid), ("start", self.start),
                   ("end", self.end), ("parent", self.parent), ("op", self.op)]
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = dict(meta, spans=len(self.nid), names=self.names,
                      columns=[[n, c.typecode, c.itemsize] for n, c in columns])
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
