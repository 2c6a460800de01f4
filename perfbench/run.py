"""End-to-end and per-layer benchmark for lie-induct.

    python3 perfbench/run.py --workload decompose|characters|search \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each op is one CLI verb, run in this process
through ``lieinduct.cli.run`` with stdout captured and every functools cache
in the package cleared first, so each op starts cold without paying for
interpreter start-up; that cost is measured on its own as ``setup_s``.  One
closed-loop client: the next op starts when the previous one returns.
Passes over the workload's op list repeat while another pass fits in
``--seconds``.  Every op's exit code and output are checked against
``reference.json`` and, where one exists, against its ``tests/golden`` file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced one and reports the per-layer metrics, including
the tracing overhead; spans go to ``.perfbench/<workload>.bin`` and ``.json``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from clock import CalibratedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

SETUP_SPAWNS = 15  # fresh interpreters per run for setup_s; the median is reported
MIN_SAMPLES = 100  # op latencies per end-to-end run, enough for a p90

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "root_system.self_s": "s",
    "root_system.build_s": "s",
    "root_system.builds": "count",
    "root_system.to_dominant_calls": "count",
    "root_system.to_dominant_s": "s",
    "rep_theory.self_s": "s",
    "rep_theory.freudenthal_s": "s",
    "rep_theory.freudenthal_calls": "count",
    "rep_theory.freudenthal_misses": "count",
    "rep_theory.weight_system_size": "weights",
    "rep_theory.is_defining_s": "s",
    "rep_theory.is_defining_calls": "count",
    "rep_theory.weyl_dim_calls": "count",
    "rep_theory.weyl_orbit_s": "s",
    "rep_theory.orbit_weights": "weights",
    "rep_theory.cache_hit_ratio": "ratio",
    "tensor_ops.self_s": "s",
    "tensor_ops.tensor_s": "s",
    "tensor_ops.wedge2_s": "s",
    "tensor_ops.sym2_s": "s",
    "tensor_ops.decompose_character_s": "s",
    "tensor_ops.calls": "count",
    "tensor_ops.cache_hits": "count",
    "tensor_ops.cache_misses": "count",
    "tensor_ops.summands": "count",
    "tensor_ops.source_dim": "count",
    "deletion.self_s": "s",
    "deletion.delete_node_s": "s",
    "deletion.delete_node_calls": "count",
    "deletion.levels": "count",
    "deletion.verify_table2_s": "s",
    "deletion.equivalences_s": "s",
    "induction.self_s": "s",
    "induction.search_s": "s",
    "induction.candidates_s": "s",
    "induction.candidate_calls": "count",
    "induction.defining_checks": "count",
    "induction.candidates_admitted": "count",
    "induction.admit_ratio": "ratio",
    "induction.pair_products": "count",
    "induction.states": "count",
    "induction.report_s": "s",
    "trace.overhead_frac": "ratio",
}


class SetupError(Exception):
    """The checkout lacks something the benchmark needs."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_package() -> list:
    """Import lieinduct from the checkout's src/ and return all its modules."""
    if not (SRC / "lieinduct" / "cli.py").is_file():
        raise SetupError(f"no lieinduct package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lieinduct

    return [lieinduct] + [
        importlib.import_module(f"lieinduct.{m.name}")
        for m in pkgutil.iter_modules(lieinduct.__path__)
    ]


def measure_setup(clock: CalibratedClock, spawns: int) -> float:
    """Median time from spawning a fresh interpreter to lieinduct.cli being
    imported and ready; one unrecorded spawn first warms the bytecode cache."""
    script = "import sys, lieinduct.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for i in range(spawns + 1):
        clock.probe()
        t0 = clock.now()
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = clock.now()
        if line != b"ready\n" or proc.returncode != 0:
            raise SetupError(f"importing lieinduct.cli failed (exit {proc.returncode})")
        if i:
            times.append(t1 - t0)
    return statistics.median(times)


class Bench:
    """Runs ops cold, in process, and checks each one's result."""

    def __init__(self, modules: list, reference: dict) -> None:
        self.modules = modules
        self.cli = next(m for m in modules if m.__name__ == "lieinduct.cli")
        self.rep_theory = next(m for m in modules if m.__name__ == "lieinduct.rep_theory")
        self.caches = tracing.find_caches(modules)
        # Module-level containers: one that changes size during an op is a
        # cache that cache_clear cannot reach.
        self.containers = {
            f"{m.__name__}.{k}": v for m in modules for k, v in vars(m).items()
            if isinstance(v, (dict, list, set)) and not k.startswith("__")
        }
        self.sizes = {k: len(v) for k, v in self.containers.items()}
        self.grown: set[str] = set()
        self.clock = CalibratedClock()
        self.reference = reference
        self.golden = {}
        for op, name in workloads.GOLDEN.items():
            path = GOLDEN_DIR / name
            if not path.is_file():
                raise SetupError(f"missing golden file {path}")
            self.golden[op] = path.read_bytes()
        self.mismatches: list[str] = []

    def execute(self, op: str):
        """Clear every cache, run one op; return (seconds, exit, stdout, stderr),
        timed on the calibrated clock.  An exception escaping ``run`` is
        returned in place of the exit code."""
        for cache in self.caches.values():
            cache.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        self.clock.probe()
        t0 = self.clock.now()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(op.split())
        except Exception as exc:  # noqa: BLE001 -- an op that raises is a failed op
            code = f"raised {type(exc).__name__}: {exc}"
        return self.clock.now() - t0, code, out.getvalue(), err.getvalue()

    def check(self, op: str, code, out: str, err: str) -> str | None:
        """Why the op's result is wrong, or None when it is right."""
        ref = self.reference.get(op)
        if ref is None:
            return "no reference output recorded"
        if code != ref["exit"]:
            return f"exit {code!r}, expected {ref['exit']}"
        if digest(out) != ref["stdout"]:
            return "stdout differs from reference.json"
        if digest(err) != ref["stderr"]:
            return "stderr differs from reference.json"
        golden = self.golden.get(op)
        if golden is not None:
            try:
                doc = json.loads(out)
            except ValueError:
                return "stdout is not JSON"
            if (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode() != golden:
                return f"differs from tests/golden/{workloads.GOLDEN[op]}"
        return None

    def run_pass(self, ops: list[str], tracer=None) -> list[float]:
        """One pass over the ops; returns per-op latencies in seconds."""
        latencies = []
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = i
            seconds, code, out, err = self.execute(op)
            if tracer:
                tracer.end_op()
                tracer.extra["cli.output_bytes"] += len(out.encode())
            latencies.append(seconds)
            for name, container in self.containers.items():
                if len(container) != self.sizes[name]:
                    self.sizes[name] = len(container)
                    self.grown.add(name)
            problem = self.check(op, code, out, err)
            if problem:
                self.mismatches.append(f"{op}: {problem}")
        return latencies

    def traced_pass(self, ops: list[str]):
        tracer = tracing.Tracer(self.modules, self.caches, self.clock.now)
        tracer.install()
        try:
            latencies = self.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        return sum(latencies), tracer

    def layer_metrics(self, tracer) -> dict[str, float]:
        tr, inc, x = tracer, tracer.inclusive, tracer.extra
        orbit_size = self.rep_theory.orbit_size
        weight_system = sum(orbit_size(rs, w) for rs, ws in tr.missed_characters for w in ws)
        rep_hits = tr.cache_sum("rep_theory.", "hits")
        rep_lookups = rep_hits + tr.cache_sum("rep_theory.", "misses")
        checks = tr.count("rep_theory.is_defining", "induction")
        tensor_fns = ["tensor_decompose", "wedge2_decompose", "sym2_decompose",
                      "decompose_character"]
        out = {f"{layer}.self_s": tr.self_time[layer] for layer in tracing.LAYERS}
        out.update({
            "cli.output_bytes": x["cli.output_bytes"],
            "root_system.build_s": inc["root_system.build_root_system"],
            "root_system.builds": tr.cache_sum("root_system.build_root_system", "misses"),
            "root_system.to_dominant_calls": tr.count("root_system.to_dominant"),
            "root_system.to_dominant_s": inc["root_system.to_dominant"],
            "rep_theory.freudenthal_s": inc["rep_theory.freudenthal_character"],
            "rep_theory.freudenthal_calls": tr.count("rep_theory.freudenthal_character"),
            "rep_theory.freudenthal_misses": len(tr.missed_characters),
            "rep_theory.weight_system_size": weight_system,
            "rep_theory.is_defining_s": inc["rep_theory.is_defining"],
            "rep_theory.is_defining_calls": tr.count("rep_theory.is_defining"),
            "rep_theory.weyl_dim_calls": tr.count("rep_theory.weyl_dim"),
            "rep_theory.weyl_orbit_s": inc["rep_theory.weyl_orbit"],
            "rep_theory.orbit_weights": x["rep_theory.orbit_weights"],
            "rep_theory.cache_hit_ratio": rep_hits / rep_lookups if rep_lookups else 0.0,
            "tensor_ops.tensor_s": inc["tensor_ops.tensor_decompose"],
            "tensor_ops.wedge2_s": inc["tensor_ops.wedge2_decompose"],
            "tensor_ops.sym2_s": inc["tensor_ops.sym2_decompose"],
            "tensor_ops.decompose_character_s": inc["tensor_ops.decompose_character"],
            "tensor_ops.calls": sum(tr.count(f"tensor_ops.{f}") for f in tensor_fns),
            "tensor_ops.cache_hits": tr.cache_sum("tensor_ops.", "hits"),
            "tensor_ops.cache_misses": tr.cache_sum("tensor_ops.", "misses"),
            "tensor_ops.summands": x["tensor_ops.summands"],
            "tensor_ops.source_dim": x["tensor_ops.source_dim"],
            "deletion.delete_node_s": inc["deletion.delete_node"],
            "deletion.delete_node_calls": tr.count("deletion.delete_node"),
            "deletion.levels": x["deletion.levels"],
            "deletion.verify_table2_s": inc["deletion.verify_table2"],
            "deletion.equivalences_s": inc["deletion.deletion_equivalences"],
            "induction.search_s": inc["induction.induction_search"],
            "induction.candidates_s": inc["induction.next_level_candidates"],
            "induction.candidate_calls": tr.count("induction.next_level_candidates"),
            "induction.defining_checks": checks,
            "induction.candidates_admitted": x["induction.candidates_admitted"],
            "induction.admit_ratio": x["induction.candidates_admitted"] / checks if checks else 0.0,
            "induction.pair_products": tr.count("tensor_ops.tensor_decompose", "induction")
            + tr.count("tensor_ops.wedge2_decompose", "induction"),
            "induction.states": x["induction.states"],
            "induction.report_s": inc["induction.exceptional_report"],
        })
        return out


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """p90 when at least ten samples lie beyond it, else the highest
    percentile that has ten beyond it (never below the median)."""
    n = len(samples)
    pct = max(50, min(90, int(100 - 1000 / n)))
    if n < 2:
        return pct, samples[0]
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def repeat_within(seconds: float, step):
    """Call step() at least once, and again while another call fits."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - t0
    return results


def end_to_end(bench: Bench, ops: list[str], seconds: float, spawns: int):
    setup = measure_setup(bench.clock, spawns)
    with bench.clock.running():
        passes = repeat_within(seconds, lambda: bench.run_pass(ops))
        # A pass count that varies between runs would change which
        # percentile op_p90_s reports; 100 samples always allow p90.
        while len(passes) * len(ops) < MIN_SAMPLES:
            passes.append(bench.run_pass(ops))
    samples = [s for p in passes for s in p]
    pct, tail = tail_percentile(samples)
    metrics = {
        "wall_s": statistics.median(sum(p) for p in passes),
        "op_p50_s": statistics.median(samples),
        "op_p90_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    notes = [f"passes {len(passes)}; op latency samples {len(samples)}; "
             f"op_p90_s is p{pct}; setup_s is the median of {spawns} spawns; "
             f"median machine speed {bench.clock.median_speed():.3f} of the reference"]
    return metrics, len(samples), notes


def per_layer(bench: Bench, ops: list[str], seconds: float, workload: str, seed: int):
    first = None  # the first traced pass's tracer, whose spans are written

    def pair():
        nonlocal first
        untraced = sum(bench.run_pass(ops))
        traced, tracer = bench.traced_pass(ops)
        first = first or tracer
        return untraced, traced, bench.layer_metrics(tracer)

    with bench.clock.running():
        pairs = repeat_within(seconds, pair)
    layers = [m for _, _, m in pairs]
    notes = [f"pairs of untraced and traced passes {len(pairs)}"]
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_frac":
            continue
        values = [m[name] for m in layers]
        if PER_LAYER_UNITS[name] == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                notes.append(f"WARNING {name} differs between passes {values}, "
                             "as a cache that escaped clearing would make it")
    metrics["trace.overhead_frac"] = (
        statistics.median(t for _, t, _ in pairs) / statistics.median(u for u, _, _ in pairs) - 1
    )
    OUT_DIR.mkdir(exist_ok=True)
    first.write(OUT_DIR / workload, {
        "workload": workload, "seed": seed, "ops": ops,
        "caches_cleared": list(bench.caches),
        "calls": {f"{c} -> {f}": n for (c, f), n in sorted(first.calls.items())},
    })
    attempted = 2 * len(ops) * len(pairs)
    return metrics, attempted, notes


def measure(bench: Bench, workload: str, ops: list[str], seed: int, seconds: float,
            trace: bool, spawns: int = SETUP_SPAWNS):
    """Metrics (name -> {value, unit}), ops attempted, and note lines."""
    if trace:
        values, attempted, notes = per_layer(bench, ops, seconds, workload, seed)
        units = PER_LAYER_UNITS
    else:
        values, attempted, notes = end_to_end(bench, ops, seconds, spawns)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, attempted, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.CORE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        reference = json.loads(REFERENCE.read_text())
        bench = Bench(load_package(), reference)
    except (OSError, ValueError, SetupError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    ops = workloads.ops_for(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass, "
          f"trace {args.trace}")
    print("caches cleared before each op: " + ", ".join(bench.caches))
    try:
        metrics, attempted, notes = measure(
            bench, args.workload, ops, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    failed = len(bench.mismatches)
    for line in bench.mismatches:
        print(f"MISMATCH {line}")
    for name in sorted(bench.grown):
        print(f"WARNING {name} changed size during an op: a cache there escapes "
              "clearing, so later ops run warm")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name:34} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':34} {failed / attempted:>16.6g} ratio ({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
