"""The benchmark's own tests; fast enough to run before every benchmark change.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench() -> run.Bench:
    return run.Bench(run.load_package(), json.loads(run.REFERENCE.read_text()))


def test_smoke_every_metric_with_its_unit():
    """One op per workload through the untraced and the traced path."""
    bench = _bench()
    for workload, op in workloads.SMOKE.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            metrics, attempted, _ = run.measure(bench, workload, [op], 0, 0, trace, spawns=1)
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {k: m["unit"] for k, m in metrics.items()} == expected, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
            assert attempted >= 1
    assert bench.mismatches == []


def test_every_op_has_a_reference():
    reference = json.loads(run.REFERENCE.read_text())
    assert set(workloads.all_ops()) <= set(reference)
    assert set(workloads.SMOKE.values()) <= set(workloads.all_ops())
    assert len(set(workloads.ops_for("search", 7))) == len(workloads.ops_for("search", 7))
    assert workloads.ops_for("decompose", 3) == workloads.ops_for("decompose", 3)


def test_check_flags_each_kind_of_mismatch():
    bench = _bench()
    op = "defining C3 --format json"
    _, code, out, err = bench.execute(op)
    assert bench.check(op, code, out, err) is None
    assert "exit" in bench.check(op, 1, out, err)
    assert "stdout" in bench.check(op, code, out + " ", err)
    assert "raised" in bench.check(op, "raised ValueError: x", out, err)
    # A matching digest alone is not enough: the golden file is compared too.
    bench.reference[op] = dict(bench.reference[op], stdout=run.digest("{}"))
    assert "golden" in bench.check(op, code, "{}", err)


def test_typed_failure_ops_exit_1():
    bench = _bench()
    for op in ("dim E8 [-1,0,0,0,0,0,0,0]", "delete E8 --node 9"):
        _, code, out, err = bench.execute(op)
        assert code == 1 and err.startswith("error [")
        assert bench.check(op, code, out, err) is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_warns_when_a_module_level_cache_grows(monkeypatch):
    rep = next(m for m in run.load_package() if m.__name__ == "lieinduct.rep_theory")
    cache: dict = {}
    monkeypatch.setattr(rep, "_dict_cache", cache, raising=False)
    bench = _bench()
    weyl_dim = rep.weyl_dim

    def cached(rs, weight):
        return cache.setdefault((rs.type, tuple(weight)), weyl_dim(rs, weight))

    monkeypatch.setattr(rep, "weyl_dim", cached)
    bench.run_pass(["dim A5 w3"])
    assert bench.grown == {"lieinduct.rep_theory._dict_cache"}
