"""Tests of the benchmark itself: the oracle gate, its inputs, op counts
and the tracer.  Run with ``python -m pytest -q perfbench`` from the
repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_library()

import harness  # noqa: E402  (needs nttkit on the path)
import layers  # noqa: E402
import workloads  # noqa: E402
from nttkit import planner  # noqa: E402
from nttkit.errors import ParameterCondition  # noqa: E402
from nttkit.rings import Poly  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(capsys, *args):
    code = run.main(["--seconds", "0.3", *args])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _flip(poly):
    """The same polynomial with coefficient 0 off by one."""
    c = list(poly.coeffs)
    c[0] = (c[0] + 1) % poly.ring.q
    return Poly(c, poly.ring)


def _flip_product(real):
    return lambda a, b, plan, **kw: _flip(real(a, b, plan, **kw))


def _flip_matvec(real):
    return lambda ahat, s, plan: [_flip(p) for p in real(ahat, s, plan)]


def _raise(real):
    def raising(*args, **kwargs):
        raise ParameterCondition("injected")

    return raising


@pytest.mark.parametrize("workload, name, wrapper", [
    ("bigmod", "multiply", _flip_product),
    ("matvec", "matvec_multiply", _flip_matvec),
    ("bigmod", "multiply", _raise),
])
def test_gate_fails_closed(monkeypatch, capsys, workload, name, wrapper):
    monkeypatch.setattr(planner, name, wrapper(getattr(planner, name)))
    code, res = _run(capsys, "--workload", workload)
    assert code == 1
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] > 0


def test_metric_names_match_benchmark_json(capsys):
    code, res = _run(capsys, "--workload", "bigmod", "--trace", "0")
    assert code == 0 and res["correct"] and res["failed"] == 0
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(res["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])
    code, res = _run(capsys, "--workload", "bigmod", "--trace", "1")
    assert code == 0 and res["correct"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(res["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_inputs_are_a_function_of_the_seed(workload):
    planned = workloads.build(workload)

    def sha(seed):
        return workloads.digest(
            planned, [workloads.round_inputs(planned, workload, seed, r) for r in range(2)])

    assert sha(7) == sha(7)
    assert sha(7) != sha(8)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_op_counts_repeat_exactly(workload):
    planned = workloads.build(workload)
    phase = harness.Phase(len(planned))
    first = harness.count_ops(planned, workload, 3, phase)
    second = harness.count_ops(planned, workload, 3, phase)
    assert first == second
    assert first["modarith.mults"] > 0
    assert phase.failed == 0


def test_tracer_restores_the_library():
    import importlib

    before = {(m, a): getattr(importlib.import_module(f"nttkit.{m}"), a)
              for m, a, _ in layers.TARGETS}
    planned = workloads.build("direct")
    with layers.Tracer() as tracer:
        assert tracer.install() == []
        phase = harness.Phase(len(planned))
        harness.one_round(planned, "direct", 1, 0, phase, tracer)
    assert phase.failed == 0
    assert tracer.calls["transforms.forward"] > 0
    after = {(m, a): getattr(importlib.import_module(f"nttkit.{m}"), a)
             for m, a, _ in layers.TARGETS}
    assert after == before


def test_tail_percentile():
    assert harness.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    value, pct = harness.tail([float(i) for i in range(30)])
    assert value == 19.0 and round(pct, 1) == 66.7
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""
