"""Smoke test of the benchmark at its reduced sizes.

    python3 -m pytest perfbench/check_smoke.py

Runs every workload plain and traced, checks the result line against
BENCHMARK.json, checks that the traced work counts repeat exactly, that the
tracer patches every namespace and restores it, and that the benchmark fails
without printing a result where the library sources are missing.  The file
name keeps it out of the repository's own test run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "count.computed", "B.computed", "ratio.computed"}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_plain_run_reports_end_to_end_metrics(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_per_layer_metrics_and_repeats_counts(workload):
    first, second = (_result(_run(workload, 1))["metrics"] for _ in range(2))
    assert {n: m["unit"] for n, m in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    exact = {n for n, m in first.items() if m["unit"] in EXACT_UNITS}
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def test_tracer_patches_every_namespace_and_restores_it():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import orbitbnf
        import tracing
        from orbitbnf import oracle, quantum, words

        original = words.normal_order_product
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert orbitbnf.normal_order_product is words.normal_order_product is not original
            assert quantum.commutator_over_ihbar is words.commutator_over_ihbar
            assert oracle.apply_to_basis is words.apply_to_basis
            x = orbitbnf.WordPoly.creation(1, 0) + orbitbnf.WordPoly.annihilation(1, 0)
            orbitbnf.commutator_over_ihbar(x, x)
        finally:
            tracer.uninstall()
        assert words.normal_order_product is original
        assert orbitbnf.normal_order_product is original
        names = [span[0] for span in tracer.spans]
        assert names.count("words.commutator_over_ihbar") == 1
        assert names.count("words.normal_order_product") == 2
        assert tracer.counters["words.normal_order_product.pairs"] == 8
        with pytest.raises(tracing.TraceBlindError):
            tracer.metrics("oracle-window", 0.0)
    finally:
        del sys.path[:2]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("word-algebra", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
