"""The benchmark's own tests, on tiny models: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (first: puts src/ on the path, pins BLAS threads)
import measure  # noqa: E402
from hostspeed import REF_NS, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace, seed=3):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        tiny=True,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_spec_metrics(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert m["value"] != 0 or name == "bench.trace_overhead_frac", name
        assert any(line.startswith(f"# {name} ") for line in lines), name
    if not trace:
        assert any(line.startswith("# host.slowdown ") for line in lines)


def test_host_speed_scales_by_the_median_probe():
    assert HostSpeed.scale(REF_NS, REF_NS) == 1.0
    assert HostSpeed.scale(REF_NS, 2 * REF_NS, 9 * REF_NS) == 0.5
    host = HostSpeed()
    assert host.probe() > 0 and host.probe() > 0
    assert host.slowdown() == pytest.approx(sum(host.probes) / 2 / REF_NS)


def test_spec_workloads_match_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_equal_untraced_opcounter(workload):
    plain_wl = WORKLOADS[workload](5, tiny=True)
    plain_wl.setup()
    _, plain = measure._counted_pairs(plain_wl, 50, None)

    traced_wl = WORKLOADS[workload](5, tiny=True)
    traced_wl.setup()
    tracer = Tracer()
    with tracer.installed():
        _, traced = measure._counted_pairs(traced_wl, 50, tracer)
    for kind in ("update", "query"):
        assert vars(plain[kind]) == vars(traced[kind])

    # counted wrapped calls agree with the OpCounter: one dense mat-vec per
    # apply, one rake_compose (one mat-vec + one mat-mat) per recipe
    a = tracer.arrays()
    kinds = [tracer.op_kinds[o] for o in a["op"]]
    calls = lambda name, kind: sum(
        1 for n, k in zip(a["name"], kinds) if tracer.names[n] == name and k == kind
    )
    recipes = calls("contract.recompute", "update")
    assert calls("linalg.rake_compose", "update") == recipes
    if workload != "jointree-factored":
        assert plain["update"].mat_mat == recipes
        assert plain["query"].mat_vec == calls("linalg.apply", "query") + calls(
            "linalg.apply_transpose", "query"
        )
    else:  # a factored application is two thin mat-vecs
        mv = calls("jointree.mv", "query") + calls("jointree.mv_t", "query")
        assert plain["query"].mat_vec == 2 * mv


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_counts_other_seed_other_inputs(workload):
    def counts(seed):
        wl = WORKLOADS[workload](seed, tiny=True)
        m, tally, _ = measure.run_traced(wl, pairs=50, bursts=5)
        assert tally.failed == 0
        exact = {k: v for k, v in m.items() if k.startswith("ops.")}
        exact["model_mib"] = m["model_mib"]
        exact["contract.levels"] = m["contract.levels"]
        exact["contract.rake.calls"] = m["contract.rake.calls"]
        return wl.input_digest(), exact

    d1, c1 = counts(7)
    d2, c2 = counts(7)
    d3, _ = counts(8)
    assert d1 == d2 and c1 == c2
    assert d3 != d1


def test_deep_bytes_agrees_with_tracemalloc():
    wl = WORKLOADS["tree-online"](2, tiny=True)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wl.setup()
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    walked = measure.deep_bytes(wl.model())
    assert abs(walked - traced) <= 0.02 * traced


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tree-online",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
