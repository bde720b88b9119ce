"""Tests of the benchmark itself: its correctness gate, metric names and trace.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench

The passes here run on small slices of each workload's inputs, in-process.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import asympure
import run
import workloads
from asympure import cache, oracle
from metrics import END_TO_END, NOMINAL_START_S, PER_LAYER, PROBES, scaled_op_s
from tracing import Tracer, blocks

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "engine_grid": [m for m in workloads.engine_grid_inputs(0) if m[2] <= 3 and m[3] <= 3],
    "oracle_large": [(1, 1, 3, 3), (2, 1, 2, 3)],
    "purity_scan": [(2, 1, 0), (2, 2, 3)],
    "cli_cache": [0, 130, 400, 130, 0, 600, 400, 600],
}


def small_report(workload: str, mode: str, out_dir: Path) -> dict:
    report = workloads.measure(workload, SMALL[workload], 5, mode, out_dir)
    return {"mode": mode, "setup_s": 0.25, "peak_rss_mb": 40.0, **report}


def setup_report(setup_s: float, start_probe_s: float = NOMINAL_START_S) -> dict:
    return {"mode": "setup", "setup_s": setup_s, "start_probe_s": start_probe_s}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]


def test_engine_grid_counts_a_wrong_rank(monkeypatch, tmp_path):
    real = asympure.exact_rank
    wrong_shape = asympure.build_matrix(asympure.special_fiber_operator(2, 1), 3, 3).shape

    def off_by_one(matrix, **kwargs):
        result = real(matrix, **kwargs)
        if matrix.shape == wrong_shape:
            rank = result.rank - 1
            result = dataclasses.replace(
                result, rank=rank, kernel_dim=result.dim_source - rank,
                cokernel_dim=result.dim_target - rank,
            )
        return result

    clean = workloads.measure("engine_grid", SMALL["engine_grid"], 5, "plain", tmp_path)
    monkeypatch.setattr(asympure, "exact_rank", off_by_one)
    faulty = workloads.measure("engine_grid", SMALL["engine_grid"], 5, "plain", tmp_path)
    assert clean["failed"] == 0
    assert faulty["failed"] == 1 and faulty["failed"] / faulty["attempted"] > 0
    assert faulty["failures"][0].startswith("(2, 1, 3, 3): oracle")


def test_cli_cache_counts_a_corrupt_hit(monkeypatch, tmp_path):
    real_get = cache.ResultCache.get

    def corrupt_get(self, key):
        value = real_get(self, key)
        return None if value is None else {**value, "values": ["999"]}

    clean = workloads.measure("cli_cache", SMALL["cli_cache"], 5, "plain", tmp_path)
    monkeypatch.setattr(cache.ResultCache, "get", corrupt_get)
    faulty = workloads.measure("cli_cache", SMALL["cli_cache"], 5, "plain", tmp_path)
    assert clean["failed"] == 0
    assert faulty["failed"] == 4 and faulty["failed"] / faulty["attempted"] > 0
    assert all("hit output differs from the miss" in f for f in faulty["failures"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported_with_a_unit(workload, tmp_path):
    reports = [small_report(workload, mode, tmp_path) for mode in ("plain", "traced")]
    reports.append(setup_report(0.25))
    shown, printed = run.end_to_end(reports)
    assert list(shown) == list(END_TO_END)
    assert "error_rate" in printed
    if workload == "cli_cache":
        assert {"hit_p50_ms", "miss_p50_ms"} <= set(printed)
    layers = run.per_layer(reports)
    assert list(layers) == [name for name, _, _, _ in PER_LAYER]
    for value, unit in [*shown.values(), *printed.values(), *layers.values()]:
        assert unit and isinstance(value, (int, float))
    assert (tmp_path / f"spans-{workload}.csv").stat().st_size > 0


def test_scaling_follows_the_probes_around_each_operation():
    # three 1-s operations, a probe before each and after the last, and
    # probes during the second and third; the level slows to half speed
    # during the second operation
    nominal = PROBES["numpy"][1]
    report = {"op_s": [1.0, 1.0, 1.0], "probe": "numpy",
              "probe_s": [nominal, nominal, 2 * nominal, 2 * nominal],
              "op_probe_s": [[], [2 * nominal, 2 * nominal], [2 * nominal]]}
    assert scaled_op_s(report) == pytest.approx([1.0, 4 / 7, 0.5])


def test_probes_run_during_untraced_operations_only():
    def busy(_):
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    _, plain = workloads._timed([0, 1], busy, None)
    _, traced = workloads._timed([0, 1], busy, lambda i: None)
    assert len(plain["probe_s"]) == len(traced["probe_s"]) == 3
    assert all(len(during) >= 2 for during in plain["op_probe_s"])
    assert traced["op_probe_s"] == [[], []]
    assert signal.getsignal(signal.SIGALRM) is handler


def test_end_to_end_takes_each_operation_at_its_median_over_passes():
    def plain(op_s):
        return {"mode": "plain", "setup_s": 0.2, "peak_rss_mb": 40.0, "op_s": op_s,
                "probe": "python", "probe_s": [PROBES["python"][1]] * 3, "op_probe_s": [[], []],
                "wall_s": sum(op_s), "work": 2, "tail_pct": None,
                "hits": None, "attempted": 2, "failed": 0}

    setups = [setup_report(0.2, 2 * NOMINAL_START_S), setup_report(0.3, NOMINAL_START_S),
              setup_report(0.1, NOMINAL_START_S)]
    passes = [plain([1.0, 3.0]), plain([2.0, 1.0]), plain([9.0, 2.0])]
    shown, printed = run.end_to_end(passes + setups)
    assert shown["wall_s"] == (4.0, "s")
    assert shown["setup_s"] == (pytest.approx(0.1), "s")
    assert printed["raw.setup_s"] == (0.2, "s")
    assert printed["raw.wall_s"] == (4.0, "s")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_self_times_stay_within_wall(workload, tmp_path):
    report = small_report(workload, "traced", tmp_path)
    self_times = [v for name, v in report["layers"].items() if name.endswith(".self_s")]
    assert all(t >= 0 for t in self_times)
    assert sum(self_times) <= report["wall_s"]


def test_layers_each_workload_does_not_use_stay_at_zero(tmp_path):
    scan = small_report("purity_scan", "traced", tmp_path)["layers"]
    assert scan["oracle.exact_rank.calls"] == scan["oracle.build_matrix.calls"] == 0
    for workload in ("engine_grid", "oracle_large", "purity_scan"):
        layers = small_report(workload, "traced", tmp_path)["layers"]
        assert all(v == 0 for name, v in layers.items() if name.startswith("cache."))
    layers = small_report("cli_cache", "traced", tmp_path)["layers"]
    assert layers["cache.hits"] == layers["cache.misses"] == 4


def test_tracer_restores_the_package():
    before = (asympure.exact_rank, cache.ResultCache.get, asympure.cli.main)
    with Tracer().installed():
        assert asympure.exact_rank is not before[0]
        assert asympure.cli.exact_rank is asympure.exact_rank is oracle.exact_rank
    assert (asympure.exact_rank, cache.ResultCache.get, asympure.cli.main) == before


def test_blocks_agree_with_the_oracle_decomposition():
    matrix = asympure.build_matrix(asympure.special_fiber_operator(2, 2), 4, 5)
    expected = sorted((len(r), len(c)) for r, c in oracle._connected_components(matrix))
    assert sorted(blocks(matrix)) == expected


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine_grid", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
