"""Benchmark of asympure: one workload per run, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload engine_grid --seed 1 --seconds 25 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

- ``engine_grid``: the 598 maps of acceptance criterion 3, prediction then
  exact rank through the Python API.
- ``oracle_large``: five large ``asympure oracle`` calls.
- ``purity_scan``: 420 ``asympure scan`` calls, the prediction-only path.
- ``cli_cache``: every cached command once as a miss and once as a hit,
  against one cache file.

Each pass runs in a fresh interpreter (``workloads.py``), one process at a
time, single-threaded, with BLAS/OpenMP pinned to one thread.  Passes repeat
while another one still fits in ``--seconds``; at least one always runs.
Times are per operation, scaled to a nominal machine speed by speed probes
taken around and during each operation (``metrics.scaled_op_s``), each the
median over the run's passes; memory is the median over the passes.  ``setup_s``
(interpreter start until the package is imported and the inputs exist) is
the median of seven set-up-only processes spread over the run, each scaled
by a bare interpreter start timed just before it.  The unscaled times are
printed too, as ``raw.*``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics (``tracing.py``) with
``trace.overhead_s``, the traced minus the plain wall time.  Every metric is
printed as ``name = value unit``, then a provenance line, then one JSON
object as the last line.  A full record of the run, with every pass, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import (END_TO_END, NOMINAL_START_S, PER_LAYER, START_PROBE, hit_miss_ms, latency_ms,
                     scaled_op_s)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("engine_grid", "oracle_large", "purity_scan", "cli_cache")
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _launch(root: Path, workload: str, seed: int, mode: str, out_dir: Path, limit: float) -> dict:
    """Run one measured process and return its report."""
    remaining = limit - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the next pass")
    command = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), mode,
               repr(time.monotonic()), str(out_dir)]
    try:
        done = subprocess.run(command, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} pass of {workload} did not end in time") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"{mode} pass of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup_sample(root: Path, workload: str, seed: int, out_dir: Path, limit: float) -> dict:
    """One set-up-only process, after a bare interpreter start (``metrics.START_PROBE``)."""
    try:
        done = subprocess.run([sys.executable, "-c", START_PROBE, repr(time.monotonic())],
                              cwd=root, env=_child_env(root), stdout=subprocess.PIPE, text=True,
                              check=True, timeout=max(0.0, limit - time.monotonic()))
        start_probe_s = float(done.stdout)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        raise BenchmarkError(f"the bare interpreter start failed: {exc}") from exc
    return {**_launch(root, workload, seed, "setup", out_dir, limit),
            "start_probe_s": start_probe_s}


def run_passes(root: Path, workload: str, seed: int, seconds: int, trace: bool,
               out_dir: Path) -> list[dict]:
    """Passes while another still fits in `seconds`, with set-up samples between them."""
    start = time.monotonic()
    deadline, limit = start + seconds, start + RUN_LIMIT_S
    cycle = ("plain", "traced") if trace else ("plain",)
    setup_samples = 0 if trace else SETUP_SAMPLES
    longest: dict[str, float] = {}
    reports, setups = [], []
    while True:
        if len(setups) < setup_samples:
            setups.append(_setup_sample(root, workload, seed, out_dir, limit))
        mode = cycle[len(reports) % len(cycle)]
        t = time.monotonic()
        reports.append(_launch(root, workload, seed, mode, out_dir, limit))
        longest[mode] = max(longest.get(mode, 0.0), time.monotonic() - t)
        following = cycle[len(reports) % len(cycle)]
        if len(reports) >= len(cycle) and time.monotonic() + longest[following] > deadline:
            break
    while len(setups) < setup_samples:
        setups.append(_setup_sample(root, workload, seed, out_dir, limit))
    return reports + setups


def _median(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def typical_op_s(passes: list[dict]) -> list[float]:
    """Each operation's scaled time (``metrics.scaled_op_s``), median over the passes.

    Every pass of a run does the same operations in the same order, each
    pass in a fresh process.
    """
    return [statistics.median(times) for times in zip(*map(scaled_op_s, passes))]


def scaled_setup_s(report: dict) -> float:
    """A set-up sample scaled to the nominal time of the bare interpreter start before it."""
    return report["setup_s"] * NOMINAL_START_S / report["start_probe_s"]


def end_to_end(reports: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the printed-only ones (raw times, error rate, hit/miss)."""
    plain = [r for r in reports if r["mode"] == "plain"]
    setups = [r for r in reports if r["mode"] == "setup"]
    op_s = typical_op_s(plain)
    wall = sum(op_s)
    p50, tail = latency_ms(op_s, plain[0]["tail_pct"])
    metrics = {
        "setup_s": statistics.median(map(scaled_setup_s, setups)),
        "wall_s": wall,
        "ops_per_s": plain[0]["work"] / wall,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
    }
    attempted = sum(r["attempted"] for r in plain)
    extra = {
        "error_rate": (sum(r["failed"] for r in plain) / attempted, "ratio"),
        "raw.setup_s": (_median(setups, "setup_s"), "s"),
        "raw.wall_s": (_median(plain, "wall_s"), "s"),
        f"probe.{plain[0]['probe']}_ms": (
            1e3 * statistics.median(p for r in plain for p in r["probe_s"]), "ms"),
    }
    if plain[0]["hits"]:
        extra.update((name, (value, "ms"))
                     for name, value in hit_miss_ms(op_s, plain[0]["hits"]).items())
    return {name: (metrics[name], unit) for name, (unit, _) in END_TO_END.items()}, extra


def per_layer(reports: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced passes, plus trace overhead."""
    plain = [r for r in reports if r["mode"] == "plain"]
    traced = [r for r in reports if r["mode"] == "traced"]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name, _, _, _ in PER_LAYER
        if name in traced[0]["layers"]
    }
    values["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    hit_miss = (hit_miss_ms(typical_op_s(plain), plain[0]["hits"]) if plain[0]["hits"]
                else {"hit_p50_ms": 0.0, "miss_p50_ms": 0.0})
    values.update((f"cache.{name}", value) for name, value in hit_miss.items())
    return {name: (values[name], unit) for name, unit, _, _ in PER_LAYER}


def provenance(root: Path, args, reports: list[dict], load_before, load_after) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "asympure").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    modes = [r["mode"] for r in reports]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": reports[0]["python"],
        "numpy": reports[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "measured_processes": "one at a time, each single-threaded",
        "pinned_env": PINNED,
        "passes": {mode: modes.count(mode) for mode in sorted(set(modes))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "asympure" / "__init__.py").is_file():
        print(f"error: no asympure sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    try:
        reports = run_passes(root, args.workload, args.seed, args.seconds, bool(args.trace),
                             out_dir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()
    passes = [r for r in reports if r["mode"] != "setup"]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for failure in [f for r in passes for f in r["failures"]][:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    if args.trace:
        shown, extra = per_layer(reports), {}
    else:
        shown, extra = end_to_end(reports)
    for name, (value, unit) in {**shown, **extra}.items():
        print(f"{name} = {value!r} {unit}")
    record = provenance(root, args, reports, load_before, load_after)
    print("provenance " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    log = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps({"provenance": record, "result": result,
                               "printed_only": extra, "passes": reports}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
