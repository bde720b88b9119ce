"""The four benchmark workloads: inputs, one timed pass, and output checks.

Every workload goes through the package's public API only.  The seed picks
the primes (``seed=`` / ``--seed``) and the order of the inputs; it never
changes which inputs are in the set, so every seed does the same work.
Outputs are checked after the timed pass (and outside any tracing); a
failed check counts toward the error rate instead of stopping the pass.

Run as a script, this module is one measured process: it imports the
package, builds the inputs, runs one pass (plain or traced) or only the
set-up, and prints a JSON report as its last line.  ``run.py`` starts one
such process per pass so that every pass starts cold, as a CLI call does.

    python3 perfbench/workloads.py WORKLOAD SEED MODE LAUNCHED OUT_DIR

MODE is ``plain``, ``traced`` or ``setup``; LAUNCHED is the parent's
``time.monotonic()`` just before the start, so ``setup_s`` covers the
interpreter start as well.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import asympure
from asympure import cli
from metrics import PROBE_INTERVAL_S, speed_probe

ORACLE_LARGE = ((2, 1, 20, 20), (3, 1, 8, 8), (2, 2, 16, 16), (3, 2, 7, 7), (4, 1, 5, 5))
SCAN_A2 = range(21)

# sha256 of the purity_scan CSV output, one block per (n, k, a1) in sorted
# order, as produced by the package at the commit that defined this benchmark.
PURITY_SCAN_SHA256 = "55675343503a0c9598c8ce6f16921b38c2dac9122d5d0a1849b64044676ba8f6"


@dataclass
class PassResult:
    """One pass: per-operation outputs and timings, then what the checks found."""

    outputs: list  # per operation: its result, or the exception it raised
    work: int  # units of ops_per_s: maps, calls, divisor classes or invocations
    tail_pct: int | None  # None: report the slowest op (too few ops for a percentile)
    wall_s: float  # the pass, less the time its speed probes took
    op_s: list[float]  # per operation: its duration
    probe: str  # the kind of speed probe, a key of metrics.PROBES
    probe_s: list[float]  # speed probes, one before each operation and one after the last
    op_probe_s: list[list[float]]  # per operation: the speed probes taken during it
    hits: list[bool] | None = None  # cli_cache: which operations are cache hits
    cache_text: str = ""  # cli_cache: the cache file as the pass left it
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _timed(items, run_op, mark, probe: str = "python") -> tuple[list, dict]:
    """Run run_op on every item, reading the machine's speed as it goes.

    A speed probe (``metrics.speed_probe``) runs before each operation and
    after the last.  In untraced passes (no mark) it also runs every
    PROBE_INTERVAL_S during an operation, from a SIGALRM handler, which
    Python runs between bytecodes; traced passes are not scaled, and leaving
    these probes out keeps them out of the spans.  Time spent probing is left
    out of op_s and wall_s.  Returns the outputs and the timing fields of
    ``PassResult``.
    """
    outputs: list = []
    timing: dict = {"op_s": [], "probe": probe, "probe_s": [], "op_probe_s": []}
    probing = 0.0

    def take_probe(into: list) -> None:
        nonlocal probing
        t = time.perf_counter()
        into.append(speed_probe(probe))
        probing += time.perf_counter() - t

    interval = 0.0 if mark else PROBE_INTERVAL_S
    previous = signal.signal(signal.SIGALRM, lambda *_: take_probe(timing["op_probe_s"][-1]))
    start = time.perf_counter()
    try:
        for i, item in enumerate(items):
            take_probe(timing["probe_s"])
            if mark:
                mark(i)
            timing["op_probe_s"].append([])
            probed = probing
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
            t = time.perf_counter()
            try:
                outputs.append(run_op(item))
            except Exception as exc:  # a failed operation is counted, the pass goes on
                outputs.append(exc)
            signal.setitimer(signal.ITIMER_REAL, 0)
            timing["op_s"].append(time.perf_counter() - t - (probing - probed))
        take_probe(timing["probe_s"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    timing["wall_s"] = time.perf_counter() - start - probing
    return outputs, timing


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _check_each(result: PassResult, items, problem) -> None:
    """Count one attempted check per operation; problem() returns None if it passed."""
    for item, output in zip(items, result.outputs):
        found = repr(output) if isinstance(output, Exception) else problem(item, output)
        if found:
            result.failures.append(f"{item}: {found}")
    result.attempted += len(items)


# ---------------------------------------------------------------------------
# engine_grid: the 598 maps of acceptance criterion 3, prediction then rank


def engine_grid_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    maps = [(n, k, A, B) for n in (1, 2) for k in (1, 2) for A in range(13) for B in range(k, 13)]
    if len(maps) != 598:
        raise RuntimeError(f"engine_grid has {len(maps)} maps, expected 598")
    random.Random(seed).shuffle(maps)
    return maps


def engine_grid_pass(maps, seed: int, mark=None) -> PassResult:
    operators = {(n, k): asympure.special_fiber_operator(n, k) for n, k, _, _ in maps}

    def one_map(item):
        n, k, A, B = item
        predicted = asympure.predict_map_analysis(n, k, A, B)
        matrix = asympure.build_matrix(operators[n, k], A, B)
        return predicted, asympure.exact_rank(matrix, seed=seed)

    outputs, timing = _timed(maps, one_map, mark)
    return PassResult(outputs, len(maps), 98, **timing)


def engine_grid_check(maps, result: PassResult) -> None:
    def problem(item, output):
        predicted, observed = output
        got = (observed.kernel_dim, observed.cokernel_dim)
        want = (predicted.kernel_dim, predicted.cokernel_dim)
        if got != want:
            return f"oracle {got} != prediction {want}"
        if not observed.certified:
            return "rank not certified"
        return None

    _check_each(result, maps, problem)


# ---------------------------------------------------------------------------
# oracle_large: five single large `asympure oracle` calls


def oracle_large_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    calls = list(ORACLE_LARGE)
    random.Random(seed).shuffle(calls)
    return calls


def oracle_large_pass(calls, seed: int, mark=None) -> PassResult:
    def one_call(item):
        n, k, A, B = item
        return _run_cli(["oracle", "--n", str(n), "--k", str(k), "--A", str(A), "--B", str(B),
                         "--format", "json", "--seed", str(seed)])

    outputs, timing = _timed(calls, one_call, mark, probe="numpy")
    return PassResult(outputs, len(calls), None, **timing)


def oracle_large_check(calls, result: PassResult) -> None:
    def problem(item, output):
        code, text = output
        predicted = asympure.predict_map_analysis(*item)
        want = (str(predicted.kernel_dim), str(predicted.cokernel_dim))
        try:
            payload = json.loads(text)["result"]
        except (ValueError, KeyError) as exc:
            return f"exit {code}, unreadable output ({exc!r})"
        got = (payload.get("kernel_dim"), payload.get("cokernel_dim"))
        certified = payload.get("certified")
        if code != 0 or got != want or certified is not True:
            return f"exit {code}, oracle {got} vs prediction {want}, certified={certified!r}"
        return None

    _check_each(result, calls, problem)


# ---------------------------------------------------------------------------
# purity_scan: 420 `asympure scan` calls, prediction-only


def purity_scan_inputs(seed: int) -> list[tuple[int, int, int]]:
    calls = [(n, k, a1) for n in range(2, 7) for k in range(1, 5) for a1 in range(21)]
    random.Random(seed).shuffle(calls)
    return calls


def purity_scan_pass(calls, seed: int, mark=None) -> PassResult:
    a2_span = f"{SCAN_A2[0]}..{SCAN_A2[-1]}"

    def one_call(item):
        n, k, a1 = item
        return _run_cli(["scan", "--n", str(n), "--k", str(k), "--a1", str(a1), "--a2", a2_span,
                         "--format", "csv", "--seed", str(seed)])

    outputs, timing = _timed(calls, one_call, mark)
    return PassResult(outputs, len(calls) * len(SCAN_A2), 97, **timing)


def _allowed_indices(n: int, a1: int, a2: int) -> tuple[str, set[int]]:
    """Case and surviving h-hat indices for a1*H1 - a2*H2, from the sign rules."""
    if a1 > 0 and a2 > 0:
        return "mixed", {n - 1, n}
    if a2 > 0:
        return "boundary", {2 * n - 1}
    return "boundary", {0}


def _scan_problem(item, output) -> str | None:
    (n, k, a1), (code, text) = item, output
    rows = list(csv.reader(io.StringIO(text)))
    header = ["n", "k", "a1", "a2", "case"] + [f"h_hat_{i}" for i in range(2 * n)] + ["verdict"]
    if code != 0 or not rows or rows[0] != header:
        return f"exit {code}, unexpected CSV header"
    if [row[3] for row in rows[1:]] != [str(a2) for a2 in SCAN_A2]:
        return "rows do not cover a2 = 0..20 in order"
    for row in rows[1:]:
        a2 = int(row[3])
        case, allowed = _allowed_indices(n, a1, a2)
        nonzero = {i for i, v in enumerate(row[5:5 + 2 * n]) if Fraction(v)}
        if row[:3] != [str(n), str(k), str(a1)] or row[4] != case or not nonzero <= allowed:
            return f"a2={a2}: case {row[4]}, nonzero h_hat at {sorted(nonzero)}"
    return None


def scan_digest(calls, outputs) -> str:
    """sha256 of the scan outputs in (n, k, a1) order, whatever order they ran in."""
    digest = hashlib.sha256()
    for _, output in sorted(zip(calls, outputs), key=lambda pair: pair[0]):
        digest.update(output[1].encode() if isinstance(output, tuple) else b"\0")
    return digest.hexdigest()


def purity_scan_check(calls, result: PassResult) -> None:
    _check_each(result, calls, _scan_problem)
    # one more attempted check: the whole output against the recorded digest
    result.attempted += 1
    digest = scan_digest(calls, result.outputs)
    if digest != PURITY_SCAN_SHA256:
        result.failures.append(f"output digest {digest} != recorded {PURITY_SCAN_SHA256}")


# ---------------------------------------------------------------------------
# cli_cache: each pool command once as a miss and once as a hit, one cache file


def cache_pool() -> list[list[str]]:
    """The distinct cached commands: bott, product, predict and asymptotics."""
    pool = [["bott", "--n", n, "--d", d] for n in range(1, 6) for d in range(-10, 12)]
    pool += [
        ["product", "--n", n, "--a1", a1, "--a2", a2]
        for n in range(1, 5) for a1 in range(-3, 4) for a2 in range(-3, 4)
    ]
    pool += [
        ["predict", "--n", n, "--k", k, "--A", A, "--B", B]
        for n in range(1, 4) for k in (1, 2) for A in range(6) for B in range(k, k + 6)
    ]
    pool += [
        ["asymptotics", "--n", n, "--k", k, "--a1", a1, "--a2", a2]
        for n in range(1, 5) for k in (1, 2) for a1 in range(4) for a2 in range(5)
        if (a1, a2) != (0, 0)
    ]
    return [[str(part) for part in command] for command in pool]


def cli_cache_inputs(seed: int) -> list[int]:
    """Pool indices in call order: each index twice, so the first call misses."""
    stream = [i for i in range(len(cache_pool())) for _ in range(2)]
    random.Random(seed).shuffle(stream)
    return stream


def _hits(stream) -> list[bool]:
    seen: set[int] = set()
    hits = []
    for index in stream:
        hits.append(index in seen)
        seen.add(index)
    return hits


def cli_cache_pass(stream, seed: int, cache_path: Path, mark=None) -> PassResult:
    pool = cache_pool()
    cache_path.unlink(missing_ok=True)

    def one_call(index):
        return _run_cli(pool[index] + ["--format", "json", "--cache", str(cache_path),
                                       "--seed", str(seed)])

    outputs, timing = _timed(stream, one_call, mark)
    result = PassResult(outputs, len(stream), 99, **timing, hits=_hits(stream))
    if cache_path.exists():
        result.cache_text = cache_path.read_text(encoding="utf-8")
        cache_path.unlink()
    return result


def cli_cache_check(stream, result: PassResult) -> None:
    pool = cache_pool()
    misses = {}
    for index, is_hit, output in zip(stream, _hits(stream), result.outputs):
        if not is_hit:
            misses[index] = output

    def problem(item, output):
        index, is_hit = item
        code, text = output
        if code != 0:
            return f"{' '.join(pool[index])}: exit {code}"
        if is_hit and output != misses[index]:
            return f"{' '.join(pool[index])}: hit output differs from the miss"
        return None

    _check_each(result, list(zip(stream, _hits(stream))), problem)
    # one more attempted check: the file holds one record per pool command
    # (format: one JSON object per line, documented in asympure.cache)
    result.attempted += 1
    lines = [line for line in result.cache_text.splitlines() if line.strip()]
    keys = {json.loads(line)["key"] for line in lines}
    if not len(lines) == len(keys) == len(misses):
        result.failures.append(
            f"cache file holds {len(lines)} records and {len(keys)} keys, expected {len(misses)}"
        )


# ---------------------------------------------------------------------------
# one measured process


WORKLOADS = {
    "engine_grid": (engine_grid_inputs, engine_grid_pass, engine_grid_check),
    "oracle_large": (oracle_large_inputs, oracle_large_pass, oracle_large_check),
    "purity_scan": (purity_scan_inputs, purity_scan_pass, purity_scan_check),
    "cli_cache": (cli_cache_inputs, cli_cache_pass, cli_cache_check),
}


def run_pass(workload: str, inputs, seed: int, out_dir: Path, mark=None) -> PassResult:
    """One timed pass over the inputs; mark(i) is called as operation i starts."""
    if workload == "cli_cache":
        return cli_cache_pass(inputs, seed, out_dir / f"cache-{os.getpid()}.jsonl", mark)
    return WORKLOADS[workload][1](inputs, seed, mark)


def _cli_counts(workload: str, result: PassResult) -> dict[str, int]:
    calls = [] if workload == "engine_grid" else [o for o in result.outputs if isinstance(o, tuple)]
    return {
        "cli.stdout_bytes": sum(len(text.encode()) for _, text in calls),
        "cli.nonzero_exits": sum(1 for code, _ in calls if code != 0),
    }


def summarize(result: PassResult) -> dict:
    """Per-pass report: unscaled wall time, per-op times and probes, and failures."""
    return {
        "wall_s": result.wall_s,
        "work": result.work,
        "tail_pct": result.tail_pct,
        "op_s": result.op_s,
        "probe": result.probe,
        "probe_s": result.probe_s,
        "op_probe_s": result.op_probe_s,
        "hits": result.hits,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "failures": result.failures[:20],
    }


def measure(workload: str, inputs, seed: int, mode: str, out_dir: Path) -> dict:
    """Run one plain or traced pass, check its outputs, and return its report."""
    check = WORKLOADS[workload][2]
    if mode == "plain":
        result = run_pass(workload, inputs, seed, out_dir)
        check(inputs, result)
        return summarize(result)
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        result = run_pass(workload, inputs, seed, out_dir, tracer.mark)
    check(inputs, result)
    result.wall_s -= tracer.excluded_s()
    result.failures += tracer.failures
    tracer.write_spans(out_dir / f"spans-{workload}.csv")
    layers = {**tracer.layer_metrics(), **_cli_counts(workload, result)}
    return {**summarize(result), "layers": layers}


def main(argv: list[str]) -> int:
    workload, seed, mode, launched, out_dir = argv
    inputs = WORKLOADS[workload][0](int(seed))
    report = {
        "mode": mode,
        "setup_s": time.monotonic() - float(launched),
        "python": sys.version.split()[0],
        "numpy": __import__("numpy").__version__,
    }
    if mode != "setup":
        report.update(measure(workload, inputs, int(seed), mode, Path(out_dir)))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
