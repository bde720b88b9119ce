"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json lists the same names and units; ``test_perfbench.py``
checks that the two agree.
"""

import statistics
import time
from fractions import Fraction

# End-to-end metrics, from untraced passes: name -> (unit, what it is).
# Times are scaled to the nominal machine speed (see "Speed probes" below).
END_TO_END = {
    "setup_s": ("s", "interpreter start until asympure is imported and the inputs exist"),
    "wall_s": ("s", "one pass over the workload's inputs, each operation at its median "
                    "over the run's passes"),
    "ops_per_s": ("1/s", "maps, calls, divisor classes or invocations per second of wall_s"),
    "op_p50_ms": ("ms", "median latency of one operation"),
    "op_tail_ms": ("ms", "p98 engine_grid, p97 purity_scan, p99 cli_cache, slowest of 5 calls "
                         "on oracle_large"),
    "peak_rss_mb": ("MB", "peak resident memory of the measured process"),
}

# Per-layer metrics, from traced passes.  Each span name becomes .calls,
# .self_s and .busy_s; with each metric goes the end-to-end metric and
# workload it should move.
SPANS = {
    "oracle.exact_rank": "wall_s, ops_per_s, op_tail_ms on engine_grid and oracle_large; "
                         "none on purity_scan and cli_cache",
    "oracle.build_matrix": "wall_s and peak_rss_mb on oracle_large; wall_s on engine_grid",
    "reptheory.predict_map_analysis": "wall_s on purity_scan; miss_p50_ms on cli_cache; "
                                      "none on engine_grid",
    "reptheory.kernel_series_rep": "wall_s on purity_scan; miss_p50_ms on cli_cache",
    "asymptotics.purity_report": "wall_s, ops_per_s on purity_scan",
    "asymptotics.asymptotic_special_fiber": "wall_s, ops_per_s on purity_scan",
    "asymptotics.fit_leading_coefficient": "wall_s, ops_per_s on purity_scan",
    "projspace.kunneth_cohomology": "miss_p50_ms on cli_cache; boundary classes of purity_scan",
    "projspace.bott_cohomology": "miss_p50_ms on cli_cache; boundary classes of purity_scan",
    "projspace.euler_characteristic": "boundary classes of purity_scan; miss_p50_ms on cli_cache",
    "cache.load": "hit_p50_ms, op_tail_ms, wall_s on cli_cache; zero elsewhere",
    "cache.get": "hit_p50_ms on cli_cache; zero elsewhere",
    "cache.put": "miss_p50_ms, wall_s on cli_cache; zero elsewhere",
    "cli.main": "op_p50_ms on purity_scan and cli_cache",
}
PER_LAYER = [
    metric
    for span, moves in SPANS.items()
    for metric in (
        (f"{span}.calls", "count", "lower", moves),
        (f"{span}.self_s", "s", "lower", moves),
        (f"{span}.busy_s", "s", "lower", moves),
    )
] + [
    ("reptheory.weyl_dimension.calls", "count", "lower",
     "wall_s on purity_scan; miss_p50_ms on cli_cache"),
    ("oracle.exact_rank.modular_probe_s", "s", "lower",
     "wall_s on engine_grid: self_s minus this estimates the Bareiss share"),
    ("oracle.eliminations_per_rank", "ratio", "lower",
     "wall_s on engine_grid (3 per exact-route rank); stays 2 on oracle_large"),
    ("oracle.exact_rank.exact_route", "count", "higher", "wall_s on engine_grid"),
    ("oracle.exact_rank.primes_drawn", "count", "lower", "wall_s on engine_grid and oracle_large"),
    ("oracle.exact_rank.retries", "count", "lower", "wall_s on engine_grid and oracle_large"),
    ("oracle.exact_rank.uncertified", "count", "lower",
     "error rate of engine_grid and oracle_large"),
    ("oracle.matrix.nnz", "count", "lower", "wall_s, peak_rss_mb on oracle_large and engine_grid"),
    ("oracle.matrix.basis_pairs", "count", "lower", "wall_s, peak_rss_mb on oracle_large"),
    ("oracle.blocks", "count", "higher", "wall_s on engine_grid and oracle_large"),
    ("oracle.largest_block_cells", "count", "lower", "op_tail_ms on engine_grid and oracle_large"),
    ("asymptotics.series_points", "count", "lower", "wall_s, ops_per_s on purity_scan"),
    ("asymptotics.not_stabilized", "count", "lower", "wall_s on purity_scan"),
    ("cache.load_bytes", "bytes", "lower", "hit_p50_ms, op_tail_ms, wall_s on cli_cache"),
    ("cache.records_loaded", "count", "lower", "hit_p50_ms, wall_s on cli_cache"),
    ("cache.put_bytes", "bytes", "lower", "miss_p50_ms on cli_cache"),
    ("cache.hits", "count", "higher", "op_p50_ms, wall_s on cli_cache"),
    ("cache.misses", "count", "lower", "op_p50_ms, wall_s on cli_cache"),
    ("cache.hit_ratio", "ratio", "higher", "op_p50_ms, wall_s on cli_cache"),
    ("cache.hit_p50_ms", "ms", "lower", "op_p50_ms, wall_s on cli_cache"),
    ("cache.miss_p50_ms", "ms", "lower", "op_p50_ms, wall_s on cli_cache"),
    ("cli.stdout_bytes", "bytes", "lower", "op_p50_ms on purity_scan and cli_cache"),
    ("cli.nonzero_exits", "count", "lower", "error rate of every CLI workload"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
]


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile of values."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def latency_ms(op_s: list[float], tail_pct: int | None) -> tuple[float, float]:
    """Median and tail latency in ms; the tail is the slowest op if tail_pct is None."""
    ms = [1e3 * t for t in op_s]
    tail = max(ms) if tail_pct is None else percentile(ms, tail_pct)
    return statistics.median(ms), tail


def hit_miss_ms(op_s: list[float], hits: list[bool]) -> dict[str, float]:
    """Median latency of the cache hits and of the misses, in ms."""
    return {
        "hit_p50_ms": 1e3 * statistics.median(t for t, h in zip(op_s, hits) if h),
        "miss_p50_ms": 1e3 * statistics.median(t for t, h in zip(op_s, hits) if not h),
    }


# Speed probes.  On a host shared with other tenants the machine's speed
# can flip between two levels many times a second, and a run can fall
# mostly in either.  A fixed piece of work, timed before each operation,
# after the last, and every PROBE_INTERVAL_S during an operation, reads the
# level; every operation's time is scaled by the probe's nominal time over
# the mean of the probes just before, during and just after it, giving its
# time on a machine where the probe takes its nominal time.  The probes are
# the benchmark's own code, so a change to the program moves the scaled
# times as it moves the raw ones.
#
# On a 2-vCPU Xeon KVM guest, the slow level cost pure-Python code about
# 1.75 times its time and numpy's vectorised elimination about 1.45 times,
# so each workload is probed with the kind of work it spends most of its
# time in: "numpy" for oracle_large, whose time is mostly modular
# elimination, and "python" for the rest.
# PROBES: name -> (work, nominal seconds of the fastest of three runs).
PROBE_INTERVAL_S = 0.02


def _python_work() -> Fraction:
    total = Fraction(0)
    table = {}
    for i in range(1, 25):
        total += Fraction(i, i + 1)
        table[i, i % 7] = pow(i, 5, 1000003)
    return total


def _numpy_work():
    import numpy as np

    prime = 1000003
    a = (np.arange(1600, dtype=np.int64).reshape(40, 40) ** 2 + 7) % prime
    for r in range(8):
        a[r] = a[r] * pow(int(a[r, r]), prime - 2, prime) % prime
        a[r + 1:] = (a[r + 1:] - np.outer(a[r + 1:, r], a[r])) % prime
    return a


PROBES = {"python": (_python_work, 5e-5), "numpy": (_numpy_work, 1.2e-4)}

# Set-up (starting an interpreter and importing) slowed less at the slow
# level than either probe, and about as much as a bare interpreter start:
# this program, started just before each set-up sample with the launch time
# as its argument, prints how long its start took; the sample is scaled to a
# machine where that start takes NOMINAL_START_S.
START_PROBE = "import sys, time, fractions, json; print(time.monotonic() - float(sys.argv[1]))"
NOMINAL_START_S = 0.035


def speed_probe(kind: str) -> float:
    """The fastest of three timings of the probe work, in seconds."""
    work, _ = PROBES[kind]
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t)
    return best


def scaled_op_s(report: dict) -> list[float]:
    """Each operation's time scaled to the nominal speed of its probe."""
    probes, nominal = report["probe_s"], PROBES[report["probe"]][1]
    return [took * nominal / statistics.mean([probes[i], probes[i + 1], *during])
            for i, (took, during) in enumerate(zip(report["op_s"], report["op_probe_s"]))]
