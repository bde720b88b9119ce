"""Spans and counters around the calls into each layer, for the traced pass.

Only the traced pass installs these wrappers; end-to-end numbers always
come from untraced passes.  Each public function is wrapped under every
name a caller looks it up by (``asympure.cli.exact_rank``,
``asympure.exact_rank``, ...), so the spans see the same calls the
program makes.  A span is (name, start, end, parent span, operation id);
a layer's self time is its spans' durations minus the time their child
spans cover.

Bookkeeping the benchmark does inside the pass -- counting blocks, the
modular-route probe, file sizes -- runs in ``excluded`` regions.  Their
time is taken out of the traced wall time and out of every layer's self
time, so ``trace.overhead_s`` measures only the wrappers.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter

import asympure
from asympure import asymptotics, cache, cli, oracle, projspace, reptheory
from metrics import SPANS

NAMESPACES = (asympure, cli, asymptotics, reptheory, projspace, oracle)

# (defining module, function, span name); each becomes .calls, .self_s, .busy_s
TIMED = (
    (oracle, "build_matrix", "oracle.build_matrix"),
    (oracle, "exact_rank", "oracle.exact_rank"),
    (reptheory, "predict_map_analysis", "reptheory.predict_map_analysis"),
    (reptheory, "kernel_series_rep", "reptheory.kernel_series_rep"),
    (asymptotics, "purity_report", "asymptotics.purity_report"),
    (asymptotics, "asymptotic_special_fiber", "asymptotics.asymptotic_special_fiber"),
    (asymptotics, "fit_leading_coefficient", "asymptotics.fit_leading_coefficient"),
    (projspace, "kunneth_cohomology", "projspace.kunneth_cohomology"),
    (projspace, "bott_cohomology", "projspace.bott_cohomology"),
    (projspace, "euler_characteristic", "projspace.euler_characteristic"),
    (cache.ResultCache, "__init__", "cache.load"),
    (cache.ResultCache, "get", "cache.get"),
    (cache.ResultCache, "put", "cache.put"),
    (cli, "main", "cli.main"),
)
EXCLUDED = "trace.excluded"
COUNTED = ((reptheory, "weyl_dimension", "reptheory.weyl_dimension.calls"),)
COUNTERS = (
    "reptheory.weyl_dimension.calls",
    "oracle.exact_rank.modular_probe_s",
    "oracle.exact_rank.exact_route",
    "oracle.exact_rank.primes_drawn",
    "oracle.exact_rank.retries",
    "oracle.exact_rank.uncertified",
    "oracle.matrix.nnz",
    "oracle.matrix.basis_pairs",
    "oracle.blocks",
    "oracle.largest_block_cells",
    "asymptotics.series_points",
    "asymptotics.not_stabilized",
    "cache.load_bytes",
    "cache.records_loaded",
    "cache.put_bytes",
    "cache.hits",
    "cache.misses",
)


def blocks(matrix) -> list[tuple[int, int]]:
    """(rows, columns) of each block: columns joined when they share a row."""
    parent = list(range(matrix.shape[0]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for col in matrix.columns:
        if col:
            root = find(col[0][0])
            for r, _ in col[1:]:
                other = find(r)
                if other != root:
                    parent[other] = root
    cols = Counter(find(col[0][0]) for col in matrix.columns if col)
    rows = Counter(find(r) for r in {r for col in matrix.columns for r, _ in col})
    return [(rows[root], n) for root, n in cols.items()]


class Tracer:
    """Wraps the package's public functions and records spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack = [-1]
        self.op = 0
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self._exact_rank = oracle.exact_rank
        self._exact_limit = inspect.signature(oracle.exact_rank).parameters["exact_limit"].default
        self._hooks = {
            "oracle.build_matrix": (None, self._after_build),
            "oracle.exact_rank": (None, self._after_rank),
            "asymptotics.fit_leading_coefficient": (None, self._after_fit),
            "cache.load": (None, self._after_load),
            "cache.get": (None, self._after_get),
            "cache.put": (self._file_size, self._after_put),
        }

    # -- recording ---------------------------------------------------------

    def mark(self, op: int) -> None:
        """Operation op of the pass starts; later spans carry its id."""
        self.op = op

    @contextlib.contextmanager
    def excluded(self):
        """Benchmark bookkeeping: a child span that no layer is charged for."""
        index = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (EXCLUDED, start, time.perf_counter(),
                                 self.stack[-1], self.op)

    def _wrap(self, name: str, fn):
        before, after = self._hooks.get(name, (None, None))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                with self.excluded():
                    state = before(args, kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1], self.op)
                if after is not None:
                    with self.excluded():
                        after(args, kwargs, result, error, state)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of the wrapped functions; restore on exit."""
        saved = []

        def replace(owner, attr, wrapper, original):
            for target in [owner] if isinstance(owner, type) else NAMESPACES:
                if vars(target).get(attr) is original:
                    saved.append((target, attr, original))
                    setattr(target, attr, wrapper)

        try:
            for owner, attr, name in TIMED:
                original = getattr(owner, attr)
                replace(owner, attr, self._wrap(name, original), original)
            for owner, attr, name in COUNTED:
                original = getattr(owner, attr)
                replace(owner, attr, self._count(name, original), original)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    # -- counters ------------------------------------------------------------

    def _after_build(self, args, kwargs, matrix, error, state) -> None:
        if matrix is not None:
            self.counts["oracle.matrix.nnz"] += matrix.nnz
            self.counts["oracle.matrix.basis_pairs"] += matrix.shape[1]

    def _after_rank(self, args, kwargs, result, error, state) -> None:
        if result is None:
            return
        matrix = args[0]
        exact = max(matrix.shape) <= kwargs.get("exact_limit", self._exact_limit)
        c = self.counts
        c["oracle.exact_rank.exact_route"] += exact
        c["oracle.exact_rank.primes_drawn"] += len(result.primes)
        c["oracle.exact_rank.retries"] += max(0, len(result.primes) - 2)
        c["oracle.exact_rank.uncertified"] += not result.certified
        c["oracle.eliminations"] += len(result.primes) + exact
        shapes = blocks(matrix)
        c["oracle.blocks"] += len(shapes)
        cells = max((r * n for r, n in shapes), default=0)
        c["oracle.largest_block_cells"] = max(c["oracle.largest_block_cells"], cells)
        # The same matrix on the modular route alone: its time, and the same rank.
        start = time.perf_counter()
        probe = self._exact_rank(matrix, seed=kwargs.get("seed", 0), exact_limit=0)
        c["oracle.exact_rank.modular_probe_s"] += time.perf_counter() - start
        if probe.rank != result.rank:
            self.failures.append(
                f"modular probe rank {probe.rank} != {result.rank} on a "
                f"{matrix.shape[0]}x{matrix.shape[1]} matrix"
            )

    def _after_fit(self, args, kwargs, result, error, state) -> None:
        self.counts["asymptotics.series_points"] += len(args[0])
        if isinstance(error, asymptotics.SeriesNotStabilized):
            self.counts["asymptotics.not_stabilized"] += 1

    def _after_load(self, args, kwargs, result, error, state) -> None:
        loaded = args[0]
        if loaded.path.exists():
            self.counts["cache.load_bytes"] += loaded.path.stat().st_size
        self.counts["cache.records_loaded"] += len(loaded.items())

    def _after_get(self, args, kwargs, result, error, state) -> None:
        self.counts["cache.hits" if result is not None else "cache.misses"] += 1

    @staticmethod
    def _file_size(args, kwargs) -> int:
        path = args[0].path
        return path.stat().st_size if path.exists() else 0

    def _after_put(self, args, kwargs, result, error, state) -> None:
        self.counts["cache.put_bytes"] += self._file_size(args, kwargs) - state

    # -- results -------------------------------------------------------------

    def _durations(self):
        """(name, busy, self) per span; busy leaves out excluded time inside it."""
        count = len(self.spans)
        hidden = [0.0] * count  # excluded time inside each span
        covered = [0.0] * count  # time inside each span covered by its children
        for index in range(count - 1, -1, -1):  # children come after their parent
            name, start, end, parent, _ = self.spans[index]
            if parent >= 0:
                covered[parent] += end - start
                hidden[parent] += end - start if name == EXCLUDED else hidden[index]
        for index, (name, start, end, _, _) in enumerate(self.spans):
            yield name, end - start - hidden[index], end - start - covered[index]

    def excluded_s(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == EXCLUDED)

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and busy_s per span name, plus the counters."""
        out: dict[str, float] = {}
        for span in SPANS:
            out.update({f"{span}.calls": 0, f"{span}.self_s": 0.0, f"{span}.busy_s": 0.0})
        for name, busy, own in self._durations():
            if name in SPANS:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += own
                out[f"{name}.busy_s"] += busy
        c = self.counts
        out.update({name: c[name] for name in COUNTERS})
        ranks = out["oracle.exact_rank.calls"]
        out["oracle.eliminations_per_rank"] = c["oracle.eliminations"] / ranks if ranks else 0.0
        lookups = c["cache.hits"] + c["cache.misses"]
        out["cache.hit_ratio"] = c["cache.hits"] / lookups if lookups else 0.0
        return out

    def write_spans(self, path) -> None:
        """One line per span: name,start_s,end_s,parent,op."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
