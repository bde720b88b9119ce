"""Command-line front end: one binary, nine subcommands, exact output.

JSON is the canonical machine format; every integer in a result payload is
serialized as a decimal string so arbitrary-precision values survive
53-bit consumers, and rationals are serialized as "p/q".  Output is
deterministic: identical flags (including --seed) produce byte-identical
JSON.  An optional JSON-lines cache stores result payloads keyed by a
canonical parameter string; `verify` re-derives every cached record and
fails loudly on any mismatch.

Exit codes: 0 success, 1 verification or purity mismatch, 2 usage error,
3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import re
import sys
from fractions import Fraction

from .asymptotics import asymptotic_special_fiber, classify, purity_report
from .cache import ResultCache
from .oracle import (
    DEFAULT_SIZE_CAP,
    ContractionOperator,
    SizeCapError,
    build_matrix,
    exact_rank,
    load_operator,
    oracle_series,
    special_fiber_operator,
)
from .projspace import DivisorClass, bott_cohomology, euler_characteristic, kunneth_cohomology
from .reptheory import (
    kernel_series_rep,
    pieri_decompose,
    predict_map_analysis,
    source_target_dims,
    weyl_dimension,
)
from .verify import run_suite


def _stringify(value):
    """Integers to decimal strings, Fractions to p/q, recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return value


def _emit_json(command: str, params: dict, result) -> None:
    envelope = {"command": command, "params": params, "result": result}
    print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))


def _csv_cell(value) -> str:
    if isinstance(value, list):
        return ";".join(_csv_cell(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_csv_cell(v)}" for k, v in value.items())
    return str(value)


def _emit_csv_rows(header: list[str], rows: list[list], stream=None) -> None:
    out = stream or sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit(args, command: str, params: dict, result: dict, table_lines: list[str]) -> None:
    if args.format == "json":
        _emit_json(command, params, result)
    elif args.format == "csv":
        header = list(result)
        _emit_csv_rows(header, [[_csv_cell(result[k]) for k in header]])
    else:
        for line in table_lines:
            print(line)


def _with_cache(args, key: str, compute):
    """Return the (stringified) result payload, via the cache when enabled."""
    cache = ResultCache(args.cache) if getattr(args, "cache", None) else None
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    result = _stringify(compute())
    if cache is not None:
        cache.put(key, result)
    return result


def _parse_span(text: str) -> range:
    """'2..8' -> range(2, 9) (inclusive ends); '3' -> range(3, 4)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    value = int(text)
    return range(value, value + 1)


# ---------------------------------------------------------------------------
# payload builders


def _cohomology_payload(vec) -> dict:
    return {
        "n_ambient": vec.n_ambient,
        "values": list(vec.values),
        "support": list(vec.support()),
    }


def _rank_payload(result) -> dict:
    return {
        "dim_source": result.dim_source,
        "dim_target": result.dim_target,
        "rank": result.rank,
        "kernel_dim": result.kernel_dim,
        "cokernel_dim": result.cokernel_dim,
        "certified": result.certified,
    }


def _analysis_payload(analysis) -> dict:
    return {
        "kernel_dim": analysis.kernel_dim,
        "cokernel_dim": analysis.cokernel_dim,
        "kernel_labels": [[c.lambda1, c.lambda2] for c in analysis.kernel_labels],
        "cokernel_labels": [[c.lambda1, c.lambda2] for c in analysis.cokernel_labels],
    }


def _asymptotic_payload(n: int, label, vector) -> dict:
    return {
        "dim": vector.dim,
        "case": label.kind,
        "allowed_indices": sorted(label.allowed_indices),
        "values": [Fraction(v) for v in vector.values],
        "verdict": str(vector.purity),
    }


def _vector_table(vec) -> list[str]:
    lines = [f"h^{q} = {v}" for q, v in enumerate(vec.values) if v]
    return lines or ["all cohomology vanishes"]


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_bott(args) -> int:
    key = f"bott:n={args.n},d={args.d}"
    result = _with_cache(
        args, key, lambda: _cohomology_payload(bott_cohomology(args.n, args.d))
    )
    params = {"n": args.n, "d": args.d, "seed": args.seed, "size_cap": args.size_cap}
    vec = bott_cohomology(args.n, args.d)
    _emit(args, "bott", params, result, [f"O({args.d}) on P^{args.n}:"] + _vector_table(vec))
    return 0


def cmd_product(args) -> int:
    divisor = DivisorClass(args.a1, args.a2)
    key = f"product:n={args.n},a1={args.a1},a2={args.a2}"

    def compute():
        vec = kunneth_cohomology(args.n, divisor)
        payload = _cohomology_payload(vec)
        payload["euler"] = euler_characteristic(args.n, divisor)
        return payload

    result = _with_cache(args, key, compute)
    params = {
        "n": args.n, "a1": args.a1, "a2": args.a2,
        "seed": args.seed, "size_cap": args.size_cap,
    }
    vec = kunneth_cohomology(args.n, divisor)
    table = [f"O({args.a1}, {args.a2}) on P^{args.n} x P^{args.n}:"]
    table += _vector_table(vec)
    table.append(f"euler = {vec.euler()}")
    _emit(args, "product", params, result, table)
    return 0


def cmd_decompose(args) -> int:
    decomposition = pieri_decompose(args.n, args.A, args.B)
    components = [
        {
            "lambda1": c.lambda1,
            "lambda2": c.lambda2,
            "dim": weyl_dimension(args.n, c),
        }
        for c in decomposition.components
    ]
    result = _stringify(
        {
            "A": args.A,
            "B": args.B,
            "rank_n": args.n,
            "components": components,
            "total_dim": decomposition.dimension(),
        }
    )
    params = {"n": args.n, "A": args.A, "B": args.B, "seed": args.seed, "size_cap": args.size_cap}
    table = [f"Sym^{args.A} (x) Sym^{args.B} for SL({args.n + 1}):"]
    table += [f"  ({c['lambda1']}, {c['lambda2']})  dim {c['dim']}" for c in components]
    table.append(f"total = {decomposition.dimension()}")
    _emit(args, "decompose", params, result, table)
    return 0


def cmd_predict(args) -> int:
    key = f"predict:n={args.n},k={args.k},A={args.A},B={args.B}"

    def compute():
        analysis = predict_map_analysis(args.n, args.k, args.A, args.B)
        payload = _analysis_payload(analysis)
        src, tgt = source_target_dims(args.n, args.k, args.A, args.B)
        payload["dim_source"], payload["dim_target"] = src, tgt
        return payload

    result = _with_cache(args, key, compute)
    params = {
        "n": args.n, "k": args.k, "A": args.A, "B": args.B,
        "seed": args.seed, "size_cap": args.size_cap,
    }

    def labels_text(labels):
        return ", ".join(f"({l1}, {l2})" for l1, l2 in labels) or "none"

    table = [
        f"kernel_dim = {result['kernel_dim']}",
        f"cokernel_dim = {result['cokernel_dim']}",
        f"kernel_labels = {labels_text(result['kernel_labels'])}",
        f"cokernel_labels = {labels_text(result['cokernel_labels'])}",
    ]
    _emit(args, "predict", params, result, table)
    return 0


def _resolve_operator(args) -> tuple[ContractionOperator, str]:
    if getattr(args, "operator_file", None):
        op = load_operator(args.operator_file)
        if op.n != args.n or op.k != args.k:
            raise ValueError(
                f"operator file has (n, k) = ({op.n}, {op.k}), flags say ({args.n}, {args.k})"
            )
        return op, op.canonical_key()
    name = getattr(args, "operator", "special") or "special"
    if name != "special":
        raise ValueError(f"unknown operator {name!r}; use 'special' or --operator-file")
    return special_fiber_operator(args.n, args.k), "special"


def cmd_oracle(args) -> int:
    op, opkey = _resolve_operator(args)
    key = f"oracle:n={args.n},k={args.k},A={args.A},B={args.B},op={opkey}"

    def compute():
        matrix = build_matrix(op, args.A, args.B, size_cap=args.size_cap)
        return _rank_payload(exact_rank(matrix, seed=args.seed))

    result = _with_cache(args, key, compute)
    params = {
        "n": args.n, "k": args.k, "A": args.A, "B": args.B, "operator": opkey,
        "seed": args.seed, "size_cap": args.size_cap,
    }
    table = [f"{field} = {result[field]}" for field in
             ("dim_source", "dim_target", "rank", "kernel_dim", "cokernel_dim", "certified")]
    _emit(args, "oracle", params, result, table)
    return 0


def cmd_series(args) -> int:
    span = _parse_span(args.m)
    params = {
        "n": args.n, "k": args.k, "a1": args.a1, "a2": args.a2,
        "engine": args.engine, "m": args.m,
        "seed": args.seed, "size_cap": args.size_cap,
    }
    if args.engine == "rep":
        rows = [
            {"m": m, "kernel_dim": kd, "cokernel_dim": cd}
            for m, kd, cd in kernel_series_rep(args.n, args.k, args.a1, args.a2, span)
        ]
    else:
        op, opkey = _resolve_operator(args)
        params["operator"] = opkey
        rows = [
            {"m": m, **_rank_payload(rank)}
            for m, rank in oracle_series(
                op, args.n, args.k, args.a1, args.a2, span,
                seed=args.seed, size_cap=args.size_cap,
            )
        ]
    result = _stringify({"rows": rows})
    if args.format == "csv":
        header = list(rows[0])
        _emit_csv_rows(header, [[_csv_cell(r[k]) for k in header] for r in result["rows"]])
    elif args.format == "json":
        _emit_json("series", params, result)
    else:
        for row in rows:
            print("  ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def cmd_asymptotics(args) -> int:
    key = f"asymptotics:n={args.n},k={args.k},a1={args.a1},a2={args.a2}"

    def compute():
        label = classify(args.n, DivisorClass(args.a1, -args.a2))
        vector = asymptotic_special_fiber(args.n, args.k, args.a1, args.a2)
        return _asymptotic_payload(args.n, label, vector)

    result = _with_cache(args, key, compute)
    params = {
        "n": args.n, "k": args.k, "a1": args.a1, "a2": args.a2,
        "seed": args.seed, "size_cap": args.size_cap,
    }
    table = [f"case = {result['case']}"]
    table += [
        f"h_hat^{i} = {v}" for i, v in enumerate(result["values"]) if v != "0"
    ] or ["all asymptotic cohomology vanishes"]
    table.append(f"verdict = {result['verdict']}")
    _emit(args, "asymptotics", params, result, table)
    return 0


def cmd_scan(args) -> int:
    a1_span, a2_span = _parse_span(args.a1), _parse_span(args.a2)
    grid = [(a1, a2) for a1 in a1_span for a2 in a2_span]
    records = purity_report(args.n, args.k, grid, strict=False)
    width = 2 * args.n
    header = ["n", "k", "a1", "a2", "case"]
    header += [f"h_hat_{i}" for i in range(width)]
    header.append("verdict")
    rows = []
    impure = []
    for (a1, a2), (divisor, label, vector) in zip(grid, records):
        row = [args.n, args.k, a1, a2, label.kind]
        row += [str(Fraction(v)) for v in vector.values]
        row.append(str(vector.purity))
        rows.append(row)
        if vector.purity.kind == "impure":
            impure.append((a1, a2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            _emit_csv_rows(header, rows, stream=handle)
    params = {
        "n": args.n, "k": args.k, "a1": args.a1, "a2": args.a2,
        "seed": args.seed, "size_cap": args.size_cap,
    }
    if args.format == "json":
        result = _stringify(
            {"header": header, "rows": rows, "total": len(rows), "impure": impure}
        )
        _emit_json("scan", params, result)
    elif args.format == "csv" and not args.out:
        _emit_csv_rows(header, rows)
    else:
        counts: dict[str, int] = {}
        for _, _, vector in records:
            counts[vector.purity.kind] = counts.get(vector.purity.kind, 0) + 1
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        destination = f" -> {args.out}" if args.out else ""
        print(f"{len(rows)} rows ({summary}){destination}")
    if impure:
        print(f"error: impure verdicts at {impure}", file=sys.stderr)
        return 1
    return 0


def _operator_from_canonical(text: str) -> ContractionOperator:
    head, _, body = text.partition(":")
    match = re.fullmatch(r"n(\d+)k(\d+)", head)
    if match is None:
        raise ValueError(f"malformed operator key {text!r}")
    n, k = int(match.group(1)), int(match.group(2))
    terms = []
    for part in body.split("+"):
        coeff_s, _, monomials = part.partition("*")
        xs, _, ds = monomials.lstrip("x").partition("d")
        alpha = tuple(int(e) for e in xs.split("."))
        beta = tuple(int(e) for e in ds.split("."))
        terms.append((int(coeff_s), alpha, beta))
    return ContractionOperator(n, k, tuple(terms))


def _recompute_cached(key: str, seed: int, size_cap: int) -> dict:
    command, _, rest = key.partition(":")
    fields = dict(part.split("=", 1) for part in rest.split(","))
    if command == "bott":
        return _stringify(_cohomology_payload(bott_cohomology(int(fields["n"]), int(fields["d"]))))
    if command == "product":
        n, a1, a2 = int(fields["n"]), int(fields["a1"]), int(fields["a2"])
        payload = _cohomology_payload(kunneth_cohomology(n, DivisorClass(a1, a2)))
        payload["euler"] = euler_characteristic(n, DivisorClass(a1, a2))
        return _stringify(payload)
    if command == "predict":
        n, k = int(fields["n"]), int(fields["k"])
        A, B = int(fields["A"]), int(fields["B"])
        payload = _analysis_payload(predict_map_analysis(n, k, A, B))
        payload["dim_source"], payload["dim_target"] = source_target_dims(n, k, A, B)
        return _stringify(payload)
    if command == "oracle":
        n, k = int(fields["n"]), int(fields["k"])
        A, B = int(fields["A"]), int(fields["B"])
        opkey = fields["op"]
        op = special_fiber_operator(n, k) if opkey == "special" else _operator_from_canonical(opkey)
        matrix = build_matrix(op, A, B, size_cap=size_cap)
        return _stringify(_rank_payload(exact_rank(matrix, seed=seed)))
    if command == "asymptotics":
        n, k = int(fields["n"]), int(fields["k"])
        a1, a2 = int(fields["a1"]), int(fields["a2"])
        label = classify(n, DivisorClass(a1, -a2))
        return _stringify(_asymptotic_payload(n, label, asymptotic_special_fiber(n, k, a1, a2)))
    raise ValueError(f"unknown cache key prefix {command!r}")


def _verify_cache(path: str, seed: int, size_cap: int) -> int:
    """Recompute every cached record; return the number of mismatches."""
    failures = 0
    try:
        cache = ResultCache(path)
    except ValueError as exc:
        print(f"FAIL - cache file {path}: unreadable record ({exc})")
        return 1
    audited = {"certified"}  # seed-dependent certification detail, not a result integer
    for key, value in cache.items():
        try:
            fresh = _recompute_cached(key, seed, size_cap)
        except Exception as exc:
            print(f"FAIL - cache key {key}: cannot recompute ({exc})")
            failures += 1
            continue
        cached_core = {k: v for k, v in value.items() if k not in audited}
        fresh_core = {k: v for k, v in fresh.items() if k not in audited}
        if cached_core != fresh_core:
            print(f"FAIL - cache key {key}: cached value differs from recomputation")
            failures += 1
        else:
            print(f"PASS - cache key {key}")
    return failures


def cmd_verify(args) -> int:
    failures = run_suite(args.suite, seed=args.seed)
    if args.cache:
        failures += _verify_cache(args.cache, args.seed, args.size_cap)
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "table"), default="table")
    common.add_argument("--cache", metavar="PATH", default=None)
    common.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="asympure",
        description="Exact cohomology growth and asymptotic purity calculations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bott", parents=[common], help="cohomology of O(d) on P^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=cmd_bott)

    p = sub.add_parser("product", parents=[common], help="cohomology of O(a1, a2) on P^n x P^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("decompose", parents=[common], help="Pieri decomposition of Sym^A (x) Sym^B")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("predict", parents=[common], help="predicted kernel/cokernel of the contraction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("oracle", parents=[common], help="exact matrix rank of a contraction operator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--operator", default="special")
    p.add_argument("--operator-file", default=None)
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("series", parents=[common], help="kernel/cokernel series over a range of multiples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--m", required=True, help="range, e.g. 2..8")
    p.add_argument("--engine", choices=("rep", "oracle"), default="rep")
    p.add_argument("--operator", default="special")
    p.add_argument("--operator-file", default=None)
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("asymptotics", parents=[common], help="asymptotic cohomology on the special fiber")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.set_defaults(handler=cmd_asymptotics)

    p = sub.add_parser("scan", parents=[common], help="purity scan over a coefficient grid (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a1", required=True, help="range, e.g. 0..4")
    p.add_argument("--a2", required=True, help="range, e.g. 0..4")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("verify", parents=[common], help="cross-check the engines and any cache")
    p.add_argument("--suite", choices=("small", "full"), default="small")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
