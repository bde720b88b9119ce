"""Command-line front end: one binary, nine subcommands, exact output.

JSON is the canonical machine format; every integer in a result payload is
serialized as a decimal string so arbitrary-precision values survive
53-bit consumers, and no payload holds a rational: every h-hat value is an
integer.  Output is
deterministic: identical flags produce byte-identical JSON.  Every
subcommand accepts --seed and echoes it in the JSON params, but no result
depends on it, since every rank is proven.

Six single-result commands (bott, product, decompose, predict, oracle,
asymptotics) are declared once, in CACHED: their help text, the fields of
their key name:field=value,..., how to compute their payload, and how to
draw their table from the payload.  Their flags are generated from the
fields, one handler serves all six, and each can keep its results in a
JSON-lines cache with --cache.  `verify --cache` parses every stored key
back into its fields and re-runs the same computation, failing loudly on
any mismatch and on a key that no call writes.  Only series, scan and
verify list their flags by hand, in COMMANDS, with each command's help line
and handler.

A call does only its own command's work.  Each flag is declared once, as
the keywords add_argument takes.  An argv of exact flags, each given once
with its value, is parsed from its command's table of these declarations,
built on first use: each value is converted by its flag's type and checked
against its choices, the Namespace equals argparse's, and no argparse
parser is built.  Any other argv (none, help, an unknown command, an
abbreviation, --flag=value, a repeat, a bad value, a leftover) goes to the
one argparse parser, built from the same declarations, so help, usage and
errors are argparse's own.  An empty --cache or --out path names no file,
so it is not the absent flag: it exits 2, or fails `verify --cache`'s check.
Each format is rendered only when asked for, and only `verify` imports the
verify suite.

Exit codes: 0 success, 1 verification or purity mismatch, 2 usage error,
3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import sys
from collections import Counter
from typing import Callable, NamedTuple

from .asymptotics import purity_report
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
from .projspace import (
    DivisorClass,
    bott_cohomology,
    euler_characteristic,
    kunneth_cohomology,
    source_target_dims,
)
from .reptheory import kernel_series_rep, pieri_decompose, predict_map_analysis, weyl_dimension


def _stringify(value):
    """Integers to decimal strings, recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return value


def _csv_cell(value, sep: str = ";") -> str:
    """A payload value as one CSV cell: a list's items joined by ';', an item's own by ' '."""
    if isinstance(value, list):
        return sep.join(_csv_cell(v, " ") for v in value)
    if isinstance(value, dict):
        # sorted, as in the JSON and the cache, so a miss prints what a hit does
        return sep.join(f"{k}={_csv_cell(v, ' ')}" for k, v in sorted(value.items()))
    return str(value)


def _write_csv(stream, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit(fmt: str, command: str, params: dict, result: dict,
          csv_rows: Callable[[], tuple[list[str], list[list]]],
          table_lines: Callable[[], list[str]], stringified: bool = False) -> None:
    """Print result as the JSON envelope, as header and rows of CSV, or as table lines.

    Each branch builds only its own format: csv_rows() returns the header and
    rows, table_lines() the lines.  Only the JSON branch reads result, and
    stringifies it unless it is stringified already.
    """
    if fmt == "json":
        payload = result if stringified else _stringify(result)
        envelope = {"command": command, "params": params, "result": payload}
        print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    elif fmt == "csv":
        _write_csv(sys.stdout, *csv_rows())
    else:
        for line in table_lines():
            print(line)


def _parse_span(text: str) -> range:
    """'2..8' -> range(2, 9) (inclusive ends); '3' -> range(3, 4).

    A malformed span such as '2..' and a reversed one such as '5..2' are a
    ValueError that quotes the span, not an empty range.
    """
    try:
        lo, hi = map(int, text.split("..")) if ".." in text else (int(text),) * 2
    except ValueError:
        raise ValueError(f"span {text!r} is not an integer or LO..HI") from None
    if hi < lo:
        raise ValueError(f"span {text!r} ends before it starts")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# payload builders


def _cohomology_payload(vec) -> dict:
    return {
        "n_ambient": vec.n_ambient,
        "values": list(vec.values),
        "support": list(vec.support()),
    }


# the fields of a RankResult in the order of a series row and of the oracle table
_RANK_FIELDS = ("dim_source", "dim_target", "rank", "kernel_dim", "cokernel_dim", "certified")


def _rank_payload(result) -> dict:
    return {field: getattr(result, field) for field in _RANK_FIELDS}


def _vector_table(values) -> list[str]:
    lines = [f"h^{q} = {v}" for q, v in enumerate(values) if v != "0"]
    return lines or ["all cohomology vanishes"]


# ---------------------------------------------------------------------------
# cached commands.  The layer functions are looked up by their names in this
# module when called, so rebinding a name here reaches both the handler and
# `verify --cache`.


def _bott(p, size_cap) -> dict:
    return _cohomology_payload(bott_cohomology(p["n"], p["d"]))


def _bott_table(p, result) -> list[str]:
    return [f"O({p['d']}) on P^{p['n']}:"] + _vector_table(result["values"])


def _product(p, size_cap) -> dict:
    divisor = DivisorClass(p["a1"], p["a2"])
    payload = _cohomology_payload(kunneth_cohomology(p["n"], divisor))
    payload["euler"] = euler_characteristic(p["n"], divisor)
    return payload


def _product_table(p, result) -> list[str]:
    header = f"O({p['a1']}, {p['a2']}) on P^{p['n']} x P^{p['n']}:"
    return [header] + _vector_table(result["values"]) + [f"euler = {result['euler']}"]


def _decompose(p, size_cap) -> dict:
    decomposition = pieri_decompose(p["n"], p["A"], p["B"])
    return {
        "A": p["A"],
        "B": p["B"],
        "rank_n": p["n"],
        "components": [
            {"lambda1": c.lambda1, "lambda2": c.lambda2, "dim": weyl_dimension(p["n"], c)}
            for c in decomposition.components
        ],
        "total_dim": decomposition.dimension(),
    }


def _decompose_table(p, result) -> list[str]:
    table = [f"Sym^{p['A']} (x) Sym^{p['B']} for SL({p['n'] + 1}):"]
    table += [f"  ({c['lambda1']}, {c['lambda2']})  dim {c['dim']}" for c in result["components"]]
    table.append(f"total = {result['total_dim']}")
    return table


def _predict(p, size_cap) -> dict:
    analysis = predict_map_analysis(p["n"], p["k"], p["A"], p["B"])
    dim_source, dim_target = source_target_dims(p["n"], p["k"], p["A"], p["B"])
    return {
        "kernel_dim": analysis.kernel_dim,
        "cokernel_dim": analysis.cokernel_dim,
        "kernel_labels": [[c.lambda1, c.lambda2] for c in analysis.kernel_labels],
        "cokernel_labels": [[c.lambda1, c.lambda2] for c in analysis.cokernel_labels],
        "dim_source": dim_source,
        "dim_target": dim_target,
    }


def _predict_table(p, result) -> list[str]:
    def labels_text(labels):
        return ", ".join(f"({l1}, {l2})" for l1, l2 in labels) or "none"

    return [
        f"kernel_dim = {result['kernel_dim']}",
        f"cokernel_dim = {result['cokernel_dim']}",
        f"kernel_labels = {labels_text(result['kernel_labels'])}",
        f"cokernel_labels = {labels_text(result['cokernel_labels'])}",
    ]


def _operator(n: int, k: int, key: str) -> ContractionOperator:
    """The operator an `op` field names: special, or a canonical key of the same (n, k)."""
    if key == "special":
        return special_fiber_operator(n, k)
    op = ContractionOperator.from_canonical_key(key)
    if (op.n, op.k) != (n, k):
        raise ValueError(f"operator has (n, k) = ({op.n}, {op.k}), key says ({n}, {k})")
    return op


def _oracle(p, size_cap) -> dict:
    matrix = build_matrix(_operator(p["n"], p["k"], p["op"]), p["A"], p["B"], size_cap=size_cap)
    return _rank_payload(exact_rank(matrix))


def _oracle_table(p, result) -> list[str]:
    return [f"{field} = {result[field]}" for field in _RANK_FIELDS]


def _asymptotics(p, size_cap) -> dict:
    _, label, vector = purity_report(p["n"], p["k"], [(p["a1"], p["a2"])])[0]
    return {
        "dim": vector.dim,
        "case": label.kind,
        "allowed_indices": sorted(label.allowed_indices),
        "values": list(vector.values),
        "verdict": str(vector.purity),
    }


def _asymptotics_table(p, result) -> list[str]:
    table = [f"case = {result['case']}"]
    table += [
        f"h_hat^{i} = {v}" for i, v in enumerate(result["values"]) if v != "0"
    ] or ["all asymptotic cohomology vanishes"]
    table.append(f"verdict = {result['verdict']}")
    return table


class Cached(NamedTuple):
    """A cached command, as its parser, its handler and `verify --cache` see it.

    fields are the cache-key fields in key order, and each is one flag:
    `op` is --operator/--operator-file and stays text, every other field is
    a required integer --<field>.  compute(params, size_cap) returns the
    payload and table(params, payload) its table lines.
    """

    help: str
    fields: tuple[str, ...]
    compute: Callable[[dict, int], dict]
    table: Callable[[dict, dict], list[str]]


CACHED = {
    "bott": Cached("cohomology of O(d) on P^n", ("n", "d"), _bott, _bott_table),
    "product": Cached("cohomology of O(a1, a2) on P^n x P^n",
                      ("n", "a1", "a2"), _product, _product_table),
    "decompose": Cached("Pieri decomposition of Sym^A (x) Sym^B",
                        ("n", "A", "B"), _decompose, _decompose_table),
    "predict": Cached("predicted kernel/cokernel of the contraction",
                      ("n", "k", "A", "B"), _predict, _predict_table),
    "oracle": Cached("exact matrix rank of a contraction operator",
                     ("n", "k", "A", "B", "op"), _oracle, _oracle_table),
    "asymptotics": Cached("asymptotic cohomology on the special fiber",
                          ("n", "k", "a1", "a2"), _asymptotics, _asymptotics_table),
}


def _cache_key(command: str, params: dict) -> str:
    """The key name:field=value,... of a cached command's params, in key order."""
    return f"{command}:" + ",".join(f"{name}={value}" for name, value in params.items())


def _parse_key(key: str) -> tuple[Cached, dict]:
    """Split name:field=value,... into its registry entry and typed fields.

    The key must be one a call writes, since no call reads any other: re-formed
    from its fields, with `op` as its operator's canonical_key, it is the same.
    """
    command, _, rest = key.partition(":")
    if command not in CACHED:
        raise ValueError(f"unknown cache key prefix {command!r}")
    entry = CACHED[command]
    pairs = [part.partition("=") for part in rest.split(",")]
    if [name for name, _, _ in pairs] != list(entry.fields):
        raise ValueError(f"expected the fields {','.join(entry.fields)}")
    params = {name: text if name == "op" else int(text) for name, _, text in pairs}
    if params.get("op", "special") != "special":
        params["op"] = ContractionOperator.from_canonical_key(params["op"]).canonical_key()
    canonical = _cache_key(command, params)
    if canonical != key:
        raise ValueError(f"a call writes this record under the key {canonical}")
    return entry, params


# ---------------------------------------------------------------------------
# subcommand handlers


def _operator_key(args) -> str:
    """The `op` field the operator flags name: special, or the operator file's canonical key."""
    if args.operator_file is not None:
        op = load_operator(args.operator_file)
        if op.n != args.n or op.k != args.k:
            raise ValueError(
                f"operator file has (n, k) = ({op.n}, {op.k}), flags say ({args.n}, {args.k})"
            )
        return op.canonical_key()
    if args.operator not in (None, "special"):
        raise ValueError(f"unknown operator {args.operator!r}; use 'special' or --operator-file")
    return "special"


def cmd_cached(args) -> int:
    """Any command in CACHED: key, cache lookup or compute-and-store, output."""
    entry = CACHED[args.command]
    params = {
        name: _operator_key(args) if name == "op" else getattr(args, name)
        for name in entry.fields
    }
    key = _cache_key(args.command, params)
    cache = ResultCache(args.cache) if args.cache is not None else None
    result = cache.get(key) if cache is not None else None
    if result is None:
        result = _stringify(entry.compute(params, args.size_cap))
        if cache is not None:
            cache.put(key, result)
    envelope = {("operator" if name == "op" else name): v for name, v in params.items()}
    envelope.update(seed=args.seed, size_cap=args.size_cap)

    def csv_rows():
        header = sorted(result)
        return header, [[_csv_cell(result[k]) for k in header]]

    _emit(args.format, args.command, envelope, result,
          csv_rows, lambda: entry.table(params, result), stringified=True)
    return 0


def cmd_series(args) -> int:
    span = _parse_span(args.m)
    params = {
        "n": args.n, "k": args.k, "a1": args.a1, "a2": args.a2,
        "engine": args.engine, "m": args.m,
        "seed": args.seed, "size_cap": args.size_cap,
    }
    if args.engine == "rep":
        if args.operator_file is not None or args.operator not in (None, "special"):
            flag = ("--operator-file" if args.operator_file is not None
                    else f"--operator {args.operator!r}")
            raise ValueError("the rep engine predicts only the special operator; "
                             f"drop {flag} or use --engine oracle")
        rows = [
            {"m": m, "kernel_dim": kd, "cokernel_dim": cd}
            for m, kd, cd in kernel_series_rep(args.n, args.k, args.a1, args.a2, span)
        ]
    else:
        params["operator"] = _operator_key(args)
        op = _operator(args.n, args.k, params["operator"])
        rows = [
            {"m": m, **_rank_payload(rank)}
            for m, rank in oracle_series(op, args.a1, args.a2, span, size_cap=args.size_cap)
        ]
    header = list(rows[0])
    _emit(args.format, "series", params, {"rows": rows},
          lambda: (header, [[row[k] for k in header] for row in rows]),
          lambda: ["  ".join(f"{k}={v}" for k, v in row.items()) for row in rows])
    return 0


def cmd_scan(args) -> int:
    n, k = args.n, args.k
    a1_span, a2_span = _parse_span(args.a1), _parse_span(args.a2)
    records = purity_report(n, k, [(a1, a2) for a1 in a1_span for a2 in a2_span])
    header = ["n", "k", "a1", "a2", "case", *(f"h_hat_{i}" for i in range(2 * n)), "verdict"]
    verdicts = [vector.purity for _, _, vector in records]
    kinds = [verdict.kind for verdict in verdicts]
    rows = [[n, k, a1, a2, label.kind, *map(str, vector.values), str(verdict)]
            for ((a1, a2), label, vector), verdict in zip(records, verdicts)]
    impure = [pair for (pair, _, _), kind in zip(records, kinds) if kind == "impure"]
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            _write_csv(handle, header, rows)
    params = {
        "n": args.n, "k": args.k, "a1": args.a1, "a2": args.a2,
        "seed": args.seed, "size_cap": args.size_cap,
    }
    result = {"header": header, "rows": rows, "total": len(rows), "impure": impure}
    counts = Counter(kinds)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    destination = f" -> {args.out}" if args.out is not None else ""
    # CSV written to --out leaves stdout the summary line
    fmt = "table" if args.out is not None and args.format == "csv" else args.format
    _emit(fmt, "scan", params, result,
          lambda: (header, rows), lambda: [f"{len(rows)} rows ({summary}){destination}"])
    if impure:
        print(f"error: impure verdicts at {impure}", file=sys.stderr)
        return 1
    return 0


def _verify_cache(path: str, size_cap: int) -> int:
    """Recompute every cached record; return the number of mismatches."""
    failures = 0
    try:
        cache = ResultCache(path)
        records = cache.items()  # checks every line
    except (ValueError, OSError) as exc:  # a corrupt record, or a path that is no file
        print(f"FAIL - cache file {path!r}: unreadable ({exc})")
        return 1
    if not cache.path.exists():
        print(f"FAIL - cache file {path!r}: not found")
        return 1
    for key, value in records:
        try:
            entry, params = _parse_key(key)
            fresh = _stringify(entry.compute(params, size_cap))
        except Exception as exc:
            print(f"FAIL - cache key {key}: cannot recompute ({exc})")
            failures += 1
            continue
        if value != fresh:
            print(f"FAIL - cache key {key}: cached value differs from recomputation")
            failures += 1
        else:
            print(f"PASS - cache key {key}")
    return failures


def cmd_verify(args) -> int:
    from .verify import run_suite  # only verify runs the suite, so only verify imports it

    failures = run_suite(args.suite)
    if args.cache is not None:
        failures += _verify_cache(args.cache, args.size_cap)
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def _size_cap(text: str) -> int:
    """--size-cap value: a basis size, so a negative one is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# A flag group is a tuple of (option, the keywords add_argument takes), of which an
# argv may give at most one: the two operator flags form one group, every other
# flag a group of its own.  Both the table parse and argparse are built from them.
def _flag(option: str, **kwargs) -> tuple[tuple[str, dict]]:
    return ((option, kwargs),)


# None means special: argparse counts a flag as given only when its value is not
# the default object, and an in-process argv may hold the interned "special"
_OPERATOR_FLAGS = (("--operator", {"default": None}), ("--operator-file", {"default": None}))

_SHARED_FLAGS = (
    _flag("--format", choices=("json", "csv", "table"), default="table"),
    _flag("--size-cap", type=_size_cap, default=DEFAULT_SIZE_CAP),
    _flag("--seed", type=int, default=0),
    _flag("--verbose", action="store_true", default=False),
)


def _command(text: str, handler: Callable, *flags) -> tuple[str, tuple, Callable]:
    return text, _SHARED_FLAGS + flags, handler


def _field_flags(*fields: str) -> tuple:
    """A required integer flag --<field> for each field, and the operator flags for op."""
    return tuple(_OPERATOR_FLAGS if field == "op" else _flag(f"--{field}", type=int, required=True)
                 for field in fields)


# every command's help line, flag groups and handler, in the order `asympure -h` lists them
COMMANDS = {
    **{command: _command(entry.help, cmd_cached, *_field_flags(*entry.fields),
                         _flag("--cache", metavar="PATH", default=None))
       for command, entry in CACHED.items()},
    "series": _command("kernel/cokernel series over a range of multiples", cmd_series,
                       *_field_flags("n", "k", "a1", "a2"),
                       _flag("--m", required=True, help="range, e.g. 2..8"),
                       _flag("--engine", choices=("rep", "oracle"), default="rep"),
                       _OPERATOR_FLAGS),
    "scan": _command("purity scan over a coefficient grid (CSV)", cmd_scan,
                     *_field_flags("n", "k"),
                     _flag("--a1", required=True, help="range, e.g. 0..4"),
                     _flag("--a2", required=True, help="range, e.g. 0..4"),
                     _flag("--out", default=None)),
    "verify": _command("cross-check the engines and any cache", cmd_verify,
                       _flag("--suite", choices=("small", "full"), default="small"),
                       _flag("--cache", metavar="PATH", default=None, help="cache file to audit")),
}


@functools.cache
def _table(command: str) -> tuple[dict, frozenset, dict]:
    """command's flag table, read off its declarations.

    Each exact option with (dest, group index, whether it takes no value,
    type, choices); the required groups; the Namespace argparse starts from:
    the command, every flag's default, then the handler.
    """
    _, groups, handler = COMMANDS[command]
    flags, required, defaults = {}, set(), {"command": command}
    for group, declared in enumerate(groups):
        for option, kwargs in declared:
            dest = option[2:].replace("-", "_")  # argparse's dest for a long option
            bare = kwargs.get("action") == "store_true"
            flags[option] = (dest, group, bare, kwargs.get("type"), kwargs.get("choices"))
            if kwargs.get("required"):
                required.add(group)
            # no flag here has a string default with a type, which argparse would convert
            defaults[dest] = kwargs.get("default")
    defaults["handler"] = handler
    return flags, frozenset(required), defaults


def _parse_plain(command: str, words: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives a well-formed argv of command, else None.

    Well-formed: each word is an exact flag of a group not given before,
    then its value unless the flag takes none; each value passes its
    flag's type and choices; every required flag is given.
    """
    flags, required, defaults = _table(command)
    values = dict(defaults)
    given = set()
    rest = iter(words)
    for word in rest:
        flag = flags.get(word)
        if flag is None:
            return None
        dest, group, bare, kind, choices = flag
        if group in given:
            return None
        given.add(group)
        if bare:
            values[dest] = True
            continue
        text = next(rest, None)
        # argparse may read a word that starts with '-' as a flag; the table takes one as
        # a value only if it is an ASCII integer, a negative number to argparse, since no
        # flag here looks like one
        if text is None or text[:1] == "-" and not (text[1:].isascii() and text[1:].isdigit()):
            return None
        try:
            value = text if kind is None else kind(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= given:
        return None
    return argparse.Namespace(**values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one argparse parser: help, usage, errors and the forms the table declines."""
    parser = argparse.ArgumentParser(
        prog="asympure",
        description="Exact cohomology growth and asymptotic purity calculations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, groups, handler) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for group in groups:
            add = (p.add_mutually_exclusive_group() if len(group) > 1 else p).add_argument
            for option, kwargs in group:
                add(option, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    if args is None:  # no command, help, an error or a rare form: argparse parses it
        args = _build_parser().parse_args(argv)
    # basicConfig acts only once per process, so the level is checked on every call;
    # setLevel clears every logger's level cache, so it runs only on a change
    logging.basicConfig(format="%(name)s: %(message)s")
    logger = logging.getLogger("asympure")
    level = logging.DEBUG if args.verbose else logging.WARNING
    if logger.level != level:
        logger.setLevel(level)
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
