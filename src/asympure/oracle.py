"""Brute-force engine: exact matrices of contraction operators and their ranks.

A contraction operator acts on Sym^A (x) Sym^B by multiplying the first
factor with monomials and differentiating the second; its matrix between
monomial bases has exact integer entries (falling factorials, stored as
Python ints since they outgrow 64 bits for large B).

Ranks are computed over the rationals, one weight block at a time.  When
every term of the operator has the same shift alpha - beta, the operator
preserves the weight u + v of a basis pair x^u (x) y^v, so the matrix is
block diagonal by weight.  The transpositions of coordinates that map the
operator's own term set to itself permute those blocks without changing
their ranks, so build_matrix records only one representative weight per
orbit, with the orbit's size, and exact_rank ranks each representative
block, built from one table of hits per source monomial, all monomials
coded as integers.  The code base is the smallest power of two above
A + B + k, so it depends on a map only through its size; the codes, the hit
tables and the orbit representatives are built once per key and kept, and
the maps of one operator share them.  The representatives are enumerated
class by class of interchangeable coordinates, from the non-increasing
tuples of each class's total, without the degree-(A+B) monomial basis.

A weight block is a function of (op, B, min(w, B)) alone, for every
operator with a single shift: its columns are the sources v with |v| = B
and v <= w, that is v <= min(w, B) coordinate by coordinate (|v| = B bounds
each coordinate by B), each with u = w - v.  They come in ascending order
of v's code, since u's code is w's code less v's and no digit borrows.
The entry of a term in v's column is coeff times the falling factorial of
v at beta, which depends on v and the term only, and two entries share a
row exactly when v1 - alpha1 = v2 - alpha2, since their targets are
u + alpha = w - (v - alpha).  So the entries, the shape and the order of
rows and columns do not depend on w beyond min(w, B), nor on A or the code
base.  exact_rank keeps each ranked block's facts (shape, rank, route),
never its entries, in one table per (op, B) keyed by
min(w, B), and every later class with that key reads them instead of
building and ranking its block again.  So a block is built only when its
key is new, and the full column list only when something reads
matrix.columns: the golden layout, to_dense, nnz, and operators that do not
preserve weight, whose connected components are ranked in the same loop,
each a class of its own.  Every rank is a proof, by one of three routes
(exact_rank states the rule): a block whose shorter side's vectors lead at
distinct positions is already in echelon form and needs no arithmetic; any
other block of full rank modulo the small fixed prime 2039 is proven by
that elimination, and a deficient one by Bareiss elimination, each row
packed into one integer (see _rank_mod_p).  Every route reads a block by
its shorter side, from the entries as they were built: the certificate
and the elimination read a tall block's entries transposed in place,
every elimination runs from the last column, and only Bareiss builds a
transposed copy.

The matrix layout is part of the golden-test contract: bases are ordered
graded-lexicographically (within the fixed degree, exponent tuples in
descending lex order, so x0^d comes first) and a pair basis is indexed
first-factor-major.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from math import factorial, perm, prod
from pathlib import Path
from typing import Callable, ClassVar, Iterable

from .projspace import feasible_multiples, source_target_dims

logger = logging.getLogger(__name__)

# Exponent tuple of a monomial; its degree is the sum of the entries.
Monomial = tuple[int, ...]
# One block of a matrix in its own indices: (row, column, value) entries and
# (rows, cols), counting nonempty ones only.
Block = tuple[list[tuple[int, int, int]], tuple[int, int]]
# Per source v's code, its hits (alpha's code, beta's code, value); see _hit_table.
HitTable = dict[int, tuple[tuple[int, int, int], ...]]
# One orbit representative weight w of a map: (w's code, orbit size, min(w, B)).
WeightClass = tuple[int, int, Monomial]
# What exact_rank keeps of a ranked block: ((rows, cols), rank, route), the
# shape as built and the route of exact_rank's rule that proved the rank.
BlockFacts = tuple[tuple[int, int], int, str]
# What build_matrix records of a map that preserves weight: the _block_facts
# table of (op, B), the map's classes, and a function from w's code to its Block.
WeightClasses = tuple[dict[Monomial, BlockFacts], tuple[WeightClass, ...], Callable[[int], Block]]

DEFAULT_SIZE_CAP = 200_000

# A block without an echelon certificate is eliminated modulo this prime
# first (the rule is in exact_rank).  It is small, so the packed slots of _rank_mod_p are narrow:
# nrows * 2039**2 < 2**32 up to 1033 rows, and each pivot's -1/lead mod 2039 is read
# from the table of _minus_inverses, built once per process on first use.
_PROOF_PRIME = 2039


class SizeCapError(ValueError):
    """Requested bases exceed the configured size cap."""


@lru_cache(maxsize=None)
def monomial_basis(n: int, degree: int) -> tuple[Monomial, ...]:
    """Monomial basis of Sym^degree(C^(n+1)) in graded-lex order.

    >>> monomial_basis(1, 2)
    ((2, 0), (1, 1), (0, 2))
    """
    if degree < 0:
        return ()
    if n == 0:
        return ((degree,),)
    out: list[Monomial] = []
    for e in range(degree, -1, -1):
        for tail in monomial_basis(n - 1, degree - e):
            out.append((e, *tail))
    return tuple(out)


# one term of a canonical operator key: coeff*x<alpha>d<beta>
_KEY_TERM = re.compile(r"(-?\d+)\*x(\d+(?:\.\d+)*)d(\d+(?:\.\d+)*)")


@dataclass(frozen=True)
class ContractionOperator:
    """Bihomogeneous operator sum of coeff * x^alpha (x) d^beta of bidegree (k, -k).

    Each term multiplies the first tensor factor by x^alpha and applies the
    differential operator d^beta to the second, with |alpha| = |beta| = k.
    The sum has at least one term: the zero operator has no canonical key.
    """

    n: int
    k: int
    terms: tuple[tuple[int, Monomial, Monomial], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n, k >= 1, got n={self.n}, k={self.k}")
        if not self.terms:
            raise ValueError("an operator needs at least one term")
        seen: set[tuple[Monomial, Monomial]] = set()
        for coeff, alpha, beta in self.terms:
            if coeff == 0:
                raise ValueError("term coefficients must be nonzero")
            for v in (alpha, beta):
                if len(v) != self.n + 1 or any(e < 0 for e in v):
                    raise ValueError(f"exponent vector {v} must have {self.n + 1} nonnegative entries")
            if sum(alpha) != self.k or sum(beta) != self.k:
                raise ValueError(
                    f"term ({alpha}, {beta}) must have degree {self.k} on both sides"
                )
            if (alpha, beta) in seen:
                raise ValueError(f"duplicate term ({alpha}, {beta})")
            seen.add((alpha, beta))

    def canonical_key(self) -> str:
        """Deterministic string form, e.g. n2k1:-1*x0.1.0d0.1.0+1*x1.0.0d1.0.0.

        Terms are sorted by (alpha, beta), so operators with the same terms
        share a key.  Used for cache keys; from_canonical_key is its inverse.
        """
        parts = [
            f"{coeff}*x{'.'.join(map(str, alpha))}d{'.'.join(map(str, beta))}"
            for coeff, alpha, beta in sorted(self.terms, key=lambda t: (t[1], t[2]))
        ]
        return f"n{self.n}k{self.k}:" + "+".join(parts)

    @classmethod
    def from_canonical_key(cls, text: str) -> "ContractionOperator":
        """The operator whose canonical_key is text; ValueError if malformed."""
        head, _, body = text.partition(":")
        match = re.fullmatch(r"n(\d+)k(\d+)", head)
        terms = [_KEY_TERM.fullmatch(part) for part in body.split("+")]
        if match is None or not all(terms):
            raise ValueError(f"malformed operator key {text!r}")
        return cls(int(match[1]), int(match[2]), tuple(
            (int(coeff), tuple(map(int, xs.split("."))), tuple(map(int, ds.split("."))))
            for coeff, xs, ds in (term.groups() for term in terms)
        ))

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContractionOperator":
        """The operator of a JSON document with fields n, k, terms; ValueError if malformed.

        n, k and coeff must be JSON integers and alpha, beta lists of them:
        a float, a bool or a string is refused, never truncated or iterated.
        """

        def integer(value) -> int:
            if type(value) is not int:  # bool is a subclass of int
                raise ValueError(f"expected a JSON integer, got {value!r}")
            return value

        def integers(value) -> Monomial:
            if type(value) is not list:
                raise ValueError(f"expected a list of JSON integers, got {value!r}")
            return tuple(integer(e) for e in value)

        try:
            terms = tuple(
                (integer(t["coeff"]), integers(t["alpha"]), integers(t["beta"]))
                for t in data["terms"]
            )
            return cls(integer(data["n"]), integer(data["k"]), terms)
        except KeyError as exc:
            raise ValueError(f"operator document missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed operator document ({exc})") from exc


def load_operator(path: str | Path) -> ContractionOperator:
    """Read a ContractionOperator from a JSON document with fields n, k, terms.

    A document that cannot be read as one raises ValueError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return ContractionOperator.from_json_dict(json.load(handle))
    except ValueError as exc:
        raise ValueError(f"operator file {path}: {exc}") from exc


def special_fiber_operator(n: int, k: int) -> ContractionOperator:
    """The contraction (sum_i x_i (x) d_i)^k: diagonal terms with multinomial coefficients.

    >>> [t[0] for t in special_fiber_operator(1, 2).terms]
    [1, 2, 1]
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    terms = tuple(
        (factorial(k) // prod(factorial(e) for e in alpha), alpha, alpha)
        for alpha in monomial_basis(n, k)
    )
    return ContractionOperator(n, k, terms)


def apply_term(
    coeff: int, alpha: Monomial, beta: Monomial, u: Monomial, v: Monomial
) -> tuple[int, Monomial, Monomial] | None:
    """Apply coeff * x^alpha (x) d^beta to the basis element x^u (x) y^v.

    Returns (scale, u + alpha, v - beta) with the falling-factorial scale
    from true differentiation, or None when d^beta kills y^v.

    >>> apply_term(1, (1, 0, 0), (1, 0, 0), (0, 0, 0), (2, 0, 0))
    (2, (1, 0, 0), (1, 0, 0))
    """
    scale = coeff
    for vj, bj in zip(v, beta):
        if bj:
            if vj < bj:
                return None
            for t in range(bj):
                scale *= vj - t
    return (
        scale,
        tuple(a + b for a, b in zip(u, alpha)),
        tuple(a - b for a, b in zip(v, beta)),
    )


class SparseIntMatrix:
    """Column-major sparse matrix with exact integer entries.

    shape is (rows, cols) = (dim_target, dim_source); columns[j] holds the
    image of the j-th source basis pair as (row, value) pairs.  Columns
    passed as a tuple must number cols and hold each row at most once,
    each in range(rows); ValueError otherwise.  columns may instead be passed as a
    function of no arguments that returns them: it is called the first
    time columns is read, its result kept and not checked.  build_matrix
    passes one, so a rank taken on the weight classes never builds the
    columns.  build_matrix also passes the WeightClasses of an operator
    that preserves weight, and exact_rank ranks those classes; None: each
    connected component of the columns is a class of its own.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        columns: tuple[tuple[tuple[int, int], ...], ...] | Callable,
        weight_classes: WeightClasses | None = None,
    ):
        if not callable(columns):
            if len(columns) != shape[1]:
                raise ValueError(f"shape has {shape[1]} columns, got {len(columns)}")
            for j, col in enumerate(columns):
                rows = [r for r, _ in col]
                if not all(0 <= r < shape[0] for r in rows):
                    raise ValueError(f"column {j} has a row outside range({shape[0]}): {rows}")
                if len(set(rows)) < len(rows):
                    raise ValueError(f"column {j} repeats a row: {rows}")
        self.shape = shape
        self._columns = columns
        self._weight_classes = weight_classes

    @property
    def columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        if callable(self._columns):
            self._columns = self._columns()
        return self._columns

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self.columns)

    def to_dense(self) -> list[list[int]]:
        rows, _ = self.shape
        dense = [[0] * len(self.columns) for _ in range(rows)]
        for j, col in enumerate(self.columns):
            for r, val in col:
                dense[r][j] = val
        return dense


def build_matrix(
    op: ContractionOperator, A: int, B: int, size_cap: int = DEFAULT_SIZE_CAP
) -> SparseIntMatrix:
    """Matrix of op from Sym^A (x) Sym^B to Sym^(A+k) (x) Sym^(B-k).

    B in [0, k) is allowed and yields a matrix with zero rows (the target
    space is zero); that case carries real content for small multiples in
    series scans.  Bases follow the graded-lex contract, and the size cap
    applies to the full bases.  When op preserves weight, build_matrix
    passes exact_rank its WeightClasses: each orbit representative weight w
    with its orbit's size and its key min(w, B), the block-facts table of
    (op, B), and a function that builds a class's block.  The full column
    list is built the first time matrix.columns is read.  All are read off
    tables kept across calls, each built once per key: the monomial codes
    per (n, degree, base), the per-v hits per (op, B, base) and the orbit
    representatives per (op, A + B), enumerated per class without the
    degree-(A+B) basis, so maps of one operator share them.
    """
    n, k = op.n, op.k
    if A < 0 or B < 0:
        raise ValueError(f"source exponents must be >= 0, got A={A}, B={B}")
    dim_source, dim_target = source_target_dims(n, k, A, B)
    if dim_source > size_cap or dim_target > size_cap:
        raise SizeCapError(
            f"basis sizes {dim_source} (source) and {dim_target} (target) "
            f"exceed the cap {size_cap}"
        )
    base = _code_base(k, A + B)
    hits = _hit_table(op, B, base)
    orbits = _orbit_representatives(op, A + B)
    weight_classes = None
    if orbits is not None:
        classes = tuple(
            (w_code, multiplicity, tuple([e if e < B else B for e in w]))
            for w_code, multiplicity, w in orbits
        )
        weight_block = partial(_weight_block, _basis_codes(n, A, base), hits)
        weight_classes = (_block_facts(op, B), classes, weight_block)
    return SparseIntMatrix(
        (dim_target, dim_source), partial(_build_columns, op, A, B, base, hits), weight_classes
    )


# Each monomial is coded as an integer in a base above every exponent that
# occurs, with x0 the most significant digit: multiplying by x^alpha adds
# alpha's code, d^beta subtracts beta's, and among monomials of one degree a
# larger code comes earlier in graded-lex (descending lex) order.  The base is
# the smallest power of two above A + B + k, so it depends on the map only
# through its size, and maps of one operator share their codes and tables.
def _code_base(k: int, degree: int) -> int:
    """The code base of an operator of degree k on Sym^A (x) Sym^B, A + B = degree."""
    return 1 << (degree + k).bit_length()


def _code(e: Monomial, base: int) -> int:
    out = 0
    for digit in e:
        out = out * base + digit
    return out


@lru_cache(maxsize=None)
def _basis_codes(n: int, degree: int, base: int) -> tuple[int, ...]:
    """The codes of monomial_basis(n, degree), in its order."""
    return tuple(_code(e, base) for e in monomial_basis(n, degree))


@lru_cache(maxsize=None)
def _hit_table(op: ContractionOperator, B: int, base: int) -> HitTable:
    """Per source v of degree B, in basis order, the terms that survive on y^v.

    Each hit is (alpha's code, beta's code, coeff * falling factorial); a
    falling factorial is zero when d^beta kills y^v.  Hits are ordered alpha
    descending, then beta ascending: for every source u that is the row order
    of the column of (u, v), since a larger alpha gives an earlier u + alpha
    and a smaller beta an earlier v - beta.  Terms are distinct, so no two
    hits reach one target pair.  Callers only read the table.
    """
    terms = sorted(
        ((_code(alpha, base), _code(beta, base), coeff, beta) for coeff, alpha, beta in op.terms),
        key=lambda t: (-t[0], t[1]),
    )
    return {
        v_code: tuple((a, b, c * f) for a, b, c, beta in terms if (f := prod(map(perm, v, beta))))
        for v_code, v in zip(_basis_codes(op.n, B, base), monomial_basis(op.n, B))
    }


def _build_columns(
    op: ContractionOperator, A: int, B: int, base: int, hits: HitTable
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every column in graded-lex order, first-factor-major, from the per-v table.

    The pair (u + alpha, v - beta) is row (position of u + alpha) * width +
    (position of v - beta), so one offset per source u and alpha, and one
    target row per hit of each v, give each column by integer adds alone.
    """
    n, k = op.n, op.k
    target_u = {c: i for i, c in enumerate(_basis_codes(n, A + k, base))}
    target_v = {c: i for i, c in enumerate(_basis_codes(n, B - k, base))}
    width = len(target_v)
    alphas = dict.fromkeys(a for row in hits.values() for a, _, _ in row)
    slot = {a: s for s, a in enumerate(alphas)}
    offsets = [tuple([target_u[u + a] * width for a in slot]) for u in _basis_codes(n, A, base)]
    v_rows = [[(slot[a], target_v[v - b], val) for a, b, val in row] for v, row in hits.items()]
    return tuple(
        tuple([(offset[a] + vrow, val) for a, vrow, val in row])
        for offset in offsets
        for row in v_rows
    )


@lru_cache(maxsize=None)
def _interchangeable_classes(op: ContractionOperator) -> tuple[tuple[int, ...], ...] | None:
    """Classes of coordinates whose transpositions map op's term set to itself.

    Such transpositions generate the full symmetric group on each class,
    since (i k) = (i j)(j k)(i j); so one member stands in for its class.
    None when the terms have more than one shift alpha - beta, since then op
    has no weight blocks.
    """
    if len({tuple(a - b for a, b in zip(alpha, beta)) for _, alpha, beta in op.terms}) > 1:
        return None
    terms = set(op.terms)

    def swapped(e: Monomial, i: int, j: int) -> Monomial:
        e = list(e)
        e[i], e[j] = e[j], e[i]
        return tuple(e)

    classes: list[list[int]] = []
    for j in range(op.n + 1):
        for cls in classes:
            i = cls[0]
            if all(
                (coeff, swapped(alpha, i, j), swapped(beta, i, j)) in terms
                for coeff, alpha, beta in op.terms
            ):
                cls.append(j)
                break
        else:
            classes.append([j])
    return tuple(map(tuple, classes))


@lru_cache(maxsize=None)
def _sorted_values(size: int, total: int) -> tuple[tuple[Monomial, int], ...]:
    """Each non-increasing tuple of size values summing to total, with its rearrangements.

    The tuples come in descending lex order, and a tuple's distinct
    rearrangements number size! / prod(count!) over its values' counts.
    """
    if size == 1:
        return (((total,), 1),)
    out = []
    for first in range(total, -1, -1):
        if first * size < total:  # the other values, at most first each, cannot make up the rest
            break
        for rest, _ in _sorted_values(size - 1, total - first):
            if rest[0] <= first:
                values = (first, *rest)
                counts = Counter(values).values()
                out.append((values, factorial(size) // prod(map(factorial, counts))))
    return tuple(out)


@lru_cache(maxsize=None)
def _orbit_representatives(
    op: ContractionOperator, degree: int
) -> tuple[tuple[int, int, Monomial], ...] | None:
    """(code, multiplicity, weight) of each orbit representative weight of the degree, or None.

    Every term maps weight w = u + v to w + alpha - beta, so with a single
    shift the columns of one weight share no rows with any other weight.  A
    permutation of the coordinates that fixes the term set maps the block
    of weight w to that of the permuted w by a permutation of rows and
    columns.  The representative of an orbit has w non-increasing within
    each class of interchangeable coordinates; the multiplicity counts the
    distinct rearrangements of w within the classes.  None when op does not
    preserve weight.

    The representatives are enumerated class by class: each class takes a
    total, the totals sum to the degree, and each class takes each
    non-increasing tuple of its total (_sorted_values).  A monomial of the
    degree that is non-increasing within every class splits into exactly one
    such choice, so these are the weights that filtering monomial_basis(n,
    degree) keeps, with the product of the classes' rearrangement counts as
    multiplicity.  Sorted by code, descending, they come in that basis's
    graded-lex order, since every exponent is below the code base; so the
    tuple equals the filter's without building the basis.
    """
    classes = _interchangeable_classes(op)
    if classes is None:
        return None
    # (values of the classes so far, in class order; multiplicity; their total)
    chosen = [((), 1, 0)]
    for i, cls in enumerate(classes):
        last = i == len(classes) - 1
        chosen = [
            (values + more, multiplicity * count, used + total)
            for values, multiplicity, used in chosen
            for total in ((degree - used,) if last else range(degree - used + 1))
            for more, count in _sorted_values(len(cls), total)
        ]
    order = [c for cls in classes for c in cls]
    position = [order.index(c) for c in range(op.n + 1)]
    base = _code_base(op.k, degree)
    reps = []
    for values, multiplicity, _ in chosen:
        w = tuple([values[at] for at in position])
        reps.append((_code(w, base), multiplicity, w))
    reps.sort(reverse=True)
    return tuple(reps)


def _weight_block(u_codes: tuple[int, ...], hits: HitTable, w_code: int) -> Block:
    """The entries and (rows, cols) of the weight-w block; (0, 0) when it is empty.

    The block of weight w has as columns the source pairs (u, w - u) with
    u <= w, in graded-lex order of u, less the empty ones.  A coordinate of
    w - u below zero forces a borrow, which adds the base less one to the
    digit sum, so w_code - u_code is the code of a degree-B source v exactly
    when u <= w.  In one block the target u + alpha fixes the target pair,
    so its code keys the row.
    """
    rows: dict[int, int] = {}
    entries = []
    col = 0
    for u_code in u_codes:
        u_hits = hits.get(w_code - u_code)
        if u_hits:
            for a, _, val in u_hits:
                entries.append((rows.setdefault(u_code + a, len(rows)), col, val))
            col += 1
    return entries, (len(rows), col)


@lru_cache(maxsize=None)
def _block_facts(op: ContractionOperator, B: int) -> dict[Monomial, BlockFacts]:
    """The facts of each weight block of op at source degree B ranked so far, by min(w, B).

    exact_rank fills it.  The key determines the block whatever A and the
    code base (see the module docstring), and no entries are kept.
    """
    return {}


@dataclass(frozen=True)
class RankResult:
    """Exact rank data for one contraction matrix.

    Every rank exact_rank returns is proven by one of its three routes
    (echelon form, full rank modulo 2039, Bareiss), and none of them draws
    a random prime, so certified is always True and primes always ().
    """

    dim_source: int
    dim_target: int
    rank: int
    kernel_dim: int
    cokernel_dim: int
    certified: ClassVar[bool] = True
    primes: ClassVar[tuple[int, ...]] = ()

    def __post_init__(self) -> None:
        if self.kernel_dim != self.dim_source - self.rank:
            raise ValueError("rank-nullity violated on the source side")
        if self.cokernel_dim != self.dim_target - self.rank:
            raise ValueError("rank-nullity violated on the target side")
        if not 0 <= self.rank <= min(self.dim_source, self.dim_target):
            raise ValueError("rank out of range")


def _connected_components(
    matrix: SparseIntMatrix,
) -> list[tuple[list[int], list[int]]]:
    """Partition the support into (rows, cols) blocks with no shared rows.

    Rank is additive across the blocks.  Graded operators decompose into
    many small weight blocks, which keeps the dense eliminations tiny; the
    decomposition is pure sparsity structure, valid for any matrix.
    """
    parent = list(range(len(matrix.columns)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    row_owner: dict[int, int] = {}
    for ci, col in enumerate(matrix.columns):
        for r, _ in col:
            if r in row_owner:
                rx, ry = find(ci), find(row_owner[r])
                if rx != ry:
                    parent[ry] = rx
            else:
                row_owner[r] = ci
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for ci, col in enumerate(matrix.columns):
        if col:
            groups.setdefault(find(ci), ([], []))[1].append(ci)
    for r, owner in row_owner.items():
        groups[find(owner)][0].append(r)
    return [(sorted(rows), cols) for rows, cols in groups.values()]


def _component_blocks(matrix: SparseIntMatrix) -> list[Block]:
    """The connected components as blocks."""
    columns, blocks = matrix.columns, []
    for rows, cols in _connected_components(matrix):
        local = {r: i for i, r in enumerate(rows)}
        entries = [(local[r], j, val) for j, c in enumerate(cols) for r, val in columns[c]]
        blocks.append((entries, (len(rows), len(cols))))
    return blocks


def _distinct_ends(
    entries: list[tuple[int, int, int]], nrows: int, ncols: int, transpose: bool = False
) -> tuple[int, int]:
    """How many distinct first and distinct last nonzero columns the rows have.

    entries are (row, column, value) at distinct positions, or (column,
    row, value) when transpose is set: _rank_block reads a tall block by its
    columns in place.  Entries of value 0 count as absent, and a row with no
    nonzero entry makes both counts 0.
    """
    first = [ncols] * nrows
    last = [-1] * nrows
    if transpose:
        for col, row, val in entries:
            if val:
                if col < first[row]:
                    first[row] = col
                if col > last[row]:
                    last[row] = col
    else:
        for row, col, val in entries:
            if val:
                if col < first[row]:
                    first[row] = col
                if col > last[row]:
                    last[row] = col
    if -1 in last:
        return 0, 0
    return len(set(first)), len(set(last))


@lru_cache(maxsize=None)
def _minus_inverses() -> tuple[int, ...]:
    """-1/x mod _PROOF_PRIME at index x of range(_PROOF_PRIME), and 0 at index 0.

    Built on first use by the recurrence -1/x = -(p // x) * (-1/(p mod x))
    mod p, which holds since p = (p // x) * x + p mod x is 0 mod p.
    """
    p = _PROOF_PRIME
    table = [0, p - 1]
    for x in range(2, p):
        table.append(-(p // x) * table[p % x] % p)
    return tuple(table)


def _rank_mod_p(
    entries: list[tuple[int, int, int]], nrows: int, ncols: int, p: int, transpose: bool = False
) -> int:
    """Rank of the block modulo the prime p, by inserting packed rows one at a time.

    entries are (row, column, value) at distinct positions, or (column,
    row, value) when transpose is set: _rank_block reads a tall block by its
    columns in place, so that fewer rows are inserted.  Each row is one
    Python int: its entries modulo p sit in slots of W bits,
    W = (nrows * p * p).bit_length(), column j in slot ncols - 1 - j, so
    every elimination runs from the last column.

    pivots maps a slot to the reduced row that leads there, with
    -1/lead mod p: read from the table of _minus_inverses when p is
    _PROOF_PRIME, else computed by pow, so no other prime builds a table.
    Each row is kept shifted so that its current slot is its lowest one,
    and walks up from its first nonzero slot: a run of zero slots is
    skipped in one shift, and a lead slot that is a nonzero multiple of p
    is zero mod p and shifted out.  At a slot that has a
    pivot, one big-integer multiply-add, row += lead * (-1/lead mod p) *
    pivot_row, clears the lead and the row moves on, its slots unreduced.
    At a slot without one the row becomes its pivot, reduced mod p slot by
    slot if an update touched it (an untouched row's slots are below p
    already); a row that runs out of slots is dependent.  The rank is the
    number of pivots.

    Every slot stays below nrows * p * p < 2**W, so none carries into the
    next: a slot starts below p; a row meets each pivot at most once, since
    its slot only grows; there are at most nrows - 1 pivots while a row
    is inserted; and each update adds a product of two residues, below
    p * p.
    """
    width = (nrows * p * p).bit_length()
    mask = (1 << width) - 1
    high = (ncols - 1) * width  # the shift of column 0
    rows = [0] * nrows
    if transpose:
        for j, i, val in entries:
            rows[i] += val % p << high - j * width
    else:
        for i, j, val in entries:
            rows[i] += val % p << high - j * width
    pivots: dict[int, tuple[int, int]] = {}
    minus_inverses = _minus_inverses() if p == _PROOF_PRIME else None
    for row in rows:
        slot = 0
        touched = False
        while row:
            lead = row & mask
            if not lead:
                # the slot of the lowest set bit, which may be its slot's top bit
                skip = ((row & -row).bit_length() - 1) // width
                row >>= skip * width
                slot += skip
                lead = row & mask
            lead %= p
            if lead:
                pivot = pivots.get(slot)
                if pivot is None:
                    if touched:
                        row = sum((row >> s & mask) % p << s
                                  for s in range(0, row.bit_length(), width))
                    minus_inv = minus_inverses[lead] if minus_inverses else p - pow(lead, -1, p)
                    pivots[slot] = (row, minus_inv)
                    break
                pivot_row, minus_inv = pivot
                row += lead * minus_inv % p * pivot_row
                touched = True
            row >>= width
            slot += 1
    return len(pivots)


def _rank_bareiss(
    entries: list[tuple[int, int, int]], nrows: int, ncols: int
) -> int:
    """Exact rank by fraction-free (Bareiss) elimination over the integers."""
    a = [[0] * ncols for _ in range(nrows)]
    for i, j, val in entries:
        a[i][j] = val
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        pivot_row = a[r]
        pivot = pivot_row[c]
        for i in range(r + 1, nrows):
            row = a[i]
            lead = row[c]
            for j in range(c + 1, ncols):
                row[j] = (pivot * row[j] - lead * pivot_row[j]) // prev
            row[c] = 0
        prev = pivot
        r += 1
    return r


def _rank_block(entries: list[tuple[int, int, int]], shape: tuple[int, int]) -> BlockFacts:
    """The facts of one block, ranked by the first of exact_rank's three routes that applies.

    Every route reads the block's shorter side as its rows: the
    certificate and the elimination read a tall block's entries transposed
    in place, and only Bareiss builds a transposed copy; the facts keep the
    block's own shape.  Rows with distinct first nonzero
    positions, sorted by them, form an echelon matrix with nonzero integer
    pivots, so the rank over Q is nrows with no arithmetic or prime;
    distinct last positions give the same, reversed.
    """
    nrows, ncols = shape
    transpose = nrows > ncols
    if transpose:
        nrows, ncols = ncols, nrows
    if nrows in _distinct_ends(entries, nrows, ncols, transpose):
        return shape, nrows, "echelon"
    if _rank_mod_p(entries, nrows, ncols, _PROOF_PRIME, transpose) == nrows:
        return shape, nrows, "modular"
    if transpose:
        entries = [(j, i, val) for i, j, val in entries]
    return shape, _rank_bareiss(entries, nrows, ncols), "bareiss"


def exact_rank(
    matrix: SparseIntMatrix,
    *,
    seed: int = 0,
    exact_limit: int = 40,
) -> RankResult:
    """Rank of the matrix over the rationals, with kernel/cokernel dimensions.

    One loop ranks the classes of blocks that share no rows: the weight
    classes of build_matrix, each counted with its orbit's multiplicity, or
    else the connected components of the sparsity pattern, found from
    matrix.columns, each a class of multiplicity 1.  The rank is the sum of
    multiplicity x block rank, and each block is ranked by the first of
    three routes that applies, all proofs:

    1. A block whose shorter side's vectors have distinct first nonzero
       positions, or distinct last ones, is in echelon form once they are
       sorted, with nonzero integer pivots: its rank over Q is
       min(rows, cols), with no elimination (_rank_block has the proof).
    2. Any other block is eliminated modulo the fixed prime
       _PROOF_PRIME = 2039, always from its last column: a vector of the
       shorter side whose last nonzero position no earlier one holds
       becomes a pivot at no cost (the structural pivots of
       Faugere-Lachartre, PASCO 2010).  On the weight blocks of the
       special fiber this order is the faster on nearly every block, and a
       column permutation changes no rank.  Rank modulo
       any prime is at most the rank over Q, so a block whose rank mod
       2039 is min(rows, cols) has that rank over Q.
    3. A block of lower rank mod 2039 is ranked exactly by fraction-free
       (Bareiss) elimination, whatever its width.

    A block's facts (shape, rank, route) are kept under its class's key,
    and a later class with that key reads them without building its block:
    a weight block's key is top = min(w, B) in the _block_facts table of
    (op, B), so it is ranked once per process, and a component's is its
    index in a table local to the call.  The loop only sums the rank and
    notes which class built each new key; the DEBUG statistics are read
    from the table in a second pass over the classes, run only when DEBUG
    is on.  Their field shared counts the classes whose key existed before
    them, in this call or an earlier one, and columns_built the columns of
    the blocks built in this call, so both depend on the calls before; on
    the component route they are 0 and every column.

    seed and exact_limit are accepted for older callers and ignored.
    """
    dim_target, dim_source = matrix.shape
    weight_classes = matrix._weight_classes
    if weight_classes is None:  # each component is a class of its own, keyed by its index
        blocks = _component_blocks(matrix)
        weight_classes = {}, [(i, 1, i) for i in range(len(blocks))], blocks.__getitem__
    table, classes, weight_block = weight_classes
    rank = 0
    builder = {}  # the index of the class that built each new key
    for i, (w_code, multiplicity, top) in enumerate(classes):
        facts = table.get(top)
        if facts is None:
            facts = table[top] = _rank_block(*weight_block(w_code))
            builder[top] = i
        rank += multiplicity * facts[1]
    if logger.isEnabledFor(logging.DEBUG):
        nblocks = shared = columns = 0
        routes = {"echelon": 0, "modular": 0, "bareiss": 0}
        largest = (0, 0)
        for i, (_, _, top) in enumerate(classes):
            shape, _, route = table[top]
            if shape[1]:  # a weight class may have no nonempty column
                nblocks += 1
                if builder.get(top) == i:
                    columns += shape[1]
                else:
                    shared += 1
                routes[route] += 1
                largest = max(largest, shape, key=prod)
        built = dim_source if matrix._weight_classes is None else columns
        logger.debug(
            "rank %d of %dx%d matrix: %d blocks, largest %dx%d, %d in echelon form, "
            "%d full rank modulo %d, %d by Bareiss, built %d of %d columns",
            rank, dim_target, dim_source, nblocks, *largest, routes["echelon"],
            routes["modular"], _PROOF_PRIME, routes["bareiss"], built, dim_source,
            extra={"blocks": nblocks, "largest_block": largest, "routes": routes,
                   "columns_built": built, "shared": shared},
        )
    return RankResult(
        dim_source=dim_source,
        dim_target=dim_target,
        rank=rank,
        kernel_dim=dim_source - rank,
        cokernel_dim=dim_target - rank,
    )


def oracle_series(
    op: ContractionOperator,
    a1: int,
    a2: int,
    m_range: Iterable[int],
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> list[tuple[int, RankResult]]:
    """Per-multiple rank results for op along the special-fiber exponent schedule.

    n and k are the operator's own.  The multiples, their exponents (A, B)
    and the errors are those of feasible_multiples; each multiple's rank is
    exact_rank(build_matrix(op, A, B)).
    """
    return [
        (m, exact_rank(build_matrix(op, A, B, size_cap=size_cap)))
        for m, A, B in feasible_multiples(op.n, op.k, a1, a2, m_range)
    ]
