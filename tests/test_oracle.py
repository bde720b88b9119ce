import functools
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from math import factorial, prod

import pytest

from asympure import (
    ContractionOperator,
    RankResult,
    SizeCapError,
    SparseIntMatrix,
    apply_term,
    build_matrix,
    exact_rank,
    load_operator,
    monomial_basis,
    oracle_series,
    predict_map_analysis,
    special_fiber_operator,
)
from asympure import oracle

E0, E1, E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def corner_operator(terms: int) -> ContractionOperator:
    return ContractionOperator(2, 1, tuple((1, e, e) for e in (E0, E1, E2)[:terms]))


def three_shift_operator() -> ContractionOperator:
    # x0 (x) d0 + x1 (x) d0 + x0 (x) d1: three shifts, so no weight blocks
    return ContractionOperator(2, 1, ((1, E0, E0), (1, E1, E0), (1, E0, E1)))


def proof_prime_multiple() -> SparseIntMatrix:
    """The dense [[2039, 2039], [1, 2]]: determinant 2039, rank 1 modulo 2039.

    Both columns lead at row 0 and end at row 1, so it has no echelon
    certificate and the modular and Bareiss routes rank it.
    """
    p = oracle._PROOF_PRIME
    return SparseIntMatrix((2, 2), (((0, p), (1, 1)), ((0, p), (1, 2))))


def representative_blocks(matrix: SparseIntMatrix) -> list:
    """(entries, shape, orbit size) of each nonempty representative block of the map."""
    _, classes, weight_block = matrix._weight_classes
    return [(*block, multiplicity) for w_code, multiplicity, _ in classes
            if (block := weight_block(w_code))[1][1]]


TABLES = (oracle._basis_codes, oracle._hit_table, oracle._interchangeable_classes,
          oracle._sorted_values, oracle._orbit_representatives, oracle._block_facts)


def clear_tables() -> None:
    """Forget every table the oracle keeps across calls, the block facts included."""
    for table in TABLES:
        table.cache_clear()


def reversed_columns(entries, ncols):
    """The entries with column j moved to ncols - 1 - j.

    _rank_mod_p packs column j into slot ncols - 1 - j, so it eliminates the
    reversed entries in the order of the slots j = 0, 1, ...
    """
    return [(i, ncols - 1 - j, val) for i, j, val in entries]


def echelon_rank(entries, nrows, ncols):
    """The block's rank if _rank_block proves it by the echelon route, else None."""
    _, rank, route = oracle._rank_block(entries, (nrows, ncols))
    return rank if route == "echelon" else None


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The (rows, cols) of each block that exact_rank ranks by Bareiss, in order."""
    calls = []
    bareiss = oracle._rank_bareiss

    def counted(entries, nrows, ncols):
        calls.append((nrows, ncols))
        return bareiss(entries, nrows, ncols)

    monkeypatch.setattr(oracle, "_rank_bareiss", counted)
    return calls


class TestMonomialBasis:
    def test_graded_lex_order(self):
        assert monomial_basis(1, 2) == ((2, 0), (1, 1), (0, 2))
        assert monomial_basis(2, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_counts(self):
        assert len(monomial_basis(2, 5)) == 21
        assert monomial_basis(2, 0) == ((0, 0, 0),)
        assert monomial_basis(2, -1) == ()


class TestContractionOperator:
    def test_special_fiber_k2_on_p1(self):
        op = special_fiber_operator(1, 2)
        assert set(op.terms) == {
            (1, (2, 0), (2, 0)),
            (2, (1, 1), (1, 1)),
            (1, (0, 2), (0, 2)),
        }

    def test_special_fiber_k1_on_p2(self):
        op = special_fiber_operator(2, 1)
        assert [t[0] for t in op.terms] == [1, 1, 1]
        assert all(alpha == beta for _, alpha, beta in op.terms)

    def test_special_fiber_k2_on_p2_coefficients(self):
        op = special_fiber_operator(2, 2)
        assert sorted(t[0] for t in op.terms) == [1, 1, 1, 2, 2, 2]

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            ContractionOperator(2, 1, ((0, E0, E0),))

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            ContractionOperator(2, 2, ((1, E0, E0),))

    def test_rejects_duplicate_terms(self):
        with pytest.raises(ValueError):
            ContractionOperator(2, 1, ((1, E0, E0), (2, E0, E0)))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(
            '{"n": 2, "k": 1, "terms": ['
            '{"coeff": 1, "alpha": [1, 0, 0], "beta": [1, 0, 0]}, '
            '{"coeff": 1, "alpha": [0, 1, 0], "beta": [0, 1, 0]}]}'
        )
        assert load_operator(path) == corner_operator(2)

    def test_load_rejects_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "k": 1}')
        with pytest.raises(ValueError, match="terms"):
            load_operator(path)

    @pytest.mark.parametrize("op", [
        *(special_fiber_operator(n, k) for n in range(1, 5) for k in range(1, 4)),
        corner_operator(1),
        corner_operator(2),
        ContractionOperator(2, 1, ((2, E0, E2), (-1, E1, E1), (1, E0, E0))),
    ])
    def test_canonical_key_round_trip(self, op):
        key = op.canonical_key()
        parsed = ContractionOperator.from_canonical_key(key)
        assert parsed.canonical_key() == key
        assert set(parsed.terms) == set(op.terms)

    @pytest.mark.parametrize("key", [
        "special", "n2k1", "n2k1:", "n2k1:zz", "m2k1:1*x1.0.0d1.0.0",
        "n2k1:1*x1.0.0", "n2k1:1*x1.0.0d1.0.0+", "n2k1:1.5*x1.0.0d1.0.0",
        "n2k1:1*x1.0d1.0.0",  # exponent vector of the wrong length
        "n2k1:0*x1.0.0d1.0.0",  # zero coefficient
        "n2k1:1*x1.0.0d1.0.0+2*x1.0.0d1.0.0",  # duplicate term
    ])
    def test_malformed_canonical_key_raises(self, key):
        with pytest.raises(ValueError):
            ContractionOperator.from_canonical_key(key)


class TestApplyTerm:
    def test_differentiation_scale(self):
        # d_0 applied to y_0^2 picks up the falling factorial 2
        zero = (0, 0, 0)
        assert apply_term(1, E0, E0, zero, (2, 0, 0)) == (2, (1, 0, 0), (1, 0, 0))

    def test_kills_missing_variable(self):
        zero = (0, 0, 0)
        assert apply_term(1, E0, E0, zero, (0, 2, 0)) is None

    def test_product_rule_via_operator(self):
        # (x0 d0 + x1 d1) on x0 (x) y0 y1 = x0^2 (x) y1 + x0 x1 (x) y0
        op = special_fiber_operator(1, 1)
        u, v = (1, 0), (1, 1)
        images = {}
        for coeff, alpha, beta in op.terms:
            hit = apply_term(coeff, alpha, beta, u, v)
            if hit:
                scale, u2, v2 = hit
                images[(u2, v2)] = images.get((u2, v2), 0) + scale
        assert images == {((2, 0), (0, 1)): 1, ((1, 1), (1, 0)): 1}


class TestBuildMatrix:
    def test_shape_special_fiber(self):
        matrix = build_matrix(special_fiber_operator(2, 1), 1, 1)
        assert matrix.shape == (6, 9)

    def test_shape_corner(self):
        matrix = build_matrix(corner_operator(1), 2, 1)
        assert matrix.shape == (10, 18)

    def test_degenerate_target_factor(self):
        # B = k: the target second factor is Sym^0, so dim = C(A+k+n, n) * 1
        matrix = build_matrix(special_fiber_operator(2, 2), 3, 2)
        assert matrix.shape == (21, 60)

    def test_zero_target(self):
        # B < k: zero-dimensional target, every column empty
        matrix = build_matrix(corner_operator(1), 1, 0)
        assert matrix.shape == (0, 3)
        assert matrix.nnz == 0

    def test_golden_dense_matrix(self):
        # graded-lex layout is part of the contract; frozen by hand for
        # (x0 d0 + x1 d1) from Sym^1 (x) Sym^1 to Sym^2 (x) Sym^0 on P^1
        matrix = build_matrix(special_fiber_operator(1, 1), 1, 1)
        assert matrix.to_dense() == [
            [1, 0, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 1],
        ]

    def test_size_cap_names_both_dimensions(self):
        with pytest.raises(SizeCapError) as err:
            build_matrix(special_fiber_operator(2, 1), 100, 100, size_cap=10_000)
        assert "source" in str(err.value) and "target" in str(err.value)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            build_matrix(special_fiber_operator(2, 1), -1, 3)


class TestExactRank:
    def test_zero_matrix(self):
        matrix = SparseIntMatrix((3, 4), ((), (), (), ()))
        result = exact_rank(matrix)
        assert result.rank == 0
        assert result.kernel_dim == 4
        assert result.cokernel_dim == 3
        assert result.certified

    def test_injective_case(self):
        # A = 0, B = k: the contraction maps Sym^0 (x) Sym^k isomorphically
        for k in (1, 2):
            matrix = build_matrix(special_fiber_operator(2, k), 0, k)
            result = exact_rank(matrix)
            assert result.rank == result.dim_source
            assert result.kernel_dim == 0

    def test_big_golden(self):
        matrix = build_matrix(special_fiber_operator(2, 1), 9, 3)
        result = exact_rank(matrix)
        assert (result.rank, result.kernel_dim, result.cokernel_dim) == (396, 154, 0)
        assert result.certified

    @pytest.mark.parametrize("build", [
        lambda: build_matrix(corner_operator(2), 11, 10),
        proof_prime_multiple,
    ], ids=["corner", "entry"])
    def test_ignored_keywords_have_no_effect(self, build):
        # seed and exact_limit are accepted and ignored, on wide deficient
        # blocks (the corner at m = 12) and on a block deficient mod 2039
        matrix = build()
        results = {exact_rank(matrix, seed=seed, exact_limit=limit)
                   for seed in (0, 7) for limit in (0, 40)}
        assert results == {exact_rank(matrix)}

    def test_undershooting_first_prime_is_not_trusted(self, bareiss_calls):
        # rank 1 modulo the proof prime, so Bareiss proves its rank 2
        matrix = proof_prime_multiple()
        result = exact_rank(matrix)
        assert (result.rank, result.certified, result.primes) == (2, True, ())
        assert bareiss_calls == [(2, 2)]

    def test_echelon_entry_needs_no_elimination(self, bareiss_calls, monkeypatch):
        # the 1x1 entry 2039 * (2^31 - 1) is zero modulo the proof prime, but a
        # nonzero entry alone is an echelon matrix: rank 1 with no arithmetic
        def refuse(*args):
            raise AssertionError("eliminated modulo the proof prime")

        monkeypatch.setattr(oracle, "_rank_mod_p", refuse)
        matrix = SparseIntMatrix((1, 1), (((0, oracle._PROOF_PRIME * (2**31 - 1)),),))
        result = exact_rank(matrix)
        assert (result.rank, result.certified, result.primes) == (1, True, ())
        assert bareiss_calls == []

    def test_full_rank_blocks_take_one_elimination(self, monkeypatch):
        # the special operator is injective or surjective, so every block is
        # full rank; 9 of its 12 blocks have an echelon certificate, and each
        # of the other 3 takes one elimination modulo the proof prime.  The
        # facts of blocks ranked earlier in the process would be read instead
        clear_tables()
        matrix = build_matrix(special_fiber_operator(2, 1), 4, 5)
        blocks = representative_blocks(matrix)
        # counted before the spy, which would see their eliminations too
        uncertified = [b for b in blocks if echelon_rank(b[0], *b[1]) is None]
        assert (len(blocks), len(uncertified)) == (12, 3)
        calls = []
        rank_mod_p = oracle._rank_mod_p

        def counted(entries, nrows, ncols, p, transpose=False):
            calls.append(p)
            return rank_mod_p(entries, nrows, ncols, p, transpose)

        monkeypatch.setattr(oracle, "_rank_mod_p", counted)
        result = exact_rank(matrix)
        assert result.rank == min(matrix.shape)
        assert result.primes == () and result.certified
        assert calls == [oracle._PROOF_PRIME] * 3

    def test_small_matrices_draw_no_vote_prime(self):
        # every block is proven by its echelon form or modulo the proof prime;
        # the corner's rank-deficient blocks are proven by Bareiss, so no prime
        # is drawn
        for op in (special_fiber_operator(2, 1), corner_operator(1), corner_operator(2)):
            result = exact_rank(build_matrix(op, 6, 4), seed=5)
            assert result.primes == () and result.certified
        assert exact_rank(SparseIntMatrix((3, 4), ((),) * 4), seed=5).primes == ()

    def test_corner_deficient_blocks_are_proven_by_bareiss(self, bareiss_calls):
        # the two-term corner map at m = 12: 45 blocks are deficient modulo
        # the proof prime, the widest 46x48, and Bareiss ranks each of them
        # once the block facts are cleared
        clear_tables()
        matrix = build_matrix(corner_operator(2), 11, 10)
        deficient = [
            (nrows, ncols) for entries, (nrows, ncols), _ in representative_blocks(matrix)
            if oracle._rank_mod_p(entries, nrows, ncols, oracle._PROOF_PRIME) < min(nrows, ncols)
        ]
        assert len(deficient) == 45 and max(deficient, key=max) == (46, 48)
        result = exact_rank(matrix)
        assert bareiss_calls == deficient
        assert (result.rank, result.kernel_dim, result.cokernel_dim) == (4785, 363, 220)

    def test_debug_line_reports_blocks_and_primes(self, caplog):
        # blocks {row 0} x {col 0} in echelon form, {rows 1, 2} x {cols 1, 2}
        # of rank 1, and {rows 3, 4} x {cols 3, 4}, [[1, 1], [1, 2]], full rank
        # modulo 2039 with both columns leading at row 3 and ending at row 4
        matrix = SparseIntMatrix((5, 5), (
            ((0, 1),), ((1, 2), (2, 4)), ((1, 1), (2, 2)), ((3, 1), (4, 1)), ((3, 1), (4, 2)),
        ))
        # Sym^1 (x) Sym^1 on P^2: weights 2e_i (one column each) and e_i + e_j
        # (two columns, one row each); the representatives are 2e_0 and e_0 + e_1
        weights = build_matrix(special_fiber_operator(2, 1), 1, 1)
        clear_tables()  # columns are counted as built only on a first rank of their block
        with caplog.at_level("DEBUG", logger="asympure.oracle"):
            proven = exact_rank(matrix)
            blocked = exact_rank(weights)
        assert [r.getMessage() for r in caplog.records] == [
            "rank 4 of 5x5 matrix: 3 blocks, largest 2x2, 1 in echelon form, "
            "1 full rank modulo 2039, 1 by Bareiss, built 5 of 5 columns",
            "rank 6 of 6x9 matrix: 2 blocks, largest 1x2, 2 in echelon form, "
            "0 full rank modulo 2039, 0 by Bareiss, built 3 of 9 columns",
        ]
        assert (proven.rank, blocked.rank) == (4, 6)

    def test_debug_record_carries_its_facts_as_fields(self, caplog):
        # the same facts as the message, for a handler that reads fields
        clear_tables()
        with caplog.at_level("DEBUG", logger="asympure.oracle"):
            exact_rank(build_matrix(special_fiber_operator(2, 1), 20, 20))
        (record,) = caplog.records
        assert record.getMessage() == (
            "rank 53130 of 53130x53361 matrix: 154 blocks, largest 153x154, 121 in echelon "
            "form, 33 full rank modulo 2039, 0 by Bareiss, built 9724 of 53361 columns"
        )
        assert (record.blocks, record.largest_block, record.columns_built) == (154, (153, 154), 9724)
        assert record.routes == {"echelon": 121, "modular": 33, "bareiss": 0}

    def test_debug_record_counts_blocks_eliminated_from_the_last_position(self, caplog, monkeypatch):
        # the 33 blocks without a certificate are each eliminated once, from
        # the last column, in the entries as _weight_block built them (none is
        # tall, so no flag is set); the record counts them as its modular route
        built, eliminations = {}, []
        weight_block, rank_mod_p = oracle._weight_block, oracle._rank_mod_p

        def building(*args):
            entries, shape = block = weight_block(*args)
            built[id(entries)] = shape
            return block

        def counted(entries, nrows, ncols, p, transpose=False):
            eliminations.append((entries, (nrows, ncols), p, transpose))
            return rank_mod_p(entries, nrows, ncols, p, transpose)

        monkeypatch.setattr(oracle, "_weight_block", building)
        monkeypatch.setattr(oracle, "_rank_mod_p", counted)
        clear_tables()  # so that no block's facts are read from an earlier rank
        with caplog.at_level("DEBUG", logger="asympure.oracle"):
            exact_rank(build_matrix(special_fiber_operator(2, 1), 20, 20))
        (record,) = caplog.records
        assert record.routes["modular"] == len(eliminations) == 33
        for entries, (nrows, ncols), p, transpose in eliminations:
            shape = built[id(entries)]  # the entries as built, not a copy
            assert (p, transpose) == (oracle._PROOF_PRIME, shape[0] > shape[1])
            assert (nrows, ncols) == (min(shape), max(shape))
            oriented = [(j, i, v) for i, j, v in entries] if transpose else entries
            last_first = reversed_columns(oriented, ncols)
            assert rank_mod_p(last_first, nrows, ncols, p) == nrows
            assert oracle._rank_bareiss(last_first, nrows, ncols) == nrows

    def test_debug_record_counts_classes_read_from_the_facts_table(self, caplog, monkeypatch):
        # ranked again, every class reads its block's facts from the table: no
        # block is built, and only shared and columns_built change
        def refuse(*args):
            raise AssertionError("a block was built")

        clear_tables()
        fields = ("blocks", "largest_block", "routes")
        records = []
        for rank in ("cold", "warm"):
            if rank == "warm":
                monkeypatch.setattr(oracle, "_weight_block", refuse)
            with caplog.at_level("DEBUG", logger="asympure.oracle"):
                result = exact_rank(build_matrix(special_fiber_operator(2, 1), 20, 20))
            (record,) = caplog.records
            records.append((result, (record.shared, record.columns_built),
                            [getattr(record, f) for f in fields]))
            caplog.clear()
        (cold, cold_counts, cold_fields), (warm, warm_counts, warm_fields) = records
        assert (cold_counts, warm_counts) == ((0, 9724), (154, 0))
        assert cold == warm and cold_fields == warm_fields
        assert cold_fields[:2] == [154, (153, 154)]

    def test_debug_record_counts_a_key_built_earlier_in_the_call_as_shared(self, caplog):
        # Sym^4 (x) Sym^2 on P^2: the representative weights (4, 2, 0) and
        # (3, 3, 0) share the key min(w, 2) = (2, 2, 0).  From cold tables the
        # first builds its 2x3 block and the second reads its facts in the
        # same call: 1 of the 7 classes is shared, and those 3 columns are
        # built once.  Warm, every class is shared and nothing is built
        clear_tables()
        matrix = build_matrix(special_fiber_operator(2, 1), 4, 2)
        tops = [top for _, _, top in matrix._weight_classes[1]]
        assert len(tops) == 7 and tops.count((2, 2, 0)) == 2
        counts = []
        for _ in range(2):
            with caplog.at_level("DEBUG", logger="asympure.oracle"):
                exact_rank(matrix)
            (record,) = caplog.records
            caplog.clear()
            counts.append((record.blocks, record.shared, record.columns_built))
        assert counts == [(7, 1, 21), (7, 7, 0)]

    def test_debug_record_counts_the_representative_blocks(self, caplog):
        # cold and warm, the record's counts are those of the nonempty
        # representative blocks: a weight class whose block has no nonempty column
        # (the corners' sources without y0, every class when B < k) counts
        # for nothing.  columns_built counts the columns of the blocks whose
        # key min(w, B) is new to the facts table in that call
        clear_tables()
        for rank in ("cold", "warm"):
            for name, op in sorted(REFERENCE_OPERATORS.items()):
                if name == "no_weight":
                    continue
                for A in range(4):
                    for B in range(5):
                        matrix = build_matrix(op, A, B)
                        table, classes, weight_block = matrix._weight_classes
                        new = {top: weight_block(w_code)[1][1]
                               for w_code, _, top in classes if top not in table}
                        with caplog.at_level("DEBUG", logger="asympure.oracle"):
                            exact_rank(matrix)
                        (record,) = caplog.records
                        caplog.clear()
                        shapes = [shape for _, shape, _ in representative_blocks(matrix)]
                        assert (record.blocks, record.columns_built) == (
                            len(shapes), sum(new.values())), (name, A, B, rank)
                        assert rank == "cold" or not new, (name, A, B)
                        assert record.largest_block == max(shapes, key=prod, default=(0, 0))
                        assert sum(record.routes.values()) == len(shapes)

    def test_each_component_is_a_class_of_its_own(self, caplog, monkeypatch):
        # the three-shift operator at (8, 10) has no weight classes: each of its
        # 90 connected components is a class of multiplicity 1 under a key no
        # other class shares, so every call ranks each component once, none
        # is read from an earlier call, and every column counts as built
        matrix = build_matrix(three_shift_operator(), 8, 10)
        assert matrix._weight_classes is None
        shapes = [shape for _, shape in oracle._component_blocks(matrix)]
        calls = []
        rank_block = oracle._rank_block

        def counted(entries, shape):
            calls.append(shape)
            return rank_block(entries, shape)

        monkeypatch.setattr(oracle, "_rank_block", counted)
        for _ in range(2):
            calls.clear()
            with caplog.at_level("DEBUG", logger="asympure.oracle"):
                result = exact_rank(matrix)
            (record,) = caplog.records
            caplog.clear()
            assert calls == shapes and len(shapes) == 90
            assert (record.shared, record.columns_built, record.blocks) == (0, 2970, 90)
            assert (result.rank, record.routes["modular"]) == (2805, 72)

    @pytest.mark.parametrize("columns", [
        (((0, 2039), (1, 1)), ((0, 2039), (1, 2))),  # [[2039, 2039], [1, 2]], entries 2039
        (((0, 2), (1, 1)), ((0, 1), (1, 1020))),  # [[2, 1], [1, 1020]], determinant 2039
    ], ids=["entry", "determinant"])
    def test_full_rank_block_deficient_modulo_the_proof_prime(self, bareiss_calls, columns):
        # full rank over Q, deficient modulo 2039 and with no echelon
        # certificate: the proof prime never proves it, and Bareiss does
        size = len(columns)
        matrix = SparseIntMatrix((size, size), columns)
        ((entries, shape),) = oracle._component_blocks(matrix)
        assert oracle._rank_mod_p(entries, *shape, oracle._PROOF_PRIME) == size - 1
        result = exact_rank(matrix)
        assert (result.rank, result.certified, result.primes) == (size, True, ())
        assert bareiss_calls == [(size, size)]

    @pytest.mark.parametrize("shape, columns, message", [
        ((1, 1), (((0, 1), (0, -1)),), "column 0 repeats a row"),
        ((2, 1), (((5, 1),),), r"column 0 has a row outside range\(2\)"),
        ((2, 2), ((), ((-1, 3),)), r"column 1 has a row outside range\(2\)"),
        ((2, 3), (((0, 1),),), "shape has 3 columns, got 1"),
    ], ids=["repeated", "past_the_end", "negative", "column_count"])
    def test_malformed_eager_columns_are_refused(self, shape, columns, message):
        # a repeated row would sum to 0 modulo p and Bareiss would keep the
        # last value; a row past the end would be ranked as if it existed; a
        # missing column would count in the kernel but not in to_dense
        with pytest.raises(ValueError, match=message):
            SparseIntMatrix(shape, columns)

    def test_rank_never_builds_the_column_list(self, monkeypatch):
        def refuse(*tables):
            raise AssertionError("the full column list was built")

        monkeypatch.setattr(oracle, "_build_columns", refuse)
        result = exact_rank(build_matrix(special_fiber_operator(2, 1), 20, 20))
        predicted = predict_map_analysis(2, 1, 20, 20)
        assert (result.kernel_dim, result.cokernel_dim) == (
            predicted.kernel_dim,
            predicted.cokernel_dim,
        )
        assert result.certified

    @pytest.mark.parametrize("n, k, A, B", [(3, 1, 8, 8), (2, 2, 16, 16), (3, 2, 7, 7), (4, 1, 5, 5)])
    def test_large_maps_match_prediction(self, n, k, A, B):
        # the other four maps of perfbench's oracle_large, next to (2, 1, 20, 20) above
        result = exact_rank(build_matrix(special_fiber_operator(n, k), A, B))
        predicted = predict_map_analysis(n, k, A, B)
        assert (result.kernel_dim, result.cokernel_dim) == (
            predicted.kernel_dim,
            predicted.cokernel_dim,
        )

    def test_zero_target_maps_match_prediction(self):
        # B in [0, k): the target is the zero space and the whole source is kernel
        for n in (1, 2):
            for k in (1, 2):
                op = special_fiber_operator(n, k)
                for A in range(7):
                    for B in range(k):
                        result = exact_rank(build_matrix(op, A, B))
                        predicted = predict_map_analysis(n, k, A, B)
                        assert (result.kernel_dim, result.cokernel_dim) == (
                            predicted.kernel_dim,
                            predicted.cokernel_dim,
                        )

    def test_columns_read_after_the_rank_keep_the_golden_layout(self):
        matrix = build_matrix(special_fiber_operator(1, 1), 1, 1)
        assert exact_rank(matrix).rank == 3
        assert matrix.columns == (((0, 1),), ((1, 1),), ((1, 1),), ((2, 1),))
        assert matrix.columns is matrix.columns

    def test_rank_nullity_everywhere(self):
        for A in range(4):
            for B in range(4):
                matrix = build_matrix(special_fiber_operator(2, 1), A, B)
                result = exact_rank(matrix)
                assert result.kernel_dim + result.rank == result.dim_source
                assert result.cokernel_dim + result.rank == result.dim_target
                assert result.rank <= min(result.dim_source, result.dim_target)

    def test_rank_result_validates(self):
        with pytest.raises(ValueError):
            RankResult(4, 3, 2, 1, 1)
        with pytest.raises(ValueError):
            RankResult(4, 3, 5, -1, -2)

    @pytest.mark.parametrize("fields, message", [
        ((4, 3, 2, 1, 1), "rank-nullity violated on the source side"),
        ((4, 3, 2, 2, 2), "rank-nullity violated on the target side"),
        ((4, 3, 5, -1, -2), "rank out of range"),
    ])
    def test_rank_result_names_the_broken_rule(self, fields, message):
        with pytest.raises(ValueError, match=message):
            RankResult(*fields)


def rank_gf2(entries, nrows):
    """Rank over GF(2) by xor elimination: an independent reference for p = 2."""
    rows = [0] * nrows
    for i, j, val in entries:
        rows[i] |= (val % 2) << j
    basis = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
    return len(basis)


class TestModularElimination:
    """The packed-row elimination against exact ranks, up to blocks wider than oracle_large's."""

    P = 2**31 - 1  # a large prime, whose slots are wide
    PRIMES = [oracle._PROOF_PRIME, P]
    WIDTHS = [49, 50, 160]  # the widest oracle_large block is 153x154

    @staticmethod
    @functools.cache
    def sparse(seed):
        # about three entries per column, of a few hundred at most, as in the
        # weight blocks of the special fiber; tall and wide shapes alike
        rng = random.Random(seed)
        nrows, ncols = rng.randrange(1, 41), rng.randrange(1, 41)
        cells = {(rng.randrange(nrows), j) for j in range(ncols) for _ in range(3)}
        entries = [(i, j, rng.choice((-1, 1)) * rng.randrange(1, 300)) for i, j in sorted(cells)]
        return entries, nrows, ncols, oracle._rank_bareiss(entries, nrows, ncols)

    @pytest.mark.parametrize("p", PRIMES)
    def test_sparse_blocks(self, p):
        full = {"tall": 0, "wide": 0}
        for seed in range(150):
            entries, nrows, ncols, want = self.sparse(seed)
            got = oracle._rank_mod_p(entries, nrows, ncols, p)
            assert got <= want  # modular rank never overshoots
            if want == min(nrows, ncols):
                assert got == want
                full["tall" if nrows > ncols else "wide"] += 1
        assert min(full.values()) >= 20

    def test_sparse_blocks_modulo_2(self):
        for seed in range(150):
            entries, nrows, ncols, want = self.sparse(seed)
            got = oracle._rank_mod_p(entries, nrows, ncols, 2)
            assert got == rank_gf2(entries, nrows) <= want

    @pytest.mark.parametrize("p", [7, oracle._PROOF_PRIME])
    def test_lead_becomes_a_multiple_of_p(self, p):
        # row 1 meets row 0's pivot, which adds 1 to each of its slots: its
        # lead p - 1 becomes p, zero mod p and not a pivot, and the next slot
        # decides.  [[1, 1], [p - 1, 1]] has determinant 2 - p, nonzero mod p;
        # [[1, 1], [p - 1, 2p - 1]] has determinant p, so rank 2 over Q only.
        # Each is passed with its columns reversed, so column j is in slot j
        independent = [(0, 0, 1), (0, 1, 1), (1, 0, p - 1), (1, 1, 1)]
        deficient = [(0, 0, 1), (0, 1, 1), (1, 0, p - 1), (1, 1, 2 * p - 1)]
        assert oracle._rank_mod_p(reversed_columns(independent, 2), 2, 2, p) == 2
        assert oracle._rank_bareiss(independent, 2, 2) == 2
        assert oracle._rank_mod_p(reversed_columns(deficient, 2), 2, 2, p) == 1
        assert oracle._rank_bareiss(deficient, 2, 2) == 2

    def test_lowest_set_bit_at_the_top_of_its_slot(self):
        # 6 rows of p = 2039 take 25-bit slots.  Rows e_i + q_i e_6 (i < 5) and
        # (p - c_0, ..., p - c_4, 0, s) leave s + sum c_i q_i = 2**24 in the
        # last row's last slot, after an empty one: the run of zero slots
        # ends at a bit that is its slot's top bit.  The columns are passed
        # reversed, so column j is in slot j
        p = oracle._PROOF_PRIME
        c, q, s = (2038, 2038, 2038, 2038, 80), (2038,) * 5, 400
        assert (6 * p * p).bit_length() == 25 and s + sum(ci * qi for ci, qi in zip(c, q)) == 2**24
        entries = [(i, i, 1) for i in range(5)] + [(i, 6, q[i]) for i in range(5)]
        entries += [(5, i, p - c[i]) for i in range(5)] + [(5, 6, s)]
        assert oracle._rank_mod_p(reversed_columns(entries, 7), 6, 7, p) == 6
        assert oracle._rank_bareiss(entries, 6, 7) == 6

    @pytest.mark.parametrize("p", [2, 7, oracle._PROOF_PRIME])
    def test_single_row_and_column(self, p):
        # 2p and p + 1 are 0 and 1 mod p; p and 3p are both 0
        row = [(0, 3, 2 * p), (0, 5, p + 1)]
        zero = [(0, 1, p), (0, 4, 3 * p)]
        for entries, want in ((row, 1), (zero, 0), ([], 0)):
            assert oracle._rank_mod_p(entries, 1, 8, p) == want
            column = [(j, i, val) for i, j, val in entries]
            assert oracle._rank_mod_p(column, 8, 1, p) == want

    @pytest.mark.parametrize("p", PRIMES)
    def test_empty_rows(self, p):
        # rows 1, 3 and 4 are empty; rows 0 and 2 are independent
        entries = [(0, 0, 1), (0, 2, 5), (2, 0, 3), (2, 1, 4)]
        assert oracle._rank_mod_p(entries, 5, 3, p) == 2
        assert oracle._rank_mod_p([(j, i, v) for i, j, v in entries], 3, 5, p) == 2
        assert oracle._rank_mod_p([], 6, 4, p) == oracle._rank_mod_p([], 0, 0, p) == 0

    @pytest.mark.parametrize("nrows", [1033, 1034, 1036])
    def test_slot_bound_at_the_row_limit(self, nrows):
        # nrows * 2039**2 < 2**32 up to 1033 rows.  Rows e_i + (p - 1) e_last
        # (i < nrows - 1) and (1, ..., 1, s): the last row meets every other
        # pivot with the factor p - 1 against the entry p - 1, so its last slot
        # reaches s + (nrows - 1)(p - 1)**2, the most the slot bound allows,
        # and above 2**32 at 1036 rows.  Over Q the rank is full; modulo p
        # the last slot is s + nrows - 1.  The columns are passed reversed,
        # so column j is in slot j.
        p = oracle._PROOF_PRIME
        last = nrows - 1
        base = [(i, i, 1) for i in range(last)] + [(i, last, p - 1) for i in range(last)]
        base += [(last, j, 1) for j in range(last)]
        for s, want in ((1, nrows), (p - last % p, nrows - 1)):
            entries = reversed_columns(base + [(last, last, s)], nrows)
            assert oracle._rank_mod_p(entries, nrows, nrows, p) == want
            # one more, empty row: the tall input is ranked as given, nrows + 1 rows
            assert oracle._rank_mod_p(entries, nrows + 1, nrows, p) == want

    @staticmethod
    @functools.cache
    def planted(width):
        # width x (width - 7) with 10 rows planted as combinations of others;
        # the rank over Q is that of its transpose, so one Bareiss serves both
        rng = random.Random(width)
        nrows, ncols = width, width - 7
        dense = [[rng.randrange(-9, 10) for _ in range(ncols)] for _ in range(nrows - 10)]
        dense += [[a - 3 * b for a, b in zip(dense[i], dense[i + 1])] for i in range(10)]
        entries = [(i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row) if v]
        return entries, nrows, ncols, oracle._rank_bareiss(entries, nrows, ncols)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("tall", [True, False])
    def test_planted_dependent_row(self, width, tall):
        entries, nrows, ncols, want = self.planted(width)
        assert want == width - 10
        if not tall:
            entries = [(j, i, v) for i, j, v in entries]
            nrows, ncols = ncols, nrows
        for p in self.PRIMES:
            for oriented in (entries, reversed_columns(entries, ncols)):
                assert oracle._rank_mod_p(oriented, nrows, ncols, p) == want

    @pytest.mark.parametrize("width", WIDTHS)
    def test_entry_equal_to_p(self, width):
        # the identity with one diagonal entry p: full rank over Q, not mod p
        entries = [(i, i, self.P if i == width // 2 else 1) for i in range(width)]
        for oriented in (entries, reversed_columns(entries, width)):
            assert oracle._rank_mod_p(oriented, width, width, self.P) == width - 1
        assert oracle._rank_bareiss(entries, width, width) == width

    @pytest.mark.parametrize("transpose", [False, True])
    def test_elimination_runs_from_the_last_column(self, monkeypatch, transpose):
        # each pivot's -1/lead is read from the table at its lead.  From the
        # last column, [[2, 3, 5], [7, 0, 0]] takes 5 as the first row's lead
        # and 7 as the second's, which meets no pivot there; from the first
        # column the leads would be 2 and -21/2.  A tall block read in place
        # with the flag is eliminated the same way
        table = oracle._minus_inverses()
        leads = []

        class Recorded(tuple):
            def __getitem__(self, lead):
                leads.append(lead)
                return table[lead]

        monkeypatch.setattr(oracle, "_minus_inverses", lambda: Recorded(table))
        entries = [(0, 0, 2), (0, 1, 3), (0, 2, 5), (1, 0, 7)]
        if transpose:
            entries = [(j, i, v) for i, j, v in entries]
        assert oracle._rank_mod_p(entries, 2, 3, oracle._PROOF_PRIME, transpose) == 2
        assert leads == [5, 7]

    def test_minus_inverse_table(self):
        p = oracle._PROOF_PRIME
        table = oracle._minus_inverses()
        assert len(table) == p and table[0] == 0
        assert all(x * table[x] % p == p - 1 for x in range(1, p))

    def test_only_the_proof_prime_reads_the_table(self, monkeypatch):
        # the proof prime's pivots call no pow; another prime's call it once each
        calls = []

        def counted(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(oracle, "pow", counted, raising=False)
        entries, nrows, ncols, want = self.planted(49)
        assert oracle._rank_mod_p(entries, nrows, ncols, oracle._PROOF_PRIME) == want
        assert calls == []
        assert oracle._rank_mod_p(entries, nrows, ncols, self.P) == want
        assert len(calls) == want and all(args[1:] == (-1, self.P) for args in calls)

    def test_the_table_is_built_on_first_use(self):
        # a fresh interpreter: importing the package builds no table; the
        # special operator's maps (4, 4) and (8, 8) eliminate 1 and 5 blocks
        # modulo 2039, and the first builds the table the other five read
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        script = ("import sys, asympure, asympure.cli\n"
                  "from asympure import oracle\n"
                  "built = oracle._minus_inverses.cache_info\n"
                  "assert built().currsize == 0\n"
                  "for A, rank in ((4, 210), (8, 1980)):\n"
                  "    matrix = oracle.build_matrix(oracle.special_fiber_operator(2, 1), A, A)\n"
                  "    assert oracle.exact_rank(matrix).rank == rank\n"
                  "sys.exit(built()[:2] != (5, 1))")
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0

    def test_random_blocks_in_both_column_orders(self):
        # up to 8x8, tall and wide, with zero entries and multiples of 2039 that
        # are nonzero over Q: forward and reversed elimination agree modulo
        # 2039, and exact_rank, by whichever route it ranks the block's
        # components, agrees with Bareiss
        p = oracle._PROOF_PRIME
        values = (0, 1, -1, 2, 5, p, -2 * p, p + 1)
        rng = random.Random(8)
        seen = Counter()
        for _ in range(3000):
            nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
            density = rng.choice((0.25, 0.5, 0.8))
            cells = [(i, j) for i in range(nrows) for j in range(ncols) if rng.random() < density]
            entries = [(i, j, rng.choice(values)) for i, j in cells]
            modular = oracle._rank_mod_p(entries, nrows, ncols, p)
            assert oracle._rank_mod_p(reversed_columns(entries, ncols), nrows, ncols, p) == modular
            want = oracle._rank_bareiss(entries, nrows, ncols)
            assert modular <= want
            columns = tuple(tuple((i, v) for i, c, v in entries if c == j) for j in range(ncols))
            block = SparseIntMatrix((nrows, ncols), columns)
            assert exact_rank(block).rank == want
            seen["tall" if nrows > ncols else "wide" if nrows < ncols else "square"] += 1
            seen["deficient mod p"] += modular < want
            seen["eliminated"] += oracle._rank_block(entries, (nrows, ncols))[2] != "echelon"
        assert min(seen.values()) >= 20, seen


# the 598 maps of acceptance criterion 3 and the engine grid benchmark
GRID = [(n, k, A, B) for n in (1, 2) for k in (1, 2) for A in range(13) for B in range(k, 13)]
GRID_OPS = {(n, k): special_fiber_operator(n, k) for n in (1, 2) for k in (1, 2)}


class TestEchelonCertificate:
    """_rank_block's echelon route proves full rank only where Bareiss agrees."""

    @staticmethod
    def random_block(rng):
        # up to 6x6, tall and wide, with zero entries and multiples of 2039 that
        # are nonzero over Q, the entries in shuffled order
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        density = rng.choice((0.2, 0.35, 0.6))
        values = (0, 1, -1, 3, oracle._PROOF_PRIME, -2 * oracle._PROOF_PRIME)
        entries = [(i, j, rng.choice(values)) for i in range(nrows) for j in range(ncols)
                   if rng.random() < density]
        rng.shuffle(entries)
        return entries, nrows, ncols

    def test_random_blocks_agree_with_bareiss(self):
        seen = Counter()
        rng = random.Random(2039)
        for _ in range(3000):
            entries, nrows, ncols = self.random_block(rng)
            got = echelon_rank(entries, nrows, ncols)
            assert got == echelon_rank(sorted(entries), nrows, ncols)
            if got is None:
                seen["none"] += 1
                continue
            assert got == oracle._rank_bareiss(entries, nrows, ncols) == min(nrows, ncols)
            seen["tall" if nrows > ncols else "wide" if nrows < ncols else "square"] += 1
            seen["zero"] += any(val == 0 for _, _, val in entries)
            seen["multiple"] += any(val and val % oracle._PROOF_PRIME == 0 for _, _, val in entries)
        assert min(seen.values()) >= 50, seen

    def test_all_ones_has_no_certificate_in_any_order(self):
        # every vector leads at 0 and ends at 1; a rule that took the first
        # entry in entry order would find distinct leads in some orders
        ones = [(i, j, 1) for i in range(2) for j in range(2)]
        for order in itertools.permutations(ones):
            assert echelon_rank(list(order), 2, 2) is None

    def test_zero_valued_vector_has_no_certificate(self):
        # the wide block's row 1 holds only a stored 0: its rank is 1, not 2
        entries = [(0, 0, 1), (1, 1, 0), (1, 2, 0)]
        assert echelon_rank(entries, 2, 3) is None
        assert echelon_rank([(j, i, v) for i, j, v in entries], 3, 2) is None
        assert oracle._rank_bareiss(entries, 2, 3) == 1

    def test_first_or_last_positions(self):
        # [[1, 1, 0], [1, 0, 1]]: the rows lead alike but end apart, and its
        # transpose's columns too; [[0, 1, 1], [1, 1, 0]] leads apart only
        ends_apart = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 2, 1)]
        leads_apart = [(0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1)]
        for entries in (ends_apart, leads_apart):
            assert echelon_rank(entries, 2, 3) == 2
            assert echelon_rank([(j, i, v) for i, j, v in entries], 3, 2) == 2

    def test_square_blocks_are_read_by_rows(self):
        # [[1, 0], [1, 1]]: the rows lead alike and end apart, the columns the
        # other way round; a square block is read by its rows, the vectors
        # _rank_mod_p eliminates.  _rank_block reads a tall block by its
        # columns, in place, as the wide one by rows
        entries = [(0, 0, 1), (1, 0, 1), (1, 1, 1)]
        transposed = [(j, i, v) for i, j, v in entries]
        assert oracle._distinct_ends(entries, 2, 2) == (1, 2)
        assert oracle._distinct_ends(entries, 2, 3) == (1, 2)
        assert oracle._distinct_ends(transposed, 2, 3, True) == (1, 2)
        tall = oracle._rank_block(transposed, (3, 2))
        assert tall[1:] == oracle._rank_block(entries, (2, 3))[1:] == (2, "echelon")

    def test_grid_certificates(self):
        # the 598 maps of the engine grid: 8,267 of their 8,897 representative
        # blocks, built from the weight classes, are proven by the echelon
        # route, the rest by elimination
        blocks = [block for n, k, A, B in GRID
                  for block in representative_blocks(build_matrix(GRID_OPS[n, k], A, B))]
        certified = [echelon_rank(entries, *shape) for entries, shape, _ in blocks]
        assert (len(blocks), sum(r is not None for r in certified)) == (8897, 8267)


class TestOrientation:
    """Every route reads rows of the shorter side: a tall block's columns, in place but for Bareiss."""

    ROUTES = ("_distinct_ends", "_rank_mod_p", "_rank_bareiss")

    def test_routes_never_see_a_tall_block(self, monkeypatch):
        # the 598 grid maps with cold tables, the maps of the CI's rank lines
        # (special 20/20 and 5/7, three shifts, two classes) and random blocks
        shapes = {name: [] for name in ("_rank_block", *self.ROUTES)}

        def spy(name):
            inner = getattr(oracle, name)

            def counted(entries, *args):
                shapes[name].append(args[0] if name == "_rank_block" else args[:2])
                return inner(entries, *args)
            return counted

        for name in shapes:
            monkeypatch.setattr(oracle, name, spy(name))
        clear_tables()
        for n, k, A, B in GRID:
            exact_rank(build_matrix(GRID_OPS[n, k], A, B))
        for op, A, B in ((special_fiber_operator(2, 1), 20, 20),
                         (special_fiber_operator(2, 1), 5, 7),
                         (three_shift_operator(), 4, 4), (diagonal_operator(2, (1, 1, 0)), 8, 8)):
            exact_rank(build_matrix(op, A, B))
        rng = random.Random(37)
        for _ in range(500):
            entries, nrows, ncols = TestEchelonCertificate.random_block(rng)
            oracle._rank_block(entries, (nrows, ncols))
        assert sum(r > c for r, c in shapes["_rank_block"]) >= 1000
        for name in self.ROUTES:
            assert shapes[name] and all(r <= c for r, c in shapes[name]), name

    def test_every_route_reads_the_oriented_entries(self, monkeypatch):
        # the elimination receives the entries as built, with the transpose
        # flag set exactly on a tall block, and eliminates from the last
        # column: its rank is that of the transposed, reversed copy, as is
        # Bareiss's, which alone receives a transposed copy
        rank_mod_p, rank_bareiss = oracle._rank_mod_p, oracle._rank_bareiss
        seen = []

        def spy(name, inner):
            def counted(entries, nrows, ncols, *args):
                seen.append((name, entries, (nrows, ncols), *args))
                return inner(entries, nrows, ncols, *args)
            return counted

        monkeypatch.setattr(oracle, "_rank_mod_p", spy("modular", rank_mod_p))
        monkeypatch.setattr(oracle, "_rank_bareiss", spy("bareiss", rank_bareiss))
        rng = random.Random(41)
        counts = Counter()
        for _ in range(3000):
            entries, nrows, ncols = TestEchelonCertificate.random_block(rng)
            seen.clear()
            _, rank, route = oracle._rank_block(entries, (nrows, ncols))
            transpose = nrows > ncols
            oriented = entries
            if transpose:
                oriented = [(j, i, v) for i, j, v in entries]
                nrows, ncols = ncols, nrows
            if route == "echelon":
                assert seen == []
                continue
            modular = ("modular", entries, (nrows, ncols), oracle._PROOF_PRIME, transpose)
            assert seen[0] == modular and seen[0][1] is entries
            last_first = reversed_columns(oriented, ncols)
            eliminated = rank_mod_p(last_first, nrows, ncols, oracle._PROOF_PRIME)
            if route == "modular":
                assert seen == [modular] and rank == eliminated == nrows
            else:
                assert seen == [modular, ("bareiss", oriented, (nrows, ncols))]
                assert transpose or seen[1][1] is entries
                assert eliminated < nrows and rank == rank_bareiss(last_first, nrows, ncols)
            counts[route, "tall" if transpose else "as built"] += 1
        assert len(counts) == 4 and min(counts.values()) >= 20, counts

    def test_tall_blocks_read_in_place_match_the_transposed_copy(self):
        # a tall block read in place with the flag gives the certificate's
        # counts and the rank modulo each prime of its transposed copy read
        # as given, leads and ends apart, deficient or not
        rng = random.Random(4243)
        seen = Counter()
        for _ in range(3000):
            entries, nrows, ncols = TestEchelonCertificate.random_block(rng)
            if nrows <= ncols:
                continue
            copy = [(j, i, v) for i, j, v in entries]
            ends = oracle._distinct_ends(copy, ncols, nrows)
            assert oracle._distinct_ends(entries, ncols, nrows, True) == ends
            for p in (2, 7, oracle._PROOF_PRIME):
                modular = oracle._rank_mod_p(copy, ncols, nrows, p)
                assert oracle._rank_mod_p(entries, ncols, nrows, p, True) == modular
                seen["deficient" if modular < ncols else "full"] += 1
            seen["leads apart" if ends[0] == ncols else "ends apart" if ends[1] == ncols else
                 "neither"] += 1
        assert len(seen) == 5 and min(seen.values()) >= 20, seen

    def test_transpose_invariance(self):
        # a non-square block and its transpose have the same rank and route;
        # a square one, read by rows either way, the same rank.
        # The facts keep the shape given
        rng = random.Random(3073)
        seen = Counter()
        for _ in range(3000):
            entries, nrows, ncols = TestEchelonCertificate.random_block(rng)
            facts = oracle._rank_block(entries, (nrows, ncols))
            flipped = oracle._rank_block([(j, i, v) for i, j, v in entries], (ncols, nrows))
            assert (facts[0], flipped[0]) == ((nrows, ncols), (ncols, nrows))
            if nrows == ncols:
                assert facts[1] == flipped[1]
                seen["square"] += 1
            else:
                assert facts[1:] == flipped[1:]
                seen[facts[2]] += 1
        assert min(seen.values()) >= 20, seen


class TestEquivariance:
    @pytest.mark.parametrize("sigma", [(1, 2, 0), (2, 0, 1), (1, 0, 2)])
    def test_variable_permutation_preserves_rank(self, sigma):
        def permute(op):
            terms = tuple(
                (
                    coeff,
                    tuple(alpha[sigma[j]] for j in range(3)),
                    tuple(beta[sigma[j]] for j in range(3)),
                )
                for coeff, alpha, beta in op.terms
            )
            return ContractionOperator(op.n, op.k, terms)

        for op in (special_fiber_operator(2, 2), corner_operator(2)):
            base = exact_rank(build_matrix(op, 4, 3))
            moved = exact_rank(build_matrix(permute(op), 4, 3))
            assert (base.rank, base.kernel_dim, base.cokernel_dim) == (
                moved.rank,
                moved.kernel_dim,
                moved.cokernel_dim,
            )


class TestOracleSeries:
    def test_corner_kernel_at_m3(self):
        rows = dict(oracle_series(corner_operator(1), 1, 1, [3]))
        assert rows[3].kernel_dim == 12

    def test_two_term_kernel_at_m3(self):
        rows = dict(oracle_series(corner_operator(2), 1, 1, [3]))
        assert rows[3].kernel_dim == 9  # 6 + 3, and the bound is attained

    def test_matches_prediction(self):
        rows = oracle_series(special_fiber_operator(2, 1), 1, 1, range(3, 7))
        for m, result in rows:
            analysis = predict_map_analysis(2, 1, m - 1, m - 2)
            assert (result.kernel_dim, result.cokernel_dim) == (
                analysis.kernel_dim,
                analysis.cokernel_dim,
            )

    def test_each_multiple_is_its_exact_rank(self):
        op = corner_operator(2)
        rows = oracle_series(op, 1, 1, [3, 12])
        assert rows == [(m, exact_rank(build_matrix(op, m - 1, m - 2))) for m in (3, 12)]

    def test_skips_infeasible_multiples(self):
        rows = oracle_series(special_fiber_operator(2, 1), 1, 1, range(1, 5))
        assert [m for m, _ in rows] == [2, 3, 4]

    def test_zero_target_multiple_kept(self):
        # at m = 2 the target is the zero space; kernel is the whole source
        rows = dict(oracle_series(corner_operator(1), 1, 1, [2]))
        assert rows[2].dim_target == 0
        assert rows[2].kernel_dim == rows[2].dim_source == 3

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            oracle_series(special_fiber_operator(2, 1), 1, 1, [1])


def weight_changing_operator() -> ContractionOperator:
    # x0 (x) d1 + x1 (x) d0: the two terms shift weight in opposite directions
    return ContractionOperator(2, 1, ((1, E0, E1), (1, E1, E0)))


REFERENCE_OPERATORS = {
    "special_k1": special_fiber_operator(2, 1),
    "special_k2": special_fiber_operator(2, 2),
    "corner_one_term": corner_operator(1),
    "corner_two_terms": corner_operator(2),
    # diagonal terms x^a (x) d^a, |a| = 2: the support is symmetric under every
    # transposition but the coefficients under none, and the ranks tell
    "unequal_coefficients": ContractionOperator(2, 2, tuple(
        (coeff, alpha, alpha)
        for coeff, alpha in zip((3, -1, 3, -1, -2, 2), monomial_basis(2, 2))
    )),
    "no_weight": weight_changing_operator(),
}


def nonempty_weight_classes(op: ContractionOperator, A: int, B: int) -> int:
    matrix = build_matrix(op, A, B)
    pairs = [(u, v) for u in monomial_basis(op.n, A) for v in monomial_basis(op.n, B)]
    return len({
        tuple(a + b for a, b in zip(u, v))
        for (u, v), col in zip(pairs, matrix.columns)
        if col
    })


class TestReferenceRanks:
    """Block ranks against sympy's dense rank and the union-find components."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_OPERATORS))
    def test_rank_matches_dense_reference(self, name):
        sympy = pytest.importorskip("sympy")
        op = REFERENCE_OPERATORS[name]
        for A in range(4):
            for B in range(6 - A):
                matrix = build_matrix(op, A, B)
                want = sympy.Matrix(matrix.to_dense()).rank() if matrix.shape[0] else 0
                components = SparseIntMatrix(matrix.shape, matrix.columns)
                assert components._weight_classes is None
                for route in (matrix, components):
                    assert exact_rank(route).rank == want, (A, B)

    @pytest.mark.parametrize("name", ["special_k1", "special_k2", "corner_one_term",
                                      "corner_two_terms", "unequal_coefficients"])
    def test_multiplicities_count_weight_classes(self, name):
        op = REFERENCE_OPERATORS[name]
        for A in range(4):
            for B in range(5):
                matrix = build_matrix(op, A, B)
                assert matrix._weight_classes is not None
                blocks = representative_blocks(matrix)
                assert sum(mult for _, _, mult in blocks) == nonempty_weight_classes(op, A, B)

    def test_orbit_representatives_are_fewer_than_classes(self):
        # full S_3 symmetry on the special operator, S_2 on the corners
        for name, ratio in (("special_k1", 3), ("corner_one_term", 1.5)):
            op = REFERENCE_OPERATORS[name]
            blocks = representative_blocks(build_matrix(op, 4, 4))
            assert len(blocks) * ratio < nonempty_weight_classes(op, 4, 4)

    @pytest.mark.parametrize("name", ["special_k1", "special_k2", "corner_one_term",
                                      "corner_two_terms", "unequal_coefficients"])
    def test_blocks_agree_with_the_built_columns(self, name):
        # each orbit's blocks hold as many nonempty columns and entries as its
        # representative, so the weighted sums count the whole matrix
        op = REFERENCE_OPERATORS[name]
        for A in range(7):
            for B in range(7 - A):
                matrix = build_matrix(op, A, B)
                blocks = representative_blocks(matrix)
                nonempty = sum(mult * ncols for _, (_, ncols), mult in blocks)
                nnz = sum(mult * len(entries) for entries, _, mult in blocks)
                assert nonempty == sum(1 for col in matrix.columns if col), (A, B)
                assert nnz == matrix.nnz, (A, B)

    @pytest.mark.parametrize("name", sorted(REFERENCE_OPERATORS))
    def test_columns_match_a_term_by_term_build(self, name):
        # every column, row order included, against apply_term on each basis pair
        op = REFERENCE_OPERATORS[name]
        for A in range(7):
            for B in range(7 - A):
                target_u = {u: i for i, u in enumerate(monomial_basis(op.n, A + op.k))}
                target_v = {v: i for i, v in enumerate(monomial_basis(op.n, B - op.k))}
                want = []
                for u in monomial_basis(op.n, A):
                    for v in monomial_basis(op.n, B):
                        col: dict[int, int] = {}
                        for coeff, alpha, beta in op.terms:
                            hit = apply_term(coeff, alpha, beta, u, v)
                            if hit is not None:
                                scale, u2, v2 = hit
                                row = target_u[u2] * len(target_v) + target_v[v2]
                                col[row] = col.get(row, 0) + scale
                        want.append(tuple(sorted((r, val) for r, val in col.items() if val)))
                assert build_matrix(op, A, B).columns == tuple(want), (A, B)

    def test_weight_changing_operator_has_no_blocks(self):
        op = weight_changing_operator()
        for A, B in ((0, 1), (2, 2), (3, 1)):
            assert build_matrix(op, A, B)._weight_classes is None


def filtered_representatives(op: ContractionOperator, degree: int) -> tuple:
    """The orbit representatives by their definition: each monomial of the degree
    that is non-increasing within each class, in basis order, with its number of
    distinct rearrangements within the classes."""
    classes = oracle._interchangeable_classes(op)
    base = oracle._code_base(op.k, degree)
    reps = []
    for w in monomial_basis(op.n, degree):
        if any(w[a] < w[b] for cls in classes for a, b in zip(cls, cls[1:])):
            continue
        multiplicity = 1
        for cls in classes:
            counts = Counter(w[c] for c in cls).values()
            multiplicity *= factorial(len(cls)) // prod(map(factorial, counts))
        reps.append((oracle._code(w, base), multiplicity, w))
    return tuple(reps)


def diagonal_operator(n: int, coeffs: tuple[int, ...]) -> ContractionOperator:
    """sum_i coeffs[i] x_i (x) d_i over the coordinates with a nonzero coefficient."""
    units = monomial_basis(n, 1)  # x_i for i = 0..n
    return ContractionOperator(n, 1, tuple((c, e, e) for c, e in zip(coeffs, units) if c))


class TestOrbitEnumeration:
    """_orbit_representatives enumerates per class what filtering the basis keeps."""

    OPERATORS = {
        **{name: op for name, op in REFERENCE_OPERATORS.items()
           if oracle._interchangeable_classes(op) is not None},
        **{f"special_n{n}_k{k}": special_fiber_operator(n, k)
           for n in range(1, 5) for k in range(1, 4)},
        # terms on x0 and x1 of P^3: two two-member classes
        "corner_n3": diagonal_operator(3, (1, 1, 0, 0)),
        # classes that are not runs of coordinates, and one of three members
        "split_classes": diagonal_operator(3, (1, 2, 1, 3)),
        "three_and_two": diagonal_operator(4, (1, 2, 1, 2, 1)),
    }

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_equals_the_filter(self, name):
        op = self.OPERATORS[name]
        for degree in range(25):
            assert oracle._orbit_representatives(op, degree) == filtered_representatives(
                op, degree), degree

    def test_the_classes_the_operators_cover(self):
        classes = {oracle._interchangeable_classes(op) for op in self.OPERATORS.values()}
        assert {((0, 1), (2, 3)), ((0, 2, 4), (1, 3)), ((0, 2), (1,), (3,))} <= classes

    def test_sorted_values(self):
        # the partitions of 4 into at most 3 parts, each with its arrangements
        assert oracle._sorted_values(3, 4) == (
            ((4, 0, 0), 3), ((3, 1, 0), 6), ((2, 2, 0), 3), ((2, 1, 1), 3))
        assert oracle._sorted_values(2, 0) == (((0, 0), 1),)

    def test_a_cold_rank_builds_no_basis_of_degree_a_plus_b(self, monkeypatch):
        # oracle_large's (2, 1, 20, 20): the sources of degree 20 are built, the
        # 861 weights of degree 40 are not
        degrees = []
        basis = oracle.monomial_basis

        def recorded(n, degree):
            degrees.append((n, degree))
            return basis(n, degree)

        clear_tables()
        monkeypatch.setattr(oracle, "monomial_basis", recorded)
        assert exact_rank(build_matrix(special_fiber_operator(2, 1), 20, 20)).rank == 53130
        assert (2, 20) in degrees and (2, 40) not in degrees


def built(op: ContractionOperator, A: int, B: int):
    matrix = build_matrix(op, A, B)
    return matrix.shape, representative_blocks(matrix), matrix.columns


# (operator, targets, neighbours): the targets have A + B + k = 15, 16, 31, 32, on
# both sides of the bases 16 and 32; the neighbours share a degree A, a degree B or
# A + B, hence codes, a hit table or an orbit list, with a target
HISTORY = [
    (special_fiber_operator(2, 1), [(7, 7), (8, 7), (15, 15), (16, 15)],
     [(7, 3), (4, 7), (8, 6), (14, 7), (7, 8), (15, 8), (14, 16), (16, 20), (20, 15)]),
    (corner_operator(2), [(7, 7), (8, 7)], [(7, 3), (8, 6), (8, 8)]),
    (special_fiber_operator(2, 2), [(7, 6), (7, 7), (15, 14), (15, 15)],
     [(7, 2), (6, 7), (14, 7), (15, 9), (16, 14)]),
    (special_fiber_operator(1, 1), [(7, 7), (8, 7), (15, 15), (16, 15)], [(6, 8), (16, 16)]),
]


class TestSharedTables:
    """The tables build_matrix keeps across calls never change what it returns."""

    def test_a_map_does_not_depend_on_call_history(self):
        cold = {}
        for op, targets, _ in HISTORY:
            for A, B in targets:
                clear_tables()
                cold[op, A, B] = built(op, A, B)
        calls = [(op, A, B) for op, targets, neighbours in HISTORY for A, B in targets + neighbours]
        for order in (calls[::-1], random.Random(3).sample(calls, len(calls))):
            clear_tables()
            for op, A, B in order:
                warm = built(op, A, B)
                if (op, A, B) in cold:
                    assert warm == cold[op, A, B], (op.n, op.k, A, B)

    def test_same_support_other_coefficients_keep_their_own_ranks(self):
        # the two operators hit the same pairs, so only the coefficients tell them apart
        sympy = pytest.importorskip("sympy")
        ops = [REFERENCE_OPERATORS["special_k2"], REFERENCE_OPERATORS["unequal_coefficients"]]
        for order in (ops, ops[::-1]):
            clear_tables()
            ranks = {}
            for A in range(3):
                for B in range(2, 5 - A):
                    for op in order:
                        matrix = build_matrix(op, A, B)
                        ranks[op, A, B] = exact_rank(matrix).rank
                        assert ranks[op, A, B] == sympy.Matrix(matrix.to_dense()).rank(), (A, B)
            assert (ranks[ops[0], 1, 3], ranks[ops[1], 1, 3]) == (30, 29)

    def test_a_difference_of_codes_is_a_source_code_exactly_below_the_weight(self):
        for n in range(1, 4):
            for A in range(4):
                for B in range(4):
                    base = oracle._code_base(1, A + B)
                    hits = oracle._hit_table(special_fiber_operator(n, 1), B, base)
                    assert tuple(hits) == oracle._basis_codes(n, B, base)
                    weights = zip(monomial_basis(n, A + B), oracle._basis_codes(n, A + B, base))
                    sources = list(zip(monomial_basis(n, A), oracle._basis_codes(n, A, base)))
                    for w, w_code in weights:
                        for u, u_code in sources:
                            below = all(a <= b for a, b in zip(u, w))
                            assert (w_code - u_code in hits) == below, (n, A, B, u, w)

    def test_base_is_the_power_of_two_above_a_plus_b_plus_k(self):
        assert [oracle._code_base(1, d) for d in (14, 15, 30, 31)] == [16, 32, 32, 64]

    def test_maps_of_one_operator_share_their_tables(self):
        op = special_fiber_operator(2, 1)
        clear_tables()
        build_matrix(op, 7, 7)
        build_matrix(op, 4, 7)  # A + B + k = 12: base 16 and B = 7 again
        build_matrix(op, 8, 6)  # A + B = 14 again
        # (hits, misses) of each table
        assert oracle._hit_table.cache_info()[:2] == (1, 2)
        assert oracle._orbit_representatives.cache_info()[:2] == (1, 2)
        assert oracle._interchangeable_classes.cache_info()[:2] == (1, 1)
        assert oracle._block_facts.cache_info()[:2] == (1, 2)  # B = 7 again

    def test_a_weight_block_depends_only_on_b_and_its_top(self):
        # every weight w of degree A + B, orbit representative or not, in the
        # map's own code base and in base 64: the block equals, entry for entry
        # and in shape, that of every weight with the same B and min(w, B)
        blocks, count = {}, 0
        for name, op in sorted(REFERENCE_OPERATORS.items()):
            if oracle._interchangeable_classes(op) is None:
                continue
            for A in range(9):
                for B in range(9):
                    for base in (oracle._code_base(op.k, A + B), 64):
                        u_codes = oracle._basis_codes(op.n, A, base)
                        hits = oracle._hit_table(op, B, base)
                        for w in monomial_basis(op.n, A + B):
                            block = oracle._weight_block(u_codes, hits, oracle._code(w, base))
                            top = tuple(min(e, B) for e in w)
                            key = (name, B, top)
                            assert blocks.setdefault(key, block) == block, (name, A, B, w)
                            count += 1
        assert (len(blocks), count) == (7475, 41850)

    def test_grid_ranks_do_not_depend_on_order_or_warm_facts(self, caplog):
        # two shuffled orders from cold tables, then the first again with every
        # fact warm: the same results and DEBUG fields, shared and columns_built
        # aside; a cold pass reads 5,824 of its 8,897 blocks' facts from the
        # table and builds each key's block once, whatever the order: 44,139
        # columns in all
        fields = ("blocks", "largest_block", "routes")

        def ranked(order):
            out, shared, built = {}, 0, 0
            for n, k, A, B in order:
                with caplog.at_level("DEBUG", logger="asympure.oracle"):
                    result = exact_rank(build_matrix(GRID_OPS[n, k], A, B))
                (record,) = caplog.records
                caplog.clear()
                out[n, k, A, B] = result, [getattr(record, f) for f in fields]
                shared += record.shared
                built += record.columns_built
            return out, (shared, built)

        first, second = (random.Random(seed).sample(GRID, len(GRID)) for seed in (1, 2))
        clear_tables()
        cold, cold_counts = ranked(first)
        clear_tables()
        other, other_counts = ranked(second)
        warm, warm_counts = ranked(first)
        assert cold == other == warm
        assert cold_counts == other_counts == (5824, 44139)
        assert warm_counts == (8897, 0)
