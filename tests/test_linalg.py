import copy
import hashlib
import itertools
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzv
from mzv import (
    ExactMatrix,
    assemble_permutation_system,
    composition,
    eval_combination,
    permutation_rank,
    reduce_to_basis,
    stuffle,
    three_point_identity,
    zeta,
)
from mzv.algebra import ProductTerm, ZetaCombination
from mzv.linalg import (
    _eliminate,
    _split_row,
    check_system_size,
    generic_symbols,
    instantiate_column,
    instantiate_expression,
    ordered_splits,
    permutation_system_size,
    product_column,
    row_reduce,
    symbolic_stuffle,
    zeta_column,
)


def residual(comb):
    return abs(eval_combination(comb, 1e-12).value)


def test_generic_symbols():
    assert generic_symbols(3) == ("a", "b", "c")
    assert generic_symbols(1) == ("a",)
    with pytest.raises(ValueError):
        generic_symbols(0)
    with pytest.raises(ValueError):
        generic_symbols(10)


def test_symbolic_stuffle_counts():
    out = symbolic_stuffle((("a",),), (("b",),))
    assert out == {
        (("a",), ("b",)): 1,
        (("b",), ("a",)): 1,
        (("a", "b"),): 1,
    }
    out = symbolic_stuffle((("a",), ("b",)), (("c",),))
    assert sum(out.values()) == 5
    assert all(len(comp) in (2, 3) for comp in out)


def test_ordered_splits_counts():
    assert len(list(ordered_splits(("a", "b")))) == 2
    assert len(list(ordered_splits(("a", "b", "c")))) == 12
    # repeated symbols collapse ordered splits
    assert len(list(ordered_splits(("a", "b", "b")))) == 6


def permuted_ordered_splits(symbols):
    """The split enumerator as it once ran: every permutation of both sides
    of every mask, duplicates dropped by a set of the pairs yielded."""
    n = len(symbols)
    seen = set()
    for mask in range(1, 2 ** n - 1):
        left = tuple(symbols[i] for i in range(n) if mask >> i & 1)
        right = tuple(symbols[i] for i in range(n) if not mask >> i & 1)
        for u in sorted(set(itertools.permutations(left))):
            for v in sorted(set(itertools.permutations(right))):
                if (u, v) not in seen:
                    seen.add((u, v))
                    yield u, v


def letter_patterns(max_length):
    """Every word of up to max_length symbols over at most three letters,
    up to renaming the letters (a first, then b, then c)."""
    words = [()]
    for _ in range(max_length):
        words = [w + (s,) for w in words
                 for s in "abc"[:len(set(w)) + 1]]
        yield from words


def test_ordered_splits_match_the_permutation_enumerator():
    # every letter order up to 6 symbols; sorted words a..ab..bc..c up to 8
    patterns = list(letter_patterns(6))
    patterns += [w for w in letter_patterns(8) if 6 < len(w)
                 and list(w) == sorted(w)]
    patterns.append(tuple("abcdef"))
    assert len(patterns) == 1 + 2 + 5 + 14 + 41 + 122 + 22 + 29 + 1
    for symbols in patterns:
        assert (list(ordered_splits(symbols))
                == list(permuted_ordered_splits(symbols))), symbols


def test_exact_matrix_rank_plumbing():
    rows = [
        {"x": Fraction(1), "y": Fraction(1)},
        {"x": Fraction(2), "y": Fraction(2)},
        {"y": Fraction(1)},
    ]
    m = ExactMatrix(rows, ["r1", "r2", "r3"])
    assert m.columns == ["x", "y"]
    assert m.rank() == 2
    restricted = ExactMatrix(rows, ["r1", "r2", "r3"], unknowns=("x",))
    assert restricted.rank() == 1
    assert restricted.rhs_columns == ["y"]
    assert ExactMatrix([], []).rank() == 0


def test_assembled_system_shape():
    mat = assemble_permutation_system(generic_symbols(3))
    assert len(mat.rows) == 12
    assert len(mat.unknowns) == 6
    for row, label in zip(mat.rows, mat.row_labels):
        prods = [c for c in row if c[0] == "p"]
        assert len(prods) == 1
        assert row[prods[0]] == 1
        assert len(label) == 2


def test_split_rows_are_symmetric():
    for symbols in ("abcd", "aabc"):
        mat = assemble_permutation_system(symbols)
        by_label = dict(zip(mat.row_labels, mat.rows))
        for u, v in ordered_splits(tuple(symbols)):
            assert _split_row(u, v) == _split_row(v, u)
            assert by_label[(u, v)] == by_label[(v, u)]
            assert u == v or by_label[(u, v)] is not by_label[(v, u)]


def test_generic_rank_targets():
    assert permutation_rank(generic_symbols(2)) == 1
    assert permutation_rank(generic_symbols(3)) == 4
    assert permutation_rank(generic_symbols(4)) == 18


def test_degenerate_rank_targets():
    assert permutation_rank(("a", "b", "b")) == 2
    assert permutation_rank(("a", "a", "a")) == 1


def test_rank_formula():
    for l in (2, 3, 4):
        expected = math.factorial(l) - math.factorial(l - 1)
        assert permutation_rank(generic_symbols(l)) == expected


def test_system_size_limit_counts_distinct_permutations():
    check_system_size(generic_symbols(6))                 # 720
    check_system_size(("a", "a", "b", "b", "c", "c", "d"))  # 7!/8 = 630
    with pytest.raises(ValueError, match="has 840 unknowns"):
        check_system_size(("a", "b", "c", "d", "e", "e", "e"))


def test_oversized_systems_are_refused_before_assembly(monkeypatch):
    def no_assembly(symbols):
        raise AssertionError("oversized system assembled")

    monkeypatch.setattr(mzv.linalg, "assemble_permutation_system", no_assembly)
    with pytest.raises(ValueError, match="has 5040 unknowns"):
        permutation_rank(generic_symbols(7))
    with pytest.raises(ValueError, match="has 40320 unknowns"):
        reduce_to_basis(8)


def test_reduce_to_basis_sizes():
    for l, rank in [(2, 1), (3, 4), (4, 18)]:
        br = reduce_to_basis(l)
        assert br.rank == rank
        assert len(br.basis) == math.factorial(l - 1)
        assert len(br.expressions) == rank
        assert all(comp[0] == ("a",) for comp in br.basis)
        assert all(comp[0] != ("a",) for comp in br.expressions)


def test_reduce_to_basis_length4_digest():
    # sha256 of the exact expressions and basis, written by the sparse
    # Fraction elimination; any change to the solved system changes it
    br = reduce_to_basis(4)
    text = repr((
        sorted((comp, sorted(expr.items()))
               for comp, expr in br.expressions.items()),
        sorted(br.basis)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6fa11a373271db6d3f674a13602597b478d94f1e9b093d328266bc9b6ed4aed6")


def test_reduce_to_basis_length5_digest():
    # the same sha256 at length 5, written by the sparse Fraction
    # elimination, and one more of the expressions in their own order, so
    # the key order of every solved row is pinned as well
    br = reduce_to_basis(5)
    text = repr((
        sorted((comp, sorted(expr.items()))
               for comp, expr in br.expressions.items()),
        sorted(br.basis)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c7c9da6d8cbb32457be5d311c504ffdaf698290c333db6d17c12bf3ebd042c66")
    text = repr((list(br.expressions.items()), br.basis))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0ea62c830cf25f4d7f2f51b1116a3ce8d8573b81674362144ea690ed2ea764e0")


def test_reflection_expression_pinned():
    br = reduce_to_basis(2)
    expr = br.expressions[(("b",), ("a",))]
    assert expr == {
        product_column(((("a",),), (("b",),))): Fraction(1),
        zeta_column((("a",), ("b",))): Fraction(-1),
        zeta_column((("a", "b"),)): Fraction(-1),
    }


def test_basis_expressions_instantiate_to_zero():
    br = reduce_to_basis(3)
    assignment = {"a": 4, "b": 3, "c": 2}
    for comp, expr in br.expressions.items():
        comb = instantiate_expression(comp, expr, assignment)
        assert residual(comb) < 1e-10, comp


def test_length4_expression_spot_check():
    br = reduce_to_basis(4)
    comp = sorted(br.expressions)[0]
    comb = instantiate_expression(
        comp, br.expressions[comp], {"a": 5, "b": 4, "c": 3, "d": 2})
    assert abs(eval_combination(comb, 1e-10).value) < 1e-8


def test_instantiate_column():
    col = zeta_column((("a", "b"), ("c",)))
    term = instantiate_column(col, {"a": 2, "b": 3, "c": 4})
    assert term == ProductTerm(Fraction(1), (composition(5, 4),))
    pcol = product_column((((("a"),),), ((("b"),),)))
    term = instantiate_column(pcol, {"a": 2, "b": 3})
    assert len(term.factors) == 2


def stuffle_expanded(comb):
    """comb with every product of nested sums expanded by stuffle."""
    out = ZetaCombination()
    for t in comb.terms:
        part = zeta(t.factors[0])
        for f in t.factors[1:]:
            part = sum((stuffle(g.factors[0], f).scaled(g.coefficient)
                        for g in part.terms), ZetaCombination())
        out += part.scaled(t.coefficient)
    return out


def test_three_point_identities_are_stuffle_consequences():
    # every three-point identity is a harmonic-product identity: once its
    # products are expanded it vanishes exactly, exponent 1 included
    triples = [t for t in itertools.product(range(1, 7), repeat=3)
               if sum(t) <= 11]
    assert len(triples) == 135
    for t in triples:
        expanded = stuffle_expanded(three_point_identity(*t).combination)
        assert expanded.is_zero(), (t, str(expanded))


def test_rows_handed_to_row_reduce_hold_ints():
    # the split rows hold plain ints, which row_reduce's docstring admits
    # next to Fractions; nothing divides before the elimination
    rows = assemble_permutation_system("abc").rows
    values = [v for row in rows for v in row.values()]
    assert values and all(type(v) is int for v in values)


def dense_rank(rows, columns):
    """Rank by plain row echelon form on a dense Fraction matrix."""
    m = [[Fraction(r.get(c, 0)) for c in columns] for r in rows]
    rank = 0
    for j in range(len(columns)):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][j] / m[rank][j]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def check_reduced_form(rows, columns, pivots, rest):
    """The structural promises of row_reduce on one input."""
    out = list(pivots.values()) + rest
    assert len(out) == len(rows)
    for col, row in pivots.items():
        assert row[col] == 1
        assert all(col not in other for other in out if other is not row)
    assert list(pivots) == [c for c in columns if c in pivots]
    assert all(v != 0 for row in out for v in row.values())


def test_row_reduce_pinned_example():
    rows = [
        {"x": Fraction(2), "y": Fraction(4), "z": Fraction(1)},
        {"x": Fraction(1), "y": Fraction(1)},
        {"y": Fraction(3), "w": Fraction(1)},
        {"y": Fraction(6), "w": Fraction(2)},
    ]
    pivots, rest = row_reduce(rows, ["x", "y", "z", "v"])
    # the unique reduced form with pivots x, y, z and one row left in w
    assert pivots == {
        "x": {"x": 1, "w": Fraction(-1, 3)},
        "y": {"y": 1, "w": Fraction(1, 3)},
        "z": {"z": 1, "w": Fraction(-2, 3)},
    }
    assert rest == [{}]
    check_reduced_form(rows, ["x", "y", "z", "v"], pivots, rest)


def test_row_reduce_pivots_on_shortest_then_first_row():
    rows = [{"y": Fraction(1), "z": Fraction(1), "u": Fraction(1)},
            {"y": Fraction(2), "z": Fraction(1)},
            {"y": Fraction(1), "w": Fraction(1)}]
    pivots, rest = row_reduce(rows, ["y"])
    assert pivots == {"y": {"y": 1, "z": Fraction(1, 2)}}
    assert rest == [{"z": Fraction(1, 2), "u": 1}, {"w": 1, "z": Fraction(-1, 2)}]


def test_row_reduce_column_without_row_gets_no_pivot():
    rows = [{"x": Fraction(1), "y": Fraction(1)}]
    pivots, rest = row_reduce(rows, ["z", "x", "y"])
    assert list(pivots) == ["x"]
    assert rest == []
    assert row_reduce([], ["x"]) == ({}, [])


def test_row_reduce_leaves_input_unchanged():
    rows = [{"x": Fraction(1), "y": Fraction(2)},
            {"x": Fraction(3), "y": Fraction(4)},
            {"y": Fraction(5), "z": Fraction(1)}]
    before = copy.deepcopy(rows)
    pivots, rest = row_reduce(rows, ["x", "y"])
    assert rows == before
    assert not any(r is o for r in rows for o in list(pivots.values()) + rest)
    assert rest == [{"z": Fraction(1)}]


small_matrices = st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
    max_size=6))


@settings(max_examples=200, deadline=None)
@given(small_matrices, st.data())
def test_row_reduce_rank_matches_dense(matrix, data):
    ncols = len(matrix[0]) if matrix else 0
    rows = [{j: Fraction(v) for j, v in enumerate(r) if v} for r in matrix]
    before = copy.deepcopy(rows)
    every = list(range(ncols))
    pivots, rest = row_reduce(rows, every)
    assert rows == before
    assert len(pivots) == dense_rank(rows, every)
    check_reduced_form(rows, every, pivots, rest)
    assert all(not r for r in rest)
    # pivoting a subset of columns, in any order, keeps the row space
    columns = data.draw(st.permutations(every))[:data.draw(
        st.integers(0, ncols))]
    pivots, rest = row_reduce(rows, columns)
    check_reduced_form(rows, columns, pivots, rest)
    assert len(pivots) == dense_rank(rows, columns)
    assert dense_rank(list(pivots.values()) + rest, every) == dense_rank(
        rows, every)


def fraction_row_reduce(rows, columns):
    """The sparse Fraction elimination that row_reduce replaced, kept as its
    oracle: every entry, zero and key order of row_reduce must match it."""
    rest = [dict(r) for r in rows]
    pivots = {}
    for col in columns:
        best = None
        for i, r in enumerate(rest):
            if col in r and (best is None or len(r) < len(rest[best])):
                best = i
        if best is None:
            continue
        piv = rest.pop(best)
        pval = piv[col]
        piv = {c: v / pval for c, v in piv.items()}
        for r in itertools.chain(rest, pivots.values()):
            f = r.get(col)
            if f:
                for c, v in piv.items():
                    nv = r.get(c, 0) - f * v
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
        pivots[col] = piv
    return pivots, rest


def assert_same_reduction(got, want):
    """Equal pivots and rest, in the same order and with the same key order
    in every row, all held as Fractions."""
    (pivots, rest), (want_pivots, want_rest) = got, want
    assert list(pivots) == list(want_pivots)
    for col, row in want_pivots.items():
        assert list(pivots[col].items()) == list(row.items())
    assert [list(r.items()) for r in rest] == [
        list(r.items()) for r in want_rest]
    values = [v for r in list(pivots.values()) + rest for v in r.values()]
    assert all(type(v) is Fraction for v in values)


entries = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                    st.integers(1, 4))
sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 7), entries, max_size=6), max_size=8)


@settings(max_examples=300, deadline=None)
@given(sparse_rows, st.data())
def test_row_reduce_matches_the_fraction_elimination(rows, data):
    # combinations of the drawn rows: their entries cancel to zero in some
    # columns, so rows shrink and tie in length
    for _ in range(data.draw(st.integers(0, 4)) if rows else 0):
        i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        scale = data.draw(entries)
        mixed = {c: rows[i].get(c, 0) + scale * rows[j].get(c, 0)
                 for c in {**rows[i], **rows[j]}}
        rows.append({c: v for c, v in mixed.items() if v})
    # column 8 is in no row; any subset of the columns, in any order
    order = data.draw(st.permutations(range(9)))
    columns = order[:data.draw(st.integers(0, 9))]
    before = copy.deepcopy(rows)
    assert_same_reduction(row_reduce(rows, columns),
                          fraction_row_reduce(before, columns))
    assert rows == before


def _with_combinations(rows):
    """rows, then each of the first 12 minus 3/2 times the next: rows over
    the system's own columns, which the elimination has to clear."""
    mixed = ({c: r.get(c, 0) - Fraction(3, 2) * t.get(c, 0)
              for c in {**r, **t}} for r, t in zip(rows[:12], rows[1:13]))
    return rows + [{c: v for c, v in r.items() if v} for r in mixed]


@pytest.mark.parametrize("symbols", ["abcd", "aabcd", "abcde"])
def test_row_reduce_matches_the_fraction_elimination_on_systems(symbols):
    # the permutation rows and combinations of them, with every unknown
    # pivoted last-first and the right-hand sides after them
    mat = assemble_permutation_system(symbols)
    rows = _with_combinations(mat.rows)
    columns = list(reversed(mat.unknowns)) + mat.rhs_columns[:40]
    assert_same_reduction(row_reduce(rows, columns),
                          fraction_row_reduce(rows, columns))


@pytest.mark.parametrize("symbols", ["abcd", "aabcd"])
def test_row_echelon_form_keeps_the_pivots_and_the_rest(symbols):
    # pivot rows left uncleared change no other row: the pivot columns and
    # the rest, key order included, are those of the reduced form
    mat = assemble_permutation_system(symbols)
    rows = _with_combinations(mat.rows)
    columns = list(reversed(mat.unknowns)) + mat.rhs_columns[:40]
    pivots, rest = _eliminate(rows, columns)
    echelon, echelon_rest = _eliminate(rows, columns, reduced=False)
    assert list(echelon) == list(pivots)
    assert [(list(r.items()), d) for r, d in echelon_rest] == [
        (list(r.items()), d) for r, d in rest]
    # each pivot row holds no earlier pivot column
    for k, (col, (r, _)) in enumerate(echelon.items()):
        assert col in r and not set(list(echelon)[:k]) & r.keys()


def test_permutation_system_is_independent_of_hash_seed():
    source_root = pathlib.Path(mzv.__file__).resolve().parent.parent
    code = ("from mzv import assemble_permutation_system, reduce_to_basis\n"
            "print(repr(assemble_permutation_system('abcd').row_labels))\n"
            "print(repr(list(reduce_to_basis(4).expressions.items())))\n")
    path = os.pathsep.join(
        p for p in [str(source_root), os.environ.get("PYTHONPATH")] if p)
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        outputs.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            check=True, timeout=120).stdout)
    assert outputs[0] == outputs[1]


def restricted_rank(mat):
    keep = set(mat.unknowns)
    rows = [{c: v for c, v in r.items() if c in keep} for r in mat.rows]
    return len(row_reduce(rows, mat.unknowns)[0])


def test_exact_rank_with_a_word_size_prime_entry():
    # the entry 2^31 - 1 vanishes modulo that prime, where the rank is 1;
    # over Q it is 2
    rows = [{"x": Fraction(1), "y": Fraction(2 ** 31 - 1)}, {"x": Fraction(1)}]
    assert ExactMatrix(rows, ["r1", "r2"]).rank() == 2 == dense_rank(
        rows, ["x", "y"])


def test_exact_rank_with_a_large_kernel_vector():
    # the kernel vector (40000, 1, 0, 0) is past what a rational
    # reconstruction modulo 2^31 - 1 recovers; exact elimination needs none
    rows = [{"x": Fraction(1), "y": Fraction(-40000)},
            {"z": Fraction(1), "w": Fraction(2, 3)},
            {"w": Fraction(3), "v": Fraction(-1)}]
    columns = ["x", "y", "z", "w", "v"]
    assert ExactMatrix(rows, ["r1", "r2", "r3"]).rank() == 3 == dense_rank(
        rows, columns)


def test_repeated_and_scaled_rows_count_once():
    rows = [{"x": Fraction(1, 2), "y": Fraction(1, 3)},
            {"x": Fraction(3), "y": Fraction(2)},
            {"y": Fraction(0), "z": Fraction(5)},
            {}]
    labels = list(range(len(rows)))
    assert ExactMatrix(rows, labels, unknowns=("x", "y", "z")).rank() == 2
    assert ExactMatrix(rows, labels, unknowns=("y",)).rank() == 1
    assert ExactMatrix([], [], unknowns=("x",)).rank() == 0


def test_large_entries_are_checked_in_python_ints():
    big = Fraction(2 ** 70 + 1)
    rows = [{"x": big, "y": -big, "z": Fraction(1)}, {"z": Fraction(1)}]
    assert ExactMatrix(rows, ["r1", "r2"]).rank() == 2


sparse_rows = st.lists(st.dictionaries(
    st.integers(0, 6),
    st.builds(Fraction,
              st.one_of(st.integers(-4, 4), st.integers(-2 ** 40, 2 ** 40)),
              st.integers(1, 6)).filter(bool),
    max_size=4), max_size=8)


@settings(max_examples=300, deadline=None)
@given(sparse_rows, st.integers(1, 7))
def test_rank_matches_dense(rows, ncols):
    columns = list(range(ncols))
    mat = ExactMatrix(rows, list(range(len(rows))), unknowns=tuple(columns))
    assert mat.rank() == dense_rank(rows, columns)


# Symbol multiplicities of the degenerate systems the benchmark ranks.
BENCHMARK_SHAPES = ((2, 1), (3,), (2, 1, 1), (2, 2), (3, 1), (2, 1, 1, 1),
                    (2, 2, 1), (3, 1, 1), (3, 2), (2, 2, 1, 1), (2, 2, 2),
                    (3, 2, 1))


def test_exact_rank_of_permutation_systems():
    for l in range(2, 6):
        mat = assemble_permutation_system(generic_symbols(l))
        expected = math.factorial(l) - math.factorial(l - 1)
        assert mat.rank() == expected
    for shape in BENCHMARK_SHAPES:
        symbols = "".join(s * m for s, m in zip("abcd", shape))
        mat = assemble_permutation_system(symbols)
        assert mat.rank() == restricted_rank(mat), symbols


def multiplicity_shapes(length):
    """The partitions of length, largest part first."""
    if not length:
        return [()]
    return [(k,) + rest for k in range(length, 0, -1)
            for rest in multiplicity_shapes(length - k)
            if not rest or rest[0] <= k]


def eliminated_rows(rank, monkeypatch):
    """The rows, as item lists, that rank() hands to _eliminate; the
    elimination itself is skipped."""
    handed = []

    def recorded_eliminate(rows, columns, reduced=True):
        handed.extend(list(r.items()) for r in rows)
        return {}, []

    with monkeypatch.context() as m:
        m.setattr(mzv.linalg, "_eliminate", recorded_eliminate)
        rank()
    return handed


def test_shuffle_rows_are_the_assembled_rows_on_the_unknowns(monkeypatch):
    # equal rows go through the same elimination, so the ranks agree too;
    # the letter patterns hold every shape of at most three letters
    words = list(letter_patterns(6))
    words += ["".join(s * m for s, m in zip("abcdef", shape))
              for l in range(4, 7) for shape in multiplicity_shapes(l)
              if len(shape) > 3]
    assert len(words) == 1 + 2 + 5 + 14 + 41 + 122 + 7
    compared = 0
    for symbols in words:
        mat = assemble_permutation_system(symbols)
        shuffle_rows = eliminated_rows(
            lambda: permutation_rank(symbols), monkeypatch)
        assert shuffle_rows == eliminated_rows(mat.rank, monkeypatch), symbols
        compared += len(shuffle_rows)
        assert permutation_system_size(symbols) == (
            len(mat.rows), len(set().union(*mat.rows))), symbols
    assert compared > len(words)


def test_permutation_rank_is_one_echelon_form_without_assembly(
        monkeypatch):
    expected = {}
    for shape in BENCHMARK_SHAPES:
        symbols = "".join(s * m for s, m in zip("abcd", shape))
        expected[symbols] = restricted_rank(
            assemble_permutation_system(symbols))
    eliminated = []

    def counted_eliminate(rows, columns, reduced=True):
        eliminated.append(reduced)
        return _eliminate(rows, columns, reduced)

    def no_assembly(symbols):
        raise AssertionError("permutation system assembled")

    monkeypatch.setattr(mzv.linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(mzv.linalg, "assemble_permutation_system",
                        no_assembly)
    for symbols, rank in expected.items():
        assert permutation_rank(symbols) == rank, symbols
    # one row echelon form per system, from the shuffle rows alone
    assert eliminated == [False] * len(BENCHMARK_SHAPES)
